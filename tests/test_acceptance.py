"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line with its runtime and enforcing its time budget.

The claim tests are parametrized over ``verify.CLAIM_TABLE`` and graded by
``verify.run_claims``, the grader behind ``aisemiring paper-verify --full``,
so each budget lives in that table alone and pytest and the command line
grade at the same strictness. Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

import time

import pytest

from aisemiring import verify


@pytest.mark.parametrize("claim_id", list(verify.CLAIM_TABLE))
def test_criterion(claim_id):
    [result] = verify.run_claims(full=True, only={claim_id}).claims
    print(result.line())
    assert result.status == "pass", result.line()


def test_criterion_13_out_of_scope_declared(monkeypatch):
    # conclusions quantifying over every n at once must be listed as out of
    # scope in every default report, not graded pass/fail; trim the table so
    # only one cheap claim runs
    t0 = time.perf_counter()
    trimmed = {"registry-valid": verify.CLAIM_TABLE["registry-valid"]}
    monkeypatch.setattr(verify, "CLAIM_TABLE", trimmed)
    report = verify.run_claims()
    elapsed = time.perf_counter() - t0
    meta = [c for c in report.claims if c.claim_id == "nonfinite-basis-meta"]
    ok = (
        len(meta) == 1
        and meta[0].status == "skipped"
        and meta[0].observed == "out of scope: not machine-checkable"
        and report.ok
    )
    print(f"criterion 13: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert ok
