"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line with its runtime and enforcing its time budget.

The claim tests are parametrized over ``verify.CLAIM_TABLE``, so each
budget lives in that table alone. Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines;
``aisemiring paper-verify --full`` drives the same claim functions from the
command line.
"""

import time

import pytest

from aisemiring import verify


@pytest.mark.parametrize("claim_id", list(verify.CLAIM_TABLE))
def test_criterion(claim_id):
    _desc, budget_seconds, _needs_full, runner = verify.CLAIM_TABLE[claim_id]
    t0 = time.perf_counter()
    expected, observed = runner(None)
    elapsed = time.perf_counter() - t0
    ok = expected == observed
    print(
        f"criterion {claim_id}: {'PASS' if ok else 'FAIL'} "
        f"({elapsed:.2f}s of {budget_seconds:.0f}s budget)"
    )
    assert ok, f"criterion {claim_id}: expected {expected!r}, observed {observed!r}"
    assert elapsed < budget_seconds, (
        f"criterion {claim_id} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
    )


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
