"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line with its runtime and enforcing its time budget.

The claim tests are parametrized over ``verify.CLAIM_TABLE`` and graded by
``verify.run_claims``, the grader behind ``aisemiring paper-verify --full``,
so each budget lives in that table alone and pytest and the command line
grade at the same strictness. Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines. Each claim also has negative controls: with
what it certifies broken, it must fail with its own failure report.
"""

import re
import time

import pytest

from aisemiring import verify
from aisemiring.algebra import ValidationReport, registry
from aisemiring.derivation import DerivationVerdict, SearchResult
from aisemiring.family import FamilyVerdict
from aisemiring.graphs import OddCycleError, OddPathError
from aisemiring.satisfaction import SatisfactionVerdict


@pytest.mark.parametrize("claim_id", list(verify.CLAIM_TABLE))
def test_criterion(claim_id, monkeypatch):
    monkeypatch.setattr(verify, "CLAIM_TABLE", {claim_id: verify.CLAIM_TABLE[claim_id]})
    result, _out_of_scope = verify.run_claims(full=True).claims
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


def _wrap(monkeypatch, name, make):
    """Replace verify.<name> by make(the real one)."""
    monkeypatch.setattr(verify, name, make(getattr(verify, name)))


def _catching(error, handle):
    """A constrained_bipartition that passes ``error`` to handle(exc, G, H)."""
    def make(real):
        def broken(G, H):
            try:
                return real(G, H)
            except error as exc:
                return handle(exc, G, H)
        return broken
    return make


def _unsound_models(monkeypatch):
    # every model satisfies sigma, none the claim the search was given
    seen = {}

    def search(real):
        def recording(sigma, claim, bounds):
            seen["claim"] = claim
            return real(sigma, claim, bounds)
        return recording

    _wrap(monkeypatch, "search_derivation", search)
    monkeypatch.setattr(verify, "holds_identity",
                        lambda S, u, v: SatisfactionVerdict((u, v) != seen["claim"]))


def _even_cycle(exc, G, H):
    raise OddCycleError(exc.cycle + exc.cycle[:1])


def _odd_path(exc, G, H):
    raise OddPathError(exc.pair, exc.path[:-1])


#: case -> (claim id, breakage(monkeypatch), pattern its observed text must match)
BROKEN_CLAIMS = {
    "registry-valid": (
        "registry-valid",
        lambda mp: mp.setattr(verify, "validate", lambda add, mul: ValidationReport(False, ())),
        r"violations in \['R6', 'S2', 'S4_124', 'S4_359', 'S53', 'S7'\]",
    ),
    "profile-s4-124": (
        "profile-s4-124",
        lambda mp: _wrap(mp, "natural_order", lambda real: lambda S: real(registry("S7"))),
        r"top \w, minimals \{.*\}, coatoms \{.*\}",
    ),
    "structure-s4-124": (
        "structure-s4-124",
        lambda mp: mp.setattr(verify, "are_isomorphic", lambda A, B: False),
        r"missing: \['sub \{1,2,4\} iso S2', 'sub \{1,2,3\} iso S53', "
        r"'quotient \{1,2\}\|\{3\}\|\{4\} iso S7'\]",
    ),
    "subdirect-decompositions": (
        "subdirect-decompositions",
        lambda mp: mp.setattr(verify, "are_isomorphic", lambda A, B: False),
        r"R6 decomposition ok=False, S4_359 decomposition ok=False",
    ),
    "family-brute-force": (
        "family-brute-force",
        lambda mp: mp.setattr(verify, "in_W", lambda S, n_max: [
            FamilyVerdict(1, SatisfactionVerdict(True)),
            FamilyVerdict(2, SatisfactionVerdict(False)),
        ]),
        r"failures: \[\('S2', 2\), \('S7', 2\), \('S53', 2\), \('S4_124', 2\)\]",
    ),
    "decider-oracle": (
        "decider-oracle",
        lambda mp: mp.setitem(verify.DECIDERS, "S7", lambda q, u: True),
        r"\d+ discrepancies \(S7: .+ <= .+ decider=True oracle=False\)",
    ),
    "delta-family": (
        "delta-computation",
        lambda mp: mp.setattr(verify, "delta", lambda u: frozenset({frozenset({"x1"})})),
        r"nonempty delta at n=1",
    ),
    "delta-random": (
        "delta-computation",
        lambda mp: mp.setattr(verify, "delta", lambda u: frozenset()),
        r"mismatch on .+",
    ),
    "graph-family-cycle": (
        "graph-bipartition",
        lambda mp: mp.setattr(verify, "find_odd_cycle", lambda g: None),
        r"n=1: cycle None",
    ),
    "graph-h-outside-y": (
        "graph-bipartition",
        lambda mp: _wrap(mp, "constrained_bipartition", lambda real: lambda G, H: (
            lambda Y, Z: (Y - H, Z | H))(*real(G, H))),
        r"case \d+: H not in Y",
    ),
    "graph-edge-inside-a-side": (
        "graph-bipartition",
        lambda mp: _wrap(mp, "constrained_bipartition", lambda real: lambda G, H: (
            lambda Y, Z: (Y | Z, frozenset()))(*real(G, H))),
        r"case \d+: edge \(\w+,\w+\) not separated",
    ),
    "graph-odd-cycle-accepted": (
        "graph-bipartition",
        lambda mp: _wrap(mp, "constrained_bipartition", _catching(
            OddCycleError, lambda exc, G, H: (frozenset(H), frozenset()))),
        r"case \d+: odd cycle accepted",
    ),
    "graph-even-cycle-witness": (
        "graph-bipartition",
        lambda mp: _wrap(mp, "constrained_bipartition", _catching(OddCycleError, _even_cycle)),
        r"case \d+: bad witness \(.+\)",
    ),
    "graph-odd-pair-accepted": (
        "graph-bipartition",
        lambda mp: _wrap(mp, "constrained_bipartition", _catching(
            OddPathError, lambda exc, G, H: (frozenset(H), frozenset()))),
        r"case \d+: accepted \w+,\w+",
    ),
    "graph-odd-path-witness": (
        "graph-bipartition",
        lambda mp: _wrap(mp, "constrained_bipartition", _catching(OddPathError, _odd_path)),
        r"case \d+: bad witness \(.+\)",
    ),
    "census-order-3": (
        "census-order-3",
        lambda mp: _wrap(mp, "enumerate_ai_semirings", lambda real: lambda k: real(k)[1:]),
        r"60 isomorphism classes of order 3",
    ),
    "census-order-4": (
        "census-order-4",
        lambda mp: _wrap(mp, "enumerate_ai_semirings", lambda real: lambda k: real(k - 1)),
        r"61 classes, \d+ additive types, .+ with two minimals and two coatoms",
    ),
    "screen-order-3": (
        "screen-order-3",
        lambda mp: mp.setattr(verify, "screen_family", lambda algebras, n: []),
        r"0 classes pass, missing \['S2', 'S7', 'S53'\]",
    ),
    "soundness-checker": (
        "derivation-soundness",
        lambda mp: mp.setattr(verify, "check_derivation", lambda d, claim: DerivationVerdict(
            False, 0, "stub")),
        r"case 0: checker rejected with stub",
    ),
    "soundness-models": (
        "derivation-soundness",
        _unsound_models,
        r"case \d+: \w+ satisfies sigma but not the claim",
    ),
    "soundness-nothing-found": (
        "derivation-soundness",
        lambda mp: mp.setattr(verify, "search_derivation", lambda sigma, claim, bounds:
                              SearchResult(None, "exhausted: stub", 0)),
        r"only 0/20 searches found a derivation",
    ),
    "claim-raises": (
        "registry-valid",
        lambda mp: mp.setattr(verify, "registry", lambda name: {}[name]),
        r"KeyError: 'R6'",
    ),
}


@pytest.mark.parametrize("case", list(BROKEN_CLAIMS))
def test_broken_claim_fails_with_its_own_report(case, monkeypatch):
    # negative controls: break what a claim certifies and it must fail with
    # its own failure text; the sampled claims draw 20 cases instead of
    # thousands, so each control takes milliseconds
    claim_id, breakage, pattern = BROKEN_CLAIMS[case]
    for size in ("ORACLE_INEQUALITIES", "DELTA_TERMS", "GRAPH_CASES", "SOUNDNESS_SEARCHES"):
        monkeypatch.setattr(verify, size, 20)
    breakage(monkeypatch)
    monkeypatch.setattr(verify, "CLAIM_TABLE", {claim_id: verify.CLAIM_TABLE[claim_id]})
    result, _out_of_scope = verify.run_claims(full=True).claims
    assert result.status == "fail"
    assert re.fullmatch(pattern, result.observed), result.observed
    if case == "claim-raises":
        assert result.expected == "claim runs to completion"


def test_every_claim_has_a_negative_control():
    assert {claim_id for claim_id, _, _ in BROKEN_CLAIMS.values()} == set(verify.CLAIM_TABLE)
