"""Built-in claim suite: every desk-checkable fact the library reproduces.

Each claim runs one reproducible computation (seeded where randomized) and
reports expected vs observed. The ``paper-verify`` CLI command and the
acceptance test module both drive this suite, so command-line runs and
pytest runs cannot drift apart.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass

from .algebra import REGISTRY_NAMES, natural_order, registry, validate
from .derivation import SearchBounds, check_derivation, search_derivation, sorted_rewrites
from .enumeration import (
    classify_additive_type,
    enumerate_ai_semirings,
    screen_family,
)
from .family import in_W, make_family
from .graphs import (
    OddCycleError,
    OddPathError,
    constrained_bipartition,
    find_odd_cycle,
    graph_of,
    make_graph,
)
from .satisfaction import DECIDERS, holds_identity, holds_inequality
from .structure import Partition, are_isomorphic, check_subdirect, quotient, subalgebra
from .terms import Term, Word, content, delta, occ, parse_term

_SEED = 20250806

#: how many random cases each sampled claim draws
ORACLE_INEQUALITIES = 10_000
DELTA_TERMS = 400
GRAPH_CASES = 1000
SOUNDNESS_SEARCHES = 1000


@dataclass
class ClaimResult:
    claim_id: str
    description: str
    status: str  # "pass" | "fail" | "skipped"
    expected: str
    observed: str
    seconds: float

    def line(self) -> str:
        mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[self.status]
        out = f"[{mark}] {self.claim_id}: {self.description}"
        if self.status == "fail":
            out += f"\n       expected {self.expected}; observed {self.observed}"
        elif self.status == "skipped":
            out += f" ({self.observed})"
        return out + f"  [{self.seconds:.2f}s]"


@dataclass
class RunReport:
    command: str
    claims: list[ClaimResult]

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.claims)

    def render(self) -> str:
        lines = [c.line() for c in self.claims]
        n_pass = sum(c.status == "pass" for c in self.claims)
        n_fail = sum(c.status == "fail" for c in self.claims)
        n_skip = sum(c.status == "skipped" for c in self.claims)
        lines.append(f"{n_pass} passed, {n_fail} failed, {n_skip} skipped")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "ok": self.ok,
                "claims": [
                    {
                        "id": c.claim_id,
                        "description": c.description,
                        "status": c.status,
                        "expected": c.expected,
                        "observed": c.observed,
                        "seconds": round(c.seconds, 3),
                    }
                    for c in self.claims
                ],
            },
            indent=2,
        )


# ---------------------------------------------------------------------------
# individual claims; each returns (expected, observed) strings that match
# exactly when the claim holds


def claim_registry_valid():
    bad = []
    for name in REGISTRY_NAMES:
        S = registry(name)
        report = validate(S.add, S.mul)
        if not report.ok:
            bad.append(name)
    expected = f"all {len(REGISTRY_NAMES)} reference algebras pass the axiom check"
    return expected, expected if not bad else f"violations in {bad}"


def claim_profile_s4_124():
    S = registry("S4_124")
    p = natural_order(S)
    observed = (
        f"top {S.label(p.top)}, minimals "
        f"{{{','.join(sorted(S.label(i) for i in p.minimals))}}}, coatoms "
        f"{{{','.join(sorted(S.label(i) for i in p.coatoms))}}}"
    )
    return "top 1, minimals {3,4}, coatoms {2,4}", observed


def claim_structure_s4_124():
    S = registry("S4_124")
    checks = {
        "sub {1,2,4} iso S2": are_isomorphic(
            subalgebra(S, [S.index(x) for x in "124"]), registry("S2")
        ),
        "sub {1,2,3} iso S53": are_isomorphic(
            subalgebra(S, [S.index(x) for x in "123"]), registry("S53")
        ),
        "quotient {1,2}|{3}|{4} iso S7": are_isomorphic(
            quotient(S, Partition.closing([[S.index("1"), S.index("2")]], 4)),
            registry("S7"),
        ),
    }
    failed = [k for k, v in checks.items() if not v]
    return "all 3 isomorphisms found", (
        "all 3 isomorphisms found" if not failed else f"missing: {failed}"
    )


def claim_subdirect():
    R6 = registry("R6")
    rep = check_subdirect(
        R6,
        Partition.closing([[0, 1, 2, 3]], 6),
        Partition.closing([[0, 5], [1, 4]], 6),
    )
    ok1 = (
        rep.injective
        and rep.surjective
        and are_isomorphic(rep.factor1, registry("S2"))
        and are_isomorphic(rep.factor2, registry("S4_359"))
    )
    S359 = registry("S4_359")
    rep2 = check_subdirect(
        S359, Partition.closing([[0, 1]], 4), Partition.closing([[0, 3]], 4)
    )
    ok2 = (
        rep2.injective
        and rep2.surjective
        and are_isomorphic(rep2.factor1, registry("S7"))
        and are_isomorphic(rep2.factor2, registry("S53"))
    )
    expected = "R6 subdirect in S2 x S4_359; S4_359 subdirect in S7 x S53"
    if ok1 and ok2:
        return expected, expected
    return expected, f"R6 decomposition ok={ok1}, S4_359 decomposition ok={ok2}"


def claim_family_brute_force():
    failing = []
    for name in ("S2", "S7", "S53", "S4_124"):
        for v in in_W(registry(name), 3):
            if not v.holds:
                failing.append((name, v.n))
    expected = "S2, S7, S53, S4_124 satisfy the family inequality for n=1..3"
    return expected, expected if not failing else f"failures: {failing}"


def _random_word(rng: random.Random, variables, max_len: int) -> Word:
    return Word(rng.choice(variables) for _ in range(rng.randint(1, max_len)))


def _random_term(rng: random.Random, variables, max_summands: int, max_len: int) -> Term:
    return Term(_random_word(rng, variables, max_len)
                for _ in range(rng.randint(1, max_summands)))


def random_inequality(rng: random.Random, variables=("x", "y", "z", "w")):
    q = _random_word(rng, variables, 4)
    return q, _random_term(rng, variables, 4, 4)


def claim_decider_oracle():
    rng = random.Random(_SEED)
    algebras = {name: registry(name) for name in DECIDERS}
    mismatches = 0
    first = None
    for _ in range(ORACLE_INEQUALITIES):
        q, u = random_inequality(rng)
        for name, decider in DECIDERS.items():
            got = decider(q, u)
            want = holds_inequality(algebras[name], q, u).holds
            if got != want:
                mismatches += 1
                if first is None:
                    first = f"{name}: {q} <= {u} decider={got} oracle={want}"
    expected = f"0 discrepancies on {ORACLE_INEQUALITIES} inequalities x {len(DECIDERS)} deciders"
    observed = expected if mismatches == 0 else f"{mismatches} discrepancies ({first})"
    return expected, observed


def delta_by_enumeration(u: Term) -> frozenset[frozenset[str]]:
    """Independent oracle for delta: enumerate all subsets of content(u)."""
    variables = sorted(content(u))
    out = set()
    for r in range(len(variables) + 1):
        for combo in itertools.combinations(variables, r):
            Z = frozenset(combo)
            ok = True
            for w in u.words:
                hits = [x for x in set(w.letters) if x in Z]
                if len(hits) != 1 or occ(hits[0], w) != 1:
                    ok = False
                    break
            if ok:
                out.add(Z)
    return frozenset(out)


def claim_delta():
    for n in range(1, 11):
        if delta(make_family(n).u) != frozenset():
            return "empty delta for family n=1..10", f"nonempty delta at n={n}"
    rng = random.Random(_SEED + 1)
    for _ in range(DELTA_TERMS):
        u = _random_term(rng, ("a", "b", "c", "d", "e"), 4, 4)
        if delta(u) != delta_by_enumeration(u):
            return (
                "delta matches the subset-enumeration oracle",
                f"mismatch on {u}",
            )
    expected = f"family deltas empty and {DELTA_TERMS} random terms match the oracle"
    return expected, expected


def _random_bipartite(rng: random.Random):
    left = [f"a{i}" for i in range(rng.randint(1, 5))]
    right = [f"b{i}" for i in range(rng.randint(1, 5))]
    edges = [
        (a, b) for a in left for b in right if rng.random() < 0.4
    ]
    H = frozenset(v for v in left if rng.random() < 0.5)
    return make_graph(edges, left + right), H


def claim_graphs():
    for n in range(1, 6):
        g = graph_of(make_family(n).u)
        cyc = find_odd_cycle(g)
        if cyc is None or len(cyc) != 2 * n + 1:
            return (
                "family graphs carry an odd cycle of length 2n+1",
                f"n={n}: cycle {cyc}",
            )
    rng = random.Random(_SEED + 2)
    for i in range(GRAPH_CASES):
        G, H = _random_bipartite(rng)
        Y, Z = constrained_bipartition(G, H)
        if not H <= Y:
            return "constrained bipartition keeps H inside Y", f"case {i}: H not in Y"
        for a, b in G.edges:
            if (a in Y and b in Y) or (a in Z and b in Z):
                return (
                    "constrained bipartition separates every edge",
                    f"case {i}: edge ({a},{b}) not separated",
                )
        # planted odd cycle must be rejected with a genuine odd cycle
        G_odd = make_graph(
            list(G.edges) + [("t0", "t1"), ("t1", "t2"), ("t0", "t2")],
            G.vertices,
        )
        try:
            constrained_bipartition(G_odd, H)
            return "planted odd cycle rejected", f"case {i}: odd cycle accepted"
        except OddCycleError as exc:
            c = exc.cycle
            edges = G_odd.edges
            pairs = [tuple(sorted((c[j], c[(j + 1) % len(c)]))) for j in range(len(c))]
            if len(c) % 2 == 0 or (len(c) > 1 and any(p not in edges for p in pairs)):
                return "odd cycle witness is a cycle", f"case {i}: bad witness {c}"
        # planted odd path between two constrained vertices must be rejected
        if G.edges:
            a, b = sorted(G.edges)[rng.randrange(len(G.edges))]
            try:
                constrained_bipartition(G, frozenset({a, b}))
                return "planted odd pair rejected", f"case {i}: accepted {a},{b}"
            except OddPathError as exc:
                path = exc.path
                ok = (
                    set(exc.pair) == {a, b}
                    and path[0] in exc.pair
                    and path[-1] in exc.pair
                    and path[0] != path[-1]
                    and len(path) % 2 == 0
                    and all(
                        tuple(sorted((path[j], path[j + 1]))) in G.edges
                        for j in range(len(path) - 1)
                    )
                )
                if not ok:
                    return "odd path witness is valid", f"case {i}: bad witness {path}"
    expected = f"family odd cycles sized 2n+1 and {GRAPH_CASES} random instances behave"
    return expected, expected


def claim_census_3():
    n = len(enumerate_ai_semirings(3))
    return "61 isomorphism classes of order 3", f"{n} isomorphism classes of order 3"


def claim_census_4():
    algebras = enumerate_ai_semirings(4)
    types = classify_additive_type(algebras)
    two_two = [t.count for t in types if (t.n_minimals, t.n_coatoms) == (2, 2)]
    observed = (
        f"{len(algebras)} classes, {len(types)} additive types, "
        f"{two_two[0] if len(two_two) == 1 else two_two} with two minimals "
        "and two coatoms"
    )
    return "866 classes, 5 additive types, 217 with two minimals and two coatoms", observed


def claim_screen_3():
    algebras = enumerate_ai_semirings(3)
    passing = screen_family(algebras, 2)
    missing = [
        name
        for name in ("S2", "S7", "S53")
        if not any(are_isomorphic(registry(name), S) for S in passing)
    ]
    ok = len(passing) >= 32 and not missing
    expected = ">= 32 of 61 classes pass n<=2, including S2, S7, S53"
    observed = (
        f"{len(passing)} classes pass"
        + ("" if not missing else f", missing {missing}")
    )
    return expected, observed if not ok else expected


_IDENTITY_TEMPLATES = (
    ("xy", "yx"),
    ("x", "x + x"),
    ("x", "xx"),
    ("x + xy", "x"),
    ("xy", "x"),
    ("x + y", "y + x"),
    ("xyx", "xy"),
)


def _random_sigma(rng: random.Random):
    sigma = []
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            lhs, rhs = _IDENTITY_TEMPLATES[rng.randrange(len(_IDENTITY_TEMPLATES))]
            sigma.append((parse_term(lhs), parse_term(rhs)))
        else:
            sigma.append(tuple(_random_term(rng, ("x", "y"), 2, 2) for _ in range(2)))
    return sigma


def _random_reachable_claim(rng: random.Random, sigma, bounds: SearchBounds):
    start = _random_term(rng, ("a", "b", "c"), 2, 2)
    cur = start
    pool = sorted(content(start)) or ["a"]
    for _ in range(rng.randint(1, 2)):
        # one draw over the sorted rewrites, building only the Term it keeps
        options, _ = sorted_rewrites(sigma, cur, bounds, pool)
        if not options:
            break
        cur = Term._of_letters(w for _, w in options[rng.randrange(len(options))][0])
    return start, cur


#: bounds of the derivation-soundness claim's searches
SOUNDNESS_BOUNDS = SearchBounds(max_chain=4, max_word_len=5, max_summands=5,
                                max_subst_image=3)


def claim_derivation_soundness():
    rng = random.Random(_SEED + 3)
    pool = (
        enumerate_ai_semirings(1)
        + enumerate_ai_semirings(2)
        + enumerate_ai_semirings(3)
        + [registry("S4_124"), registry("S4_359")]
    )
    found = 0
    for i in range(SOUNDNESS_SEARCHES):
        sigma = _random_sigma(rng)
        claim = _random_reachable_claim(rng, sigma, SOUNDNESS_BOUNDS)
        result = search_derivation(sigma, claim, SOUNDNESS_BOUNDS)
        if not result.found:
            continue
        found += 1
        verdict = check_derivation(result.derivation, claim)
        if not verdict.ok:
            return (
                "every found derivation passes the checker",
                f"case {i}: checker rejected with {verdict.reason}",
            )
        sample = [pool[rng.randrange(len(pool))] for _ in range(4)]
        for S in sample:
            if all(holds_identity(S, s, sp).holds for s, sp in sigma):
                if not holds_identity(S, claim[0], claim[1]).holds:
                    return (
                        "models of sigma satisfy every derived claim",
                        f"case {i}: {S.name} satisfies sigma but not the claim",
                    )
    expected = "all found derivations check and are sound on sampled models"
    if found < SOUNDNESS_SEARCHES // 2:
        return expected, f"only {found}/{SOUNDNESS_SEARCHES} searches found a derivation"
    return expected, expected


# ---------------------------------------------------------------------------

#: claim_id -> (description, time budget in seconds, needs --full, runner);
#: runner() returns (expected, observed). A budget is max(5 s, 10x the
#: claim's longest time over ten `paper-verify --full` runs on a 2-core
#: host, rounded up to a whole second), or 1 s for the table lookups, so
#: that a tenfold slowdown of any claim above half a second fails it
CLAIM_TABLE = {
    "registry-valid": (
        "reference Cayley tables satisfy all ai-semiring axioms",
        1.0,
        False,
        claim_registry_valid,
    ),
    "profile-s4-124": (
        "additive profile of S4_124 (top, minimals, coatoms)",
        1.0,
        False,
        claim_profile_s4_124,
    ),
    "structure-s4-124": (
        "S4_124 contains S2 and S53 and maps onto S7",
        1.0,
        False,
        claim_structure_s4_124,
    ),
    "subdirect-decompositions": (
        "R6 and S4_359 split as subdirect products",
        1.0,
        False,
        claim_subdirect,
    ),
    "family-brute-force": (
        "reference algebras satisfy the cycle-family inequality, n=1..3",
        5.0,
        False,
        claim_family_brute_force,
    ),
    "decider-oracle": (
        f"syntactic deciders agree with brute force on {ORACLE_INEQUALITIES:,} "
        "inequalities",
        21.0,
        False,
        claim_decider_oracle,
    ),
    "delta-computation": (
        "delta is empty on the family and matches the subset oracle",
        5.0,
        False,
        claim_delta,
    ),
    "graph-bipartition": (
        "odd cycles detected; constrained bipartitions built and refused correctly",
        5.0,
        False,
        claim_graphs,
    ),
    "census-order-3": (
        "census of order-3 ai-semirings up to isomorphism",
        5.0,
        False,
        claim_census_3,
    ),
    "census-order-4": (
        "census of order-4 ai-semirings with additive-type split",
        5.0,
        True,
        claim_census_4,
    ),
    "screen-order-3": (
        "order-3 classes passing the family screen at n<=2",
        5.0,
        False,
        claim_screen_3,
    ),
    "derivation-soundness": (
        "fuzzed derivation searches are checker-certified and model-sound",
        14.0,
        False,
        claim_derivation_soundness,
    ),
}

#: meta-conclusions that no finite computation can check; reported, not run
OUT_OF_SCOPE = {
    "nonfinite-basis-meta": (
        "nonfinite-basis conclusions quantify over all n at once"
    ),
}


def run_claims(full: bool = False) -> RunReport:
    claims: list[ClaimResult] = []
    for claim_id, (desc, budget, needs_full, runner) in CLAIM_TABLE.items():
        if needs_full and not full:
            claims.append(
                ClaimResult(claim_id, desc, "skipped", "", "needs --full", 0.0)
            )
            continue
        t0 = time.perf_counter()
        try:
            expected, observed = runner()
            status = "pass" if expected == observed else "fail"
        except Exception as exc:  # claim code raising is a failure, not a crash
            expected, observed = "claim runs to completion", f"{type(exc).__name__}: {exc}"
            status = "fail"
        seconds = time.perf_counter() - t0
        if seconds >= budget:
            status = "fail"
            observed = f"{observed} (took {seconds:.2f}s, over its {budget:g}s budget)"
        claims.append(
            ClaimResult(claim_id, desc, status, expected, observed, seconds)
        )
    for claim_id, desc in OUT_OF_SCOPE.items():
        claims.append(
            ClaimResult(claim_id, desc, "skipped", "", "out of scope: not machine-checkable", 0.0)
        )
    cmd = "paper-verify --full" if full else "paper-verify"
    return RunReport(cmd, claims)
