"""The benchmark's workloads: seeded inputs and one timed pass of each.

Constructing a workload is its set-up: it builds every input from the seed,
using only the library's public API. ``run_pass(tracer)`` then makes one
pass as a closed loop with a single caller (each call starts when the
previous one has returned) and checks every output. The same inputs are
used by every pass of a run, so passes are repeats of identical work.

- ``derive``: planted derivation problems. Nearly all of the time is term
  construction in ``terms`` and ``derivation``; census and bulk scans play
  no part.
- ``census``: the order-4 census with its additive-type split, then the
  order-5 multiplication census and canonical forms on three fixed
  semilattices. ``flat`` (Aut = S4) is where symmetry breaking would act,
  ``chain`` (trivial Aut) bypasses it. No term objects are involved.
- ``scan``: brute-force satisfaction used two opposite ways: four large
  family scans per algebra (kernel throughput, serial then two threads)
  and 10,000 tiny oracle inequalities (per-call overhead).

Spans are named ``<layer>.<function>`` around each call into the library
and ``bench.<step>`` around the benchmark's own steps.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import aisemiring  # noqa: E402

if Path(aisemiring.__file__).resolve().parent != ROOT / "src" / "aisemiring":
    raise ImportError(f"aisemiring imported from {aisemiring.__file__}, not from src/")

import numpy as np  # noqa: E402

from aisemiring import _kernels  # noqa: E402
from aisemiring.algebra import registry, tables_valid  # noqa: E402
from aisemiring.derivation import (  # noqa: E402
    SearchBounds,
    check_derivation,
    search_derivation,
)
from aisemiring.enumeration import (  # noqa: E402
    classify_additive_type,
    enumerate_ai_semirings,
    enumerate_semilattices,
)
from aisemiring.family import in_W, make_family  # noqa: E402
from aisemiring.satisfaction import (  # noqa: E402
    decide_s2,
    decide_s7,
    decide_s53,
    holds_identity,
    holds_inequality,
)
from aisemiring.terms import Substitution, Term, Word, content, wrap  # noqa: E402

from tracing import total_s  # noqa: E402

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())


@dataclass
class PassResult:
    """One pass. ``items`` are its timed units of work in a fixed order,
    the same in every pass, each tagged with the end-to-end stage it counts
    towards (None for none)."""

    items: list[tuple[str | None, float]] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    first_failure: str | None = None

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = what


def clock() -> tuple[float, float]:
    """Start of a timed item, for ``elapsed``."""
    return perf_counter(), process_time()


def elapsed(start: tuple[float, float]) -> float:
    """Time of an item since ``start``: its wall time, or the CPU time the
    process used meanwhile if that is less. For a single-threaded item the
    CPU time leaves out the moments the machine ran other processes in its
    place; for an item that runs threads in parallel the CPU time adds them
    up, so there the wall time counts."""
    wall, cpu = perf_counter() - start[0], process_time() - start[1]
    return min(wall, cpu)


def term(text: str) -> Term:
    """``"x + xy"`` as a Term; every variable is a single letter."""
    return Term(Word(tuple(chunk.strip())) for chunk in text.split("+"))


def renaming(rng: random.Random, letters, alphabet: str) -> Substitution:
    """Renames the sorted ``letters`` to as many random letters of
    ``alphabet``, keeping their order. Words and terms compare by their
    letters, so a derivation search visits the renamed problem in the same
    order and does the same work."""
    images = sorted(rng.sample(alphabet, len(letters)))
    return Substitution({x: Term([Word((y,))]) for x, y in zip(letters, images)})


def random_word(rng: random.Random, letters, lo: int, hi: int) -> Word:
    return Word(rng.choice(letters) for _ in range(rng.randint(lo, hi)))


def scanned(order: int, variables: list[str], verdict) -> int:
    """Assignments brute force enumerates up to its verdict: all of them when
    the statement holds, else up to and including the counterexample, whose
    index has the first variable as the most significant base-``order``
    digit. The library keeps no scan counter, so this count is derived from
    the verdict and assumes that order and a scan that stops at the first
    counterexample; it has to follow any change to either."""
    if verdict.holds:
        return order ** len(variables)
    index = 0
    for x in variables:
        index = index * order + verdict.counterexample.assignment[x]
    return index + 1


# ---------------------------------------------------------------------------
# derive

DERIVE_CASES = 1000
#: The problem shapes are drawn from this fixed seed; the run's seed renames
#: their variables (see ``renaming``) and samples their models. The search
#: cost of a planted problem is heavy-tailed, so 1,000 shapes drawn afresh
#: for each seed differ in total search work by about 24% (interquartile
#: range of ``derivation.explored`` over eight seeds, as a share of its
#: median), more than a run-to-run spread can afford.
SHAPES_SEED = 20250806
#: the bounds of the derivation-soundness claim
BOUNDS = SearchBounds(max_chain=4, max_word_len=5, max_summands=5, max_subst_image=3)
SIGMA_VARS = ("x", "y")
CLAIM_VARS = ("a", "b", "c")
#: disjoint alphabets the run's seed renames the variables into
SIGMA_ALPHABET = "nopqrstuvwxyz"
CLAIM_ALPHABET = "abcdefghijklm"
TEMPLATES = ("xy = yx", "x = xx", "x + xy = x", "xy = x", "xyx = xy", "xy + yx = xy")
MODELS_SAMPLED = 4


def random_identity(rng: random.Random) -> tuple[Term, Term]:
    if rng.random() < 0.5:
        lhs, rhs = TEMPLATES[rng.randrange(len(TEMPLATES))].split("=")
        return term(lhs), term(rhs)
    while True:
        s, sp = (
            Term(random_word(rng, SIGMA_VARS, 1, 2) for _ in range(rng.randint(1, 2)))
            for _ in range(2)
        )
        if s != sp:
            return s, sp


#: How the derivation-soundness claim's own generator rewrites (1,000 claims,
#: 1,114 steps): the length of the image of each variable the rule's source
#: side binds (a variable only the target side has is guessed as a single
#: letter), and the lengths of the (left, right) word contexts of a step.
IMAGE_LENGTHS = {1: 1166, 2: 247, 3: 13}
CONTEXT_LENGTHS = {(0, 0): 702, (1, 0): 182, (0, 1): 167, (2, 0): 22, (0, 2): 16,
                   (1, 1): 16, (0, 3): 4, (1, 2): 2, (2, 1): 2, (3, 0): 1}
#: Longer images and non-empty contexts are drawn this many times as often
#: as measured: the start-term condition of ``planted_claim`` rejects most of
#: them. With this factor, of the steps the searches take 16% bind a
#: two-letter image and 31% have a context; on the generator's claims the
#: shares are 17% and 42%.
LONG_DRAW = 6


def draw(rng: random.Random, weights: dict, shortest):
    """A key of ``weights``, with every key but ``shortest`` LONG_DRAW times
    as likely as its weight says."""
    scaled = [w if key == shortest else LONG_DRAW * w for key, w in weights.items()]
    return rng.choices(list(weights), weights=scaled)[0]


def planted_step(rng: random.Random, sigma):
    """One instance left.phi(src).right -> left.phi(dst).right of a rule of
    sigma in a random orientation, with image and context lengths drawn from
    IMAGE_LENGTHS and CONTEXT_LENGTHS: (words before, words after, letters
    the search has to guess for variables of dst missing from src). None
    when a word before is too long for the start term of planted_claim."""
    while True:
        s, sp = sigma[rng.randrange(len(sigma))]
        src, dst = (s, sp) if rng.random() < 0.5 else (sp, s)
        lengths = {v: draw(rng, IMAGE_LENGTHS, 1) for v in sorted(content(src))}
        n_left, n_right = draw(rng, CONTEXT_LENGTHS, (0, 0))
        if any(n_left + n_right + sum(lengths[x] for x in w.letters) > 2 for w in src.words):
            return None
        images = {v: Word(rng.choice(CLAIM_VARS) for _ in range(n)) for v, n in lengths.items()}
        guessed = {v: Word((rng.choice(CLAIM_VARS),)) for v in sorted(content(dst) - content(src))}
        phi = Substitution({v: Term([w]) for v, w in (images | guessed).items()})
        left, right = (tuple(rng.choice(CLAIM_VARS) for _ in range(n)) for n in (n_left, n_right))
        before = frozenset(wrap(phi(src), left, right).words)
        after = frozenset(wrap(phi(dst), left, right).words)
        if before != after:
            return before, after, frozenset(w.letters[0] for w in guessed.values())


def planted_claim(rng: random.Random, sigma) -> tuple[Term, Term]:
    """A claim t0 ~ tn reachable by one or two rewrites on disjoint summands
    plus an untouched remainder, with every intermediate term inside BOUNDS,
    so the bounded search can derive it. Like the claims of the soundness
    generator, t0 has at most two summands of at most two letters; without
    that the search does about eight times as much work per problem."""
    while True:
        steps = [planted_step(rng, sigma) for _ in range(rng.randint(1, 2))]
        if None in steps:
            continue
        rest = frozenset(random_word(rng, CLAIM_VARS, 1, 2) for _ in range(rng.randint(0, 1)))
        befores = [b for b, _, _ in steps]
        afters = [a for _, a, _ in steps]
        chain = [frozenset().union(*afters[:i], *befores[i:], rest)
                 for i in range(len(steps) + 1)]
        disjoint = all(
            befores[i].isdisjoint(frozenset().union(*afters[:i], *befores[i + 1:], rest))
            for i in range(len(steps))
        )
        if not disjoint or chain[0] == chain[-1]:
            continue
        terms = [Term(words) for words in chain]
        if len(chain[0]) > 2 or any(len(w) > 2 for w in chain[0]):
            continue
        seen = content(terms[0]) | content(terms[-1])
        if all(BOUNDS.admits(t) for t in terms) and all(g <= seen for _, _, g in steps):
            return terms[0], terms[-1]


class Derive:
    """Per case: search_derivation, check_derivation on the result, then
    model soundness with holds_identity on MODELS_SAMPLED algebras of order
    <= 3 plus S4_124 and S4_359."""

    def __init__(self, seed: int, tracer):
        with tracer.span("enumeration.enumerate_ai_semirings"):
            pool = [S for k in (1, 2, 3) for S in enumerate_ai_semirings(k)]
        fixed = [registry("S4_124"), registry("S4_359")]
        shapes, rng = random.Random(SHAPES_SEED), random.Random(seed)
        self.cases = []
        with tracer.span("terms.corpus_build"):
            for _ in range(DERIVE_CASES):
                sigma = [random_identity(shapes) for _ in range(shapes.randint(1, 2))]
                claim = planted_claim(shapes, sigma)
                rho = renaming(rng, SIGMA_VARS, SIGMA_ALPHABET)
                tau = renaming(rng, CLAIM_VARS, CLAIM_ALPHABET)
                sigma = [(rho(s), rho(sp)) for s, sp in sigma]
                claim = (tau(claim[0]), tau(claim[1]))
                models = [pool[rng.randrange(len(pool))] for _ in range(MODELS_SAMPLED)]
                self.cases.append((sigma, claim, models + fixed))
        self.corpus_terms = sum(2 * len(sigma) + 2 for sigma, _, _ in self.cases)

    def run_pass(self, tracer) -> PassResult:
        span = tracer.span
        res = PassResult()
        found = explored = identity_calls = 0

        def holds(S, u, v) -> bool:
            nonlocal identity_calls
            identity_calls += 1
            with span("satisfaction.holds_identity"):
                return holds_identity(S, u, v).holds

        with span("bench.pass"):
            for i, (sigma, claim, models) in enumerate(self.cases):
                t0 = clock()
                with span("bench.case"):
                    with span("derivation.search_derivation"):
                        result = search_derivation(sigma, claim, BOUNDS)
                    explored += result.explored
                    ok = result.found
                    if ok:
                        found += 1
                        with span("derivation.check_derivation"):
                            ok = check_derivation(result.derivation, claim).ok
                    if ok:
                        # every sampled model of sigma must satisfy the claim
                        ok = all(holds(S, *claim) for S in models
                                 if all(holds(S, s, sp) for s, sp in sigma))
                res.items.append(("derive_s", elapsed(t0)))
                res.attempted += 1
                if not ok:
                    res.fail(f"case {i}: {claim[0]} = {claim[1]} not found, "
                             "not certified or not sound")
        res.counts = {
            "terms.corpus_terms": self.corpus_terms,
            "derivation.search_calls": len(self.cases),
            "derivation.found": found,
            "derivation.explored": explored,
            "satisfaction.holds_identity_calls": identity_calls,
        }
        return res

    @staticmethod
    def layer_times(spans: list[list]) -> dict[str, float]:
        return {
            "derivation.search_s": total_s(spans, "derivation.search_derivation"),
            "derivation.check_s": total_s(spans, "derivation.check_derivation"),
            "satisfaction.holds_identity_s": total_s(spans, "satisfaction.holds_identity"),
        }


# ---------------------------------------------------------------------------
# census


def join_table(leq, k: int) -> np.ndarray:
    """Join table of the order ``leq`` on 0..k-1, which must be a
    join-semilattice: a + b is the least common upper bound."""
    table = np.empty((k, k), np.int64)
    for a in range(k):
        for b in range(k):
            ubs = [c for c in range(k) if leq(a, c) and leq(b, c)]
            table[a, b] = next(c for c in ubs if all(leq(c, d) for d in ubs))
    return table


#: order-5 semilattices by shape; element 0 is the top
ORDER5_SHAPES = {
    "flat": lambda a, b: a == b or b == 0,  # four atoms under the top
    "coatom3": lambda a, b: a == b or b == 0 or (b == 1 and a >= 2),  # three atoms, one coatom
    "chain": lambda a, b: a >= b,  # 4 < 3 < 2 < 1 < 0
}


def order5_semilattices() -> dict[str, np.ndarray]:
    """The three order-5 addition tables, each in the canonical labelling
    that enumerate_semilattices gives its tables."""
    return {
        name: _kernels.unpack_table(_kernels.canonical_table(join_table(leq, 5)), 5)
        for name, leq in ORDER5_SHAPES.items()
    }


class Census:
    def __init__(self, seed: int, tracer):
        # fixed inputs: the seed does not enter the census
        with tracer.span("kernels.canonical_table"):
            self.order5 = order5_semilattices()
        self.expected4 = EXPECTED["order4"]
        self.expected5 = EXPECTED["order5"]["semilattices"]

    def run_pass(self, tracer) -> PassResult:
        span = tracer.span
        res = PassResult()
        counts = res.counts

        def timed(stage, parent, name, fn, *args):
            t0 = clock()
            with span(parent), span(name):
                out = fn(*args)
            res.items.append((stage, elapsed(t0)))
            return out

        with span("bench.pass"):
            lattices = timed(None, "bench.order4", "enumeration.enumerate_semilattices",
                             enumerate_semilattices, 4)
            counts["enumeration.semilattices4"] = len(lattices)
            algebras = timed("census4_s", "bench.order4", "enumeration.enumerate_ai_semirings",
                             enumerate_ai_semirings, 4)
            types = timed("census4_s", "bench.order4", "enumeration.classify_additive_type",
                          classify_additive_type, algebras)
            two_two = sum(t.count for t in types if (t.n_minimals, t.n_coatoms) == (2, 2))
            observed4 = {"classes": len(algebras), "additive_types": len(types),
                         "two_minimals_two_coatoms": two_two}
            counts["enumeration.classes4"] = len(algebras)
            res.attempted += 1
            if any(observed4[key] != self.expected4[key] for key in observed4):
                res.fail(f"order 4: {observed4}")
            for name, add in self.order5.items():
                parent = f"bench.order5.{name}"
                muls = timed("census5_s", parent, "kernels.census_mul_tables",
                             _kernels.census_mul_tables, add)
                forms = timed("census5_s", parent, "kernels.canonical_pairs",
                              _kernels.canonical_pairs, add, muls)
                tables, classes = muls.shape[0], len(set(forms))
                counts[f"kernels.census_tables.{name}"] = tables
                counts[f"kernels.canonical_classes.{name}"] = classes
                want = self.expected5[name]
                invalid = sum(not tables_valid(add, m.reshape(5, 5)) for m in muls)
                res.attempted += 1
                if (tables, classes, invalid) != (want["tables"], want["classes"], 0):
                    res.fail(f"order 5 {name}: {tables} tables, {classes} classes, "
                             f"{invalid} invalid")
        return res

    @staticmethod
    def layer_times(spans: list[list]) -> dict[str, float]:
        out = {
            "enumeration.semilattices4_s": total_s(spans, "enumeration.enumerate_semilattices"),
            "enumeration.ai_semirings4_s": total_s(spans, "enumeration.enumerate_ai_semirings"),
            "enumeration.classify4_s": total_s(spans, "enumeration.classify_additive_type"),
        }
        for name in ORDER5_SHAPES:
            parent = f"bench.order5.{name}"
            out[f"kernels.census_s.{name}"] = total_s(spans, "kernels.census_mul_tables", parent)
            out[f"kernels.canonical_s.{name}"] = total_s(spans, "kernels.canonical_pairs", parent)
        return out


# ---------------------------------------------------------------------------
# scan

BULK_ALGEBRAS = ("S4_124", "S4_359")
BULK_N = 4
BULK_THREADS = (1, 2)
ORACLE_CASES = 10_000
ORACLE_VARS = ("x", "y", "z", "w")
DECIDERS = (("S2", decide_s2), ("S7", decide_s7), ("S53", decide_s53))


class Scan:
    def __init__(self, seed: int, tracer):
        self.bulk = [registry(name) for name in BULK_ALGEBRAS]
        self.deciders = [(registry(name), name, fn) for name, fn in DECIDERS]
        rng = random.Random(seed)
        with tracer.span("terms.corpus_build"):
            self.oracle = [
                (random_word(rng, ORACLE_VARS, 1, 4),
                 Term(random_word(rng, ORACLE_VARS, 1, 4) for _ in range(rng.randint(1, 4))))
                for _ in range(ORACLE_CASES)
            ]
        self.corpus_terms = len(self.oracle)

    def run_pass(self, tracer) -> PassResult:
        span = tracer.span
        res = PassResult()
        assignments: dict[int, int] = {}
        with span("bench.pass"):
            for threads in BULK_THREADS:
                assignments[threads] = 0
                with span(f"bench.bulk_{threads}t"):
                    for S in self.bulk:
                        t0 = clock()
                        with span("family.in_W"):
                            verdicts = in_W(S, BULK_N, force=True, threads=threads)
                        res.items.append((f"scan_bulk_{threads}t_s", elapsed(t0)))
                        for v in verdicts:
                            fam = make_family(v.n)
                            variables = sorted(content(fam.u) | content(fam.q))
                            assignments[threads] += scanned(S.order, variables, v.verdict)
                            res.attempted += 1
                            if not v.holds:
                                res.fail(f"{S.name} fails the family inequality at n={v.n}")
            oracle_assignments = inequality_calls = 0
            with span("bench.oracle"):
                for q, u in self.oracle:
                    variables = sorted(content(u) | content(q))
                    answers = []
                    t0 = clock()
                    for S, name, decider in self.deciders:
                        with span(f"satisfaction.decide_{name.lower()}"):
                            got = decider(q, u)
                        with span("satisfaction.holds_inequality"):
                            answers.append((got, holds_inequality(S, q, u)))
                    res.items.append(("scan_oracle_s", elapsed(t0)))
                    res.attempted += 1
                    wrong = []
                    for (S, name, _), (got, verdict) in zip(self.deciders, answers):
                        inequality_calls += 1
                        oracle_assignments += scanned(S.order, variables, verdict)
                        if got != verdict.holds:
                            wrong.append(f"{name}: decider {got}, brute force {verdict.holds}")
                    if wrong:
                        res.fail(f"{q} <= {u}: " + "; ".join(wrong))
        res.counts = {
            "terms.corpus_terms": self.corpus_terms,
            "family.assignments": assignments[BULK_THREADS[0]],
            "satisfaction.holds_inequality_calls": inequality_calls,
            "satisfaction.oracle_assignments": oracle_assignments,
        }
        if len(set(assignments.values())) != 1:
            res.fail(f"bulk passes scanned different totals: {assignments}")
        return res

    @staticmethod
    def layer_times(spans: list[list]) -> dict[str, float]:
        out = {
            "family.in_W_1t_s": total_s(spans, "family.in_W", "bench.bulk_1t"),
            "family.in_W_2t_s": total_s(spans, "family.in_W", "bench.bulk_2t"),
            "satisfaction.holds_inequality_s": total_s(spans, "satisfaction.holds_inequality"),
        }
        for name, _ in DECIDERS:
            fn = f"decide_{name.lower()}"
            out[f"satisfaction.{fn}_s"] = total_s(spans, f"satisfaction.{fn}")
        return out


WORKLOADS = {"derive": Derive, "census": Census, "scan": Scan}
