"""Deciding identities and inequalities in finite ai-semirings.

Brute force enumerates every assignment of algebra elements to variables
(through the compiled kernels in :mod:`aisemiring._kernels`), reporting the
lexicographically least counterexample when one exists. Alongside it live
the three syntactic deciders characterizing satisfaction in the reference
algebras S2, S7, and S53; the test suite certifies each against the brute
force on its algebra.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .algebra import FiniteAiSemiring
from .terms import (
    Term,
    Variable,
    Word,
    content,
    delta,
    level,
    level_geq,
    subwords2,
)

Assignment = dict[Variable, int]

#: refuse enumerations beyond this many assignments unless forced
GUARD_LIMIT = 4 ** 16

_PARALLEL_THRESHOLD = 1 << 16


class VariableBudgetError(RuntimeError):
    """Assignment space too large; pass force=True to run anyway."""


@dataclass(frozen=True)
class Counterexample:
    assignment: Assignment
    left_value: int
    right_value: int


@dataclass(frozen=True)
class SatisfactionVerdict:
    holds: bool
    counterexample: Counterexample | None = None

    def __bool__(self) -> bool:
        return self.holds


def evaluate(item: Word | Term, S: FiniteAiSemiring, a: Assignment) -> int:
    """Value of a word or term under an assignment: words multiply left to
    right, terms sum their summand values."""
    if isinstance(item, Word):
        try:
            val = a[item.letters[0]]
            for x in item.letters[1:]:
                val = int(S.mul[val, a[x]])
        except KeyError as exc:
            raise KeyError(f"unassigned variable {exc.args[0]!r}") from None
        return int(val)
    acc = evaluate(item.words[0], S, a)
    for w in item.words[1:]:
        acc = int(S.add[acc, evaluate(w, S, a)])
    return acc


def _compiled(t: Term, var_index: dict[Variable, int]):
    letters: list[int] = []
    offsets = [0]
    for w in t.words:
        letters.extend(var_index[x] for x in w.letters)
        offsets.append(len(letters))
    return (np.array(letters, dtype=np.int64), np.array(offsets, dtype=np.int64))


def _assignment_from_index(idx: int, variables: list[Variable], k: int) -> Assignment:
    digits: list[int] = []
    for _ in variables:
        digits.append(idx % k)
        idx //= k
    return dict(zip(variables, reversed(digits)))


def _guard(k: int, nvars: int, force: bool) -> None:
    if not force and k ** nvars > GUARD_LIMIT:
        raise VariableBudgetError(
            f"{k}^{nvars} assignments exceed the budget of {GUARD_LIMIT}; "
            "pass force=True (CLI: --force) to run anyway"
        )


def _scan(S: FiniteAiSemiring, ca, cb, nvars: int, mode: int,
          threads: int | None) -> int:
    total = S.order ** nvars
    if not threads or threads <= 1 or total < _PARALLEL_THRESHOLD:
        return _kernels.first_violation(S.add, S.mul, ca, cb, nvars, mode, 0, total)
    chunk = max(_PARALLEL_THRESHOLD // 2, -(-total // (threads * 8)))
    starts = list(range(0, total, chunk))
    with ThreadPoolExecutor(max_workers=threads) as ex:
        for batch_start in range(0, len(starts), threads):
            batch = starts[batch_start:batch_start + threads]
            results = list(
                ex.map(
                    lambda lo: _kernels.first_violation(
                        S.add, S.mul, ca, cb, nvars, mode,
                        lo, min(lo + chunk, total),
                    ),
                    batch,
                )
            )
            hits = [r for r in results if r >= 0]
            if hits:
                # chunks in a batch are index-ordered, so the least hit is
                # the globally first violation
                return min(hits)
    return -1


def holds_inequality(S: FiniteAiSemiring, q: Word, u: Term, *,
                     force: bool = False,
                     threads: int | None = None) -> SatisfactionVerdict:
    """Exhaustively decide whether q lies below u in S.

    The inequality means u ~ u + q as an identity; a counterexample carries
    the violating assignment with both evaluated values (left = q).
    """
    variables = sorted(content(u) | content(q))
    _guard(S.order, len(variables), force)
    vi = {x: i for i, x in enumerate(variables)}
    qt = Term([q])
    idx = _scan(S, _compiled(u, vi), _compiled(qt, vi), len(variables), 0, threads)
    if idx < 0:
        return SatisfactionVerdict(True)
    a = _assignment_from_index(idx, variables, S.order)
    return SatisfactionVerdict(
        False, Counterexample(a, evaluate(q, S, a), evaluate(u, S, a))
    )


def holds_identity(S: FiniteAiSemiring, u: Term, v: Term, *,
                   force: bool = False,
                   threads: int | None = None) -> SatisfactionVerdict:
    """Exhaustively decide whether u ~ v holds in S."""
    variables = sorted(content(u) | content(v))
    _guard(S.order, len(variables), force)
    vi = {x: i for i, x in enumerate(variables)}
    idx = _scan(S, _compiled(u, vi), _compiled(v, vi), len(variables), 1, threads)
    if idx < 0:
        return SatisfactionVerdict(True)
    a = _assignment_from_index(idx, variables, S.order)
    return SatisfactionVerdict(
        False, Counterexample(a, evaluate(u, S, a), evaluate(v, S, a))
    )


def reduce_identity(u: Term, v: Term) -> list[tuple[Word, Term]]:
    """Split u ~ v into the equivalent family of word-below-term
    inequalities: each summand of one side below the other side."""
    return [(w, v) for w in u.words] + [(w, u) for w in v.words]


# ---------------------------------------------------------------------------
# syntactic deciders


def decide_s2(q: Word, u: Term) -> bool:
    """Word-below-term satisfaction in S2, decided from the shape of u.

    Holds whenever u has a summand of length >= 3 or a variable shared
    between its length-1 and length-2 summands; otherwise only short q
    survive: a single variable must itself be a summand of u, a two-letter
    q must draw its variables from the length-2 summands.
    """
    if any(len(w) >= 3 for w in u.words):
        return True
    c1 = frozenset(x for w in level(1, u) for x in w.letters)
    c2 = frozenset(x for w in level(2, u) for x in w.letters)
    if c1 & c2:
        return True
    if len(q) == 1:
        return q in u
    if len(q) == 2:
        return content(q) <= c2
    return False


def decide_s7(q: Word, u: Term) -> bool:
    """Word-below-term satisfaction in S7: q's variables occur in u, and
    adjoining q preserves every delta-set of u."""
    if not content(q) <= content(u):
        return False
    return delta(u) <= delta(u + Term([q]))


def decide_s53(q: Word, u: Term) -> bool:
    """Word-below-term satisfaction in S53.

    When u is a sum of single variables the inequality must be trivial
    (q already a summand). Otherwise every two-letter scattered subword of
    q needs a scattered subword of u over a subset of its variables.
    The scattered (not contiguous) reading is the one certified by the
    brute-force oracle; see decide-oracle agreement in the test suite.
    """
    if not content(q) <= content(u):
        return False
    if not level_geq(2, u):
        return q in u
    usubs = subwords2(u)
    return all(
        any(content(wp) <= content(w) for wp in usubs) for w in subwords2(q)
    )
