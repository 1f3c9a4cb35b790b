"""Deciding identities and inequalities in finite ai-semirings.

Brute force enumerates every assignment of algebra elements to variables,
in lexicographic order of the sorted variables, through the scan in
:mod:`aisemiring._kernels`, which reads the check's own words and returns
the least counterexample, with the values of both sides there, when one
exists. ``evaluate`` is a separate, plain evaluator of one assignment, off
the verdict path. Alongside it live the three syntactic deciders
characterizing satisfaction in the reference algebras S2, S7, and S53; the
test suite certifies each against the brute force on its algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class VariableBudgetError(RuntimeError):
    """Assignment space too large; pass force=True to run anyway.

    The message is ``budget``, the clause naming what is over the budget,
    then ``; `` and what to do about it."""

    def __init__(self, budget: str, remedy: str):
        super().__init__(f"{budget}; {remedy}")
        self.budget = budget


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


def _guard(k: int, nvars: int, force: bool) -> None:
    if not force and k ** nvars > GUARD_LIMIT:
        raise VariableBudgetError(
            f"{k}^{nvars} assignments exceed the budget of {GUARD_LIMIT}",
            "pass force=True (CLI: --force) to run anyway",
        )


def _scan(S: FiniteAiSemiring, a: tuple[Word, ...], b: tuple[Word, ...], mode: int,
          force: bool) -> SatisfactionVerdict:
    """Brute force the check of the sum of the words a, the left side,
    against that of the words b (see _kernels for the modes). A
    counterexample is the least failing assignment, its variables in sorted
    order, with the values of a and b there."""
    variables = sorted({x for w in (*a, *b) for x in w.letters})
    _guard(S.order, len(variables), force)
    found = _kernels.first_violation(S.add, S.mul, a, b, variables, mode)
    if found is None:
        return SatisfactionVerdict(True)
    digits, left, right = found
    return SatisfactionVerdict(False, Counterexample(dict(zip(variables, digits)), left, right))


def holds_inequality(S: FiniteAiSemiring, q: Word, u: Term, *,
                     force: bool = False) -> SatisfactionVerdict:
    """Exhaustively decide whether q lies below u in S.

    The inequality means u ~ u + q as an identity; a counterexample carries
    the violating assignment with both evaluated values (left = q).
    """
    return _scan(S, (q,), u.words, 0, force)


def holds_identity(S: FiniteAiSemiring, u: Term, v: Term, *,
                   force: bool = False) -> SatisfactionVerdict:
    """Exhaustively decide whether u ~ v holds in S."""
    return _scan(S, u.words, v.words, 1, force)


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
    adjoining q preserves every delta-set of u. As content(u + q) is then
    content(u), delta(u + q) is the Z in delta(u) that meet q in exactly
    one letter occurrence, so that must hold for every Z in delta(u)."""
    if not content(q) <= content(u):
        return False
    return all(sum(x in Z for x in q.letters) == 1 for Z in delta(u))


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


#: the syntactic decider of each reference algebra, by registry name
DECIDERS = {"S2": decide_s2, "S7": decide_s7, "S53": decide_s53}
