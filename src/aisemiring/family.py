"""The inequality family built from an odd cycle of two-letter words.

For n >= 1 the left term sums the cycle x1x2 + x2x3 + ... + x(2n+1)x1 with
y1y2 + y2y1 + y1, and the right side is the single variable y2. The class
of ai-semirings satisfying every instance is tested extensionally here by
brute force up to a bounded n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FiniteAiSemiring
from .satisfaction import SatisfactionVerdict, VariableBudgetError, _guard, holds_inequality
from .terms import Term, Word

#: largest n accepted without force=True (the assignment space is
#: order**(2n+3); n=3 on a 4-element algebra is 4**9, still sub-second)
MAX_N_WITHOUT_FORCE = 3


@dataclass(frozen=True)
class FamilyInstance:
    n: int
    u: Term
    q: Word


def make_family(n: int) -> FamilyInstance:
    """Instance n: an odd cycle on x1..x(2n+1) plus y1y2 + y2y1 + y1,
    against the word y2."""
    if n < 1:
        raise ValueError("family index must be >= 1")
    m = 2 * n + 1
    xs = [f"x{i}" for i in range(1, m + 1)]
    words = [Word((xs[i], xs[(i + 1) % m])) for i in range(m)]
    words += [Word(("y1", "y2")), Word(("y2", "y1")), Word(("y1",))]
    return FamilyInstance(n, Term(words), Word(("y2",)))


@dataclass(frozen=True)
class FamilyVerdict:
    n: int
    verdict: SatisfactionVerdict

    @property
    def holds(self) -> bool:
        return self.verdict.holds


def in_W(S: FiniteAiSemiring, n_max: int = MAX_N_WITHOUT_FORCE, *,
         force: bool = False,
         threads: int | None = None) -> list[FamilyVerdict]:
    """Brute-force verdict of the family inequality for each n <= n_max.

    This only certifies membership up to n_max; the defining class quantifies
    over all n, which exhaustive search cannot replace.

    ``threads`` is accepted and ignored: every scan runs on the calling
    thread. It stays only for the benchmark's ``scan`` workload, which
    still passes threads=1 and threads=2, and goes with the benchmark
    change that drops its 2-thread item.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > MAX_N_WITHOUT_FORCE and not force:
        raise VariableBudgetError(
            f"n_max={n_max} needs {2 * n_max + 3} variables",
            f"pass force=True (CLI: --force) to go beyond n_max={MAX_N_WITHOUT_FORCE}",
        )
    # instance n has 2n + 3 variables, so the largest n is the largest scan
    _guard(S.order, 2 * n_max + 3, force)
    out = []
    for n in range(1, n_max + 1):
        fam = make_family(n)
        out.append(FamilyVerdict(n, holds_inequality(S, fam.q, fam.u, force=force)))
    return out


def member_of_W(S: FiniteAiSemiring, n_max: int = MAX_N_WITHOUT_FORCE) -> bool:
    return all(v.holds for v in in_W(S, n_max))
