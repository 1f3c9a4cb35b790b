"""Census of semilattices and ai-semirings up to isomorphism, of order at
most MAX_CENSUS_ORDER.

Semilattices are grown one order at a time. A minimal element m of a
semilattice of order j is the join of no two other elements, so removing it
leaves a semilattice L of order j - 1, and m's joins x -> m + x form a
join-endomorphism of L. So every semilattice of order j is some L of order
j - 1 bordered by a new element whose row and column are a member of E(L),
the join-endomorphisms of L; the borders that are semilattices are kept and
deduplicated by canonical form (orderly generation, as in Heitzig and
Reinhold, *Counting finite lattices*, Algebra Universalis 48, 2002).

The ai-semiring census fixes the addition table to a canonical semilattice L
and searches its multiplication tables row by row over E(L) (the hot
loop lives in :mod:`aisemiring._kernels`); residual symmetry is removed by
taking the least relabelling of (add, mul) over Aut(L). Class names and
ordering follow the canonical forms, not any external numbering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .algebra import FiniteAiSemiring, profile_from_add, valid_stack
from .family import member_of_W

#: largest order the census enumerates
MAX_CENSUS_ORDER = 4


def enumerate_semilattices(k: int) -> list[np.ndarray]:
    """All commutative idempotent associative tables on k elements up to
    isomorphism, each in its canonical labelling, in ascending order."""
    if not 1 <= k <= MAX_CENSUS_ORDER:
        raise ValueError(f"semilattice census supports orders 1..{MAX_CENSUS_ORDER}")
    tables = [np.zeros((1, 1), dtype=np.int64)]
    for j in range(2, k + 1):
        found: set[bytes] = set()
        for L in tables:
            # border L with a new element j-1 whose joins x -> (j-1) + x
            # are f, one table per f in E(L); a symmetric idempotent table t
            # is a semilattice exactly when (t, t) is an ai-semiring
            ends = _kernels.join_endomorphisms(L)
            borders = np.empty((len(ends), j, j), dtype=np.int64)
            borders[:, :-1, :-1] = L
            borders[:, -1, -1] = j - 1
            borders[:, -1, :-1] = borders[:, :-1, -1] = ends
            for table in borders[valid_stack(borders, borders)]:
                found.add(_kernels.canonical_table(table))
        tables = [_kernels.unpack_table(form, j) for form in sorted(found)]
    return tables


def enumerate_ai_semirings(k: int) -> list[FiniteAiSemiring]:
    """All ai-semirings of order k up to isomorphism, canonical and sorted.

    Every ai-semiring is isomorphic to one whose addition table is a
    canonical semilattice, so running the multiplication census per
    semilattice and deduplicating canonical (add, mul) forms is complete.
    """
    if not 1 <= k <= MAX_CENSUS_ORDER:
        raise ValueError(f"ai-semiring census supports orders 1..{MAX_CENSUS_ORDER}")
    forms: set[bytes] = set()
    for add in enumerate_semilattices(k):
        forms.update(_kernels.canonical_pairs(add, _kernels.census_mul_tables(add)))
    tables = np.frombuffer(b"".join(sorted(forms)), dtype=np.uint8).reshape(-1, 2, k, k)
    names = [f"A{k}_{i + 1:03d}" for i in range(len(tables))]
    return FiniteAiSemiring.stack(names, [str(i + 1) for i in range(k)], tables)


@dataclass(frozen=True)
class AdditiveTypeSummary:
    """One isomorphism type of additive reduct with its census share."""

    add_table: tuple[tuple[int, ...], ...]
    count: int
    n_minimals: int
    n_coatoms: int


def classify_additive_type(algebras: list[FiniteAiSemiring]) -> list[AdditiveTypeSummary]:
    """Group a census by the isomorphism type of the additive reduct."""
    groups: dict[bytes, int] = {}
    forms: dict[bytes, bytes] = {}  # raw add table -> its canonical form
    for S in algebras:
        raw = S.add.tobytes()
        if raw not in forms:
            forms[raw] = _kernels.canonical_table(S.add)
        form = forms[raw]
        groups[form] = groups.get(form, 0) + 1
    out = []
    for form in sorted(groups):
        k = int(np.sqrt(len(form)))
        table = _kernels.unpack_table(form, k)
        profile = profile_from_add(table)
        out.append(
            AdditiveTypeSummary(
                tuple(tuple(int(v) for v in row) for row in table),
                groups[form],
                len(profile.minimals),
                len(profile.coatoms),
            )
        )
    return out


def screen_family(algebras: list[FiniteAiSemiring], n_max: int) -> list[FiniteAiSemiring]:
    """Subset of a census satisfying the family inequality for all n <= n_max."""
    return [S for S in algebras if member_of_W(S, n_max)]
