"""Census of semilattices and ai-semirings of order <= 4 up to isomorphism.

Generation fixes the addition table to a canonical semilattice and
backtracks over multiplication tables (the hot loop lives in
:mod:`aisemiring._kernels`); residual symmetry under semilattice
automorphisms is removed by a final canonical-form dedup. Class names and
ordering follow the canonical forms, not any external numbering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .algebra import FiniteAiSemiring, profile_from_add
from .family import member_of_W


def _is_associative(table: np.ndarray) -> bool:
    k = table.shape[0]
    ii, jj, ll = np.indices((k, k, k))
    return bool(np.array_equal(table[table[ii, jj], ll], table[ii, table[jj, ll]]))


def enumerate_semilattices(k: int) -> list[np.ndarray]:
    """All commutative idempotent associative tables on k elements up to
    isomorphism, each in its canonical labelling."""
    if not 1 <= k <= 4:
        raise ValueError("semilattice census supports orders 1..4")
    cells = [(i, j) for i in range(k) for j in range(i + 1, k)]
    table = np.arange(k, dtype=np.int64)[:, None].repeat(k, axis=1)
    for i in range(k):
        table[i, i] = i
    found: set[bytes] = set()

    def fill(idx: int) -> None:
        if idx == len(cells):
            if _is_associative(table):
                found.add(_kernels.canonical_table(table))
            return
        i, j = cells[idx]
        for v in range(k):
            table[i, j] = table[j, i] = v
            fill(idx + 1)

    fill(0)
    return [_kernels.unpack_table(f, k) for f in sorted(found)]


def enumerate_ai_semirings(k: int) -> list[FiniteAiSemiring]:
    """All ai-semirings of order k up to isomorphism, canonical and sorted.

    Every ai-semiring is isomorphic to one whose addition table is a
    canonical semilattice, so running the multiplication census per
    semilattice and deduplicating canonical (add, mul) forms is complete.
    """
    if not 1 <= k <= 4:
        raise ValueError("ai-semiring census supports orders 1..4")
    forms: set[bytes] = set()
    for add in enumerate_semilattices(k):
        forms.update(_kernels.canonical_pairs(add, _kernels.census_mul_tables(add)))
    labels = [str(i + 1) for i in range(k)]
    out = []
    for i, form in enumerate(sorted(forms)):
        add, mul = _kernels.unpack_pair(form, k)
        out.append(FiniteAiSemiring(f"A{k}_{i + 1:03d}", labels, add, mul))
    return out


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
    for S in algebras:
        form = _kernels.canonical_table(S.add)
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


def screen_family(algebras: list[FiniteAiSemiring], n_max: int, *,
                  force: bool = False,
                  threads: int | None = None) -> list[FiniteAiSemiring]:
    """Subset of a census satisfying the family inequality for all n <= n_max."""
    return [
        S
        for S in algebras
        if member_of_W(S, n_max, force=force, threads=threads)
    ]
