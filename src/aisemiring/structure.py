"""Structural constructions on finite ai-semirings.

Congruences are partitions compatible with both Cayley tables; quotients,
subalgebras, direct products, and subdirect decompositions are all small
enough here that brute force (over blocks or set partitions) is the honest
tool. Isomorphism is decided by the census's canonical forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ._kernels import _least_relabelling
from .algebra import FiniteAiSemiring

#: largest carrier that congruence enumeration (Bell(k) partitions) and the
#: isomorphism test (k! relabellings of k*k cells) take; larger ones are
#: refused before any work
MAX_ORDER = 8


class Partition:
    """Partition of the carrier {0..size-1} into disjoint nonempty blocks.

    Blocks are stored sorted by their least element, so equal partitions
    compare equal structurally.
    """

    __slots__ = ("blocks", "size", "block_of")

    def __init__(self, blocks: Iterable[Iterable[int]], size: int | None = None):
        bl = [frozenset(b) for b in blocks]
        if not bl or not all(bl):
            raise ValueError("blocks must be nonempty")
        bl = tuple(sorted(bl, key=min))
        count = sum(len(b) for b in bl)
        union = frozenset(x for b in bl for x in b)
        if len(union) != count:
            raise ValueError("blocks must be pairwise disjoint")
        if size is None:
            size = count
        if union != frozenset(range(size)):
            raise ValueError(f"blocks must cover 0..{size - 1} exactly")
        self.blocks = bl
        self.size = size
        owner = [0] * size
        for i, b in enumerate(bl):
            for x in b:
                owner[x] = i
        self.block_of = tuple(owner)

    @staticmethod
    def discrete(size: int) -> "Partition":
        return Partition([[i] for i in range(size)], size)

    @staticmethod
    def total(size: int) -> "Partition":
        return Partition([range(size)], size)

    @staticmethod
    def closing(blocks: Iterable[Iterable[int]], size: int) -> "Partition":
        """Partition from the given blocks, with unmentioned elements added
        as singletons (convenient for 'nontrivial blocks only' input)."""
        listed = [frozenset(b) for b in blocks]
        seen = set(x for b in listed for x in b)
        listed.extend(frozenset([i]) for i in range(size) if i not in seen)
        return Partition(listed, size)

    def is_discrete(self) -> bool:
        return len(self.blocks) == self.size

    def meet(self, other: "Partition") -> "Partition":
        if self.size != other.size:
            raise ValueError("partitions have different carriers")
        pieces = {}
        for x in range(self.size):
            pieces.setdefault((self.block_of[x], other.block_of[x]), []).append(x)
        return Partition(pieces.values(), self.size)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)

    def __repr__(self) -> str:
        body = "|".join(
            "{" + ",".join(str(x) for x in sorted(b)) + "}" for b in self.blocks
        )
        return f"Partition({body})"


@dataclass(frozen=True)
class Homomorphism:
    source: FiniteAiSemiring
    target: FiniteAiSemiring
    map: tuple[int, ...]

    def is_valid(self) -> bool:
        m = np.asarray(self.map)
        if m.shape != (self.source.order,) or m.dtype.kind not in "iu":
            return False
        if not ((0 <= m) & (m < self.target.order)).all():
            return False
        return bool(
            np.array_equal(m[self.source.add], self.target.add[np.ix_(m, m)])
            and np.array_equal(m[self.source.mul], self.target.mul[np.ix_(m, m)])
        )

    def is_bijective(self) -> bool:
        return len(set(self.map)) == self.source.order == self.target.order


@dataclass(frozen=True)
class CongruenceVerdict:
    ok: bool
    #: (operation, a, b, c): a ~ b but combining with c separates the classes
    witness: tuple[str, int, int, int] | None = None
    #: the side c stands on: "right" separates a*c and b*c, "left" c*a and c*b
    side: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_congruence(S: FiniteAiSemiring, P: Partition) -> CongruenceVerdict:
    """Check compatibility of P with both operations of S."""
    if P.size != S.order:
        raise ValueError("partition does not match the carrier")
    bo = P.block_of
    for block in P.blocks:
        elems = sorted(block)
        for a, b in itertools.combinations(elems, 2):
            for c in range(S.order):
                for op, table in (("add", S.add), ("mul", S.mul)):
                    if bo[table[a, c]] != bo[table[b, c]]:
                        return CongruenceVerdict(False, (op, a, b, c), "right")
                    if bo[table[c, a]] != bo[table[c, b]]:
                        return CongruenceVerdict(False, (op, a, b, c), "left")
    return CongruenceVerdict(True)


def _block_label(S: FiniteAiSemiring, block: frozenset[int]) -> str:
    return "{" + ",".join(S.labels[x] for x in sorted(block)) + "}"


def quotient(S: FiniteAiSemiring, P: Partition) -> FiniteAiSemiring:
    """Quotient algebra by a congruence; blocks become the new elements."""
    verdict = is_congruence(S, P)
    if not verdict:
        op, a, b, c = verdict.witness
        raise ValueError(
            f"not a congruence: {S.labels[a]} ~ {S.labels[b]} but {op} with "
            f"{S.labels[c]} on the {verdict.side} separates them"
        )
    m = len(P.blocks)
    reps = [min(b) for b in P.blocks]
    bo = P.block_of
    add = [[bo[S.add[reps[i], reps[j]]] for j in range(m)] for i in range(m)]
    mul = [[bo[S.mul[reps[i], reps[j]]] for j in range(m)] for i in range(m)]
    labels = [_block_label(S, b) for b in P.blocks]
    name = S.name + "/" + "|".join(labels)
    return FiniteAiSemiring(name, labels, add, mul)


class ClosureError(ValueError):
    """Subset not closed under an operation; carries the witnessing pair."""

    def __init__(self, op: str, a: int, b: int, result: int):
        self.op, self.a, self.b, self.result = op, a, b, result
        super().__init__(
            f"subset not closed under {op}: ({a}, {b}) gives {result} outside"
        )


def subalgebra(S: FiniteAiSemiring, subset: Iterable[int]) -> FiniteAiSemiring:
    """Induced algebra on a subset closed under both operations."""
    elems = sorted(set(subset))
    if not elems:
        raise ValueError("subset must be nonempty")
    if elems[0] < 0 or elems[-1] >= S.order:
        raise ValueError("subset contains out-of-range elements")
    pos = {e: i for i, e in enumerate(elems)}
    for op, table in (("add", S.add), ("mul", S.mul)):
        for a in elems:
            for b in elems:
                if int(table[a, b]) not in pos:
                    raise ClosureError(op, a, b, int(table[a, b]))
    add = [[pos[int(S.add[a, b])] for b in elems] for a in elems]
    mul = [[pos[int(S.mul[a, b])] for b in elems] for a in elems]
    labels = [S.labels[e] for e in elems]
    name = S.name + "[" + ",".join(labels) + "]"
    return FiniteAiSemiring(name, labels, add, mul)


def find_isomorphism(A: FiniteAiSemiring, B: FiniteAiSemiring) -> tuple[int, ...] | None:
    """The lexicographically least table-preserving bijection, or None.

    Each permutation reaching A's canonical form is an isomorphism from A
    to the form, and so is the first one reaching B's from B; so when the
    forms are equal, the isomorphisms A -> B are exactly the inverse of
    B's first permutation after each of A's."""
    if A.order != B.order:
        return None
    if A.order > MAX_ORDER:
        raise ValueError(f"carrier too large: the isomorphism test is capped at {MAX_ORDER}")
    form_a, pa, _ = _least_relabelling(np.stack([A.add, A.mul]))
    form_b, pb, _ = _least_relabelling(np.stack([B.add, B.mul]))
    if form_a != form_b:
        return None
    return min(map(tuple, np.argsort(pb[0])[pa].tolist()))


def are_isomorphic(A: FiniteAiSemiring, B: FiniteAiSemiring) -> bool:
    return find_isomorphism(A, B) is not None


def direct_product(A: FiniteAiSemiring, B: FiniteAiSemiring) -> FiniteAiSemiring:
    """Componentwise product on the pair carrier (row-major pair order)."""
    kb = B.order
    add = (A.add[:, None, :, None] * kb + B.add[None, :, None, :]).reshape(
        A.order * kb, A.order * kb
    )
    mul = (A.mul[:, None, :, None] * kb + B.mul[None, :, None, :]).reshape(
        A.order * kb, A.order * kb
    )
    labels = [f"({la},{lb})" for la in A.labels for lb in B.labels]
    return FiniteAiSemiring(f"{A.name}x{B.name}", labels, add, mul)


@dataclass(frozen=True)
class SubdirectReport:
    injective: bool
    surjective: bool
    factor1: FiniteAiSemiring
    factor2: FiniteAiSemiring
    embedding: tuple[tuple[int, int], ...]
    meet_is_discrete: bool

    @property
    def is_subdirect(self) -> bool:
        return self.injective and self.surjective


def check_subdirect(S: FiniteAiSemiring, theta1: Partition,
                    theta2: Partition) -> SubdirectReport:
    """Check whether s -> ([s]theta1, [s]theta2) embeds S subdirectly into
    the product of the two quotients."""
    f1 = quotient(S, theta1)
    f2 = quotient(S, theta2)
    emb = tuple(
        (theta1.block_of[s], theta2.block_of[s]) for s in range(S.order)
    )
    injective = len(set(emb)) == S.order
    surjective = (
        {p[0] for p in emb} == set(range(f1.order))
        and {p[1] for p in emb} == set(range(f2.order))
    )
    return SubdirectReport(
        injective,
        surjective,
        f1,
        f2,
        emb,
        theta1.meet(theta2).is_discrete(),
    )


def _restricted_growth_strings(k: int) -> Iterator[tuple[int, ...]]:
    """Every restricted-growth string of length k >= 1 (each entry at most
    one more than the largest before it), in lexicographic order."""
    cur = [0] * k
    while True:
        yield tuple(cur)
        # the last entry that can still grow is raised, and the tail zeroed
        i = k - 1
        while i > 0 and cur[i] > max(cur[:i]):
            i -= 1
        if i == 0:
            return
        cur[i] += 1
        cur[i + 1:] = [0] * (k - 1 - i)


def all_partitions(k: int) -> Iterator[Partition]:
    """Every set partition of {0..k-1}, in restricted-growth order."""
    if k == 0:
        return
    for rgs in _restricted_growth_strings(k):
        blocks: dict[int, list[int]] = {}
        for x, b in enumerate(rgs):
            blocks.setdefault(b, []).append(x)
        yield Partition(blocks.values(), k)


def enumerate_congruences(S: FiniteAiSemiring) -> list[Partition]:
    """All congruences of S, found by filtering all set partitions."""
    if S.order > MAX_ORDER:
        raise ValueError(f"carrier too large: congruence enumeration is capped at {MAX_ORDER}")
    return [P for P in all_partitions(S.order) if is_congruence(S, P)]
