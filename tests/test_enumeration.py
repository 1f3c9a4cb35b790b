import hashlib
import itertools
import math

import numpy as np
import pytest

from aisemiring import _kernels, enumeration
from aisemiring.algebra import registry, tables_valid, validate
from aisemiring.enumeration import (
    classify_additive_type,
    enumerate_ai_semirings,
    enumerate_semilattices,
    screen_family,
)
from aisemiring.structure import are_isomorphic


def naive_semilattices(k):
    """Independent oracle: fill every symmetric idempotent table, keep the
    semilattices and dedupe by canonical form, in ascending order."""
    cells = [(i, j) for i in range(k) for j in range(i + 1, k)]
    found = set()
    for values in itertools.product(range(k), repeat=len(cells)):
        table = np.diag(np.arange(k, dtype=np.int64))
        for (i, j), v in zip(cells, values):
            table[i, j] = table[j, i] = v
        # a symmetric idempotent table t is a semilattice exactly when
        # (t, t) is an ai-semiring
        if tables_valid(table, table):
            found.add(_kernels.canonical_table(table))
    return [_kernels.unpack_table(form, k) for form in sorted(found)]


class TestSemilattices:
    @pytest.mark.parametrize("k,count", [(1, 1), (2, 1), (3, 2), (4, 5)])
    def test_counts(self, k, count):
        assert len(enumerate_semilattices(k)) == count

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_growth_matches_naive_filter(self, k):
        ours, naive = enumerate_semilattices(k), naive_semilattices(k)
        assert len(ours) == len(naive)
        for table, expected in zip(ours, naive):
            assert table.dtype == expected.dtype
            assert np.array_equal(table, expected)

    def test_tables_are_canonical_semilattices(self):
        for k in range(1, 5):
            for table in enumerate_semilattices(k):
                assert np.array_equal(table, table.T)
                assert np.array_equal(np.diag(table), np.arange(k))
                assert _kernels.canonical_table(table) == table.astype(np.uint8).tobytes()

    def test_order_5_is_pinned(self, monkeypatch):
        monkeypatch.setattr(enumeration, "MAX_CENSUS_ORDER", 5)
        tables = enumerate_semilattices(5)
        assert len(tables) == 15 and all(t.dtype == np.int64 for t in tables)
        assert hashlib.sha256(b"".join(t.tobytes() for t in tables)).hexdigest() == (
            "2681f2ba7a49f1bb3be1e09957baded42c8fd5d9557edef1f97d26785e3dfbd4"
        )

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_semilattices(5)
        with pytest.raises(ValueError):
            enumerate_semilattices(0)


def naive_census(k):
    """Independent oracle: filter every (add, mul) pair by full validation
    and dedupe by canonical form."""
    forms = set()
    diag = list(range(k))
    for add_cells in itertools.product(range(k), repeat=k * (k - 1) // 2):
        add = np.zeros((k, k), np.int64)
        pos = 0
        for i in range(k):
            add[i, i] = diag[i]
            for j in range(i + 1, k):
                add[i, j] = add[j, i] = add_cells[pos]
                pos += 1
        for mul_cells in itertools.product(range(k), repeat=k * k):
            mul = np.array(mul_cells, np.int64).reshape(k, k)
            if tables_valid(add, mul):
                forms.add(_kernels.canonical_pair(add, mul))
    return forms


def _relabel(table, sigma):
    """Row-major cells of ``table`` with every element x renamed sigma[x]."""
    k = len(sigma)
    out = [[0] * k for _ in range(k)]
    for x in range(k):
        for y in range(k):
            out[sigma[x]][sigma[y]] = sigma[table[x][y]]
    return [v for row in out for v in row]


def full_recheck_census(add):
    """Reference backtrack, cell by cell: it fills cells row-major and after
    every cell re-checks every associativity and distributivity instance
    whose cells are all set."""
    k = len(add)
    add = [[int(v) for v in row] for row in add]

    def compatible(mul):
        for a, b, c in itertools.product(range(k), repeat=3):
            ab, bc = mul[a][b], mul[b][c]
            if ab >= 0 and bc >= 0:
                left, right = mul[ab][c], mul[a][bc]
                if left >= 0 and right >= 0 and left != right:
                    return False
            ac = mul[a][c]
            if ab >= 0 and ac >= 0:
                lhs = mul[a][add[b][c]]
                if lhs >= 0 and lhs != add[ab][ac]:
                    return False
            if ac >= 0 and bc >= 0:
                lhs = mul[add[a][b]][c]
                if lhs >= 0 and lhs != add[ac][bc]:
                    return False
        return True

    mul = [[-1] * k for _ in range(k)]
    cand = [-1] * (k * k)
    results = []
    depth = 0
    while depth >= 0:
        i, j = divmod(depth, k)
        cand[depth] += 1
        if cand[depth] >= k:
            cand[depth] = -1
            mul[i][j] = -1
            depth -= 1
            continue
        mul[i][j] = cand[depth]
        if not compatible(mul):
            continue
        if depth == k * k - 1:
            results.append([v for row in mul for v in row])
            continue
        depth += 1
    return np.array(results, dtype=np.int64).reshape(-1, k * k)


def join_table(leq, k):
    """Join table of a partial order on 0..k-1 that is a join-semilattice:
    a + b is the upper bound of a and b that lies below every other one."""
    table = np.empty((k, k), np.int64)
    for a, b in itertools.product(range(k), repeat=2):
        ubs = [c for c in range(k) if leq(a, c) and leq(b, c)]
        table[a, b] = next(c for c in ubs if all(leq(c, d) for d in ubs))
    return table


#: three order-5 semilattices (element 0 is the top), with their number of
#: raw multiplication tables and the SHA-256 of the census array
ORDER5 = {
    "flat": (lambda a, b: a == b or b == 0, 3630,
             "237b58f6e66b27a328b1866796587c54babedeb03d01c9ad97d19cffa1ca6c89"),
    "coatom3": (lambda a, b: a == b or b == 0 or (b == 1 and a >= 2), 1622,
                "3731ffe4b844170545f0145c8f1f146c1e568c1ffd7aa7d0c599be9a09d32619"),
    "chain": (lambda a, b: a >= b, 3852,
              "d99883f465f446e5a372a4c8a21bfa0109ff0579afee496f85ea7f36799ab5f9"),
}


#: SHA-256 of the concatenated canonical_pairs forms of each ORDER5 shape
CANONICAL5 = {
    "flat": "a4be42dd73ad3072ae9bf085301a8b1c4687d4cff3b32426d4cb65d189276c01",
    "coatom3": "3e0885d8664c58b9d0a0d00b7e149208b3a19563cfd1cabeb5bf0e564a9b81a1",
    "chain": "06e1e88f2ba9ce27439cb8c868e37823bb13d9cde9e92623656a0e0b6a4dee7e",
}


def automorphism_count(*tables):
    """Number of carrier permutations fixing every one of ``tables``."""
    tables = [np.asarray(t).tolist() for t in tables]
    flat = [v for t in tables for row in t for v in row]
    return sum(
        [v for t in tables for v in _relabel(t, sigma)] == flat
        for sigma in itertools.permutations(range(len(tables[0])))
    )


class TestCensus:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_incremental_check_matches_full_recheck(self, k):
        # both searches return every valid table once, in ascending
        # row-major order, though they visit different nodes
        for add in enumerate_semilattices(k):
            ours = _kernels.census_mul_tables(add)
            assert ours.dtype == np.int64
            assert np.array_equal(ours, full_recheck_census(add))

    @pytest.mark.parametrize("shape", ORDER5)
    def test_order_5_raw_tables_are_pinned(self, shape):
        leq, count, digest = ORDER5[shape]
        add = _kernels.unpack_table(_kernels.canonical_table(join_table(leq, 5)), 5)
        muls = _kernels.census_mul_tables(add)
        assert muls.dtype == np.int64 and muls.shape == (count, 25)
        assert all(tables_valid(add, mul.reshape(5, 5)) for mul in muls)
        assert hashlib.sha256(muls.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("shape", ORDER5)
    def test_order_5_canonical_forms_are_pinned(self, shape):
        add = _kernels.unpack_table(_kernels.canonical_table(join_table(ORDER5[shape][0], 5)), 5)
        forms = _kernels.canonical_pairs(add, _kernels.census_mul_tables(add))
        assert hashlib.sha256(b"".join(forms)).hexdigest() == CANONICAL5[shape]

    @pytest.mark.parametrize("cells", [1, 7])
    def test_block_boundaries_leave_the_tables_unchanged(self, cells, monkeypatch):
        # with one or a few states per block, every state crosses a block
        # boundary somewhere in the search
        lattices = [add for k in range(1, 5) for add in enumerate_semilattices(k)]
        leq, _, digest = ORDER5["coatom3"]
        coatom3 = _kernels.unpack_table(_kernels.canonical_table(join_table(leq, 5)), 5)
        monkeypatch.setattr(_kernels, "SLAB_CELLS", cells)
        for add in lattices:
            assert np.array_equal(_kernels.census_mul_tables(add), full_recheck_census(add))
        muls = _kernels.census_mul_tables(coatom3)
        assert hashlib.sha256(muls.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("shape,classes", [("flat", 215), ("coatom3", 348)])
    def test_order_5_tables_are_closed_under_aut_l(self, shape, classes):
        # an isomorphism between two ai-semirings on L is an automorphism of
        # L, so the raw tables are a union of Aut(L)-orbits, one per class;
        # Burnside counts the orbits from the tables each automorphism fixes
        leq = ORDER5[shape][0]
        add = _kernels.unpack_table(_kernels.canonical_table(join_table(leq, 5)), 5)
        muls = _kernels.census_mul_tables(add).reshape(-1, 5, 5)
        _, perms, cells = _kernels._least_relabelling(add)
        fixed = 0
        for perm, cell in zip(perms, cells):
            inv = np.argsort(perm)
            assert np.array_equal(cell, np.arange(25).reshape(5, 5)[np.ix_(inv, inv)].ravel())
            assert np.array_equal(perm[add[np.ix_(inv, inv)]], add)
            moved = perm[muls[:, inv[:, None], inv[None, :]]]
            assert np.array_equal(np.unique(moved.reshape(-1, 25), axis=0), muls.reshape(-1, 25))
            fixed += int(np.all(moved == muls, axis=(1, 2)).sum())
        assert fixed == classes * len(perms)
        assert len(set(_kernels.canonical_pairs(add, muls))) == classes

    def test_census_leaves_no_reference_cycles(self, no_reference_cycles):
        with no_reference_cycles():
            for add in enumerate_semilattices(4):
                _kernels.census_mul_tables(add)
            enumerate_ai_semirings(3)

    @pytest.mark.parametrize("k,labelled", [(1, 1), (2, 12), (3, 354), (4, 20020)])
    def test_orbit_counting(self, k, labelled):
        # labelled ai-semirings on a k-set, counted two ways: over the
        # isomorphism classes, and over the raw census tables of each
        # canonical semilattice, which never pass through canonical forms;
        # |Aut| divides k! (Lagrange), so the divisions are exact
        by_class = sum(
            math.factorial(k) // automorphism_count(S.add, S.mul)
            for S in enumerate_ai_semirings(k)
        )
        by_semilattice = sum(
            math.factorial(k) // automorphism_count(add)
            * len(_kernels.census_mul_tables(add))
            for add in enumerate_semilattices(k)
        )
        assert by_class == by_semilattice == labelled

    @pytest.mark.parametrize("k,count", [(1, 1), (2, 6), (3, 61)])
    def test_counts(self, k, count):
        assert len(enumerate_ai_semirings(k)) == count

    def test_matches_naive_filter_order_2(self):
        ours = {
            _kernels.canonical_pair(S.add, S.mul)
            for S in enumerate_ai_semirings(2)
        }
        assert ours == naive_census(2)

    def test_matches_naive_filter_order_3_fixed_semilattice(self):
        # restrict the naive oracle to one additive reduct at a time: the
        # 3-chain and the two atoms under a top
        for add in enumerate_semilattices(3):
            naive, expected = [], set()
            for mul_cells in itertools.product(range(3), repeat=9):
                mul = np.array(mul_cells, np.int64).reshape(3, 3)
                if tables_valid(add, mul):
                    naive.append(mul_cells)
                    expected.add(_kernels.canonical_pair(add, mul))
            muls = _kernels.census_mul_tables(add)
            # product() yields each table once in ascending order, and the
            # census returns its tables in ascending row-major order: every
            # valid raw table is found exactly once, in that order
            assert [tuple(int(v) for v in row) for row in muls] == naive
            assert set(_kernels.canonical_pairs(add, muls)) == expected

    def test_all_outputs_validate_and_are_distinct(self):
        seen = set()
        for S in enumerate_ai_semirings(3):
            assert validate(S.add, S.mul).ok
            form = _kernels.canonical_pair(S.add, S.mul)
            assert form not in seen
            seen.add(form)

    def test_canonical_form_invariant_under_relabelling(self):
        rng = np.random.default_rng(3)
        for S in enumerate_ai_semirings(3)[:12]:
            base = _kernels.canonical_pair(S.add, S.mul)
            add, mul = S.add.tolist(), S.mul.tolist()
            assert base == min(
                bytes(_relabel(add, sigma) + _relabel(mul, sigma))
                for sigma in itertools.permutations(range(S.order))
            )
            for _ in range(4):
                sigma = rng.permutation(S.order)
                add2 = sigma[S.add[np.ix_(np.argsort(sigma), np.argsort(sigma))]]
                mul2 = sigma[S.mul[np.ix_(np.argsort(sigma), np.argsort(sigma))]]
                assert _kernels.canonical_pair(add2, mul2) == base

    @pytest.mark.parametrize(
        "name,k",
        [("S2", 3), ("S7", 3), ("S53", 3), ("S4_124", 4), ("S4_359", 4)],
    )
    def test_registry_algebras_appear_exactly_once(self, name, k):
        S = registry(name)
        matches = [
            T for T in enumerate_ai_semirings(k) if are_isomorphic(S, T)
        ]
        assert len(matches) == 1


class TestClassification:
    def test_order_3_partition(self):
        algebras = enumerate_ai_semirings(3)
        types = classify_additive_type(algebras)
        assert sum(t.count for t in types) == 61
        assert sorted((t.n_minimals, t.n_coatoms, t.count) for t in types) == [
            (1, 1, 44),
            (2, 2, 17),
        ]


class TestScreening:
    def test_order_3_screen(self):
        algebras = enumerate_ai_semirings(3)
        passing = screen_family(algebras, 2)
        assert len(passing) == 32
        for name in ("S2", "S7", "S53"):
            assert any(are_isomorphic(registry(name), S) for S in passing)

    def test_trivial_algebra_passes(self):
        algebras = enumerate_ai_semirings(1)
        assert screen_family(algebras, 2) == algebras
