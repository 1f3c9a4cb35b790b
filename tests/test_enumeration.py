import itertools

import numpy as np
import pytest

from aisemiring import _kernels
from aisemiring.algebra import registry, tables_valid, validate
from aisemiring.enumeration import (
    classify_additive_type,
    enumerate_ai_semirings,
    enumerate_semilattices,
    screen_family,
)
from aisemiring.structure import are_isomorphic


class TestSemilattices:
    @pytest.mark.parametrize("k,count", [(1, 1), (2, 1), (3, 2), (4, 5)])
    def test_counts(self, k, count):
        assert len(enumerate_semilattices(k)) == count

    def test_tables_are_canonical_semilattices(self):
        for k in range(1, 5):
            for table in enumerate_semilattices(k):
                assert np.array_equal(table, table.T)
                assert np.array_equal(np.diag(table), np.arange(k))
                assert _kernels.canonical_table(table) == table.astype(np.uint8).tobytes()

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


class TestCensus:
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
            # product() yields each table once in ascending order, so this
            # asserts every valid raw table is found exactly once
            assert sorted(tuple(int(v) for v in row) for row in muls) == naive
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
