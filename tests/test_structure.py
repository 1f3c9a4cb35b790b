import itertools
import random

import numpy as np
import pytest

from aisemiring.algebra import FiniteAiSemiring, registry, validate
from aisemiring.enumeration import enumerate_ai_semirings
from aisemiring.structure import (
    ClosureError,
    Homomorphism,
    Partition,
    all_partitions,
    are_isomorphic,
    check_subdirect,
    direct_product,
    enumerate_congruences,
    find_isomorphism,
    is_congruence,
    quotient,
    subalgebra,
)

REGISTRY = ["S2", "S7", "S53", "S4_124", "S4_359", "R6"]


class TestPartition:
    def test_rejects_overlap_and_gaps(self):
        with pytest.raises(ValueError):
            Partition([[0, 1], [1, 2]])
        with pytest.raises(ValueError):
            Partition([[0], [2]], size=3)

    def test_rejects_empty_blocks(self):
        for blocks in ([], [[0], []]):
            with pytest.raises(ValueError, match="^blocks must be nonempty$"):
                Partition(blocks)

    def test_meet_needs_one_carrier(self):
        with pytest.raises(ValueError, match="^partitions have different carriers$"):
            Partition.discrete(2).meet(Partition.discrete(3))

    def test_closing_fills_singletons(self):
        P = Partition.closing([[0, 2]], 4)
        assert P.blocks == (frozenset({0, 2}), frozenset({1}), frozenset({3}))

    def test_meet(self):
        a = Partition.closing([[0, 1, 2, 3]], 6)
        b = Partition.closing([[0, 5], [1, 4]], 6)
        assert a.meet(b).is_discrete()


class TestCongruence:
    def test_s4_124_block_12(self, S4_124):
        assert is_congruence(S4_124, Partition.closing([[0, 1]], 4)).ok

    def test_partition_must_match_the_carrier(self, S4_124):
        with pytest.raises(ValueError, match="^partition does not match the carrier$"):
            is_congruence(S4_124, Partition.discrete(3))

    def test_discrete_always(self):
        for name in REGISTRY:
            S = registry(name)
            assert is_congruence(S, Partition.discrete(S.order)).ok
            assert is_congruence(S, Partition.total(S.order)).ok

    def test_s7_rejects_zero_one_merge(self, S7):
        # merging the top with the element 1 is incompatible; witness returned
        v = is_congruence(S7, Partition.closing([[0, 2]], 3))
        assert not v.ok
        assert v.witness is not None
        op, a, b, c = v.witness
        table = S7.add if op == "add" else S7.mul
        P = Partition.closing([[0, 2]], 3)
        assert P.block_of[a] == P.block_of[b]
        assert (
            P.block_of[table[a, c]] != P.block_of[table[b, c]]
            or P.block_of[table[c, a]] != P.block_of[table[c, b]]
        )

    def test_left_translation_is_checked(self):
        # in A3_006 with 0 ~ 2, the first separation is on the left:
        # 1*0 and 1*2 fall in different blocks, 0*1 and 2*1 do not
        [S] = [S for S in enumerate_ai_semirings(3) if S.name == "A3_006"]
        P = Partition.closing([[0, 2]], 3)
        v = is_congruence(S, P)
        assert v.witness == ("mul", 0, 2, 1)
        assert P.block_of[S.mul[0, 1]] == P.block_of[S.mul[2, 1]]
        assert P.block_of[S.mul[1, 0]] != P.block_of[S.mul[1, 2]]

    def test_witness_names_its_side(self, S7):
        [S] = [S for S in enumerate_ai_semirings(3) if S.name == "A3_006"]
        P = Partition.closing([[0, 2]], 3)
        assert is_congruence(S, P).side == "left"
        with pytest.raises(ValueError, match="but mul with 2 on the left separates them"):
            quotient(S, P)
        # in S7 with 0 ~ 1, 0*a and 1*a fall in different blocks
        v = is_congruence(S7, Partition.closing([[0, 2]], 3))
        op, a, b, c = v.witness
        assert v.side == "right"
        assert P.block_of[S7.mul[a, c]] != P.block_of[S7.mul[b, c]]
        assert is_congruence(S7, Partition.discrete(3)).side is None


class TestQuotient:
    def test_s4_124_mod_rho_is_s7(self, S4_124, S7):
        Q = quotient(S4_124, Partition.closing([[0, 1]], 4))
        assert Q.labels == ("{1,2}", "{3}", "{4}")
        assert are_isomorphic(Q, S7)

    def test_s4_359_mod_rho_is_s7(self, S4_359, S7):
        Q = quotient(S4_359, Partition.closing([[0, 1]], 4))
        assert are_isomorphic(Q, S7)

    def test_discrete_quotient_is_isomorphic(self, S53):
        Q = quotient(S53, Partition.discrete(3))
        assert are_isomorphic(Q, S53)

    def test_non_congruence_rejected(self, S7):
        with pytest.raises(ValueError, match="not a congruence"):
            quotient(S7, Partition.closing([[0, 2]], 3))

    @pytest.mark.parametrize("m", [(0, 1), (0, 1, 3), (0, 1, -1), (0, 1, 2.0), ("0", "1", "2")])
    def test_a_map_off_the_carrier_is_not_a_homomorphism(self, S7, m):
        assert Homomorphism(S7, S7, (0, 1, 2)).is_valid()
        assert not Homomorphism(S7, S7, m).is_valid()

    def test_block_map_is_surjective_homomorphism(self, S4_124):
        P = Partition.closing([[0, 1]], 4)
        h = Homomorphism(S4_124, quotient(S4_124, P), P.block_of)
        assert h.is_valid()
        assert set(h.map) == set(range(h.target.order))

    @pytest.mark.parametrize("name", REGISTRY)
    def test_every_congruence_quotient_validates(self, name):
        S = registry(name)
        for P in enumerate_congruences(S):
            Q = quotient(S, P)
            assert validate(Q.add, Q.mul).ok


class TestSubalgebra:
    def test_s4_124_124_is_s2(self, S4_124, S2):
        T = subalgebra(S4_124, [0, 1, 3])
        assert T.labels == ("1", "2", "4")
        assert are_isomorphic(T, S2)

    def test_s4_124_123_is_s53(self, S4_124, S53):
        assert are_isomorphic(subalgebra(S4_124, [0, 1, 2]), S53)

    def test_whole_carrier(self, S7):
        assert subalgebra(S7, range(3)) == S7

    def test_subset_must_be_nonempty_and_in_range(self, S7):
        with pytest.raises(ValueError, match="^subset must be nonempty$"):
            subalgebra(S7, [])
        for subset in ([0, 3], [-1, 0]):
            with pytest.raises(ValueError, match="^subset contains out-of-range elements$"):
                subalgebra(S7, subset)

    def test_not_closed_reports_witness(self, S4_124):
        # {3, 4} is not additively closed: 3 + 4 = 1
        with pytest.raises(ClosureError) as info:
            subalgebra(S4_124, [2, 3])
        err = info.value
        assert err.op == "add"
        assert err.result not in (2, 3)


class TestIsomorphism:
    def test_identity(self, S53):
        assert find_isomorphism(S53, S53) == (0, 1, 2)

    def test_s2_vs_s53(self, S2, S53):
        assert find_isomorphism(S2, S53) is None

    def test_found_map_is_a_bijective_homomorphism(self, S4_124, S7):
        Q = quotient(S4_124, Partition.closing([[0, 1]], 4))
        perm = find_isomorphism(Q, S7)
        h = Homomorphism(Q, S7, perm)
        assert h.is_valid() and h.is_bijective()

    def test_reflexive_symmetric_on_pool(self):
        rng = random.Random(5)
        pool = [registry(name) for name in REGISTRY]
        for _ in range(10):
            A, B = rng.choice(pool), rng.choice(pool)
            assert are_isomorphic(A, A)
            assert are_isomorphic(A, B) == are_isomorphic(B, A)


class TestDirectProduct:
    def test_cardinality(self, S2, S4_359):
        assert direct_product(S2, S4_359).order == 12

    def test_product_validates(self, S7, S53):
        P = direct_product(S7, S53)
        assert validate(P.add, P.mul).ok

    def test_projections_are_homomorphisms(self, S2, S53):
        P = direct_product(S2, S53)
        first = Homomorphism(P, S2, tuple(i // S53.order for i in range(P.order)))
        second = Homomorphism(P, S53, tuple(i % S53.order for i in range(P.order)))
        assert first.is_valid() and second.is_valid()


class TestSubdirect:
    def test_r6_decomposition(self, R6, S2, S4_359):
        rep = check_subdirect(
            R6,
            Partition.closing([[0, 1, 2, 3]], 6),
            Partition.closing([[0, 5], [1, 4]], 6),
        )
        assert rep.injective and rep.surjective and rep.is_subdirect
        assert are_isomorphic(rep.factor1, S2)
        assert are_isomorphic(rep.factor2, S4_359)

    def test_s4_359_decomposition(self, S4_359, S7, S53):
        rep = check_subdirect(
            S4_359,
            Partition.closing([[0, 1]], 4),
            Partition.closing([[0, 3]], 4),
        )
        assert rep.injective and rep.surjective
        assert are_isomorphic(rep.factor1, S7)
        assert are_isomorphic(rep.factor2, S53)

    def test_discrete_pair_gives_isomorphic_factors(self, S53):
        rep = check_subdirect(
            S53, Partition.discrete(3), Partition.discrete(3)
        )
        assert rep.injective and rep.surjective
        assert are_isomorphic(rep.factor1, S53)

    @pytest.mark.parametrize("name", ["S2", "S7", "S53", "S4_124", "S4_359"])
    def test_injectivity_iff_meet_discrete(self, name):
        S = registry(name)
        congruences = enumerate_congruences(S)
        for t1, t2 in itertools.product(congruences, repeat=2):
            rep = check_subdirect(S, t1, t2)
            assert rep.injective == t1.meet(t2).is_discrete()
            assert rep.injective == rep.meet_is_discrete
            assert rep.surjective


class TestCongruenceEnumeration:
    @pytest.mark.parametrize("name", REGISTRY)
    def test_extremes_present_and_all_check(self, name):
        S = registry(name)
        found = enumerate_congruences(S)
        assert Partition.discrete(S.order) in found
        assert Partition.total(S.order) in found
        for P in found:
            assert is_congruence(S, P).ok

    def test_matches_direct_filter_on_s7(self, S7):
        direct = [P for P in all_partitions(3) if is_congruence(S7, P)]
        assert direct == enumerate_congruences(S7)

    def test_s4_124_contains_rho(self, S4_124):
        assert Partition.closing([[0, 1]], 4) in enumerate_congruences(S4_124)

    def test_too_large_carrier(self):
        big = direct_product(registry("R6"), registry("S2"))
        with pytest.raises(ValueError, match="too large"):
            enumerate_congruences(big)

    def test_partition_count_is_bell_number(self):
        assert sum(1 for _ in all_partitions(4)) == 15
        assert sum(1 for _ in all_partitions(6)) == 203

    @pytest.mark.parametrize("k", range(1, 7))
    def test_partitions_come_in_restricted_growth_order(self, k):
        # each partition's restricted-growth string names every element's
        # block by the order of first appearance; they strictly ascend
        strings = []
        for P in all_partitions(k):
            first: dict[int, int] = {}
            strings.append(tuple(first.setdefault(P.block_of[x], len(first))
                                 for x in range(k)))
        assert strings == sorted(set(strings))
        assert strings[-1] == tuple(range(k))

    def test_leaves_no_reference_cycles(self, S4_124, no_reference_cycles):
        with no_reference_cycles():
            enumerate_congruences(S4_124)
