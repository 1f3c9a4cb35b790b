import pytest

from aisemiring import _kernels
from aisemiring.algebra import FiniteAiSemiring, registry
from aisemiring.family import FamilyVerdict, in_W, make_family, member_of_W
from aisemiring.satisfaction import VariableBudgetError, decide_s2, decide_s53, decide_s7
from aisemiring.terms import (
    commutative_normalize,
    content,
    is_linear,
    level,
    parse_term,
)


class TestMakeFamily:
    def test_first_instance_exactly(self):
        fam = make_family(1)
        assert fam.u == parse_term("x1x2 + x2x3 + x3x1 + y1y2 + y2y1 + y1")
        assert str(fam.q) == "y2"

    @pytest.mark.parametrize("n", range(1, 11))
    def test_shape_invariants(self, n):
        fam = make_family(n)
        assert len(fam.u.words) == 2 * n + 4
        assert len(content(fam.u)) == 2 * n + 3
        assert level(1, fam.u) == {parse_term("y1").words[0]}
        # 2n+1 cycle words plus y1y2 and y2y1
        assert len(level(2, fam.u)) == 2 * n + 3
        for word in fam.u.words:
            assert len(word) <= 2 and is_linear(word)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_commutative_collapse_merges_one_pair(self, n):
        fam = make_family(n)
        collapsed = commutative_normalize(fam.u)
        assert len(collapsed.words) == 2 * n + 3
        assert len(level(2, collapsed)) == 2 * n + 2

    @pytest.mark.parametrize("n", range(1, 11))
    def test_syntactic_deciders_accept(self, n):
        fam = make_family(n)
        assert decide_s2(fam.q, fam.u)
        assert decide_s7(fam.q, fam.u)
        assert decide_s53(fam.q, fam.u)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            make_family(0)


class TestMembership:
    @pytest.mark.parametrize("name", ["S2", "S7", "S53", "S4_124"])
    def test_reference_algebras_up_to_three(self, name):
        verdicts = in_W(registry(name), 3)
        assert [v.n for v in verdicts] == [1, 2, 3]
        assert all(v.holds for v in verdicts)

    def test_two_element_join_algebra(self):
        # addition and multiplication both the join of the 2-chain
        S = FiniteAiSemiring("join2", ["0", "1"], [[0, 1], [1, 1]], [[0, 1], [1, 1]])
        assert member_of_W(S, 2)

    def test_counterexample_surfaces(self):
        # constant-bottom multiplication kills every two-letter summand, so
        # only y1 survives on the left and y2 escapes above it
        S = FiniteAiSemiring(
            "flat2", ["0", "1"], [[0, 1], [1, 1]], [[0, 0], [0, 0]]
        )
        verdicts = in_W(S, 1)
        assert not verdicts[0].holds
        c = verdicts[0].verdict.counterexample
        assert c is not None and c.assignment["y2"] == 1

    def test_guard_and_force(self, S2):
        with pytest.raises(VariableBudgetError):
            in_W(S2, 4)
        verdicts = in_W(S2, 4, force=True)
        assert len(verdicts) == 4 and all(v.holds for v in verdicts)

    def test_budget_is_checked_before_any_scan(self, monkeypatch):
        # on a 12-element chain, n = 1 and 2 fit the budget and n = 3 does not
        chain = [[max(i, j) for j in range(12)] for i in range(12)]
        S = FiniteAiSemiring("chain12", [str(i) for i in range(12)], chain, chain)

        def no_scan(*args):
            raise AssertionError("scanned before the budget was checked")

        monkeypatch.setattr(_kernels, "first_violation", no_scan)
        with pytest.raises(VariableBudgetError, match=r"^12\^9 assignments exceed the budget"):
            in_W(S, 3)

    def test_nmax_validation(self, S2):
        with pytest.raises(ValueError):
            in_W(S2, 0)

    def test_serial_and_parallel_agree(self, S4_124):
        # in_W accepts and ignores threads=; this guards the benchmark's
        # in_W(..., threads=2) call until that item is dropped
        serial = in_W(S4_124, 3)
        parallel = in_W(S4_124, 3, threads=4)
        assert [(v.n, v.holds) for v in serial] == [
            (v.n, v.holds) for v in parallel
        ]
