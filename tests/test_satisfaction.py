import random

import pytest
from hypothesis import given, settings, strategies as st

from aisemiring.algebra import registry
from aisemiring.satisfaction import (
    GUARD_LIMIT,
    VariableBudgetError,
    decide_s2,
    decide_s53,
    decide_s7,
    evaluate,
    holds_identity,
    holds_inequality,
    reduce_identity,
)
from aisemiring.terms import Term, Word, parse_term, parse_word
from aisemiring.verify import random_inequality

w = parse_word
t = parse_term

REGISTRY = ["S2", "S7", "S53", "S4_124", "S4_359", "R6"]


class TestEvaluate:
    def test_s7_word(self, S7):
        a = {"x": S7.index("a"), "y": S7.index("1")}
        assert S7.label(evaluate(t("xy"), S7, a)) == "a"

    def test_single_variable(self, S53):
        for e in range(S53.order):
            assert evaluate(t("x"), S53, {"x": e}) == e

    def test_s4_124_sum(self, S4_124):
        S = S4_124
        a = {"x": S.index("3"), "y": S.index("4")}
        assert S.label(evaluate(t("xy + yx"), S, a)) == "4"

    def test_unassigned_variable(self, S2):
        with pytest.raises(KeyError, match="unassigned"):
            evaluate(t("xy"), S2, {"x": 0})

    @given(st.sampled_from(REGISTRY), st.data())
    @settings(max_examples=50, deadline=None)
    def test_evaluation_is_a_homomorphism(self, name, data):
        S = registry(name)
        rng = random.Random(data.draw(st.integers(0, 10_000)))
        q1, u1 = random_inequality(rng)
        _, u2 = random_inequality(rng)
        a = {
            x: rng.randrange(S.order)
            for x in set(u1.words[0].letters)
            | {v for word in u1.words for v in word.letters}
            | {v for word in u2.words for v in word.letters}
            | set(q1.letters)
        }
        assert evaluate(u1 + u2, S, a) == int(
            S.add[evaluate(u1, S, a), evaluate(u2, S, a)]
        )
        assert evaluate(u1 * u2, S, a) == int(
            S.mul[evaluate(u1, S, a), evaluate(u2, S, a)]
        )


class TestBruteForce:
    def test_reflexive_inequality(self):
        for name in REGISTRY:
            assert holds_inequality(registry(name), w("x"), t("x")).holds

    def test_s2_rejects_cross_variable(self, S2):
        v = holds_inequality(S2, w("x"), t("y"))
        assert not v.holds
        c = v.counterexample
        assert c is not None
        # the reported assignment really violates the inequality
        left = evaluate(w("x"), S2, c.assignment)
        right = evaluate(t("y"), S2, c.assignment)
        assert (left, right) == (c.left_value, c.right_value)
        assert int(S2.add[right, left]) != right

    def test_counterexample_is_least_in_counter_order(self, S2):
        v = holds_inequality(S2, w("x"), t("y"))
        assert v.counterexample.assignment == {"x": 0, "y": 1}

    def test_identity_matches_inequality_pair(self, S53):
        u, v = t("xy + x"), t("x + yx")
        both = all(
            holds_inequality(S53, word, other).holds
            for word, other in reduce_identity(u, v)
        )
        assert holds_identity(S53, u, v).holds == both

    def test_guard_refuses_large_spaces(self, S4_124):
        u = Term([Word([f"x{i}" for i in range(1, 18)])])
        assert 4 ** 17 > GUARD_LIMIT
        with pytest.raises(VariableBudgetError):
            holds_inequality(S4_124, w("x1"), u)

    def test_force_overrides_the_guard(self, S2, monkeypatch):
        import aisemiring.satisfaction as sat

        monkeypatch.setattr(sat, "GUARD_LIMIT", 8)
        with pytest.raises(VariableBudgetError):
            holds_inequality(S2, w("x"), t("x + y"))
        assert holds_inequality(S2, w("x"), t("x + y"), force=True).holds

    def test_scan_matches_reference_enumeration(self):
        # independent oracle for the compiled scan: direct evaluation over
        # itertools.product in the same lexicographic order
        import itertools

        from aisemiring.terms import content

        rng = random.Random(31337)
        for name in ("S7", "S4_359"):
            S = registry(name)
            for _ in range(60):
                q, u = random_inequality(rng, variables=("x", "y", "z"))
                got = holds_inequality(S, q, u)
                variables = sorted(content(u) | content(q))
                expect_holds, first = True, None
                for combo in itertools.product(range(S.order), repeat=len(variables)):
                    a = dict(zip(variables, combo))
                    lv, rv = evaluate(q, S, a), evaluate(u, S, a)
                    if int(S.add[rv, lv]) != rv:
                        expect_holds, first = False, (a, lv, rv)
                        break
                assert got.holds == expect_holds
                if not got.holds:
                    c = got.counterexample
                    assert (c.assignment, c.left_value, c.right_value) == first

    def test_threads_do_not_change_the_verdict(self, S4_359):
        # 10 variables on 4 elements crosses the parallel threshold, and the
        # inequality fails, so the counterexample merge is exercised too
        u = t("x1x2 + x3x4 + x5x6 + x7x8 + x9")
        q = w("y")
        results = [
            holds_inequality(S4_359, q, u, threads=n) for n in (1, 2, 7)
        ]
        assert not results[0].holds
        assert all(r.holds == results[0].holds for r in results)
        assert all(r.counterexample == results[0].counterexample for r in results)


class TestReduceIdentity:
    def test_unfolds_both_sides(self):
        u, v = t("x + y"), t("z")
        assert reduce_identity(u, v) == [
            (w("x"), v),
            (w("y"), v),
            (w("z"), u),
        ]

    @given(st.sampled_from(REGISTRY), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_equivalence_with_identity(self, name, seed):
        S = registry(name)
        rng = random.Random(seed)
        _, u = random_inequality(rng, variables=("x", "y", "z"))
        _, v = random_inequality(rng, variables=("x", "y", "z"))
        reduced = all(
            holds_inequality(S, word, other).holds
            for word, other in reduce_identity(u, v)
        )
        assert holds_identity(S, u, v).holds == reduced


class TestDeciders:
    def test_family_instances(self):
        u = t("x1x2 + x2x3 + x3x1 + y1y2 + y2y1 + y1")
        q = w("y2")
        assert decide_s2(q, u)
        assert decide_s7(q, u)
        assert decide_s53(q, u)

    def test_trivial_inequality(self):
        assert decide_s2(w("x"), t("x"))
        assert decide_s7(w("x"), t("x"))
        assert decide_s53(w("x"), t("x"))

    def test_s2_clauses(self):
        assert decide_s2(w("zzz"), t("abc"))          # long summand
        assert decide_s2(w("zz"), t("x + xy"))        # shared variable
        assert not decide_s2(w("x"), t("y"))
        assert not decide_s2(w("xz"), t("xy"))        # z outside level-2 content
        assert decide_s2(w("yx"), t("xy"))

    def test_s53_scattered_subwords_matter(self, S53):
        # contiguous factors of xyx miss the pair xx; the oracle rejects
        q, u = w("xyx"), t("xy")
        assert not decide_s53(q, u)
        assert not holds_inequality(S53, q, u).holds

    def test_s7_delta_shrinks(self, S7):
        q, u = w("y"), t("xy + x")
        assert not decide_s7(q, u)
        assert not holds_inequality(S7, q, u).holds

    @pytest.mark.parametrize(
        "decider,name",
        [(decide_s2, "S2"), (decide_s7, "S7"), (decide_s53, "S53")],
    )
    def test_oracle_agreement_sample(self, decider, name):
        S = registry(name)
        rng = random.Random(hash(name) & 0xFFFF)
        for _ in range(400):
            q, u = random_inequality(rng)
            assert decider(q, u) == holds_inequality(S, q, u).holds
