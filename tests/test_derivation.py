import itertools
import random

import pytest

from aisemiring.derivation import (
    Derivation,
    DerivationStep,
    DerivationSyntaxError,
    DerivationVerdict,
    SearchBounds,
    SearchResult,
    check_derivation,
    check_step,
    _step,
    format_derivation,
    parse_derivation,
    search_derivation,
    sorted_rewrites,
)
from aisemiring.terms import Substitution, Term, Word, content, parse_term, parse_word, wrap
from aisemiring.verify import SOUNDNESS_BOUNDS, _random_reachable_claim, _random_sigma

t = parse_term


def identity(text):
    lhs, rhs = text.split("=")
    return (t(lhs), t(rhs))


class TestCheckStep:
    def test_direct_commutativity_instance(self):
        rule = identity("xy = yx")
        step = DerivationStep(rule=rule, forward=True, remainder=t("z"))
        assert check_step(t("xy + z"), t("yx + z"), step)

    def test_right_side_mismatch(self):
        rule = identity("xy = yx")
        step = DerivationStep(rule=rule, forward=True, remainder=t("z"))
        assert check_step(t("xy + z"), t("xy + z"), step) == DerivationVerdict(
            False, None, "right side composes to z + yx, expected z + xy")

    def test_left_side_mismatch(self):
        rule = identity("xy = yx")
        step = DerivationStep(rule=rule, forward=True, remainder=t("z"))
        assert check_step(t("yx + z"), t("yx + z"), step) == DerivationVerdict(
            False, None, "left side composes to z + xy, expected z + yx")

    def test_set_collapse_keeps_sides_equal(self):
        rule = identity("x = x + xx")
        # with x := ab both sides of the *rule* stay distinct, but wrapping
        # with remainder abab collapses the sum
        step = DerivationStep(
            rule=rule,
            forward=True,
            remainder=t("abab"),
            subst=Substitution({"x": t("ab")}),
        )
        assert check_step(t("ab + abab"), t("ab + abab"), step)

    def test_identity_substitution_empty_contexts(self):
        rule = identity("x + y = y + x")
        step = DerivationStep(rule=rule, forward=True)
        assert check_step(t("x + y"), t("y + x"), step)

    def test_rule_not_in_sigma(self):
        # the step composes; membership in sigma is check_derivation's test
        rule = identity("xy = yx")
        step = DerivationStep(rule=rule, forward=True)
        assert check_step(t("xy"), t("yx"), step)
        d = Derivation([identity("x = xx")], [t("xy"), t("yx")], [step])
        assert check_derivation(d, (t("xy"), t("yx"))) == DerivationVerdict(
            False, 0, "rule xy = yx is not in the identity set")

    def test_contexts_wrap_both_sides(self):
        rule = identity("xy = yx")
        step = DerivationStep(
            rule=rule,
            forward=True,
            left=("a",),
            right=("b",),
            subst=Substitution({"x": t("x"), "y": t("y")}),
        )
        assert check_step(t("axyb"), t("ayxb"), step)


class TestCheckDerivation:
    def test_single_term_chain(self):
        d = Derivation([], [t("x + y")], [])
        assert check_derivation(d, (t("x + y"), t("y + x")))  # same term as a set

    def test_two_step_shuffle(self):
        rule = identity("xy = yx")
        sub = Substitution({"x": t("x"), "y": t("y")})
        d = Derivation(
            [rule],
            [t("xyz"), t("yxz"), t("yzx")],
            [
                DerivationStep(rule=rule, forward=True, right=("z",), subst=sub),
                DerivationStep(
                    rule=rule,
                    forward=True,
                    left=("y",),
                    subst=Substitution({"x": t("x"), "y": t("z")}),
                ),
            ],
        )
        assert check_derivation(d, (t("xyz"), t("yzx")))

    def test_corrupted_intermediate_found(self):
        rule = identity("xy = yx")
        sub = Substitution({"x": t("x"), "y": t("y")})
        d = Derivation(
            [rule],
            [t("xyz"), t("zxy"), t("yzx")],  # middle term is wrong
            [
                DerivationStep(rule=rule, forward=True, right=("z",), subst=sub),
                DerivationStep(rule=rule, forward=True, left=("y",), subst=sub),
            ],
        )
        verdict = check_derivation(d, (t("xyz"), t("yzx")))
        assert not verdict.ok
        assert verdict.failed_step == 0

    def test_foreign_rule_at_a_later_step(self):
        rule, foreign = identity("xy = yx"), identity("uv = vu")
        d = Derivation(
            [rule],
            [t("xyz"), t("yxz"), t("yzx")],
            [
                DerivationStep(rule=rule, forward=True, right=("z",),
                               subst=Substitution({"x": t("x"), "y": t("y")})),
                DerivationStep(rule=foreign, forward=True, left=("y",),
                               subst=Substitution({"u": t("x"), "v": t("z")})),
            ],
        )
        assert check_derivation(d, (t("xyz"), t("yzx"))) == DerivationVerdict(
            False, 1, "rule uv = vu is not in the identity set")
        d.sigma.append(foreign)
        assert check_derivation(d, (t("xyz"), t("yzx")))

    def test_wrong_endpoints(self):
        d = Derivation([], [t("x")], [])
        assert not check_derivation(d, (t("y"), t("x"))).ok
        assert not check_derivation(d, (t("x"), t("y"))).ok

    def test_malformed_derivations(self):
        rule = identity("xy = yx")
        step = DerivationStep(rule=rule, forward=True)
        claim = (t("xy"), t("yx"))
        assert check_derivation(Derivation([rule], [], []), claim) == DerivationVerdict(
            False, None, "empty chain")
        assert check_derivation(Derivation([rule], [t("xy")], [step]), claim) == (
            DerivationVerdict(False, None, "1 steps cannot justify a chain of 1 terms"))
        assert check_derivation(Derivation([], [t("xy"), t("yx")], [step]), claim) == (
            DerivationVerdict(False, 0, "rule xy = yx is not in the identity set"))


class TestSearch:
    def test_one_step_commutativity(self):
        sigma = [identity("xy = yx")]
        result = search_derivation(sigma, (t("xy"), t("yx")))
        assert result.found
        assert len(result.derivation.chain) == 2
        assert check_derivation(result.derivation, (t("xy"), t("yx")))

    def test_empty_sigma_exhausts(self):
        result = search_derivation([], (t("x"), t("y")))
        assert not result.found
        assert "exhausted" in result.reason

    def test_found_derivations_always_check(self):
        sigma = [identity("x = x + xx"), identity("xy = yx")]
        claims = [
            (t("ab"), t("ab + abab")),
            (t("ab + c"), t("ba + c")),
            (t("abc"), t("cba")),
        ]
        for claim in claims:
            result = search_derivation(sigma, claim)
            assert result.found, claim
            assert check_derivation(result.derivation, claim)

    def test_backward_orientation_used(self):
        sigma = [identity("x + xx = x")]
        result = search_derivation(sigma, (t("ab"), t("ab + abab")))
        assert result.found
        assert not result.derivation.steps[0].forward

    def test_deterministic(self):
        sigma = [identity("xy = yx")]
        a = search_derivation(sigma, (t("abc"), t("cba")))
        b = search_derivation(sigma, (t("abc"), t("cba")))
        assert format_derivation(a.derivation) == format_derivation(b.derivation)

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            search_derivation([], (t("x"), t("y")), SearchBounds(max_chain=0))

    def test_oversized_claim_reports_exhaustion(self):
        sigma = [identity("xy = yx")]
        big = t("abcdefgh")
        result = search_derivation(sigma, (big, big + t("x")),
                                   SearchBounds(max_word_len=3))
        assert not result.found


class TestFileFormat:
    GOOD = """\
# toy commutativity shuffle
sigma:
xy = yx
chain:
xy + z
yx + z
step: rule 1 forward; left -; right -; rest z; sub x := x, y := y
"""

    def test_parse_and_check(self):
        d = parse_derivation(self.GOOD)
        assert check_derivation(d, (d.chain[0], d.chain[-1]))

    def test_round_trip(self):
        d = parse_derivation(self.GOOD)
        again = parse_derivation(format_derivation(d))
        assert again.chain == d.chain
        assert check_derivation(again, (d.chain[0], d.chain[-1]))

    def test_round_trip_without_substitution(self):
        text = self.GOOD.replace("; sub x := x, y := y", "")
        d = parse_derivation(text)
        assert format_derivation(d).endswith("; rest z; sub -\n")
        assert parse_derivation(format_derivation(d)) == d

    def test_empty_step_fields_are_skipped(self):
        assert parse_derivation(self.GOOD.replace("; ", ";; ")) == parse_derivation(self.GOOD)

    def test_search_output_reparses(self):
        sigma = [identity("xy = yx")]
        result = search_derivation(sigma, (t("xyz"), t("zyx")))
        d = parse_derivation(format_derivation(result.derivation))
        assert check_derivation(d, (t("xyz"), t("zyx")))

    @pytest.mark.parametrize(
        "mutation,match",
        [
            (lambda s: s.replace("sigma:\n", ""), "unexpected content"),
            (lambda s: s.replace("chain:\n", ""), "'='"),
            (lambda s: s.replace("rule 1", "rule 7"), "out of range"),
            (lambda s: s.replace("step: rule 1 forward; ", "step: "), "rule"),
            (lambda s: s + "step: rule 1 forward\n", "step lines"),
            (lambda s: s.replace("xy = yx", "xy yx"), "'='"),
            (lambda s: s.replace("sub x := x, y := y", "sub 1x := y"),
             "line 7: illegal variable name '1x'"),
            (lambda s: s.replace("sub x := x, y := y", "sub x := y, x := x"),
             "line 7: duplicate binding for x"),
            (lambda s: s.split("chain:")[0], "no chain section"),
            (lambda s: s.replace("rule 1 forward", "rule 1 sideways"),
             "line 7: rule field must be"),
            (lambda s: s.replace("rule 1", "rule one"), "line 7: bad rule index 'one'"),
            (lambda s: s.replace("sub x := x, y := y", "sub x = y"),
             "line 7: binding 'x = y' needs ':='"),
            (lambda s: s.replace("left -", "middle -"), "line 7: unknown step field 'middle'"),
            (lambda s: s.replace("; sub", "; rest z; sub"), "line 7: repeated step field 'rest'"),
            # with two bad fields, the one parsed first is reported: rest,
            # then sub, then left, then right
            (lambda s: s.replace("rest z; sub x := x, y := y", "rest +; sub x = y"),
             r"line 7: empty summand in '\+'"),
            (lambda s: s.replace("left -; right -; rest z; sub x := x, y := y",
                                 "left 1x; right -; rest z; sub x = y"),
             "line 7: binding 'x = y' needs ':='"),
            (lambda s: s.replace("left -; right -", "left 1x; right 2y"),
             "line 7: illegal identifier starting at '1x'"),
        ],
    )
    def test_syntax_errors(self, mutation, match):
        with pytest.raises(DerivationSyntaxError, match=match) as exc:
            parse_derivation(mutation(self.GOOD))
        assert str(exc.value).startswith(f"line {exc.value.line}: ")

    def test_syntax_error_carries_its_line(self):
        with pytest.raises(DerivationSyntaxError) as exc:
            parse_derivation("sigma:\nxy\n")
        assert str(exc.value) == "line 2: identity needs '='"
        assert exc.value.line == 2


class TestSoundnessSample:
    def test_fuzzed_searches_are_sound(self):
        # smaller companion to the acceptance-level fuzz
        from aisemiring.enumeration import enumerate_ai_semirings
        from aisemiring.satisfaction import holds_identity
        from aisemiring.verify import _random_reachable_claim, _random_sigma

        rng = random.Random(4242)
        pool = enumerate_ai_semirings(2) + enumerate_ai_semirings(3)[:20]
        found = 0
        for _ in range(60):
            sigma = _random_sigma(rng)
            claim = _random_reachable_claim(rng, sigma, SOUNDNESS_BOUNDS)
            result = search_derivation(sigma, claim, SOUNDNESS_BOUNDS)
            if not result.found:
                continue
            found += 1
            assert check_derivation(result.derivation, claim)
            for S in rng.sample(pool, 3):
                if all(holds_identity(S, a, b).holds for a, b in sigma):
                    assert holds_identity(S, claim[0], claim[1]).holds
        assert found >= 30


# ---------------------------------------------------------------------------
# reference: the object-level rewrite step and BFS the raw-tuple search
# replaced, kept here to check that the search still gives the same answers


def reference_match_word(pattern, seg, binding, max_img):
    if not pattern:
        return [dict(binding)] if not seg else []
    v, rest = pattern[0], pattern[1:]
    bound = binding.get(v)
    if bound is not None:
        if seg[: len(bound)] == bound:
            return reference_match_word(rest, seg[len(bound):], binding, max_img)
        return []
    out = []
    limit = min(len(seg) - len(rest), max_img)
    for l in range(1, limit + 1):
        b2 = dict(binding)
        b2[v] = seg[:l]
        out.extend(reference_match_word(rest, seg[l:], b2, max_img))
    return out


def reference_match_term(src, t, max_img):
    words = sorted(src.words, key=lambda w: (-len(w), w.letters))
    anchor, others = words[0], words[1:]
    results = []
    seen = set()
    for x in t.words:
        ls = x.letters
        for i in range(len(ls)):
            for j in range(i + 1, len(ls) + 1):
                left, right = ls[:i], ls[j:]
                for b0 in reference_match_word(anchor.letters, ls[i:j], {}, max_img):
                    candidates = [b0]
                    for w in others:
                        extended = []
                        for cand in candidates:
                            for y in t.words:
                                ly = y.letters
                                if len(ly) <= len(left) + len(right):
                                    continue
                                if ly[: len(left)] != left:
                                    continue
                                if right and ly[len(ly) - len(right):] != right:
                                    continue
                                seg = ly[len(left): len(ly) - len(right)]
                                extended.extend(
                                    reference_match_word(w.letters, seg, cand, max_img)
                                )
                        deduped, keys = [], set()
                        for b in extended:
                            key = tuple(sorted(b.items()))
                            if key not in keys:
                                keys.add(key)
                                deduped.append(b)
                        candidates = deduped
                        if not candidates:
                            break
                    for cand in candidates:
                        key = (tuple(sorted(cand.items())), left, right)
                        if key not in seen:
                            seen.add(key)
                            results.append((cand, left, right))
    return results


def reference_subsets(words, cap=3):
    ws = sorted(words, key=Word.sort_key)
    if len(ws) <= cap:
        for r in range(len(ws) + 1):
            yield from (frozenset(c) for c in itertools.combinations(ws, r))
    else:
        yield frozenset()
        yield frozenset(ws)


def neighbors(sigma, t, bounds, image_pool):
    """sorted_rewrites with each key made a Term and its witnesses a step."""
    found, pruned = sorted_rewrites(sigma, t, bounds, image_pool)
    return [(Term._of_letters(letters for _, letters in key), _step(*witnesses))
            for key, witnesses in found], pruned


def reference_neighbors(sigma, t, bounds, image_pool):
    """Every candidate built as Term, Substitution and DerivationStep, then
    one stable sort by term."""
    out = []
    pruned = 0
    for rule in sigma:
        for forward in (True, False):
            src, dst = rule if forward else (rule[1], rule[0])
            unbound = sorted(content(dst) - content(src))
            if len(unbound) > 2:
                continue
            for binding, left, right in reference_match_term(src, t, bounds.max_subst_image):
                phi = Substitution({v: Term([Word(img)]) for v, img in binding.items()})
                base = frozenset(Word(left + w.letters + right) for w in phi(src).words)
                rest = frozenset(t.words) - base
                for extra in reference_subsets(base):
                    kept = rest | extra
                    for images in itertools.product(image_pool, repeat=len(unbound)):
                        full = dict(binding)
                        for v, img in zip(unbound, images):
                            full[v] = (img,)
                        phi_full = Substitution(
                            {v: Term([Word(img)]) for v, img in full.items()}
                        )
                        t_next = wrap(phi_full(dst), left, right,
                                      Term(kept) if kept else None)
                        if t_next == t:
                            continue
                        if not bounds.admits(t_next):
                            pruned += 1
                            continue
                        step = DerivationStep(
                            rule=rule, forward=forward, left=left, right=right,
                            remainder=Term(kept) if kept else None, subst=phi_full,
                        )
                        out.append((t_next, step))
    out.sort(key=lambda pair: pair[0])
    return out, pruned


def reference_search(sigma, claim, bounds):
    """Term-keyed BFS over reference_neighbors, counting pruned rewrites and
    the sizes of the frontiers it expands."""
    start, goal = claim
    if start == goal:
        return SearchResult(Derivation(list(sigma), [start], []), "found", 1)
    image_pool = sorted(content(start) | content(goal)) or ["x"]
    back = {start: None}
    frontier = [start]
    total_pruned = 0
    sizes = []
    if not bounds.admits(start):
        return SearchResult(None, "exhausted: claim's left side exceeds bounds", 0)
    for _ in range(bounds.max_chain - 1):
        sizes.append(len(frontier))
        nxt = []
        for t in frontier:
            options, pruned = reference_neighbors(sigma, t, bounds, image_pool)
            total_pruned += pruned
            for t2, step in options:
                if t2 in back:
                    continue
                back[t2] = (t, step)
                if t2 == goal:
                    chain, steps, cur = [t2], [], t2
                    while back[cur] is not None:
                        prev, st = back[cur]
                        chain.append(prev)
                        steps.append(st)
                        cur = prev
                    return SearchResult(
                        Derivation(list(sigma), chain[::-1], steps[::-1]),
                        "found", len(back), total_pruned, tuple(sizes),
                    )
                nxt.append(t2)
        if not nxt:
            reason = "exhausted: no unexplored terms within bounds"
            if total_pruned:
                reason += f" ({total_pruned} rewrites pruned by bound overflow)"
            return SearchResult(None, reason, len(back), total_pruned, tuple(sizes))
        nxt.sort()
        frontier = nxt
    return SearchResult(None, f"exhausted: chain bound {bounds.max_chain} reached",
                        len(back), total_pruned, tuple(sizes))


def assert_same_search(sigma, claim, bounds):
    ours, ref = search_derivation(sigma, claim, bounds), reference_search(sigma, claim, bounds)
    assert ours.reason == ref.reason
    assert ours.explored == ref.explored
    assert ours.pruned == ref.pruned
    assert ours.frontier_sizes == ref.frontier_sizes
    assert ours.found == ref.found
    if ref.found:
        assert format_derivation(ours.derivation) == format_derivation(ref.derivation)
        assert ours.derivation == ref.derivation
    return ours


class TestAgainstObjectSearch:
    def test_fuzzed_corpus(self):
        rng = random.Random(2718)
        reasons = set()
        for _ in range(200):
            sigma = _random_sigma(rng)
            claim = _random_reachable_claim(rng, sigma, SOUNDNESS_BOUNDS)
            pool = sorted(content(claim[0]) | content(claim[1])) or ["x"]
            for term in claim:
                assert (neighbors(sigma, term, SOUNDNESS_BOUNDS, pool)
                        == reference_neighbors(sigma, term, SOUNDNESS_BOUNDS, pool))
            reasons.add(assert_same_search(sigma, claim, SOUNDNESS_BOUNDS).reason)
        assert "found" in reasons

    def test_duplicates_kept_by_neighbors(self):
        # x = x + x rewrites ab + abab to the same term in several ways;
        # sorted_rewrites lists each way, in the order it was generated
        sigma = [identity("x = xx"), identity("x + xy = x")]
        term = t("ab + abab")
        ours = neighbors(sigma, term, SOUNDNESS_BOUNDS, ["a", "b"])
        assert ours == reference_neighbors(sigma, term, SOUNDNESS_BOUNDS, ["a", "b"])
        terms = [t2 for t2, _ in ours[0]]
        assert len(terms) > len(set(terms))

    def test_image_of_four_words_keeps_none_or_all(self):
        # where the four source words match four different words, the
        # remainder keeps none of the rewritten image or all of it
        sigma = [identity("x + y + z + w = xyzw")]
        term = t("a + b + c + d")
        ours = neighbors(sigma, term, SOUNDNESS_BOUNDS, ["a", "b", "c", "d"])
        assert ours == reference_neighbors(sigma, term, SOUNDNESS_BOUNDS,
                                           ["a", "b", "c", "d"])
        kept = {step.remainder for _, step in ours[0]
                if step.forward and len(set(step.subst.mapping.values())) == 4}
        assert kept == {None, term}

    def test_three_unbound_variables_skip_the_orientation(self):
        # forward, x = x + yzw would have to guess y, z and w; only the
        # backward orientation is tried
        sigma = [identity("x = x + yzw")]
        term = t("a + bcd")
        ours = neighbors(sigma, term, SOUNDNESS_BOUNDS, ["a", "b", "c", "d"])
        assert ours == reference_neighbors(sigma, term, SOUNDNESS_BOUNDS,
                                           ["a", "b", "c", "d"])
        assert ours[0] and not any(step.forward for _, step in ours[0])

    def test_chain_bound_reached(self):
        result = assert_same_search(
            [identity("xy = yx")], (t("abc + d"), t("e")), SOUNDNESS_BOUNDS
        )
        assert result.reason == "exhausted: chain bound 4 reached"
        assert len(result.frontier_sizes) == 3

    def test_pruned_by_bound_overflow(self):
        result = assert_same_search(
            [identity("x = xx")], (t("a"), t("b")),
            SearchBounds(max_chain=6, max_word_len=3, max_summands=3),
        )
        assert result.reason.startswith("exhausted: no unexplored terms within bounds (")
        assert f"({result.pruned} rewrites pruned by bound overflow)" in result.reason
        assert result.pruned > 0


class TestSearchCounters:
    def test_found_counts(self):
        result = search_derivation([identity("xy = yx")], (t("xyz"), t("zyx")))
        assert result.found
        assert result.frontier_sizes == (1, 8)
        assert result.explored == 28
        assert result.pruned == 0

    def test_trivial_and_oversized_claims_expand_nothing(self):
        same = search_derivation([], (t("x + y"), t("y + x")))
        assert (same.explored, same.pruned, same.frontier_sizes) == (1, 0, ())
        big = t("abcdefgh")
        over = search_derivation([identity("xy = yx")], (big, big + t("x")),
                                 SearchBounds(max_word_len=3))
        assert (over.explored, over.pruned, over.frontier_sizes) == (0, 0, ())

    def test_exhausted_search_expands_every_term_it_reaches(self):
        result = search_derivation([identity("x = xx")], (t("a"), t("b")),
                                   SearchBounds(max_chain=6, max_word_len=3,
                                                max_summands=3))
        assert result.reason.startswith("exhausted: no unexplored terms")
        assert result.frontier_sizes == (1, 2, 4)
        assert result.explored == sum(result.frontier_sizes)
        assert result.pruned == 56
