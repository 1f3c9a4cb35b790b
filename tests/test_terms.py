import pytest
from hypothesis import given, settings, strategies as st

from aisemiring.terms import (
    Substitution,
    Term,
    TermSyntaxError,
    Word,
    add,
    apply,
    commutative_normalize,
    content,
    delta,
    factors2,
    is_linear,
    is_subterm,
    length,
    level,
    level_geq,
    mul,
    occ,
    parse_term,
    parse_word,
    print_term,
    subwords2,
    wrap,
)

variables = st.sampled_from(["x", "y", "z", "x1", "y2"])
words = st.lists(variables, min_size=1, max_size=5).map(Word)
terms = st.lists(words, min_size=1, max_size=5).map(Term)
substitutions = st.dictionaries(variables, terms, max_size=3).map(Substitution)


def image_of(phi, x):
    """The image of the variable x under phi; variables outside the map are
    fixed."""
    return phi.mapping.get(x, Term([Word((x,))]))


def _expanded_size(phi, word):
    """Summands of phi(word) before duplicates collapse."""
    size = 1
    for x in word.letters:
        size *= len(image_of(phi, x).words)
    return size


# (phi, a, b) with every word of phi(mul(a, b)) expanding to at most 1,000
# summands: unbounded, two 5-letter words can expand to ~9.8M
small_expansions = st.tuples(substitutions, terms, terms).filter(
    lambda case: max(_expanded_size(case[0], w) for w in mul(case[1], case[2]).words) <= 1000
)


def reference_substitute(phi, item):
    """Substitution.__call__ as a recursion over Terms: a word's image is
    the product of its letters' images, a term's the sum of its summands'
    images."""
    if isinstance(item, Word):
        result = image_of(phi, item.letters[0])
        for x in item.letters[1:]:
            result = result * image_of(phi, x)
        return result
    out = reference_substitute(phi, item.words[0])
    for word in item.words[1:]:
        out = out + reference_substitute(phi, word)
    return out


def w(text):
    return parse_word(text)


def t(text):
    return parse_term(text)


class TestParsing:
    def test_duplicate_summands_collapse(self):
        assert t("x1x2 + x2x1 + x1x2") == Term([w("x1x2"), w("x2x1")])

    def test_star_and_juxtaposition(self):
        assert t("y1*y2 + y1") == Term([w("y1y2"), w("y1")])
        assert t("x y z") == t("xyz")
        assert w("*x*y*") == w("xy")

    def test_single_letter_variables_tokenize(self):
        assert w("xyz").letters == ("x", "y", "z")
        assert w("x1x2x1").letters == ("x1", "x2", "x1")
        assert w("x10").letters == ("x10",)

    @pytest.mark.parametrize("bad", ["", "  ", "x + + y", "x + ", "1x", "x_%"])
    def test_rejects_bad_input(self, bad):
        with pytest.raises(TermSyntaxError):
            parse_term(bad)

    @given(terms)
    def test_print_parse_round_trip(self, term):
        assert parse_term(print_term(term)) == term


class TestBoundary:
    """Names are checked where outside input enters: the public
    constructors and the parsers."""

    def test_word_rejects_bad_name(self):
        with pytest.raises(TermSyntaxError):
            Word(("1x",))

    def test_substitution_rejects_bad_name(self):
        with pytest.raises(TermSyntaxError):
            Substitution({"x_": t("y")})

    def test_wrap_rejects_bad_context(self):
        with pytest.raises(TermSyntaxError):
            wrap(t("x"), ("1x",))
        with pytest.raises(TermSyntaxError):
            wrap(t("x"), (), ("x_",))

    def test_empty_word_and_term(self):
        with pytest.raises(ValueError):
            Word(())
        with pytest.raises(ValueError):
            Term([])

    def test_term_keeps_the_callers_words(self):
        a, b = w("yx"), w("z")
        assert all(x is y for x, y in zip(Term([a, b]).words, (b, a)))


def summand_keys(term):
    return tuple(word.sort_key() for word in term.words)


class TestOrdering:
    @given(terms, terms)
    def test_order_equality_and_hash_follow_summand_keys(self, a, b):
        assert (a < b) == (summand_keys(a) < summand_keys(b))
        assert (a == b) == (summand_keys(a) == summand_keys(b))
        if a == b:
            assert hash(a) == hash(b)
        assert a.sort_key() == summand_keys(a)

    @given(st.lists(terms, max_size=8))
    def test_sorted_matches_summand_keys(self, ts):
        assert sorted(ts) == sorted(ts, key=summand_keys)
        assert [summand_keys(x) for x in sorted(ts)] == sorted(map(summand_keys, ts))


class TestOperations:
    def test_add_is_idempotent_union(self):
        assert add(t("x"), t("x")) == t("x")
        assert add(t("x + y"), t("y + z")) == t("x + y + z")

    def test_mul_unfolds_concatenations(self):
        assert mul(t("x + y"), t("z")) == t("xz + yz")
        assert mul(t("x + y"), t("u + v")) == t("xu + xv + yu + yv")

    @given(terms, terms, terms)
    @settings(deadline=None)
    def test_free_algebra_laws(self, a, b, c):
        assert add(a, b) == add(b, a)
        assert add(a, a) == a
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))


class TestAttributes:
    def test_content_length_occ(self):
        word = w("x1x2x1")
        assert content(word) == {"x1", "x2"}
        assert length(word) == 3
        assert occ("x1", word) == 2
        assert occ("y", w("x")) == 0

    def test_factors2_is_contiguous(self):
        assert factors2(w("xyz")) == {w("xy"), w("yz")}
        assert factors2(w("x")) == frozenset()
        assert factors2(t("xyz + ab")) == {w("xy"), w("yz"), w("ab")}

    def test_subwords2_is_scattered(self):
        assert subwords2(w("xyz")) == {w("xy"), w("yz"), w("xz")}
        assert subwords2(w("xyx")) == {w("xy"), w("yx"), w("xx")}

    def test_levels(self):
        u = t("x + yz + abc")
        assert level(1, u) == {w("x")}
        assert level(2, u) == {w("yz")}
        assert level_geq(2, u) == {w("yz"), w("abc")}
        assert level_geq(2, t("x + y")) == frozenset()

    def test_level_index_starts_at_one(self):
        for f in (level, level_geq):
            with pytest.raises(ValueError, match="^level index must be >= 1$"):
                f(0, t("x"))

    def test_is_linear(self):
        assert is_linear(w("x1x2x3"))
        assert not is_linear(w("x1x1"))


class TestDelta:
    def test_single_word(self):
        assert delta(t("xy")) == {frozenset({"x"}), frozenset({"y"})}

    def test_shared_variable(self):
        assert delta(t("x + xy")) == {frozenset({"x"})}

    def test_repeated_occurrence_disqualifies(self):
        # x occurs twice in xx, so no set may pick it there
        assert delta(t("xx")) == frozenset()
        assert delta(t("xxy")) == {frozenset({"y"})}

    @given(terms)
    def test_members_hit_each_summand_once(self, u):
        for Z in delta(u):
            for summand in u.words:
                hits = Z & content(summand)
                assert len(hits) == 1
                assert occ(next(iter(hits)), summand) == 1

    def test_leaves_no_reference_cycles(self, no_reference_cycles):
        u = t("x1x2 + x2x3 + x3x1 + y1y2 + y2y1 + y1")
        with no_reference_cycles():
            for _ in range(10):
                delta(u)


class TestSubstitution:
    def test_homomorphic_extension(self):
        phi = Substitution({"x": t("y1")})
        assert apply(phi, t("x + xx")) == t("y1 + y1y1")

    def test_term_image_multiplies_out(self):
        phi = Substitution({"x": t("a + b")})
        assert apply(phi, t("xx")) == t("aa + ab + ba + bb")

    def test_identity_substitution_fixes_terms(self):
        phi = Substitution()
        assert apply(phi, t("xy + z")) == t("xy + z")

    @given(small_expansions)
    @settings(deadline=None)
    def test_substitution_is_a_homomorphism(self, case):
        phi, a, b = case
        assert phi(add(a, b)) == add(phi(a), phi(b))
        assert phi(mul(a, b)) == mul(phi(a), phi(b))

    @given(small_expansions)
    @settings(deadline=None)
    def test_matches_the_recursive_reference(self, case):
        phi, a, b = case
        for item in (a, b, mul(a, b), a.words[0]):
            got, want = phi(item), reference_substitute(phi, item)
            assert got.words == want.words
            assert got.sort_key() == want.sort_key()

    def test_collapses_duplicates_letter_by_letter(self):
        # 2^40 expansions, but only x^40 ... x^80 are distinct
        phi = Substitution({"x": t("x + xx")})
        image = phi(Word(("x",) * 40))
        assert image.words == tuple(Word(("x",) * n) for n in range(40, 81))

    @given(substitutions, terms)
    @settings(deadline=None)
    def test_content_of_image(self, phi, a):
        expected = frozenset(
            x for v in content(a) for x in content(image_of(phi, v))
        )
        assert content(phi(a)) == expected


class TestSubterm:
    def test_single_word_wrap(self):
        witness = is_subterm(t("x"), t("yxz + w"))
        assert witness is not None
        assert witness.left == ("y",)
        assert witness.right == ("z",)
        assert witness.rest == t("w")

    def test_reflexive(self):
        witness = is_subterm(t("x + y"), t("x + y"))
        assert witness is not None
        assert witness.left == () and witness.right == () and witness.rest is None

    def test_partial_embedding_fails(self):
        assert is_subterm(t("x + y"), t("axb + w")) is None

    def test_witness_comes_from_the_least_host_word(self):
        # the anchor x fits twelve host words of v; the least one in v's
        # sorted order, ax, must give the witness whatever the hash order
        v = t(" + ".join(f"{c}x" for c in "lkjihgfedcba"))
        witness = is_subterm(t("x"), v)
        assert witness.left == ("a",) and witness.right == ()
        assert witness.rest == t(" + ".join(f"{c}x" for c in "bcdefghijkl"))

    @given(terms, terms)
    def test_witness_reconstructs_the_container(self, u, v):
        witness = is_subterm(u, v)
        if witness is not None:
            assert wrap(u, witness.left, witness.right, witness.rest) == v


class TestWrap:
    contexts = st.lists(variables, max_size=3).map(tuple)

    @given(terms, contexts, contexts, terms)
    def test_rest_is_added(self, u, left, right, rest):
        assert wrap(u, left, right, rest) == wrap(u, left, right) + rest


class TestCommutativeNormalize:
    def test_sorts_letters(self):
        assert commutative_normalize(t("y2y1")) == t("y1y2")

    def test_collapses_merged_summands(self):
        assert commutative_normalize(t("xy + yx + z")) == t("xy + z")

    @given(terms)
    def test_idempotent(self, a):
        once = commutative_normalize(a)
        assert commutative_normalize(once) == once
