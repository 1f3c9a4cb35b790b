import itertools
import random

import numpy as np
import pytest

from aisemiring import _kernels, enumeration
from aisemiring.algebra import REGISTRY_NAMES, FiniteAiSemiring, registry
from aisemiring.enumeration import enumerate_ai_semirings, enumerate_semilattices
from aisemiring.terms import Term, Word, content
from aisemiring.verify import random_inequality


def compiled(words, variables):
    """The words as tuples of their letters' positions in variables, the
    digits reference's input."""
    position = {x: i for i, x in enumerate(variables)}
    return tuple(tuple(position[x] for x in w.letters) for w in words)


def digits_first_violation(add, mul, term_a, term_b, nvars, mode, start, stop):
    """Reference scan: the kernel as it was before the broadcast scan. Each
    chunk of 32,768 assignment indices is decoded into a matrix of base-k
    digits, first variable most significant, and every letter of every word
    is gathered over all rows. Returns the first failing index with the
    values of both terms there, or None."""
    k = add.shape[0]
    strides = k ** np.arange(nvars - 1, -1, -1, dtype=np.int64)

    def evaluate(term, digits):
        acc = None
        for word in term:
            val = digits[:, word[0]]
            for v in word[1:]:
                val = mul[val, digits[:, v]]
            acc = val if acc is None else add[acc, val]
        return acc

    chunk = 1 << 15
    for lo in range(start, stop, chunk):
        hi = min(lo + chunk, stop)
        idx = np.arange(lo, hi, dtype=np.int64)
        digits = (idx[:, None] // strides[None, :]) % k
        va = evaluate(term_a, digits)
        vb = evaluate(term_b, digits)
        ok = (va == vb) if mode == 1 else (add[va, vb] == vb)
        if not ok.all():
            row = int(np.argmin(ok))
            return lo + row, int(va[row]), int(vb[row])
    return None


def scan_both(S, term_a, term_b, variables, mode):
    """The kernel's answer, its digits as a flat index, first digit most
    significant, and the digits reference's, on the same words with the
    variables in the same order."""
    k, nvars = S.order, len(variables)
    found = _kernels.first_violation(S.add, S.mul, term_a, term_b, variables, mode)
    if found is not None:
        digits, va, vb = found
        found = int(np.ravel_multi_index(digits, (k,) * nvars)), va, vb
    want = digits_first_violation(S.add, S.mul, compiled(term_a, variables),
                                  compiled(term_b, variables), nvars, mode, 0, k ** nvars)
    return found, want


#: an order-2 ai-semiring for the scan tests (the registry has none): the
#: product is 0 on (0, 0) and 1 everywhere else; a literal, so that a broken
#: census fails the test that checks it is a member, not the module's import
ORDER2 = FiniteAiSemiring("A2_005", "12", [[0, 0], [0, 1]], [[0, 1], [1, 1]])


def _random_check(rng, nvars):
    """A random inequality (q, u) over nvars variables, every variable in u,
    and a random identity (u, v) over the same variables."""
    names = [f"v{i}" for i in range(nvars)]
    order = names[:]
    rng.shuffle(order)
    words = []
    while order:
        size = rng.randint(1, 3)
        words.append(Word(tuple(order[:size])))
        order = order[size:]
    words += [
        Word(tuple(rng.choice(names) for _ in range(rng.randint(1, 3))))
        for _ in range(rng.randint(0, 3))
    ]
    rng.shuffle(words)
    u = Term(words)
    q = Word(tuple(rng.choice(names) for _ in range(rng.randint(1, 3))))
    # u = u + q is the identity form of q <= u; a word of u always lies below
    v = Term(list(u.words) + [q if rng.random() < 0.5 else rng.choice(u.words)])
    return q, u, v


def loop_least_relabelling(table):
    """Reference least relabelling: the kernel as it was before the single
    gather, one relabelled table per permutation and a Python min."""
    arr = np.ascontiguousarray(table, dtype=np.int64)
    k = arr.shape[0]
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.int64)
    invs = np.argsort(perms, axis=1)
    forms = [perm[arr[inv[:, None], inv[None, :]]].astype(np.uint8).tobytes()
             for perm, inv in zip(perms, invs)]
    least = min(forms)
    reach = [form == least for form in forms]
    return least, perms[reach], invs[reach]


def cells_read_by(perm):
    """The row-major cells of a (k, k) table that its relabelling by perm
    reads: the cell numbers, laid out as a table, relabelled by position."""
    inv = np.argsort(perm)
    k = len(perm)
    return np.arange(k * k).reshape(k, k)[np.ix_(inv, inv)].ravel()


def loop_canonical_pairs(add, muls):
    """Reference canonical forms: the kernel as it was before the uint8
    gathers, relabelling int64 tables by fancy indexing, then casting."""
    add = np.ascontiguousarray(add, dtype=np.int64)
    k = add.shape[0]
    muls = np.ascontiguousarray(muls, dtype=np.int64).reshape(-1, k, k)
    if len(muls) == 0:
        return []

    def relabelled(perm, inv):
        out = perm[muls[:, inv[:, None], inv[None, :]]]
        return out.astype(np.uint8).reshape(len(muls), -1)

    least_add, perms, invs = loop_least_relabelling(add)
    best = relabelled(perms[0], invs[0])
    rows = np.arange(len(muls))
    for perm, inv in zip(perms[1:], invs[1:]):
        cand = relabelled(perm, inv)
        col = np.argmax(cand != best, axis=1)
        less = cand[rows, col] < best[rows, col]
        best[less] = cand[less]
    return [least_add + row.tobytes() for row in best]


def random_tables(rng, k, count):
    """Seeded (k, k) tables: uniform, or with few distinct values, so that
    ties between relabellings are common."""
    for n in range(count):
        high = k if n % 2 else rng.integers(1, k + 1)
        yield rng.integers(0, high, (k, k))


class TestScan:
    def test_order2_is_a_census_member(self):
        (member,) = [S for S in enumerate_ai_semirings(2) if S == ORDER2]
        assert member.name == ORDER2.name

    @pytest.mark.parametrize("name,nvars", [
        ("order2", 17), ("S7", 11), ("S53", 11), ("S4_124", 9),
        ("S4_359", 9), ("R6", 7),
    ])
    def test_matches_digits_reference(self, name, nvars):
        # k^nvars spans several slabs
        S = ORDER2 if name == "order2" else registry(name)
        k = S.order
        cells = k ** max(r for r in range(nvars + 1) if k ** r <= _kernels.SLAB_CELLS)
        assert k ** nvars >= 4 * cells
        rng = random.Random(nvars * 1000 + k)
        past_slab0 = 0
        for _ in range(4):
            q, u, v = _random_check(rng, nvars)
            variables = sorted(content(u))
            for mode, (ta, tb) in ((0, ((q,), u.words)), (1, (u.words, v.words))):
                got, want = scan_both(S, ta, tb, variables, mode)
                assert got == want, (str(q), str(u), str(v), mode)
                past_slab0 += got is None or got[0] >= cells
        # some check must scan beyond the first slab, or the slab loop is
        # never exercised
        assert past_slab0

    @pytest.mark.parametrize("name", ["S2", "S7", "S53", "S4_124", "S4_359", "R6"])
    def test_small_checks_match_digits_reference(self, name):
        # the oracle's shape: few variables, one slab
        S = registry(name)
        rng = random.Random(17)
        outcomes = set()
        for _ in range(60):
            q, u = random_inequality(rng)
            variables = sorted(content(u) | content(q))
            for mode in (0, 1):
                got, want = scan_both(S, (q,), u.words, variables, mode)
                assert got == want
                outcomes.add(got is not None)
        assert outcomes == {False, True}

    @pytest.mark.parametrize("name", REGISTRY_NAMES)
    def test_digits_follow_the_given_variable_order(self, name):
        # the first variable named is the most significant digit, whatever
        # its name: reversed, the least counterexample is another cell
        S = registry(name)
        rng = random.Random(23)
        outcomes = set()
        moved = 0
        for _ in range(60):
            q, u = random_inequality(rng)
            variables = sorted(content(u) | content(q))
            for mode in (0, 1):
                got, want = scan_both(S, (q,), u.words, variables[::-1], mode)
                assert got == want, (str(q), str(u), mode)
                outcomes.add(got is not None)
                moved += got != scan_both(S, (q,), u.words, variables, mode)[0]
        assert outcomes == {False, True}
        assert moved


class TestCanonicalForms:
    def test_pack_unpack_round_trip(self):
        S = registry("S4_359")
        form = _kernels.canonical_pair(S.add, S.mul)
        add, mul = np.frombuffer(form, dtype=np.uint8).reshape(2, 4, 4)
        assert _kernels.canonical_pair(add, mul) == form

    def test_canonical_table_is_a_fixed_point(self):
        for add in enumerate_semilattices(4):
            form = _kernels.canonical_table(add)
            assert _kernels.canonical_table(_kernels.unpack_table(form, 4)) == form

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_least_relabelling_gives_the_automorphisms(self, k):
        # brute force over all k! permutations: p is an automorphism of L
        # when p(L[a, b]) = L[p(a), p(b)] for every a, b
        rng = random.Random(k)
        perms = list(itertools.permutations(range(k)))
        for L in enumerate_semilattices(k):
            auts = [p for p in perms
                    if all(p[L[a, b]] == L[p[a], p[b]] for a in range(k) for b in range(k))]
            form, found, _ = _kernels._least_relabelling(L)
            assert form == L.astype(np.uint8).tobytes()
            assert [tuple(map(int, p)) for p in found] == auts
            # on a relabelled copy sigma(L) the permutations reaching L are
            # exactly the p with p o sigma in Aut(L)
            sigma = rng.sample(range(k), k)
            copy = np.empty_like(L)
            for a in range(k):
                for b in range(k):
                    copy[sigma[a], sigma[b]] = sigma[L[a, b]]
            form, found, cells = _kernels._least_relabelling(copy)
            assert form == L.astype(np.uint8).tobytes()
            assert sorted(tuple(int(p[s]) for s in sigma) for p in found) == auts
            assert all(np.array_equal(cell, cells_read_by(p)) for p, cell in zip(found, cells))
            assert len(cells) == len(found)

    def test_least_relabelling_matches_the_loop(self):
        rng = np.random.default_rng(17)
        tables = [t for k in range(1, 6) for t in random_tables(rng, k, 200)]
        tables += [L for k in range(1, 5) for L in enumerate_semilattices(k)]
        for table in tables:
            form, perms, cells = _kernels._least_relabelling(table)
            want, want_perms, _ = loop_least_relabelling(table)
            assert form == want
            assert perms.dtype == cells.dtype == np.int64
            assert np.array_equal(perms, want_perms)
            assert np.array_equal(cells, [cells_read_by(p) for p in want_perms])

    def test_canonical_pairs_matches_the_loop_on_every_census(self, monkeypatch):
        # every semilattice of order <= 5, so the three order-5 shapes of the
        # census workload among them, with its whole multiplication census
        monkeypatch.setattr(enumeration, "MAX_CENSUS_ORDER", 5)
        for k in range(1, 6):
            for add in enumerate_semilattices(k):
                muls = _kernels.census_mul_tables(add)
                assert _kernels.canonical_pairs(add, muls) == loop_canonical_pairs(add, muls)

    def test_canonical_pairs_matches_the_loop_on_random_tables(self):
        # any square tables have canonical forms, valid or not; some add
        # tables have many automorphisms, so several permutations compete
        rng = np.random.default_rng(29)
        for k in range(1, 6):
            for add in random_tables(rng, k, 30):
                muls = np.stack(list(random_tables(rng, k, int(rng.integers(1, 40)))))
                assert _kernels.canonical_pairs(add, muls) == loop_canonical_pairs(add, muls)
        for k in range(1, 6):
            add = np.maximum.outer(np.arange(k), np.arange(k))
            assert _kernels.canonical_pairs(add, np.zeros((0, k * k))) == []
            assert _kernels.canonical_pairs(add, np.zeros((0, k, k), np.uint8)) == []
