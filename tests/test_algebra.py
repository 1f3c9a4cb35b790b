import itertools

import numpy as np
import pytest

from aisemiring import _kernels
from aisemiring.algebra import (
    MAX_VIOLATION_WITNESSES,
    AlgebraSyntaxError,
    FiniteAiSemiring,
    TableFormatError,
    ValidationReport,
    Violation,
    is_commutative_mult,
    natural_order,
    parse_algebra,
    profile_from_add,
    parse_algebra_raw,
    registry,
    serialize_algebra,
    tables_valid,
    valid_stack,
    validate,
)
from aisemiring.enumeration import enumerate_ai_semirings, enumerate_semilattices

ALL_NAMES = ["S2", "S7", "S53", "S4_124", "S4_359", "R6"]


def loop_validate(add, mul) -> ValidationReport:
    """Reference axiom check: one element, pair or triple at a time, in
    report order, keeping the first MAX_VIOLATION_WITNESSES witnesses."""
    a, m = np.asarray(add), np.asarray(mul)
    k = a.shape[0]
    out: list[Violation] = []
    truncated = False

    def push(axiom: str, witness: tuple[int, ...]) -> bool:
        nonlocal truncated
        if len(out) >= MAX_VIOLATION_WITNESSES:
            truncated = True
            return False
        out.append(Violation(axiom, witness))
        return True

    for i in range(k):
        if a[i, i] != i and not push("additive idempotency", (i,)):
            break
    for i in range(k):
        for j in range(i + 1, k):
            if a[i, j] != a[j, i] and not push("additive commutativity", (i, j)):
                break
    for i in range(k):
        for j in range(k):
            for l in range(k):
                if a[a[i, j], l] != a[i, a[j, l]]:
                    push("additive associativity", (i, j, l))
                if m[m[i, j], l] != m[i, m[j, l]]:
                    push("multiplicative associativity", (i, j, l))
                if m[i, a[j, l]] != a[m[i, j], m[i, l]]:
                    push("left distributivity", (i, j, l))
                if m[a[i, j], l] != a[m[i, l], m[j, l]]:
                    push("right distributivity", (i, j, l))
    return ValidationReport(not out, tuple(out), truncated)


def random_table_pairs(seed: int, per_order: int):
    """Seeded (add, mul) pairs for k = 1..5: uniform random tables, and the
    chain semilattice with a valid multiplication (constant top, or the
    addition itself) with up to three cells overwritten."""
    rng = np.random.default_rng(seed)
    for k in range(1, 6):
        chain = np.maximum.outer(np.arange(k), np.arange(k))
        for n in range(per_order):
            if n % 3 == 0:
                yield rng.integers(0, k, (k, k)), rng.integers(0, k, (k, k))
                continue
            a = chain.copy()
            m = np.full((k, k), k - 1) if n % 3 == 1 else chain.copy()
            for _ in range(rng.integers(0, 4)):
                t = a if rng.random() < 0.5 else m
                t[rng.integers(k), rng.integers(k)] = rng.integers(k)
            yield a, m


def loop_tables_valid(adds, muls) -> list[bool]:
    """Reference stack check: one (k, k) pair at a time, with the axiom
    masks as they were before the stacked check."""
    out = []
    for a, m in zip(adds, muls):
        k = a.shape[0]
        r, i = np.arange(k), np.arange(k)[:, None, None]
        iu, ju = np.triu_indices(k, 1)
        aij, ajl = a[:, :, None], a[None]
        mij, mil, mjl = m[:, :, None], m[:, None, :], m[None]
        masks = (
            a.diagonal() != r, a[iu, ju] != a[ju, iu],
            a[aij, r] != a[i, ajl], m[mij, r] != m[i, mjl],
            m[i, ajl] != a[mij, mil], m[aij, r] != a[mil, mjl],
        )
        out.append(not any(mask.any() for mask in masks))
    return out


def random_stacks(seed: int, count: int):
    """Seeded (adds, muls) stacks for k = 1..5 of up to 40 pairs drawn from
    random_table_pairs, so valid and failing pairs sit at random places."""
    rng = np.random.default_rng(seed)
    pairs = {k: [] for k in range(1, 6)}
    for a, m in random_table_pairs(seed, per_order=60):
        pairs[a.shape[0]].append((a, m))
    for n in range(count):
        k = n % 5 + 1
        picks = rng.integers(0, len(pairs[k]), rng.integers(1, 41))
        yield (np.stack([pairs[k][p][0] for p in picks]),
               np.stack([pairs[k][p][1] for p in picks]))


class TestRegistry:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_validates(self, name):
        S = registry(name)
        assert validate(S.add, S.mul).ok

    def test_s7_table_entries(self, S7):
        a, one = S7.index("a"), S7.index("1")
        assert S7.label(S7.mul[a, one]) == "a"
        assert S7.label(S7.add[a, one]) == "0"

    def test_s4_124_table_entries(self, S4_124):
        S = S4_124
        assert S.label(S.mul[S.index("4"), S.index("4")]) == "2"
        assert S.label(S.add[S.index("2"), S.index("3")]) == "2"

    def test_s4_359_table_entries(self, S4_359):
        S = S4_359
        assert S.label(S.mul[S.index("1"), S.index("1")]) == "2"
        assert S.label(S.mul[S.index("3"), S.index("4")]) == "4"

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            registry("S99")


class TestValidate:
    def test_corrupted_idempotency_names_witness(self, S7):
        bad = S7.add.copy()
        a = S7.index("a")
        bad[a, a] = S7.index("1")
        report = validate(bad, S7.mul)
        assert not report.ok
        assert any(
            v.axiom == "additive idempotency" and v.witness == (a,)
            for v in report.violations
        )

    def test_one_element_tables_pass(self):
        assert validate([[0]], [[0]]).ok

    def test_malformed_is_not_an_axiom_failure(self):
        with pytest.raises(TableFormatError):
            validate([[0, 1], [1, 1], [0, 0]], [[0, 0], [0, 0]])
        with pytest.raises(TableFormatError):
            validate([[0, 2], [1, 1]], [[0, 0], [0, 0]])
        # entries that are not integers are not truncated or parsed
        one = [[0, 0], [0, 1]]
        for bad in ([[0, 0], [0, 1.5]], [[0, 0], [0, 1.0]], [["0", "0"], ["0", "1"]]):
            with pytest.raises(TableFormatError, match="addition table entries must be integers"):
                validate(bad, one)
            with pytest.raises(TableFormatError, match="multiplication table entries must be integers"):
                validate(one, bad)
        with pytest.raises(TableFormatError, match="entries must be integers"):
            FiniteAiSemiring("T", "ab", [[0, 0], [0, 1.9]], one)
        # the shape is checked first: empty input keeps its message
        for empty in ([], [[]]):
            with pytest.raises(TableFormatError, match="square and nonempty"):
                validate(empty, one)
        assert validate(one, one).ok
        assert validate(np.array(one, np.uint8), np.array(one, np.int32)).ok

    def test_constructor_checks_orders_and_labels(self):
        one = [[0, 0], [0, 1]]
        differ = "^addition and multiplication tables differ in order$"
        with pytest.raises(TableFormatError, match=differ):
            FiniteAiSemiring("T", "ab", one, [[0]])
        with pytest.raises(TableFormatError, match="^table/label arity mismatch$"):
            FiniteAiSemiring("T", "abc", one, one)

    def test_reports_multiple_violations(self):
        # constant-0 add table breaks idempotency at every non-zero element
        report = validate([[0, 0], [0, 0]], [[0, 0], [0, 0]])
        assert not report.ok
        assert len(report.violations) >= 1

    def test_matches_the_loop_reference(self):
        outcomes = {"ok": 0, "failed": 0, "truncated": 0}
        for a, m in random_table_pairs(seed=8, per_order=150):
            report = validate(a, m)
            assert report == loop_validate(a, m), (a.tolist(), m.tolist())
            assert tables_valid(a, m) == report.ok
            outcomes["truncated" if report.truncated
                     else "ok" if report.ok else "failed"] += 1
        assert all(outcomes.values()), outcomes

    def test_witness_order_and_cap(self):
        # idempotency, then commutativity over i < j, then the triple
        # families by (i, j, l) and family order, well past the cap
        a = np.array([[0, 0, 2], [1, 0, 2], [0, 0, 0]])
        m = np.array([[1, 2, 0], [0, 2, 1], [2, 2, 0]])
        report = validate(a, m)
        assert report.truncated
        assert len(report.violations) == MAX_VIOLATION_WITNESSES
        assert [(v.axiom, v.witness) for v in report.violations[:8]] == [
            ("additive idempotency", (1,)),
            ("additive idempotency", (2,)),
            ("additive commutativity", (0, 1)),
            ("additive commutativity", (0, 2)),
            ("additive commutativity", (1, 2)),
            ("multiplicative associativity", (0, 0, 0)),
            ("left distributivity", (0, 0, 0)),
            ("right distributivity", (0, 0, 0)),
        ]
        triples = [v.witness for v in report.violations[5:]]
        assert triples == sorted(triples)
        assert report == loop_validate(a, m)

    def test_constructor_rejects_invalid(self, S7):
        bad = S7.add.copy()
        bad[1, 1] = 2
        with pytest.raises(ValueError):
            FiniteAiSemiring("broken", S7.labels, bad, S7.mul)


def check_stacks_against_the_loop():
    outcomes = set()
    for adds, muls in random_stacks(seed=11, count=200):
        ok = valid_stack(adds, muls)
        assert ok.tolist() == loop_tables_valid(adds, muls)
        assert [tables_valid(a, m) for a, m in zip(adds, muls)] == ok.tolist()
        outcomes.update(ok.tolist())
    assert outcomes == {False, True}


def check_census_stack(k):
    algebras = enumerate_ai_semirings(k)
    adds = np.stack([S.add for S in algebras])
    muls = np.stack([S.mul for S in algebras])
    assert valid_stack(adds, muls).all()
    # swapping the tables breaks some pairs, and only those fail
    assert valid_stack(muls, adds).tolist() == loop_tables_valid(muls, adds)


class TestStack:
    def test_stack_check_matches_the_loop(self):
        check_stacks_against_the_loop()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_census_stacks_pass(self, k):
        check_census_stack(k)

    # one table per slab, or (at order 1) seven, so that slab boundaries
    # fall throughout each stack
    @pytest.mark.parametrize("cells", [1, 7])
    def test_stack_check_matches_the_loop_in_slabs(self, cells, monkeypatch):
        monkeypatch.setattr(_kernels, "SLAB_CELLS", cells)
        check_stacks_against_the_loop()

    @pytest.mark.parametrize("cells", [1, 7])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_census_stacks_pass_in_slabs(self, k, cells, monkeypatch):
        monkeypatch.setattr(_kernels, "SLAB_CELLS", cells)
        check_census_stack(k)

    def test_stack_builds_what_the_constructor_builds(self):
        algebras = enumerate_ai_semirings(3)
        tables = np.stack([np.stack((S.add, S.mul)) for S in algebras])
        names = [S.name for S in algebras]
        built = FiniteAiSemiring.stack(names, ("1", "2", "3"), tables.astype(np.uint8))
        assert built == [FiniteAiSemiring(S.name, S.labels, S.add, S.mul) for S in algebras]
        assert all(S.add.dtype == S.mul.dtype == np.int64 for S in built)
        with pytest.raises(ValueError):
            built[0].mul[0, 0] = 1

    def test_stack_names_the_first_failing_algebra(self):
        rng = np.random.default_rng(5)
        algebras = enumerate_ai_semirings(3)
        labels = algebras[0].labels
        base = np.stack([np.stack((S.add, S.mul)) for S in algebras])
        names = [f"T{t}" for t in range(len(base))]
        for _ in range(40):
            tables = base.copy()
            for t in rng.choice(len(tables), rng.integers(1, 4), replace=False):
                # a cell whose change breaks an axiom
                while True:
                    cell = (t, rng.integers(2), rng.integers(3), rng.integers(3))
                    old = tables[cell]
                    tables[cell] = (old + rng.integers(1, 3)) % 3
                    if not tables_valid(tables[t, 0], tables[t, 1]):
                        break
                    tables[cell] = old
            first = loop_tables_valid(tables[:, 0], tables[:, 1]).index(False)
            with pytest.raises(ValueError) as single:
                FiniteAiSemiring(names[first], labels, tables[first, 0], tables[first, 1])
            with pytest.raises(ValueError) as batch:
                FiniteAiSemiring.stack(names, labels, tables)
            assert str(batch.value) == str(single.value)
            assert str(batch.value).startswith(f"T{first}: not an ai-semiring: ")

    def test_stack_rejects_malformed_input(self):
        tables = np.zeros((3, 2, 2, 2), np.int64)
        tables[:, :, 1, 1] = 1
        assert len(FiniteAiSemiring.stack(["a", "b", "c"], "xy", tables)) == 3
        assert FiniteAiSemiring.stack([], "xy", tables[:0]) == []
        tables[2, 1, 0, 1] = 2
        tables[1, 0, 1, 0] = -1
        with pytest.raises(TableFormatError, match="addition table entry at row 1, column 0"):
            FiniteAiSemiring.stack(["a", "b", "c"], "xy", tables)
        tables[1, 0, 1, 0] = 0
        with pytest.raises(TableFormatError, match="multiplication table entry at row 0, column 1"):
            FiniteAiSemiring.stack(["a", "b", "c"], "xy", tables)
        with pytest.raises(TableFormatError):
            FiniteAiSemiring.stack(["a", "b"], "xy", tables)
        with pytest.raises(TableFormatError):
            FiniteAiSemiring.stack(["a", "b", "c"], "xy", tables[:, 0])
        with pytest.raises(TableFormatError, match="entries must be integers, not float64"):
            FiniteAiSemiring.stack(["a", "b", "c"], "xy", tables + 0.5)
        with pytest.raises(TableFormatError, match="entries must be integers, not float64"):
            FiniteAiSemiring.stack(["a", "b", "c"], "xy", tables.astype(float))
        tables[2, 1, 0, 1] = 0
        with pytest.raises(TableFormatError, match="labels must be distinct"):
            FiniteAiSemiring.stack(["a", "b", "c"], "xx", tables)


def loop_profile(add):
    """Reference profile: the order as a set of pairs, the top as a fold of
    joins, and the coatoms as the elements whose only strict upper bound
    is the top."""
    k = len(add)
    leq = {(a, b) for a in range(k) for b in range(k) if add[a, b] == b}
    if k == 1:
        return 0, {0}, {0}, leq
    top = 0
    for x in range(1, k):
        top = int(add[top, x])
    minimals = {b for b in range(k) if not any((a, b) in leq for a in range(k) if a != b)}
    coatoms = {x for x in range(k) if x != top
               and not any((x, z) in leq for z in range(k) if z not in (x, top))}
    return top, minimals, coatoms, leq


class TestNaturalOrder:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_profile_matches_the_loop(self, k):
        # every semilattice of order k under every relabelling
        for add in enumerate_semilattices(k):
            for perm in itertools.permutations(range(k)):
                perm = np.array(perm)
                inv = np.argsort(perm)
                table = perm[add[np.ix_(inv, inv)]]
                p = profile_from_add(table)
                assert (p.top, p.minimals, p.coatoms, p.order_relation) == loop_profile(table)
                fields = [p.top, *p.minimals, *p.coatoms, *itertools.chain(*p.order_relation)]
                assert all(type(v) is int for v in fields)
                assert all(type(f) is frozenset
                           for f in (p.minimals, p.coatoms, p.order_relation))

    def test_s4_124_profile(self, S4_124):
        p = natural_order(S4_124)
        lab = S4_124.label
        assert lab(p.top) == "1"
        assert {lab(i) for i in p.minimals} == {"3", "4"}
        assert {lab(i) for i in p.coatoms} == {"2", "4"}

    def test_s7_profile(self, S7):
        p = natural_order(S7)
        lab = S7.label
        assert lab(p.top) == "0"
        assert {lab(i) for i in p.minimals} == {"a", "1"}
        assert {lab(i) for i in p.coatoms} == {"a", "1"}

    def test_one_element_degenerate(self):
        one = FiniteAiSemiring("triv", ["e"], [[0]], [[0]])
        p = natural_order(one)
        assert p.top == 0 and p.minimals == {0} and p.coatoms == {0}

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_partial_order_with_join(self, name):
        S = registry(name)
        p = natural_order(S)
        k = S.order
        for a in range(k):
            assert p.leq(a, a)
            for b in range(k):
                if p.leq(a, b) and p.leq(b, a):
                    assert a == b
                join = int(S.add[a, b])
                assert p.leq(a, join) and p.leq(b, join)
                for c in range(k):
                    if p.leq(a, c) and p.leq(b, c):
                        assert p.leq(join, c)
                    if p.leq(a, b) and p.leq(b, c):
                        assert p.leq(a, c)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_top_is_any_order_fold(self, name):
        S = registry(name)
        p = natural_order(S)
        rng = np.random.default_rng(7)
        for _ in range(5):
            order = rng.permutation(S.order)
            acc = int(order[0])
            for x in order[1:]:
                acc = int(S.add[acc, x])
            assert acc == p.top


class TestCommutativity:
    def test_s4_124_commutative(self, S4_124):
        assert is_commutative_mult(S4_124)

    def test_one_element(self):
        assert is_commutative_mult(FiniteAiSemiring("triv", ["e"], [[0]], [[0]]))

    def test_full_scan_decides(self, R6):
        # independent elementwise scan of the R6 table
        expect = all(
            R6.mul[i, j] == R6.mul[j, i]
            for i in range(R6.order)
            for j in range(R6.order)
        )
        assert is_commutative_mult(R6) == expect
        assert expect  # the printed table is symmetric

    def test_noncommutative_example(self):
        # two-element ai-semiring with left-projection multiplication
        S = FiniteAiSemiring(
            "leftzero", ["0", "1"], [[0, 1], [1, 1]], [[0, 0], [1, 1]]
        )
        assert not is_commutative_mult(S)


class TestFileFormat:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_round_trip(self, name):
        S = registry(name)
        text = serialize_algebra(S)
        assert parse_algebra(text) == S
        assert serialize_algebra(parse_algebra(text)) == text

    def test_parse_s53_typed_by_hand(self, S53):
        text = """
        algebra S53
        elements 1 2 3
        add
        1 1 3
        1 2 3
        3 3 3
        mul
        3 1 3
        1 2 3
        3 3 3
        """
        assert parse_algebra(text) == S53

    def test_comments_ignored(self, S2):
        text = "# header\n" + serialize_algebra(S2) + "# trailer\n"
        assert parse_algebra(text) == S2

    def test_hash_inside_a_label(self):
        text = "algebra x#\nelements a# b\nadd\na# a#\na# b\nmul\na# a#\na# b\n"
        assert parse_algebra_raw(text) == ("x#", ("a#", "b"), [[0, 0], [0, 1]], [[0, 0], [0, 1]])

    def test_arity_mismatch(self):
        text = "algebra x\nelements 1 2 3\nadd\n1 1 1 1\n"
        with pytest.raises(AlgebraSyntaxError, match="arity mismatch"):
            parse_algebra_raw(text)

    def test_unknown_label(self):
        text = "algebra x\nelements 1 2\nadd\n1 1\n9 2\nmul\n1 1\n1 2\n"
        with pytest.raises(AlgebraSyntaxError, match="line 5"):
            parse_algebra_raw(text)

    def test_empty_file(self):
        with pytest.raises(AlgebraSyntaxError, match="empty") as exc:
            parse_algebra_raw("  \n# nothing\n")
        assert exc.value.line is None

    S2_TEXT = "algebra S2\nelements 1 2\nadd\n1 1\n1 2\nmul\n1 1\n1 2\n"

    @pytest.mark.parametrize("text,message", [
        ("algebra S2 extra\n", "line 1: 'algebra' takes 1 argument(s)"),
        ("algebra S2\nelements\n", "line 2: no element labels"),
        ("algebra S2\nelements 1 1\n", "line 2: duplicate element labels"),
        ("algebra S2\nelements 1 2\n", "line 2: unexpected end of file, expected 'add'"),
        ("algebra S2\nelements 1 2\nadd\n1 1\n\n",
         "line 4: table/label arity mismatch: 'add' table needs 2 rows, found 1"),
        (S2_TEXT + "1 2\n", "line 9: trailing content '1 2'"),
        ("elements 1 2\n", "line 1: expected 'algebra', found 'elements'"),
        ("algebra S2\nelements 1 2\nadd 1\n", "line 3: 'add' takes 0 argument(s)"),
        ("algebra S2\nelements 1 2\nadd\n1 1 1\n",
         "line 4: table/label arity mismatch: row has 3 entries, expected 2"),
        # the first unknown label of the row is named
        ("algebra S2\nelements 1 2\nadd\n1 1\n3 4\n", "line 5: unknown element label '3'"),
        ("algebra S2\nelements 1 2\nadd\n1 1\n1 2\n# no mul\n",
         "line 5: unexpected end of file, expected 'mul'"),
        # a row that began with the label would be read as a comment
        ("algebra S2\nelements #a b\nadd\n#a #a\n#a b\n",
         "line 2: element label '#a' begins with '#'"),
        ("algebra S2\nelements 1 1 #\n", "line 2: duplicate element labels"),
    ])
    def test_malformed_file(self, text, message):
        with pytest.raises(AlgebraSyntaxError) as exc:
            parse_algebra_raw(text)
        assert str(exc.value) == message
        assert message.startswith(f"line {exc.value.line}: ")
