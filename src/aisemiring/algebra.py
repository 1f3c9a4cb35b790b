"""Finite additively idempotent semirings given by Cayley tables.

Elements are 0-based indices; labels are presentation-only. The natural
order is a <= b iff a + b = b, which makes addition the join of a
semilattice with a top element.

The axioms are checked in one place: ``_failure_masks`` takes (N, k, k)
stacks of tables and yields one numpy failure mask per axiom family over the
whole stack. ``valid_stack`` and ``FiniteAiSemiring.stack`` check a stack a
slab of tables at a time, each slab at most ``_kernels.SLAB_CELLS`` cells
per mask; ``tables_valid``, ``validate`` and the constructor check one pair
as a stack of one, and ``validate`` reads its witnesses from the same
masks.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import _kernels

MAX_VIOLATION_WITNESSES = 32


class TableFormatError(ValueError):
    """Malformed table: not square, wrong arity, entry not an integer, or
    entry out of range."""


class LineSyntaxError(ValueError):
    """Input file text does not match its format. ``line`` is the number of
    the line at fault, or None, and prefixes the message as ``line N: ``."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class AlgebraSyntaxError(LineSyntaxError):
    """Algebra file text does not match the expected format."""


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple[int, ...]

    def describe(self, labels: Sequence[str] | None = None) -> str:
        if labels is None:
            names = ", ".join(str(i) for i in self.witness)
        else:
            names = ", ".join(labels[i] for i in self.witness)
        return f"{self.axiom} fails at ({names})"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]
    truncated: bool = False

    def __bool__(self) -> bool:
        return self.ok


def _as_stacks(adds, muls) -> tuple[np.ndarray, np.ndarray]:
    """The addition and multiplication tables as (N, k, k) int64 stacks,
    checked for shape, integer entries and range; a range error names the
    first table, in stack order, with an entry out of range."""
    stacks = []
    for what, tables in (("addition", adds), ("multiplication", muls)):
        arr = np.asarray(tables)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or arr.shape[1] == 0:
            raise TableFormatError(f"{what} table must be square and nonempty")
        if arr.dtype.kind not in "iu":
            raise TableFormatError(f"{what} table entries must be integers, not {arr.dtype}")
        stacks.append(arr.astype(np.int64, copy=False))
    a, m = stacks
    if a.shape != m.shape:
        raise TableFormatError("addition and multiplication tables differ in order")
    k = a.shape[1]
    # C order is table, then addition before multiplication, then row, column
    bad = np.stack([(x < 0) | (x >= k) for x in (a, m)], axis=1)
    if bad.any():
        _, which, row, col = np.argwhere(bad)[0]
        raise TableFormatError(
            f"{('addition', 'multiplication')[which]} table entry at row {row}, "
            f"column {col} is out of range"
        )
    return a, m


#: the axiom families in report order; the last four range over triples
AXIOMS = (
    "additive idempotency",
    "additive commutativity",
    "additive associativity",
    "multiplicative associativity",
    "left distributivity",
    "right distributivity",
)


@functools.cache
def _grids(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index grids for order k, shared by every call and only read: the
    elements, the start i * k of each row i of a (k, k) table along the
    first of two axes, and the pairs i < j in row-major order."""
    r = np.arange(k)
    iu, ju = np.triu_indices(k, 1)
    return r, r[:, None] * k, iu, ju


def _failure_masks(a: np.ndarray, m: np.ndarray) -> Iterator[np.ndarray]:
    """The failure mask of each family in AXIOMS, in order, for (N, k, k)
    stacks of tables: over (table, i) for idempotency, over (table, pair
    i < j) for commutativity, and over (table, i, j, l) for the other four."""
    n, k = a.shape[:2]
    r, rows, iu, ju = _grids(k)
    yield a.diagonal(0, 1, 2) != r
    yield a[:, iu, ju] != a[:, ju, iu]
    # x[t, u, v] is x.ravel()[off[t] + u * k + v], so a value v of table t
    # names the row that starts at off[t] + v * k
    af, mf = a.ravel(), m.ravel()
    off = np.arange(0, n * k * k, k * k).reshape(n, 1, 1)
    arow, mrow = off + a * k, off + m * k
    irow = (off + rows)[..., None]
    # over (t, i, j, l): cells (a[i, j], l) and (i, a[j, l]) of either table
    aij_l = arow[..., None] + r
    i_ajl = irow + a[:, None]
    yield af[aij_l] != af[i_ajl]
    yield mf[mrow[..., None] + r] != mf[irow + m[:, None]]
    yield mf[i_ajl] != af[mrow[..., None] + m[:, :, None]]
    yield mf[aij_l] != af[mrow[:, :, None] + m[:, None]]


def _witnesses(a: np.ndarray, m: np.ndarray) -> Iterator[Violation]:
    """Every violation of the (k, k) tables in report order: idempotency by
    i, commutativity by (i, j), then the triple families by (i, j, l) and
    family order."""
    idem, comm, *triples = (mask[0] for mask in _failure_masks(a[None], m[None]))
    _, _, iu, ju = _grids(a.shape[0])
    for i in np.flatnonzero(idem):
        yield Violation(AXIOMS[0], (int(i),))
    for p in np.flatnonzero(comm):
        yield Violation(AXIOMS[1], (int(iu[p]), int(ju[p])))
    for *witness, f in np.argwhere(np.stack(triples, axis=-1)).tolist():
        yield Violation(AXIOMS[2 + f], tuple(witness))


def validate(add, mul) -> ValidationReport:
    """Check the axiom families, reporting every violation found.

    Malformed tables raise TableFormatError; axiom failures come back in
    the report with witnessing elements, capped at MAX_VIOLATION_WITNESSES.
    """
    a, m = _as_stacks([add], [mul])
    found = list(itertools.islice(_witnesses(a[0], m[0]), MAX_VIOLATION_WITNESSES + 1))
    truncated = len(found) > MAX_VIOLATION_WITNESSES
    return ValidationReport(not found, tuple(found[:MAX_VIOLATION_WITNESSES]), truncated)


def valid_stack(adds: np.ndarray, muls: np.ndarray) -> np.ndarray:
    """Per table pair of two (N, k, k) stacks, whether it satisfies every
    axiom family. The stack is checked a slab of tables at a time, so that
    a mask over triples holds at most ``_kernels.SLAB_CELLS`` cells (or one
    table's)."""
    ok = np.ones(len(adds), dtype=bool)
    size = max(1, _kernels.SLAB_CELLS // adds.shape[1] ** 3)
    for i in range(0, len(adds), size):
        for mask in _failure_masks(adds[i:i + size], muls[i:i + size]):
            ok[i:i + size] &= ~mask.any(axis=tuple(range(1, mask.ndim)))
    return ok


def tables_valid(add: np.ndarray, mul: np.ndarray) -> bool:
    """All-or-nothing axiom check of one pair of (k, k) tables, no
    witnesses."""
    return bool(valid_stack(add[None], mul[None])[0])


def _checked(names, labels, adds, muls):
    """(labels, adds, muls) for algebras on one carrier, the tables as
    read-only (N, k, k) stacks, after checking shape, integer entries,
    range and labels, then every axiom family with ``valid_stack``. The
    first failing pair raises ValueError naming its algebra and up to four
    violations."""
    a, m = _as_stacks(adds, muls)
    k = a.shape[1]
    labels = tuple(str(x) for x in labels)
    if len(labels) != k:
        raise TableFormatError("table/label arity mismatch")
    if len(set(labels)) != k:
        raise TableFormatError("labels must be distinct")
    ok = valid_stack(a, m)
    if not ok.all():
        t = int(np.argmin(ok))
        report = validate(a[t], m[t])
        raise ValueError(
            f"{names[t]}: not an ai-semiring: "
            + "; ".join(v.describe(labels) for v in report.violations[:4])
        )
    a.setflags(write=False)
    m.setflags(write=False)
    return labels, a, m


class FiniteAiSemiring:
    """Immutable finite ai-semiring: labels plus two Cayley tables.

    Construction verifies all axioms, so any instance in circulation is a
    genuine ai-semiring; use :func:`validate` on raw tables for diagnostics.
    :meth:`stack` builds many algebras on one carrier with one check.
    """

    __slots__ = ("name", "order", "labels", "add", "mul")

    def __init__(self, name: str, labels: Sequence[str], add, mul):
        labels, a, m = _checked([name], labels, [add], [mul])
        self._take(name, labels, a[0], m[0])

    @classmethod
    def stack(cls, names: Sequence[str], labels: Sequence[str], tables) -> list[FiniteAiSemiring]:
        """One algebra per (add, mul) pair of an (N, 2, k, k) stack of
        tables, all on the same labels, checked together by ``valid_stack``,
        a slab at a time; the first failing pair raises as the constructor
        would, with its name."""
        tables = np.array(tables)
        if tables.ndim != 4 or tables.shape[1] != 2 or len(tables) != len(names):
            raise TableFormatError("need one name per (add, mul) pair of an (N, 2, k, k) stack")
        labels, adds, muls = _checked(names, labels, tables[:, 0], tables[:, 1])
        out = []
        for name, add, mul in zip(names, adds, muls):
            S = cls.__new__(cls)
            S._take(name, labels, add, mul)
            out.append(S)
        return out

    def _take(self, name, labels, add, mul) -> None:
        self.name = name
        self.order = len(labels)
        self.labels = labels
        self.add = add
        self.mul = mul

    def label(self, i: int) -> str:
        return self.labels[i]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"{self.name} has no element labelled {label!r}") from None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteAiSemiring)
            and self.labels == other.labels
            and np.array_equal(self.add, other.add)
            and np.array_equal(self.mul, other.mul)
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.add.tobytes(), self.mul.tobytes()))

    def __repr__(self) -> str:
        return f"FiniteAiSemiring({self.name!r}, order={self.order})"


@dataclass(frozen=True)
class AdditiveProfile:
    """Top element, minimal elements, coatoms, and the full order relation."""

    top: int
    minimals: frozenset[int]
    coatoms: frozenset[int]
    order_relation: frozenset[tuple[int, int]] = field(repr=False)

    def leq(self, a: int, b: int) -> bool:
        return (a, b) in self.order_relation


def profile_from_add(add: np.ndarray) -> AdditiveProfile:
    """Natural-order profile computed from an addition table alone."""
    k = add.shape[0]
    leq = add == np.arange(k)  # leq[a, b]: a <= b, i.e. a + b = b
    order = frozenset((int(a), int(b)) for a, b in np.argwhere(leq))
    if k == 1:
        # degenerate by convention: the unique element plays every role
        return AdditiveProfile(0, frozenset({0}), frozenset({0}), order)
    strict = leq & ~np.eye(k, dtype=bool)
    top = int(np.flatnonzero(leq.all(axis=0))[0])
    minimals = frozenset(int(b) for b in np.flatnonzero(~strict.any(axis=0)))
    # a coatom's only strict upper bound is the top
    coatoms = frozenset(int(x) for x in np.flatnonzero(strict.sum(axis=1) == 1))
    return AdditiveProfile(top, minimals, coatoms, order)


def natural_order(S: FiniteAiSemiring) -> AdditiveProfile:
    """Profile of the order a <= b iff a + b = b."""
    return profile_from_add(S.add)


def is_commutative_mult(S: FiniteAiSemiring) -> bool:
    return bool(np.array_equal(S.mul, S.mul.T))


# ---------------------------------------------------------------------------
# Reference algebras.  Tables are transcribed with rows/columns in label
# order; entry [i][j] is (element i) op (element j).

_REGISTRY_TABLES = {
    "S2": (
        ("1", "2", "3"),
        [[0, 0, 0], [0, 1, 0], [0, 0, 2]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
    ),
    "S7": (
        ("0", "a", "1"),
        [[0, 0, 0], [0, 1, 0], [0, 0, 2]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 2]],
    ),
    "S53": (
        ("1", "2", "3"),
        [[0, 0, 2], [0, 1, 2], [2, 2, 2]],
        [[2, 0, 2], [0, 1, 2], [2, 2, 2]],
    ),
    "S4_124": (
        ("1", "2", "3", "4"),
        [[0, 0, 0, 0], [0, 1, 1, 0], [0, 1, 2, 0], [0, 0, 0, 3]],
        [[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 2, 3], [0, 0, 3, 1]],
    ),
    "S4_359": (
        ("1", "2", "3", "4"),
        [[0, 1, 0, 0], [1, 1, 1, 1], [0, 1, 2, 0], [0, 1, 0, 3]],
        [[1, 1, 0, 1], [1, 1, 1, 1], [0, 1, 2, 3], [1, 1, 3, 1]],
    ),
    "R6": (
        ("1", "2", "3", "4", "5", "6"),
        [
            [0, 1, 0, 0, 1, 0],
            [1, 1, 1, 1, 1, 1],
            [0, 1, 2, 0, 1, 0],
            [0, 1, 0, 3, 1, 0],
            [1, 1, 1, 1, 4, 1],
            [0, 1, 0, 0, 1, 5],
        ],
        [
            [1, 1, 0, 1, 1, 1],
            [1, 1, 1, 1, 1, 1],
            [0, 1, 2, 3, 1, 0],
            [1, 1, 3, 1, 1, 1],
            [1, 1, 1, 1, 1, 1],
            [1, 1, 0, 1, 1, 4],
        ],
    ),
}

REGISTRY_NAMES = tuple(sorted(_REGISTRY_TABLES))


def registry(name: str) -> FiniteAiSemiring:
    """Return one of the built-in reference algebras by name."""
    try:
        labels, a, m = _REGISTRY_TABLES[name]
    except KeyError:
        known = ", ".join(REGISTRY_NAMES)
        raise KeyError(f"unknown algebra {name!r}; known names: {known}") from None
    return FiniteAiSemiring(name, labels, a, m)


# ---------------------------------------------------------------------------
# Line-oriented text format:
#   algebra <name>
#   elements <label> <label> ...
#   add          (then k rows of k labels)
#   mul          (then k rows of k labels)
# '#' starts a comment line, so no label may begin with '#'.


def serialize_algebra(S: FiniteAiSemiring) -> str:
    lines = [f"algebra {S.name}", "elements " + " ".join(S.labels)]
    for header, table in (("add", S.add), ("mul", S.mul)):
        lines.append(header)
        for row in table:
            lines.append(" ".join(S.labels[v] for v in row))
    return "\n".join(lines) + "\n"


def parse_algebra_raw(text: str) -> tuple[str, tuple[str, ...], list[list[int]], list[list[int]]]:
    """Parse the file format without the axiom check; returns
    (name, labels, add, mul). Raises AlgebraSyntaxError with a line number
    on malformed input."""
    # the content rows, last first, so that pop() reads them in file order
    rows = [(lineno, line.split())
            for lineno, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.strip()) and not line.startswith("#")][::-1]
    if not rows:
        raise AlgebraSyntaxError("empty algebra file")
    last = rows[0][0]  # where an error at the end of the file is reported

    def expect(keyword: str, arity: int | None) -> tuple[int, list[str]]:
        """The next row's line and its fields after ``keyword``, ``arity`` of them if set."""
        if not rows:
            raise AlgebraSyntaxError(f"unexpected end of file, expected {keyword!r}", last)
        lineno, (head, *rest) = rows.pop()
        if head != keyword:
            raise AlgebraSyntaxError(f"expected {keyword!r}, found {head!r}", lineno)
        if arity is not None and len(rest) != arity:
            raise AlgebraSyntaxError(f"{keyword!r} takes {arity} argument(s)", lineno)
        return lineno, rest

    _, (name,) = expect("algebra", 1)
    lineno, labels = expect("elements", None)
    if not labels:
        raise AlgebraSyntaxError("no element labels", lineno)
    if len(set(labels)) != len(labels):
        raise AlgebraSyntaxError("duplicate element labels", lineno)
    if hashed := [lab for lab in labels if lab.startswith("#")]:
        raise AlgebraSyntaxError(f"element label {hashed[0]!r} begins with '#'", lineno)
    k = len(labels)
    index = {lab: i for i, lab in enumerate(labels)}

    def read_table(keyword: str) -> list[list[int]]:
        expect(keyword, 0)
        table = []
        while len(table) < k:
            if not rows:
                raise AlgebraSyntaxError(
                    f"table/label arity mismatch: {keyword!r} table needs {k} rows, "
                    f"found {len(table)}", last)
            lineno, fields = rows.pop()
            if len(fields) != k:
                raise AlgebraSyntaxError(
                    f"table/label arity mismatch: row has {len(fields)} entries, "
                    f"expected {k}", lineno)
            if unknown := [lab for lab in fields if lab not in index]:
                raise AlgebraSyntaxError(f"unknown element label {unknown[0]!r}", lineno)
            table.append([index[lab] for lab in fields])
        return table

    add = read_table("add")
    mul = read_table("mul")
    if rows:
        lineno, fields = rows[-1]
        raise AlgebraSyntaxError(f"trailing content {' '.join(fields)!r}", lineno)
    return name, tuple(labels), add, mul


def parse_algebra(text: str) -> FiniteAiSemiring:
    """Parse the algebra file format; raises AlgebraSyntaxError with a line
    number on malformed input and ValueError if the axioms fail."""
    name, labels, add, mul = parse_algebra_raw(text)
    return FiniteAiSemiring(name, labels, add, mul)
