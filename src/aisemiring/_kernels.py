"""Hot numeric kernels: the assignment scan, the multiplication-table
census and canonical forms.

The workbench spends almost all of its runtime in two inner loops: scanning
every variable assignment of a finite algebra (satisfaction checks) and
searching multiplication tables (the census). The census is a level-wise
numpy search over whole rows of the table: each row is a join-endomorphism
of the additive semilattice, chosen by index from the precomputed set of
them, whose joins and compositions are tabled, so setting a row checks
right distributivity and associativity as row equations and forces the
rows they name, for a whole block of partial tables at once. Canonical
forms relabel a table under all k! carrier permutations in one gather and
take the least row, rows compared as byte strings, with the permutations
reaching it (for a canonical table, its automorphisms). ``canonical_pairs``
relabels a whole stack of uint8 multiplication tables under each of those
permutations with one column gather and one renaming.

The scan is a broadcast over a k x ... x k grid with one axis per variable.
Each word is evaluated once, over the axes of its own variables only, as a
small array of k^|vars(word)| cells gathered from the ``mul`` table; numpy
broadcasting then folds the words of a term together through the ``add``
table. The grid is cut into slabs: the leading variables are fixed to a
prefix of digits as Python ints, prefixes taken in lexicographic order, and
the broadcast runs over the trailing axes, at most SLAB_CELLS cells, so
memory stays bounded whatever the number of variables. Cells are searched
in C order, so the first failing cell is the lexicographically least
counterexample; the scan returns it with the values of both sides there,
read off the arrays the slab already evaluated.

Table/assignment conventions:
  * an assignment is a tuple of digits in range(k), one per variable in the
    order the caller names them, the first variable's digit first; the scan
    visits them in ascending lexicographic order;
  * a term is a sequence of words (anything with ``letters``, a tuple of
    variable names), each multiplied left to right; the words are summed
    left to right;
  * mode 0 checks the inequality "a lies below b" (add[va, vb] == vb),
    mode 1 checks the identity va == vb.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

# provenance for the benchmark record; perfbench/run.py is their only reader
HAVE_NUMBA = False


def active_backend() -> str:
    return "numpy"


# ---------------------------------------------------------------------------
# assignment scans

#: most cells one slab of the scan broadcasts over, and one census mask holds
SLAB_CELLS = 1 << 15


@functools.cache
def _axes(k: int, r: int) -> tuple[np.ndarray, ...]:
    """Index grids of r axes of length k: grid j is arange(k) along axis j
    and has length 1 along every other axis. Shared, so read-only."""
    grids = []
    for j in range(r):
        shape = [1] * r
        shape[j] = k
        grid = np.arange(k, dtype=np.intp).reshape(shape)
        grid.flags.writeable = False
        grids.append(grid)
    return tuple(grids)


def _eval_term(add, mul, term, operands):
    acc = None
    for word in term:
        letters = word.letters
        val = operands[letters[0]]
        for x in letters[1:]:
            val = mul[val, operands[x]]
        acc = val if acc is None else add[acc, val]
    return acc


def first_violation(add, mul, term_a, term_b, variables, mode):
    """The least assignment of the variables, in the order given, violating
    the check, as (digits, value_a, value_b), or None when every assignment
    passes. Every variable must occur in term_a or term_b, so that a slab's
    check has the slab's shape."""
    k = add.shape[0]
    r = len(variables)
    while k ** r > SLAB_CELLS:
        r -= 1
    axes = _axes(k, r)
    for prefix in itertools.product(range(k), repeat=len(variables) - r):
        operands = dict(zip(variables, (*prefix, *axes)))
        va = _eval_term(add, mul, term_a, operands)
        vb = _eval_term(add, mul, term_b, operands)
        ok = (va == vb) if mode == 1 else (add[va, vb] == vb)
        if not ok.all():
            cell = np.unravel_index(np.argmin(ok), ok.shape)
            cell = tuple(map(int, cell))
            return prefix + cell, _value_at(va, cell), _value_at(vb, cell)
    return None


def _value_at(values, cell):
    """The value at a cell of the slab of one side's values, which has
    length 1 along the axes of variables the side does not use, or is a
    scalar when it uses none of the slab's variables."""
    index = tuple(c if n > 1 else 0 for c, n in zip(cell, np.shape(values)))
    return int(np.asarray(values)[index])


# ---------------------------------------------------------------------------
# multiplication-table census

def join_endomorphisms(add) -> np.ndarray:
    """E(L): every map f of the carrier of L = (S, +) with
    f(x + y) = f(x) + f(y), one per row, in ascending lexicographic order."""
    k = len(add)
    maps = np.indices((k,) * k, dtype=np.int8).reshape(k, -1).T
    keep = np.ones(len(maps), dtype=bool)
    for x in range(k):
        for y in range(x + 1, k):
            keep &= maps[:, add[x, y]] == add[maps[:, x], maps[:, y]]
    return maps[keep].astype(np.int64)


def census_mul_tables(add) -> np.ndarray:
    """All multiplication tables completing ``add`` to an ai-semiring.

    Returns an (n, k*k) int64 array of row-major tables in ascending order.

    Left distributivity a(b + c) = ab + ac says that row a of ``mul``,
    L_a: x -> ax, is a join-endomorphism of L = (S, +), so the search
    chooses whole rows from E(L). The other axioms are equations between
    rows: right distributivity is L_(a+b) = L_a + L_b (pointwise join) and
    associativity is L_(ab) = L_a L_b (composition). E(L) is closed under
    both, which are tabled over indices into E(L).

    The search is level-wise: a state is a partial table, and a block of
    states is extended by one row at a time, in the order k-1, ..., 0, with
    numpy operations over the whole block. A state whose next row a is
    forced takes the forced value; a free one tries the members of E(L)
    that pass, in one mask, the instances a + c and ca with a set row c
    whose target is known or row a itself. Then every instance pairing row a
    with a set row b (a + b, ab, ba, in that order) is checked: a target row
    that is set or forced must agree, an unknown one is forced to the value,
    and a state that disagrees is dropped. Every instance is checked once
    its operands and target are all set, so each table is valid.

    Blocks are taken depth-first from a stack, so the live states stay
    bounded: a mask holds at most SLAB_CELLS cells (or one state's, when
    E(L) is larger), and a block fewer than twice as many states.
    """
    add = np.asarray(add, dtype=np.int64)
    k = len(add)
    ends = join_endomorphisms(add)
    n = len(ends)
    # join[e][f] and comp[e][f] are the indices of e + f and of e after f; a
    # map is found by its base-k digits, a slab of rows of each table at a
    # time, so a (rows, n, k) temporary holds at most SLAB_CELLS cells (or
    # one row's). Row n of both is -1, the row a mask reads for a target not
    # yet known.
    digits = k ** np.arange(k - 1, -1, -1)
    index = np.zeros(k ** k, dtype=np.int64)
    index[ends @ digits] = np.arange(n)
    tabs = np.full((2, n + 1, n), -1, dtype=np.int32)
    join, comp = tabs[0, :n], tabs[1, :n]
    step = max(1, SLAB_CELLS // (n * k))
    for lo in range(0, n, step):
        part = ends[lo:lo + step]
        join[lo:lo + step] = index[add[part[:, None], ends] @ digits]
        comp[lo:lo + step] = index[part[:, ends] @ digits]
    join_flat, comp_flat = join.ravel(), comp.ravel()
    images = ends.T.astype(np.int32)  # images[x][e] is e(x)
    everything = np.arange(n, dtype=np.int32)
    order = range(k - 1, -1, -1)
    per_mask = max(1, SLAB_CELLS // n)
    # entry a of a state is its row a when set, else the value row a is
    # forced to, else -1; the first `depth` rows of `order` are set
    stack = [(0, np.full((1, k), -1, dtype=np.int32))]
    found = []
    while stack:
        depth, rows = stack.pop()
        if depth == k:
            found.append(rows)
            continue
        a = order[depth]
        # forced states take their value; free ones are extended per_mask at
        # a time until SLAB_CELLS states are made, and the rest go back on
        # the stack under them
        free = rows[:, a] < 0
        block, rows = [rows[~free]], rows[free]
        size = len(block[0])
        while len(rows) and size < SLAB_CELLS:
            part, rows = rows[:per_mask], rows[per_mask:]
            at = np.arange(len(part))
            mask = np.ones((len(part), n), dtype=bool)
            for c in order[:depth]:
                f = part[:, c]
                for t, tab in ((add[a, c], tabs[0]), (images[a][f], tabs[1])):
                    # a target that is row a itself asks for a fixed point
                    own = t == a
                    have = part[at, t]
                    want = have[:, None]
                    if own.any():
                        want = np.where(own[..., None], everything, want)
                    mask &= tab[np.where(own | (have >= 0), f, n)] == want
            s, e = np.nonzero(mask)
            part = part[s]
            part[:, a] = e
            block.append(part)
            size += len(part)
        if len(rows):
            stack.append((depth, rows))
        rows = np.concatenate(block)
        for b in order[: depth + 1]:
            # row a + b is e + f, row ab is e after f and row ba is f after
            # e, each with a target row t; for b = a, a + a is row a itself
            # and ab = ba
            e, f = rows[:, a], rows[:, b]
            ef = e * n + f
            insts = ((images[b][e], comp_flat[ef]),) if b == a else (
                (add[a, b], join_flat[ef]), (images[b][e], comp_flat[ef]),
                (images[a][f], comp_flat[f * n + e]))
            cells = rows.ravel()
            at = np.arange(0, cells.size, k)
            ok = True
            for t, v in insts:
                have = cells[at + t]
                new = np.where(have < 0, v, have)
                ok &= new == v
                cells[at + t] = new
            if not ok.all():
                rows = rows[ok]
        stack.extend((depth + 1, rows[i:i + SLAB_CELLS]) for i in range(0, len(rows), SLAB_CELLS))
    # E(L) is in ascending order, so sorting by row indices sorts the tables
    rows = np.concatenate(found)
    return ends[rows[np.lexsort(rows.T[::-1])]].reshape(-1, k * k)


# ---------------------------------------------------------------------------
# canonical forms under carrier permutation

@functools.cache
def permutation_arrays(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k! permutations of range(k) in lexicographic order, one per row,
    and the cells each relabelling reads: row p of ``cells`` lists, in
    order, the row-major cells of a (k, k) table that its relabelling by
    permutation p reads, cell (x, y) reading cell (inv[x], inv[y]) for the
    inverse inv of p. Shared, so read-only."""
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.int64)
    invs = np.argsort(perms, axis=1)
    cells = (invs[:, :, None] * k + invs[:, None, :]).reshape(len(perms), k * k)
    perms.flags.writeable = cells.flags.writeable = False
    return perms, cells


def _least_relabelling(table) -> tuple[bytes, np.ndarray, np.ndarray]:
    """The least relabelling of a (k, k) table as row-major uint8 bytes, the
    permutations giving it, one per row (Aut(table) when it is canonical),
    and the cells each of them reads.

    Every relabelling comes from one gather: row p of ``forms`` reads the
    table at p's cells and renames each entry by p. The rows are compared
    as byte strings of k*k bytes, which numpy orders lexicographically."""
    arr = np.ascontiguousarray(table, dtype=np.int64)
    k = arr.shape[0]
    perms, cells = permutation_arrays(k)
    forms = np.take_along_axis(perms, arr.ravel()[cells], axis=1).astype(np.uint8)
    least = forms[np.argmin(forms.view(f"S{k * k}"))]
    reach = (forms == least).all(axis=1)
    return least.tobytes(), perms[reach], cells[reach]


def canonical_pairs(add, muls) -> list[bytes]:
    """Canonical form of (add, mul) for each mul: the lexicographically
    least relabelling of both tables, flattened add-then-mul.

    The add part is shared by every mul, so the least form comes from a
    permutation that gives the least relabelled add; only those are tried.
    The mul tables are cast to uint8 once; under each such permutation all
    of them are relabelled by one column gather and one renaming. A running
    minimum of the relabelled tables is kept, one row per table, comparing
    rows as byte strings.
    """
    add = np.ascontiguousarray(add, dtype=np.int64)
    k = add.shape[0]
    small = np.asarray(muls).reshape(-1, k * k).astype(np.uint8)
    least_add, perms, cells = _least_relabelling(add)
    perms, row = perms.astype(np.uint8), f"S{k * k}"
    best = np.take(perms[0], small[:, cells[0]])
    for perm, cell in zip(perms[1:], cells[1:]):
        cand = np.take(perm, small[:, cell])
        less = (cand.view(row) < best.view(row))[:, 0]
        best[less] = cand[less]
    data, size = best.tobytes(), k * k
    return [least_add + data[i:i + size] for i in range(0, len(data), size)]


def canonical_pair(add, mul) -> bytes:
    return canonical_pairs(add, np.asarray(mul)[None, :, :])[0]


def canonical_table(table) -> bytes:
    """Canonical form of a single table (used for additive reducts)."""
    return _least_relabelling(table)[0]


def unpack_table(form: bytes, k: int) -> np.ndarray:
    return np.frombuffer(form, dtype=np.uint8).astype(np.int64).reshape(k, k).copy()
