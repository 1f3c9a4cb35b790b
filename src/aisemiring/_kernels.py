"""Hot numeric kernels: the assignment scan, the multiplication-table
census and canonical forms.

The workbench spends almost all of its runtime in two inner loops: scanning
every variable assignment of a finite algebra (satisfaction checks) and
backtracking over multiplication tables (the census). The census is a
pure-Python backtrack over whole rows of the table: each row is a
join-endomorphism of the additive semilattice, chosen by index from the
precomputed set of them, whose joins and compositions are tabled, so
setting a row checks right distributivity and associativity as row
equations and forces the rows they name. Canonical forms come from one
least-relabelling search over carrier permutations, which also returns the
permutations reaching the least table (for a canonical one, its automorphisms).

The scan is a broadcast over a k x ... x k grid with one axis per variable.
Each word is evaluated once, over the axes of its own variables only, as a
small array of k^|vars(word)| cells gathered from the ``mul`` table; numpy
broadcasting then folds the words of a term together through the ``add``
table. The grid is cut into slabs: the leading variables are fixed to the
digits of a slab number as Python ints, and the broadcast runs over the
trailing axes, at most SLAB_CELLS cells, so memory stays bounded whatever
the number of variables. In C order the flat index of a grid cell puts the
first variable in the most significant digit, which is the assignment index
below, so the first failing cell is the lexicographically least
counterexample.

Table/assignment conventions:
  * assignment index i enumerates variables in a fixed order, first
    variable in the most significant base-k digit, so ascending index is
    ascending lexicographic order of assignment tuples;
  * a compiled term is a tuple of words, each word a tuple of variable
    positions (ints), multiplied left to right; the words are summed left
    to right;
  * mode 0 checks the inequality "b lies below a" (add[va, vb] == va),
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

#: most cells one slab of the scan broadcasts over
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
        val = operands[word[0]]
        for v in word[1:]:
            val = mul[val, operands[v]]
        acc = val if acc is None else add[acc, val]
    return acc


def first_violation(add, mul, term_a, term_b, nvars, mode) -> int:
    """Index of the first assignment violating the check, or -1 when none
    does."""
    k = add.shape[0]
    r = nvars
    while k ** r > SLAB_CELLS:
        r -= 1
    lead = nvars - r
    cells = k ** r
    axes = _axes(k, r)
    for slab in range(k ** lead):
        digits = []
        prefix = slab
        for _ in range(lead):
            prefix, d = divmod(prefix, k)
            digits.append(d)
        operands = digits[::-1]
        operands.extend(axes)
        va = _eval_term(add, mul, term_a, operands)
        vb = _eval_term(add, mul, term_b, operands)
        ok = (va == vb) if mode == 1 else (add[va, vb] == va)
        if not ok.all():
            return slab * cells + int(np.argmin(np.broadcast_to(ok, (k,) * r)))
    return -1


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

    Rows are set in the order k-1, ..., 0. Setting row a checks every
    instance whose operands are a and a row already set: a target row that
    is set must agree, an unset one is forced to the value, and a second,
    different forced value prunes. A row that is not forced tries only the
    members of E(L) that pass, in one mask, the instances with a set row
    whose target is set, forced or the row itself. Every instance is checked
    once its operands and target are all set, so each table is valid.
    """
    add = np.asarray(add, dtype=np.int64)
    k = len(add)
    ends = join_endomorphisms(add)
    n = len(ends)
    # join[e][f] and comp[e][f] are the indices of e + f and of e after f; a
    # map is found by its base-k digits, one row of each table at a time
    digits = k ** np.arange(k - 1, -1, -1)
    index = np.zeros(k ** k, dtype=np.int64)
    index[ends @ digits] = np.arange(n)
    join = np.empty((n, n), dtype=np.int32)
    comp = np.empty((n, n), dtype=np.int32)
    for e, f in enumerate(ends):
        join[e] = index[add[f, ends] @ digits]
        comp[e] = index[f[ends] @ digits]
    everything = np.arange(n)
    # the n x n tables are read a row at a time through memoryviews, which
    # box only the values read, where lists would box all n * n
    add_l, ends_l = add.tolist(), ends.tolist()
    join_rows, comp_rows = list(map(memoryview, join)), list(map(memoryview, comp))

    order = range(k - 1, -1, -1)
    row = [-1] * k  # index into E(L) of each set row, -1 when unset
    forced = [-1] * k  # the value an unset row is forced to, -1 when free
    undo = [[] for _ in range(k)]  # the rows each depth forced
    cands = [list(range(n))] + [None] * (k - 1)
    pos = [0] * k
    results = []
    depth = 0
    while depth >= 0:
        a = order[depth]
        if row[a] >= 0:
            row[a] = -1
            for t in undo[depth]:
                forced[t] = -1
            undo[depth].clear()
        if pos[depth] == len(cands[depth]):
            depth -= 1
            continue
        e = cands[depth][pos[depth]]
        pos[depth] += 1
        row[a] = e
        # every instance pairs row a with a set row b: row a + b is e + f,
        # row ab is e after f and row ba is f after e; each names a target
        # row t that must take the value v
        add_a, end_e, join_e, comp_e = add_l[a], ends_l[e], join_rows[e], comp_rows[e]
        forcing = undo[depth]
        ok = True
        for b in order[: depth + 1]:
            f = row[b]
            t, v = add_a[b], join_e[f]
            have = row[t]
            if have < 0:
                have = forced[t]
            if have < 0:
                forced[t] = v
                forcing.append(t)
            elif have != v:
                ok = False
                break
            t, v = end_e[b], comp_e[f]
            have = row[t]
            if have < 0:
                have = forced[t]
            if have < 0:
                forced[t] = v
                forcing.append(t)
            elif have != v:
                ok = False
                break
            t, v = ends_l[f][a], comp_rows[f][e]
            have = row[t]
            if have < 0:
                have = forced[t]
            if have < 0:
                forced[t] = v
                forcing.append(t)
            elif have != v:
                ok = False
                break
        if not ok:
            continue
        if depth == k - 1:
            results.append(row.copy())
            continue
        depth += 1
        a = order[depth]
        pos[depth] = 0
        if forced[a] >= 0:
            cands[depth] = [forced[a]]
            continue
        mask = np.ones(n, dtype=bool)
        for c in order[:depth]:
            f = row[c]
            for t, values in ((add_l[a][c], join[f]), (ends_l[f][a], comp[f])):
                if t == a:
                    mask &= values == everything
                else:
                    have = row[t] if row[t] >= 0 else forced[t]
                    if have >= 0:
                        mask &= values == have
        cands[depth] = np.flatnonzero(mask).tolist()
    rows = np.array(results, dtype=np.int64).reshape(-1, k)
    tables = ends[rows].reshape(-1, k * k)
    return tables[np.lexsort(tables.T[::-1])]


# ---------------------------------------------------------------------------
# canonical forms under carrier permutation

def permutation_arrays(k: int) -> tuple[np.ndarray, np.ndarray]:
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.int64)
    invs = np.empty_like(perms)
    for p in range(perms.shape[0]):
        invs[p, perms[p]] = np.arange(k)
    return perms, invs


def _relabelled(tables, perm, inv) -> np.ndarray:
    """Each (k, k) table of ``tables`` with every element x renamed
    perm[x], flattened row-major to uint8."""
    out = perm[tables[..., inv[:, None], inv[None, :]]]
    return out.astype(np.uint8).reshape(*tables.shape[:-2], -1)


def _least_relabelling(table) -> tuple[bytes, np.ndarray, np.ndarray]:
    """The least relabelling of a (k, k) table as row-major uint8 bytes, the
    permutations giving it, one per row (Aut(table) when it is canonical),
    and their inverses."""
    arr = np.ascontiguousarray(table, dtype=np.int64)
    perms, invs = permutation_arrays(arr.shape[0])
    forms = [_relabelled(arr, perms[p], invs[p]).tobytes() for p in range(len(perms))]
    least = min(forms)
    reach = [form == least for form in forms]
    return least, perms[reach], invs[reach]


def canonical_pairs(add, muls) -> list[bytes]:
    """Canonical form of (add, mul) for each mul: the lexicographically
    least relabelling of both tables, flattened add-then-mul.

    The add part is shared by every mul, so the least form comes from a
    permutation that gives the least relabelled add; only those are tried.
    Over them, a running minimum of the relabelled mul tables is kept, one
    row per table, and each row is decided at its first differing column.
    """
    add = np.ascontiguousarray(add, dtype=np.int64)
    k = add.shape[0]
    muls = np.ascontiguousarray(muls, dtype=np.int64).reshape(-1, k, k)
    if len(muls) == 0:
        return []
    least_add, perms, invs = _least_relabelling(add)
    best = _relabelled(muls, perms[0], invs[0])
    rows = np.arange(len(muls))
    for perm, inv in zip(perms[1:], invs[1:]):
        cand = _relabelled(muls, perm, inv)
        col = np.argmax(cand != best, axis=1)
        less = cand[rows, col] < best[rows, col]
        best[less] = cand[less]
    return [least_add + row.tobytes() for row in best]


def canonical_pair(add, mul) -> bytes:
    return canonical_pairs(add, np.asarray(mul)[None, :, :])[0]


def unpack_pair(form: bytes, k: int) -> tuple[np.ndarray, np.ndarray]:
    flat = np.frombuffer(form, dtype=np.uint8).astype(np.int64)
    return flat[: k * k].reshape(k, k).copy(), flat[k * k:].reshape(k, k).copy()


def canonical_table(table) -> bytes:
    """Canonical form of a single table (used for additive reducts)."""
    return _least_relabelling(table)[0]


def unpack_table(form: bytes, k: int) -> np.ndarray:
    return np.frombuffer(form, dtype=np.uint8).astype(np.int64).reshape(k, k).copy()
