"""Hot numeric kernels: the assignment scan, the multiplication-table
census and canonical forms.

The workbench spends almost all of its runtime in two inner loops: scanning
every variable assignment of a finite algebra (satisfaction checks) and
backtracking over multiplication tables (the census). The census is a
pure-Python backtrack that, after each new cell, checks only the
associativity and distributivity instances reading that cell, O(k^2) work
instead of the O(k^3) of a full re-check. Canonical forms come from one
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

def _compatible_at(add, mul, k, i, j):
    """False when an associativity or distributivity instance that reads
    cell (i, j) of the partial table ``mul`` (-1 = unset) has every cell it
    reads set and fails; True otherwise.

    The instances that read (i, j), with v = ij:
      * associativity (ab)c = a(bc) with (a, b) = (i, j), with (b, c) = (i, j),
        with ab = i and c = j, or with a = i and bc = j;
      * left distributivity a(b + c) = ab + ac with a = i;
      * right distributivity (a + b)c = ac + bc with c = j.
    Each family costs O(k^2), against O(k^3) for all instances.
    """
    mi = mul[i]
    v = mi[j]
    mj = mul[j]
    mv = mul[v]
    # (ij)c = i(jc)
    for c in range(k):
        jc = mj[c]
        if jc >= 0:
            left = mv[c]
            right = mi[jc]
            if left >= 0 and right >= 0 and left != right:
                return False
    # (ai)j = a(ij)
    for a in range(k):
        ma = mul[a]
        ai = ma[i]
        if ai >= 0:
            left = mul[ai][j]
            right = ma[v]
            if left >= 0 and right >= 0 and left != right:
                return False
    # (ab)j = a(bj) with ab = i: the left side is v
    for a in range(k):
        ma = mul[a]
        for b in range(k):
            if ma[b] == i:
                bj = mul[b][j]
                if bj >= 0:
                    right = ma[bj]
                    if right >= 0 and right != v:
                        return False
    # (ib)c = i(bc) with bc = j: the right side is v
    for b in range(k):
        ib = mi[b]
        if ib >= 0:
            mb = mul[b]
            mib = mul[ib]
            for c in range(k):
                if mb[c] == j:
                    left = mib[c]
                    if left >= 0 and left != v:
                        return False
    # i(b + c) = ib + ic
    for b in range(k):
        ib = mi[b]
        if ib >= 0:
            addb = add[b]
            addib = add[ib]
            for c in range(k):
                ic = mi[c]
                if ic >= 0:
                    lhs = mi[addb[c]]
                    if lhs >= 0 and lhs != addib[ic]:
                        return False
    # (a + b)j = aj + bj
    col = [mul[x][j] for x in range(k)]
    for a in range(k):
        aj = col[a]
        if aj >= 0:
            adda = add[a]
            addaj = add[aj]
            for b in range(k):
                bj = col[b]
                if bj >= 0:
                    lhs = col[adda[b]]
                    if lhs >= 0 and lhs != addaj[bj]:
                        return False
    return True


def census_mul_tables(add) -> np.ndarray:
    """All multiplication tables completing ``add`` to an ai-semiring.

    Returns an (n, k*k) array of row-major tables in ascending order. The
    search fills cells row-major, trying values in ascending order, and
    after each assignment checks only the associativity/distributivity
    instances that read the new cell (``_compatible_at``): every other
    instance whose cells are all set was checked when its last cell was
    set. So each returned table passes the full axiom check.
    """
    k = len(add)
    add = [[int(v) for v in row] for row in add]
    ncells = k * k
    mul = [[-1] * k for _ in range(k)]
    cand = [-1] * ncells
    results = []
    depth = 0
    while depth >= 0:
        i, j = divmod(depth, k)
        cand[depth] += 1
        if cand[depth] >= k:
            cand[depth] = -1
            mul[i][j] = -1
            depth -= 1
            continue
        mul[i][j] = cand[depth]
        if not _compatible_at(add, mul, k, i, j):
            continue
        if depth == ncells - 1:
            results.append([v for row in mul for v in row])
            continue
        depth += 1
    if not results:
        return np.empty((0, ncells), np.int64)
    return np.array(results, dtype=np.int64)


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
