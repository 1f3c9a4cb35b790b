"""Hot numeric kernels: the assignment scan, the multiplication-table
census and canonical forms.

The workbench spends almost all of its runtime in two inner loops: scanning
every variable assignment of a finite algebra (satisfaction checks) and
backtracking over multiplication tables (the census). The scan evaluates
both sides of a check on numpy arrays, one chunk of assignments at a time;
the census is a pure-Python backtrack.

Table/assignment conventions:
  * assignment index i enumerates variables in a fixed order, first
    variable in the most significant base-k digit, so ascending index is
    ascending lexicographic order of assignment tuples;
  * a compiled term is (letters, offsets): letters is the concatenation of
    all summand words as variable positions, offsets[w]..offsets[w+1]
    delimits word w;
  * mode 0 checks the inequality "b lies below a" (add[va, vb] == va),
    mode 1 checks the identity va == vb.
"""

from __future__ import annotations

import itertools

import numpy as np

# provenance for the benchmark record; perfbench/run.py is their only reader
HAVE_NUMBA = False


def active_backend() -> str:
    return "numpy"


# ---------------------------------------------------------------------------
# assignment scans

def _eval_term(add, mul, letters, offs, digits):
    acc = None
    for w in range(len(offs) - 1):
        val = digits[:, letters[offs[w]]]
        for p in range(offs[w] + 1, offs[w + 1]):
            val = mul[val, digits[:, letters[p]]]
        acc = val if acc is None else add[acc, val]
    return acc


def first_violation(add, mul, term_a, term_b, nvars, mode, start, stop) -> int:
    """Index of the first assignment in [start, stop) violating the check,
    or -1 when none does."""
    la, oa = term_a
    lb, ob = term_b
    k = add.shape[0]
    strides = k ** np.arange(nvars - 1, -1, -1, dtype=np.int64)
    chunk = 1 << 15
    for lo in range(start, stop, chunk):
        hi = min(lo + chunk, stop)
        idx = np.arange(lo, hi, dtype=np.int64)
        digits = (idx[:, None] // strides[None, :]) % k
        va = _eval_term(add, mul, la, oa, digits)
        vb = _eval_term(add, mul, lb, ob, digits)
        ok = (va == vb) if mode == 1 else (add[va, vb] == va)
        if not ok.all():
            return int(lo + int(np.argmin(ok)))
    return -1


# ---------------------------------------------------------------------------
# multiplication-table census

def _compatible(add, mul, k):
    for a in range(k):
        mua = mul[a]
        for b in range(k):
            ab = mua[b]
            mub = mul[b]
            adda = add[a]
            for c in range(k):
                bc = mub[c]
                if ab >= 0 and bc >= 0:
                    left = mul[ab][c]
                    right = mua[bc]
                    if left >= 0 and right >= 0 and left != right:
                        return False
                r1 = mua[b]
                r2 = mua[c]
                if r1 >= 0 and r2 >= 0:
                    lhs = mua[add[b][c]]
                    if lhs >= 0 and lhs != add[r1][r2]:
                        return False
                r3 = mua[c]
                r4 = mub[c]
                if r3 >= 0 and r4 >= 0:
                    lhs = mul[adda[b]][c]
                    if lhs >= 0 and lhs != add[r3][r4]:
                        return False
    return True


def census_mul_tables(add) -> np.ndarray:
    """All multiplication tables completing ``add`` to an ai-semiring.

    Returns an (n, k*k) array of row-major tables; the search fills cells
    row-major and prunes on every determined associativity/distributivity
    instance, so each returned table passes the full axiom check.
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
        if not _compatible(add, mul, k):
            continue
        if depth == ncells - 1:
            results.append([mul[c // k][c % k] for c in range(ncells)])
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


def canonical_pairs(add, muls) -> list[bytes]:
    """Canonical form of (add, mul) for each mul: the lexicographically
    least relabelling of both tables, flattened add-then-mul."""
    add = np.ascontiguousarray(add, dtype=np.int64)
    k = add.shape[0]
    muls = np.ascontiguousarray(muls, dtype=np.int64).reshape(-1, k, k)
    n = muls.shape[0]
    if n == 0:
        return []
    perms, invs = permutation_arrays(k)
    width = 2 * k * k
    best: list[bytes] = [b""] * n
    rng = np.arange(n)
    for p in range(perms.shape[0]):
        sig, inv = perms[p], invs[p]
        a2 = sig[add[np.ix_(inv, inv)]].astype(np.uint8).reshape(-1)
        m2 = sig[muls[:, inv][:, :, inv]].astype(np.uint8).reshape(n, -1)
        rows = np.empty((n, width), np.uint8)
        rows[:, : k * k] = a2
        rows[:, k * k:] = m2
        blob = rows.tobytes()
        for i in rng:
            cand = blob[i * width:(i + 1) * width]
            if p == 0 or cand < best[i]:
                best[i] = cand
    return best


def canonical_pair(add, mul) -> bytes:
    return canonical_pairs(add, np.asarray(mul)[None, :, :])[0]


def unpack_pair(form: bytes, k: int) -> tuple[np.ndarray, np.ndarray]:
    flat = np.frombuffer(form, dtype=np.uint8).astype(np.int64)
    return flat[: k * k].reshape(k, k).copy(), flat[k * k:].reshape(k, k).copy()


def canonical_table(table) -> bytes:
    """Canonical form of a single table (used for additive reducts)."""
    arr = np.ascontiguousarray(table, dtype=np.int64)
    k = arr.shape[0]
    perms, invs = permutation_arrays(k)
    best = b""
    for p in range(perms.shape[0]):
        sig, inv = perms[p], invs[p]
        cand = sig[arr[np.ix_(inv, inv)]].astype(np.uint8).tobytes()
        if p == 0 or cand < best:
            best = cand
    return best


def unpack_table(form: bytes, k: int) -> np.ndarray:
    return np.frombuffer(form, dtype=np.uint8).astype(np.int64).reshape(k, k).copy()
