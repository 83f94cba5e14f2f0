"""Dense linear algebra over a prime field F_p.

Includes the simultaneous eigenspace splitting used by the modular
character-table computation: a commuting family of matrices that is
diagonalizable over F_p splits an invariant subspace into one-dimensional
common eigenspaces.  `exact_dtype`, `check_bound` and `exact_matmul` are
the package's one rule for when int64 is exact, and `mul_mod` its one rule
for when float64 is.
"""

from __future__ import annotations

import numpy as np


class SplitIncomplete(Exception):
    """Some joint subspace of dimension > 1 resisted every available matrix."""


def _inv_mod(v: int, p: int) -> int:
    return pow(int(v) % p, p - 2, p)


def exact_dtype(bound: int):
    """int64 when `bound`, stated by the caller, bounds every entry and partial
    sum below 2^63, else Python integers (dtype object).  A product of n terms
    has n max|a| max|b| (Dumas, Giorgi and Pernet, ACM TOMS 2008)."""
    return np.int64 if bound < 2**63 else object


def check_bound(bound: int, what: str) -> None:
    """Assert that int64 holds a computation bounded by `bound`."""
    assert exact_dtype(bound) is np.int64, f"{what} reach {bound}, past int64"


def exact_matmul(a, b, bound: int) -> np.ndarray:
    """a @ b in `exact_dtype(bound)`, for a bound on its entries and partial sums."""
    return np.asarray(a, dtype=exact_dtype(bound)) @ np.asarray(b, dtype=exact_dtype(bound))


def mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for residue matrices (entries in [0, p), int64 or float64).

    One float64 BLAS product, converted back to int64 and reduced: exact
    under the asserted n (p-1)^2 < 2^53, since every product and partial sum
    is then an integer below 2^53, which float64 holds in any summation
    order.  p is a Dixon prime, about 2|G|, so the bound holds far past the
    order cap.  The package asks for one OpenBLAS thread on import: on 2
    cores, threaded OpenBLAS took 11-15 ms per product at n = 128-256,
    against 0.3-1.8 ms on one thread."""
    bound = a.shape[-1] * (p - 1) ** 2
    assert bound < 2**53, f"the residue product's sums reach {bound}, past float64's integers"
    out = (np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)).astype(np.int64)
    out %= p
    return out


def _rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (matrix, pivot column list)."""
    m = a.copy() % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        # rows r and below are zero left of c, so only columns c: change
        m[r, c:] = m[r, c:] * _inv_mod(m[r, c], p) % p
        other = np.nonzero(m[:, c])[0]
        other = other[other != r]
        if other.size:
            m[other, c:] = (m[other, c:] - np.outer(m[other, c], m[r, c:])) % p
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _leading_one(rows: np.ndarray, p: int) -> np.ndarray:
    """Each nonzero row scaled so that its first nonzero entry is 1."""
    lead = rows[np.arange(rows.shape[0]), np.argmax(rows != 0, axis=1)]
    return rows * np.array([_inv_mod(x, p) for x in lead], dtype=np.int64)[:, None] % p


def _hessenberg(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Upper Hessenberg h and transform u with a @ u == u @ h mod p."""
    h = a.copy() % p
    n = h.shape[0]
    check_bound(n * (p - 1) ** 2, "the column updates' sums")
    u = np.eye(n, dtype=np.int64)
    for j in range(n - 2):
        col = h[j + 1 :, j]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = j + 1 + int(nz[0])
        if piv != j + 1:
            h[[j + 1, piv]] = h[[piv, j + 1]]
            h[:, [j + 1, piv]] = h[:, [piv, j + 1]]
            u[:, [j + 1, piv]] = u[:, [piv, j + 1]]
        inv = _inv_mod(h[j + 1, j], p)
        f = (h[j + 2 :, j] * inv) % p
        if np.any(f):
            h[j + 2 :, :] = (h[j + 2 :, :] - np.outer(f, h[j + 1, :])) % p
            h[:, j + 1] = (h[:, j + 1] + h[:, j + 2 :] @ f) % p
            u[:, j + 1] = (u[:, j + 1] + u[:, j + 2 :] @ f) % p
    return h, u


def _hessenberg_charpoly(h: np.ndarray, p: int) -> np.ndarray:
    """Monic characteristic polynomial of an upper Hessenberg h, lowest degree first."""
    n = h.shape[0]
    check_bound(n * (p - 1) ** 2, "the recurrence's sums")
    # polys[k, :k + 1] = charpoly of the leading k x k block
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    # beta[i] = prod_{j=i..k-1} h[j, j-1], the subdiagonal products of step k
    beta = np.zeros(n, dtype=np.int64)
    for k in range(1, n + 1):
        prev = polys[k - 1, :k]
        cur = polys[k, : k + 1]
        cur[1:] = prev
        cur[:-1] = (cur[:-1] - h[k - 1, k - 1] * prev) % p
        if k > 1:
            beta[1 : k - 1] = beta[1 : k - 1] * h[k - 1, k - 2] % p
            beta[k - 1] = h[k - 1, k - 2]
            coefs = h[: k - 1, k - 1] * beta[1:k] % p
            cur[:k] = (cur[:k] - coefs @ polys[: k - 1, :k]) % p
    return polys[n]


def _poly_roots(poly: np.ndarray, p: int) -> list[int]:
    xs = np.arange(p, dtype=np.int64)
    acc = np.full(p, int(poly[-1]) % p, dtype=np.int64)
    for c in poly[-2::-1]:
        acc = (acc * xs + int(c)) % p
    return [int(x) for x in xs[acc == 0]]


def _block_eigenvectors(h: np.ndarray, roots: list[int], p: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows x with h @ x == lam x for the roots lam, from one bottom-up sweep.

    A zero subdiagonal entry h[top, top - 1] splits h into unreduced diagonal
    blocks, and rows top.. of h meet only columns top.., so the sweep finds
    the eigenvectors of each trailing submatrix h[top:, top:] in turn.  On a
    block, every root runs the homogeneous recurrence (x = 1 on the block's
    last row, and row i of (h - lam) x = 0 fixes x[i - 1]), and every
    eigenvector begun lower down is continued with 0 there.  At the block's
    top row, a root whose recurrence leaves no residual starts a new
    eigenvector, and every older one adds the multiple of its root's
    recurrence that solves that row.  Returns the rows and, for each, the
    index of its root.  Raises SplitIncomplete when h is not diagonalizable
    over F_p.
    """
    n = h.shape[0]
    check_bound((n + 1) * (p - 1) ** 2, "the row residuals' sums")
    lam = np.array(roots, dtype=np.int64)
    # rows :begun are the eigenvectors so far, then one candidate per root;
    # an unreduced block has at most one eigenvector per root, so begun <= n
    x = np.zeros((n + lam.size, n), dtype=np.int64)
    which = np.zeros(n + lam.size, dtype=np.int64)
    begun, end = 0, n
    for top in [*(np.flatnonzero(h.diagonal(-1) == 0)[::-1] + 1).tolist(), 0]:
        live, root = x[: begun + lam.size], which[: begun + lam.size]
        live[begun:] = 0
        live[begun:, end - 1] = 1
        root[begun:] = np.arange(lam.size)
        mu = lam[root]
        for i in range(end - 1, top, -1):
            s = (live[:, i:] @ h[i, i:] - mu * live[:, i]) % p
            live[:, i - 1] = -s * _inv_mod(h[i, i - 1], p) % p
        res = (live[:, top:] @ h[top, top:] - mu * live[:, top]) % p
        older, own, back = res[:begun], res[begun:], root[:begun]
        if np.any(older[own[back] == 0]):
            # an eigenvalue of this block whose eigenvector from below cannot continue
            raise SplitIncomplete("a repeated eigenvalue has a Jordan block")
        inv = np.array([_inv_mod(v, p) if v else 0 for v in own.tolist()], dtype=np.int64)
        fix = -older * inv[back] % p
        live[:begun] = (live[:begun] + fix[:, None] * live[begun:][back]) % p
        fresh = np.flatnonzero(own == 0)
        live[begun : begun + fresh.size] = live[begun:][fresh]
        which[begun : begun + fresh.size] = fresh
        begun += fresh.size
        end = top
    if begun != n:
        raise SplitIncomplete(f"{begun} eigenvectors over F_{p} in dimension {n}")
    return x[:n], which[:n]


def _split_subspace(basis: np.ndarray, pivots: list[int], mat: np.ndarray, p: int):
    """Split an invariant row-space by the eigenvalues of mat; None if no split.

    basis is the identity on the columns `pivots`, and so is every piece.
    The pieces come in ascending order of eigenvalue, every eigenvector from
    one `_block_eigenvectors` sweep, which raises SplitIncomplete when mat is
    not diagonalizable on the subspace."""
    m = basis.shape[0]
    # a[:, i] = coordinates of basis[i] @ mat.T, read on the pivot columns
    a = mul_mod(mat[pivots], basis.T, p)
    lam = int(a[0, 0])
    if np.array_equal(a, lam * np.eye(m, dtype=np.int64)):
        return None  # scalar action cannot split
    h, u = _hessenberg(a, p)
    roots = _poly_roots(_hessenberg_charpoly(h, p), p)
    x, which = _block_eigenvectors(h, roots, p)
    vecs = mul_mod(x, u.T, p)
    assert np.array_equal(mul_mod(vecs, a.T, p), np.array(roots)[which, None] * vecs % p)
    vecs = _leading_one(mul_mod(vecs, basis, p), p)
    pieces = []
    for i in range(len(roots)):
        rows = vecs[which == i]
        if rows.shape[0] == 1:
            pieces.append((rows, [int(np.argmax(rows[0] != 0))]))
        else:
            pieces.append(_rref(rows, p))  # a repeated eigenvalue
    return pieces


def simultaneous_split(mats, p: int, basis: np.ndarray, pivots: list[int]) -> np.ndarray:
    """Common 1-dimensional eigenvectors of a commuting diagonalizable family
    on an invariant subspace of F_p^n.

    The subspace is the row space of `basis`, which is the identity on the
    columns `pivots`.  `mats` may be any iterable of n x n int64 residue
    arrays mod p, acting on columns (consumed lazily, and only while some
    joint subspace has dimension > 1, so callers can stream matrices that
    are expensive to build; a subspace of dimension 0 or 1 draws none).
    Returns one row per dimension of the subspace, spanning it, each
    normalized with leading coefficient 1, in lexicographic order.  Raises
    SplitIncomplete when some joint subspace of dimension > 1 is not split
    by any input matrix.
    """
    n = basis.shape[1]
    subspaces = [(basis, list(pivots))] if basis.shape[0] else []
    mats = iter(mats)
    while any(b.shape[0] > 1 for b, _ in subspaces):
        mat = next(mats, None)
        if mat is None:
            raise SplitIncomplete(
                "a joint subspace of dimension > 1 remains; choose another prime"
            )
        assert mat.shape == (n, n)
        nxt: list[tuple[np.ndarray, list[int]]] = []
        for sub, sub_pivots in subspaces:
            if sub.shape[0] == 1:
                nxt.append((sub, sub_pivots))
                continue
            pieces = _split_subspace(sub, sub_pivots, mat, p)
            if pieces is None:
                nxt.append((sub, sub_pivots))
            else:
                nxt.extend(pieces)
        subspaces = nxt
    vectors = _leading_one(np.array([b[0] for b, _ in subspaces], dtype=np.int64).reshape(-1, n), p)
    return vectors[np.lexsort(vectors.T[::-1])]
