"""Dense linear algebra over a prime field F_p.

Includes the simultaneous eigenspace splitting used by the modular
character-table computation: a commuting family of matrices that is
diagonalizable over F_p is split into r one-dimensional common eigenspaces.
"""

from __future__ import annotations

import numpy as np


class SplitIncomplete(Exception):
    """Some joint subspace of dimension > 1 resisted every available matrix."""


def _inv_mod(v: int, p: int) -> int:
    return pow(int(v) % p, p - 2, p)


def check_bound(n: int, p: int) -> None:
    """A sum of n products of residues must fit in int64."""
    assert n * (p - 1) ** 2 < 2**63, f"{n} products mod {p} overflow int64"


def mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for residue matrices, with the int64 bound asserted.

    numpy's integer matmul has no BLAS; from n = 512 on it runs several times
    faster on a row-major left and a column-major right operand.  A float64
    BLAS product would be exact at these sizes (n (p-1)^2 < 2^53), but was
    measured slower on 2 cores: threaded OpenBLAS took about 16 ms per
    128 x 128 product, against 0.2 ms on one thread."""
    check_bound(a.shape[-1], p)
    return np.ascontiguousarray(a) @ np.asfortranarray(b) % p


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


def _right_kernel(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows forming a basis of {v : a @ v == 0 mod p}, and the free columns of
    a, on which the rows are the identity."""
    cols = a.shape[1]
    red, pivots = _rref(a, p)
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False  # np.setdiff1d would import numpy.ma
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = -red[:, free].T % p
    return basis, free


def _leading_one(rows: np.ndarray, p: int) -> np.ndarray:
    """Each nonzero row scaled so that its first nonzero entry is 1."""
    lead = rows[np.arange(rows.shape[0]), np.argmax(rows != 0, axis=1)]
    return rows * np.array([_inv_mod(x, p) for x in lead], dtype=np.int64)[:, None] % p


def _hessenberg(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Upper Hessenberg h and transform u with a @ u == u @ h mod p."""
    h = a.copy() % p
    n = h.shape[0]
    check_bound(n, p)
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
    check_bound(n, p)
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
    check_bound(n + 1, p)
    lam = np.array(roots, dtype=np.int64)
    x = np.zeros((0, n), dtype=np.int64)
    which = np.zeros(0, dtype=np.int64)
    end = n
    for top in [*(np.flatnonzero(h.diagonal(-1) == 0)[::-1] + 1).tolist(), 0]:
        begun = which.size
        x = np.concatenate([x, np.zeros((lam.size, n), dtype=np.int64)])
        x[begun:, end - 1] = 1
        mu = np.concatenate([lam[which], lam])
        for i in range(end - 1, top, -1):
            s = (x[:, i:] @ h[i, i:] - mu * x[:, i]) % p
            x[:, i - 1] = -s * _inv_mod(h[i, i - 1], p) % p
        res = (x[:, top:] @ h[top, top:] - mu * x[:, top]) % p
        older, own = res[:begun], res[begun:]
        if np.any(older[own[which] == 0]):
            # an eigenvalue of this block whose eigenvector from below cannot continue
            raise SplitIncomplete("a repeated eigenvalue has a Jordan block")
        inv = np.array([_inv_mod(v, p) if v else 0 for v in own.tolist()], dtype=np.int64)
        fix = -older * inv[which] % p
        x[:begun] = (x[:begun] + fix[:, None] * x[begun:][which]) % p
        fresh = np.flatnonzero(own == 0)
        x = np.concatenate([x[:begun], x[begun:][fresh]])
        which = np.concatenate([which, fresh])
        end = top
    if which.size != n:
        raise SplitIncomplete(f"{which.size} eigenvectors over F_{p} in dimension {n}")
    return x, which


def _split_subspace(basis: np.ndarray, pivots: list[int], mat: np.ndarray, p: int):
    """Split an invariant row-space by the eigenvalues of mat; None if no split.

    basis is the identity on the columns `pivots`, and so is every piece.
    The pieces come in ascending order of eigenvalue."""
    m = basis.shape[0]
    whole = m == mat.shape[0]  # the first subspace, whose basis is I
    # a[:, i] = coordinates of basis[i] @ mat.T, read on the pivot columns
    a = mat % p if whole else mul_mod(mat[pivots], basis.T, p)
    lam = int(a[0, 0])
    if np.array_equal(a, lam * np.eye(m, dtype=np.int64)):
        return None  # scalar action cannot split
    h, u = _hessenberg(a, p)
    roots = _poly_roots(_hessenberg_charpoly(h, p), p)
    pieces = []
    if np.count_nonzero(h.diagonal(-1) == 0) < len(roots):
        # no more unreduced blocks than eigenvalues: one sweep gives them all
        x, which = _block_eigenvectors(h, roots, p)
        vecs = mul_mod(x, u.T, p)
        assert np.array_equal(mul_mod(vecs, a.T, p), np.array(roots)[which, None] * vecs % p)
        vecs = _leading_one(vecs if whole else mul_mod(vecs, basis, p), p)
        for i in range(len(roots)):
            rows = vecs[which == i]
            if rows.shape[0] == 1:
                pieces.append((rows, [int(np.argmax(rows[0] != 0))]))
            else:
                pieces.append(_rref(rows, p))  # a repeated eigenvalue
        return pieces
    total = 0
    for lam in roots:
        ker, free = _right_kernel((a - lam * np.eye(m, dtype=np.int64)) % p, p)
        # ker is the identity on its free columns and basis on pivots, so
        # their product is the identity on pivots[free]
        sub = ker if whole else mul_mod(ker, basis, p)
        pieces.append((sub, [pivots[c] for c in free]))
        total += sub.shape[0]
    if total != m:
        # restriction not diagonalizable: the prime was unsuitable
        raise SplitIncomplete(f"subspace of dimension {m} split into only {total}")
    return pieces


def simultaneous_split(mats, p: int, dim: int) -> list[np.ndarray]:
    """Common 1-dimensional eigenvectors of a commuting diagonalizable family.

    `mats` may be any iterable of dim x dim int64 residue arrays mod p
    (consumed lazily, and only while some joint subspace has dimension > 1,
    so callers can stream matrices that are expensive to build).  Returns
    `dim` vectors spanning F_p^dim, each normalized with leading coefficient
    1.  Raises SplitIncomplete when some joint subspace of dimension > 1 is
    not split by any input matrix.
    """
    subspaces: list[tuple[np.ndarray, list[int]]] = [
        (np.eye(dim, dtype=np.int64), list(range(dim)))
    ]
    mats = iter(mats)
    while any(b.shape[0] > 1 for b, _ in subspaces):
        mat = next(mats, None)
        if mat is None:
            raise SplitIncomplete(
                "a joint subspace of dimension > 1 remains; choose another prime"
            )
        assert mat.shape == (dim, dim)
        nxt: list[tuple[np.ndarray, list[int]]] = []
        for basis, pivots in subspaces:
            if basis.shape[0] == 1:
                nxt.append((basis, pivots))
                continue
            pieces = _split_subspace(basis, pivots, mat, p)
            if pieces is None:
                nxt.append((basis, pivots))
            else:
                nxt.extend(pieces)
        subspaces = nxt
    vectors = _leading_one(np.array([b[0] for b, _ in subspaces]), p)
    return sorted(vectors, key=lambda v: tuple(v))
