import numpy as np
import pytest

import mckaygraphs.modp as modp
from mckaygraphs.groups import Dihedral, build_group, conjugacy
from mckaygraphs.modp import (
    SplitIncomplete,
    _hessenberg,
    _hessenberg_charpoly,
    _hessenberg_eigenvectors,
    _poly_roots,
    _right_kernel,
    _rref,
    _split_subspace,
    simultaneous_split,
)


def det_mod(a, p):
    a = a.copy() % p
    n = a.shape[0]
    det = 1
    for c in range(n):
        nz = np.nonzero(a[c:, c])[0]
        if nz.size == 0:
            return 0
        piv = c + int(nz[0])
        if piv != c:
            a[[c, piv]] = a[[piv, c]]
            det = -det % p
        det = det * int(a[c, c]) % p
        inv = pow(int(a[c, c]), p - 2, p)
        for i in range(c + 1, n):
            if a[i, c]:
                a[i] = (a[i] - a[i, c] * inv % p * a[c]) % p
    return det % p


def test_charpoly_against_determinants():
    p = 101
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 8))
        a = rng.integers(0, p, (n, n)).astype(np.int64)
        cp = _hessenberg_charpoly(_hessenberg(a, p)[0], p)
        assert len(cp) == n + 1 and cp[-1] == 1
        for lam in rng.integers(0, p, 5):
            val = sum(int(cp[i]) * pow(int(lam), i, p) for i in range(n + 1)) % p
            ref = det_mod(int(lam) * np.eye(n, dtype=np.int64) - a, p)
            assert val == ref


def test_rref_and_kernel():
    p = 7
    a = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 5]], dtype=np.int64)
    red, pivots = _rref(a, p)
    assert pivots == [0, 1]
    ker, free = _right_kernel(a, p)
    assert ker.shape[0] == 1 and free.tolist() == [2] and ker[0, 2] == 1
    assert np.all((a @ ker[0]) % p == 0)


def test_split_identity_matrices_incomplete():
    with pytest.raises(SplitIncomplete):
        simultaneous_split([np.eye(3, dtype=np.int64)], 7, 3)


def test_split_single_diagonal():
    vs = simultaneous_split([np.diag([1, 2, 3])], 7, 3)
    assert sorted(tuple(v) for v in vs) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def s3_class_matrices_bruteforce(p):
    """Class-sum matrices of S_3 mod p by direct convolution over elements."""
    g = build_group(Dihedral(3))
    cd = conjugacy(g)
    r = cd.r
    mats = []
    for i in range(r):
        mat = np.zeros((r, r), dtype=np.int64)
        for j in range(r):
            # multiply class sums c_i * c_j and read off class coefficients
            counts = np.zeros(g.order, dtype=np.int64)
            for x in cd.classes[i]:
                for y in cd.classes[j]:
                    counts[g.mul[x, y]] += 1
            for k in range(r):
                rep = cd.reps[k]
                mat[k, j] = counts[rep]
        mats.append(mat % p)
    return mats, cd


def test_split_s3_class_matrices_mod_7():
    mats, cd = s3_class_matrices_bruteforce(7)
    mats = [m.T for m in mats]  # columns carry central characters
    vs = simultaneous_split(mats[1:], 7, 3)
    assert len(vs) == 3
    for v in vs:
        for m in mats:
            w = (m @ v) % 7
            nz = int(np.nonzero(v)[0][0])
            lam = int(w[nz]) * pow(int(v[nz]), 5, 7) % 7
            assert np.all(w == (lam * v) % 7)


def random_similarity(rng, n, p):
    """A random invertible s and its inverse mod p."""
    while True:
        s = rng.integers(0, p, (n, n)).astype(np.int64)
        if det_mod(s, p) != 0:
            break
    aug = np.concatenate([s, np.eye(n, dtype=np.int64)], axis=1) % p
    red, _ = _rref(aug, p)
    return s, red[:, n:]


def kernel_eigenvectors(a, roots, p):
    """The oracle: one RREF kernel of a - lam per root."""
    n = a.shape[0]
    return [_right_kernel((a - lam * np.eye(n, dtype=np.int64)) % p, p)[0] for lam in roots]


def normalized(v, p):
    return _rref(v.reshape(1, -1), p)[0][0]


def test_split_random_commuting_families():
    p = 101
    rng = np.random.default_rng(17)
    for _ in range(8):
        n = int(rng.integers(2, 41))
        s, sinv = random_similarity(rng, n, p)
        mats = [(s @ np.diag(rng.integers(0, p, n)) @ sinv) % p for _ in range(3)]
        mats.append((s @ np.diag(np.arange(1, n + 1)) @ sinv) % p)
        vs = simultaneous_split(mats, p, n)
        assert len(vs) == n
        for v in vs:
            for m in mats:
                w = (m @ v) % p
                nz = int(np.nonzero(v)[0][0])
                lam = int(w[nz]) * pow(int(v[nz]), p - 2, p) % p
                assert np.all(w == (lam * v) % p)


def counted_eigenvectors(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _hessenberg_eigenvectors(*args)

    monkeypatch.setattr(modp, "_hessenberg_eigenvectors", counted)
    return calls


def test_hessenberg_eigenvectors_match_kernels(monkeypatch):
    p = 10007
    rng = np.random.default_rng(29)
    calls = counted_eigenvectors(monkeypatch)
    for n in (2, 3, 7, 16, 29, 40):
        s, sinv = random_similarity(rng, n, p)
        eigs = rng.choice(p, n, replace=False)
        a = s @ np.diag(eigs) % p @ sinv % p
        h, u = _hessenberg(a, p)
        assert np.array_equal(a @ u % p, u @ h % p)
        assert not np.any(np.tril(h, -2)) and np.all(h.diagonal(-1))
        roots = _poly_roots(_hessenberg_charpoly(h, p), p)
        assert roots == sorted(int(x) for x in eigs)
        vecs = _hessenberg_eigenvectors(h, u, roots, p)
        for v, ker in zip(vecs, kernel_eigenvectors(a, roots, p)):
            assert ker.shape[0] == 1
            assert np.array_equal(normalized(v, p), normalized(ker[0], p))
        # the split takes the batched path and gives the same pieces
        pieces = _split_subspace(np.eye(n, dtype=np.int64), list(range(n)), a, p)
        assert len(calls) == 1
        calls.clear()
        got = sorted(tuple(b[0]) for b, _ in pieces)
        want = sorted(tuple(normalized(k[0], p)) for k in kernel_eigenvectors(a, roots, p))
        assert got == want


@pytest.mark.parametrize("case", ["block-diagonal", "repeated"])
def test_split_falls_back_to_kernels(monkeypatch, case):
    p = 101
    rng = np.random.default_rng(31)
    if case == "block-diagonal":
        # distinct eigenvalues, but the Hessenberg form has a zero subdiagonal entry
        blocks = []
        for eigs in ([3, 5, 7], [11, 13]):
            s, sinv = random_similarity(rng, len(eigs), p)
            blocks.append(s @ np.diag(eigs) % p @ sinv % p)
        a = np.zeros((5, 5), dtype=np.int64)
        a[:3, :3], a[3:, 3:] = blocks
        dims = [1, 1, 1, 1, 1]
    else:
        s, sinv = random_similarity(rng, 5, p)
        a = s @ np.diag([4, 4, 9, 20, 33]) % p @ sinv % p
        dims = [2, 1, 1, 1]
    h, _ = _hessenberg(a, p)
    assert case == "repeated" or not np.all(h.diagonal(-1))
    calls = counted_eigenvectors(monkeypatch)
    pieces = _split_subspace(np.eye(5, dtype=np.int64), list(range(5)), a, p)
    assert not calls
    assert [b.shape[0] for b, _ in pieces] == dims
    roots = _poly_roots(_hessenberg_charpoly(h, p), p)
    # each piece spans its eigenspace and is the identity on its pivots,
    # which is all the split reads of it
    for (b, piv), ker in zip(pieces, kernel_eigenvectors(a, roots, p)):
        assert np.array_equal(b[:, piv], np.eye(len(piv), dtype=np.int64))
        assert np.array_equal(_rref(b, p)[0], _rref(ker, p)[0])
    if case == "block-diagonal":
        # the split's own output is normalized: leading coefficient 1
        want = sorted(tuple(normalized(k[0], p)) for k in kernel_eigenvectors(a, roots, p))
        assert [tuple(v) for v in simultaneous_split([a], p, 5)] == want
