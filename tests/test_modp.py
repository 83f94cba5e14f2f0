import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mckaygraphs.modp as modp
from mckaygraphs.catalog import build_group
from mckaygraphs.chartable import compute_character_table
from mckaygraphs.cli import parse_group_spec
from mckaygraphs.groups import Dihedral, conjugacy
from mckaygraphs.modp import (
    SplitIncomplete,
    _block_eigenvectors,
    _hessenberg,
    _hessenberg_charpoly,
    _poly_roots,
    _rref,
    _split_subspace,
    check_bound,
    mul_mod,
    simultaneous_split,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def whole_space(n):
    """F_p^n as a start subspace: the identity basis and all its pivots."""
    return np.eye(n, dtype=np.int64), list(range(n))


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


def int64_mul_mod(a, b, p):
    """a @ b mod p in int64, every partial sum asserted below 2^63: the oracle
    of `mul_mod`, which multiplies in float64."""
    check_bound(a.shape[-1] * (p - 1) ** 2, "the oracle's sums")
    return np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64) % p


def python_mul_mod(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b.tolist())] for row in a.tolist()]


# n (p - 1)^2 against 2^53, the bound `mul_mod` asserts: 2053 stays far below
# it up to n = 1024; 65537 reaches it at n = 2^21, and 67108859, the largest
# prime below 2^26, at n = 3
FLOAT_SIZES = {
    2053: st.integers(1, 1024),
    65537: st.sampled_from([1, 2**21 - 1]),
    67108859: st.integers(1, 2),
}


def float_case(p):
    """(p, n, m, k) for an m x n by n x k product; one row and column at the
    large n."""
    shape = lambda n: st.integers(1, 3) if n <= 1024 else st.just(1)
    return FLOAT_SIZES[p].flatmap(lambda n: st.tuples(st.just(p), st.just(n), shape(n), shape(n)))


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(sorted(FLOAT_SIZES)).flatmap(float_case),
    top=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(case=(65537, 2**21 - 1, 1, 1), top=True, seed=0)
@example(case=(67108859, 2, 3, 3), top=True, seed=0)
def test_mul_mod_matches_the_int64_and_python_oracles(case, top, seed):
    """Up to the largest n below the float64 bound, with entries anywhere in
    [0, p) or in its top 1000, where the sums are largest."""
    p, n, m, k = case
    rng = np.random.default_rng(seed)
    low = max(0, p - 1000) if top else 0
    a, b = rng.integers(low, p, (m, n)), rng.integers(low, p, (n, k))
    out = mul_mod(a, b, p)
    assert out.dtype == np.int64
    assert np.array_equal(out, int64_mul_mod(a, b, p))
    if n <= 1024:
        assert out.tolist() == python_mul_mod(a, b, p)


@pytest.mark.parametrize("p, n", [(65537, 2**21), (67108859, 3), (2**31 - 1, 1)])
def test_mul_mod_refuses_sums_past_the_float64_bound(p, n):
    """At the first n with n (p - 1)^2 >= 2^53 the product is refused, not
    rounded; 2^31 - 1 is past the bound at n = 1."""
    a, b = np.broadcast_to(np.int64(p - 1), (1, n)), np.broadcast_to(np.int64(p - 1), (n, 1))
    with pytest.raises(AssertionError, match="past float64"):
        mul_mod(a, b, p)


@pytest.mark.parametrize("given_threads, threads", [(None, "1"), ("2", "2")])
def test_import_asks_for_one_blas_thread_unless_the_caller_chose(given_threads, threads):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    if given_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = given_threads
    code = "import os, sys, mckaygraphs; assert 'numpy' in sys.modules; print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == threads


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


def right_kernel(a, p):
    """Rows forming a basis of {v : a @ v == 0 mod p}, and the free columns of
    a, on which the rows are the identity."""
    cols = a.shape[1]
    red, pivots = _rref(a, p)
    free = np.setdiff1d(np.arange(cols), pivots)
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = -red[:, free].T % p
    return basis, free


def test_rref_and_kernel():
    p = 7
    a = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 5]], dtype=np.int64)
    red, pivots = _rref(a, p)
    assert pivots == [0, 1]
    ker, free = right_kernel(a, p)
    assert ker.shape[0] == 1 and free.tolist() == [2] and ker[0, 2] == 1
    assert np.all((a @ ker[0]) % p == 0)


def test_split_identity_matrices_incomplete():
    with pytest.raises(SplitIncomplete):
        simultaneous_split([np.eye(3, dtype=np.int64)], 7, *whole_space(3))


def test_split_single_diagonal():
    vs = simultaneous_split([np.diag([1, 2, 3])], 7, *whole_space(3))
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
    vs = simultaneous_split(mats[1:], 7, *whole_space(3))
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
    return [right_kernel((a - lam * np.eye(n, dtype=np.int64)) % p, p)[0] for lam in roots]


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
        vs = simultaneous_split(mats, p, *whole_space(n))
        assert len(vs) == n
        for v in vs:
            for m in mats:
                w = (m @ v) % p
                nz = int(np.nonzero(v)[0][0])
                lam = int(w[nz]) * pow(int(v[nz]), p - 2, p) % p
                assert np.all(w == (lam * v) % p)


def counted(monkeypatch, name):
    """Record the calls the split makes to the modp function `name`."""
    calls = []
    fn = getattr(modp, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(modp, name, wrapper)
    return calls


def blocks(h):
    """Number of unreduced diagonal blocks of an upper Hessenberg h."""
    return 1 + int(np.count_nonzero(h.diagonal(-1) == 0))


def conjugated_diagonal(rng, eigs, p):
    s, sinv = random_similarity(rng, len(eigs), p)
    return s @ np.diag(eigs) % p @ sinv % p


def check_pieces(pieces, a, roots, p, basis=None):
    """The pieces come in ascending eigenvalue order, each is the identity on
    its pivots (all the split reads of it) and spans the kernel oracle's
    eigenspace, read through `basis` when a acts on a subspace's coordinates."""
    assert len(pieces) == len(roots)
    for (b, piv), ker in zip(pieces, kernel_eigenvectors(a, roots, p)):
        assert np.array_equal(b[:, piv], np.eye(len(piv), dtype=np.int64))
        if basis is not None:
            ker = mul_mod(ker, basis, p)
        assert np.array_equal(_rref(b, p)[0], _rref(ker, p)[0])


def test_hessenberg_eigenvectors_match_kernels(monkeypatch):
    p = 10007
    rng = np.random.default_rng(29)
    sweeps = counted(monkeypatch, "_block_eigenvectors")
    for n in (2, 3, 7, 16, 29, 40):
        eigs = rng.choice(p, n, replace=False)
        a = conjugated_diagonal(rng, eigs, p)
        h, u = _hessenberg(a, p)
        assert np.array_equal(a @ u % p, u @ h % p)
        assert not np.any(np.tril(h, -2)) and blocks(h) == 1
        roots = _poly_roots(_hessenberg_charpoly(h, p), p)
        assert roots == sorted(int(x) for x in eigs)
        x, which = _block_eigenvectors(h, roots, p)
        assert sorted(which.tolist()) == list(range(n))
        vecs = x @ u.T % p
        oracle = kernel_eigenvectors(a, roots, p)
        for v, i in zip(vecs, which):
            assert oracle[i].shape[0] == 1
            assert np.array_equal(normalized(v, p), normalized(oracle[i][0], p))
        # the split takes the sweep, in ascending order of eigenvalue
        sweeps.clear()
        pieces = _split_subspace(np.eye(n, dtype=np.int64), list(range(n)), a, p)
        assert len(sweeps) == 1
        assert [tuple(b[0]) for b, _ in pieces] == [tuple(normalized(k[0], p)) for k in oracle]


@pytest.mark.parametrize("case", ["block-diagonal", "repeated", "many-blocks"])
def test_sweep_takes_more_blocks_than_roots(monkeypatch, case):
    """A diagonalizable matrix whose Hessenberg form has more unreduced blocks
    than eigenvalues is split by the one sweep, like any other."""
    p = 101
    rng = np.random.default_rng(31)
    if case == "block-diagonal":
        a = np.zeros((5, 5), dtype=np.int64)
        a[:2, :2] = conjugated_diagonal(rng, [3, 5], p)
        a[2:4, 2:4] = conjugated_diagonal(rng, [5, 3], p)
        a[4, 4] = 3
        eigs = [3, 5, 5, 3, 3]
    elif case == "repeated":
        eigs = [4, 9, 4, 9, 4]
        a = conjugated_diagonal(rng, eigs, p)
    else:
        # the minimal polynomial has degree 2, so every block has size <= 2
        eigs = [2] * 7 + [7] * 6
        a = conjugated_diagonal(rng, rng.permutation(eigs), p)
    h, _ = _hessenberg(a, p)
    roots = _poly_roots(_hessenberg_charpoly(h, p), p)
    assert roots == sorted(set(eigs))
    assert blocks(h) > len(roots)
    if case == "many-blocks":
        assert blocks(h) >= 7
    sweeps = counted(monkeypatch, "_block_eigenvectors")
    n = len(eigs)
    pieces = _split_subspace(np.eye(n, dtype=np.int64), list(range(n)), a, p)
    assert len(sweeps) == 1
    assert [b.shape[0] for b, _ in pieces] == [eigs.count(x) for x in roots]
    check_pieces(pieces, a, roots, p)


@pytest.mark.parametrize(
    "spec",
    [
        "product(binary:T,cyclic:3)",
        "product(dihedral:5,dihedral:5)",
        "product(binary:T,heis:3:1)",
        "product(dihedral:6,elemab:2:6)",
    ],
)
def test_table_splits_match_kernels(monkeypatch, spec):
    """Every split a table makes spans the kernel oracle's eigenspaces, root by
    root; each of these tables splits some subspace whose action has more
    Hessenberg blocks than eigenvalues."""
    checked = []

    def split(basis, pivots, mat, p):
        pieces = _split_subspace(basis, pivots, mat, p)
        if pieces is not None:
            a = mul_mod(mat[pivots], basis.T, p)
            h, _ = _hessenberg(a, p)
            roots = _poly_roots(_hessenberg_charpoly(h, p), p)
            check_pieces(pieces, a, roots, p, basis)
            checked.append(blocks(h) > len(roots))
        return pieces

    monkeypatch.setattr(modp, "_split_subspace", split)
    compute_character_table(build_group(parse_group_spec(spec)))
    assert any(checked)


@pytest.mark.parametrize("case", ["nested", "coupled"])
def test_sweep_matches_kernels_on_derogatory_matrices(monkeypatch, case):
    """Repeated eigenvalues force several unreduced blocks.  A similar copy of
    a diagonal matrix gives nested blocks, each holding the eigenvalues of
    the blocks below it, so every eigenvector begun lower down continues
    through the higher blocks as it is.  A block triangular matrix whose
    lower eigenvalues are not upper ones gives a top block without them,
    which every eigenvector begun below must solve with a multiple of its
    root's recurrence there."""
    p = 10007
    rng = np.random.default_rng(3)
    if case == "nested":
        eigs = [1, 2, 3, 4, 5, 6, 1, 2, 3, 1, 2, 1, *rng.choice(np.arange(7, p), 8, replace=False)]
        a = conjugated_diagonal(rng, rng.permutation(eigs), p)
    else:
        eigs = [3, 5, 7, 11, 13, 11, 17, 11, 13]
        a = np.zeros((9, 9), dtype=np.int64)
        a[:3, :3] = conjugated_diagonal(rng, eigs[:3], p)
        a[3:, 3:] = conjugated_diagonal(rng, eigs[3:], p)
        a[:3, 3:] = rng.integers(0, p, (3, 6))
    h, _ = _hessenberg(a, p)
    roots = _poly_roots(_hessenberg_charpoly(h, p), p)
    assert roots == sorted(set(int(x) for x in eigs))
    assert 4 <= blocks(h) <= len(roots)
    sweeps = counted(monkeypatch, "_block_eigenvectors")
    n = len(eigs)
    pieces = _split_subspace(np.eye(n, dtype=np.int64), list(range(n)), a, p)
    assert len(sweeps) == 1
    assert [b.shape[0] for b, _ in pieces] == [eigs.count(x) for x in roots]
    check_pieces(pieces, a, roots, p)
    # a subspace that is not the whole space gives the same eigenspaces
    big = np.zeros((n + 3, n + 3), dtype=np.int64)
    big[:n, :n] = a
    big[n:, n:] = np.diag([7, 8, 9])
    pad = np.concatenate([np.eye(n, dtype=np.int64), np.zeros((n, 3), dtype=np.int64)], axis=1)
    sub = _split_subspace(pad, list(range(n)), big, p)
    assert [tuple(map(tuple, b[:, :n])) for b, _ in sub] == [tuple(map(tuple, b)) for b, _ in pieces]


@pytest.mark.parametrize("case", ["within-a-block", "across-blocks"])
def test_sweep_raises_on_a_jordan_block(monkeypatch, case):
    p = 101
    if case == "within-a-block":
        # (x - 4)^2 (x - 9) (x - 20) is the minimal polynomial: one block
        jordan = np.diag([4, 4, 9, 20])
        jordan[0, 1] = 1
        s, sinv = random_similarity(np.random.default_rng(37), 4, p)
        a = s @ jordan % p @ sinv % p
    else:
        # the eigenvector of 4 in the lower block cannot continue through
        # the top block, whose eigenvalue is also 4
        a = np.array([[4, 1, 1], [0, 4, 0], [0, 1, 9]], dtype=np.int64)
    h, _ = _hessenberg(a, p)
    roots = _poly_roots(_hessenberg_charpoly(h, p), p)
    assert blocks(h) == (1 if case == "within-a-block" else 2) <= len(roots)
    with pytest.raises(SplitIncomplete):
        _block_eigenvectors(h, roots, p)
    sweeps = counted(monkeypatch, "_block_eigenvectors")
    n = a.shape[0]
    with pytest.raises(SplitIncomplete):
        _split_subspace(np.eye(n, dtype=np.int64), list(range(n)), a, p)
    assert len(sweeps) == 1
