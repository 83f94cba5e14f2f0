"""Exact character tables via the modular class-algebra method (Dixon, 1967).

The table is computed over F_p for a prime p = 1 (mod exponent), p > 2|G|.
The linear characters are the characters of G/G' (Isaacs, Character Theory
of Finite Groups, Cor. 2.23): zeta_e^lam(x G') for each homomorphism lam of
G/G' into Z_e, built directly.  The other central characters sum to 0 over
the classes of each coset of G', so the class algebra is split (`modp`) only
on that subspace: by the class matrix of an element of largest order and
then by seeded random combinations of all the class matrices (Schneider,
1990).  Their degrees are recovered from the orthogonality relation, and
their modular rows are lifted to exact cyclotomic integers at once.  The
lift runs one discrete Fourier transform over F_p, for all rows, per class
whose element generates a maximal cyclic subgroup, batched by element
order; every power class of that element takes its values by remapping the
eigenvalue exponents.  The table holds each distinct value once, as a row
of canonical coefficients (`cyclotomic`), and an r x r index of the rows,
so equal values have equal indices.  A single character is an
(r, phi(e)) coefficient array at a stated order e.  All arithmetic is
exact: int64 under a bound stated at each product (`modp.exact_dtype`), or
Python integers past it.  The one floating-point step is `modp.mul_mod`'s
float64 product of residue matrices, exact under its asserted
n (p-1)^2 < 2^53, so that every partial sum is an integer float64 holds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import isqrt
from typing import Optional, Union

import numpy as np

from .cyclotomic import _is_prime, _power_reductions, _primitive_root, euler_phi
from .groups import (
    ConjugacyData,
    FiniteGroup,
    Subgroup,
    abelian_homs,
    commutator_subgroup,
    conjugacy,
    quotient_group,
    subgroup_on,
)
from .modp import check_bound, exact_dtype, exact_matmul, mul_mod, simultaneous_split


class NoSuitablePrime(Exception):
    pass


class LiftOutOfRange(Exception):
    pass


class InternalNonInteger(Exception):
    pass


class NoSuchIrrep(Exception):
    pass


class SelectorEmpty(Exception):
    pass


def dixon_prime(order: int, exponent: int) -> int:
    """Smallest prime p = 1 (mod exponent) with p > 2*order."""
    k = max(1, (2 * order + exponent - 1) // exponent)
    while k < 10**7:
        p = k * exponent + 1
        if p > 2 * order and _is_prime(p):
            return p
        k += 1
    raise NoSuitablePrime(f"no prime = 1 mod {exponent} above {2 * order} found")


@dataclass
class CharacterTable:
    group: FiniteGroup
    conj: ConjugacyData
    prime: int
    exponent: int
    degrees: list[int]
    rows: np.ndarray  # the distinct values: canonical coefficients at the exponent, sorted
    index: np.ndarray  # (r, r) irreducible x class -> the row of its value
    modular: np.ndarray  # (r, r) residues mod prime
    trivial_index: int

    @property
    def r(self) -> int:
        return len(self.degrees)


def class_weighted_dual(table: np.ndarray, cd: ConjugacyData, order: int, p: int) -> np.ndarray:
    """W[k, j] = h_k chi_j(k*) / |G| mod p for the residue table T (irreducibles
    x classes), so that rows @ W mod p decomposes residue rows of characters
    over Irr(G).  float64, the operand `mul_mod` multiplies in; exact, since
    every entry is a residue below p."""
    w = table[:, cd.inverse_class]
    w *= np.array(cd.sizes, dtype=np.int64) * pow(order, p - 2, p) % p
    w %= p
    return w.T.astype(np.float64)


def _split_matrices(g: FiniteGroup, cd: ConjugacyData, p: int, rng: random.Random):
    """The matrices that split the class algebra, built as they are drawn, with
    the vectors (omega(c_k))_k of central characters as column eigenvectors.

    First the class matrix of an element of largest order, which alone
    splits the non-linear characters of a dihedral group.  Then at most r
    random combinations sum_i c_i C_i of all the class matrices (Schneider
    1990); the eigenvalues of one fail to separate two central characters
    with probability 1/p.
    All are read off flat[x, k] = r class(x^-1 z_k) + k, made once: the class
    matrix of C_i counts the entries of the rows x in C_i, and a combination
    is one int64 scatter-add of the class weights over all the rows.
    """
    r = cd.r
    check_bound(g.order * (p - 1), "a combination's entries")
    flat = cd.class_of[g.mul[g.inv[:, None], np.asarray(cd.reps)[None, :]]]
    assert r * r <= np.iinfo(flat.dtype).max
    flat *= r
    flat += np.arange(r, dtype=flat.dtype)
    orders = [cd.element_orders[rep] for rep in cd.reps]
    # its entries count class elements, so they are residues: 0 <= entry <= |G| < p
    top = cd.classes[orders.index(max(orders))]
    yield np.bincount(flat[top].ravel(), minlength=r * r).reshape(r, r)
    for _ in range(r):
        weights = np.array([rng.randrange(p) for _ in range(r)], dtype=np.int64)
        mat = np.zeros(r * r, dtype=np.int64)
        np.add.at(mat, flat, weights[cd.class_of][:, None])
        mat %= p
        yield mat.reshape(r, r)


def compute_character_table(g: FiniteGroup, cd: Optional[ConjugacyData] = None) -> CharacterTable:
    cd = cd or conjugacy(g)
    n = g.order
    r = cd.r
    e = cd.exponent
    p = dixon_prime(n, e)
    h = np.array(cd.sizes, dtype=np.int64)
    invmap = cd.inverse_class

    # the linear characters zeta_e^lam(x G'), one per homomorphism lam of G/G' to Z_e
    quotient, coset_of = quotient_group(g, commutator_subgroup(g, cd))
    coset = coset_of[cd.reps]
    linear = abelian_homs(quotient, e)[:, coset]
    # The other characters are orthogonal to the linear ones, which span the
    # functions on G/G', so their central characters sum to 0 over the classes
    # of each coset of G'.  Independent mod p, they span that subspace: the
    # rows e_k - e_first(k), k a class after the first class of its coset
    first = np.full(quotient.order, r)
    np.minimum.at(first, coset, np.arange(r))
    pivots = np.flatnonzero(first[coset] < np.arange(r))
    basis = np.zeros((pivots.size, r), dtype=np.int64)
    basis[np.arange(pivots.size), pivots] = 1
    basis[np.arange(pivots.size), first[coset[pivots]]] = p - 1
    # seeded by p, so a group's table is computed the same way every time;
    # by the stdlib generator, since importing numpy.random alone adds 5.6 MB
    # of peak RSS
    mats = _split_matrices(g, cd, p, random.Random(p))
    vectors = simultaneous_split(mats, p, basis, pivots.tolist())
    del mats, basis  # the generator holds the |G| x r class index; neither is needed again
    assert np.all(vectors[:, 0]), "eigenvector vanishes at the identity class"

    # central characters omega, normalized at the identity class
    scale = np.array([pow(int(v), p - 2, p) for v in vectors[:, 0]], dtype=np.int64)
    omega = vectors * scale[:, None] % p
    h_inv = np.array([pow(int(x), p - 2, p) for x in h], dtype=np.int64)
    total = (omega * omega[:, invmap] % p * h_inv % p).sum(axis=1) % p
    # the degree d is the one d <= sqrt|G| with d^2 = |G| / total mod p
    ds = np.arange(1, isqrt(n) + 1)
    dsq = n * np.array([pow(int(t), p - 2, p) for t in total], dtype=np.int64) % p
    hits = ds[None, :] ** 2 % p == dsq[:, None]
    assert np.all(hits.sum(axis=1) == 1), "degree not unique from d^2 mod p"
    degrees = ds[hits.argmax(axis=1)].tolist()
    modular = np.array(degrees, dtype=np.int64)[:, None] * omega % p * h_inv % p
    lifted, index = _lift(modular, degrees, cd, p)

    # the linear values zeta_e^s, as the coefficients of x^s mod Phi_e
    used = np.flatnonzero(np.bincount(linear.ravel(), minlength=e))
    red = _power_reductions(e)
    values = np.array([red[s] for s in used.tolist()], dtype=np.int64).reshape(-1, lifted.shape[1])
    slot = np.zeros(e, dtype=np.int64)
    slot[used] = np.arange(used.size)
    linear = slot[linear]
    rows, index = _distinct(np.concatenate([lifted, values]), np.concatenate([index, len(lifted) + linear]))
    modular = np.concatenate([modular, residues(p, values, e)[linear]])
    degrees += [1] * len(linear)
    del linear  # r x r at an abelian group, like the table's own arrays

    # by degree, then by the values in class order: the rows are sorted, so
    # their indices order the values as their coefficient tuples do
    order = np.lexsort(np.vstack([index.T[::-1], [degrees]]))
    degrees = [degrees[i] for i in order]
    index = index[order]
    modular = modular[order]

    assert sum(d * d for d in degrees) == n, "degree squares must sum to |G|"
    one = np.flatnonzero((rows[:, 0] == 1) & ~rows[:, 1:].any(axis=1))  # the row of 1
    trivial = int(np.flatnonzero((index == one).all(axis=1))[0])
    # modular row orthogonality, sum_k h_k chi_i(k) chi_j(k*) = |G| delta_ij:
    # the table's own rows have identity multiplicities
    gram = mul_mod(modular, class_weighted_dual(modular, cd, n, p), p)
    assert np.array_equal(gram, np.eye(r, dtype=np.int64))
    return CharacterTable(
        group=g,
        conj=cd,
        prime=p,
        exponent=e,
        degrees=degrees,
        rows=rows,
        index=index,
        modular=modular,
        trivial_index=trivial,
    )


def _distinct(table: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of table in lexicographic order, and index, which
    points into table, pointed into them."""
    order = np.lexsort(table.T[::-1])
    ordered = table[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    return ordered[new], rank[index]


def _lift(modular: np.ndarray, degrees: list[int], cd: ConjugacyData, p: int):
    """Lift modular character rows to exact cyclotomic values.

    For an element g of order n, xi_n = xi^(e/n) and the DFT over <g> gives,
    for every row at once, the multiplicity m_j of the eigenvalue zeta_n^j:
    m_j = (1/n) sum_t chi(g^t) xi_n^(-jt).  The class of g^t holds
    sum_j m_j zeta_n^(jt), so one DFT per maximal cyclic subgroup serves all
    the classes of its elements, and one product per element order runs the
    DFTs of all those subgroups of that order.

    An entry is keyed by its (exponent, multiplicity) cells in exponent
    order, padded to the largest degree d (a row of degree d has at most d
    cells).  Only keys that no earlier order had are reduced to coefficients,
    each checked once against its residue.  Two keys can be one value
    (1 + zeta_2 = 0 = 1 + zeta_3 + zeta_3^2), so the reduced rows are
    deduplicated again.  Returns the distinct rows in lexicographic order and
    the (rows, classes) index of each entry's row.
    """
    nrows, r = modular.shape
    e = cd.exponent
    phi = euler_phi(e)
    if not nrows:
        return np.zeros((0, phi), dtype=np.int64), np.zeros((0, r), dtype=np.int64)
    xi = pow(_primitive_root(p), (p - 1) // e, p)
    xi_arr = np.array([pow(xi, s, p) for s in range(e)], dtype=np.int64)
    deg = np.array(degrees, dtype=np.int64)
    red = np.array(_power_reductions(e)[:e], dtype=np.int64)  # x^s mod Phi_e
    width = max(degrees)
    radix = width + 1  # a cell codes as s radix + m, 1 <= m <= d; padding is 0
    check_bound(width * int(np.abs(red).max()), "a value's coefficients")
    key_type = np.dtype((np.void, 8 * width))
    row_of_key: dict[bytes, int] = {}
    rows: list[np.ndarray] = []
    index = np.empty((nrows, r), dtype=np.int64)

    # class c is the class of g^power[c] for g in the class source[c], the
    # first class by falling element order that has c among its powers
    order_of = [cd.element_orders[rep] for rep in cd.reps]
    source, power = [-1] * r, [0] * r
    for k in sorted(range(r), key=lambda k: -order_of[k]):
        if source[k] < 0:
            for t, c in enumerate(cd.power_classes(k)):
                if source[c] < 0:
                    source[c], power[c] = k, t
    all_tops = sorted(set(source))
    source, power, order_of = np.array(source), np.array(power), np.array(order_of)
    for nk in sorted(set(order_of[all_tops].tolist())):
        tops = [k for k in all_tops if order_of[k] == nk]
        served = np.flatnonzero(order_of[source] == nk)
        slot = np.zeros(r, dtype=np.int64)
        slot[tops] = np.arange(len(tops))
        top, t = slot[source[served]], power[served]
        step = e // nk
        w = pow(pow(xi, step, p), p - 2, p)
        w_pow = np.array([pow(w, s, p) for s in range(nk)], dtype=np.int64)
        ts = np.arange(nk)
        dft = w_pow[np.outer(ts, ts) % nk] * pow(nk, p - 2, p) % p
        pcs = np.array([cd.power_classes(k) for k in tops])
        mult = mul_mod(modular[:, pcs].reshape(-1, nk), dft, p).reshape(nrows, len(tops), nk)
        over = np.argwhere(mult > deg[:, None, None])
        if over.size:
            i, k, j = over[0]
            raise LiftOutOfRange(f"Fourier coefficient {mult[i, k, j]} exceeds degree {degrees[i]}")
        sums = mult.sum(axis=2)
        if np.any(sums != deg[:, None]):
            i, k = np.argwhere(sums != deg[:, None])[0]
            raise LiftOutOfRange(f"eigenvalue multiplicities sum to {sums[i, k]}, not {degrees[i]}")

        # the cells of every served class: the nonzero multiplicities of its
        # subgroup's DFT, at the eigenvalues zeta_e^s, s = j t step, of g^t
        kz, iz, jz = np.nonzero(mult.transpose(1, 0, 2))  # by subgroup, then row
        count = np.bincount(kz, minlength=len(tops))
        lens = count[top]
        owner = np.repeat(np.arange(served.size), lens)
        at = (np.cumsum(count) - count)[top][owner] + np.arange(lens.sum())
        at -= np.repeat(np.cumsum(lens) - lens, lens)
        iz, jz = iz[at], jz[at]
        # entry = owner nrows + row; merge the j that meet at one exponent
        cells, where = np.unique(
            (owner * nrows + iz) * e + jz * t[owner] % nk * step, return_inverse=True
        )
        ms = np.zeros(cells.size, dtype=np.int64)
        np.add.at(ms, where, mult[iz, kz[at], jz])
        entry, expo = np.divmod(cells, e)
        back = np.zeros(served.size * nrows, dtype=np.int64)
        np.add.at(back, entry, ms * xi_arr[expo] % p)
        mismatch = np.flatnonzero(back % p != modular[:, served].T.ravel())
        if mismatch.size:
            c, i = divmod(int(mismatch[0]), nrows)
            raise LiftOutOfRange(f"eigenvalues of row {i} do not reduce back at class {served[c]}")
        keys = np.zeros((served.size * nrows, width), dtype=np.int64)
        keys[entry, np.arange(cells.size) - np.searchsorted(entry, entry)] = expo * radix + ms
        distinct, inverse = np.unique(keys.view(key_type).ravel(), return_inverse=True)
        ids = np.array([row_of_key.get(key, -1) for key in distinct.tolist()])
        new = np.flatnonzero(ids < 0)
        if new.size:
            code = distinct[new].view(np.int64).reshape(-1, width)
            coeffs = np.zeros((new.size, phi), dtype=np.int64)
            residue = np.zeros(new.size, dtype=np.int64)
            for s, m in zip(*np.divmod(code.T, radix)):
                coeffs += m[:, None] * red[s]
                residue += m * xi_arr[s] % p
            # the reduced coefficients at zeta_e -> xi give the residue of the cells
            assert np.array_equal(residues(p, coeffs, e), residue % p), "lift does not reduce back"
            ids[new] = len(rows) + np.arange(new.size)
            row_of_key.update(zip(distinct[new].tolist(), ids[new].tolist()))
            rows.extend(coeffs)
        index[:, served] = ids[inverse].reshape(served.size, nrows).T
    return _distinct(np.array(rows), index)


# ---------------------------------------------------------------------------
# class functions and selectors


@dataclass(frozen=True)
class Irrep:
    index: int


@dataclass(frozen=True)
class FaithfulSelfDualMinDim:
    pass


@dataclass(frozen=True)
class CharVector:
    mults: tuple[int, ...]


RhoSelector = Union[Irrep, FaithfulSelfDualMinDim, CharVector]


@dataclass(frozen=True)
class Rho:
    """A character: its (r, phi(order)) coefficient rows on the classes of
    its table, whose exponent is `order`, and its multiplicities over the
    irreducibles, which determine the rows."""

    chi: np.ndarray = field(compare=False)
    order: int
    mults: tuple[int, ...]
    dim: int

    @property
    def irreducible(self) -> bool:
        return sum(self.mults) == 1


def resolve_rho(ct: CharacterTable, sel: RhoSelector) -> Rho:
    r = ct.r
    if isinstance(sel, Irrep):
        if not 0 <= sel.index < r:
            raise NoSuchIrrep(f"irreducible index {sel.index} out of range")
        mults = tuple(1 if i == sel.index else 0 for i in range(r))
        chi = ct.rows[ct.index[sel.index]]
        return Rho(chi=chi, order=ct.exponent, mults=mults, dim=ct.degrees[sel.index])
    if isinstance(sel, FaithfulSelfDualMinDim):
        best = None
        for i in range(r):
            if is_faithful(ct, ct.index[i]) and is_self_dual(ct, ct.index[i]):
                key = (ct.degrees[i], i)
                if best is None or key < best:
                    best = key
        if best is None:
            raise SelectorEmpty("no faithful self-dual irreducible exists")
        return resolve_rho(ct, Irrep(best[1]))
    if isinstance(sel, CharVector):
        mults = tuple(sel.mults)
        if len(mults) != r or any(m < 0 for m in mults) or not any(mults):
            raise NoSuchIrrep("multiplicity vector must be nonnegative and nonzero")
        # row k of the weights sums the multiplicities of the irreducibles by
        # their value at class k; int64 while no partial sum can reach 2^63
        used = [i for i, m in enumerate(mults) if m]
        bound = sum(mults) * int(np.abs(ct.rows).max())
        weights = np.zeros((r, len(ct.rows)), dtype=exact_dtype(bound))
        counts = np.array([mults[i] for i in used], dtype=weights.dtype)[:, None]
        np.add.at(weights, (np.arange(r)[None, :], ct.index[used]), counts)
        chi = exact_matmul(weights, ct.rows, bound)
        dim = sum(m * d for m, d in zip(mults, ct.degrees))
        return Rho(chi=chi, order=ct.exponent, mults=mults, dim=dim)
    raise TypeError(f"not a selector: {sel!r}")


def residues(p: int, coeffs: np.ndarray, e: int) -> np.ndarray:
    """Images mod p of cyclotomic values, given by their canonical
    coefficients at order e along the last axis, under zeta_e -> g^((p-1)/e)
    for g = `_primitive_root(p)`: the map `_lift` reduces through.  A table
    whose exponent divides p - 1 (a subgroup's, a quotient's) thereby reduces
    into the field of the larger group."""
    assert (p - 1) % e == 0, f"zeta_{e} is not in F_{p}"
    xi = pow(_primitive_root(p), (p - 1) // e, p)
    powers = np.array([pow(xi, j, p) for j in range(coeffs.shape[-1])], dtype=np.int64)
    flat = (coeffs.reshape(-1, coeffs.shape[-1]) % p).astype(np.int64)
    return mul_mod(flat, powers[:, None], p).reshape(coeffs.shape[:-1])


def multiplicities(ct: CharacterTable, rows: np.ndarray, dims, p: int) -> np.ndarray:
    """Multiplicities over Irr(H), H = ct.group, of characters of H given as
    residue rows mod p on H's classes; dims are their degrees.

    m = rows W mod p, for W the class-weighted dual of H's table mod p, built
    for the call: kept on every cached table, the r x r float64 duals would
    stay resident.
    Lift bound: each row is a genuine character of degree D < p, so each
    multiplicity lies in [0, D] and its residue is the integer.  Exact check:
    sum_t m_t deg psi_t = D for every row, or InternalNonInteger.
    """
    table = ct.modular if p == ct.prime else residues(p, ct.rows, ct.exponent)[ct.index]
    mults = mul_mod(rows, class_weighted_dual(table, ct.conj, ct.group.order, p), p)
    dims = np.asarray(dims, dtype=np.int64)
    bad = np.flatnonzero(mults @ np.array(ct.degrees, dtype=np.int64) != dims)
    if bad.size:
        raise InternalNonInteger(
            f"row {bad[0]} of degree {dims[bad[0]]} is not a character of degree below {p}"
        )
    return mults


def rho_from_class_function(ct: CharacterTable, chi: np.ndarray, order: int) -> Rho:
    """Resolve a character of degree below ct.prime, given by its coefficient
    rows at `order` on ct's classes."""
    row = residues(ct.prime, chi, order)[None]
    mults = multiplicities(ct, row, [int(chi[0, 0])], ct.prime)[0]
    return resolve_rho(ct, CharVector(tuple(mults.tolist())))


def adjacency_matrix(ct: CharacterTable, rho: Rho) -> np.ndarray:
    """Full McKay multiplicity matrix N[i][j] = dim Hom(chi_i (x) rho, chi_j).

    N = sum_m mults_m N_m, where row i of N_m decomposes chi_i chi_m, the
    product of the modular rows.  Its degree d_i d_m <= |G| < p is inside the
    lift bound of `multiplicities` whatever dim rho is; the sum is exact.
    Row i weighted by the degrees sums to d_i dim rho, so every entry, partial
    sum, row sum, the trace and the total are at most sum(d) dim rho: the sum
    is int64 unless that reaches 2^63, and then Python integers.
    """
    p, table = ct.prime, ct.modular
    deg = np.array(ct.degrees, dtype=np.int64)
    total = np.zeros((ct.r, ct.r), dtype=exact_dtype(sum(ct.degrees) * rho.dim))
    for m, count in enumerate(rho.mults):
        if count:
            rows = table * table[m]
            rows %= p
            part = multiplicities(ct, rows, deg * deg[m], p).astype(total.dtype, copy=False)
            part *= count
            total += part
    return total


# A character below is its coefficient rows, or a table row of `index`:
# either way equal values have equal rows.


def kernel_classes(ct: CharacterTable, chi) -> np.ndarray:
    """Mask of the classes where the character attains its identity value."""
    chi = np.asarray(chi).reshape(ct.r, -1)
    return (chi == chi[0]).all(axis=1)


def kernel_of_character(ct: CharacterTable, chi) -> Subgroup:
    """The classes of `kernel_classes`: a kernel is normal, so no closure is needed."""
    at_one = np.flatnonzero(kernel_classes(ct, chi))
    elems = np.sort(np.concatenate([ct.conj.classes[k] for k in at_one]))
    sub = subgroup_on(ct.group, elems)
    assert sub.normal
    return sub


def normal_subgroups(ct: CharacterTable, min_order: int = 1) -> list[Subgroup]:
    """Every normal subgroup of order at least min_order, sorted by (order,
    elements).  Each is an intersection of kernels of irreducible characters
    (Isaacs, Character Theory of Finite Groups, ch. 2), so the class masks of
    the kernels are closed under & one kernel at a time.  A mask below
    min_order is dropped with all it could lead to: intersections only shrink."""
    sizes = np.array(ct.conj.sizes, dtype=np.int64)
    kernels = ct.index == ct.index[:, :1]  # index equality is value equality
    found = [np.ones(ct.r, dtype=bool)]
    seen = {found[0].tobytes()}
    for kernel in kernels:
        meets = np.array(found) & kernel
        for mask in meets[meets @ sizes >= min_order]:
            if mask.tobytes() not in seen:
                seen.add(mask.tobytes())
                found.append(mask)
    found = [mask for mask in found if mask @ sizes >= min_order]  # the seed G, too
    subs = [subgroup_on(ct.group, np.flatnonzero(mask[ct.conj.class_of])) for mask in found]
    assert all(sub.normal for sub in subs)
    return sorted(subs, key=lambda s: (s.order, s.elements))


def is_self_dual(ct: CharacterTable, chi) -> bool:
    chi = np.asarray(chi).reshape(ct.r, -1)
    return bool((chi == chi[ct.conj.inverse_class]).all())


def is_faithful(ct: CharacterTable, chi) -> bool:
    """No non-identity class attains the identity value, so the kernel is trivial."""
    return np.count_nonzero(kernel_classes(ct, chi)) == 1
