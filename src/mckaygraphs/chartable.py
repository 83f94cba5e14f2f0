"""Exact character tables via the modular class-algebra method.

The table is computed over F_p for a prime p = 1 (mod exponent), p > 2|G|:
the class-sum matrices are simultaneously diagonalized, degrees are recovered
from the orthogonality relation, and values are lifted to exact cyclotomic
integers through a discrete Fourier step over each cyclic subgroup.  No
floating point is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Optional, Union

import numpy as np

from .cyclotomic import CycInt
from .groups import ConjugacyData, FiniteGroup, Subgroup, conjugacy, subgroup_on
from .modp import FpMatrix, simultaneous_split


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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    q = 2
    while q * q <= n:
        if n % q == 0:
            return False
        q += 1
    return True


def dixon_prime(order: int, exponent: int) -> int:
    """Smallest prime p = 1 (mod exponent) with p > 2*order."""
    k = max(1, (2 * order + exponent - 1) // exponent)
    while k < 10**7:
        p = k * exponent + 1
        if p > 2 * order and _is_prime(p):
            return p
        k += 1
    raise NoSuitablePrime(f"no prime = 1 mod {exponent} above {2 * order} found")


def _primitive_root(p: int) -> int:
    if p == 2:
        return 1
    factors = []
    m = p - 1
    q = 2
    while q * q <= m:
        if m % q == 0:
            factors.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        factors.append(m)
    for r in range(2, p):
        if all(pow(r, (p - 1) // q, p) != 1 for q in factors):
            return r
    raise AssertionError("no primitive root")


@dataclass
class CharacterTable:
    group: FiniteGroup
    conj: ConjugacyData
    prime: int
    exponent: int
    degrees: list[int]
    values: list[tuple[CycInt, ...]]  # irreducible x class
    modular: np.ndarray  # (r, r) residues mod prime
    trivial_index: int

    @property
    def r(self) -> int:
        return len(self.degrees)

    @property
    def modular_values(self) -> FpMatrix:
        return FpMatrix(self.prime, self.modular)

    def value(self, i: int, k: int) -> CycInt:
        return self.values[i][k]

    def dual_index(self, i: int) -> int:
        """Index of the contragredient irreducible."""
        inv = self.conj.inverse_class
        target = tuple(self.values[i][inv[k]] for k in range(self.r))
        for j in range(self.r):
            if self.values[j] == target:
                return j
        raise AssertionError("dual character missing from the table")


def _class_matrix(g: FiniteGroup, cd: ConjugacyData, i: int) -> np.ndarray:
    """Matrix of multiplication by the i-th class sum, oriented so that the
    vectors (omega(c_k))_k of central characters are column eigenvectors."""
    r = cd.r
    mat = np.zeros((r, r), dtype=np.int64)
    cls = cd.classes[i]
    inv = g.inv
    for k in range(r):
        zk = cd.reps[k]
        # row k over j counts {x in C_i : x^-1 z_k in C_j}
        cols = g.mul[inv[cls], zk]
        mat[k] = np.bincount(cd.class_of[cols], minlength=r)
    return mat.T


def compute_character_table(g: FiniteGroup, cd: Optional[ConjugacyData] = None) -> CharacterTable:
    cd = cd or conjugacy(g)
    n = g.order
    r = cd.r
    e = cd.exponent
    p = dixon_prime(n, e)
    h = np.array(cd.sizes, dtype=np.int64)
    invmap = cd.inverse_class

    def matrices():
        for i in range(1, r):
            yield FpMatrix(p, _class_matrix(g, cd, i) % p)

    vectors = simultaneous_split(matrices(), p=p, dim=r)
    assert len(vectors) == r

    xi = pow(_primitive_root(p), (p - 1) // e, p)
    rows = []
    for vec in vectors:
        assert vec[0] % p != 0, "eigenvector vanishes at the identity class"
        scale = pow(int(vec[0]), p - 2, p)
        omega = [(int(v) * scale) % p for v in vec]
        total = 0
        for k in range(r):
            total += omega[k] * omega[invmap[k]] * pow(int(h[k]), p - 2, p)
        total %= p
        dsq = n * pow(total, p - 2, p) % p
        cands = [d for d in range(1, isqrt(n) + 1) if d * d % p == dsq]
        assert len(cands) == 1, f"degree not unique from d^2 = {dsq} mod {p}"
        d = cands[0]
        modrow = [
            d * omega[k] % p * pow(int(h[k]), p - 2, p) % p for k in range(r)
        ]
        lifted = _lift_row(modrow, d, cd, e, p, xi)
        rows.append((d, lifted, modrow))

    rows.sort(key=lambda t: (t[0], tuple(v.coeffs for v in t[1])))
    degrees = [t[0] for t in rows]
    values = [tuple(t[1]) for t in rows]
    modular = np.array([t[2] for t in rows], dtype=np.int64)

    assert sum(d * d for d in degrees) == n, "degree squares must sum to |G|"
    one = CycInt.one()
    trivial = next(
        i for i in range(r) if degrees[i] == 1 and all(v == one for v in values[i])
    )
    # modular row orthogonality: sum_k h_k chi_i(k) chi_j(k*) = |G| delta_ij
    gram = (modular * h[None, :]) @ modular[:, invmap].T % p
    assert np.array_equal(gram, (n % p) * np.eye(r, dtype=np.int64) % p)
    return CharacterTable(
        group=g,
        conj=cd,
        prime=p,
        exponent=e,
        degrees=degrees,
        values=values,
        modular=modular,
        trivial_index=trivial,
    )


def _lift_row(modrow, d: int, cd: ConjugacyData, e: int, p: int, xi: int):
    """Lift one modular character row to exact cyclotomic values."""
    r = cd.r
    out = []
    for k in range(r):
        nk = cd.element_orders[cd.reps[k]]
        pc = cd.power_classes(k)
        xik = pow(xi, e // nk, p)
        xik_inv = pow(xik, p - 2, p)
        nk_inv = pow(nk, p - 2, p)
        coeffs = [0] * e
        total = 0
        for j in range(nk):
            acc = 0
            w = pow(xik_inv, j, p)
            term = 1
            for t in range(nk):
                acc = (acc + modrow[pc[t]] * term) % p
                term = term * w % p
            m = acc * nk_inv % p
            if m > d:
                raise LiftOutOfRange(
                    f"Fourier coefficient {m} exceeds the degree bound {d}"
                )
            if m:
                coeffs[(j * (e // nk)) % e] = m
                total += m
        if total != d:
            raise LiftOutOfRange(
                f"eigenvalue multiplicities sum to {total}, expected {d}"
            )
        val = CycInt(e, coeffs)
        # round trip: evaluating at zeta_e -> xi must return the modular value
        check = 0
        for t, c in enumerate(val.coeffs):
            if c:
                check = (check + c * pow(xi, t, p)) % p
        assert check == modrow[k] % p, "cyclotomic lift does not reduce back"
        out.append(val)
    return out


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
    chi: tuple[CycInt, ...]
    mults: tuple[int, ...]
    dim: int

    @property
    def irreducible(self) -> bool:
        return sum(self.mults) == 1


def char_inner(ct: CharacterTable, chi1, chi2) -> int:
    """Exact inner product <chi1, chi2> = (1/|G|) sum_k h_k chi1(k) chi2(k^-1)."""
    cd = ct.conj
    total = CycInt.zero()
    for k in range(ct.r):
        total = total + chi1[k] * chi2[cd.inverse_class[k]] * cd.sizes[k]
    total = total.exact_div(ct.group.order)
    val = total.as_integer()
    if val is None:
        raise InternalNonInteger("inner product is not a rational integer")
    return val


def decompose_character(ct: CharacterTable, chi) -> tuple[int, ...]:
    return tuple(char_inner(ct, chi, ct.values[i]) for i in range(ct.r))


def resolve_rho(ct: CharacterTable, sel: RhoSelector) -> Rho:
    r = ct.r
    if isinstance(sel, Irrep):
        if not 0 <= sel.index < r:
            raise NoSuchIrrep(f"irreducible index {sel.index} out of range")
        mults = tuple(1 if i == sel.index else 0 for i in range(r))
        return Rho(chi=ct.values[sel.index], mults=mults, dim=ct.degrees[sel.index])
    if isinstance(sel, FaithfulSelfDualMinDim):
        best = None
        for i in range(r):
            chi = ct.values[i]
            if is_faithful(ct, chi) and is_self_dual(ct, chi):
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
        chi = []
        for k in range(r):
            acc = CycInt.zero()
            for i, m in enumerate(mults):
                if m:
                    acc = acc + ct.values[i][k] * m
            chi.append(acc)
        dim = sum(m * d for m, d in zip(mults, ct.degrees))
        return Rho(chi=tuple(chi), mults=mults, dim=dim)
    raise TypeError(f"not a selector: {sel!r}")


def rho_from_class_function(ct: CharacterTable, chi) -> Rho:
    """Resolve an explicit character vector to its multiplicities."""
    mults = decompose_character(ct, chi)
    if any(m < 0 for m in mults):
        raise InternalNonInteger("class function is not a genuine character")
    return resolve_rho(ct, CharVector(mults))


def tensor_multiplicity(ct: CharacterTable, i: int, rho, j: int) -> int:
    """dim Hom(chi_i (x) rho, chi_j), exactly."""
    chi_rho = rho.chi if isinstance(rho, Rho) else rho
    cd = ct.conj
    total = CycInt.zero()
    for k in range(ct.r):
        total = (
            total
            + ct.values[i][k] * chi_rho[k] * ct.values[j][cd.inverse_class[k]] * cd.sizes[k]
        )
    total = total.exact_div(ct.group.order)
    val = total.as_integer()
    if val is None or val < 0:
        raise InternalNonInteger(f"tensor multiplicity came out as {total!r}")
    return val


def adjacency_matrix(ct: CharacterTable, rho: Rho) -> list[list[int]]:
    """Full McKay multiplicity matrix N[i][j] = dim Hom(chi_i (x) rho, chi_j).

    N = M diag(h rho_mod) M[:, inv]^T / |G| mod p for the modular table M.
    Since 0 <= N_ij <= d_i dim rho, the residue is the integer whenever
    max(d) dim rho < p; past that bound every entry is computed exactly.
    """
    r, p = ct.r, ct.prime
    if max(ct.degrees) * rho.dim >= p or r * p * p >= 2**63:
        return [[tensor_multiplicity(ct, i, rho, j) for j in range(r)] for i in range(r)]
    cd = ct.conj
    m = ct.modular
    rho_mod = np.array(rho.mults, dtype=np.int64) % p @ m % p
    weight = np.array(cd.sizes, dtype=np.int64) * rho_mod % p
    num = (m * weight[None, :] % p) @ m[:, cd.inverse_class].T % p
    return (num * pow(ct.group.order, p - 2, p) % p).tolist()


def kernel_of_character(ct: CharacterTable, chi) -> Subgroup:
    """Union of the classes where the character attains its identity value;
    a character kernel is a normal subgroup, so no closure is needed."""
    cd = ct.conj
    top = chi[0]
    elems = np.sort(np.concatenate([cd.classes[k] for k in range(ct.r) if chi[k] == top]))
    sub = subgroup_on(ct.group, elems)
    assert sub.normal
    return sub


def is_self_dual(ct: CharacterTable, chi) -> bool:
    inv = ct.conj.inverse_class
    return all(chi[k] == chi[inv[k]] for k in range(ct.r))


def is_faithful(ct: CharacterTable, chi) -> bool:
    """No non-identity class attains the identity value, so the kernel is trivial."""
    return all(chi[k] != chi[0] for k in range(1, ct.r))


def restrict_character(ct: CharacterTable, sub: Subgroup, sub_cd: ConjugacyData, chi):
    """Class function on the subgroup obtained by restricting chi."""
    parent_class = ct.conj.class_of
    vals = []
    for rep in sub_cd.reps:
        parent_elem = sub.to_parent(rep)
        vals.append(chi[int(parent_class[parent_elem])])
    return tuple(vals)


def restriction_multiplicities(
    ct: CharacterTable, sub: Subgroup, sub_ct: CharacterTable, chi
) -> tuple[int, ...]:
    """Multiplicities of the restriction of chi over Irr(sub)."""
    restricted = restrict_character(ct, sub, sub_ct.conj, chi)
    return decompose_character(sub_ct, restricted)
