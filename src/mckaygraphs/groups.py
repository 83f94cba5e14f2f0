"""Finite groups from carriers, closed into indexed Cayley tables.

Every construction ends in the same indexed form (order, mul table, inverses),
so conjugacy classes, subgroups and character tables downstream never care how
a group was built.  Element 0 is always the identity and indexing is
deterministic for a fixed spec (breadth-first closure with a fixed generator
order).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product as iproduct
from math import gcd, lcm
from typing import Optional, Union

import numpy as np

from .cyclotomic import _primitive_root

DEFAULT_ORDER_CAP = 1024


class GroupBuildError(Exception):
    pass


class OrderCapExceeded(GroupBuildError):
    pass


class ClosureDiverged(GroupBuildError):
    pass


class InvalidAction(GroupBuildError):
    pass


class NotNormal(GroupBuildError):
    pass


class SubgroupNotFound(GroupBuildError):
    pass


def order_cap() -> int:
    raw = os.environ.get("MCKAY_ORDER_CAP", str(DEFAULT_ORDER_CAP))
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise GroupBuildError(f"MCKAY_ORDER_CAP must be a positive integer, got {raw!r}")
    return int(raw)


# ---------------------------------------------------------------------------
# group specs


@dataclass(frozen=True)
class Cyclic:
    n: int


@dataclass(frozen=True)
class Dihedral:
    n: int


@dataclass(frozen=True)
class BinaryDihedral:
    n: int


@dataclass(frozen=True)
class BinaryPoly:
    kind: str  # "T" | "O" | "I"


@dataclass(frozen=True)
class Extraspecial2:
    n: int
    variant: str  # "+" | "-"


@dataclass(frozen=True)
class Heisenberg:
    p: int
    n: int


@dataclass(frozen=True)
class ElemAb:
    p: int
    n: int


@dataclass(frozen=True)
class Product:
    left: "GroupSpec"
    right: "GroupSpec"


@dataclass(frozen=True)
class Semidirect:
    group: "GroupSpec"
    kernel: "GroupSpec"


GroupSpec = Union[
    Cyclic,
    Dihedral,
    BinaryDihedral,
    BinaryPoly,
    Extraspecial2,
    Heisenberg,
    ElemAb,
    Product,
    Semidirect,
]

_BINARY_ORDERS = {"T": 24, "O": 48, "I": 120}


def spec_text(spec: GroupSpec) -> str:
    if isinstance(spec, Cyclic):
        return f"cyclic:{spec.n}"
    if isinstance(spec, Dihedral):
        return f"dihedral:{spec.n}"
    if isinstance(spec, BinaryDihedral):
        return f"bindihedral:{spec.n}"
    if isinstance(spec, BinaryPoly):
        return f"binary:{spec.kind}"
    if isinstance(spec, Extraspecial2):
        return f"extraspecial:{spec.variant}:{spec.n}"
    if isinstance(spec, Heisenberg):
        return f"heis:{spec.p}:{spec.n}"
    if isinstance(spec, ElemAb):
        return f"elemab:{spec.p}:{spec.n}"
    if isinstance(spec, Product):
        return f"product({spec_text(spec.left)},{spec_text(spec.right)})"
    if isinstance(spec, Semidirect):
        return f"semidirect({spec_text(spec.group)},{spec_text(spec.kernel)})"
    raise TypeError(f"not a group spec: {spec!r}")


def expanded_order(spec: GroupSpec) -> int:
    if isinstance(spec, Cyclic):
        return spec.n
    if isinstance(spec, Dihedral):
        return 2 * spec.n
    if isinstance(spec, BinaryDihedral):
        return 4 * spec.n
    if isinstance(spec, BinaryPoly):
        return _BINARY_ORDERS[spec.kind]
    if isinstance(spec, Extraspecial2):
        return 2 ** (1 + 2 * spec.n)
    if isinstance(spec, Heisenberg):
        return spec.p ** (1 + 2 * spec.n)
    if isinstance(spec, ElemAb):
        return spec.p**spec.n
    if isinstance(spec, Product):
        return expanded_order(spec.left) * expanded_order(spec.right)
    if isinstance(spec, Semidirect):
        return expanded_order(spec.group) * expanded_order(spec.kernel)
    raise TypeError(f"not a group spec: {spec!r}")


# ---------------------------------------------------------------------------
# the indexed group


@dataclass
class FiniteGroup:
    order: int
    mul: np.ndarray  # (n, n) Cayley table of element indices
    inv: np.ndarray  # (n,)
    carrier: str
    element_names: list[str]
    payload: object = None  # carrier-specific element data

    @cached_property
    def element_orders(self) -> np.ndarray:
        """Order of every element, from one sweep y <- y x over all x at once."""
        orders = np.empty(self.order, dtype=np.int64)
        x = np.arange(self.order)
        y, k = x, 1
        while x.size:
            done = y == 0
            orders[x[done]] = k
            x, y = x[~done], y[~done]
            y, k = self.mul[y, x], k + 1
        return orders

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    def validate(self) -> None:
        """Latin square, identity, inverses, and Light's associativity test over
        a generating set S: the s with (xs)y = x(sy) for all x, y are closed
        under products, so if S passes, every element of the table does.  The
        sorts and gathers run over blocks of rows, or of columns, so no
        temporary is larger than a block."""
        n = self.order
        mul = self.mul
        idx = np.arange(n)
        assert np.array_equal(mul[0], idx) and np.array_equal(mul[:, 0], idx)
        blocks = _row_blocks(n)
        for block in blocks:
            assert np.all(np.sort(mul[block], axis=1) == idx), "not a Latin square: rows"
            assert np.all(np.sort(mul[:, block], axis=0) == idx[:, None]), "not a Latin square: columns"
        assert np.all(mul[idx, self.inv] == 0) and np.all(mul[self.inv, idx] == 0)
        for s in _greedy_generators(self):
            col, row = mul[:, s], mul[s]
            for block in blocks:
                # rows x of (xs)y and of x(sy); take gathers columns faster than indexing
                left, right = mul[col[block]], np.take(mul[block], row, axis=1)
                assert np.array_equal(left, right), "associativity failed"


# about 2^16 entries per block, so a block's sort or gather allocates about
# 0.5 MB however large the table
_BLOCK_ENTRIES = 2**16


def _row_blocks(n: int) -> list[slice]:
    """Consecutive rows of an n x n array, about _BLOCK_ENTRIES entries a block."""
    step = max(1, _BLOCK_ENTRIES // n)
    return [slice(i, i + step) for i in range(0, n, step)]


def _inverses_from_table(mul: np.ndarray) -> np.ndarray:
    return np.argmax(mul == 0, axis=1).astype(np.int32)


# ---------------------------------------------------------------------------
# breadth-first closure


def _close_and_build(gens, carrier: str, cap: int, mulfun, namer=None) -> FiniteGroup:
    # identity = gens[0]^ord(gens[0]): walk powers until the walk returns
    x = gens[0]
    power = x
    while True:
        nxt = mulfun(power, x)
        if nxt == x:
            ident = power
            break
        power = nxt

    elems = [ident]
    index = {ident: 0}
    parents: list[tuple[int, int]] = [(-1, -1)]
    i = 0
    while i < len(elems):
        cur = elems[i]
        for gi, g in enumerate(gens):
            y = mulfun(cur, g)
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
                parents.append((i, gi))
                if len(elems) > cap:
                    raise ClosureDiverged(
                        f"closure of {carrier} exceeded the cap {cap}"
                    )
        i += 1

    n = len(elems)
    mul = np.empty((n, n), dtype=np.int32)
    mul[0] = np.arange(n, dtype=np.int32)
    gen_rows = {}
    for gi, g in enumerate(gens):
        gen_rows[gi] = np.array([index[mulfun(g, h)] for h in elems], dtype=np.int32)
    for y in range(1, n):
        px, gi = parents[y]
        mul[y] = mul[px][gen_rows[gi]]

    words: list[tuple[int, ...]] = [()] * n
    for y in range(1, n):
        px, gi = parents[y]
        words[y] = words[px] + (gi,)
    letters = "abcdefgh"
    if namer is None:
        names = ["e"] + ["".join(letters[gi] for gi in words[y]) for y in range(1, n)]
    else:
        names = [namer(el) for el in elems]
    return FiniteGroup(
        order=n,
        mul=mul,
        inv=_inverses_from_table(mul),
        carrier=carrier,
        element_names=names,
        payload=elems,
    )


# ---------------------------------------------------------------------------
# carrier builders


def _cyclic_table(n: int) -> np.ndarray:
    idx = np.arange(n, dtype=np.int32)
    mul = idx[:, None] + idx
    mul %= n
    return mul


def _product_table(amul: np.ndarray, bmul: np.ndarray) -> np.ndarray:
    """The table of A x B on the indices x |B| + y, written into one int32 array."""
    na, nb = len(amul), len(bmul)
    mul = np.empty((na, nb, na, nb), dtype=np.int32)
    np.add((amul * nb)[:, None, :, None], bmul[None, :, None, :], out=mul)
    return mul.reshape(na * nb, na * nb)


def _build_cyclic(n: int) -> FiniteGroup:
    idx = np.arange(n, dtype=np.int32)
    names = ["e"] + [f"g^{k}" if k > 1 else "g" for k in range(1, n)]
    return FiniteGroup(
        order=n,
        mul=_cyclic_table(n),
        inv=(-idx) % n,
        carrier=f"cyclic:{n}",
        element_names=names,
        payload=list(range(n)),
    )


def _build_dihedral(n: int) -> FiniteGroup:
    # elements (k, eps) = r^k s^eps with s r s = r^-1
    def mulfun(x, y):
        (k1, e1), (k2, e2) = x, y
        return ((k1 + (k2 if e1 == 0 else -k2)) % n, (e1 + e2) % 2)

    def namer(x):
        k, e = x
        rot = "e" if k == 0 else ("r" if k == 1 else f"r^{k}")
        if e == 0:
            return rot
        return "s" if k == 0 else f"{rot}*s"

    gens = [(1 % n, 0), (0, 1)] if n > 1 else [(0, 1)]
    return _close_and_build(gens, f"dihedral:{n}", cap=2 * n, mulfun=mulfun, namer=namer)


def _build_bindihedral(n: int) -> FiniteGroup:
    # elements (k, eps) = a^k x^eps with a of order 2n, x a x^-1 = a^-1, x^2 = a^n
    e = 2 * n

    def mulfun(x, y):
        (k1, e1), (k2, e2) = x, y
        return ((k1 + (k2 if e1 == 0 else -k2) + n * e1 * e2) % e, (e1 + e2) % 2)

    return _close_and_build([(1, 0), (0, 1)], f"bindihedral:{n}", cap=4 * n, mulfun=mulfun)


# The binary polyhedral carriers are quaternion matrices [[a+bi, c+di], [-c+di, a-bi]]
# over F_41, as row tuples of residues.  41 = 1 (mod 40), so zeta_4, zeta_8,
# zeta_20 and 1/2 exist mod 41, and reduction mod 41 is injective on these
# groups because 41 divides none of their orders (24, 48, 120).
_QUAT_P = 41


def _zeta(m: int, k: int = 1) -> int:
    """zeta_m^k in F_41 for m | 40, as a power of one primitive root, so the
    roots of different orders are compatible (zeta_20^5 = zeta_4)."""
    return pow(_primitive_root(_QUAT_P), (_QUAT_P - 1) // m * k, _QUAT_P)


def _quat(a: int, b: int, c: int, d: int, den: int = 1):
    """Quaternion (a + bi + cj + dk) / den as a 2x2 matrix over F_41."""
    i, s = _zeta(4), pow(den, -1, _QUAT_P)
    return (
        ((a + b * i) * s % _QUAT_P, (c + d * i) * s % _QUAT_P),
        ((-c + d * i) * s % _QUAT_P, (a - b * i) * s % _QUAT_P),
    )


def _mat_mul_mod(a, b, p: int):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n))
        for i in range(n)
    )


def _build_binary(kind: str) -> FiniteGroup:
    if kind == "T":
        gens = [_quat(0, 1, 0, 0), _quat(0, 0, 1, 0), _quat(-1, 1, 1, 1, den=2)]
    elif kind == "O":
        gens = [
            _quat(0, 1, 0, 0),
            _quat(0, 0, 1, 0),
            _quat(-1, 1, 1, 1, den=2),
            ((_zeta(8), 0), (0, _zeta(8, 7))),
        ]
    elif kind == "I":
        phi = 1 + _zeta(20, 4) + _zeta(20, 16)  # golden ratio
        gens = [_quat(-1, 1, 1, 1, den=2), _quat(phi, phi - 1, 1, 0, den=2)]
    else:
        raise ValueError(f"unknown binary polyhedral kind {kind!r}")
    g = _close_and_build(
        gens,
        f"binary:{kind}",
        cap=_BINARY_ORDERS[kind],
        mulfun=lambda x, y: _mat_mul_mod(x, y, _QUAT_P),
    )
    assert g.order == _BINARY_ORDERS[kind], (
        f"binary:{kind} closed to order {g.order}, expected {_BINARY_ORDERS[kind]}"
    )
    return g


def _digits(p: int, n: int) -> np.ndarray:
    """The p^n vectors of F_p^n in lexicographic order, one row each."""
    return np.arange(p**n)[:, None] // p ** np.arange(n - 1, -1, -1) % p


def _elemab_table(p: int, n: int) -> np.ndarray:
    """F_p^n in lexicographic order as Z_p x F_p^(n-1), one digit at a time;
    each table is p^2 times the size of the one before."""
    mul, cyc = np.zeros((1, 1), dtype=np.int32), _cyclic_table(p)
    for _ in range(n):
        mul = _product_table(cyc, mul)
    return mul


def _build_elemab(p: int, n: int) -> FiniteGroup:
    digits = _digits(p, n)
    elems = [tuple(v) for v in digits.tolist()]
    weights = p ** np.arange(n - 1, -1, -1)
    return FiniteGroup(
        order=p**n,
        mul=_elemab_table(p, n),
        inv=((-digits) % p @ weights).astype(np.int32),
        carrier=f"elemab:{p}:{n}",
        element_names=[str(v) for v in elems],
        payload=elems,
    )


def _build_heisenberg(p: int, n: int) -> FiniteGroup:
    digits = _digits(p, n)
    vecs = [tuple(v) for v in digits.tolist()]
    elems = [(a, b, c) for a in vecs for b in vecs for c in range(p)]
    # (a1, b1, c1)(a2, b2, c2) = (a1 + a2, b1 + b2, c1 + c2 + a1.b2), digits mod p,
    # on the axes (a1, b1, c1, a2, b2, c2) of the index (a q + b) p + c
    q, size = len(vecs), len(elems)
    vadd, c = _elemab_table(p, n), np.arange(p)
    central = (digits @ digits.T)[:, None, :, None] + c[:, None, None] + c  # (a1, c1, b2, c2)
    mul = np.empty((q, q, p, q, q, p), dtype=np.int32)
    np.add((vadd * (q * p))[:, None, None, :, None, None], (vadd * p)[None, :, None, None, :, None], out=mul)
    mul += central[:, None, :, None, :, :] % p
    mul = mul.reshape(size, size)
    return FiniteGroup(
        order=size,
        mul=mul,
        inv=_inverses_from_table(mul),
        carrier=f"heis:{p}:{n}",
        element_names=[f"{a}|{b}|{c}" for a, b, c in elems],
        payload=elems,
    )


def build_product(a: FiniteGroup, b: FiniteGroup, carrier: Optional[str] = None) -> FiniteGroup:
    n = a.order * b.order
    names = [
        f"({x},{y})" for x in a.element_names for y in b.element_names
    ]
    return FiniteGroup(
        order=n,
        mul=_product_table(a.mul, b.mul),
        inv=(a.inv[:, None] * b.order + b.inv).reshape(n).astype(np.int32),
        carrier=carrier or f"product({a.carrier},{b.carrier})",
        element_names=names,
    )


def build_semidirect(
    g: FiniteGroup,
    k: FiniteGroup,
    action: list[np.ndarray],
    carrier: Optional[str] = None,
) -> FiniteGroup:
    """G acting on an abelian kernel K; action[x] is the permutation of K
    induced by conjugation with the element x of G.  A homomorphism into the
    bijections of K sends the identity to the identity, so that needs no check.
    Every image is checked at once: a bijection, then an automorphism, then
    the homomorphism property on all pairs of acting elements."""
    ng, nk = g.order, k.order
    if len(action) != ng:
        raise InvalidAction("need one kernel automorphism per acting element")
    if not k.is_abelian():
        raise InvalidAction("kernel must be abelian")
    if any(np.shape(perm) != (nk,) for perm in action):
        raise InvalidAction("action image is not a bijection")
    act = np.asarray(action)
    if not (np.sort(act, axis=1) == np.arange(nk)).all():
        raise InvalidAction("action image is not a bijection")
    if not np.array_equal(act[:, k.mul], k.mul[act[:, :, None], act[:, None, :]]):
        raise InvalidAction("action image is not an automorphism")
    # (x, y, i) -> alpha_xy(i) against alpha_x(alpha_y(i))
    if not np.array_equal(act[g.mul], act[np.arange(ng)[:, None, None], act[None]]):
        raise InvalidAction("action is not a homomorphism")

    n = ng * nk
    # (a, i)(b, j) = (ab, alpha_{b^-1}(i) j): row block a, column block b
    twist = k.mul[act[g.inv]].transpose(1, 0, 2)  # (i, b, j) -> alpha_{b^-1}(i) * j
    mul = np.empty((ng, nk, ng, nk), dtype=np.int32)
    np.add((g.mul * nk)[:, None, :, None], twist[None], out=mul)
    mul = mul.reshape(n, n)
    names = [f"({x};{y})" for x in g.element_names for y in k.element_names]
    return FiniteGroup(
        order=n,
        mul=mul,
        inv=_inverses_from_table(mul),
        carrier=carrier or f"semidirect({g.carrier},{k.carrier})",
        element_names=names,
    )


# ---------------------------------------------------------------------------
# conjugacy structure


@dataclass
class ConjugacyData:
    group: FiniteGroup
    classes: list[np.ndarray]
    class_of: np.ndarray
    sizes: list[int]
    reps: list[int]
    inverse_class: list[int]
    element_orders: list[int]
    exponent: int
    center: list[int]
    _power_classes: dict = field(default_factory=dict, repr=False)

    @property
    def r(self) -> int:
        return len(self.classes)

    def power_classes(self, class_index: int) -> list[int]:
        """Classes of rep^t for t in [0, order of rep)."""
        cached = self._power_classes.get(class_index)
        if cached is None:
            g = self.group
            rep = self.reps[class_index]
            out, x = [], 0
            for _ in range(self.element_orders[rep]):
                out.append(int(self.class_of[x]))
                x = int(g.mul[x, rep])
            cached = out
            self._power_classes[class_index] = cached
        return cached


def conjugacy(g: FiniteGroup) -> ConjugacyData:
    n = g.order
    mul, inv = g.mul, g.inv
    class_of = np.full(n, -1, dtype=np.int32)
    classes: list[np.ndarray] = []
    for x in range(n):
        if class_of[x] >= 0:
            continue
        # the orbit, sorted, from a mask: a plain np.unique imports numpy.ma
        class_of[mul[mul[:, x], inv]] = len(classes)
        classes.append(np.flatnonzero(class_of == len(classes)))
    reps = [int(cl[0]) for cl in classes]
    orders = g.element_orders.tolist()
    center = sorted(int(cl[0]) for cl in classes if len(cl) == 1)
    return ConjugacyData(
        group=g,
        classes=classes,
        class_of=class_of,
        sizes=[len(cl) for cl in classes],
        reps=reps,
        inverse_class=[int(class_of[inv[rep]]) for rep in reps],
        element_orders=orders,
        exponent=lcm(*set(orders)),
        center=center,
    )


# ---------------------------------------------------------------------------
# subgroups and quotients


@dataclass
class Subgroup:
    parent: FiniteGroup
    elements: tuple[int, ...]
    normal: bool
    group: FiniteGroup  # induced group on the sorted elements

    @property
    def order(self) -> int:
        return len(self.elements)


def _close(g: FiniteGroup, inside: np.ndarray) -> np.ndarray:
    """The elements of the subgroup generated by the mask `inside`, which it
    marks in place: products of the member set with itself, a block of rows
    at a time, until it stops growing (in a finite group that also closes
    inverses)."""
    inside[0] = True
    while True:
        arr = np.flatnonzero(inside)
        for block in _row_blocks(len(arr)):
            inside[g.mul[np.ix_(arr[block], arr)]] = True
        if inside.sum() == len(arr):
            return arr


def subgroup_from_elements(g: FiniteGroup, elems) -> Subgroup:
    """The subgroup generated by elems."""
    inside = np.zeros(g.order, dtype=bool)
    inside[np.asarray(elems, dtype=np.int64)] = True
    return subgroup_on(g, _close(g, inside))


def subgroup_on(g: FiniteGroup, arr: np.ndarray) -> Subgroup:
    """Subgroup on a sorted element array that is already closed (asserted)."""
    mul, inv = g.mul, g.inv
    inside = np.zeros(g.order, dtype=bool)
    inside[arr] = True
    # x h x^-1 for every x in G and h in arr: one (n, |H|) gather
    normal = bool(np.all(inside[mul[mul[:, arr], inv[:, None]]]))
    local = np.full(g.order, -1, dtype=np.int32)
    local[arr] = np.arange(len(arr), dtype=np.int32)
    sub_mul = local[mul[np.ix_(arr, arr)]]
    assert np.all(sub_mul >= 0), "element set is not closed"
    sorted_elems = tuple(int(x) for x in arr)
    induced = FiniteGroup(
        order=len(arr),
        mul=sub_mul.astype(np.int32),
        inv=_inverses_from_table(sub_mul),
        carrier=f"{g.carrier}|sub{len(arr)}",
        element_names=[g.element_names[i] for i in sorted_elems],
    )
    return Subgroup(parent=g, elements=sorted_elems, normal=normal, group=induced)


def quotient_group(g: FiniteGroup, sub: Subgroup) -> tuple[FiniteGroup, np.ndarray]:
    """Coset group G/N plus the projection element -> coset index."""
    if not sub.normal:
        raise NotNormal(f"subgroup of order {sub.order} is not normal")
    narr = np.array(sub.elements)
    rep_of = np.min(g.mul[narr, :], axis=0)
    is_rep = np.zeros(g.order, dtype=bool)
    is_rep[rep_of] = True
    reps = np.flatnonzero(is_rep)
    coset_of = np.searchsorted(reps, rep_of).astype(np.int32)
    qmul = coset_of[g.mul[np.ix_(reps, reps)]]
    grp = FiniteGroup(
        order=len(reps),
        mul=qmul.astype(np.int32),
        inv=_inverses_from_table(qmul),
        carrier=f"{g.carrier}/N{sub.order}",
        element_names=[f"[{g.element_names[int(r)]}]" for r in reps],
    )
    return grp, coset_of


def commutator_subgroup(g: FiniteGroup, cd: ConjugacyData) -> Subgroup:
    """G', generated by the classes of the products c y, for y a class
    representative and c in the class of y^-1: c = x y^-1 x^-1 makes c y a
    commutator, and every commutator is conjugate to one of them.  That is n
    products where the commutators are n^2."""
    # c lies in the class of y^-1 for y the representative of the class of c^-1
    prods = g.mul[np.arange(g.order), np.asarray(cd.reps)[cd.class_of[g.inv]]]
    hit = np.zeros(cd.r, dtype=bool)
    hit[cd.class_of[prods]] = True
    return subgroup_on(g, _close(g, hit[cd.class_of]))


# ---------------------------------------------------------------------------
# central products and the extraspecial catalog


def central_product(a: FiniteGroup, b: FiniteGroup, carrier: str) -> FiniteGroup:
    """(A x B) / <(z_A, z_B)> for the unique central involutions z_A, z_B,
    built on coset representatives without A x B: the coset of (x, y), at
    index x |B| + y, is {(x, y), (x z_A, y z_B)}.  Its least index is its
    representative, and the representatives in index order are the quotient's
    elements, as quotient_group numbers them."""

    def central_involution(grp: FiniteGroup) -> int:
        cands = [
            int(x)
            for x in np.flatnonzero(grp.element_orders == 2)
            if np.array_equal(grp.mul[:, x], grp.mul[x, :])
        ]
        assert len(cands) == 1, "factor must have center of order 2"
        return cands[0]

    za, zb = central_involution(a), central_involution(b)
    nb = b.order
    partner = (a.mul[:, za, None] * nb + b.mul[:, zb]).ravel()
    reps = np.flatnonzero(np.arange(len(partner)) < partner)
    m = len(reps)
    coset_of = np.empty(len(partner), dtype=np.int32)
    coset_of[reps] = coset_of[partner[reps]] = np.arange(m, dtype=np.int32)
    ra, rb = np.divmod(reps, nb)
    qmul = np.empty((m, m), dtype=np.int32)
    for block in _row_blocks(m):
        qmul[block] = coset_of[a.mul[ra[block]][:, ra] * nb + b.mul[rb[block]][:, rb]]
    return FiniteGroup(
        order=m,
        mul=qmul,
        inv=coset_of[a.inv[ra] * nb + b.inv[rb]],
        carrier=carrier,
        element_names=[
            f"[({a.element_names[x]},{b.element_names[y]})]" for x, y in zip(ra.tolist(), rb.tolist())
        ],
    )


def _build_extraspecial(n: int, variant: str) -> FiniteGroup:
    carrier = f"extraspecial:{variant}:{n}"
    if n == 0:
        g = _build_cyclic(2)
        g.carrier = carrier
        return g
    base = _build_bindihedral(2) if variant == "-" else _build_dihedral(4)
    grp = base
    for _ in range(n - 1):
        grp = central_product(grp, _build_dihedral(4), carrier)
    grp.carrier = carrier
    return grp


# ---------------------------------------------------------------------------
# generators, homomorphisms and embeddings


def _greedy_generators(g: FiniteGroup) -> list[int]:
    """Each element, in index order, that the ones before it do not generate,
    until they generate g."""
    gens: list[int] = []
    span = np.zeros(g.order, dtype=bool)
    span[0] = True
    for x in range(g.order):
        if not span[x]:
            gens.append(x)
            span[x] = True
            if _close(g, span).size == g.order:
                break
    return gens


def _extend_hom(a: FiniteGroup, gens: list[int], images, mul_t, ident) -> Optional[list]:
    """Images of every element of a under the map sending gens[i] to images[i],
    extended along products with the generators (which must generate a);
    None when two products reach one element with different images."""
    val = {0: ident}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for gv, img in zip(gens, images):
            y = int(a.mul[x, gv])
            v = mul_t(val[x], img)
            if y in val:
                if val[y] != v:
                    return None
            else:
                val[y] = v
                frontier.append(y)
    return [val[x] for x in range(a.order)]


def abelian_homs(a: FiniteGroup, m: int) -> np.ndarray:
    """Every homomorphism from the abelian group a to Z_m, one row of values
    per homomorphism.  They extend along subgroups H < H<x>: for the least k
    with x^k in H, a homomorphism lam of H extends by x -> b for exactly the b
    with k b = lam(x^k) (mod m), and x^j h then takes j b + lam(h)."""
    vals = np.zeros((1, a.order), dtype=np.int64)
    inside = np.zeros(a.order, dtype=bool)
    inside[0] = True
    for x in range(a.order):
        if inside[x]:
            continue
        powers, y = [0], x  # x^j for j < k, then y = x^k
        while not inside[y]:
            powers.append(y)
            y = int(a.mul[y, x])
        k = len(powers)
        d, c = gcd(k, m), vals[:, y]
        vals, c = vals[c % d == 0], c[c % d == 0]
        # the d solutions b0 + t m/d of (k/d) b = c/d (mod m/d)
        step = m // d
        b = (c // d * pow(k // d, -1, step) % step)[:, None] + step * np.arange(d)
        vals, b = np.repeat(vals, d, axis=0), b.ravel()
        h = np.flatnonzero(inside)
        cosets = a.mul[np.ix_(powers[1:], h)]  # x^j h for 0 < j < k
        vals[:, cosets] = (np.arange(1, k)[:, None] * b[:, None, None] + vals[:, h][:, None]) % m
        inside[cosets] = True
    return vals


def _group_embedding(a: FiniteGroup, candidates, mul_t, ident) -> Optional[list]:
    """Images of the first injective homomorphism from a into a group given by
    a multiply function and its identity, found by search over the images
    that candidates(order) lists for each generator of a."""
    gens = _greedy_generators(a)
    cands = [candidates(int(a.element_orders[x])) for x in gens]
    for choice in iproduct(*cands):
        vals = _extend_hom(a, gens, choice, mul_t, ident)
        if vals is not None and len(set(vals)) == a.order:
            return vals
    return None


# ---------------------------------------------------------------------------
# small-group isomorphism testing (used by fixtures and tests)


def tables_isomorphic(a: FiniteGroup, b: FiniteGroup) -> bool:
    if a.order != b.order:
        return False
    def profile(g):  # its (element order, |C(x)|) pairs, |C(x)| = #{y : xy = yx}
        return np.sort(g.element_orders * (g.order + 1) + (g.mul == g.mul.T).sum(axis=1))
    if not np.array_equal(profile(a), profile(b)):
        return False
    orders_b = b.element_orders
    embedding = _group_embedding(
        a, lambda o: np.flatnonzero(orders_b == o).tolist(), lambda u, v: int(b.mul[u, v]), 0
    )
    return embedding is not None
