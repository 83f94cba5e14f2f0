"""Finite groups from a catalog of carriers, closed into indexed Cayley tables.

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
class ExplicitAction:
    """images[i][j] = kernel element index of the image of kernel generator j
    under conjugation by group generator i."""

    images: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Semidirect:
    group: "GroupSpec"
    kernel: "GroupSpec"
    action: Optional[ExplicitAction] = None  # None: derive a canonical action


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
    identity: int = 0
    generators: list[int] = field(default_factory=list)
    gen_words: Optional[list[tuple[int, ...]]] = None  # per element, word in generators
    payload: object = None  # carrier-specific element data

    def power(self, x: int, k: int) -> int:
        if k < 0:
            return self.power(int(self.inv[x]), -k)
        acc, base = 0, x
        while k:
            if k & 1:
                acc = int(self.mul[acc, base])
            base = int(self.mul[base, base])
            k >>= 1
        return acc

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

    def conj(self, x: int, g: int) -> int:
        """g x g^-1."""
        return int(self.mul[self.mul[g, x], self.inv[g]])

    def validate(self) -> None:
        """Latin square, identity, inverses, and Light's associativity test over
        a generating set S: the s with (xs)y = x(sy) for all x, y are closed
        under products, so if S passes, every element of the table does."""
        n = self.order
        mul = self.mul
        idx = np.arange(n)
        assert np.array_equal(mul[0], idx) and np.array_equal(mul[:, 0], idx)
        assert np.array_equal(np.sort(mul, axis=1), np.tile(idx, (n, 1)))
        assert np.array_equal(np.sort(mul, axis=0), np.tile(idx[:, None], (1, n)))
        assert np.all(mul[idx, self.inv] == 0) and np.all(mul[self.inv, idx] == 0)
        for s in _greedy_generators(self):
            # rows x of (xs)y and of x(sy); take gathers columns faster than indexing
            left, right = mul[mul[:, s]], np.take(mul, mul[s], axis=1)
            assert np.array_equal(left, right), "associativity failed"


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
        generators=[index[g] for g in gens],
        gen_words=words,
        payload=elems,
    )


# ---------------------------------------------------------------------------
# carrier builders


def _build_cyclic(n: int) -> FiniteGroup:
    idx = np.arange(n, dtype=np.int32)
    mul = (idx[:, None] + idx[None, :]) % n
    names = ["e"] + [f"g^{k}" if k > 1 else "g" for k in range(1, n)]
    return FiniteGroup(
        order=n,
        mul=mul.astype(np.int32),
        inv=((-idx) % n).astype(np.int32),
        carrier=f"cyclic:{n}",
        element_names=names,
        generators=[1] if n > 1 else [],
        gen_words=[(0,) * k for k in range(n)] if n > 1 else [()],
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


def _build_elemab(p: int, n: int) -> FiniteGroup:
    elems = list(iproduct(range(p), repeat=n))
    index = {v: i for i, v in enumerate(elems)}
    size = p**n
    digits = np.array(elems, dtype=np.int64).reshape(size, n)
    weights = np.array([p ** (n - 1 - i) for i in range(n)], dtype=np.int64)
    summed = (digits[:, None, :] + digits[None, :, :]) % p
    mul = (summed @ weights).astype(np.int32)
    invs = ((-digits) % p @ weights).astype(np.int32)
    gens = [index[tuple(1 if j == i else 0 for j in range(n))] for i in range(n)]
    words = [
        tuple(i for i in range(n) for _ in range(v[i])) for v in elems
    ]
    return FiniteGroup(
        order=size,
        mul=mul,
        inv=invs,
        carrier=f"elemab:{p}:{n}",
        element_names=[str(v) for v in elems],
        generators=gens,
        gen_words=words,
        payload=elems,
    )


def _build_heisenberg(p: int, n: int) -> FiniteGroup:
    vecs = list(iproduct(range(p), repeat=n))
    elems = [(a, b, c) for a in vecs for b in vecs for c in range(p)]
    # (a1, b1, c1)(a2, b2, c2) = (a1 + a2, b1 + b2, c1 + c2 + a1.b2), digits mod p
    q, size = len(vecs), len(elems)
    digits = np.array(vecs, dtype=np.int64).reshape(q, n)
    vadd = (digits[:, None, :] + digits[None, :, :]) % p @ p ** np.arange(n - 1, -1, -1)
    dot = digits @ digits.T % p
    i = np.arange(size)
    a, b, c = i // (q * p), i // p % q, i % p
    mul = (
        (vadd[a[:, None], a[None, :]] * q + vadd[b[:, None], b[None, :]]) * p
        + (c[:, None] + c[None, :] + dot[a[:, None], b[None, :]]) % p
    ).astype(np.int32)
    return FiniteGroup(
        order=size,
        mul=mul,
        inv=_inverses_from_table(mul),
        carrier=f"heis:{p}:{n}",
        element_names=[f"{a}|{b}|{c}" for a, b, c in elems],
        generators=[],
        gen_words=None,
        payload=elems,
    )


def build_product(a: FiniteGroup, b: FiniteGroup, carrier: Optional[str] = None) -> FiniteGroup:
    na, nb = a.order, b.order
    n = na * nb
    mul = (
        a.mul[:, None, :, None].astype(np.int64) * nb + b.mul[None, :, None, :]
    ).reshape(n, n).astype(np.int32)
    inv = (a.inv.astype(np.int64)[:, None] * nb + b.inv[None, :]).reshape(n).astype(np.int32)
    names = [
        f"({x},{y})" for x in a.element_names for y in b.element_names
    ]
    gens = [g * nb for g in a.generators] + [int(g) for g in b.generators]
    return FiniteGroup(
        order=n,
        mul=mul,
        inv=inv,
        carrier=carrier or f"product({a.carrier},{b.carrier})",
        element_names=names,
        generators=gens,
        gen_words=None,
    )


def build_semidirect(
    g: FiniteGroup,
    k: FiniteGroup,
    action: list[np.ndarray],
    carrier: Optional[str] = None,
    check: bool = True,
) -> FiniteGroup:
    """G acting on an abelian kernel K; action[x] is the permutation of K
    induced by conjugation with the element x of G."""
    ng, nk = g.order, k.order
    if check:
        if len(action) != ng:
            raise InvalidAction("need one kernel automorphism per acting element")
        if not k.is_abelian():
            raise InvalidAction("kernel must be abelian")
        kj = np.arange(nk)
        for x in range(ng):
            perm = np.asarray(action[x])
            if not np.array_equal(np.sort(perm), kj):
                raise InvalidAction("action image is not a bijection")
            if not np.array_equal(perm[k.mul], k.mul[perm[:, None], perm[None, :]]):
                raise InvalidAction("action image is not an automorphism")
        for x in range(ng):
            for y in range(ng):
                if not np.array_equal(action[g.mul[x, y]], action[x][action[y]]):
                    raise InvalidAction("action is not a homomorphism")
        if not np.array_equal(action[0], kj):
            raise InvalidAction("identity must act trivially")

    n = ng * nk
    mul = np.empty((n, n), dtype=np.int32)
    for b in range(ng):
        twist = k.mul[action[g.inv[b]]]  # (i, j) -> alpha_{b^-1}(i) * j
        cols = slice(b * nk, (b + 1) * nk)
        gcol = g.mul[:, b].astype(np.int64) * nk
        for a in range(ng):
            mul[a * nk : (a + 1) * nk, cols] = gcol[a] + twist
    names = [f"({x};{y})" for x in g.element_names for y in k.element_names]
    grp = FiniteGroup(
        order=n,
        mul=mul,
        inv=_inverses_from_table(mul),
        carrier=carrier or f"semidirect({g.carrier},{k.carrier})",
        element_names=names,
        generators=[x * nk for x in g.generators] + [int(y) for y in k.generators],
        gen_words=None,
    )
    return grp


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
    _centralizers: dict = field(default_factory=dict, repr=False)
    _power_classes: dict = field(default_factory=dict, repr=False)
    _power_maps: dict = field(default_factory=dict, repr=False)

    @property
    def r(self) -> int:
        return len(self.classes)

    def centralizer(self, class_index: int) -> list[int]:
        cached = self._centralizers.get(class_index)
        if cached is None:
            g = self.group
            rep = self.reps[class_index]
            mask = g.mul[:, rep] == g.mul[rep, :]
            cached = [int(x) for x in np.nonzero(mask)[0]]
            self._centralizers[class_index] = cached
        return cached

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

    def power_map(self, t: int) -> list[int]:
        t %= self.exponent
        cached = self._power_maps.get(t)
        if cached is None:
            g = self.group
            cached = [int(self.class_of[g.power(rep, t)]) for rep in self.reps]
            self._power_maps[t] = cached
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

    def to_parent(self, local_index: int) -> int:
        return self.elements[local_index]


def subgroup_from_elements(g: FiniteGroup, elems) -> Subgroup:
    """The subgroup generated by elems: products of the member set with itself
    until it stops growing (in a finite group that also closes inverses)."""
    inside = np.zeros(g.order, dtype=bool)
    inside[0] = True
    inside[np.asarray(elems, dtype=np.int64)] = True
    while True:
        arr = np.flatnonzero(inside)
        inside[g.mul[np.ix_(arr, arr)]] = True
        if inside.sum() == len(arr):
            return subgroup_on(g, arr)


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
        generators=[],
        gen_words=None,
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
        generators=[],
        gen_words=None,
    )
    return grp, coset_of


def commutator_subgroup(g: FiniteGroup) -> Subgroup:
    mul, inv = g.mul, g.inv
    xy = mul
    yx = mul.T
    inside = np.zeros(g.order, dtype=bool)
    inside[mul[xy, inv[yx]]] = True
    return subgroup_from_elements(g, np.flatnonzero(inside))


def normal_subgroups(g: FiniteGroup, cd: ConjugacyData, target_order: Optional[int] = None) -> list[Subgroup]:
    """All normal subgroups, found as class unions closed under multiplication."""
    r = cd.r
    sizes = cd.sizes
    results = []
    order = g.order
    inside = np.zeros(order, dtype=bool)

    def closed(mask_classes: tuple[int, ...]) -> bool:
        inside[:] = False
        for ci in mask_classes:
            inside[cd.classes[ci]] = True
        elems = np.nonzero(inside)[0]
        prods = g.mul[np.ix_(elems, elems)]
        return bool(np.all(inside[prods]))

    # depth-first over class subsets containing the identity class
    picks: list[int] = [0]

    def rec(next_class: int, total: int):
        if target_order is None or total == target_order:
            if (order % total == 0) and closed(tuple(picks)):
                elems = np.concatenate([cd.classes[ci] for ci in picks])
                sub = subgroup_from_elements(g, elems)
                if sub.order == total:
                    assert sub.normal
                    results.append(sub)
        if total == order:
            return
        for ci in range(next_class, r):
            t = total + sizes[ci]
            if t > order or (target_order is not None and t > target_order):
                continue
            picks.append(ci)
            rec(ci + 1, t)
            picks.pop()

    rec(1, 1)
    uniq = {}
    for sub in results:
        uniq[sub.elements] = sub
    return sorted(uniq.values(), key=lambda s: (s.order, s.elements))


# ---------------------------------------------------------------------------
# central products and the extraspecial catalog


def central_product(a: FiniteGroup, b: FiniteGroup, carrier: str) -> FiniteGroup:
    """(A x B) / <(z_A, z_B)> for the unique central involutions z_A, z_B."""

    def central_involution(grp: FiniteGroup) -> int:
        cands = [
            int(x)
            for x in np.flatnonzero(grp.element_orders == 2)
            if np.array_equal(grp.mul[:, x], grp.mul[x, :])
        ]
        assert len(cands) == 1, "factor must have center of order 2"
        return cands[0]

    za, zb = central_involution(a), central_involution(b)
    prod = build_product(a, b)
    z = za * b.order + zb
    sub = subgroup_from_elements(prod, [z])
    assert sub.order == 2 and sub.normal
    grp, _ = quotient_group(prod, sub)
    grp.carrier = carrier
    return grp


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
# canonical semidirect actions


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
    raise AssertionError("no primitive root found")


def _greedy_generators(g: FiniteGroup) -> list[int]:
    gens: list[int] = []
    span = {0}
    for x in range(g.order):
        if x not in span:
            gens.append(x)
            span = set(int(e) for e in subgroup_from_elements(g, gens).elements)
            if len(span) == g.order:
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


def _abelian_homs(a: FiniteGroup, m: int) -> list[np.ndarray]:
    """All homomorphisms from the abelian group a to Z_m, as value arrays."""
    gens = _greedy_generators(a)
    cand = []
    for x in gens:
        o = int(a.element_orders[x])
        cand.append([v for v in range(m) if (v * o) % m == 0])
    homs = []
    for choice in iproduct(*cand):
        vals = _extend_hom(a, gens, choice, lambda u, v: (u + v) % m, 0)
        if vals is not None:
            homs.append(np.array(vals, dtype=np.int64))
    return homs


def _surjection_onto_cyclic(g: FiniteGroup, m: int, sub: Optional[Subgroup]) -> np.ndarray:
    """Values in Z_m of a surjective homomorphism G -> Z_m (kernel sub, if given)."""
    if sub is not None:
        if not sub.normal:
            raise InvalidAction("designated kernel subgroup is not normal")
        q, coset_of = quotient_group(g, sub)
        if q.order != m:
            raise InvalidAction(f"quotient has order {q.order}, expected {m}")
        gens = np.flatnonzero(q.element_orders == m)
        if not gens.size:
            raise InvalidAction("quotient is not cyclic")
        gen = int(gens[0])
        val = np.zeros(q.order, dtype=np.int64)
        x = gen
        k = 1
        while x != 0:
            val[x] = k
            x = int(q.mul[x, gen])
            k += 1
        return val[coset_of]
    comm = commutator_subgroup(g)
    ab, proj = quotient_group(g, comm)
    homs = [h for h in _abelian_homs(ab, m) if gcd(int(np.gcd.reduce(h)), m) == 1]
    if not homs:
        raise InvalidAction(f"no surjection of {g.carrier} onto a cyclic group of order {m}")
    best = min(homs, key=lambda h: tuple(h))
    return best[proj]


def derive_cyclic_action(
    g: FiniteGroup, p: int, sub: Optional[Subgroup] = None
) -> list[np.ndarray]:
    """Action of G on C_p through a surjection G -> F_p^x (kernel sub if given)."""
    chi = _surjection_onto_cyclic(g, p - 1, sub)
    root = _primitive_root(p)
    idx = np.arange(p, dtype=np.int64)
    action = []
    for x in range(g.order):
        u = pow(root, int(chi[x]), p)
        action.append(((u * idx) % p).astype(np.int32))
    return action


def _gl_elements(p: int, n: int) -> list[tuple[tuple[int, ...], ...]]:
    mats = []
    for flat in iproduct(range(p), repeat=n * n):
        m = tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n))
        if _det_mod(m, p) != 0:
            mats.append(m)
    return mats


def _det_mod(m, p: int) -> int:
    rows = [list(r) for r in m]
    n = len(rows)
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] % p), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det = det * rows[c][c] % p
        invp = pow(rows[c][c], p - 2, p)
        for i in range(c + 1, n):
            f = rows[i][c] * invp % p
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[c])]
    return det % p


def _mat_mul_mod(a, b, p: int):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n))
        for i in range(n)
    )


def _group_embedding(q: FiniteGroup, targets: list, mul_t, order_t, ident_t) -> Optional[list]:
    """Images of the first injective homomorphism q -> targets (a group given by
    a multiply function and its identity), found by depth-first search over
    generator images."""
    gens = _greedy_generators(q)
    cands = []
    for x in gens:
        o = int(q.element_orders[x])
        cands.append([t for t in targets if order_t(t) == o])
    for choice in iproduct(*cands):
        vals = _extend_hom(q, gens, choice, mul_t, ident_t)
        if vals is not None and len(set(vals)) == q.order:
            return vals
    return None


def derive_elemab_action(
    g: FiniteGroup, p: int, n: int, sub: Optional[Subgroup] = None
) -> list[np.ndarray]:
    """Action of G on F_p^n via a quotient embedded in GL_n(F_p), transitive on
    the nonzero vectors."""
    # orbit-stabilizer: a transitive quotient has order divisible by the orbit
    quotient = g.order // (1 if sub is None else sub.order)
    if quotient % (p**n - 1):
        raise InvalidAction(
            f"{g.carrier} cannot act transitively on the {p**n - 1} nonzero vectors"
            f" of F_{p}^{n}: {p**n - 1} does not divide {quotient}"
        )
    kernel = _build_elemab(p, n)
    vecs: list[tuple[int, ...]] = kernel.payload  # lexicographic tuples
    vec_index = {v: i for i, v in enumerate(vecs)}
    gl = _gl_elements(p, n)
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

    def order_t(m) -> int:
        k, cur = 1, m
        while cur != ident:
            cur = _mat_mul_mod(cur, m, p)
            k += 1
        return k

    def perm_of(mat) -> np.ndarray:
        out = np.empty(len(vecs), dtype=np.int32)
        for i, v in enumerate(vecs):
            w = tuple(sum(mat[r][c] * v[c] for c in range(n)) % p for r in range(n))
            out[i] = vec_index[w]
        return out

    def transitive(image_mats) -> bool:
        nonzero = [v for v in vecs if any(v)]
        seen = {nonzero[0]}
        frontier = [nonzero[0]]
        while frontier:
            v = frontier.pop()
            for m in image_mats:
                w = tuple(sum(m[r][c] * v[c] for c in range(n)) % p for r in range(n))
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == len(nonzero)

    cd = conjugacy(g)
    if sub is not None:
        candidates = [sub]
    else:
        candidates = sorted(normal_subgroups(g, cd), key=lambda s: (-s.order, s.elements))
    for h in candidates:
        if not h.normal:
            continue
        q, coset_of = quotient_group(g, h)
        if q.order > len(gl):
            continue
        emb = _group_embedding(q, gl, lambda a, b: _mat_mul_mod(a, b, p), order_t, ident)
        if emb is None:
            continue
        if not transitive(list({emb[x] for x in range(q.order)})):
            continue
        perms = {x: perm_of(emb[x]) for x in range(q.order)}
        return [perms[int(coset_of[i])] for i in range(g.order)]
    raise InvalidAction(
        f"no transitive action of {g.carrier} on the nonzero vectors of F_{p}^{n}"
    )


def _action_from_generator_images(
    g: FiniteGroup, k: FiniteGroup, images: tuple[tuple[int, ...], ...]
) -> list[np.ndarray]:
    if g.gen_words is None or k.gen_words is None:
        raise InvalidAction("explicit actions need generator words on both groups")
    if len(images) != len(g.generators):
        raise InvalidAction("one image row per acting generator required")
    kn = k.order

    def automorphism(img_row) -> np.ndarray:
        if len(img_row) != len(k.generators):
            raise InvalidAction("one image per kernel generator required")
        out = np.empty(kn, dtype=np.int32)
        for x in range(kn):
            acc = 0
            for gi in k.gen_words[x]:
                acc = int(k.mul[acc, img_row[gi]])
            out[x] = acc
        return out

    gen_perms = [automorphism(row) for row in images]
    action: list[Optional[np.ndarray]] = [None] * g.order
    action[0] = np.arange(kn, dtype=np.int32)
    for x in range(g.order):
        perm = np.arange(kn, dtype=np.int32)
        for gi in g.gen_words[x]:
            perm = gen_perms[gi][perm]
        action[x] = perm
    return action  # type: ignore[return-value]


def _derive_action(g: FiniteGroup, kspec: GroupSpec, k: FiniteGroup) -> list[np.ndarray]:
    if isinstance(kspec, Cyclic):
        p = kspec.n
        if not _is_prime(p):
            raise InvalidAction("canonical actions exist only for prime cyclic kernels")
        return derive_cyclic_action(g, p)
    if isinstance(kspec, ElemAb):
        return derive_elemab_action(g, kspec.p, kspec.n)
    raise InvalidAction(f"no canonical action on kernel {spec_text(kspec)}")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    q = 2
    while q * q <= n:
        if n % q == 0:
            return False
        q += 1
    return True


# ---------------------------------------------------------------------------
# the entry point


def build_group(spec: GroupSpec, cap: Optional[int] = None, validate: bool = True) -> FiniteGroup:
    cap = order_cap() if cap is None else cap
    n = expanded_order(spec)
    if n > cap:
        raise OrderCapExceeded(f"{spec_text(spec)} has order {n} > cap {cap}")
    g = _dispatch(spec, cap)
    if validate:
        g.validate()
    return g


def _dispatch(spec: GroupSpec, cap: int) -> FiniteGroup:
    if isinstance(spec, Cyclic):
        return _build_cyclic(spec.n)
    if isinstance(spec, Dihedral):
        assert spec.n >= 2, "dihedral carrier needs n >= 2"
        return _build_dihedral(spec.n)
    if isinstance(spec, BinaryDihedral):
        assert spec.n >= 2, "binary dihedral carrier needs n >= 2"
        return _build_bindihedral(spec.n)
    if isinstance(spec, BinaryPoly):
        return _build_binary(spec.kind)
    if isinstance(spec, Extraspecial2):
        assert spec.variant in "+-"
        return _build_extraspecial(spec.n, spec.variant)
    if isinstance(spec, Heisenberg):
        return _build_heisenberg(spec.p, spec.n)
    if isinstance(spec, ElemAb):
        return _build_elemab(spec.p, spec.n)
    if isinstance(spec, Product):
        a = _dispatch(spec.left, cap)
        b = _dispatch(spec.right, cap)
        return build_product(a, b, carrier=spec_text(spec))
    if isinstance(spec, Semidirect):
        g = _dispatch(spec.group, cap)
        k = _dispatch(spec.kernel, cap)
        if spec.action is None:
            action = _derive_action(g, spec.kernel, k)
        else:
            action = _action_from_generator_images(g, k, spec.action.images)
        return build_semidirect(g, k, action, carrier=spec_text(spec))
    raise TypeError(f"not a group spec: {spec!r}")


# ---------------------------------------------------------------------------
# small-group isomorphism testing (used by fixtures and tests)


def tables_isomorphic(a: FiniteGroup, b: FiniteGroup) -> bool:
    if a.order != b.order:
        return False
    orders_a, orders_b = a.element_orders, b.element_orders
    if not np.array_equal(np.sort(orders_a), np.sort(orders_b)):
        return False
    gens = _greedy_generators(a)
    cands = [np.flatnonzero(orders_b == orders_a[x]).tolist() for x in gens]
    for choice in iproduct(*cands):
        vals = _extend_hom(a, gens, choice, lambda u, v: int(b.mul[u, v]), 0)
        if vals is not None and len(set(vals)) == a.order:
            return True
    return False
