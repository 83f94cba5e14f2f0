"""Exact arithmetic in rings of cyclotomic integers Z[zeta_e].

A value is an integer coefficient vector in the power basis of
Z[x]/Phi_e(x), so equality is decidable and every operation is exact.
Mixed orders are unified by embedding into Q(zeta_lcm).  A value has no
canonical order, so values compare across orders but are not hashable.

Many values at once are rows of Z[x]/(x^e - 1), x -> zeta_e
(`coefficient_rows`): sums are row sums, products cyclic convolutions
(`convolve`, `gram`), and `reduced` gives the canonical coefficients.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

import numpy as np


def _prime_divisors(e: int) -> tuple[int, ...]:
    """The distinct primes dividing e, ascending, by trial division."""
    primes = []
    m = e
    q = 2
    while q * q <= m:
        if m % q == 0:
            primes.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        primes.append(m)
    return tuple(primes)


def euler_phi(e: int) -> int:
    if e < 1:
        raise ValueError("order must be positive")
    for q in _prime_divisors(e):
        e -= e // q
    return e


def _is_prime(n: int) -> bool:
    return n >= 2 and _prime_divisors(n) == (n,)


def _primitive_root(p: int) -> int:
    """The smallest generator of F_p^x, p prime.  Callers that reduce through
    its powers (the quaternion carriers, the lift) depend on this choice."""
    factors = _prime_divisors(p - 1)
    return next(r for r in range(1, p) if all(pow(r, (p - 1) // q, p) != 1 for q in factors))


def _polydiv_exact(num: list[int], den) -> list[int]:
    """Divide integer polynomials (lowest degree first); den monic, remainder must vanish."""
    assert den[-1] == 1
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        quot[i - dd] = c
        if c:
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    assert all(v == 0 for v in num[:dd]), "polynomial division left a remainder"
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Coefficients of Phi_e, lowest degree first.

    Computed by dividing x^e - 1 by Phi_d for every proper divisor d of e.
    """
    if e < 1:
        raise ValueError("order must be positive")
    poly = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            poly = _polydiv_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_reductions(e: int) -> tuple[tuple[int, ...], ...]:
    """x^k mod Phi_e for 0 <= k <= max(2*(phi-1), e-1), as length-phi vectors."""
    phi = euler_phi(e)
    kmax = max(2 * (phi - 1), e - 1)
    c = cyclotomic_polynomial(e)
    rows: list[tuple[int, ...]] = []
    for k in range(min(phi, kmax + 1)):
        rows.append(tuple(1 if j == k else 0 for j in range(phi)))
    for k in range(phi, kmax + 1):
        prev = rows[k - 1]
        top = prev[phi - 1]
        row = [0] + list(prev[: phi - 1])
        if top:
            row = [row[j] - top * c[j] for j in range(phi)]
        rows.append(tuple(row))
    return tuple(rows)


def _reduce_coeffs(e: int, coeffs) -> tuple[int, ...]:
    phi = euler_phi(e)
    if len(coeffs) <= phi:
        # already in the power basis: rows k < phi of _power_reductions are unit vectors
        return tuple(coeffs) + (0,) * (phi - len(coeffs))
    rows = _power_reductions(e)
    acc = [0] * phi
    for k, v in enumerate(coeffs):
        if v:
            row = rows[k if k < len(rows) else k % e]  # x^e = 1 in the quotient
            for j in range(phi):
                acc[j] += v * row[j]
    return tuple(acc)


class CycInt:
    """A cyclotomic integer: order e plus phi(e) power-basis coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        self.order = order
        self.coeffs = _reduce_coeffs(order, coeffs)

    @staticmethod
    def integer(n: int) -> "CycInt":
        return CycInt(1, (n,))

    @staticmethod
    def zero() -> "CycInt":
        return CycInt(1, (0,))

    @staticmethod
    def one() -> "CycInt":
        return CycInt(1, (1,))

    @staticmethod
    def root(e: int, k: int = 1) -> "CycInt":
        """zeta_e^k."""
        k %= e
        return CycInt(e, (0,) * k + (1,))

    def embed(self, target_order: int) -> "CycInt":
        if target_order == self.order:
            return self
        assert target_order % self.order == 0
        t = target_order // self.order
        vec = [0] * ((len(self.coeffs) - 1) * t + 1)
        for j, c in enumerate(self.coeffs):
            vec[j * t] = c
        return CycInt(target_order, vec)

    def _pair(self, other: "CycInt") -> tuple["CycInt", "CycInt"]:
        if self.order == other.order:
            return self, other
        e = lcm(self.order, other.order)
        return self.embed(e), other.embed(e)

    @staticmethod
    def _coerce(value) -> "CycInt | None":
        if isinstance(value, CycInt):
            return value
        if isinstance(value, int):
            return CycInt.integer(value)
        return None

    def __add__(self, other) -> "CycInt":
        o = CycInt._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._pair(o)
        return CycInt(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "CycInt":
        return CycInt(self.order, tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "CycInt":
        o = CycInt._coerce(other)
        if o is None:
            return NotImplemented
        if isinstance(other, int):
            return CycInt(self.order, tuple(c * other for c in self.coeffs))
        a, b = self._pair(o)
        la, lb = a.coeffs, b.coeffs
        conv = [0] * (len(la) + len(lb) - 1)
        for i, x in enumerate(la):
            if x:
                for j, y in enumerate(lb):
                    if y:
                        conv[i + j] += x * y
        return CycInt(a.order, conv)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "CycInt":
        if k < 0:
            raise ValueError("negative powers are not defined in the integer ring")
        result = CycInt.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def as_integer(self) -> int | None:
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def __eq__(self, other) -> bool:
        o = CycInt._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._pair(o)
        return a.coeffs == b.coeffs

    def __repr__(self) -> str:
        return f"CycInt({self.order}, {self.coeffs})"


def coefficient_rows(values) -> tuple[np.ndarray, np.ndarray, int]:
    """Lay out cyclotomic values as rows of Z[x]/(x^e - 1), x -> zeta_e, for e
    the lcm of their orders: coefficient j of a value of order o sits at
    x^(j e/o).  Each distinct value object (the lift builds each value once
    and shares it) has one row, values[i] is rows[index[i]], and the rows are
    int64 unless the sum of all the values could reach 2^63 in a coefficient."""
    values = list(values)
    ids = np.fromiter(map(id, values), dtype=np.uintp, count=len(values))
    _, first, index = np.unique(ids, return_index=True, return_inverse=True)
    distinct = [values[i] for i in first.tolist()]
    e = lcm(1, *(v.order for v in distinct))
    counts = np.bincount(index, minlength=len(distinct)).tolist()
    peak = sum(c * max(map(abs, v.coeffs)) for c, v in zip(counts, distinct))
    rows = np.zeros((len(distinct), e), dtype=np.int64 if peak < 2**63 else object)
    for row, v in zip(rows, distinct):
        row[: e * len(v.coeffs) // v.order : e // v.order] = v.coeffs
    return rows, index, e


def reduced(rows: np.ndarray, e: int) -> np.ndarray:
    """The canonical coefficients (last axis phi(e) long) of the values that
    rows of Z[x]/(x^e - 1) stand for: rows times x^k mod Phi_e for k < e, in
    int64 while the bound below holds and in Python integers past it."""
    red = np.array(_power_reductions(e)[:e], dtype=np.int64)
    peak = int(np.abs(rows).max(initial=0)) * int(np.abs(red).max())
    return (rows if e * peak < 2**63 else rows.astype(object)) @ red


def convolve(a: np.ndarray, b: np.ndarray, e: int, product=np.multiply, terms: int = 1):
    """Cyclic convolution in Z[x]/(x^e - 1) along the last axes of two
    coefficient arrays at most e long: each pair of powers s, t nonzero
    somewhere in a and in b costs one product(a[..., s], b[..., t]) into
    x^(s + t mod e), so integer values cost one.  `product` (elementwise by
    default) sums at most `terms` entry products; past the int64 bound on
    the output the whole convolution runs in Python integers."""
    peaks = [np.abs(x).reshape(-1, x.shape[-1]).max(axis=0, initial=0) for x in (a, b)]
    bound = terms * sum(peaks[0].tolist()) * sum(peaks[1].tolist())
    dtype = np.int64 if bound < 2**63 else object
    a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
    sa, sb = (np.flatnonzero(peak).tolist() or [0] for peak in peaks)
    out = None
    for s in sa:
        for t in sb:
            part = product(a[..., s], b[..., t])
            if out is None:
                out = np.zeros(part.shape + (e,), dtype=dtype)
            out[..., (s + t) % e] += part
    return out


def gram(a: np.ndarray, b: np.ndarray, e: int, weights: np.ndarray) -> np.ndarray:
    """sum_k w_k a[i, k] b[j, k] for coefficient arrays a (m, n, .) and
    b (l, n, .), as (m, l, e) rows of Z[x]/(x^e - 1)."""
    weights = np.asarray(weights, dtype=np.int64)
    return convolve(a, b, e, lambda x, y: (x * weights) @ y.T, int(np.abs(weights).sum()))


def cyc_sum(values) -> CycInt:
    """Sum of cyclotomic integers: the rows of their layout, each weighted by
    how many of the values share it."""
    rows, index, e = coefficient_rows(values)
    counts = np.bincount(index, minlength=len(rows))
    return CycInt(e, (counts @ rows).tolist())
