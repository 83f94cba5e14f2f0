"""Exact arithmetic in rings of cyclotomic integers Z[zeta_e].

A value is an integer coefficient vector in the power basis of
Z[x]/Phi_e(x), so equality is decidable and every operation is exact.
Mixed orders are unified by embedding into Q(zeta_lcm).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm


def euler_phi(e: int) -> int:
    if e < 1:
        raise ValueError("order must be positive")
    result = e
    m = e
    q = 2
    while q * q <= m:
        if m % q == 0:
            result -= result // q
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        result -= result // m
    return result


def _prime_divisors(e: int) -> tuple[int, ...]:
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


def _divisors(e: int) -> list[int]:
    small, large = [], []
    q = 1
    while q * q <= e:
        if e % q == 0:
            small.append(q)
            if q != e // q:
                large.append(e // q)
        q += 1
    return small + large[::-1]


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
    for d in _divisors(e):
        if d < e:
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


def rational_rref(rows, ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q, pivoting in the first ncols columns;
    returns the reduced rows and their pivot columns."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows, pivots


def _solve_rational(cols: list[tuple[int, ...]], target) -> list[Fraction] | None:
    """Solve sum_j x_j * cols[j] == target over Q, or None if inconsistent."""
    n = len(cols)
    aug, pivots = rational_rref([[c[i] for c in cols] + [t] for i, t in enumerate(target)], n)
    if any(row[n] != 0 for row in aug[len(pivots):]):
        return None
    sol = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        sol[col] = aug[r][n]
    # columns are linearly independent in our callers, so free variables stay 0
    return sol


@lru_cache(maxsize=None)
def _embedding_columns(e: int, f: int) -> tuple[tuple[int, ...], ...]:
    """Images of the power basis of Z[zeta_f] inside Z[zeta_e] (f | e)."""
    assert e % f == 0
    t = e // f
    rows = _power_reductions(e)
    return tuple(rows[j * t] for j in range(euler_phi(f)))


class CycInt:
    """A cyclotomic integer: order e plus phi(e) power-basis coefficients."""

    __slots__ = ("order", "coeffs", "_hash")

    def __init__(self, order: int, coeffs):
        self.order = order
        self.coeffs = _reduce_coeffs(order, coeffs)
        self._hash = None

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

    def __sub__(self, other) -> "CycInt":
        o = CycInt._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "CycInt":
        return -(self - other)

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

    def exact_div(self, n: int) -> "CycInt":
        assert n != 0
        for c in self.coeffs:
            assert c % n == 0, "coefficient not divisible"
        return CycInt(self.order, tuple(c // n for c in self.coeffs))

    def reduced(self) -> "CycInt":
        """Canonical copy at the smallest cyclotomic order containing the value."""
        n = self.as_integer()
        if n is not None:
            return self if self.order == 1 else CycInt(1, (n,))
        e, vec = self.order, self.coeffs
        changed = True
        while changed:
            changed = False
            for q in _prime_divisors(e):
                f = e // q
                cols = _embedding_columns(e, f)
                sol = _solve_rational(list(cols), vec)
                if sol is not None:
                    assert all(s.denominator == 1 for s in sol)
                    e = f
                    vec = tuple(int(s) for s in sol)
                    changed = True
                    break
        return CycInt(e, vec)

    def __eq__(self, other) -> bool:
        o = CycInt._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._pair(o)
        return a.coeffs == b.coeffs

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            r = self.reduced()
            h = hash((r.order, r.coeffs))
            self._hash = h
        return h

    def __repr__(self) -> str:
        r = self.reduced()
        n = r.as_integer()
        if n is not None:
            return str(n)
        parts = []
        for j, c in enumerate(r.coeffs):
            if not c:
                continue
            if j == 0:
                parts.append(str(c))
            else:
                zeta = f"z{r.order}" if j == 1 else f"z{r.order}^{j}"
                if c == 1:
                    parts.append(zeta)
                elif c == -1:
                    parts.append(f"-{zeta}")
                else:
                    parts.append(f"{c}*{zeta}")
        out = parts[0]
        for part in parts[1:]:
            out += f" + {part}" if not part.startswith("-") else f" - {part[1:]}"
        return out


def cyc_sum(values) -> CycInt:
    """Sum of cyclotomic integers in one reduction: each value's coefficients
    are added, at stride e / order, into x-powers below e = lcm of the orders."""
    values = list(values)
    e = lcm(1, *(v.order for v in values))
    acc = [0] * e
    for v in values:
        t = e // v.order
        for j, c in enumerate(v.coeffs):
            acc[j * t] += c
    return CycInt(e, acc)
