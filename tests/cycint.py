"""The per-value cyclotomic arithmetic that the table's coefficient-row layout
replaced, kept as the tests' oracle.

`CycInt` is one value: an order e and phi(e) power-basis coefficients, with
mixed orders unified at the lcm.  `coefficient_rows` lays out many values as
rows of Z[x]/(x^e - 1), one row per distinct value object, and `cyc_sum` adds
them by that layout.  The helpers at the end read a `CharacterTable` or a
coefficient array back as `CycInt`s, and `CycInt`s out as coefficient rows.
"""

from __future__ import annotations

from math import lcm

import numpy as np

from mckaygraphs.cyclotomic import _power_reductions, euler_phi


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
    x^(j e/o).  Each distinct value object (`table_values` shares one per
    row of a table) has one row, values[i] is rows[index[i]], and the rows are
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


def cyc_sum(values) -> CycInt:
    """Sum of cyclotomic integers: the rows of their layout, each weighted by
    how many of the values share it."""
    rows, index, e = coefficient_rows(values)
    counts = np.bincount(index, minlength=len(rows))
    return CycInt(e, (counts @ rows).tolist())


def table_values(ct) -> list[tuple[CycInt, ...]]:
    """The table as one tuple of values per irreducible, read from its rows
    through its index: entries with one row share one value object."""
    cells = [CycInt(ct.exponent, row) for row in ct.rows.tolist()]
    return [tuple(cells[u] for u in row) for row in ct.index.tolist()]


def as_cycints(chi: np.ndarray, order: int) -> tuple[CycInt, ...]:
    """The values of a coefficient array at `order`."""
    return tuple(CycInt(order, row) for row in chi.tolist())


def as_coeffs(values, order: int) -> np.ndarray:
    """Canonical coefficient rows at `order` of values whose orders divide it,
    int64 unless a coefficient reaches 2^63."""
    rows = [v.embed(order).coeffs for v in values]
    big = any(abs(c) >= 2**63 for row in rows for c in row)
    return np.array(rows, dtype=object if big else np.int64)
