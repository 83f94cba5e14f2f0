"""Exact arithmetic in rings of cyclotomic integers Z[zeta_e].

A value of order e is its canonical coefficient vector: phi(e) integers in
the power basis of Z[x]/Phi_e(x), x -> zeta_e, so equal values have equal
coefficients and every operation is exact.  Many values at once are the
rows of an integer array, coefficients along the last axis: sums are row
sums, `embed` moves values to a multiple of their order, products are cyclic
convolutions in Z[x]/(x^e - 1) (`convolve`, `gram`), and `reduced` brings
rows of Z[x]/(x^e - 1) back to canonical coefficients.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .modp import exact_dtype, exact_matmul


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


@lru_cache(maxsize=None)
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


def reduced(rows: np.ndarray, e: int) -> np.ndarray:
    """The canonical coefficients (last axis phi(e) long) of the values that
    rows of Z[x]/(x^e - 1), at most e long, stand for: rows times x^k mod
    Phi_e, one `exact_matmul` under the bound below."""
    red = np.array(_power_reductions(e)[: rows.shape[-1]], dtype=np.int64)
    peak = int(np.abs(rows).max(initial=0)) * int(np.abs(red).max())
    return exact_matmul(rows, red, len(red) * peak)


def embed(coeffs: np.ndarray, o: int, e: int) -> np.ndarray:
    """Canonical coefficients at order e of values given by their canonical
    coefficients at an order o dividing e: zeta_o = zeta_e^(e/o), so
    coefficient j moves to x^(j e/o) before the reduction."""
    if o == e:
        return coeffs
    assert e % o == 0, f"zeta_{o} is not in Q(zeta_{e})"
    t = e // o
    spread = np.zeros(coeffs.shape[:-1] + ((coeffs.shape[-1] - 1) * t + 1,), dtype=coeffs.dtype)
    spread[..., ::t] = coeffs
    return reduced(spread, e)


def convolve(a: np.ndarray, b: np.ndarray, e: int, product=np.multiply, terms: int = 1):
    """Cyclic convolution in Z[x]/(x^e - 1) along the last axes of two
    coefficient arrays at most e long: each pair of powers s, t nonzero
    somewhere in a and in b costs one product(a[..., s], b[..., t]) into
    x^(s + t mod e), so integer values cost one.  `product` (elementwise by
    default) sums at most `terms` entry products; past the int64 bound on
    the output the whole convolution runs in Python integers."""
    peaks = [np.abs(x).reshape(-1, x.shape[-1]).max(axis=0, initial=0) for x in (a, b)]
    bound = terms * sum(peaks[0].tolist()) * sum(peaks[1].tolist())
    dtype = exact_dtype(bound)
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
