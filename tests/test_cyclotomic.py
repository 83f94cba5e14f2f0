import math
import random
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cycint import CycInt, as_coeffs, cyc_sum
from mckaygraphs.cyclotomic import (
    _is_prime,
    _prime_divisors,
    _primitive_root,
    convolve,
    cyclotomic_polynomial,
    embed,
    euler_phi,
    gram,
    reduced,
)


def poly_divides(num, den):
    """Exact division check over Z, lowest-degree-first coefficients."""
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c % den[-1]:
            return False
        q = c // den[-1]
        for j in range(dd + 1):
            num[i - dd + j] -= q * den[j]
    return all(v == 0 for v in num)


def test_number_theory_helpers_match_brute_force():
    """Against oracles that share no code with the one trial division: a
    sieve for n < 5000, phi by a gcd count, and for each prime below 2000 the
    smallest r whose multiplicative order is p - 1."""
    limit = 5000
    divisors = [[] for _ in range(limit)]
    for q in range(2, limit):
        if not divisors[q]:  # no smaller prime divides q
            for m in range(q, limit, q):
                divisors[m].append(q)
    for n in range(1, limit):
        assert _prime_divisors(n) == tuple(divisors[n])
        assert _is_prime(n) == (divisors[n] == [n])
        assert euler_phi(n) == np.count_nonzero(np.gcd(np.arange(1, n + 1), n) == 1)

    def order(r, p):
        x, k = r, 1
        while x != 1:
            x, k = x * r % p, k + 1
        return k

    for p in (q for q in range(2, 2000) if divisors[q] == [q]):
        assert _primitive_root(p) == next(r for r in range(1, p) if order(r, p) == p - 1)


def test_cyclotomic_base_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)


def test_cyclotomic_12_by_division():
    # divide x^12 - 1 by Phi_1 Phi_2 Phi_3 Phi_4 Phi_6 and compare
    num = [-1] + [0] * 11 + [1]
    for d in (1, 2, 3, 4, 6):
        den = list(cyclotomic_polynomial(d))
        dd = len(den) - 1
        quot = [0] * (len(num) - dd)
        for i in range(len(num) - 1, dd - 1, -1):
            c = num[i]
            quot[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
        assert all(v == 0 for v in num[:dd])
        num = quot
    assert tuple(num) == cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_degree_and_divisibility_up_to_240():
    for e in range(1, 241):
        phi = cyclotomic_polynomial(e)
        assert len(phi) - 1 == euler_phi(e)
        assert phi[-1] == 1
        xe_minus_1 = [-1] + [0] * (e - 1) + [1]
        assert poly_divides(xe_minus_1, phi)


def test_root_arithmetic_examples():
    z4 = CycInt.root(4)
    assert z4 * z4 == -1
    z3 = CycInt.root(3)
    assert z3 + z3 * z3 == -1
    z8 = CycInt.root(8)
    assert (z8 + z8**7) ** 2 == 2


def test_as_integer():
    assert CycInt.integer(7).as_integer() == 7
    assert CycInt.root(3).as_integer() is None
    z3 = CycInt.root(3)
    assert (z3 + z3**2 + 5).as_integer() == 4


def test_cross_order_equality():
    a = CycInt.root(8, 2)
    b = CycInt.root(4)
    assert a == b
    assert CycInt.root(6) == -CycInt.root(3, 2)
    assert CycInt(3, (-1, -1)) == CycInt.root(3, 2)


small_orders = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 20, 24])


@st.composite
def cyc_values(draw):
    e = draw(small_orders)
    length = draw(st.integers(min_value=1, max_value=euler_phi(e) + 2))
    coeffs = draw(
        st.lists(st.integers(-9, 9), min_size=length, max_size=length)
    )
    return CycInt(e, coeffs)


@settings(max_examples=200, deadline=None)
@given(cyc_values(), cyc_values(), cyc_values())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_bulk_random_triples_axioms():
    rng = random.Random(2024)
    orders = [1, 2, 3, 4, 6, 8, 12]
    for _ in range(2000):
        e = rng.choice(orders)
        phi = euler_phi(e)
        vals = [
            CycInt(e, [rng.randint(-5, 5) for _ in range(phi)]) for _ in range(3)
        ]
        a, b, c = vals
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c


def remainder_mod_cyclotomic(e, coeffs):
    """sum c_k x^k reduced by x^e = 1 and then by Phi_e, as a length-phi vector."""
    num = [0] * e
    for k, c in enumerate(coeffs):
        num[k % e] += c
    den = cyclotomic_polynomial(e)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        for j in range(dd + 1):
            num[i - dd + j] -= c * den[j]
    return tuple(num[:dd])


@settings(max_examples=300, deadline=None)
@given(small_orders, st.data())
def test_coefficients_are_the_remainder(e, data):
    # inputs shorter than phi(e) take the oracle's power-basis path, longer
    # ones its row reduction; both, and `reduced` on the row folded by
    # x^e = 1, must give the remainder mod Phi_e
    coeffs = data.draw(st.lists(st.integers(-9, 9), min_size=1, max_size=2 * e + 2))
    want = remainder_mod_cyclotomic(e, coeffs)
    assert CycInt(e, coeffs).coeffs == want
    folded = np.zeros(min(len(coeffs), e), dtype=np.int64)
    np.add.at(folded, np.arange(len(coeffs)) % e, coeffs)
    assert tuple(reduced(folded, e).tolist()) == want


def test_cyc_sum():
    zs = [CycInt.root(5, k) for k in range(5)]
    assert cyc_sum(zs).as_integer() == 0
    assert cyc_sum([]) == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(cyc_values(), min_size=1, max_size=6))
def test_cyc_sum_is_the_folded_sum_over_mixed_orders(values):
    # each value embedded at the lcm of the orders and the rows added, against
    # the oracle's layout sum, whose row for the first value counts it twice,
    # and one __add__ per value
    values = values + values[:1]
    e = math.lcm(*(v.order for v in values))
    total = sum(embed(np.array([v.coeffs]), v.order, e)[0] for v in values)
    folded = reduce(add, values)
    assert e == folded.order == cyc_sum(iter(values)).order
    assert tuple(total.tolist()) == folded.coeffs == cyc_sum(iter(values)).coeffs


# ---------------------------------------------------------------------------
# coefficient rows against CycInt


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 4))
def test_layout_sums_products_and_grams_match_cycint(data, m, l, n):
    a = [[data.draw(cyc_values()) for _ in range(n)] for _ in range(m)]
    b = [[data.draw(cyc_values()) for _ in range(n)] for _ in range(l)]
    h = data.draw(st.lists(st.integers(1, 50), min_size=n, max_size=n))
    flat = [v for row in a + b for v in row]
    e = math.lcm(*(v.order for v in flat))
    laid = np.concatenate([embed(np.array([v.coeffs]), v.order, e) for v in flat])
    assert np.array_equal(laid, as_coeffs(flat, e))
    la, lb = laid[: m * n].reshape(m, n, -1), laid[m * n :].reshape(l, n, -1)
    products = reduced(convolve(la[0], lb[0], e), e)
    for k in range(n):
        assert tuple(products[k].tolist()) == (a[0][k] * b[0][k]).embed(e).coeffs
    grams = reduced(gram(la, lb, e, np.array(h)), e)
    for i in range(m):
        for j in range(l):
            want = cyc_sum(a[i][k] * b[j][k] * h[k] for k in range(n))
            assert tuple(grams[i, j].tolist()) == want.embed(e).coeffs
    assert tuple(laid.sum(axis=0).tolist()) == reduce(add, flat).embed(e).coeffs


def test_layout_leaves_int64_past_two_to_the_63():
    big = CycInt(4, (2**62, -(2**62)))
    rows = as_coeffs([big], 4)
    assert rows.dtype == np.int64
    square = reduced(convolve(rows, rows, 4), 4)
    assert tuple(square[0]) == (big * big).coeffs and abs(square[0][1]) > 2**63
    doubled = as_coeffs([big + big], 4)  # its coefficients reach 2^63
    assert doubled.dtype == object
    assert tuple(embed(doubled, 4, 8)[0]) == (big + big).embed(8).coeffs
    # reduced's gate, len(red) max|rows| max|red| = 4 top: int64 below 2^61,
    # and at 2^62 the coefficients 2 top = 2^63 would wrap
    for top in (2**61 - 1, 2**62):
        canon = reduced(np.array([[top, top, -top, -top]], dtype=np.int64), 4)
        assert canon.tolist() == [[2 * top, 2 * top]]
        assert canon.dtype == (np.int64 if top < 2**61 else object)
