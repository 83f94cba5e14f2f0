"""The exact-integer policy: `modp.exact_dtype`, `check_bound` and
`exact_matmul` decide when int64 is exact, and every site that falls back to
Python integers is driven to both sides of its gate against an oracle in
Python integers."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cycint import CycInt, as_cycints
from mckaygraphs.catalog import build_group
from mckaygraphs.chartable import (
    CharVector,
    adjacency_matrix,
    compute_character_table,
    resolve_rho,
)
from mckaygraphs.graphs import (
    _push_down,
    build_mckay_graph,
    decompose_components,
    principal_component_isomorphism_check,
)
from mckaygraphs.groups import Cyclic, Dihedral
from mckaygraphs.modp import check_bound, exact_dtype, exact_matmul
from mckaygraphs.verify import _char_power_sums

SRC = Path(__file__).resolve().parent.parent / "src" / "mckaygraphs"
LIMIT = 2**63


def table(spec):
    return compute_character_table(build_group(spec))


def python_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_the_gate_is_two_to_the_63():
    assert exact_dtype(LIMIT - 1) is np.int64 and exact_dtype(-(LIMIT - 1)) is np.int64
    assert exact_dtype(LIMIT) is object and exact_dtype(10**30) is object
    check_bound(LIMIT - 1, "values")
    with pytest.raises(AssertionError, match="values reach 9223372036854775808, past int64"):
        check_bound(LIMIT, "values")


@settings(max_examples=80, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
    scale=st.sampled_from([1, 2**20, 2**30, 2**31, 2**32, 2**62, 2**70]),
    data=st.data(),
)
def test_exact_matmul_matches_python_integers(shape, scale, data):
    m, n, k = shape
    entry = st.integers(-scale, scale)
    a = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    b = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    bound = n * max(abs(x) for row in a for x in row) * max(abs(x) for row in b for x in row)
    # int64 inputs when they fit, so the product leaves int64 on the bound alone
    fits = max(abs(x) for x in sum(a + b, [])) < LIMIT
    a_in = np.array(a, dtype=np.int64 if fits else object)
    b_in = np.array(b, dtype=np.int64 if fits else object)
    out = exact_matmul(a_in, b_in, bound)
    assert out.dtype == (np.int64 if bound < LIMIT else object)
    assert out.tolist() == python_matmul(a, b)


# charvec totals on both sides of each gate of cyclic:2, where every value is
# +-1: resolve_rho's sum(m) max|row| and adjacency_matrix's and the trace
# check's sum(d) dim rho = 2 dim rho
totals = st.one_of(
    st.integers(1, 5),
    st.integers(2**62 - 3, 2**62 + 3),
    st.integers(LIMIT - 3, LIMIT + 3),
    st.integers(2**64, 2**70),
)


@settings(max_examples=60, deadline=None)
@given(total=totals, data=st.data())
@example(total=2**62 - 1, data=None)
@example(total=2**62, data=None)
@example(total=LIMIT - 1, data=None)
@example(total=LIMIT, data=None)
def test_cyclic_2_charvec_on_both_sides_of_the_gates(total, data):
    ct = table(Cyclic(2))
    t = ct.trivial_index
    m_t = total // 3 if data is None else data.draw(st.integers(0, total), label="trivial")
    m_s = total - m_t
    mults = [0, 0]
    mults[t], mults[1 - t] = m_t, m_s
    rho = resolve_rho(ct, CharVector(tuple(mults)))
    # class 0 is the identity, where both characters are 1; the sign is -1 on class 1
    assert rho.chi.tolist() == [[total], [m_t - m_s]]
    assert rho.chi.dtype == (np.int64 if total < LIMIT else object)
    oracle = [[0, 0], [0, 0]]
    oracle[t][t] = oracle[1 - t][1 - t] = m_t
    oracle[t][1 - t] = oracle[1 - t][t] = m_s
    adj = adjacency_matrix(ct, rho)
    assert adj.tolist() == oracle
    assert adj.dtype == (np.int64 if 2 * total < LIMIT else object)
    graph = build_mckay_graph(ct, rho)  # asserts tr N = the class sum of chi
    assert graph.matrix.tolist() == oracle and int(np.trace(graph.matrix)) == 2 * m_t


counts = st.one_of(st.integers(0, 3), st.integers(LIMIT - 2, LIMIT + 2), st.integers(2**64, 10**21))


@settings(max_examples=25, deadline=None)
@given(mults=st.lists(counts, min_size=4, max_size=4).filter(any))
@example(mults=[10**20, 0, 1, 0])
@example(mults=[1, 0, 1, 0])
def test_push_down_matches_its_constituents_in_python_integers(mults):
    ct = table(Dihedral(5))
    graph = build_mckay_graph(ct, CharVector(tuple(mults)))
    decomp = decompose_components(graph)
    _, rho_q = _push_down(ct, decomp.kernel, graph.rho)
    # each constituent has the kernel inside its own, so it pushes down alone
    oracle = [0] * len(rho_q.mults)
    for m, count in enumerate(mults):
        if count:
            alone = resolve_rho(ct, CharVector(tuple(int(i == m) for i in range(ct.r))))
            row = _push_down(ct, decomp.kernel, alone)[1].mults
            oracle = [x + count * y for x, y in zip(oracle, row)]
    assert list(rho_q.mults) == oracle and rho_q.dim == graph.rho.dim
    assert principal_component_isomorphism_check(decomp)


# the class sum's gate r max|chi| = 2^63 falls at LIMIT / r, r = 3, 5 and 4 below
trivial_counts = st.one_of(
    st.integers(1, 3), st.integers(LIMIT // 5 - 8, LIMIT // 3 + 8), st.integers(2**64, 2**70)
)


@settings(max_examples=30, deadline=None)
@given(
    spec=st.sampled_from([Cyclic(3), Cyclic(5), Dihedral(5)]),
    big=trivial_counts,
    rest=st.lists(st.integers(0, 2), min_size=4, max_size=4),
    kmax=st.integers(1, 3),
)
def test_char_power_sums_match_cycint_sums(spec, big, rest, kmax):
    ct = table(spec)
    mults = (rest + [0] * ct.r)[: ct.r]
    mults[ct.trivial_index] = big
    rho = resolve_rho(ct, CharVector(tuple(mults)))
    values = as_cycints(rho.chi, rho.order)
    want = [sum((v**k for v in values), CycInt.zero()).as_integer() for k in range(1, kmax + 1)]
    assert _char_power_sums(rho.chi, rho.order, kmax) == want


def test_int64_gates_live_in_modp():
    """2**63 and the float64 bound 2**53 are written only in modp, and the
    exact layers never pick Python integers by hand.  shapes keeps its object
    arithmetic, the independent check of circuit counts and Perron-Frobenius
    vectors."""
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        if path.name != "modp.py":
            assert "2**63" not in text and "2**53" not in text, path.name
        if path.stem in ("chartable", "cyclotomic", "graphs", "verify"):
            assert not re.search(r"dtype=object|astype\(object\)", text), path.name
