import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mckaygraphs.chartable as chartable
from mckaygraphs.chartable import (
    CharVector,
    FaithfulSelfDualMinDim,
    InternalNonInteger,
    Irrep,
    LiftOutOfRange,
    SelectorEmpty,
    _lift,
    adjacency_matrix,
    class_weighted_dual,
    compute_character_table,
    dixon_prime,
    is_faithful,
    is_self_dual,
    kernel_of_character,
    multiplicities,
    normal_subgroups,
    residues,
    resolve_rho,
    rho_from_class_function,
)
from cycint import CycInt, as_coeffs, as_cycints, cyc_sum, table_values
from tuplegraphs import centralizer
from mckaygraphs.catalog import build_group
from mckaygraphs.cyclotomic import _is_prime, _primitive_root, convolve, reduced
from mckaygraphs.groups import (
    BinaryDihedral,
    BinaryPoly,
    Cyclic,
    Dihedral,
    ElemAb,
    Extraspecial2,
    Heisenberg,
    Product,
    conjugacy,
    spec_text,
    subgroup_from_elements,
)
from mckaygraphs.modp import mul_mod, simultaneous_split
from mckaygraphs.verify import IDENTITY_FIXTURES, SWEEP_SPECS, _exact_multiplicities, fixture
from test_modp import int64_mul_mod


def table(spec):
    g = build_group(spec)
    cd = conjugacy(g)
    return g, cd, compute_character_table(g, cd)


def _class_matrix(g, cd, i):
    """Matrix of multiplication by the i-th class sum, from the products of
    that class alone, oriented so that the vectors (omega(c_k))_k of central
    characters are column eigenvectors: the oracle for the matrices that
    `_split_matrices` reads off one index of all the products."""
    r = cd.r
    # row k over j counts {x in C_i : x^-1 z_k in C_j}
    prods = g.mul[g.inv[cd.classes[i]][:, None], np.asarray(cd.reps)[None, :]]
    flat = cd.class_of[prods] + r * np.arange(r)[None, :]
    return np.bincount(flat.ravel(), minlength=r * r).reshape(r, r).T


def test_dixon_prime_choice():
    assert dixon_prime(1, 1) == 3
    assert dixon_prime(6, 6) == 13
    assert dixon_prime(8, 4) == 17
    p = dixon_prime(120, 60)
    assert p > 240 and p % 60 == 1 and p == 241


def whole_space_split(mats, p, r):
    return simultaneous_split(mats, p, np.eye(r, dtype=np.int64), list(range(r)))


def whole_space_table(g, cd):
    """The table's (degrees, rows, index, modular, trivial_index) with every
    central character from the split of the whole class algebra and every
    row through the lift, linear ones included."""
    n, r, e = g.order, cd.r, cd.exponent
    p = dixon_prime(n, e)
    h = np.array(cd.sizes, dtype=np.int64)
    vectors = whole_space_split(chartable._split_matrices(g, cd, p, random.Random(p)), p, r)
    omega = vectors * np.array([pow(int(v), -1, p) for v in vectors[:, 0]])[:, None] % p
    h_inv = np.array([pow(int(x), -1, p) for x in h], dtype=np.int64)
    total = (omega * omega[:, cd.inverse_class] % p * h_inv % p).sum(axis=1) % p
    degrees = [next(d for d in range(1, n + 1) if d * d * t % p == n % p) for t in total.tolist()]
    modular = np.array(degrees, dtype=np.int64)[:, None] * omega % p * h_inv % p
    rows, index = _lift(modular, degrees, cd, p)
    order = np.lexsort(np.vstack([index.T[::-1], [degrees]]))
    index = index[order]
    one = rows.tolist().index([1] + [0] * (rows.shape[1] - 1))
    trivial = int(np.flatnonzero((index == one).all(axis=1))[0])
    return [degrees[i] for i in order], rows, index, modular[order], trivial


@pytest.mark.parametrize(
    "spec",
    [Dihedral(9), BinaryPoly("O"), Heisenberg(3, 1), Extraspecial2(2, "+"), ElemAb(2, 5)],
    ids=spec_text,
)
def test_split_does_not_depend_on_class_order(monkeypatch, spec):
    g = build_group(spec)
    cd = conjugacy(g)
    p = dixon_prime(g.order, cd.exponent)
    mats = [_class_matrix(g, cd, i) for i in range(cd.r)]
    by_index = whole_space_split(mats[1:], p, cd.r)
    by_reverse = whole_space_split(mats[:0:-1], p, cd.r)
    assert np.array_equal(by_index, by_reverse)
    # the table's own stream splits the complement of the linear central
    # characters omega = h chi into the rest of the same vectors
    split, got = chartable.simultaneous_split, []
    monkeypatch.setattr(chartable, "simultaneous_split", lambda *a: got.append(split(*a)) or got[-1])
    ct = compute_character_table(g, cd)
    h = np.array(cd.sizes, dtype=np.int64)
    linear = {tuple(ct.modular[i] * h % p) for i in range(ct.r) if ct.degrees[i] == 1}
    rest = [v for v in by_index if tuple(v) not in linear]
    assert len(rest) == cd.r - len(linear)
    assert np.array_equal(got[0], np.array(rest, dtype=np.int64).reshape(-1, cd.r))


@pytest.mark.parametrize(
    "spec", [Dihedral(12), Extraspecial2(2, "-"), Heisenberg(3, 1), ElemAb(2, 5)], ids=spec_text
)
def test_table_does_not_depend_on_the_seed(monkeypatch, spec):
    g = build_group(spec)
    cd = conjugacy(g)
    p, r = dixon_prime(g.order, cd.exponent), cd.r
    tables = [compute_character_table(g, cd)]
    stream = chartable._split_matrices
    monkeypatch.setattr(
        chartable, "_split_matrices", lambda g, cd, p, rng: stream(g, cd, p, random.Random(12345))
    )
    tables.append(compute_character_table(g, cd))
    assert tables[0].degrees == tables[1].degrees
    assert np.array_equal(tables[0].rows, tables[1].rows)
    assert np.array_equal(tables[0].index, tables[1].index)
    assert np.array_equal(tables[0].modular, tables[1].modular)
    # each combination is the exact sum of weighted class matrices, mod p
    mats = [_class_matrix(g, cd, i) for i in range(r)]
    drawn = stream(g, cd, p, random.Random(p))
    next(drawn)
    replay = random.Random(p)
    for _ in range(3):
        weights = [replay.randrange(p) for _ in range(r)]
        assert np.array_equal(next(drawn), sum(c * m for c, m in zip(weights, mats)) % p)


def test_cyclic_table_draws_one_matrix(monkeypatch):
    """An abelian group's characters are all linear, so its split draws no
    matrix.  In dihedral:9 the class of a rotation of order 9 separates the
    four characters of degree 2, so the split draws that class matrix alone,
    read off the index of the random combinations, and no combination."""
    split, drawn = chartable.simultaneous_split, []
    monkeypatch.setattr(
        chartable, "simultaneous_split", lambda mats, *a: split((drawn.append(m) or m for m in mats), *a)
    )
    g, cd, ct = table(Cyclic(64))
    assert not drawn and ct.r == 64
    g, cd, ct = table(Dihedral(9))
    orders = [cd.element_orders[rep] for rep in cd.reps]
    assert len(drawn) == 1 and ct.degrees.count(2) == 4
    assert np.array_equal(drawn[0], _class_matrix(g, cd, orders.index(9)))


# every group the benchmark ladders tabulate
LADDER_SPECS = [
    BinaryPoly("I"),  # perfect: G' = G, so only the trivial character is linear
    Dihedral(32),
    Extraspecial2(3, "+"),
    Product(BinaryPoly("I"), Cyclic(4)),
    ElemAb(2, 6),
    Heisenberg(3, 2),
    Cyclic(64),
    ElemAb(2, 7),
    Extraspecial2(4, "-"),
    Product(BinaryPoly("I"), Cyclic(8)),
    Dihedral(64),
]


@lru_cache(maxsize=None)
def oracle_table(spec):
    g = build_group(spec)
    cd = conjugacy(g)
    return g, cd, whole_space_table(g, cd)


@pytest.mark.parametrize("spec", [*SWEEP_SPECS, *LADDER_SPECS, Cyclic(1)], ids=spec_text)
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_table_matches_the_whole_space_oracle(spec, seed):
    g, cd, (degrees, rows, index, modular, trivial) = oracle_table(spec)
    stream = chartable._split_matrices
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chartable, "_split_matrices", lambda g, cd, p, rng: stream(g, cd, p, random.Random(seed)))
        ct = compute_character_table(g, cd)
    assert ct.degrees == degrees and ct.trivial_index == trivial
    assert np.array_equal(ct.rows, rows) and np.array_equal(ct.index, index)
    assert np.array_equal(ct.modular, modular)


def test_trivial_group():
    g, cd, ct = table(Cyclic(1))
    assert ct.degrees == [1]
    assert table_values(ct)[0][0] == 1
    assert ct.trivial_index == 0


def test_s3_table():
    g, cd, ct = table(Dihedral(3))
    assert ct.degrees == [1, 1, 2]
    # ref values are (2, -1, 0) on (identity, rotations, reflections)
    values = table_values(ct)
    vals = sorted(v.as_integer() for v in values[2])
    assert vals == [-1, 0, 2]
    assert values[ct.trivial_index] == tuple(CycInt.one() for _ in range(3))


def test_degree_fixtures():
    for spec, degrees in [
        (BinaryPoly("T"), [1, 1, 1, 2, 2, 2, 3]),
        (BinaryPoly("O"), [1, 1, 2, 2, 2, 3, 3, 4]),
        (BinaryPoly("I"), [1, 2, 2, 3, 3, 4, 4, 5, 6]),
        (Dihedral(3), [1, 1, 2]),
    ]:
        _, _, ct = table(spec)
        assert sorted(ct.degrees) == sorted(degrees), spec


def test_extraspecial_degrees():
    for n in (0, 1, 2, 3):
        for variant in "+-":
            _, _, ct = table(Extraspecial2(n, variant))
            assert sorted(ct.degrees) == [1] * 4**n + [2**n]


def test_sum_of_degree_squares():
    for spec in (Dihedral(7), BinaryDihedral(4), BinaryPoly("O"), Cyclic(9)):
        g, _, ct = table(spec)
        assert sum(d * d for d in ct.degrees) == g.order


def test_exact_orthogonality_small():
    for spec in (Dihedral(5), BinaryDihedral(3), BinaryPoly("T"), Cyclic(8)):
        _, _, ct = table(spec)
        for i in range(ct.r):
            assert _exact_multiplicities(ct, ct.rows[ct.index[i]], ct.exponent) == tuple(
                int(i == j) for j in range(ct.r)
            )


def test_modular_round_trip():
    _, _, ct = table(BinaryPoly("I"))
    p, e = ct.prime, ct.exponent
    xi = pow(_primitive_root(p), (p - 1) // e, p)
    for i in range(ct.r):
        for k in range(ct.r):
            acc = 0
            for t, c in enumerate(ct.rows[ct.index[i, k]].tolist()):
                acc = (acc + c * pow(xi, t, p)) % p
            assert acc == int(ct.modular[i, k])


def test_resolve_selectors():
    _, _, ct = table(Cyclic(2))
    sgn = 1 - ct.trivial_index
    rho = resolve_rho(ct, Irrep(sgn))
    assert [v.as_integer() for v in as_cycints(rho.chi, rho.order)] in ([1, -1], [-1, 1])
    with pytest.raises(Exception):
        resolve_rho(ct, Irrep(5))
    _, _, ct4 = table(ElemAb(2, 2))
    with pytest.raises(SelectorEmpty):
        resolve_rho(ct4, FaithfulSelfDualMinDim())  # abelian non-cyclic: nothing faithful
    vec = resolve_rho(ct4, CharVector((1, 1, 0, 0)))
    assert vec.dim == 2 and not vec.irreducible


def test_faithful_selfdual_min_on_bt():
    _, _, ct = table(BinaryPoly("T"))
    rho = resolve_rho(ct, FaithfulSelfDualMinDim())
    assert rho.dim == 2
    # the other two 2-dimensional rows are not self-dual
    two_dims = [i for i in range(ct.r) if ct.degrees[i] == 2]
    self_dual = [i for i in two_dims if is_self_dual(ct, ct.index[i])]
    assert len(self_dual) == 1


def test_tensor_multiplicities_s3():
    _, _, ct = table(Dihedral(3))
    ref = next(i for i in range(3) if ct.degrees[i] == 2)
    rho = resolve_rho(ct, Irrep(ref))
    n = tensor_oracle(ct, rho)
    assert n[ct.trivial_index][ref] == 1
    others = [i for i in range(3) if i != ref]
    for j in others:
        assert n[ct.trivial_index][j] == 0
    assert n[ref][ref] == 1  # the loop


def test_tensor_dimension_count():
    for spec in (BinaryPoly("T"), Dihedral(6), BinaryDihedral(3)):
        _, _, ct = table(spec)
        rho = resolve_rho(ct, FaithfulSelfDualMinDim())
        n = tensor_oracle(ct, rho)
        for i in range(ct.r):
            total = sum(n[i][j] * ct.degrees[j] for j in range(ct.r))
            assert total == ct.degrees[i] * rho.dim


def test_kernels():
    g, cd, ct = table(BinaryPoly("T"))
    rho = resolve_rho(ct, FaithfulSelfDualMinDim())
    assert kernel_of_character(ct, rho.chi).order == 1
    assert is_faithful(ct, rho.chi)
    # pullback along the projection of a product has the other factor as kernel
    gp, cdp, ctp = table(Product(BinaryPoly("T"), Cyclic(3)))
    chi = rho.chi[cd.class_of[np.asarray(cdp.reps) // 3]]
    rho_p = rho_from_class_function(ctp, chi, rho.order)
    kern = kernel_of_character(ctp, rho_p.chi)
    assert kern.elements == (0, 1, 2)  # the cyclic factor


def restrict(ct, sub, sub_ct, chi):
    return chi[ct.conj.class_of[np.asarray(sub.elements)[sub_ct.conj.reps]]]


def modular_restriction(ct, sub_ct, restricted):
    """The restriction, at ct's exponent, decomposed in the field of ct."""
    row = residues(ct.prime, restricted, ct.exponent)[None]
    return tuple(multiplicities(sub_ct, row, [int(restricted[0, 0])], ct.prime)[0].tolist())


def test_restriction_q8():
    g, cd, ct = table(BinaryDihedral(2))
    rho = resolve_rho(ct, FaithfulSelfDualMinDim())
    k = next(i for i in range(ct.r) if cd.sizes[i] == 2)
    sub = subgroup_from_elements(g, centralizer(cd, k))
    assert sub.order == 4
    sub_ct = compute_character_table(sub.group)
    restricted = restrict(ct, sub, sub_ct, rho.chi)
    mults = _exact_multiplicities(sub_ct, restricted, ct.exponent)
    assert sorted(mults) == [0, 0, 1, 1]
    assert modular_restriction(ct, sub_ct, restricted) == mults
    # oracle: inner products computed by hand over the cyclic subgroup C_4
    values, sub_values = as_cycints(restricted, ct.exponent), table_values(sub_ct)
    for tau_index, m in enumerate(mults):
        acc = CycInt.zero()
        for c in range(sub_ct.r):
            size = sub_ct.conj.sizes[c]
            cinv = sub_ct.conj.inverse_class[c]
            acc = acc + values[c] * sub_values[tau_index][cinv] * size
        assert acc == 4 * m


def test_restriction_bo_to_bt_is_tautological():
    bo = build_group(BinaryPoly("O"))
    cdo = conjugacy(bo)
    cto = compute_character_table(bo, cdo)
    rho_o = resolve_rho(cto, FaithfulSelfDualMinDim())
    bt_sub = normal_subgroups(cto, 24)[0]
    bt_ct = compute_character_table(bt_sub.group)
    restricted = restrict(cto, bt_sub, bt_ct, rho_o.chi)
    mults = modular_restriction(cto, bt_ct, restricted)
    assert mults == _exact_multiplicities(bt_ct, restricted, cto.exponent)
    assert sum(mults) == 1
    idx = mults.index(1)
    assert bt_ct.degrees[idx] == 2
    assert is_faithful(bt_ct, bt_ct.rows[bt_ct.index[idx]])
    assert is_self_dual(bt_ct, bt_ct.rows[bt_ct.index[idx]])


def residues_oracle(p, rows):
    """One value at a time: sum_j c_j z^j mod p for z = g^((p-1)/order)."""
    g = _primitive_root(p)
    out = []
    for row in rows:
        images = []
        for v in row:
            assert (p - 1) % v.order == 0
            z = pow(g, (p - 1) // v.order, p)
            images.append(sum(c * pow(z, j, p) for j, c in enumerate(v.coeffs)) % p)
        out.append(images)
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize(
    "spec", [Cyclic(12), Dihedral(9), BinaryPoly("I"), Heisenberg(3, 1), ElemAb(2, 3)],
    ids=spec_text,
)
def test_residues_match_the_per_value_oracle(spec):
    _, _, ct = table(spec)
    values = table_values(ct)
    at_prime = residues(ct.prime, ct.rows, ct.exponent)[ct.index]
    assert np.array_equal(at_prime, residues_oracle(ct.prime, values))
    assert np.array_equal(at_prime, ct.modular)
    # a larger prime of the same residue class mod the exponent
    p = next(q for q in range(ct.prime + ct.exponent, 10**5, ct.exponent) if _is_prime(q))
    at_p = residues(p, ct.rows, ct.exponent)[ct.index]
    assert np.array_equal(at_p, residues_oracle(p, values))


def test_subgroup_residues_in_the_larger_field():
    # binary:T has exponent 12 and binary:O exponent 24: binary:T's table and
    # the restriction of binary:O's rho reduce into binary:O's field
    bo = build_group(BinaryPoly("O"))
    cdo = conjugacy(bo)
    cto = compute_character_table(bo, cdo)
    bt_sub = normal_subgroups(cto, 24)[0]
    bt_ct = compute_character_table(bt_sub.group)
    assert bt_ct.exponent != cto.exponent
    rho = resolve_rho(cto, FaithfulSelfDualMinDim())
    p = cto.prime
    own = residues(p, bt_ct.rows, bt_ct.exponent)[bt_ct.index]
    assert np.array_equal(own, residues_oracle(p, table_values(bt_ct)))
    restricted = restrict(cto, bt_sub, bt_ct, rho.chi)
    want = residues_oracle(p, [as_cycints(restricted, cto.exponent)])
    assert np.array_equal(residues(p, restricted, cto.exponent)[None], want)


def class_rebuild(ct, k):
    """Column k of the table, one CycInt per row, from the eigenvalue
    multiplicities of the class representative g of order n: a DFT over <g>
    in Python integers, then sum_j m_j zeta_n^j at the order n of g."""
    cd, p = ct.conj, ct.prime
    n, pc = cd.element_orders[cd.reps[k]], cd.power_classes(k)
    xi_n = pow(_primitive_root(p), (p - 1) // n, p)
    column = []
    for i in range(ct.r):
        terms = []
        for j in range(n):
            acc = sum(int(ct.modular[i, pc[t]]) * pow(xi_n, -j * t, p) for t in range(n))
            terms.append(CycInt.root(n, j) * (acc * pow(n, -1, p) % p))
        column.append(cyc_sum(terms))
    return column


small_or_huge = st.one_of(st.integers(0, 3), st.integers(2**63 - 2, 2**66))


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(SWEEP_SPECS), data=st.data())
def test_layout_matches_the_cycint_oracle(spec, data):
    ct = fixture(spec).ct
    r, e, inv = ct.r, ct.exponent, ct.conj.inverse_class
    values = table_values(ct)
    # value equality is index equality
    assert len(set(map(tuple, ct.rows.tolist()))) == len(ct.rows)
    c = data.draw(st.integers(0, r - 1), label="class")
    assert [row[c] for row in values] == class_rebuild(ct, c)

    mults = data.draw(st.lists(small_or_huge, min_size=r, max_size=r).filter(any), label="mults")
    rho = resolve_rho(ct, CharVector(tuple(mults)))
    chi = tuple(
        sum((values[i][k] * m for i, m in enumerate(mults) if m), CycInt.zero()) for k in range(r)
    )
    assert as_cycints(rho.chi, rho.order) == chi
    assert is_self_dual(ct, rho.chi) == all(chi[k] == chi[inv[k]] for k in range(r))
    assert is_faithful(ct, rho.chi) == all(chi[k] != chi[0] for k in range(1, r))
    kernel = kernel_of_character(ct, rho.chi)
    at_one = {k for k in range(r) if chi[k] == chi[0]}
    assert set(ct.conj.class_of[list(kernel.elements)].tolist()) == at_one

    # an irreducible by its index
    i = data.draw(st.integers(0, r - 1), label="irreducible")
    assert is_self_dual(ct, ct.index[i]) == all(values[i][k] == values[i][inv[k]] for k in range(r))
    assert is_faithful(ct, ct.index[i]) == all(values[i][k] != values[i][0] for k in range(1, r))

    p = next(q for q in range(ct.prime + e, 10**6, e) if _is_prime(q))
    assert np.array_equal(residues(p, rho.chi, e), residues_oracle(p, [chi])[0])
    assert np.array_equal(residues(p, ct.rows, e)[ct.index], residues_oracle(p, values))


def test_table_layout_has_one_row_per_distinct_value():
    # every value of cyclic:256 is one of its 256 roots of unity
    _, _, ct = table(Cyclic(256))
    assert ct.rows.shape == (256, 128) and ct.index.shape == (256, 256) and ct.exponent == 256
    assert len(set(map(tuple, ct.rows.tolist()))) == 256
    assert sorted(ct.rows.tolist()) == ct.rows.tolist()


def test_self_dual_examples():
    _, _, ct = table(ElemAb(2, 3))
    for i in range(ct.r):
        assert is_self_dual(ct, ct.index[i])  # all values are +-1
    _, _, ct5 = table(Cyclic(5))
    non_trivial = [i for i in range(5) if i != ct5.trivial_index]
    assert all(not is_self_dual(ct5, ct5.index[i]) for i in non_trivial)


def test_decompose_character():
    _, _, ct = table(Dihedral(4))
    rho = resolve_rho(ct, FaithfulSelfDualMinDim())
    sq = reduced(convolve(rho.chi, rho.chi, rho.order), rho.order)
    chi = as_cycints(rho.chi, rho.order)
    assert np.array_equal(sq, as_coeffs([v * v for v in chi], rho.order))
    mults = rho_from_class_function(ct, sq, rho.order).mults
    assert mults == _exact_multiplicities(ct, sq, rho.order)
    assert sum(m * d for m, d in zip(mults, ct.degrees)) == 4
    assert min(mults) >= 0


def test_deterministic_table():
    _, _, a = table(BinaryPoly("O"))
    _, _, b = table(BinaryPoly("O"))
    assert a.degrees == b.degrees
    assert np.array_equal(a.rows, b.rows) and np.array_equal(a.index, b.index)
    assert np.array_equal(a.modular, b.modular)


# ---------------------------------------------------------------------------
# the modular adjacency against the exact per-pair oracle

ADJACENCY_SPECS = [
    Cyclic(5),
    Dihedral(9),
    Dihedral(8),
    BinaryPoly("T"),
    Heisenberg(3, 1),
    BinaryDihedral(3),
    Cyclic(12),
]


@lru_cache(maxsize=None)
def cached_table(spec):
    return table(spec)[2]


def tensor_oracle(ct, rho, rows=None):
    """Exact dim Hom(chi_i (x) rho, chi_j) for the rows i (all by default),
    with each product chi_i rho taken value by value."""
    rows = range(ct.r) if rows is None else rows
    values, chi, e = table_values(ct), as_cycints(rho.chi, rho.order), ct.exponent
    return [
        list(_exact_multiplicities(ct, as_coeffs([a * b for a, b in zip(values[i], chi)], e), e))
        for i in rows
    ]


@pytest.mark.parametrize("spec", ADJACENCY_SPECS)
def test_adjacency_matches_oracle_on_irreducibles(spec):
    ct = cached_table(spec)
    assert 1 in ct.degrees  # linear rho is covered
    for i in range(ct.r):
        rho = resolve_rho(ct, Irrep(i))
        assert adjacency_matrix(ct, rho).tolist() == tensor_oracle(ct, rho)


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from(ADJACENCY_SPECS),
    mults=st.lists(st.integers(0, 4), min_size=12, max_size=12),
)
# cyclic:5 has p = 11, so dim rho = 11 reaches p; each product chi_i chi_m stays below it
@example(spec=Cyclic(5), mults=[3, 3, 3, 2, 0] + [0] * 7)
def test_adjacency_matches_oracle_on_random_charvectors(spec, mults):
    ct = cached_table(spec)
    mults = tuple(mults[: ct.r])
    if not any(mults):
        mults = (1,) + mults[1:]
    rho = resolve_rho(ct, CharVector(mults))
    assert adjacency_matrix(ct, rho).tolist() == tensor_oracle(ct, rho)


def test_adjacency_products_stay_inside_the_lift_bound(monkeypatch):
    import mckaygraphs.chartable as chartable

    ct = cached_table(Cyclic(5))
    assert ct.prime == 11
    degrees = []

    def recorded(ct_, rows, dims, p):
        degrees.extend(int(d) for d in dims)
        return multiplicities(ct_, rows, dims, p)

    monkeypatch.setattr(chartable, "multiplicities", recorded)
    big = resolve_rho(ct, CharVector((3, 3, 3, 2, 0)))  # dim 11 = p
    assert adjacency_matrix(ct, big).tolist() == tensor_oracle(ct, big)
    assert len(degrees) == 4 * 5 and max(degrees) < ct.prime


# class 0 is the identity, where the given degree no longer matches the row
@pytest.mark.parametrize("k", [0, 3])
def test_multiplicities_reject_a_spoiled_row(k):
    ct = cached_table(BinaryPoly("T"))
    p = ct.prime
    rows = ct.modular.copy()
    assert np.array_equal(multiplicities(ct, rows, ct.degrees, p), np.eye(ct.r, dtype=np.int64))
    rows[4, k] = (rows[4, k] + 1) % p
    with pytest.raises(InternalNonInteger):
        multiplicities(ct, rows, ct.degrees, p)


def gather_products(ct, rows):
    """rows diag(h) T[:, inv]^T mod p in int64, gathered per call: the
    formula the class-weighted dual replaced, |G| times the multiplicities."""
    p, h = ct.prime, np.array(ct.conj.sizes, dtype=np.int64)
    return int64_mul_mod(rows * h % p, ct.modular[:, ct.conj.inverse_class].T, p)


@pytest.mark.parametrize("spec", [*IDENTITY_FIXTURES, Cyclic(1024)], ids=spec_text)
def test_dual_matches_the_gather_formula(spec):
    """The Gram product of the table against its dual, and the multiplicities
    of the products chi_i chi_m that the adjacency decomposes, equal the
    gather formula over |G|."""
    ct = table(spec)[2]
    p, n, r = ct.prime, ct.group.order, ct.r
    dual = class_weighted_dual(ct.modular, ct.conj, n, p)
    assert dual.dtype == np.float64
    gram = gather_products(ct, ct.modular)
    assert np.array_equal(gram, n % p * np.eye(r, dtype=np.int64))
    assert np.array_equal(mul_mod(ct.modular, dual, p) * n % p, gram)
    m = r - 1  # the last irreducible, one of largest degree
    rows = ct.modular * ct.modular[m] % p
    mults = multiplicities(ct, rows, np.array(ct.degrees) * ct.degrees[m], p)
    assert np.array_equal(mults * n % p, gather_products(ct, rows))


# ---------------------------------------------------------------------------
# kernels and faithfulness without a closure


# in product(binary:T,cyclic:2), class 1 is the central C_2 on its own: a kernel
@pytest.mark.parametrize(
    "spec",
    [Extraspecial2(3, "+"), BinaryPoly("O"), Dihedral(9), Product(BinaryPoly("T"), Cyclic(2))],
)
def test_kernels_match_closure_oracle(spec):
    g, cd, ct = table(spec)
    for i, chi in enumerate(table_values(ct)):
        kern = kernel_of_character(ct, ct.index[i])
        classes = [cd.classes[k] for k in range(ct.r) if chi[k] == chi[0]]
        closure = subgroup_from_elements(g, np.concatenate(classes))
        assert kern.elements == closure.elements
        assert kern.normal and closure.normal
        assert is_faithful(ct, ct.index[i]) == (kern.order == 1)


# ---------------------------------------------------------------------------
# the batched lift against a per-entry DFT


def lift_entry(modrow, d, cd, k, p, xi):
    """One value: a DFT over the powers of the class representative alone."""
    e = cd.exponent
    nk = cd.element_orders[cd.reps[k]]
    pc = cd.power_classes(k)
    xik_inv = pow(pow(xi, e // nk, p), p - 2, p)
    coeffs = [0] * e
    for j in range(nk):
        acc = sum(int(modrow[pc[t]]) * pow(xik_inv, j * t, p) for t in range(nk))
        m = acc * pow(nk, p - 2, p) % p
        assert m <= d
        coeffs[j * (e // nk)] = m
    assert sum(coeffs) == d
    return CycInt(e, coeffs)


# cyclic:12 and cyclic:30 have power classes of every divisor order; binary:O,
# heis:3:1 and product(binary:T,cyclic:2) have several maximal cyclic subgroups
@pytest.mark.parametrize(
    "spec",
    [
        Cyclic(12),
        Cyclic(30),
        Dihedral(9),
        BinaryPoly("O"),
        Heisenberg(3, 1),
        Product(BinaryPoly("T"), Cyclic(2)),
    ],
)
def test_lift_matches_per_entry_dft(spec):
    _, cd, ct = table(spec)
    p = ct.prime
    xi = pow(_primitive_root(p), (p - 1) // ct.exponent, p)
    oracle = [
        tuple(lift_entry(ct.modular[i], ct.degrees[i], cd, k, p, xi) for k in range(ct.r))
        for i in range(ct.r)
    ]
    assert oracle == table_values(ct)
    rows, index = _lift(ct.modular, ct.degrees, cd, p)
    assert np.array_equal(rows, ct.rows) and np.array_equal(index, ct.index)


# class 0 is the identity, which enters every DFT; class 6 of cyclic:12 has
# order 2, so its values come only from the DFT of a generator
@pytest.mark.parametrize("k", [0, 6])
def test_lift_rejects_a_spoiled_row(k):
    _, cd, ct = table(Cyclic(12))
    assert cd.element_orders[cd.reps[6]] == 2
    spoiled = ct.modular.copy()
    spoiled[3, k] = (spoiled[3, k] + 1) % ct.prime
    with pytest.raises(LiftOutOfRange):
        _lift(spoiled, ct.degrees, cd, ct.prime)
