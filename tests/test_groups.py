import hashlib
import time
import tracemalloc
from functools import lru_cache
from itertools import permutations, product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tablegroups import (
    central_product_by_quotient,
    elemab_by_digit_sums,
    extraspecial_by_quotient,
    normal_subgroups_by_joins,
)
from tuplegraphs import centralizer
from mckaygraphs.catalog import _derive_action, build_group, derive_cyclic_action, derive_elemab_action
from mckaygraphs.chartable import compute_character_table, normal_subgroups
from mckaygraphs.groups import (
    BinaryDihedral,
    BinaryPoly,
    ClosureDiverged,
    Cyclic,
    Dihedral,
    ElemAb,
    Extraspecial2,
    FiniteGroup,
    GroupBuildError,
    Heisenberg,
    InvalidAction,
    NotNormal,
    OrderCapExceeded,
    Product,
    Semidirect,
    _digits,
    _extend_hom,
    _greedy_generators,
    _row_blocks,
    abelian_homs,
    build_product,
    build_semidirect,
    central_product,
    commutator_subgroup,
    conjugacy,
    expanded_order,
    induced_group,
    is_normal,
    order_cap,
    quotient_group,
    spec_text,
    subgroup_from_elements,
    tables_isomorphic,
)
from mckaygraphs.verify import CONSTRUCTIONS, SWEEP_SPECS, designated_normal_subgroup, fixture


def test_expanded_orders_and_build():
    cases = [
        (Cyclic(1), 1),
        (Cyclic(6), 6),
        (Dihedral(3), 6),
        (BinaryDihedral(2), 8),
        (BinaryPoly("T"), 24),
        (BinaryPoly("O"), 48),
        (BinaryPoly("I"), 120),
        (Extraspecial2(2, "+"), 32),
        (Heisenberg(2, 2), 32),
        (ElemAb(2, 3), 8),
        (Product(BinaryPoly("T"), Cyclic(3)), 72),
        (Semidirect(BinaryPoly("O"), Cyclic(3)), 144),
        (BinaryDihedral(256), 1024),
    ]
    for spec, order in cases:
        assert expanded_order(spec) == order
        assert build_group(spec).order == order


@pytest.mark.parametrize(
    "spec, message",
    [
        (ElemAb(4, 2), "prime"),  # once (Z/4)^2 under the name elemab:4:2
        (Heisenberg(4, 1), "prime"),
        (Semidirect(Cyclic(4), ElemAb(1, 1)), "prime"),  # once p^n - 1 = 0 as a divisor
        (Product(Cyclic(2), ElemAb(6, 1)), "prime"),
        (Dihedral(1), "n >= 2"),
        (BinaryDihedral(1), "n >= 2"),
        (Extraspecial2(1, "*"), "variant"),
        (Extraspecial2(1, "+-"), "variant"),
    ],
)
def test_build_group_rejects_what_the_grammar_rejects(spec, message):
    with pytest.raises(GroupBuildError, match=message):
        build_group(spec)


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        build_group(Cyclic(7), cap=5)
    with pytest.raises(OrderCapExceeded):
        build_group(Extraspecial2(5, "+"))  # order 2048 > default cap
    # a raised cap builds what the Cayley table's byte bound admits
    assert build_group(Cyclic(2048), cap=4096).order == 2048


def test_table_is_group():
    for spec in (Dihedral(5), BinaryPoly("T"), Heisenberg(3, 1)):
        g = build_group(spec)
        n = g.order
        idx = np.arange(n)
        assert np.array_equal(np.sort(g.mul, axis=1), np.tile(idx, (n, 1)))
        assert np.all(g.mul[idx, g.inv] == 0)
        # spot associativity
        rng = np.random.default_rng(1)
        a, b, c = (rng.integers(0, n, 500) for _ in range(3))
        assert np.array_equal(g.mul[g.mul[a, b], c], g.mul[a, g.mul[b, c]])


def loop_tables(n):
    """Cayley tables of every loop on 0..n-1 with identity 0: the Latin
    squares whose first row and column are 0..n-1."""

    def extend(rows):
        if len(rows) == n:
            yield np.array(rows, dtype=np.int32)
            return
        i = len(rows)
        for rest in permutations([x for x in range(n) if x != i]):
            row = (i, *rest)
            if all(row[c] != r[c] for r in rows for c in range(1, n)):
                yield from extend(rows + [row])

    yield from extend([tuple(range(n))])


def as_table(mul, carrier="loop"):
    n = len(mul)
    inv = np.argmax(mul == 0, axis=1).astype(np.int32)
    names = [str(x) for x in range(n)]
    return FiniteGroup(order=n, mul=mul, inv=inv, carrier=carrier, element_names=names)


def validates(g):
    try:
        g.validate()
    except AssertionError:
        return False
    return True


def test_validate_is_exact_on_loops_of_order_5():
    # the full n^3 associativity check is the oracle for the generator test
    loops = list(loop_tables(5))
    assert len(loops) == 56
    verdicts = []
    for mul in loops:
        g = as_table(mul)
        if not np.all(mul[g.inv, np.arange(5)] == 0):
            continue  # no two-sided inverses: rejected before associativity
        assert validates(g) == np.array_equal(mul[mul], mul[:, mul])
        verdicts.append(validates(g))
    assert True in verdicts and False in verdicts


def test_validate_rejects_a_loop_above_order_256():
    # a non-associative loop of order 5 whose elements have two-sided inverses
    loop = next(
        g
        for g in map(as_table, loop_tables(5))
        if np.all(g.mul[g.inv, np.arange(5)] == 0)
        and not np.array_equal(g.mul[g.mul], g.mul[:, g.mul])
    )
    with pytest.raises(AssertionError, match="associativity"):
        loop.validate()
    big = build_product(loop, build_group(Cyclic(64)), carrier="product(loop,cyclic:64)")
    assert big.order == 320
    with pytest.raises(AssertionError, match="associativity"):
        big.validate()


def swapped(g, a, b):
    """g's table with the entries at the cells a and b exchanged."""
    mul = g.mul.copy()
    mul[a], mul[b] = mul[b], mul[a]
    return FiniteGroup(order=g.order, mul=mul, inv=g.inv, carrier="swapped", element_names=g.element_names)


def test_validate_reaches_the_last_row_and_column_blocks():
    g = build_group(Dihedral(160))
    n = g.order
    assert n == 320 and len(_row_blocks(n)) > 1
    # a swap in the last row leaves every row a permutation and breaks two
    # columns of the last block; a swap in the last column the other way round
    with pytest.raises(AssertionError, match="not a Latin square: columns"):
        swapped(g, (n - 1, n - 2), (n - 1, n - 1)).validate()
    with pytest.raises(AssertionError, match="not a Latin square: rows"):
        swapped(g, (n - 2, n - 1), (n - 1, n - 1)).validate()


def tuple_heisenberg_product(p):
    """The Heisenberg product on (a, b, c) tuples, digit by digit."""

    def mulfun(x, y):
        (a1, b1, c1), (a2, b2, c2) = x, y
        dot = sum(u * v for u, v in zip(b2, a1)) % p
        return (
            tuple((u + v) % p for u, v in zip(a1, a2)),
            tuple((u + v) % p for u, v in zip(b1, b2)),
            (c1 + c2 + dot) % p,
        )

    return mulfun


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (7, 1), (3, 2), (2, 3), (2, 4)])
def test_heisenberg_table_matches_tuple_product(p, n):
    g = build_group(Heisenberg(p, n))
    # element (a q + b) p + c is (a, b, c), a and b the base-p digit vectors of their indices
    vecs = [tuple(v) for v in _digits(p, n).tolist()]
    elems = [(a, b, c) for a in vecs for b in vecs for c in range(p)]
    index = {x: i for i, x in enumerate(elems)}
    mulfun = tuple_heisenberg_product(p)
    want = [[index[mulfun(x, y)] for y in elems] for x in elems]
    assert np.array_equal(g.mul, np.array(want))
    assert all(index[mulfun(x, elems[int(g.inv[i])])] == 0 for i, x in enumerate(elems))


def test_conjugacy_s3_and_q8():
    s3 = build_group(Dihedral(3))
    cd = conjugacy(s3)
    assert sorted(cd.sizes) == [1, 2, 3]
    assert sum(cd.sizes) == 6
    q8 = build_group(BinaryDihedral(2))
    cd8 = conjugacy(q8)
    assert sorted(cd8.sizes) == [1, 1, 2, 2, 2]
    assert len(cd8.center) == 2
    for k in range(cd8.r):
        assert len(centralizer(cd8, k)) * cd8.sizes[k] == q8.order


def test_abelian_all_singleton_classes():
    g = build_group(Cyclic(12))
    cd = conjugacy(g)
    assert all(s == 1 for s in cd.sizes)
    assert len(cd.center) == 12


def test_power_maps_and_exponent():
    g = build_group(BinaryDihedral(3))
    cd = conjugacy(g)
    assert cd.exponent == 12
    for k in range(cd.r):
        pcs = cd.power_classes(k)
        assert pcs[0] == cd.class_of[0]
        if len(pcs) > 1:
            assert pcs[1] == k


def element_order_oracle(g, x):
    """The order of x by multiplying by x until the identity comes back."""
    k, y = 1, x
    while y != 0:
        y = int(g.mul[y, x])
        k += 1
    return k


def conjugacy_oracle(g):
    """Classes by sorting each orbit with np.unique, in order of first element."""
    class_of = np.full(g.order, -1, dtype=np.int32)
    classes = []
    for x in range(g.order):
        if class_of[x] < 0:
            orbit = np.unique(g.mul[g.mul[:, x], g.inv])
            class_of[orbit] = len(classes)
            classes.append(orbit)
    return classes, class_of, [int(cl[0]) for cl in classes], [len(cl) for cl in classes]


def coset_oracle(g, sub):
    """Coset index of each element: cosets numbered by their least element."""
    rep_of = np.min(g.mul[sub, :], axis=0)
    index = {int(rep): i for i, rep in enumerate(np.unique(rep_of))}
    return np.array([index[int(rep_of[x])] for x in range(g.order)])


DIFFERENTIAL_SPECS = [
    Cyclic(1024),
    Product(BinaryPoly("I"), Cyclic(8)),
    Dihedral(30),
    BinaryDihedral(12),
    BinaryPoly("O"),
    Extraspecial2(3, "-"),
    Heisenberg(3, 2),
    ElemAb(3, 4),
    Semidirect(BinaryPoly("O"), Cyclic(3)),
    Semidirect(Cyclic(3), ElemAb(2, 2)),
]


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS, ids=spec_text)
def test_orders_classes_and_cosets_match_the_oracles(spec):
    g = _group(spec)
    assert g.element_orders.tolist() == [element_order_oracle(g, x) for x in range(g.order)]
    cd = conjugacy(g)
    classes, class_of, reps, sizes = conjugacy_oracle(g)
    assert len(cd.classes) == len(classes)
    assert all(np.array_equal(a, b) for a, b in zip(cd.classes, classes))
    assert np.array_equal(cd.class_of, class_of)
    assert (cd.reps, cd.sizes) == (reps, sizes)
    assert cd.element_orders == g.element_orders.tolist()
    # the center, the commutator subgroup and the normal closure of a class
    normals = [
        subgroup_from_elements(g, cd.center),
        commutator_subgroup(g, cd),
        subgroup_from_elements(g, cd.classes[-1]),
    ]
    for sub in normals:
        quo, coset_of = quotient_group(g, sub)
        assert np.array_equal(coset_of, coset_oracle(g, sub))
        assert quo.order * len(sub) == g.order


def test_subgroups_of_q8():
    q8 = build_group(BinaryDihedral(2))
    cd = conjugacy(q8)
    triv = subgroup_from_elements(q8, [0])
    assert len(triv) == 1 and is_normal(q8, triv)
    z = subgroup_from_elements(q8, cd.center)
    assert len(z) == 2 and is_normal(q8, z)
    i_elem = int(np.flatnonzero(q8.element_orders == 4)[0])
    gen = subgroup_from_elements(q8, [i_elem])
    assert len(gen) == 4
    # <i> equals the centralizer of i
    k = int(cd.class_of[i_elem])
    assert sorted(centralizer(cd, k)) == gen.tolist()


def _closure_reference(g, elems):
    """Generated subgroup by a breadth-first loop over products, and normality
    by conjugating every member by every element."""
    members = {0, *(int(e) for e in elems)}
    frontier = list(members)
    while frontier:
        x = frontier.pop()
        for y in list(members):
            for z in (int(g.mul[x, y]), int(g.mul[y, x])):
                if z not in members:
                    members.add(z)
                    frontier.append(z)
    normal = all(
        int(g.mul[g.mul[x, h], g.inv[x]]) in members for x in range(g.order) for h in members
    )
    return tuple(sorted(members)), normal


_group = lru_cache(maxsize=None)(build_group)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(
        [Dihedral(6), BinaryPoly("T"), BinaryDihedral(3), Extraspecial2(2, "-"), Cyclic(12)]
    ),
    st.data(),
)
def test_subgroup_closure_matches_reference(spec, data):
    g = _group(spec)
    elems = data.draw(st.lists(st.integers(0, g.order - 1), max_size=3))
    sub = subgroup_from_elements(g, elems)
    assert (tuple(sub.tolist()), is_normal(g, sub)) == _closure_reference(g, elems)
    assert induced_group(g, sub).order == len(sub)


SUBGROUP_SPECS = [
    Dihedral(3),
    BinaryDihedral(2),
    Dihedral(4),
    BinaryPoly("T"),
    Semidirect(Dihedral(8), Cyclic(3)),
]


def generator_sets(g):
    """Every single element, and twelve seeded pairs."""
    rng = np.random.default_rng(g.order)
    return [[x] for x in range(g.order)] + rng.integers(0, g.order, size=(12, 2)).tolist()


def induced_reference(g, elems):
    """The table, inverses and names of the subgroup on elems, numbered in
    sorted order, from Python sets and dicts."""
    members = sorted(set(elems))
    local = {x: i for i, x in enumerate(members)}
    mul = [[local[int(g.mul[x, y])] for y in members] for x in members]
    inv = [next(j for j in range(len(members)) if mul[i][j] == 0) for i in range(len(members))]
    return mul, inv, [g.element_names[x] for x in members]


@pytest.mark.parametrize("spec", SUBGROUP_SPECS, ids=spec_text)
def test_subgroups_and_induced_tables_match_the_set_references(spec):
    g = _group(spec)
    for gens in generator_sets(g):
        sub = subgroup_from_elements(g, gens)
        assert (tuple(sub.tolist()), is_normal(g, sub)) == _closure_reference(g, gens)
        induced = induced_group(g, sub)
        mul, inv, names = induced_reference(g, sub.tolist())
        assert induced.mul.tolist() == mul and induced.inv.tolist() == inv
        assert induced.element_names == names and induced.order == len(sub)


@pytest.mark.parametrize("spec", SUBGROUP_SPECS, ids=spec_text)
def test_quotient_checks_normality_and_closure(spec):
    g = _group(spec)
    cd = conjugacy(g)
    # the identity with one more class: a normal set, closed only if a subgroup
    open_sets = 0
    for cl in cd.classes[1:]:
        elems = np.union1d([0], cl)
        assert is_normal(g, elems)
        if len(subgroup_from_elements(g, elems)) > len(elems):
            open_sets += 1
            with pytest.raises(AssertionError, match="not closed"):
                quotient_group(g, elems)
            with pytest.raises(AssertionError, match="not closed"):
                induced_group(g, elems)
    assert open_sets
    # a subgroup that is not normal
    subs = [subgroup_from_elements(g, gens) for gens in generator_sets(g)]
    lopsided = [sub for sub in subs if not is_normal(g, sub)]
    assert lopsided or spec == BinaryDihedral(2)  # every subgroup of Q_8 is normal
    for sub in lopsided:
        with pytest.raises(NotNormal):
            quotient_group(g, sub)


def test_quotients():
    q8 = build_group(BinaryDihedral(2))
    triv = subgroup_from_elements(q8, [0])
    quo, coset_of = quotient_group(q8, triv)
    assert quo.order == 8 and tables_isomorphic(quo, q8)
    for n in (2, 3, 5):
        bd = build_group(BinaryDihedral(n))
        cd = conjugacy(bd)
        z = subgroup_from_elements(bd, cd.center)
        quo, _ = quotient_group(bd, z)
        assert tables_isomorphic(quo, build_group(Dihedral(n)))
    # non-normal subgroup is rejected
    s3 = build_group(Dihedral(3))
    refl = int(np.flatnonzero(s3.element_orders == 2)[0])
    sub = subgroup_from_elements(s3, [refl])
    assert not is_normal(s3, sub)
    with pytest.raises(NotNormal):
        quotient_group(s3, sub)


def test_normal_tower_in_binary_octahedral():
    bo = build_group(BinaryPoly("O"))
    ct = compute_character_table(bo)
    subs8 = [s for s in normal_subgroups(ct, 8) if len(s) == 8]
    subs24 = [s for s in normal_subgroups(ct, 24) if len(s) == 24]
    assert len(subs8) == 1 and len(subs24) == 1
    assert tables_isomorphic(induced_group(bo, subs8[0]), build_group(BinaryDihedral(2)))
    assert tables_isomorphic(induced_group(bo, subs24[0]), build_group(BinaryPoly("T")))
    q, _ = quotient_group(bo, subs24[0])
    assert q.order == 2
    q, _ = quotient_group(bo, subs8[0])
    assert q.order == 6 and not q.is_abelian()


def test_extraspecial_invariants():
    for n in (1, 2, 3):
        for variant in "+-":
            g = build_group(Extraspecial2(n, variant))
            cd = conjugacy(g)
            assert g.order == 2 ** (1 + 2 * n)
            assert len(cd.center) == 2
            z = subgroup_from_elements(g, cd.center)
            quo, _ = quotient_group(g, z)
            assert quo.is_abelian() and quo.order == 4**n
            assert np.all(quo.element_orders <= 2)
    # the two variants are non-isomorphic: different order-4 element counts
    for n in (1, 2, 3):
        plus = build_group(Extraspecial2(n, "+"))
        minus = build_group(Extraspecial2(n, "-"))
        count4 = lambda g: int(np.sum(g.element_orders == 4))
        assert count4(plus) != count4(minus)


def normal_subgroups_by_class_subsets(g, cd, target_order=None):
    """All normal subgroups (of one order, if given), as the unions of classes
    that contain the identity and are closed under multiplication, found by a
    depth-first walk over class subsets.  The walk decides the classes in
    index order, so a branch ends as soon as a product of picked classes
    lands in a class it has passed over."""
    results = {}
    picks = [0]

    def walk(next_class, total):
        picked = np.zeros(cd.r, dtype=bool)
        picked[picks] = True
        elems = np.flatnonzero(picked[cd.class_of])
        hit = np.unique(cd.class_of[g.mul[np.ix_(elems, elems)]])
        if np.any(~picked[hit] & (hit < next_class)):
            return  # a product lies in a class the walk passed over
        if target_order in (None, total) and g.order % total == 0 and picked[hit].all():
            sub = subgroup_from_elements(g, np.concatenate([cd.classes[ci] for ci in picks]))
            assert len(sub) == total and is_normal(g, sub)
            results[tuple(sub.tolist())] = sub
        for ci in range(next_class, cd.r):
            t = total + cd.sizes[ci]
            if t <= (g.order if target_order is None else target_order):
                picks.append(ci)
                walk(ci + 1, t)
                picks.pop()

    walk(1, 1)
    return sorted(results.values(), key=lambda s: (len(s), s.tolist()))


@pytest.mark.parametrize(
    "spec",
    [
        Dihedral(6),
        BinaryDihedral(3),
        Extraspecial2(1, "+"),
        Cyclic(12),
        ElemAb(2, 3),
        Heisenberg(3, 1),
        BinaryPoly("T"),
        BinaryPoly("O"),
        Semidirect(Cyclic(3), ElemAb(2, 2)),
        Extraspecial2(2, "-"),  # 68 normal subgroups
        ElemAb(2, 5),  # 374
    ],
    ids=spec_text,
)
def test_normal_subgroups_match_the_class_subset_walk(spec):
    # intersections of character kernels against the element-level join
    # closure and the class-subset walk, above every divisor of |G|
    g = _group(spec)
    cd = conjugacy(g)
    ct = compute_character_table(g, cd)
    key = lambda subs: [(len(s), tuple(s.tolist()), is_normal(g, s)) for s in subs]
    joins = normal_subgroups_by_joins(g, cd)
    walk = normal_subgroups_by_class_subsets(g, cd)
    assert key(joins) == key(walk)
    for order in (d for d in range(1, g.order + 1) if g.order % d == 0):
        want = [s for s in walk if len(s) >= order]
        assert key(normal_subgroups(ct, order)) == key(want)
        assert key([s for s in joins if len(s) >= order]) == key(want)
        assert key(normal_subgroups_by_class_subsets(g, cd, order)) == key([s for s in want if len(s) == order])
    assert normal_subgroups(ct, g.order + 1) == []


def _det_mod(m, p):
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


def _gl_elements(p, n):
    """GL_n(F_p) as tuple matrices with nonzero determinant, in row-major
    lexicographic order."""
    mats = []
    for flat in iproduct(range(p), repeat=n * n):
        m = tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n))
        if _det_mod(m, p) != 0:
            mats.append(m)
    return mats


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_gl_permutations_match_the_tuple_listing(p, n):
    from mckaygraphs.catalog import _gl_permutations, _permutation_orders
    from mckaygraphs.groups import _mat_mul_mod

    vecs = list(iproduct(range(p), repeat=n))
    vec_index = {v: i for i, v in enumerate(vecs)}

    def perm_of(mat):
        return [
            vec_index[tuple(sum(mat[r][c] * v[c] for c in range(n)) % p for r in range(n))]
            for v in vecs
        ]

    def order_of(mat):
        k, cur = 1, mat
        while cur != tuple(tuple(int(i == j) for j in range(n)) for i in range(n)):
            cur, k = _mat_mul_mod(cur, mat, p), k + 1
        return k

    mats = _gl_elements(p, n)
    perms = _gl_permutations(p, n)
    assert perms.tolist() == [perm_of(m) for m in mats]
    assert _permutation_orders(perms).tolist() == [order_of(m) for m in mats]


def test_gl_listing_is_bounded():
    from mckaygraphs.catalog import _gl_permutations

    assert len(_gl_permutations(2, 4)) == 20160
    with pytest.raises(InvalidAction, match="GL_5"):
        _gl_permutations(2, 5)
    with pytest.raises(InvalidAction, match="GL_4"):
        _gl_permutations(3, 4)


def test_elemab_action_needs_a_transitive_embedding():
    # D_4 embeds in GL_2(F_3) only as a group with two orbits of 4 on the 8
    # nonzero vectors; Q_8 embeds and acts regularly on them
    with pytest.raises(InvalidAction, match="no transitive action"):
        build_group(Semidirect(Dihedral(4), ElemAb(3, 2)))
    sd = build_group(Semidirect(BinaryDihedral(2), ElemAb(3, 2)))
    assert sd.order == 72 and len(subgroup_from_elements(sd, range(1, 9))) == 9


def test_heisenberg_matches_plus_type():
    for n in (1, 2):
        heis = build_group(Heisenberg(2, n))
        plus = build_group(Extraspecial2(n, "+"))
        assert tables_isomorphic(heis, plus)
    # same order and element-order statistics (every element of order 3); the
    # centralizer orders differ, since one group is abelian
    heis, elemab = build_group(Heisenberg(3, 1)), build_group(ElemAb(3, 3))
    assert not tables_isomorphic(heis, elemab)
    assert not tables_isomorphic(elemab, heis)


def test_centralizer_orders_reject_before_the_search():
    # 124^3 choices of generator images with element orders alone
    heis, elemab = build_group(Heisenberg(5, 1)), build_group(ElemAb(5, 3))
    start = time.perf_counter()
    assert not tables_isomorphic(heis, elemab)
    assert time.perf_counter() - start < 2


def test_search_rejects_equal_order_and_centralizer_profiles():
    # Z4 x| Z4 (b a b^-1 = a^-1, element a^i b^j at i + 4 j) against Q8 x Z2:
    # both have a center of order 4 holding the 3 involutions and 12 elements
    # of order 4 with |C(x)| = 8, but only Q8 x Z2 has G/G' = (Z2)^3
    ij = [(x % 4, x // 4) for x in range(16)]
    mul = np.array(
        [[(i + (-1) ** j * k) % 4 + 4 * ((j + l) % 4) for k, l in ij] for i, j in ij],
        dtype=np.int32,
    )
    semi = as_table(mul, "z4:z4")
    semi.validate()
    q8z2 = build_group(Product(BinaryDihedral(2), Cyclic(2)))
    profiles = [
        sorted(zip(g.element_orders.tolist(), (g.mul == g.mul.T).sum(axis=1).tolist()))
        for g in (semi, q8z2)
    ]
    assert profiles[0] == profiles[1]
    assert not tables_isomorphic(semi, q8z2) and not tables_isomorphic(q8z2, semi)
    assert tables_isomorphic(semi, semi) and tables_isomorphic(q8z2, q8z2)


def test_central_product_center_collapses():
    d4 = build_group(Dihedral(4))
    q8 = build_group(BinaryDihedral(2))
    cp = central_product(d4, q8, "cp")
    assert cp.order == 32
    cd = conjugacy(cp)
    assert len(cd.center) == 2


def same_table(g, want):
    for key in ("mul", "inv"):
        got, expected = getattr(g, key), getattr(want, key)
        assert got.dtype == expected.dtype == np.int32 and np.array_equal(got, expected)
    assert g.element_names == want.element_names and g.carrier == want.carrier


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("variant", ["+", "-"])
def test_extraspecial_matches_the_quotient_route(variant, n):
    same_table(build_group(Extraspecial2(n, variant)), extraspecial_by_quotient(n, variant))


def test_central_product_matches_the_quotient_route():
    d4, q8 = build_group(Dihedral(4)), build_group(BinaryDihedral(2))
    same_table(central_product(d4, q8, "cp"), central_product_by_quotient(d4, q8, "cp"))
    same_table(central_product(q8, d4, "cp"), central_product_by_quotient(q8, d4, "cp"))


@pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3, 5, 7) for n in range(1, 11) if p**n <= 1024])
def test_elemab_matches_the_digit_sums(p, n):
    g, want = build_group(ElemAb(p, n)), elemab_by_digit_sums(p, n)
    same_table(g, want)


@pytest.mark.parametrize(
    "spec",
    [
        Cyclic(1024),
        Dihedral(512),
        BinaryDihedral(256),
        ElemAb(2, 10),
        ElemAb(3, 6),
        Heisenberg(2, 4),
        Extraspecial2(4, "+"),
        Extraspecial2(4, "-"),
        Product(BinaryPoly("I"), Cyclic(8)),
        Semidirect(Dihedral(128), Cyclic(3)),
    ],
    ids=spec_text,
)
def test_build_peak_is_a_small_multiple_of_the_table(spec):
    # every table is written at its final size, and validate works in blocks
    tracemalloc.start()
    try:
        g = build_group(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.order >= 512
    assert peak <= 3.5 * g.mul.nbytes + 2**20, f"peak {peak} bytes for a {g.mul.nbytes}-byte table"


def test_semidirect_has_normal_kernel():
    sd = build_group(Semidirect(BinaryPoly("O"), Cyclic(3)))
    assert sd.order == 144
    kernel = subgroup_from_elements(sd, [1])
    assert len(kernel) == 3 and is_normal(sd, kernel)
    sd2 = build_group(Semidirect(BinaryPoly("T"), ElemAb(2, 2)))
    kernel2 = subgroup_from_elements(sd2, [1, 2, 3])
    assert len(kernel2) == 4 and is_normal(sd2, kernel2)


def test_semidirect_requires_valid_action():
    with pytest.raises(InvalidAction):
        # no surjection of the binary tetrahedral group onto C_4 = F_5^x
        build_group(Semidirect(BinaryPoly("T"), Cyclic(5)))


def test_designated_kernel_must_give_a_cyclic_quotient_of_order_p_minus_1():
    d8 = build_group(Dihedral(4))
    center = subgroup_from_elements(d8, np.flatnonzero((d8.mul == d8.mul.T).all(axis=1)))
    assert len(center) == 2 and is_normal(d8, center)
    reflection = next(
        s for s in (subgroup_from_elements(d8, [x]) for x in range(d8.order)) if not is_normal(d8, s)
    )
    with pytest.raises(InvalidAction, match="not normal"):
        derive_cyclic_action(d8, 3, reflection)
    # D8/Z is the Klein four-group: of order 4, but not of order 2 or cyclic
    with pytest.raises(InvalidAction, match="has order 4, expected an abelian group of order 2"):
        derive_cyclic_action(d8, 3, center)
    with pytest.raises(InvalidAction, match="no surjection"):
        derive_cyclic_action(d8, 5, center)
    # (S_3 x C_2)/C_2 is S_3, of order 6 but not abelian
    s3c2 = build_group(Product(Dihedral(3), Cyclic(2)))
    c2 = next(
        s for s in (subgroup_from_elements(s3c2, [x]) for x in range(1, s3c2.order))
        if len(s) == 2 and is_normal(s3c2, s)
    )
    with pytest.raises(InvalidAction, match="has order 6, expected an abelian group of order 6"):
        derive_cyclic_action(s3c2, 7, c2)
    # with a kernel of index 2 the action exists, and its kernel is the one designated
    c4 = next(s for s in (subgroup_from_elements(d8, [x]) for x in range(d8.order)) if len(s) == 4)
    action = derive_cyclic_action(d8, 3, c4)
    fixed = [x for x in range(d8.order) if np.array_equal(action[x], np.arange(3))]
    assert tuple(fixed) == tuple(c4.tolist())


def test_explicit_action():
    # the Frobenius group of order 20: C_4 acting on C_5 by k -> 2k
    c2, c4, c5 = (build_group(Cyclic(n)) for n in (2, 4, 5))
    k = np.arange(5)
    doubling = [2**x * k % 5 for x in range(4)]
    sd = build_semidirect(c4, c5, doubling)
    assert sd.order == 20
    kern = subgroup_from_elements(sd, [1])
    assert len(kern) == 5 and is_normal(sd, kern)
    assert len(conjugacy(sd).classes) == 5
    # k -> 2k has order 4, so C_2 cannot act through it
    with pytest.raises(InvalidAction, match="homomorphism"):
        build_semidirect(c2, c5, doubling[:2])
    # collapsing the generator is not a bijection; swapping 1 and 2 is one,
    # but not an automorphism
    with pytest.raises(InvalidAction, match="bijection"):
        build_semidirect(c4, c5, [k, 0 * k, 0 * k, 0 * k])
    swap = np.array([0, 2, 1, 3, 4])
    with pytest.raises(InvalidAction, match="automorphism"):
        build_semidirect(c2, c5, [k, swap])
    with pytest.raises(InvalidAction, match="one kernel automorphism"):
        build_semidirect(c4, c5, doubling[:2])
    with pytest.raises(InvalidAction, match="abelian"):
        build_semidirect(c2, build_group(Dihedral(3)), [np.arange(6)] * 2)


def semidirect_oracle(g, k, action):
    """mul and inv of G x| K, checked pair by pair and filled block by block:
    (a, i)(b, j) = (ab, alpha_{b^-1}(i) j), so (a, i)^-1 = (a^-1, alpha_a(i)^-1)."""
    ng, nk = g.order, k.order
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
    n = ng * nk
    mul = np.empty((n, n), dtype=np.int32)
    for b in range(ng):
        twist = k.mul[action[g.inv[b]]]
        cols = slice(b * nk, (b + 1) * nk)
        gcol = g.mul[:, b].astype(np.int64) * nk
        for a in range(ng):
            mul[a * nk : (a + 1) * nk, cols] = gcol[a] + twist
    inv = np.array([g.inv[a] * nk + k.inv[action[a][i]] for a in range(ng) for i in range(nk)])
    return mul, inv


def construction_action(fx):
    """The action `verify.build_construction` derives through the designated H."""
    ctx = fixture(fx.gspec)
    h = designated_normal_subgroup(ctx.ct, fx.h_order, fx.h_nonabelian)
    if isinstance(fx.kernel, Cyclic):
        return ctx.group, derive_cyclic_action(ctx.group, fx.kernel.n, h)
    return ctx.group, derive_elemab_action(ctx.group, fx.kernel.p, fx.kernel.n, h)


SEMIDIRECT_CASES = [
    pytest.param(spec, id=spec_text(spec)) for spec in SWEEP_SPECS if isinstance(spec, Semidirect)
] + [pytest.param(fx, id=fx.name) for fx in CONSTRUCTIONS]


@pytest.mark.parametrize("case", SEMIDIRECT_CASES)
def test_semidirect_matches_the_per_pair_oracle(case):
    if isinstance(case, Semidirect):
        g, k = build_group(case.group), build_group(case.kernel)
        action = _derive_action(g, case.kernel, k)
    else:
        (g, action), k = construction_action(case), build_group(case.kernel)
    sd = build_semidirect(g, k, action)
    mul, inv = semidirect_oracle(g, k, action)
    assert sd.mul.dtype == mul.dtype and np.array_equal(sd.mul, mul)
    assert np.array_equal(sd.inv, inv)


def test_commutator_subgroup():
    s3 = build_group(Dihedral(3))
    comm = commutator_subgroup(s3, conjugacy(s3))
    assert len(comm) == 3 and is_normal(s3, comm)
    ab = build_group(Cyclic(6))
    assert len(commutator_subgroup(ab, conjugacy(ab))) == 1


def commutator_oracle(g):
    """G' from all n^2 commutators x y x^-1 y^-1."""
    inside = np.zeros(g.order, dtype=bool)
    inside[g.mul[g.mul, g.inv[g.mul.T]]] = True
    return subgroup_from_elements(g, np.flatnonzero(inside))


def greedy_generators_oracle(g):
    """The generators, each subgroup spanned as a set through subgroup_from_elements."""
    gens, span = [], {0}
    for x in range(g.order):
        if x not in span:
            gens.append(x)
            span = set(subgroup_from_elements(g, gens).tolist())
            if len(span) == g.order:
                break
    return gens


def abelian_homs_oracle(a, m):
    """Every choice of generator images v with ord(x) v = 0 (mod m), kept
    when it extends to a homomorphism."""
    gens = greedy_generators_oracle(a)
    cands = [[v for v in range(m) if v * int(a.element_orders[x]) % m == 0] for x in gens]
    homs = []
    for choice in iproduct(*cands):
        vals = _extend_hom(a, gens, choice, lambda u, v: (u + v) % m, 0)
        if vals is not None:
            homs.append(tuple(vals))
    return homs


@pytest.mark.parametrize(
    "spec", [*DIFFERENTIAL_SPECS, Cyclic(1), Dihedral(3), Extraspecial2(4, "-")], ids=spec_text
)
def test_commutators_and_generators_match_the_oracles(spec):
    g = _group(spec)
    assert tuple(commutator_subgroup(g, conjugacy(g)).tolist()) == tuple(commutator_oracle(g).tolist())
    assert _greedy_generators(g) == greedy_generators_oracle(g)


def _abelianized(spec):
    g = _group(spec)
    return quotient_group(g, commutator_oracle(g))[0]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(
        [
            Cyclic(1),
            Cyclic(12),
            ElemAb(2, 3),
            ElemAb(3, 2),
            Product(Cyclic(4), Cyclic(6)),
            Product(Cyclic(2), Cyclic(8)),
            Dihedral(8),  # G/G' = C2 x C2
            BinaryPoly("T"),  # G/G' = C3
        ]
    ),
    # m = 1, exponents, their multiples and values that the exponent does not divide
    st.integers(1, 30),
)
def test_abelian_homs_match_the_enumeration(spec, m):
    a = _abelianized(spec)
    homs = abelian_homs(a, m)
    assert homs.shape[1] == a.order
    assert sorted(map(tuple, homs.tolist())) == sorted(abelian_homs_oracle(a, m))


def test_spec_text_round_trip():
    specs = [
        Cyclic(6),
        Dihedral(8),
        BinaryDihedral(4),
        BinaryPoly("T"),
        Extraspecial2(2, "+"),
        Heisenberg(2, 2),
        Product(BinaryPoly("T"), Cyclic(3)),
        Semidirect(BinaryPoly("O"), Cyclic(3)),
        Semidirect(BinaryPoly("T"), ElemAb(2, 2)),
    ]
    from mckaygraphs.cli import parse_group_spec

    for spec in specs:
        assert parse_group_spec(spec_text(spec)) == spec


# sha256 of mul.astype("<i4").tobytes() and of "\n".join(element_names)
GOLDEN_TABLES = {
    BinaryPoly("T"): (
        "4b516ab6e6d04473ac8b30534b013a3d3b1132dbb25fae135453f770f8530a53",
        "3c645008c3dbf7f7b45f4b3c4ec144be657e32dbcb7593c3ba613d4b14d0b0ce",
    ),
    BinaryPoly("O"): (
        "a00efadf0dfdca762f766e211f44c2db5a736ac11e1f597d8944307e5d35da70",
        "498d2ca4f48c479000f7ddac7fc0d7c41990dca08942a67b9df3bbffff54e4ca",
    ),
    BinaryPoly("I"): (
        "b7d1ff29948611f367b8e1bd7f0d4e60f92a8f6b0609be495af7f48055a409d7",
        "032f819024d11847054b214d6928cd3087bc5bdc824bc63913d8d6e2e86cda47",
    ),
    BinaryDihedral(2): (
        "4a2936a972d517bc87c576b57d6529045787864486ed770ca60fabe7af0d66a7",
        "9a9980255715042de137d342b8c34e4b9b7572c7919e1f8345b440c23428cf6b",
    ),
    BinaryDihedral(3): (
        "62fb16bcfbfd319440abba9d681ba1aa24cca4bf241de53e056616a885a94b49",
        "d9bea6c7c5b2111d7e93ec26ba81c2c23585509f6c9915cc8206381fd501437b",
    ),
    BinaryDihedral(8): (
        "6ea950f5cb6d1469dc3a753f370fad183baf8071e1b9bec0b851310bed901794",
        "92e15a4b96ca898b8c85c265369f6e1da0c1443c62d3a0d199131498f36ccd16",
    ),
}


# sha256 of mul.astype("<i4").tobytes() of semidirect products with derived
# actions on F_p^n, as first built from GL_n(F_p) listed as tuple matrices
GOLDEN_ELEMAB_SEMIDIRECTS = {
    Semidirect(BinaryPoly("T"), ElemAb(2, 2)): (
        "a85a1394dbec2bf6f53e40282a697b445cb74a269fadd15cf45adf16ed66e933"
    ),
    Semidirect(BinaryPoly("O"), ElemAb(2, 2)): (
        "fc281ad0e645fa62da2d3bb68e7a8167fdb14aa2438a82f809b30177a95a2ecb"
    ),
    Semidirect(Cyclic(15), ElemAb(2, 4)): (
        "fb318fca93051725f86f3c6aecf1a1f4d6d51cfee2135b6d493dab786bc29c31"
    ),
    Semidirect(Cyclic(8), ElemAb(3, 2)): (
        "a360e4316b995fd5c86ed2199f8573b543305af113c413986621130f13a3cb89"
    ),
}


@pytest.mark.parametrize("spec", GOLDEN_ELEMAB_SEMIDIRECTS, ids=spec_text)
def test_derived_elemab_actions_keep_their_tables(spec):
    digest = hashlib.sha256(build_group(spec).mul.astype("<i4").tobytes()).hexdigest()
    assert digest == GOLDEN_ELEMAB_SEMIDIRECTS[spec]


def test_deterministic_element_order():
    # digests of the tables as first built from 2x2 matrices over Q(zeta): the
    # F_41 and index-pair carriers must reproduce them exactly
    for spec, golden in GOLDEN_TABLES.items():
        a = build_group(spec)
        b = build_group(spec)
        assert a.element_names == b.element_names
        assert np.array_equal(a.mul, b.mul)
        mul_digest = hashlib.sha256(a.mul.astype("<i4").tobytes()).hexdigest()
        names_digest = hashlib.sha256("\n".join(a.element_names).encode()).hexdigest()
        assert (mul_digest, names_digest) == golden, spec_text(spec)


def test_order_cap_env_override(monkeypatch):
    monkeypatch.setenv("MCKAY_ORDER_CAP", "10")
    with pytest.raises(OrderCapExceeded):
        build_group(Cyclic(11))
    assert build_group(Cyclic(10)).order == 10
    for bad in ("abc", "0", "-3"):
        monkeypatch.setenv("MCKAY_ORDER_CAP", bad)
        with pytest.raises(GroupBuildError, match="MCKAY_ORDER_CAP"):
            order_cap()


def test_closure_diverged():
    from mckaygraphs.groups import _close_and_build

    def mulfun(x, y):
        return (x + y) % 12

    with pytest.raises(ClosureDiverged):
        _close_and_build([1], "c12", cap=5, mulfun=mulfun)
