import hashlib
from functools import lru_cache
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mckaygraphs.groups import (
    BinaryDihedral,
    BinaryPoly,
    ClosureDiverged,
    Cyclic,
    Dihedral,
    ElemAb,
    ExplicitAction,
    Extraspecial2,
    FiniteGroup,
    GroupBuildError,
    Heisenberg,
    InvalidAction,
    NotNormal,
    OrderCapExceeded,
    Product,
    Semidirect,
    build_group,
    build_product,
    central_product,
    commutator_subgroup,
    conjugacy,
    expanded_order,
    normal_subgroups,
    order_cap,
    quotient_group,
    spec_text,
    subgroup_from_elements,
    tables_isomorphic,
)


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


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        build_group(Cyclic(7), cap=5)
    with pytest.raises(OrderCapExceeded):
        build_group(Extraspecial2(5, "+"))  # order 2048 > default cap


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


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (3, 2)])
def test_heisenberg_table_matches_tuple_product(p, n):
    g = build_group(Heisenberg(p, n))
    elems = g.payload
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
        assert len(cd8.centralizer(k)) * cd8.sizes[k] == q8.order


def test_abelian_all_singleton_classes():
    g = build_group(Cyclic(12))
    cd = conjugacy(g)
    assert all(s == 1 for s in cd.sizes)
    assert len(cd.center) == 12


def test_power_maps_and_exponent():
    g = build_group(BinaryDihedral(3))
    cd = conjugacy(g)
    assert cd.exponent == 12
    pm = cd.power_map(0)
    assert all(c == cd.class_of[0] for c in pm)
    pm1 = cd.power_map(1)
    assert pm1 == list(range(cd.r))
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
    rep_of = np.min(g.mul[np.array(sub.elements), :], axis=0)
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
        commutator_subgroup(g),
        subgroup_from_elements(g, cd.classes[-1]),
    ]
    for sub in normals:
        quo, coset_of = quotient_group(g, sub)
        assert np.array_equal(coset_of, coset_oracle(g, sub))
        assert quo.order * sub.order == g.order


def test_subgroups_of_q8():
    q8 = build_group(BinaryDihedral(2))
    cd = conjugacy(q8)
    triv = subgroup_from_elements(q8, [0])
    assert triv.order == 1 and triv.normal
    z = subgroup_from_elements(q8, cd.center)
    assert z.order == 2 and z.normal
    i_elem = int(np.flatnonzero(q8.element_orders == 4)[0])
    gen = subgroup_from_elements(q8, [i_elem])
    assert gen.order == 4
    # <i> equals the centralizer of i
    k = int(cd.class_of[i_elem])
    assert sorted(cd.centralizer(k)) == list(gen.elements)


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
    normal = all(g.conj(h, x) in members for x in range(g.order) for h in members)
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
    assert (sub.elements, sub.normal) == _closure_reference(g, elems)
    assert sub.group.order == sub.order


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
    assert not sub.normal
    with pytest.raises(NotNormal):
        quotient_group(s3, sub)


def test_normal_tower_in_binary_octahedral():
    bo = build_group(BinaryPoly("O"))
    cd = conjugacy(bo)
    subs8 = normal_subgroups(bo, cd, 8)
    subs24 = normal_subgroups(bo, cd, 24)
    assert len(subs8) == 1 and len(subs24) == 1
    assert tables_isomorphic(subs8[0].group, build_group(BinaryDihedral(2)))
    assert tables_isomorphic(subs24[0].group, build_group(BinaryPoly("T")))
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


def test_heisenberg_matches_plus_type():
    for n in (1, 2):
        heis = build_group(Heisenberg(2, n))
        plus = build_group(Extraspecial2(n, "+"))
        assert tables_isomorphic(heis, plus)
    # same order and element-order statistics (every element of order 3), so
    # the search over generator images runs and must reject every choice
    heis, elemab = build_group(Heisenberg(3, 1)), build_group(ElemAb(3, 3))
    assert not tables_isomorphic(heis, elemab)
    assert not tables_isomorphic(elemab, heis)


def test_central_product_center_collapses():
    d4 = build_group(Dihedral(4))
    q8 = build_group(BinaryDihedral(2))
    cp = central_product(d4, q8, "cp")
    assert cp.order == 32
    cd = conjugacy(cp)
    assert len(cd.center) == 2


def test_semidirect_has_normal_kernel():
    sd = build_group(Semidirect(BinaryPoly("O"), Cyclic(3)))
    assert sd.order == 144
    kernel = subgroup_from_elements(sd, [1])
    assert kernel.order == 3 and kernel.normal
    sd2 = build_group(Semidirect(BinaryPoly("T"), ElemAb(2, 2)))
    kernel2 = subgroup_from_elements(sd2, [1, 2, 3])
    assert kernel2.order == 4 and kernel2.normal


def test_semidirect_requires_valid_action():
    with pytest.raises(InvalidAction):
        # no surjection of the binary tetrahedral group onto C_4 = F_5^x
        build_group(Semidirect(BinaryPoly("T"), Cyclic(5)))


def test_explicit_action():
    # the Frobenius group of order 20: C_4 acting on C_5 by k -> 2k
    action = ExplicitAction(images=((2,),))
    sd = build_group(Semidirect(Cyclic(4), Cyclic(5), action))
    assert sd.order == 20
    kern = subgroup_from_elements(sd, [1])
    assert kern.order == 5 and kern.normal
    assert len(conjugacy(sd).classes) == 5
    # k -> 2k has order 4, so C_2 cannot act through it
    with pytest.raises(InvalidAction):
        build_group(Semidirect(Cyclic(2), Cyclic(5), ExplicitAction(images=((2,),))))
    # collapsing the generator is not an automorphism
    with pytest.raises(InvalidAction):
        build_group(Semidirect(Cyclic(4), Cyclic(5), ExplicitAction(images=((0,),))))


def test_commutator_subgroup():
    s3 = build_group(Dihedral(3))
    comm = commutator_subgroup(s3)
    assert comm.order == 3 and comm.normal
    ab = build_group(Cyclic(6))
    assert commutator_subgroup(ab).order == 1


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
