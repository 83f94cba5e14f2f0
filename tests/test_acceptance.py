"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

All equalities are exact; tolerance is zero throughout.  Criterion 5 checks
each twisted product against its stated component pair and against the
disjoint union over G and the stabilizer of a nontrivial kernel character.
"""

import random
import time

import numpy as np
import pytest

from mckaygraphs.catalog import build_group
from mckaygraphs.chartable import (
    FaithfulSelfDualMinDim,
    Irrep,
    compute_character_table,
    is_faithful,
    is_self_dual,
    resolve_rho,
)
from mckaygraphs.cyclotomic import convolve, euler_phi, reduced
from mckaygraphs.graphs import build_mckay_graph, graph_isomorphic
from mckaygraphs.groups import (
    BinaryDihedral,
    BinaryPoly,
    Dihedral,
    Extraspecial2,
    conjugacy,
    quotient_group,
)
from mckaygraphs.shapes import classify_component
from mckaygraphs.verify import (
    CONSTRUCTIONS,
    IDENTITY_FIXTURES,
    SWEEP_SPECS,
    _case_identities,
    _case_sweep,
    fixture,
    verify_bipartite_criterion,
    verify_construction_531,
    verify_normal_tower,
    verify_orthogonality,
)


def report(criterion: str, passed: bool, detail: str = "") -> None:
    mark = "PASS" if passed else "FAIL"
    print(f"[{mark}] {criterion} {detail}".rstrip())


def test_criterion_1_ade_fixtures():
    t0 = time.perf_counter()
    for n in range(2, 7):
        ctx = fixture(BinaryDihedral(n))
        graph = ctx.graph
        label = classify_component(graph.matrix)
        assert label.kind == "affine_d" and label.index == n + 2
        assert ctx.group.order == 4 * n == label.dynkin_group_order
    expected = {
        "T": (6, 24, [1, 1, 1, 2, 2, 2, 3]),
        "O": (7, 48, [1, 1, 2, 2, 2, 3, 3, 4]),
        "I": (8, 120, [1, 2, 2, 3, 3, 4, 4, 5, 6]),
    }
    for kind, (idx, order, dims) in expected.items():
        ctx = fixture(BinaryPoly(kind))
        graph = ctx.graph
        label = classify_component(graph.matrix)
        assert label.kind == "affine_e" and label.index == idx
        assert ctx.group.order == order
        assert sorted(graph.dims) == sorted(dims)
    bi_seconds = fixture(BinaryPoly("I")).table_seconds
    assert bi_seconds < 30.0, f"binary:I table took {bi_seconds:.1f}s"
    report(
        "criterion-1 ADE fixtures",
        True,
        f"(binary:I table {bi_seconds:.2f}s, total {time.perf_counter() - t0:.1f}s)",
    )


def test_criterion_2_dihedral_fixtures():
    for n in (4, 6, 8, 10, 12):
        ctx = fixture(Dihedral(n))
        graph = ctx.graph
        assert graph.n_vertices == n // 2 + 3
        assert int(np.trace(graph.matrix)) == 0
    for n in (3, 5, 7, 9):
        ctx = fixture(Dihedral(n))
        graph = ctx.graph
        assert graph.n_vertices == (n + 3) // 2
        loops = int(np.trace(graph.matrix))
        assert loops == 1
    report("criterion-2 dihedral fixtures", True)


def test_criterion_3_hedgehog_fixtures():
    for n in range(0, 5):
        for variant in "+-":
            ctx = fixture(Extraspecial2(n, variant))
            graph = ctx.graph
            label = classify_component(graph.matrix)
            if n == 1:
                assert label.kind == "affine_d" and label.hedgehog_alias
            else:
                assert label.kind == "hedgehog" and label.index == 4**n
            assert max(graph.dims) == 2**n
            assert ctx.group.order == 2 ** (1 + 2 * n)
    big = max(
        fixture(Extraspecial2(4, "+")).table_seconds,
        fixture(Extraspecial2(4, "-")).table_seconds,
    )
    assert big < 60.0, f"order-512 table took {big:.1f}s"
    report("criterion-3 hedgehog fixtures", True, f"(order-512 table {big:.2f}s)")


def test_criterion_4_identity_suite():
    bad = []
    for spec in IDENTITY_FIXTURES:
        for rec in _case_identities(spec):
            if not rec.passed:
                bad.append(rec.check_id)
    assert not bad, f"identity failures: {bad}"
    report("criterion-4 identity suite", True, f"({len(IDENTITY_FIXTURES)} fixtures)")


@pytest.mark.parametrize("fx", CONSTRUCTIONS, ids=[f.name for f in CONSTRUCTIONS])
def test_criterion_5_component_orbit_suite(fx):
    records = {r.check_id.split(":")[-1]: r for r in verify_construction_531(fx)}
    assert records["components"].passed
    assert records[f"sumsq[{fx.name}]".split(":")[-1]].passed
    assert records["divisibility"].passed
    assert records["forest-theorem"].passed
    assert records["stabilizer"].passed, (
        f"{fx.name}: expected stabilizer {records['stabilizer'].expected}, "
        f"observed {records['stabilizer'].observed}"
    )
    union, shapes = records["union"], records["shapes"]
    ok = union.passed and shapes.passed
    report(f"criterion-5 construction {fx.name}", ok, f"observed {shapes.observed}")
    assert union.passed, f"{fx.name}: {union.claim}: observed {union.observed}"
    assert shapes.passed, (
        f"{fx.name}: expected {shapes.expected}, observed {shapes.observed}"
    )


def test_criterion_6_bipartite_criterion():
    checked = 0
    for spec in IDENTITY_FIXTURES:
        ctx = fixture(spec)
        graph = ctx.graph
        rho = graph.rho
        if not (
            rho.irreducible
            and is_faithful(ctx.ct, rho.chi)
            and is_self_dual(ctx.ct, rho.chi)
        ):
            continue
        rec = verify_bipartite_criterion(ctx, graph)
        assert rec.passed, rec.check_id
        checked += 1
    assert checked >= 20
    report("criterion-6 bipartite criterion", True, f"({checked} fixtures)")


def test_criterion_7_classification_sweep():
    t0 = time.perf_counter()
    total_forests = 0
    for spec in SWEEP_SPECS:
        records = _case_sweep(spec)  # raises ClassificationViolated on any escape
        for rec in records:
            assert rec.passed, rec.check_id
            total_forests += int(rec.observed.split()[0])
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0, f"sweep took {elapsed:.0f}s"
    report(
        "criterion-7 classification gate",
        True,
        f"({len(SWEEP_SPECS)} groups, {total_forests} forests, {elapsed:.0f}s)",
    )


def test_criterion_8_normal_tower():
    records = verify_normal_tower()
    assert all(r.passed for r in records), [r.check_id for r in records if not r.passed]
    report("criterion-8 normal tower", True)


def test_criterion_9_property_checks():
    # cyclotomic ring axioms on 10^4 random triples of coefficient rows,
    # multiplied by convolution and reduction, one batch per order
    rng = random.Random(424242)
    orders = [1, 2, 3, 4, 5, 6, 8, 12, 20]
    drawn = {e: [] for e in orders}
    for _ in range(10_000):
        e = rng.choice(orders)
        phi = euler_phi(e)
        drawn[e].append([[rng.randint(-4, 4) for _ in range(phi)] for _ in range(3)])
    for e, triples in drawn.items():
        a, b, c = np.array(triples, dtype=np.int64).transpose(1, 0, 2)

        def mul(x, y, e=e):
            return reduced(convolve(x, y, e), e)

        assert np.array_equal(mul(a, b + c), mul(a, b) + mul(a, c))
        assert np.array_equal(mul(mul(a, b), c), mul(a, mul(b, c)))
        assert np.array_equal(mul(a, b), mul(b, a))
    # exact orthogonality on every fixture table
    for spec in IDENTITY_FIXTURES:
        assert verify_orthogonality(fixture(spec).ct), spec
    # unique-leaf-neighbor lemma on all trees with <= 10 vertices
    from tests.test_shapes import adj_from_edges, all_trees

    by_size = all_trees(10)
    assert [len(by_size[n]) for n in range(1, 11)] == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]
    for n in range(2, 11):
        for size, edges in by_size[n]:
            adj = adj_from_edges(size, edges)
            degs = [sum(row) for row in adj]
            leaves = [v for v in range(size) if degs[v] == 1]
            attach = {w for v in leaves for w in range(size) if adj[v][w]}
            if len(attach) == 1:
                assert degs[attach.pop()] == size - 1
    report("criterion-9 property checks", True, "(10^4 triples, 201 trees)")
