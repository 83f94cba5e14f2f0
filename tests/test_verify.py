import math
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from cycint import CycInt, table_values
from test_chartable import LADDER_SPECS
from tuplegraphs import centralizer, is_forest
from mckaygraphs.catalog import build_group
from mckaygraphs.chartable import (
    CharVector,
    FaithfulSelfDualMinDim,
    Irrep,
    compute_character_table,
    is_self_dual,
    kernel_classes,
    kernel_of_character,
    resolve_rho,
)
from mckaygraphs.graphs import (
    build_mckay_graph,
    decompose_components,
    graph_isomorphic,
    trace_and_total,
)
from mckaygraphs.groups import (
    BinaryDihedral,
    BinaryPoly,
    Cyclic,
    Dihedral,
    Extraspecial2,
    Heisenberg,
    Product,
    conjugacy,
    spec_text,
    tables_isomorphic,
)
from mckaygraphs.shapes import circuit_count
from mckaygraphs.verify import (
    CONSTRUCTIONS,
    _centralizer_endo_dims,
    _char_power_sums,
    _power_traces,
    ClassificationViolated,
    PreconditionViolated,
    SWEEP_SPECS,
    _case_identities,
    _forest_candidates,
    _case_product_copies,
    center_criterion_holds,
    fixture,
    verify_bipartite_criterion,
    verify_centralizer_endo,
    verify_construction_531,
    verify_edge_count_identity,
    verify_forest_theorem,
    verify_newton_spectrum,
    verify_normal_tower,
    verify_orthogonality,
    verify_sum_of_squares,
    verify_trace_identity,
    verify_tree_theorem,
)


def product_center_classes(ct, cd):
    """The oracle: classes k with chi(k) chi(k^-1) = deg^2 for every
    irreducible, by exact cyclotomic products."""
    values = table_values(ct)
    return {
        k
        for k in range(ct.r)
        if all(
            values[i][k] * values[i][cd.inverse_class[k]] == ct.degrees[i] ** 2
            for i in range(ct.r)
        )
    }


@pytest.mark.parametrize(
    "spec",
    [Dihedral(9), BinaryPoly("O"), Heisenberg(3, 1), Extraspecial2(2, "-"), Cyclic(12),
     Product(BinaryPoly("I"), Cyclic(4))],
    ids=spec_text,
)
def test_center_criterion_matches_the_product_oracle(spec):
    ctx = fixture(spec)
    cd = ctx.cd
    flagged = product_center_classes(ctx.ct, cd)
    assert flagged == {int(cd.class_of[z]) for z in cd.center}
    # claimed centers with one class too many or too few must be refused
    others = [k for k in range(cd.r) if k not in flagged]
    claims = [list(cd.center), [z for z in cd.center if z != cd.reps[0]]]
    if others:
        claims.append(list(cd.center) + cd.classes[others[-1]].tolist())
    for claim in claims:
        classes = {int(cd.class_of[z]) for z in claim}
        ok = center_criterion_holds(replace(ctx, cd=replace(cd, center=claim)))
        assert ok == (classes == flagged)


def test_trace_identity_values():
    ctx = fixture(Dihedral(3))
    graph = ctx.graph
    rec = verify_trace_identity(ctx, graph, 3)
    assert rec.passed
    # frozen: chi_ref = (2, -1, 0) over classes; power sums 1, 5, 7
    assert rec.expected == "[1, 5, 7]"


def test_trace_identity_bt_cubes_vanish():
    ctx = fixture(BinaryPoly("T"))
    graph = ctx.graph
    rec = verify_trace_identity(ctx, graph, 3)
    assert rec.passed
    assert rec.expected == "[0, 12, 0]"  # bipartite: odd traces vanish


def test_power_traces_continue_exactly_past_the_int64_guard():
    for a, kmax in [
        # entries near 2^20 put tr(A^4) near 2^86: the chain must leave int64
        ([[0, 2**20, 3], [2**20 - 1, 1, 2**19], [5, 2**20 + 7, 0]], 6),
        # A^2 has entries 2^40, so n^2 max(A^2) max(A) = tr(A^3) = 2^63 exactly:
        # without the n^2 the next product would stay in int64 and wrap
        ([[2**19] * 4] * 4, 4),
        # one vertex: int64 up to A^2 = 2^60, Python integers from A^3 on
        ([[2**30]], 5),
    ]:
        a = np.array(a, dtype=np.int64)
        traces = _power_traces(a, kmax)
        assert traces == [circuit_count(a.tolist(), k) for k in range(1, kmax + 1)]
        assert traces[-1] > 2**63


def test_edge_count_q8_and_bt():
    ctx = fixture(BinaryDihedral(2))
    graph = ctx.graph
    rec = verify_edge_count_identity(ctx, graph)
    assert rec.passed and rec.observed == "[8, 8, 8]"
    ctx = fixture(BinaryPoly("T"))
    rec = verify_edge_count_identity(ctx, ctx.graph)
    assert rec.passed and rec.observed == "[12, 12, 12]"


def test_edge_count_precondition():
    ctx = fixture(Dihedral(3))  # has a loop
    graph = ctx.graph
    with pytest.raises(PreconditionViolated):
        verify_edge_count_identity(ctx, graph)


def test_centralizer_endo_q8():
    ctx = fixture(BinaryDihedral(2))
    rec = verify_centralizer_endo(ctx, ctx.graph)
    assert rec.passed


ORACLE_SPECS = [Dihedral(9), BinaryPoly("O"), BinaryPoly("I"), Heisenberg(3, 1), Cyclic(12)]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=spec_text)
def test_exact_sums_match_per_value_cycint_loops(spec):
    """Power sums and centralizer endomorphism dimensions against one CycInt
    product per value."""
    ctx = fixture(spec)
    ct, cd, g = ctx.ct, ctx.cd, ctx.group
    for i, chi in enumerate(table_values(ct)):
        power, sums = chi, []
        for k in range(1, 5):
            if k > 1:
                power = tuple(x * y for x, y in zip(power, chi))
            sums.append(sum(power, CycInt.zero()).as_integer())
        coeffs = ct.rows[ct.index[i]]
        assert _char_power_sums(coeffs, ct.exponent, 4) == sums
        dims = []
        for k in range(ct.r):
            cen = centralizer(cd, k)
            total = sum(
                (chi[int(cd.class_of[x])] * chi[int(cd.class_of[g.inv[x]])] for x in cen),
                CycInt.zero(),
            )
            assert total.as_integer() % len(cen) == 0
            dims.append(total.as_integer() // len(cen))
        assert _centralizer_endo_dims(ctx, coeffs) == dims


def test_orthogonality_refuses_a_spoiled_table():
    ct = fixture(BinaryPoly("T")).ct
    assert verify_orthogonality(ct)
    index = ct.index.copy()
    i = next(i for i in range(ct.r) if ct.degrees[i] == 1 and i != ct.trivial_index)
    index[i, [1, 2]] = index[i, [2, 1]]  # two classes of one row swapped
    assert not verify_orthogonality(replace(ct, index=index))


def test_newton_spectrum_small():
    for spec in (BinaryPoly("T"), Dihedral(5), BinaryDihedral(4)):
        ctx = fixture(spec)
        rec = verify_newton_spectrum(ctx, ctx.graph)
        assert rec.passed


def test_bipartite_criterion_records():
    for spec, z, bip in [
        (BinaryDihedral(2), 2, True),
        (Dihedral(3), 1, False),
        (BinaryPoly("I"), 2, True),
    ]:
        ctx = fixture(spec)
        rec = verify_bipartite_criterion(ctx, ctx.graph)
        assert rec.passed
        assert rec.observed == f"|Z|={z}, bipartite={bip}"


def test_tree_theorem_cases():
    for spec in (Dihedral(8), BinaryPoly("O"), Extraspecial2(3, "+")):
        ctx = fixture(spec)
        rec = verify_tree_theorem(ctx, ctx.graph)
        assert rec.passed
    ctx = fixture(Extraspecial2(3, "+"))
    rec = verify_tree_theorem(ctx, ctx.graph)
    assert "4^3" in rec.observed
    # not a tree: precondition
    ctx = fixture(Dihedral(3))
    with pytest.raises(PreconditionViolated):
        verify_tree_theorem(ctx, ctx.graph)


def test_forest_theorem_on_matching():
    # an order-2 character of a cyclic group pairs up the vertices
    ctx = fixture(Cyclic(6))
    ct = ctx.ct
    idx = next(
        i
        for i in range(ct.r)
        if ct.degrees[i] == 1
        and is_self_dual(ct, ct.index[i])
        and i != ct.trivial_index
    )
    from mckaygraphs.chartable import Irrep

    graph = build_mckay_graph(ct, Irrep(idx))
    assert is_forest(graph.matrix)
    rec = verify_forest_theorem(ctx, graph)
    assert rec.passed
    assert rec.observed.count("hedgehog(1)") == 3


def test_forest_kernel_order_is_the_kernel_class_sizes():
    """`verify_forest_theorem` reads |N| as the sum of the class sizes of
    `kernel_classes`.  On every forest candidate of the sweep that is the
    order of `kernel_of_character`, and the number of elements where the
    character's value index is the identity's."""
    proper = 0
    for spec in SWEEP_SPECS:
        ct = fixture(spec).ct
        sizes = np.array(ct.conj.sizes, dtype=np.int64)
        for m in _forest_candidates(ct):
            chi = resolve_rho(ct, Irrep(m)).chi
            order = int(kernel_classes(ct, chi) @ sizes)
            values = ct.index[m][ct.conj.class_of]  # element 0 is the identity
            assert order == kernel_of_character(ct, chi).order == np.count_nonzero(values == values[0])
            proper += 1 < order
    assert proper  # kernels of more than one class are met


def test_reducible_self_dual_never_forest():
    rng = random.Random(7)
    for spec in (Dihedral(4), BinaryDihedral(2), Dihedral(6)):
        ctx = fixture(spec)
        ct = ctx.ct
        inv = ct.conj.inverse_class
        for _ in range(20):
            mults = [rng.randint(0, 2) for _ in range(ct.r)]
            if sum(1 for m in mults if m) < 2:
                continue
            # symmetrize to keep the character self-dual
            chi = resolve_rho(ct, CharVector(tuple(mults))).chi
            sym = chi + chi[inv]
            from mckaygraphs.chartable import rho_from_class_function

            rho = rho_from_class_function(ct, sym, ct.exponent)
            if rho.irreducible:
                continue
            graph = build_mckay_graph(ct, rho)
            assert not is_forest(graph.matrix)


def test_sum_of_squares_bt_f4():
    fx = next(f for f in CONSTRUCTIONS if f.name == "btxF4")
    records = verify_construction_531(fx)
    by_id = {r.check_id: r for r in records}
    assert by_id["sumsq[btxF4]"].passed
    # component degree data: E~6 gives 24 = 24*1*1, D~4 star gives 72 = 24*1*3
    assert by_id["construction[btxF4]:shapes"].passed
    assert by_id["construction[btxF4]:union"].passed
    assert by_id["construction[btxF4]:divisibility"].passed


def test_construction_box_f4_spec_defect_is_isolated():
    from mckaygraphs.verify import build_construction, dual_vector_stabilizer, restricted_graph

    fx = next(f for f in CONSTRUCTIONS if f.name == "boxF4")
    assert fx.expected_shapes == ("D~6", "E~7")
    records = verify_construction_531(fx)
    by_id = {r.check_id: r for r in records}
    assert all(r.passed for r in records), [r.check_id for r in records if not r.passed]
    assert by_id["construction[boxF4]:union"].passed
    assert by_id["construction[boxF4]:stabilizer"].passed
    assert by_id["construction[boxF4]:shapes"].observed == "('D~6', 'E~7') with (7, 8) vertices"

    ctx, rho, H, K, action, gp, cdp, ctp, graph, decomp = build_construction(fx)
    # S_3 = BO/Q8 is transitive but not free on the 3 nontrivial kernel
    # characters: the stabilizer has order 48/3 = 16 and is binary dihedral
    stab = dual_vector_stabilizer(ctx.group, K, action)
    assert stab.order == 16 and H.order == 8
    assert tables_isomorphic(stab.group, build_group(BinaryDihedral(4)))
    # Clifford: each component irreducible is induced from the stabilizer, of
    # dimension [G:S]*dim(psi), so sum(dim^2) = [G:S]^2 * |S| = 9 * 16 = 144
    comp = next(c for c in decomp.components if not c.principal)
    index = ctx.group.order // stab.order
    sumsq = sum(d * d for d in comp.dims)
    assert sumsq == index * index * stab.order == 144
    # a D~4 star with dims scaled by a has sum(dim^2) = 8a^2; 144/8 = 18 is
    # not a perfect square, so the old stated pair (D~4*, E~7) cannot occur
    assert sumsq % 8 == 0 and math.isqrt(sumsq // 8) ** 2 != sumsq // 8
    # the component is the binary dihedral D~6 graph with dims scaled by 3
    bd4 = fixture(BinaryDihedral(4)).graph
    assert graph_isomorphic(comp.adjacency, bd4.matrix)
    assert sorted(comp.dims) == sorted(index * d for d in bd4.dims)
    # the graph over the designated Q8 is the D~4 star: not the component
    h_graph, _ = restricted_graph(ctx.ct, H, rho)
    assert not graph_isomorphic(comp.adjacency, h_graph.matrix)


def test_normal_tower_records():
    records = verify_normal_tower()
    assert all(r.passed for r in records)
    ids = [r.check_id for r in records]
    assert ids == ["tower:subgroups", "tower:BO/BT", "tower:BO/Q8", "tower:BT/Q8"]


@pytest.mark.parametrize("case", ["tower", "btxF4", "identities", "copies"])
def test_record_seconds_time_each_record_alone(case):
    if case == "tower":
        run = verify_normal_tower
    elif case == "identities":
        run = lambda: _case_identities(Dihedral(4))
    elif case == "copies":
        run = lambda: _case_product_copies(Extraspecial2(2, "+"), 2)
    else:
        fx = next(f for f in CONSTRUCTIONS if f.name == case)
        run = lambda: verify_construction_531(fx)
    t0 = time.perf_counter()
    records = run()
    wall = time.perf_counter() - t0
    assert all(r.seconds > 0 for r in records), [r.check_id for r in records if r.seconds <= 0]
    assert sum(r.seconds for r in records) <= wall


def test_decomposition_sum_of_squares_values():
    fx = next(f for f in CONSTRUCTIONS if f.name == "btxF4")
    from mckaygraphs.verify import build_construction

    *_, graph, decomp = build_construction(fx)
    comp_sums = sorted(sum(d * d for d in c.dims) for c in decomp.components)
    assert comp_sums == [24, 72]
    d4 = next(c for c in decomp.components if not c.principal)
    assert sorted(d4.dims) == [3, 3, 3, 3, 6]
    assert d4.orbit_size == 3 and d4.orbit_rep_degree == 1


def test_run_suite_parallel_matches_serial():
    import json

    from mckaygraphs.verify import run_suite

    serial = run_suite("forests", jobs=1)
    parallel = run_suite("forests", jobs=2)
    assert [r.check_id for r in serial.records] == [r.check_id for r in parallel.records]
    assert [r.passed for r in serial.records] == [r.passed for r in parallel.records]
    # report serialization round-trips
    blob = json.dumps(serial.to_dict())
    back = json.loads(blob)
    assert back["suite"] == "forests"
    assert len(back["checks"]) == len(serial.records)
    assert serial.passed
    assert back["passed"] is True


@pytest.mark.parametrize("jobs, cpus, workers", [(64, 3, 3), (64, 64, 9), (2, 64, 2)])
def test_run_suite_pool_is_bounded(monkeypatch, jobs, cpus, workers):
    import concurrent.futures

    import mckaygraphs.verify as verify

    seen = []

    class SerialPool:
        """Records the worker count and maps in this process, so no process starts."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    assert len(verify._cases_for("forests")) == 9
    report = verify.run_suite("forests", jobs=jobs)
    assert seen == [workers]
    assert report.passed


def test_run_suite_unknown_name():
    import pytest as _pytest

    from mckaygraphs.verify import run_suite

    with _pytest.raises(ValueError):
        run_suite("bogus")


def test_construction_kernel_and_scaled_marking():
    from mckaygraphs.shapes import classify_component, pf_integer_vector_check
    from mckaygraphs.verify import build_construction

    fx = next(f for f in CONSTRUCTIONS if f.name == "btxF4")
    *_, graph, decomp = build_construction(fx)
    # the kernel of the lifted rho is exactly the twisted-in F_2^2 factor
    assert decomp.kernel.elements == (0, 1, 2, 3)
    # the star component carries the marking scaled by a = 3
    d4 = next(c for c in decomp.components if not c.principal)
    label = classify_component(d4.adjacency)
    ok, a = pf_integer_vector_check(d4.adjacency, d4.dims, graph.rho.dim, label)
    assert ok and a == 3


@pytest.mark.parametrize("spec", [*SWEEP_SPECS, *LADDER_SPECS, Cyclic(1)], ids=spec_text)
def test_forest_screen_is_sound(spec):
    """The screen's residues are the trace and the entry sum of every fully
    built McKay matrix, mod p, and every self-dual irreducible it drops has a
    graph that is not a forest."""
    ct = fixture(spec).ct
    sums = trace_and_total(ct, list(range(ct.r)))
    candidates = set(_forest_candidates(ct))
    for m in range(ct.r):
        graph = build_mckay_graph(ct, Irrep(m))
        p = ct.prime
        assert sums[m].tolist() == [int(np.trace(graph.matrix)) % p, int(graph.matrix.sum()) % p]
        if is_self_dual(ct, ct.index[m]) and m not in candidates:
            assert not graph.forest
