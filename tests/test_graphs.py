import numpy as np
import pytest

from cycint import CycInt, as_coeffs, as_cycints, table_values
from mckaygraphs.catalog import build_group
from mckaygraphs.chartable import (
    CharVector,
    FaithfulSelfDualMinDim,
    Irrep,
    Rho,
    compute_character_table,
    kernel_of_character,
    resolve_rho,
    rho_from_class_function,
)
from mckaygraphs.cli import parse_group_spec
from mckaygraphs.graphs import (
    _push_down,
    _restrictions,
    build_mckay_graph,
    decompose_components,
    disjoint_union,
    dual_check,
    graph_isomorphic,
    principal_component_isomorphism_check,
)
from mckaygraphs.groups import (
    BinaryPoly,
    Cyclic,
    Dihedral,
    ElemAb,
    Product,
    Semidirect,
    conjugacy,
    quotient_group,
)
from mckaygraphs.shapes import weak_components
from mckaygraphs.verify import _exact_multiplicities, pullback_rho


def graph_for(spec, sel=None):
    g = build_group(spec)
    cd = conjugacy(g)
    ct = compute_character_table(g, cd)
    return g, cd, ct, build_mckay_graph(ct, sel or FaithfulSelfDualMinDim())


def test_c2_sign_single_edge():
    g, cd, ct, _ = graph_for(Cyclic(2), Irrep(0))
    sgn = 1 - ct.trivial_index
    graph = build_mckay_graph(ct, Irrep(sgn))
    assert graph.matrix.tolist() == [[0, 1], [1, 0]]
    assert graph.undirected and graph.loopless and graph.simply_laced


def test_cyclic_nontrivial_directed_cycle():
    g, cd, ct, _ = graph_for(Cyclic(5), Irrep(1))
    graph = build_mckay_graph(ct, Irrep(1))
    assert not graph.undirected
    n = graph.n_vertices
    assert all(sum(graph.matrix[i]) == 1 for i in range(n))
    assert all(graph.matrix[i][i] == 0 for i in range(n))
    assert len(weak_components(graph.matrix)) == 1


def test_dihedral4_star():
    g, cd, ct, graph = graph_for(Dihedral(4))
    center = max(range(graph.n_vertices), key=lambda v: graph.dims[v])
    assert graph.dims[center] == 2
    for v in range(graph.n_vertices):
        if v != center:
            assert graph.matrix[v][center] == 1
            assert sum(graph.matrix[v]) == 1


def test_complete_graph_from_cyclic_shift_representation():
    # C^n / span(1,...,1) under the cyclic shift: chi(0) = n-1, chi(k) = -1
    n = 6
    g = build_group(Cyclic(n))
    cd = conjugacy(g)
    ct = compute_character_table(g, cd)
    chi = as_coeffs([CycInt.integer(n - 1 if cd.reps[k] == 0 else -1) for k in range(ct.r)], 1)
    rho = rho_from_class_function(ct, chi, 1)
    graph = build_mckay_graph(ct, rho)
    assert graph.undirected and graph.loopless
    for i in range(n):
        for j in range(n):
            assert graph.matrix[i][j] == (0 if i == j else 1)


def test_cube_graph_from_coordinate_signs():
    # sum of the coordinate sign characters of F_2^n gives the n-cube
    n = 3
    g = build_group(ElemAb(2, n))
    cd = conjugacy(g)
    ct = compute_character_table(g, cd)
    vecs = g.payload
    chi = np.array([[sum((-1) ** v[i] for i in range(n))] for v in (vecs[rep] for rep in cd.reps)])
    rho = rho_from_class_function(ct, chi, 1)
    assert rho.dim == n
    graph = build_mckay_graph(ct, rho)
    cube = [[0] * 2**n for _ in range(2**n)]
    for a in range(2**n):
        for bit in range(n):
            cube[a][a ^ (1 << bit)] = 1
    assert graph_isomorphic(graph.matrix, np.array(cube))


def test_dual_checks():
    for spec, idx in [(Cyclic(5), 1), (Cyclic(5), 2), (Dihedral(3), 2)]:
        g = build_group(spec)
        ct = compute_character_table(g)
        assert dual_check(ct, Irrep(idx))
    # explicit transpose relation for a directed cycle
    g = build_group(Cyclic(5))
    ct = compute_character_table(g)
    rho = resolve_rho(ct, Irrep(1))
    inv = ct.conj.inverse_class
    dual = rho_from_class_function(ct, rho.chi[inv], rho.order)
    a = build_mckay_graph(ct, rho).matrix
    b = build_mckay_graph(ct, dual).matrix
    assert all(a[i][j] == b[j][i] for i in range(5) for j in range(5))


def test_faithful_rho_single_component():
    g, cd, ct, graph = graph_for(BinaryPoly("T"))
    decomp = decompose_components(graph)
    assert len(decomp.components) == 1
    assert decomp.components[0].principal
    assert decomp.kernel.order == 1
    assert principal_component_isomorphism_check(decomp)


def test_product_with_cyclic_three_copies():
    base = build_group(BinaryPoly("T"))
    base_cd = conjugacy(base)
    base_ct = compute_character_table(base, base_cd)
    rho_base = resolve_rho(base_ct, FaithfulSelfDualMinDim())
    spec = Product(BinaryPoly("T"), Cyclic(3))
    g = build_group(spec)
    cd = conjugacy(g)
    ct = compute_character_table(g, cd)
    chi = rho_base.chi[base_cd.class_of[np.asarray(cd.reps) // 3]]
    rho = rho_from_class_function(ct, chi, rho_base.order)
    graph = build_mckay_graph(ct, rho)
    decomp = decompose_components(graph)
    assert len(decomp.components) == 3
    assert decomp.kernel.order == 3
    for comp in decomp.components:
        assert graph_isomorphic(comp.adjacency, decomp.principal.adjacency)
    assert principal_component_isomorphism_check(decomp)


def test_semidirect_bo_c3_two_components():
    spec = Semidirect(BinaryPoly("O"), Cyclic(3))
    g = build_group(spec)
    cd = conjugacy(g)
    ct = compute_character_table(g, cd)
    base = build_group(BinaryPoly("O"))
    base_cd = conjugacy(base)
    base_ct = compute_character_table(base, base_cd)
    rho_base = resolve_rho(base_ct, FaithfulSelfDualMinDim())
    chi = rho_base.chi[base_cd.class_of[np.asarray(cd.reps) // 3]]
    rho = rho_from_class_function(ct, chi, rho_base.order)
    graph = build_mckay_graph(ct, rho)
    decomp = decompose_components(graph)
    assert len(decomp.components) == 2
    orbit_sizes = sorted(c.orbit_size for c in decomp.components)
    assert orbit_sizes == [1, 2]  # trivial orbit and the two nontrivial characters


def test_graph_isomorphism_basics():
    path3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    star3 = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    assert graph_isomorphic(path3, star3)  # same unlabeled tree
    cycle4 = np.array([[1 if abs(i - j) in (1, 3) else 0 for j in range(4)] for i in range(4)])
    path4 = np.array([[1 if abs(i - j) == 1 else 0 for j in range(4)] for i in range(4)])
    assert not graph_isomorphic(cycle4, path4)
    du = disjoint_union([path3, path3])
    assert len(du) == 6
    assert graph_isomorphic(du, disjoint_union([star3, path3]))


def test_row_dimension_sums_assert():
    g, cd, ct, graph = graph_for(BinaryPoly("O"))
    for i in range(graph.n_vertices):
        total = sum(
            graph.matrix[i][j] * graph.dims[j] for j in range(graph.n_vertices)
        )
        assert total == graph.dims[i] * graph.rho.dim


def test_trace_assert_refuses_a_character_sum_that_is_not_rational():
    # a faithful linear character (1, w, w^2) of cyclic:3 with w added to its
    # value at class 1: the sum over the classes is w, whose coefficient at 1
    # is still 0, the trace of the graph, but whose coefficient at w is not 0
    ct = compute_character_table(build_group(Cyclic(3)))
    rho = resolve_rho(ct, Irrep((ct.trivial_index + 1) % 3))
    chi = rho.chi.copy()
    chi[1, 1] += 1
    assert build_mckay_graph(ct, rho).matrix.trace() == 0 == chi.sum(axis=0)[0]
    with pytest.raises(AssertionError, match="trace differs"):
        build_mckay_graph(ct, Rho(chi=chi, order=rho.order, mults=rho.mults, dim=rho.dim))


def test_undirected_iff_self_dual_and_connected_iff_faithful():
    from mckaygraphs.chartable import is_faithful, is_self_dual
    from mckaygraphs.groups import BinaryDihedral

    for spec in (Cyclic(5), Cyclic(6), Dihedral(4), BinaryDihedral(3), BinaryPoly("T")):
        g = build_group(spec)
        cd = conjugacy(g)
        ct = compute_character_table(g, cd)
        for i in range(ct.r):
            graph = build_mckay_graph(ct, Irrep(i))
            assert graph.undirected == is_self_dual(ct, ct.index[i])
            connected = len(weak_components(graph.matrix)) == 1
            assert connected == is_faithful(ct, ct.index[i])


# ---------------------------------------------------------------------------
# restriction, pushdown, pullback and adjacency against the exact oracle

# In semidirect(dihedral:8,cyclic:3) the quotient by the kernel C_3 is
# dihedral:8, whose own prime 41 has p - 1 = 40, not a multiple of G's
# exponent 24: the pushdown is decomposed in G's field.
DIFFERENTIAL = [
    ("elemab:2:6", "irrep:1"),
    ("heis:3:2", "irrep:10"),
    ("dihedral:64", "irrep:2"),
    ("product(binary:I,cyclic:4)", "irrep:4"),
    ("semidirect(dihedral:8,cyclic:3)", "pullback"),
]


@pytest.mark.parametrize("spec_text, selector", DIFFERENTIAL)
def test_multiplicities_match_exact_oracle(spec_text, selector):
    spec = parse_group_spec(spec_text)
    g = build_group(spec)
    cd = conjugacy(g)
    ct = compute_character_table(g, cd)
    if selector == "pullback":
        base = build_group(spec.group)
        base_cd = conjugacy(base)
        base_ct = compute_character_table(base, base_cd)
        rho_base = resolve_rho(base_ct, FaithfulSelfDualMinDim())
        nk = g.order // base.order
        rho = pullback_rho(ct, base_cd.class_of, nk, rho_base)
        vals = as_cycints(rho_base.chi, rho_base.order)
        pulled = [vals[int(base_cd.class_of[int(rep) // nk])] for rep in cd.reps]
        pulled = as_coeffs(pulled, ct.exponent)
        assert rho.mults == _exact_multiplicities(ct, pulled, ct.exponent)
        assert np.array_equal(rho.chi, pulled) and rho.order == ct.exponent
    else:
        rho = resolve_rho(ct, Irrep(int(selector.split(":")[1])))
    # the exact oracle is slow on the larger groups: one vertex of each degree
    sample = sorted({ct.degrees.index(d) for d in ct.degrees} | {ct.r - 1})

    graph = build_mckay_graph(ct, rho)
    values, e = table_values(ct), ct.exponent
    chi = as_cycints(rho.chi, rho.order)
    for i in sample:
        product = as_coeffs([a * b for a, b in zip(values[i], chi)], e)
        assert tuple(graph.matrix[i].tolist()) == _exact_multiplicities(ct, product, e)

    kernel = kernel_of_character(ct, rho.chi)
    ct_n = compute_character_table(kernel.group)
    restricted = _restrictions(ct, kernel, ct_n)
    for v in sample:
        at_n = [values[v][int(cd.class_of[kernel.elements[rep]])] for rep in ct_n.conj.reps]
        assert tuple(restricted[v].tolist()) == _exact_multiplicities(ct_n, as_coeffs(at_n, e), e)

    ct_q, rho_q = _push_down(ct, kernel, rho)
    _, coset_of = quotient_group(g, kernel)
    firsts = [next(x for x in range(g.order) if coset_of[x] == rep) for rep in ct_q.conj.reps]
    chi_q = as_coeffs([chi[int(cd.class_of[x])] for x in firsts], e)
    assert rho_q.mults == _exact_multiplicities(ct_q, chi_q, e)
    if selector == "pullback":
        assert ct_q.group.order == base.order and (ct_q.prime - 1) % ct.exponent != 0

    decomp = decompose_components(graph)
    assert principal_component_isomorphism_check(decomp)


def test_dihedral_128_sign_components():
    g, cd, ct, graph = graph_for(Dihedral(128), Irrep(2))
    decomp = decompose_components(graph)
    assert decomp.kernel.order == 128 and decomp.kernel.group.is_abelian()
    assert len(decomp.components) == 128 // 2 + 1


@pytest.mark.parametrize("spec_text", ["elemab:2:4", "binary:T", "dihedral:6"])
def test_trivial_rho_reuses_the_group_table(monkeypatch, spec_text):
    import mckaygraphs.graphs as graphs

    g = build_group(parse_group_spec(spec_text))
    cd = conjugacy(g)
    ct = compute_character_table(g, cd)
    calls = []

    def counted(*args):
        calls.append(args)
        return compute_character_table(*args)

    monkeypatch.setattr(graphs, "compute_character_table", counted)
    decomp = decompose_components(build_mckay_graph(ct, Irrep(ct.trivial_index)))
    assert not calls
    assert decomp.kernel.order == g.order and decomp.kernel_table is ct
    # rho = 1 fixes every vertex: one single-vertex component per irreducible
    assert decomp.orbits == [(i,) for i in range(ct.r)]
    assert sorted(c.vertices for c in decomp.components) == [(i,) for i in range(ct.r)]
    # a proper kernel still gets its own table
    sign = next(i for i in range(ct.r) if ct.degrees[i] == 1 and i != ct.trivial_index)
    decompose_components(build_mckay_graph(ct, Irrep(sign)))
    assert len(calls) == 1
