import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cycint import as_coeffs, as_cycints, table_values
from mckaygraphs.catalog import build_group
from mckaygraphs.chartable import CharVector, Irrep, compute_character_table, resolve_rho
from mckaygraphs.graphs import build_mckay_graph, graph_isomorphic
from mckaygraphs.groups import BinaryPoly, Cyclic, Dihedral, ElemAb, Heisenberg
from mckaygraphs.shapes import (
    bipartition,
    circuit_count,
    classify_component,
    components_strongly_connected,
    graph_flags,
    pf_integer_vector_check,
    template_marking,
    weak_components,
)
from mckaygraphs.verify import _exact_multiplicities
from tuplegraphs import adjacency, is_forest, is_tree


def tensor_oracle(ct, rho):
    """Exact dim Hom(chi_i (x) rho, chi_j), each product taken value by value."""
    values, chi, e = table_values(ct), as_cycints(rho.chi, rho.order), ct.exponent
    return [
        list(_exact_multiplicities(ct, as_coeffs([a * b for a, b in zip(row, chi)], e), e))
        for row in values
    ]


def adj_from_edges(n, edges, loops=()):
    a = [[0] * n for _ in range(n)]
    for i, j in edges:
        a[i][j] += 1
        a[j][i] += 1
    for v in loops:
        a[v][v] += 1
    return tuple(tuple(row) for row in a)


def path(n):
    return adj_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(m):
    return adj_from_edges(m + 1, [(0, i) for i in range(1, m + 1)])


def cycle(n):
    return adj_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def affine_d(n):
    """n+1 vertices: leaves 0,1 on vertex 2, a path 2..n-2, leaves n-1,n on n-2."""
    edges = [(0, 2), (1, 2), (n - 1, n - 2), (n, n - 2)]
    edges += [(i, i + 1) for i in range(2, n - 2)]
    return adj_from_edges(n + 1, edges)


def affine_e(kind):
    if kind == 6:
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)]
    elif kind == 7:
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)]
    else:
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)]
    return adj_from_edges(len(edges) + 1, edges)


def test_cycles_are_affine_a():
    for n in (3, 4, 5, 9):
        label = classify_component(cycle(n))
        assert label.kind == "affine_a" and label.index == n - 1
    # the degenerate cycles: a single-loop vertex and a doubled edge
    loop = ((1,),)
    lab0 = classify_component(loop)
    assert lab0.kind == "affine_a" and lab0.index == 0
    doubled = ((0, 2), (2, 0))
    lab = classify_component(doubled)
    assert lab.kind == "affine_a" and lab.index == 1
    # a double loop has degree 4 and is not a cycle
    assert classify_component(((2,),)).kind == "other"


def test_stars_and_alias():
    assert classify_component(star(1)).kind == "hedgehog"
    assert classify_component(star(2)).kind == "hedgehog"
    lab4 = classify_component(star(4))
    assert lab4.kind == "affine_d" and lab4.index == 4 and lab4.hedgehog_alias
    assert lab4.dynkin_group_order == 8
    lab16 = classify_component(star(16))
    assert lab16.kind == "hedgehog" and lab16.index == 16


def test_affine_d_templates():
    for n in (5, 6, 7, 10):
        lab = classify_component(affine_d(n))
        assert lab.kind == "affine_d" and lab.index == n, (n, lab)
        assert lab.dynkin_group_order == 4 * (n - 2)


def test_affine_e_templates():
    for kind, order in ((6, 24), (7, 48), (8, 120)):
        lab = classify_component(affine_e(kind))
        assert lab.kind == "affine_e" and lab.index == kind
        assert lab.dynkin_group_order == order


def test_markings_recover_group_orders():
    for adj, order in [
        (affine_e(6), 24),
        (affine_e(7), 48),
        (affine_e(8), 120),
        (affine_d(4), 8),
        (affine_d(6), 16),
        (star(4), 8),
    ]:
        marking = template_marking(adj)
        assert marking is not None
        assert sum(d * d for d in marking) == order


def test_odd_tail():
    # S_3 shape: two leaves on a looped vertex
    a = adj_from_edges(3, [(0, 2), (1, 2)], loops=[2])
    lab = classify_component(a)
    assert lab.kind == "dihedral_odd_tail" and lab.index == 3
    # longer tail: leaves - fork - chain - loop
    b = adj_from_edges(4, [(0, 2), (1, 2), (2, 3)], loops=[3])
    lab = classify_component(b)
    assert lab.kind == "dihedral_odd_tail" and lab.index == 4
    # loop in the middle is not the template
    c = adj_from_edges(4, [(0, 2), (1, 2), (2, 3)], loops=[2])
    assert classify_component(c).kind == "other"


def test_paths_and_random_other():
    assert classify_component(path(4)).kind == "other"
    assert classify_component(path(7)).kind == "other"


def test_forest_and_tree_flags():
    assert is_tree(star(5))
    assert is_tree(path(1))
    assert not is_forest(cycle(4))
    two_trees = [[0] * 5 for _ in range(5)]
    for i, j in [(0, 1), (2, 3), (3, 4)]:
        two_trees[i][j] = two_trees[j][i] = 1
    t = tuple(tuple(r) for r in two_trees)
    assert is_forest(t) and not is_tree(t)
    looped = adj_from_edges(3, [(0, 1), (1, 2)], loops=[0])
    assert not is_forest(looped)
    directed = ((0, 1), (0, 0))
    assert not is_forest(directed)


def test_bipartition():
    assert bipartition(cycle(4)) is not None
    assert bipartition(cycle(3)) is None
    colors = bipartition(star(4))
    assert colors is not None and colors[0] != colors[1]
    looped = adj_from_edges(2, [(0, 1)], loops=[1])
    assert bipartition(looped) is None


def test_circuit_counts():
    single_edge = adj_from_edges(2, [(0, 1)])
    assert circuit_count(single_edge, 2) == 2
    assert circuit_count(star(4), 2) == 8
    assert circuit_count(cycle(5), 5) == 10  # 5 starts x 2 directions
    s3_shape = adj_from_edges(3, [(0, 2), (1, 2)], loops=[2])
    assert circuit_count(s3_shape, 2) == 5


def test_pf_vector_check():
    adj = affine_e(6)
    marking = template_marking(adj)
    lab = classify_component(adj)
    ok, a = pf_integer_vector_check(adj, marking, 2, lab)
    assert ok and a == 1
    scaled = [3 * d for d in marking]
    ok, a = pf_integer_vector_check(adj, scaled, 2, lab)
    assert ok and a == 3
    wrong = list(marking)
    wrong[0] += 1
    ok, _ = pf_integer_vector_check(adj, wrong, 2, lab)
    assert not ok
    # single vertex, radius 0
    ok, a = pf_integer_vector_check(((0,),), (1,), 0, None)
    assert ok and a is None


# ---------------------------------------------------------------------------
# template markings against elimination over Q (oracle)


def rational_rref(rows, ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q, pivoting in the first ncols columns;
    returns the reduced rows and their pivot columns."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows, pivots


def template_marking_oracle(adj):
    """The positive primitive null vector of A - 2I, from the rational rref."""
    n = len(adj)
    rows, pivots = rational_rref(
        [[adj[i][j] - (2 if i == j else 0) for j in range(n)] for i in range(n)], n
    )
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    fc = free[0]
    vec = [Fraction(0)] * n
    vec[fc] = Fraction(1)
    for i, pc in enumerate(pivots):
        vec[pc] = -rows[i][fc]
    if any(v <= 0 for v in vec):
        vec = [-v for v in vec]
    if any(v <= 0 for v in vec):
        return None
    denom = 1
    for v in vec:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return [v // g for v in ints]


def relabelled(adj, order):
    return tuple(tuple(adj[i][j] for j in order) for i in order)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([affine_d(n) for n in range(4, 21)] + [affine_e(k) for k in (6, 7, 8)]),
       st.randoms(use_true_random=False))
def test_markings_match_the_rational_oracle_on_ade_graphs(adj, rng):
    order = list(range(len(adj)))
    rng.shuffle(order)
    adj = relabelled(adj, order)
    marking = template_marking(adj)
    assert marking is not None
    assert marking == template_marking_oracle(adj)


@st.composite
def symmetric_graphs(draw):
    """A symmetric matrix on 1-7 vertices, entries 0-2 off the diagonal and
    0-3 on it."""
    n = draw(st.integers(1, 7))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = draw(st.integers(0, 3))
        for j in range(i + 1, n):
            a[i][j] = a[j][i] = draw(st.integers(0, 2))
    return a


@settings(max_examples=300, deadline=None)
@given(symmetric_graphs())
def test_markings_match_the_rational_oracle_on_random_graphs(adj):
    assert template_marking(adj) == template_marking_oracle(adj)


# ---------------------------------------------------------------------------
# exhaustive tree enumeration (independent oracle)


def canonical_tree(n, edges):
    """AHU canonical form rooted at the tree center(s)."""
    if n == 1:
        return "()"
    neighbors = {v: set() for v in range(n)}
    for i, j in edges:
        neighbors[i].add(j)
        neighbors[j].add(i)
    degree = {v: len(neighbors[v]) for v in range(n)}
    layer = [v for v in range(n) if degree[v] <= 1]
    removed = set(layer)
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for w in neighbors[v]:
                if w not in removed:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
                        removed.add(w)
        layer = nxt

    def encode(v, parent):
        subs = sorted(encode(w, v) for w in neighbors[v] if w != parent)
        return "(" + "".join(subs) + ")"

    if len(layer) == 1:
        return encode(layer[0], None)
    a, b = layer
    return "(" + "".join(sorted([encode(a, b), encode(b, a)])) + ")"


def all_trees(max_n):
    """All unlabeled trees with up to max_n vertices, one labeled copy each."""
    by_size = {1: [(1, ())]}
    for n in range(2, max_n + 1):
        seen = {}
        for size, edges in by_size[n - 1]:
            for attach in range(size):
                new_edges = edges + ((attach, size),)
                key = canonical_tree(n, new_edges)
                if key not in seen:
                    seen[key] = (n, new_edges)
        by_size[n] = list(seen.values())
    return by_size


def test_tree_counts_and_unique_leaf_neighbor_lemma():
    by_size = all_trees(10)
    counts = [len(by_size[n]) for n in range(1, 11)]
    assert counts == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]
    for n in range(2, 11):
        for size, edges in by_size[n]:
            adj = adj_from_edges(size, edges)
            degs = [sum(row) for row in adj]
            leaves = [v for v in range(size) if degs[v] == 1]
            attach = set()
            for v in leaves:
                for w in range(size):
                    if adj[v][w]:
                        attach.add(w)
            if len(attach) == 1:
                # a unique vertex adjacent to a leaf forces a star
                center = attach.pop()
                assert degs[center] == size - 1, (n, edges)
                label = classify_component(adj)
                assert label.kind == "hedgehog" or (
                    label.kind == "affine_d" and label.hedgehog_alias
                )


def test_classifier_fuzz_random_trees():
    rng = random.Random(99)
    templates_checked = 0
    for _ in range(1000):
        n = rng.randint(2, 14)
        if n == 2:
            edges = [(0, 1)]
        else:
            prufer = [rng.randrange(n) for _ in range(n - 2)]
            degree = [1] * n
            for v in prufer:
                degree[v] += 1
            edges = []
            import heapq

            leaves = [v for v in range(n) if degree[v] == 1]
            heapq.heapify(leaves)
            for v in prufer:
                leaf = heapq.heappop(leaves)
                edges.append((leaf, v))
                degree[v] -= 1
                if degree[v] == 1:
                    heapq.heappush(leaves, v)
            u, w = sorted(leaves)
            edges.append((u, w))
        adj = adj_from_edges(n, edges)
        label = classify_component(adj)
        if label.kind == "other":
            continue
        templates_checked += 1
        # any non-other label must reproduce the exact template graph
        if label.kind == "hedgehog":
            assert graph_isomorphic(np.array(adj), np.array(star(label.index)))
        elif label.kind == "affine_d":
            target = star(4) if label.index == 4 else affine_d(label.index)
            assert graph_isomorphic(np.array(adj), np.array(target))
        elif label.kind == "affine_e":
            assert graph_isomorphic(np.array(adj), np.array(affine_e(label.index)))
        else:
            raise AssertionError(f"unexpected label {label} for a random tree")
    assert templates_checked > 0  # stars do appear among random trees


def test_bipartite_graphs_have_symmetric_spectra():
    # odd-length circuit counts vanish on bipartite fixture graphs
    from mckaygraphs.chartable import FaithfulSelfDualMinDim, compute_character_table
    from mckaygraphs.graphs import build_mckay_graph
    from mckaygraphs.groups import BinaryDihedral, BinaryPoly, Extraspecial2

    for spec in (BinaryDihedral(3), BinaryPoly("T"), Extraspecial2(2, "-")):
        g = build_group(spec)
        ct = compute_character_table(g)
        graph = build_mckay_graph(ct, FaithfulSelfDualMinDim())
        assert bipartition(graph.matrix) is not None
        for k in range(1, min(ct.r, 9) + 1, 2):
            assert circuit_count(graph.matrix, k) == 0


# ---------------------------------------------------------------------------
# the array shape facts against pure-Python oracles


def symmetric_oracle(adj):
    n = len(adj)
    return all(adj[i][j] == adj[j][i] for i in range(n) for j in range(i + 1, n))


def flags_oracle(adj):
    n = len(adj)
    return (
        symmetric_oracle(adj),
        all(adj[v][v] == 0 for v in range(n)),
        all(adj[v][w] <= 1 for v in range(n) for w in range(n) if v != w),
    )


def components_oracle(adj):
    """DFS from each unseen vertex in index order."""
    n = len(adj)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in range(n):
                if not seen[w] and (adj[v][w] or adj[w][v]):
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def acyclic_oracle(adj):
    """DFS: a visited vertex other than the parent closes a circuit."""
    n = len(adj)
    seen = [False] * n
    for s in range(n):
        if seen[s]:
            continue
        stack = [(s, -1)]
        seen[s] = True
        while stack:
            v, parent = stack.pop()
            for w in range(n):
                if not adj[v][w]:
                    continue
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, v))
                elif w != parent:
                    return False
    return True


def forest_oracle(adj):
    return all(flags_oracle(adj)) and acyclic_oracle(adj)


def tree_oracle(adj):
    return forest_oracle(adj) and len(components_oracle(adj)) == 1


@st.composite
def multidigraphs(draw):
    """A random forest on at most 12 vertices, then up to 4 entries set to
    0-3, each mirrored or not: loops, asymmetric entries, multiple edges,
    circuits and split trees."""
    n = draw(st.integers(0, 12))
    a = [[0] * n for _ in range(n)]
    for v in range(1, n):
        u = draw(st.integers(-1, v - 1))
        if u >= 0:
            a[u][v] = a[v][u] = 1
    for _ in range(draw(st.integers(0, 4)) if n else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        a[i][j] = draw(st.integers(0, 3))
        if draw(st.booleans()):
            a[j][i] = a[i][j]
    return a


@settings(max_examples=400, deadline=None)
@given(multidigraphs(), st.sampled_from(["tuples", "int64", "object"]))
def test_shape_facts_match_the_oracles(adj, form):
    if form == "tuples":
        given_adj = tuple(map(tuple, adj))
    else:
        given_adj = np.array(adj, dtype=np.int64 if form == "int64" else object).reshape(
            len(adj), len(adj)
        )
    assert graph_flags(given_adj) == flags_oracle(adj)
    assert weak_components(given_adj) == components_oracle(adj)
    assert is_forest(given_adj) == forest_oracle(adj)
    assert is_tree(given_adj) == tree_oracle(adj)
    if not symmetric_oracle(adj):
        assert classify_component(given_adj).kind == "other"


def strongly_connected_oracle(adj, vertices):
    """Is the induced subgraph strongly connected?  A DFS along the edges and
    one against them, from the first vertex, must each reach every vertex."""
    index = {v: i for i, v in enumerate(vertices)}
    m = len(vertices)

    def reach(forward):
        seen = [False] * m
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            v = vertices[stack.pop()]
            for w in vertices:
                j = index[w]
                edge = adj[v][w] if forward else adj[w][v]
                if edge and not seen[j]:
                    seen[j] = True
                    count += 1
                    stack.append(j)
        return count

    return reach(True) == m and reach(False) == m


@st.composite
def digraphs(draw):
    """Random digraphs on at most 9 vertices, most of whose weak components
    are not strongly connected, plus the McKay-like multidigraphs."""
    if draw(st.booleans()):
        return draw(multidigraphs())
    n = draw(st.integers(0, 9))
    cells = draw(st.lists(st.integers(0, 5), min_size=n * n, max_size=n * n))
    return [[max(c - 3, 0) for c in cells[i * n : (i + 1) * n]] for i in range(n)]


@settings(max_examples=400, deadline=None)
@given(digraphs())
def test_strong_connectivity_matches_the_dfs_oracle(adj):
    oracle = all(strongly_connected_oracle(adj, comp) for comp in components_oracle(adj))
    given_adj = np.array(adj, dtype=np.int64).reshape(len(adj), len(adj))
    assert components_strongly_connected(given_adj) == oracle


@pytest.mark.parametrize(
    "adj, strong",
    [
        (((0, 1), (0, 0)), False),  # one arc
        (((0, 1, 0), (0, 0, 1), (1, 0, 0)), True),  # a directed triangle
        (((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)), False),  # an edge, an arc
        (((1, 0), (0, 0)), True),  # isolated vertices
    ],
)
def test_strong_connectivity_examples(adj, strong):
    assert components_strongly_connected(adj) == strong
    assert all(strongly_connected_oracle(adj, c) for c in components_oracle(adj)) == strong


@pytest.mark.parametrize(
    "adj",
    [
        ((0, 2), (0, 1)),  # degrees of a doubled loop
        ((0, 0, 0), (1, 0, 1), (1, 1, 0)),  # degrees of a 3-vertex path
        ((0, 0, 1), (1, 0, 0), (1, 1, 1)),  # degrees of the 3-vertex odd tail
    ],
)
def test_asymmetric_components_are_other(adj):
    assert classify_component(adj).kind == "other"


@pytest.mark.parametrize(
    "spec", [Dihedral(9), BinaryPoly("O"), ElemAb(2, 4), Heisenberg(3, 1)]
)
def test_graph_facts_are_the_shape_functions(spec):
    ct = compute_character_table(build_group(spec))
    for i in range(ct.r):
        graph = build_mckay_graph(ct, Irrep(i))
        adj = adjacency(graph.matrix)
        assert (graph.undirected, graph.loopless, graph.simply_laced) == graph_flags(adj)
        assert graph.components == weak_components(adj)
        assert graph.forest == is_forest(adj)
        assert graph.tree == is_tree(adj)
        assert graph.matrix.tolist() == [list(row) for row in adj]


def test_huge_multiplicities_take_python_integers():
    # dim rho = 10^20 + 1 exceeds 2^63, so the sum leaves int64
    ct = compute_character_table(build_group(Dihedral(5)))
    rho = resolve_rho(ct, CharVector((10**20, 0, 1, 0)))
    graph = build_mckay_graph(ct, rho)
    assert graph.matrix.dtype == object
    oracle = tensor_oracle(ct, rho)
    assert graph.matrix.tolist() == oracle
    assert max(max(row) for row in oracle) > 2**63
    flags = (graph.undirected, graph.loopless, graph.simply_laced)
    assert flags == flags_oracle(oracle)
    assert graph.components == components_oracle(oracle)
    assert graph.forest == forest_oracle(oracle)
    assert graph.tree == tree_oracle(oracle)
    assert graph.edge_count_doubled() == sum(
        oracle[i][j] for i in range(ct.r) for j in range(ct.r) if i != j
    )


@pytest.mark.parametrize(
    "spec, count",
    [(Cyclic(2), 5 * 10**18), (Dihedral(5), 3 * 10**18), (Cyclic(2), 2**62 - 1)],
)
def test_multiplicities_near_the_int64_gate(spec, count):
    # count copies of the trivial character: the graph is count * I, every
    # entry below 2^63, but the trace of the first two reaches 10^19
    ct = compute_character_table(build_group(spec))
    mults = [0] * ct.r
    mults[ct.trivial_index] = count
    rho = resolve_rho(ct, CharVector(tuple(mults)))
    graph = build_mckay_graph(ct, rho)
    oracle = tensor_oracle(ct, rho)
    assert graph.matrix.tolist() == oracle
    assert max(max(row) for row in oracle) < 2**63
    assert graph.matrix.dtype == (object if sum(ct.degrees) * count >= 2**63 else np.int64)
    assert int(np.trace(graph.matrix)) == ct.r * count
    assert graph.edge_count_doubled() == 0
