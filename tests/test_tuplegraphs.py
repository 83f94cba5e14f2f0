"""The array graph routines against the tuple routines they replaced
(`tests/tuplegraphs.py`), and each component labelled once."""

import sys
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mckaygraphs.graphs as graphs
import mckaygraphs.verify as verify
import tuplegraphs as oracle
from mckaygraphs.catalog import build_group
from mckaygraphs.chartable import Irrep, SelectorEmpty, compute_character_table
from mckaygraphs.cli import _edge_entries, parse_group_spec, parse_rho_selector
from mckaygraphs.graphs import McKayGraph, build_mckay_graph, disjoint_union, graph_isomorphic
from mckaygraphs.groups import spec_text
from mckaygraphs.shapes import (
    bipartition,
    circuit_count,
    classify_component,
    graph_flags,
    pf_integer_vector_check,
    template_marking,
    weak_components,
)
from mckaygraphs.verify import IDENTITY_FIXTURES, SWEEP_SPECS, _forest_candidates, fixture, run_suite

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from cli_digest import commands  # noqa: E402

# the tuple oracles of circuit counts and markings take n^3 steps in Python
CUBIC_LIMIT = 40


def assert_matches_oracles(m: np.ndarray, dims=None, rho_dim=None, rng=None) -> None:
    """Every array routine on the n x n array m equals its tuple oracle."""
    adj = oracle.adjacency(m)
    n = len(adj)
    label = classify_component(m)
    assert label == oracle.classify_component(adj)
    assert bipartition(m) == oracle.bipartition(adj)
    assert _edge_entries(m) == oracle.edge_entries(adj)
    assert oracle.adjacency(disjoint_union([m, m])) == oracle.disjoint_union([adj, adj])
    if n <= CUBIC_LIMIT:
        for k in range(1, 4):
            assert circuit_count(m, k) == oracle.circuit_count(adj, k)
        assert template_marking(m) == oracle.template_marking(adj)
    if dims is not None:
        got = pf_integer_vector_check(m, dims, rho_dim, label)
        assert got == oracle.pf_integer_vector_check(adj, dims, rho_dim, label)
    # a relabelled copy is isomorphic; a copy with one entry raised may not be
    order = (rng or np.random.default_rng(n)).permutation(n)
    moved = m[np.ix_(order, order)]
    assert graph_isomorphic(m, moved) and oracle.graph_isomorphic(adj, oracle.adjacency(moved))
    if n:
        bumped = m.copy()
        bumped[order[0], order[-1]] += 1
        assert graph_isomorphic(m, bumped) == oracle.graph_isomorphic(adj, oracle.adjacency(bumped))


def assert_graph_matches_oracles(graph: McKayGraph) -> None:
    assert_matches_oracles(graph.matrix, graph.dims, graph.rho.dim)
    assert graph.component_shapes == [
        oracle.classify_component(oracle.induced(graph.matrix, comp)) for comp in graph.components
    ]


@pytest.mark.parametrize("spec", IDENTITY_FIXTURES, ids=spec_text)
def test_tautological_graphs_match_the_tuple_oracles(spec):
    graph = fixture(spec).graph
    assert_graph_matches_oracles(graph)
    if len(graph.components) == 1:
        assert graph.shape == oracle.classify_component(oracle.adjacency(graph.matrix))


@pytest.mark.parametrize("spec", SWEEP_SPECS, ids=spec_text)
def test_sweep_forests_match_the_tuple_oracles(spec):
    ct = fixture(spec).ct
    for m in _forest_candidates(ct):
        graph = build_mckay_graph(ct, Irrep(m))
        if graph.forest:
            assert_graph_matches_oracles(graph)


DIGEST_GRAPHS = [cmd[1:] for cmd in commands() if cmd[0] == "graph"]


@pytest.mark.parametrize("args", DIGEST_GRAPHS, ids=lambda args: " ".join(args[:3]))
def test_digest_graphs_match_the_tuple_oracles(args):
    rho = args[args.index("--rho") + 1] if "--rho" in args else "faithful-selfdual-min"
    ct = compute_character_table(build_group(parse_group_spec(args[0])))
    try:
        graph = build_mckay_graph(ct, parse_rho_selector(rho))
    except SelectorEmpty:  # the command exits 2 and draws no graph
        return
    assert_graph_matches_oracles(graph)


def test_digest_has_the_graphs_past_int64():
    rhos = {tuple(args[:3]) for args in DIGEST_GRAPHS}
    assert ("dihedral:5", "--rho", "charvec:100000000000000000000,0,1,0") in rhos
    assert ("cyclic:2", "--rho", "charvec:0,5000000000000000000") in rhos


BIG = [2**63 - 1, 2**63, 2**64 + 1, 10**20]


@st.composite
def big_multidigraphs(draw):
    """A random forest on at most 7 vertices, then up to 4 entries set to
    0-3 or past 2^63, each mirrored or not, as an object array."""
    n = draw(st.integers(0, 7))
    a = [[0] * n for _ in range(n)]
    for v in range(1, n):
        u = draw(st.integers(-1, v - 1))
        if u >= 0:
            a[u][v] = a[v][u] = 1
    for _ in range(draw(st.integers(0, 4)) if n else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        a[i][j] = draw(st.sampled_from([0, 1, 2, 3, *BIG]))
        if draw(st.booleans()):
            a[j][i] = a[i][j]
    return np.array(a, dtype=object).reshape(n, n)


@settings(max_examples=300, deadline=None)
@given(big_multidigraphs(), st.lists(st.integers(1, 10**20), min_size=7, max_size=7),
       st.randoms(use_true_random=False))
def test_random_multigraphs_past_int64_match_the_tuple_oracles(m, dims, rng):
    n = len(m)
    assert_matches_oracles(m, dims[:n], dims[-1], np.random.default_rng(rng.randrange(2**32)))
    if not any(x in BIG for x in m.ravel().tolist()):
        assert_matches_oracles(m.astype(np.int64), dims[:n], dims[-1])


# ---------------------------------------------------------------------------
# each distinct block of a graph is classified once


def test_each_distinct_block_is_classified_once(monkeypatch):
    """Each distinct block of a graph is classified once, on the first read
    of its labels.  On every graph `run_suite("all")` builds, each
    component's block is its `np.ix_` block and its label is the tuple
    oracle's."""
    calls, per_graph, built = [], [], []

    def counted(block):
        calls.append(block)
        return classify_component(block)

    def traced(graph):
        start = len(calls)
        shapes = original(graph)
        per_graph.append((graph, calls[start:]))
        return shapes

    def recorded(*args):
        built.append(build(*args))
        return built[-1]

    original = McKayGraph.__dict__["component_shapes"].func
    prop = cached_property(traced)
    prop.__set_name__(McKayGraph, "component_shapes")
    monkeypatch.setattr(McKayGraph, "component_shapes", prop)
    monkeypatch.setattr(graphs, "classify_component", counted)
    build = graphs.build_mckay_graph
    for module in (graphs, verify):
        monkeypatch.setattr(module, "build_mckay_graph", recorded)
    assert run_suite("all").passed
    # every call comes from a graph's first read of its labels
    assert sum(len(classified) for _, classified in per_graph) == len(calls)
    assert len({id(graph) for graph, _ in per_graph}) == len(per_graph)
    for graph, classified in per_graph:
        blocks = graph.component_blocks[0]
        assert len(classified) == len(blocks) and all(c is b for c, b in zip(classified, blocks))
    # equal blocks of one graph share one label
    assert len(calls) < sum(len(graph.components) for graph, _ in per_graph)
    assert {id(graph) for graph, _ in per_graph} <= {id(graph) for graph in built}
    for graph in built:
        blocks, block_of = graph.component_blocks
        expected = [oracle.block(graph.matrix, comp) for comp in graph.components]
        assert len(blocks) == len({tuple(e.ravel().tolist()) for e in expected})
        for e, b in zip(expected, block_of):
            assert blocks[b].dtype == e.dtype and np.array_equal(blocks[b], e)
        assert graph.component_shapes == [
            oracle.classify_component(oracle.adjacency(e)) for e in expected
        ]


@st.composite
def block_diagonals(draw):
    """A block-diagonal adjacency of up to 8 blocks, drawn from a pool of up
    to 3 weakly connected blocks on 1-4 vertices so that blocks repeat, with
    its vertices renumbered: int64, or dtype object with entries past 2^63."""
    big = draw(st.booleans())
    entries = st.sampled_from([1, 2, 3, *BIG] if big else [1, 2, 3])
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        s = draw(st.integers(1, 4))
        part = np.zeros((s, s), dtype=object)
        for v in range(1, s):  # a spanning tree, each edge one way or both
            u = draw(st.integers(0, v - 1))
            part[u, v] = draw(entries)
            part[v, u] = draw(entries) if draw(st.booleans()) else 0
        for _ in range(draw(st.integers(0, 3))):
            part[draw(st.integers(0, s - 1)), draw(st.integers(0, s - 1))] = draw(entries)
        pool.append(part)
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=8))
    m = disjoint_union([pool[i] for i in picks]) if picks else np.zeros((0, 0), dtype=object)
    order = draw(st.permutations(range(len(m))))
    m = m[np.ix_(order, order)]
    return m if big or draw(st.booleans()) else m.astype(np.int64)


def bare_graph(m: np.ndarray) -> McKayGraph:
    """A graph of the matrix alone: `component_blocks` reads only `matrix`
    and `components`."""
    flags = graph_flags(m)
    components = weak_components(m)
    return McKayGraph(
        ct=None, rho=None, matrix=m, dims=(1,) * len(m), trivial_vertex=0,
        undirected=flags[0], loopless=flags[1], simply_laced=flags[2],
        components=components, forest=False,
    )


@settings(max_examples=200, deadline=None)
@given(block_diagonals())
@example(np.zeros((0, 0), dtype=np.int64))
@example(np.zeros((0, 0), dtype=object))
@example(np.array([[0]], dtype=np.int64))
@example(np.array([[2**64]], dtype=object))
def test_component_blocks_match_the_ix_blocks(m):
    graph = bare_graph(m)
    blocks, block_of = graph.component_blocks
    assert len(block_of) == len(graph.components)
    assert not block_of or block_of[0] == 0
    assert all(
        not (blocks[i].shape == blocks[j].shape and np.array_equal(blocks[i], blocks[j]))
        for i in range(len(blocks))
        for j in range(i)
    )
    for comp, b in zip(graph.components, block_of):
        expected = oracle.block(m, comp)
        assert blocks[b].dtype == m.dtype and np.array_equal(blocks[b], expected)
    assert sorted(set(block_of)) == list(range(len(blocks)))
    for block in blocks:
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 7
