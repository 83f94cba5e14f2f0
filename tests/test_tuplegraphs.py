"""The array graph routines against the tuple routines they replaced
(`tests/tuplegraphs.py`), and each component labelled once."""

import sys
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mckaygraphs.graphs as graphs
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
    pf_integer_vector_check,
    template_marking,
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
    calls, per_graph = [], []

    def counted(block):
        calls.append(block)
        return classify_component(block)

    def traced(graph):
        start = len(calls)
        shapes = original(graph)
        per_graph.append((graph, calls[start:]))
        return shapes

    original = McKayGraph.__dict__["component_shapes"].func
    prop = cached_property(traced)
    prop.__set_name__(McKayGraph, "component_shapes")
    monkeypatch.setattr(McKayGraph, "component_shapes", prop)
    monkeypatch.setattr(graphs, "classify_component", counted)
    assert run_suite("all").passed
    # every call comes from a graph's first read of its labels
    assert sum(len(blocks) for _, blocks in per_graph) == len(calls)
    assert len({id(graph) for graph, _ in per_graph}) == len(per_graph)
    for graph, blocks in per_graph:
        distinct = []
        for comp in graph.components:
            block = graph.induced(comp)
            if not any(np.array_equal(block, d) for d in distinct):
                distinct.append(block)
        assert len(blocks) == len(distinct)
        assert all(
            not np.array_equal(blocks[i], blocks[j])
            for i in range(len(blocks))
            for j in range(i)
        )
    # equal blocks of one graph share one label
    assert len(calls) < sum(len(graph.components) for graph, _ in per_graph)
