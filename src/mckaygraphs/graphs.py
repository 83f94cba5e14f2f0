"""McKay graphs: multiplicity matrices on Irr(G), components, orbit matching.

The graph of (G, rho) has one vertex per irreducible and N[i][j] =
dim Hom(chi_i (x) rho, chi_j) edges from i to j, computed exactly and checked
by integer identities.  Connected components are matched against the orbits
of G on the irreducibles of the kernel of rho.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chartable import (
    CharacterTable,
    CharVector,
    Rho,
    RhoSelector,
    adjacency_matrix,
    compute_character_table,
    kernel_of_character,
    multiplicities,
    resolve_rho,
    rho_from_class_function,
)
from .cyclotomic import cyc_sum
from .groups import FiniteGroup, Subgroup, quotient_group
from .shapes import forest_bit, graph_flags, weak_components


class OrbitMismatch(Exception):
    """Component/orbit correspondence failed; indicates an implementation bug."""


@dataclass
class McKayGraph:
    """The multiplicity matrix is stored once, as the array `matrix`, which
    numpy readers take; `adjacency` is the same matrix as nested tuples of
    Python integers for the pure-Python graph routines, built on first read.
    Equality skips `matrix`, which ct and rho determine."""

    ct: CharacterTable
    rho: Rho
    matrix: np.ndarray = field(repr=False, compare=False)
    dims: tuple[int, ...]
    trivial_vertex: int
    undirected: bool
    loopless: bool
    simply_laced: bool
    components: list[list[int]]  # `weak_components` of the adjacency
    forest: bool

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.matrix.tolist()))

    @property
    def n_vertices(self) -> int:
        return len(self.dims)

    @property
    def tree(self) -> bool:
        return self.forest and len(self.components) == 1

    def edge_count_doubled(self) -> int:
        """Sum of all off-diagonal entries: 2 * #edges for undirected graphs."""
        return int(self.matrix.sum() - np.trace(self.matrix))

    def induced(self, vertices) -> tuple[tuple[int, ...], ...]:
        """Adjacency of the subgraph on the given vertices, in their order."""
        return tuple(map(tuple, self.matrix[np.ix_(vertices, vertices)].tolist()))


def build_mckay_graph(ct: CharacterTable, sel: RhoSelector | Rho) -> McKayGraph:
    rho = sel if isinstance(sel, Rho) else resolve_rho(ct, sel)
    adj = adjacency_matrix(ct, rho)
    flags = graph_flags(adj)
    components = weak_components(adj)
    # k = 1 trace identity: tr A = sum over classes of chi_rho
    assert cyc_sum(rho.chi).as_integer() == np.trace(adj), (
        "trace differs from the character sum over classes"
    )
    return McKayGraph(
        ct=ct,
        rho=rho,
        matrix=adj,
        dims=tuple(ct.degrees),
        trivial_vertex=ct.trivial_index,
        undirected=flags[0],
        loopless=flags[1],
        simply_laced=flags[2],
        components=components,
        forest=forest_bit(adj, flags, components),
    )


def dual_check(ct: CharacterTable, sel: RhoSelector) -> bool:
    """Does the graph of the dual equal the transposed graph?"""
    rho = resolve_rho(ct, sel)
    inv = ct.conj.inverse_class
    dual_chi = tuple(rho.chi[inv[k]] for k in range(ct.r))
    dual = rho_from_class_function(ct, dual_chi)
    a = build_mckay_graph(ct, rho).matrix
    b = build_mckay_graph(ct, dual).matrix
    return np.array_equal(a, b.T)


# ---------------------------------------------------------------------------
# components


def strongly_connected(adj, vertices) -> bool:
    """Is the induced subgraph strongly connected (directed reachability)?"""
    index = {v: i for i, v in enumerate(vertices)}
    m = len(vertices)

    def reach(forward: bool) -> int:
        seen = [False] * m
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            i = stack.pop()
            v = vertices[i]
            for w in vertices:
                j = index[w]
                edge = adj[v][w] if forward else adj[w][v]
                if edge and not seen[j]:
                    seen[j] = True
                    count += 1
                    stack.append(j)
        return count

    return reach(True) == m and reach(False) == m


@dataclass
class Component:
    vertices: tuple[int, ...]  # irreducible indices of the parent table
    adjacency: tuple[tuple[int, ...], ...]
    dims: tuple[int, ...]
    principal: bool
    orbit_index: int
    orbit_size: int
    orbit_rep_degree: int


@dataclass
class ComponentDecomposition:
    graph: McKayGraph
    kernel: Subgroup
    kernel_table: CharacterTable
    orbits: list[tuple[int, ...]]  # orbits on Irr(N), as index tuples
    components: list[Component]

    @property
    def principal(self) -> Component:
        return next(c for c in self.components if c.principal)


def _kernel_orbits(ct_n: CharacterTable, sub: Subgroup, g: FiniteGroup) -> list[tuple[int, ...]]:
    """Orbits of G on Irr(N) under conjugation, via class permutations.

    Row x of the gather is the permutation of N's classes by conjugation with
    x; the distinct ones form a group, so an orbit is one step of them.  Rows
    of Irr(N) are keyed by their residues."""
    cd_n = ct_n.conj
    local = np.full(g.order, -1, dtype=np.int64)
    local[list(sub.elements)] = np.arange(sub.order)
    reps = np.asarray(sub.elements)[cd_n.reps]
    xs = np.arange(g.order)
    conj = g.mul[g.mul[xs[:, None], reps[None, :]], g.inv[xs][:, None]]
    # the index form: a plain np.unique imports numpy.ma
    perms, _ = np.unique(cd_n.class_of[local[conj]], axis=0, return_index=True)
    key_index = {row.tobytes(): i for i, row in enumerate(ct_n.modular)}
    moves = [[key_index[row.tobytes()] for row in ct_n.modular[:, perm]] for perm in perms]
    return sorted({tuple(sorted(set(images))) for images in zip(*moves)})


def _restrictions(ct: CharacterTable, sub: Subgroup, ct_n: CharacterTable) -> np.ndarray:
    """Multiplicities over Irr(N) of every irreducible of G restricted to N:
    G's rows at N's classes, decomposed in G's field."""
    at_sub = ct.conj.class_of[np.asarray(sub.elements)[ct_n.conj.reps]]
    return multiplicities(ct_n, ct.modular[:, at_sub], ct.degrees, ct.prime)


def decompose_components(graph: McKayGraph, ct: CharacterTable) -> ComponentDecomposition:
    comps = graph.components
    kernel = kernel_of_character(ct, graph.rho.chi)
    # a kernel of order |G| is G on the elements 0..n-1 in order: G's own table
    ct_n = ct if kernel.order == ct.group.order else compute_character_table(kernel.group)
    orbits = _kernel_orbits(ct_n, kernel, ct.group)
    if len(comps) != len(orbits):
        raise OrbitMismatch(
            f"{len(comps)} components vs {len(orbits)} orbits on Irr(N)"
        )
    # support of the restriction of each vertex must be exactly one orbit
    orbit_of_irrN = {}
    for oi, orbit in enumerate(orbits):
        for t in orbit:
            orbit_of_irrN[t] = oi
    restricted = _restrictions(ct, kernel, ct_n)
    components = []
    for comp in comps:
        orbit_indices = set()
        for v in comp:
            support = set(np.flatnonzero(restricted[v]).tolist())
            touched = {orbit_of_irrN[t] for t in support}
            if len(touched) != 1:
                raise OrbitMismatch(
                    f"vertex {v} restricts onto {len(touched)} orbits"
                )
            if support != set(orbits[next(iter(touched))]):
                raise OrbitMismatch(
                    f"vertex {v} is not supported on its full orbit"
                )
            orbit_indices |= touched
        if len(orbit_indices) != 1:
            raise OrbitMismatch("component straddles several orbits")
        oi = orbit_indices.pop()
        rep_deg = ct_n.degrees[orbits[oi][0]]
        components.append(
            Component(
                vertices=tuple(comp),
                adjacency=graph.induced(comp),
                dims=tuple(graph.dims[v] for v in comp),
                principal=graph.trivial_vertex in comp,
                orbit_index=oi,
                orbit_size=len(orbits[oi]),
                orbit_rep_degree=rep_deg,
            )
        )
    used = {c.orbit_index for c in components}
    if used != set(range(len(orbits))):
        raise OrbitMismatch("component-to-orbit matching is not a bijection")
    return ComponentDecomposition(
        graph=graph,
        kernel=kernel,
        kernel_table=ct_n,
        orbits=orbits,
        components=components,
    )


def _push_down(ct: CharacterTable, kernel: Subgroup, rho: Rho) -> tuple[CharacterTable, Rho]:
    """rho as a representation of G/N, N inside its kernel, decomposed in G's
    field one constituent per row: each constituent has N in its kernel, so
    its value on a coset class is its value on the coset's first element."""
    quo, coset_of = quotient_group(ct.group, kernel)
    ct_q = compute_character_table(quo)
    _, first = np.unique(coset_of, return_index=True)
    at_quotient = ct.conj.class_of[first[ct_q.conj.reps]]
    support = [m for m, count in enumerate(rho.mults) if count]
    rows = ct.modular[np.ix_(support, at_quotient)]
    mults = multiplicities(ct_q, rows, [ct.degrees[m] for m in support], ct.prime)
    counts = np.array([rho.mults[m] for m in support], dtype=object)
    return ct_q, resolve_rho(ct_q, CharVector(tuple((counts @ mults).tolist())))


def principal_component_isomorphism_check(
    decomp: ComponentDecomposition, ct: CharacterTable
) -> bool:
    """Principal component = graph of (G/N, rho); components with a degree-1
    vertex are isomorphic to the principal one."""
    ct_q, rho_q = _push_down(ct, decomp.kernel, decomp.graph.rho)
    graph_q = build_mckay_graph(ct_q, rho_q)
    principal = decomp.principal
    if not graph_isomorphic(graph_q.adjacency, principal.adjacency):
        return False
    for comp in decomp.components:
        if comp is principal:
            continue
        if 1 in comp.dims and not graph_isomorphic(comp.adjacency, principal.adjacency):
            return False
    return True


# ---------------------------------------------------------------------------
# graph isomorphism (multidigraphs, refinement + backtracking)


def _refine_colors(adj, colors):
    n = len(adj)
    while True:
        sigs = []
        for v in range(n):
            out = sorted((colors[w], adj[v][w]) for w in range(n) if adj[v][w])
            inn = sorted((colors[w], adj[w][v]) for w in range(n) if adj[w][v])
            sigs.append((colors[v], tuple(out), tuple(inn)))
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [palette[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def graph_isomorphic(a, b) -> bool:
    """Exact isomorphism of directed multigraphs given as adjacency matrices."""
    n = len(a)
    if len(b) != n:
        return False
    if n == 0:
        return True
    ca = _refine_colors(a, [0] * n)
    cb = _refine_colors(b, [0] * n)
    if sorted(ca) != sorted(cb):
        return False
    order = sorted(range(n), key=lambda v: (ca.count(ca[v]), ca[v], v))
    mapping: dict[int, int] = {}
    used = set()

    def consistent(v, w) -> bool:
        if ca[v] != cb[w]:
            return False
        for v2, w2 in mapping.items():
            if a[v][v2] != b[w][w2] or a[v2][v] != b[w2][w]:
                return False
        return a[v][v] == b[w][w]

    def backtrack(idx: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        for w in range(n):
            if w not in used and consistent(v, w):
                mapping[v] = w
                used.add(w)
                if backtrack(idx + 1):
                    return True
                del mapping[v]
                used.remove(w)
        return False

    return backtrack(0)


def disjoint_union(adjs) -> tuple[tuple[int, ...], ...]:
    total = sum(len(a) for a in adjs)
    out = [[0] * total for _ in range(total)]
    offset = 0
    for a in adjs:
        m = len(a)
        for i in range(m):
            for j in range(m):
                out[offset + i][offset + j] = a[i][j]
        offset += m
    return tuple(tuple(row) for row in out)
