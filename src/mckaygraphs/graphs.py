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
from .groups import FiniteGroup, Subgroup, quotient_group
from .modp import exact_dtype, exact_matmul, mul_mod
from .shapes import OTHER, ShapeLabel, classify_component, forest_bit, graph_flags, weak_components


class OrbitMismatch(Exception):
    """Component/orbit correspondence failed; indicates an implementation bug."""


@dataclass
class McKayGraph:
    """The multiplicity matrix is stored once, as the array `matrix`, which
    every graph routine reads: int64, or Python integers (dtype object) once
    sum d * dim rho reaches 2^63.  The flags, weak components and forest bit
    are computed when the graph is built; `component_blocks` and
    `component_shapes` read the components on first use.  Equality skips
    `matrix`, which ct and rho determine."""

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

    @property
    def n_vertices(self) -> int:
        return len(self.dims)

    @property
    def tree(self) -> bool:
        return self.forest and len(self.components) == 1

    def edge_count_doubled(self) -> int:
        """Sum of all off-diagonal entries: 2 * #edges for undirected graphs."""
        return int(self.matrix.sum() - np.trace(self.matrix))

    @cached_property
    def component_blocks(self) -> tuple[list[np.ndarray], list[int]]:
        """The distinct induced blocks of the components, read-only, and the
        number of each component's block; block 0 is the first component's.
        One fancy index gathers the components of one size, and one `tolist`
        reads their values as keys: an object array's bytes would be pointers."""
        comps, blocks, number = self.components, [], {}
        block_of = [0] * len(comps)
        for size in dict.fromkeys(map(len, comps)):
            members = [i for i, comp in enumerate(comps) if len(comp) == size]
            v = np.array([comps[i] for i in members])
            gathered = self.matrix[v[:, :, None], v[:, None, :]]
            gathered.flags.writeable = False
            for i, block, values in zip(members, gathered, gathered.reshape(len(v), -1).tolist()):
                block_of[i] = number.setdefault(tuple(values), len(number))  # s^2 values fix s
                if block_of[i] == len(blocks):
                    blocks.append(block)
        return blocks, block_of

    @cached_property
    def component_shapes(self) -> list[ShapeLabel]:
        """The shape of each component, in the order of `components`: each
        distinct block is classified once."""
        blocks, block_of = self.component_blocks
        labels = [classify_component(block) for block in blocks]
        return [labels[b] for b in block_of]

    @property
    def shape(self) -> ShapeLabel:
        """The shape of a connected graph; several components have none."""
        return self.component_shapes[0] if len(self.components) == 1 else OTHER


def build_mckay_graph(ct: CharacterTable, sel: RhoSelector | Rho) -> McKayGraph:
    rho = sel if isinstance(sel, Rho) else resolve_rho(ct, sel)
    adj = adjacency_matrix(ct, rho)
    flags = graph_flags(adj)
    components = weak_components(adj)
    # k = 1 trace identity: tr A = sum over classes of chi_rho, the rational
    # integer with coefficients (tr A, 0, ..., 0)
    total = rho.chi.sum(axis=0, dtype=exact_dtype(ct.r * int(np.abs(rho.chi).max())))
    assert total[0] == np.trace(adj) and not total[1:].any(), (
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


def trace_and_total(ct: CharacterTable, ms) -> np.ndarray:
    """(tr N_m, sum_ij N_m[i, j]) mod p for each irreducible m of the list,
    N_m the McKay matrix of chi_m, as one product of their modular rows with
    two weights per class (column orthogonality,
    sum_i chi_i(k) chi_i(k*) = |G| / h_k):
    tr N_m = sum_k chi_m(k), and
    sum_ij N_m[i, j] = |G|^-1 sum_k h_k chi_m(k) S(k)^2 for S = sum_i chi_i,
    which is real (S(k*) = S(k)) because complex conjugation permutes Irr(G)."""
    p, table = ct.prime, ct.modular
    h = np.array(ct.conj.sizes, dtype=np.int64)
    s = table.sum(axis=0) % p
    total = h * s % p * s % p * pow(ct.group.order, p - 2, p) % p
    return mul_mod(table[ms], np.stack([np.ones_like(total), total], axis=1), p)


def dual_check(ct: CharacterTable, sel: RhoSelector) -> bool:
    """Does the graph of the dual equal the transposed graph?"""
    rho = resolve_rho(ct, sel)
    dual = rho_from_class_function(ct, rho.chi[ct.conj.inverse_class], rho.order)
    a = build_mckay_graph(ct, rho).matrix
    b = build_mckay_graph(ct, dual).matrix
    return np.array_equal(a, b.T)


# ---------------------------------------------------------------------------
# components


@dataclass
class Component:
    vertices: tuple[int, ...]  # irreducible indices of the parent table
    adjacency: np.ndarray  # the graph's read-only block, shared by equal components
    dims: tuple[int, ...]
    shape: ShapeLabel  # read from the graph's component_shapes
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


def decompose_components(graph: McKayGraph) -> ComponentDecomposition:
    ct, comps = graph.ct, graph.components
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
    blocks, block_of = graph.component_blocks
    components = []
    for comp, b, shape in zip(comps, block_of, graph.component_shapes):
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
                adjacency=blocks[b],
                dims=tuple(graph.dims[v] for v in comp),
                shape=shape,
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
    # sum_m count_m mult_mt <= sum_m count_m d_m = dim rho
    pushed = exact_matmul([rho.mults[m] for m in support], mults, rho.dim)
    return ct_q, resolve_rho(ct_q, CharVector(tuple(pushed.tolist())))


def principal_component_isomorphism_check(decomp: ComponentDecomposition) -> bool:
    """Principal component = graph of (G/N, rho); components with a degree-1
    vertex are isomorphic to the principal one."""
    ct_q, rho_q = _push_down(decomp.graph.ct, decomp.kernel, decomp.graph.rho)
    graph_q = build_mckay_graph(ct_q, rho_q)
    principal = decomp.principal
    if not graph_isomorphic(graph_q.matrix, principal.adjacency):
        return False
    for comp in decomp.components:
        if comp.adjacency is principal.adjacency:  # one shared block
            continue
        if 1 in comp.dims and not graph_isomorphic(comp.adjacency, principal.adjacency):
            return False
    return True


# ---------------------------------------------------------------------------
# graph isomorphism (multidigraphs, refinement + backtracking)


def _arcs(a: np.ndarray) -> tuple[list, list]:
    """Per vertex, the (vertex, multiplicity) pairs of its out-edges and of its
    in-edges, loops included, in index order."""
    out, inn = [[] for _ in a], [[] for _ in a]
    src, dst = np.nonzero(a)
    for v, w, m in zip(src.tolist(), dst.tolist(), a[src, dst].tolist()):
        out[v].append((w, m))
        inn[w].append((v, m))
    return out, inn


def _refine_colors(out, inn, colors):
    while True:
        sigs = [
            (
                colors[v],
                tuple(sorted((colors[w], m) for w, m in out[v])),
                tuple(sorted((colors[w], m) for w, m in inn[v])),
            )
            for v in range(len(colors))
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [palette[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def graph_isomorphic(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact isomorphism of directed multigraphs given as adjacency arrays."""
    n = len(a)
    if len(b) != n:
        return False
    if n == 0:
        return True
    ca = _refine_colors(*_arcs(a), [0] * n)
    cb = _refine_colors(*_arcs(b), [0] * n)
    if sorted(ca) != sorted(cb):
        return False
    order = sorted(range(n), key=lambda v: (ca.count(ca[v]), ca[v], v))
    ra, rb = a.tolist(), b.tolist()
    mapping: dict[int, int] = {}
    used = set()

    def consistent(v, w) -> bool:
        if ca[v] != cb[w]:
            return False
        for v2, w2 in mapping.items():
            if ra[v][v2] != rb[w][w2] or ra[v2][v] != rb[w2][w]:
                return False
        return ra[v][v] == rb[w][w]

    # one iterator of candidates per level: recursion passes Python's limit near n = 1000
    stack = [iter(range(n))]
    while stack:
        v = order[len(stack) - 1]
        if v in mapping:  # back from a level that found no image
            used.remove(mapping.pop(v))
        w = next((w for w in stack[-1] if w not in used and consistent(v, w)), None)
        if w is None:
            stack.pop()
        elif len(stack) == n:
            return True
        else:
            mapping[v] = w
            used.add(w)
            stack.append(iter(range(n)))
    return False


def disjoint_union(blocks) -> np.ndarray:
    """The block-diagonal adjacency of the given adjacency arrays."""
    sizes = [len(b) for b in blocks]
    out = np.zeros((sum(sizes), sum(sizes)), dtype=np.result_type(*blocks))
    for block, start in zip(blocks, np.cumsum([0] + sizes).tolist()):
        out[start : start + len(block), start : start + len(block)] = block
    return out
