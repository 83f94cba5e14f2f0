"""Shape recognition for the graphs the classification produces.

Recognizes cycles, stars ("hedgehogs"), the two-fork affine D strings, the
three exceptional affine E trees, and the odd-dihedral path with a terminal
loop.  Recognition is purely structural; spectral facts (radius 2, positive
integer eigenvector) are kept as an independent cross-check.

Every routine reads an adjacency as one n x n numpy array, int64 or, past
int64, Python integers of dtype object.  Degrees, loops, symmetry and edge
counts are array expressions; the walks read each vertex's neighbour list,
taken from the array once.  The forest bit is Euler's count alone: a simple
undirected graph is a forest exactly when |V| = |E| + #components.
`McKayGraph.component_blocks` gathers a graph's components one size at a time
and keeps each distinct block once, read-only; `component_shapes` classifies
each distinct block once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional

import numpy as np

from .modp import exact_dtype


@dataclass(frozen=True)
class ShapeLabel:
    kind: str  # "affine_a" | "affine_d" | "affine_e" | "hedgehog" | "dihedral_odd_tail" | "other"
    index: Optional[int] = None  # subscript n, E-type 6/7/8, spine count, or vertex count
    dynkin_group_order: Optional[int] = None  # 4(n-2) for D, 24/48/120 for E
    hedgehog_alias: bool = False  # affine D_4 doubles as the 4-spine star

    def short(self) -> str:
        if self.kind == "affine_a":
            return f"A~{self.index}"
        if self.kind == "affine_d":
            return f"D~{self.index}" + ("*" if self.hedgehog_alias else "")
        if self.kind == "affine_e":
            return f"E~{self.index}"
        if self.kind == "hedgehog":
            return f"hedgehog({self.index})"
        if self.kind == "dihedral_odd_tail":
            return f"odd-tail({self.index})"
        return "other"


OTHER = ShapeLabel(kind="other")


def _square(adj) -> np.ndarray:
    """The adjacency as an n x n array, n = 0 included."""
    a = np.asarray(adj)
    return a.reshape(len(a), len(a))


def _neighbors(a: np.ndarray) -> list[list[int]]:
    """Each vertex's neighbours other than itself, in index order."""
    support = a != 0
    np.fill_diagonal(support, False)
    return [np.flatnonzero(row).tolist() for row in support]


def classify_component(adj) -> ShapeLabel:
    """Classify one connected component given by its adjacency matrix."""
    a = _square(adj)
    n = len(a)
    if n == 0 or not (a == a.T).all():
        return OTHER  # empty or not symmetric
    loops = a.diagonal()
    wide = a.astype(exact_dtype((n + 1) * int(np.abs(a).max())), copy=False)
    degs = (wide.sum(axis=1) + wide.diagonal()).tolist()  # undirected, loops counted twice
    # cycles (multigraph sense): every vertex of undirected degree 2
    if all(d == 2 for d in degs) and not (a > 2).any():
        # includes the loop vertex (n=1) and the doubled edge (n=2)
        return ShapeLabel(kind="affine_a", index=n - 1)
    if ((a > 1) & ~np.eye(n, dtype=bool)).any():
        return OTHER
    looped = np.flatnonzero(loops).tolist()
    if len(looped) == 1 and loops[looped[0]] == 1:
        return _classify_odd_tail(_neighbors(a), degs, looped[0])
    if looped:
        return OTHER

    # loop-free simply-laced: tree shapes
    if sum(degs) // 2 != n - 1:
        return OTHER  # has a circuit but is not a plain cycle
    deg3 = [v for v in range(n) if degs[v] >= 3]
    if not deg3:
        # a path; the 2- and 3-vertex paths are the degenerate stars
        if n == 2:
            return ShapeLabel(kind="hedgehog", index=1)
        if n == 3:
            return ShapeLabel(kind="hedgehog", index=2)
        return OTHER
    if len(deg3) == 1:
        center = deg3[0]
        if degs[center] == n - 1:
            # star K_{1,m}
            m = n - 1
            if m == 4:
                return ShapeLabel(
                    kind="affine_d", index=4, dynkin_group_order=8, hedgehog_alias=True
                )
            return ShapeLabel(kind="hedgehog", index=m)
        if degs[center] == 3:
            arms = sorted(_arm_lengths(_neighbors(a), center))
            if arms == [2, 2, 2] and n == 7:
                return ShapeLabel(kind="affine_e", index=6, dynkin_group_order=24)
            if arms == [1, 3, 3] and n == 8:
                return ShapeLabel(kind="affine_e", index=7, dynkin_group_order=48)
            if arms == [1, 2, 5] and n == 9:
                return ShapeLabel(kind="affine_e", index=8, dynkin_group_order=120)
        return OTHER
    if len(deg3) == 2:
        u, w = deg3
        if degs[u] == degs[w] == 3:
            nbrs = _neighbors(a)
            leaves_u = [x for x in nbrs[u] if degs[x] == 1]
            leaves_w = [x for x in nbrs[w] if degs[x] == 1]
            if len(leaves_u) == 2 and len(leaves_w) == 2 and _is_path_between(nbrs, u, w, degs):
                return ShapeLabel(
                    kind="affine_d", index=n - 1, dynkin_group_order=4 * (n - 3)
                )
        return OTHER
    return OTHER


def _arm_lengths(nbrs, center) -> list[int]:
    lengths = []
    for start in nbrs[center]:
        length = 1
        prev, cur = center, start
        while True:
            nxt = [w for w in nbrs[cur] if w != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                return [-1]  # branching inside an arm
            prev, cur = cur, nxt[0]
            length += 1
        lengths.append(length)
    return lengths


def _is_path_between(nbrs, a, b, degs) -> bool:
    """All vertices outside the two forks form a simple a--b path of 2-degree vertices."""
    prev, cur = None, a
    while True:
        nxt = [w for w in nbrs[cur] if w != prev and (degs[w] == 2 or w == b)]
        if b in nxt:
            return True
        if len(nxt) != 1:
            return False
        prev, cur = cur, nxt[0]
        if degs[cur] != 2:
            return False


def _classify_odd_tail(nbrs, degs, loop_vertex) -> ShapeLabel:
    """A path of 2s ending in a loop, with two leaves at the far end."""
    n = len(nbrs)
    leaves = [v for v in range(n) if degs[v] == 1]
    if len(leaves) != 2:
        return OTHER
    # walk from the loop vertex away from the loop; must be a path to the fork
    prev, cur = None, loop_vertex
    visited = {loop_vertex}
    while True:
        nxt = [w for w in nbrs[cur] if w != prev]
        if len(nxt) == 2 and sorted(nxt) == sorted(leaves):
            if len(visited) + 2 == n:
                return ShapeLabel(kind="dihedral_odd_tail", index=n)
            return OTHER
        if len(nxt) != 1:
            return OTHER
        prev, cur = cur, nxt[0]
        if cur in visited:
            return OTHER
        visited.add(cur)


# ---------------------------------------------------------------------------
# forests, bipartitions, circuits


def graph_flags(adj) -> tuple[bool, bool, bool]:
    """(undirected, loopless, simply_laced)."""
    a = _square(adj)
    simple = (a <= 1) | np.eye(len(a), dtype=bool)
    return bool((a == a.T).all()), not a.diagonal().any(), bool(simple.all())


def _least_reached(support: np.ndarray) -> np.ndarray:
    """For every vertex, the least vertex it reaches along the directed
    boolean support, itself included.  Min-label propagation: every vertex
    takes the least label among itself and its out-neighbours, then the label
    of its label.  A vertex reaches its label and all that its label reaches,
    so labels only fall, and they settle on the least vertex reached."""
    src, dst = np.nonzero(support)
    label = np.arange(len(support))
    while True:
        step = label.copy()
        np.minimum.at(step, src, label[dst])
        step = step[step]
        if np.array_equal(step, label):
            return label
        label = step


def weak_components(adj) -> list[list[int]]:
    """Vertex lists of the components of the undirected support, each sorted,
    in the order of their smallest vertices: the vertices that share a least
    reached vertex of the symmetric support."""
    a = _square(adj) != 0
    label = _least_reached(a | a.T)
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[order])) + 1
    return [part.tolist() for part in np.split(order, starts)] if len(a) else []


def components_strongly_connected(adj) -> bool:
    """Is every weak component strongly connected?  Exactly when the least
    vertex each vertex reaches along the edges, the least that reaches it, and
    the least of its weak component agree: then every vertex reaches the least
    vertex of its component, and that vertex reaches every vertex."""
    a = _square(adj) != 0
    weak = _least_reached(a | a.T)
    return np.array_equal(_least_reached(a), weak) and np.array_equal(_least_reached(a.T), weak)


def forest_bit(a: np.ndarray, flags, components) -> bool:
    """Is the graph of the n x n array `a` a forest, given its `graph_flags`
    and `weak_components`?  A simple graph has |E| >= |V| - #components
    edges, with equality exactly when it has no circuit (Euler)."""
    return all(flags) and len(a) == np.count_nonzero(np.triu(a, 1)) + len(components)


def bipartition(adj) -> Optional[list[int]]:
    """DFS 2-coloring of the undirected support, or None."""
    a = _square(adj)
    if a.diagonal().any():
        return None
    nbrs = _neighbors((a != 0) | (a.T != 0))
    color = [-1] * len(a)
    for s in range(len(a)):
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in nbrs[v]:
                if color[w] < 0:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return None
    return color


def circuit_count(adj, k: int) -> int:
    """tr(A^k) by repeated squaring over Python integers."""
    assert k >= 1
    return int(np.trace(np.linalg.matrix_power(_square(adj).astype(object), k)))


def template_marking(adj) -> Optional[list[int]]:
    """Positive integer vector with A*d = 2*d and gcd 1, when one exists.

    The null space of A - 2I by fraction-free integer elimination: a row is
    cleared at a pivot column as pivot * row - entry * pivot row, then divided
    by the gcd of its entries.  With one free column f, pivot row i reads
    a_i x_(p_i) + b_i x_f = 0, so x_f = lcm(a) gives an integer vector."""
    a = _square(adj)
    n = len(a)
    rows = (a - 2 * np.eye(n, dtype=np.int64)).tolist()
    pivots: list[int] = []
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, n) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        for i in range(n):
            f = rows[i][col]
            if i != r and f:
                row = [top[col] * x - f * y for x, y in zip(rows[i], top)]
                g = gcd(*row) or 1
                rows[i] = [v // g for v in row]
        pivots.append(col)
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    fc = free[0]
    scale = lcm(*(rows[i][pc] for i, pc in enumerate(pivots)))
    vec = [0] * n
    vec[fc] = scale
    for i, pc in enumerate(pivots):
        vec[pc] = -rows[i][fc] * scale // rows[i][pc]
    if any(v <= 0 for v in vec):
        vec = [-v for v in vec]
    if any(v <= 0 for v in vec):
        return None
    g = gcd(*vec)
    return [v // g for v in vec]


def pf_integer_vector_check(adj, dims, rho_dim: int, label: Optional[ShapeLabel] = None):
    """Verify A*dims == rho_dim*dims exactly; for Dynkin labels also verify
    dims = a * (template marking) and report a.

    Returns (ok, a) with a = None when no marking applies.
    """
    a = _square(adj)
    d = np.array(dims, dtype=object)
    ok = bool((a @ d == rho_dim * d).all())
    scale = None
    if label is not None and label.kind in ("affine_d", "affine_e"):
        marking = template_marking(a)
        if marking is None:
            return False, None
        unit = next((i for i, m in enumerate(marking) if m == 1), None)
        if unit is None:
            return False, None
        scale = dims[unit]
        ok = ok and all(d == scale * m for d, m in zip(dims, marking))
    return ok, scale
