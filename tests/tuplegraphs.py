"""The graph routines on nested tuples that the array layout replaced, kept
as the tests' oracle.

A graph here is its adjacency as a tuple of rows of Python integers, read
entry by entry: `adjacency(m)` and `induced(m, vertices)` make one from an
array.  `block(m, vertices)`, one `np.ix_` gather per component, is the
oracle of `McKayGraph.component_blocks`.  `classify_component`,
`bipartition`, `circuit_count`, `template_marking`, `pf_integer_vector_check`,
`graph_isomorphic`, `disjoint_union` and `edge_entries` are the pure-Python versions of
`mckaygraphs.shapes`, `mckaygraphs.graphs` and `mckaygraphs.cli._edge_entries`.
`is_forest`, `is_tree` and `centralizer` are helpers only the tests reach.
"""

from __future__ import annotations

import sys
from math import gcd, lcm
from typing import Optional

import numpy as np

from mckaygraphs.shapes import OTHER, ShapeLabel, forest_bit, graph_flags, weak_components


def adjacency(m) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, np.asarray(m).tolist()))


def block(m, vertices) -> np.ndarray:
    """The array adjacency of the subgraph on the given vertices, in their order."""
    return np.asarray(m)[np.ix_(vertices, vertices)]


def induced(m, vertices) -> tuple[tuple[int, ...], ...]:
    return adjacency(block(m, vertices))


# ---------------------------------------------------------------------------
# shapes


def _degrees(adj) -> list[int]:
    """Undirected degree with loops counted twice."""
    n = len(adj)
    return [sum(adj[v][w] for w in range(n)) + adj[v][v] for v in range(n)]


def _simple_neighbors(adj, v) -> list[int]:
    return [w for w in range(len(adj)) if w != v and adj[v][w]]


def classify_component(adj) -> ShapeLabel:
    n = len(adj)
    if n == 0:
        return OTHER
    if list(zip(*adj)) != list(map(tuple, adj)):
        return OTHER  # not symmetric
    loops = [v for v in range(n) if adj[v][v]]
    degs = _degrees(adj)
    if all(d == 2 for d in degs) and not any(adj[v][w] > 2 for v in range(n) for w in range(n)):
        return ShapeLabel(kind="affine_a", index=n - 1)
    if any(adj[v][w] > 1 for v in range(n) for w in range(n) if v != w):
        return OTHER
    if len(loops) == 1 and adj[loops[0]][loops[0]] == 1:
        return _classify_odd_tail(adj, loops[0])
    if loops:
        return OTHER
    edge_count = sum(adj[v][w] for v in range(n) for w in range(n)) // 2
    if edge_count != n - 1:
        return OTHER
    deg3 = [v for v in range(n) if degs[v] >= 3]
    if not deg3:
        if n == 2:
            return ShapeLabel(kind="hedgehog", index=1)
        if n == 3:
            return ShapeLabel(kind="hedgehog", index=2)
        return OTHER
    if len(deg3) == 1:
        center = deg3[0]
        if degs[center] == n - 1:
            m = n - 1
            if m == 4:
                return ShapeLabel(
                    kind="affine_d", index=4, dynkin_group_order=8, hedgehog_alias=True
                )
            return ShapeLabel(kind="hedgehog", index=m)
        if degs[center] == 3:
            arms = sorted(_arm_lengths(adj, center))
            if arms == [2, 2, 2] and n == 7:
                return ShapeLabel(kind="affine_e", index=6, dynkin_group_order=24)
            if arms == [1, 3, 3] and n == 8:
                return ShapeLabel(kind="affine_e", index=7, dynkin_group_order=48)
            if arms == [1, 2, 5] and n == 9:
                return ShapeLabel(kind="affine_e", index=8, dynkin_group_order=120)
        return OTHER
    if len(deg3) == 2:
        a, b = deg3
        if degs[a] == degs[b] == 3:
            leaves_a = [w for w in _simple_neighbors(adj, a) if degs[w] == 1]
            leaves_b = [w for w in _simple_neighbors(adj, b) if degs[w] == 1]
            if len(leaves_a) == 2 and len(leaves_b) == 2 and _is_path_between(adj, a, b, degs):
                return ShapeLabel(
                    kind="affine_d", index=n - 1, dynkin_group_order=4 * (n - 3)
                )
        return OTHER
    return OTHER


def _arm_lengths(adj, center) -> list[int]:
    lengths = []
    for start in _simple_neighbors(adj, center):
        length = 1
        prev, cur = center, start
        while True:
            nxt = [w for w in _simple_neighbors(adj, cur) if w != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                return [-1]
            prev, cur = cur, nxt[0]
            length += 1
        lengths.append(length)
    return lengths


def _is_path_between(adj, a, b, degs) -> bool:
    prev, cur = None, a
    while True:
        nxt = [
            w
            for w in _simple_neighbors(adj, cur)
            if w != prev and (degs[w] == 2 or w == b)
        ]
        if b in nxt:
            return True
        if len(nxt) != 1:
            return False
        prev, cur = cur, nxt[0]
        if degs[cur] != 2:
            return False


def _classify_odd_tail(adj, loop_vertex) -> ShapeLabel:
    n = len(adj)
    degs = _degrees(adj)
    leaves = [v for v in range(n) if degs[v] == 1]
    if len(leaves) != 2:
        return OTHER
    prev, cur = None, loop_vertex
    visited = {loop_vertex}
    while True:
        nxt = [w for w in _simple_neighbors(adj, cur) if w != prev]
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


def is_forest(adj) -> bool:
    a = np.asarray(adj).reshape(len(adj), len(adj))
    return forest_bit(a, graph_flags(a), weak_components(a))


def is_tree(adj) -> bool:
    a = np.asarray(adj).reshape(len(adj), len(adj))
    components = weak_components(a)
    return len(components) == 1 and forest_bit(a, graph_flags(a), components)


def bipartition(adj) -> Optional[list[int]]:
    n = len(adj)
    if any(adj[v][v] for v in range(n)):
        return None
    color = [-1] * n
    for s in range(n):
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in range(n):
                if not (adj[v][w] or adj[w][v]):
                    continue
                if color[w] < 0:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return None
    return color


def circuit_count(adj, k: int) -> int:
    """tr(A^k) by k - 1 plain row-by-column products."""
    assert k >= 1
    n = len(adj)
    power = [list(row) for row in adj]
    for _ in range(k - 1):
        power = [
            [sum(power[i][t] * adj[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return sum(power[i][i] for i in range(n))


def template_marking(adj) -> Optional[list[int]]:
    n = len(adj)
    rows = [[adj[i][j] - (2 if i == j else 0) for j in range(n)] for i in range(n)]
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
                row = [top[col] * a - f * b for a, b in zip(rows[i], top)]
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
    n = len(adj)
    ok = all(
        sum(adj[i][j] * dims[j] for j in range(n)) == rho_dim * dims[i]
        for i in range(n)
    )
    a = None
    if label is not None and label.kind in ("affine_d", "affine_e"):
        marking = template_marking(adj)
        if marking is None:
            return False, None
        unit = next((i for i in range(n) if marking[i] == 1), None)
        if unit is None:
            return False, None
        a = dims[unit]
        ok = ok and all(dims[i] == a * marking[i] for i in range(n))
    return ok, a


# ---------------------------------------------------------------------------
# graphs


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

    # one frame per vertex: a graph near the order cap passes the default limit
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, n + 100))
    try:
        return backtrack(0)
    finally:
        sys.setrecursionlimit(limit)


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


def edge_entries(adj) -> list[dict]:
    """The CLI's edge list, every pair i <= j scanned."""
    n = len(adj)
    edges = []
    for i in range(n):
        for j in range(i, n):
            forward, backward = adj[i][j], adj[j][i]
            if i == j:
                if forward:
                    edges.append({"from": i, "to": j, "mult": forward, "undirected": True})
                continue
            if forward and forward == backward:
                edges.append({"from": i, "to": j, "mult": forward, "undirected": True})
            else:
                if forward:
                    edges.append({"from": i, "to": j, "mult": forward, "undirected": False})
                if backward:
                    edges.append({"from": j, "to": i, "mult": backward, "undirected": False})
    return edges


# ---------------------------------------------------------------------------
# groups


def centralizer(cd, class_index: int) -> list[int]:
    """The elements that commute with the representative of a class."""
    g = cd.group
    rep = cd.reps[class_index]
    return np.flatnonzero(g.mul[:, rep] == g.mul[rep, :]).tolist()
