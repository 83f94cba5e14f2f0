"""Output checks for the benchmark, computed apart from the program.

Every check here works on the exported documents (the dicts that
`cli.graph_document` and `cli.chartab_document` return) or on verification
reports, and compares them with closed forms, identities the method must
satisfy, or shapes known from the McKay correspondence.  Nothing is compared
with a saved copy of earlier output.  Each check returns a list of problems;
an empty list means the output is accepted.
"""

from __future__ import annotations

import json
import math

import numpy as np

# ---------------------------------------------------------------------------
# closed forms for |G| and the number of conjugacy classes

_BINARY = {"T": (24, 7), "O": (48, 8), "I": (120, 9)}


def _split_product(text: str) -> tuple[str, str]:
    inner = text[len("product(") : -1]
    depth = 0
    for pos, ch in enumerate(inner):
        depth += ch == "("
        depth -= ch == ")"
        if ch == "," and depth == 0:
            return inner[:pos], inner[pos + 1 :]
    raise ValueError(f"product without two factors: {text!r}")


def order_and_classes(spec: str) -> tuple[int, int]:
    """(|G|, number of classes) from the spec text alone."""
    if spec.startswith("product("):
        left, right = _split_product(spec)
        (na, ra), (nb, rb) = order_and_classes(left), order_and_classes(right)
        return na * nb, ra * rb
    kind, *args = spec.split(":")
    if kind == "cyclic":
        n = int(args[0])
        return n, n
    if kind == "dihedral":
        m = int(args[0])
        return 2 * m, (m // 2 + 3 if m % 2 == 0 else (m + 3) // 2)
    if kind == "binary":
        return _BINARY[args[0]]
    if kind == "extraspecial":
        n = int(args[1])
        return 2 ** (1 + 2 * n), 4**n + 1
    if kind == "elemab":
        p, n = int(args[0]), int(args[1])
        return p**n, p**n
    if kind == "heis":
        p, n = int(args[0]), int(args[1])
        return p ** (1 + 2 * n), p ** (2 * n) + p - 1
    raise ValueError(f"no closed form for {spec!r}")


# ---------------------------------------------------------------------------
# graph documents


def adjacency_from_edges(doc: dict) -> tuple[list[list[int]], list[str]]:
    """Multiplicity matrix N rebuilt from the exported edge list."""
    n = len(doc["vertices"])
    adj = [[0] * n for _ in range(n)]
    problems = []
    for e in doc["edges"]:
        f, t, m = e["from"], e["to"], e["mult"]
        if not (0 <= f < n and 0 <= t < n) or m <= 0:
            problems.append(f"bad edge {e}")
            continue
        pairs = [(f, t)] if f == t or not e["undirected"] else [(f, t), (t, f)]
        for a, b in pairs:
            if adj[a][b]:
                problems.append(f"edge {a}->{b} exported twice")
            adj[a][b] = m
    return adj, problems


def weak_components(adj) -> list[list[int]]:
    n = len(adj)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        stack, comp = [s], []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in range(n):
                if not seen[w] and (adj[v][w] or adj[w][v]):
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _neighbours(adj, v, vertices) -> list[int]:
    return [w for w in vertices if w != v and adj[v][w]]


def _simple_tree(adj, vertices) -> list[str]:
    """Undirected, loopless, simply laced and a tree on `vertices`."""
    problems = []
    edges = 0
    for v in vertices:
        if adj[v][v]:
            problems.append(f"loop at {v}")
        for w in vertices:
            if adj[v][w] != adj[w][v]:
                problems.append(f"asymmetric edge {v}-{w}")
            if v < w and adj[v][w]:
                edges += 1
                if adj[v][w] != 1:
                    problems.append(f"edge {v}-{w} has multiplicity {adj[v][w]}")
    if edges != len(vertices) - 1:
        problems.append(f"{len(vertices)} vertices but {edges} edges: not a tree")
    return problems


def _arms(adj, vertices, centre) -> list[int]:
    """Lengths of the paths hanging off a branch vertex."""
    lengths = []
    for start in _neighbours(adj, centre, vertices):
        prev, cur, length = centre, start, 1
        while True:
            nxt = [w for w in _neighbours(adj, cur, vertices) if w != prev]
            if len(nxt) != 1:
                break
            prev, cur, length = cur, nxt[0], length + 1
        lengths.append(length)
    return sorted(lengths)


def affine_e8(adj, dims, vertices) -> list[str]:
    """The Ẽ₈ tree of the binary icosahedral group: arms 1, 2, 5."""
    problems = _simple_tree(adj, vertices)
    if len(vertices) != 9:
        return problems + [f"Ẽ₈ needs 9 vertices, got {len(vertices)}"]
    if problems:
        return problems
    branch = [v for v in vertices if len(_neighbours(adj, v, vertices)) == 3]
    if len(branch) != 1:
        return [f"Ẽ₈ needs one branch vertex, got {len(branch)}"]
    if _arms(adj, vertices, branch[0]) != [1, 2, 5]:
        problems.append(f"arms {_arms(adj, vertices, branch[0])}, expected [1, 2, 5]")
    if sorted(dims[v] for v in vertices) != [1, 2, 2, 3, 3, 4, 4, 5, 6]:
        problems.append(f"dims {sorted(dims[v] for v in vertices)} are not Ẽ₈'s")
    if dims[branch[0]] != 6:
        problems.append("the Ẽ₈ branch vertex must have dimension 6")
    return problems


def affine_d(adj, dims, vertices, n: int) -> list[str]:
    """D̃_n: n + 1 vertices, two forks of two dimension-1 leaves, dims 2 between."""
    problems = _simple_tree(adj, vertices)
    if len(vertices) != n + 1:
        problems.append(f"D̃_{n} needs {n + 1} vertices, got {len(vertices)}")
    if problems:
        return problems
    degree = {v: len(_neighbours(adj, v, vertices)) for v in vertices}
    leaves = [v for v in vertices if degree[v] == 1]
    forks = [v for v in vertices if degree[v] == 3]
    if len(leaves) != 4 or len(forks) != 2:
        return [f"{len(leaves)} leaves and {len(forks)} forks, expected 4 and 2"]
    for f in forks:
        if sum(1 for w in _neighbours(adj, f, vertices) if degree[w] == 1) != 2:
            problems.append(f"fork {f} does not carry two leaves")
    for v in vertices:
        want = 1 if degree[v] == 1 else 2
        if dims[v] != want:
            problems.append(f"vertex {v} has dim {dims[v]}, expected {want}")
    return problems


def star(adj, dims, centre_dim: int, leaves: int) -> list[str]:
    """One centre of dimension centre_dim joined once to every leaf of dim 1."""
    n = len(dims)
    centres = [v for v in range(n) if dims[v] == centre_dim]
    if n != leaves + 1 or len(centres) != 1:
        return [f"{n} vertices with {len(centres)} of dim {centre_dim}: not a star"]
    c = centres[0]
    problems = []
    for v in range(n):
        for w in range(n):
            want = 1 if (v == c) != (w == c) else 0
            if adj[v][w] != want:
                problems.append(f"N[{v}][{w}] = {adj[v][w]}, expected {want}")
                return problems
        if v != c and dims[v] != 1:
            problems.append(f"leaf {v} has dim {dims[v]}")
    return problems


def matching(adj, dims, pairs: int) -> list[str]:
    """A perfect matching of dimension-1 vertices: `pairs` single edges."""
    n = len(dims)
    if n != 2 * pairs:
        return [f"{n} vertices, expected {2 * pairs}"]
    problems = []
    for v in range(n):
        nbrs = [w for w in range(n) if adj[v][w]]
        if dims[v] != 1 or len(nbrs) != 1 or nbrs[0] == v:
            problems.append(f"vertex {v} is not matched to one other vertex")
        elif adj[v][nbrs[0]] != 1 or adj[nbrs[0]][v] != 1:
            problems.append(f"edge at {v} is not a single undirected edge")
    return problems


def directed_cycles(adj, dims, length: int, cycles: int, looped_dim: int, looped: int) -> list[str]:
    """Dimension-1 vertices on directed cycles of the given length; the
    vertices of dimension looped_dim carry one loop and nothing else."""
    n = len(dims)
    problems = []
    linear = [v for v in range(n) if dims[v] == 1]
    big = [v for v in range(n) if dims[v] == looped_dim]
    if len(linear) != length * cycles or len(big) != looped or len(linear) + len(big) != n:
        return [f"dims {sorted(set(dims))}: not {cycles} {length}-cycles and {looped} loops"]
    for v in big:
        if [(w, adj[v][w]) for w in range(n) if adj[v][w]] != [(v, 1)]:
            problems.append(f"vertex {v} is not a single loop")
    seen = set()
    for v in linear:
        if v in seen:
            continue
        cycle, cur = [], v
        while cur not in cycle:
            out = [w for w in range(n) if adj[cur][w]]
            if len(out) != 1 or adj[cur][out[0]] != 1 or dims[out[0]] != 1:
                return problems + [f"vertex {cur} has no single out-edge to a linear vertex"]
            cycle.append(cur)
            cur = out[0]
        if cur != v or len(cycle) != length:
            problems.append(f"cycle through {v} has length {len(cycle)}")
        seen.update(cycle)
    return problems


def forest_of_e8(adj, dims, count: int) -> list[str]:
    comps = weak_components(adj)
    if len(comps) != count:
        return [f"{len(comps)} components, expected {count} Ẽ₈ trees"]
    return [p for comp in comps for p in affine_e8(adj, dims, comp)]


def check_graph(doc: dict, spec: str, shape) -> list[str]:
    """Identities every McKay graph satisfies, then the expected shape.

    `shape` is a callable (adj, dims) -> problems, or None.
    """
    order, classes = order_and_classes(spec)
    vertices = doc["vertices"]
    n = len(vertices)
    problems = []
    if doc["order"] != order:
        problems.append(f"order {doc['order']}, expected {order}")
    if n != classes:
        problems.append(f"{n} vertices, expected {classes} classes")
    if [v["id"] for v in vertices] != list(range(n)):
        return problems + ["vertex ids are not 0..n-1"]
    dims = [v["dim"] for v in vertices]
    if sum(d * d for d in dims) != doc["order"]:
        problems.append(f"sum of dim^2 = {sum(d * d for d in dims)}, expected {doc['order']}")
    trivial = [v["id"] for v in vertices if v["trivial"]]
    if len(trivial) != 1 or dims[trivial[0]] != 1:
        problems.append("there must be exactly one trivial vertex, of dim 1")
    mults = doc["rho"]["mults"]
    rho_dim = doc["rho"]["dim"]
    if len(mults) != n or sum(m * d for m, d in zip(mults, dims)) != rho_dim:
        problems.append("rho multiplicities do not give rho's dimension")
    adj, edge_problems = adjacency_from_edges(doc)
    problems += edge_problems
    for i in range(n):
        lhs = sum(adj[i][j] * dims[j] for j in range(n))
        if lhs != dims[i] * rho_dim:
            problems.append(f"vertex {i}: sum_j N_ij d_j = {lhs} != {dims[i]} * {rho_dim}")
    flags = doc["flags"]
    if flags["undirected"] != all(adj[i][j] == adj[j][i] for i in range(n) for j in range(n)):
        problems.append("the undirected flag disagrees with the edges")
    if flags["loopless"] != all(adj[i][i] == 0 for i in range(n)):
        problems.append("the loopless flag disagrees with the edges")
    if "components" in doc:
        got = sorted(sorted(c["vertices"]) for c in doc["components"])
        if got != weak_components(adj):
            problems.append("exported components are not the weak components of the edges")
        principal = [c for c in doc["components"] if c["principal"]]
        if len(principal) != 1 or trivial[:1] and trivial[0] not in principal[0]["vertices"]:
            problems.append("the principal component must hold the trivial vertex")
    if shape is not None and not problems:
        problems += shape(adj, dims)
    return problems


def check_dot(doc: dict, dot: str) -> list[str]:
    """The DOT text has one line per vertex, edge and component."""
    lines = dot.rstrip("\n").split("\n")
    want = 2 + len(doc["vertices"]) + len(doc["edges"]) + len(doc.get("components", ()))
    problems = []
    if len(lines) != want:
        problems.append(f"DOT has {len(lines)} lines, expected {want}")
    if sum(1 for line in lines if "--" in line or "->" in line) != len(doc["edges"]):
        problems.append("DOT edge lines do not match the edge list")
    return problems


def check_rejection(code, stdout: str, stderr: str) -> list[str]:
    """A rejected command returns 2 with a one-line message and no output."""
    problems = []
    if code != 2:
        problems.append(f"returned {code!r}, expected 2")
    if stdout:
        problems.append("printed output on stdout")
    if len(stderr.strip().splitlines()) != 1:
        problems.append(f"stderr has {len(stderr.strip().splitlines())} lines, expected 1")
    return problems


# ---------------------------------------------------------------------------
# character tables

# absolute tolerance on a table value; orthogonality sums are allowed TOL * |G|
TOL = 1e-6


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))


def complex_table(doc: dict) -> np.ndarray:
    """Each value sum_t c_t zeta_e^t evaluated in complex floats."""
    rows = []
    for irr in doc["irreducibles"]:
        row = []
        for v in irr["values"]:
            coeffs = np.array(v["coeffs"], dtype=float)
            roots = np.exp(2j * np.pi * np.arange(len(coeffs)) / v["order"])
            row.append(complex(coeffs @ roots))
        rows.append(row)
    return np.array(rows, dtype=complex)


def _cyclic_exponent(name: str) -> int:
    if name == "e":
        return 0
    if name == "g":
        return 1
    if name.startswith("g^"):
        return int(name[2:])
    raise ValueError(f"not a power of the generator: {name!r}")


def check_chartab(doc: dict, spec: str) -> list[str]:
    order, classes = order_and_classes(spec)
    problems = []
    r = len(doc["classes"])
    if doc["order"] != order:
        problems.append(f"order {doc['order']}, expected {order}")
    if r != classes or len(doc["irreducibles"]) != r:
        return problems + [f"{r} classes and {len(doc['irreducibles'])} rows, expected {classes}"]
    sizes = np.array([c["size"] for c in doc["classes"]], dtype=float)
    if sum(c["size"] for c in doc["classes"]) != order:
        problems.append("class sizes do not sum to |G|")
    e = doc["exponent"]
    if any(e % c["element_order"] for c in doc["classes"]):
        problems.append("an element order does not divide the exponent")
    p = doc["prime"]
    if not _is_prime(p) or (p - 1) % e:
        problems.append(f"prime {p} is not a prime = 1 mod {e}")
    degrees = [irr["degree"] for irr in doc["irreducibles"]]
    if sum(d * d for d in degrees) != order or any(order % d for d in degrees):
        problems.append("degrees do not divide |G| or their squares do not sum to it")
    x = complex_table(doc)
    ident = [k for k, c in enumerate(doc["classes"]) if c["element_order"] == 1]
    if len(ident) != 1 or not np.allclose(x[:, ident[0]], degrees, atol=TOL):
        problems.append("values at the identity class are not the degrees")
    if not np.allclose(x[doc["trivial_index"]], 1.0, atol=TOL):
        problems.append("the trivial row is not all ones")
    rows = (x * sizes[None, :]) @ x.conj().T
    if not np.allclose(rows, order * np.eye(r), atol=TOL * order):
        problems.append("row orthogonality fails")
    cols = x.conj().T @ x
    if not np.allclose(cols, np.diag(order / sizes), atol=TOL * order):
        problems.append("column orthogonality fails")
    if spec.startswith("cyclic:") and not problems:
        problems += _check_cyclic_table(doc, x, order)
    return problems


def _check_cyclic_table(doc, x, n: int) -> list[str]:
    """cyclic:n has the table zeta^(jk), up to the order of the rows."""
    powers = np.array([_cyclic_exponent(c["representative"]) for c in doc["classes"]])
    expected = np.exp(2j * np.pi * np.outer(np.arange(n), powers) / n)
    unmatched = set(range(n))
    for i, row in enumerate(x):
        hits = [j for j in unmatched if np.allclose(row, expected[j], atol=TOL)]
        if len(hits) != 1:
            return [f"row {i} is not one row of the table zeta^(jk)"]
        unmatched.discard(hits[0])
    return []


def check_json_text(text: str, doc: dict) -> list[str]:
    return [] if json.loads(text) == doc else ["json.dumps output does not round-trip"]


# ---------------------------------------------------------------------------
# verification reports


EXCEPTION_CLAIM = "case execution"


def check_report(report) -> list[str]:
    """Every record passes, and none stands for a case that raised."""
    problems = []
    if not report.records:
        problems.append(f"suite {report.suite} produced no records")
    for rec in report.records:
        if rec.claim == EXCEPTION_CLAIM:
            problems.append(f"{rec.check_id} raised: {rec.observed}")
        elif not rec.passed:
            problems.append(f"{rec.check_id} failed: {rec.observed}")
    if not report.passed and not problems:
        problems.append(f"suite {report.suite} reports failure")
    return problems

