"""Command-line entry point: build groups, tables and graphs, run the suites.

Output bytes are deterministic for a fixed spec and flags: element indexing,
table ordering and serialization key order are all fixed.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from itertools import chain, islice
from typing import Optional

import numpy as np

from .chartable import (
    CharVector,
    FaithfulSelfDualMinDim,
    Irrep,
    NoSuchIrrep,
    RhoSelector,
    SelectorEmpty,
    compute_character_table,
    resolve_rho,
)
from .catalog import build_group
from .graphs import build_mckay_graph, decompose_components
from .groups import (
    BinaryDihedral,
    BinaryPoly,
    Cyclic,
    Dihedral,
    ElemAb,
    Extraspecial2,
    GroupBuildError,
    GroupSpec,
    Heisenberg,
    Product,
    Semidirect,
    conjugacy,
    order_cap,
    spec_text,
)
from .verify import SUITES, run_suite


class SpecParseError(ValueError):
    pass


# the number of ':' fields after the name of each leaf spec
_LEAF_ARITY = {
    "cyclic": 1, "dihedral": 1, "bindihedral": 1, "binary": 1,
    "extraspecial": 2, "heis": 2, "elemab": 2,
}


def _split_top(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise SpecParseError(f"unbalanced parentheses in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _int_arg(parts: list[str], idx: int, name: str, minimum: int = 1) -> int:
    try:
        value = int(parts[idx])
    except ValueError:
        raise SpecParseError(f"{name} needs an integer argument: {':'.join(parts)!r}")
    if value < minimum:
        raise SpecParseError(f"{name} argument must be >= {minimum}, got {value}")
    return value


def parse_group_spec(text: str) -> GroupSpec:
    text = text.strip()
    if not text:
        raise SpecParseError("empty group spec")
    if "(" in text:
        head = text[: text.index("(")]
        if not text.endswith(")"):
            raise SpecParseError(f"unbalanced parentheses in {text!r}")
        inner = text[len(head) + 1 : -1]
        args = _split_top(inner)
        if head == "product":
            if len(args) != 2:
                raise SpecParseError("product takes exactly two specs")
            return Product(parse_group_spec(args[0]), parse_group_spec(args[1]))
        if head == "semidirect":
            if len(args) != 2:
                raise SpecParseError("semidirect takes exactly two specs")
            return Semidirect(parse_group_spec(args[0]), parse_group_spec(args[1]))
        raise SpecParseError(f"unknown constructor {head!r}")
    parts = text.split(":")
    kind = parts[0]
    if kind not in _LEAF_ARITY:
        raise SpecParseError(f"unknown group spec {text!r}")
    if len(parts) != 1 + _LEAF_ARITY[kind]:
        raise SpecParseError(f"{kind} takes {_LEAF_ARITY[kind]} ':' field(s): {text!r}")
    if kind == "cyclic":
        return Cyclic(_int_arg(parts, 1, "cyclic"))
    if kind == "dihedral":
        return Dihedral(_int_arg(parts, 1, "dihedral", minimum=2))
    if kind == "bindihedral":
        return BinaryDihedral(_int_arg(parts, 1, "bindihedral", minimum=2))
    if kind == "binary":
        if parts[1] not in ("T", "O", "I"):
            raise SpecParseError("binary takes one of T, O, I")
        return BinaryPoly(parts[1])
    if kind == "extraspecial":
        if parts[1] not in ("+", "-"):
            raise SpecParseError("extraspecial takes a variant (+ or -) and an index")
        return Extraspecial2(_int_arg(parts, 2, "extraspecial", minimum=0), parts[1])
    p, n = _int_arg(parts, 1, kind), _int_arg(parts, 2, kind)
    return Heisenberg(p, n) if kind == "heis" else ElemAb(p, n)


def parse_rho_selector(text: str) -> RhoSelector:
    text = text.strip()
    if text == "faithful-selfdual-min":
        return FaithfulSelfDualMinDim()
    if text.startswith("irrep:"):
        try:
            return Irrep(int(text[len("irrep:") :]))
        except ValueError:
            raise SpecParseError(f"bad irreducible index in {text!r}")
    if text.startswith("charvec:"):
        try:
            mults = tuple(int(v) for v in text[len("charvec:") :].split(","))
        except ValueError:
            raise SpecParseError(f"bad multiplicity vector in {text!r}")
        return CharVector(mults)
    raise SpecParseError(f"unknown selector {text!r}")


# ---------------------------------------------------------------------------
# documents


def _edge_entries(a: np.ndarray) -> list[dict]:
    """One entry per vertex pair i <= j joined either way, in row-major order:
    an undirected edge for a loop or for equal multiplicities both ways, else
    an arc for each nonzero direction, i -> j first."""
    support = a != 0
    us, ws = np.nonzero(np.triu(support | support.T))
    edges = []
    for i, j, forward, backward in zip(
        us.tolist(), ws.tolist(), a[us, ws].tolist(), a[ws, us].tolist()
    ):
        if i == j or forward == backward:
            edges.append({"from": i, "to": j, "mult": forward, "undirected": True})
            continue
        if forward:
            edges.append({"from": i, "to": j, "mult": forward, "undirected": False})
        if backward:
            edges.append({"from": j, "to": i, "mult": backward, "undirected": False})
    return edges


def graph_document(spec: GroupSpec, selector_text: str, with_components: bool) -> dict:
    group = build_group(spec)
    cd = conjugacy(group)
    ct = compute_character_table(group, cd)
    sel = parse_rho_selector(selector_text)
    rho = resolve_rho(ct, sel)
    graph = build_mckay_graph(ct, rho)
    doc = {
        "group": spec_text(spec),
        "order": group.order,
        "rho": {"selector": selector_text, "dim": rho.dim, "mults": list(rho.mults)},
        "vertices": [
            {"id": i, "dim": graph.dims[i], "trivial": i == graph.trivial_vertex}
            for i in range(graph.n_vertices)
        ],
        "edges": _edge_entries(graph.matrix),
        "flags": {
            "undirected": graph.undirected,
            "loopless": graph.loopless,
            "simply_laced": graph.simply_laced,
        },
    }
    if with_components:
        decomp = decompose_components(graph)
        doc["components"] = [
            {
                "vertices": list(c.vertices),
                "principal": c.principal,
                "shape": c.shape.short(),
                "orbit_size": c.orbit_size,
                "orbit_rep_degree": c.orbit_rep_degree,
            }
            for c in decomp.components
        ]
    return doc


def render_dot(doc: dict) -> str:
    undirected = doc["flags"]["undirected"]
    lines = []
    name = doc["group"].replace('"', "")
    lines.append(("graph" if undirected else "digraph") + f' "{name}" {{')
    for v in doc["vertices"]:
        label = "★" if v["trivial"] else str(v["dim"])
        lines.append(f'  v{v["id"]} [label="{label}"];')
    for e in doc["edges"]:
        attrs = []
        if e["mult"] > 1:
            attrs.append(f'label="{e["mult"]}"')
        if undirected:
            op = "--"
        else:
            op = "->"
            if e["undirected"]:
                attrs.append("dir=none")
        attr_text = f' [{", ".join(attrs)}]' if attrs else ""
        lines.append(f'  v{e["from"]} {op} v{e["to"]}{attr_text};')
    if "components" in doc:
        for idx, comp in enumerate(doc["components"]):
            star = " principal" if comp["principal"] else ""
            lines.append(
                f'  // component {idx}{star}: {comp["shape"]}, vertices {comp["vertices"]}'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def chartab_document(spec: GroupSpec) -> dict:
    group = build_group(spec)
    cd = conjugacy(group)
    ct = compute_character_table(group, cd)
    # one cell per distinct value, shared by every entry that holds it
    cells = [{"order": ct.exponent, "coeffs": coeffs} for coeffs in ct.rows.tolist()]
    return {
        "group": spec_text(spec),
        "order": group.order,
        "prime": ct.prime,
        "exponent": ct.exponent,
        "trivial_index": ct.trivial_index,
        "classes": [
            {
                "index": k,
                "size": cd.sizes[k],
                "element_order": cd.element_orders[cd.reps[k]],
                "representative": group.element_names[cd.reps[k]],
            }
            for k in range(ct.r)
        ],
        "irreducibles": [
            {
                "index": i,
                "degree": ct.degrees[i],
                "values": [cells[u] for u in ct.index[i].tolist()],
            }
            for i in range(ct.r)
        ],
    }


def _emit(out, output: Optional[str]) -> None:
    """Write text, or a document as indented JSON.  The JSON text is never held
    whole, and its chunks are joined into blocks: json.dump writes each token."""
    chunks = iter([out]) if isinstance(out, str) else chain(
        json.JSONEncoder(indent=2).iterencode(out), "\n")
    with open(output, "w") if output else nullcontext(sys.stdout) as fh:
        while block := "".join(islice(chunks, 1 << 16)):
            fh.write(block)


# ---------------------------------------------------------------------------
# commands


def cmd_graph(args) -> int:
    doc = graph_document(parse_group_spec(args.spec), args.rho, args.components)
    _emit(doc if args.out == "json" else render_dot(doc), args.output)
    return 0


def cmd_chartab(args) -> int:
    doc = chartab_document(parse_group_spec(args.spec))
    _emit(doc, args.output)
    return 0


def cmd_verify(args) -> int:
    report = run_suite(args.suite, jobs=args.jobs)
    _emit(report.to_dict() if args.out == "json" else report.render_text() + "\n", args.output)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mckay",
        description="Exact McKay graphs of small finite groups: character tables, "
        "graph exports and the verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("graph", help="build and export a McKay graph")
    p_graph.add_argument("spec", help="group spec, e.g. binary:T or semidirect(binary:O,cyclic:3)")
    p_graph.add_argument(
        "--rho",
        default="faithful-selfdual-min",
        help="selector: faithful-selfdual-min, irrep:IDX or charvec:m0,m1,...",
    )
    p_graph.add_argument("--out", choices=("dot", "json"), default="dot")
    p_graph.add_argument(
        "--components", action="store_true", help="include component decomposition and shapes"
    )
    p_graph.add_argument("--output", help="write to a file instead of stdout")
    p_graph.set_defaults(fn=cmd_graph)

    p_tab = sub.add_parser("chartab", help="print the exact character table")
    p_tab.add_argument("spec")
    p_tab.add_argument("--out", choices=("json",), default="json")
    p_tab.add_argument("--output")
    p_tab.set_defaults(fn=cmd_chartab)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", choices=SUITES, default="all")
    p_ver.add_argument("--out", choices=("text", "json"), default="text")
    p_ver.add_argument("--jobs", type=int, default=1)
    p_ver.add_argument("--output")
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        order_cap()  # a bad MCKAY_ORDER_CAP is a usage error for every command
        return args.fn(args)
    except (SpecParseError, GroupBuildError, NoSuchIrrep, SelectorEmpty) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
