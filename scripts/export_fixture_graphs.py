#!/usr/bin/env python3
"""Export DOT drawings for the standard fixture graphs into a directory.

Usage: python scripts/export_fixture_graphs.py [outdir]
"""

import sys
from pathlib import Path

from mckaygraphs.cli import graph_document, parse_group_spec, render_dot

FIXTURES = [
    ("bindihedral:2", "faithful-selfdual-min"),
    ("bindihedral:4", "faithful-selfdual-min"),
    ("binary:T", "faithful-selfdual-min"),
    ("binary:O", "faithful-selfdual-min"),
    ("binary:I", "faithful-selfdual-min"),
    ("dihedral:5", "faithful-selfdual-min"),
    ("dihedral:8", "faithful-selfdual-min"),
    ("extraspecial:+:2", "faithful-selfdual-min"),
    ("cyclic:5", "irrep:1"),
    ("semidirect(binary:O,cyclic:3)", "pullback"),
]


def pullback_selector(spec_str: str) -> str:
    """charvec text for the lift of the base group's minimal faithful self-dual rho."""
    from mckaygraphs.chartable import (
        FaithfulSelfDualMinDim,
        compute_character_table,
        resolve_rho,
    )
    from mckaygraphs import build_group, conjugacy
    from mckaygraphs.verify import pullback_rho

    spec = parse_group_spec(spec_str)
    base = build_group(spec.group)
    base_cd = conjugacy(base)
    base_ct = compute_character_table(base, base_cd)
    rho_base = resolve_rho(base_ct, FaithfulSelfDualMinDim())
    big = build_group(spec)
    big_ct = compute_character_table(big, conjugacy(big))
    nk = big.order // base.order
    rho = pullback_rho(big_ct, base_cd.class_of, nk, rho_base)
    return "charvec:" + ",".join(str(m) for m in rho.mults)


def main() -> int:
    outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "fixture-graphs")
    outdir.mkdir(parents=True, exist_ok=True)
    for spec_str, rho in FIXTURES:
        if rho == "pullback":
            rho = pullback_selector(spec_str)
        doc = graph_document(parse_group_spec(spec_str), rho, with_components=True)
        name = spec_str.replace(":", "_").replace("(", "_").replace(")", "").replace(",", "_")
        path = outdir / f"{name}.dot"
        path.write_text(render_dot(doc))
        shapes = [c["shape"] for c in doc.get("components", [])]
        print(f"{spec_str:38s} -> {path}  components: {shapes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
