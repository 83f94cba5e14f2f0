#!/usr/bin/env python3
"""Print the sha256 of every CLI output in a fixed set, one line per command.

Usage: PYTHONPATH=src python scripts/cli_digest.py

Each command runs through `mckaygraphs.cli.main` with `--output` to a
temporary file, and prints `<sha256>  mckay <args>`, with `exit <code>` in
place of the digest when the command fails and writes nothing.  The set is
the `export_fixture_graphs.py` fixtures as DOT with components, `chartab` of
the identity fixtures and of the semidirect sweep specs, `chartab` of
`semidirect(cyclic:3,elemab:2:4)`, which exits 2 (C_3 cannot be transitive on
the 15 nonzero vectors of F_2^4), `chartab` of `semidirect(cyclic:15,elemab:2:4)`,
whose action embeds C_15 in GL_4(F_2),
`graph --out json --components` of the same semidirect specs, of four
groups whose restrictions to the kernel of rho have many classes, and of
`dihedral:5` with a multiplicity of 10^20, whose adjacency outgrows int64,
and of `cyclic:2` with 5 * 10^18 trivial constituents, whose entries fit in
int64 but whose trace does not, and of `cyclic:64` with the regular rho
(`charvec:` of 64 ones), whose character sums every row of the table, and
of `dihedral:512` with rho = chi_2, whose kernel C_512 has 257 orbits (255 of
size 2 and 2 of size 1), each matched to one of the graph's 257 components,
then the DOT export of `cyclic:3` with rho = 1 + 2 chi_2, whose looped edges
carry a label and `dir=none`, the DOT export with components of
`elemab:2:10` with rho = chi_1, whose 512 components are 2-vertex stars,
one gather and one block shared by all, and `chartab` of a nested spec, of
`product(dihedral:5,dihedral:5)` and of `product(binary:T,heis:3:1)`, whose
splits meet more unreduced Hessenberg blocks than eigenvalues, and last
`verify --suite all --out json`, hashed with every `seconds` set to 0 and the
`observed` timing text of the `runtime[*]` records blanked, so that it hashes
the records' ids, claims, inputs, expected and observed values and results
in their order.  Run it once with PYTHONPATH on each of two source trees
(say a `git archive` export of the parent commit and the working tree) and
diff the two outputs: a change that keeps the CLI bytes prints the same
lines.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from export_fixture_graphs import FIXTURES, pullback_selector
from mckaygraphs import cli
from mckaygraphs.groups import Semidirect, spec_text
from mckaygraphs.verify import IDENTITY_FIXTURES, SWEEP_SPECS


def commands() -> list[list[str]]:
    semidirect = [spec_text(s) for s in SWEEP_SPECS if isinstance(s, Semidirect)]
    cmds = []
    for spec, rho in FIXTURES:
        if rho == "pullback":
            rho = pullback_selector(spec)
        cmds.append(["graph", spec, "--rho", rho, "--components"])
    cmds += [["chartab", spec_text(s)] for s in IDENTITY_FIXTURES]
    cmds += [["chartab", s] for s in semidirect]
    cmds.append(["chartab", "semidirect(cyclic:3,elemab:2:4)"])
    cmds.append(["chartab", "semidirect(cyclic:15,elemab:2:4)"])
    cmds += [["graph", s, "--out", "json", "--components"] for s in semidirect]
    cmds += [
        ["graph", spec, "--rho", rho, "--out", "json", "--components"]
        for spec, rho in [
            ("elemab:2:6", "irrep:1"),
            ("heis:3:2", "irrep:10"),
            ("product(binary:I,cyclic:4)", "irrep:4"),
            ("dihedral:64", "irrep:2"),
            ("dihedral:5", "charvec:100000000000000000000,0,1,0"),
            ("cyclic:2", "charvec:0,5000000000000000000"),
            ("cyclic:64", "charvec:" + ",".join(["1"] * 64)),
            ("dihedral:512", "irrep:2"),
        ]
    ]
    cmds.append(["graph", "cyclic:3", "--rho", "charvec:1,0,2"])
    cmds.append(["graph", "elemab:2:10", "--rho", "irrep:1", "--components"])
    cmds.append(["chartab", "product(semidirect(dihedral:8,cyclic:3),cyclic:2)"])
    cmds += [["chartab", s] for s in ("product(dihedral:5,dihedral:5)", "product(binary:T,heis:3:1)")]
    cmds.append(["verify", "--suite", "all", "--out", "json"])
    return cmds


def untimed(args: list[str], blob: bytes) -> bytes:
    """A verify report without its timings; any other output unchanged."""
    if args[0] != "verify":
        return blob
    report = json.loads(blob)
    for check in report["checks"]:
        check["seconds"] = 0
        if check["id"].startswith("runtime["):
            check["observed"] = ""
    return json.dumps(report).encode()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        for args in commands():
            out.unlink(missing_ok=True)
            code = cli.main(args + ["--output", str(out)])
            if code == 0:
                digest = hashlib.sha256(untimed(args, out.read_bytes())).hexdigest()
            else:
                digest = f"exit {code}"
            print(f"{digest}  mckay {' '.join(args)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
