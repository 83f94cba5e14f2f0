"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Builds a few small documents with the program, requires the checks to accept
them, then spoils each in one place (a vertex dimension, an edge, a table
value, a verification record) and requires the checks to reject the result.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from mckaygraphs import cli  # noqa: E402
from mckaygraphs.verify import CheckRecord, VerificationReport  # noqa: E402

import checks  # noqa: E402


def e8(adj, dims):
    return checks.affine_e8(adj, dims, range(9))


def graph_problems(doc, spec="binary:I", shape=e8):
    return checks.check_graph(doc, spec, shape) + checks.check_dot(doc, cli.render_dot(doc))


def main() -> int:
    results = []

    def expect(label: str, problems: list[str], rejected: bool) -> None:
        ok = bool(problems) == rejected
        results.append(ok)
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}" + (f" ({problems[0]})" if problems else ""))

    graph = cli.graph_document(cli.parse_group_spec("binary:I"), "faithful-selfdual-min", True)
    expect("binary:I graph", graph_problems(graph), rejected=False)

    doc = copy.deepcopy(graph)
    doc["vertices"][3]["dim"] += 1
    expect("one vertex dim off by one", graph_problems(doc), rejected=True)

    doc = copy.deepcopy(graph)
    doc["vertices"][0]["dim"], doc["vertices"][8]["dim"] = doc["vertices"][8]["dim"], doc["vertices"][0]["dim"]
    expect("two vertex dims swapped", graph_problems(doc), rejected=True)

    doc = copy.deepcopy(graph)
    del doc["edges"][2]
    expect("one edge missing", graph_problems(doc), rejected=True)

    doc = copy.deepcopy(graph)
    doc["edges"].append({"from": 0, "to": 0, "mult": 1, "undirected": True})
    expect("one loop too many", graph_problems(doc), rejected=True)

    doc = copy.deepcopy(graph)
    doc["edges"][0]["mult"] = 2
    expect("one edge multiplicity doubled", graph_problems(doc), rejected=True)

    binary_t = cli.graph_document(cli.parse_group_spec("binary:T"), "faithful-selfdual-min", True)
    expect("binary:T graph checked as binary:I's Ẽ₈", graph_problems(binary_t, "binary:I"), rejected=True)
    expect("binary:T graph against its own closed forms", graph_problems(binary_t, "binary:T", None), rejected=False)

    # small analogues of the ladder's shapes: each is accepted by its own
    # shape check and rejected by the next one's
    shapes = [
        ("dihedral:8", "faithful-selfdual-min", lambda a, d: checks.affine_d(a, d, range(7), 6)),
        ("extraspecial:+:2", "faithful-selfdual-min", lambda a, d: checks.star(a, d, 4, 16)),
        ("product(binary:I,cyclic:2)", "irrep:2", lambda a, d: checks.forest_of_e8(a, d, 2)),
        ("elemab:2:3", "irrep:1", lambda a, d: checks.matching(a, d, 4)),
        ("heis:3:1", "irrep:1", lambda a, d: checks.directed_cycles(a, d, 3, 3, 3, 2)),
    ]
    for k, (spec, rho, shape) in enumerate(shapes):
        doc = cli.graph_document(cli.parse_group_spec(spec), rho, True)
        expect(f"{spec} graph", graph_problems(doc, spec, shape), rejected=False)
        other = shapes[(k + 1) % len(shapes)][2]
        expect(f"{spec} graph against another shape", graph_problems(doc, spec, other), rejected=True)

    for spec in ("cyclic:8", "binary:T", "dihedral:6"):
        table = cli.chartab_document(cli.parse_group_spec(spec))
        expect(f"{spec} table", checks.check_chartab(table, spec), rejected=False)
        doc = copy.deepcopy(table)
        row = next(i for i in range(len(doc["classes"]) - 1, -1, -1) if i != doc["trivial_index"])
        doc["irreducibles"][row]["values"][1]["coeffs"][0] += 1
        expect(f"{spec} table with one value changed", checks.check_chartab(doc, spec), rejected=True)
        doc = copy.deepcopy(table)
        doc["classes"][1]["size"] += 1
        expect(f"{spec} table with one class size changed", checks.check_chartab(doc, spec), rejected=True)
        expect(f"{spec} json round trip", checks.check_json_text(json.dumps(table), table), rejected=False)

    cyc = cli.chartab_document(cli.parse_group_spec("cyclic:8"))
    doc = copy.deepcopy(cyc)
    doc["classes"][1]["representative"], doc["classes"][2]["representative"] = (
        doc["classes"][2]["representative"],
        doc["classes"][1]["representative"],
    )
    expect("cyclic:8 table with two class labels swapped", checks.check_chartab(doc, "cyclic:8"), rejected=True)

    good = CheckRecord("c", "claim", "in", "x", "x", True)
    expect("passing report", checks.check_report(VerificationReport("s", [good])), rejected=False)
    bad = CheckRecord("c", "claim", "in", "x", "y", False)
    expect("report with a failed record", checks.check_report(VerificationReport("s", [good, bad])), rejected=True)
    raised = CheckRecord("c", checks.EXCEPTION_CLAIM, "c", "no exception", "ValueError: x", False)
    expect("report with a raised case", checks.check_report(VerificationReport("s", [raised])), rejected=True)
    expect("empty report", checks.check_report(VerificationReport("s", [])), rejected=True)

    expect("exit 2 with one line", checks.check_rejection(2, "", "error: no such irrep\n"), rejected=False)
    expect("exit 1 with a traceback", checks.check_rejection(1, "", "Traceback\n  line\nError\n"), rejected=True)

    print(f"{sum(results)} of {len(results)} cases behave")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
