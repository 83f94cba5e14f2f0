"""One process of a benchmark pass.

    python3 perfbench/worker.py --workload NAME --spawn-ns T
                                [--ops I,J,...] [--trace --trace-file PATH]

A ladder operation stands for one `mckay` command, so it runs in a process
of its own; the verify suites share their fixture cache, as in
`mckay verify --suite all`, so they run in one process.  The package is
imported from `src/` next to this directory.  After the imports and the
parsing of the workload's specs, set-up is over: the worker measures it
against T, the CLOCK_MONOTONIC time at which the parent started the process.
Without --ops it stops there and reports how the operations group into
processes.  With --ops it runs those operations (numbered as in the
workload's list), checks each output untimed, and prints one JSON line with the
figures.  With --trace the public layer boundaries are wrapped (see
spans.py), the per-layer sums are added and the spans go to --trace-file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import mckaygraphs  # noqa: E402
from mckaygraphs import cli, verify  # noqa: E402

import checks  # noqa: E402
from spans import Tracer, layer_sums  # noqa: E402

if Path(mckaygraphs.__file__).resolve().parent != ROOT / "src" / "mckaygraphs":
    sys.exit(f"mckaygraphs was imported from {mckaygraphs.__file__}, not from src/")

FSD = "faithful-selfdual-min"

# (spec, rho selector, expected shape of the graph)
# The specs are small enough (5 to 8 s a pass) that a run holds several
# passes; a median over passes is what keeps the figures steady.
GRAPH_LADDER = [
    ("binary:I", FSD, lambda adj, dims: checks.affine_e8(adj, dims, range(9))),
    ("dihedral:32", FSD, lambda adj, dims: checks.affine_d(adj, dims, range(19), 18)),
    ("extraspecial:+:3", FSD, lambda adj, dims: checks.star(adj, dims, 8, 64)),
    ("product(binary:I,cyclic:4)", "irrep:4", lambda adj, dims: checks.forest_of_e8(adj, dims, 4)),
    ("elemab:2:6", "irrep:1", lambda adj, dims: checks.matching(adj, dims, 32)),
    ("heis:3:2", "irrep:10", lambda adj, dims: checks.directed_cycles(adj, dims, 3, 27, 9, 2)),
]
# selectors that name no irreducible: `mckay graph` must reject them with exit 2
GRAPH_REJECTIONS = [
    ["graph", "cyclic:5", "--rho", "irrep:9"],
    ["graph", "cyclic:5", "--rho", "charvec:1,0"],
]
CHARTAB_LADDER = [
    "cyclic:64",
    "elemab:2:7",
    "extraspecial:-:4",
    "product(binary:I,cyclic:8)",
    "heis:3:2",
    "dihedral:64",
]
VERIFY_SUITES = ("identities", "trees", "forests")
# left out: seven of the eight extraspecial:±:4 cases, which take about 85 of
# the suites' 112 s, more than a run can spend; treethm:extraspecial:+:4 stays,
# so the selector re-run per case on a cached table still shows (see README.md)
VERIFY_EXCLUDED = tuple(
    f"{kind}:extraspecial:{v}:4"
    for kind in ("identities", "hedgehog", "bipartite", "treethm")
    for v in "+-"
    if (kind, v) != ("treethm", "+")
)
WORKLOADS = ("graph-ladder", "chartab-ladder", "verify-all")


class Failed(Exception):
    """The operation did not do what it must; counted in `failed`."""


def make_ops(workload: str, tracer: Tracer):
    """The pass's operations as (label, run, check), where run() is timed and
    returns what check(result) inspects untimed, and whether each operation
    gets a process of its own."""
    span = tracer.span if tracer else lambda name, fn, *a: fn(*a)
    ops = []
    if workload == "graph-ladder":
        for text, rho, shape in GRAPH_LADDER:
            spec = cli.parse_group_spec(text)

            def run(spec=spec, rho=rho):
                doc = cli.graph_document(spec, rho, with_components=True)
                return doc, cli.render_dot(doc)

            def check(out, text=text, shape=shape):
                doc, dot = out
                return checks.check_graph(doc, text, shape) + checks.check_dot(doc, dot)

            ops.append((f"graph {text} {rho}", run, check))
        for argv in GRAPH_REJECTIONS:

            def run(argv=argv):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)  # an escaping library error fails the operation
                problems = checks.check_rejection(code, out.getvalue(), err.getvalue())
                if problems:
                    raise Failed("; ".join(problems))
                return code

            ops.append(("mckay " + " ".join(argv), run, lambda out: []))
        return ops, True
    if workload == "chartab-ladder":
        for text in CHARTAB_LADDER:
            spec = cli.parse_group_spec(text)

            def run(spec=spec):
                doc = cli.chartab_document(spec)
                return doc, span("bench.json_dumps", json.dumps, doc)

            def check(out, text=text):
                doc, dumped = out
                return checks.check_chartab(doc, text) + checks.check_json_text(dumped, doc)

            ops.append((f"chartab {text}", run, check))
        return ops, True
    if workload == "verify-all":
        all_cases, run_case = verify._cases_for, verify._run_case
        for suite in VERIFY_SUITES:
            ids = [case_id for case_id, _ in all_cases(suite)]
            kept = [i for i in ids if i not in VERIFY_EXCLUDED]

            def cases_for(name, kept=set(kept)):
                return [case for case in all_cases(name) if case[0] in kept]

            def run(suite=suite, cases_for=cases_for):
                verify._cases_for = cases_for
                if tracer:  # one span per case, tagged with the case id
                    verify._run_case = lambda case: tracer.labelled(
                        "verify.case", case[0], run_case, case
                    )
                try:
                    return span("bench.suite", verify.run_suite, suite)
                finally:
                    verify._cases_for, verify._run_case = all_cases, run_case

            ops.append((f"verify {suite} ({len(kept)} of {len(ids)} cases)", run, checks.check_report))
        missing = set(VERIFY_EXCLUDED) - {i for s in VERIFY_SUITES for i, _ in all_cases(s)}
        if missing:
            sys.exit(f"excluded verify cases no longer exist: {sorted(missing)}")
        return ops, False
    sys.exit(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def run_ops(ops, tracer) -> dict:
    times, failures, problems = [], [], []
    for label, run, check in ops:
        t0 = time.perf_counter()
        try:
            out = tracer.span("bench.op", run) if tracer else run()
        except Exception as exc:  # Failed, or an error from the program
            times.append(time.perf_counter() - t0)
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        times.append(time.perf_counter() - t0)
        try:
            problems += [f"{label}: {p}" for p in check(out)]
        except Exception as exc:  # a malformed output is a wrong one
            problems.append(f"{label}: check raised {type(exc).__name__}: {exc}")
    return {
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
        "op_s": [[label, dt] for (label, _, _), dt in zip(ops, times)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--ops", help="comma-separated operation numbers to run")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--trace-file")
    args = ap.parse_args()
    tracer = Tracer() if args.trace else None
    ops, own_process = make_ops(args.workload, tracer)
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.spawn_ns) / 1e9
    if args.ops is None:
        groups = [[k] for k in range(len(ops))] if own_process else [list(range(len(ops)))]
        print(json.dumps({"setup_s": setup_s, "groups": groups}))
        return 0
    chosen = [ops[int(k)] for k in args.ops.split(",")]
    if tracer:
        tracer.install()
    result = {"setup_s": setup_s, **run_ops(chosen, tracer)}
    if tracer:
        result["layers"] = layer_sums(tracer.spans, tracer.counts)
        with open(args.trace_file, "w") as fh:
            json.dump({"workload": args.workload, "ops": args.ops,
                       "counts": tracer.counts, "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
