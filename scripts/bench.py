#!/usr/bin/env python3
"""Compare the working tree with a parent commit on the benchmark, in alternating pairs.

Usage: python scripts/bench.py LABEL

The parent commit (HEAD, the commit the working tree's changes sit on) is
exported with `git archive` into a temporary directory, so the run leaves
nothing behind in the repository.  For each workload in BENCHMARK.json, pair
i (1 to PAIRS) runs
`perfbench/run.py --workload W --seed 200+i --seconds S --trace 0` once in each
tree, S being BENCHMARK.json's run_seconds: odd pairs run the parent first,
even pairs the working tree first.  One traced run per side
(--seed 7 --seconds 1 --trace 1) gives the per-layer figures.  Table-only
runs time the split and the lift of TABLE_SPECS's groups on their own, through
perfbench's tracer, with a limit of TABLE_LIMIT_S per table; a side that
exceeds it is recorded as "timeout".  They also time `build_group` and take
its tracemalloc peak on a second build.  The result goes to BENCH_<LABEL>.json at the repository root.
Run it with nothing else busy on the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PARENT = "HEAD"
PAIRS = 10
SEED_BASE = 200
TRACE_SEED = 7
# dihedral:512 splits its 255 non-linear central characters with one sweep of
# one class matrix; product(dihedral:8,elemab:2:6) sweeps a 192-dimensional
# subspace with 3 eigenvalues over 66 unreduced Hessenberg blocks;
# extraspecial:-:4 is a 2-group, whose classes split it in halves
TABLE_SPECS = [
    "cyclic:128", "cyclic:256", "elemab:2:10", "cyclic:1024", "dihedral:512",
    "product(dihedral:8,elemab:2:6)", "extraspecial:-:4",
]
TABLE_RUNS = 3
TABLE_LIMIT_S = 120.0

# Times one character table with perfbench's tracer, so that split_s, table_s
# and lift_s are the benchmark's modp.split_s, chartable.table_s and
# chartable.lift_s; split_s includes building the class matrices, which the
# split consumes lazily.  build_s is one untraced build_group; build_peak_mb is
# the tracemalloc peak of a second one.
TABLE_PROBE = r"""
import json, sys, time, tracemalloc
sys.path.insert(0, "perfbench")
# the tracer wraps every module it names, so all of them must be imported
from mckaygraphs import build_group, chartable, cli, conjugacy, verify
from spans import Tracer, layer_sums

spec = cli.parse_group_spec(sys.argv[1])
start = time.perf_counter()
g = build_group(spec)
build_s = time.perf_counter() - start
tracemalloc.start()
build_group(spec)
build_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
tracemalloc.stop()
cd = conjugacy(g)
tracer = Tracer()
tracer.install()
chartable.compute_character_table(g, cd)
sums = layer_sums(tracer.spans, tracer.counts)
print(json.dumps({
    "table_s": sums["chartable.table_s"],
    "split_s": sums["modp.split_s"],
    "lift_s": sums["chartable.lift_s"],
    "build_s": build_s,
    "build_peak_mb": build_peak_mb,
}))
"""


def perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {workload} seed {seed} exited {proc.returncode} in {tree}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def table_probe(tree: Path, spec: str):
    try:
        proc = subprocess.run(
            [sys.executable, "-c", TABLE_PROBE, spec], cwd=tree, capture_output=True,
            text=True, timeout=TABLE_LIMIT_S, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: table of {spec} exited {proc.returncode} in {tree}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {
        "median": round(statistics.median(runs), 4),
        "q1": round(q1, 4),
        "q3": round(q3, 4),
        "runs": [round(x, 4) for x in runs],
    }


def side(results: list[dict], metrics: list[str]) -> dict:
    out = {
        "correct": all(res["correct"] for res in results),
        "failed_per_attempted": [
            sum(res["failed"] for res in results), sum(res["attempted"] for res in results)
        ],
    }
    for name in metrics:
        out[name] = summary([res["metrics"][name]["value"] for res in results])
    return out


def comparison(parent: dict, change: dict, end_to_end: list[dict]) -> dict:
    out = {}
    for m in end_to_end:
        name, lower = m["name"], m["better"] == "lower"
        pairs = list(zip(parent[name]["runs"], change[name]["runs"]))
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        base = parent[name]["median"]
        out[name] = {
            "change_wins": f"{wins}/{len(pairs)}",
            "relative_change": round((change[name]["median"] - base) / base, 4),
            "bound": m["bound"],
            "parent_iqr": round(parent[name]["q3"] - parent[name]["q1"], 4),
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("label")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = bench["end_to_end"]
    names = [m["name"] for m in end_to_end]
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    commit = subprocess.run(
        ["git", "rev-parse", "--short", PARENT], cwd=ROOT, check=True,
        capture_output=True, text=True,
    ).stdout.strip()

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        archive = subprocess.run(
            ["git", "archive", commit], cwd=ROOT, check=True, capture_output=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        trees = {"parent": parent_tree, "change": ROOT}

        doc = {
            "label": args.label,
            "parent_commit": commit,
            "command": f"python3 perfbench/run.py --workload W --seed {SEED_BASE}+PAIR "
            f"--seconds {seconds:g} --trace 0",
            "protocol": "alternating pairs: odd pairs run the parent first, even pairs the "
            "change first; one workload at a time, nothing else running",
            "machine": {
                "nproc": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "workloads": {},
            "trace": {
                "command": f"python3 perfbench/run.py --workload W --seed {TRACE_SEED} "
                "--seconds 1 --trace 1 (one run per side)",
                "workloads": {},
            },
        }
        for workload in workloads:
            results = {"parent": [], "change": []}
            for pair in range(1, PAIRS + 1):
                order = ["parent", "change"] if pair % 2 else ["change", "parent"]
                for who in order:
                    res = perfbench(trees[who], workload, SEED_BASE + pair, seconds, 0)
                    results[who].append(res)
                    print(f"{workload} pair {pair} {who}: "
                          f"wall_s {res['metrics']['wall_s']['value']:.3f}", file=sys.stderr)
            parent, change = side(results["parent"], names), side(results["change"], names)
            doc["workloads"][workload] = {
                "pairs": PAIRS,
                "parent": parent,
                "change": change,
                "comparison": comparison(parent, change, end_to_end),
            }
            traced = {who: perfbench(trees[who], workload, TRACE_SEED, 1, 1) for who in trees}
            doc["trace"]["workloads"][workload] = {
                name: {who: round(traced[who]["metrics"][name]["value"], 4) for who in trees}
                for name in traced["change"]["metrics"]
            }

        tables = {}
        for spec in TABLE_SPECS:
            tables[spec] = {}
            for who in trees:
                runs = []
                for _ in range(TABLE_RUNS):
                    runs.append(table_probe(trees[who], spec))
                    if runs[-1] == "timeout":
                        break
                tables[spec][who] = "timeout" if "timeout" in runs else {
                    stage: round(statistics.median(r[stage] for r in runs), 4)
                    for stage in ("table_s", "split_s", "lift_s", "build_s", "build_peak_mb")
                }
                print(f"table {spec} {who}: {tables[spec][who]}", file=sys.stderr)
        doc["tables"] = {
            "command": f"compute_character_table alone, median of {TABLE_RUNS} runs per side, "
            f"limit {TABLE_LIMIT_S:g} s; build_s and build_peak_mb (tracemalloc, MiB) from "
            "build_group",
            "specs": tables,
        }

    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
