"""Benchmark of the mckaygraphs pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from `src/`.  A
pass runs the workload's operations in fresh worker processes
(perfbench/worker.py): one per ladder operation, as one `mckay` command each,
and one for the three verify suites, so every pass starts cold.  The seed
shuffles the order of the processes anew for each pass.  Passes repeat until
S seconds have gone by, and at least one runs; times are medians over them.
Set-up time is measured in every worker, and in extra ones until there are
enough samples.  The last line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0 and the
per-layer metrics with --trace 1.  Per-pass figures go to
.perfbench_out/result-*.json and, when traced, the spans to
.perfbench_out/trace-*.json.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5  # set-up is measured at least this often per run
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class WorkerError(Exception):
    pass


def spawn(args, deadline: float, extra: list[str]) -> dict:
    """Run one worker and return its JSON line."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--spawn-ns", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC)), *extra,
    ]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise WorkerError("no time left for another worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerError(f"worker exceeded {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "mckaygraphs" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'mckaygraphs'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    deadline = time.perf_counter() + RUN_LIMIT_S

    passes, setups = [], []
    start = time.perf_counter()
    try:
        plan = spawn(args, deadline, [])
        setups.append(plan["setup_s"])
        rng = random.Random(args.seed)
        while not passes or time.perf_counter() - start < args.seconds:
            groups = list(plan["groups"])
            rng.shuffle(groups)  # each pass meets the machine in another order
            procs = []
            for group in groups:
                extra = ["--ops", ",".join(map(str, group))]
                if args.trace:
                    name = f"trace-{tag}-pass{len(passes)}-ops{extra[1].replace(',', '_')}.json"
                    extra += ["--trace", "--trace-file", str(OUT / name)]
                procs.append(spawn(args, deadline, extra))
                setups.append(procs[-1]["setup_s"])
            passes.append(procs)
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(args, deadline, [])["setup_s"])
    except WorkerError as exc:
        print(f"error: {tag}: {exc}", file=sys.stderr)
        return 1

    figures = []
    for procs in passes:
        op_s = [t for proc in procs for _, t in proc["op_s"]]
        figures.append({
            "wall_s": sum(op_s),
            "op_max_s": max(op_s),
            "peak_rss_mb": max(proc["peak_rss_mb"] for proc in procs),
            "layers": layer_metrics([proc["layers"] for proc in procs]) if args.trace else None,
        })
        for proc in procs:
            for line in proc["failures"]:
                print(f"failed: {line}", file=sys.stderr)
            for line in proc["problems"]:
                print(f"wrong: {line}", file=sys.stderr)

    def median(key):
        return statistics.median(f[key] for f in figures)

    if args.trace:
        metrics = {}
        for name in figures[0]["layers"]:
            values = [f["layers"][name] for f in figures]
            if unit_of(name) == "s":
                metrics[name] = metric(statistics.median(values), "s")
            else:
                if len(set(values)) != 1:
                    print(f"warning: {name} differs between passes: {values}", file=sys.stderr)
                metrics[name] = metric(values[0], unit_of(name))
        metrics["trace.wall_s"] = metric(median("wall_s"), "s")
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_s": metric(median("wall_s"), "s"),
            "op_max_s": metric(median("op_max_s"), "s"),
            "peak_rss_mb": metric(median("peak_rss_mb"), "MB"),
        }
    procs = [proc for procs in passes for proc in procs]
    result = {
        "correct": all(not proc["problems"] for proc in procs),
        "attempted": sum(proc["attempted"] for proc in procs),
        "failed": sum(proc["failed"] for proc in procs),
        "metrics": metrics,
    }
    with open(OUT / f"result-{tag}-trace{args.trace}.json", "w") as fh:
        json.dump({"result": result, "passes": passes, "setup_s": setups}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
