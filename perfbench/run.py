"""monofact benchmark entry point.

    python3 perfbench/run.py --workload {verify4,cli-session,classify4}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` it times set-up in several fresh
interpreters, then runs jobs in fresh interpreters until ``--seconds``
have passed, and prints the end-to-end metrics.  With ``--trace 1`` it
runs one untraced and one traced job and prints the per-layer metrics
and the tracing overhead.  Every job's outputs are checked against the
goldens.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_ONLY_RUNS = 6
CHILD_TIMEOUT_S = 170.0


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, *flags: str) -> tuple[float, dict | None]:
    """Run one worker; returns (seconds until it was ready, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if rc != 0 or first.strip() != "ready":
        raise ChildFailed(f"worker {' '.join(flags)} for {workload} exited {rc}")
    lines = rest.splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (statistics.quantiles, inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def machine_note() -> str:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return f"nproc={nproc} python={platform.python_version()} cpu={model}"


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, int, int, list[str]]:
    setups, walls, latencies, rss, notes = [], [], [], [], []
    attempted = failed = 0
    for _ in range(SETUP_ONLY_RUNS):
        setups.append(spawn(workload, seed, "--setup-only")[0])
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        setup_s, result = spawn(workload, seed)
        setups.append(setup_s)
        walls.append(result["wall"])
        latencies += result.get("latencies", [result["wall"]])
        rss.append(result["rss_mb"])
        ops = result["ops"]
        attempted += result["attempted"]
        failed += result["failed"]
        notes += result["notes"]
    wall_s = statistics.median(walls)
    p99 = percentile(latencies, 0.99)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(wall_s, "s"),
        "ops_per_s": metric(ops / wall_s, "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1000, "ms"),
        "latency_p99_ms": metric(p99 * 1000, "ms"),
        "peak_rss_mb": metric(max(rss), "MB"),
    }
    print(f"samples: {len(setups)} set-ups, {len(walls)} jobs, {len(latencies)} latencies "
          f"({sum(x > p99 for x in latencies)} beyond p99)")
    return metrics, attempted, failed, notes


def traced(workload: str, seed: int) -> tuple[dict, int, int, list[str]]:
    _, plain = spawn(workload, seed)
    _, result = spawn(workload, seed, "--trace")
    layers = result["layers"]
    metrics = {name: metric(layers[name], unit) for name, unit in metric_names()}
    metrics["trace_overhead_s"] = metric(result["wall"] - plain["wall"], "s")
    if result["unknown_searches"]:
        print(f"warning: {result['unknown_searches']} searches had no known kind")
    if workload == "verify4":
        print("note: verify.check.first-factor-necessity_s also holds building the "
              "population and the action battery (it starts when verify_suite is entered)")
    attempted = plain["attempted"] + result["attempted"]
    failed = plain["failed"] + result["failed"]
    return metrics, attempted, failed, plain["notes"] + result["notes"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "monofact" / "__init__.py").is_file():
        print(f"error: no monofact sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(f"monofact benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"machine: {machine_note()}")
    try:
        if args.trace:
            metrics, attempted, failed, notes = traced(args.workload, args.seed)
        else:
            metrics, attempted, failed, notes = end_to_end(
                args.workload, args.seed, args.seconds)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_frac':48s} {failed / attempted:>16.6g} ratio ({failed}/{attempted} outputs)")
    for note in notes[:10]:
        print(f"FAILED: {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
