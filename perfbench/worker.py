"""One benchmark child process: set up, signal ready, run one job, report.

    python3 perfbench/worker.py --workload NAME --seed N [--setup-only] [--trace]

Every timed job runs in a fresh interpreter started by run.py, because
monofact.verify memoizes in module-level caches.  The child prints
``ready`` once imports and input generation are done (run.py times set-up
up to that line), then one JSON line with the job's timings and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"


def import_monofact() -> None:
    sys.path.insert(0, str(SRC))
    import monofact

    if Path(monofact.__file__).resolve().parent != (SRC / "monofact").resolve():
        raise SystemExit(f"monofact imported from {monofact.__file__}, not from {SRC}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import_monofact()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = STATE_DIR / "work" / str(os.getpid())
    try:
        state = workload.setup(workdir, args.seed)
        print("ready", flush=True)
        if args.setup_only:
            return
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer().install()
        result = workload.run(state)
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics()
            result["unknown_searches"] = tracer.unknown_searches()
            tracer.write(STATE_DIR / "trace" / args.workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
