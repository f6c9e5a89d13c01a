"""Record the goldens the benchmark checks outputs against.

    python3 perfbench/record_goldens.py

Writes ``goldens/verify4.txt`` (the report lines of
``verify_suite(4, catalog=True)``), ``goldens/classify4.json`` (class
sizes and endomorphism-monoid sizes per order) and
``goldens/cli_pool.json`` (every query a cli-session can draw, with its
exit code and stdout digest).  The committed goldens were recorded from
the library as it stood when the benchmark was added; re-record only
when an output change is intended, because the goldens are the
benchmark's correctness check.
"""

from __future__ import annotations

import io
import json
import shutil
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

# at most this many pool entries per (command, band) cell, evenly spaced
CELL_CAP = 24


def spread(items: list, cap: int = CELL_CAP) -> list:
    if len(items) <= cap:
        return items
    return [items[i * len(items) // cap] for i in range(cap)]


def spec(sub) -> str:
    return ",".join(str(x) for x in sub.members)


def action_argv(s: dict) -> list[str]:
    return ["--a", f"{s['acted']}.json", "--b", f"{s['actor']}.json",
            "--action", wl.action_file(s)]


def monoid_band(size: int) -> str:
    if size <= 2:
        return "o1-2"
    if size <= 4:
        return f"o{size}"
    return "o5-6"


def action_band(product: int) -> str:
    if product <= 4:
        return "p1-4"
    if product <= 8:
        return "p5-8"
    return "p9-12"


def small_candidates(monoids: dict) -> tuple[dict, list]:
    from monofact import (
        CATALOG,
        endomorphism_monoid,
        enumerate_factorizations,
        enumerate_homs,
        enumerate_submonoids,
    )

    cells: dict[str, list] = {}

    def add(variant: str, band: str, argv: list[str]) -> None:
        cells.setdefault(f"{variant}|{band}", []).append(argv)

    small = {k: M for k, M in monoids.items() if not k.startswith("p-")}
    for stem, M in small.items():
        f = f"{stem}.json"
        band = monoid_band(M.size)
        add("info", band, ["info", "--in", f])
        add("submonoids", band, ["submonoids", "--in", f])
        add("fac", band, ["fac", "--in", f])
        for S in enumerate_submonoids(M):
            add("fac-first", band, ["fac", "--in", f, "--first", spec(S)])
            add("cocycles-left", band, ["cocycles", "--in", f, "--sub", spec(S)])
            add("cocycles-right", band,
                ["cocycles", "--in", f, "--sub", spec(S), "--side", "right"])
            add("cohomology", band, ["cohomology", "--in", f, "--sub", spec(S)])
        for fac in enumerate_factorizations(M):
            add("cocycles-unit", band, ["cocycles", "--in", f, "--sub", spec(fac.first),
                                        "--unit-on", spec(fac.second)])
    for name in CATALOG:
        add("catalog", "-", ["catalog", name])
    for bound in (1, 10, 100, 1000, 10000, 100000):
        add("witness", "-", ["witness", "--bound", str(bound)])

    by_band: dict[str, list] = {}
    for acted, A in small.items():
        E, _ = endomorphism_monoid(A)
        for actor, B in small.items():
            if A.size * B.size > 12:
                continue
            for k in range(len(enumerate_homs(B, E))):
                by_band.setdefault(action_band(A.size * B.size), []).append(
                    {"acted": acted, "actor": actor, "hom": k}
                )
    actions = []
    for band, specs in sorted(by_band.items()):
        for s in spread(specs):
            actions.append(s)
            files = action_argv(s)
            add("semidirect", band, ["semidirect", *files])
            add("semidirect-emit", band, ["semidirect", *files, "--emit"])
            add("z1", band, ["z1", *files])
            add("z1-units", band, ["z1", *files, "--units"])
            add("h1", band, ["h1", *files])
            add("h1-units", band, ["h1", *files, "--units"])
    return {cell: spread(argvs) for cell, argvs in sorted(cells.items())}, actions


PLATEAU = 18

# (acted, actor) of the large actions; the last hom is taken, the least trivial one
LARGE_ACTIONS = (("p-c2xc4", "cat-c3"), ("cat-c3xc2", "cat-c4"), ("cat-s3", "cat-c4"))


def large_candidates(monoids: dict) -> tuple[list, list]:
    from monofact import endomorphism_monoid, enumerate_homs

    actions = []
    for acted, actor in LARGE_ACTIONS:
        E, _ = endomorphism_monoid(monoids[acted])
        actions.append({"acted": acted, "actor": actor,
                        "hom": len(enumerate_homs(monoids[actor], E)) - 1})

    a24, b24, c24 = (action_argv(s) for s in actions)
    # Nine scans of 0.1-3.7 s and three queries of 30-90 ms, then PLATEAU
    # copies of one 15-25 ms `info` (a submonoid scan and a factorization
    # scan of S3 x C2), then queries of about 20 ms or less.  About 22 queries of a 2,120-query session lie beyond
    # its 99th percentile, so latency_p99_ms falls near the median of the
    # plateau copies, which are spread over the whole run, instead of on
    # whichever single execution of a distinct query ran slowest.  The
    # plateau query was chosen as the large query whose time drifts least
    # with the host's CPU speed (README.md, "Bounds and noise").
    heavy = [
        ["fac", "--in", "p-s3xv4.json", "--first", "1"],
        ["submonoids", "--in", "p-s3xc3.json"],
        ["fac", "--in", "p-s3xc3.json"],
        ["info", "--in", "p-v4xv4.json"],
        ["info", "--in", "p-c4xc4.json"],
        ["fac", "--in", "p-v4xv4.json"],
        ["submonoids", "--in", "p-v4xv4.json"],
        ["fac", "--in", "p-c4xc4.json"],
        ["submonoids", "--in", "p-c4xc4.json"],
    ]
    plateau = [["info", "--in", "p-s3xc2.json"]] * PLATEAU
    light = [
        ["submonoids", "--in", "p-s3xv4.json"],
        ["fac", "--in", "p-s3xc4.json"],
        ["submonoids", "--in", "p-s3xc4.json"],
        ["info", "--in", "p-c3xc4.json"],
        ["cocycles", "--in", "p-s3xc4.json", "--sub", "1"],
        ["cocycles", "--in", "p-c3xc4.json", "--sub", "1", "--side", "right"],
        ["cohomology", "--in", "p-s3xv4.json", "--sub", "1,2"],
        ["cohomology", "--in", "p-c2xc4.json", "--sub", "1"],
        ["fac", "--in", "p-c2xc4.json", "--first", "1"],
        ["semidirect", *b24, "--emit"],
        ["semidirect", *a24],
        ["h1", *a24],
        ["z1", *c24, "--units"],
    ]
    # interleave evenly, so the plateau copies sit apart from each other in a
    # session (session_queries spreads the large list over the whole session)
    others = heavy + light
    keyed = [((i + 0.5) / len(others), 1, q) for i, q in enumerate(others)]
    keyed += [((i + 0.5) / PLATEAU, 0, q) for i, q in enumerate(plateau)]
    queries = [q for _, _, q in sorted(keyed, key=lambda k: k[:2])]
    return queries, actions


def record_cli(workdir: Path) -> dict:
    from monofact.cli import run_command

    monoids = wl.monoid_inputs()
    cells, small_actions = small_candidates(monoids)
    large, large_actions = large_candidates(monoids)
    pool = {"actions": small_actions + large_actions, "small": {}, "large": []}
    wl.write_inputs(workdir, pool)

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        rc = run_command(wl.resolve(argv, workdir), out, err)
        if rc != 0:
            raise SystemExit(f"{' '.join(argv)} exited {rc}: {err.getvalue().strip()}")
        return [argv, rc, wl.digest(out.getvalue())]

    pool["small"] = {cell: [run(argv) for argv in argvs] for cell, argvs in cells.items()}
    pool["large"] = [run(argv) for argv in large]
    return pool


def main() -> None:
    from monofact import verify_suite

    goldens = wl.GOLDENS
    goldens.mkdir(exist_ok=True)

    report = verify_suite(4, catalog=True)
    if not report.all_passed or any(c.instances == 0 for c in report.checks):
        raise SystemExit("verify_suite(4) has a failing or vacuous check; not recording")
    (goldens / "verify4.txt").write_text("\n".join(report.lines()) + "\n")

    result = wl.classify_round()
    golden = {"class_sizes": {}, "endomorphism_sizes": {}}
    for n, (n_labelled, n_classes, matches, endo_sizes) in result.items():
        if (n_classes, n_labelled) != (wl.CLASS_COUNTS[n], wl.LABELLED_COUNTS[n]):
            raise SystemExit(f"order {n}: counts {n_classes}, {n_labelled} disagree")
        if any(len(m) != 1 for m in matches):
            raise SystemExit(f"order {n}: a table does not match exactly one class")
        sizes = Counter(m[0] for m in matches)
        golden["class_sizes"][str(n)] = [sizes[i] for i in range(n_classes)]
        golden["endomorphism_sizes"][str(n)] = endo_sizes
    (goldens / "classify4.json").write_text(json.dumps(golden, indent=1) + "\n")

    workdir = ROOT / ".perfbench" / "record"
    try:
        pool = record_cli(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(wl.POOL_FILE, "w") as fh:
        fh.write("{\n")
        fh.write(f' "actions": {json.dumps(pool["actions"])},\n')
        fh.write(' "small": {\n')
        cells = list(pool["small"].items())
        for i, (cell, entries) in enumerate(cells):
            body = ",\n  ".join(json.dumps(e) for e in entries)
            fh.write(f'  {json.dumps(cell)}: [\n  {body}\n  ]{"," if i < len(cells) - 1 else ""}\n')
        fh.write(" },\n")
        body = ",\n  ".join(json.dumps(e) for e in pool["large"])
        fh.write(f' "large": [\n  {body}\n ]\n}}\n')
    print(f"recorded {sum(len(v) for v in pool['small'].values())} small and "
          f"{len(pool['large'])} large queries over {len(pool['small'])} cells")


if __name__ == "__main__":
    main()
