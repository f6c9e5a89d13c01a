"""The three benchmark workloads: inputs, one timed job each, and output checks.

Each workload exposes ``setup(workdir, seed)`` (input generation, part of
``setup_s``) and ``run(state)`` (the timed job), which returns the job's
wall time and operation count together with the number of outputs
checked and failed.  Everything goes through monofact's public functions
only.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens"

# OEIS A058129 (monoids of order n up to isomorphism) and the labelled
# counts with 0 as identity that tests/test_core.py also pins
CLASS_COUNTS = {1: 1, 2: 2, 3: 7, 4: 35}
LABELLED_COUNTS = {1: 1, 2: 2, 3: 11, 4: 156}

# rounds per classify4 job: a job of several seconds averages over the
# host's CPU-speed swings, which last from seconds to tens of seconds
CLASSIFY_ROUNDS = 40


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# verify4: one verify_suite(4, catalog=True), i.e. `monofact verify --max-size 4 --catalog`


def verify4_check(lines: list[str], golden: list[str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes): every report line must equal the golden
    one, and every check line must PASS with more than 0 instances."""
    attempted = max(len(lines), len(golden))
    failed, notes = 0, []
    for i in range(attempted):
        got = lines[i] if i < len(lines) else None
        want = golden[i] if i < len(golden) else None
        is_check = got is not None and 0 < i < len(lines) - 1
        vacuous = is_check and (": PASS (" not in got or got.endswith("(0 instances)"))
        if got != want or vacuous:
            failed += 1
            notes.append(f"line {i + 1}: got {got!r}, want {want!r}")
    return attempted, failed, notes


class Verify4:
    name = "verify4"

    def setup(self, workdir: Path, seed: int):
        return (GOLDENS / "verify4.txt").read_text().splitlines()

    def run(self, golden) -> dict:
        from monofact import verify_suite

        t0 = time.perf_counter()
        report = verify_suite(4, catalog=True)
        wall = time.perf_counter() - t0
        attempted, failed, notes = verify4_check(report.lines(), golden)
        return {
            "wall": wall,
            "ops": report.total_instances,
            "attempted": attempted,
            "failed": failed,
            "notes": notes[:5],
        }


# ---------------------------------------------------------------------------
# classify4: label every order <= 4 table with its class, R rounds per job


def classify_round() -> dict:
    """One round: generate, classify and build endomorphism monoids for n = 1..4."""
    from monofact import endomorphism_monoid, enumerate_monoids, find_isomorphism

    out = {}
    for n in range(1, 5):
        labelled = enumerate_monoids(n)
        reps = enumerate_monoids(n, up_to_iso=True)
        matches = [
            [i for i, rep in enumerate(reps) if find_isomorphism(table, rep) is not None]
            for table in labelled
        ]
        endo_sizes = [endomorphism_monoid(rep)[0].size for rep in reps]
        out[n] = (len(labelled), len(reps), matches, endo_sizes)
    return out


def classify_check(result: dict, golden: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes) for one round.

    Outputs: each labelled table (must match exactly one class), the two
    counts per order (A058129 and the labelled count), and per class its
    number of labelled tables and endomorphism-monoid size (golden).
    """
    attempted = failed = 0
    notes = []
    for n, (n_labelled, n_classes, matches, endo_sizes) in result.items():
        attempted += 2
        if n_classes != CLASS_COUNTS[n]:
            failed += 1
            notes.append(f"order {n}: {n_classes} classes, want {CLASS_COUNTS[n]}")
        if n_labelled != LABELLED_COUNTS[n]:
            failed += 1
            notes.append(f"order {n}: {n_labelled} tables, want {LABELLED_COUNTS[n]}")
        sizes = [0] * n_classes
        for t, m in enumerate(matches):
            attempted += 1
            if len(m) != 1:
                failed += 1
                notes.append(f"order {n} table {t}: matches classes {m}")
            for i in m:
                sizes[i] += 1
        want_sizes = golden["class_sizes"][str(n)]
        want_endo = golden["endomorphism_sizes"][str(n)]
        for i in range(max(n_classes, len(want_sizes))):
            attempted += 1
            got = (sizes[i] if i < n_classes else None, endo_sizes[i] if i < n_classes else None)
            want = (
                want_sizes[i] if i < len(want_sizes) else None,
                want_endo[i] if i < len(want_endo) else None,
            )
            if got != want:
                failed += 1
                notes.append(f"order {n} class {i}: (tables, endos) {got}, want {want}")
    return attempted, failed, notes


class Classify4:
    name = "classify4"

    def setup(self, workdir: Path, seed: int):
        return json.loads((GOLDENS / "classify4.json").read_text())

    def run(self, golden) -> dict:
        t0 = time.perf_counter()
        results = [classify_round() for _ in range(CLASSIFY_ROUNDS)]
        wall = time.perf_counter() - t0
        attempted = failed = 0
        notes: list[str] = []
        for result in results:
            a, f, n = classify_check(result, golden)
            attempted, failed, notes = attempted + a, failed + f, notes + n
        return {
            "wall": wall,
            "ops": CLASSIFY_ROUNDS * sum(LABELLED_COUNTS.values()),
            "attempted": attempted,
            "failed": failed,
            "notes": notes[:5],
        }


# ---------------------------------------------------------------------------
# cli-session: one client issuing `monofact` commands in-process

POOL_FILE = GOLDENS / "cli_pool.json"

# small queries per (command variant, size band) in one session: 52 cells,
# so with the 40 large queries a session has 2,120 and its 99th percentile
# lies in the middle of the 18 plateau copies (see record_goldens.py)
PER_CELL = 40

# products of catalog monoids, orders 8..24, written as p-<name>.json
PRODUCTS = {
    "c2xc4": ("c2", "c4"),
    "c3xc4": ("c3", "c4"),
    "s3xc2": ("s3", "c2"),
    "v4xv4": ("v4", "v4"),
    "c4xc4": ("c4", "c4"),
    "s3xc3": ("s3", "c3"),
    "s3xc4": ("s3", "c4"),
    "s3xv4": ("s3", "v4"),
}


def monoid_inputs() -> dict:
    """File stem -> monoid: the catalog, the order <= 4 classes, the products."""
    from monofact import CATALOG, direct_product, enumerate_monoids

    out = {f"cat-{name}": M for name, M in CATALOG.items()}
    for n in range(1, 5):
        for i, M in enumerate(enumerate_monoids(n, up_to_iso=True)):
            out[f"o{n}-{i}"] = M
    for name, (a, b) in PRODUCTS.items():
        out[f"p-{name}"] = direct_product(CATALOG[a], CATALOG[b])
    return out


def build_action(monoids: dict, acted: str, actor: str, hom: int, cache: dict):
    """The ``hom``-th action of ``actor`` on ``acted`` via action_from_hom."""
    from monofact import action_from_hom, endomorphism_monoid, enumerate_homs

    key = (acted, actor)
    if key not in cache:
        E, endos = endomorphism_monoid(monoids[acted])
        cache[key] = (enumerate_homs(monoids[actor], E), endos)
    homs, endos = cache[key]
    return action_from_hom(homs[hom], endos)


def action_file(spec: dict) -> str:
    return f"act-{spec['acted']}-{spec['actor']}-{spec['hom']}.json"


def write_inputs(workdir: Path, pool: dict) -> None:
    """Write every monoid file and every action file the pool refers to."""
    from monofact import emit_action, emit_monoid

    monoids = monoid_inputs()
    workdir.mkdir(parents=True, exist_ok=True)
    for stem, M in monoids.items():
        name = stem[4:] if stem.startswith("cat-") else None
        (workdir / f"{stem}.json").write_text(emit_monoid(M, name=name))
    cache: dict = {}
    for spec in pool["actions"]:
        act = build_action(monoids, spec["acted"], spec["actor"], spec["hom"], cache)
        (workdir / action_file(spec)).write_text(emit_action(act))


def session_queries(pool: dict, seed: int) -> list[list[str]]:
    """The query templates of one session.

    The seed draws PER_CELL small queries from every (command, band) cell
    of the pool, shuffled; the fixed large queries sit at evenly spaced
    positions, so the session's cost does not depend on the seed.
    """
    rng = random.Random(seed)
    small = []
    for cell in sorted(pool["small"]):
        entries = pool["small"][cell]
        small += [entries[rng.randrange(len(entries))][0] for _ in range(PER_CELL)]
    rng.shuffle(small)
    large = [entry[0] for entry in pool["large"]]
    step = len(small) // len(large)
    out = []
    for i, q in enumerate(small):
        if i % step == step // 2 and i // step < len(large):
            out.append(large[i // step])
        out.append(q)
    return out


def golden_index(pool: dict) -> dict:
    index = {}
    for entries in list(pool["small"].values()) + [pool["large"]]:
        for argv, rc, dig in entries:
            index[" ".join(argv)] = (rc, dig)
    return index


def resolve(argv: list[str], workdir: Path) -> list[str]:
    return [str(workdir / a) if a.endswith(".json") else a for a in argv]


class CliSession:
    name = "cli-session"

    def setup(self, workdir: Path, seed: int):
        pool = json.loads(POOL_FILE.read_text())
        write_inputs(workdir, pool)
        queries = session_queries(pool, seed)
        return queries, [resolve(q, workdir) for q in queries], golden_index(pool)

    def run(self, state) -> dict:
        from monofact.cli import run_command

        templates, argvs, golden = state
        latencies, outputs = [], []
        t_session = time.perf_counter()
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            rc = run_command(argv, out, err)
            latencies.append(time.perf_counter() - t0)
            outputs.append((rc, out.getvalue()))
        wall = time.perf_counter() - t_session
        failed, notes = 0, []
        for template, (rc, text) in zip(templates, outputs):
            key = " ".join(template)
            if golden.get(key) != (rc, digest(text)):
                failed += 1
                notes.append(f"{key}: exit {rc}, digest {digest(text)}, want {golden.get(key)}")
        return {
            "wall": wall,
            "ops": len(argvs),
            "latencies": latencies,
            "attempted": len(argvs),
            "failed": failed,
            "notes": notes[:5],
        }


WORKLOADS = {w.name: w for w in (Verify4(), CliSession(), Classify4())}
