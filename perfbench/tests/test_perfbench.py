"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import shutil
import sys
from array import array
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def pool():
    import json

    return json.loads(wl.POOL_FILE.read_text())


def test_self_time_on_synthetic_span_tree():
    # A[0,10] > B[1,4], C[5,9] > D[6,7]; a second A[20,22] > B[20.5,21]
    names = {"A": 0, "B": 1, "C": 2, "D": 3}
    rows = [("A", 0, 10, -1), ("B", 1, 4, 0), ("C", 5, 9, 0), ("D", 6, 7, 2),
            ("A", 20, 22, -1), ("B", 20.5, 21, 4)]
    starts = array("d", [r[1] for r in rows])
    ends = array("d", [r[2] for r in rows])
    parents = array("q", [r[3] for r in rows])
    name_of = array("q", [names[r[0]] for r in rows])
    self_s, total_s, calls = tr.self_times(starts, ends, parents, 4, name_of)
    assert self_s == [3 + 1.5, 3 + 0.5, 3, 1]
    assert total_s == [12, 3.5, 4, 1]
    assert calls == [2, 2, 1, 1]


def test_tracer_spans_nest_with_a_fake_clock():
    ticks = iter(range(100))
    t = tr.Tracer(clock=lambda: next(ticks))
    outer = t.span_wrapper("outer", lambda f: f() + 1)
    inner = t.span_wrapper("inner", lambda: 1)
    assert outer(inner) == 2
    self_s, total_s, calls = tr.self_times(t.starts, t.ends, t.parents, len(t.names), t.name_of)
    assert list(t.parents) == [-1, 0]
    assert total_s == [3, 1] and self_s == [2, 1] and calls == [1, 1]


def cell_of(pool) -> dict:
    return {" ".join(argv): cell for cell, entries in pool["small"].items()
            for argv, _, _ in entries}


def test_session_generator_is_seeded_with_fixed_shares(pool):
    a, again, b = (wl.session_queries(pool, s) for s in (1, 1, 2))
    assert a == again
    cells = cell_of(pool)
    large = [" ".join(argv) for argv, _, _ in pool["large"]]
    small_a = [" ".join(q) for q in a if " ".join(q) in cells]
    small_b = [" ".join(q) for q in b if " ".join(q) in cells]
    assert small_a != small_b
    assert Counter(cells[q] for q in small_a) == Counter(cells[q] for q in small_b)
    assert set(Counter(cells[q] for q in small_a).values()) == {wl.PER_CELL}
    for session in (a, b):
        keys = [" ".join(q) for q in session]
        assert [k for k in keys if k not in cells] == large
    # at least ten queries of a session lie beyond its 99th percentile
    assert len(a) >= 1000


def test_p99_rank_falls_inside_the_plateau(pool):
    # the large list is twelve queries of 30 ms to 3.7 s, copies of one
    # 15-25 ms query (the plateau) and faster queries; the 99th percentile's
    # rank from the top must sit in the middle half of the plateau, whatever
    # the seed
    heavy = 12
    copies = Counter(" ".join(argv) for argv, _, _ in pool["large"]).most_common(1)[0][1]
    rank = 0.01 * len(wl.session_queries(pool, 1)) + 0.99
    assert heavy + copies / 4 < rank < heavy + 3 * copies / 4


def test_traced_verify_suite_attributes_every_search():
    import monofact.core

    originals = {name: getattr(monofact.core, name)
                 for mod, name in tr.SPAN_FUNCTIONS if mod == "core"}
    with tr.Tracer() as t:
        for name, fn in originals.items():
            for modname, module in list(sys.modules.items()):
                if modname.startswith("monofact"):
                    assert fn not in vars(module).values(), f"{modname} still binds {name}"
        report = monofact.verify_suite(2, catalog=True)
    assert report.all_passed
    assert t.unknown_searches() == 0
    assert set(t.search) == set(tr.SEARCH_KINDS.values())
    assert all(stats[0] > 0 for stats in t.search.values())
    assert list(t.check_seconds()) == list(tr.CHECK_IDS)
    metrics = t.layer_metrics()
    assert [name for name, _ in tr.metric_names()] == list(metrics)
    for name, fn in originals.items():
        assert getattr(monofact.core, name) is fn
    assert monofact.verify.CheckResult is monofact.CheckResult


def test_altered_verify_golden_line_is_caught():
    golden = (wl.GOLDENS / "verify4.txt").read_text().splitlines()
    assert wl.verify4_check(golden, golden)[:2] == (len(golden), 0)
    altered = list(golden)
    altered[5] = altered[5].replace(" instances)", "0 instances)")
    attempted, failed, notes = wl.verify4_check(golden, altered)
    assert failed == 1 and "line 6" in notes[0]
    vacuous = ["population: x", "some-check: PASS (0 instances)", "total: 1/1"]
    assert wl.verify4_check(vacuous, vacuous)[1] == 1


@pytest.fixture
def workdir():
    path = BENCH.parent / ".perfbench" / "test-inputs"
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_altered_cli_golden_is_caught(pool, workdir):
    workload = wl.CliSession()
    wl.write_inputs(workdir, pool)
    templates = [argv for argv, _, _ in pool["small"]["info|o3"][:3]]
    golden = wl.golden_index(pool)
    state = (templates, [wl.resolve(q, workdir) for q in templates], golden)
    assert workload.run(state)["failed"] == 0
    key = " ".join(templates[1])
    golden[key] = (golden[key][0], "0" * 16)
    result = workload.run(state)
    assert (result["attempted"], result["failed"]) == (3, 1)


def test_altered_classify_golden_is_caught():
    import json

    golden = json.loads((wl.GOLDENS / "classify4.json").read_text())
    result = wl.classify_round()
    assert wl.classify_check(result, golden)[1] == 0
    golden["endomorphism_sizes"]["3"][2] += 1
    assert wl.classify_check(result, golden)[1] == 1
