"""In-memory span tracer that wraps monofact's public functions from outside.

The library is treated as a black box: every wrapper is installed by
rebinding names in the ``monofact.*`` modules, and ``uninstall`` puts the
original objects back.  Spans are (name, start, end, parent) rows kept in
flat arrays so a verify run with a million constructor calls stays small;
``write`` dumps them when the run ends and ``layer_metrics`` derives every
per-layer number from them plus the search-sweep counters.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from pathlib import Path

MODULES = (
    "core", "search", "factorization", "descent", "semidirect", "formats", "cli", "verify",
)

# (module, function) pairs wrapped in a span; the span is named "<module>.<function>"
SPAN_FUNCTIONS = (
    ("core", "enumerate_monoids"),
    ("core", "find_isomorphism"),
    ("core", "enumerate_homs"),
    ("core", "enumerate_submonoids"),
    ("factorization", "enumerate_factorizations"),
    ("factorization", "fac_over"),
    ("factorization", "try_factorization"),
    ("factorization", "exists_left_component_map"),
    ("descent", "enumerate_descent_cocycles"),
    ("descent", "descent_cohomology"),
    ("descent", "groupoid_components"),
    ("semidirect", "semidirect"),
    ("semidirect", "z1"),
    ("semidirect", "h1"),
    ("semidirect", "sections"),
    ("formats", "parse_document"),
    ("formats", "parse_action"),
    ("formats", "emit_monoid"),
    ("formats", "emit_action"),
    ("cli", "run_command"),
)

# constructors whose validation runs in __post_init__
VALIDATED_CLASSES = ("FiniteMonoid", "SubMonoid", "ElementMap")

# the span that directly encloses a search_assignments call names its kind
SEARCH_KINDS = {
    "core.enumerate_homs": "homs",
    "core.enumerate_monoids": "monoids",
    "descent.enumerate_descent_cocycles": "descent",
    "semidirect.z1": "z1",
    "semidirect.sections": "sections",
    "factorization.exists_left_component_map": "component_map",
}

# per-layer metrics reported as <name>.calls and <name>.self_s
REPORTED_SPANS = tuple(
    f"{mod}.{fn}"
    for mod, fn in SPAN_FUNCTIONS
    if fn != "exists_left_component_map"
)

# the 27 check ids of verify_suite, in report order
CHECK_IDS = (
    "first-factor-necessity", "component-kernels", "first-map-laws", "second-map-laws",
    "unit-star-action", "unit-star-restriction", "equivalence-vs-conjugacy",
    "cocycle-kernel-submonoid", "factorization-characterization",
    "kernel-pair-characterization", "subgroup-first-factor", "subgroup-cocycle-bijection",
    "unit-cocycle-bijection", "groupoid-isomorphism", "conjugation-action",
    "semidirect-equivalence", "group-factor-normality", "split-epi-translation",
    "three-way-correspondence", "semidirect-construction", "sections-bijection",
    "unit-z1-second-factors", "h1-component-count", "inner-convolution",
    "inner-convolution-classes", "conical-bound", "restricted-cohomology",
)

SEARCH_FIELDS = ("calls", "solutions", "sweeps", "conflicts", "pins")


def self_times(starts, ends, parents, n_names, names) -> tuple[list[float], list[float], list[int]]:
    """Per-name (self seconds, total seconds, span count) from a span table.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    count = len(starts)
    child = [0.0] * count
    for i in range(count):
        p = parents[i]
        if p >= 0:
            child[p] += ends[i] - starts[i]
    self_s = [0.0] * n_names
    total_s = [0.0] * n_names
    calls = [0] * n_names
    for i in range(count):
        dur = ends[i] - starts[i]
        k = names[i]
        self_s[k] += dur - child[i]
        total_s[k] += dur
        calls[k] += 1
    return self_s, total_s, calls


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for cls in VALIDATED_CLASSES:
        out += [(f"core.{cls}.built", "count"), (f"core.{cls}.validate_s", "s")]
    for span in REPORTED_SPANS:
        out += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    for kind in SEARCH_KINDS.values():
        out += [(f"search.{kind}.{f}", "count") for f in SEARCH_FIELDS]
        out += [
            (f"search.{kind}.self_s", "s"),
            (f"search.{kind}.sweep_s", "s"),
            (f"search.{kind}.useful_ratio", "ratio"),
        ]
    out += [(f"verify.check.{cid}_s", "s") for cid in CHECK_IDS]
    return out


class Tracer:
    """Spans and search counters for one process; install, run, uninstall."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.name_of = array("q")
        self.stack = [-1]
        # kind -> [calls, solutions, sweeps, conflicts, pins, sweep seconds]
        self.search: dict[str, list] = {}
        self.check_marks: list[tuple[str, float]] = []
        self.suite_start: float | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        k = self._name_ids.get(name)
        if k is None:
            k = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return k

    def open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.parents.append(self.stack[-1])
        self.name_of.append(name_id)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self.stack.pop()

    def current(self) -> str | None:
        top = self.stack[-1]
        return None if top < 0 else self.names[self.name_of[top]]

    def span_wrapper(self, name: str, fn):
        name_id = self.name_id(name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def search_wrapper(self, fn):
        kind_ids = {k: self.name_id(f"search.{v}") for k, v in SEARCH_KINDS.items()}
        unknown = self.name_id("search.unknown")
        clock, open_, close = self.clock, self.open, self.close

        def traced(size, pinned, candidates, allowed, sweep, *rest, **kwargs):
            parent = self.current()
            kind = SEARCH_KINDS.get(parent, "unknown")
            stats = self.search.setdefault(kind, [0, 0, 0, 0, 0, 0.0])

            def counted(assign):
                t0 = clock()
                implied = sweep(assign)
                stats[5] += clock() - t0
                stats[2] += 1
                if implied is None:
                    stats[3] += 1
                else:
                    stats[4] += len(implied)
                return implied

            idx = open_(kind_ids.get(parent, unknown))
            try:
                found = fn(size, pinned, candidates, allowed, counted, *rest, **kwargs)
            finally:
                close(idx)
            stats[0] += 1
            stats[1] += len(found)
            return found

        return traced

    def check_result_factory(self, cls):
        def make(check, *args, **kwargs):
            self.check_marks.append((check, self.clock()))
            return cls(check, *args, **kwargs)

        return make

    # -- installation ------------------------------------------------------

    def _rebind_everywhere(self, original, replacement) -> None:
        """Point every monofact.* name bound to ``original`` at ``replacement``."""
        for modname, module in list(sys.modules.items()):
            if modname != "monofact" and not modname.startswith("monofact."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> "Tracer":
        mods = {m: importlib.import_module(f"monofact.{m}") for m in MODULES}
        importlib.import_module("monofact")
        for modname, fn_name in SPAN_FUNCTIONS:
            original = getattr(mods[modname], fn_name)
            wrapper = self.span_wrapper(f"{modname}.{fn_name}", original)
            self._rebind_everywhere(original, wrapper)
        original = mods["search"].search_assignments
        self._rebind_everywhere(original, self.search_wrapper(original))
        for cls_name in VALIDATED_CLASSES:
            cls = getattr(mods["core"], cls_name)
            original = cls.__dict__["__post_init__"]
            self._undo.append((cls, "__post_init__", original))
            cls.__post_init__ = self.span_wrapper(f"core.{cls_name}", original)
        verify = mods["verify"]
        self._undo.append((verify, "CheckResult", verify.CheckResult))
        verify.CheckResult = self.check_result_factory(verify.CheckResult)
        suite = verify.verify_suite

        def mark_suite(*args, **kwargs):
            self.suite_start = self.clock()
            self.check_marks.clear()
            return suite(*args, **kwargs)

        self._rebind_everywhere(suite, mark_suite)
        return self

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def check_seconds(self) -> dict[str, float]:
        """Seconds between consecutive CheckResult creations, by check id.

        The first interval starts when verify_suite is entered, so it also
        holds building the population and the action battery.
        """
        out = {}
        prev = self.suite_start
        for check, t in self.check_marks:
            out[check] = t - prev
            prev = t
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of ``metric_names`` (0 where a layer was idle)."""
        self_s, total_s, calls = self_times(
            self.starts, self.ends, self.parents, len(self.names), self.name_of
        )
        by_name = {n: (self_s[k], total_s[k], calls[k]) for k, n in enumerate(self.names)}
        zero = (0.0, 0.0, 0)
        out: dict[str, float] = {}
        for cls in VALIDATED_CLASSES:
            _, total, n = by_name.get(f"core.{cls}", zero)
            out[f"core.{cls}.built"] = n
            out[f"core.{cls}.validate_s"] = total
        for span in REPORTED_SPANS:
            own, _, n = by_name.get(span, zero)
            out[f"{span}.calls"] = n
            out[f"{span}.self_s"] = own
        for kind in SEARCH_KINDS.values():
            stats = self.search.get(kind, [0, 0, 0, 0, 0, 0.0])
            for field, value in zip(SEARCH_FIELDS, stats):
                out[f"search.{kind}.{field}"] = value
            out[f"search.{kind}.self_s"] = by_name.get(f"search.{kind}", zero)[0]
            out[f"search.{kind}.sweep_s"] = stats[5]
            out[f"search.{kind}.useful_ratio"] = stats[1] / stats[2] if stats[2] else 0.0
        checks = self.check_seconds()
        for cid in CHECK_IDS:
            out[f"verify.check.{cid}_s"] = checks.get(cid, 0.0)
        return out

    def unknown_searches(self) -> int:
        return self.search.get("unknown", [0])[0]

    def write(self, directory: Path) -> None:
        """Dump the span table: names.json plus four raw arrays."""
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "names.json").write_text(json.dumps(self.names))
        for field in ("starts", "ends", "parents", "name_of"):
            with open(directory / f"{field}.{getattr(self, field).typecode}", "wb") as fh:
                getattr(self, field).tofile(fh)
