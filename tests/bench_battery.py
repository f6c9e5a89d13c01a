"""Cost of verify's action battery at order 4 + catalog, as one JSON object.

The battery replays every semidirect product A ⋊ B of the population, so
its cost per action splits into a part that grows with |A|·|B| and a
fixed part: value-object builds, first reads of cached properties and
guarded calls.  One process, pinned to one CPU, runs the in-process
driver ``verify._run_checks`` three times over the same population:

1. with counters on the value-object constructors and on
   ``functools.cached_property`` first reads, by class and attribute;
   this run comes first, so that the population's own cached fields
   are counted too;
2. plain: ``wall_s`` for the whole driver;
3. with timers on each action check and around each action unit:
   seconds per action check, and µs per action keyed "|A|x|B|" (the
   unit's build and its checks; an action that starts a new pair also
   carries the pair's hom search).

It also reports the units of each kind that the population names and
those the driver judges: a monoid or battery pair that the population
repeats (a catalog monoid equal to a generated class) is judged once.

Run with

    PYTHONPATH=src python tests/bench_battery.py

Only the standard library is used; pytest does not collect this file.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import os
import platform
import sys
import time

# the package re-exports functions named like some of its modules
core, semidirect, verify = (
    importlib.import_module(f"monofact.{name}") for name in ("core", "semidirect", "verify")
)

BUILT = (core.FiniteMonoid, core.SubMonoid, core.ElementMap, semidirect.MonoidAction)


def pin_one_cpu() -> None:
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except AttributeError:  # no affinity masks on this platform
        pass


def plain_run(pop) -> float:
    start = time.perf_counter()
    verify._run_checks(pop)
    return time.perf_counter() - start


def timed_run(pop) -> dict:
    """Seconds per action check, and µs per action grouped by |A| and |B|."""
    check_s = collections.Counter()
    action_s, actions = collections.Counter(), collections.Counter()

    def timed(check_id, check):
        def run(unit):
            start = time.perf_counter()
            try:
                return check(unit)
            finally:
                check_s[check_id] += time.perf_counter() - start

        return run

    def timed_units(pair, cache):
        found = iter(units["action"](pair, cache))
        while True:
            start = time.perf_counter()
            unit = next(found, None)
            if unit is None:
                return
            yield unit
            # resumed once every check has read this unit
            key = f"{unit.act.acted.size}x{unit.act.actor.size}"
            action_s[key] += time.perf_counter() - start
            actions[key] += 1

    checks, units = verify._CHECKS, verify._UNITS
    verify._CHECKS = tuple(
        (i, kind, timed(i, fn) if kind == "action" else fn) for i, kind, fn in checks
    )
    verify._UNITS = {**units, "action": timed_units}
    try:
        verify._run_checks(pop)
    finally:
        verify._CHECKS, verify._UNITS = checks, units
    return {
        "actions": sum(actions.values()),
        "action_check_s": {i: round(s, 4) for i, s in check_s.items()},
        "us_per_action": {
            key: {"actions": actions[key], "us": round(1e6 * action_s[key] / actions[key], 1)}
            for key in sorted(actions, key=lambda k: tuple(map(int, k.split("x"))))
        },
    }


def unit_counts(pop) -> dict:
    """Units per kind: named in the population, and judged (each content once)."""
    judged = dict(verify._shards(pop, 1))  # one shard per kind: its distinct items
    out = {}
    for kind, items in verify._kinds(pop):
        cache = {}
        units = {item[1::2]: sum(1 for _ in verify._UNITS[kind](item, cache)) for item in judged[kind]}
        out[kind] = {
            "named": sum(units[item[1::2]] for item in items),
            "judged": sum(units.values()),
        }
    return out


def counted_run(pop) -> dict:
    """Constructor builds per class and cached_property first reads per attribute."""
    builds = collections.Counter()
    reads = collections.Counter()
    originals = {cls: cls.__post_init__ for cls in BUILT}
    get = functools.cached_property.__get__

    def counting_init(cls, init):
        def post_init(self):
            builds[cls.__name__] += 1
            init(self)

        return post_init

    def counting_get(self, instance, owner=None):
        # the value lands in the instance's __dict__, which shadows this
        # descriptor, so every call on an instance is a first read
        if instance is not None:
            reads[f"{type(instance).__name__}.{self.attrname}"] += 1
        return get(self, instance, owner)

    for cls, init in originals.items():
        cls.__post_init__ = counting_init(cls, init)
    functools.cached_property.__get__ = counting_get
    try:
        verify._run_checks(pop)
    finally:
        functools.cached_property.__get__ = get
        for cls, init in originals.items():
            cls.__post_init__ = init
    return {
        "builds": {cls.__name__: builds[cls.__name__] for cls in BUILT},
        "cached_property_first_reads": sum(reads.values()),
        "cached_property_by_attribute": dict(reads.most_common()),
    }


def main() -> None:
    pin_one_cpu()
    pop = verify._population(4, True)
    counts = counted_run(pop)
    wall = plain_run(pop)
    out = {
        "population": "generated <= 4 + catalog",
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "wall_s": round(wall, 3),
        "units": unit_counts(pop),
        **timed_run(pop),
        **counts,
    }
    json.dump(out, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
