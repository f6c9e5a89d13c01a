"""Propagation counters of the search engine over a fixed list of calls.

Every search in the package hands ``search_assignments`` a ``sweep``;
wrapping that sweep counts how many times it ran, how many pins it
returned and how many times it found a conflict.  ``counters()`` runs a
fixed call list and totals those counts, with the calls and solutions,
per call entry and per search kind (the function that called the
engine).  ``goldens/search_counters.json`` holds the totals, so a change
to how strongly the engine propagates shows up as a changed count.

Re-record (only when propagation is meant to change) with

    PYTHONPATH=src python tests/search_counters.py
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
from pathlib import Path

# the package re-exports functions named like some of its modules
core, descent, factorization, semidirect, verify = (
    importlib.import_module(f"monofact.{name}")
    for name in ("core", "descent", "factorization", "semidirect", "verify")
)

GOLDEN = Path(__file__).parent / "goldens" / "search_counters.json"

# the modules whose functions call the engine, each through its own import
SEARCH_MODULES = (core, descent, factorization, semidirect, verify)
FIELDS = ("calls", "solutions", "sweeps", "conflicts", "pins")


@contextlib.contextmanager
def counting(totals: dict):
    """Count every search started in the block into ``totals[kind]``."""
    original = core.search_assignments

    def counted_search(size, pinned, candidates, allowed, sweep, *rest, **kwargs):
        kind = sys._getframe(1).f_code.co_name
        stats = totals.setdefault(kind, dict.fromkeys(FIELDS, 0))

        def counted(assign):
            implied = sweep(assign)
            stats["sweeps"] += 1
            if implied is None:
                stats["conflicts"] += 1
            else:
                stats["pins"] += len(implied)
            return implied

        found = original(size, pinned, candidates, allowed, counted, *rest, **kwargs)
        stats["calls"] += 1
        stats["solutions"] += len(found)
        return found

    for module in SEARCH_MODULES:
        module.search_assignments = counted_search
    try:
        yield
    finally:
        for module in SEARCH_MODULES:
            module.search_assignments = original


def _call_list():
    """(entry name, thunk) pairs; inputs are built before any counting starts."""
    population = verify._population(3, True)
    small = [M for _, M in population]
    subs = [(M, core.enumerate_submonoids(M)) for M in small]
    battery = [act for _, act in verify._actions(verify._battery_pairs(population))]
    products = [semidirect.semidirect(act.acted, act, act.actor) for act in battery]
    labelled = [(core.enumerate_monoids(n), core.enumerate_monoids(n, True)) for n in (1, 2, 3)]

    def homs():
        for M in small:
            core.enumerate_homs(M, M)

    def cocycles():
        for act in battery:
            semidirect.z1(act)
            semidirect.z1(act, unit_valued=True)

    def sections():
        for sd in products:
            semidirect.sections(sd)

    def descent_cocycles():
        for M, lattice in subs:
            for A in lattice:
                descent.enumerate_descent_cocycles(M, A, "left")
                descent.enumerate_descent_cocycles(M, A, "right")

    def component_maps():
        for M, lattice in subs:
            for A in lattice:
                for B in lattice:
                    factorization.exists_left_component_map(M, A, B)
                    factorization.exists_right_component_map(M, A, B)

    def kernel_pair_maps():
        for M, lattice in subs:
            for A in lattice:
                for B in lattice:
                    verify._bicross_accepted(M, A, B)

    def retractions():
        for M, lattice in subs:
            for S in lattice:
                verify._retractions(M, S)

    def isomorphisms():
        for tables, classes in labelled:
            for M in tables:
                for N in classes:
                    core.find_isomorphism(M, N)

    return [
        (f"enumerate_monoids({n})", lambda n=n: core.enumerate_monoids(n)) for n in (1, 2, 3, 4)
    ] + [
        ("enumerate_homs(M, M), order <= 3 + catalog", homs),
        ("z1, order-3 battery", cocycles),
        ("sections, order-3 battery", sections),
        ("descent cocycles, order <= 3 + catalog", descent_cocycles),
        ("component maps, order <= 3 + catalog", component_maps),
        ("kernel-pair component maps, order <= 3 + catalog", kernel_pair_maps),
        ("find_isomorphism, order <= 3 tables against classes", isomorphisms),
        ("retractions, order <= 3 + catalog", retractions),
    ]


def counters() -> dict:
    """Per call entry, per search kind, the totals of FIELDS."""
    out = {}
    for name, run in _call_list():
        totals: dict = {}
        with counting(totals):
            run()
        out[name] = dict(sorted(totals.items()))
    return out


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(counters(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
