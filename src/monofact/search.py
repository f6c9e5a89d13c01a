"""Backtracking over partial assignments with constraint propagation.

Every enumeration in this package (homomorphisms, isomorphisms,
cocycles, sections, component maps, small Cayley tables) is a search
for total maps ``position -> value`` subject to equational constraints.
The engine below assigns free positions in index order, and after every
placement runs a caller supplied ``sweep(assign)``: None reports a
conflict, else it returns the ``(position, value)`` pins the assignment
forces.  Solutions come out in lexicographic order of the full value
tuple, which is the canonical order used throughout.

Callers declare their equation with a sweep builder: ``product_rule``
for ``f(prod[i][j]) = table[f(i)][twist[i][f(j)]]`` (homomorphisms,
isomorphisms and sections with identity twist, 1-cocycles twisted by
the action) and ``equivariance_rule`` for ``f(row[m]) = row[f(m)]``
(component maps and descent cocycles).  Only the scan is shared, so
routes that verify cross-checks keep their own equations.  The sweep
stays a plain callable argument so that a caller can wrap it, e.g. to
count sweeps, pins and conflicts, without the engine knowing.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

# sweep(assign) -> None on conflict, else implied (position, value) pins
Sweep = Callable[[list], "list[tuple[int, int]] | None"]
Table = Sequence[Sequence[int]]


def search_assignments(
    size: int,
    pinned: Iterable[tuple[int, int]],
    candidates: Sequence[Sequence[int]],
    allowed: Sequence[frozenset[int]],
    sweep: Sweep,
    first_only: bool = False,
) -> list[tuple[int, ...]]:
    """All total assignments extending ``pinned`` that survive ``sweep``.

    ``candidates[p]`` is the ordered branching domain for position ``p``;
    ``allowed[p]`` additionally vets values forced by propagation.
    """
    assign: list[int | None] = [None] * size
    trail: list[int] = []
    if not _settle(assign, trail, list(pinned), allowed, sweep):
        return []
    out: list[tuple[int, ...]] = []
    _extend(assign, 0, candidates, allowed, sweep, out, first_only)
    return out


def _settle(
    assign: list,
    trail: list[int],
    pending: list[tuple[int, int]],
    allowed: Sequence[frozenset[int]],
    sweep: Sweep,
) -> bool:
    """Place ``pending`` pins and propagate to a fixpoint; False on conflict."""
    while True:
        for pos, val in pending:
            cur = assign[pos]
            if cur is not None:
                if cur != val:
                    return False
                continue
            if val not in allowed[pos]:
                return False
            assign[pos] = val
            trail.append(pos)
        implied = sweep(assign)
        if implied is None:
            return False
        # only pins that change something go round again, so this ends
        pending = [(p, v) for p, v in implied if assign[p] != v]
        if not pending:
            return True


def _extend(
    assign: list,
    start: int,
    candidates: Sequence[Sequence[int]],
    allowed: Sequence[frozenset[int]],
    sweep: Sweep,
    out: list[tuple[int, ...]],
    first_only: bool,
) -> bool:
    pos = start
    while pos < len(assign) and assign[pos] is not None:
        pos += 1
    if pos == len(assign):
        out.append(tuple(assign))
        return first_only
    for val in candidates[pos]:
        trail: list[int] = []
        if _settle(assign, trail, [(pos, val)], allowed, sweep):
            if _extend(assign, pos + 1, candidates, allowed, sweep, out, first_only):
                for p in trail:
                    assign[p] = None
                return True
        for p in trail:
            assign[p] = None
    return False


def product_rule(prod: Table, table: Table, twist: Table) -> Sweep:
    """Sweep for ``f(prod[i][j]) = table[f(i)][twist[i][f(j)]]`` at assigned i, j."""

    def sweep(assign: list) -> list[tuple[int, int]] | None:
        pins = []
        known = [i for i, v in enumerate(assign) if v is not None]
        for i in known:
            row, targets, tw = table[assign[i]], prod[i], twist[i]
            for j in known:
                target, val = targets[j], row[tw[assign[j]]]
                cur = assign[target]
                if cur is None:
                    pins.append((target, val))
                elif cur != val:
                    return None
        return pins

    return sweep


def equivariance_rule(rows: Table) -> Sweep:
    """Sweep for ``f(row[m]) = row[f(m)]`` at every row and assigned m."""

    def sweep(assign: list) -> list[tuple[int, int]] | None:
        pins = []
        for row in rows:
            for m, fm in enumerate(assign):
                if fm is None:
                    continue
                target, val = row[m], row[fm]
                cur = assign[target]
                if cur is None:
                    pins.append((target, val))
                elif cur != val:
                    return None
        return pins

    return sweep

