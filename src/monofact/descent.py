"""Descent 1-cocycles, the unit-group action on them, and their cohomology.

A left cocycle into a submonoid A fixes A pointwise, is left
A-equivariant, and absorbs its own values on the right.  The unit group
of A acts on the set of cocycles; orbits form the descent cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .core import (
    ElementMap,
    FiniteMonoid,
    MonoidError,
    NotInvertible,
    ParentMismatch,
    SizeBoundExceeded,
    SubMonoid,
    inverse_in,
    is_subgroup,
    units,
)
from .factorization import Factorization, _require_map, try_factorization
from .search import equivariance_rule, search_assignments


class NotASubgroup(MonoidError):
    """The first factor was required to be a subgroup."""


class NotACocycle(MonoidError):
    """The supplied map violates the cocycle conditions."""


class NotAFactorization(MonoidError):
    """The supplied pair of submonoids does not factorize the monoid."""


class NotAnAction(MonoidError):
    """The supplied data is not a group action on the objects."""


@dataclass(frozen=True)
class DescentCocycle:
    """A left or right descent 1-cocycle, stored as its value table."""

    underlying: ElementMap
    side: str  # "left" or "right"

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")

    def __call__(self, m: int) -> int:
        return self.underlying(m)

    @property
    def values(self) -> tuple[int, ...]:
        return self.underlying.values

    def __repr__(self) -> str:
        return f"DescentCocycle({self.values}, {self.side})"


@dataclass(frozen=True)
class CohomologyClasses:
    """An orbit/equivalence partition of cocycle-like objects.

    ``witnesses`` holds replayable triples (source index, unit, target
    index): acting by the unit carries the source object to the target.
    The base class, when defined, is the class of the canonical object.
    """

    objects: tuple
    class_of: tuple[int, ...]
    representatives: tuple
    witnesses: tuple[tuple[int, int, int], ...]
    base_class: int | None = None

    @property
    def class_count(self) -> int:
        return len(self.representatives)

    def classes(self) -> tuple[tuple[int, ...], ...]:
        grouped: dict[int, list[int]] = {}
        for i, c in enumerate(self.class_of):
            grouped.setdefault(c, []).append(i)
        return tuple(tuple(grouped[c]) for c in sorted(grouped))


Violation = tuple[str, tuple]

_COCYCLE_DOMAIN_LIMIT = 24


def is_descent_cocycle(
    M: FiniteMonoid, A: SubMonoid, q: ElementMap, side: str = "left"
) -> tuple[bool, Violation | None]:
    """Check the three cocycle conditions pointwise; first violation wins.

    Line k is row k of M on the left and column k on the right, so on both
    sides the laws read q(line[m]) = line[q(m)] for k in A and q(line[m]) =
    q(line[q(m)]) for k in M.  The witness is the failing pair that comes
    first with its factors in product order.
    """
    if A.parent != M:
        raise ParentMismatch("coefficient submonoid belongs to a different monoid")
    _require_map(q, M, A)
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    left = side == "left"
    label, lines = ("L", M.table) if left else ("R", M.columns)
    elements = M.elements()
    f = [q(m) for m in elements]
    for a in A.members:
        if f[a] != a:
            return False, (label + "1", (a,))
    for law, ks, outer in ((2, A.members, elements), (3, elements, f)):
        failures = []
        for k in ks:
            line = lines[k]
            for m in elements:
                if f[line[m]] != outer[line[f[m]]]:
                    failures.append((k, m) if left else (m, k))
                    break
        if failures:
            return False, (f"{label}{law}", min(failures))
    return True, None


def enumerate_descent_cocycles(
    M: FiniteMonoid, A: SubMonoid, side: str = "left"
) -> list[DescentCocycle]:
    """All descent 1-cocycles M -> A, in lexicographic value order.

    A right law reads ``M.columns``, which are the rows of the opposite
    monoid: both sides run the same sweeps, on rows or on columns.
    """
    if A.parent != M:
        raise ParentMismatch("coefficient submonoid belongs to a different monoid")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if M.size > _COCYCLE_DOMAIN_LIMIT:
        raise SizeBoundExceeded(
            f"descent cocycle search capped at order {_COCYCLE_DOMAIN_LIMIT}"
        )
    n = M.size
    table = M.table if side == "left" else M.columns
    a_members = A.members
    candidates = [list(a_members)] * n
    allowed = [frozenset(a_members)] * n
    pinned = [(a, a) for a in a_members]

    # A-equivariance pins q(a*m) (on columns, q(m*a)) from q(m)
    equivariant = equivariance_rule([table[a] for a in a_members])

    def sweep(assign: list) -> list[tuple[int, int]] | None:
        pins = equivariant(assign)
        if pins is None:
            return None
        # q(m1*m2) = q(m1*q(m2)) links two positions once q(m2) is known (on columns,
        # q(m2*m1) = q(q(m2)*m1))
        for m2 in range(n):
            q2 = assign[m2]
            if q2 is None:
                continue
            for m1 in range(n):
                row = table[m1]
                t1, t2 = row[m2], row[q2]
                v1, v2 = assign[t1], assign[t2]
                if v1 is None:
                    if v2 is not None:
                        pins.append((t1, v2))
                elif v2 is None:
                    pins.append((t2, v1))
                elif v1 != v2:
                    return None
        return pins

    solutions = search_assignments(n, pinned, candidates, allowed, sweep)
    return [DescentCocycle(ElementMap(M, A, values), side) for values in solutions]


def star_act(a0: int, q: DescentCocycle) -> DescentCocycle:
    """The unit a0 acting on a left cocycle: m maps to q(m*a0)*a0^{-1}."""
    if q.side != "left":
        raise ValueError("the unit action is defined on left cocycles")
    M = q.underlying.domain
    A = q.underlying.codomain
    if a0 not in A.member_set:
        raise NotInvertible(f"{a0} is not an element of the coefficient submonoid")
    inv = inverse_in(A, a0)  # raises NotInvertible outside U(A)
    table = M.table
    values = tuple(table[q(table[m][a0])][inv] for m in M.elements())
    return DescentCocycle(ElementMap(M, A, values), "left")


def cocycle_kernel(q: DescentCocycle) -> SubMonoid:
    """Preimage of the identity; always a submonoid, a subgroup when M is a group."""
    M = q.underlying.domain
    e = M.identity
    members = tuple(m for m in M.elements() if q(m) == e)
    return SubMonoid(M, members)


def fac_from_subgroup_cocycle(
    M: FiniteMonoid, L: SubMonoid, q: DescentCocycle
) -> Factorization:
    """Factorization (L, Ker q) built from a cocycle into a subgroup L.

    The second component map sends m to q(m)^{-1} * m.
    """
    if not is_subgroup(M, L):
        raise NotASubgroup(f"{L.members} is not a subgroup")
    ok, violation = is_descent_cocycle(M, L, q.underlying, "left")
    if q.side != "left" or not ok:
        raise NotACocycle(f"not a left descent cocycle: {violation}")
    kernel = cocycle_kernel(q)
    table = M.table
    second_values = tuple(table[inverse_in(L, q(m))][m] for m in M.elements())
    to_second = ElementMap(M, kernel, second_values)
    return Factorization(M, L, kernel, q.underlying, to_second)


def unit_valued_cocycles(
    M: FiniteMonoid, A: SubMonoid, B: SubMonoid
) -> list[DescentCocycle]:
    """Left cocycles whose values on the second factor B are units of A."""
    return _unit_valued(M, A, B)[0]


def _unit_valued(M: FiniteMonoid, A: SubMonoid, B: SubMonoid) -> tuple[list, Factorization]:
    """``unit_valued_cocycles`` with the factorization of (A, B) it inverted."""
    fac = try_factorization(M, A, B)
    if fac is None:
        raise NotAFactorization(f"({A.members}, {B.members}) does not factorize the monoid")
    unit_set = units(A).member_set
    cocycles = [
        q
        for q in enumerate_descent_cocycles(M, A, "left")
        if all(q(b) in unit_set for b in B.members)
    ]
    return cocycles, fac


def conjugate_second_factor(a0: int, B: SubMonoid) -> SubMonoid:
    """The conjugate a0 * B * a0^{-1} by a unit a0."""
    M = B.parent
    inv = inverse_in(M, a0)
    table = M.table
    members = tuple(sorted(table[table[a0][b]][inv] for b in B.members))
    return SubMonoid(M, members)


def _orbit_classes(
    objects: Sequence,
    keys: Sequence,
    group: Sequence[int],
    image: Callable[[int, int], object],
    base_index: int | None = None,
) -> CohomologyClasses:
    """Orbits of a group action on ``objects``, with every morphism as a witness.

    ``keys[i]`` identifies ``objects[i]`` and ``image(g, i)`` is the key of
    the object that g carries it to.  The orbit of an object under a group
    is its set of images, so each class is the image set of its least
    member, and classes are numbered in that order.  A morphism that leaves
    its class cannot come from a group action and raises NotAnAction.  The
    base class, if any, is the class of ``objects[base_index]``.
    """
    index = {key: i for i, key in enumerate(keys)}
    class_of: list[int | None] = [None] * len(keys)
    representatives = []
    witnesses = []
    for i, key in enumerate(keys):
        targets = []
        for g in group:
            j = index.get(image(g, i))
            if j is None:
                raise NotAnAction(f"action escapes the object set at ({g}, {key!r})")
            targets.append(j)
        new = class_of[i] is None
        if new:
            class_of[i] = len(representatives)
            representatives.append(objects[i])
        c = class_of[i]
        for g, j in zip(group, targets):
            if new and class_of[j] is None:
                class_of[j] = c
            elif class_of[j] != c:
                raise NotAnAction(f"not a group action: ({g}, {key!r}) leaves its orbit")
            witnesses.append((i, g, j))
    base_class = class_of[base_index] if base_index is not None else None
    return CohomologyClasses(
        tuple(objects), tuple(class_of), tuple(representatives), tuple(witnesses), base_class
    )


def _carries(source: CohomologyClasses, target: CohomologyClasses, image: Sequence[int]) -> bool:
    """Whether object i -> object image[i] induces a bijection of the classes."""
    # it does iff the pairs (class of i, class of image[i]) number as many as
    # each side's classes and reach every target class
    pairs = {(c, target.class_of[j]) for c, j in zip(source.class_of, image)}
    return len(pairs) == source.class_count == target.class_count == len({t for _, t in pairs})


def descent_cohomology(
    M: FiniteMonoid, A: SubMonoid, restrict_unit_on: SubMonoid | None = None
) -> CohomologyClasses:
    """Orbits of the unit-group action on the left cocycles into A.

    With ``restrict_unit_on=B`` the orbits are taken on the unit-valued
    subset and pointed by the class of the component map of (A, B).
    """
    if restrict_unit_on is None:
        cocycles = enumerate_descent_cocycles(M, A, "left")
    else:  # raises NotAFactorization unless (A, B) factorizes
        cocycles, fac = _unit_valued(M, A, restrict_unit_on)
    keys = [q.values for q in cocycles]
    base_index = None
    if restrict_unit_on is not None:
        if fac.to_first.values not in keys:
            raise MonoidError(f"{fac}: the component map is not a unit-valued cocycle")
        base_index = keys.index(fac.to_first.values)
    image = lambda a0, i: star_act(a0, cocycles[i]).values
    return _orbit_classes(cocycles, keys, units(A).members, image, base_index)


def groupoid_components(
    objects: Iterable,
    acting_group: SubMonoid,
    action: Callable[[int, object], object],
) -> CohomologyClasses:
    """The action groupoid of a unit-group action, as its orbit classes.

    Verifies the action axioms (identity acts trivially, composition is
    respected) before recording morphisms.  The ``witnesses`` are the
    morphisms and ``classes()`` the components.
    """
    objs = tuple(objects)
    parent = acting_group.parent
    if not is_subgroup(parent, acting_group):
        raise NotAnAction("the acting submonoid is not a group")
    e = parent.identity
    table = parent.table
    images = {e: [action(e, x) for x in objs]}
    for x, y in zip(objs, images[e]):
        if y != x:
            raise NotAnAction(f"identity moves {x!r}")
    for g in acting_group.members:
        if g != e:
            images[g] = [action(g, x) for x in objs]
    index = {x: i for i, x in enumerate(objs)}
    positions = {g: [index.get(y) for y in row] for g, row in images.items()}
    for g1 in acting_group.members:
        row1 = images[g1]
        for g2 in acting_group.members:
            row12, row2, pos2 = images[table[g1][g2]], images[g2], positions[g2]
            for i, x in enumerate(objs):
                # an image outside the objects is not tabulated: act on it directly
                j = pos2[i]
                if row12[i] != (action(g1, row2[i]) if j is None else row1[j]):
                    raise NotAnAction(f"composition fails at ({g1}, {g2}, {x!r})")
    return _orbit_classes(objs, objs, acting_group.members, lambda g, i: images[g][i])
