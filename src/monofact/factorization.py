"""Monoid factorizations (A, B) and their component maps.

A factorization presents every element uniquely as a product of an
``A``-part and a ``B``-part; the two component maps are tabulated by
inverting the multiplication map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .core import (
    ElementMap,
    FiniteMonoid,
    ParentMismatch,
    SubMonoid,
    _closed_subsets,
    enumerate_submonoids,
    zero_map,
)
from .search import search_assignments


@dataclass(frozen=True)
class Factorization:
    """Submonoids (first, second) of parent with the component maps.

    ``to_first(m) * to_second(m) = m`` is the unique such decomposition.
    """

    parent: FiniteMonoid
    first: SubMonoid
    second: SubMonoid
    to_first: ElementMap
    to_second: ElementMap

    def __repr__(self) -> str:
        return f"Factorization({self.first.members}, {self.second.members})"


@dataclass(frozen=True)
class FactorizationFailure:
    """Why a pair (A, B) fails to factorize, with a replayable witness."""

    kind: str  # "cardinality" or "injectivity"
    witness: tuple
    uncovered: int | None = None  # an element missed by the product map, if any


def factorization_attempt(
    M: FiniteMonoid, A: SubMonoid, B: SubMonoid
) -> Union[Factorization, FactorizationFailure]:
    """Invert the product map A x B -> M, or explain why it is not bijective."""
    if A.parent != M or B.parent != M:
        raise ParentMismatch("factors must be submonoids of the monoid being factorized")
    n = M.size
    if len(A) * len(B) != n:
        return FactorizationFailure("cardinality", (len(A), len(B), n))
    table = M.table
    parts: list[tuple[int, int] | None] = [None] * n
    clash = None
    for a in A.members:
        row = table[a]
        for b in B.members:
            m = row[b]
            if parts[m] is None:
                parts[m] = (a, b)
            elif clash is None:
                clash = (parts[m], (a, b), m)
    if clash is not None:
        uncovered = next((m for m in range(n) if parts[m] is None), None)
        return FactorizationFailure("injectivity", clash, uncovered)
    to_first = ElementMap(M, A, tuple(p[0] for p in parts))
    to_second = ElementMap(M, B, tuple(p[1] for p in parts))
    return Factorization(M, A, B, to_first, to_second)


def try_factorization(M: FiniteMonoid, A: SubMonoid, B: SubMonoid) -> Factorization | None:
    """The factorization through (A, B) if the product map is bijective."""
    result = factorization_attempt(M, A, B)
    return result if isinstance(result, Factorization) else None


def enumerate_factorizations(M: FiniteMonoid) -> list[Factorization]:
    """All factorizations, sorted by (first.members, second.members)."""
    subs = enumerate_submonoids(M)
    out = []
    for A in subs:
        for B in subs:
            fac = try_factorization(M, A, B)
            if fac is not None:
                out.append(fac)
    out.sort(key=lambda f: (f.first.members, f.second.members))
    return out


def fac_over(M: FiniteMonoid, A: SubMonoid) -> list[SubMonoid]:
    """All second factors pairing with the fixed first factor ``A``.

    A second factor B has ``|M| / |A|`` elements and ``A x B -> M`` is injective,
    also on every submonoid of B; the walk prunes on both.
    """
    if A.parent != M:
        raise ParentMismatch("first factor must be a submonoid of the monoid")
    n = M.size
    if n % len(A):
        return []
    k = n // len(A)
    if k == n:  # A = {e}: M itself is the only n-element candidate
        candidates = [M.members]
    else:
        rows = [M.table[a] for a in A.members]

        def injective(S: list[int]) -> bool:
            return len({row[s] for row in rows for s in S}) == len(rows) * len(S)

        candidates = sorted(ms for ms in _closed_subsets(M, k, injective) if len(ms) == k)
    partners = (SubMonoid(M, ms) for ms in candidates)
    return [B for B in partners if try_factorization(M, A, B) is not None]


def first_factor_filter(
    M: FiniteMonoid, A: SubMonoid
) -> tuple[bool, tuple[int, int] | None]:
    """Necessary first-factor test: a*m inside A forces m inside A.

    Returns (True, None) or (False, (a, m)) with the first witness.
    Necessary but not sufficient for A to admit a second factor.
    """
    if A.parent != M:
        raise ParentMismatch("subset must be a submonoid of the monoid")
    inside = A.member_set
    for a in A.members:
        row = M.table[a]
        for m in M.elements():
            if row[m] in inside and m not in inside:
                return False, (a, m)
    return True, None


def second_factor_filter(
    M: FiniteMonoid, B: SubMonoid
) -> tuple[bool, tuple[int, int] | None]:
    """Mirrored necessary test for second factors: m*b inside B forces m inside B."""
    if B.parent != M:
        raise ParentMismatch("subset must be a submonoid of the monoid")
    inside = B.member_set
    for b in B.members:
        for m in M.elements():
            if M.table[m][b] in inside and m not in inside:
                return False, (b, m)
    return True, None


def left_component_ok(M: FiniteMonoid, A: SubMonoid, B: SubMonoid, f: ElementMap) -> bool:
    """The first map's one-sided conditions: f(b) = e on B, f(a*m) = a*f(m) on A x M."""
    if any(f(b) != M.identity for b in B.members):
        return False
    table = M.table
    values = [f(m) for m in M.elements()]
    return all(
        values[table[a][m]] == table[a][values[m]] for a in A.members for m in M.elements()
    )


def right_component_ok(M: FiniteMonoid, A: SubMonoid, B: SubMonoid, g: ElementMap) -> bool:
    """The second map's one-sided conditions: g(a) = e on A, g(m*b) = g(m)*b on M x B."""
    if any(g(a) != M.identity for a in A.members):
        return False
    table = M.table
    values = [g(m) for m in M.elements()]
    return all(
        values[table[m][b]] == table[values[m]][b] for b in B.members for m in M.elements()
    )


def separates_points(M: FiniteMonoid, f: ElementMap, g: ElementMap) -> bool:
    """m -> (f(m), g(m)) is injective."""
    return len({(f(m), g(m)) for m in M.elements()}) == M.size


def verify_bicross(
    M: FiniteMonoid,
    A: SubMonoid,
    B: SubMonoid,
    to_first: ElementMap,
    to_second: ElementMap,
) -> bool:
    """Kernel-pair characterization of factorizations.

    True iff the first map is left A-equivariant, the second right
    B-equivariant, each collapses the other factor to the identity, and
    the two maps jointly separate points.
    """
    return (
        left_component_ok(M, A, B, to_first)
        and right_component_ok(M, A, B, to_second)
        and separates_points(M, to_first, to_second)
    )


def set_product_is_all(M: FiniteMonoid, A: SubMonoid, B: SubMonoid) -> bool:
    """Whether the set product A*B covers every element of M."""
    table = M.table
    covered = {table[a][b] for a in A.members for b in B.members}
    return len(covered) == M.size


def exists_left_component_map(M: FiniteMonoid, A: SubMonoid, B: SubMonoid) -> bool:
    """Is there a left A-equivariant map M -> A whose kernel is exactly B?

    Backtracking with the kernel prescription as a per-element domain
    restriction; existence only.
    """
    n = M.size
    e = M.identity
    table = M.table
    a_members = A.members
    in_b = B.member_set
    candidates = []
    allowed = []
    non_identity = [a for a in a_members if a != e]
    for m in range(n):
        if m in in_b:
            candidates.append([e])
            allowed.append(frozenset((e,)))
        else:
            candidates.append(non_identity)
            allowed.append(frozenset(non_identity))

    def sweep(assign: list) -> list[tuple[int, int]] | None:
        pins = []
        for a in a_members:
            row = table[a]
            for m in range(n):
                fm = assign[m]
                if fm is None:
                    continue
                target, val = row[m], row[fm]
                cur = assign[target]
                if cur is None:
                    pins.append((target, val))
                elif cur != val:
                    return None
        return pins

    return bool(search_assignments(n, [(e, e)], candidates, allowed, sweep, first_only=True))


def exists_right_component_map(M: FiniteMonoid, A: SubMonoid, B: SubMonoid) -> bool:
    """Mirror of the left search: right B-equivariant map M -> B with kernel A."""
    from .core import opposite  # local to avoid a wide import surface

    Mop = opposite(M)
    return exists_left_component_map(
        Mop, SubMonoid(Mop, B.members), SubMonoid(Mop, A.members)
    )


def characterize_factorization(M: FiniteMonoid, A: SubMonoid, B: SubMonoid) -> bool:
    """Equivalent conditions for (A, B) to factorize M, checked independently.

    Set product covers M, and equivariant component maps with prescribed
    kernels exist on both sides.  Agrees with try_factorization.
    """
    return (
        set_product_is_all(M, A, B)
        and exists_left_component_map(M, A, B)
        and exists_right_component_map(M, A, B)
    )
