"""Monoid factorizations (A, B) and their component maps.

A factorization presents every element uniquely as a product of an
``A``-part and a ``B``-part; the two component maps are tabulated by
inverting the multiplication map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, Union

from .core import (
    ElementMap,
    FiniteMonoid,
    ParentMismatch,
    SubMonoid,
    _Carrier,
    _closed_subsets,
    enumerate_submonoids,
)
from .search import equivariance_rule, search_assignments


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
    _require_factors(M, A, B)
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
    return [try_factorization(M, A, B) for A, B in _factorizations(M, enumerate_submonoids(M))]


def _factorizations(M: FiniteMonoid, subs: Sequence[SubMonoid]) -> Iterator[tuple]:
    """The pairs (A, B) of the submonoids ``subs`` that factorize M, in member order.

    Each A is tried, by its partner test, only against the submonoids of
    |M| / |A| elements.
    """
    subs = sorted(subs, key=lambda S: S.members)
    by_size: dict[int, list[SubMonoid]] = {}
    for B in subs:
        by_size.setdefault(len(B), []).append(B)
    for A in subs:
        k, rest = divmod(M.size, len(A))
        if not rest:
            partner = _partner_test(M, A)
            yield from ((A, B) for B in by_size.get(k, ()) if partner(B.members))


def _partner_test(M: FiniteMonoid, A: SubMonoid) -> Callable[[Sequence[int]], bool]:
    """Whether ``A x S -> M`` is injective on the members S of a subset.

    An injective map between sets of |M| elements is a bijection, so when
    |A| |S| = |M| the test says that (A, S) factorizes M.
    """
    rows = _rows(M, A)
    return lambda S: len({row[s] for row in rows for s in S}) == len(rows) * len(S)


def fac_over(M: FiniteMonoid, A: SubMonoid) -> list[SubMonoid]:
    """All second factors pairing with the fixed first factor ``A``.

    A second factor B has ``|M| / |A|`` elements and passes A's partner
    test, as does every submonoid of B; the walk prunes on both.
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
        walk = _closed_subsets(M, k, _partner_test(M, A))
        candidates = sorted(ms for ms in walk if len(ms) == k)
    return [SubMonoid(M, ms) for ms in candidates]


def _rows(M: FiniteMonoid, S: SubMonoid) -> list:
    """The left translations x -> s*x of M by the members s of S."""
    return [M.table[s] for s in S.members]


def _columns(M: FiniteMonoid, S: SubMonoid) -> list:
    """The right translations x -> x*s, so g(x*s) = g(x)*s reads g(col[x]) = col[g(x)]."""
    return [M.columns[s] for s in S.members]


def _absorption(S: SubMonoid, lines: list) -> tuple[bool, tuple[int, int] | None]:
    """(False, (s, m)) for the first m outside S that the line of s maps into S."""
    inside = S.member_set
    for s, line in zip(S.members, lines):
        for m, sm in enumerate(line):
            if sm in inside and m not in inside:
                return False, (s, m)
    return True, None


def first_factor_filter(
    M: FiniteMonoid, A: SubMonoid
) -> tuple[bool, tuple[int, int] | None]:
    """Necessary first-factor test: a*m inside A forces m inside A.

    Returns (True, None) or (False, (a, m)) with the first witness.
    Necessary but not sufficient for A to admit a second factor.
    """
    if A.parent != M:
        raise ParentMismatch("subset must be a submonoid of the monoid")
    return _absorption(A, _rows(M, A))


def second_factor_filter(
    M: FiniteMonoid, B: SubMonoid
) -> tuple[bool, tuple[int, int] | None]:
    """Mirrored necessary test for second factors: m*b inside B forces m inside B."""
    if B.parent != M:
        raise ParentMismatch("subset must be a submonoid of the monoid")
    return _absorption(B, _columns(M, B))


def _require_factors(M: FiniteMonoid, A: SubMonoid, B: SubMonoid) -> None:
    """Raise ParentMismatch unless A and B are submonoids of M."""
    if A.parent != M or B.parent != M:
        raise ParentMismatch("factors must be submonoids of the monoid being factorized")


def _require_map(f: ElementMap, domain: _Carrier, codomain: _Carrier) -> None:
    """Raise ParentMismatch unless ``f`` maps ``domain`` to ``codomain``."""
    if f.domain != domain or f.codomain != codomain:
        raise ParentMismatch(f"{f!r} must map {domain!r} to {codomain!r}")


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
    the two maps jointly separate points.  A rule evaluated on a total
    map pins nothing: it returns [] when the law holds and None otherwise.
    """
    _require_factors(M, A, B)
    _require_map(to_first, M, A)
    _require_map(to_second, M, B)
    e = M.identity
    return (
        all(to_first(b) == e for b in B.members)
        and all(to_second(a) == e for a in A.members)
        and equivariance_rule(_rows(M, A))(to_first.values) is not None
        and equivariance_rule(_columns(M, B))(to_second.values) is not None
        and separates_points(M, to_first, to_second)
    )


def set_product_is_all(M: FiniteMonoid, A: SubMonoid, B: SubMonoid) -> bool:
    """Whether the set product A*B covers every element of M."""
    _require_factors(M, A, B)
    table = M.table
    covered = {table[a][b] for a in A.members for b in B.members}
    return len(covered) == M.size


def exists_left_component_map(M: FiniteMonoid, A: SubMonoid, B: SubMonoid) -> bool:
    """Is there a left A-equivariant map M -> A whose kernel is exactly B?"""
    _require_factors(M, A, B)
    return _kernel_prescribed(M, A, B, _rows(M, A))


def exists_right_component_map(M: FiniteMonoid, A: SubMonoid, B: SubMonoid) -> bool:
    """Is there a right B-equivariant map M -> B whose kernel is exactly A?"""
    _require_factors(M, A, B)
    return _kernel_prescribed(M, B, A, _columns(M, B))


def _kernel_prescribed(M: FiniteMonoid, S: SubMonoid, kernel: SubMonoid, lines: list) -> bool:
    """Is there a map M -> S obeying ``equivariance_rule(lines)`` with kernel exactly ``kernel``?

    The kernel prescription restricts each element's domain; existence only.
    """
    e = M.identity
    others = [s for s in S.members if s != e]
    candidates = [[e] if m in kernel.member_set else others for m in M.elements()]
    allowed = [frozenset(c) for c in candidates]
    sweep = equivariance_rule(lines)
    return bool(search_assignments(M.size, [(e, e)], candidates, allowed, sweep, first_only=True))


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
