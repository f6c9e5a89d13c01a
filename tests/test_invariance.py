"""Duality and relabeling as oracles for the whole pipeline.

The laws of a monoid M hold in its opposite with the sides exchanged, and
they survive any relabeling of M's elements.  Both facts are tested on
every monoid of order <= 4 plus the catalog: duality identity by
identity, relabeling through a hypothesis strategy that draws a monoid
and a permutation moving its identity.  An index slip (rows read for
columns, the identity taken to be 0) breaks one or the other.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from monofact import verify
from monofact.core import (
    ElementMap,
    FiniteMonoid,
    SubMonoid,
    enumerate_submonoids,
    opposite,
)
from monofact.descent import enumerate_descent_cocycles, is_descent_cocycle
from monofact.factorization import (
    characterize_factorization,
    enumerate_factorizations,
    exists_left_component_map,
    exists_right_component_map,
    first_factor_filter,
    second_factor_filter,
)
from monofact.semidirect import split_epi_analysis

POPULATION = verify._population(4, True)
SIDES = ("left", "right")


@pytest.fixture(scope="module")
def duals():
    """(name, M, its submonoids, opposite(M), the same submonoids of opposite(M))."""
    out = []
    for name, M in POPULATION:
        Mop = opposite(M)
        subs = enumerate_submonoids(M)
        out.append((name, M, subs, Mop, [SubMonoid(Mop, S.members) for S in subs]))
    return out


class TestOppositeDuality:
    """Every left-hand result on opposite(M) is the right-hand one on M."""

    def test_factorizations_swap(self, duals):
        for name, M, _, Mop, _ in duals:
            swapped = sorted(
                (f.second.members, f.first.members, f.to_second.values, f.to_first.values)
                for f in enumerate_factorizations(M)
            )
            got = [
                (f.first.members, f.second.members, f.to_first.values, f.to_second.values)
                for f in enumerate_factorizations(Mop)
            ]
            assert got == swapped, name

    def test_first_factor_filter_is_the_second(self, duals):
        for name, M, subs, Mop, subs_op in duals:
            for B, B_op in zip(subs, subs_op):
                expected = second_factor_filter(M, B)
                assert first_factor_filter(Mop, B_op) == expected, (name, B.members)

    def test_left_component_maps_are_the_right(self, duals):
        for name, M, subs, Mop, subs_op in duals:
            for (A, A_op), (B, B_op) in itertools.product(zip(subs, subs_op), repeat=2):
                expected = exists_right_component_map(M, A, B)
                got = exists_left_component_map(Mop, B_op, A_op)
                assert got == expected, (name, A.members, B.members)

    def test_left_cocycle_verdicts_are_the_right(self, duals):
        for name, M, _, Mop, _ in duals:
            for A, values in oracles.small_maps(M, 256):
                A_op = SubMonoid(Mop, A.members)
                left = is_descent_cocycle(Mop, A_op, ElementMap(Mop, A_op, values), "left")
                right = is_descent_cocycle(M, A, ElementMap(M, A, values), "right")
                assert left[0] == right[0], (name, A.members, values)


# ---------------------------------------------------------------------------
# relabeling


@st.composite
def relabelings(draw):
    """(M, pi, pi(M)): a population monoid and a permutation that moves its identity.

    Element x of M is element pi[x] of pi(M).
    """
    M = draw(st.sampled_from([M for _, M in POPULATION if M.size > 1]))
    pi = draw(st.permutations(range(M.size)).filter(lambda p: p[M.identity] != M.identity))
    return M, tuple(pi), FiniteMonoid(oracles.relabeled_table(M.table, pi), pi[M.identity])


def move_set(pi, members) -> tuple[int, ...]:
    return tuple(sorted(pi[x] for x in members))


def move_map(pi, values) -> tuple[int, ...]:
    """The value table of pi . f . pi^-1 for the map f on all of M with ``values``."""
    out = [0] * len(values)
    for x, v in enumerate(values):
        out[pi[x]] = pi[v]
    return tuple(out)


def moved_submonoids(M, pi, R):
    """Pairs (S, pi(S)) over the submonoids S of M."""
    return [(S, SubMonoid(R, move_set(pi, S.members))) for S in enumerate_submonoids(M)]


RELABELED = settings(max_examples=50, deadline=None)


class TestRelabelingTransport:
    """Each listing of pi(M) is M's carried along pi, and each verdict is M's."""

    @RELABELED
    @given(relabelings())
    def test_isomorphism_invariant(self, drawn):
        M, _, R = drawn
        assert R.invariant == M.invariant

    @RELABELED
    @given(relabelings())
    def test_submonoids(self, drawn):
        M, pi, R = drawn
        moved = sorted(move_set(pi, S.members) for S in enumerate_submonoids(M))
        assert sorted(S.members for S in enumerate_submonoids(R)) == moved

    @RELABELED
    @given(relabelings())
    def test_factorizations(self, drawn):
        M, pi, R = drawn

        def moved(f):
            return (
                move_set(pi, f.first.members),
                move_set(pi, f.second.members),
                move_map(pi, f.to_first.values),
                move_map(pi, f.to_second.values),
            )

        got = [
            (f.first.members, f.second.members, f.to_first.values, f.to_second.values)
            for f in enumerate_factorizations(R)
        ]
        assert got == sorted(map(moved, enumerate_factorizations(M)))

    @RELABELED
    @given(relabelings())
    def test_descent_cocycles_on_both_sides(self, drawn):
        M, pi, R = drawn
        for A, A_moved in moved_submonoids(M, pi, R):
            for side in SIDES:
                cocycles = enumerate_descent_cocycles(M, A, side)
                moved = sorted(move_map(pi, q.values) for q in cocycles)
                got = [q.values for q in enumerate_descent_cocycles(R, A_moved, side)]
                assert got == moved, (A.members, side)

    @RELABELED
    @given(relabelings())
    def test_characterization(self, drawn):
        M, pi, R = drawn
        pairs = moved_submonoids(M, pi, R)
        for (A, A_moved), (B, B_moved) in itertools.product(pairs, repeat=2):
            expected = characterize_factorization(M, A, B)
            assert characterize_factorization(R, A_moved, B_moved) == expected

    @RELABELED
    @given(relabelings())
    def test_descent_cocycle_verdicts(self, drawn):
        M, pi, R = drawn
        for A, values in oracles.small_maps(M, 256):
            A_moved = SubMonoid(R, move_set(pi, A.members))
            q = ElementMap(M, A, values)
            q_moved = ElementMap(R, A_moved, move_map(pi, values))
            for side in SIDES:
                verdict = is_descent_cocycle(M, A, q, side)[0]
                assert is_descent_cocycle(R, A_moved, q_moved, side)[0] == verdict

    @RELABELED
    @given(relabelings())
    def test_split_reports(self, drawn):
        # R's identity is not 0: p's fibres and the kernel are read off R's own labels
        _, _, R = drawn
        for S in enumerate_submonoids(R):
            for retraction in verify._retractions(R, S):
                p, s = ElementMap(R, S, retraction), ElementMap(S, R, S.members)
                assert split_epi_analysis(R, S, p, s) == oracles.split_epi_report(R, S, p, s)
