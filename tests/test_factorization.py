import itertools
from pathlib import Path

import pytest

import oracles
from monofact import factorization, verify
from monofact.catalog import CATALOG
from monofact.core import (
    ElementMap,
    ParentMismatch,
    SubMonoid,
    _closed_subsets,
    direct_product,
    enumerate_monoids,
    enumerate_submonoids,
    identity_map,
    zero_map,
)
from monofact.factorization import (
    FactorizationFailure,
    characterize_factorization,
    enumerate_factorizations,
    exists_left_component_map,
    exists_right_component_map,
    fac_over,
    factorization_attempt,
    first_factor_filter,
    second_factor_filter,
    set_product_is_all,
    try_factorization,
    verify_bicross,
)
from monofact.semidirect import semidirect

S3 = CATALOG["s3"]
B2 = CATALOG["b2"]
C2 = CATALOG["c2"]
C4 = CATALOG["c4"]
A3 = SubMonoid(S3, (0, 4, 5))
T12 = SubMonoid(S3, (0, 1))

# products of orders 8..24, the inputs of the cli-session benchmark
PRODUCTS = {
    f"{a}x{b}": direct_product(CATALOG[a], CATALOG[b])
    for a, b in [("c2", "c4"), ("c3", "c4"), ("s3", "c2"), ("s3", "c3"),
                 ("s3", "c4"), ("s3", "v4"), ("c4", "c4"), ("v4", "v4")]
}


def by_size(members):
    return sorted(members, key=lambda ms: (len(ms), ms))


def commutative(M):
    return lambda ms: all(M.table[x][y] == M.table[y][x] for x in ms for y in ms)


class TestTryFactorization:
    def test_unit_factor(self):
        one = SubMonoid(S3, (0,))
        whole = SubMonoid(S3, tuple(range(6)))
        fac = try_factorization(S3, one, whole)
        assert fac.to_first.values == (0,) * 6
        assert fac.to_second.values == tuple(range(6))

    def test_s3_through_a3(self):
        fac = try_factorization(S3, A3, T12)
        assert fac is not None
        # each element recomposes from its parts, uniquely
        for m in S3.elements():
            assert S3.mul(fac.to_first(m), fac.to_second(m)) == m
        assert fac.to_first(3) == 5  # the (23) component in A3 is (132)

    def test_cardinality_mismatch(self):
        whole = SubMonoid(B2, (0, 1))
        assert try_factorization(B2, whole, whole) is None
        failure = factorization_attempt(B2, whole, whole)
        assert isinstance(failure, FactorizationFailure)
        assert failure.kind == "cardinality"

    def test_injectivity_failure_carries_witness(self):
        sub = SubMonoid(C4, (0, 2))
        failure = factorization_attempt(C4, sub, sub)
        assert failure.kind == "injectivity"
        (a1, b1), (a2, b2), m = failure.witness
        assert C4.mul(a1, b1) == C4.mul(a2, b2) == m
        assert failure.uncovered is not None

    def test_parent_mismatch(self):
        with pytest.raises(ParentMismatch):
            try_factorization(S3, SubMonoid(C2, (0, 1)), T12)

    def test_component_kernels(self):
        fac = try_factorization(S3, A3, T12)
        assert [m for m in S3.elements() if fac.to_first(m) == 0] == [0, 1]
        assert [m for m in S3.elements() if fac.to_second(m) == 0] == [0, 4, 5]


class TestEnumerateFactorizations:
    def test_trivial_monoid(self):
        assert len(enumerate_factorizations(CATALOG["trivial"])) == 1

    def test_c2_only_trivial_pairs(self):
        pairs = [
            (f.first.members, f.second.members) for f in enumerate_factorizations(C2)
        ]
        assert pairs == [((0,), (0, 1)), ((0, 1), (0,))]

    def test_s3_contents(self):
        pairs = {
            (f.first.members, f.second.members) for f in enumerate_factorizations(S3)
        }
        assert ((0, 4, 5), (0, 1)) in pairs
        assert ((0, 4, 5), (0, 2)) in pairs
        assert ((0, 4, 5), (0, 3)) in pairs
        assert ((0, 1), (0, 4, 5)) in pairs
        assert len(pairs) == 8

    def test_matches_oracle_everywhere(self):
        for M in CATALOG.values():
            ours = {
                (f.first.members, f.second.members)
                for f in enumerate_factorizations(M)
            }
            assert ours == oracles.factorization_pairs(M)

    def test_sorted_canonically(self):
        facs = enumerate_factorizations(S3)
        keys = [(f.first.members, f.second.members) for f in facs]
        assert keys == sorted(keys)

    def test_partitions_by_first_factor(self):
        facs = enumerate_factorizations(S3)
        from monofact.core import enumerate_submonoids

        rebuilt = {
            (A.members, B.members)
            for A in enumerate_submonoids(S3)
            for B in fac_over(S3, A)
        }
        assert rebuilt == {(f.first.members, f.second.members) for f in facs}


class TestFacOver:
    def test_s3_over_a3(self):
        assert [B.members for B in fac_over(S3, A3)] == [(0, 1), (0, 2), (0, 3)]

    def test_over_trivial_factor(self):
        one = SubMonoid(S3, (0,))
        assert [B.members for B in fac_over(S3, one)] == [tuple(range(6))]

    def test_c4_half_has_no_partner(self):
        assert fac_over(C4, SubMonoid(C4, (0, 2))) == []


class TestFacOverMatchesSubsetScan:
    """fac_over against the combinations scan, as lists: no miss, no repeat, same order."""

    @staticmethod
    def assert_matches(M, A):
        ours = [B.members for B in fac_over(M, A)]
        assert ours == oracles.second_factors_by_subset_scan(M, A.members)
        return bool(ours)

    def test_every_first_factor(self):
        population = [M for n in range(1, 5) for M in enumerate_monoids(n, up_to_iso=True)]
        population += list(CATALOG.values())
        population += [direct_product(CATALOG[x], CATALOG[x]) for x in ("v4", "c4")]
        found = [self.assert_matches(M, A) for M in population for A in enumerate_submonoids(M)]
        assert found.count(False) > 0 and found.count(True) > 0

    def test_battery_products(self):
        actions = list(verify._actions(verify._battery_pairs(verify._population(3, True))))
        assert len(actions) == 978
        found = []
        for _, act in actions:
            sd = semidirect(act.acted, act, act.actor)
            found.append(self.assert_matches(sd.product, sd.first_image()))
        assert all(found)  # the first image always has the actor's copy as a partner

    def test_no_partner_is_inverted_again(self, monkeypatch):
        """The walk's survivors are returned as they are: no product map is inverted."""

        def refuse(*args):
            raise AssertionError("fac_over inverted a product map")

        monkeypatch.setattr(factorization, "factorization_attempt", refuse)
        monkeypatch.setattr(factorization, "try_factorization", refuse)
        population = [M for n in range(1, 5) for M in enumerate_monoids(n, up_to_iso=True)]
        found = [
            self.assert_matches(M, A)
            for M in population + list(CATALOG.values())
            for A in enumerate_submonoids(M)
        ]
        assert found.count(True) > 0


class TestFirstFactorFilter:
    def test_left_zero_witness(self):
        lz = CATALOG["lz21"]
        ok, witness = first_factor_filter(lz, SubMonoid(lz, (0, 1)))
        assert not ok and witness == (1, 2)
        a, m = witness
        assert lz.mul(a, m) in (0, 1) and m not in (0, 1)

    def test_a3_passes(self):
        assert first_factor_filter(S3, A3) == (True, None)

    def test_necessary_but_not_sufficient(self):
        sub = SubMonoid(C4, (0, 2))
        assert first_factor_filter(C4, sub) == (True, None)
        assert fac_over(C4, sub) == []

    def test_second_side(self):
        from monofact.core import opposite

        fac = try_factorization(S3, A3, T12)
        assert second_factor_filter(S3, fac.second) == (True, None)
        rz = opposite(CATALOG["lz21"])  # uv = v away from the identity
        ok, witness = second_factor_filter(rz, SubMonoid(rz, (0, 1)))
        assert not ok
        b, m = witness
        assert rz.mul(m, b) in (0, 1) and m not in (0, 1)

    def test_holds_on_every_factorization(self):
        for M in CATALOG.values():
            for f in enumerate_factorizations(M):
                assert first_factor_filter(M, f.first) == (True, None)
                assert second_factor_filter(M, f.second) == (True, None)


class TestVerifyBicross:
    def test_accepts_component_maps(self):
        fac = try_factorization(S3, A3, T12)
        assert verify_bicross(S3, A3, T12, fac.to_first, fac.to_second)

    def test_trivial_pair(self):
        one = SubMonoid(S3, (0,))
        whole = SubMonoid(S3, tuple(range(6)))
        fac = try_factorization(S3, one, whole)
        assert verify_bicross(S3, one, whole, fac.to_first, fac.to_second)

    def test_rejects_constant_second_map(self):
        fac = try_factorization(S3, A3, T12)
        assert not verify_bicross(S3, A3, T12, fac.to_first, zero_map(S3, T12))

    def test_maps_out_of_another_monoid(self):
        # C3's maps have values that fit c2z's table, which once accepted them
        M, C3 = CATALOG["c2z"], CATALOG["c3"]
        whole, one = SubMonoid(M, M.members), SubMonoid(M, (M.identity,))
        with pytest.raises(ParentMismatch):
            verify_bicross(M, whole, one, identity_map(C3), zero_map(C3, C3))
        fac = try_factorization(S3, A3, T12)
        into_s3 = [ElementMap(S3, S3, f.values) for f in (fac.to_first, fac.to_second)]
        with pytest.raises(ParentMismatch):
            verify_bicross(S3, A3, T12, into_s3[0], fac.to_second)
        with pytest.raises(ParentMismatch):
            verify_bicross(S3, A3, T12, fac.to_first, into_s3[1])

    def test_accepts_exactly_component_maps_small(self):
        # exhaustive over all map pairs on order <= 3 monoids
        from monofact.core import enumerate_submonoids

        for name in ("c2", "c3", "b2", "lz21", "c2z"):
            M = CATALOG[name]
            n = M.size
            for A in enumerate_submonoids(M):
                for B in enumerate_submonoids(M):
                    fac = try_factorization(M, A, B)
                    expected = (
                        (fac.to_first.values, fac.to_second.values) if fac else None
                    )
                    for lv in itertools.product(A.members, repeat=n):
                        for rv in itertools.product(B.members, repeat=n):
                            got = verify_bicross(
                                M, A, B, ElementMap(M, A, lv), ElementMap(M, B, rv)
                            )
                            assert got == (expected == (lv, rv))


class TestCharacterization:
    def test_agrees_with_inversion_on_catalog(self):
        from monofact.core import enumerate_submonoids

        for M in CATALOG.values():
            for A in enumerate_submonoids(M):
                for B in enumerate_submonoids(M):
                    assert characterize_factorization(M, A, B) == (
                        try_factorization(M, A, B) is not None
                    )

    def test_set_product(self):
        assert set_product_is_all(S3, A3, T12)
        assert not set_product_is_all(C4, SubMonoid(C4, (0, 2)), SubMonoid(C4, (0,)))


class TestFactorsOfAnotherMonoid:
    """Factors of b2xc2 handed to c4 are rejected before any row of c4 is read."""

    @pytest.mark.parametrize(
        "check",
        [
            set_product_is_all,
            exists_left_component_map,
            exists_right_component_map,
            characterize_factorization,
        ],
    )
    def test_raises_parent_mismatch(self, check):
        other = CATALOG["b2xc2"]
        with pytest.raises(ParentMismatch):
            check(C4, SubMonoid(other, (0, 1)), SubMonoid(other, (0, 2)))


class TestComponentMapsMatchScan:
    """The equivariant component-map searches against a scan of kernel-respecting maps."""

    @pytest.mark.parametrize(
        "M", [pytest.param(M, id=name) for name, M in verify._population(3, True)]
    )
    def test_every_submonoid_pair(self, M):
        subs = enumerate_submonoids(M)
        for A in subs:
            for B in subs:
                assert exists_left_component_map(M, A, B) == oracles.component_map_exists(
                    M, A, B, "left"
                ), (A.members, B.members)
                assert exists_right_component_map(M, A, B) == oracles.component_map_exists(
                    M, A, B, "right"
                ), (A.members, B.members)


class TestOrderlyWalk:
    """The orderly submonoid walk against the oracles, on products of order 8..24."""

    @pytest.mark.parametrize("name", PRODUCTS)
    def test_submonoids_match_closure_walk(self, name):
        M = PRODUCTS[name]
        expected = by_size(oracles.submonoids_by_closure_walk(M))
        assert [S.members for S in enumerate_submonoids(M)] == expected

    @pytest.mark.parametrize("name", PRODUCTS)
    def test_each_submonoid_built_once(self, name):
        M = PRODUCTS[name]
        walk = _closed_subsets(M, M.size, lambda ms: True)
        assert len(walk) == len(set(walk)) == len(oracles.submonoids_by_closure_walk(M))

    @pytest.mark.parametrize("name", PRODUCTS)
    def test_hereditary_admit_prunes_exactly(self, name):
        M = PRODUCTS[name]
        admit = commutative(M)
        walk = _closed_subsets(M, M.size, admit)
        expected = [ms for ms in by_size(oracles.submonoids_by_closure_walk(M)) if admit(ms)]
        assert by_size(walk) == expected
        assert len(walk) == len(set(walk))

    @pytest.mark.parametrize("name", PRODUCTS)
    def test_limit_prunes_exactly(self, name):
        M = PRODUCTS[name]
        subs = by_size(oracles.submonoids_by_closure_walk(M))
        for limit in (1, 2, 3, M.size // 2, M.size - 1):
            walk = _closed_subsets(M, limit, lambda ms: True)
            assert by_size(walk) == [ms for ms in subs if len(ms) <= limit], limit

    @pytest.mark.parametrize("name", PRODUCTS)
    def test_factorizations_match_pair_scan(self, name):
        M = PRODUCTS[name]
        ours = [(f.first.members, f.second.members) for f in enumerate_factorizations(M)]
        assert ours == sorted(oracles.factorization_pairs(M))

    def test_pair_search_counts_what_enumeration_inverts(self):
        # info counts the pairs of _factorizations; enumerate_factorizations inverts them
        population = [M for _, M in verify._population(4, True)] + list(PRODUCTS.values())
        for M in population:
            subs = enumerate_submonoids(M)
            pairs = [(A.members, B.members) for A, B in factorization._factorizations(M, subs)]
            facs = enumerate_factorizations(M)
            assert pairs == [(f.first.members, f.second.members) for f in facs]

    @pytest.mark.parametrize("name", ["s3xc4", "s3xv4"])
    def test_fac_over_matches_pair_scan(self, name):
        # the subset-scan oracle is too slow at order 24
        M = PRODUCTS[name]
        pairs = oracles.factorization_pairs(M)
        for A in enumerate_submonoids(M):
            expected = sorted(b for a, b in pairs if a == A.members)
            assert [B.members for B in fac_over(M, A)] == expected, A

    def test_oracles_share_no_walk(self):
        source = (Path(__file__).parent / "oracles.py").read_text()
        assert "_closed_subsets" not in source and "_grow" not in source
