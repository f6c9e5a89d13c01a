import pytest

import oracles
from monofact import descent, verify
from monofact.catalog import CATALOG
from monofact.core import (
    ElementMap,
    MonoidError,
    NotInvertible,
    ParentMismatch,
    SizeBoundExceeded,
    SubMonoid,
    direct_product,
    enumerate_monoids,
    enumerate_submonoids,
    from_table,
    identity_map,
    units,
    zero_map,
)
from monofact.descent import (
    CohomologyClasses,
    DescentCocycle,
    NotACocycle,
    NotAFactorization,
    NotASubgroup,
    NotAnAction,
    _carries,
    _orbit_classes,
    cocycle_kernel,
    conjugate_second_factor,
    descent_cohomology,
    enumerate_descent_cocycles,
    fac_from_subgroup_cocycle,
    groupoid_components,
    is_descent_cocycle,
    star_act,
    unit_valued_cocycles,
)
from monofact.factorization import enumerate_factorizations, fac_over, try_factorization
from monofact.semidirect import h1, sections, semidirect

S3 = CATALOG["s3"]
B2 = CATALOG["b2"]
C3 = CATALOG["c3"]
C4 = CATALOG["c4"]
A3 = SubMonoid(S3, (0, 4, 5))
T12 = SubMonoid(S3, (0, 1))


class TestIsDescentCocycle:
    def test_component_maps_pass(self):
        for M in CATALOG.values():
            for fac in enumerate_factorizations(M):
                ok, _ = is_descent_cocycle(M, fac.first, fac.to_first, "left")
                assert ok
                ok, _ = is_descent_cocycle(M, fac.second, fac.to_second, "right")
                assert ok

    def test_zero_into_trivial(self):
        one = SubMonoid(S3, (0,))
        ok, _ = is_descent_cocycle(S3, one, zero_map(S3, one), "left")
        assert ok

    def test_fixing_violation_reported(self):
        q = ElementMap(S3, A3, (4, 0, 4, 5, 4, 5))  # moves the identity
        ok, violation = is_descent_cocycle(S3, A3, q, "left")
        assert not ok and violation[0] == "L1" and violation[1] == (0,)

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError):
            is_descent_cocycle(S3, A3, zero_map(S3, A3), "up")

    def test_parent_mismatch(self):
        half = SubMonoid(C4, (0, 2))
        for side in ("left", "right"):
            with pytest.raises(ParentMismatch):
                is_descent_cocycle(S3, half, ElementMap(C4, half, (0, 2, 2, 0)), side)

    def test_map_out_of_another_monoid(self):
        whole = SubMonoid(S3, S3.members)
        for side in ("left", "right"):
            with pytest.raises(ParentMismatch):
                is_descent_cocycle(S3, whole, identity_map(C3), side)


class TestEnumerate:
    def test_trivial_coefficients(self):
        one = SubMonoid(S3, (0,))
        qs = enumerate_descent_cocycles(S3, one)
        assert [q.values for q in qs] == [(0,) * 6]

    def test_s3_a3_has_three(self):
        qs = enumerate_descent_cocycles(S3, A3)
        assert len(qs) == 3
        assert len(fac_over(S3, A3)) == 3  # matches the subgroup bijection

    def test_matches_full_scan_oracle(self):
        for M, A in [
            (S3, A3),
            (S3, T12),
            (C4, SubMonoid(C4, (0, 2))),
            (B2, SubMonoid(B2, (0, 1))),
            (CATALOG["lz21"], SubMonoid(CATALOG["lz21"], (0, 1))),
        ]:
            ours = [q.values for q in enumerate_descent_cocycles(M, A)]
            assert ours == sorted(oracles.left_cocycle_values(M, A))

    def test_c4_half_is_empty(self):
        assert enumerate_descent_cocycles(C4, SubMonoid(C4, (0, 2))) == []

    def test_parent_mismatch(self):
        for side in ("left", "right"):
            with pytest.raises(ParentMismatch):
                enumerate_descent_cocycles(S3, SubMonoid(C4, (0, 2)), side)

    def test_right_cocycles_match_the_opposite_route(self):
        """Columns give the opposite monoid's left cocycles, value for value and in order."""
        population = [M for n in range(1, 5) for M in enumerate_monoids(n, up_to_iso=True)]
        total = 0
        for M in population + list(CATALOG.values()):
            for A in enumerate_submonoids(M):
                rights = enumerate_descent_cocycles(M, A, "right")
                assert [q.values for q in rights] == oracles.right_cocycle_values_via_opposite(M, A)
                assert all(q.side == "right" and q.underlying.domain == M for q in rights)
                total += len(rights)
        assert total == 356

    def test_domain_past_the_cap_raises_before_search(self, monkeypatch):
        c5 = from_table([[(i + j) % 5 for j in range(5)] for i in range(5)])
        M = direct_product(c5, c5)  # order 25, past the cap of 24

        def no_search(*args):
            raise AssertionError("searched past the cap")

        monkeypatch.setattr(descent, "search_assignments", no_search)
        for side in ("left", "right"):
            with pytest.raises(SizeBoundExceeded, match="capped at order 24"):
                enumerate_descent_cocycles(M, SubMonoid(M, (0,)), side)

    def test_right_side_via_opposite(self):
        rights = enumerate_descent_cocycles(S3, T12, "right")
        fac = try_factorization(S3, A3, T12)
        assert fac.to_second.values in [q.values for q in rights]
        for q in rights:
            ok, _ = is_descent_cocycle(S3, T12, q.underlying, "right")
            assert ok


class TestStarAction:
    def test_identity_unit_fixes(self):
        for q in enumerate_descent_cocycles(S3, A3):
            assert star_act(0, q).values == q.values

    def test_formula(self):
        q = enumerate_descent_cocycles(S3, A3)[0]
        a0 = 4  # the rotation (123)
        inv = 5
        moved = star_act(a0, q)
        for m in S3.elements():
            assert moved(m) == S3.mul(q(S3.mul(m, a0)), inv)

    def test_kernel_conjugation(self):
        qs = enumerate_descent_cocycles(S3, A3)
        q12 = next(q for q in qs if cocycle_kernel(q).members == (0, 1))
        moved = star_act(4, q12)
        assert cocycle_kernel(moved).members == (0, 3)

    def test_composition_law(self):
        qs = enumerate_descent_cocycles(S3, A3)
        for q in qs:
            for a1 in (0, 4, 5):
                for a2 in (0, 4, 5):
                    assert (
                        star_act(a1, star_act(a2, q)).values
                        == star_act(S3.mul(a1, a2), q).values
                    )

    def test_inverse_undoes(self):
        q = enumerate_descent_cocycles(S3, A3)[0]
        assert star_act(5, star_act(4, q)).values == q.values

    def test_non_unit_rejected(self):
        whole = SubMonoid(B2, (0, 1))
        q = DescentCocycle(ElementMap(B2, whole, (0, 1)), "left")
        with pytest.raises(NotInvertible):
            star_act(1, q)


class TestCohomology:
    def test_s3_one_class(self):
        classes = descent_cohomology(S3, A3)
        assert classes.class_count == 1
        assert classes.base_class is None

    def test_trivial_coefficients_singleton(self):
        classes = descent_cohomology(S3, SubMonoid(S3, (0,)))
        assert classes.class_count == 1 and len(classes.objects) == 1

    def test_restricted_equals_full_for_group_coefficients(self):
        full = descent_cohomology(S3, A3)
        restricted = descent_cohomology(S3, A3, restrict_unit_on=T12)
        assert {q.values for q in full.objects} == {q.values for q in restricted.objects}
        assert restricted.base_class == 0

    def test_witnesses_replay(self):
        classes = descent_cohomology(S3, A3)
        for i, a0, j in classes.witnesses:
            assert star_act(a0, classes.objects[i]).values == classes.objects[j].values

    def test_restriction_inverts_the_pair_once(self, monkeypatch):
        calls = []
        real = descent.try_factorization

        def counted(M, A, B):
            calls.append((A.members, B.members))
            return real(M, A, B)

        monkeypatch.setattr(descent, "try_factorization", counted)
        classes = descent_cohomology(S3, A3, restrict_unit_on=T12)
        assert calls == [(A3.members, T12.members)]
        assert [q.values for q in classes.objects] == [
            (0, 0, 4, 5, 4, 5),
            (0, 4, 5, 0, 4, 5),
            (0, 5, 0, 4, 4, 5),
        ]
        assert (classes.class_of, classes.base_class) == ((0, 0, 0), 0)

    def test_restriction_requires_factorization(self):
        with pytest.raises(NotAFactorization):
            descent_cohomology(C4, SubMonoid(C4, (0, 2)), restrict_unit_on=SubMonoid(C4, (0, 2)))

    def test_matches_pairwise_scan(self):
        population = [M for n in range(1, 5) for M in enumerate_monoids(n, up_to_iso=True)]
        population += list(CATALOG.values())
        runs = [(M, A, None) for M in population for A in enumerate_submonoids(M)]
        runs += [(M, f.first, f) for M in population for f in enumerate_factorizations(M)]
        merged = 0
        for M, A, fac in runs:
            t = M.table
            classes = descent_cohomology(M, A, fac and fac.second)
            values = [q.values for q in classes.objects]

            def related(i, j, u):  # (u * q_i)(m) * u = q_i(m * u), with no inverse taken
                return all(t[values[j][m]][u] == values[i][t[m][u]] for m in M.elements())

            base = values.index(fac.to_first.values) if fac else None
            class_of, count, base_class = oracles.unit_conjugacy_classes(
                len(values), units(A).members, related, base
            )
            assert (classes.class_of, classes.class_count) == (class_of, count)
            assert classes.base_class == base_class
            assert classes.representatives == tuple(
                classes.objects[class_of.index(c)] for c in range(count)
            )
            assert all(related(i, j, u) for i, u, j in classes.witnesses)
            merged += count < len(values)
        assert len(runs) == 286 + 146 and merged == 11

    def test_parent_mismatch(self):
        with pytest.raises(ParentMismatch):
            descent_cohomology(S3, SubMonoid(C4, (0, 2)))
        with pytest.raises(ParentMismatch):
            descent_cohomology(S3, SubMonoid(C4, (0, 2)), restrict_unit_on=T12)


class TestOrbitClasses:
    def test_numbered_by_least_member(self):
        # the swap (0 2) and the fixed point 1 under {e, g}
        classes = _orbit_classes("abc", (0, 1, 2), (0, 1), lambda g, i: (2, 1, 0)[i] if g else i)
        assert classes.class_of == (0, 1, 0) and classes.representatives == ("a", "b")
        assert classes.classes() == ((0, 2), (1,))
        assert classes.witnesses == ((0, 0, 0), (0, 1, 2), (1, 0, 1), (1, 1, 1), (2, 0, 2), (2, 1, 0))

    def test_morphism_leaving_its_orbit_is_not_an_action(self):
        # g sends 0 -> 1, 1 -> 1 and 2 -> 0: linked, but not the orbits of a group
        with pytest.raises(NotAnAction, match="leaves its orbit"):
            _orbit_classes((0, 1, 2), (0, 1, 2), (0, 1), lambda g, i: (1, 1, 0)[i] if g else i)


class TestKernel:
    def test_kernels_are_the_three_subgroups(self):
        kernels = {
            cocycle_kernel(q).members for q in enumerate_descent_cocycles(S3, A3)
        }
        assert kernels == {(0, 1), (0, 2), (0, 3)}

    def test_zero_kernel_is_everything(self):
        one = SubMonoid(S3, (0,))
        q = enumerate_descent_cocycles(S3, one)[0]
        assert cocycle_kernel(q).members == tuple(range(6))

    def test_component_map_kernel_is_second_factor(self):
        for M in CATALOGS_WITH_FACS():
            for fac in enumerate_factorizations(M):
                q = DescentCocycle(fac.to_first, "left")
                assert cocycle_kernel(q).members == fac.second.members


def CATALOGS_WITH_FACS():
    return [CATALOG["s3"], CATALOG["b2xc2"], CATALOG["c2z"], CATALOG["v4"]]


class TestSubgroupFactorization:
    def test_builds_the_factorization(self):
        qs = enumerate_descent_cocycles(S3, A3)
        q = next(q for q in qs if cocycle_kernel(q).members == (0, 1))
        fac = fac_from_subgroup_cocycle(S3, A3, q)
        direct = try_factorization(S3, A3, T12)
        assert fac.to_first.values == direct.to_first.values
        assert fac.to_second.values == direct.to_second.values

    def test_trivial_subgroup(self):
        one = SubMonoid(S3, (0,))
        q = enumerate_descent_cocycles(S3, one)[0]
        fac = fac_from_subgroup_cocycle(S3, one, q)
        assert fac.second.members == tuple(range(6))

    def test_round_trip_is_identity(self):
        for q in enumerate_descent_cocycles(S3, A3):
            fac = fac_from_subgroup_cocycle(S3, A3, q)
            assert fac.to_first.values == q.values  # the stated bijection inverse

    def test_requires_subgroup(self):
        whole = SubMonoid(B2, (0, 1))
        q = DescentCocycle(ElementMap(B2, whole, (0, 1)), "left")
        with pytest.raises(NotASubgroup):
            fac_from_subgroup_cocycle(B2, whole, q)

    def test_requires_cocycle(self):
        bad = DescentCocycle(ElementMap(S3, A3, (4, 0, 4, 5, 4, 5)), "left")
        with pytest.raises(NotACocycle):
            fac_from_subgroup_cocycle(S3, A3, bad)

    def test_cocycle_out_of_another_monoid(self):
        q = DescentCocycle(identity_map(C3), "left")
        with pytest.raises(ParentMismatch):
            fac_from_subgroup_cocycle(S3, units(S3), q)


class TestUnitValued:
    def test_group_coefficients_keep_everything(self):
        assert len(unit_valued_cocycles(S3, A3, T12)) == 3

    def test_trivial_first_factor(self):
        one = SubMonoid(S3, (0,))
        whole = SubMonoid(S3, tuple(range(6)))
        assert [q.values for q in unit_valued_cocycles(S3, one, whole)] == [(0,) * 6]

    def test_conical_coefficients_filter(self):
        M = CATALOG["b2xc2"]
        A = SubMonoid(M, (0, 2))  # the b2 axis
        B = SubMonoid(M, (0, 1))  # the c2 axis
        uv = unit_valued_cocycles(M, A, B)
        all_qs = enumerate_descent_cocycles(M, A)
        expected = [q for q in all_qs if all(q(b) == 0 for b in B.members)]
        assert [q.values for q in uv] == [q.values for q in expected]

    def test_requires_factorization(self):
        with pytest.raises(NotAFactorization):
            unit_valued_cocycles(S3, A3, SubMonoid(S3, (0, 4, 5)))


class TestConjugation:
    def test_identity_fixes(self):
        assert conjugate_second_factor(0, T12).members == T12.members

    def test_rotation_moves_transposition(self):
        assert conjugate_second_factor(4, T12).members == (0, 3)

    def test_orbit_covers_all_partners(self):
        orbit = {
            conjugate_second_factor(a0, T12).members for a0 in (0, 4, 5)
        }
        assert orbit == {(0, 1), (0, 2), (0, 3)}

    def test_stays_inside_partner_set(self):
        partners = {B.members for B in fac_over(S3, A3)}
        for a0 in (0, 4, 5):
            for B in fac_over(S3, A3):
                assert conjugate_second_factor(a0, B).members in partners

    def test_requires_invertible(self):
        with pytest.raises(NotInvertible):
            conjugate_second_factor(1, SubMonoid(B2, (0,)))


class TestGroupoid:
    def test_partner_groupoid_is_connected(self):
        partners = fac_over(S3, A3)
        gpd = groupoid_components(
            partners, units(A3), lambda a0, B: conjugate_second_factor(a0, B)
        )
        assert gpd.classes() == ((0, 1, 2),)
        assert len(gpd.witnesses) == 9

    def test_trivial_group_gives_singletons(self):
        partners = fac_over(S3, A3)
        trivial = SubMonoid(S3, (0,))
        gpd = groupoid_components(
            partners, trivial, lambda a0, B: conjugate_second_factor(a0, B)
        )
        assert gpd.classes() == ((0,), (1,), (2,))

    def test_matches_cocycle_groupoid(self):
        uv = unit_valued_cocycles(S3, A3, T12)
        left = groupoid_components(uv, units(A3), lambda a0, q: star_act(a0, q))
        partners = fac_over(S3, A3)
        right = groupoid_components(
            partners, units(A3), lambda a0, B: conjugate_second_factor(a0, B)
        )
        assert left.class_count == right.class_count == 1

    def test_rejects_non_action(self):
        partners = fac_over(S3, A3)
        with pytest.raises(NotAnAction):
            groupoid_components(partners, units(A3), lambda a0, B: partners[0])

    def test_rejects_non_group(self):
        whole = SubMonoid(B2, (0, 1))
        with pytest.raises(NotAnAction):
            groupoid_components([0], whole, lambda g, x: x)


class TestDualRoutes:
    def test_left_enumeration_matches_oracle_across_catalog(self):
        for M in CATALOG.values():
            from monofact.core import enumerate_submonoids

            for A in enumerate_submonoids(M):
                if len(A) ** M.size > 50_000:
                    continue
                ours = [q.values for q in enumerate_descent_cocycles(M, A)]
                assert ours == sorted(oracles.left_cocycle_values(M, A))

    def test_right_enumeration_matches_direct_filter(self):
        import itertools

        from monofact.core import enumerate_submonoids

        fixed = [(B2, SubMonoid(B2, (0, 1))), (S3, T12), (C4, SubMonoid(C4, (0, 2)))]
        # every (M, A) with |A|^|M| <= 256, M one of the 45 classes of order <= 4 or the catalog
        population = [M for n in range(1, 5) for M in enumerate_monoids(n, up_to_iso=True)]
        population += CATALOG.values()
        small = [
            (M, A)
            for M in population
            for A in enumerate_submonoids(M)
            if len(A) ** M.size <= 256
        ]
        assert len(population) == 45 + len(CATALOG)
        for M, A in fixed + small:
            ours = [q.values for q in enumerate_descent_cocycles(M, A, "right")]
            direct = [
                values
                for values in itertools.product(A.members, repeat=M.size)
                if is_descent_cocycle(M, A, ElementMap(M, A, values), "right")[0]
            ]
            assert ours == sorted(direct)


class TestCanonicalOrder:
    def test_cocycles_sorted(self):
        for M, A in [(S3, A3), (S3, T12), (CATALOG["b2xc2"], SubMonoid(CATALOG["b2xc2"], (0, 2)))]:
            values = [q.values for q in enumerate_descent_cocycles(M, A)]
            assert values == sorted(values)


class TestTabulatedChecksMatchPointwise:
    """The value-table law checks and groupoid agree with the call-per-pair versions."""

    def test_descent_cocycle_witnesses(self):
        seen = set()
        for n in range(1, 5):
            for M in enumerate_monoids(n, up_to_iso=True):
                for A, values in oracles.small_maps(M, 256):
                    q = ElementMap(M, A, values)
                    for side in ("left", "right"):
                        got = is_descent_cocycle(M, A, q, side)
                        assert got == oracles.is_descent_cocycle_pointwise(M, A, q, side)
                        seen.add(got[1][0] if got[1] else "ok")
        assert seen == {"ok", "L1", "L2", "L3", "R1", "R2", "R3"}

    @staticmethod
    def outcome(fn):
        try:
            return fn()
        except MonoidError as exc:  # the type and message are what is compared
            return type(exc), str(exc)

    def assert_same(self, objects, acting, action):
        ours = self.outcome(lambda: groupoid_components(objects, acting, action))
        if isinstance(ours, CohomologyClasses):
            ours = ours.classes(), ours.witnesses
        assert ours == self.outcome(
            lambda: oracles.groupoid_components(objects, acting, action)
        )
        return ours

    def test_broken_actions_fail_alike(self):
        partners = fac_over(S3, A3)
        acting = units(A3)
        conj = conjugate_second_factor
        cycle = {B: partners[(i + 1) % 3] for i, B in enumerate(partners)}

        def raises_at_5(a0, B):
            if a0 == 5 and B == partners[2]:
                raise NotInvertible(f"refusing ({a0}, {B!r})")
            return conj(a0, B)

        broken = {
            "identity moves": lambda a0, B: cycle[B] if a0 == 0 else conj(a0, B),
            "composition fails": lambda a0, B: B if a0 == 0 else partners[0],
            "escapes the object set": conj,
            "refusing": raises_at_5,
        }
        for message, action in broken.items():
            objects = partners[:2] if message == "escapes the object set" else partners
            _, text = self.assert_same(objects, acting, action)
            assert message in text
        assert self.assert_same(partners, acting, conj)[0] == ((0, 1, 2),)

    def test_battery_groupoids(self):
        actions = list(verify._actions(verify._battery_pairs(verify._population(3, True))))
        assert len(actions) == 978
        for _, act in actions:
            sd = semidirect(act.acted, act, act.actor)
            first = sd.first_image()
            args = (fac_over(sd.product, first), units(first), conjugate_second_factor)
            ours = groupoid_components(*args)
            assert (ours.classes(), ours.witnesses) == oracles.groupoid_components(*args)


class TestClassMap:
    """``_carries`` judges a class map as the transport loops it replaced did."""

    @staticmethod
    def judged_alike(source, target, image):
        ours = _carries(source, target, image)
        expected = oracles.class_map_is_bijection(
            source.class_of, target.class_of, image, target.class_count
        )
        assert ours == expected
        return ours

    def test_sections_and_convolutions_of_the_order3_battery(self):
        pop = verify._population(3, False)
        actions = list(verify._actions(verify._battery_pairs(pop)))
        for _, act in actions:
            report = sections(semidirect(act.acted, act, act.actor))
            classes = h1(act, cocycles=report.cocycles)
            assert self.judged_alike(classes, report.classes, report.section_of_cocycle)
        inner = list(verify._inner_homs(verify._battery_pairs(pop)))
        for hom in inner:
            report = hom.report
            assert self.judged_alike(report.cocycle_classes, report.hom_classes, report.convolution_of)
        assert (len(actions), len(inner)) == (280, 106)

    def test_planted_maps_that_are_no_bijection(self):
        def classes(class_of):
            count = max(class_of) + 1
            return CohomologyClasses(tuple(class_of), tuple(class_of), tuple(range(count)), ())

        source, target = classes((0, 0, 1)), classes((0, 1, 1))
        assert self.judged_alike(source, target, (1, 2, 0))  # class 0 -> 1, class 1 -> 0
        assert not self.judged_alike(source, target, (0, 1, 2))  # class 0 splits
        assert not self.judged_alike(source, target, (1, 2, 1))  # both classes -> 1
