import importlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from monofact.catalog import CATALOG
from monofact import verify
from monofact.core import (
    ElementMap,
    FiniteMonoid,
    IndexOutOfRange,
    ParentMismatch,
    SizeBoundExceeded,
    SubMonoid,
    _pair_monoid,
    direct_product,
    enumerate_homs,
    enumerate_submonoids,
    endomorphism_monoid,
    find_isomorphism,
    identity_map,
    inverse_in,
    units,
    zero_map,
)
from monofact.factorization import fac_over, try_factorization
from monofact.semidirect import (
    ActionMismatch,
    AxiomViolation,
    Cocycle1,
    NotASplitPair,
    NotUnitValued,
    NotUnitValuedHom,
    action_from_hom,
    conical_check,
    factorization_normality_equivalences,
    fac_from_z1,
    h0,
    h1,
    inner_action_and_convolution,
    normality_check,
    opposite_action,
    sections,
    semidirect,
    split_epi_analysis,
    trivial_action,
    validate_action,
    z1,
)

S3 = CATALOG["s3"]
C2 = CATALOG["c2"]
C3 = CATALOG["c3"]
C4 = CATALOG["c4"]
B2 = CATALOG["b2"]
INVERSION = validate_action(C2, C3, [[0, 1, 2], [0, 2, 1]])


class TestValidateAction:
    def test_trivial_ok(self):
        act = trivial_action(C2, C3)
        assert act.star == ((0, 1, 2), (0, 1, 2))

    def test_inversion_ok(self):
        assert INVERSION.apply(1, 1) == 2

    @pytest.mark.parametrize("b, a", [(-1, -1), (2, 0), (0, 3), (True, 0), (0, False)])
    def test_apply_rejects_bad_indices(self, b, a):
        with pytest.raises(IndexOutOfRange):
            trivial_action(C2, C3).apply(b, a)

    def test_identity_row_must_fix(self):
        with pytest.raises(AxiomViolation) as exc:
            validate_action(C2, C4, [[(2 * a) % 4 for a in range(4)]] * 2)
        assert exc.value.axiom == "A1"

    def test_squaring_breaks_composition(self):
        # squaring is an endomorphism of an abelian group, but the actor
        # relation (g*g = e) is not respected: acting twice is not trivial
        with pytest.raises(AxiomViolation) as exc:
            validate_action(C2, C4, [list(range(4)), [(2 * a) % 4 for a in range(4)]])
        assert exc.value.axiom == "A2"

    def test_non_endomorphism_row(self):
        # x -> x*x on the absorbing monoid fixes z but breaks the unit law on nothing;
        # a row sending the identity elsewhere violates the unit axiom
        with pytest.raises(AxiomViolation) as exc:
            validate_action(B2, B2, [[0, 1], [1, 1]])
        assert exc.value.axiom == "A3"

    def test_idempotent_row_that_is_no_endomorphism(self):
        # z acts by (0, 1, 1): it fixes e and is idempotent, so A1-A3 hold, but it
        # sends 1*1 = 2 to 1 where (z.1)*(z.1) = 2
        with pytest.raises(AxiomViolation) as exc:
            validate_action(B2, C3, [[0, 1, 2], [0, 1, 1]])
        assert (exc.value.axiom, exc.value.witness) == ("A4", (1, 1, 1))
        assert str(exc.value) == "action axiom A4 fails at (1, 1, 1)"

    def test_from_endomorphism_hom(self):
        end, endos = endomorphism_monoid(C3)
        inv_index = next(i for i, f in enumerate(endos) if f.values == (0, 2, 1))
        phi = ElementMap(C2, end, (end.identity, inv_index))
        assert phi.is_homomorphism()
        assert action_from_hom(phi, endos) == INVERSION

    def test_from_hom_out_of_a_subgroup(self):
        # the order-2 subgroup {e, (12)} of S3 acts on C3 by inversion
        end, endos = endomorphism_monoid(C3)
        inv_index = next(i for i, f in enumerate(endos) if f.values == (0, 2, 1))
        S = SubMonoid(S3, (0, 1))
        values = (end.identity, inv_index)
        act = action_from_hom(ElementMap(S, end, values), endos)
        assert act.actor == S.as_monoid()
        assert act.star == action_from_hom(ElementMap(S.as_monoid(), end, values), endos).star


NAMED3 = verify._population(3, True)
POPULATION3 = [M for _, M in NAMED3]
BATTERY3 = [act for _, act in verify._actions(verify._battery_pairs(NAMED3))]
# actors whose identity is not 0, so that no scan may take the identity to come first
ACTORS = POPULATION3 + [oracles.relabeled(M, random.Random(i)) for i, M in enumerate(POPULATION3)]


@st.composite
def action_tables(draw):
    """(B, A, star): random rows, or an order-3 battery action with one entry redrawn."""
    if draw(st.booleans()):
        B = draw(st.sampled_from(ACTORS))
        A = draw(st.sampled_from(POPULATION3))
        value = st.integers(0, A.size - 1)
        star = [[draw(value) for _ in A.elements()] for _ in B.elements()]
        if draw(st.booleans()):  # get past A1
            star[B.identity] = list(A.elements())
    else:
        act = draw(st.sampled_from(BATTERY3))
        B, A = act.actor, act.acted
        star = [list(row) for row in act.star]
        value = st.integers(0, A.size - 1)
        star[draw(st.integers(0, B.size - 1))][draw(value)] = draw(value)
    return B, A, tuple(map(tuple, star))


class TestAxiomWitnesses:
    """MonoidAction raises exactly the first violation of the pointwise A1-A4 scan."""

    def assert_matches_scan(self, B, A, star):
        expected = oracles.action_violation_pointwise(B, A, star)
        if expected is None:
            assert validate_action(B, A, star).star == star
        else:
            with pytest.raises(AxiomViolation) as exc:
                validate_action(B, A, star)
            assert (exc.value.axiom, exc.value.witness) == expected

    @given(action_tables())
    @settings(max_examples=500, deadline=None)
    def test_matches_scan(self, drawn):
        self.assert_matches_scan(*drawn)

    def test_every_one_entry_change_of_small_battery_actions(self):
        axioms = set()
        for act in BATTERY3:
            B, A = act.actor, act.acted
            if A.size * B.size > 6:
                continue
            for b, a, v in itertools.product(B.elements(), A.elements(), A.elements()):
                star = [list(row) for row in act.star]
                star[b][a] = v
                star = tuple(map(tuple, star))
                self.assert_matches_scan(B, A, star)
                found = oracles.action_violation_pointwise(B, A, star)
                axioms.add(found and found[0])
        assert axioms == {None, "A1", "A2", "A3", "A4"}


class TestPairTable:
    """The one pair-monoid builder against the pair product computed entry by entry."""

    def test_battery_products(self):
        for act in BATTERY3:
            A, B = act.acted, act.actor
            expected = oracles.pair_table_pointwise(A, B, act.star)
            assert _pair_monoid(A, B, act.star, "{}·{}").table == expected

    def test_direct_products(self):
        for M, N in itertools.product(POPULATION3, repeat=2):
            expected = oracles.pair_table_pointwise(M, N, [M.members] * N.size)
            assert direct_product(M, N).table == expected

    def test_catalog_semidirect(self):
        # semidirect(C3, INVERSION, C2) builds the same table (TestSemidirect)
        assert CATALOG["c3xc2"].table == oracles.pair_table_pointwise(C3, C2, INVERSION.star)

    def test_direct_product_is_the_trivial_semidirect_product(self):
        for M, N in itertools.product(POPULATION3, repeat=2):
            product = semidirect(M, trivial_action(N, M), N).product
            direct = direct_product(M, N)
            assert (direct.table, direct.identity) == (product.table, product.identity)

    def test_semidirect_labels_and_identity(self):
        product = semidirect(C3, INVERSION, C2).product
        assert product.labels == ("e·e", "e·g", "g·e", "g·g", "g2·e", "g2·g")
        assert product.identity == 0
        unlabelled = FiniteMonoid(B2.table, B2.identity)
        product = semidirect(unlabelled, trivial_action(C2, unlabelled), C2).product
        assert product.labels == ("0·e", "0·g", "1·e", "1·g")

    def test_direct_product_labels(self):
        assert direct_product(B2, C2).labels == ("(e,e)", "(e,g)", "(z,e)", "(z,g)")
        assert CATALOG["c3xc2"].labels == (
            "(e,e)", "(e,r)", "(g,e)", "(g,r)", "(g2,e)", "(g2,r)"
        )


class TestOppositeAction:
    def test_trivial_unchanged(self):
        act = trivial_action(C2, C3)
        assert opposite_action(act).star == act.star

    def test_involution(self):
        assert opposite_action(opposite_action(INVERSION)) == INVERSION

    def test_abelian_coefficients_fixed(self):
        assert opposite_action(INVERSION).acted == C3


class TestSemidirect:
    def test_trivial_action_gives_direct_product(self):
        sd = semidirect(B2, trivial_action(C2, B2), C2)
        assert sd.product.table == direct_product(B2, C2).table

    def test_inversion_gives_s3(self):
        sd = semidirect(C3, INVERSION, C2)
        assert sd.product.size == 6
        assert find_isomorphism(sd.product, S3) is not None

    def test_matches_catalog_construction(self):
        sd = semidirect(C3, INVERSION, C2)
        assert sd.product.table == CATALOG["c3xc2"].table

    def test_multiplication_rule(self):
        sd = semidirect(C3, INVERSION, C2)
        # (a1,b1)(a2,b2) = (a1 + (-1)^b1 a2, b1+b2)
        x = sd.pair_index(1, 1)
        y = sd.pair_index(1, 0)
        assert sd.product.mul(x, y) == sd.pair_index(0, 1)

    def test_embeddings_and_projections(self):
        sd = semidirect(C3, INVERSION, C2)
        assert sd.embed_a.is_homomorphism()
        assert sd.embed_b.is_homomorphism()
        assert sd.proj_b.is_homomorphism()
        assert not sd.proj_a.is_homomorphism()  # twisting breaks the first projection

    def test_canonical_factorization(self):
        sd = semidirect(C3, INVERSION, C2)
        fac = sd.canonical_factorization()
        assert fac.first.members == sd.first_image().members
        assert fac.second.members == sd.second_image().members

    def test_action_mismatch(self):
        with pytest.raises(ActionMismatch):
            semidirect(C4, INVERSION, C2)

    def test_battery_product_inverses(self):
        for act in BATTERY3:
            P = semidirect(act.acted, act, act.actor).product
            assert list(P.inverses) == [oracles.inverse_by_scan(P, x) for x in P.elements()]


class TestH0:
    def test_trivial_action_fixes_everything(self):
        assert h0(trivial_action(C2, C3)).members == (0, 1, 2)

    def test_inversion_fixes_identity_only(self):
        assert h0(INVERSION).members == (0,)

    def test_self_conjugation_finds_center(self):
        report = inner_action_and_convolution(S3, S3, identity_map(S3))
        assert h0(report.action).members == (0,)


class TestZ1:
    def test_trivial_action_recovers_homs(self):
        for B, A in [(C2, C3), (C2, S3), (B2, B2)]:
            cocycles = z1(trivial_action(B, A))
            homs = enumerate_homs(B, A)
            assert [c.values for c in cocycles] == [h.values for h in homs]

    def test_inversion_has_three(self):
        cocycles = z1(INVERSION, unit_valued=True)
        assert [c.values for c in cocycles] == [(0, 0), (0, 1), (0, 2)]

    def test_trivial_coefficients(self):
        act = trivial_action(S3, CATALOG["trivial"])
        assert [c.values for c in z1(act)] == [(0,) * 6]

    def test_matches_oracle(self):
        for act in [
            INVERSION,
            trivial_action(C2, C4),
            trivial_action(B2, B2),
            validate_action(C2, C4, [[0, 1, 2, 3], [0, 3, 2, 1]]),
        ]:
            assert [c.values for c in z1(act)] == sorted(oracles.z1_values(act))

    def test_matches_oracle_on_battery(self):
        for desc, act in verify._actions(verify._battery_pairs(verify._population(3, True))):
            assert [c.values for c in z1(act)] == oracles.z1_values(act), desc

    def test_always_contains_zero(self):
        act = validate_action(C2, C4, [[0, 1, 2, 3], [0, 3, 2, 1]])
        assert (0, 0) in [c.values for c in z1(act)]

    def test_order9_actor_raises_before_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched past the cap")

        monkeypatch.setattr(
            importlib.import_module("monofact.semidirect"), "search_assignments", no_search
        )
        act = trivial_action(direct_product(C3, C3), C2)
        for unit_valued in (False, True):
            with pytest.raises(SizeBoundExceeded, match="capped at order 8"):
                z1(act, unit_valued=unit_valued)

    def test_unit_flag(self):
        act = trivial_action(B2, B2)
        flags = {c.values: c.unit_valued for c in z1(act)}
        assert flags[(0, 0)] is True and flags[(0, 1)] is False


class TestH1:
    def test_inversion_single_class(self):
        classes = h1(INVERSION, unit_valued=True)
        assert classes.class_count == 1
        assert classes.base_class == 0

    def test_trivial_on_trivial(self):
        act = trivial_action(CATALOG["trivial"], CATALOG["trivial"])
        assert h1(act).class_count == 1

    def test_witnesses_replay(self):
        act = INVERSION
        classes = h1(act)
        atab, star = act.acted.table, act.star
        for i, a0, j in classes.witnesses:
            ci, cj = classes.objects[i], classes.objects[j]
            assert all(
                atab[ci(b)][star[b][a0]] == atab[a0][cj(b)]
                for b in act.actor.elements()
            )


class TestH1GivenCocycles:
    """h1 on an already enumerated Z¹ is h1 on its own enumeration."""

    @pytest.fixture(scope="class")
    def actions(self):
        population = verify._population(3, True)
        battery = [act for _, act in verify._actions(verify._battery_pairs(population))]
        inner = []
        for _, A in population:
            for _, B in population:
                if B.size > verify._ACTION_ACTOR_LIMIT:
                    continue
                if A.size * B.size > verify._ACTION_PRODUCT_LIMIT:
                    continue
                for kappa in enumerate_homs(B, A):
                    if all(v in units(A).member_set for v in kappa.values):
                        inner.append(inner_action_and_convolution(B, A, kappa).action)
        assert (len(battery), len(inner)) == (978, 431)  # the order-3 check counts
        return battery + inner

    def test_same_classes(self, actions):
        def fields(classes):
            return (
                classes.objects,
                classes.class_of,
                classes.representatives,
                classes.witnesses,
                classes.base_class,
            )

        for act in actions:
            for unit_valued in (False, True):
                given = h1(act, unit_valued, cocycles=z1(act, unit_valued))
                assert fields(given) == fields(h1(act, unit_valued))

    def test_rejects_another_actions_cocycles(self):
        with pytest.raises(ActionMismatch):
            h1(INVERSION, cocycles=z1(trivial_action(C2, C3)))
        with pytest.raises(ActionMismatch):
            h1(INVERSION, unit_valued=True, cocycles=z1(trivial_action(C2, C3), True))

    def test_rejects_cocycles_without_zero(self):
        with pytest.raises(ActionMismatch):
            h1(INVERSION, cocycles=[])
        nonzero = [c for c in z1(INVERSION, True) if set(c.values) != {C3.identity}]
        assert nonzero
        with pytest.raises(ActionMismatch):
            h1(INVERSION, unit_valued=True, cocycles=nonzero)

    def test_rejects_non_unit_valued_cocycles_when_unit_valued(self):
        # c2z's element 2 acts by collapsing c2z to e; two of the four cocycles leave U(c2z)
        C2Z = CATALOG["c2z"]
        act = validate_action(C2Z, C2Z, [[0, 1, 2], [0, 1, 2], [0, 0, 0]])
        every = z1(act)
        assert (len(every), sum(c.unit_valued for c in every)) == (4, 2)
        with pytest.raises(ActionMismatch):
            h1(act, unit_valued=True, cocycles=every)
        given = h1(act, unit_valued=True, cocycles=z1(act, unit_valued=True))
        assert (given.class_count, len(given.objects)) == (1, 2)
        assert h1(act, cocycles=every).class_count == h1(act).class_count


class TestClassesMatchPairwiseScan:
    """Orbit classes agree with the pairwise relation scan on the battery population."""

    @pytest.fixture(scope="class")
    def population(self):
        return verify._population(3, True)

    @staticmethod
    def assert_same(classes, scan):
        class_of, class_count, base_class = scan
        assert classes.class_of == class_of
        assert classes.class_count == class_count
        assert classes.base_class == base_class

    def test_h1_and_sections(self, population):
        actions = list(verify._actions(verify._battery_pairs(population)))
        assert len(actions) == 978  # the semidirect-construction count at order 3
        for _, act in actions:
            A, B = act.acted, act.actor
            atab, star = A.table, act.star
            unit_members = units(A).members
            zero = (A.identity,) * B.size
            for unit_valued in (False, True):
                classes = h1(act, unit_valued)
                cocycles = classes.objects

                def cohomologous(i, j, a0):
                    return all(
                        atab[cocycles[i](b)][star[b][a0]] == atab[a0][cocycles[j](b)]
                        for b in B.elements()
                    )

                base = next(i for i, c in enumerate(cocycles) if c.values == zero)
                self.assert_same(
                    classes,
                    oracles.unit_conjugacy_classes(
                        len(cocycles), unit_members, cohomologous, base
                    ),
                )
            sd = semidirect(A, act, B)
            report = sections(sd)
            secs, ptab, jA = report.sections, sd.product.table, sd.embed_a

            def conjugate_sections(i, j, a0):
                u, u_inv = jA(a0), jA(inverse_in(A, a0))
                return all(
                    ptab[ptab[u][secs[i](b)]][u_inv] == secs[j](b) for b in B.elements()
                )

            base = report.section_of_cocycle[
                next(i for i, c in enumerate(report.cocycles) if c.values == zero)
            ]
            self.assert_same(
                report.classes,
                oracles.unit_conjugacy_classes(
                    len(secs), unit_members, conjugate_sections, base
                ),
            )

    def test_hom_classes(self, population):
        reports = 0
        for _, A in population:
            unit_members = units(A).members
            atab = A.table
            for _, B in population:
                if B.size > verify._ACTION_ACTOR_LIMIT:
                    continue
                if A.size * B.size > verify._ACTION_PRODUCT_LIMIT:
                    continue
                for kappa in enumerate_homs(B, A):
                    if any(v not in unit_members for v in kappa.values):
                        continue
                    report = inner_action_and_convolution(B, A, kappa)
                    homs = report.homs

                    def conjugate_homs(i, j, a0):
                        inv = inverse_in(A, a0)
                        return all(
                            atab[atab[a0][homs[i](b)]][inv] == homs[j](b)
                            for b in B.elements()
                        )

                    base = next(
                        i for i, h in enumerate(homs) if h.values == kappa.values
                    )
                    self.assert_same(
                        report.hom_classes,
                        oracles.unit_conjugacy_classes(
                            len(homs), unit_members, conjugate_homs, base
                        ),
                    )
                    reports += 1
        assert reports == 431  # the inner-convolution count at order 3

    def test_section_witnesses_replay(self):
        sd = semidirect(C3, INVERSION, C2)
        classes = sections(sd).classes
        ptab = sd.product.table
        assert classes.witnesses
        for i, a0, j in classes.witnesses:
            u, u_inv = sd.embed_a(a0), sd.embed_a(inverse_in(C3, a0))
            si, sj = classes.objects[i], classes.objects[j]
            assert all(ptab[ptab[u][si(b)]][u_inv] == sj(b) for b in C2.elements())


class TestSections:
    def test_inversion_counts(self):
        sd = semidirect(C3, INVERSION, C2)
        report = sections(sd)
        assert len(report.sections) == 3
        assert report.classes.class_count == 1

    def test_trivial_action_sections_are_homs(self):
        sd = semidirect(C3, trivial_action(C2, C3), C2)
        report = sections(sd)
        assert len(report.sections) == len(enumerate_homs(C2, C3))

    def test_mutually_inverse(self):
        sd = semidirect(C3, INVERSION, C2)
        report = sections(sd)
        for i in range(len(report.cocycles)):
            assert report.cocycle_of_section[report.section_of_cocycle[i]] == i
        for j in range(len(report.sections)):
            assert report.section_of_cocycle[report.cocycle_of_section[j]] == j

    def test_canonical_embedding_is_the_zero_section(self):
        sd = semidirect(C3, INVERSION, C2)
        report = sections(sd)
        zero_pos = next(
            i for i, c in enumerate(report.cocycles) if c.values == (0, 0)
        )
        assert report.sections[report.section_of_cocycle[zero_pos]].values == sd.embed_b.values

    def test_every_section_splits_the_projection(self):
        sd = semidirect(C3, INVERSION, C2)
        for f in sections(sd).sections:
            assert f.is_homomorphism()
            assert all(sd.proj_b(f(b)) == b for b in C2.elements())

    def test_match_fibre_scan_on_battery(self):
        actions = list(verify._actions(verify._battery_pairs(verify._population(3, True))))
        assert len(actions) == 978
        for desc, act in actions:
            sd = semidirect(act.acted, act, act.actor)
            found = [f.values for f in sections(sd).sections]
            assert found == oracles.section_values(sd), desc


class TestFacFromZ1:
    def test_zero_gives_canonical_second_factor(self):
        sd = semidirect(C3, INVERSION, C2)
        zero = next(c for c in z1(INVERSION, True) if c.values == (0, 0))
        assert fac_from_z1(sd, zero).members == sd.second_image().members

    def test_twisted_graph(self):
        sd = semidirect(C3, INVERSION, C2)
        chi = next(c for c in z1(INVERSION, True) if c.values == (0, 1))
        assert fac_from_z1(sd, chi).members == tuple(
            sorted((sd.pair_index(0, 0), sd.pair_index(1, 1)))
        )

    def test_exhausts_partner_set(self):
        sd = semidirect(C3, INVERSION, C2)
        images = {fac_from_z1(sd, chi).members for chi in z1(INVERSION, True)}
        partners = {B.members for B in fac_over(sd.product, sd.first_image())}
        assert images == partners and len(images) == 3

    def test_requires_unit_values(self):
        act = trivial_action(B2, B2)
        sd = semidirect(B2, act, B2)
        non_unit = next(c for c in z1(act) if not c.unit_valued)
        with pytest.raises(NotUnitValued):
            fac_from_z1(sd, non_unit)

    def test_unit_flag_is_read_off_the_values(self):
        # a cocycle built by hand from a map that leaves U(B2) cannot pass as unit-valued
        act = trivial_action(B2, B2)
        zero, non_unit = z1(act)
        built = Cocycle1(act, non_unit.underlying)
        assert built.unit_valued is False and built == non_unit
        assert repr(built) == "Cocycle1((0, 1))"
        with pytest.raises(NotUnitValued):
            fac_from_z1(semidirect(B2, act, B2), built)
        with pytest.raises(ActionMismatch):
            h1(act, unit_valued=True, cocycles=[zero, built])


class TestNormality:
    def test_a3_normal_in_s3(self):
        assert normality_check(S3, SubMonoid(S3, (0, 4, 5)), S3.elements(), "left")

    def test_transposition_not_normal(self):
        a3 = SubMonoid(S3, (0, 4, 5))
        assert not normality_check(S3, SubMonoid(S3, (0, 1)), a3, "left")

    def test_identity_always_normalizes(self):
        assert normality_check(S3, SubMonoid(S3, (0, 1)), [0], "both")

    def test_both_sides(self):
        a3 = SubMonoid(S3, (0, 4, 5))
        assert normality_check(S3, a3, S3.elements(), "both")

    def test_right_side_fails_where_left_holds(self):
        # in lz21, 2*N = {2} lies in N*2 = {1, 2}, but not the reverse
        lz, N = CATALOG["lz21"], SubMonoid(CATALOG["lz21"], (0, 1))
        assert normality_check(lz, N, [2], "left")
        assert not normality_check(lz, N, [2], "right")
        assert not normality_check(lz, N, [2], "both")

    def test_parent_mismatch(self):
        a3, half = SubMonoid(S3, (0, 4, 5)), SubMonoid(C4, (0, 2))
        with pytest.raises(ParentMismatch):
            normality_check(S3, half, [1])
        with pytest.raises(ParentMismatch):
            normality_check(S3, a3, half)
        with pytest.raises(ParentMismatch):
            normality_check(S3, a3, C4)

    def test_monoid_as_the_elements_it_lists(self):
        # M is a carrier of itself: its members are its elements
        verdicts = set()
        for M in CATALOG.values():
            for N in enumerate_submonoids(M):
                for side in ("left", "right", "both"):
                    verdict = normality_check(M, N, M, side)
                    assert verdict == normality_check(M, N, M.elements(), side)
                    verdicts.add(verdict)
        assert verdicts == {True, False}

    # a negative index would read the table from its end, a bool would pass as 0 or 1
    @pytest.mark.parametrize("X", [[-1], [6], [True]], ids=["negative", "too-large", "bool"])
    def test_element_out_of_range(self, X):
        with pytest.raises(IndexOutOfRange):
            normality_check(S3, SubMonoid(S3, (0, 4, 5)), X)


class TestNormalityEquivalences:
    def test_normal_group_factor(self):
        fac = try_factorization(S3, SubMonoid(S3, (0, 4, 5)), SubMonoid(S3, (0, 1)))
        report = factorization_normality_equivalences(fac)
        assert report.left_normal and report.iso is not None
        assert normality_check(S3, fac.first, S3.elements())  # normal against all of S3
        assert find_isomorphism(report.product.product, S3) is not None
        # the recovered action is the inversion twist on the rotation factor
        assert report.action.star == ((0, 1, 2), (0, 2, 1))

    def test_trivial_first_factor(self):
        fac = try_factorization(
            S3, SubMonoid(S3, (0,)), SubMonoid(S3, tuple(range(6)))
        )
        report = factorization_normality_equivalences(fac)
        assert report.left_normal and fac.to_second.is_homomorphism()

    def test_direct_product_factorization(self):
        M = CATALOG["b2xc2"]
        fac = try_factorization(M, SubMonoid(M, (0, 2)), SubMonoid(M, (0, 1)))
        report = factorization_normality_equivalences(fac)
        assert report.left_normal
        assert report.action.star == ((0, 1), (0, 1))  # trivial twist

    def test_swapped_factors_all_false(self):
        fac = try_factorization(S3, SubMonoid(S3, (0, 1)), SubMonoid(S3, (0, 4, 5)))
        report = factorization_normality_equivalences(fac)
        assert not report.left_normal and not fac.to_second.is_homomorphism()
        assert report.action is None and report.iso is None


def _symmetric4():
    # the product p*q acts by q first, as in the catalog's S3: (p*q)(i) = p(q(i))
    perms = list(itertools.permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(4))] for q in perms] for p in perms]
    return FiniteMonoid(table, 0), perms


class TestZappaSzepFactorization:
    """S4 = S3 * C4 is exact but not semidirect: the recovered table is no action."""

    def test_recovered_table_fails_a4(self):
        S4, perms = _symmetric4()
        stabiliser = SubMonoid(S4, tuple(i for i, p in enumerate(perms) if p[3] == 3))
        powers = sorted(perms.index(tuple((i + k) % 4 for i in range(4))) for k in range(4))
        rotation = SubMonoid(S4, tuple(powers))
        fac = try_factorization(S4, stabiliser, rotation)
        A, B = fac.first, fac.second
        star = [
            [A.positions[fac.to_first(S4.table[b][a])] for a in A.members] for b in B.members
        ]
        with pytest.raises(AxiomViolation) as exc:
            validate_action(B.as_monoid(), A.as_monoid(), star)
        assert exc.value.axiom == "A4"
        report = factorization_normality_equivalences(fac)
        assert report.left_normal is False
        assert (report.action, report.product, report.iso) == (None, None, None)
        assert fac.to_second.is_homomorphism() is False
        assert normality_check(S4, A, B, "left") is False


class TestSplitEpi:
    def test_sign_retraction(self):
        sign = ElementMap(S3, C2, (0, 1, 1, 1, 0, 0))
        section = ElementMap(C2, S3, (0, 1))
        report = split_epi_analysis(S3, C2, sign, section)
        assert report.condition_translation and report.factorization is not None
        assert report.kernel.members == (0, 4, 5)
        assert report.section_image.members == (0, 1)
        assert normality_check(S3, report.kernel, report.section_image)

    def test_identity_pair(self):
        report = split_epi_analysis(S3, S3, identity_map(S3), identity_map(S3))
        assert report.condition_translation and report.factorization is not None
        assert report.kernel.members == (0,)

    def test_nongroup_kernel_fails_both(self):
        M = CATALOG["b2xc2"]
        projection = ElementMap(M, C2, (0, 1, 0, 1))
        section = ElementMap(C2, M, (0, 1))
        report = split_epi_analysis(M, C2, projection, section)
        assert not report.kernel_is_group
        assert not report.condition_translation and report.factorization is None

    def test_rejects_non_split_pair(self):
        to_unit = zero_map(S3, C2)
        section = ElementMap(C2, S3, (0, 1))
        with pytest.raises(NotASplitPair):
            split_epi_analysis(S3, C2, to_unit, section)

    def test_maps_out_of_another_monoid(self):
        with pytest.raises(ParentMismatch):
            split_epi_analysis(S3, C3, identity_map(C3), identity_map(C3))
        sign = ElementMap(S3, C2, (0, 1, 1, 1, 0, 0))
        with pytest.raises(ParentMismatch):  # the section must land in S3 itself
            split_epi_analysis(S3, C2, sign, ElementMap(C2, SubMonoid(S3, (0, 1)), (0, 1)))


class TestConvolution:
    def test_transposition_kappa_counts(self):
        kappa = ElementMap(C2, S3, (0, 1))
        report = inner_action_and_convolution(C2, S3, kappa)
        assert len(report.cocycles) == 4
        assert len(report.homs) == 4
        assert report.bijection_ok
        zero_pos = next(i for i, c in enumerate(report.cocycles) if c.values == (0, 0))
        assert report.homs[report.convolution_of[zero_pos]].values == kappa.values
        assert report.cocycle_classes.class_count == 2
        assert report.hom_classes.class_count == 2
        assert report.induced_bijection_ok

    def test_zero_kappa_is_identity_correspondence(self):
        report = inner_action_and_convolution(C2, S3, zero_map(C2, S3))
        assert report.action.star == trivial_action(C2, S3).star
        for i, c in enumerate(report.cocycles):
            assert report.homs[report.convolution_of[i]].values == c.values

    def test_zero_cocycle_convolves_to_kappa(self):
        kappa = ElementMap(C2, S3, (0, 1))
        report = inner_action_and_convolution(C2, S3, kappa)
        zero_pos = next(
            i for i, c in enumerate(report.cocycles) if c.values == (0, 0)
        )
        assert report.homs[report.convolution_of[zero_pos]].values == kappa.values

    def test_requires_unit_valued_hom(self):
        with pytest.raises(NotUnitValuedHom):
            inner_action_and_convolution(B2, B2, identity_map(B2))

    def test_hom_out_of_another_monoid(self):
        with pytest.raises(ParentMismatch):
            inner_action_and_convolution(C2, C3, identity_map(C3))


class TestConical:
    def test_b2_axis_in_product(self):
        M = CATALOG["b2xc2"]
        report = conical_check(M, SubMonoid(M, (0, 2)))
        assert report.conical and report.bound_satisfied
        assert [B.members for B in report.second_factors] == [(0, 1)]

    def test_trivial_factor(self):
        report = conical_check(S3, SubMonoid(S3, (0,)))
        assert report.conical and report.bound_satisfied
        assert [B.members for B in report.second_factors] == [tuple(range(6))]

    def test_group_factor_not_conical(self):
        report = conical_check(S3, SubMonoid(S3, (0, 4, 5)))
        assert not report.conical and report.bound_satisfied is None
