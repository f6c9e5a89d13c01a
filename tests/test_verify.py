import dataclasses
import importlib
import itertools
import json
import math
import random
import sys
import types
from pathlib import Path

import pytest

import oracles
from monofact import core, descent, factorization, verify
from monofact.catalog import CATALOG
from monofact.core import (
    ElementMap,
    MonoidError,
    SizeBoundExceeded,
    SubMonoid,
    direct_product,
    enumerate_homs,
    enumerate_monoids,
    enumerate_submonoids,
    units,
    zero_map,
)
from monofact.descent import (
    DescentCocycle,
    cocycle_kernel,
    conjugate_second_factor,
    groupoid_components,
)
from monofact.factorization import _columns, _rows, verify_bicross
from monofact.semidirect import ConicalReport, SemidirectProduct, h1, z1
from monofact.verify import verify_suite

# verify_suite(n, catalog).lines() for n = 1..3, with and without the catalog
GOLDEN_REPORTS = json.loads(
    (Path(__file__).parent / "goldens" / "verify_small.json").read_text()
)


def patch_check(monkeypatch, check_id, check):
    """Replace the function of one ``verify._CHECKS`` entry for one test."""
    table = tuple(
        (i, kind, check if i == check_id else fn) for i, kind, fn in verify._CHECKS
    )
    monkeypatch.setattr(verify, "_CHECKS", table)


def planted_error(unit):
    raise MonoidError("planted")


def result_of(report, check_id):
    return next(c for c in report.checks if c.check == check_id)


def assert_golden_except(report, key, changed):
    """Every line of ``report`` outside the ``changed`` checks equals the golden."""
    golden = GOLDEN_REPORTS[key]
    assert len(report.checks) == len(golden) - 2
    for result, line in zip(report.checks, golden[1:-1]):
        assert line.startswith(f"{result.check}: ")
        if result.check not in changed:
            assert result.line() == line


class TestSuite:
    def test_trivial_population_passes(self):
        report = verify_suite(1, catalog=False)
        assert report.all_passed

    def test_size_two_with_catalog(self):
        report = verify_suite(2, catalog=True)
        assert report.all_passed
        # no vacuous passes: every check exercised at least one instance
        assert all(c.instances > 0 for c in report.checks)

    def test_population_description(self):
        report = verify_suite(1, catalog=False)
        assert report.population == "generated <= 1"
        report = verify_suite(2, catalog=True)
        assert "catalog" in report.population

    def test_lines_are_stable(self):
        a = verify_suite(2, catalog=False).lines()
        b = verify_suite(2, catalog=False).lines()
        assert a == b

    def test_vacuous_check_does_not_pass(self, monkeypatch):
        patch_check(monkeypatch, "conical-bound", lambda unit: (0, None))
        report = verify_suite(1, catalog=False)
        result = next(c for c in report.checks if c.check == "conical-bound")
        assert (result.passed, result.line()) == (False, "conical-bound: FAIL (0 instances)")
        assert not report.all_passed
        assert report.lines()[-1].startswith("total: 26/27 checks passed")

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("catalog", [False, True])
    def test_report_matches_golden(self, n, catalog):
        assert verify_suite(n, catalog).lines() == GOLDEN_REPORTS[f"{n} catalog={catalog}"]

    def test_corrupted_table_rejected_before_suite(self):
        # a broken table never becomes a monoid, so it can never enter a population
        from monofact.core import from_table

        with pytest.raises(MonoidError):
            from_table([[0, 1, 2], [1, 0, 0], [2, 0, 1]])


def kernel_pair_population():
    """Every monoid of order <= 4, one per class, and the catalog monoids of order <= 4."""
    population = [M for n in range(1, 5) for M in enumerate_monoids(n, up_to_iso=True)]
    return population + [M for M in CATALOG.values() if M.size <= 4]


class TestKernelPairScan:
    def test_engine_maps_match_product_scan(self):
        """Both sides' engine enumerations list the scan's maps, on every (A, B)."""
        pairs = maps = 0
        for M in kernel_pair_population():
            subs = enumerate_submonoids(M)
            for A, B in itertools.product(subs, repeat=2):
                lefts = verify._component_maps(M, A, B, _rows(M, A))
                rights = verify._component_maps(M, B, A, _columns(M, B))
                assert [f.values for f in lefts] == oracles.collapsing_component_maps(
                    M, A, B, "left"
                )
                assert [g.values for g in rights] == oracles.collapsing_component_maps(
                    M, B, A, "right"
                )
                pairs += 1
                maps += len(lefts) + len(rights)
        assert (pairs, maps) == (1620, 1618)

    def test_factored_scan_matches_verify_bicross(self):
        """Every (A, B, l, r) at order <= 3 within the scan limit, pair by pair."""
        pairs = accepted_total = 0
        for n in range(1, 4):
            for M in enumerate_monoids(n, up_to_iso=True):
                subs = enumerate_submonoids(M)
                for A, B in itertools.product(subs, repeat=2):
                    if len(A) ** n * len(B) ** n > verify._BICROSS_SCAN_LIMIT:
                        continue
                    l_maps = [ElementMap(M, A, v) for v in itertools.product(A.members, repeat=n)]
                    r_maps = [ElementMap(M, B, v) for v in itertools.product(B.members, repeat=n)]
                    direct = {
                        (f.values, g.values)
                        for f in l_maps
                        for g in r_maps
                        if verify_bicross(M, A, B, f, g)
                    }
                    assert verify._bicross_accepted(M, A, B) == direct
                    pairs += 1
                    accepted_total += len(direct)
        assert pairs > 0 and accepted_total > 0

    def test_every_pair_without_the_bound(self, monkeypatch):
        """The check passes on all pairs of order <= 4 + catalog, the skipped ones included."""
        monkeypatch.setattr(verify, "_BICROSS_SCAN_LIMIT", math.inf)
        total = 0
        for name, M in verify._population(4, True):
            instances, counterexample = verify._kernel_pair_characterization(
                verify._MonoidObjects(name, M)
            )
            assert counterexample is None, name
            total += instances
        assert total == 1838

    def test_rejected_component_pair_is_reported(self, monkeypatch):
        # a scan that accepts nothing misses the expected pair of the first factorizing (A, B)
        monkeypatch.setattr(verify, "_bicross_accepted", lambda *args: set())
        result = result_of(verify_suite(1, catalog=False), "kernel-pair-characterization")
        assert result.instances == 2
        assert result.counterexample == (
            "order1#0 table=[[0]]; pair ((0,),(0,)) maps (0,)/(0,): accepted=False expected=True"
        )

    def test_rejected_factorization_maps_are_reported(self, monkeypatch):
        # the factorizations are judged before the scan, so a rejection stops there
        real = verify.verify_bicross
        monkeypatch.setattr(
            verify, "verify_bicross", lambda M, A, B, f, g: len(A) == 1 and real(M, A, B, f, g)
        )
        report = verify_suite(2, catalog=False)
        assert_golden_except(report, "2 catalog=False", {"kernel-pair-characterization"})
        # order1#0's factorization and pair, then C2's ({e}, C2) before (C2, {e})
        assert result_of(report, "kernel-pair-characterization").line() == (
            "kernel-pair-characterization: FAIL (4 instances) -- order2#0 table=[[0, 1], [1, 0]]; "
            "component maps of Factorization((0, 1), (0,)) rejected"
        )

    def test_wrongly_accepted_pair_is_reported(self, monkeypatch):
        real = verify._bicross_accepted

        def too_many(M, A, B):
            constant = (M.identity,) * M.size
            return real(M, A, B) | {(constant, constant)}

        monkeypatch.setattr(verify, "_bicross_accepted", too_many)
        result = result_of(verify_suite(2, catalog=False), "kernel-pair-characterization")
        # C2 = order2#0 has two factorizations; its ({e}, {e}) pair has one map each way
        assert result.instances == 5
        assert result.counterexample == (
            "order2#0 table=[[0, 1], [1, 0]]; pair ((0,),(0,)) maps (0, 0)/(0, 0): "
            "accepted=True expected=False"
        )


class TestActionBattery:
    """One driver runs every check, the battery's included; each outcome is independent."""

    KEY = "2 catalog=False"
    CHECK_IDS = [line.split(":")[0] for line in GOLDEN_REPORTS[KEY][1:-1]]
    K = 2  # the planted counterexample's unit, counted within the check's kind
    BATTERY_IDS = (
        "semidirect-construction",
        "sections-bijection",
        "unit-z1-second-factors",
        "h1-component-count",
    )

    @pytest.fixture(scope="class")
    def planted_descriptions(self):
        """What the driver must print for a counterexample at the K-th unit of each kind."""
        pop = verify._population(2, False)
        name, M = pop[self.K - 1]
        return {
            "monoid": f"{name} table={[list(r) for r in M.table]}; planted",
            "action": f"{verify._action_population(pop)[self.K - 1][0]}: planted",
            "inner": "order2#0->order1#0 kappa=(0, 0): planted",
        }

    def run_patched(self, monkeypatch, target, check):
        patch_check(monkeypatch, target, check)
        report = verify_suite(2, catalog=False)
        assert_golden_except(report, self.KEY, {target})
        return result_of(report, target)

    def test_ids_in_report_order(self):
        assert [check_id for check_id, _, _ in verify._CHECKS] == self.CHECK_IDS
        assert len(self.CHECK_IDS) == 27

    def test_every_check_is_an_each_declaration(self):
        # _each holds the one instance loop and the one failure path
        declared = verify._single(lambda unit: None).__qualname__
        assert {fn.__qualname__ for _, _, fn in verify._CHECKS} == {declared}

    def test_order_and_counts(self):
        actions = verify._action_population(verify._population(2, False))
        results = verify_suite(2, catalog=False).checks
        battery = [r for r in results if r.check in self.BATTERY_IDS]
        assert tuple(r.check for r in battery) == self.BATTERY_IDS
        assert all(r.passed and r.instances == len(actions) for r in battery)

    def test_suite_reports_the_battery_in_place(self):
        ids = [c.check for c in verify_suite(1, catalog=False).checks]
        start = ids.index("semidirect-construction")
        assert tuple(ids[start : start + 4]) == self.BATTERY_IDS

    @pytest.mark.parametrize("target", CHECK_IDS)
    def test_counterexample_stops_only_its_check(
        self, monkeypatch, planted_descriptions, target
    ):
        kind, real = next((k, fn) for i, k, fn in verify._CHECKS if i == target)
        seen = []  # instances the real check counted on each unit it was run on

        def fail_at_k(unit):
            instances, counterexample = real(unit)
            assert counterexample is None
            seen.append(instances)
            return instances, "planted" if len(seen) == self.K else None

        failed = self.run_patched(monkeypatch, target, fail_at_k)
        assert len(seen) == self.K  # the check is not run past its counterexample
        # the count a loop over the instances reports at the last one of unit K
        assert (failed.instances, failed.passed) == (sum(seen), False)
        assert failed.instances > 0
        assert failed.counterexample == planted_descriptions[kind]

    @pytest.mark.parametrize("target", CHECK_IDS)
    def test_error_fails_only_its_check(self, monkeypatch, planted_descriptions, target):
        kind = next(k for i, k, _ in verify._CHECKS if i == target)
        seen = []

        @verify._single
        def raise_at_k(unit):
            seen.append(unit)
            return planted_error(unit) if len(seen) == self.K else None

        failed = self.run_patched(monkeypatch, target, raise_at_k)
        # the raise is the counterexample of the instance it was judging, which counts
        assert (failed.instances, failed.passed, failed.counterexample) == (
            self.K,
            False,
            planted_descriptions[kind],
        )

    def test_shared_objects_built_once(self, monkeypatch):
        # the factorizations come from each unit's submonoids, not from a second enumeration
        calls = {"semidirect": 0, "_factorizations": 0, "enumerate_submonoids": 0}
        for module, name in [
            (verify, "semidirect"),
            (verify, "_factorizations"),
            (verify, "enumerate_submonoids"),
            (factorization, "enumerate_submonoids"),
        ]:
            real = getattr(module, name)

            def counting(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counting)
        verify_suite(2, catalog=False)
        pop = verify._population(2, False)
        assert calls == {
            "semidirect": len(verify._action_population(pop)),
            "_factorizations": len(pop),
            "enumerate_submonoids": len(pop),
        }

    def test_second_run_rebuilds_its_state(self, monkeypatch):
        calls = []
        real = verify.enumerate_submonoids

        def counting(M):
            calls.append(M)
            return real(M)

        monkeypatch.setattr(verify, "enumerate_submonoids", counting)
        first = verify_suite(2, catalog=False).lines()
        per_run = len(calls)
        assert per_run == len(verify._population(2, False))
        assert verify_suite(2, catalog=False).lines() == first
        assert len(calls) == 2 * per_run


class TestRetractions:
    def test_match_fill_scan(self):
        """The pinned search lists the scan's retractions in the filtered hom search's order."""
        total = 0
        for name, M in verify._population(4, True):
            u = verify._MonoidObjects(name, M)
            for S in u.subs:
                got = verify._retractions(M, S)
                assert got == oracles.retraction_values(M, S), (name, S.members)
                homs = [f.values for f in enumerate_homs(M, S)]
                assert got == [h for h in homs if all(h[s] == s for s in S.members)]
                total += len(got)
        assert total == 305

    def test_split_checks_past_order_8(self):
        """C3 x C3 has nine elements, past the hom search's domain cap."""
        u = verify._MonoidObjects("c3xc3", direct_product(CATALOG["c3"], CATALOG["c3"]))
        checks = {check_id: check for check_id, _, check in verify._CHECKS}
        assert checks["split-epi-translation"](u) == (14, None)
        assert checks["three-way-correspondence"](u) == (1, None)

    def test_split_reports_match_the_translation_scan(self):
        """Each retraction's report judges unique translation as the scan does."""
        total = translating = 0
        for name, M in verify._population(4, True):
            u = verify._MonoidObjects(name, M)
            pairs = [(S, r) for S in u.subs for r in verify._retractions(M, S)]
            assert list(u.retractions) == pairs
            for S, retraction in pairs:
                expected = oracles.unique_translation(M, retraction)
                report = u.split_report(S, retraction)
                assert report.condition_translation == expected, (name, retraction)
                assert u.split_report(S, retraction) is report
                translating += expected
            total += len(pairs)
        assert (total, translating) == (305, 88)


class TestPlantedFaults:
    """A planted fault in a library call gives the exact report line of the check reading it."""

    # the module, not the function of the same name that the package exports
    SEMIDIRECT = importlib.import_module("monofact.semidirect")

    @staticmethod
    def lines(checks):
        return {result.check: result.line() for result in checks}

    def order3_lines(self):
        return self.lines(verify._run_checks(verify._population(3, True)))

    def test_broken_conical_bound(self, monkeypatch):
        real = verify.conical_check
        monkeypatch.setattr(
            verify,
            "conical_check",
            lambda M, A: ConicalReport(True, (), False) if len(A) > 1 else real(M, A),
        )
        assert self.order3_lines()["conical-bound"] == (
            "conical-bound: FAIL (3 instances) -- c2 table=[[0, 1], [1, 0]]; "
            "conical (0, 1) has partners []"
        )

    def test_negated_cocycle_equivalence(self, monkeypatch):
        real = verify._equivalent_cocycles
        monkeypatch.setattr(
            verify,
            "_equivalent_cocycles",
            lambda M, A, q, q2: real(M, A, q, q2) != (len(A) > 1),
        )
        assert self.order3_lines()["equivalence-vs-conjugacy"] == (
            "equivalence-vs-conjugacy: FAIL (3 instances) -- c2 table=[[0, 1], [1, 0]]; "
            "equivalence False but conjugacy True for (0, 1) vs (0, 1)"
        )

    def test_negated_normality(self, monkeypatch):
        real = self.SEMIDIRECT.normality_check
        monkeypatch.setattr(self.SEMIDIRECT, "normality_check", lambda *a: not real(*a))
        lines = self.lines(verify_suite(2, catalog=False).checks)
        unit = "order1#0 table=[[0]]"
        assert lines["semidirect-equivalence"] == (
            f"semidirect-equivalence: FAIL (1 instances) -- {unit}; "
            "equivalent conditions disagree: hom=True, normal=False, semidirect=True"
        )
        # each split check meets the raise judging its first instance: the one
        # retraction of order1#0, and the unit itself
        for check in ("split-epi-translation", "three-way-correspondence"):
            assert lines[check] == (
                f"{check}: FAIL (1 instances) -- {unit}; "
                "split kernel is not left-normal against the image"
            )

    def test_images_that_do_not_factorize(self, monkeypatch):
        real = self.SEMIDIRECT.try_factorization
        monkeypatch.setattr(
            self.SEMIDIRECT,
            "try_factorization",
            lambda M, A, B: None if len(A) > 1 else real(M, A, B),
        )
        lines = self.lines(verify_suite(2, catalog=False).checks)
        assert lines["semidirect-construction"] == (
            "semidirect-construction: FAIL (4 instances) -- order1#0 acting on order2#0 #0: "
            "semidirect images failed to factorize the product"
        )

    def assert_order2_lines(self, changed):
        """Order 2 reads the ``changed`` lines on their checks and the golden on the rest."""
        report = verify_suite(2, catalog=False)
        assert_golden_except(report, "2 catalog=False", set(changed))
        assert {c: line for c, line in self.lines(report.checks).items() if c in changed} == changed

    def test_split_factorization_without_the_group_test(self, monkeypatch):
        # split_epi_analysis judges the equivalence; both split checks read its raise
        monkeypatch.setattr(self.SEMIDIRECT, "is_subgroup", lambda M, A: False)
        reason = (
            "order1#0 table=[[0]]; "
            "split-pair conditions disagree: factorization=False, translation=True"
        )
        self.assert_order2_lines(
            {
                "split-epi-translation": f"split-epi-translation: FAIL (1 instances) -- {reason}",
                "three-way-correspondence": "three-way-correspondence: FAIL (1 instances) -- "
                f"{reason}",
            }
        )

    def test_normality_negated_against_all_of_m(self, monkeypatch):
        real = verify.normality_check

        def negated_on_element_lists(M, N, X, side="left"):
            return real(M, N, X, side) != (not isinstance(X, SubMonoid))

        monkeypatch.setattr(verify, "normality_check", negated_on_element_lists)
        self.assert_order2_lines(
            {
                "group-factor-normality": "group-factor-normality: FAIL (1 instances) -- "
                "order1#0 table=[[0]]; Factorization((0,), (0,)): normality transfer True vs False"
            }
        )

    def test_repeated_cocycle(self, monkeypatch):
        # fac_over lists each partner once, so the sorted comparison alone sees the repeat
        real = verify.enumerate_descent_cocycles

        def last_repeated(M, A, side):
            qs = real(M, A, side)
            return qs + qs[-1:]

        monkeypatch.setattr(verify, "enumerate_descent_cocycles", last_repeated)
        self.assert_order2_lines(
            {
                "cocycle-kernel-submonoid": "cocycle-kernel-submonoid: PASS (10 instances)",
                "subgroup-cocycle-bijection": "subgroup-cocycle-bijection: FAIL (1 instances) -- "
                "order1#0 table=[[0]]; subgroup (0,): kernels [(0,), (0,)] vs [(0,)]",
                "three-way-correspondence": "three-way-correspondence: FAIL (1 instances) -- "
                "order1#0 table=[[0]]; corner sizes 1, 2, 1",
            }
        )

    def test_unit_valued_cocycles_without_the_component_map(self, monkeypatch):
        real = descent._unit_valued

        def without_base(M, A, B):
            cocycles, fac = real(M, A, B)
            return [q for q in cocycles if q.values != fac.to_first.values], fac

        monkeypatch.setattr(descent, "_unit_valued", without_base)
        fac = "order1#0 table=[[0]]; Factorization((0,), (0,))"
        self.assert_order2_lines(
            {
                "equivalence-vs-conjugacy": "equivalence-vs-conjugacy: FAIL (0 instances)",
                "unit-cocycle-bijection": "unit-cocycle-bijection: FAIL (1 instances) -- "
                f"{fac}: kernels [] vs partners [(0,)]",
                "groupoid-isomorphism": "groupoid-isomorphism: FAIL (1 instances) -- "
                f"{fac}: kernel map is not a bijection of classes",
                "restricted-cohomology": "restricted-cohomology: FAIL (1 instances) -- "
                f"{fac}: the component map is not a unit-valued cocycle",
            }
        )

    def test_z1_without_the_zero_cocycle(self, monkeypatch):
        real = self.SEMIDIRECT.z1

        def without_zero(act, unit_valued=False):
            zero = (act.acted.identity,) * act.actor.size
            return [c for c in real(act, unit_valued) if c.values != zero]

        monkeypatch.setattr(self.SEMIDIRECT, "z1", without_zero)
        sections = "order1#0 acting on order1#0 #0: section/cocycle correspondence broke: (0,)"
        inner = "order1#0->order1#0 kappa=(0,): the cocycles lack the zero cocycle"
        self.assert_order2_lines(
            {
                **{
                    check: f"{check}: FAIL (1 instances) -- {sections}"
                    for check in (
                        "sections-bijection",
                        "unit-z1-second-factors",
                        "h1-component-count",
                    )
                },
                **{
                    check: f"{check}: FAIL (1 instances) -- {inner}"
                    for check in ("inner-convolution", "inner-convolution-classes")
                },
            }
        )

    def test_unit_group_of_the_identity_alone(self, monkeypatch):
        # one patch of the carriers' shared unit group reaches every reader; a property,
        # not a cached_property, so that it shadows the unit groups the module-level
        # catalog monoids have already cached
        identity_only = property(lambda c: SubMonoid(c.parent, (c.parent.identity,)))
        monkeypatch.setattr(core._Carrier, "_units", identity_only)
        v4 = "v4 table=[[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]"
        fac = f"{v4}; Factorization((0, 1), (0, 2))"
        action = "c2 acting on c2 #0"
        # unit-star-action, unit-star-restriction and sections-bijection keep their golden
        # lines: both sides of each (the acting group and the orbits it is checked on;
        # h1's classes and the section classes) read the same shrunken unit group.  The
        # checks that list units or unit-valued homs as instances pass on fewer of them.
        changed = {
            "equivalence-vs-conjugacy": "equivalence-vs-conjugacy: PASS (60 instances)",
            "unit-cocycle-bijection": "unit-cocycle-bijection: FAIL (9 instances) -- "
            f"{fac}: kernels [(0, 2)] vs partners [(0, 2), (0, 3)]",
            "groupoid-isomorphism": "groupoid-isomorphism: FAIL (9 instances) -- "
            f"{fac}: kernel map is not a bijection of classes",
            "conjugation-action": "conjugation-action: PASS (60 instances)",
            "unit-z1-second-factors": "unit-z1-second-factors: FAIL (21 instances) -- "
            f"{action}: graphs [(0, 1)] vs partners [(0, 1), (0, 3)]",
            "h1-component-count": "h1-component-count: FAIL (21 instances) -- "
            f"{action}: graph map is not a bijection of classes",
            "inner-convolution": "inner-convolution: PASS (364 instances)",
            "inner-convolution-classes": "inner-convolution-classes: PASS (364 instances)",
            "conical-bound": "conical-bound: FAIL (10 instances) -- "
            f"{v4}; conical (0, 1) has partners [(0, 2), (0, 3)]",
            "restricted-cohomology": "restricted-cohomology: FAIL (9 instances) -- "
            f"{fac}: class/component counts differ",
        }
        results = verify._run_checks(verify._population(3, True))
        assert_golden_except(types.SimpleNamespace(checks=results), "3 catalog=True", set(changed))
        assert {r.check: r.line() for r in results if r.check in changed} == changed

    def test_graph_that_ignores_its_cocycle(self, monkeypatch):
        monkeypatch.setattr(verify, "fac_from_z1", lambda sd, chi: sd.second_image())
        action = "order2#0 acting on order2#0 #0"
        self.assert_order2_lines(
            {
                "unit-z1-second-factors": "unit-z1-second-factors: FAIL (5 instances) -- "
                f"{action}: graphs [(0, 1), (0, 1)] vs partners [(0, 1), (0, 3)]",
                "h1-component-count": "h1-component-count: FAIL (5 instances) -- "
                f"{action}: graph map is not a bijection of classes",
            }
        )

    def test_projection_numbering_the_actor_backwards(self, monkeypatch):
        real = verify.semidirect

        def mirrored(A, act, B):
            sd = real(A, act, B)
            values = tuple(B.size - 1 - v for v in sd.proj_b.values)
            return dataclasses.replace(sd, proj_b=ElementMap(sd.product, B, values))

        monkeypatch.setattr(verify, "semidirect", mirrored)
        self.assert_order2_lines(
            {
                "semidirect-construction": "semidirect-construction: FAIL (2 instances) -- "
                "order2#0 acting on order1#0 #0: projection onto the actor is not a homomorphism"
            }
        )

    def test_actor_embedded_along_the_last_unit_cocycle(self, monkeypatch):
        # the twisted graph is still a partner of the first image, so the canonical
        # factorization holds and only the zero cocycle's graph gives the fault away
        real = verify.semidirect

        def twisted(A, act, B):
            sd = real(A, act, B)
            chi = z1(act, unit_valued=True)[-1]
            values = tuple(sd.pair_index(v, b) for b, v in enumerate(chi.values))
            return dataclasses.replace(sd, embed_b=ElementMap(B, sd.product, values))

        monkeypatch.setattr(verify, "semidirect", twisted)
        self.assert_order2_lines(
            {
                "unit-z1-second-factors": "unit-z1-second-factors: FAIL (5 instances) -- "
                "order2#0 acting on order2#0 #0: zero cocycle does not map to the canonical factor"
            }
        )

    def test_section_search_dropping_its_last_solution(self, monkeypatch):
        real = verify.sections

        def short(sd):
            report = real(sd)
            return dataclasses.replace(report, sections=report.sections[:-1])

        monkeypatch.setattr(verify, "sections", short)
        self.assert_order2_lines(
            {
                "sections-bijection": "sections-bijection: FAIL (1 instances) -- "
                "order1#0 acting on order1#0 #0: 0 sections vs 1 cocycles"
            }
        )

    def test_every_section_read_back_as_the_zero_cocycle(self, monkeypatch):
        real = verify.sections

        def zero_back(sd):
            report = real(sd)
            return dataclasses.replace(report, cocycle_of_section=(0,) * len(report.sections))

        monkeypatch.setattr(verify, "sections", zero_back)
        self.assert_order2_lines(
            {
                "sections-bijection": "sections-bijection: FAIL (5 instances) -- "
                "order2#0 acting on order2#0 #0: correspondences are not mutually inverse"
            }
        )

    def test_conjugate_sections_never_merged(self, monkeypatch):
        real = verify.sections

        def discrete(sd):
            report = real(sd)
            c = report.classes
            classes = dataclasses.replace(
                c, class_of=tuple(range(len(c.objects))), representatives=c.objects, witnesses=()
            )
            return dataclasses.replace(report, classes=classes)

        monkeypatch.setattr(verify, "sections", discrete)
        self.assert_order2_lines(
            {
                "sections-bijection": "sections-bijection: FAIL (6 instances) -- "
                "order2#1 acting on order2#0 #0: cocycle classes do not match section classes"
            }
        )

    def test_descent_law_judged_on_the_other_side(self, monkeypatch):
        # the other checks that judge descent cocycles run on commutative monoids at
        # order 2, where both sides read the same law; the semidirect products need not be
        real = verify.is_descent_cocycle

        def flipped(M, A, q, side="left"):
            return real(M, A, q, "right" if side == "left" else "left")

        monkeypatch.setattr(verify, "is_descent_cocycle", flipped)
        self.assert_order2_lines(
            {
                "unit-z1-second-factors": "unit-z1-second-factors: FAIL (6 instances) -- "
                "order2#1 acting on order2#0 #0: induced map is not a descent cocycle "
                "(('R2', (1, 2)))"
            }
        )

    def test_cocycles_of_the_other_side(self, monkeypatch):
        # rows read for columns: each monoid's left cocycles are its right ones, labelled
        # left, which differ first on S3; commutative monoids cannot show the fault
        real = verify.enumerate_descent_cocycles

        def other_side(M, A, side="left"):
            flipped = "right" if side == "left" else "left"
            return [DescentCocycle(q.underlying, side) for q in real(M, A, flipped)]

        monkeypatch.setattr(verify, "enumerate_descent_cocycles", other_side)
        s3 = f"s3 table={[list(row) for row in CATALOG['s3'].table]}"
        fac = "Factorization((0, 4, 5), (0, 1))"
        changed = {
            "unit-star-action": f"unit-star-action: FAIL (30 instances) -- {s3}; "
            "cocycle (0, 0, 5, 4, 4, 5) violates ('L2', (4, 1))",
            "cocycle-kernel-submonoid": "cocycle-kernel-submonoid: PASS (75 instances)",
            "subgroup-first-factor": f"subgroup-first-factor: FAIL (24 instances) -- {s3}; "
            "not a left descent cocycle: ('L2', (4, 1))",
            "subgroup-cocycle-bijection": "subgroup-cocycle-bijection: FAIL (24 instances) -- "
            f"{s3}; component map of ((0, 4, 5),(0, 1)) not a cocycle",
            "three-way-correspondence": "three-way-correspondence: FAIL (10 instances) -- "
            f"{s3}; {fac} has no cocycle corner",
        }
        results = verify._run_checks(verify._population(3, True))
        assert_golden_except(types.SimpleNamespace(checks=results), "3 catalog=True", set(changed))
        assert {r.check: r.line() for r in results if r.check in changed} == changed


class TestSharedGroupoids:
    """Each group action is checked by ``groupoid_components``, built once per unit and factor."""

    KEY = "2 catalog=False"
    STAR_READERS = {"unit-star-action", "unit-star-restriction", "groupoid-isomorphism"}
    CONJUGATION_READERS = {
        "conjugation-action",
        "groupoid-isomorphism",
        "restricted-cohomology",
        "equivalence-vs-conjugacy",
        "h1-component-count",
    }

    def planted(self, monkeypatch, name, broken, readers):
        """Run order 2 with ``verify.<name>`` replaced; lines outside ``readers`` stay golden."""
        monkeypatch.setattr(verify, name, broken)
        report = verify_suite(2, catalog=False)
        assert_golden_except(report, self.KEY, readers)
        return report

    def test_broken_star_action_fails(self, monkeypatch):
        real = verify.star_act

        def collapsing(a0, q):  # a non-identity unit sends every cocycle to the map onto e
            M, A = q.underlying.domain, q.underlying.codomain
            return real(a0, q) if a0 == M.identity else DescentCocycle(zero_map(M, A), "left")

        report = self.planted(monkeypatch, "star_act", collapsing, self.STAR_READERS)
        for check in self.STAR_READERS:
            result = result_of(report, check)
            assert not result.passed and result.instances > 0, check
        assert "composition fails at (1, 1, " in result_of(report, "unit-star-action").counterexample

    def test_broken_conjugation_fails(self, monkeypatch):
        real = verify.conjugate_second_factor

        def moving(a0, B):  # the identity sends every factor to the whole monoid
            M = B.parent
            return SubMonoid(M, M.members) if a0 == M.identity else real(a0, B)

        report = self.planted(
            monkeypatch, "conjugate_second_factor", moving, self.CONJUGATION_READERS
        )
        for check in ("conjugation-action", "groupoid-isomorphism", "restricted-cohomology"):
            result = result_of(report, check)
            assert not result.passed and result.instances > 0, check
        assert result_of(report, "conjugation-action").counterexample.endswith(
            "identity moves SubMonoid((0,))"
        )

    def test_conjugate_outside_the_partners_fails(self, monkeypatch):
        real = verify.conjugate_second_factor

        def escaping(a0, B):  # a non-identity unit sends every factor to the whole monoid
            M = B.parent
            return real(a0, B) if a0 == M.identity else SubMonoid(M, M.members)

        report = self.planted(
            monkeypatch, "conjugate_second_factor", escaping, self.CONJUGATION_READERS
        )
        # one instance per unit: C2's (C2, {e}) stops at its identity, the third instance,
        # where the partner groupoid meets the escaping unit
        assert result_of(report, "conjugation-action").line() == (
            "conjugation-action: FAIL (3 instances) -- order2#0 table=[[0, 1], [1, 0]]; "
            "composition fails at (1, 1, SubMonoid((0,)))"
        )
        # with the identity at 1, the unit 0 is judged first and its conjugate is no partner
        c2 = verify._MonoidObjects("c2", core.FiniteMonoid(((1, 0), (0, 1)), 1))
        assert [(fac.first.members, fac.second.members) for fac in c2.facs] == [
            ((0, 1), (1,)),
            ((1,), (0, 1)),
        ]
        assert verify._conjugation_action(c2) == (1, "(0, 1) is not a partner of (0, 1)")

    def test_missing_partner_fails(self, monkeypatch):
        # with no partner listed, the conjugation groupoid is empty and passes
        monkeypatch.setattr(verify, "fac_over", lambda M, A: [])
        result = result_of(verify_suite(1, catalog=False), "conjugation-action")
        assert result.line() == (
            "conjugation-action: FAIL (1 instances) -- order1#0 table=[[0]]; "
            "(0,) is not a partner of (0,)"
        )

    def test_each_groupoid_built_once(self, monkeypatch):
        calls = {verify.star_act: 0, verify.conjugate_second_factor: 0}
        real = verify.groupoid_components

        def counting(objects, acting_group, action):
            calls[action] += 1
            return real(objects, acting_group, action)

        monkeypatch.setattr(verify, "groupoid_components", counting)
        pop = verify._population(3, True)
        tally = verify._run_shard(("monoid", tuple(pop)))
        assert all(stop is None for _, stop in tally.values())
        units = [verify._MonoidObjects(name, M) for name, M in pop]
        with_cocycles = sum(1 for u in units for A in u.subs if u.cocycles(A))
        facs = sum(len(u.facs) for u in units)
        first_factors = sum(len({fac.first for fac in u.facs}) for u in units)
        # unit-star-action's groupoid on all cocycles per A, the unit-valued one per (A, B);
        # one partner groupoid per (unit, A) for its three readers
        assert calls == {
            verify.star_act: with_cocycles + facs,
            verify.conjugate_second_factor: first_factors,
        }
        assert first_factors < facs


class TestPartnerLookups:
    """A check that finds no partner for a cocycle reports it instead of raising."""

    def test_graph_that_is_no_partner(self, monkeypatch):
        def off_lattice(sd, chi):
            return types.SimpleNamespace(members=(0, 99))

        monkeypatch.setattr(verify, "fac_from_z1", off_lattice)
        report = verify_suite(1, catalog=False)
        graph_checks = {"unit-z1-second-factors", "h1-component-count"}
        assert_golden_except(report, "1 catalog=False", graph_checks)
        assert result_of(report, "h1-component-count").line() == (
            "h1-component-count: FAIL (1 instances) -- order1#0 acting on order1#0 #0: "
            "graph (0, 99) is not a partner"
        )
        assert not result_of(report, "unit-z1-second-factors").passed

    def test_z1_without_its_zero_cocycle(self, monkeypatch):
        real = verify._ActionObjects.unit_cocycles.func

        def without_zero(ob):
            zero = (ob.act.acted.identity,) * ob.act.actor.size
            return [chi for chi in real(ob) if chi.values != zero]

        monkeypatch.setattr(verify._ActionObjects, "unit_cocycles", property(without_zero))
        report = verify_suite(1, catalog=False)
        graph_checks = {"unit-z1-second-factors", "h1-component-count"}
        assert_golden_except(report, "1 catalog=False", graph_checks)
        assert result_of(report, "h1-component-count").line() == (
            "h1-component-count: FAIL (1 instances) -- order1#0 acting on order1#0 #0: "
            "the cocycles lack the zero cocycle"
        )
        assert not result_of(report, "unit-z1-second-factors").passed

    def test_kernel_that_is_no_partner(self, monkeypatch):
        def identity_kernel(q):
            M = q.underlying.domain
            return SubMonoid(M, (M.identity,))

        monkeypatch.setattr(verify, "cocycle_kernel", identity_kernel)
        report = verify_suite(2, catalog=True)
        kernel_checks = {
            "equivalence-vs-conjugacy",
            "cocycle-kernel-submonoid",
            "subgroup-cocycle-bijection",
            "unit-cocycle-bijection",
            "groupoid-isomorphism",
            "three-way-correspondence",
        }
        assert_golden_except(report, "2 catalog=True", kernel_checks)
        result = result_of(report, "groupoid-isomorphism")
        assert not result.passed and result.instances > 0
        assert result.counterexample.endswith("kernel (0,) is not a partner")


class TestPartnerClassMaps:
    """``_onto_partners`` judges kernel and graph maps as the transport oracle does."""

    @staticmethod
    def oracle(source, members, partners) -> bool:
        index = {B.members: j for j, B in enumerate(partners.objects)}
        image = [index[key] for key in members]
        return oracles.class_map_is_bijection(
            source.class_of, partners.class_of, image, partners.class_count
        )

    def judged_alike(self, source, members, partners) -> bool:
        expected = self.oracle(source, members, partners)
        verdict = verify._onto_partners(source, members, partners, "image")
        assert verdict == (None if expected else "image map is not a bijection of classes")
        return expected

    @staticmethod
    def kernel_maps(pop):
        """(cocycle groupoid, kernels, partner groupoid) of each groupoid-isomorphism instance."""
        for name, M in pop:
            u = verify._MonoidObjects(name, M)
            for fac in u.facs:
                cocycles = u.star_groupoid(fac.first, fac.second)
                kernels = [cocycle_kernel(q).members for q in cocycles.objects]
                yield cocycles, kernels, u.partner_groupoid(fac.first)

    def test_kernels_of_every_factorization_to_order_4(self):
        maps = list(self.kernel_maps(verify._population(4, True)))
        assert all(self.judged_alike(*args) for args in maps)
        assert len(maps) == 146  # groupoid-isomorphism's instances in the verify4 golden

    def test_graphs_of_the_order3_battery(self):
        actions = verify._action_population(verify._population(3, True))
        assert len(actions) == 978
        for desc, act in actions:
            ob = verify._ActionObjects(desc, act)
            classes = h1(act, unit_valued=True, cocycles=ob.unit_cocycles)
            acting = units(ob.sd.first_image())
            groupoid = groupoid_components(ob.partners, acting, conjugate_second_factor)
            assert self.judged_alike(classes, ob.graphs, groupoid)

    @pytest.mark.parametrize(
        "name, action",
        [
            # every unit fixes every cocycle: singleton classes, two onto one component
            ("star_act", lambda a0, q: q),
            # every unit fixes every partner: a class of several cocycles splits
            ("conjugate_second_factor", lambda a0, B: B),
        ],
        ids=["merge", "split"],
    )
    def test_planted_kernel_maps_fail_where_the_oracle_does(self, monkeypatch, name, action):
        monkeypatch.setattr(verify, name, action)
        pop = verify._population(3, True)
        verdicts = [self.oracle(*args) for args in self.kernel_maps(pop)]
        tally = verify._run_shard(("monoid", tuple(pop)))
        instances, counterexample = tally["groupoid-isomorphism"]
        assert instances == verdicts.index(False) + 1
        assert counterexample.endswith(": kernel map is not a bijection of classes")

    def test_planted_graph_map_fails_where_the_oracle_does(self, monkeypatch):
        monkeypatch.setattr(verify, "conjugate_second_factor", lambda a0, B: B)
        pairs = tuple(verify._battery_pairs(verify._population(3, True)))
        instances = 0
        for desc, act in verify._actions(pairs):
            instances += 1
            ob = verify._ActionObjects(desc, act)
            classes = h1(act, unit_valued=True, cocycles=ob.unit_cocycles)
            acting = units(ob.sd.first_image())
            singletons = groupoid_components(ob.partners, acting, lambda a0, B: B)
            if not self.oracle(classes, ob.graphs, singletons):
                break
        tally = verify._run_shard(("action", pairs))
        assert tally["h1-component-count"] == (
            instances,
            f"{desc}: graph map is not a bijection of classes",
        )


class TestBuildCounts:
    """Unit groups and semidirect images are built no more often than needed."""

    def test_order3_battery_and_inner_homs(self, monkeypatch):
        # each SubMonoid build is booked to the builder whose call it happens in
        builders = {
            core.units.__code__: "units",
            SemidirectProduct.first_image.__code__: "first_image",
            SemidirectProduct.second_image.__code__: "second_image",
        }
        builds = dict.fromkeys(builders.values(), 0)
        post_init = core.SubMonoid.__post_init__

        def counting_post_init(sub):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code not in builders:
                frame = frame.f_back
            if frame is not None:
                builds[builders[frame.f_code]] += 1
            post_init(sub)

        monkeypatch.setattr(core.SubMonoid, "__post_init__", counting_post_init)
        # count from cold caches, whichever tests have read the catalog's unit groups
        for M in CATALOG.values():
            monkeypatch.delitem(M.__dict__, "_units", raising=False)
        pairs = tuple(verify._battery_pairs(verify._population(3, True)))
        actions = sum(1 for _ in verify._actions(pairs))
        for kind in ("action", "inner"):
            tally = verify._run_shard((kind, pairs))
            assert all(stop is None for _, stop in tally.values())
        # one unit group per monoid, one image of each factor per action's product
        assert actions == 978
        assert builds == {"units": 999, "first_image": actions, "second_image": actions}


class TestUnitCocycles:
    def test_read_off_the_sections_report(self):
        # the same values, in the same order, as a unit-valued Z¹ search
        pairs = verify._battery_pairs(verify._population(3, True))
        for desc, act in verify._actions(pairs):
            ob = verify._ActionObjects(desc, act)
            want = [c.values for c in z1(act, unit_valued=True)]
            assert [c.values for c in ob.unit_cocycles] == want, desc


def relabeled_population(pop):
    """Each monoid carried along a seeded permutation that moves its identity."""
    rng = random.Random(11)
    return [(name, oracles.relabeled(M, rng)) for name, M in pop]


class TestRelabelingInvariance:
    """Checks read no index as the identity: relabeling every monoid changes no tally."""

    def assert_same_tallies(self, kind, items, moved):
        tally = verify._run_shard((kind, tuple(items)))
        assert all(stop is None for _, stop in tally.values())
        assert verify._run_shard((kind, tuple(moved))) == tally

    def test_monoid_kind(self):
        pop = verify._population(4, True)
        moved = relabeled_population(pop)
        assert all(R.identity != M.identity for (_, M), (_, R) in zip(pop, moved) if M.size > 1)
        self.assert_same_tallies("monoid", pop, moved)

    @pytest.mark.parametrize("kind", ["action", "inner"])
    def test_battery_with_both_factors_relabeled(self, kind):
        pop = verify._population(3, True)
        moved = verify._battery_pairs(relabeled_population(pop))
        self.assert_same_tallies(kind, verify._battery_pairs(pop), moved)


class TestSizeBound:
    @pytest.mark.parametrize("bound", [0, -1])
    def test_empty_population_rejected(self, bound):
        with pytest.raises(SizeBoundExceeded):
            verify_suite(bound, catalog=True)

    def test_order_above_verify_bound_rejected(self):
        # generation goes to order 6, verify to order 4
        with pytest.raises(SizeBoundExceeded, match=r"1\.\.4"):
            verify_suite(5, catalog=False)


class TestShardedDriver:
    """Shards of each kind's units, merged in population order, give the one-walk report."""

    KEY = "2 catalog=False"
    PLANTED = ("first-factor-necessity", "sections-bijection", "inner-convolution")

    def planted_halfway(self, monkeypatch, target, pop, fail):
        """Patch ``target`` to run ``fail`` on the units halfway through its kind and last.

        ``fail`` is a declared check with one failing instance.  Returns the
        halfway unit's description of the detail "planted" and the count of a
        walk that stops there.
        """
        kind, real = next((k, fn) for i, k, fn in verify._CHECKS if i == target)
        items = pop if kind == "monoid" else list(verify._battery_pairs(pop))
        units = list(verify._UNITS[kind](items))
        half = len(units) // 2
        at = (units[half].describe("planted"), units[-1].describe("planted"))

        def check(unit):
            return fail(unit) if unit.describe("planted") in at else real(unit)

        patch_check(monkeypatch, target, check)
        return at[0], sum(real(unit)[0] for unit in units[:half]) + 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("catalog", [False, True])
    @pytest.mark.parametrize("shards", [1, 1000])
    def test_any_shard_count_matches_golden(self, n, catalog, shards):
        results = verify._run_checks(verify._population(n, catalog), shards)
        assert [r.line() for r in results] == GOLDEN_REPORTS[f"{n} catalog={catalog}"][1:-1]

    def test_shards_cut_each_kind_in_order(self):
        pop = verify._population(2, True)
        pairs = tuple(verify._battery_pairs(pop))
        shards = verify._shards(pop, 5)
        assert [kind for kind, _ in shards] == ["monoid"] * 5 + ["action"] * 5 + ["inner"] * 5
        for kind, items in (("monoid", tuple(pop)), ("action", pairs), ("inner", pairs)):
            parts = [part for k, part in shards if k == kind]
            assert all(parts) and sum(parts, ()) == items
        # more shards than items: one item each, none empty
        assert [len(part) for k, part in verify._shards(pop, 1000) if k == "monoid"] == [1] * 14

    @pytest.mark.parametrize("target", PLANTED)
    @pytest.mark.parametrize("shards", [2, 1000])
    def test_counterexample_in_a_later_shard(self, monkeypatch, target, shards):
        pop = verify._population(2, False)
        fail = verify._single(lambda unit: "planted")
        at, count = self.planted_halfway(monkeypatch, target, pop, fail)
        serial = verify._run_checks(pop, 1)
        sharded = verify._run_checks(pop, shards)
        assert sharded == serial
        stopped = next(c for c in sharded if c.check == target)
        assert (stopped.passed, stopped.counterexample) == (False, at)
        assert stopped.instances == count > 1
        # every other check ran on past the stop, within its shard and after it
        assert_golden_except(verify.VerifyReport("", tuple(sharded)), self.KEY, {target})

    @pytest.mark.parametrize("target", PLANTED)
    def test_error_in_a_later_shard_fails_only_its_check(self, monkeypatch, target):
        pop = verify._population(2, False)
        at, count = self.planted_halfway(monkeypatch, target, pop, verify._single(planted_error))
        results = verify._run_checks(pop, 1000)
        failed = next(c for c in results if c.check == target)
        assert (failed.instances, failed.passed, failed.counterexample) == (count, False, at)
        assert_golden_except(verify.VerifyReport("", tuple(results)), self.KEY, {target})

    @pytest.mark.parametrize("shards", [1, 1000])
    def test_other_exceptions_propagate(self, monkeypatch, shards):
        def broken(unit):
            raise RuntimeError("not a monoid fault")

        patch_check(monkeypatch, "h1-component-count", broken)
        with pytest.raises(RuntimeError, match="not a monoid fault"):
            verify._run_checks(verify._population(2, False), shards)
        with pytest.raises(RuntimeError, match="not a monoid fault"):
            verify_suite(2, catalog=False)

    def test_stop_iteration_does_not_end_the_shards(self, monkeypatch):
        # the builtin map would take a StopIteration for its end and drop the later shards
        real = verify.normality_check

        def stop_at_order3(M, *args):
            if M.size == 3:
                raise StopIteration
            return real(M, *args)

        monkeypatch.setattr(verify, "normality_check", stop_at_order3)
        with pytest.raises(RuntimeError, match="group-factor-normality raised StopIteration"):
            verify._run_checks(verify._population(3, True), 50)

    def test_spawned_pool_matches_golden_and_leaves_no_worker(self, monkeypatch):
        import multiprocessing

        # two workers even on one CPU; spawned, they see none of the parent's patches
        monkeypatch.setattr(verify, "_worker_count", lambda pop: 2)
        patch_check(monkeypatch, "conical-bound", lambda unit: (0, "seen by a worker"))
        assert verify_suite(3, catalog=True).lines() == GOLDEN_REPORTS["3 catalog=True"]
        assert multiprocessing.active_children() == []

    def test_worker_count(self, monkeypatch):
        small, order4 = verify._population(2, True), verify._population(4, True)
        monkeypatch.setattr(verify.os, "sched_getaffinity", lambda _: {0, 1, 2, 3}, raising=False)
        # 147 battery pairs pay for one worker; 1,484 for more than there are CPUs
        assert (verify._worker_count(small), verify._worker_count(order4)) == (1, 4)
        monkeypatch.setattr(verify.os, "sched_getaffinity", lambda _: {0})
        assert verify._worker_count(order4) == 1
