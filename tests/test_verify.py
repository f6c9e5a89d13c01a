import itertools
import json
import types
from pathlib import Path

import pytest

from monofact import verify
from monofact.core import (
    ElementMap,
    MonoidError,
    SizeBoundExceeded,
    SubMonoid,
    enumerate_monoids,
    enumerate_submonoids,
)
from monofact.factorization import verify_bicross
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


class TestKernelPairScan:
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
                    assert verify._bicross_accepted(M, A, B, l_maps, r_maps) == direct
                    pairs += 1
                    accepted_total += len(direct)
        assert pairs > 0 and accepted_total > 0

    def test_rejected_component_pair_is_reported(self, monkeypatch):
        # a scan that accepts nothing misses the expected pair of the first factorizing (A, B)
        monkeypatch.setattr(verify, "_bicross_accepted", lambda *args: set())
        result = result_of(verify_suite(1, catalog=False), "kernel-pair-characterization")
        assert result.instances == 2
        assert result.counterexample == (
            "order1#0 table=[[0]]; pair ((0,),(0,)) maps (0,)/(0,): accepted=False expected=True"
        )

    def test_wrongly_accepted_pair_is_reported(self, monkeypatch):
        real = verify._bicross_accepted

        def too_many(M, A, B, l_maps, r_maps):
            return real(M, A, B, l_maps, r_maps) | {(l_maps[0].values, r_maps[0].values)}

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
    def test_error_fails_only_its_check(self, monkeypatch, target):
        def broken(unit):
            raise MonoidError("planted")

        failed = self.run_patched(monkeypatch, target, broken)
        assert (failed.instances, failed.passed, failed.counterexample) == (0, False, "planted")

    def test_shared_objects_built_once(self, monkeypatch):
        calls = {"semidirect": 0, "enumerate_factorizations": 0}
        for name in calls:
            real = getattr(verify, name)

            def counting(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(verify, name, counting)
        verify_suite(2, catalog=False)
        pop = verify._population(2, False)
        assert calls == {
            "semidirect": len(verify._action_population(pop)),
            "enumerate_factorizations": len(pop),
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
        real = verify.z1

        def without_zero(act, unit_valued=False):
            zero = (act.acted.identity,) * act.actor.size
            return [chi for chi in real(act, unit_valued) if chi.values != zero]

        monkeypatch.setattr(verify, "z1", without_zero)
        report = verify_suite(1, catalog=False)
        graph_checks = {"unit-z1-second-factors", "h1-component-count"}
        assert_golden_except(report, "1 catalog=False", graph_checks)
        assert result_of(report, "h1-component-count").line() == (
            "h1-component-count: FAIL (0 instances) -- the cocycles lack the zero cocycle"
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


class TestSizeBound:
    @pytest.mark.parametrize("bound", [0, -1])
    def test_empty_population_rejected(self, bound):
        with pytest.raises(SizeBoundExceeded):
            verify_suite(bound, catalog=True)
