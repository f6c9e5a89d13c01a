import itertools

import pytest

from monofact import verify
from monofact.core import (
    ElementMap,
    MonoidError,
    SizeBoundExceeded,
    enumerate_monoids,
    enumerate_submonoids,
)
from monofact.factorization import verify_bicross
from monofact.verify import verify_suite


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
        monkeypatch.setattr(verify, "_check_conical_bound", lambda pop: (0, None))
        report = verify_suite(1, catalog=False)
        result = next(c for c in report.checks if c.check == "conical-bound")
        assert (result.passed, result.line()) == (False, "conical-bound: FAIL (0 instances)")
        assert not report.all_passed
        assert report.lines()[-1].startswith("total: 26/27 checks passed")

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
        count, detail = verify._check_kernel_pair_characterization(verify._population(1, False))
        assert count == 2
        assert detail == (
            "order1#0 table=[[0]]; pair ((0,),(0,)) maps (0,)/(0,): accepted=False expected=True"
        )

    def test_wrongly_accepted_pair_is_reported(self, monkeypatch):
        real = verify._bicross_accepted

        def too_many(M, A, B, l_maps, r_maps):
            return real(M, A, B, l_maps, r_maps) | {(l_maps[0].values, r_maps[0].values)}

        monkeypatch.setattr(verify, "_bicross_accepted", too_many)
        count, detail = verify._check_kernel_pair_characterization(verify._population(2, False))
        # C2 = order2#0 has two factorizations; its ({e}, {e}) pair has one map each way
        assert count == 5
        assert detail == (
            "order2#0 table=[[0, 1], [1, 0]]; pair ((0,),(0,)) maps (0, 0)/(0, 0): "
            "accepted=True expected=False"
        )


class TestActionBattery:
    """The one-pass battery keeps each check's outcome independent of the others."""

    BATTERY_IDS = (
        "semidirect-construction",
        "sections-bijection",
        "unit-z1-second-factors",
        "h1-component-count",
    )

    @pytest.fixture(scope="class")
    def actions(self):
        return verify._action_population(verify._population(2, False))

    def patched(self, monkeypatch, target, replacement):
        battery = tuple(
            (check_id, replacement if check_id == target else check)
            for check_id, check in verify._BATTERY
        )
        monkeypatch.setattr(verify, "_BATTERY", battery)

    def test_order_and_counts(self, actions):
        results = verify._check_action_battery(actions)
        assert tuple(r.check for r in results) == self.BATTERY_IDS
        assert all(r.passed and r.instances == len(actions) for r in results)

    def test_suite_reports_the_battery_in_place(self):
        ids = [c.check for c in verify_suite(1, catalog=False).checks]
        start = ids.index("semidirect-construction")
        assert tuple(ids[start : start + 4]) == self.BATTERY_IDS

    @pytest.mark.parametrize("target", BATTERY_IDS)
    def test_counterexample_stops_only_its_check(self, monkeypatch, actions, target):
        k = 3
        assert len(actions) > k
        seen = []

        def fail_at_k(objects):
            seen.append(objects.desc)
            return f"{objects.desc}: planted" if len(seen) == k else None

        self.patched(monkeypatch, target, fail_at_k)
        results = {r.check: r for r in verify._check_action_battery(actions)}
        failed = results.pop(target)
        assert (failed.instances, failed.passed) == (k, False)
        assert failed.counterexample == f"{actions[k - 1][0]}: planted"
        assert len(seen) == k  # the check is not run past its counterexample
        assert all(r.passed and r.instances == len(actions) for r in results.values())

    @pytest.mark.parametrize("target", BATTERY_IDS)
    def test_error_fails_only_its_check(self, monkeypatch, actions, target):
        def broken(objects):
            raise MonoidError("planted")

        self.patched(monkeypatch, target, broken)
        results = {r.check: r for r in verify._check_action_battery(actions)}
        failed = results.pop(target)
        assert (failed.instances, failed.passed, failed.counterexample) == (0, False, "planted")
        assert all(r.passed and r.instances == len(actions) for r in results.values())

    def test_shared_objects_built_once(self, monkeypatch, actions):
        calls = []
        real = verify.semidirect

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(verify, "semidirect", counting)
        verify._check_action_battery(actions)
        assert len(calls) == len(actions)


class TestSizeBound:
    @pytest.mark.parametrize("bound", [0, -1])
    def test_empty_population_rejected(self, bound):
        with pytest.raises(SizeBoundExceeded):
            verify_suite(bound, catalog=True)
