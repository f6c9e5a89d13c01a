import itertools
import json

import pytest

import search_counters
from monofact.catalog import CATALOG
from monofact.search import equivariance_rule, product_rule, search_assignments

C3 = CATALOG["c3"]
S3 = CATALOG["s3"]
IDENTITY3 = [tuple(range(3))] * 3
INVERSION_STAR = [(0, 1, 2), (0, 2, 1)]  # C2 acting on C3 by inversion


def partial_assignments(size, values):
    """Every assignment of ``values`` or None to ``size`` positions."""
    for combo in itertools.product([None, *values], repeat=size):
        yield list(combo)


def scan_product(prod, table, twist, assign):
    """The product equation at every pair of assigned positions: None or the pins."""
    pins = []
    for i, j in itertools.product(range(len(prod)), repeat=2):
        if assign[i] is None or assign[j] is None:
            continue
        target, val = prod[i][j], table[assign[i]][twist[i][assign[j]]]
        if assign[target] is None:
            pins.append((target, val))
        elif assign[target] != val:
            return None
    return pins


def scan_equivariance(rows, assign):
    """The equivariance equation for every row and assigned position."""
    pins = []
    for row in rows:
        for m, fm in enumerate(assign):
            if fm is None:
                continue
            if assign[row[m]] is None:
                pins.append((row[m], row[fm]))
            elif assign[row[m]] != row[fm]:
                return None
    return pins


def assert_same_verdict(got, want, assign):
    if want is None:
        assert got is None, assign
    else:
        assert got is not None, assign
        assert sorted(got) == sorted(want), assign
        assert all(assign[p] is None for p, _ in got), assign


class TestProductRule:
    @pytest.mark.parametrize(
        "prod, table, twist, values",
        [
            (C3.table, C3.table, IDENTITY3, range(3)),  # endomorphisms of C3
            (CATALOG["c2"].table, C3.table, INVERSION_STAR, range(3)),  # Z¹ of the inversion
            (CATALOG["b2"].table, CATALOG["c2z"].table, [tuple(range(3))] * 2, range(3)),
        ],
        ids=["homs", "twisted", "non-group"],
    )
    def test_matches_equation_scan(self, prod, table, twist, values):
        sweep = product_rule(prod, table, twist)
        verdicts = set()
        for assign in partial_assignments(len(prod), values):
            want = scan_product(prod, table, twist, assign)
            assert_same_verdict(sweep(assign), want, assign)
            verdicts.add(want is None)
        assert verdicts == {True, False}

    def test_conflict_and_pin(self):
        sweep = product_rule(C3.table, C3.table, IDENTITY3)
        assert sweep([0, 1, None]) == [(2, 2)]  # f(g*g) = f(g)*f(g)
        assert sweep([0, 1, 1]) is None
        assert sweep([None, None, None]) == []

    def test_twist_changes_the_equation(self):
        # f(r) = g: f(r*r) = g * (r . g) is e under inversion, g^2 untwisted
        twisted = product_rule(CATALOG["c2"].table, C3.table, INVERSION_STAR)
        untwisted = product_rule(CATALOG["c2"].table, C3.table, [tuple(range(3))] * 2)
        assert twisted([0, 1]) == []
        assert untwisted([0, 1]) is None


class TestEquivarianceRule:
    @pytest.mark.parametrize(
        "members", [(0, 4, 5), (0, 1), tuple(range(6))], ids=["A3", "T12", "S3"]
    )
    def test_matches_equation_scan(self, members):
        rows = [S3.table[a] for a in members]
        sweep = equivariance_rule(rows)
        verdicts = set()
        # values of a map S3 -> S3 restricted to three positions keep the scan small
        for partial in partial_assignments(3, range(6)):
            assign = partial + [None] * 3
            want = scan_equivariance(rows, assign)
            assert_same_verdict(sweep(assign), want, assign)
            verdicts.add(want is None)
        assert verdicts == {True, False}

    def test_conflict_and_pin(self):
        rows = [S3.table[a] for a in (0, 4, 5)]
        sweep = equivariance_rule(rows)
        assign = [0] + [None] * 5
        assert sorted(sweep(assign)) == [(4, 4), (5, 5)]
        assign[4] = 5
        assert sweep(assign) is None


class TestSearchAssignments:
    def test_two_values_for_one_position(self):
        def sweep(assign):
            return [(1, 0), (1, 1)] if assign[1] is None else []

        allowed = [frozenset((0, 1))] * 2
        assert search_assignments(2, [(0, 0)], [[0, 1]] * 2, allowed, sweep) == []

    def test_pin_against_an_assigned_value(self):
        def sweep(assign):
            return [(0, 1)] if assign[1] is not None else []

        allowed = [frozenset((0, 1))] * 2
        assert search_assignments(2, [(0, 0)], [[0, 1]] * 2, allowed, sweep) == []

    def test_forced_value_outside_allowed(self):
        def sweep(assign):
            return [(1, 2)] if assign[0] == 1 else []

        allowed = [frozenset((0, 1))] * 2
        found = search_assignments(2, [], [[0, 1]] * 2, allowed, sweep)
        assert found == [(0, 0), (0, 1)]

    def test_first_only_stops_at_the_first_solution(self):
        runs = {}

        def counted(key):
            runs[key] = 0

            def sweep(assign):
                runs[key] += 1
                return []

            return sweep

        allowed = [frozenset(range(3))] * 3
        candidates = [range(3)] * 3
        every = search_assignments(3, [], candidates, allowed, counted("all"))
        first = search_assignments(3, [], candidates, allowed, counted("first"), first_only=True)
        assert every == sorted(itertools.product(range(3), repeat=3))
        assert first == [(0, 0, 0)]
        # one sweep for the empty pin list, then one per placed position
        assert runs == {"all": 1 + 3 + 9 + 27, "first": 1 + 3}

    def test_first_only_solution_is_the_first_of_all(self):
        sweep = product_rule(S3.table, S3.table, [tuple(range(6))] * 6)
        allowed = [frozenset(range(6))] * 6
        candidates = [range(6)] * 6
        every = search_assignments(6, [(0, 0)], candidates, allowed, sweep)
        first = search_assignments(6, [(0, 0)], candidates, allowed, sweep, first_only=True)
        assert len(every) == 10 and first == every[:1]


class TestPropagationGolden:
    """Sweeps, pins, conflicts and solutions over a fixed call list.

    ``goldens/search_counters.json`` was recorded before the product and
    equivariance rules replaced the hand-written sweeps.  A change that
    propagates differently re-records it and says why.
    """

    GOLDEN = json.loads(search_counters.GOLDEN.read_text())

    @pytest.fixture(scope="class")
    def counted(self):
        return search_counters.counters()

    def test_same_call_list(self, counted):
        assert list(counted) == list(self.GOLDEN)

    @pytest.mark.parametrize("entry", list(GOLDEN))
    def test_counters_match(self, counted, entry):
        assert counted[entry] == self.GOLDEN[entry]

    def test_counting_restores_the_engine(self):
        before = [m.search_assignments for m in search_counters.SEARCH_MODULES]
        with search_counters.counting({}):
            assert all(
                m.search_assignments is not b
                for m, b in zip(search_counters.SEARCH_MODULES, before)
            )
        assert [m.search_assignments for m in search_counters.SEARCH_MODULES] == before
