import pytest

from monofact.core import SizeBoundExceeded
from monofact.witnesses import _WITNESS_BOUND_LIMIT, integer_witnesses, odd_power_decomposition


def naive_decompositions(n: int) -> list[tuple[int, int]]:
    out = []
    exponent = 0
    power = 1
    while power <= n:
        if n % power == 0 and (n // power) % 2 == 1:
            out.append((n // power, exponent))
        exponent += 1
        power *= 2
    return out


class TestDecomposition:
    def test_one(self):
        assert odd_power_decomposition(1) == (1, 0)

    def test_forty_eight(self):
        assert odd_power_decomposition(48) == (3, 4)

    def test_pure_power(self):
        assert odd_power_decomposition(64) == (1, 6)

    def test_odd_numbers_untouched(self):
        assert odd_power_decomposition(97) == (97, 0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            odd_power_decomposition(0)

    def test_matches_naive_scan(self):
        for n in range(1, 1025):
            assert naive_decompositions(n) == [odd_power_decomposition(n)]


class TestReport:
    def test_bijection_confirmed(self):
        report = integer_witnesses(1000)
        assert report.decomposition_bijective
        assert report.product_pairs == 1000 == report.covered

    def test_addition_witness(self):
        report = integer_witnesses(1)
        (l1, l2), (r1, r2), total = report.addition_witness
        assert (l1, l2) != (r1, r2)
        assert l1 + l2 == r1 + r2 == total == -2
        assert l1 <= 0 <= l2 and r1 <= 0 <= r2

    def test_all_ok(self):
        assert integer_witnesses(4096).all_ok

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            integer_witnesses(0)

    def test_bound_cap(self):
        # raised before the sieve is allocated
        with pytest.raises(SizeBoundExceeded, match="capped at 100000000"):
            integer_witnesses(_WITNESS_BOUND_LIMIT + 1)
