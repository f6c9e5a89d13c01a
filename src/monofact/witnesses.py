"""Bounded integer witnesses for the motivating infinite examples.

Two facts about infinite monoids are checked on concrete integers: every
positive natural splits uniquely as an odd number times a power of two
(multiplication on the positive naturals is factorized by the odds and
the powers of two), and integer addition restricted to the non-positive
and non-negative halves is surjective but not injective.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import SizeBoundExceeded

# the sieve takes one byte per integer up to the bound
_WITNESS_BOUND_LIMIT = 10**8


@dataclass(frozen=True)
class WitnessReport:
    bound: int
    product_pairs: int  # (odd, two-power) pairs with product within the bound
    covered: int  # integers in [1, bound] hit by the product map
    decomposition_bijective: bool
    sample: tuple[int, int, int]  # (bound, odd part, two-exponent)
    addition_witness: tuple[tuple[int, int], tuple[int, int], int]
    addition_witness_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.decomposition_bijective and self.addition_witness_ok


def odd_power_decomposition(n: int) -> tuple[int, int]:
    """The unique (odd, exponent) with n = odd * 2**exponent."""
    if n < 1:
        raise ValueError("positive integers only")
    exponent = (n & -n).bit_length() - 1
    return n >> exponent, exponent


def integer_witnesses(bound: int) -> WitnessReport:
    """Verify the odd-times-two-power bijection up to ``bound``, plus the
    non-injectivity witness for adding a non-positive and a non-negative
    integer.

    The products odd * 2**i with a fixed exponent form an arithmetic
    progression, so each exponent is marked with one slice write; the
    map is bijective iff the pair count and the covered count both equal
    the bound.  Bounds above 10**8 raise ``SizeBoundExceeded``.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if bound > _WITNESS_BOUND_LIMIT:
        raise SizeBoundExceeded(f"witness bound capped at {_WITNESS_BOUND_LIMIT}")
    seen = bytearray(bound + 1)
    pairs = 0
    power = 1
    while power <= bound:
        count = (bound // power + 1) // 2
        seen[power :: 2 * power] = b"\x01" * count
        pairs += count
        power <<= 1
    covered = seen.count(1)
    bijective = pairs == bound == covered

    left, right = (-7, 5), (-3, 1)
    total = left[0] + left[1]
    ok = total == right[0] + right[1] == -2 and left != right

    odd, exponent = odd_power_decomposition(bound)
    return WitnessReport(
        bound, pairs, covered, bijective, (bound, odd, exponent), (left, right, total), ok
    )
