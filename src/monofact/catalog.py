"""Built-in example monoids covering groups, conical monoids and non-groups."""

from __future__ import annotations

from .core import FiniteMonoid, MonoidError, _pair_monoid, direct_product, from_table


def _cyclic(n: int) -> FiniteMonoid:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    labels = ["e"] + [f"g{k}" if k > 1 else "g" for k in range(1, n)]
    return FiniteMonoid(tuple(map(tuple, table)), 0, tuple(labels))


def _klein_four() -> FiniteMonoid:
    table = [[a ^ b for b in range(4)] for a in range(4)]
    return FiniteMonoid(tuple(map(tuple, table)), 0, ("e", "a", "b", "ab"))


def _c2_with_zero() -> FiniteMonoid:
    # the group {e, g} with an absorbing element z adjoined
    return from_table([[0, 1, 2], [1, 0, 2], [2, 2, 2]], ("e", "g", "z"))


def _b2() -> FiniteMonoid:
    # two elements: the identity and an idempotent absorbing z
    return from_table([[0, 1], [1, 1]], ("e", "z"))


def _left_zero_adjoin_one() -> FiniteMonoid:
    # {1, x, y} with uv = u on {x, y}
    return from_table([[0, 1, 2], [1, 1, 1], [2, 2, 2]], ("e", "x", "y"))


_PERMS3 = (
    (0, 1, 2),  # e
    (1, 0, 2),  # (12)
    (2, 1, 0),  # (13)
    (0, 2, 1),  # (23)
    (1, 2, 0),  # (123)
    (2, 0, 1),  # (132)
)
_PERM_LABELS = ("e", "(12)", "(13)", "(23)", "(123)", "(132)")


def _symmetric3() -> FiniteMonoid:
    # product p*q acts by q first: (p*q)(i) = p(q(i))
    index = {p: i for i, p in enumerate(_PERMS3)}
    table = tuple(
        tuple(index[tuple(p[q[i]] for i in range(3))] for q in _PERMS3) for p in _PERMS3
    )
    return FiniteMonoid(table, 0, _PERM_LABELS)


def _c3_by_c2_inversion() -> FiniteMonoid:
    # pairs (a, b), a mod 3 and b mod 2, with (a1,b1)(a2,b2) = (a1 + (-1)^b1 a2, b1 + b2)
    c2 = FiniteMonoid(_cyclic(2).table, 0, ("e", "r"))
    return _pair_monoid(_cyclic(3), c2, ((0, 1, 2), (0, 2, 1)), "({},{})")


CATALOG: dict[str, FiniteMonoid] = {
    "trivial": FiniteMonoid(((0,),), 0, ("e",)),
    "c2": _cyclic(2),
    "c3": _cyclic(3),
    "c4": _cyclic(4),
    "v4": _klein_four(),
    "c2z": _c2_with_zero(),
    "b2": _b2(),
    "lz21": _left_zero_adjoin_one(),
    "b2xc2": direct_product(_b2(), _cyclic(2)),
    "s3": _symmetric3(),
    "c3xc2": _c3_by_c2_inversion(),
}


def catalog_monoid(name: str) -> FiniteMonoid:
    if name not in CATALOG:
        raise MonoidError(f"unknown catalog monoid {name!r}; have {', '.join(CATALOG)}")
    return CATALOG[name]
