"""Each public input check raises its documented error with its exact message."""

import re

import pytest

from monofact.catalog import CATALOG
from monofact.core import (
    ElementMap,
    FiniteMonoid,
    IndexOutOfRange,
    MonoidError,
    MonoidIso,
    NoIdentity,
    NotInvertible,
    ParentMismatch,
    SizeBoundExceeded,
    SubMonoid,
    enumerate_monoids,
    from_table,
    identity_map,
    is_subgroup,
    zero_map,
)
from monofact.descent import (
    DescentCocycle,
    enumerate_descent_cocycles,
    star_act,
)
from monofact.factorization import fac_over, first_factor_filter, second_factor_filter
from monofact.formats import ParseError, parse_action, parse_document
from monofact.semidirect import (
    ActionMismatch,
    MonoidAction,
    NotASplitPair,
    NotUnitValuedHom,
    fac_from_z1,
    inner_action_and_convolution,
    normality_check,
    semidirect,
    split_epi_analysis,
    z1,
)

C2, C3, S3 = CATALOG["c2"], CATALOG["c3"], CATALOG["s3"]
A3 = SubMonoid(S3, (0, 4, 5))
OF_C2 = SubMonoid(C2, (0,))  # a submonoid of another monoid than S3
C3_AUTO = ElementMap(C3, C3, (0, 2, 1))  # inversion, a bijective homomorphism
TRIVIAL = MonoidAction(C2, C3, ((0, 1, 2), (0, 1, 2)))
INVERSION = MonoidAction(C2, C3, ((0, 1, 2), (0, 2, 1)))
LEFT_COCYCLE = enumerate_descent_cocycles(S3, A3, "left")[0]
RIGHT_COCYCLE = DescentCocycle(zero_map(S3, A3), "right")
C2_DOC = '"size": 2, "identity": 0, "table": [[0, 1], [1, 0]]'

CASES = [
    ("empty-monoid", lambda: FiniteMonoid((), 0), NoIdentity,
     "a monoid needs at least one element"),
    ("labels-count", lambda: from_table([[0, 1], [1, 0]], ("e",)), IndexOutOfRange,
     "labels must match the table size"),
    ("map-value-count", lambda: ElementMap(C2, C2, (0,)), MonoidError,
     "expected 2 values, got 1"),
    ("iso-not-homs", lambda: MonoidIso(ElementMap(C2, C2, (1, 0)), identity_map(C2)),
     MonoidError, "isomorphism components must be homomorphisms"),
    ("iso-not-bijections", lambda: MonoidIso(zero_map(C2, C2), zero_map(C2, C2)),
     MonoidError, "isomorphism components must be bijections"),
    ("iso-not-inverse", lambda: MonoidIso(C3_AUTO, identity_map(C3)), MonoidError,
     "forward and backward maps are not mutually inverse"),
    ("is-subgroup-parent", lambda: is_subgroup(S3, OF_C2), ParentMismatch,
     "submonoid belongs to a different monoid"),
    ("fac-over-parent", lambda: fac_over(S3, OF_C2), ParentMismatch,
     "first factor must be a submonoid of the monoid"),
    ("first-filter-parent", lambda: first_factor_filter(S3, OF_C2), ParentMismatch,
     "subset must be a submonoid of the monoid"),
    ("second-filter-parent", lambda: second_factor_filter(S3, OF_C2), ParentMismatch,
     "subset must be a submonoid of the monoid"),
    ("enumerate-order-0", lambda: enumerate_monoids(0), SizeBoundExceeded,
     "order must be at least 1"),
    ("cocycle-side", lambda: DescentCocycle(zero_map(S3, A3), "up"), ValueError,
     "side must be 'left' or 'right'"),
    ("enumerate-cocycles-side", lambda: enumerate_descent_cocycles(S3, A3, "up"), ValueError,
     "side must be 'left' or 'right'"),
    ("normality-side", lambda: normality_check(S3, A3, S3.elements(), "up"), ValueError,
     "side must be 'left', 'right' or 'both'"),
    ("star-act-right", lambda: star_act(0, RIGHT_COCYCLE), ValueError,
     "the unit action is defined on left cocycles"),
    ("star-act-non-member", lambda: star_act(1, LEFT_COCYCLE), NotInvertible,
     "1 is not an element of the coefficient submonoid"),
    ("document-name", lambda: parse_document("{" + C2_DOC + ', "name": 7}'), ParseError,
     "'name' must be a string"),
    ("action-not-object", lambda: parse_action("[]"), ParseError, "expected a JSON object"),
    ("action-unknown-field", lambda: parse_action('{"star": [], "twist": 1}'), ParseError,
     "unexpected fields: twist"),
    ("action-no-star", lambda: parse_action("{}"), ParseError,
     "missing required field 'star'"),
    ("action-actor-type", lambda: parse_action('{"actor": 7, "star": []}'), ParseError,
     "'actor' must be a path string or an inline monoid object"),
    ("action-shape", lambda: MonoidAction(C2, C3, ((0, 1, 2),)), ActionMismatch,
     "action table has the wrong shape"),
    ("z1-other-action", lambda: fac_from_z1(semidirect(C3, INVERSION, C2), z1(TRIVIAL)[0]),
     ActionMismatch, "cocycle belongs to a different action"),
    ("split-not-hom",
     lambda: split_epi_analysis(
         S3, C2, ElementMap(S3, C2, (0, 1, 0, 0, 0, 0)), ElementMap(C2, S3, (0, 1))
     ),
     NotASplitPair, "both maps must be monoid homomorphisms"),
    ("split-foreign-submonoid",
     lambda: split_epi_analysis(S3, OF_C2, zero_map(S3, OF_C2), ElementMap(OF_C2, S3, (0,))),
     ParentMismatch, "the split submonoid belongs to a different monoid"),
    ("inner-not-hom",
     lambda: inner_action_and_convolution(C2, S3, ElementMap(C2, S3, (0, 4))),
     NotUnitValuedHom, "the defining map must be a homomorphism"),
    # SubMonoid's four checks, in their order: range, strict order, identity, closure
    ("submonoid-range-before-order", lambda: SubMonoid(C3, (2, 1, 3)), IndexOutOfRange,
     "members (2, 1, 3) not within 0..2"),
    ("submonoid-bool-member", lambda: SubMonoid(C3, (0, True)), IndexOutOfRange,
     "members (0, True) not within 0..2"),
    ("submonoid-unsorted", lambda: SubMonoid(C3, (0, 2, 1)), MonoidError,
     "members must be strictly sorted"),
    ("submonoid-repeated", lambda: SubMonoid(C3, (0, 0)), MonoidError,
     "members must be strictly sorted"),
    ("submonoid-no-identity", lambda: SubMonoid(S3, (1, 2, 3)), MonoidError,
     "a submonoid must contain the identity"),
    # (12)(13) = (132) is met before (13)(12) = (123): products are scanned in member order
    ("submonoid-not-closed", lambda: SubMonoid(S3, (0, 1, 2)), MonoidError,
     "not closed: 1*2 = 5 escapes the subset"),
]


@pytest.mark.parametrize(
    "call, error, message", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_input_check_raises(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as exc:
        call()
    assert type(exc.value) is error


@pytest.mark.parametrize("members", [(0,), (0, 1), (0, 4, 5), tuple(range(6))])
def test_submonoid_member_set(members):
    S = SubMonoid(S3, members)
    assert S.member_set == frozenset(members)
    assert tuple(S) == members
    assert [x for x in S3.elements() if x in S] == list(members)
