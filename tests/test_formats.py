import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from monofact.catalog import CATALOG
from monofact.core import (
    FiniteMonoid,
    IndexOutOfRange,
    MonoidError,
    NoIdentity,
    NotAssociative,
    enumerate_monoids,
)
from monofact.formats import (
    MonoidDocument,
    ParseError,
    emit_action,
    emit_document,
    emit_monoid,
    parse_action,
    parse_document,
    parse_monoid,
)
from monofact.semidirect import ActionMismatch, AxiomViolation, validate_action

INVERSION = validate_action(CATALOG["c2"], CATALOG["c3"], [[0, 1, 2], [0, 2, 1]])

# every monoid on 0..n-1 for n <= 4: each identity-0 table under every relabeling
SMALL_MONOIDS = [
    FiniteMonoid(oracles.relabeled_table(M.table, perm), perm[0])
    for n in range(1, 5)
    for M in enumerate_monoids(n)
    for perm in itertools.permutations(range(n))
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=20,
)
# objects with the document's own fields and small values reach the deeper checks
FIELD_VALUES = (
    st.integers(-2, 5)
    | st.booleans()
    | st.lists(st.lists(st.integers(-1, 4) | st.booleans(), max_size=4), max_size=4)
    | st.lists(st.text(max_size=2), max_size=4)
    | JSON_VALUES
)
DOCUMENTS = st.dictionaries(
    st.sampled_from(("name", "size", "identity", "labels", "table", "extra")), FIELD_VALUES
)


def parse_or_reject(text: str) -> None:
    """Parse ``text``; a rejection must be a MonoidError (ParseError is one)."""
    try:
        parse_document(text)
    except MonoidError:
        pass


class TestParse:
    def test_minimal_c2(self):
        M = parse_monoid('{"size": 2, "identity": 0, "table": [[0, 1], [1, 0]]}')
        assert M.table == ((0, 1), (1, 0)) and M.identity == 0

    def test_bad_entry_is_range_error(self):
        with pytest.raises(IndexOutOfRange):
            parse_monoid('{"size": 2, "identity": 0, "table": [[0, 1], [1, 2]]}')

    def test_broken_associativity_rejected(self):
        with pytest.raises(NotAssociative):
            parse_monoid(
                '{"size": 3, "identity": 0, "table": [[0,1,2],[1,0,0],[2,0,1]]}'
            )

    def test_wrong_identity_rejected(self):
        with pytest.raises(NoIdentity):
            parse_monoid('{"size": 2, "identity": 1, "table": [[0, 1], [1, 0]]}')

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_monoid('{"size": 2,')
        assert "line" in str(exc.value)

    def test_unknown_field(self):
        with pytest.raises(ParseError):
            parse_monoid('{"size": 1, "identity": 0, "table": [[0]], "extra": 1}')

    def test_missing_field(self):
        with pytest.raises(ParseError):
            parse_monoid('{"size": 1, "identity": 0}')

    def test_shape_mismatch(self):
        with pytest.raises(ParseError):
            parse_monoid('{"size": 2, "identity": 0, "table": [[0, 1]]}')

    @pytest.mark.parametrize(
        "text",
        [
            '{"size": true, "identity": false, "table": [[false]]}',
            '{"size": true, "identity": 0, "table": [[0]]}',
            '{"size": 1, "identity": false, "table": [[0]]}',
        ],
    )
    def test_boolean_size_or_identity_rejected(self, text):
        with pytest.raises(ParseError):
            parse_monoid(text)

    def test_boolean_table_entry_rejected(self):
        with pytest.raises(IndexOutOfRange):
            parse_monoid('{"size": 2, "identity": 0, "table": [[0, true], [true, 0]]}')

    def test_boolean_table_entry_rejected_by_constructor(self):
        with pytest.raises(IndexOutOfRange):
            FiniteMonoid(((False,),), 0)
        with pytest.raises(NoIdentity):
            FiniteMonoid(((0,),), False)

    def test_labels_checked(self):
        with pytest.raises(ParseError):
            parse_monoid(
                '{"size": 2, "identity": 0, "labels": ["e"], "table": [[0,1],[1,0]]}'
            )


class TestEmit:
    def test_round_trip_all_catalog(self):
        for name, M in CATALOG.items():
            doc = MonoidDocument(M, name)
            assert parse_document(emit_document(doc)) == doc

    def test_round_trip_is_canonical(self):
        text = emit_monoid(CATALOG["c2"], "c2")
        assert emit_document(parse_document(text)) == text

    def test_field_order(self):
        text = emit_monoid(CATALOG["s3"], "s3")
        keys = list(json.loads(text).keys())
        assert keys == ["name", "size", "identity", "labels", "table"]

    def test_optional_fields_omitted(self):
        from monofact.core import from_table

        bare = from_table([[0]])
        keys = list(json.loads(emit_monoid(bare)).keys())
        assert keys == ["size", "identity", "table"]


class TestProperties:
    def test_round_trip_every_monoid_up_to_order_4(self):
        assert len(SMALL_MONOIDS) == 1 + 2 * 2 + 11 * 6 + 156 * 24
        for M in SMALL_MONOIDS:
            assert parse_monoid(emit_monoid(M)) == M

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_round_trip_keeps_name_and_labels(self, data):
        M = data.draw(st.sampled_from(SMALL_MONOIDS))
        labels = data.draw(st.none() | st.lists(st.text(), min_size=M.size, max_size=M.size))
        doc = MonoidDocument(FiniteMonoid(M.table, M.identity, labels), data.draw(st.none() | st.text()))
        back = parse_document(emit_document(doc))
        assert back == doc and back.monoid.labels == doc.monoid.labels

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    @example("[" * 100_000)
    @example('{"size": ' + "1" * 5000 + ', "identity": 0, "table": [[0]]}')
    def test_fuzzed_text_raises_only_monoid_errors(self, text):
        parse_or_reject(text)

    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES | DOCUMENTS)
    def test_fuzzed_json_raises_only_monoid_errors(self, value):
        parse_or_reject(json.dumps(value))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_edited_documents_raise_only_monoid_errors(self, data):
        text = emit_monoid(data.draw(st.sampled_from(list(CATALOG.values()))), "m")
        i = data.draw(st.integers(0, len(text)))
        j = data.draw(st.integers(i, min(len(text), i + 3)))
        parse_or_reject(text[:i] + data.draw(st.text(max_size=3)) + text[j:])


class TestActionFiles:
    def test_round_trip(self):
        assert parse_action(emit_action(INVERSION)) == INVERSION

    def test_supplied_monoids(self):
        act = parse_action(
            '{"star": [[0, 1, 2], [0, 2, 1]]}',
            actor=CATALOG["c2"],
            acted=CATALOG["c3"],
        )
        assert act == INVERSION

    def test_reference_mismatch(self):
        text = emit_action(INVERSION)
        with pytest.raises(ParseError):
            parse_action(text, actor=CATALOG["c4"])

    def test_missing_reference(self):
        with pytest.raises(ParseError):
            parse_action('{"star": [[0, 1, 2], [0, 2, 1]]}', actor=CATALOG["c2"])

    def test_path_references(self, tmp_path):
        (tmp_path / "c3.json").write_text(emit_monoid(CATALOG["c3"]))
        (tmp_path / "c2.json").write_text(emit_monoid(CATALOG["c2"]))
        text = '{"actor": "c2.json", "acted": "c3.json", "star": [[0,1,2],[0,2,1]]}'
        assert parse_action(text, base_dir=tmp_path) == INVERSION

    def test_invalid_star_is_axiom_violation(self):
        with pytest.raises(AxiomViolation):
            parse_action(
                '{"star": [[0, 1, 2], [1, 1, 1]]}',
                actor=CATALOG["c2"],
                acted=CATALOG["c3"],
            )

    def test_boolean_star_entry_rejected(self):
        with pytest.raises(ActionMismatch):
            parse_action(
                '{"star": [[0, 1, 2], [false, 2, 1]]}',
                actor=CATALOG["c2"],
                acted=CATALOG["c3"],
            )

    def test_bad_shape(self):
        with pytest.raises(ParseError):
            parse_action(
                '{"star": [[0, 1], [0, 2]]}', actor=CATALOG["c2"], acted=CATALOG["c3"]
            )


class TestCanonicalization:
    def test_messy_input_emits_canonically(self):
        messy = '{"table": [[0,1],\n  [1,0]],   "identity": 0, "size":2 }'
        doc = parse_document(messy)
        canonical = emit_document(doc)
        assert canonical == '{\n  "size": 2,\n  "identity": 0,\n  "table": [\n    [\n      0,\n      1\n    ],\n    [\n      1,\n      0\n    ]\n  ]\n}\n'
        assert emit_document(parse_document(canonical)) == canonical
