"""JSON file formats for monoids and action tables."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .core import FiniteMonoid, MonoidError
from .semidirect import MonoidAction, validate_action


class ParseError(MonoidError):
    """The input is not syntactically valid JSON of the expected shape."""


@dataclass(frozen=True)
class MonoidDocument:
    """A named monoid as it appears on disk."""

    monoid: FiniteMonoid
    name: str | None = None


_MONOID_FIELDS = ("name", "size", "identity", "labels", "table")


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        # an integer past the digit limit, or nesting past the recursion limit
        raise ParseError(f"invalid JSON: {exc}") from None


def parse_document(text: str) -> MonoidDocument:
    """Parse and validate a monoid JSON document."""
    raw = _load_json(text)
    if not isinstance(raw, dict):
        raise ParseError("expected a JSON object")
    unknown = set(raw) - set(_MONOID_FIELDS)
    if unknown:
        raise ParseError(f"unexpected fields: {', '.join(sorted(unknown))}")
    for key in ("size", "identity", "table"):
        if key not in raw:
            raise ParseError(f"missing required field {key!r}")
    size, identity, table = raw["size"], raw["identity"], raw["table"]
    # type() rather than isinstance(): JSON true/false load as bool, an int subclass
    if type(size) is not int or size < 1:
        raise ParseError("'size' must be a positive integer")
    if type(identity) is not int:
        raise ParseError("'identity' must be an integer index")
    if not isinstance(table, list) or len(table) != size or any(
        not isinstance(row, list) or len(row) != size for row in table
    ):
        raise ParseError(f"'table' must be a {size}x{size} array")
    name = raw.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError("'name' must be a string")
    labels = raw.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != size or any(
            not isinstance(s, str) for s in labels
        ):
            raise ParseError(f"'labels' must be {size} strings")
        labels = tuple(labels)
    # structural validation (range, associativity, identity law) happens here
    monoid = FiniteMonoid(tuple(tuple(row) for row in table), identity, labels)
    return MonoidDocument(monoid, name)


def parse_monoid(text: str) -> FiniteMonoid:
    return parse_document(text).monoid


def emit_document(doc: MonoidDocument) -> str:
    """Canonical emission: fixed field order, stable layout, trailing newline."""
    M = doc.monoid
    out: dict = {}
    if doc.name is not None:
        out["name"] = doc.name
    out["size"] = M.size
    out["identity"] = M.identity
    if M.labels is not None:
        out["labels"] = list(M.labels)
    out["table"] = [list(row) for row in M.table]
    return json.dumps(out, indent=2) + "\n"


def emit_monoid(M: FiniteMonoid, name: str | None = None) -> str:
    return emit_document(MonoidDocument(M, name))


def parse_action(
    text: str,
    base_dir: Path | None = None,
    actor: FiniteMonoid | None = None,
    acted: FiniteMonoid | None = None,
) -> MonoidAction:
    """Parse an action file: actor/acted references plus a star table.

    The ``actor`` and ``acted`` fields may be inline monoid objects or
    path strings (resolved against ``base_dir``); callers may instead
    supply the monoids directly, in which case any references in the
    file are cross-checked against them.
    """
    raw = _load_json(text)
    if not isinstance(raw, dict):
        raise ParseError("expected a JSON object")
    unknown = set(raw) - {"actor", "acted", "star"}
    if unknown:
        raise ParseError(f"unexpected fields: {', '.join(sorted(unknown))}")
    if "star" not in raw:
        raise ParseError("missing required field 'star'")

    def resolve(key: str, given: FiniteMonoid | None) -> FiniteMonoid:
        ref = raw.get(key)
        loaded = None
        if isinstance(ref, str):
            path = Path(ref)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            try:
                loaded = parse_monoid(path.read_text(encoding="utf-8"))
            except (OSError, UnicodeDecodeError) as exc:
                raise ParseError(f"cannot read {key} reference {ref!r}: {exc}") from None
        elif isinstance(ref, dict):
            loaded = parse_document(json.dumps(ref)).monoid
        elif ref is not None:
            raise ParseError(f"'{key}' must be a path string or an inline monoid object")
        if given is not None and loaded is not None and given != loaded:
            raise ParseError(f"'{key}' reference disagrees with the supplied monoid")
        resolved = given if given is not None else loaded
        if resolved is None:
            raise ParseError(f"no {key} monoid: supply one or add a '{key}' field")
        return resolved

    actor_m = resolve("actor", actor)
    acted_m = resolve("acted", acted)
    star = raw["star"]
    if not isinstance(star, list) or len(star) != actor_m.size or any(
        not isinstance(row, list) or len(row) != acted_m.size for row in star
    ):
        raise ParseError(f"'star' must be a {actor_m.size}x{acted_m.size} array")
    return validate_action(actor_m, acted_m, tuple(tuple(row) for row in star))


def emit_action(act: MonoidAction) -> str:
    """Canonical emission of an action with inline actor/acted documents."""
    out = {
        "actor": json.loads(emit_monoid(act.actor).rstrip()),
        "acted": json.loads(emit_monoid(act.acted).rstrip()),
        "star": [list(row) for row in act.star],
    }
    return json.dumps(out, indent=2) + "\n"
