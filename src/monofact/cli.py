"""Command-line interface: inspect monoids, factorize, and run the checks."""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from pathlib import Path
from typing import IO, Sequence

from .catalog import CATALOG, catalog_monoid
from .core import (
    FiniteMonoid,
    MonoidError,
    SubMonoid,
    enumerate_submonoids,
    submonoid_closure,
    units,
)
from .descent import CohomologyClasses, descent_cohomology
from .descent import enumerate_descent_cocycles, unit_valued_cocycles
from .factorization import _factorizations, enumerate_factorizations, fac_over
from .formats import (
    MonoidDocument,
    ParseError,
    emit_monoid,
    parse_action,
    parse_document,
)
from .semidirect import h1 as _h1
from .semidirect import semidirect, z1 as _z1
from .verify import _VERIFY_ORDER_LIMIT, verify_suite
from .witnesses import integer_witnesses


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _load_document(ref: str) -> MonoidDocument:
    if ref.startswith("@"):
        return MonoidDocument(catalog_monoid(ref[1:]), ref[1:])
    path = Path(ref)
    return MonoidDocument(parse_document(_read_text(path)).monoid, path.stem)


def _resolve_elements(M: FiniteMonoid, spec: str) -> list[int]:
    if spec == "@all":
        return list(M.elements())
    out = []
    for token in spec.split(","):
        token = token.strip()
        named = [x for x in M.elements() if M.label(x) == token]
        if len(named) > 1:
            raise MonoidError(f"label {token!r} names elements {named}")
        if named:
            out.append(named[0])
            continue
        # int() also takes signs, underscores and non-ASCII digits
        if not (token.isascii() and token.isdigit()):
            raise MonoidError(f"unknown element {token!r}")
        idx = int(token)
        if not 0 <= idx < M.size:
            raise MonoidError(f"element index {idx} out of range 0..{M.size - 1}")
        out.append(idx)
    return out


def _resolve_submonoid(M: FiniteMonoid, spec: str) -> SubMonoid:
    return submonoid_closure(M, _resolve_elements(M, spec))


def _fmt_set(M: FiniteMonoid, xs) -> str:
    return "{" + ",".join(M.label(x) for x in xs) + "}"


def _fmt_values(M: FiniteMonoid, values) -> str:
    return "[" + ", ".join(M.label(v) for v in values) + "]"


def _cmd_info(args, out: IO[str]) -> int:
    doc = _load_document(args.infile)
    M = doc.monoid
    unit_group = units(M)
    print(f"name: {doc.name}", file=out)
    print(f"size: {M.size}", file=out)
    print(f"identity: {M.identity} ({M.label(M.identity)})", file=out)
    print(f"commutative: {'yes' if M.is_commutative() else 'no'}", file=out)
    print(f"group: {'yes' if M.is_group() else 'no'}", file=out)
    print(f"units: {len(unit_group)} {_fmt_set(M, unit_group.members)}", file=out)
    print(f"conical: {'yes' if len(unit_group) == 1 else 'no'}", file=out)
    subs = enumerate_submonoids(M)
    print(f"submonoids: {len(subs)}", file=out)
    print(f"factorizations: {sum(1 for _ in _factorizations(M, subs))}", file=out)
    return 0


def _cmd_submonoids(args, out: IO[str]) -> int:
    M = _load_document(args.infile).monoid
    subs = enumerate_submonoids(M)
    print(f"submonoids: {len(subs)}", file=out)
    for S in subs:
        print(f"  {_fmt_set(M, S.members)}", file=out)
    return 0


def _cmd_fac(args, out: IO[str]) -> int:
    M = _load_document(args.infile).monoid
    if args.first is not None:
        A = _resolve_submonoid(M, args.first)
        partners = fac_over(M, A)
        print(f"second factors for {_fmt_set(M, A.members)}: {len(partners)}", file=out)
        for B in partners:
            print(f"  {_fmt_set(M, B.members)}", file=out)
        return 1 if args.strict and not partners else 0
    facs = enumerate_factorizations(M)
    print(f"factorizations: {len(facs)}", file=out)
    for fac in facs:
        print(
            f"  ({_fmt_set(M, fac.first.members)}, {_fmt_set(M, fac.second.members)})",
            file=out,
        )
    return 1 if args.strict and not facs else 0


def _cmd_cocycles(args, out: IO[str]) -> int:
    M = _load_document(args.infile).monoid
    A = _resolve_submonoid(M, args.sub)
    if args.unit_on is not None:
        B = _resolve_submonoid(M, args.unit_on)
        cocycles = unit_valued_cocycles(M, A, B)
        kind = f"left, unit-valued on {_fmt_set(M, B.members)}"
    else:
        cocycles = enumerate_descent_cocycles(M, A, args.side)
        kind = args.side
    print(
        f"cocycles: {len(cocycles)} ({kind}, coefficients {_fmt_set(M, A.members)})",
        file=out,
    )
    for q in cocycles:
        print(f"  {_fmt_values(M, q.values)}", file=out)
    return 1 if args.strict and not cocycles else 0


def _cmd_cohomology(args, out: IO[str]) -> int:
    M = _load_document(args.infile).monoid
    A = _resolve_submonoid(M, args.sub)
    B = _resolve_submonoid(M, args.unit_on) if args.unit_on is not None else None
    classes = descent_cohomology(M, A, restrict_unit_on=B)
    _print_classes(M, classes, out)
    return 1 if args.strict and not classes.objects else 0


def _print_classes(M: FiniteMonoid, classes: CohomologyClasses, out: IO[str]) -> None:
    """The class count, then each class's cocycles as values in ``M``."""
    print(f"classes: {classes.class_count} ({len(classes.objects)} cocycles)", file=out)
    for c, members in enumerate(classes.classes()):
        marker = " (base)" if classes.base_class == c else ""
        print(f"  class {c}{marker}:", file=out)
        for i in members:
            print(f"    {_fmt_values(M, classes.objects[i].values)}", file=out)


def _load_action_setup(args):
    A = _load_document(args.a).monoid
    B = _load_document(args.b).monoid
    path = Path(args.action)
    return parse_action(_read_text(path), base_dir=path.parent, actor=B, acted=A)


def _cmd_semidirect(args, out: IO[str]) -> int:
    act = _load_action_setup(args)
    sd = semidirect(act.acted, act, act.actor)
    if args.emit:
        print(emit_monoid(sd.product, name="semidirect"), end="", file=out)
        return 0
    M = sd.product
    print(f"size: {M.size}", file=out)
    print(f"identity: {M.identity} ({M.label(M.identity)})", file=out)
    fac = sd.canonical_factorization()
    print(
        f"canonical factorization: ({_fmt_set(M, fac.first.members)}, "
        f"{_fmt_set(M, fac.second.members)})",
        file=out,
    )
    print(
        f"projection onto actor is a homomorphism: "
        f"{'yes' if sd.proj_b.is_homomorphism() else 'no'}",
        file=out,
    )
    return 0


def _cmd_z1(args, out: IO[str]) -> int:
    act = _load_action_setup(args)
    cocycles = _z1(act, unit_valued=args.units)
    A = act.acted
    kind = "unit-valued " if args.units else ""
    print(f"{kind}cocycles: {len(cocycles)}", file=out)
    for chi in cocycles:
        print(f"  {_fmt_values(A, chi.values)}", file=out)
    return 1 if args.strict and not cocycles else 0


def _cmd_h1(args, out: IO[str]) -> int:
    act = _load_action_setup(args)
    _print_classes(act.acted, _h1(act, unit_valued=args.units), out)
    return 0


def _cmd_verify(args, out: IO[str]) -> int:
    report = verify_suite(args.max_size, catalog=args.catalog)
    for line in report.lines():
        print(line, file=out)
    return 0 if report.all_passed else 1


def _cmd_witness(args, out: IO[str]) -> int:
    report = integer_witnesses(args.bound)
    print(f"bound: {report.bound}", file=out)
    print(f"odd-power pairs: {report.product_pairs}", file=out)
    print(f"integers covered: {report.covered}", file=out)
    print(
        f"decomposition bijective: {'yes' if report.decomposition_bijective else 'no'}",
        file=out,
    )
    n, odd, exp = report.sample
    print(f"sample: {n} = {odd} * 2^{exp}", file=out)
    (l1, l2), (r1, r2), total = report.addition_witness
    print(
        f"addition witness: ({l1})+({l2}) = ({r1})+({r2}) = {total}, "
        f"pairs distinct: {'yes' if report.addition_witness_ok else 'no'}",
        file=out,
    )
    return 0 if report.all_ok else 1


def _cmd_catalog(args, out: IO[str]) -> int:
    if args.name is not None:
        M = catalog_monoid(args.name)
        print(emit_monoid(M, name=args.name), end="", file=out)
        return 0
    for name, M in CATALOG.items():
        print(f"{name}: size {M.size}", file=out)
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one.

    Sharing is safe because ``parse_args`` leaves the parser unchanged and
    returns a fresh ``Namespace``, and argparse looks up ``sys.stdout`` and
    ``sys.stderr`` only when it prints, so each ``run_command`` redirect
    still applies.  ``set_defaults(func=...)`` binds the ``_cmd_*``
    handlers when the parser is built: patching ``cli._cmd_*`` after the
    first call has no effect.
    """
    parser = argparse.ArgumentParser(
        prog="monofact",
        description="Finite monoid factorizations, descent cocycles and cohomology.",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when a listing command produces a negative (empty) result",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def infile(p):
        p.add_argument("--in", dest="infile", required=True, metavar="FILE",
                       help="monoid JSON file, or @name for a catalog monoid")

    p = sub.add_parser("info", help="basic structure of a monoid")
    infile(p)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("submonoids", help="all submonoids")
    infile(p)
    p.set_defaults(func=_cmd_submonoids)

    p = sub.add_parser("fac", help="factorizations, or second factors for --first")
    infile(p)
    p.add_argument("--first", metavar="SPEC",
                   help="generators of the first factor (indices/labels, or @all)")
    p.set_defaults(func=_cmd_fac)

    p = sub.add_parser("cocycles", help="descent 1-cocycles into a submonoid")
    infile(p)
    p.add_argument("--sub", required=True, metavar="SPEC",
                   help="generators of the coefficient submonoid")
    p.add_argument("--unit-on", dest="unit_on", metavar="SPEC",
                   help="restrict to cocycles unit-valued on this second factor")
    p.add_argument("--side", choices=("left", "right"), default="left")
    p.set_defaults(func=_cmd_cocycles)

    p = sub.add_parser("cohomology", help="descent cohomology classes")
    infile(p)
    p.add_argument("--sub", required=True, metavar="SPEC")
    p.add_argument("--unit-on", dest="unit_on", metavar="SPEC")
    p.set_defaults(func=_cmd_cohomology)

    def action_args(p):
        p.add_argument("--a", required=True, metavar="FILE", help="the acted monoid")
        p.add_argument("--b", required=True, metavar="FILE", help="the acting monoid")
        p.add_argument("--action", required=True, metavar="FILE", help="action JSON file")

    p = sub.add_parser("semidirect", help="build the twisted product of --a by --b")
    action_args(p)
    p.add_argument("--emit", action="store_true", help="print the product as JSON")
    p.set_defaults(func=_cmd_semidirect)

    p = sub.add_parser("z1", help="1-cocycles of an action")
    action_args(p)
    p.add_argument("--units", action="store_true", help="restrict values to units")
    p.set_defaults(func=_cmd_z1)

    p = sub.add_parser("h1", help="cohomology classes of an action")
    action_args(p)
    p.add_argument("--units", action="store_true")
    p.set_defaults(func=_cmd_h1)

    p = sub.add_parser("verify", help="run the structural check suite")
    p.add_argument("--max-size", dest="max_size", type=int, default=2, metavar="N",
                   choices=range(1, _VERIFY_ORDER_LIMIT + 1),
                   help="generate all monoids up to this order "
                   f"(default 2, 1..{_VERIFY_ORDER_LIMIT})")
    p.add_argument("--catalog", action="store_true", help="include the built-in catalog")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("witness", help="bounded integer witnesses")
    p.add_argument("--bound", type=_positive_int, default=1000, metavar="N")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("catalog", help="list catalog monoids, or emit one")
    p.add_argument("name", nargs="?", help="emit this catalog monoid as JSON")
    p.set_defaults(func=_cmd_catalog)

    return parser


def run_command(
    argv: Sequence[str], stdout: IO[str] | None = None, stderr: IO[str] | None = None
) -> int:
    """Parse and run one invocation; returns the exit code.

    0 success, 1 negative result (failed verify, or empty listing under
    --strict), 2 usage error, 3 parse/validation error.
    """
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args, out)
    except (MonoidError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 3


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
