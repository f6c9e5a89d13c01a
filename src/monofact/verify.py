"""Cross-validation suite: every structural law, checked over small populations.

Each check replays one proposition over the whole population (the
built-in catalog and/or all monoids generated up to a size bound, one
per isomorphism class) and reports the instances tested together with
the first counterexample, if any.  Independent routes are compared
wherever the library offers two ways to compute the same thing.

A check is declared in ``_CHECKS`` by its id, the kind of unit it runs on
and a function from one unit to that unit's ``Outcome``, made by ``_each``
from the unit's instances and a test of one.  ``_run_checks``
cuts each kind's units into contiguous shards, runs every check over each
shard (in worker processes when the work pays for them) and merges the
shards in population order into the counts, stops and failures one walk
over all units would give.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

from .catalog import CATALOG
from .core import (
    ElementMap,
    FiniteMonoid,
    MonoidError,
    SizeBoundExceeded,
    SubMonoid,
    enumerate_homs,
    enumerate_monoids,
    enumerate_submonoids,
    endomorphism_monoid,
    inverse_in,
    is_subgroup,
    units,
)
from .descent import (
    CohomologyClasses,
    _carries,
    cocycle_kernel,
    conjugate_second_factor,
    descent_cohomology,
    enumerate_descent_cocycles,
    fac_from_subgroup_cocycle,
    groupoid_components,
    is_descent_cocycle,
    star_act,
    unit_valued_cocycles,
)
from .factorization import (
    Factorization,
    _columns,
    _factorizations,
    _rows,
    characterize_factorization,
    fac_over,
    first_factor_filter,
    second_factor_filter,
    try_factorization,
    verify_bicross,
)
from .search import equivariance_rule, product_rule, search_assignments
from .semidirect import (
    Cocycle1,
    ConvolutionReport,
    MonoidAction,
    SectionsReport,
    SemidirectProduct,
    SplitEpiReport,
    action_from_hom,
    conical_check,
    factorization_normality_equivalences,
    fac_from_z1,
    h0,
    h1,
    inner_action_and_convolution,
    normality_check,
    sections,
    semidirect,
    split_epi_analysis,
)

# action battery limits: |acted| * |actor| and |actor| alone
_ACTION_PRODUCT_LIMIT = 12
_ACTION_ACTOR_LIMIT = 4
# the kernel-pair check skips each (A, B) with |A|^n * |B|^n above this bound,
# which prices no scan; the recorded order-4 report counts only the pairs within it
_BICROSS_SCAN_LIMIT = 1024


@dataclass(frozen=True)
class CheckResult:
    check: str
    instances: int
    passed: bool
    counterexample: str | None = None

    def __post_init__(self):
        # a check that saw no instance proves nothing, so it never passes
        if self.instances == 0:
            object.__setattr__(self, "passed", False)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{self.check}: {status} ({self.instances} instances)"
        if self.counterexample:
            text += f" -- {self.counterexample}"
        return text


@dataclass(frozen=True)
class VerifyReport:
    population: str
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def total_instances(self) -> int:
        return sum(c.instances for c in self.checks)

    def lines(self) -> list[str]:
        out = [f"population: {self.population}"]
        out.extend(c.line() for c in self.checks)
        passed = sum(1 for c in self.checks if c.passed)
        out.append(
            f"total: {passed}/{len(self.checks)} checks passed, "
            f"{self.total_instances} instances"
        )
        return out


Named = tuple[str, FiniteMonoid]
Pair = tuple[str, FiniteMonoid, str, FiniteMonoid]  # acted, then actor
Outcome = tuple[int, "str | None"]  # instances tested, counterexample or None


# the largest generated order verify replays the laws over; enumerate_monoids goes further
_VERIFY_ORDER_LIMIT = 4


def _population(max_size: int, catalog: bool) -> list[Named]:
    pop: list[Named] = []
    if catalog:
        pop.extend(CATALOG.items())
    for n in range(1, max_size + 1):
        for i, M in enumerate(enumerate_monoids(n, up_to_iso=True)):
            pop.append((f"order{n}#{i}", M))
    return pop


def _battery_pairs(pop: list[Named]) -> Iterator[Pair]:
    """Each (acted, actor) population pair within the battery limits, in order."""
    for name_a, A in pop:
        for name_b, B in pop:
            if B.size <= _ACTION_ACTOR_LIMIT and A.size * B.size <= _ACTION_PRODUCT_LIMIT:
                yield name_a, A, name_b, B


def _actions(pairs: Iterable[Pair]) -> Iterator[tuple[str, MonoidAction]]:
    """All actions of each battery pair, in order."""
    endos: dict[FiniteMonoid, tuple] = {}
    for name_a, A, name_b, B in pairs:
        if A not in endos:
            endos[A] = endomorphism_monoid(A)
        end, maps = endos[A]
        for k, phi in enumerate(enumerate_homs(B, end)):
            yield f"{name_b} acting on {name_a} #{k}", action_from_hom(phi, maps)


def _action_population(pop: list[Named]) -> list[tuple[str, MonoidAction]]:
    """All actions between population pairs within the battery limits."""
    return list(_actions(_battery_pairs(pop)))


def _equivalent_cocycles(M: FiniteMonoid, A: SubMonoid, q, q2) -> bool:
    table = M.table
    return any(
        all(table[q(m)][a0] == q2(table[m][a0]) for m in M.elements())
        for a0 in units(A).members
    )


def _kernels_conjugate(A: SubMonoid, K1: SubMonoid, K2: SubMonoid) -> bool:
    return any(
        conjugate_second_factor(a0, K2).members == K1.members
        for a0 in units(A).members
    )


# ---------------------------------------------------------------------------
# units: each builds the objects its checks share at most once, on first use;
# one that raises is not kept, so every check needing it meets the same error


class _MonoidObjects:
    """One population monoid and its submonoids, factorizations, cocycles and groupoids."""

    def __init__(self, name: str, M: FiniteMonoid):
        self.name = name
        self.M = M
        self._built: dict[tuple, object] = {}

    def describe(self, detail: str) -> str:
        return f"{self.name} table={[list(r) for r in self.M.table]}; {detail}"

    def _once(self, key: tuple, build: Callable[[], object]):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    @cached_property
    def subs(self) -> tuple[SubMonoid, ...]:
        return tuple(enumerate_submonoids(self.M))

    @cached_property
    def facs(self) -> tuple[Factorization, ...]:
        M = self.M
        return tuple(try_factorization(M, A, B) for A, B in _factorizations(M, self.subs))

    @cached_property
    def subgroups(self) -> list[SubMonoid]:
        return [L for L in self.subs if is_subgroup(self.M, L)]

    def cocycles(self, A: SubMonoid) -> list:
        return self._once(("cocycles", A), lambda: enumerate_descent_cocycles(self.M, A, "left"))

    def fac_over(self, A: SubMonoid) -> list[SubMonoid]:
        return self._once(("fac_over", A), lambda: fac_over(self.M, A))

    def unit_valued(self, A: SubMonoid, B: SubMonoid) -> list:
        return self._once(("unit_valued", A, B), lambda: unit_valued_cocycles(self.M, A, B))

    def star_groupoid(self, A: SubMonoid, B: SubMonoid) -> CohomologyClasses:
        """U(A) acting by ``star_act`` on the cocycles unit-valued on B."""
        build = lambda: groupoid_components(self.unit_valued(A, B), units(A), star_act)
        return self._once(("star_groupoid", A, B), build)

    def partner_groupoid(self, A: SubMonoid) -> CohomologyClasses:
        """U(A) acting by conjugation on the second factors of A."""
        build = lambda: groupoid_components(self.fac_over(A), units(A), conjugate_second_factor)
        return self._once(("partner_groupoid", A), build)

    @cached_property
    def retractions(self) -> tuple[tuple[SubMonoid, tuple[int, ...]], ...]:
        """Each (S, retraction onto S), S in submonoid order."""
        return tuple((S, r) for S in self.subs for r in _retractions(self.M, S))

    def split_report(self, S: SubMonoid, retraction: tuple[int, ...]) -> SplitEpiReport:
        """The ``split_epi_analysis`` of the pair that ``retraction`` onto S splits."""

        def analyse() -> SplitEpiReport:
            target = S.as_monoid()
            inclusion = ElementMap(target, self.M, S.members)
            projection = ElementMap(self.M, target, tuple(map(S.position, retraction)))
            return split_epi_analysis(self.M, target, projection, inclusion)

        return self._once(("split", S, retraction), analyse)


def _retractions(M: FiniteMonoid, S: SubMonoid) -> list[tuple[int, ...]]:
    """The homs M -> S fixing S pointwise, in value order; M's order is not capped.

    Each s in S is pinned to s, so the search meets only retractions.
    """
    n, members = M.size, S.members
    rule = product_rule(M.table, M.table, [tuple(range(n))] * n)
    pinned = [(s, s) for s in members]
    return search_assignments(n, pinned, [members] * n, [S.member_set] * n, rule)


class _ActionObjects:
    """One battery action and its semidirect product, sections, unit Z¹ and second factors."""

    def __init__(self, desc: str, act: MonoidAction):
        self.desc = desc
        self.act = act

    def describe(self, detail: str) -> str:
        return f"{self.desc}: {detail}"

    @cached_property
    def sd(self) -> SemidirectProduct:
        return semidirect(self.act.acted, self.act, self.act.actor)  # validates the table

    @cached_property
    def sections_report(self) -> SectionsReport:
        return sections(self.sd)

    @cached_property
    def unit_cocycles(self) -> list[Cocycle1]:
        return [c for c in self.sections_report.cocycles if c.unit_valued]

    @cached_property
    def partners(self) -> list[SubMonoid]:
        return fac_over(self.sd.product, self.sd.first_image())

    @cached_property
    def graphs(self) -> list[tuple[int, ...]]:
        """Members of ``fac_from_z1`` for each unit-valued cocycle, in order."""
        return [fac_from_z1(self.sd, chi).members for chi in self.unit_cocycles]


class _InnerHom:
    """One unit-valued homomorphism kappa: B -> A and its convolution report."""

    def __init__(self, label: str, B: FiniteMonoid, A: FiniteMonoid, kappa: ElementMap):
        self.label = label
        self.B, self.A, self.kappa = B, A, kappa

    def describe(self, detail: str) -> str:
        return f"{self.label}: {detail}"

    @cached_property
    def report(self) -> ConvolutionReport:
        return inner_action_and_convolution(self.B, self.A, self.kappa)


def _inner_homs(pairs: Iterable[Pair]) -> Iterator[_InnerHom]:
    for name_a, A, name_b, B in pairs:
        unit_set = units(A).member_set
        for kappa in enumerate_homs(B, A):
            if all(v in unit_set for v in kappa.values):
                yield _InnerHom(f"{name_b}->{name_a} kappa={kappa.values}", B, A, kappa)


# ---------------------------------------------------------------------------
# checks; each maps one unit to its Outcome, the counterexample without the
# unit's description


def _each(instances: Callable[[object], Iterable]):
    """Declare a check with one instance per item of ``instances(unit)``.

    The decorated ``test(unit, item)`` returns a counterexample or None.  A
    MonoidError raised while listing or judging the items is the
    counterexample, counted with the items listed so far.
    """

    def declare(test: Callable[[object, object], "str | None"]):
        def check(unit) -> Outcome:
            count = 0
            try:
                for item in instances(unit):
                    count += 1
                    counterexample = test(unit, item)
                    if counterexample is not None:
                        return count, counterexample
            except MonoidError as exc:
                return count, str(exc)
            return count, None

        return check

    return declare


def _single(test: Callable[[object], "str | None"]) -> Callable[[object], Outcome]:
    """A check with one instance per unit, the unit itself."""
    return _each(lambda unit: (unit,))(lambda unit, _: test(unit))


@_each(lambda u: u.facs)
def _first_factor_necessity(u: _MonoidObjects, fac: Factorization) -> str | None:
    ok1, w1 = first_factor_filter(u.M, fac.first)
    ok2, w2 = second_factor_filter(u.M, fac.second)
    return None if ok1 and ok2 else f"fac={fac}, witnesses {w1} {w2}"


@_each(lambda u: u.facs)
def _component_kernels(u: _MonoidObjects, fac: Factorization) -> str | None:
    M = u.M
    ker_first = tuple(m for m in M.elements() if fac.to_first(m) == M.identity)
    ker_second = tuple(m for m in M.elements() if fac.to_second(m) == M.identity)
    if ker_first != fac.second.members or ker_second != fac.first.members:
        return f"kernels wrong for {fac}"
    return None


@_each(lambda u: u.facs)
def _first_map_laws(u: _MonoidObjects, fac: Factorization) -> str | None:
    ok, violation = is_descent_cocycle(u.M, fac.first, fac.to_first, "left")
    return None if ok else f"{fac} violates {violation}"


@_each(lambda u: u.facs)
def _second_map_laws(u: _MonoidObjects, fac: Factorization) -> str | None:
    ok, violation = is_descent_cocycle(u.M, fac.second, fac.to_second, "right")
    return None if ok else f"{fac} violates {violation}"


@_each(lambda u: (A for A in u.subs if u.cocycles(A)))
def _star_action(u: _MonoidObjects, A: SubMonoid) -> str | None:
    qs = u.cocycles(A)
    for q in qs:
        ok, violation = is_descent_cocycle(u.M, A, q.underlying, "left")
        if not ok:
            return f"cocycle {q.values} violates {violation}"
    # U(A) acts: every moved cocycle is one of qs, which are all cocycles
    groupoid_components(qs, units(A), star_act)
    return None


@_each(lambda u: u.facs)
def _star_restriction(u: _MonoidObjects, fac: Factorization) -> str | None:
    u.star_groupoid(fac.first, fac.second)  # U(A) acts on the unit-valued subset
    return None


@_each(
    lambda u: (
        (fac.first, *pair)
        for fac in u.facs
        for pair in itertools.product(
            [(q, cocycle_kernel(q)) for q in u.unit_valued(fac.first, fac.second)], repeat=2
        )
    )
)
def _equivalence_vs_conjugacy(u: _MonoidObjects, instance) -> str | None:
    A, (q, kernel), (q2, kernel2) = instance
    lhs = _equivalent_cocycles(u.M, A, q, q2)
    rhs = _kernels_conjugate(A, kernel, kernel2)
    if lhs != rhs:
        return f"equivalence {lhs} but conjugacy {rhs} for {q.values} vs {q2.values}"
    return None


@_each(lambda u: (q for A in u.subs for q in u.cocycles(A)))
def _kernel_submonoid(u: _MonoidObjects, q) -> str | None:
    kernel = cocycle_kernel(q)  # construction validates closure
    if u.M.is_group() and not is_subgroup(u.M, kernel):
        return f"kernel {kernel} not a subgroup"
    return None


@_each(lambda u: itertools.product(u.subs, repeat=2))
def _factorization_characterization(u: _MonoidObjects, pair) -> str | None:
    A, B = pair
    direct = try_factorization(u.M, A, B) is not None
    via_maps = characterize_factorization(u.M, A, B)
    if direct != via_maps:
        return (
            f"pair ({A.members},{B.members}): inversion {direct}, "
            f"characterization {via_maps}"
        )
    return None


def _component_maps(
    M: FiniteMonoid, S: SubMonoid, other: SubMonoid, lines: list
) -> list[ElementMap]:
    """The maps M -> S that send ``other`` to e and obey ``equivariance_rule(lines)``."""
    n, pinned = M.size, [(m, M.identity) for m in other.members]
    rule = equivariance_rule(lines)
    found = search_assignments(n, pinned, [S.members] * n, [frozenset(S.members)] * n, rule)
    return [ElementMap(M, S, values) for values in found]


def _bicross_accepted(M: FiniteMonoid, A: SubMonoid, B: SubMonoid) -> set[tuple]:
    """The (f, g) value pairs that ``verify_bicross`` accepts among the component maps.

    The engine lists the f: M -> A that are left A-equivariant and send B to
    e, and the g: M -> B that are right B-equivariant and send A to e.
    """
    lefts = _component_maps(M, A, B, _rows(M, A))
    rights = _component_maps(M, B, A, _columns(M, B))
    return {(f.values, g.values) for f in lefts for g in rights if verify_bicross(M, A, B, f, g)}


def _scanned_pairs(u: _MonoidObjects) -> Iterator[tuple[SubMonoid, SubMonoid]]:
    """The (A, B) pairs of submonoids within the kernel-pair scan limit, in order."""
    n = u.M.size
    for A, B in itertools.product(u.subs, repeat=2):
        if len(A) ** n * len(B) ** n <= _BICROSS_SCAN_LIMIT:
            yield A, B


# two kinds of instance: the factorizations, then the scanned pairs
@_each(lambda u: itertools.chain(u.facs, _scanned_pairs(u)))
def _kernel_pair_characterization(u: _MonoidObjects, item) -> str | None:
    M = u.M
    if isinstance(item, Factorization):
        if not verify_bicross(M, item.first, item.second, item.to_first, item.to_second):
            return f"component maps of {item} rejected"
        return None
    A, B = item
    fac = try_factorization(M, A, B)
    expected = {(fac.to_first.values, fac.to_second.values)} if fac is not None else set()
    wrong = _bicross_accepted(M, A, B) ^ expected
    if wrong:
        l_vals, r_vals = min(wrong)
        should = (l_vals, r_vals) in expected
        return (
            f"pair ({A.members},{B.members}) maps {l_vals}/{r_vals}: "
            f"accepted={not should} expected={should}"
        )
    return None


@_each(lambda u: u.subgroups)
def _subgroup_first_factor(u: _MonoidObjects, L: SubMonoid) -> str | None:
    qs, partners = u.cocycles(L), u.fac_over(L)
    if bool(qs) != bool(partners):
        return f"subgroup {L.members}: {len(qs)} cocycles, {len(partners)} partners"
    for q in qs:
        built = fac_from_subgroup_cocycle(u.M, L, q)
        direct = try_factorization(u.M, L, built.second)
        if (
            direct is None
            or built.to_first.values != direct.to_first.values
            or built.to_second.values != direct.to_second.values
        ):
            return f"cocycle {q.values} builds a wrong factorization"
    return None


@_each(lambda u: u.subgroups)
def _subgroup_cocycle_bijection(u: _MonoidObjects, L: SubMonoid) -> str | None:
    qs = u.cocycles(L)
    kernels = [cocycle_kernel(q).members for q in qs]
    partners = [B.members for B in u.fac_over(L)]
    if sorted(kernels) != sorted(partners):  # fac_over lists each partner once
        return f"subgroup {L.members}: kernels {kernels} vs {partners}"
    by_values = {q.values: q for q in qs}
    for B in u.fac_over(L):
        fac = try_factorization(u.M, L, B)
        if fac.to_first.values not in by_values:
            return f"component map of ({L.members},{B.members}) not a cocycle"
        if cocycle_kernel(by_values[fac.to_first.values]).members != B.members:
            return "kernel round trip broke"
    return None


@_each(lambda u: u.facs)
def _unit_cocycle_bijection(u: _MonoidObjects, fac: Factorization) -> str | None:
    uv = u.unit_valued(fac.first, fac.second)
    kernels = [cocycle_kernel(q).members for q in uv]
    partners = [B.members for B in u.fac_over(fac.first)]
    if sorted(kernels) != sorted(partners):
        return f"{fac}: kernels {kernels} vs partners {partners}"
    base = next((q for q in uv if q.values == fac.to_first.values), None)
    if base is None or cocycle_kernel(base).members != fac.second.members:
        return f"{fac}: base point not preserved"
    return None


def _onto_partners(
    source: CohomologyClasses, members: list, partners: CohomologyClasses, what: str
) -> str | None:
    """Unless object i -> the partner with ``members[i]`` is a bijection of classes, why not.

    ``partners`` is a conjugation groupoid on second factors; ``what`` names
    the objects' images (kernels, graphs) in the counterexample.
    """
    index = {B.members: j for j, B in enumerate(partners.objects)}
    image = []
    for key in members:
        if key not in index:
            return f"{what} {key} is not a partner"
        image.append(index[key])
    if not _carries(source, partners, image):
        return f"{what} map is not a bijection of classes"
    return None


@_each(lambda u: u.facs)
def _groupoid_isomorphism(u: _MonoidObjects, fac: Factorization) -> str | None:
    cocycles = u.star_groupoid(fac.first, fac.second)
    kernels = [cocycle_kernel(q).members for q in cocycles.objects]
    return _onto_partners(cocycles, kernels, u.partner_groupoid(fac.first), f"{fac}: kernel")


@_each(lambda u: ((fac, a0) for fac in u.facs for a0 in units(fac.first).members))
def _conjugation_action(u: _MonoidObjects, instance) -> str | None:
    fac, a0 = instance
    A, B = fac.first, fac.second
    conjugate = B if a0 == u.M.identity else conjugate_second_factor(a0, B)  # e * B * e = B
    if conjugate not in u.fac_over(A):
        return f"{conjugate.members} is not a partner of {A.members}"
    u.partner_groupoid(A)  # U(A) acts on the partners
    return None


@_each(lambda u: u.facs)
def _semidirect_equivalence(u: _MonoidObjects, fac: Factorization) -> str | None:
    factorization_normality_equivalences(fac)  # raises unless the three conditions agree
    return None


@_each(lambda u: (fac for fac in u.facs if is_subgroup(u.M, fac.first)))
def _group_factor_normality(u: _MonoidObjects, fac: Factorization) -> str | None:
    against_second = normality_check(u.M, fac.first, fac.second, "left")
    against_all = normality_check(u.M, fac.first, u.M.elements(), "left")
    if against_second != against_all:
        return f"{fac}: normality transfer {against_second} vs {against_all}"
    return None


@_each(lambda u: u.retractions)
def _split_epi_translation(u: _MonoidObjects, pair) -> str | None:
    u.split_report(*pair)  # split_epi_analysis raises unless its two conditions agree
    return None


@_single
def _three_way_correspondence(u: _MonoidObjects) -> str | None:
    M = u.M
    normal_group_facs = [
        fac
        for fac in u.facs
        if is_subgroup(M, fac.first)
        and normality_check(M, fac.first, fac.second, "left")
    ]
    normal_cocycles = [
        (L, q)
        for L in u.subgroups
        for q in u.cocycles(L)
        if normality_check(M, L, cocycle_kernel(q), "left")
    ]
    split_pairs = {
        (S.members, retraction)
        for S, retraction in u.retractions
        if u.split_report(S, retraction).condition_translation
    }
    if not (len(normal_group_facs) == len(normal_cocycles) == len(split_pairs)):
        return (
            f"corner sizes {len(normal_group_facs)}, {len(normal_cocycles)}, "
            f"{len(split_pairs)}"
        )
    for fac in normal_group_facs:
        if (fac.first, fac.to_first.values) not in [(L, q.values) for L, q in normal_cocycles]:
            return f"{fac} has no cocycle corner"
    for L, q in normal_cocycles:
        kernel = cocycle_kernel(q)
        dagger = tuple(M.table[inverse_in(L, q(m))][m] for m in M.elements())
        if (kernel.members, dagger) not in split_pairs:
            return f"cocycle {q.values} has no split-epi corner"
        back = try_factorization(M, L, kernel)
        if back is None or back.to_first.values != q.values:
            return f"cocycle {q.values} round trip broke"
    return None


@_single
def _semidirect_construction(ob: _ActionObjects) -> str | None:
    sd = ob.sd
    if not sd.proj_b.is_homomorphism():
        return "projection onto the actor is not a homomorphism"
    sd.canonical_factorization()  # raises unless the images factorize the product
    h0(ob.act)  # fixed points must form a submonoid; construction validates
    return None


@_single
def _sections_bijection(ob: _ActionObjects) -> str | None:
    report = ob.sections_report
    if len(report.sections) != len(report.cocycles):
        return f"{len(report.sections)} sections vs {len(report.cocycles)} cocycles"
    # a left inverse between equal finite sets is two-sided, and _carries compares class counts
    for i in range(len(report.cocycles)):
        if report.cocycle_of_section[report.section_of_cocycle[i]] != i:
            return "correspondences are not mutually inverse"
    classes = h1(ob.act, cocycles=report.cocycles)
    if not _carries(classes, report.classes, report.section_of_cocycle):
        return "cocycle classes do not match section classes"
    return None


@_single
def _unit_z1_second_factors(ob: _ActionObjects) -> str | None:
    act, sd = ob.act, ob.sd
    unit_cocycles, images = ob.unit_cocycles, ob.graphs
    partners = [B.members for B in ob.partners]
    if sorted(images) != sorted(partners):
        return f"graphs {sorted(images)} vs partners {sorted(partners)}"
    zero = (act.acted.identity,) * act.actor.size
    zero_image = dict(zip((chi.values for chi in unit_cocycles), images)).get(zero)
    second = sd.second_image()
    if zero_image != second.members:
        return "zero cocycle does not map to the canonical factor"
    # the induced map on the product is a unit-valued left descent cocycle;
    # it sends the pair (a, b), numbered a * |B| + b, to (a * chi0(b)^{-1}, e)
    A_img = sd.first_image()
    nb, e = act.actor.size, act.actor.identity
    inverse = act.acted.inverses
    inverted = [inverse[v] for v in unit_cocycles[0].values]
    values = tuple(row[w] * nb + e for row in act.acted.table for w in inverted)
    induced = ElementMap(sd.product, A_img, values)
    ok, violation = is_descent_cocycle(sd.product, A_img, induced, "left")
    if not ok:
        return f"induced map is not a descent cocycle ({violation})"
    unit_imgs = units(A_img).member_set
    if any(induced.values[x] not in unit_imgs for x in second.members):
        return "induced map is not unit-valued on the second factor"
    return None


@_single
def _h1_component_count(ob: _ActionObjects) -> str | None:
    classes = h1(ob.act, unit_valued=True, cocycles=ob.unit_cocycles)
    acting = units(ob.sd.first_image())
    groupoid = groupoid_components(ob.partners, acting, conjugate_second_factor)
    return _onto_partners(classes, ob.graphs, groupoid, "graph")


@_single
def _inner_convolution(hom: _InnerHom) -> str | None:
    report = hom.report
    return None if report.bijection_ok else "convolution broke"


@_single
def _inner_convolution_classes(hom: _InnerHom) -> str | None:
    return None if hom.report.induced_bijection_ok else "class map broke"


@_each(lambda u: ((A, r) for A in u.subs for r in [conical_check(u.M, A)] if r.conical))
def _conical_bound(u: _MonoidObjects, instance) -> str | None:
    A, report = instance
    if not report.bound_satisfied:
        return f"conical {A.members} has partners {[B.members for B in report.second_factors]}"
    return None


@_each(lambda u: u.facs)
def _restricted_cohomology(u: _MonoidObjects, fac: Factorization) -> str | None:
    """Pointed restricted cohomology agrees with the groupoid route."""
    classes = descent_cohomology(u.M, fac.first, restrict_unit_on=fac.second)
    if classes.class_count != u.partner_groupoid(fac.first).class_count:
        return f"{fac}: class/component counts differ"
    return None


# (check id, unit kind, check), in report order
_CHECKS: tuple[tuple[str, str, Callable[..., Outcome]], ...] = (
    ("first-factor-necessity", "monoid", _first_factor_necessity),
    ("component-kernels", "monoid", _component_kernels),
    ("first-map-laws", "monoid", _first_map_laws),
    ("second-map-laws", "monoid", _second_map_laws),
    ("unit-star-action", "monoid", _star_action),
    ("unit-star-restriction", "monoid", _star_restriction),
    ("equivalence-vs-conjugacy", "monoid", _equivalence_vs_conjugacy),
    ("cocycle-kernel-submonoid", "monoid", _kernel_submonoid),
    ("factorization-characterization", "monoid", _factorization_characterization),
    ("kernel-pair-characterization", "monoid", _kernel_pair_characterization),
    ("subgroup-first-factor", "monoid", _subgroup_first_factor),
    ("subgroup-cocycle-bijection", "monoid", _subgroup_cocycle_bijection),
    ("unit-cocycle-bijection", "monoid", _unit_cocycle_bijection),
    ("groupoid-isomorphism", "monoid", _groupoid_isomorphism),
    ("conjugation-action", "monoid", _conjugation_action),
    ("semidirect-equivalence", "monoid", _semidirect_equivalence),
    ("group-factor-normality", "monoid", _group_factor_normality),
    ("split-epi-translation", "monoid", _split_epi_translation),
    ("three-way-correspondence", "monoid", _three_way_correspondence),
    ("semidirect-construction", "action", _semidirect_construction),
    ("sections-bijection", "action", _sections_bijection),
    ("unit-z1-second-factors", "action", _unit_z1_second_factors),
    ("h1-component-count", "action", _h1_component_count),
    ("inner-convolution", "inner", _inner_convolution),
    ("inner-convolution-classes", "inner", _inner_convolution_classes),
    ("conical-bound", "monoid", _conical_bound),
    ("restricted-cohomology", "monoid", _restricted_cohomology),
)


# units of each kind, built from a slice of its items: population monoids,
# or battery pairs for the actions and the inner homs
_UNITS: dict[str, Callable[[tuple], Iterable]] = {
    "monoid": lambda pop: (_MonoidObjects(name, M) for name, M in pop),
    "action": lambda pairs: (_ActionObjects(desc, act) for desc, act in _actions(pairs)),
    "inner": _inner_homs,
}

# Battery pairs (the battery and the inner homs, ~90% of the work, grow with
# them) that pay for one worker process's start-up.  On a 2-CPU host two
# spawned workers lose to the in-process run at 100 pairs (order 3, 0.40 vs
# 0.23 s), tie at 147 (order 2 + catalog, 0.48 s) and win at 364 (order 3 +
# catalog, 0.80 vs 1.08 s), so break-even is about 75 pairs per worker.
# Below two workers' worth, verify runs in-process.
_PAIRS_PER_WORKER = 100
# shards per worker, so one that finishes early takes another and the last
# shard to finish is short
_SHARDS_PER_WORKER = 16

Shard = tuple[str, tuple]  # a unit kind and a contiguous slice of its items
Tally = Outcome  # instances, counterexample (with its unit's description) or None


def _shards(pop: list[Named], count: int) -> list[Shard]:
    """Each kind's items cut into ``count`` contiguous slices (no empty ones), in order."""
    pairs = list(_battery_pairs(pop))
    out = []
    for kind, items in (("monoid", pop), ("action", pairs), ("inner", pairs)):
        bounds = [len(items) * k // count for k in range(count + 1)]
        out.extend((kind, tuple(items[lo:hi])) for lo, hi in zip(bounds, bounds[1:]) if lo < hi)
    return out


def _run_shard(shard: Shard) -> dict[str, Tally]:
    """Every check of the shard's kind over its units, each stopping at its first failure."""
    kind, items = shard
    checks = [(check_id, check) for check_id, k, check in _CHECKS if k == kind]
    tallies: dict[str, Tally] = {check_id: (0, None) for check_id, _ in checks}
    for unit in _UNITS[kind](items):
        running = [(i, check) for i, check in checks if tallies[i][1] is None]
        if not running:
            break
        for check_id, check in running:
            try:
                instances, counterexample = check(unit)
            except StopIteration as exc:  # the builtin map would end as if out of shards
                raise RuntimeError(f"{check_id} raised StopIteration") from exc
            if counterexample is not None:
                counterexample = unit.describe(counterexample)
            tallies[check_id] = (tallies[check_id][0] + instances, counterexample)
    return tallies


def _merge(tallies: Iterable[dict[str, Tally]]) -> list[CheckResult]:
    """One result per check of ``_CHECKS``, from shard tallies in population order.

    A check's count sums its shards up to the first with a counterexample,
    which it keeps; later shards are ignored.
    """
    merged: dict[str, Outcome] = {check_id: (0, None) for check_id, _, _ in _CHECKS}
    for tally in tallies:
        for check_id, (instances, counterexample) in tally.items():
            count, stop = merged[check_id]
            if stop is None:
                merged[check_id] = (count + instances, counterexample)
    return [
        CheckResult(check_id, instances, counterexample is None, counterexample)
        for check_id, (instances, counterexample) in merged.items()
    ]


def _run_checks(pop: list[Named], shards: int = 1, mapper=map) -> list[CheckResult]:
    """Every check of ``_CHECKS`` over the population's units, ``shards`` slices per kind.

    ``mapper`` runs ``_run_shard`` over the shards and yields their tallies
    in order: the builtin ``map`` in-process, or a process pool's ``map``.
    """
    return _merge(mapper(_run_shard, _shards(pop, shards)))


def _worker_count(pop: list[Named]) -> int:
    """Worker processes worth starting: one per CPU, at most one per _PAIRS_PER_WORKER."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    pairs = sum(1 for _ in _battery_pairs(pop))
    return min(cpus, pairs // _PAIRS_PER_WORKER)


def verify_suite(max_size: int, catalog: bool = True) -> VerifyReport:
    """Run every structural check over the catalog and generated populations."""
    if not 1 <= max_size <= _VERIFY_ORDER_LIMIT:
        raise SizeBoundExceeded(f"the population size bound must be in 1..{_VERIFY_ORDER_LIMIT}")
    pop = _population(max_size, catalog)
    description = f"generated <= {max_size}" + (" + catalog" if catalog else "")
    workers = _worker_count(pop)
    if workers < 2:
        results = _run_checks(pop)
    else:
        # imported here, not at the top: they would add ~40 ms to every CLI start-up
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawned workers start from a fresh import: forking is unsafe when the
        # caller has threads, and a shard needs nothing but its own items
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            results = _run_checks(pop, workers * _SHARDS_PER_WORKER, pool.map)
    return VerifyReport(description, tuple(results))
