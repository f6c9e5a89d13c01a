"""Cross-validation suite: every structural law, checked over small populations.

Each check replays one proposition over the whole population (the
built-in catalog and/or all monoids generated up to a size bound, one
per isomorphism class) and reports the instances tested together with
the first counterexample, if any.  Independent routes are compared
wherever the library offers two ways to compute the same thing.

A check is declared in ``_CHECKS`` by its id, the kind of unit it runs on
and a function from one unit to that unit's ``Outcome``; ``_run_checks``
walks each kind's units once and counts, stops and reports for every check.
"""

from __future__ import annotations

import itertools
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
    characterize_factorization,
    enumerate_factorizations,
    fac_over,
    first_factor_filter,
    left_component_ok,
    right_component_ok,
    second_factor_filter,
    separates_points,
    try_factorization,
    verify_bicross,
)
from .semidirect import (
    Cocycle1,
    ConvolutionReport,
    MonoidAction,
    SemidirectProduct,
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
    z1,
)

# action battery limits: |acted| * |actor| and |actor| alone
_ACTION_PRODUCT_LIMIT = 12
_ACTION_ACTOR_LIMIT = 4
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
Outcome = tuple[int, "str | None"]  # instances tested, counterexample or None


def _population(max_size: int, catalog: bool) -> list[Named]:
    pop: list[Named] = []
    if catalog:
        pop.extend(CATALOG.items())
    for n in range(1, max_size + 1):
        for i, M in enumerate(enumerate_monoids(n, up_to_iso=True)):
            pop.append((f"order{n}#{i}", M))
    return pop


def _battery_pairs(pop: list[Named]) -> Iterator[tuple[str, FiniteMonoid, str, FiniteMonoid]]:
    """Each (acted, actor) population pair within the battery limits, in order."""
    for name_a, A in pop:
        for name_b, B in pop:
            if B.size <= _ACTION_ACTOR_LIMIT and A.size * B.size <= _ACTION_PRODUCT_LIMIT:
                yield name_a, A, name_b, B


def _action_population(pop: list[Named]) -> list[tuple[str, MonoidAction]]:
    """All actions between population pairs within the battery limits."""
    endos: dict[FiniteMonoid, tuple] = {}
    out = []
    for name_a, A, name_b, B in _battery_pairs(pop):
        if A not in endos:
            endos[A] = endomorphism_monoid(A)
        end, maps = endos[A]
        for k, phi in enumerate(enumerate_homs(B, end)):
            out.append((f"{name_b} acting on {name_a} #{k}", action_from_hom(phi, maps)))
    return out


def _equivalent_cocycles(M: FiniteMonoid, A: SubMonoid, q, q2) -> bool:
    table = M.table
    return any(
        all(table[q(m)][a0] == q2(table[m][a0]) for m in M.elements())
        for a0 in units(A).members
    )


def _kernels_conjugate(M: FiniteMonoid, A: SubMonoid, K1: SubMonoid, K2: SubMonoid) -> bool:
    return any(
        conjugate_second_factor(a0, K2).members == K1.members
        for a0 in units(A).members
    )


# ---------------------------------------------------------------------------
# units: each builds the objects its checks share at most once, on first use;
# one that raises is not kept, so every check needing it meets the same error


class _MonoidObjects:
    """One population monoid and its submonoids, factorizations and cocycles."""

    def __init__(self, name: str, M: FiniteMonoid):
        self.name = name
        self.M = M
        self._built: dict[tuple, tuple] = {}

    def describe(self, detail: str) -> str:
        return f"{self.name} table={[list(r) for r in self.M.table]}; {detail}"

    def _once(self, key: tuple, build: Callable[[], Iterable]) -> tuple:
        if key not in self._built:
            self._built[key] = tuple(build())
        return self._built[key]

    @cached_property
    def subs(self) -> tuple[SubMonoid, ...]:
        return tuple(enumerate_submonoids(self.M))

    @cached_property
    def facs(self) -> tuple[Factorization, ...]:
        return tuple(enumerate_factorizations(self.M))

    @cached_property
    def subgroups(self) -> list[SubMonoid]:
        return [L for L in self.subs if is_subgroup(self.M, L)]

    def cocycles(self, A: SubMonoid) -> tuple:
        return self._once(("cocycles", A), lambda: enumerate_descent_cocycles(self.M, A, "left"))

    def fac_over(self, A: SubMonoid) -> tuple[SubMonoid, ...]:
        return self._once(("fac_over", A), lambda: fac_over(self.M, A))

    def unit_valued(self, A: SubMonoid, B: SubMonoid) -> tuple:
        return self._once(("unit_valued", A, B), lambda: unit_valued_cocycles(self.M, A, B))

    def retractions(self, S: SubMonoid) -> tuple[ElementMap, ...]:
        """All homomorphic retractions of M onto S (ambient values)."""
        return self._once(("retractions", S), lambda: self._scan_retractions(S))

    def _scan_retractions(self, S: SubMonoid) -> Iterator[ElementMap]:
        M = self.M
        free = [m for m in M.elements() if m not in S]
        for combo in itertools.product(S.members, repeat=len(free)):
            values = list(range(M.size))
            for pos, val in zip(free, combo):
                values[pos] = val
            candidate = ElementMap(M, S, tuple(values))
            if candidate.is_homomorphism():
                yield candidate


class _ActionObjects:
    """One battery action and its semidirect product, unit-valued Z¹ and second factors."""

    def __init__(self, desc: str, act: MonoidAction):
        self.desc = desc
        self.act = act

    def describe(self, detail: str) -> str:
        return f"{self.desc}: {detail}"

    @cached_property
    def sd(self) -> SemidirectProduct:
        return semidirect(self.act.acted, self.act, self.act.actor)  # validates the table

    @cached_property
    def first_image(self) -> SubMonoid:
        return self.sd.first_image()

    @cached_property
    def unit_cocycles(self) -> list[Cocycle1]:
        return z1(self.act, unit_valued=True)

    @cached_property
    def partners(self) -> list[SubMonoid]:
        return fac_over(self.sd.product, self.first_image)

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


def _inner_homs(pop: list[Named]) -> Iterator[_InnerHom]:
    for name_a, A, name_b, B in _battery_pairs(pop):
        unit_set = units(A).member_set
        for kappa in enumerate_homs(B, A):
            if all(v in unit_set for v in kappa.values):
                yield _InnerHom(f"{name_b}->{name_a} kappa={kappa.values}", B, A, kappa)


# ---------------------------------------------------------------------------
# checks; each maps one unit to its Outcome, the counterexample without the
# unit's description


def _each(instances: Callable[[_MonoidObjects], Iterable]):
    """Declare a monoid check with one instance per item of ``instances(u)``.

    The decorated ``test(u, item)`` returns a counterexample or None.
    """

    def declare(test: Callable[[_MonoidObjects, object], "str | None"]):
        def check(u: _MonoidObjects) -> Outcome:
            count = 0
            for item in instances(u):
                count += 1
                counterexample = test(u, item)
                if counterexample is not None:
                    return count, counterexample
            return count, None

        return check

    return declare


def _single(test: Callable[[object], "str | None"]) -> Callable[[object], Outcome]:
    """A check with one instance per unit."""
    return lambda unit: (1, test(unit))


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
    M, qs = u.M, u.cocycles(A)
    values = {q.values for q in qs}
    unit_members = units(A).members
    for a0 in unit_members:
        moved = [star_act(a0, q) for q in qs]
        for q, mq in zip(qs, moved):
            ok, violation = is_descent_cocycle(M, A, mq.underlying, "left")
            if not ok or mq.values not in values:
                return f"unit {a0} moves {q.values} outside: {violation}"
        if {mq.values for mq in moved} != values:
            return f"unit {a0} is not a bijection"
    for q in qs:
        if star_act(M.identity, q).values != q.values:
            return "identity unit acts nontrivially"
        for a1 in unit_members:
            for a2 in unit_members:
                twice = star_act(a1, star_act(a2, q))
                if twice.values != star_act(M.table[a1][a2], q).values:
                    return f"action composition fails at ({a1},{a2})"
    return None


@_each(lambda u: u.facs)
def _star_restriction(u: _MonoidObjects, fac: Factorization) -> str | None:
    uv = u.unit_valued(fac.first, fac.second)
    uv_values = {q.values for q in uv}
    for a0 in units(fac.first).members:
        for q in uv:
            if star_act(a0, q).values not in uv_values:
                return f"unit {a0} leaves the unit-valued subset"
    return None


def _equivalence_vs_conjugacy(u: _MonoidObjects) -> Outcome:
    M = u.M
    count = 0
    for fac in u.facs:
        A = fac.first
        uv = u.unit_valued(A, fac.second)
        kernels = [cocycle_kernel(q) for q in uv]
        for i, q in enumerate(uv):
            for j, q2 in enumerate(uv):
                count += 1
                lhs = _equivalent_cocycles(M, A, q, q2)
                rhs = _kernels_conjugate(M, A, kernels[i], kernels[j])
                if lhs != rhs:
                    return count, (
                        f"equivalence {lhs} but conjugacy {rhs} for "
                        f"{q.values} vs {q2.values}"
                    )
    return count, None


@_each(lambda u: (q for A in u.subs for q in u.cocycles(A)))
def _kernel_submonoid(u: _MonoidObjects, q) -> str | None:
    try:
        kernel = cocycle_kernel(q)  # construction validates closure
    except MonoidError as exc:
        return f"kernel not a submonoid: {exc}"
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


def _bicross_accepted(
    M: FiniteMonoid,
    A: SubMonoid,
    B: SubMonoid,
    l_maps: list[ElementMap],
    r_maps: list[ElementMap],
) -> set[tuple]:
    """The (l, r) value pairs from l_maps x r_maps that ``verify_bicross`` accepts.

    Each map's one-sided conditions are tested once; joint separation
    only on pairs of survivors.
    """
    lefts = [f for f in l_maps if left_component_ok(M, A, B, f)]
    rights = [g for g in r_maps if right_component_ok(M, A, B, g)]
    return {(f.values, g.values) for f in lefts for g in rights if separates_points(M, f, g)}


def _kernel_pair_characterization(u: _MonoidObjects) -> Outcome:
    M = u.M
    n = M.size
    count = 0
    for fac in u.facs:
        count += 1
        if not verify_bicross(M, fac.first, fac.second, fac.to_first, fac.to_second):
            return count, f"component maps of {fac} rejected"
    # every map M -> S, built once per S and shared by all pairs within the limit
    maps = {
        S: [ElementMap(M, S, vals) for vals in itertools.product(S.members, repeat=n)]
        for S in u.subs
        if len(S) ** n <= _BICROSS_SCAN_LIMIT
    }
    for A in u.subs:
        for B in u.subs:
            if len(A) ** n * len(B) ** n > _BICROSS_SCAN_LIMIT:
                continue
            fac = try_factorization(M, A, B)
            expected = (
                {(fac.to_first.values, fac.to_second.values)} if fac is not None else set()
            )
            count += 1
            wrong = _bicross_accepted(M, A, B, maps[A], maps[B]) ^ expected
            if wrong:
                l_vals, r_vals = min(wrong)
                should = (l_vals, r_vals) in expected
                return count, (
                    f"pair ({A.members},{B.members}) maps {l_vals}/{r_vals}: "
                    f"accepted={not should} expected={should}"
                )
    return count, None


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
    if sorted(kernels) != sorted(partners) or len(set(kernels)) != len(kernels):
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
    if sorted(kernels) != sorted(partners) or len(set(kernels)) != len(kernels):
        return f"{fac}: kernels {kernels} vs partners {partners}"
    base = next((q for q in uv if q.values == fac.to_first.values), None)
    if base is None or cocycle_kernel(base).members != fac.second.members:
        return f"{fac}: base point not preserved"
    return None


@_each(lambda u: u.facs)
def _groupoid_isomorphism(u: _MonoidObjects, fac: Factorization) -> str | None:
    A = fac.first
    acting = units(A)
    uv = u.unit_valued(A, fac.second)
    cocycle_groupoid = groupoid_components(uv, acting, star_act)
    partners = u.fac_over(A)
    partner_groupoid = groupoid_components(partners, acting, conjugate_second_factor)
    if len(cocycle_groupoid.components) != len(partner_groupoid.components):
        return f"{fac}: component counts differ"
    partner_class = {
        partners[i].members: c
        for c, comp in enumerate(partner_groupoid.components)
        for i in comp
    }
    transported = {}
    for c, comp in enumerate(cocycle_groupoid.components):
        for i in comp:
            kernel = cocycle_kernel(uv[i]).members
            if kernel not in partner_class:
                return f"{fac}: kernel {kernel} is not a partner"
            image = partner_class[kernel]
            if transported.setdefault(c, image) != image:
                return f"{fac}: kernel map does not respect components"
    if len(set(transported.values())) != len(partner_groupoid.components):
        return f"{fac}: component map not bijective"
    return None


def _conjugation_action(u: _MonoidObjects) -> Outcome:
    M = u.M
    table = M.table
    count = 0
    for fac in u.facs:
        A, B = fac.first, fac.second
        partners = {C.members for C in u.fac_over(A)}
        unit_members = units(A).members
        for a0 in unit_members:
            count += 1
            conj = conjugate_second_factor(a0, B)
            if conj.members not in partners:
                return count, f"conjugate of {B.members} by {a0} is not a partner"
        if conjugate_second_factor(M.identity, B).members != B.members:
            return count, "identity conjugation moved a factor"
        for a1 in unit_members:
            for a2 in unit_members:
                stepwise = conjugate_second_factor(a1, conjugate_second_factor(a2, B))
                combined = conjugate_second_factor(table[a1][a2], B)
                if stepwise.members != combined.members:
                    return count, "conjugation is not an action"
    return count, None


def _semidirect_equivalence(u: _MonoidObjects) -> Outcome:
    reports = []
    for count, fac in enumerate(u.facs, 1):
        report = factorization_normality_equivalences(fac)  # raises on divergence
        reports.append(report)
        if report.left_normal and report.iso is None:
            return count, f"{fac}: no isomorphism recovered"
    # a monoid is a twisted product iff some factorization is left normal
    if any(r.left_normal for r in reports) != any(r.semidirect_presentation for r in reports):
        return len(reports), "presentation existence mismatch"
    return len(reports), None


@_each(lambda u: (fac for fac in u.facs if is_subgroup(u.M, fac.first)))
def _group_factor_normality(u: _MonoidObjects, fac: Factorization) -> str | None:
    against_second = normality_check(u.M, fac.first, fac.second, "left")
    against_all = normality_check(u.M, fac.first, u.M.elements(), "left")
    if against_second != against_all:
        return f"{fac}: normality transfer {against_second} vs {against_all}"
    return None


def _split_epi_translation(u: _MonoidObjects) -> Outcome:
    M = u.M
    count = 0
    for S in u.subs:
        target = S.as_monoid()
        inclusion = ElementMap(target, M, S.members)
        for retraction in u.retractions(S):
            count += 1
            projection = ElementMap(M, target, tuple(map(S.position, retraction.values)))
            report = split_epi_analysis(M, target, projection, inclusion)
            if not report.conditions_agree:
                return count, f"split pair onto {S.members} disagrees"
    return count, None


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
        for L in u.subs
        if is_subgroup(M, L)
        for q in u.cocycles(L)
        if normality_check(M, L, cocycle_kernel(q), "left")
    ]
    split_pairs = set()
    for S in u.subs:
        for retraction in u.retractions(S):
            kernel = [m for m in M.elements() if retraction(m) == M.identity]
            unique_translation = all(
                sum(1 for k in kernel if M.table[k][m1] == m2) == 1
                for m1 in M.elements()
                for m2 in M.elements()
                if retraction(m1) == retraction(m2)
            )
            if unique_translation:
                split_pairs.add((S.members, retraction.values))
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
    fac = sd.canonical_factorization()
    if fac.first.members != ob.first_image.members:
        return "canonical factorization mis-built"
    h0(ob.act)  # fixed points must form a submonoid; construction validates
    return None


@_single
def _sections_bijection(ob: _ActionObjects) -> str | None:
    report = sections(ob.sd)
    if len(report.sections) != len(report.cocycles):
        return f"{len(report.sections)} sections vs {len(report.cocycles)} cocycles"
    for i in range(len(report.cocycles)):
        if report.cocycle_of_section[report.section_of_cocycle[i]] != i:
            return "correspondences are not mutually inverse"
    for j in range(len(report.sections)):
        if report.section_of_cocycle[report.cocycle_of_section[j]] != j:
            return "correspondences are not mutually inverse"
    classes = h1(ob.act, cocycles=report.cocycles)
    if classes.class_count != report.classes.class_count:
        return "class counts differ"
    transported = {}
    for i, c_class in enumerate(classes.class_of):
        s_class = report.classes.class_of[report.section_of_cocycle[i]]
        if transported.setdefault(c_class, s_class) != s_class:
            return "cocycle classes do not match section classes"
    if len(set(transported.values())) != report.classes.class_count:
        return "class correspondence not bijective"
    return None


@_single
def _unit_z1_second_factors(ob: _ActionObjects) -> str | None:
    act, sd = ob.act, ob.sd
    unit_cocycles, images = ob.unit_cocycles, ob.graphs
    partners = [B.members for B in ob.partners]
    if sorted(images) != sorted(partners) or len(set(images)) != len(images):
        return f"graphs {sorted(images)} vs partners {sorted(partners)}"
    zero = (act.acted.identity,) * act.actor.size
    zero_image = dict(zip((chi.values for chi in unit_cocycles), images)).get(zero)
    if zero_image != sd.second_image().members:
        return "zero cocycle does not map to the canonical factor"
    # the induced map on the product is a unit-valued left descent cocycle
    A_img = ob.first_image
    atab = act.acted.table
    chi0 = unit_cocycles[0]
    values = tuple(
        sd.pair_index(atab[a][inverse_in(act.acted, chi0(b))], act.actor.identity)
        for a, b in map(sd.parts, sd.product.elements())
    )
    induced = ElementMap(sd.product, A_img, values)
    ok, violation = is_descent_cocycle(sd.product, A_img, induced, "left")
    if not ok:
        return f"induced map is not a descent cocycle ({violation})"
    unit_imgs = units(A_img).member_set
    if any(induced(x) not in unit_imgs for x in sd.second_image().members):
        return "induced map is not unit-valued on the second factor"
    return None


@_single
def _h1_component_count(ob: _ActionObjects) -> str | None:
    classes = h1(ob.act, unit_valued=True, cocycles=ob.unit_cocycles)
    partners = ob.partners
    groupoid = groupoid_components(partners, units(ob.first_image), conjugate_second_factor)
    if classes.class_count != len(groupoid.components):
        return (
            f"{classes.class_count} cohomology classes vs "
            f"{len(groupoid.components)} components"
        )
    component_of = {
        partners[i].members: c for c, comp in enumerate(groupoid.components) for i in comp
    }
    transported = {}
    for i, graph in enumerate(ob.graphs):
        if graph not in component_of:
            return f"graph {graph} is not a partner"
        image = component_of[graph]
        if transported.setdefault(classes.class_of[i], image) != image:
            return "class map does not commute with the kernel map"
    if len(set(transported.values())) != len(groupoid.components):
        return "class map not bijective onto components"
    return None


@_single
def _inner_convolution(hom: _InnerHom) -> str | None:
    report = hom.report
    return None if report.bijection_ok and report.pointed_ok else "convolution broke"


@_single
def _inner_convolution_classes(hom: _InnerHom) -> str | None:
    return None if hom.report.induced_bijection_ok else "class map broke"


def _conical_bound(u: _MonoidObjects) -> Outcome:
    count = 0
    for A in u.subs:
        report = conical_check(u.M, A)
        if not report.conical:
            continue
        count += 1
        if not report.bound_satisfied:
            return count, (
                f"conical {A.members} has partners "
                f"{[B.members for B in report.second_factors]}"
            )
    return count, None


@_each(lambda u: u.facs)
def _restricted_cohomology(u: _MonoidObjects, fac: Factorization) -> str | None:
    """Pointed restricted cohomology agrees with the groupoid route."""
    classes = descent_cohomology(u.M, fac.first, restrict_unit_on=fac.second)
    if classes.base_class is None:
        return f"{fac}: base class missing"
    partners = u.fac_over(fac.first)
    groupoid = groupoid_components(partners, units(fac.first), conjugate_second_factor)
    if classes.class_count != len(groupoid.components):
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


def _run_checks(units_by_kind: dict[str, Iterable]) -> list[CheckResult]:
    """Every check of ``_CHECKS`` over its kind's units: one result each, in order.

    Each kind's units are walked once, in order, by every check of that
    kind not yet stopped.  A check stops at its first counterexample, with
    its count so far, and reports a MonoidError as (0, FAIL) alone.
    """
    counts = dict.fromkeys((check_id for check_id, _, _ in _CHECKS), 0)
    stopped: dict[str, Outcome] = {}
    for kind, kind_units in units_by_kind.items():
        checks = [(check_id, check) for check_id, k, check in _CHECKS if k == kind]
        for unit in kind_units:
            running = [(i, check) for i, check in checks if i not in stopped]
            if not running:
                break
            for check_id, check in running:
                try:
                    instances, counterexample = check(unit)
                except MonoidError as exc:
                    stopped[check_id] = (0, str(exc))
                    continue
                counts[check_id] += instances
                if counterexample is not None:
                    stopped[check_id] = (counts[check_id], unit.describe(counterexample))
    results = []
    for check_id, _, _ in _CHECKS:
        instances, counterexample = stopped.get(check_id, (counts[check_id], None))
        results.append(CheckResult(check_id, instances, counterexample is None, counterexample))
    return results


def verify_suite(max_size: int, catalog: bool = True) -> VerifyReport:
    """Run every structural check over the catalog and generated populations."""
    if max_size < 1:
        raise SizeBoundExceeded("the population needs a size bound of at least 1")
    pop = _population(max_size, catalog)
    description = f"generated <= {max_size}" + (" + catalog" if catalog else "")
    units_by_kind = {
        "monoid": (_MonoidObjects(name, M) for name, M in pop),
        "action": (_ActionObjects(desc, act) for desc, act in _action_population(pop)),
        "inner": _inner_homs(pop),
    }
    return VerifyReport(description, tuple(_run_checks(units_by_kind)))
