"""Cross-validation suite: every structural law, checked over small populations.

Each check replays one proposition over the whole population (the
built-in catalog and/or all monoids generated up to a size bound, one
per isomorphism class) and reports the instances tested together with
the first counterexample, if any.  Independent routes are compared
wherever the library offers two ways to compute the same thing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

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


def _population(max_size: int, catalog: bool) -> list[Named]:
    pop: list[Named] = []
    if catalog:
        pop.extend(CATALOG.items())
    for n in range(1, max_size + 1):
        for i, M in enumerate(enumerate_monoids(n, up_to_iso=True)):
            pop.append((f"order{n}#{i}", M))
    return pop


def _describe(name: str, M: FiniteMonoid, detail: str) -> str:
    return f"{name} table={[list(r) for r in M.table]}; {detail}"


@lru_cache(maxsize=None)
def _subs(M: FiniteMonoid) -> tuple[SubMonoid, ...]:
    return tuple(enumerate_submonoids(M))


@lru_cache(maxsize=None)
def _facs(M: FiniteMonoid) -> tuple[Factorization, ...]:
    return tuple(enumerate_factorizations(M))


@lru_cache(maxsize=None)
def _cocycles(M: FiniteMonoid, A: SubMonoid) -> tuple:
    return tuple(enumerate_descent_cocycles(M, A, "left"))


@lru_cache(maxsize=None)
def _fac_over(M: FiniteMonoid, A: SubMonoid) -> tuple[SubMonoid, ...]:
    return tuple(fac_over(M, A))


@lru_cache(maxsize=None)
def _unit_valued(M: FiniteMonoid, A: SubMonoid, B: SubMonoid) -> tuple:
    return tuple(unit_valued_cocycles(M, A, B))


@lru_cache(maxsize=None)
def _endos(A: FiniteMonoid):
    end, maps = endomorphism_monoid(A)
    return end, tuple(maps)


@lru_cache(maxsize=None)
def _retraction_maps(M: FiniteMonoid, S: SubMonoid) -> tuple[ElementMap, ...]:
    """All homomorphic retractions of M onto the submonoid S (ambient values)."""
    free = [m for m in M.elements() if m not in S]
    out = []
    for combo in itertools.product(S.members, repeat=len(free)):
        values = list(range(M.size))
        for pos, val in zip(free, combo):
            values[pos] = val
        for s in S.members:
            values[s] = s
        candidate = ElementMap(M, S, tuple(values))
        if candidate.is_homomorphism():
            out.append(candidate)
    return tuple(out)


def _actions_of(A: FiniteMonoid, B: FiniteMonoid) -> tuple[MonoidAction, ...]:
    end, endos = _endos(A)
    return tuple(action_from_hom(phi, endos) for phi in enumerate_homs(B, end))


def _action_population(pop: list[Named]) -> list[tuple[str, MonoidAction]]:
    """All actions between population pairs within the battery limits."""
    out = []
    for name_a, A in pop:
        for name_b, B in pop:
            if B.size > _ACTION_ACTOR_LIMIT:
                continue
            if A.size * B.size > _ACTION_PRODUCT_LIMIT:
                continue
            for k, act in enumerate(_actions_of(A, B)):
                out.append((f"{name_b} acting on {name_a} #{k}", act))
    return out


def _equivalent_cocycles(M: FiniteMonoid, A: SubMonoid, q, q2) -> bool:
    table = M.table
    for a0 in units(A).members:
        if all(table[q(m)][a0] == q2(table[m][a0]) for m in M.elements()):
            return True
    return False


def _kernels_conjugate(M: FiniteMonoid, A: SubMonoid, K1: SubMonoid, K2: SubMonoid) -> bool:
    return any(
        conjugate_second_factor(a0, K2).members == K1.members
        for a0 in units(A).members
    )


# ---------------------------------------------------------------------------
# individual checks; each returns (instances, counterexample-or-None)

Outcome = tuple[int, "str | None"]


def _check_first_factor_necessity(pop: list[Named]) -> Outcome:
    count = 0
    for name, M in pop:
        for fac in _facs(M):
            count += 1
            ok1, w1 = first_factor_filter(M, fac.first)
            ok2, w2 = second_factor_filter(M, fac.second)
            if not (ok1 and ok2):
                return count, _describe(name, M, f"fac={fac}, witnesses {w1} {w2}")
    return count, None


def _check_component_kernels(pop: list[Named]) -> Outcome:
    count = 0
    for name, M in pop:
        e = M.identity
        for fac in _facs(M):
            count += 1
            ker_first = tuple(m for m in M.elements() if fac.to_first(m) == e)
            ker_second = tuple(m for m in M.elements() if fac.to_second(m) == e)
            if ker_first != fac.second.members or ker_second != fac.first.members:
                return count, _describe(name, M, f"kernels wrong for {fac}")
    return count, None


def _check_component_map_laws(pop: list[Named], side: str) -> Outcome:
    count = 0
    for name, M in pop:
        for fac in _facs(M):
            count += 1
            if side == "left":
                ok, violation = is_descent_cocycle(M, fac.first, fac.to_first, "left")
            else:
                ok, violation = is_descent_cocycle(M, fac.second, fac.to_second, "right")
            if not ok:
                return count, _describe(name, M, f"{fac} violates {violation}")
    return count, None


def _check_star_action(pop: list[Named]) -> Outcome:
    count = 0
    for name, M in pop:
        table = M.table
        for A in _subs(M):
            qs = _cocycles(M, A)
            if not qs:
                continue
            count += 1
            values = {q.values for q in qs}
            unit_members = units(A).members
            for a0 in unit_members:
                moved = [star_act(a0, q) for q in qs]
                for q, mq in zip(qs, moved):
                    ok, violation = is_descent_cocycle(M, A, mq.underlying, "left")
                    if not ok or mq.values not in values:
                        return count, _describe(
                            name, M, f"unit {a0} moves {q.values} outside: {violation}"
                        )
                if {mq.values for mq in moved} != values:
                    return count, _describe(name, M, f"unit {a0} is not a bijection")
            for q in qs:
                if star_act(M.identity, q).values != q.values:
                    return count, _describe(name, M, "identity unit acts nontrivially")
                for a1 in unit_members:
                    for a2 in unit_members:
                        twice = star_act(a1, star_act(a2, q))
                        once = star_act(table[a1][a2], q)
                        if twice.values != once.values:
                            return count, _describe(
                                name, M, f"action composition fails at ({a1},{a2})"
                            )
    return count, None


def _check_star_restriction(pop: list[Named]) -> Outcome:
    count = 0
    for name, M in pop:
        for fac in _facs(M):
            count += 1
            uv = _unit_valued(M, fac.first, fac.second)
            uv_values = {q.values for q in uv}
            for a0 in units(fac.first).members:
                for q in uv:
                    if star_act(a0, q).values not in uv_values:
                        return count, _describe(
                            name, M, f"unit {a0} leaves the unit-valued subset"
                        )
    return count, None


def _check_equivalence_vs_conjugacy(pop: list[Named]) -> Outcome:
    count = 0
    for name, M in pop:
        for fac in _facs(M):
            A = fac.first
            uv = _unit_valued(M, A, fac.second)
            kernels = [cocycle_kernel(q) for q in uv]
            for i, q in enumerate(uv):
                for j, q2 in enumerate(uv):
                    count += 1
                    lhs = _equivalent_cocycles(M, A, q, q2)
                    rhs = _kernels_conjugate(M, A, kernels[i], kernels[j])
                    if lhs != rhs:
                        return count, _describe(
                            name, M,
                            f"equivalence {lhs} but conjugacy {rhs} for "
                            f"{q.values} vs {q2.values}",
                        )
    return count, None


def _check_kernel_submonoid(pop: list[Named]) -> Outcome:
    count = 0
    for name, M in pop:
        group = M.is_group()
        for A in _subs(M):
            for q in _cocycles(M, A):
                count += 1
                try:
                    kernel = cocycle_kernel(q)  # construction validates closure
                except MonoidError as exc:
                    return count, _describe(name, M, f"kernel not a submonoid: {exc}")
                if group and not is_subgroup(M, kernel):
                    return count, _describe(name, M, f"kernel {kernel} not a subgroup")
    return count, None


def _check_factorization_characterization(pop: list[Named]) -> Outcome:
    count = 0
    for name, M in pop:
        subs = _subs(M)
        for A in subs:
            for B in subs:
                count += 1
                direct = try_factorization(M, A, B) is not None
                via_maps = characterize_factorization(M, A, B)
                if direct != via_maps:
                    return count, _describe(
                        name, M,
                        f"pair ({A.members},{B.members}): inversion {direct}, "
                        f"characterization {via_maps}",
                    )
    return count, None


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


def _check_kernel_pair_characterization(pop: list[Named]) -> Outcome:
    count = 0
    for name, M in pop:
        n = M.size
        subs = _subs(M)
        for fac in _facs(M):
            count += 1
            if not verify_bicross(M, fac.first, fac.second, fac.to_first, fac.to_second):
                return count, _describe(name, M, f"component maps of {fac} rejected")
        # every map M -> S, built once per S and shared by all pairs within the limit
        maps = {
            S: [ElementMap(M, S, vals) for vals in itertools.product(S.members, repeat=n)]
            for S in subs
            if len(S) ** n <= _BICROSS_SCAN_LIMIT
        }
        for A in subs:
            for B in subs:
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
                    return count, _describe(
                        name, M,
                        f"pair ({A.members},{B.members}) maps {l_vals}/{r_vals}: "
                        f"accepted={not should} expected={should}",
                    )
    return count, None


def _check_subgroup_first_factor(pop: list[Named]) -> Outcome:
    count = 0
    for name, M in pop:
        for L in _subs(M):
            if not is_subgroup(M, L):
                continue
            count += 1
            qs = _cocycles(M, L)
            partners = _fac_over(M, L)
            if bool(qs) != bool(partners):
                return count, _describe(
                    name, M,
                    f"subgroup {L.members}: {len(qs)} cocycles, {len(partners)} partners",
                )
            for q in qs:
                built = fac_from_subgroup_cocycle(M, L, q)
                direct = try_factorization(M, L, built.second)
                if (
                    direct is None
                    or built.to_first.values != direct.to_first.values
                    or built.to_second.values != direct.to_second.values
                ):
                    return count, _describe(
                        name, M, f"cocycle {q.values} builds a wrong factorization"
                    )
    return count, None


def _check_subgroup_cocycle_bijection(pop: list[Named]) -> Outcome:
    count = 0
    for name, M in pop:
        for L in _subs(M):
            if not is_subgroup(M, L):
                continue
            count += 1
            qs = _cocycles(M, L)
            kernels = [cocycle_kernel(q).members for q in qs]
            partners = [B.members for B in _fac_over(M, L)]
            if sorted(kernels) != sorted(partners) or len(set(kernels)) != len(kernels):
                return count, _describe(
                    name, M, f"subgroup {L.members}: kernels {kernels} vs {partners}"
                )
            values = {q.values for q in qs}
            for B in _fac_over(M, L):
                fac = try_factorization(M, L, B)
                if fac.to_first.values not in values:
                    return count, _describe(
                        name, M, f"component map of ({L.members},{B.members}) not a cocycle"
                    )
                round_trip = cocycle_kernel(
                    next(q for q in qs if q.values == fac.to_first.values)
                )
                if round_trip.members != B.members:
                    return count, _describe(name, M, "kernel round trip broke")
    return count, None


def _check_unit_cocycle_bijection(pop: list[Named]) -> Outcome:
    count = 0
    for name, M in pop:
        for fac in _facs(M):
            count += 1
            uv = _unit_valued(M, fac.first, fac.second)
            kernels = [cocycle_kernel(q).members for q in uv]
            partners = [B.members for B in _fac_over(M, fac.first)]
            if sorted(kernels) != sorted(partners) or len(set(kernels)) != len(kernels):
                return count, _describe(
                    name, M, f"{fac}: kernels {kernels} vs partners {partners}"
                )
            if cocycle_kernel(next(
                q for q in uv if q.values == fac.to_first.values
            )).members != fac.second.members:
                return count, _describe(name, M, f"{fac}: base point not preserved")
    return count, None


def _check_groupoid_isomorphism(pop: list[Named]) -> Outcome:
    count = 0
    for name, M in pop:
        for fac in _facs(M):
            count += 1
            A = fac.first
            acting = units(A)
            uv = list(_unit_valued(M, A, fac.second))
            cocycle_groupoid = groupoid_components(
                uv, acting, lambda a0, q: star_act(a0, q)
            )
            partners = list(_fac_over(M, A))
            partner_groupoid = groupoid_components(
                partners, acting, lambda a0, B: conjugate_second_factor(a0, B)
            )
            if len(cocycle_groupoid.components) != len(partner_groupoid.components):
                return count, _describe(name, M, f"{fac}: component counts differ")
            partner_index = {B.members: i for i, B in enumerate(partners)}
            partner_class = {}
            for c, comp in enumerate(partner_groupoid.components):
                for i in comp:
                    partner_class[i] = c
            transported = {}
            for c, comp in enumerate(cocycle_groupoid.components):
                for i in comp:
                    image = partner_class[partner_index[cocycle_kernel(uv[i]).members]]
                    if transported.setdefault(c, image) != image:
                        return count, _describe(
                            name, M, f"{fac}: kernel map does not respect components"
                        )
            if len(set(transported.values())) != len(partner_groupoid.components):
                return count, _describe(name, M, f"{fac}: component map not bijective")
    return count, None


def _check_conjugation_action(pop: list[Named]) -> Outcome:
    count = 0
    for name, M in pop:
        table = M.table
        for fac in _facs(M):
            A, B = fac.first, fac.second
            partners = {C.members for C in _fac_over(M, A)}
            unit_members = units(A).members
            for a0 in unit_members:
                count += 1
                conj = conjugate_second_factor(a0, B)
                if conj.members not in partners:
                    return count, _describe(
                        name, M, f"conjugate of {B.members} by {a0} is not a partner"
                    )
            if conjugate_second_factor(M.identity, B).members != B.members:
                return count, _describe(name, M, "identity conjugation moved a factor")
            for a1 in unit_members:
                for a2 in unit_members:
                    stepwise = conjugate_second_factor(
                        a1, conjugate_second_factor(a2, B)
                    )
                    combined = conjugate_second_factor(table[a1][a2], B)
                    if stepwise.members != combined.members:
                        return count, _describe(name, M, "conjugation is not an action")
    return count, None


def _check_semidirect_equivalence(pop: list[Named]) -> Outcome:
    count = 0
    for name, M in pop:
        reports = []
        for fac in _facs(M):
            count += 1
            report = factorization_normality_equivalences(fac)  # raises on divergence
            reports.append(report)
            if report.left_normal and report.iso is None:
                return count, _describe(name, M, f"{fac}: no isomorphism recovered")
        # a monoid is a twisted product iff some factorization is left normal
        if any(r.left_normal for r in reports) != any(
            r.semidirect_presentation for r in reports
        ):
            return count, _describe(name, M, "presentation existence mismatch")
    return count, None


def _check_group_factor_normality(pop: list[Named]) -> Outcome:
    count = 0
    for name, M in pop:
        for fac in _facs(M):
            if not is_subgroup(M, fac.first):
                continue
            count += 1
            against_second = normality_check(M, fac.first, fac.second, "left")
            against_all = normality_check(M, fac.first, M.elements(), "left")
            if against_second != against_all:
                return count, _describe(
                    name, M, f"{fac}: normality transfer {against_second} vs {against_all}"
                )
    return count, None


def _check_split_epi_translation(pop: list[Named]) -> Outcome:
    count = 0
    for name, M in pop:
        for S in _subs(M):
            target = S.as_monoid()
            inclusion = ElementMap(target, M, S.members)
            for retraction in _retraction_maps(M, S):
                count += 1
                projection = ElementMap(
                    M, target, tuple(S.position(v) for v in retraction.values)
                )
                report = split_epi_analysis(M, target, projection, inclusion)
                if not report.conditions_agree:
                    return count, _describe(
                        name, M, f"split pair onto {S.members} disagrees"
                    )
    return count, None


def _check_three_way_correspondence(pop: list[Named]) -> Outcome:
    count = 0
    for name, M in pop:
        count += 1
        normal_group_facs = [
            fac
            for fac in _facs(M)
            if is_subgroup(M, fac.first)
            and normality_check(M, fac.first, fac.second, "left")
        ]
        normal_cocycles = [
            (L, q)
            for L in _subs(M)
            if is_subgroup(M, L)
            for q in _cocycles(M, L)
            if normality_check(M, L, cocycle_kernel(q), "left")
        ]
        split_pairs = set()
        for S in _subs(M):
            for retraction in _retraction_maps(M, S):
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
            return count, _describe(
                name, M,
                f"corner sizes {len(normal_group_facs)}, {len(normal_cocycles)}, "
                f"{len(split_pairs)}",
            )
        for fac in normal_group_facs:
            if (fac.first, _cocycle_of(fac)) not in [
                (L, q.values) for L, q in normal_cocycles
            ]:
                return count, _describe(name, M, f"{fac} has no cocycle corner")
        for L, q in normal_cocycles:
            kernel = cocycle_kernel(q)
            dagger = tuple(
                M.table[inverse_in(L, q(m))][m] for m in M.elements()
            )
            if (kernel.members, dagger) not in split_pairs:
                return count, _describe(
                    name, M, f"cocycle {q.values} has no split-epi corner"
                )
            back = try_factorization(M, L, kernel)
            if back is None or back.to_first.values != q.values:
                return count, _describe(name, M, f"cocycle {q.values} round trip broke")
    return count, None


def _cocycle_of(fac: Factorization) -> tuple[int, ...]:
    return fac.to_first.values


class _ActionObjects:
    """One action's shared battery objects, each built at most once, on first use.

    A construction that raises is not cached, so every check that needs
    the object meets the same error, as if it had built the object itself.
    """

    def __init__(self, desc: str, act: MonoidAction):
        self.desc = desc
        self.act = act

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
        # not the cached _fac_over: it would keep every product monoid alive
        return fac_over(self.sd.product, self.first_image)

    @cached_property
    def graphs(self) -> list[tuple[int, ...]]:
        """Members of ``fac_from_z1`` for each unit-valued cocycle, in order."""
        return [fac_from_z1(self.sd, chi).members for chi in self.unit_cocycles]


# per-action battery checks; each returns a counterexample or None


def _semidirect_construction(ob: _ActionObjects) -> str | None:
    desc, act, sd = ob.desc, ob.act, ob.sd
    if not sd.proj_b.is_homomorphism():
        return f"{desc}: projection onto the actor is not a homomorphism"
    fac = sd.canonical_factorization()
    if fac.first.members != ob.first_image.members:
        return f"{desc}: canonical factorization mis-built"
    h0(act)  # fixed points must form a submonoid; construction validates
    return None


def _sections_bijection(ob: _ActionObjects) -> str | None:
    desc = ob.desc
    report = sections(ob.sd)
    if len(report.sections) != len(report.cocycles):
        return f"{desc}: {len(report.sections)} sections vs {len(report.cocycles)} cocycles"
    for i in range(len(report.cocycles)):
        if report.cocycle_of_section[report.section_of_cocycle[i]] != i:
            return f"{desc}: correspondences are not mutually inverse"
    for j in range(len(report.sections)):
        if report.section_of_cocycle[report.cocycle_of_section[j]] != j:
            return f"{desc}: correspondences are not mutually inverse"
    classes = h1(ob.act, cocycles=report.cocycles)
    if classes.class_count != report.classes.class_count:
        return f"{desc}: class counts differ"
    transported = {}
    for i, c_class in enumerate(classes.class_of):
        s_class = report.classes.class_of[report.section_of_cocycle[i]]
        if transported.setdefault(c_class, s_class) != s_class:
            return f"{desc}: cocycle classes do not match section classes"
    if len(set(transported.values())) != report.classes.class_count:
        return f"{desc}: class correspondence not bijective"
    return None


def _unit_z1_second_factors(ob: _ActionObjects) -> str | None:
    desc, act, sd = ob.desc, ob.act, ob.sd
    unit_cocycles, images = ob.unit_cocycles, ob.graphs
    partners = [B.members for B in ob.partners]
    if sorted(images) != sorted(partners) or len(set(images)) != len(images):
        return f"{desc}: graphs {sorted(images)} vs partners {sorted(partners)}"
    zero = (act.acted.identity,) * act.actor.size
    zero_image = next(
        img for chi, img in zip(unit_cocycles, images) if chi.values == zero
    )
    if zero_image != sd.second_image().members:
        return f"{desc}: zero cocycle does not map to the canonical factor"
    # the induced map on the product is a unit-valued left descent cocycle
    A_img = ob.first_image
    atab = act.acted.table
    chi0 = unit_cocycles[0]
    values = []
    for x in sd.product.elements():
        a, b = sd.parts(x)
        values.append(
            sd.pair_index(atab[a][inverse_in(act.acted, chi0(b))], act.actor.identity)
        )
    induced = ElementMap(sd.product, A_img, tuple(values))
    ok, violation = is_descent_cocycle(sd.product, A_img, induced, "left")
    if not ok:
        return f"{desc}: induced map is not a descent cocycle ({violation})"
    unit_imgs = units(A_img).member_set
    if any(induced(x) not in unit_imgs for x in sd.second_image().members):
        return f"{desc}: induced map is not unit-valued on the second factor"
    return None


def _h1_component_count(ob: _ActionObjects) -> str | None:
    desc = ob.desc
    classes = h1(ob.act, unit_valued=True, cocycles=ob.unit_cocycles)
    partners = ob.partners
    groupoid = groupoid_components(
        partners,
        units(ob.first_image),
        lambda a0, B: conjugate_second_factor(a0, B),
    )
    if classes.class_count != len(groupoid.components):
        return (
            f"{desc}: {classes.class_count} cohomology classes vs "
            f"{len(groupoid.components)} components"
        )
    partner_index = {B.members: i for i, B in enumerate(partners)}
    component_of = {}
    for c, comp in enumerate(groupoid.components):
        for i in comp:
            component_of[i] = c
    transported = {}
    for i, graph in enumerate(ob.graphs):
        image = component_of[partner_index[graph]]
        if transported.setdefault(classes.class_of[i], image) != image:
            return f"{desc}: class map does not commute with the kernel map"
    if len(set(transported.values())) != len(groupoid.components):
        return f"{desc}: class map not bijective onto components"
    return None


_BATTERY: tuple[tuple[str, Callable[[_ActionObjects], "str | None"]], ...] = (
    ("semidirect-construction", _semidirect_construction),
    ("sections-bijection", _sections_bijection),
    ("unit-z1-second-factors", _unit_z1_second_factors),
    ("h1-component-count", _h1_component_count),
)


def _check_action_battery(actions: list[tuple[str, MonoidAction]]) -> list[CheckResult]:
    """The four action-battery checks in one pass over the actions.

    Each action's product, unit-valued cocycles and second factors are
    built once and shared, then dropped before the next action.  Every
    check keeps its own instance count, stops at its first
    counterexample, and on a MonoidError reports (0, FAIL) alone.
    """
    counts = dict.fromkeys((check_id for check_id, _ in _BATTERY), 0)
    stopped: dict[str, Outcome] = {}
    for desc, act in actions:
        running = [(i, check) for i, check in _BATTERY if i not in stopped]
        if not running:
            break
        objects = _ActionObjects(desc, act)
        for check_id, check in running:
            counts[check_id] += 1
            try:
                counterexample = check(objects)
            except MonoidError as exc:
                stopped[check_id] = (0, str(exc))
            else:
                if counterexample is not None:
                    stopped[check_id] = (counts[check_id], counterexample)
    results = []
    for check_id, _ in _BATTERY:
        instances, counterexample = stopped.get(check_id, (counts[check_id], None))
        results.append(
            CheckResult(check_id, instances, counterexample is None, counterexample)
        )
    return results


def _check_inner_convolution(pop: list[Named]) -> tuple[Outcome, Outcome]:
    count = classes_count = 0
    failure = classes_failure = None
    for name_a, A in pop:
        for name_b, B in pop:
            if B.size > _ACTION_ACTOR_LIMIT:
                continue
            if A.size * B.size > _ACTION_PRODUCT_LIMIT:
                continue
            unit_set = units(A).member_set
            for kappa in enumerate_homs(B, A):
                if any(v not in unit_set for v in kappa.values):
                    continue
                report = inner_action_and_convolution(B, A, kappa)
                count += 1
                if failure is None and not (report.bijection_ok and report.pointed_ok):
                    failure = (
                        f"{name_b}->{name_a} kappa={kappa.values}: convolution broke"
                    )
                classes_count += 1
                if classes_failure is None and not report.induced_bijection_ok:
                    classes_failure = (
                        f"{name_b}->{name_a} kappa={kappa.values}: class map broke"
                    )
    return (count, failure), (classes_count, classes_failure)


def _check_conical_bound(pop: list[Named]) -> Outcome:
    count = 0
    for name, M in pop:
        for A in _subs(M):
            report = conical_check(M, A)
            if not report.conical:
                continue
            count += 1
            if not report.bound_satisfied:
                return count, _describe(
                    name, M,
                    f"conical {A.members} has partners "
                    f"{[B.members for B in report.second_factors]}",
                )
    return count, None


def _check_restricted_cohomology(pop: list[Named]) -> Outcome:
    """Pointed restricted cohomology agrees with the groupoid route."""
    count = 0
    for name, M in pop:
        for fac in _facs(M):
            count += 1
            classes = descent_cohomology(M, fac.first, restrict_unit_on=fac.second)
            if classes.base_class is None:
                return count, _describe(name, M, f"{fac}: base class missing")
            partners = list(_fac_over(M, fac.first))
            groupoid = groupoid_components(
                partners,
                units(fac.first),
                lambda a0, B: conjugate_second_factor(a0, B),
            )
            if classes.class_count != len(groupoid.components):
                return count, _describe(name, M, f"{fac}: class/component counts differ")
    return count, None


def verify_suite(max_size: int, catalog: bool = True) -> VerifyReport:
    """Run every structural check over the catalog and generated populations."""
    if max_size < 1:
        raise SizeBoundExceeded("the population needs a size bound of at least 1")
    pop = _population(max_size, catalog)
    description = f"generated <= {max_size}" + (" + catalog" if catalog else "")
    actions = _action_population(pop)
    results: list[CheckResult] = []

    def run(check_id: str, fn: Callable[[], Outcome]) -> None:
        try:
            instances, counterexample = fn()
        except MonoidError as exc:
            results.append(CheckResult(check_id, 0, False, str(exc)))
            return
        results.append(
            CheckResult(check_id, instances, counterexample is None, counterexample)
        )

    run("first-factor-necessity", lambda: _check_first_factor_necessity(pop))
    run("component-kernels", lambda: _check_component_kernels(pop))
    run("first-map-laws", lambda: _check_component_map_laws(pop, "left"))
    run("second-map-laws", lambda: _check_component_map_laws(pop, "right"))
    run("unit-star-action", lambda: _check_star_action(pop))
    run("unit-star-restriction", lambda: _check_star_restriction(pop))
    run("equivalence-vs-conjugacy", lambda: _check_equivalence_vs_conjugacy(pop))
    run("cocycle-kernel-submonoid", lambda: _check_kernel_submonoid(pop))
    run("factorization-characterization", lambda: _check_factorization_characterization(pop))
    run("kernel-pair-characterization", lambda: _check_kernel_pair_characterization(pop))
    run("subgroup-first-factor", lambda: _check_subgroup_first_factor(pop))
    run("subgroup-cocycle-bijection", lambda: _check_subgroup_cocycle_bijection(pop))
    run("unit-cocycle-bijection", lambda: _check_unit_cocycle_bijection(pop))
    run("groupoid-isomorphism", lambda: _check_groupoid_isomorphism(pop))
    run("conjugation-action", lambda: _check_conjugation_action(pop))
    run("semidirect-equivalence", lambda: _check_semidirect_equivalence(pop))
    run("group-factor-normality", lambda: _check_group_factor_normality(pop))
    run("split-epi-translation", lambda: _check_split_epi_translation(pop))
    run("three-way-correspondence", lambda: _check_three_way_correspondence(pop))
    results.extend(_check_action_battery(actions))
    try:
        conv, conv_classes = _check_inner_convolution(pop)
        results.append(
            CheckResult("inner-convolution", conv[0], conv[1] is None, conv[1])
        )
        results.append(
            CheckResult(
                "inner-convolution-classes",
                conv_classes[0],
                conv_classes[1] is None,
                conv_classes[1],
            )
        )
    except MonoidError as exc:
        results.append(CheckResult("inner-convolution", 0, False, str(exc)))
        results.append(CheckResult("inner-convolution-classes", 0, False, str(exc)))
    run("conical-bound", lambda: _check_conical_bound(pop))
    run("restricted-cohomology", lambda: _check_restricted_cohomology(pop))
    return VerifyReport(description, tuple(results))
