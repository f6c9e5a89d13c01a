"""Monoid actions, semidirect products, and non-abelian 1-cohomology.

Covers: validated actions of one monoid on another, the twisted product
monoid they induce, fixed points, 1-cocycles and their cohomology
classes, sections of the canonical projection, normality analysis of
factorizations, split-epimorphism translation, inner actions defined by
unit-valued homomorphisms, and the conical uniqueness bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

from .core import (
    Carrier,
    ElementMap,
    FiniteMonoid,
    MonoidError,
    MonoidIso,
    SizeBoundExceeded,
    SubMonoid,
    carrier_elements,
    compose,
    enumerate_homs,
    inverse_in,
    is_subgroup,
    opposite,
    units,
)
from .descent import CohomologyClasses, _orbit_classes
from .factorization import Factorization, fac_over, try_factorization
from .search import search_assignments


class AxiomViolation(MonoidError):
    """An action table violates one of the four action axioms."""

    def __init__(self, axiom: str, witness: tuple):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"action axiom {axiom} fails at {witness}")


class ActionMismatch(MonoidError):
    """The action does not relate the supplied pair of monoids."""


class NotUnitValued(MonoidError):
    """A unit-valued cocycle was required."""


class NotASplitPair(MonoidError):
    """The two maps are not a homomorphism/section pair."""


class NotUnitValuedHom(MonoidError):
    """A homomorphism landing in the unit group was required."""


class InternalInconsistency(MonoidError):
    """Two routes that must agree did not; indicates an implementation bug."""


@dataclass(frozen=True)
class MonoidAction:
    """A left action table of ``actor`` on ``acted``, validated on construction."""

    actor: FiniteMonoid
    acted: FiniteMonoid
    star: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        star = tuple(tuple(row) for row in self.star)
        object.__setattr__(self, "star", star)
        B, A = self.actor, self.acted
        if len(star) != B.size or any(len(row) != A.size for row in star):
            raise ActionMismatch("action table has the wrong shape")
        for row in star:
            for v in row:
                if type(v) is not int or not 0 <= v < A.size:
                    raise ActionMismatch(f"action value {v!r} outside the acted monoid")
        for a in A.elements():
            if star[B.identity][a] != a:
                raise AxiomViolation("A1", (a,))
        for b1 in B.elements():
            for b2 in B.elements():
                row12 = star[B.table[b1][b2]]
                row1, row2 = star[b1], star[b2]
                for a in A.elements():
                    if row12[a] != row1[row2[a]]:
                        raise AxiomViolation("A2", (b1, b2, a))
        for b in B.elements():
            if star[b][A.identity] != A.identity:
                raise AxiomViolation("A3", (b,))
        for b in B.elements():
            row = star[b]
            for a1 in A.elements():
                for a2 in A.elements():
                    if row[A.table[a1][a2]] != A.table[row[a1]][row[a2]]:
                        raise AxiomViolation("A4", (b, a1, a2))

    def apply(self, b: int, a: int) -> int:
        return self.star[b][a]


def validate_action(
    B: FiniteMonoid, A: FiniteMonoid, star: Sequence[Sequence[int]]
) -> MonoidAction:
    """Validate an action table of B on A against the four axioms."""
    return MonoidAction(B, A, tuple(tuple(row) for row in star))


def action_from_hom(
    phi: ElementMap, endos: Sequence[ElementMap]
) -> MonoidAction:
    """Tabulate the action of a homomorphism into an endomorphism monoid.

    ``phi`` maps the actor into the endomorphism monoid whose elements
    index ``endos``; the acted monoid is the endomorphisms' domain.
    """
    B = phi.domain
    if isinstance(B, SubMonoid):
        B = B.as_monoid()
    A = endos[0].domain
    star = tuple(
        tuple(endos[phi(b)](a) for a in A.elements()) for b in carrier_elements(phi.domain)
    )
    return MonoidAction(B, A, star)


def trivial_action(B: FiniteMonoid, A: FiniteMonoid) -> MonoidAction:
    return MonoidAction(B, A, tuple(tuple(A.elements()) for _ in B.elements()))


def opposite_action(act: MonoidAction) -> MonoidAction:
    """The same table, acting on the opposite of the acted monoid."""
    return MonoidAction(act.actor, opposite(act.acted), act.star)


@dataclass(frozen=True)
class SemidirectProduct:
    """The twisted product monoid on pairs, with embeddings and projections."""

    product: FiniteMonoid
    embed_a: ElementMap
    embed_b: ElementMap
    proj_a: ElementMap
    proj_b: ElementMap
    action: MonoidAction

    def pair_index(self, a: int, b: int) -> int:
        return a * self.action.actor.size + b

    def parts(self, x: int) -> tuple[int, int]:
        return divmod(x, self.action.actor.size)

    def first_image(self) -> SubMonoid:
        eb = self.action.actor.identity
        members = tuple(sorted(self.pair_index(a, eb) for a in self.action.acted.elements()))
        return SubMonoid(self.product, members)

    def second_image(self) -> SubMonoid:
        ea = self.action.acted.identity
        members = tuple(sorted(self.pair_index(ea, b) for b in self.action.actor.elements()))
        return SubMonoid(self.product, members)

    def canonical_factorization(self) -> Factorization:
        fac = try_factorization(self.product, self.first_image(), self.second_image())
        if fac is None:
            raise InternalInconsistency("semidirect images failed to factorize the product")
        return fac


def semidirect(A: FiniteMonoid, act: MonoidAction, B: FiniteMonoid) -> SemidirectProduct:
    """The semidirect product of A by B along a validated action.

    Carrier indices are row-major pairs (A-index major); multiplication
    twists the second left factor through the action.
    """
    if act.acted != A or act.actor != B:
        raise ActionMismatch("action does not relate the supplied monoids")
    na, nb = A.size, B.size
    star = act.star
    atab, btab = A.table, B.table

    def idx(a: int, b: int) -> int:
        return a * nb + b

    table = tuple(
        tuple(
            idx(atab[a1][star[b1][a2]], btab[b1][b2])
            for a2 in range(na)
            for b2 in range(nb)
        )
        for a1 in range(na)
        for b1 in range(nb)
    )
    labels = None
    if A.labels is not None or B.labels is not None:
        labels = tuple(f"{A.label(a)}·{B.label(b)}" for a in range(na) for b in range(nb))
    product = FiniteMonoid(table, idx(A.identity, B.identity), labels)
    embed_a = ElementMap(A, product, tuple(idx(a, B.identity) for a in range(na)))
    embed_b = ElementMap(B, product, tuple(idx(A.identity, b) for b in range(nb)))
    proj_a = ElementMap(product, A, tuple(x // nb for x in range(na * nb)))
    proj_b = ElementMap(product, B, tuple(x % nb for x in range(na * nb)))
    return SemidirectProduct(product, embed_a, embed_b, proj_a, proj_b, act)


def h0(act: MonoidAction) -> SubMonoid:
    """The fixed-point submonoid of the acted monoid."""
    A, B = act.acted, act.actor
    members = tuple(
        a for a in A.elements() if all(act.star[b][a] == a for b in B.elements())
    )
    return SubMonoid(A, members)


@dataclass(frozen=True)
class Cocycle1:
    """A 1-cocycle of the actor with coefficients in the acted monoid."""

    action: MonoidAction
    underlying: ElementMap
    unit_valued: bool

    def __call__(self, b: int) -> int:
        return self.underlying(b)

    @property
    def values(self) -> tuple[int, ...]:
        return self.underlying.values

    def __repr__(self) -> str:
        return f"Cocycle1({self.values})"


_COCYCLE_SIZE_LIMIT = 8


def z1(act: MonoidAction, unit_valued: bool = False) -> list[Cocycle1]:
    """All 1-cocycles of the action, in lexicographic value order.

    A cocycle sends the identity to the identity and turns products into
    action-twisted products.  With ``unit_valued`` the values are
    restricted to the unit group of the acted monoid, on which the
    action restricts.
    """
    B, A = act.actor, act.acted
    if B.size > _COCYCLE_SIZE_LIMIT or A.size > _COCYCLE_SIZE_LIMIT:
        raise SizeBoundExceeded(f"1-cocycle search capped at order {_COCYCLE_SIZE_LIMIT}")
    star = act.star
    atab, btab = A.table, B.table
    nb = B.size
    pool = units(A).members if unit_valued else tuple(A.elements())
    candidates = [list(pool)] * nb
    allowed = [frozenset(pool)] * nb
    pinned = [(B.identity, A.identity)]

    def sweep(assign: list) -> list[tuple[int, int]] | None:
        pins = []
        known = [b for b in range(nb) if assign[b] is not None]
        for b1 in known:
            c1 = assign[b1]
            row1 = btab[b1]
            for b2 in known:
                target = row1[b2]
                val = atab[c1][star[b1][assign[b2]]]
                cur = assign[target]
                if cur is None:
                    pins.append((target, val))
                elif cur != val:
                    return None
        return pins

    solutions = search_assignments(nb, pinned, candidates, allowed, sweep)
    unit_set = units(A).member_set
    return [
        Cocycle1(act, ElementMap(B, A, values), all(v in unit_set for v in values))
        for values in solutions
    ]


Values = tuple[int, ...]


def _unit_orbit_classes(
    objects: Sequence,
    unit_members: Sequence[int],
    move: Callable[[int, Values], Values],
    base_index: int | None,
) -> CohomologyClasses:
    """Orbits of a unit-group action on maps, keyed by their value tuples.

    ``move(u, values)`` is the value tuple of the object that the unit u
    carries the given one to; the witnesses are these orbit morphisms.
    """
    values = [obj.values for obj in objects]
    class_of, _, witnesses = _orbit_classes(
        values, unit_members, lambda u, i: move(u, values[i])
    )
    first: dict[int, int] = {}
    for i, c in enumerate(class_of):
        first.setdefault(c, i)
    representatives = tuple(objects[i] for i in first.values())
    base_class = class_of[base_index] if base_index is not None else None
    return CohomologyClasses(
        tuple(objects), class_of, representatives, witnesses, base_class
    )


def h1(
    act: MonoidAction,
    unit_valued: bool = False,
    cocycles: Sequence[Cocycle1] | None = None,
) -> CohomologyClasses:
    """Cohomology classes of 1-cocycles, pointed by the class of the zero cocycle.

    Two cocycles are cohomologous when some unit a0 satisfies
    ``chi(b) * (b . a0) = a0 * chi'(b)`` at every b.  ``cocycles`` is the
    already enumerated ``z1(act, unit_valued)``, when the caller has it;
    a cocycle of another action, or a list without the zero cocycle, is
    not that Z¹ and raises ActionMismatch.
    """
    if cocycles is None:
        cocycles = z1(act, unit_valued)
    elif any(c.action != act for c in cocycles):
        raise ActionMismatch("cocycle belongs to a different action")
    A, B = act.acted, act.actor
    atab, star = A.table, act.star
    unit_members = units(A).members
    inverse = {a0: inverse_in(A, a0) for a0 in unit_members}
    zero_values = (A.identity,) * B.size
    base_index = next((i for i, c in enumerate(cocycles) if c.values == zero_values), None)
    if base_index is None:
        raise ActionMismatch("the cocycles lack the zero cocycle")

    def move(a0: int, values: Values) -> Values:
        # solve chi(b) * (b . a0) = a0 * chi'(b) for chi'
        inv = inverse[a0]
        return tuple(atab[inv][atab[v][star[b][a0]]] for b, v in enumerate(values))

    return _unit_orbit_classes(cocycles, unit_members, move, base_index)


@dataclass(frozen=True)
class SectionsReport:
    """Sections of the canonical projection and their conjugacy classes.

    ``section_of_cocycle`` and ``cocycle_of_section`` realize the two
    mutually inverse correspondences between 1-cocycles and sections.
    """

    sections: tuple[ElementMap, ...]
    classes: CohomologyClasses
    cocycles: tuple[Cocycle1, ...]
    section_of_cocycle: tuple[int, ...]
    cocycle_of_section: tuple[int, ...]


def sections(sd: SemidirectProduct) -> SectionsReport:
    """All homomorphic sections of the projection onto the actor.

    Every section picks one fiber element over each actor element, so
    the search is a constrained homomorphism enumeration; sections are
    equivalent when conjugate by a unit of the acted factor.
    """
    act = sd.action
    A, B = act.acted, act.actor
    product = sd.product
    nb = B.size
    pos_of_pair = sd.pair_index
    fibers = [[pos_of_pair(a, b) for a in A.elements()] for b in range(nb)]
    ptab, btab = product.table, B.table
    pinned = [(B.identity, product.identity)]
    candidates = [sorted(f) for f in fibers]
    allowed = [frozenset(f) for f in fibers]

    def sweep(assign: list) -> list[tuple[int, int]] | None:
        pins = []
        known = [b for b in range(nb) if assign[b] is not None]
        for b1 in known:
            row = ptab[assign[b1]]
            for b2 in known:
                target = btab[b1][b2]
                val = row[assign[b2]]
                cur = assign[target]
                if cur is None:
                    pins.append((target, val))
                elif cur != val:
                    return None
        return pins

    found = search_assignments(nb, pinned, candidates, allowed, sweep)
    secs = tuple(ElementMap(B, product, values) for values in found)

    cocycles = tuple(z1(act, unit_valued=False))
    cocycle_index = {c.values: i for i, c in enumerate(cocycles)}
    section_index = {s.values: i for i, s in enumerate(secs)}
    try:
        section_of_cocycle = tuple(
            section_index[tuple(pos_of_pair(c(b), b) for b in B.elements())]
            for c in cocycles
        )
        cocycle_of_section = tuple(
            cocycle_index[compose(sd.proj_a, s).values] for s in secs
        )
    except KeyError as exc:
        raise InternalInconsistency(f"section/cocycle correspondence broke: {exc}") from None

    unit_members = units(A).members
    jA = sd.embed_a
    embedded_inverse = {a0: jA(inverse_in(A, a0)) for a0 in unit_members}
    zero_section = section_of_cocycle[
        next(i for i, c in enumerate(cocycles) if c.values == (A.identity,) * nb)
    ]

    def conjugate(a0: int, values: Values) -> Values:
        u, u_inv = jA(a0), embedded_inverse[a0]
        return tuple(ptab[ptab[u][v]][u_inv] for v in values)

    classes = _unit_orbit_classes(secs, unit_members, conjugate, zero_section)
    return SectionsReport(secs, classes, cocycles, section_of_cocycle, cocycle_of_section)


def fac_from_z1(sd: SemidirectProduct, chi: Cocycle1) -> SubMonoid:
    """The second factor carved out of the product by a unit-valued cocycle.

    Computed two ways and cross-checked: directly as the set of twisted
    graph points ``chi(b)·b``, and as the kernel of the induced left
    descent cocycle ``a·b -> a * chi(b)^{-1}``.
    """
    if chi.action != sd.action:
        raise ActionMismatch("cocycle belongs to a different action")
    if not chi.unit_valued:
        raise NotUnitValued("the cocycle must take values in the unit group")
    A, B = sd.action.acted, sd.action.actor
    graph = tuple(sorted(sd.pair_index(chi(b), b) for b in B.elements()))
    atab = A.table
    kernel = []
    for x in sd.product.elements():
        a, b = sd.parts(x)
        if atab[a][inverse_in(A, chi(b))] == A.identity:
            kernel.append(x)
    if graph != tuple(kernel):
        raise InternalInconsistency("graph and induced-kernel routes disagree")
    return SubMonoid(sd.product, graph)


def normality_check(
    M: FiniteMonoid,
    N: SubMonoid,
    X: Union[SubMonoid, Iterable[int]],
    side: str = "left",
) -> bool:
    """Whether x*N is contained in N*x (left), the reverse (right), or both."""
    if side not in ("left", "right", "both"):
        raise ValueError("side must be 'left', 'right' or 'both'")
    xs = X.members if isinstance(X, SubMonoid) else tuple(X)
    table = M.table
    for x in xs:
        xN = {table[x][n] for n in N.members}
        Nx = {table[n][x] for n in N.members}
        if side in ("left", "both") and not xN <= Nx:
            return False
        if side in ("right", "both") and not Nx <= xN:
            return False
    return True


@dataclass(frozen=True)
class NormalityReport:
    """The three equivalent presentations of a left-normal factorization."""

    second_map_is_hom: bool
    left_normal: bool
    semidirect_presentation: bool
    action: MonoidAction | None
    product: SemidirectProduct | None
    iso: MonoidIso | None
    group_case_m_normal: bool | None  # left normality against all of M, when A is a group

    @property
    def all_equivalent(self) -> bool:
        return self.second_map_is_hom == self.left_normal == self.semidirect_presentation


def factorization_normality_equivalences(fac: Factorization) -> NormalityReport:
    """Evaluate the three equivalent conditions on a factorization.

    (1) the second component map is a homomorphism; (2) the first factor
    is left-normal against the second; (3) twisting the first factor by
    the recovered action reproduces the monoid.  The three verdicts must
    agree; when they hold the recovered action and isomorphism are
    returned.
    """
    M, A, B = fac.parent, fac.first, fac.second
    cond_hom = fac.to_second.is_homomorphism()
    cond_normal = normality_check(M, A, B, "left")

    action = None
    product = None
    iso = None
    cond_semidirect = False
    A_mon, B_mon = A.as_monoid(), B.as_monoid()
    a_pos, b_pos = A.positions, B.positions
    star = tuple(
        tuple(a_pos[fac.to_first(M.table[b][a])] for a in A.members) for b in B.members
    )
    try:
        candidate = MonoidAction(B_mon, A_mon, star)
    except AxiomViolation:
        candidate = None
    if candidate is not None:
        sd = semidirect(A_mon, candidate, B_mon)
        # the canonical comparison sends the pair (a, b) to a*b in M
        values = [0] * sd.product.size
        for a in A.members:
            for b in B.members:
                values[sd.pair_index(a_pos[a], b_pos[b])] = M.table[a][b]
        forward = ElementMap(sd.product, M, tuple(values))
        if forward.is_homomorphism():
            inverse = [0] * M.size
            for x, m in enumerate(values):
                inverse[m] = x
            iso = MonoidIso(forward, ElementMap(M, sd.product, tuple(inverse)))
            action = candidate
            product = sd
            cond_semidirect = True

    if not (cond_hom == cond_normal == cond_semidirect):
        raise InternalInconsistency(
            f"equivalent conditions disagree: hom={cond_hom}, "
            f"normal={cond_normal}, semidirect={cond_semidirect}"
        )

    m_normal = None
    if is_subgroup(M, A):
        m_normal = normality_check(M, A, M.elements(), "left")
        if m_normal != cond_normal:
            raise InternalInconsistency("group-factor normality transfer failed")
    return NormalityReport(
        cond_hom, cond_normal, cond_semidirect, action, product, iso, m_normal
    )


@dataclass(frozen=True)
class SplitEpiReport:
    """Split-pair analysis: kernel factorization versus unique translation."""

    kernel: SubMonoid
    section_image: SubMonoid
    kernel_is_group: bool
    condition_factorization: bool  # kernel is a group and (kernel, image) factorizes
    condition_translation: bool  # fibers are unique kernel translates
    factorization: Factorization | None
    kernel_left_normal: bool | None
    round_trip_ok: bool | None

    @property
    def conditions_agree(self) -> bool:
        return self.condition_factorization == self.condition_translation


def split_epi_analysis(
    M: FiniteMonoid, B: FiniteMonoid, p: ElementMap, s: ElementMap
) -> SplitEpiReport:
    """Analyze a split homomorphism pair ``p: M -> B``, ``s: B -> M``.

    Checks the equivalence between "the kernel is a group and pairs with
    the section image as a factorization" and "equal images differ by a
    unique kernel translate"; under either, the kernel is left-normal
    against the section image and the factorization/cocycle/split-epi
    round trips are materialized and verified.
    """
    if not (p.is_homomorphism() and s.is_homomorphism()):
        raise NotASplitPair("both maps must be monoid homomorphisms")
    if any(p(s(b)) != b for b in B.elements()):
        raise NotASplitPair("p is not a retraction of s")
    kernel = SubMonoid(M, tuple(m for m in M.elements() if p(m) == B.identity))
    image = SubMonoid(M, tuple(sorted(set(s.values))))
    kernel_group = is_subgroup(M, kernel)
    fac = try_factorization(M, kernel, image) if kernel_group else None
    cond_i = kernel_group and fac is not None

    table = M.table
    cond_ii = True
    for m1 in M.elements():
        for m2 in M.elements():
            if p(m1) != p(m2):
                continue
            translates = [k for k in kernel.members if table[k][m1] == m2]
            if len(translates) != 1:
                cond_ii = False
                break
        if not cond_ii:
            break

    if cond_i != cond_ii:
        raise InternalInconsistency(
            f"split-pair conditions disagree: factorization={cond_i}, translation={cond_ii}"
        )

    left_normal = None
    round_trip = None
    if cond_i:
        left_normal = normality_check(M, kernel, image, "left")
        if not left_normal:
            raise InternalInconsistency("split kernel is not left-normal against the image")
        # cocycle -> retraction onto the image -> same factorization
        q = fac.to_first
        q_dagger = ElementMap(
            M, image, tuple(table[inverse_in(kernel, q(m))][m] for m in M.elements())
        )
        round_trip = (
            q_dagger.values == fac.to_second.values
            and all(q_dagger(x) == x for x in image.members)
            and tuple(m for m in M.elements() if q_dagger(m) == M.identity)
            == kernel.members
            and all(p(q_dagger(m)) == p(m) for m in M.elements())
        )
        if not round_trip:
            raise InternalInconsistency("factorization/split-epi round trip failed")
    return SplitEpiReport(
        kernel, image, kernel_group, cond_i, cond_ii, fac, left_normal, round_trip
    )


@dataclass(frozen=True)
class ConvolutionReport:
    """Inner-action cohomology identified with plain homomorphisms."""

    action: MonoidAction
    cocycles: tuple[Cocycle1, ...]
    homs: tuple[ElementMap, ...]
    convolution_of: tuple[int, ...]  # cocycle index -> homomorphism index
    pointed_ok: bool  # the zero cocycle convolves to the defining homomorphism
    bijection_ok: bool
    cocycle_classes: CohomologyClasses
    hom_classes: CohomologyClasses
    induced_bijection_ok: bool


def inner_action_and_convolution(
    B: FiniteMonoid, A: FiniteMonoid, kappa: ElementMap
) -> ConvolutionReport:
    """Build the conjugation action of a unit-valued homomorphism and compare.

    Pointwise convolution with the defining homomorphism identifies the
    action's 1-cocycles with all homomorphisms B -> A (pointed by the
    defining one), and cohomology classes with conjugacy classes of
    homomorphisms.
    """
    if not kappa.is_homomorphism():
        raise NotUnitValuedHom("the defining map must be a homomorphism")
    unit_set = units(A).member_set
    if any(v not in unit_set for v in kappa.values):
        raise NotUnitValuedHom("the defining homomorphism must take unit values")
    atab = A.table
    star = tuple(
        tuple(
            atab[atab[kappa(b)][a]][inverse_in(A, kappa(b))] for a in A.elements()
        )
        for b in B.elements()
    )
    act = MonoidAction(B, A, star)

    cocycles = tuple(z1(act, unit_valued=False))
    homs = tuple(enumerate_homs(B, A))
    hom_index = {h.values: i for i, h in enumerate(homs)}
    convolution_of = []
    for c in cocycles:
        values = tuple(atab[c(b)][kappa(b)] for b in B.elements())
        idx = hom_index.get(values)
        if idx is None:
            raise InternalInconsistency("convolution left the homomorphism set")
        convolution_of.append(idx)
    bijection_ok = len(cocycles) == len(homs) and len(set(convolution_of)) == len(homs)
    zero = (A.identity,) * B.size
    zero_pos = next(i for i, c in enumerate(cocycles) if c.values == zero)
    pointed_ok = homs[convolution_of[zero_pos]].values == kappa.values

    cocycle_classes = h1(act, cocycles=cocycles)
    unit_members = units(A).members
    inverse = {a0: inverse_in(A, a0) for a0 in unit_members}

    def conjugate(a0: int, values: Values) -> Values:
        inv = inverse[a0]
        return tuple(atab[atab[a0][v]][inv] for v in values)

    kappa_pos = hom_index[kappa.values]
    hom_classes = _unit_orbit_classes(homs, unit_members, conjugate, kappa_pos)

    induced: dict[int, int] = {}
    induced_ok = True
    for i, c_class in enumerate(cocycle_classes.class_of):
        h_class = hom_classes.class_of[convolution_of[i]]
        if induced.setdefault(c_class, h_class) != h_class:
            induced_ok = False
    if len(set(induced.values())) != len(induced) or len(induced) != hom_classes.class_count:
        induced_ok = False
    return ConvolutionReport(
        act,
        cocycles,
        homs,
        tuple(convolution_of),
        pointed_ok,
        bijection_ok,
        cocycle_classes,
        hom_classes,
        induced_ok,
    )


@dataclass(frozen=True)
class ConicalReport:
    """Uniqueness bound for second factors over a conical first factor."""

    conical: bool
    second_factors: tuple[SubMonoid, ...]
    bound_satisfied: bool | None  # None when the first factor is not conical


def conical_check(M: FiniteMonoid, A: SubMonoid) -> ConicalReport:
    """Report whether A is conical and, if so, that it has at most one partner."""
    conical = len(units(A)) == 1
    partners = tuple(fac_over(M, A))
    bound = (len(partners) <= 1) if conical else None
    return ConicalReport(conical, partners, bound)
