"""Monoid actions, semidirect products, and non-abelian 1-cohomology.

Covers: validated actions of one monoid on another, the twisted product
monoid they induce, fixed points, 1-cocycles and their cohomology
classes, sections of the canonical projection, normality analysis of
factorizations, split-epimorphism translation, inner actions defined by
unit-valued homomorphisms, and the conical uniqueness bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Union

from .core import (
    ElementMap,
    FiniteMonoid,
    MonoidError,
    MonoidIso,
    ParentMismatch,
    SizeBoundExceeded,
    SubMonoid,
    _associativity_witness,
    _Carrier,
    _hom_witness,
    _index,
    _pair_monoid,
    _reader,
    enumerate_homs,
    is_subgroup,
    opposite,
    units,
)
from .descent import (
    CohomologyClasses,
    DescentCocycle,
    _carries,
    _orbit_classes,
    fac_from_subgroup_cocycle,
)
from .factorization import Factorization, _require_map, fac_over, try_factorization
from .search import product_rule, search_assignments


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
        na = A.size
        if len(star) != B.size or any(len(row) != na for row in star):
            raise ActionMismatch("action table has the wrong shape")
        for row in star:
            for v in row:
                if type(v) is not int or not 0 <= v < na:
                    raise ActionMismatch(f"action value {v!r} outside the acted monoid")
        for a, v in enumerate(star[B.identity]):
            if v != a:
                raise AxiomViolation("A1", (a,))
        witness = _associativity_witness(star, B.table)
        if witness is not None:
            raise AxiomViolation("A2", witness)
        e = A.identity
        for b, row in enumerate(star):
            if row[e] != e:
                raise AxiomViolation("A3", (b,))
        reads = [_reader(row) for row in A.table]  # each b's row is tested against them
        for b, row in enumerate(star):
            witness = _hom_witness(row, A.table, A.table, reads)
            if witness is not None:
                raise AxiomViolation("A4", (b, *witness))

    def apply(self, b: int, a: int) -> int:
        return self.star[_index(b, self.actor.size)][_index(a, self.acted.size)]


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
    B = phi.domain.as_monoid()
    A = endos[0].domain
    star = tuple(endos[v].values for v in phi.values)
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
        return self._first_image

    def second_image(self) -> SubMonoid:
        return self._second_image

    # each embedding's values are its image, in ascending pair order
    @cached_property
    def _first_image(self) -> SubMonoid:
        return SubMonoid(self.product, self.embed_a.values)

    @cached_property
    def _second_image(self) -> SubMonoid:
        return SubMonoid(self.product, self.embed_b.values)

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
    nb = B.size
    product = _pair_monoid(A, B, act.star, "{}·{}")
    embed_a = ElementMap(A, product, tuple(a * nb + B.identity for a in A.members))
    embed_b = ElementMap(B, product, tuple(A.identity * nb + b for b in B.members))
    proj_a = ElementMap(product, A, tuple(x // nb for x in product.members))
    proj_b = ElementMap(product, B, tuple(x % nb for x in product.members))
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

    def __call__(self, b: int) -> int:
        return self.underlying(b)

    @property
    def values(self) -> tuple[int, ...]:
        return self.underlying.values

    @property
    def unit_valued(self) -> bool:
        """Whether every value is a unit of the acted monoid."""
        return units(self.action.acted).member_set.issuperset(self.values)

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
    nb = B.size
    pool = units(A).members if unit_valued else tuple(A.elements())
    candidates = [list(pool)] * nb
    allowed = [frozenset(pool)] * nb
    pinned = [(B.identity, A.identity)]
    sweep = product_rule(B.table, A.table, act.star)
    solutions = search_assignments(nb, pinned, candidates, allowed, sweep)
    return [Cocycle1(act, ElementMap(B, A, values)) for values in solutions]


Values = tuple[int, ...]


def h1(
    act: MonoidAction,
    unit_valued: bool = False,
    cocycles: Sequence[Cocycle1] | None = None,
) -> CohomologyClasses:
    """Cohomology classes of 1-cocycles, pointed by the class of the zero cocycle.

    Two cocycles are cohomologous when some unit a0 satisfies
    ``chi(b) * (b . a0) = a0 * chi'(b)`` at every b.  ``cocycles`` is the
    already enumerated ``z1(act, unit_valued)``, when the caller has it;
    a cocycle of another action, a cocycle that is not unit-valued when
    ``unit_valued`` is set, or a list without the zero cocycle, is not
    that Z¹ and raises ActionMismatch.
    """
    if cocycles is None:
        cocycles = z1(act, unit_valued)
    elif any(c.action != act for c in cocycles):
        raise ActionMismatch("cocycle belongs to a different action")
    elif unit_valued and not all(c.unit_valued for c in cocycles):
        raise ActionMismatch("cocycle is not unit-valued")
    A, B = act.acted, act.actor
    atab, star, inverse = A.table, act.star, A.inverses
    keys = [c.values for c in cocycles]
    zero_values = (A.identity,) * B.size
    if zero_values not in keys:
        raise ActionMismatch("the cocycles lack the zero cocycle")

    def move(a0: int, i: int) -> Values:
        # solve chi(b) * (b . a0) = a0 * chi'(b) for chi'
        inv = inverse[a0]
        return tuple(atab[inv][atab[v][star[b][a0]]] for b, v in enumerate(keys[i]))

    return _orbit_classes(cocycles, keys, units(A).members, move, keys.index(zero_values))


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
    # the pair (a, b) is a * nb + b (``sd.pair_index``)
    fibers = [[a * nb + b for a in A.elements()] for b in range(nb)]
    ptab = product.table
    pinned = [(B.identity, product.identity)]
    candidates = [sorted(f) for f in fibers]
    allowed = [frozenset(f) for f in fibers]
    sweep = product_rule(B.table, ptab, [tuple(product.elements())] * nb)
    found = search_assignments(nb, pinned, candidates, allowed, sweep)
    secs = tuple(ElementMap(B, product, values) for values in found)

    cocycles = tuple(z1(act, unit_valued=False))
    cocycle_index = {c.values: i for i, c in enumerate(cocycles)}
    section_index = {s.values: i for i, s in enumerate(secs)}
    try:
        section_of_cocycle = tuple(
            section_index[tuple(v * nb + b for b, v in enumerate(c.values))]
            for c in cocycles
        )
        proj_a = sd.proj_a.values
        cocycle_of_section = tuple(
            cocycle_index[tuple(proj_a[x] for x in s.values)] for s in secs
        )
    except KeyError as exc:
        raise InternalInconsistency(f"section/cocycle correspondence broke: {exc}") from None

    jA, inverse = sd.embed_a.values, A.inverses
    keys = [s.values for s in secs]
    zero_section = section_of_cocycle[cocycle_index[(A.identity,) * nb]]

    def conjugate(a0: int, i: int) -> Values:
        u, u_inv = jA[a0], jA[inverse[a0]]
        return tuple(ptab[ptab[u][v]][u_inv] for v in keys[i])

    classes = _orbit_classes(secs, keys, units(A).members, conjugate, zero_section)
    return SectionsReport(secs, classes, cocycles, section_of_cocycle, cocycle_of_section)


def _induced_cocycle(sd: SemidirectProduct, chi: Cocycle1) -> tuple[int, ...]:
    """Values of the left descent cocycle into the first image induced by a unit-valued chi.

    It sends the pair (a, b), numbered a * |B| + b, to (a * chi(b)^{-1}, e).
    """
    A, B = sd.action.acted, sd.action.actor
    nb, e, inverse = B.size, B.identity, A.inverses
    inverted = [inverse[v] for v in chi.values]
    return tuple(row[w] * nb + e for row in A.table for w in inverted)


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
    nb, identity = sd.action.actor.size, sd.product.identity
    # the pair (a, b) is a * nb + b
    graph = tuple(sorted(v * nb + b for b, v in enumerate(chi.values)))
    kernel = tuple(x for x, v in enumerate(_induced_cocycle(sd, chi)) if v == identity)
    if graph != kernel:
        raise InternalInconsistency("graph and induced-kernel routes disagree")
    return SubMonoid(sd.product, graph)


def normality_check(
    M: FiniteMonoid,
    N: SubMonoid,
    X: Union[_Carrier, Iterable[int]],
    side: str = "left",
) -> bool:
    """Whether x*N is contained in N*x (left), the reverse (right), or both."""
    if side not in ("left", "right", "both"):
        raise ValueError("side must be 'left', 'right' or 'both'")
    carrier = isinstance(X, _Carrier)
    if N.parent != M or carrier and X.parent != M:
        raise ParentMismatch("submonoids must belong to the monoid being tested")
    xs = [_index(x, M.size) for x in (X.members if carrier else X)]
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

    left_normal: bool  # so the second map is a homomorphism, and iso is not None
    action: MonoidAction | None
    product: SemidirectProduct | None
    iso: MonoidIso | None


def factorization_normality_equivalences(fac: Factorization) -> NormalityReport:
    """Evaluate the three equivalent conditions on a factorization.

    (1) the second component map is a homomorphism; (2) the first factor
    is left-normal against the second; (3) twisting the first factor by
    the recovered action reproduces the monoid.  Unless the three verdicts
    agree it raises InternalInconsistency; when they hold the recovered
    action and isomorphism are returned.
    """
    M, A, B = fac.parent, fac.first, fac.second
    cond_hom = fac.to_second.is_homomorphism()
    cond_normal = normality_check(M, A, B, "left")

    action = None
    product = None
    iso = None
    cond_semidirect = False
    A_mon, B_mon = A.as_monoid(), B.as_monoid()
    a_pos = A.positions
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
        values = tuple(
            M.table[A.members[i]][B.members[j]] for i, j in map(sd.parts, sd.product.members)
        )
        forward = ElementMap(sd.product, M, values)
        if forward.is_homomorphism():
            inverse = tuple(sorted(sd.product.members, key=values.__getitem__))
            iso = MonoidIso(forward, ElementMap(M, sd.product, inverse))
            action = candidate
            product = sd
            cond_semidirect = True

    if not (cond_hom == cond_normal == cond_semidirect):
        raise InternalInconsistency(
            f"equivalent conditions disagree: hom={cond_hom}, "
            f"normal={cond_normal}, semidirect={cond_semidirect}"
        )
    return NormalityReport(cond_normal, action, product, iso)


@dataclass(frozen=True)
class SplitEpiReport:
    """Split-pair analysis: kernel factorization versus unique translation."""

    kernel: SubMonoid
    section_image: SubMonoid
    kernel_is_group: bool
    condition_translation: bool  # fibers are unique kernel translates
    factorization: Factorization | None  # (kernel, image), None unless condition_translation


def split_epi_analysis(
    M: FiniteMonoid, B: _Carrier, p: ElementMap, s: ElementMap
) -> SplitEpiReport:
    """Analyze a split homomorphism pair ``p: M -> B``, ``s: B -> M``.

    B is a monoid, or a submonoid of M (then p may be a retraction onto it
    and s its inclusion); a submonoid of another monoid raises
    ParentMismatch.  Judges the equivalence between "the kernel is a group
    and pairs with the section image as a factorization" and "equal images
    differ by a unique kernel translate"; under either, the kernel must be
    left-normal against the section image and the factorization/cocycle/
    split-epi round trip must close.  Each of these laws raises
    InternalInconsistency when it fails.
    """
    if B.parent not in (B, M):
        raise ParentMismatch("the split submonoid belongs to a different monoid")
    _require_map(p, M, B)
    _require_map(s, B, M)
    if not (p.is_homomorphism() and s.is_homomorphism()):
        raise NotASplitPair("both maps must be monoid homomorphisms")
    if any(p(s(b)) != b for b in B.members):
        raise NotASplitPair("p is not a retraction of s")
    e = B.parent.identity
    kernel = SubMonoid(M, tuple(m for m in M.elements() if p(m) == e))
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

    if cond_i:
        if not normality_check(M, kernel, image, "left"):
            raise InternalInconsistency("split kernel is not left-normal against the image")
        # cocycle -> retraction onto the image -> same factorization
        q = DescentCocycle(fac.to_first, "left")
        q_dagger = fac_from_subgroup_cocycle(M, kernel, q).to_second
        if not (
            q_dagger.values == fac.to_second.values
            and all(q_dagger(x) == x for x in image.members)
            and tuple(m for m in M.elements() if q_dagger(m) == M.identity)
            == kernel.members
            and all(p(q_dagger(m)) == p(m) for m in M.elements())
        ):
            raise InternalInconsistency("factorization/split-epi round trip failed")
    return SplitEpiReport(kernel, image, kernel_group, cond_ii, fac)


@dataclass(frozen=True)
class ConvolutionReport:
    """Inner-action cohomology identified with plain homomorphisms."""

    action: MonoidAction
    cocycles: tuple[Cocycle1, ...]
    homs: tuple[ElementMap, ...]
    convolution_of: tuple[int, ...]  # cocycle index -> homomorphism index
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
    _require_map(kappa, B, A)
    if not kappa.is_homomorphism():
        raise NotUnitValuedHom("the defining map must be a homomorphism")
    unit_set = units(A).member_set
    if any(v not in unit_set for v in kappa.values):
        raise NotUnitValuedHom("the defining homomorphism must take unit values")
    # b acts by a -> kappa(b) * a * kappa(b)^{-1}; kappa maps B, so its values
    # are indexed by B's elements, and each is a unit
    atab, inverse, kappa_values = A.table, A.inverses, kappa.values
    star = tuple(tuple(atab[v][inverse[k]] for v in atab[k]) for k in kappa_values)
    act = MonoidAction(B, A, star)

    cocycles = tuple(z1(act, unit_valued=False))
    homs = tuple(enumerate_homs(B, A))
    hom_index = {h.values: i for i, h in enumerate(homs)}
    convolution_of = []
    for c in cocycles:
        values = tuple(atab[v][k] for v, k in zip(c.values, kappa_values))
        idx = hom_index.get(values)
        if idx is None:
            raise InternalInconsistency("convolution left the homomorphism set")
        convolution_of.append(idx)
    bijection_ok = len(cocycles) == len(homs) and len(set(convolution_of)) == len(homs)
    # h1 raises ActionMismatch unless the zero cocycle is among the cocycles
    cocycle_classes = h1(act, cocycles=cocycles)
    keys = [h.values for h in homs]

    def conjugate(a0: int, i: int) -> Values:
        inv = inverse[a0]
        return tuple(atab[atab[a0][v]][inv] for v in keys[i])

    kappa_pos = hom_index.get(kappa.values)
    if kappa_pos is None:
        raise InternalInconsistency("the defining homomorphism is not in Hom(B, A)")
    hom_classes = _orbit_classes(homs, keys, units(A).members, conjugate, kappa_pos)
    induced_ok = _carries(cocycle_classes, hom_classes, convolution_of)
    return ConvolutionReport(
        act,
        cocycles,
        homs,
        tuple(convolution_of),
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
