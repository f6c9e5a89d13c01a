"""Finite monoids as validated Cayley tables, and the primitives built on them.

Elements are dense indices ``0..n-1``; a monoid is its ``n x n``
multiplication table plus the index of the two-sided identity.  All
structures are immutable and hashable, so they can be shared freely and
used as dictionary keys.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .search import product_rule, search_assignments


class MonoidError(Exception):
    """Base class for structural errors raised by this package."""


class IndexOutOfRange(MonoidError):
    """A table entry or element reference is outside ``0..n-1``."""


class NotAssociative(MonoidError):
    """Associativity fails; carries the witnessing triple."""

    def __init__(self, x: int, y: int, z: int):
        self.witness = (x, y, z)
        super().__init__(f"(x*y)*z != x*(y*z) at (x, y, z) = ({x}, {y}, {z})")


class NoIdentity(MonoidError):
    """No element acts as a two-sided identity."""


class SizeBoundExceeded(MonoidError):
    """An exhaustive enumeration was asked for beyond its practical bound."""


class ParentMismatch(MonoidError):
    """Submonoids or maps passed to an operation do not live on the stated monoids."""


class NotInvertible(MonoidError):
    """The element is not a unit of the relevant (sub)monoid."""


def _reader(indices: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """``seq -> tuple(seq[i] for i in indices)`` in one C call; ``indices`` is non-empty."""
    if len(indices) == 1:  # itemgetter(i) returns a bare value, not a 1-tuple
        i = indices[0]
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


def _index(x, n: int) -> int:
    """``x`` if it is an element index in ``0..n-1``; IndexOutOfRange otherwise (bools too)."""
    if type(x) is not int or not 0 <= x < n:
        raise IndexOutOfRange(f"element {x!r} not in 0..{n - 1}")
    return x


def _associativity_witness(rows: Sequence, table: Sequence) -> tuple[int, int, int] | None:
    """The least (x, y, z) with rows[x*y][z] != rows[x][rows[y][z]], x*y = table[x][y], or None.

    The law for every z says that row x*y is row x read through row y, so
    each pair (x, y) costs one comparison of rows, which are tuples.  A
    monoid passes its table twice, an action its rows and the actor's
    table (axiom A2).
    """
    reads = [_reader(row) for row in rows]
    for x, (row_x, prod_x) in enumerate(zip(rows, table)):
        for y, xy in enumerate(prod_x):
            row_xy = rows[xy]
            if row_xy != reads[y](row_x):
                row_y = rows[y]
                z = next(z for z, v in enumerate(row_xy) if v != row_x[row_y[z]])
                return (x, y, z)
    return None


def _hom_witness(f: Sequence[int], prod: Sequence, cod: Sequence) -> tuple[int, int] | None:
    """The least (x, y) with f[prod[x][y]] != cod[f[x]][f[y]], or None.

    The law for every y says that f read through row x of ``prod`` is row
    f[x] of ``cod`` read through f, so each x costs one comparison of rows.
    """
    read_f = _reader(f)
    for x, row in enumerate(prod):
        out = cod[f[x]]
        if _reader(row)(f) != read_f(out):
            return (x, next(y for y, v in enumerate(row) if f[v] != out[f[y]]))
    return None


class _Carrier:
    """A monoid or submonoid: sorted ``members`` of a ``parent``, and what they derive."""

    @cached_property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    @cached_property
    def positions(self) -> dict[int, int]:
        return {x: i for i, x in enumerate(self.members)}

    @cached_property
    def _units(self) -> SubMonoid:
        """The unit group, built once; ``units`` reads it."""
        inv = self.parent.inverses
        return SubMonoid(self.parent, tuple(x for x in self.members if inv[x] is not None))


@dataclass(frozen=True)
class FiniteMonoid(_Carrier):
    """An associative Cayley table with a distinguished two-sided identity.

    Validation happens at construction: entries in range, associativity
    (with a witness triple on failure), and the identity law at the
    claimed index.  A two-sided identity is automatically unique.
    """

    table: tuple[tuple[int, ...], ...]
    identity: int
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        table = tuple(tuple(row) for row in self.table)
        object.__setattr__(self, "table", table)
        n = len(table)
        if n == 0:
            raise NoIdentity("a monoid needs at least one element")
        for row in table:
            if len(row) != n:
                raise IndexOutOfRange(f"table is not {n}x{n}")
            for v in row:
                # type() rather than isinstance(): bool is an int subclass
                if type(v) is not int or not 0 <= v < n:
                    raise IndexOutOfRange(f"table entry {v!r} not in 0..{n - 1}")
        witness = _associativity_witness(table, table)
        if witness is not None:
            raise NotAssociative(*witness)
        e = self.identity
        if type(e) is not int or not 0 <= e < n:
            raise NoIdentity(f"identity index {e!r} out of range")
        if any(table[e][x] != x or table[x][e] != x for x in range(n)):
            raise NoIdentity(f"element {e} is not a two-sided identity")
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != n:
                raise IndexOutOfRange("labels must match the table size")
            object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return len(self.table)

    def elements(self) -> range:
        return range(len(self.table))

    @cached_property
    def members(self) -> tuple[int, ...]:
        return tuple(range(len(self.table)))

    @property
    def parent(self) -> FiniteMonoid:
        return self

    def as_monoid(self) -> FiniteMonoid:
        """The monoid on the carrier's positions ``0..k-1``, here the monoid itself."""
        return self

    @cached_property
    def signature(self) -> tuple[tuple[bool, bool, int, int, int, int], ...]:
        """Per-element isomorphism invariants, indexed by element.

        ``signature[x]`` is (x is a unit, x is idempotent, |xM|, |Mx|,
        #{y : xy = x}, #{y : yx = x}); an isomorphism maps x to an element
        with the same tuple.  Only the identity is an idempotent unit.
        """
        t, cols, inv = self.table, self.columns, self.inverses
        rng = range(len(t))
        return tuple(
            (
                inv[x] is not None,
                t[x][x] == x,
                len(set(t[x])),
                len(set(cols[x])),
                t[x].count(x),
                cols[x].count(x),
            )
            for x in rng
        )

    @cached_property
    def invariant(self) -> tuple[tuple[bool, bool, int, int, int, int], ...]:
        """The sorted ``signature``, as long as the order; isomorphic monoids share it."""
        return tuple(sorted(self.signature))

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The transposed table: ``columns[y][x]`` is x*y, the right translation by y."""
        return tuple(zip(*self.table))

    def mul(self, x: int, y: int) -> int:
        return self.table[_index(x, self.size)][_index(y, self.size)]

    @cached_property
    def inverses(self) -> tuple[int | None, ...]:
        """``inverses[x]`` is the two-sided inverse of x, or None.

        A unit of a finite monoid has finite order, so its inverse is one of
        its powers and lies in every submonoid that holds the unit.  In a
        finite monoid xy = e forces yx = e and the inverse is unique, so the
        first e in row x marks x's only candidate.
        """
        t, e = self.table, self.identity
        inv = []
        for x, row in enumerate(t):
            y = row.index(e) if e in row else None
            inv.append(y if y is not None and t[y][x] == e else None)
        return tuple(inv)

    def inverse(self, x: int) -> int | None:
        """Two-sided inverse of ``x``, or None."""
        return self.inverses[_index(x, len(self.table))]

    def is_commutative(self) -> bool:
        return self.table == self.columns

    def is_group(self) -> bool:
        return None not in self.inverses

    def label(self, x: int) -> str:
        x = _index(x, len(self.table))
        return self.labels[x] if self.labels is not None else str(x)

    def __repr__(self) -> str:
        return f"FiniteMonoid(size={self.size}, identity={self.identity})"


@dataclass(frozen=True)
class SubMonoid(_Carrier):
    """A sorted subset of a parent monoid, containing the identity and closed."""

    parent: FiniteMonoid
    members: tuple[int, ...]

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        n = self.parent.size
        if any(type(x) is not int or not 0 <= x < n for x in members):
            raise IndexOutOfRange(f"members {members} not within 0..{n - 1}")
        if any(a >= b for a, b in zip(members, members[1:])):
            raise MonoidError("members must be strictly sorted")
        if self.parent.identity not in members:
            raise MonoidError("a submonoid must contain the identity")
        table = self.parent.table
        inside = self.member_set
        for x in members:
            row = table[x]
            for y in members:
                if row[y] not in inside:
                    raise MonoidError(f"not closed: {x}*{y} = {row[y]} escapes the subset")

    def __contains__(self, x: int) -> bool:
        return x in self.member_set

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def position(self, x: int) -> int:
        try:
            if type(x) is int:  # a bool would pass as 0 or 1
                return self.positions[x]
        except KeyError:
            pass
        raise IndexOutOfRange(f"{x!r} is not a member of {self}")

    def as_monoid(self) -> FiniteMonoid:
        """The induced monoid on this subset, reindexed to ``0..k-1``."""
        pos = self.positions
        table = tuple(
            tuple(pos[self.parent.table[x][y]] for y in self.members) for x in self.members
        )
        labels = None
        if self.parent.labels is not None:
            labels = tuple(self.parent.labels[x] for x in self.members)
        return FiniteMonoid(table, pos[self.parent.identity], labels)

    def __repr__(self) -> str:
        return f"SubMonoid({self.members})"


@dataclass(frozen=True)
class ElementMap:
    """A total map between carriers, stored as a value table.

    ``values[i]`` is the image of the ``i``-th domain element; images are
    expressed in the codomain's ambient index space.  The position table
    is the domain's own, so building a map allocates no lookup structure.
    """

    domain: _Carrier
    codomain: _Carrier
    values: tuple[int, ...]

    def __post_init__(self):
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        positions = self.domain.positions
        if len(values) != len(positions):
            raise MonoidError(f"expected {len(positions)} values, got {len(values)}")
        target = self.codomain.positions
        for v in values:
            if type(v) is not int or v not in target:
                raise MonoidError(f"image {v} is not a codomain element")
        object.__setattr__(self, "_positions", positions)

    def __call__(self, x: int) -> int:
        try:
            if type(x) is int:  # a bool would pass as 0 or 1
                return self.values[self._positions[x]]
        except KeyError:
            pass
        raise IndexOutOfRange(f"{x!r} is not a domain element")

    def is_homomorphism(self) -> bool:
        if self(self.domain.parent.identity) != self.codomain.parent.identity:
            return False
        prod = self.domain.as_monoid().table
        return _hom_witness(self.values, prod, self.codomain.parent.table) is None

    def __repr__(self) -> str:
        return f"ElementMap({self.values})"


def identity_map(c: _Carrier) -> ElementMap:
    return ElementMap(c, c, c.members)


def zero_map(domain: _Carrier, codomain: _Carrier) -> ElementMap:
    """The map sending every element to the codomain's identity."""
    return ElementMap(domain, codomain, (codomain.parent.identity,) * len(domain.members))


def compose(outer: ElementMap, inner: ElementMap) -> ElementMap:
    """``outer`` after ``inner``; an inner image outside outer's domain raises IndexOutOfRange."""
    values = tuple(outer(v) for v in inner.values)
    return ElementMap(inner.domain, outer.codomain, values)


@dataclass(frozen=True)
class MonoidIso:
    """A pair of mutually inverse bijective homomorphisms."""

    forward: ElementMap
    backward: ElementMap

    def __post_init__(self):
        fwd, bwd = self.forward, self.backward
        if not (fwd.is_homomorphism() and bwd.is_homomorphism()):
            raise MonoidError("isomorphism components must be homomorphisms")
        dom = fwd.domain.members
        cod = fwd.codomain.members
        if sorted(fwd.values) != sorted(cod) or sorted(bwd.values) != sorted(dom):
            raise MonoidError("isomorphism components must be bijections")
        if any(bwd(fwd(x)) != x for x in dom) or any(fwd(bwd(y)) != y for y in cod):
            raise MonoidError("forward and backward maps are not mutually inverse")


# ---------------------------------------------------------------------------
# construction and basic structure


def from_table(
    table: Sequence[Sequence[int]], labels: Sequence[str] | None = None
) -> FiniteMonoid:
    """Locate the identity of a Cayley table; ``FiniteMonoid`` validates the rest.

    Raises what ``FiniteMonoid`` raises, in its order: ``IndexOutOfRange``,
    then ``NotAssociative``, then ``NoIdentity`` when no element is one.
    """
    rows = tuple(tuple(row) for row in table)
    ident = tuple(range(len(rows)))
    # slices, not indices, so that a ragged table reaches FiniteMonoid's shape check
    column = [(x,) for x in ident]
    e = next(
        (e for e in ident if rows[e] == ident and [r[e : e + 1] for r in rows] == column),
        None,
    )
    return FiniteMonoid(rows, e, labels)


def units(c: _Carrier) -> SubMonoid:
    """The group of invertible elements, as a submonoid of the ambient monoid, built once.

    An inverse is a power of its unit, so it lies in every submonoid that
    holds the unit: a carrier's units are its members that are units of the parent.
    """
    return c._units


def inverse_in(c: _Carrier, x: int) -> int:
    """The inverse of ``x`` inside the carrier; raises NotInvertible."""
    inv = c.parent.inverses
    y = inv[_index(x, len(inv))]
    if y is None or x not in c.positions:
        raise NotInvertible(f"element {x} has no inverse in the carrier")
    return y


def submonoid_closure(M: FiniteMonoid, generators: Iterable[int]) -> SubMonoid:
    """Smallest submonoid containing the generators (and the identity)."""
    gens = [_index(g, M.size) for g in generators]
    closed, bits = [M.identity], 1 << M.identity
    for g in gens:
        if not bits >> g & 1:
            closed, bits = _grow(M.table, closed, bits, g, M.size)  # never None
    return SubMonoid(M, tuple(sorted(closed)))


def _grow(
    table, members: list[int], bits: int, g: int, limit: int, floor: int = 0
) -> tuple[list[int], int] | None:
    """Close a closed set (member list and bitmask) with ``g`` added.

    None as soon as the closure would pass ``limit`` elements or gains a new
    element below ``floor``.
    """
    if len(members) >= limit:
        return None
    grown, bits, queue = members + [g], bits | 1 << g, [g]
    while queue:
        y = queue.pop()
        row = table[y]
        for z in grown:
            for p in (row[z], table[z][y]):
                if not bits >> p & 1:
                    if p < floor or len(grown) == limit:
                        return None
                    bits |= 1 << p
                    grown.append(p)
                    queue.append(p)
    return grown, bits


_SUBMONOID_HARD_LIMIT = 24


def enumerate_submonoids(M: FiniteMonoid) -> list[SubMonoid]:
    """All identity-containing closed subsets, sorted by (size, members)."""
    if M.size > _SUBMONOID_HARD_LIMIT:
        raise SizeBoundExceeded(f"submonoid enumeration capped at order {_SUBMONOID_HARD_LIMIT}")
    found = sorted(_closed_subsets(M, M.size, lambda ms: True), key=lambda ms: (len(ms), ms))
    return [SubMonoid(M, ms) for ms in found]


def _closed_subsets(M: FiniteMonoid, limit: int, admit: Callable) -> list[tuple[int, ...]]:
    """Member tuples of the submonoids of at most ``limit`` elements that ``admit`` accepts.

    Orderly generation, depth first from {e}: a submonoid C reached with last
    generator h is extended only by elements g > h, and closure(C + g) is kept
    only when g is the least element it adds.  So each submonoid T is built
    exactly once, along its canonical chain C0 = {e}, Ci+1 = closure(Ci +
    min(T - Ci)).  Every Ci lies inside T, so pruning loses nothing when
    ``admit`` holds on every submonoid of what it accepts.
    """
    e, table = M.identity, M.table
    # an element whose cyclic submonoid is not admitted lies in no admitted one;
    # the cyclic submonoids that add nothing below their generator are the first steps
    gens, stack = [], []
    for g in range(M.size):
        if g == e:
            continue
        cyc = _grow(table, [e], 1 << e, g, limit)
        if cyc and admit(cyc[0]):
            if min(cyc[0][1:]) == g:
                stack.append((*cyc, len(gens) + 1))
            gens.append(g)
    out = [(e,)] + [tuple(sorted(ms)) for ms, _, _ in stack]
    while stack:
        ms, mask, start = stack.pop()
        for i in range(start, len(gens)):
            g = gens[i]
            if not mask >> g & 1:
                grown = _grow(table, ms, mask, g, limit, g)
                if grown and admit(grown[0]):
                    out.append(tuple(sorted(grown[0])))
                    stack.append((*grown, i + 1))
    return out


def is_subgroup(M: FiniteMonoid, S: SubMonoid) -> bool:
    """True iff every element of ``S`` is a unit; its inverse, a power of it, is in ``S``."""
    if S.parent != M:
        raise ParentMismatch("submonoid belongs to a different monoid")
    inv = M.inverses
    return all(inv[x] is not None for x in S.members)


def opposite(M: FiniteMonoid) -> FiniteMonoid:
    """Transpose the table; an involution on Cayley tables."""
    return FiniteMonoid(M.columns, M.identity, M.labels)


def _pair_monoid(A: FiniteMonoid, B: FiniteMonoid, star: Sequence, label: str) -> FiniteMonoid:
    """The monoid of (a1, b1)(a2, b2) = (a1 * b1.a2, b1 * b2) on pairs indexed ``a * |B| + b``.

    ``star[b]`` is the row of b's action on A.  Row (a1, b1) is row a1 of A
    read through ``star[b1]``, each entry spread over row b1 of B.  The
    identity is the pair of identities; when either factor is labelled, the
    pair (a, b) is labelled ``label.format(label of a, label of b)``.
    """
    nb = B.size
    scaled = [tuple(v * nb for v in row) for row in A.table]
    reads = [_reader(row) for row in star]
    table = tuple(
        tuple(a + b for a in read(row_a) for b in row_b)
        for row_a in scaled
        for read, row_b in zip(reads, B.table)
    )
    labels = None
    if A.labels is not None or B.labels is not None:
        right = [B.label(b) for b in B.members]
        labels = tuple(label.format(A.label(a), b) for a in A.members for b in right)
    return FiniteMonoid(table, A.identity * nb + B.identity, labels)


def direct_product(M: FiniteMonoid, N: FiniteMonoid) -> FiniteMonoid:
    """Componentwise product on pairs, indexed row-major (M-index major)."""
    return _pair_monoid(M, N, [M.members] * N.size, "({},{})")


# ---------------------------------------------------------------------------
# homomorphism and endomorphism enumeration

_HOM_DOMAIN_LIMIT = 8


def enumerate_homs(B: _Carrier, A: _Carrier) -> list[ElementMap]:
    """All unit-preserving multiplicative maps ``B -> A``, in value order.

    Always contains the zero map; exhaustive only for domains of size <= 8.
    """
    dom = B.members
    if len(dom) > _HOM_DOMAIN_LIMIT:
        raise SizeBoundExceeded(f"homomorphism search capped at domain size {_HOM_DOMAIN_LIMIT}")
    cod = A.members
    k = len(dom)
    prod_pos = B.as_monoid().table
    cod_tab = A.parent.table
    pinned = [(B.positions[B.parent.identity], A.parent.identity)]
    candidates = [list(cod)] * k
    allowed = [frozenset(cod)] * k
    sweep = product_rule(prod_pos, cod_tab, [tuple(range(len(cod_tab)))] * k)
    solutions = search_assignments(k, pinned, candidates, allowed, sweep)
    return [ElementMap(B, A, values) for values in solutions]


def endomorphism_monoid(A: FiniteMonoid) -> tuple[FiniteMonoid, list[ElementMap]]:
    """The monoid of unit-preserving multiplicative self-maps under composition.

    Returns the composition table (identity endomorphism as unit) together
    with the endomorphisms it indexes; ``(f*g)(a) = f(g(a))``.
    """
    endos = enumerate_homs(A, A)
    index = {f.values: i for i, f in enumerate(endos)}
    reads = [_reader(g.values) for g in endos]  # reads[g](f.values) is f after g
    table = tuple(tuple(index[read(f.values)] for read in reads) for f in endos)
    e = index[tuple(A.elements())]
    labels = tuple("id" if i == e else f"f{i}" for i in range(len(endos)))
    return FiniteMonoid(table, e, labels), endos


# ---------------------------------------------------------------------------
# exhaustive small-order enumeration

_MONOID_ORDER_LIMIT = 6


def enumerate_monoids(n: int, up_to_iso: bool = False) -> list[FiniteMonoid]:
    """All associative tables on ``0..n-1`` with 0 as the identity.

    With ``up_to_iso`` only the lexicographically least representative of
    each relabeling class (permutations fixing 0) is built, by orderly
    generation: the sweep compares the table with every relabeling of it
    and prunes a partial table that some relabeling already undercuts.
    Exhaustive generation is capped at order 6.
    """
    if n < 1:
        raise SizeBoundExceeded("order must be at least 1")
    if n > _MONOID_ORDER_LIMIT:
        raise SizeBoundExceeded(f"exhaustive generation capped at order {_MONOID_ORDER_LIMIT}")
    pinned = [(j, j) for j in range(n)] + [(i * n, i) for i in range(1, n)]
    candidates = [list(range(n))] * (n * n)
    allowed = [frozenset(range(n))] * (n * n)
    # row and column 0 are pinned before the first sweep, and every triple
    # through the identity has left == right, so the sweep skips them
    inner = range(1, n)
    # each relabeling pi != id fixing 0, with the flat cell of the table that
    # every relabeled cell off row and column 0 reads, in row-major order:
    # the relabeled table holds pi[t[inv x][inv y]] at (x, y)
    relabelings = []
    if up_to_iso:
        cells = [(x, y) for x in inner for y in inner]
        for tail in itertools.permutations(inner):
            if tail != tuple(inner):
                pi = (0,) + tail
                inv = sorted(range(n), key=pi.__getitem__)
                relabelings.append((pi, [(x * n + y, inv[x] * n + inv[y]) for x, y in cells]))

    def sweep(assign: list) -> list[tuple[int, int]] | None:
        # lex-leader test: the first cell where a relabeling differs from the
        # table, with every cell before it known on both sides, decides pi
        for pi, pairs in relabelings:
            for cell, source in pairs:
                t, s = assign[cell], assign[source]
                if t is None or s is None:
                    break
                r = pi[s]
                if r != t:
                    if r < t:
                        return None  # no completion is the least of its class
                    break
        pins = []
        for x in inner:
            xn = x * n
            for y in inner:
                xy = assign[xn + y]
                if xy is None:
                    continue
                xyn, yn = xy * n, y * n
                for z in inner:
                    yz = assign[yn + z]
                    if yz is None:
                        continue
                    left = assign[xyn + z]
                    right = assign[xn + yz]
                    if left is None:
                        if right is not None:
                            pins.append((xyn + z, right))
                    elif right is None:
                        pins.append((xn + yz, left))
                    elif left != right:
                        return None
        return pins

    flats = search_assignments(n * n, pinned, candidates, allowed, sweep)
    return [FiniteMonoid(tuple(flat[i * n : (i + 1) * n] for i in range(n)), 0) for flat in flats]


def find_isomorphism(M: FiniteMonoid, N: FiniteMonoid) -> MonoidIso | None:
    """Invariant-pruned isomorphism search; returns the lexicographically least one.

    Monoids whose ``invariant`` (sorted signature) differs are not isomorphic.
    Otherwise the engine searches injective homomorphisms sending each x
    into the fibre of N's elements with x's signature, checking the table
    as the map grows.  Every isomorphism is such a map, and the engine's
    first solution is the least.  The identity is alone in its fibre.
    """
    if M.invariant != N.invariant:
        return None
    n = M.size
    fibres: dict[tuple, list[int]] = {}
    for y, sig in enumerate(N.signature):
        fibres.setdefault(sig, []).append(y)
    candidates = [fibres[sig] for sig in M.signature]
    law = product_rule(M.table, N.table, [tuple(range(n))] * n)

    def sweep(assign: list) -> list[tuple[int, int]] | None:
        placed = [v for v in assign if v is not None]
        return law(assign) if len(set(placed)) == len(placed) else None

    pinned = [(M.identity, N.identity)]
    allowed = [frozenset(c) for c in candidates]
    found = search_assignments(n, pinned, candidates, allowed, sweep, first_only=True)
    if not found:
        return None
    inv = [0] * n
    for x, y in enumerate(found[0]):
        inv[y] = x
    return MonoidIso(ElementMap(M, N, found[0]), ElementMap(N, M, tuple(inv)))
