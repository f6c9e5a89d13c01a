"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: full scans over raw tables and
itertools products, sharing no search machinery with the package.
"""

from __future__ import annotations

import itertools
import random

from monofact.core import (
    ElementMap,
    FiniteMonoid,
    MonoidIso,
    NotInvertible,
    SubMonoid,
    units,
)


def associativity_witness_by_scan(table) -> tuple[int, int, int] | None:
    """The first (x, y, z) in lexicographic order with (x*y)*z != x*(y*z), or None."""
    n = len(table)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    return (x, y, z)
    return None


def associativity_holds(table) -> bool:
    return associativity_witness_by_scan(table) is None


def identity_of(table):
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x == table[x][e] for x in range(n)):
            return e
    return None


def inverse_by_scan(M: FiniteMonoid, x: int) -> int | None:
    """Two-sided inverse of x by scanning its row and column, or None."""
    e = M.identity
    for y in M.elements():
        if M.table[x][y] == e and M.table[y][x] == e:
            return y
    return None


def units_of(c) -> set[int]:
    """Members of a monoid or submonoid whose inverse lies among the same members."""
    M = c.parent if isinstance(c, SubMonoid) else c
    e, t = M.identity, M.table
    return {x for x in c.members if any(t[x][y] == e == t[y][x] for y in c.members)}


def inverse_in_by_scan(c, x: int) -> int:
    """The inverse of x among a carrier's members; raises NotInvertible."""
    M = c.parent if isinstance(c, SubMonoid) else c
    e = M.identity
    for y in c.members:
        if M.table[x][y] == e and M.table[y][x] == e:
            return y
    raise NotInvertible(f"element {x} has no inverse in the carrier")


def is_subgroup_by_scan(S: SubMonoid) -> bool:
    return units_of(S) == S.member_set


def submonoids_by_closure_walk(M: FiniteMonoid) -> set[tuple[int, ...]]:
    """Grow submonoids one generator at a time from the trivial one."""

    def close(seed):
        members = set(seed) | {M.identity}
        while True:
            more = {M.table[x][y] for x in members for y in members} - members
            if not more:
                return tuple(sorted(members))
            members |= more

    found = {close(())}
    frontier = list(found)
    while frontier:
        fresh = []
        for ms in frontier:
            for x in M.elements():
                if x not in ms:
                    grown = close(ms + (x,))
                    if grown not in found:
                        found.add(grown)
                        fresh.append(grown)
        frontier = fresh
    return found


def submonoids_by_subset_scan(M: FiniteMonoid) -> list[tuple[int, ...]]:
    """Every identity-containing subset that is closed, found by trying all 2^(n-1)."""
    e = M.identity
    others = [x for x in M.elements() if x != e]
    out = []
    for bits in range(1 << len(others)):
        subset = [e] + [x for i, x in enumerate(others) if bits >> i & 1]
        inside = frozenset(subset)
        if all(M.table[x][y] in inside for x in subset for y in subset):
            out.append(tuple(sorted(subset)))
    return out


def second_factors_by_subset_scan(M: FiniteMonoid, first) -> list[tuple[int, ...]]:
    """Sorted member tuples B of every closed |M|/|A|-subset with A x B -> M bijective."""
    n = M.size
    if n % len(first):
        return []
    e = M.identity
    others = [x for x in M.elements() if x != e]
    out = []
    for rest in itertools.combinations(others, n // len(first) - 1):
        subset = (e,) + rest
        if not all(M.table[x][y] in subset for x in subset for y in subset):
            continue
        if len({M.table[a][b] for a in first for b in subset}) == n:
            out.append(tuple(sorted(subset)))
    return sorted(out)


def factorization_pairs(M: FiniteMonoid) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (A, B) member pairs whose product map is bijective."""
    subs = submonoids_by_closure_walk(M)
    out = set()
    for A in subs:
        for B in subs:
            products = [M.table[a][b] for a in A for b in B]
            if len(products) == M.size and len(set(products)) == M.size:
                out.add((A, B))
    return out


def left_cocycle_values(M: FiniteMonoid, A: SubMonoid) -> list[tuple[int, ...]]:
    """Full scan over all maps M -> A for the three left cocycle laws."""
    n = M.size
    table = M.table
    out = []
    for values in itertools.product(A.members, repeat=n):
        if any(values[a] != a for a in A.members):
            continue
        if any(
            values[table[a][m]] != table[a][values[m]]
            for a in A.members
            for m in range(n)
        ):
            continue
        if any(
            values[table[m1][m2]] != values[table[m1][values[m2]]]
            for m1 in range(n)
            for m2 in range(n)
        ):
            continue
        out.append(values)
    return out


def hom_values(B: FiniteMonoid, A: FiniteMonoid) -> list[tuple[int, ...]]:
    out = []
    for values in itertools.product(range(A.size), repeat=B.size):
        if values[B.identity] != A.identity:
            continue
        if all(
            values[B.table[x][y]] == A.table[values[x]][values[y]]
            for x in B.elements()
            for y in B.elements()
        ):
            out.append(values)
    return out


def z1_values(act) -> list[tuple[int, ...]]:
    B, A, star = act.actor, act.acted, act.star
    out = []
    for values in itertools.product(range(A.size), repeat=B.size):
        if values[B.identity] != A.identity:
            continue
        if all(
            values[B.table[b1][b2]] == A.table[values[b1]][star[b1][values[b2]]]
            for b1 in B.elements()
            for b2 in B.elements()
        ):
            out.append(values)
    return out


def section_values(sd) -> list[tuple[int, ...]]:
    """Homomorphisms B -> A x| B that pick a point of each fibre over B."""
    B, P = sd.action.actor, sd.product
    fibres = [[p for p in P.elements() if sd.proj_b(p) == b] for b in B.elements()]
    out = []
    for values in itertools.product(*fibres):
        if values[B.identity] != P.identity:
            continue
        if all(
            values[B.table[x][y]] == P.table[values[x]][values[y]]
            for x in B.elements()
            for y in B.elements()
        ):
            out.append(values)
    return out


def retraction_values(M: FiniteMonoid, S: SubMonoid) -> list[tuple[int, ...]]:
    """Homomorphisms M -> S fixing S pointwise, by trying all |S|^(n-|S|) fillings."""
    free = [m for m in M.elements() if m not in S.member_set]
    out = []
    for combo in itertools.product(S.members, repeat=len(free)):
        values = list(M.elements())
        for pos, val in zip(free, combo):
            values[pos] = val
        if all(
            values[M.table[x][y]] == M.table[values[x]][values[y]]
            for x in M.elements()
            for y in M.elements()
        ):
            out.append(tuple(values))
    return out


def component_map_exists(M: FiniteMonoid, A: SubMonoid, B: SubMonoid, side: str) -> bool:
    """Full scan for an equivariant component map with a prescribed kernel.

    ``left``: a map f: M -> A with f(a*m) = a*f(m) whose kernel f^-1(e) is B.
    ``right``: a map g: M -> B with g(m*b) = g(m)*b whose kernel is A.
    """
    e, table = M.identity, M.table
    target, kernel = (A, B) if side == "left" else (B, A)
    others = [t for t in target.members if t != e]
    domains = [[e] if m in kernel.member_set else others for m in M.elements()]
    for values in itertools.product(*domains):
        if side == "left":
            ok = all(
                values[table[a][m]] == table[a][values[m]]
                for a in A.members
                for m in M.elements()
            )
        else:
            ok = all(
                values[table[m][b]] == table[values[m]][b]
                for m in M.elements()
                for b in B.members
            )
        if ok:
            return True
    return False


def collapsing_component_maps(
    M: FiniteMonoid, S: SubMonoid, other: SubMonoid, side: str
) -> list[tuple[int, ...]]:
    """Every map M -> S sending ``other`` to e with S's one-sided law, by full scan.

    ``left``: f(s*m) = s*f(m) for s in S; ``right``: f(m*s) = f(m)*s.
    The maps come out in lexicographic value order.
    """
    table = M.table
    free = [m for m in M.elements() if m not in other.member_set]
    values = [M.identity] * M.size
    out = []
    for combo in itertools.product(S.members, repeat=len(free)):
        for m, v in zip(free, combo):
            values[m] = v
        if side == "left":
            ok = all(
                values[table[s][m]] == table[s][values[m]]
                for s in S.members
                for m in M.elements()
            )
        else:
            ok = all(
                values[table[m][s]] == table[values[m]][s]
                for s in S.members
                for m in M.elements()
            )
        if ok:
            out.append(tuple(values))
    return out


def monoid_tables_with_fixed_identity(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every associative table on 0..n-1 whose identity is element 0."""
    out = []
    cells = list(itertools.product(range(1, n), repeat=2))
    for choice in itertools.product(range(n), repeat=len(cells)):
        table = [[0] * n for _ in range(n)]
        for j in range(n):
            table[0][j] = j
            table[j][0] = j
        for (i, j), v in zip(cells, choice):
            table[i][j] = v
        if associativity_holds(table):
            out.append(tuple(map(tuple, table)))
    return out


def relabeled_table(table, perm):
    """The table carried along ``perm``: element x of ``table`` is element perm[x] of the result."""
    n = len(table)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(tuple(perm[table[inv[x]][inv[y]]] for y in range(n)) for x in range(n))


def is_canonical_table(table) -> bool:
    """Whether no relabeling fixing 0 gives a lexicographically smaller table, by trying all."""
    n = len(table)
    return all(
        relabeled_table(table, (0,) + tail) >= table
        for tail in itertools.permutations(range(1, n))
    )


def relabeled(M: FiniteMonoid, rng: random.Random) -> FiniteMonoid:
    """M carried along a random permutation p that moves the identity unless M is trivial.

    Element x of M is element p[x] of the result, which has no labels.
    """
    perm = list(range(M.size))
    while M.size > 1 and perm[M.identity] == M.identity:
        rng.shuffle(perm)
    return FiniteMonoid(relabeled_table(M.table, perm), perm[M.identity])


def find_isomorphism_bruteforce(M: FiniteMonoid, N: FiniteMonoid) -> MonoidIso | None:
    """Scan every permutation in lexicographic order; the first table-preserving one wins."""
    n = M.size
    if n != N.size:
        return None
    if len(units(M)) != len(units(N)):
        return None
    m_tab, n_tab = M.table, N.table
    for perm in itertools.permutations(range(n)):
        if perm[M.identity] != N.identity:
            continue
        ok = True
        for x in range(n):
            px = perm[x]
            for y in range(n):
                if n_tab[px][perm[y]] != perm[m_tab[x][y]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            inv = [0] * n
            for i, p in enumerate(perm):
                inv[p] = i
            return MonoidIso(ElementMap(M, N, perm), ElementMap(N, M, tuple(inv)))
    return None


def unit_conjugacy_classes(count: int, unit_members, related, base_index):
    """Pairwise scan: ``related(i, j, u)`` tests whether the unit u carries i to j.

    Returns ``(class_of, class_count, base_class)`` with classes numbered
    by least member, merging labels directly instead of orbit-walking.
    """
    label = list(range(count))  # each label is the least index of its class
    for i in range(count):
        for j in range(count):
            if any(related(i, j, u) for u in unit_members):
                low, high = sorted((label[i], label[j]))
                label = [low if x == high else x for x in label]
    numbering: dict[int, int] = {}
    class_of = tuple(numbering.setdefault(x, len(numbering)) for x in label)
    base_class = class_of[base_index] if base_index is not None else None
    return class_of, len(numbering), base_class


def action_violation_pointwise(B: FiniteMonoid, A: FiniteMonoid, star) -> tuple | None:
    """The first (axiom, witness) that an action table of B on A breaks, A1 to A4, or None.

    A1: the identity acts as the identity; A2: (b1*b2).a = b1.(b2.a); A3: b.e = e;
    A4: b.(a1*a2) = (b.a1)*(b.a2).  Each axiom is scanned point by point.
    """
    bt, at = B.table, A.table
    for a in A.elements():
        if star[B.identity][a] != a:
            return "A1", (a,)
    for b1, b2, a in itertools.product(B.elements(), B.elements(), A.elements()):
        if star[bt[b1][b2]][a] != star[b1][star[b2][a]]:
            return "A2", (b1, b2, a)
    for b in B.elements():
        if star[b][A.identity] != A.identity:
            return "A3", (b,)
    for b, a1, a2 in itertools.product(B.elements(), A.elements(), A.elements()):
        if star[b][at[a1][a2]] != at[star[b][a1]][star[b][a2]]:
            return "A4", (b, a1, a2)
    return None


def pair_table_pointwise(A: FiniteMonoid, B: FiniteMonoid, star):
    """The table of (a1, b1)(a2, b2) = (a1 * b1.a2, b1 * b2) on pairs indexed a * |B| + b."""
    pairs = [(a, b) for a in A.elements() for b in B.elements()]
    return tuple(
        tuple(A.table[a1][star[b1][a2]] * B.size + B.table[b1][b2] for a2, b2 in pairs)
        for a1, b1 in pairs
    )


def small_maps(M: FiniteMonoid, limit: int):
    """Every (A, values) with A a submonoid of M and values a map M -> A, |A|^|M| <= limit."""
    for members in sorted(submonoids_by_closure_walk(M)):
        if len(members) ** M.size <= limit:
            A = SubMonoid(M, members)
            for values in itertools.product(members, repeat=M.size):
                yield A, values


def is_homomorphism_pointwise(f) -> bool:
    """The map law checked by calling the map at every product, one pair at a time."""
    dom, cod = f.domain, f.codomain
    dom_monoid = dom.parent if isinstance(dom, SubMonoid) else dom
    cod_monoid = cod.parent if isinstance(cod, SubMonoid) else cod
    if f(dom_monoid.identity) != cod_monoid.identity:
        return False
    return all(
        f(dom_monoid.table[x][y]) == cod_monoid.table[f(x)][f(y)]
        for x in dom.members
        for y in dom.members
    )


def is_descent_cocycle_pointwise(M: FiniteMonoid, A: SubMonoid, q, side: str):
    """The three cocycle laws checked by calling q; returns (ok, first violation)."""
    table = M.table
    if side == "left":
        for a in A.members:
            if q(a) != a:
                return False, ("L1", (a,))
        for a in A.members:
            for m in M.elements():
                if q(table[a][m]) != table[a][q(m)]:
                    return False, ("L2", (a, m))
        for m1 in M.elements():
            for m2 in M.elements():
                if q(table[m1][m2]) != q(table[m1][q(m2)]):
                    return False, ("L3", (m1, m2))
        return True, None
    for a in A.members:
        if q(a) != a:
            return False, ("R1", (a,))
    for m in M.elements():
        for a in A.members:
            if q(table[m][a]) != table[q(m)][a]:
                return False, ("R2", (m, a))
    for m1 in M.elements():
        for m2 in M.elements():
            if q(table[m1][m2]) != q(table[q(m1)][m2]):
                return False, ("R3", (m1, m2))
    return True, None


def groupoid_components(objects, acting_group: SubMonoid, action):
    """Action axioms by three loops over (g1, g2, x), then orbits by label merging.

    Calls ``action`` afresh at every step and raises NotAnAction with the
    library's messages.  Returns ``(components, morphisms)``.
    """
    from monofact.descent import NotAnAction

    objs = tuple(objects)
    M = acting_group.parent
    e, t, members = M.identity, M.table, acting_group.members
    if not all(any(t[g][h] == e == t[h][g] for h in members) for g in members):
        raise NotAnAction("the acting submonoid is not a group")
    for x in objs:
        if action(e, x) != x:
            raise NotAnAction(f"identity moves {x!r}")
    for g1 in members:
        for g2 in members:
            for x in objs:
                if action(t[g1][g2], x) != action(g1, action(g2, x)):
                    raise NotAnAction(f"composition fails at ({g1}, {g2}, {x!r})")
    index = {x: i for i, x in enumerate(objs)}
    label = list(range(len(objs)))  # each label is the least index of its class
    morphisms = []
    for i, x in enumerate(objs):
        for g in members:
            j = index.get(action(g, x))
            if j is None:
                raise NotAnAction(f"action escapes the object set at ({g}, {x!r})")
            morphisms.append((i, g, j))
            low, high = sorted((label[i], label[j]))
            label = [low if c == high else c for c in label]
    components = tuple(
        tuple(i for i, c in enumerate(label) if c == root) for root in sorted(set(label))
    )
    return components, tuple(morphisms)


def right_cocycle_values_via_opposite(M: FiniteMonoid, A: SubMonoid) -> list[tuple[int, ...]]:
    """Right descent cocycles M -> A as the left ones of the opposite monoid.

    The transposed table is validated as a monoid of its own, and the left
    search runs on it; the value tables carry over verbatim.  Unlike the
    other oracles this one runs the package's search: it is the route that
    the column search replaced, kept as its reference.
    """
    from monofact.core import opposite
    from monofact.descent import enumerate_descent_cocycles

    Mop = opposite(M)
    return [q.values for q in enumerate_descent_cocycles(Mop, SubMonoid(Mop, A.members), "left")]


def unique_translation(M: FiniteMonoid, retraction: tuple[int, ...]) -> bool:
    """Whether elements with equal images differ by exactly one kernel translate k*m1 = m2.

    ``retraction`` is the value table of a map out of M.
    """
    kernel = [m for m in M.elements() if retraction[m] == M.identity]
    return all(
        sum(1 for k in kernel if M.table[k][m1] == m2) == 1
        for m1 in M.elements()
        for m2 in M.elements()
        if retraction[m1] == retraction[m2]
    )


def class_map_is_bijection(source_class_of, target_class_of, image, target_count: int) -> bool:
    """Whether object i -> image[i] induces a bijection of the classes, by transport."""
    induced: dict[int, int] = {}
    for i, c_class in enumerate(source_class_of):
        t_class = target_class_of[image[i]]
        if induced.setdefault(c_class, t_class) != t_class:
            return False
    return len(set(induced.values())) == len(induced) == target_count
