import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from monofact import verify
from monofact.catalog import CATALOG, catalog_monoid
from monofact.core import (
    ElementMap,
    FiniteMonoid,
    IndexOutOfRange,
    MonoidError,
    NoIdentity,
    NotAssociative,
    NotInvertible,
    SizeBoundExceeded,
    SubMonoid,
    _associativity_witness,
    _hom_witness,
    compose,
    direct_product,
    endomorphism_monoid,
    enumerate_homs,
    enumerate_monoids,
    enumerate_submonoids,
    find_isomorphism,
    from_table,
    identity_map,
    inverse_in,
    is_subgroup,
    opposite,
    submonoid_closure,
    units,
    zero_map,
)

S3 = CATALOG["s3"]
B2 = CATALOG["b2"]
C2 = CATALOG["c2"]
C3 = CATALOG["c3"]
C4 = CATALOG["c4"]


class TestCatalog:
    def test_unknown_name(self):
        with pytest.raises(MonoidError, match=r"^unknown catalog monoid 'nope'; have trivial, "):
            catalog_monoid("nope")


class TestFromTable:
    def test_trivial(self):
        M = from_table([[0]])
        assert M.size == 1 and M.identity == 0

    def test_c2(self):
        M = from_table([[0, 1], [1, 0]])
        assert M.identity == 0 and M.is_group()

    def test_b2_absorbing(self):
        M = from_table([[0, 1], [1, 1]])
        assert M.identity == 0 and not M.is_group()
        # the absorbing element swallows every product
        assert all(M.mul(1, x) == 1 == M.mul(x, 1) for x in M.elements())

    def test_not_associative_with_witness(self):
        with pytest.raises(NotAssociative) as exc:
            from_table([[0, 1, 2], [1, 0, 0], [2, 0, 1]])
        x, y, z = exc.value.witness
        table = [[0, 1, 2], [1, 0, 0], [2, 0, 1]]
        assert table[table[x][y]][z] != table[x][table[y][z]]

    def test_no_identity(self):
        with pytest.raises(NoIdentity):
            from_table([[1, 1], [1, 1]])

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            from_table([[0, 1], [1, 2]])

    def test_ragged_table_rejected(self):
        with pytest.raises(IndexOutOfRange):
            from_table([[0, 1], [1]])

    def test_associativity_is_checked_before_the_identity(self):
        # (0*0)*1 = 0 but 0*(0*1) = 1, and no row is the identity row
        with pytest.raises(NotAssociative):
            from_table([[1, 0], [0, 0]])

    def test_bool_entry_is_out_of_range_before_associativity(self):
        with pytest.raises(IndexOutOfRange):
            from_table([[True, 0], [0, 0]])

    @given(st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_accepts_exactly_valid_tables(self, table):
        valid = oracles.associativity_holds(table) and oracles.identity_of(table) is not None
        try:
            M = from_table(table)
        except MonoidError:
            assert not valid
        else:
            assert valid and M.identity == oracles.identity_of(table)


MONOID_TABLES = [M.table for M in CATALOG.values()] + [
    M.table for n in range(1, 5) for M in enumerate_monoids(n, up_to_iso=True)
]


@st.composite
def magmas(draw):
    """Cayley tables of order 1-6: a random magma, or a monoid with one entry redrawn."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        row = st.tuples(*[st.integers(0, n - 1)] * n)
        return tuple(draw(st.lists(row, min_size=n, max_size=n)))
    table = [list(row) for row in draw(st.sampled_from(MONOID_TABLES))]
    cell = st.integers(0, len(table) - 1)
    table[draw(cell)][draw(cell)] = draw(cell)
    return tuple(map(tuple, table))


class TestAssociativityWitness:
    """The row-read kernel reports the triple that the n^3 scan meets first."""

    @given(magmas())
    @settings(max_examples=500, deadline=None)
    def test_matches_scan(self, table):
        witness = oracles.associativity_witness_by_scan(table)
        assert _associativity_witness(table, table) == witness
        if witness is not None:
            with pytest.raises(NotAssociative) as exc:
                from_table(table)
            assert exc.value.witness == witness

    def test_rows_longer_than_a_byte(self):
        # rows of more than 256 entries are compared as tuples, not bytes
        n = 257
        table = [tuple((x + y) % n for y in range(n)) for x in range(n)]
        assert _associativity_witness(table, table) is None
        table[1] = (1, 3) + table[1][2:]
        assert oracles.associativity_witness_by_scan(table) == (1, 1, 2)
        assert _associativity_witness(table, table) == (1, 1, 2)


class TestSubMonoid:
    def test_requires_identity(self):
        with pytest.raises(MonoidError):
            SubMonoid(S3, (1,))

    def test_requires_closure(self):
        with pytest.raises(MonoidError):
            SubMonoid(S3, (0, 4))  # (123) generates (132) too

    def test_requires_sorted(self):
        with pytest.raises(MonoidError):
            SubMonoid(S3, (4, 0, 5))

    def test_as_monoid_reindexes(self):
        A3 = SubMonoid(S3, (0, 4, 5))
        small = A3.as_monoid()
        assert small.size == 3 and small.identity == 0
        assert find_isomorphism(small, C3) is not None


class TestUnits:
    def test_group_is_all_units(self):
        assert units(S3).members == (0, 1, 2, 3, 4, 5)

    def test_b2_only_identity(self):
        assert units(B2).members == (0,)

    def test_product_units(self):
        # indices are (b2, c2) pairs, b2-major: units are {e} x C2
        assert units(CATALOG["b2xc2"]).members == (0, 1)

    def test_oracle_agreement(self):
        for M in CATALOG.values():
            assert set(units(M).members) == oracles.units_of(M)

    def test_submonoid_units_need_inverse_inside(self):
        A3 = SubMonoid(S3, (0, 4, 5))
        assert units(A3).members == (0, 4, 5)
        whole = SubMonoid(B2, (0, 1))
        assert units(whole).members == (0,)

    def test_monoid_unit_group_built_once(self):
        M = from_table(S3.table)
        assert units(M) is units(M)
        assert units(M) == SubMonoid(M, M.members)
        # a submonoid, too, builds its unit group once
        for S in [*enumerate_submonoids(M), SubMonoid(B2, (0, 1))]:
            assert units(S) is units(S)
            assert set(units(S).members) == oracles.units_of(S)


class TestClosure:
    def test_generates_a3(self):
        assert submonoid_closure(S3, [4]).members == (0, 4, 5)

    def test_empty_generators(self):
        assert submonoid_closure(S3, []).members == (0,)

    def test_idempotent_generator(self):
        assert submonoid_closure(B2, [1]).members == (0, 1)

    def test_rejects_bad_index(self):
        with pytest.raises(IndexOutOfRange):
            submonoid_closure(B2, [7])

    @given(
        st.sampled_from(sorted(CATALOG)),
        st.sets(st.integers(0, 5), max_size=4),
        st.sets(st.integers(0, 5), max_size=2),
    )
    @settings(max_examples=150, deadline=None)
    def test_extensive_monotone_idempotent(self, name, gens, extra):
        M = catalog_monoid(name)
        gens = {g % M.size for g in gens}
        extra = {g % M.size for g in extra}
        closed = submonoid_closure(M, gens)
        assert gens <= closed.member_set
        bigger = submonoid_closure(M, gens | extra)
        assert closed.member_set <= bigger.member_set
        assert submonoid_closure(M, closed.members).members == closed.members


class TestEnumerateSubmonoids:
    @pytest.mark.parametrize(
        "name,count", [("c3", 2), ("b2", 2), ("s3", 6), ("c4", 3), ("lz21", 4)]
    )
    def test_counts(self, name, count):
        assert len(enumerate_submonoids(catalog_monoid(name))) == count

    def test_matches_closure_walk_oracle(self):
        for M in CATALOG.values():
            ours = {S.members for S in enumerate_submonoids(M)}
            assert ours == oracles.submonoids_by_closure_walk(M)

    def test_matches_subset_scan_oracle(self):
        # list equality: the walk must neither miss nor repeat a submonoid
        population = [M for n in range(1, 5) for M in enumerate_monoids(n, up_to_iso=True)]
        population += list(CATALOG.values())
        population += [direct_product(CATALOG[x], CATALOG[x]) for x in ("v4", "c4")]
        for M in population:
            scan = sorted(oracles.submonoids_by_subset_scan(M), key=lambda ms: (len(ms), ms))
            assert [S.members for S in enumerate_submonoids(M)] == scan

    def test_sorted_by_size_then_members(self):
        subs = enumerate_submonoids(S3)
        keys = [(len(S), S.members) for S in subs]
        assert keys == sorted(keys)


class TestIsSubgroup:
    def test_a3_in_s3(self):
        assert is_subgroup(S3, SubMonoid(S3, (0, 4, 5)))

    def test_b2_whole_is_not(self):
        assert not is_subgroup(B2, SubMonoid(B2, (0, 1)))

    def test_c4_half(self):
        assert is_subgroup(C4, SubMonoid(C4, (0, 2)))


class TestInverseTable:
    """The cached inverse table against the row-and-column scans it replaced."""

    @staticmethod
    def outcome(fn):
        try:
            return fn()
        except NotInvertible as exc:
            return str(exc)

    def test_matches_scans_on_every_submonoid(self):
        population = [M for n in range(1, 5) for M in enumerate_monoids(n, up_to_iso=True)]
        population += list(CATALOG.values())
        seen = set()
        for M in population:
            inverses = [oracles.inverse_by_scan(M, x) for x in M.elements()]
            assert [M.inverse(x) for x in M.elements()] == inverses
            assert M.is_group() == (None not in inverses)
            for c in [M, *enumerate_submonoids(M)]:
                # the carrier protocol: a monoid is its own parent and its own as_monoid()
                pos = c.positions
                assert c.parent is M and pos == {x: i for i, x in enumerate(c.members)}
                small = c.as_monoid()
                assert small.identity == pos[c.parent.identity]
                assert small.table == tuple(
                    tuple(pos[M.table[x][y]] for y in c.members) for x in c.members
                )
                assert set(units(c).members) == oracles.units_of(c)
                for x in M.elements():
                    ours = self.outcome(lambda: inverse_in(c, x))
                    assert ours == self.outcome(lambda: oracles.inverse_in_by_scan(c, x))
                    seen.add(type(ours))
                assert is_subgroup(M, c) == oracles.is_subgroup_by_scan(c)
                seen.add(is_subgroup(M, c))
        assert seen == {int, str, True, False}

    def test_inverse_table_matches_scan_to_order5(self):
        population = [M for n in range(1, 6) for M in enumerate_monoids(n, up_to_iso=True)]
        for M in population + list(CATALOG.values()):
            assert list(M.inverses) == [oracles.inverse_by_scan(M, x) for x in M.elements()]


class TestOpposite:
    def test_commutative_fixed(self):
        assert opposite(C3) == C3

    def test_involution_everywhere(self):
        for M in CATALOG.values():
            assert opposite(opposite(M)) == M

    def test_s3_antiisomorphic_to_itself(self):
        assert find_isomorphism(opposite(S3), S3) is not None

    def test_left_zero_becomes_right_zero(self):
        lz = CATALOG["lz21"]
        rz = opposite(lz)
        # uv = v away from the identity
        assert rz.mul(1, 2) == 2 and rz.mul(2, 1) == 1


class TestEndomorphisms:
    def test_end_c2_is_b2(self):
        end, endos = endomorphism_monoid(C2)
        assert len(endos) == 2
        assert find_isomorphism(end, B2) is not None

    def test_end_c3_is_exponents(self):
        end, endos = endomorphism_monoid(C3)
        assert sorted(f.values for f in endos) == [(0, 0, 0), (0, 1, 2), (0, 2, 1)]

    def test_end_trivial(self):
        end, endos = endomorphism_monoid(CATALOG["trivial"])
        assert end.size == 1 and len(endos) == 1

    def test_entries_compose_pointwise(self, tables_and_classes):
        classes = [M for _, reps in tables_and_classes.values() for M in reps]
        for A in classes + list(CATALOG.values()):
            end, endos = endomorphism_monoid(A)
            for f, row in zip(endos, end.table):
                for g, fg in zip(endos, row):
                    assert endos[fg].values == tuple(f.values[v] for v in g.values), A.table

    def test_composition_convention(self):
        end, endos = endomorphism_monoid(C3)
        i = next(k for k, f in enumerate(endos) if f.values == (0, 2, 1))
        j = end.mul(i, i)  # inversion twice is the identity map
        assert endos[j].values == (0, 1, 2)


class TestEnumerateHoms:
    def test_c2_to_c3_only_zero(self):
        assert [h.values for h in enumerate_homs(C2, C3)] == [(0, 0)]

    def test_c2_to_s3(self):
        values = [h.values for h in enumerate_homs(C2, S3)]
        assert values == [(0, 0), (0, 1), (0, 2), (0, 3)]

    def test_into_trivial(self):
        assert [h.values for h in enumerate_homs(S3, CATALOG["trivial"])] == [(0,) * 6]

    def test_matches_oracle(self):
        for B, A in [(C2, C4), (C3, S3), (B2, B2), (CATALOG["v4"], C2)]:
            ours = [h.values for h in enumerate_homs(B, A)]
            assert ours == sorted(oracles.hom_values(B, A))

    def test_all_results_are_homomorphisms(self):
        for h in enumerate_homs(CATALOG["v4"], S3):
            assert h.is_homomorphism()

    def test_submonoid_domain_reads_the_induced_table(self, monkeypatch):
        # every submonoid S of the order <= 3 + catalog population, into M and into S:
        # the homs of the old route through S's induced monoid, without building it
        cases = []
        for _, M in verify._population(3, True):
            for S in enumerate_submonoids(M):
                for A in (M, S):
                    expected = [h.values for h in enumerate_homs(S.as_monoid(), A)]
                    cases.append((S, A, expected))
        monkeypatch.setattr(FiniteMonoid, "__post_init__", lambda M: pytest.fail("built a monoid"))
        for S, A, expected in cases:
            assert [h.values for h in enumerate_homs(S, A)] == expected, (S, A)
        assert len(cases) == 2 * 69

    def test_domain_bound(self):
        big = direct_product(S3, C2)
        with pytest.raises(SizeBoundExceeded):
            enumerate_homs(big, C2)


class TestEnumerateMonoids:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2)])
    def test_small_counts(self, n, count):
        assert len(enumerate_monoids(n)) == count

    def test_order3_classes(self):
        assert len(enumerate_monoids(3, up_to_iso=True)) == 7

    def test_order3_matches_naive_scan(self):
        ours = {M.table for M in enumerate_monoids(3)}
        assert ours == set(oracles.monoid_tables_with_fixed_identity(3))

    def test_reps_pairwise_nonisomorphic(self):
        reps = enumerate_monoids(3, up_to_iso=True)
        for M, N in itertools.combinations(reps, 2):
            assert find_isomorphism(M, N) is None

    def test_order_bound(self):
        with pytest.raises(SizeBoundExceeded):
            enumerate_monoids(7)

    def test_deterministic_order(self):
        assert [M.table for M in enumerate_monoids(3)] == [
            M.table for M in enumerate_monoids(3)
        ]


@pytest.fixture(scope="module")
def order5():
    return enumerate_monoids(5), enumerate_monoids(5, up_to_iso=True)


class TestOrderlyGeneration:
    """Isomorph-free generation against the relabeling filter and the published counts."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_classes_are_the_filtered_tables(self, order5, n):
        tables, classes = order5 if n == 5 else (enumerate_monoids(n), enumerate_monoids(n, True))
        filtered = [M.table for M in tables if oracles.is_canonical_table(M.table)]
        assert [M.table for M in classes] == filtered

    def test_class_counts(self):
        # OEIS A058129: monoids of order n up to isomorphism
        counts = [len(enumerate_monoids(n, up_to_iso=True)) for n in range(1, 7)]
        assert counts == [1, 2, 7, 35, 228, 2237]

    def test_labelled_counts(self, order5):
        counts = [len(enumerate_monoids(n)) for n in range(1, 5)] + [len(order5[0])]
        assert counts == [1, 2, 11, 156, 4122]

    def test_order5_classification(self, order5):
        # by find_isomorphism alone: every table lies in exactly one class,
        # and each class in its own only
        tables, classes = order5
        buckets = {}
        for C in classes:
            buckets.setdefault(C.invariant, []).append(C)
        for M in [*tables, *classes]:
            found = [C for C in buckets.get(M.invariant, []) if find_isomorphism(M, C)]
            assert len(found) == 1, M.table


class TestFindIsomorphism:
    def test_different_unit_counts(self):
        assert find_isomorphism(C2, B2) is None

    def test_different_orders(self):
        trivial, v4 = CATALOG["trivial"], CATALOG["v4"]
        for M, N in [(trivial, C2), (C2, C3), (B2, v4), (C4, S3), (S3, trivial)]:
            assert len(M.invariant) == M.size != N.size
            assert find_isomorphism(M, N) is None and find_isomorphism(N, M) is None

    def test_identity_iso(self):
        iso = find_isomorphism(S3, S3)
        assert iso.forward.values == tuple(range(6))

    def test_twisted_product_is_s3(self):
        iso = find_isomorphism(CATALOG["c3xc2"], S3)
        assert iso is not None

    def test_forward_transports_table(self):
        M, N = CATALOG["c3xc2"], S3
        iso = find_isomorphism(M, N)
        f = iso.forward
        for x in M.elements():
            for y in M.elements():
                assert f(M.mul(x, y)) == N.mul(f(x), f(y))


class TestFindIsomorphismScale:
    """Pruning by the table while the map grows keeps larger searches short."""

    def transports(self, iso, M, N):
        f = iso.forward
        return all(f(M.mul(x, y)) == N.mul(f(x), f(y)) for x in M.elements() for y in M.elements())

    def test_relabeled_monoids_are_isomorphic(self, tables_and_classes):
        rng = random.Random(16)
        monoids = [M for tables, _ in tables_and_classes.values() for M in tables]
        for M in monoids + list(CATALOG.values()):
            R = oracles.relabeled(M, rng)
            assert M.size == 1 or R.identity != M.identity
            iso = find_isomorphism(M, R)
            assert iso is not None and self.transports(iso, M, R), M.table

    def test_equal_signatures_not_isomorphic(self):
        # C4xC3 is abelian and S3xC2 is not, yet their signature multisets agree
        M, N = direct_product(C4, C3), direct_product(S3, C2)
        assert sorted(M.signature) == sorted(N.signature)
        start = time.perf_counter()
        assert find_isomorphism(M, N) is None
        assert time.perf_counter() - start < 1

    def test_order36_relabeling(self):
        M = direct_product(S3, S3)
        R = oracles.relabeled(M, random.Random(36))
        start = time.perf_counter()
        iso = find_isomorphism(M, R)
        assert time.perf_counter() - start < 1
        assert iso is not None and self.transports(iso, M, R)


def _iso_values(iso):
    return None if iso is None else iso.forward.values


@pytest.fixture(scope="module")
def tables_and_classes():
    return {n: (enumerate_monoids(n), enumerate_monoids(n, up_to_iso=True)) for n in range(1, 5)}


class TestFindIsomorphismOracle:
    """The invariant-pruned search returns exactly what scanning every permutation does."""

    def assert_agree(self, pairs):
        for M, N in pairs:
            want = _iso_values(oracles.find_isomorphism_bruteforce(M, N))
            assert _iso_values(find_isomorphism(M, N)) == want, (M.table, N.table)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tables_against_classes(self, tables_and_classes, n):
        tables, classes = tables_and_classes[n]
        self.assert_agree(itertools.product(tables, classes))

    def test_class_pairs(self, tables_and_classes):
        classes = [M for _, reps in tables_and_classes.values() for M in reps]
        self.assert_agree(itertools.product(classes, repeat=2))

    def test_catalog_pairs(self):
        self.assert_agree(itertools.product(CATALOG.values(), repeat=2))


class TestSignature:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_invariant_under_relabeling(self, tables_and_classes, n):
        for M in tables_and_classes[n][0]:
            for tail in itertools.permutations(range(1, n)):
                perm = (0,) + tail
                R = FiniteMonoid(oracles.relabeled_table(M.table, perm), 0)
                assert sorted(R.signature) == sorted(M.signature)
                # R's element perm[x] is M's x
                assert [R.signature[p] for p in perm] == list(M.signature)

    def test_identity_alone_in_its_fibre(self, tables_and_classes):
        for _, classes in tables_and_classes.values():
            for M in classes:
                assert M.signature.count(M.signature[M.identity]) == 1


class TestElementMap:
    def test_zero_map_is_hom(self):
        assert zero_map(S3, C2).is_homomorphism()

    def test_identity_map(self):
        assert identity_map(S3).is_homomorphism()

    def test_values_must_land_in_codomain(self):
        A3 = SubMonoid(S3, (0, 4, 5))
        with pytest.raises(MonoidError):
            ElementMap(S3, A3, (0, 1, 0, 0, 4, 5))

    def test_is_homomorphism_matches_pointwise_oracle(self):
        # maps M -> A, maps A -> M read through the submonoid's positions, and maps A -> B
        verdicts = set()
        for n in range(1, 5):
            for M in enumerate_monoids(n, up_to_iso=True):
                maps = [ElementMap(M, A, values) for A, values in oracles.small_maps(M, 256)]
                subs = enumerate_submonoids(M)
                for A in subs:
                    if n ** len(A) <= 256:
                        for values in itertools.product(M.members, repeat=len(A)):
                            maps.append(ElementMap(A, M, values))
                    for B in subs:
                        if len(B) ** len(A) <= 64:
                            for values in itertools.product(B.members, repeat=len(A)):
                                maps.append(ElementMap(A, B, values))
                for f in maps:
                    ok = f.is_homomorphism()
                    assert ok == oracles.is_homomorphism_pointwise(f)
                    verdicts.add((ok, type(f.domain), type(f.codomain)))
        assert len(verdicts) == 6  # both verdicts on each pair of carrier kinds

    def test_submonoid_domain_reads_the_induced_table(self, monkeypatch):
        # each submonoid of the verify population, its inclusion and seeded maps into M:
        # the verdict of the route through the induced monoid, without building it
        rng = random.Random(7)
        cases = []
        for _, M in verify._population(4, True):
            for S in enumerate_submonoids(M):
                induced = S.as_monoid().table
                assert S._position_table == induced
                seeded = [tuple(rng.choice(M.members) for _ in S) for _ in range(3)]
                for values in [S.members, *seeded]:
                    f = ElementMap(S, M, values)
                    law = _hom_witness(values, induced, M.table) is None
                    cases.append((f, f(M.identity) == M.identity and law))
        monkeypatch.setattr(SubMonoid, "as_monoid", lambda S: pytest.fail("built a monoid"))
        verdicts = [f.is_homomorphism() for f, _ in cases]
        assert verdicts == [expected for _, expected in cases]
        assert set(verdicts) == {True, False} and len(cases) == 4 * 286

    def test_compose(self):
        sign = ElementMap(S3, C2, (0, 1, 1, 1, 0, 0))
        include = ElementMap(C2, S3, (0, 1))
        assert compose(sign, include).values == (0, 1)


class TestBoolIndicesRejected:
    # bool is an int subclass; True and False must not pass as element indices
    def test_submonoid_members(self):
        with pytest.raises(IndexOutOfRange):
            SubMonoid(C3, (False,))

    def test_closure_generators(self):
        with pytest.raises(IndexOutOfRange):
            submonoid_closure(C3, [True])

    def test_element_map_values(self):
        with pytest.raises(MonoidError, match="not a codomain element"):
            ElementMap(C3, C3, (False, True, 2))


class TestAccessorsRejectBadIndices:
    # a negative index would read a table from its end, a bool would pass as 0 or 1
    @pytest.mark.parametrize("x", [-1, 3, True])
    def test_mul(self, x):
        with pytest.raises(IndexOutOfRange):
            C3.mul(x, 1)
        with pytest.raises(IndexOutOfRange):
            C3.mul(0, x)

    @pytest.mark.parametrize("x", [-1, 6, False])
    def test_inverse(self, x):
        with pytest.raises(IndexOutOfRange):
            S3.inverse(x)

    @pytest.mark.parametrize("x", [-2, 6, True])
    def test_label(self, x):
        with pytest.raises(IndexOutOfRange):
            S3.label(x)

    @pytest.mark.parametrize("x", [-1, 6, True])
    def test_inverse_in(self, x):
        with pytest.raises(IndexOutOfRange):
            inverse_in(S3, x)
        with pytest.raises(IndexOutOfRange):
            inverse_in(SubMonoid(S3, (0, 1)), x)


    # 1.0 and True hash as 1, so a position lookup alone would take them
    @pytest.mark.parametrize("x", [True, 1.0, -1], ids=["bool", "float", "negative"])
    def test_element_map_call(self, x):
        with pytest.raises(IndexOutOfRange):
            identity_map(C3)(x)

    @pytest.mark.parametrize("x", [True, 4], ids=["bool", "non-member"])
    def test_submonoid_position(self, x):
        with pytest.raises(IndexOutOfRange):
            SubMonoid(S3, (0, 1)).position(x)

    def test_compose_outside_the_outer_domain(self):
        include = ElementMap(C2, S3, (0, 1))
        with pytest.raises(IndexOutOfRange):
            compose(include, ElementMap(S3, S3, (0, 1, 2, 3, 4, 5)))


class TestBounds:
    def test_submonoid_enumeration_hard_cap(self):
        big = direct_product(direct_product(C3, C3), C3)  # 27 elements
        with pytest.raises(SizeBoundExceeded):
            enumerate_submonoids(big)

    def test_units_of_units_is_itself(self):
        for M in CATALOG.values():
            u = units(M)
            assert units(u).members == u.members

    def test_closure_walk_regime(self):
        # order 21, beyond a 2^(n-1) subset scan: one cyclic subgroup per divisor
        c21 = FiniteMonoid(
            tuple(tuple((a + b) % 21 for b in range(21)) for a in range(21)), 0
        )
        members = [S.members for S in enumerate_submonoids(c21)]
        assert [len(m) for m in members] == [1, 3, 7, 21]


class TestCanonicalOrdering:
    def test_enumerations_come_out_sorted(self):
        # the search engine promises lexicographic value order
        for M in (S3, C4, CATALOG["b2xc2"]):
            homs = [h.values for h in enumerate_homs(C2, M)]
            assert homs == sorted(homs)
        tables = [M.table for M in enumerate_monoids(3)]
        assert tables == sorted(tables)

    def test_order4_counts_frozen_from_full_scan(self):
        # 156 labeled tables and 35 classes, confirmed by an independent
        # 4^9 candidate scan plus orbit grouping under the 6 relabelings
        assert len(enumerate_monoids(4)) == 156
        assert len(enumerate_monoids(4, up_to_iso=True)) == 35
