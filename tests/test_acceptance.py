"""Acceptance criteria, one test per criterion with a printed verdict line.

Expected values are frozen from independent oracles (full scans in
``oracles``) or are exact structural facts; every tolerance is equality.
"""

import time
from io import StringIO

import oracles
from monofact.catalog import CATALOG
from monofact.cli import run_command
from monofact.core import ElementMap, SubMonoid, enumerate_monoids, find_isomorphism, units
from monofact.descent import (
    cocycle_kernel,
    conjugate_second_factor,
    descent_cohomology,
    enumerate_descent_cocycles,
    fac_from_subgroup_cocycle,
    groupoid_components,
    star_act,
    unit_valued_cocycles,
)
from monofact.factorization import fac_over, first_factor_filter, try_factorization
from monofact.semidirect import (
    conical_check,
    factorization_normality_equivalences,
    fac_from_z1,
    h1,
    inner_action_and_convolution,
    semidirect,
    validate_action,
    z1,
)
from monofact.verify import verify_suite
from monofact.witnesses import integer_witnesses, odd_power_decomposition

S3 = CATALOG["s3"]
C2 = CATALOG["c2"]
C3 = CATALOG["c3"]
C4 = CATALOG["c4"]
A3 = SubMonoid(S3, (0, 4, 5))
INVERSION = validate_action(C2, C3, [[0, 1, 2], [0, 2, 1]])


def check(name: str, **conditions: bool) -> None:
    failed = [key for key, ok in conditions.items() if not ok]
    verdict = "PASS" if not failed else "FAIL (" + ", ".join(failed) + ")"
    print(f"ACCEPTANCE {name}: {verdict}")
    assert not failed, f"{name} failed: {failed}"


def test_verification_suite():
    start = time.perf_counter()
    small = verify_suite(3, catalog=True)
    small_seconds = time.perf_counter() - start
    start = time.perf_counter()
    large = verify_suite(4, catalog=True)
    large_seconds = time.perf_counter() - start
    check(
        "verification-suite",
        size3_all_pass=small.all_passed,
        size3_no_vacuous=all(c.instances > 0 for c in small.checks),
        size3_under_60s=small_seconds < 60.0,
        size4_all_pass=large.all_passed,
        size4_under_600s=large_seconds < 600.0,
    )


def test_s3_cross_check_cluster():
    partners = fac_over(S3, A3)
    cocycles = enumerate_descent_cocycles(S3, A3)
    oracle_cocycles = sorted(oracles.left_cocycle_values(S3, A3))

    # the subgroup correspondence, element by element in both directions
    kernel_map_bijects = sorted(
        cocycle_kernel(q).members for q in cocycles
    ) == sorted(B.members for B in partners) and len(
        {cocycle_kernel(q).members for q in cocycles}
    ) == len(cocycles)
    inverse_is_component_map = all(
        try_factorization(S3, A3, cocycle_kernel(q)).to_first.values == q.values
        for q in cocycles
    )
    forward_of_component_map = all(
        fac_from_subgroup_cocycle(
            S3, A3, next(
                q for q in cocycles
                if q.values == try_factorization(S3, A3, B).to_first.values
            )
        ).second.members == B.members
        for B in partners
    )

    classes = descent_cohomology(S3, A3)
    groupoid = groupoid_components(
        partners, units(A3), lambda a0, B: conjugate_second_factor(a0, B)
    )

    unit_cocycles = z1(INVERSION, unit_valued=True)
    inversion_classes = h1(INVERSION, unit_valued=True)
    sd = semidirect(C3, INVERSION, C2)
    graph_images = {fac_from_z1(sd, chi).members for chi in unit_cocycles}
    product_partners = {B.members for B in fac_over(sd.product, sd.first_image())}

    check(
        "s3-cross-checks",
        fac_over_a3_is_3=len(partners) == 3,
        descent_cocycles_are_3=len(cocycles) == 3,
        matches_full_scan_oracle=[q.values for q in cocycles] == oracle_cocycles,
        kernel_bijection=kernel_map_bijects,
        bijection_inverse=inverse_is_component_map,
        bijection_forward=forward_of_component_map,
        one_cohomology_class=classes.class_count == 1,
        one_groupoid_component=groupoid.class_count == 1,
        z1_inversion_is_3=len(unit_cocycles) == 3,
        h1_inversion_is_1=inversion_classes.class_count == 1,
        z1_oracle_agrees=len(oracles.z1_values(INVERSION)) == 3,
        graphs_exhaust_partners=graph_images == product_partners,
    )


def test_semidirect_reconstruction():
    sd = semidirect(C3, INVERSION, C2)
    iso = find_isomorphism(sd.product, S3)

    fac = try_factorization(S3, A3, SubMonoid(S3, (0, 1)))
    report = factorization_normality_equivalences(fac)
    rebuilt_iso = (
        report.product is not None
        and find_isomorphism(report.product.product, S3) is not None
    )
    check(
        "semidirect-reconstruction",
        twisted_product_is_s3=iso is not None,
        equivalences_all_true=report.left_normal and report.iso is not None,
        presentation_isomorphic=rebuilt_iso,
        canonical_iso_recovered=report.iso is not None,
    )


def test_convolution_identities():
    kappa = ElementMap(C2, S3, (0, 1))
    report = inner_action_and_convolution(C2, S3, kappa)

    # independent enumerations of both sides
    oracle_z1 = oracles.z1_values(report.action)
    oracle_homs = oracles.hom_values(C2, S3)
    pointwise = all(
        report.homs[report.convolution_of[i]].values
        == tuple(S3.mul(c(b), kappa(b)) for b in C2.elements())
        for i, c in enumerate(report.cocycles)
    )
    zero_pos = next(i for i, c in enumerate(report.cocycles) if c.values == (0, 0))
    check(
        "convolution-identities",
        z1_count_is_4=len(report.cocycles) == 4,
        hom_count_is_4=len(report.homs) == 4,
        oracle_sides_agree=len(oracle_z1) == 4 and len(oracle_homs) == 4,
        oracle_values_match=sorted(c.values for c in report.cocycles) == oracle_z1
        and sorted(h.values for h in report.homs) == oracle_homs,
        bijection_pointwise=report.bijection_ok and pointwise,
        pointed=report.homs[report.convolution_of[zero_pos]].values == kappa.values,
        h1_classes_are_2=report.cocycle_classes.class_count == 2,
        hom_classes_are_2=report.hom_classes.class_count == 2,
        induced_bijection=report.induced_bijection_ok,
    )


def test_conical_bound():
    from monofact.core import enumerate_submonoids

    population = list(CATALOG.values())
    for n in range(1, 5):
        population.extend(enumerate_monoids(n, up_to_iso=True))
    tested = 0
    violations = 0
    for M in population:
        for A in enumerate_submonoids(M):
            report = conical_check(M, A)
            if report.conical:
                tested += 1
                if not report.bound_satisfied:
                    violations += 1
    check(
        "conical-bound",
        population_covered=tested > 100,
        bound_never_violated=violations == 0,
    )


def test_negative_controls():
    half = SubMonoid(C4, (0, 2))
    lz = CATALOG["lz21"]
    ok, witness = first_factor_filter(lz, SubMonoid(lz, (0, 1)))
    check(
        "negative-controls",
        c4_half_passes_filter=first_factor_filter(C4, half) == (True, None),
        c4_half_has_no_partner=fac_over(C4, half) == [],
        left_zero_fails_filter=not ok,
        witness_replays=witness == (1, 2)
        and lz.mul(witness[0], witness[1]) in (0, 1)
        and witness[1] not in (0, 1),
    )


def test_integer_witnesses():
    start = time.perf_counter()
    report = integer_witnesses(1_000_000)
    elapsed = time.perf_counter() - start
    (l1, l2), (r1, r2), total = report.addition_witness
    check(
        "integer-witnesses",
        bijective_up_to_million=report.decomposition_bijective,
        under_one_second=elapsed < 1.0,
        example_48=odd_power_decomposition(48) == (3, 4),
        addition_equality=l1 + l2 == r1 + r2 == total == -2,
        pairs_distinct=(l1, l2) != (r1, r2),
    )


def test_output_determinism():
    def run(*argv):
        out = StringIO()
        code = run_command(list(argv), out, StringIO())
        return code, out.getvalue()

    commands = [
        ("fac", "--in", "@s3"),
        ("cocycles", "--in", "@s3", "--sub", "(123)"),
        ("verify", "--max-size", "2", "--catalog"),
    ]
    identical = all(run(*argv) == run(*argv) for argv in commands)
    check("output-determinism", byte_identical_reruns=identical)
