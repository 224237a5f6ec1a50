"""Release acceptance suite.

Each test is one headline guarantee and prints a single pass/fail line
with the measured values (run with -s to see the lines for passing
tests).  The corpus is every labeled complex on up to 5 ambient
vertices plus 500 seeded random complexes on 8 vertices.
"""

import random
import time

import pytest

from oracles import (dense_reduced_homology, determinant,
                     reisner_cohen_macaulay)
from spectral_delta import (
    Q,
    Z,
    FieldSpec,
    delta_of_complex,
    depth,
    full_simplex,
    hochster_betti_table,
    nerve_of_facets,
    reduced_homology,
    relative_homology,
)
from spectral_delta.checks import (
    enumerate_complexes,
    random_complexes,
    run_instance,
    sweep,
)
from spectral_delta.fixtures import rp2_complex
from spectral_delta.linalg import IntMatrix, smith_normal_form

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)

RANDOM_N = 8
RANDOM_SEED = 1
RANDOM_COUNT = 500


def _report(num, ok, detail):
    line = f"acceptance {num:02d}: {'pass' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def corpus5():
    out = []
    for n in range(1, 6):
        out.extend(enumerate_complexes(n))
    return out


@pytest.fixture(scope="session")
def corpus8():
    return random_complexes(RANDOM_N, RANDOM_SEED, RANDOM_COUNT)


def _sweep_everywhere(check_ids, coeffs):
    """Run one check family over the standard corpus; returns
    (total unexpected failures, complexes visited, elapsed seconds)."""
    start = time.perf_counter()
    bad = 0
    seen = 0
    for n in range(1, 6):
        rep = sweep(n, mode="exhaustive", coeffs=coeffs,
                    check_ids=check_ids)
        bad += rep.unexpected_failures
        seen += rep.complexes
    rep = sweep(RANDOM_N, mode="random", seed=RANDOM_SEED,
                count=RANDOM_COUNT, coeffs=coeffs, check_ids=check_ids)
    bad += rep.unexpected_failures
    seen += rep.complexes
    return bad, seen, time.perf_counter() - start


def test_01_depth_depends_on_the_coefficient_field():
    K = rp2_complex()
    start = time.perf_counter()
    over_q = depth(K, Q)
    over_f2 = depth(K, F2)
    elapsed = time.perf_counter() - start
    ok = (over_q.depth == 3 and over_q.cohen_macaulay
          and over_f2.depth == 2 and not over_f2.cohen_macaulay
          and elapsed < 10.0)
    _report(1, ok,
            f"projective plane depth Q={over_q.depth} CM={over_q.cohen_macaulay}, "
            f"F2={over_f2.depth} CM={over_f2.cohen_macaulay}, {elapsed:.2f}s")


def test_02_integral_torsion_survives_the_prime_construction():
    D = delta_of_complex(rp2_complex())
    over_z = reduced_homology(D, Z)
    over_q = reduced_homology(D, Q)
    over_f2 = reduced_homology(D, F2)
    ok = (over_z.free_rank(1) == 0 and over_z.torsion(1) == (2,)
          and over_q.group_is_trivial(1)
          and over_f2.free_rank(1) != 0)
    _report(2, ok,
            f"H~1 of the prime complex: Z gives free={over_z.free_rank(1)} "
            f"torsion={list(over_z.torsion(1))}, "
            f"Q gives {over_q.free_rank(1)}, F2 gives {over_f2.free_rank(1)}")


def test_03_depth_forces_low_degree_homology_to_vanish():
    bad, seen, elapsed = _sweep_everywhere(["depth_vanishing"],
                                           [Q, F2, F3])
    ok = bad == 0 and seen >= 7773 + RANDOM_COUNT and elapsed < 300.0
    _report(3, ok,
            f"{bad} violations over {seen} complexes x Q,F2,F3, "
            f"{elapsed:.1f}s (< 300s)")


def test_04_depth_two_forces_a_connected_punctured_spectrum():
    bad, seen, elapsed = _sweep_everywhere(["hartshorne"], [Z, Q, F2, F3])
    ok = bad == 0
    _report(4, ok,
            f"{bad} violations over {seen} complexes x Z,Q,F2,F3, "
            f"{elapsed:.1f}s")


def test_05_prime_complex_nerve_and_complex_share_homology(corpus5, corpus8):
    coeffs = (Z, Q, F2, F3)
    start = time.perf_counter()
    mismatched = 0
    relabeled = 0
    for K in corpus5 + corpus8:
        D = delta_of_complex(K)
        N = nerve_of_facets(K)
        if D != N:
            relabeled += 1
            continue
        for coeff in coeffs:
            pk = reduced_homology(K, coeff)
            if reduced_homology(D, coeff) != pk \
                    or reduced_homology(N, coeff) != pk:
                mismatched += 1
    elapsed = time.perf_counter() - start
    ok = mismatched == 0 and relabeled == 0
    _report(5, ok,
            f"{relabeled} label mismatches, {mismatched} homology "
            f"mismatches over {len(corpus5) + len(corpus8)} complexes "
            f"x Z,Q,F2,F3, {elapsed:.1f}s")


def test_06_facet_and_generator_counts_bound_depth():
    bad, seen, elapsed = _sweep_everywhere(
        ["few_facets", "generator_count"], [Z, Q, F2, F3])
    ok = bad == 0
    _report(6, ok,
            f"{bad} violations over {seen} complexes, {elapsed:.1f}s")


def test_07_alexander_duality_reflects_betti_numbers():
    bad, seen, elapsed = _sweep_everywhere(["alexander_duality"],
                                           [Q, F2, F3])
    fixture = run_instance(rp2_complex(), ["alexander_duality"],
                           [Q, F2, F3])
    fixture_ok = bool(fixture) and all(o.passed for o in fixture)
    ok = bad == 0 and fixture_ok
    _report(7, ok,
            f"{bad} corpus violations over {seen} complexes, fixture "
            f"{'clean' if fixture_ok else 'VIOLATED'}, {elapsed:.1f}s")


def test_08_mod_p_dimensions_match_integral_bookkeeping():
    bad, seen, elapsed = _sweep_everywhere(["uct"], [F2, F3])
    fixture = run_instance(rp2_complex(), ["uct"], [F2, F3])
    fixture_ok = bool(fixture) and all(o.passed for o in fixture)
    ok = bad == 0 and fixture_ok
    _report(8, ok,
            f"{bad} violations over {seen} complexes for p=2,3, fixture "
            f"{'clean' if fixture_ok else 'VIOLATED'}, {elapsed:.1f}s")


def test_09_smith_normal_form_contract_holds_in_bulk():
    rng = random.Random(1009)
    failures = 0
    checked = 0
    start = time.perf_counter()
    for _ in range(1000):
        m = rng.randint(1, 12)
        n = rng.randint(1, 12)
        A = IntMatrix(m, n, [[rng.randint(-9, 9) for _ in range(n)]
                             for _ in range(m)])
        res = smith_normal_form(A)
        U, D, V = res.U, res.D, res.V
        good = (U @ A @ V).data == D.data
        good = good and abs(determinant(U)) == 1
        good = good and abs(determinant(V)) == 1
        diag = res.invariant_factors
        good = good and all(d > 0 for d in diag)
        good = good and all(diag[i + 1] % diag[i] == 0
                            for i in range(len(diag) - 1))
        good = good and all(D.data[i][j] == 0
                            for i in range(m) for j in range(n) if i != j)
        checked += 1
        if not good:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and checked == 1000
    _report(9, ok,
            f"{failures} contract failures over {checked} seeded matrices "
            f"up to 12x12, {elapsed:.1f}s")


def test_10_depth_oracle_agrees_with_the_link_criterion(corpus5):
    # the library's depth walks face links; the Betti table and Reisner's
    # criterion are two routes that do not share that walk
    start = time.perf_counter()
    depth_mismatches = 0
    cm_mismatches = 0
    for K in corpus5:
        for coeff in (Q, F2, F3):
            rep = depth(K, coeff)
            betti = hochster_betti_table(K, coeff)
            if rep.depth != K.n - betti.max_degree():
                depth_mismatches += 1
            if rep.cohen_macaulay != reisner_cohen_macaulay(K, coeff):
                cm_mismatches += 1
    elapsed = time.perf_counter() - start
    ok = depth_mismatches == 0 and cm_mismatches == 0
    _report(10, ok,
            f"{depth_mismatches} depth mismatches with the Betti table, "
            f"{cm_mismatches} CM mismatches with Reisner's criterion over "
            f"{len(corpus5)} complexes x Q,F2,F3, {elapsed:.1f}s")


def test_11_pair_homology_shifts_reduced_homology_by_one(corpus5):
    start = time.perf_counter()
    mismatched = 0
    for K in corpus5:
        simplex = full_simplex(K.n)
        for coeff in (Z, Q, F2):
            rel = relative_homology(simplex, K, coeff)
            red = reduced_homology(K, coeff)
            for t in range(1, K.n + 1):
                if rel.free_rank(t) != red.free_rank(t - 1) \
                        or rel.torsion(t) != red.torsion(t - 1):
                    mismatched += 1
    elapsed = time.perf_counter() - start
    ok = mismatched == 0
    _report(11, ok,
            f"{mismatched} degree mismatches over {len(corpus5)} pairs "
            f"x Z,Q,F2, {elapsed:.1f}s")


def test_12_homology_on_the_strong_core_matches_the_dense_route(corpus8):
    # the library reduces the strong core with sparse elimination; the
    # oracle takes whole boundary matrices of K itself to the dense kernels
    start = time.perf_counter()
    mismatched = 0
    for K in corpus8:
        for coeff in (Z, Q, F2, F3):
            if reduced_homology(K, coeff) != dense_reduced_homology(K, coeff):
                mismatched += 1
    elapsed = time.perf_counter() - start
    ok = mismatched == 0
    _report(12, ok,
            f"{mismatched} mismatches over {len(corpus8)} complexes "
            f"x Z,Q,F2,F3, {elapsed:.1f}s")
