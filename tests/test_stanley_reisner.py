"""Squarefree monomial dictionary: generators, primes, and the derived complex."""

import random
import warnings

import pytest

from spectral_delta import (
    DegenerateDualWarning,
    PrimeFamily,
    Q,
    SimplicialComplex,
    SRGenerators,
    Z,
    alexander_dual,
    complex_from_generators,
    delta_of_complex,
    delta_of_primes,
    full_simplex,
    make_complex,
    minimal_primes,
    nerve_of_facets,
    reduced_homology,
    sr_generators,
)
from spectral_delta.checks import enumerate_complexes

from oracles import face_set, subsets


def test_generators_of_hollow_triangle(hollow_triangle):
    g = sr_generators(hollow_triangle)
    assert g.generators == ((1, 2, 3),)
    assert g.ambient == 3


def test_full_simplex_has_zero_ideal():
    assert sr_generators(full_simplex(3)).generators == ()


def test_irrelevant_complex_generated_by_all_variables(irrelevant2):
    assert sr_generators(irrelevant2).generators == ((1,), (2,))


def test_generators_reject_void():
    with pytest.raises(ValueError):
        sr_generators(make_complex(2, []))


def test_complex_from_generators_examples():
    K = complex_from_generators(SRGenerators(2, ((1, 2),)))
    assert K.facets == ((1,), (2,))
    assert complex_from_generators(SRGenerators(3, ())) == full_simplex(3)
    # a single-variable generator kills that vertex entirely
    K = complex_from_generators(SRGenerators(2, ((1,),)))
    assert K.facets == ((2,),)


def test_generator_round_trip_is_identity():
    for n in (1, 2, 3, 4):
        for K in enumerate_complexes(n):
            C = complex_from_generators(sr_generators(K))
            assert SimplicialComplex(C.n, C.facets) == C == K
    V = complex_from_generators(SRGenerators(2, ((),)))
    assert V.is_void and V.n == 2


def test_complex_from_generators_matches_the_subset_scan():
    # SRGenerators does not validate, so the families may hold the empty
    # generator, duplicates, generators that contain other ones and
    # generators with a vertex outside 1..n
    rng = random.Random(5)
    families = [SRGenerators(3, ()), SRGenerators(3, ((),)),
                SRGenerators(0, ()), SRGenerators(3, ((1,), (1, 2), (2, 3))),
                SRGenerators(2, ((1, 3), (2,))), SRGenerators(2, ((3,),))]
    for _ in range(300):
        n = rng.randint(1, 7)
        families.append(SRGenerators(n, tuple(
            tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
            for _ in range(rng.randint(0, 6)))))
    for g in families:
        K = complex_from_generators(g)
        assert SimplicialComplex(K.n, K.facets) == K
        assert K.n == g.ambient
        assert face_set(K.n, K.facets) == {
            s for s in subsets(range(1, g.ambient + 1))
            if not any(set(x) <= set(s) for x in g.generators)}, g


def test_minimal_primes_are_facet_complements_in_facet_order(hollow_triangle):
    fam = minimal_primes(hollow_triangle)
    assert fam.primes == ((3,), (2,), (1,))
    assert fam.ambient == 3
    assert minimal_primes(full_simplex(3)).primes == ((),)
    assert minimal_primes(make_complex(2, [], include_empty=True)).primes \
        == ((1, 2),)


def test_prime_count_equals_facet_count():
    for K in enumerate_complexes(3):
        assert len(minimal_primes(K)) == len(K.facets)


def test_generator_count_equals_dual_facet_count():
    for n in (2, 3, 4):
        for K in enumerate_complexes(n):
            if K.is_full_simplex:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error", DegenerateDualWarning)
                dual = alexander_dual(K)
            assert len(sr_generators(K).generators) == len(dual.facets), \
                K.facets


def test_prime_family_validates_antichain():
    with pytest.raises(ValueError):
        PrimeFamily(3, ((1,), (1, 2)))
    with pytest.raises(ValueError):
        PrimeFamily(3, ((1,), (1,)))
    with pytest.raises(ValueError):
        PrimeFamily(2, ((3,),))
    with pytest.raises(ValueError):
        PrimeFamily(2, ((2, 1),))


def test_prime_family_preserves_given_order():
    fam = PrimeFamily(3, ((3,), (1,), (2,)))
    assert fam.primes == ((3,), (1,), (2,))


def test_prime_family_from_subsets_canonicalizes():
    fam = PrimeFamily.from_subsets(3, [(2, 1), (1, 2), (1, 2, 3), (3,)])
    assert fam.primes == ((1, 2), (3,))


VOID = make_complex(3, [])

# the void complex has no ideal and no facets; a prime's range is checked
# before its mask is built (a far-out variable is tested in a child
# process, under a memory cap), even when pruning would drop the prime
DICTIONARY_ERRORS = {
    "minimal_primes_of_void": (lambda: minimal_primes(VOID),
                               "the void complex has no face ideal"),
    "nerve_of_void": (lambda: nerve_of_facets(VOID),
                      "the void complex has no facets to cover it"),
    "variable_zero": (lambda: PrimeFamily.from_subsets(2, [[0]]),
                      "prime (0,) outside variables 1..2"),
    "non_minimal_and_out": (
        lambda: PrimeFamily.from_subsets(2, [[1], [5, 1]]),
        "prime (1, 5) outside variables 1..2"),
}


@pytest.mark.parametrize("case", sorted(DICTIONARY_ERRORS))
def test_dictionary_errors(case):
    build, message = DICTIONARY_ERRORS[case]
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_delta_of_hollow_triangle_primes():
    fam = PrimeFamily(3, ((1,), (2,), (3,)))
    assert delta_of_primes(fam).facets == ((1, 2), (1, 3), (2, 3))


def test_delta_of_single_proper_prime_is_point():
    assert delta_of_primes(PrimeFamily(3, ((1, 2),))).facets == ((1,),)


def test_delta_of_two_complementary_primes_is_disconnected():
    fam = PrimeFamily(2, ((1,), (2,)))
    D = delta_of_primes(fam)
    assert D.facets == ((1,), (2,))
    assert reduced_homology(D, Q).free_rank(0) == 1


def test_delta_handles_zero_ideal():
    # the empty variable set never unions to everything when n >= 1
    D = delta_of_primes(PrimeFamily(3, ((),)))
    assert D.facets == ((1,),)


def test_delta_of_maximal_ideal_has_dead_vertex():
    # one prime equal to the whole variable set fails its own face test
    D = delta_of_primes(PrimeFamily(2, ((1, 2),)))
    assert D.is_irrelevant and D.n == 1


def test_delta_rejects_empty_ambient():
    with pytest.raises(ValueError):
        delta_of_primes(PrimeFamily(0, ()))


def test_delta_of_complex_equals_nerve_everywhere(rp2):
    for n in (1, 2, 3, 4):
        for K in enumerate_complexes(n):
            D = delta_of_complex(K)
            assert SimplicialComplex(D.n, D.facets) == D
            assert D == nerve_of_facets(K), K.facets
    assert delta_of_complex(rp2) == nerve_of_facets(rp2)


def test_delta_of_complex_examples(hollow_triangle):
    assert delta_of_complex(hollow_triangle).facets == ((1, 2), (1, 3), (2, 3))
    assert delta_of_complex(full_simplex(4)).facets == ((1,),)


def test_delta_of_rp2_has_rp2_homology(rp2):
    D = delta_of_complex(rp2)
    assert D.n == 10
    assert reduced_homology(D, Z) == reduced_homology(rp2, Z)


def test_delta_preserves_homology_on_small_corpus():
    for K in enumerate_complexes(3):
        D = delta_of_complex(K)
        assert reduced_homology(D, Z) == reduced_homology(K, Z), K.facets
