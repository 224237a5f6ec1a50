"""Metamorphic relations: answers that must stay the same, or change in
a known way, when a complex is relabelled, coned, suspended, joined or
dualised.

Each relation is a theorem about the invariants, not a second route
through the library.  Every transformed complex is built from facet
tuples by `make_complex`, the validating constructor.
"""

import random

from spectral_delta import (FieldSpec, Q, Z, alexander_dual, clear_caches,
                            depth, f_vector, make_complex, reduced_homology)
from spectral_delta.checks import random_complexes
from spectral_delta.fixtures import rp2_complex

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)

# seeded complexes on 1..7 vertices, the irrelevant complex, and RP^2
# for its 2-torsion
CORPUS = ([K for n in range(1, 8) for K in random_complexes(n, 40 + n, 12)]
          + [make_complex(3, [], include_empty=True), rp2_complex()])


def _relabel_with_unused_vertex(K, rng):
    """K under a random injection of 1..n into 1..n + 1: the vertices
    are permuted and one ambient vertex is left in no face."""
    image = rng.sample(range(1, K.n + 2), K.n)
    return make_complex(K.n + 1, [[image[v - 1] for v in f]
                                  for f in K.facets])


def _permute(K, image):
    """K with each vertex v renamed image[v - 1], on the same 1..n."""
    return make_complex(K.n, [[image[v - 1] for v in f] for f in K.facets])


def _cone(K):
    """The cone on K, with the new vertex n + 1 as its apex."""
    apex = K.n + 1
    return make_complex(apex, [f + (apex,) for f in K.facets])


def _join(K, L):
    """K * L on 1..n_K + n_L, with L's vertices moved past K's."""
    return make_complex(K.n + L.n, [f + tuple(K.n + v for v in g)
                                    for f in K.facets for g in L.facets])


def _suspension(K):
    """K * S^0, the two new vertices n + 1 and n + 2 as its poles."""
    return _join(K, make_complex(2, [(1,), (2,)]))


def _depth_and_verdict(K, coeff):
    report = depth(K, coeff)
    return report.depth, report.cohen_macaulay


def test_relabelling_with_an_unused_vertex_changes_no_answer():
    # an unused vertex v puts x_v in the Stanley-Reisner ideal, so the
    # face ring, its depth and its Krull dimension stay the same
    clear_caches()
    rng = random.Random(3)
    for K in CORPUS:
        R = _relabel_with_unused_vertex(K, rng)
        for coeff in (Z, Q, F2):
            assert reduced_homology(R, coeff) == reduced_homology(K, coeff), (
                K.facets, R.facets, coeff.label)
        assert f_vector(R) == f_vector(K), (K.facets, R.facets)
        for coeff in (Q, F2):
            assert _depth_and_verdict(R, coeff) == _depth_and_verdict(
                K, coeff), (K.facets, R.facets, coeff.label)


def test_a_cone_has_one_more_depth_and_the_same_verdict():
    # k[K * pt] = k[K][x], a polynomial extension by one variable
    clear_caches()
    for K in CORPUS:
        C = _cone(K)
        for coeff in (Q, F2):
            d, cm = _depth_and_verdict(K, coeff)
            assert _depth_and_verdict(C, coeff) == (d + 1, cm), (
                K.facets, coeff.label)


def test_a_suspension_moves_every_group_up_one_degree():
    # the suspension isomorphism, torsion included: H~_{i+1}(K * S^0)
    # and H~_i(K) agree over every coefficient system
    clear_caches()
    for K in CORPUS:
        S = _suspension(K)
        for coeff in (Z, Q, F2, F3):
            shifted = tuple((deg + 1, free, tors) for deg, free, tors
                            in reduced_homology(K, coeff).entries)
            assert reduced_homology(S, coeff).entries == shifted, (
                K.facets, coeff.label)
    S = _suspension(rp2_complex())
    assert reduced_homology(S, Z).torsion(2) == (2,)
    assert reduced_homology(_suspension(S), Z).torsion(3) == (2,)


def test_a_join_adds_depths_and_is_cm_exactly_when_both_factors_are():
    # k[K * L] = k[K] (x)_k k[L] over a field, so depths add, and the
    # join is Cohen-Macaulay exactly when both factors are
    clear_caches()
    rng = random.Random(5)
    small = [K for K in CORPUS if K.n <= 4]
    # few small complexes have depth below dim + 1, so every ordered pair
    # of those goes in first, and seeded draws make up the rest of the 60
    odd = [K for K in small
           if any(depth(K, coeff).depth <= K.dimension for coeff in (Q, F2))]
    pairs = [(K, L) for K in odd for L in odd]
    pairs += [(rng.choice(small), rng.choice(small))
              for _ in range(60 - len(pairs))]
    for K, L in pairs:
        J = _join(K, L)
        for coeff in (Q, F2):
            (dk, cmk), (dl, cml) = (_depth_and_verdict(K, coeff),
                                    _depth_and_verdict(L, coeff))
            assert _depth_and_verdict(J, coeff) == (dk + dl, cmk and cml), (
                K.facets, L.facets, coeff.label)


# the dual of the void complex or of the full simplex is degenerate and
# warns; every other complex of the corpus has a proper dual
DUALISABLE = [K for K in CORPUS if not (K.is_void or K.is_full_simplex)]


def test_the_dual_of_the_dual_is_the_complex():
    clear_caches()
    for K in DUALISABLE:
        D = make_complex(K.n, alexander_dual(K).facets)
        assert alexander_dual(D) == K, K.facets


def test_the_dual_of_a_relabelled_complex_is_the_relabelled_dual():
    clear_caches()
    rng = random.Random(7)
    for K in DUALISABLE:
        image = rng.sample(range(1, K.n + 1), K.n)
        assert alexander_dual(_permute(K, image)) == _permute(
            alexander_dual(K), image), (K.facets, image)
