"""Metamorphic relations: answers that must stay the same, or change in
a known way, when a complex is relabelled or coned.

Each relation is a theorem about the invariants, not a second route
through the library.  Every transformed complex is built from facet
tuples by `make_complex`, the validating constructor.
"""

import random

from spectral_delta import (FieldSpec, Q, Z, clear_caches, depth, f_vector,
                            make_complex, reduced_homology)
from spectral_delta.checks import random_complexes
from spectral_delta.fixtures import rp2_complex

F2 = FieldSpec.prime(2)

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


def _cone(K):
    """The cone on K, with the new vertex n + 1 as its apex."""
    apex = K.n + 1
    return make_complex(apex, [f + (apex,) for f in K.facets])


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
