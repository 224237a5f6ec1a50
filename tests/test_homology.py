"""Homology engine: boundary matrices, exact groups, coefficient systems."""

from collections import Counter
from itertools import combinations

import pytest

from spectral_delta import (
    FieldSpec,
    Q,
    Z,
    boundary_matrix,
    clear_caches,
    depth,
    f_vector,
    full_simplex,
    make_complex,
    reduced_euler_characteristic,
    reduced_homology,
    relative_homology,
)
from spectral_delta import homology
from spectral_delta.checks import enumerate_complexes, random_complexes
from spectral_delta.complexes import _core
from spectral_delta.fixtures import rp2_complex
from spectral_delta.homology import HomologyProfile, _reduction

from oracles import (dense_reduced_homology, dense_relative_homology,
                     field_reduced_betti, gf2_reduced_betti)

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)


def test_fieldspec_parsing():
    assert FieldSpec.parse("z") == Z
    assert FieldSpec.parse("Q") == Q
    assert FieldSpec.parse("f2") == F2
    assert FieldSpec.parse("fp:7") == FieldSpec.prime(7)
    assert FieldSpec.parse("fp:101").p == 101
    for bad in ("f4", "fp:4", "fp:1", "fp:0", "r", "", "fp:x"):
        with pytest.raises(ValueError):
            FieldSpec.parse(bad)


def test_fieldspec_labels_and_predicates():
    assert Z.label == "Z" and not Z.is_field
    assert Q.label == "Q" and Q.is_field
    assert F2.label == "F2" and F2.is_field
    assert str(FieldSpec.prime(13)) == "F13"


def test_fieldspec_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        FieldSpec.prime(6)
    with pytest.raises(ValueError):
        FieldSpec.prime(2 ** 31 + 11)


FIELD_ERRORS = {
    "unknown_tag": (("reals",), "unknown coefficient tag 'reals'"),
    "rationals_with_a_characteristic": (
        ("rationals", 3), "characteristic only applies to prime fields"),
    "odd_square": (("prime_field", 9), "9 is not prime"),
    "one": (("prime_field", 1),
            "prime field characteristic must satisfy 2 <= p < 2**31"),
    "no_characteristic": (("prime_field",),
                          "prime field characteristic must satisfy "
                          "2 <= p < 2**31"),
}


@pytest.mark.parametrize("case", sorted(FIELD_ERRORS))
def test_fieldspec_errors(case):
    args, message = FIELD_ERRORS[case]
    with pytest.raises(ValueError) as exc:
        FieldSpec(*args)
    assert str(exc.value) == message


def test_augmentation_row_is_all_ones(hollow_triangle):
    d0 = boundary_matrix(hollow_triangle, 0)
    assert d0.rows == 1 and d0.cols == 3
    assert [list(r) for r in d0.data] == [[1, 1, 1]]


def test_boundary_signs_alternate_dropping_vertices():
    edge = full_simplex(2)
    d1 = boundary_matrix(edge, 1)
    # rows ordered (1,), (2,); d(12) = (2) - (1)
    assert [list(r) for r in d1.data] == [[-1], [1]]
    tri = full_simplex(3)
    d2 = boundary_matrix(tri, 2)
    # rows (1,2), (1,3), (2,3); d(123) = (23) - (13) + (12)
    assert [list(r) for r in d2.data] == [[1], [-1], [1]]


def test_boundary_matrix_shapes(hollow_triangle):
    assert boundary_matrix(hollow_triangle, -1).rows == 0
    assert boundary_matrix(hollow_triangle, -1).cols == 1
    assert boundary_matrix(hollow_triangle, 1).rows == 3
    assert boundary_matrix(hollow_triangle, 1).cols == 3
    d2 = boundary_matrix(hollow_triangle, 2)
    assert (d2.rows, d2.cols) == (3, 0)
    assert boundary_matrix(hollow_triangle, 5).rows == 0
    assert boundary_matrix(hollow_triangle, -3).cols == 0


def test_boundary_composes_to_zero():
    for K in (full_simplex(4), make_complex(4, [(1, 2, 3), (2, 3, 4), (1, 4)])):
        for i in range(0, K.dimension + 2):
            lower = boundary_matrix(K, i - 1)
            upper = boundary_matrix(K, i)
            if lower.cols != upper.rows:
                continue
            prod = lower @ upper
            assert prod.is_zero(), i


def test_hollow_triangle_is_a_circle(hollow_triangle):
    prof = reduced_homology(hollow_triangle, Z)
    assert prof.entries == ((1, 1, ()),)
    assert reduced_homology(hollow_triangle, Q).free_rank(1) == 1
    assert reduced_homology(hollow_triangle, F2).free_rank(1) == 1
    assert reduced_homology(hollow_triangle, Q).free_rank(0) == 0


def test_two_points_have_extra_component(two_points):
    assert reduced_homology(two_points, Z).entries == ((0, 1, ()),)


def test_full_simplex_is_contractible():
    for n in (1, 2, 3, 4):
        assert reduced_homology(full_simplex(n), Z).is_trivial


def test_irrelevant_complex_has_degree_minus_one_group(irrelevant2):
    prof = reduced_homology(irrelevant2, Z)
    assert prof.entries == ((-1, 1, ()),)
    assert reduced_homology(irrelevant2, F2).free_rank(-1) == 1


def test_void_complex_has_no_homology():
    assert reduced_homology(make_complex(3, []), Z).is_trivial


def test_rp2_homology_over_every_coefficient_system(rp2):
    assert reduced_homology(rp2, Z).entries == ((1, 0, (2,)),)
    assert reduced_homology(rp2, Q).is_trivial
    f2 = reduced_homology(rp2, F2)
    assert f2.free_rank(1) == 1 and f2.free_rank(2) == 1
    assert reduced_homology(rp2, F3).is_trivial


# Klein bottle: the 3 x 3 grid on a square, with one pair of opposite
# sides glued straight and the other pair glued with a twist
KLEIN_BOTTLE = [(1, 2, 5), (1, 2, 9), (1, 3, 4), (1, 3, 7), (1, 4, 5),
                (1, 7, 9), (2, 3, 6), (2, 3, 8), (2, 5, 6), (2, 8, 9),
                (3, 4, 6), (3, 7, 8), (4, 5, 8), (4, 6, 7), (4, 7, 8),
                (5, 6, 9), (5, 8, 9), (6, 7, 9)]


def test_torsion_sphere_from_klein_bottle():
    K = make_complex(9, KLEIN_BOTTLE)
    # a closed surface: every edge lies in exactly two triangles
    edge_count = Counter(e for f in K.facets for e in combinations(f, 2))
    assert K.dimension == 2 and set(edge_count.values()) == {2}
    assert reduced_homology(K, Z).entries == ((1, 1, (2,)),)
    assert reduced_homology(K, F2).entries == ((1, 2, ()), (2, 1, ()))
    assert reduced_homology(K, Q).entries == ((1, 1, ()),)


def _rp2_join_tetrahedron_boundary():
    # joining with the boundary of a tetrahedron, a 2-sphere, is the
    # triple suspension: the 2-torsion of RP^2 moves up three degrees
    bd = list(combinations(range(7, 11), 3))
    return make_complex(10, [f + g for f in rp2_complex().facets for g in bd])


def test_rp2_join_keeps_its_torsion():
    K = _rp2_join_tetrahedron_boundary()
    assert reduced_homology(K, Z).entries == ((4, 0, (2,)),)
    assert reduced_homology(K, F2).entries == ((4, 1, ()), (5, 1, ()))
    assert reduced_homology(K, Q).is_trivial


def test_sparse_route_matches_the_dense_kernels(rp2):
    complexes = [rp2, make_complex(9, KLEIN_BOTTLE),
                 _rp2_join_tetrahedron_boundary()]
    complexes += random_complexes(8, 1, 40)
    for K in complexes:
        for coeff in (Z, Q, F2, F3):
            assert (reduced_homology(K, coeff)
                    == dense_reduced_homology(K, coeff)), (K.facets, coeff)


def test_clearing_skips_the_unit_pivot_rows_of_the_degree_above(
        monkeypatch, rp2):
    calls = []
    eliminate = homology._eliminate_unit_pivots

    def recording(cols):
        pivots, rest = eliminate(cols)
        calls.append((len(cols), pivots))
        return pivots, rest

    monkeypatch.setattr(homology, "_eliminate_unit_pivots", recording)
    complexes = [rp2, make_complex(9, KLEIN_BOTTLE),
                 _rp2_join_tetrahedron_boundary(), full_simplex(6)]
    for K in complexes:
        clear_caches()
        calls.clear()
        reduction = _reduction(K)
        # one map per degree dim..0, from the top down; degree -1 maps
        # to nothing
        top = K.dimension
        assert len(calls) == top + 1
        cleared = 0
        for k, (received, pivots) in enumerate(calls):
            faces = len(K.faces_of_dim(top - k))
            assert received == faces - cleared, (K.facets, top - k)
            assert len(set(pivots)) == len(pivots)
            cleared = len(pivots)
        assert sum(len(p) for _, p in calls[:-1]) > 0
        # the record keeps increasing degree, full face counts, and the
        # pivots the elimination reported
        assert [(i, faces) for i, faces, _, _ in reduction] == [
            (i, len(K.faces_of_dim(i))) for i in range(-1, top + 1)]
        assert [pivots for _, _, pivots, _ in reduction[1:]] == [
            len(p) for _, p in reversed(calls)]


def _with_pendants(K):
    """K with a pendant edge and a pendant triangle glued on through new
    vertices, each dominated by the face it hangs from."""
    a, b = K.facets[0][:2]
    return make_complex(K.n + 2, K.facets + ((a, K.n + 1), (a, b, K.n + 2)))


def test_core_route_matches_the_dense_route_on_k_itself(rp2):
    small = [K for n in range(1, 5) for K in enumerate_complexes(n)]
    pendant = [_with_pendants(K) for K in (rp2, make_complex(9, KLEIN_BOTTLE),
                                           _rp2_join_tetrahedron_boundary())]
    for K in pendant:
        assert _core(K).n == K.n - 2
    for K in small + random_complexes(9, 3, 60) + pendant:
        for coeff in (Z, Q, F2, F3):
            assert (reduced_homology(K, coeff)
                    == dense_reduced_homology(K, coeff)), (K.facets, coeff)
    # the 2-torsion of RP^2, the Klein bottle and the join survives
    assert [reduced_homology(K, Z).entries for K in pendant] == [
        ((1, 0, (2,)),), ((1, 1, (2,)),), ((4, 0, (2,)),)]


def test_two_disjoint_facets_reduce_on_two_points(monkeypatch):
    # the 92-byte input: facets 1..14 and 15..28 on 28 vertices
    K = make_complex(28, [range(1, 15), range(15, 29)])
    assert _core(K) == make_complex(2, [(1,), (2,)])
    received = []
    eliminate = homology._eliminate_unit_pivots

    def recording(cols):
        received.append(len(cols))
        return eliminate(cols)

    monkeypatch.setattr(homology, "_eliminate_unit_pivots", recording)
    clear_caches()
    for coeff in (Z, Q, F2, F3):
        assert reduced_homology(K, coeff).entries == ((0, 1, ()),)
    assert received and max(received) <= 2


def test_the_face_budget_applies_to_the_strong_core():
    # the boundary of the 24-simplex has no dominated vertex, so its core
    # keeps its 24 facets of 23 vertices: 24 * 2**23 faces to walk
    bd = make_complex(24, combinations(range(1, 25), 23))
    for coeff in (Z, Q):
        with pytest.raises(ValueError, match="face bound 201,326,592 "):
            reduced_homology(bd, coeff)
    with pytest.raises(ValueError, match="face bound "):
        relative_homology(bd, make_complex(24, []), Q)
    # two disjoint 23-vertex facets lie above the budget too, but their
    # core is two points, and a cone needs no faces at all
    K = make_complex(46, [range(1, 24), range(24, 47)])
    assert reduced_homology(K, Z).entries == ((0, 1, ()),)
    assert reduced_homology(full_simplex(40), Z).is_trivial


def test_shared_reduction_never_mixes_coefficients(rp2):
    complexes = [rp2, make_complex(9, KLEIN_BOTTLE),
                 _rp2_join_tetrahedron_boundary()]
    skel = make_complex(6, [f for f in rp2.faces() if len(f) == 2])
    coeffs = (Z, Q, F2, F3)

    def relative():
        return [relative_homology(rp2, skel, c) for c in coeffs]

    before = relative()
    assert before == [HomologyProfile(c, ((2, 10, ()),)) for c in coeffs]
    for K in complexes:
        # the per-coefficient step only matters where a leftover is left
        assert any(rest for _, _, _, rest in _reduction(K))
        cold = {}
        for c in coeffs:
            clear_caches()
            cold[c] = reduced_homology(K, c)
        assert cold == {c: dense_reduced_homology(K, c) for c in coeffs}
        for order in (coeffs, coeffs[::-1]):
            clear_caches()
            assert {c: reduced_homology(K, c) for c in order} == cold
        assert relative() == before


def test_field_homology_not_requested_from_integers():
    with pytest.raises(TypeError):
        reduced_homology(full_simplex(2), "q")


def test_matches_independent_gf2_elimination(rp2):
    for n in (1, 2, 3):
        for K in enumerate_complexes(n):
            expected = {i: b for i, b
                        in gf2_reduced_betti(n, K.facets).items() if b}
            prof = reduced_homology(K, F2)
            mine = {i: prof.free_rank(i) for i in range(-1, n)}
            mine = {i: b for i, b in mine.items() if b}
            assert mine == expected, K.facets
    assert {i: b for i, b in gf2_reduced_betti(6, rp2.facets).items()
            if b} == {1: 1, 2: 1}


def test_euler_poincare_over_rationals():
    for n in (1, 2, 3, 4):
        for K in enumerate_complexes(n):
            prof = reduced_homology(K, Q)
            alt = sum((-1) ** i * prof.free_rank(i) for i in range(-1, n + 1))
            assert alt == reduced_euler_characteristic(K), K.facets


def test_cone_shortcut_agrees_with_matrix_route():
    # complexes sharing vertex 1 across all facets take the cone path;
    # dropping that vertex gives a complex computed by elimination
    K = make_complex(5, [(1, 2, 3), (1, 3, 4), (1, 4, 5)])
    assert K.is_cone
    assert reduced_homology(K, Z).is_trivial
    assert not any(gf2_reduced_betti(5, K.facets).values())


def test_relative_homology_of_disc_mod_boundary(hollow_triangle):
    disc = full_simplex(3)
    prof = relative_homology(disc, hollow_triangle, Z)
    assert prof.entries == ((2, 1, ()),)
    assert relative_homology(disc, hollow_triangle, Q).free_rank(2) == 1
    assert relative_homology(disc, hollow_triangle, F2).free_rank(2) == 1


def test_relative_homology_of_pair_with_torsion(rp2):
    # modulo the 1-skeleton only the 2-cells are left, with no boundary
    # between them: one free generator per triangle, and RP^2 has ten
    skel = make_complex(6, [f for f in rp2.faces() if len(f) == 2])
    prof = relative_homology(rp2, skel, Z)
    assert prof.entries == ((2, 10, ()),)
    assert prof.free_rank(0) == 0


def test_relative_homology_matches_the_mapping_cone_over_fields(rp2):
    # for nonvoid K, H_i(L, K) is the reduced homology of L with a cone
    # on K glued in; the oracle computes the latter without the library
    pairs = [(L, make_complex(L.n, L.facets[:len(L.facets) // 2]))
             for L in random_complexes(7, 1, 60) if len(L.facets) >= 2]
    pairs.append((rp2, make_complex(6, [f for f in rp2.faces()
                                        if len(f) == 2])))
    for L, K in pairs:
        apex = (L.n + 1,)
        cone = frozenset(L.faces()) | {f + apex for f in K.faces()}
        for coeff in (Q, F2, F3):
            prof = relative_homology(L, K, coeff)
            mine = {i: prof.free_rank(i) for i in prof.nonzero_degrees()}
            expected = {i: b for i, b
                        in field_reduced_betti(cone, coeff.p).items() if b}
            assert mine == expected, (L.facets, K.facets, coeff.label)


def test_relative_homology_matches_the_dense_quotient_kernels(rp2):
    join = _rp2_join_tetrahedron_boundary()
    pairs = [(join, make_complex(join.n, join.facets[:len(join.facets) // 2])),
             (rp2, make_complex(6, [f for f in rp2.faces() if len(f) == 2]))]
    pairs += [(L, make_complex(L.n, L.facets[::2]))
              for L in random_complexes(7, 3, 40) if len(L.facets) >= 2][:20]
    assert len(pairs) == 22
    for L, K in pairs:
        for coeff in (Z, Q, F2, F3):
            assert (relative_homology(L, K, coeff)
                    == dense_relative_homology(L, K, coeff)), (
                L.facets, K.facets, coeff.label)
    # the join modulo half its facets keeps torsion in some degree
    assert any(tors for _, _, tors
               in relative_homology(*pairs[0], Z).entries)


def test_cone_route_matches_the_dense_quotient_on_every_small_pair():
    # every complex L on up to 3 vertices, the void one included, against
    # every subcomplex K of L
    kinds = set()
    for n in (1, 2, 3):
        complexes = [make_complex(n, []), *enumerate_complexes(n)]
        faces = {K: set(K.faces()) for K in complexes}
        for L in complexes:
            for K in complexes:
                if not faces[K] <= faces[L]:
                    continue
                if K.dimension < 0:
                    kinds.add(K.kind)
                if K.dimension == 0 and len(K.facets) == 1:
                    kinds.add("vertex")
                if K == L:
                    kinds.add("L")
                for coeff in (Z, Q, F2, F3):
                    assert (relative_homology(L, K, coeff)
                            == dense_relative_homology(L, K, coeff)), (
                        n, L.facets, K.facets, coeff.label)
    assert kinds == {"void", "irrelevant", "vertex", "L"}


def test_two_disjoint_facets_modulo_one_reduce_on_two_points(monkeypatch):
    # the pair of the n 28 input and one of its facets: the cone on that
    # facet strongly collapses, so the core is two points
    L = make_complex(28, [range(1, 15), range(15, 29)])
    K = make_complex(28, [range(1, 15)])
    received = []
    eliminate = homology._eliminate_unit_pivots

    def recording(cols):
        received.append(len(cols))
        return eliminate(cols)

    monkeypatch.setattr(homology, "_eliminate_unit_pivots", recording)
    clear_caches()
    for coeff in (Z, Q, F2, F3):
        assert relative_homology(L, K, coeff).entries == ((0, 1, ()),)
    assert received and max(received) <= 2


def test_reduction_reads_faces_from_the_facet_masks():
    # RP^2 has no dominated vertex, so its core is the complex itself;
    # the reduction, the depth walk and the face counts enumerate face
    # masks and leave nothing on the complex beyond its declared fields
    # and cached properties
    clear_caches()
    K = make_complex(6, rp2_complex().facets)
    assert _core(K) is K
    assert reduced_homology(K, Z).entries == ((1, 0, (2,)),)
    assert depth(K, Q).depth == 3 and depth(K, F2).depth == 2
    assert f_vector(K) == (1, 6, 15, 10)
    assert set(vars(K)) <= {"n", "facets", "facet_masks", "is_cone",
                            "vertices", "_hash"}
    for L in [K, full_simplex(5), *random_complexes(8, 4, 30)]:
        assert [faces for _, faces, _, _ in _reduction(L)] == list(
            f_vector(L))


def test_relative_homology_with_void_subcomplex_is_unreduced():
    pt = make_complex(2, [(1,)])
    prof = relative_homology(pt, make_complex(2, []), Z)
    assert prof.entries == ((0, 1, ()),)


def test_relative_homology_of_equal_pair_vanishes(hollow_triangle):
    assert relative_homology(hollow_triangle, hollow_triangle, Z).is_trivial


def test_relative_homology_validates_pairs(hollow_triangle):
    with pytest.raises(ValueError):
        relative_homology(hollow_triangle, make_complex(2, [(1,)]), Z)
    with pytest.raises(ValueError):
        relative_homology(hollow_triangle, full_simplex(3), Z)
    with pytest.raises(ValueError):
        relative_homology(make_complex(3, []), make_complex(3, [(1,)]), Z)


def test_profile_helpers():
    prof = reduced_homology(make_complex(3, [(1,), (2,), (3,)]), Z)
    assert prof.entries == ((0, 2, ()),)
    assert prof.nonzero_degrees() == [0]
    assert prof.group_is_trivial(1)
    assert not prof.group_is_trivial(0)
    js = prof.as_json()
    assert js["coefficients"] == "Z"
    assert js["groups"] == {"0": {"free": 2, "torsion": []}}


def test_profiles_compare_by_content():
    a = reduced_homology(make_complex(2, [(1, 2)]), Q)
    b = reduced_homology(full_simplex(4), Q)
    assert a == b  # both contractible, ambient size irrelevant


def test_matrix_route_matches_snf_and_rank_paths(rp2):
    # integer result determines field dimensions through rank counting;
    # compare the two independent code paths degree by degree
    for K in [rp2, make_complex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])]:
        z = reduced_homology(K, Z)
        for p, F in ((2, F2), (3, F3)):
            f = reduced_homology(K, F)
            for i in range(-1, K.dimension + 1):
                predicted = (z.free_rank(i)
                             + sum(1 for t in z.torsion(i) if t % p == 0)
                             + sum(1 for t in z.torsion(i - 1) if t % p == 0))
                assert f.free_rank(i) == predicted, (K.facets, F.label, i)
