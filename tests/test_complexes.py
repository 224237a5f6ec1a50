"""Combinatorial layer: construction, canonical form, duality, nerve."""

import random
import sys
from itertools import combinations

import pytest

from spectral_delta import (
    DegenerateDualWarning,
    SimplicialComplex,
    alexander_dual,
    boundary_matrix,
    clean_face,
    clear_caches,
    euler_characteristic,
    f_vector,
    full_simplex,
    link,
    make_complex,
    minimal_nonfaces,
    nerve,
    reduced_euler_characteristic,
    restriction,
)
from spectral_delta import complexes
from spectral_delta.checks import (_invariant, enumerate_complexes,
                                   random_complexes)
from spectral_delta.complexes import FACE_BUDGET, _canonical_form, _core

from oracles import (
    brute_canonical_form,
    brute_dual_faces,
    brute_link_faces,
    brute_minimal_nonfaces,
    brute_nerve_faces,
    brute_restriction_faces,
    face_set,
    subsets,
)

# every complex on up to 4 vertices, void ones included, and a seeded
# sample on 8
ORACLE_CORPUS = ([make_complex(n, []) for n in range(5)]
                 + [make_complex(0, [], include_empty=True)]
                 + [K for n in range(1, 5) for K in enumerate_complexes(n)]
                 + random_complexes(8, 1, 60))


def assert_canonical(K):
    """Derived complexes skip validation; the validating constructor must
    accept their facets unchanged."""
    assert SimplicialComplex(K.n, K.facets) == K


def test_clean_face_sorts_and_merges_duplicates():
    assert clean_face([3, 1, 2]) == (1, 2, 3)
    assert clean_face(()) == ()
    assert clean_face([2, 1, 2]) == (1, 2)


def test_make_complex_antichain_input_unchanged(hollow_triangle):
    assert hollow_triangle.facets == ((1, 2), (1, 3), (2, 3))
    assert hollow_triangle.dimension == 1


def test_make_complex_prunes_contained_faces():
    K = make_complex(3, [(1, 2, 3), (1, 2)])
    assert K.facets == ((1, 2, 3),)


def test_make_complex_empty_input_conventions():
    assert make_complex(2, [], include_empty=True).is_irrelevant
    assert make_complex(2, []).is_void
    assert make_complex(0, [], include_empty=True).is_irrelevant


def test_make_complex_rejects_out_of_range_vertex():
    with pytest.raises(ValueError):
        make_complex(2, [(1, 3)])
    with pytest.raises(ValueError):
        make_complex(-1, [])


def test_kind_classification(hollow_triangle, irrelevant2):
    assert make_complex(2, []).kind == "void"
    assert irrelevant2.kind == "irrelevant"
    assert hollow_triangle.kind == "nonempty"


def test_dimension_conventions(hollow_triangle):
    assert make_complex(2, []).dimension == -2
    assert make_complex(2, [], include_empty=True).dimension == -1
    assert make_complex(2, [(1,)]).dimension == 0
    assert hollow_triangle.dimension == 1


def test_direct_construction_validates_antichain():
    with pytest.raises(ValueError):
        SimplicialComplex(3, ((1, 2), (1, 2, 3)))
    with pytest.raises(ValueError):
        SimplicialComplex(3, ((2, 1),))
    with pytest.raises(ValueError):
        SimplicialComplex(3, ((1, 3), (1, 2)))  # not lexicographically sorted


def test_is_face_basics(hollow_triangle, irrelevant2):
    assert hollow_triangle.is_face((1, 2))
    assert not hollow_triangle.is_face((1, 2, 3))
    assert hollow_triangle.is_face(())
    assert irrelevant2.is_face(())
    assert not irrelevant2.is_face((1,))
    assert not make_complex(2, []).is_face(())


def test_is_face_matches_brute_force_face_set():
    # downward closure: membership agrees with explicit face expansion
    for n in (1, 2, 3):
        for K in enumerate_complexes(n):
            expected = face_set(n, K.facets)
            for s in subsets(range(1, n + 1)):
                assert K.is_face(s) == (s in expected), (K.facets, s)


def test_faces_enumeration_is_downward_closed(hollow_triangle):
    faces = list(hollow_triangle.faces())
    assert faces == [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]
    assert hollow_triangle.faces_of_dim(0) == ((1,), (2,), (3,))
    assert hollow_triangle.faces_of_dim(2) == ()


def test_faces_and_boundary_matrices_are_in_lexicographic_order():
    # faces are enumerated as bitmasks, and mask order is not tuple
    # order: (2, 3) = 0b0110 comes before (1, 4) = 0b1001
    for K in ORACLE_CORPUS:
        expected = sorted(face_set(K.n, K.facets), key=lambda f: (len(f), f))
        assert list(K.faces()) == expected, K.facets

        def of_dim(i):
            return [f for f in expected if len(f) == i + 1]

        for i in range(-2, K.dimension + 2):
            assert K.faces_of_dim(i) == tuple(of_dim(i)), (K.facets, i)
        for i in range(-1, K.dimension + 2):
            lower, upper = of_dim(i - 1), of_dim(i)
            rows = [[0] * len(upper) for _ in lower]
            for c, f in enumerate(upper):
                for j in range(len(f)):
                    rows[lower.index(f[:j] + f[j + 1:])][c] = (-1) ** j
            assert boundary_matrix(K, i).data == rows, (K.facets, i)


def test_restriction_matches_brute_force_on_every_subset():
    for K in ORACLE_CORPUS:
        assert_canonical(K)
        faces = face_set(K.n, K.facets)
        for W in subsets(range(1, K.n + 1)):
            R = restriction(K, W)
            assert_canonical(R)
            assert R.n == len(W)
            expected = brute_restriction_faces(faces, W)
            assert face_set(R.n, R.facets) == expected, (K, W)


def test_restriction_of_void_is_void():
    R = restriction(make_complex(3, []), (1, 2))
    assert R.is_void and R.n == 2


def test_restriction_examples(hollow_triangle, irrelevant2):
    assert restriction(hollow_triangle, (1, 2)).facets == ((1, 2),)
    assert restriction(hollow_triangle, (1,)).facets == ((1,),)
    assert restriction(irrelevant2, (1,)).is_irrelevant


def test_restriction_to_full_vertex_set_is_identity():
    for K in enumerate_complexes(3):
        R = restriction(K, (1, 2, 3))
        assert R.facets == K.facets and R.n == K.n


def test_restriction_relabels_order_preserving():
    K = make_complex(5, [(2, 4, 5)])
    R = restriction(K, (2, 4, 5))
    assert R.n == 3 and R.facets == ((1, 2, 3),)
    # vertices outside every facet restrict away cleanly
    R2 = restriction(K, (1, 2, 4))
    assert R2.n == 3 and R2.facets == ((2, 3),)


def test_restriction_never_void_for_nonvoid_input():
    K = make_complex(3, [(1,)])
    assert restriction(K, (2, 3)).is_irrelevant


def test_minimal_nonfaces(hollow_triangle):
    assert minimal_nonfaces(hollow_triangle) == [(1, 2, 3)]
    assert minimal_nonfaces(full_simplex(3)) == []
    assert minimal_nonfaces(make_complex(2, [(1,), (2,)])) == [(1, 2)]
    assert minimal_nonfaces(make_complex(2, [], include_empty=True)) \
        == [(1,), (2,)]


def test_minimal_nonfaces_match_the_subset_scan():
    corpus = ([K for n in range(1, 6) for K in enumerate_complexes(n)]
              + [make_complex(n, [], include_empty=e)
                 for n in range(5) for e in (False, True)]
              + [full_simplex(n) for n in range(5)]
              + random_complexes(8, 1, 60))
    for K in corpus:
        assert minimal_nonfaces(K) == brute_minimal_nonfaces(K.n, K.facets), \
            K


def test_dual_of_hollow_triangle_is_irrelevant(hollow_triangle):
    assert alexander_dual(hollow_triangle).is_irrelevant


def test_dual_of_two_points_is_irrelevant(two_points):
    assert alexander_dual(two_points).is_irrelevant


def test_dual_matches_brute_force_definition():
    # faces of the dual are exactly the complements of nonfaces
    for n in (2, 3):
        for K in enumerate_complexes(n):
            if K.is_full_simplex:
                continue
            D = alexander_dual(K)
            assert_canonical(D)
            assert face_set(n, D.facets) == brute_dual_faces(n, K.facets), \
                K.facets


def test_dual_is_an_involution_exhaustively():
    for n in (1, 2, 3, 4, 5):
        for K in enumerate_complexes(n):
            if K.is_full_simplex:
                continue
            assert alexander_dual(alexander_dual(K)) == K


def test_dual_degenerate_inputs_warn():
    with pytest.warns(DegenerateDualWarning):
        D = alexander_dual(full_simplex(2))
    assert D.is_void
    with pytest.warns(DegenerateDualWarning):
        D = alexander_dual(make_complex(2, []))
    assert D.is_full_simplex and D.n == 2


def test_dual_warns_on_every_call():
    # the dual is memoised; the warning must not be
    for K in (make_complex(3, []), full_simplex(3)):
        duals = []
        for _ in range(2):
            with pytest.warns(DegenerateDualWarning):
                duals.append(alexander_dual(K))
        assert duals[0] == duals[1]


def test_nerve_of_hollow_triangle_facets():
    N = nerve([(1, 2), (1, 3), (2, 3)])
    assert N.n == 3
    assert N.facets == ((1, 2), (1, 3), (2, 3))


def test_nerve_single_facet_is_a_point():
    assert nerve([(1, 2, 3)]).facets == ((1,),)


def test_nerve_of_disjoint_edges_is_two_points():
    assert nerve([(1, 2), (3, 4)]).facets == ((1,), (2,))


def test_nerve_rejects_empty_cover():
    with pytest.raises(ValueError):
        nerve([])


def test_nerve_matches_brute_force_definition():
    covers = [
        [(1, 2), (2, 3), (3, 4), (1, 4)],
        [(1,), (1, 2), (2, 3)],
        [(1, 2, 3), (3, 4, 5), (5, 6, 1)],
        [(1, 2), (1, 2), (3,)],
    ]
    for cover in covers:
        N = nerve(cover)
        assert_canonical(N)
        assert face_set(N.n, N.facets) == brute_nerve_faces(cover), cover


def test_nerve_of_more_than_twenty_members():
    # no subset-lattice walk, so no cap on the number of members
    shared = nerve([(1, v) for v in range(2, 23)])
    assert shared.n == 21 and shared.facets == (tuple(range(1, 22)),)
    disjoint = nerve([(v,) for v in range(1, 22)])
    assert disjoint.facets == tuple((i,) for i in range(1, 22))


def test_nerve_of_empty_members_is_irrelevant():
    N = nerve([(), ()])
    assert N.is_irrelevant and N.n == 2


def test_link_matches_brute_force_on_every_face():
    for K in ORACLE_CORPUS:
        faces = face_set(K.n, K.facets)
        for s in faces:
            L = link(K, s)
            assert_canonical(L)
            assert L.n == K.n - len(s)
            expected = brute_link_faces(faces, K.n, s)
            assert face_set(L.n, L.facets) == expected, (K, s)


def test_link_of_empty_face_is_the_complex(hollow_triangle):
    assert link(hollow_triangle, ()) == hollow_triangle


def test_link_of_vertex_in_hollow_triangle(hollow_triangle):
    lk = link(hollow_triangle, (1,))
    assert lk.n == 2 and lk.facets == ((1,), (2,))


def test_link_of_edge_in_full_simplex():
    lk = link(full_simplex(3), (1, 2))
    assert lk.n == 1 and lk.facets == ((1,),)


def test_link_of_facet_is_irrelevant(hollow_triangle):
    assert link(hollow_triangle, (1, 2)).is_irrelevant


def test_link_rejects_nonface(hollow_triangle):
    with pytest.raises(ValueError):
        link(hollow_triangle, (1, 2, 3))


def test_f_vector_and_euler(hollow_triangle, rp2):
    assert f_vector(hollow_triangle) == (1, 3, 3)
    assert euler_characteristic(hollow_triangle) == 0
    assert reduced_euler_characteristic(hollow_triangle) == -1
    assert euler_characteristic(full_simplex(3)) == 1
    assert f_vector(rp2) == (1, 6, 15, 10)
    assert euler_characteristic(rp2) == 1


def test_f_vector_degenerate_cases():
    assert f_vector(make_complex(2, [])) == (0,)
    assert f_vector(make_complex(2, [], include_empty=True)) == (1,)
    assert euler_characteristic(make_complex(2, [])) == 0


def test_every_face_walk_refuses_above_the_face_budget():
    # 2**23 faces, over the budget of 2**22: each walk is refused before
    # it builds a face
    K = full_simplex(23)
    walks = [f_vector, euler_characteristic, reduced_euler_characteristic,
             lambda K: K.faces_of_dim(0), lambda K: next(K.faces()),
             lambda K: boundary_matrix(K, 1)]
    for walk in walks:
        with pytest.raises(ValueError, match="face bound 8,388,608 "):
            walk(K)
    assert FACE_BUDGET == 1 << 22


def test_the_face_budget_admits_its_own_size(monkeypatch):
    monkeypatch.setattr(complexes, "FACE_BUDGET", 8)
    assert f_vector(full_simplex(3)) == (1, 3, 3, 1)
    with pytest.raises(ValueError, match="face bound 16 .* face budget 8$"):
        f_vector(full_simplex(4))
    # the bound sums over facets: two disjoint edges have 4 + 4
    assert f_vector(make_complex(4, [(1, 2), (3, 4)])) == (1, 4, 2)
    with pytest.raises(ValueError, match="face bound 10 "):
        f_vector(make_complex(5, [(1, 2), (3, 4), (5,)]))


def test_the_dual_refuses_more_vertex_entries_than_the_face_budget(
        monkeypatch):
    clear_caches()
    # 2,999 facets of 2,999 vertices each
    with pytest.raises(ValueError, match=r"the dual's 8,994,001 vertex "
                                         r"entries exceed the face budget"):
        alexander_dual(make_complex(3000, [(1,)]))
    # three facets of three vertices, at a budget of 9 and of 8
    K = make_complex(4, [(1,)])
    monkeypatch.setattr(complexes, "FACE_BUDGET", 9)
    assert alexander_dual(K).facets == ((1, 2, 3), (1, 2, 4), (1, 3, 4))
    clear_caches()
    monkeypatch.setattr(complexes, "FACE_BUDGET", 8)
    with pytest.raises(ValueError, match="9 vertex entries"):
        alexander_dual(K)


def test_is_cone_detection(hollow_triangle):
    assert full_simplex(4).is_cone
    assert make_complex(3, [(1, 2), (1, 3)]).is_cone
    assert not hollow_triangle.is_cone
    assert not make_complex(2, [], include_empty=True).is_cone


def test_full_simplex_is_canonical():
    for n in range(5):
        assert_canonical(full_simplex(n))
    assert full_simplex(0).is_irrelevant


def test_vertices_property():
    K = make_complex(4, [(1, 3)])
    assert K.vertices == (1, 3)
    assert full_simplex(3).vertices == (1, 2, 3)


def test_hash_is_the_dataclass_value_computed_once(rp2):
    for K in ORACLE_CORPUS + [rp2]:
        twin = SimplicialComplex(K.n, K.facets)
        assert hash(K) == hash(twin) == hash((K.n, K.facets))
        assert K == twin
        # computed on the first call, then read back
        assert vars(K)["_hash"] == hash((K.n, K.facets))


def _dominated(K):
    """Vertices whose facets all share some other vertex, from the facet
    tuples."""
    out = []
    for v in K.vertices:
        through = [set(f) for f in K.facets if v in f]
        if len(set.intersection(*through)) > 1:
            out.append(v)
    return out


def _relabel(K, rng):
    perm = list(range(1, K.n + 1))
    rng.shuffle(perm)
    return make_complex(K.n, [[perm[v - 1] for v in f] for f in K.facets],
                        include_empty=K.is_irrelevant)


def test_core_has_no_dominated_vertex(hollow_triangle, rp2):
    complexes = ORACLE_CORPUS + random_complexes(9, 3, 60) + [rp2]
    for K in complexes:
        core = _core(K)
        assert _dominated(core) == [], K.facets
        # relabeled onto exactly the vertices it uses
        assert core.vertices == tuple(range(1, core.n + 1)), K.facets
        assert core.is_void == K.is_void
    # nothing to delete and no unused vertex: K itself comes back
    clear_caches()
    assert _core(hollow_triangle) is hollow_triangle
    assert _core(rp2) is rp2
    # an unused ambient vertex is dropped
    assert _core(make_complex(4, [(1, 2), (1, 3), (2, 3)])) == hollow_triangle


def test_core_of_a_cone_a_path_and_a_simplex_is_one_point(hollow_triangle):
    point = make_complex(1, [(1,)])
    cone = make_complex(4, [f + (4,) for f in hollow_triangle.facets])
    path = make_complex(6, [(i, i + 1) for i in range(1, 6)])
    for K in [cone, path] + [full_simplex(k) for k in range(1, 8)]:
        assert _core(K) == point, K.facets


def test_core_f_vector_does_not_depend_on_the_labels(rp2):
    # the strong core is unique up to isomorphism (Barmak and Minian)
    rng = random.Random(5)
    for K in random_complexes(9, 3, 60) + [rp2]:
        expected = f_vector(_core(K))
        for _ in range(4):
            assert f_vector(_core(_relabel(K, rng))) == expected, K.facets


def test_canonical_forms_split_every_small_corpus_into_its_oracle_classes():
    for n in range(1, 6):
        corpus = list(enumerate_complexes(n))
        forms = [_canonical_form(K) for K in corpus]
        oracle = [brute_canonical_form(n, K.facets) for K in corpus]
        # one form per oracle class and one oracle class per form
        assert len(set(forms)) == len(set(oracle)) == len(
            set(zip(forms, oracle))), n
    assert len(set(forms)) == 209


def test_canonical_form_is_the_same_under_every_relabelling(rp2):
    rng = random.Random(9)
    # a triangle and a square of edges: refinement leaves all seven
    # vertices in one cell, which is not an orbit
    square_and_triangle = make_complex(
        7, [(1, 2), (1, 3), (2, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
    corpus = [K for n in (8, 9, 10) for K in random_complexes(n, 50 + n, 20)]
    for K in corpus + [rp2, square_and_triangle]:
        # on one more vertex, so that an unused vertex moves too
        n = K.n + 1
        form = _canonical_form(make_complex(n, K.facets))
        for _ in range(4):
            image = rng.sample(range(1, n + 1), n)
            moved = make_complex(n, [[image[v - 1] for v in f]
                                     for f in K.facets])
            assert _canonical_form(moved) == form, (K.facets, image)


def test_canonical_form_tells_apart_complexes_that_share_the_invariant(rp2):
    hexagon = make_complex(6, [(i, i % 6 + 1) for i in range(1, 7)])
    triangles = make_complex(6, [(1, 2), (1, 3), (2, 3),
                                 (4, 5), (4, 6), (5, 6)])
    # ten triangles on six vertices, acyclic over Z, with the vertex
    # degrees of the six-vertex projective plane
    acyclic = make_complex(6, [(1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 5),
                               (1, 3, 6), (2, 3, 6), (2, 4, 5), (2, 4, 6),
                               (3, 4, 5), (4, 5, 6)])
    for K, L in [(hexagon, triangles), (rp2, acyclic)]:
        assert _invariant(K) == _invariant(L)
        assert _canonical_form(K) != _canonical_form(L)
        assert (brute_canonical_form(6, K.facets)
                != brute_canonical_form(6, L.facets))


def _searches(K):
    """The form of K and the number of nodes its search visited."""
    nodes = 0

    def count(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code.co_name == "search":
            nodes += 1

    sys.setprofile(count)
    try:
        form = _canonical_form(K)
    finally:
        sys.setprofile(None)
    return form, nodes


def test_a_cell_of_twins_is_branched_on_once(rp2):
    rng = random.Random(4)
    for k in range(1, 8):
        boundary = make_complex(k, combinations(range(1, k + 1), k - 1))
        for K in (full_simplex(k), boundary):
            # every pair of vertices are twins: one node per vertex
            form, nodes = _searches(K)
            assert nodes == k, (K.facets, nodes)
            assert _searches(_relabel(K, rng))[0] == form
    # no two vertices of the projective plane are twins, so every member
    # of a cell is tried: 1 + 6 + 30 inner nodes, and one leaf for each
    # of its 60 automorphisms
    form, nodes = _searches(rp2)
    assert nodes == 97
    for _ in range(3):
        assert _searches(_relabel(rp2, rng))[0] == form
