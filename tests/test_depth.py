"""Depth via the face-link walk, the subset-restriction Betti table as
its second route, and the Reisner oracle."""

from itertools import combinations

import pytest

from oracles import reisner_cohen_macaulay
from spectral_delta import (
    FieldSpec,
    Q,
    Z,
    clear_caches,
    depth,
    full_simplex,
    hochster_betti_table,
    make_complex,
    restriction,
)
from spectral_delta.checks import enumerate_complexes, random_complexes
from spectral_delta.homology import reduced_homology

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)


def table_dict(table):
    return {(i, w): v for i, w, v in table.entries}


def test_hollow_triangle_table_is_a_hypersurface(hollow_triangle):
    t = hochster_betti_table(hollow_triangle, Q)
    assert table_dict(t) == {(0, ()): 1, (1, (1, 2, 3)): 1}
    assert t.value(1, (1, 2, 3)) == 1
    assert t.value(2, (1, 2, 3)) == 0
    assert t.max_degree() == 1


def test_two_points_table(two_points):
    t = hochster_betti_table(two_points, Q)
    assert table_dict(t) == {(0, ()): 1, (1, (1, 2)): 1}


def test_full_simplex_table_is_free():
    t = hochster_betti_table(full_simplex(3), Q)
    assert table_dict(t) == {(0, ()): 1}
    assert t.max_degree() == 0


def test_irrelevant_complex_table_is_the_whole_koszul_shape(irrelevant2):
    t = hochster_betti_table(irrelevant2, Q)
    assert table_dict(t) == {(0, ()): 1, (1, (1,)): 1, (1, (2,)): 1,
                             (2, (1, 2)): 1}


def test_table_entries_depend_only_on_the_restriction():
    K = make_complex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    t = hochster_betti_table(K, Q)
    for i, W, v in t.entries:
        if not W:
            continue
        # recompute the contribution directly from the restriction
        from spectral_delta import reduced_homology
        prof = reduced_homology(restriction(K, W), Q)
        assert prof.free_rank(len(W) - i - 1) == v


def test_table_rejects_bad_inputs(hollow_triangle):
    # both routes refuse the void complex and integer coefficients
    for route in (hochster_betti_table, depth):
        with pytest.raises(ValueError):
            route(make_complex(2, []), Q)
        with pytest.raises(ValueError):
            route(hollow_triangle, Z)
    # only the table walks 2**n vertex subsets, so only it caps n
    with pytest.raises(ValueError, match="exceeds the cap of 16"):
        hochster_betti_table(full_simplex(17), Q)
    # explicit cap raise goes through
    t = hochster_betti_table(full_simplex(17), Q, max_n=17)
    assert t.max_degree() == 0


@pytest.mark.parametrize("route,noun", [(depth, "depth"),
                                        (hochster_betti_table,
                                         "the Betti table")])
def test_routes_name_the_field_rule_before_the_void_complex(route, noun):
    void = make_complex(2, [])
    for K in (void, full_simplex(2)):
        with pytest.raises(ValueError) as exc:
            route(K, Z)
        assert str(exc.value) == (f"{noun} needs field coefficients "
                                  "(q, f2, f3, fp:<p>)")
    with pytest.raises(ValueError) as exc:
        route(void, Q)
    assert str(exc.value) == "the void complex has no face ring"


def test_depth_has_no_vertex_cap():
    # 2**17 faces, within the face budget; the table needs max_n=17
    assert depth(full_simplex(17), Q).depth == 17
    # two disjoint 14-vertex facets: 92 bytes of input on 28 vertices,
    # disconnected, so depth 1
    K = make_complex(28, [range(1, 15), range(15, 29)])
    assert depth(K, Q).one_line() == "pdim=27 depth=1 dim=14 CM=false"
    assert depth(K, F2).depth == 1


def test_depth_refuses_a_complex_above_the_face_budget():
    # 2**23 faces; refused before any is built
    with pytest.raises(ValueError, match=r"face bound 8,388,608 .* exceeds "
                                         r"the face budget 4,194,304"):
        depth(full_simplex(23), Q)


def test_table_shares_memo_entries_between_isomorphic_restrictions():
    # every restriction of the 2-skeleton of a simplex is the 2-skeleton
    # of a smaller simplex, so the 2**8 subsets ask for 9 complexes
    K = make_complex(8, combinations(range(1, 9), 3))
    clear_caches()
    t = hochster_betti_table(K, Q)
    assert reduced_homology.cache_info().currsize <= 9
    assert t.max_degree() == 5 == K.n - depth(K, Q).depth


def test_table_json_layout(two_points):
    js = hochster_betti_table(two_points, Q).as_json()
    assert js["n"] == 2 and js["coefficients"] == "Q"
    assert {"i": 1, "w": [1, 2], "beta": 1} in js["entries"]


def test_depth_of_hollow_triangle_any_field(hollow_triangle):
    for F in (Q, F2, F3):
        rep = depth(hollow_triangle, F)
        assert (rep.pdim, rep.depth, rep.krull_dim) == (1, 2, 2)
        assert rep.cohen_macaulay


def test_depth_of_rp2_depends_on_characteristic(rp2):
    rq = depth(rp2, Q)
    assert (rq.pdim, rq.depth, rq.krull_dim) == (3, 3, 3)
    assert rq.cohen_macaulay
    assert rq.one_line() == "pdim=3 depth=3 dim=3 CM=true"
    r2 = depth(rp2, F2)
    assert (r2.pdim, r2.depth, r2.krull_dim) == (4, 2, 3)
    assert not r2.cohen_macaulay
    assert r2.one_line() == "pdim=4 depth=2 dim=3 CM=false"
    r3 = depth(rp2, F3)
    assert r3.depth == 3 and r3.cohen_macaulay


def test_depth_of_irrelevant_complex_is_zero(irrelevant2):
    rep = depth(irrelevant2, Q)
    assert (rep.pdim, rep.depth, rep.krull_dim) == (2, 0, 0)
    assert rep.cohen_macaulay  # 0 == 0


def test_depth_of_full_simplex_is_everything():
    rep = depth(full_simplex(4), Q)
    assert (rep.pdim, rep.depth, rep.krull_dim) == (0, 4, 4)


def test_depth_of_disjoint_edges_detects_disconnection():
    K = make_complex(4, [(1, 2), (3, 4)])
    rep = depth(K, Q)
    assert rep.depth == 1 and rep.krull_dim == 2
    assert not rep.cohen_macaulay


def test_depth_never_exceeds_krull_dimension():
    for n in (1, 2, 3, 4):
        for K in enumerate_complexes(n):
            rep = depth(K, Q)
            assert 0 <= rep.depth <= rep.krull_dim, K.facets


def test_depth_report_json(two_points):
    js = depth(two_points, Q).as_json()
    assert js == {"coefficients": "Q", "n": 2, "pdim": 1, "depth": 1,
                  "krull_dim": 1, "cohen_macaulay": True}


def test_depth_equal_across_fields_without_torsion():
    # no torsion exists on up to 4 vertices, so the characteristic is
    # invisible and every field gives one answer
    for n in (1, 2, 3, 4):
        for K in enumerate_complexes(n):
            dq = depth(K, Q).depth
            assert depth(K, F2).depth == dq, K.facets
            assert depth(K, F3).depth == dq, K.facets


def test_reisner_oracle_on_rp2(rp2):
    assert reisner_cohen_macaulay(rp2, Q)
    assert not reisner_cohen_macaulay(rp2, F2)
    assert reisner_cohen_macaulay(rp2, F3)


def test_reisner_oracle_trivial_cases(hollow_triangle, irrelevant2):
    assert reisner_cohen_macaulay(full_simplex(3), Q)
    assert reisner_cohen_macaulay(hollow_triangle, Q)
    assert reisner_cohen_macaulay(irrelevant2, Q)
    assert not reisner_cohen_macaulay(make_complex(4, [(1, 2), (3, 4)]), Q)


def test_reisner_oracle_validates_input():
    with pytest.raises(ValueError):
        reisner_cohen_macaulay(make_complex(2, []), Q)
    with pytest.raises(ValueError):
        reisner_cohen_macaulay(full_simplex(2), Z)


def test_oracles_agree_on_small_corpus():
    # two independent characterizations of the same ring property
    for n in (1, 2, 3, 4):
        for K in enumerate_complexes(n):
            for F in (Q, F2):
                assert depth(K, F).cohen_macaulay \
                    == reisner_cohen_macaulay(K, F), (K.facets, F.label)


def test_link_walk_matches_the_betti_table_beyond_five_vertices(rp2):
    # n = 8 complexes and the projective plane, whose depth depends on
    # the characteristic; the n <= 5 corpus is covered by acceptance 10
    for K in random_complexes(8, seed=1, count=60) + [rp2]:
        for F in (Q, F2, F3):
            assert depth(K, F).depth \
                == K.n - hochster_betti_table(K, F).max_degree(), \
                (K.facets, F.label)
