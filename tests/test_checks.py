"""Theorem checks and sweep machinery."""

import hashlib
import json
from itertools import combinations

import pytest

from spectral_delta import (
    FieldSpec,
    Q,
    Z,
    clear_caches,
    full_simplex,
    make_complex,
)
from spectral_delta import checks, homology
from spectral_delta.checks import (
    CHECK_IDS,
    CheckOutcome,
    check_alexander_duality,
    check_uct,
    enumerate_complexes,
    random_complexes,
    resolve_threads,
    run_instance,
    sweep,
)
from spectral_delta.cli import main

from oracles import count_antichains, count_nonvoid_complexes

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)


def test_enumeration_counts_match_both_oracles():
    for n in (1, 2, 3):
        got = sum(1 for _ in enumerate_complexes(n))
        assert got == count_nonvoid_complexes(n)
        assert got == count_antichains(n)
    assert sum(1 for _ in enumerate_complexes(1)) == 2
    assert sum(1 for _ in enumerate_complexes(2)) == 5
    assert sum(1 for _ in enumerate_complexes(3)) == 19
    assert sum(1 for _ in enumerate_complexes(4)) == count_antichains(4) == 167


def test_enumeration_is_duplicate_free_and_canonical():
    seen = set()
    for K in enumerate_complexes(3):
        assert K.n == 3
        assert K.facets not in seen
        seen.add(K.facets)
        assert make_complex(3, K.facets,
                            include_empty=K.is_irrelevant) == K


def test_enumeration_starts_with_the_irrelevant_complex():
    first = next(enumerate_complexes(4))
    assert first.is_irrelevant


def test_enumeration_refuses_out_of_range():
    with pytest.raises(ValueError):
        list(enumerate_complexes(6))
    with pytest.raises(ValueError):
        list(enumerate_complexes(0))


def test_random_corpus_is_deterministic():
    a = random_complexes(8, seed=1, count=20)
    b = random_complexes(8, seed=1, count=20)
    assert a == b
    assert len(a) == 20
    assert all(K.n == 8 and not K.is_void for K in a)
    assert random_complexes(8, seed=2, count=20) != a


def test_random_corpus_rejects_a_negative_count():
    with pytest.raises(ValueError,
                       match="^count must be nonnegative, got -5$"):
        random_complexes(8, seed=1, count=-5)
    assert random_complexes(8, seed=1, count=0) == []


def test_outcome_expectation_polarity():
    good = CheckOutcome("x", "{}", "Q", passed=True)
    assert not good.unexpected
    bad = CheckOutcome("x", "{}", "Q", passed=False)
    assert bad.unexpected
    documented = CheckOutcome("x", "{}", "Z", passed=False, expect_pass=False)
    assert not documented.unexpected
    surprise_pass = CheckOutcome("x", "{}", "Z", passed=True,
                                 expect_pass=False)
    assert surprise_pass.unexpected


def outcome(K, check_id, coeff=None):
    """The single outcome record run_instance builds for one check."""
    [out] = run_instance(K, (check_id,), () if coeff is None else (coeff,))
    return out


def test_hartshorne_examples(hollow_triangle, two_points):
    assert outcome(hollow_triangle, "hartshorne", Q).passed
    assert outcome(two_points, "hartshorne", Q).passed  # depth 1: vacuous
    assert outcome(full_simplex(3), "hartshorne", F2).passed


def test_depth_vanishing_examples(rp2):
    assert outcome(rp2, "depth_vanishing", Q).passed
    assert outcome(full_simplex(2), "depth_vanishing", F3).passed


def test_depth_vanishing_torsion_witness_is_an_expected_failure(rp2):
    # depth 3 over the rationals, yet the derived complex keeps 2-torsion
    # in degree 1 <= depth - 2: the documented integer-coefficient gap.
    # The check downgrades the polarity itself on torsion-only failures.
    out = outcome(rp2, "depth_vanishing", Z)
    assert not out.passed
    assert not out.expect_pass
    assert not out.unexpected
    assert out.witness["degree"] == 1
    assert out.witness["free"] == 0
    assert out.witness["torsion"] == [2]
    assert out.witness["depth"] == 3
    # and the same statement over any field is clean
    for F in (Q, F2, F3):
        assert outcome(rp2, "depth_vanishing", F).passed


def test_depth_vanishing_integral_pass_keeps_positive_polarity(
        hollow_triangle):
    out = outcome(hollow_triangle, "depth_vanishing", Z)
    assert out.passed and out.expect_pass


def test_few_facets_examples(hollow_triangle):
    assert outcome(hollow_triangle, "few_facets", Q).passed
    assert outcome(full_simplex(1), "few_facets", Q).passed
    assert outcome(hollow_triangle, "few_facets", Z).passed


def test_generator_count_examples(hollow_triangle):
    assert outcome(full_simplex(3), "generator_count", Q).passed
    assert outcome(hollow_triangle, "generator_count", F2).passed


def test_duality_examples(hollow_triangle, two_points, rp2):
    assert outcome(hollow_triangle, "alexander_duality", Q).passed
    assert outcome(two_points, "alexander_duality", Q).passed
    assert outcome(rp2, "alexander_duality", F2).passed
    with pytest.raises(ValueError):
        check_alexander_duality(full_simplex(2), Q)
    with pytest.raises(ValueError):
        check_alexander_duality(make_complex(2, [], include_empty=True), Q)


def test_nerve_and_iso_examples(hollow_triangle, rp2):
    assert outcome(hollow_triangle, "nerve", Z).passed
    assert outcome(full_simplex(3), "nerve", Q).passed
    assert outcome(rp2, "nerve", Z).passed
    assert outcome(hollow_triangle, "delta_iso_nerve").passed
    assert outcome(rp2, "delta_iso_nerve").passed


def test_uct_examples(hollow_triangle, rp2):
    assert outcome(rp2, "uct", F2).passed
    assert outcome(rp2, "uct", F3).passed
    assert outcome(hollow_triangle, "uct", F2).passed
    with pytest.raises(ValueError):
        check_uct(rp2, Q)


def test_run_instance_respects_coefficient_policies(hollow_triangle):
    outs = run_instance(hollow_triangle, CHECK_IDS, (Z, Q, F2))
    by_check = {}
    for o in outs:
        by_check.setdefault(o.check_id, []).append(o.coeff)
    # field-only statements skip the integers in sweeps; depth_vanishing
    # keeps them because its integral failures carry their own polarity
    assert by_check["depth_vanishing"] == ["Z", "Q", "F2"]
    assert by_check["alexander_duality"] == ["Q", "F2"]
    assert by_check["generator_count"] == ["Q", "F2"]
    assert by_check["hartshorne"] == ["Z", "Q", "F2"]
    assert by_check["nerve"] == ["Z", "Q", "F2"]
    assert by_check["uct"] == ["F2"]
    assert by_check["delta_iso_nerve"] == ["-"]


def test_run_instance_skips_duality_on_degenerate_complexes():
    outs = run_instance(full_simplex(2), ("alexander_duality",), (Q,))
    assert outs == []


def test_run_instance_skips_ring_checks_on_the_void_complex():
    void = make_complex(3, [])
    outs = run_instance(void, CHECK_IDS, (Z, Q, F2))
    survivors = {o.check_id for o in outs}
    assert survivors == {"few_facets", "uct"}
    assert all(o.passed for o in outs)


def test_run_instance_records_the_integral_torsion_sighting(rp2):
    outs = run_instance(rp2, ("depth_vanishing",), (Z, Q))
    by_coeff = {o.coeff: o for o in outs}
    assert not by_coeff["Z"].passed
    assert not by_coeff["Z"].unexpected
    assert by_coeff["Q"].passed


def test_sweep_with_integer_coefficients_has_no_expected_failures():
    # no complex on 4 or fewer vertices carries torsion, so even the
    # integral depth statement holds exhaustively there
    rep = sweep(4, coeffs=(Z,), check_ids=("depth_vanishing",))
    assert rep.complexes == 167
    assert rep.unexpected_failures == 0
    assert rep.tallies["depth_vanishing"] == {
        "pass": 167, "fail": 0, "expected_fail": 0}


def test_sweep_exhaustive_n3_is_clean():
    rep = sweep(3, coeffs=(Q, F2))
    assert rep.complexes == 19
    assert rep.unexpected_failures == 0
    assert rep.failures == []
    for cid in CHECK_IDS:
        assert rep.tallies[cid]["fail"] == 0
    # every complex yields one nerve outcome per coefficient system
    assert rep.tallies["nerve"]["pass"] == 38
    # duality skips the irrelevant complex and the three full simplices
    applicable = 19 - 1 - 1
    assert rep.tallies["alexander_duality"]["pass"] == applicable * 2


def test_sweep_bodies_are_reproducible():
    a = sweep(2, coeffs=(Q, F2, F3))
    b = sweep(2, coeffs=(Q, F2, F3))
    assert a.body_json() == b.body_json()
    assert json.dumps(a.body_json()) == json.dumps(b.body_json())
    assert a.elapsed >= 0.0  # timing lives outside the body


def test_sweep_random_mode_is_reproducible():
    a = sweep(6, mode="random", seed=3, count=12, coeffs=(Q,),
              check_ids=("few_facets", "nerve"))
    b = sweep(6, mode="random", seed=3, count=12, coeffs=(Q,),
              check_ids=("few_facets", "nerve"))
    assert a.body_json() == b.body_json()
    assert a.complexes == 12


def test_sweep_parallel_matches_serial():
    serial = sweep(3, coeffs=(Q,), check_ids=("nerve", "few_facets"),
                   threads=1)
    parallel = sweep(3, coeffs=(Q,), check_ids=("nerve", "few_facets"),
                     threads=2)
    assert serial.body_json() == parallel.body_json()


@pytest.mark.parametrize("args", [
    dict(n=4),
    dict(n=7, mode="random", seed=1, count=60),
])
def test_sweep_bodies_match_across_worker_counts(args, monkeypatch):
    # integer coefficients switch on the torsion tally, which the
    # parallel branch takes from the workers
    monkeypatch.delenv("SPECTRAL_DELTA_THREADS", raising=False)
    coeffs = (Z, Q, F2)
    serial = sweep(**args, coeffs=coeffs, threads=1)
    parallel = sweep(**args, coeffs=coeffs, threads=2)
    assert serial.body_json() == parallel.body_json()


def _digest(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


# sha256 of the sorted JSON: any change to a verdict, a witness or the
# layout of the records shows here, not only a serial/parallel mismatch
@pytest.mark.parametrize("args,digest", [
    (dict(n=4),
     "82284ef2e22e679bfe20bfbffc879c2eaf643da4c8348b64b83673d8c3cc3884"),
    (dict(n=7, mode="random", seed=3, count=60),
     "5d0cd729581d47139c3a95a96bc36626fe97c5e504c9fcfbb0789588da3b3120"),
], ids=["n4", "n7-random"])
def test_sweep_bodies_are_pinned(args, digest):
    body = sweep(**args, coeffs=(Z, Q, F2, F3)).body_json()
    assert _digest(body) == digest


def test_rp2_outcome_records_are_pinned(rp2):
    # covers the integral torsion witness and its expected failure
    records = [o.as_json() for o in run_instance(rp2, CHECK_IDS,
                                                 (Z, Q, F2, F3))]
    assert _digest(records) == (
        "928feb533503e1f735928366eebeb41fd37c033cb8ec11fc06f6c467ef96b841")


def test_worker_reports_torsion_with_its_outcomes(rp2):
    coeffs = (Z, Q)
    assert checks._run_one(rp2, CHECK_IDS, coeffs) == (
        run_instance(rp2, CHECK_IDS, coeffs), True)
    assert checks._run_one(rp2, CHECK_IDS, (Q,))[1] is False


def test_sweep_validates_arguments():
    with pytest.raises(ValueError):
        sweep(3, check_ids=("no_such_check",))
    with pytest.raises(ValueError):
        sweep(3, mode="stochastic")
    with pytest.raises(ValueError):
        sweep(6, mode="random", seed=1)  # missing count
    with pytest.raises(ValueError):
        sweep(6)  # exhaustive beyond the cap


def test_sweep_report_text_rendering():
    rep = sweep(2, coeffs=(Q,))
    text = rep.render_text()
    assert text.splitlines()[0] == "sweep n=2 mode=exhaustive"
    assert "complexes: 5" in text
    assert "unexpected failures: 0" in text
    assert text.splitlines()[-1].startswith("elapsed:")


def test_torsion_tally_counts_integer_sightings():
    rep = sweep(3, coeffs=(Z, Q))
    assert rep.torsion_sightings == 0  # none exists at this size


def test_resolve_threads_env_interaction(monkeypatch):
    monkeypatch.delenv("SPECTRAL_DELTA_THREADS", raising=False)
    assert resolve_threads(None) == 1
    assert resolve_threads(4) == 4
    monkeypatch.setenv("SPECTRAL_DELTA_THREADS", "2")
    assert resolve_threads(None) == 2
    assert resolve_threads(8) == 2
    assert resolve_threads(1) == 1
    monkeypatch.setenv("SPECTRAL_DELTA_THREADS", "zero")
    with pytest.raises(ValueError):
        resolve_threads(None)
    monkeypatch.setenv("SPECTRAL_DELTA_THREADS", "0")
    with pytest.raises(ValueError):
        resolve_threads(None)
    monkeypatch.delenv("SPECTRAL_DELTA_THREADS")
    with pytest.raises(ValueError):
        resolve_threads(0)


def test_one_elimination_per_complex_for_all_coefficients(monkeypatch, rp2):
    calls = []
    eliminate = homology._eliminate_unit_pivots

    def counting(cols):
        calls.append(1)
        return eliminate(cols)

    # where the homology kernel looks it up
    monkeypatch.setattr(homology, "_eliminate_unit_pivots", counting)

    def eliminations(K, coeffs):
        clear_caches()
        calls.clear()
        run_instance(K, CHECK_IDS, coeffs)
        return len(calls)

    total = 0
    for K in [rp2] + random_complexes(8, 1, 20):
        one = eliminations(K, (Q,))
        assert eliminations(K, (Z, Q, F2, F3)) <= one, K.facets
        total += one
    assert total > 0


def _cone(K):
    return make_complex(K.n + 1, [f + (K.n + 1,) for f in K.facets])


def _join(K, L):
    return make_complex(K.n + L.n, [f + tuple(K.n + v for v in g)
                                    for f in K.facets for g in L.facets])


def test_a_planted_defect_fails_the_sweep(monkeypatch, capsys, tmp_path):
    # the facet nerve replaced by the cone on K, which has no homology
    # and the wrong vertex count: the nerve check fails wherever K has
    # homology, and delta_iso_nerve fails everywhere
    monkeypatch.setattr(checks, "nerve_of_facets", _cone)
    monkeypatch.delenv("SPECTRAL_DELTA_THREADS", raising=False)
    clear_caches()
    rep = sweep(4, threads=1)
    assert {cid: t["fail"] for cid, t in rep.tallies.items()} == {
        "hartshorne": 0, "depth_vanishing": 0, "few_facets": 0,
        "generator_count": 0, "alexander_duality": 0, "uct": 0,
        "nerve": 306, "delta_iso_nerve": 167}
    assert rep.tallies["nerve"]["pass"] == 195
    assert rep.unexpected_failures == 306 + 167
    assert len(rep.failures) == rep.FAILURE_CAP == 100
    assert all(not f["passed"] and f["expect_pass"] for f in rep.failures)
    assert rep.failures[0] == {
        "check": "nerve", "instance": '{"n":4,"facets":[[]]}',
        "coefficients": "Q", "passed": False, "expect_pass": True,
        "witness": {"complex": {"coefficients": "Q",
                                "groups": {"-1": {"free": 1, "torsion": []}}},
                    "nerve": {"coefficients": "Q", "groups": {}}}}
    fail_lines = [line for line in rep.render_text().splitlines()
                  if line.startswith("  FAIL ")]
    assert len(fail_lines) == 10
    assert fail_lines[0] == '  FAIL nerve [Q] {"n":4,"facets":[[]]}'

    assert main(["sweep", "-n", "4", "--checks", "nerve,delta_iso_nerve",
                 "--fields", "q"]) == 1
    out = capsys.readouterr().out
    assert "unexpected failures: 269" in out
    assert sum(line.startswith("  FAIL ") for line in out.splitlines()) == 10
    p = tmp_path / "hollow.cplx"
    p.write_text("n 3\nfacet 1 2\nfacet 1 3\nfacet 2 3\n")
    assert main(["check", str(p), "--checks", "nerve,delta_iso_nerve",
                 "--fields", "q"]) == 1
    assert capsys.readouterr().out == (
        "nerve [Q] FAIL\ndelta_iso_nerve [-] FAIL\n")


def test_a_sweep_sees_torsion(monkeypatch, rp2):
    # RP^2, its suspension and its join with a 2-sphere carry Z/2 in
    # degrees 1, 2 and 4; the join's 40 primes are past delta's limit
    # and its facet nerve past the face budget, so it meets only the
    # checks on K itself
    suspension = _join(rp2, make_complex(2, [(1,), (2,)]))
    join = _join(rp2, make_complex(4, combinations(range(1, 5), 3)))
    monkeypatch.setattr(checks, "random_complexes",
                        lambda n, seed, count: [rp2, suspension, join][:count])
    monkeypatch.delenv("SPECTRAL_DELTA_THREADS", raising=False)
    rep = sweep(8, mode="random", seed=0, count=2, coeffs=(Z, Q),
                check_ids=("depth_vanishing",), threads=1)
    assert rep.tallies == {
        "depth_vanishing": {"pass": 2, "fail": 0, "expected_fail": 2}}
    assert (rep.torsion_sightings, rep.unexpected_failures) == (2, 0)
    rep = sweep(10, mode="random", seed=0, count=3, coeffs=(Z, F2),
                check_ids=("few_facets", "uct"), threads=1)
    assert rep.tallies == {
        "few_facets": {"pass": 6, "fail": 0, "expected_fail": 0},
        "uct": {"pass": 3, "fail": 0, "expected_fail": 0}}
    assert (rep.torsion_sightings, rep.unexpected_failures) == (3, 0)
    assert "torsion sightings: 3" in rep.render_text()


# ten triangles on six vertices with the per-vertex facet sizes of the
# six-vertex projective plane, so the same cheap orbit invariant, but
# acyclic over Z
_RP2_LOOKALIKE = make_complex(6, [
    (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 3, 6), (2, 3, 6),
    (2, 4, 5), (2, 4, 6), (3, 4, 5), (4, 5, 6)])


@pytest.mark.parametrize("rp2_first", [True, False])
def test_a_sweep_tells_orbits_apart_by_form_not_invariant(monkeypatch, rp2,
                                                          rp2_first):
    assert checks._invariant(rp2) == checks._invariant(_RP2_LOOKALIKE)
    corpus = [rp2, _RP2_LOOKALIKE][::1 if rp2_first else -1]
    monkeypatch.setattr(checks, "random_complexes",
                        lambda n, seed, count: corpus[:count])
    monkeypatch.delenv("SPECTRAL_DELTA_THREADS", raising=False)
    clear_caches()
    rep = sweep(6, mode="random", seed=0, count=2, coeffs=(Z, Q),
                check_ids=("depth_vanishing",), threads=1)
    # only the projective plane fails over Z and carries torsion
    assert rep.tallies == {
        "depth_vanishing": {"pass": 3, "fail": 0, "expected_fail": 1}}
    assert (rep.torsion_sightings, rep.unexpected_failures) == (1, 0)


def test_a_failure_met_again_in_an_orbit_gets_its_own_witness(monkeypatch):
    # a hollow triangle with a tail, then a relabelling of it, under the
    # planted cone defect: every record fails, and delta_iso_nerve's
    # witness lists facets in each complex's own labels
    K = make_complex(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    image = (5, 3, 1, 2, 4)
    L = make_complex(5, [[image[v - 1] for v in f] for f in K.facets])
    monkeypatch.setattr(checks, "nerve_of_facets", _cone)
    monkeypatch.setattr(checks, "random_complexes",
                        lambda n, seed, count: [K, L][:count])
    monkeypatch.delenv("SPECTRAL_DELTA_THREADS", raising=False)
    clear_caches()
    check_ids, coeffs = ("nerve", "delta_iso_nerve"), (Q, F2)
    rep = sweep(5, mode="random", seed=0, count=2, coeffs=coeffs,
                check_ids=check_ids, threads=1)
    # L was met as a member of K's orbit
    [orbit] = checks._orbits(checks._invariant(L), check_ids, coeffs, False)
    assert orbit[0] is K
    direct = []
    for M in (K, L):
        for cid, args in [("nerve", (Q,)), ("nerve", (F2,)),
                          ("delta_iso_nerve", ())]:
            witness, expect_pass = checks.CHECKS[cid][0](M, *args)
            direct.append(CheckOutcome(
                cid, checks._describe(M), args[0].label if args else "-",
                witness is None, expect_pass, witness).as_json())
    assert rep.failures == direct
    assert direct[2]["witness"] != direct[5]["witness"]
    clear_caches()
