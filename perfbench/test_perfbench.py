"""Tests of the benchmark itself: python -m pytest perfbench -q"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

sd = run.load_library()

import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def work(tmp_path):
    return tmp_path


def _corrupt(real):
    """reduced_homology with one Betti number raised by one."""
    def corrupted(K, coeff):
        p = real(K, coeff)
        entries = list(p.entries) or [(0, 0, ())]
        deg, free, tors = entries[0]
        entries[0] = (deg, free + 1, tors)
        return dataclasses.replace(p, entries=tuple(entries))
    return corrupted


def test_gate_catches_a_changed_betti_number(work, monkeypatch):
    w = workloads.HomologyLarge(run.DEFAULT_SEED, work)
    clean = w.run(0)
    assert clean.failed == 0
    golden = run.golden_table(w.name, run.DEFAULT_SEED)
    assert run.count_failures([clean], golden) == 0

    monkeypatch.setattr(sd, "reduced_homology", _corrupt(sd.reduced_homology))
    bad = w.run(0)
    assert bad.failed > 0                      # invariants, any seed
    assert run.count_failures([bad], None) > 0
    assert run.count_failures([bad], golden) == bad.items   # golden digests


def test_gate_catches_a_changed_sweep_answer(work, monkeypatch):
    w = workloads.SweepN5(run.DEFAULT_SEED, work)
    golden = run.golden_table(w.name, 12345)   # the n=5 corpus is fixed
    workloads.clear_caches()
    clean = w.run(0)
    assert run.count_failures([clean], golden) == 0

    import spectral_delta.checks as checks
    monkeypatch.setattr(checks, "reduced_homology",
                        _corrupt(checks.reduced_homology))
    workloads.clear_caches()
    bad = w.run(0)
    assert run.count_failures([bad], golden) == bad.items


def test_benchmark_exits_nonzero_on_a_wrong_answer(monkeypatch, capsys):
    monkeypatch.setattr(sd, "reduced_homology", _corrupt(sd.reduced_homology))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    code = run.main(["--workload", "homology-large", "--seconds", "0"])
    result = capsys.readouterr().out.splitlines()[-1]
    assert code == 1
    assert '"correct": false' in result


def test_missing_trace_target_is_not_fatal():
    targets = [tracer.Target("gone.function", "no_such_module", "nothing"),
               tracer.Target("complexes.absent", "complexes", "absent"),
               tracer.Target("complexes.make_complex", "complexes",
                             "make_complex")]
    with tracer.Tracer(targets) as t:
        sd.make_complex(3, [(1, 2)])
    assert t.missing == ["no_such_module.nothing", "complexes.absent"]
    assert t.stats["gone.function"].calls == 0
    assert t.stats["complexes.make_complex"].calls == 1


def test_moved_function_is_still_found():
    # the module name is wrong, as after a rename; the function is found
    # in the module that defines it
    target = tracer.Target("depth.depth", "face_ring", "depth")
    with tracer.Tracer([target]) as t:
        sd.depth(sd.make_complex(3, [(1, 2), (3,)]), sd.Q)
    assert t.missing == []
    assert t.stats["depth.depth"].calls == 1


def test_wrappers_reach_imported_names_and_are_removed():
    import spectral_delta.checks as checks
    import spectral_delta.homology as homology
    original = homology.reduced_homology
    original_check = checks.CHECKS["nerve"]
    with tracer.Tracer() as t:
        assert checks.reduced_homology is not original
        assert checks.CHECKS["nerve"][0] is not original_check[0]
        K = sd.make_complex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        sd.run_instance(K, ["nerve"], [sd.Q])
    assert t.stats["checks.nerve"].calls == 1
    assert t.stats["homology.reduced_homology"].calls == 2
    assert t.stats["stanley_reisner.nerve_of_facets"].calls == 1
    assert checks.reduced_homology is original
    assert checks.CHECKS["nerve"] is original_check
    assert sd.depth is sys.modules["spectral_delta.depth"].depth


def test_self_time_excludes_child_spans():
    with tracer.Tracer() as t:
        sd.depth(sd.make_complex(5, [(1, 2, 3), (3, 4), (4, 5)]), sd.Q)
    table = t.stats["depth.hochster_betti_table"]
    children = (t.stats["complexes.restriction"].self_s
                + t.stats["complexes.make_complex"].self_s
                + t.stats["homology.reduced_homology"].self_s)
    assert table.calls == 1 and table.self_s > 0
    assert t.stats["complexes.restriction"].calls == 32
    assert children > 0


@pytest.mark.parametrize("cls", [workloads.HomologyLarge,
                                 workloads.SweepN5, workloads.CliOneshot])
def test_traced_and_untraced_outputs_are_identical(cls, work):
    w = cls(run.DEFAULT_SEED, work)
    if cls is workloads.SweepN5:
        w.corpus = w.corpus[:2 * w.STRIDE]
    specs = w.specs()[:1]
    reference = w.reference_pass(specs)
    traced = w.traced_pass(specs, tracer.Tracer())
    assert reference[0].failed == 0
    assert [u.outputs for u in traced] == [u.outputs for u in reference]


def test_parallel_sweep_body_matches_serial_traced_body(work, monkeypatch):
    monkeypatch.setattr(workloads.SweepN8Par, "COUNT", 16)
    w = workloads.SweepN8Par(run.DEFAULT_SEED, work)
    unit = w.run(w.specs()[0])
    traced = w.traced_pass([unit.spec], tracer.Tracer())
    assert unit.failed == 0 and traced[0].outputs == unit.outputs


def _calls(t: tracer.Tracer) -> dict:
    return {name: (stat.calls, stat.extras) for name, stat in t.stats.items()}


def test_a_unit_traced_twice_makes_the_same_calls(work):
    # the tracer's wrappers stand in for memoised functions; clearing the
    # caches between units must still reach them
    w = workloads.SweepN5(run.DEFAULT_SEED, work)
    w.corpus = w.corpus[:2 * w.STRIDE]
    workloads.clear_caches()
    first, second = tracer.Tracer(), tracer.Tracer()
    w.traced_pass([0], first)
    w.traced_pass([0], second)
    assert first.stats["depth.hochster_betti_table"].calls > 0
    assert _calls(first) == _calls(second)


def test_reused_complexes_lose_their_cached_properties():
    K = sd.make_complex(3, [(1, 2), (2, 3)])
    assert K.vertices == (1, 2, 3) and "vertices" in vars(K)
    workloads.forget_cached_properties(K)
    assert "vertices" not in vars(K)
    assert (K.n, K.facets) == (3, ((1, 2), (2, 3)))


def test_per_layer_counts_do_not_depend_on_run_length(monkeypatch, capsys):
    monkeypatch.setattr(run, "IMPORT_REPEATS", 1)
    monkeypatch.setattr(workloads.CliOneshot, "TRACE_UNITS", 2)
    results = []
    for seconds in ("0", "2"):
        code = run.main(["--workload", "cli-oneshot", "--seconds", seconds,
                         "--trace", "1"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        details = json.loads(lines[-2])["details"]
        results.append((details["attempted"],
                        json.loads(lines[-1])["metrics"]))
    (short_n, short), (long_n, long) = results
    assert long_n > short_n            # the timed sections differ
    counts = [k for k in short if k.endswith((".calls", ".cells"))]
    assert {k: short[k] for k in counts} == {k: long[k] for k in counts}
    # one cli.main call per traced query; warm-up calls are not counted
    assert short["cli.main.calls"]["value"] == 2 * 12


def test_tail_percentile_keeps_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    value, pct, beyond = run.tail([float(i) for i in range(8)])
    assert (value, pct, beyond) == (5.75, 75.0, 2)
    value, pct, beyond = run.tail([3.0, 1.0, 2.0])
    assert (value, pct, beyond) == (3.0, 100.0, 0)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-n5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
