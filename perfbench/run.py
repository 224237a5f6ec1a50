#!/usr/bin/env python3
"""Benchmark for spectral-delta: four workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload sweep-n5 --seed 1 --seconds 20 \
        --trace 0

Run it from the root of a checkout; it measures the package under
``src/`` of that checkout (put first on ``sys.path`` here and on
``PYTHONPATH`` for CLI children) and refuses to run without it.

``--trace 0`` runs the workload's units, cycling, for ``--seconds`` and
prints the end-to-end metrics: ``items_per_s`` (median over units of
items per second), ``latency_p50_ms`` and ``latency_tail_ms`` (median and
the highest percentile with at least ten samples beyond it, or the
upper quartile when there are fewer than twenty samples), ``setup_s`` (median of
several fresh processes timed from spawn until inputs are ready) and
``peak_rss_mb`` (this process, or its largest child for the workloads
that work in child processes).  ``--trace 1`` runs the same timed
section, then a fixed pass over the workload's first units, once
untraced and once with the tracer installed, and prints the per-layer
metrics of that pass; they do not depend on ``--seconds``.  Every run
checks the answers: against golden digests where ``golden.json`` has
them, and against invariants that hold for any seed.  The last line of standard output is the JSON
result; the line before it holds details (item counts, percentiles,
failed ratio, environment).  The exit code is 1 if any answer is wrong,
2 if the library cannot be found.

``--write-golden`` recomputes ``golden.json`` for the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
IMPORT_REPEATS = 7
TAIL_BEYOND = 10
PROBE_TIMEOUT_S = 120


def load_library():
    """Import spectral_delta from this checkout's src, or exit 2."""
    pkg = SRC / "spectral_delta"
    if not (pkg / "__init__.py").is_file():
        print(f"error: no spectral_delta package under {SRC}",
              file=sys.stderr)
        sys.exit(2)
    # fixed settings for this process and every child it starts
    os.environ.pop("SPECTRAL_DELTA_THREADS", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    sys.path.insert(0, str(SRC))
    import spectral_delta
    if Path(spectral_delta.__file__).resolve().parent != pkg.resolve():
        print(f"error: imported {spectral_delta.__file__}, not {pkg}",
              file=sys.stderr)
        sys.exit(2)
    return spectral_delta


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest percentile
    with at least TAIL_BEYOND samples beyond it.  Below 2 * TAIL_BEYOND
    samples no percentile above the median qualifies; the upper quartile
    stands in (the maximum of fewer than four samples)."""
    s = sorted(samples)
    n = len(s)
    if n >= 2 * TAIL_BEYOND:
        return (s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n,
                TAIL_BEYOND)
    if n < 4:
        return s[-1], 100.0, 0
    value = statistics.quantiles(s, n=4)[2]
    return value, 75.0, sum(1 for x in s if x > value)


def measured(fn):
    """(fn(), usage): wall time, CPU time of this process and of the
    child processes that ended meanwhile, and the peak RSS so far."""
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    usage = {
        "wall_s": wall,
        "parent_cpu_s": ((self1.ru_utime - self0.ru_utime)
                         + (self1.ru_stime - self0.ru_stime)),
        "worker_cpu_s": ((kids1.ru_utime - kids0.ru_utime)
                         + (kids1.ru_stime - kids0.ru_stime)),
        # ru_maxrss is in KiB on Linux
        "self_rss_mb": self1.ru_maxrss / 1024,
        "child_rss_mb": kids1.ru_maxrss / 1024,
    }
    return result, usage


def run_timed(workload, seconds: float, clear_caches):
    """Run units, cycling, until `seconds` have passed; at least one."""
    specs = workload.specs()

    def loop():
        units = []
        deadline = time.perf_counter() + seconds
        while True:
            clear_caches()
            units.append(workload.run(specs[len(units) % len(specs)]))
            if time.perf_counter() >= deadline:
                return units
    return measured(loop)


def golden_table(name: str, seed: int) -> dict | None:
    if not GOLDEN.is_file():
        return None
    table = json.loads(GOLDEN.read_text()).get(name, {})
    return table.get("any", table.get(str(seed)))


def count_failures(units, table: dict | None, reference=None) -> int:
    """Items that failed an invariant, differed from the golden digest,
    or (through `reference`) from another reference."""
    failed = 0
    for u in units:
        bad = u.failed + (reference(u) if reference else 0)
        want = (table or {}).get(u.key)
        if want is not None:
            got = [digest(o) for _, o in u.outputs]
            bad += sum(count for (count, _), g, w
                       in zip(u.outputs, got, want) if g != w)
        failed += min(u.items, bad)
    return failed


def time_probe(argv: list[str], ready: str | None) -> float:
    """Wall time from spawning `argv` until it prints `ready` (or exits,
    when `ready` is None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL,
                            stdin=subprocess.DEVNULL, cwd=ROOT, text=True)
    try:
        if ready is None:
            proc.communicate(timeout=PROBE_TIMEOUT_S)
            took = time.perf_counter() - t0
        else:
            line = proc.stdout.readline()
            took = time.perf_counter() - t0
            proc.communicate(timeout=PROBE_TIMEOUT_S)
            if line.strip() != ready:
                raise RuntimeError(f"probe {argv} did not get ready")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"probe {argv} exited {proc.returncode}")
    return took


def setup_seconds(name: str, seed: int) -> list[float]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", name,
            "--seed", str(seed), "--setup-only"]
    return [time_probe(argv, "ready") for _ in range(SETUP_REPEATS)]


def import_seconds() -> float:
    """Median `import spectral_delta.cli` in a fresh interpreter minus
    the median bare interpreter start."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(time_probe([sys.executable, "-c", "pass"], None))
        full.append(time_probe(
            [sys.executable, "-c", "import spectral_delta.cli"], None))
    return statistics.median(full) - statistics.median(bare)


def end_to_end(workload, units, usage, setups, failed) -> tuple[dict, dict]:
    samples = [s for u in units for s in u.samples_s]
    rates = [u.items / u.seconds for u in units if u.seconds > 0]
    tail_value, tail_pct, beyond = tail(samples)
    in_children = workload.rss_from_children
    items = sum(u.items for u in units)
    metrics = {
        "items_per_s": (statistics.median(rates), "1/s"),
        "latency_p50_ms": (statistics.median(samples) * 1000, "ms"),
        "latency_tail_ms": (tail_value * 1000, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (usage["child_rss_mb" if in_children
                               else "self_rss_mb"], "MB"),
    }
    details = {
        "units": len(units),
        "items": items,
        "timed_s": usage["wall_s"],
        "latency_item": workload.latency_item,
        "latency_samples": len(samples),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "setup_runs_s": setups,
        "peak_rss_of": "largest child" if in_children else "this process",
        "failed_ratio": failed / items,
    }
    return metrics, details


def per_layer(workload, tracer_cls):
    """Per-layer metrics over the workload's fixed trace pass, run once
    untraced and once traced, so that they do not depend on how many
    units the timed section finished.  Returns (metrics, details,
    reference units, traced units)."""
    specs = workload.trace_specs()
    reference, usage = measured(lambda: workload.reference_pass(specs))
    tracer = tracer_cls()
    traced = workload.traced_pass(specs, tracer)
    metrics = {}
    for name, stat in tracer.stats.items():
        metrics[f"{name}.calls"] = (stat.calls, "count")
        metrics[f"{name}.self_s"] = (stat.self_s, "s")
        if name.startswith("linalg."):
            metrics[f"{name}.cells"] = (stat.extras.get("cells", 0), "count")
        if name == "homology.reduced_homology":
            ratio = stat.extras.get("repeats", 0) / stat.calls \
                if stat.calls else 0.0
            metrics[f"{name}.repeat_ratio"] = (ratio, "ratio")
    metrics["checks.sweep.parent_cpu_s"] = (usage["parent_cpu_s"], "s")
    metrics["checks.sweep.worker_cpu_s"] = (usage["worker_cpu_s"], "s")
    metrics["checks.sweep.worker_utilization"] = (
        usage["worker_cpu_s"] / (usage["wall_s"] * workload.workers), "ratio")
    metrics["cli.import_s"] = (import_seconds(), "s")
    untraced_s = sum(u.seconds for u in reference)
    traced_s = sum(u.seconds for u in traced)
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    details = {"trace_units": [u.key for u in reference],
               "trace_items": sum(u.items for u in reference),
               "trace_missing": tracer.missing,
               "traced_s": traced_s, "untraced_s": untraced_s}
    return metrics, details, reference, traced


def write_golden(workloads_mod) -> None:
    """Recompute every golden digest for the default seed."""
    golden = {}
    work = make_work_dir()
    try:
        for name, cls in workloads_mod.WORKLOADS.items():
            w = cls(DEFAULT_SEED, work)
            units = []
            for spec in w.specs():
                workloads_mod.clear_caches()
                units.append(w.run(spec))
            if count_failures(units, None, w.reference_failures):
                raise SystemExit(f"{name}: invariant failures; golden "
                                 "digests not written")
            seed_key = "any" if name == "sweep-n5" else str(DEFAULT_SEED)
            golden[name] = {seed_key: {
                u.key: [digest(o) for _, o in u.outputs] for u in units}}
            print(f"{name}: {len(units)} units", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def make_work_dir() -> Path:
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    return work


def remove_work_dir(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:
        pass  # another run still uses it


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-golden", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sd = load_library()
    import workloads
    from tracer import Tracer

    if args.write_golden:
        write_golden(workloads)
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of "
                     f"{', '.join(workloads.WORKLOADS)}")

    work = make_work_dir()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        units, usage = run_timed(workload, args.seconds,
                                 workloads.clear_caches)
        golden = golden_table(args.workload, args.seed)
        failed = count_failures(units, golden, workload.reference_failures)
        attempted = sum(u.items for u in units)
        details = {"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace}
        if args.trace:
            metrics, more, reference, traced = per_layer(workload, Tracer)
            mismatched = sum(a.items for a, b in zip(reference, traced)
                             if a.outputs != b.outputs)
            more["traced_output_mismatches"] = mismatched
            trace_items = sum(u.items for u in reference)
            failed += min(trace_items,
                          count_failures(reference, golden) + mismatched)
            attempted += trace_items
        else:
            setups = setup_seconds(args.workload, args.seed)
            metrics, more = end_to_end(workload, units, usage, setups,
                                       failed)
        details.update(more)
    finally:
        remove_work_dir(work)

    details.update({
        "attempted": attempted,
        "failed": failed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "library": os.path.relpath(sd.__file__, ROOT),
        "cache_policy": "every library cache cleared before each unit; "
                        "homology-large and cli-oneshot clear before "
                        "each query; sweep-n5 drops cached properties",
        "threads": workload.workers,
    })
    print(json.dumps({"details": details}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
