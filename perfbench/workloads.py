"""The four benchmark workloads.

Each workload builds its inputs from the seed in its constructor (the
set-up that ``setup_s`` measures) and exposes a fixed list of units.  The
timed loop in ``run.py`` runs units in list order, cycling, with every
library cache cleared before each unit, until the run time is used up.
A unit returns how many items it completed, its wall time, one latency
sample per item (or one per unit, for the parallel sweep), the number of
items that failed an invariant, and its outputs for the golden digests
and the traced-versus-untraced comparison.

All library access goes through public names of ``spectral_delta``;
nothing here is imported before ``run.py`` has put the checkout's
``src`` first on ``sys.path`` and on ``PYTHONPATH`` (which child
processes inherit).
"""

from __future__ import annotations

import io
import json
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from pathlib import Path

import spectral_delta as sd
from spectral_delta import cli

F2 = sd.FieldSpec.prime(2)
F3 = sd.FieldSpec.prime(3)
CLI_TIMEOUT_S = 60


@dataclass
class Unit:
    spec: object
    key: str
    items: int
    seconds: float
    samples_s: list[float]
    failed: int = 0
    # (items covered, canonical output) pairs, one golden digest each
    outputs: list[tuple[int, object]] = field(default_factory=list)


def clear_caches() -> None:
    """Cold-cache policy: empty every memo table of the library."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("spectral_delta"):
            continue
        for obj in list(vars(mod).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def forget_cached_properties(obj) -> None:
    """Drop the values `functools.cached_property` stored on `obj`, so
    that a reused input object starts as cold as a new one."""
    for klass in type(obj).__mro__:
        for name, attr in vars(klass).items():
            if isinstance(attr, cached_property):
                vars(obj).pop(name, None)


def face_counts(n: int, facets) -> list[int]:
    """f_-1, f_0, ... of the complex generated by `facets`, counted here
    independently of the library (an Euler-characteristic reference)."""
    faces = set()
    for f in facets:
        for k in range(len(f) + 1):
            faces.update(combinations(f, k))
    top = max((len(f) for f in faces), default=0)
    counts = [0] * (top + 1)
    for f in faces:
        counts[len(f)] += 1
    return counts


def euler_reduced(counts: list[int]) -> int:
    return sum((-1) ** (i - 1) * c for i, c in enumerate(counts))


def _sweep_failures(body: dict) -> int:
    """Complexes with an unexpected check failure in a sweep body."""
    listed = {f["instance"] for f in body["failures"]}
    return max(len(listed), 1 if body["unexpected_failures"] else 0)


class Workload:
    name = ""
    latency_item = "item"
    workers = 1
    TRACE_UNITS = 1
    # peak RSS is read from the child processes that do the work
    rss_from_children = False

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def specs(self) -> list:
        raise NotImplementedError

    def run(self, spec) -> Unit:
        raise NotImplementedError

    def reference_failures(self, unit: Unit) -> int:
        """Items whose output differs from a reference computed after
        the timed section."""
        return 0

    def trace_specs(self) -> list:
        """The fixed pass the per-layer metrics are taken over: the first
        TRACE_UNITS units, whatever the length of the timed section."""
        return self.specs()[:self.TRACE_UNITS]

    def reference_pass(self, specs: list) -> list[Unit]:
        """Run `specs` cold and untraced: the baseline for the traced
        pass, for its outputs and for `trace.overhead_ratio`."""
        units = []
        for spec in specs:
            clear_caches()
            units.append(self.run(spec))
        return units

    def traced_pass(self, specs: list, tracer) -> list[Unit]:
        """The same work as `reference_pass`, under `tracer`."""
        with tracer:
            return self.reference_pass(specs)

    def key(self, spec) -> str:
        return str(spec)


class SweepN5(Workload):
    """Exhaustive n=5 corpus, all checks over Q, F2, F3, one process.

    A unit is a cold-cache sweep of one sixteenth of the corpus, taken
    with stride 16 so that every unit has the same mix.  It runs
    `sweep`'s serial loop on the enumerated complexes, whose cached
    properties are dropped first.  The corpus is fixed, so the seed does
    not change the work.
    """
    name = "sweep-n5"
    latency_item = "complex (all checks)"
    STRIDE = 16
    TRACE_UNITS = 4
    COEFFS = (sd.Q, F2, F3)

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.corpus = list(sd.enumerate_complexes(5))

    def specs(self):
        return list(range(self.STRIDE))

    def key(self, spec):
        return f"slice{spec}"

    def run(self, spec) -> Unit:
        check_ids = tuple(sd.CHECK_IDS)
        report = sd.SweepReport(5, "exhaustive", None, None,
                                tuple(c.label for c in self.COEFFS),
                                check_ids)
        instances = self.corpus[spec::self.STRIDE]
        for K in instances:
            forget_cached_properties(K)
        samples, raised = [], 0
        clock = time.perf_counter
        start = clock()
        for K in instances:
            t0 = clock()
            try:
                outcomes = sd.run_instance(K, check_ids, self.COEFFS)
            except Exception:  # counted as a failed item
                raised, outcomes = raised + 1, []
            samples.append(clock() - t0)
            report.complexes += 1
            for o in outcomes:
                report.record(o)
        seconds = clock() - start
        body = report.body_json()
        return Unit(spec, self.key(spec), report.complexes, seconds, samples,
                    _sweep_failures(body) + raised,
                    [(report.complexes, body)])


class SweepN8Par(Workload):
    """Seeded random n=8 corpora, all checks over Z, Q, F2, F3, through
    `sweep` with two worker processes.  A unit is one `sweep` call."""
    name = "sweep-n8-par"
    latency_item = "sweep call of 128 complexes"
    COUNT = 128
    UNITS = 8
    TRACE_UNITS = 2
    workers = 2
    rss_from_children = True
    COEFFS = (sd.Z, sd.Q, F2, F3)

    def specs(self):
        return [self.seed * 100 + k for k in range(self.UNITS)]

    def key(self, spec):
        return f"seed{spec}"

    def run(self, spec, threads: int | None = None) -> Unit:
        t0 = time.perf_counter()
        try:
            body = sd.sweep(8, mode="random", seed=spec, count=self.COUNT,
                            coeffs=self.COEFFS,
                            check_ids=tuple(sd.CHECK_IDS),
                            threads=threads or self.workers).body_json()
        except Exception:  # every complex of the call counts as failed
            body = None
        seconds = time.perf_counter() - t0
        if body is None or body["complexes"] != self.COUNT:
            failed = self.COUNT
        else:
            failed = _sweep_failures(body)
        return Unit(spec, self.key(spec), self.COUNT, seconds, [seconds],
                    failed, [(self.COUNT, body)])

    def traced_pass(self, specs, tracer):
        # spans inside worker processes are invisible from here, so the
        # traced pass runs the same corpora serially
        units = []
        with tracer:
            for spec in specs:
                clear_caches()
                units.append(self.run(spec, threads=1))
        return units


def _random_complex(rng: random.Random):
    """Non-cone complex on 12-14 vertices with 5-10 facets of 6-8
    vertices, drawn until its dense elimination cost (sum over degrees of
    f_i * f_(i+1) * min(f_i, f_(i+1))) lies in a fixed window, so that
    every seed asks for the same amount of work."""
    while True:
        n = rng.randint(12, 14)
        facets = [tuple(sorted(rng.sample(range(1, n + 1),
                                          rng.randint(6, 8))))
                  for _ in range(rng.randint(5, 10))]
        masks = [sum(1 << v for v in f) for f in facets]
        common = masks[0]
        for m in masks[1:]:
            common &= m
        if common:
            continue
        fv = face_counts(n, facets)
        cost = sum(fv[i] * fv[i + 1] * min(fv[i], fv[i + 1])
                   for i in range(len(fv) - 1))
        if 8_000_000 <= cost <= 10_000_000:
            return n, facets


def _relabel(rng: random.Random, n: int, facets):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return [tuple(sorted(perm[v - 1] for v in f)) for f in facets]


def _rp2_join_boundary(rng: random.Random):
    """RP^2 joined with the boundary of a tetrahedron (10 vertices,
    homology with 2-torsion), under a seeded vertex relabelling."""
    rp2 = sd.rp2_complex()
    bd = list(combinations(range(7, 11), 3))
    facets = [f + g for f in rp2.facets for g in bd]
    return 10, _relabel(rng, 10, facets)


def _disjoint_facets(rng: random.Random):
    """Two disjoint facets of 9 and 8 vertices placed among 18."""
    verts = list(range(1, 19))
    rng.shuffle(verts)
    return 18, [tuple(sorted(verts[:9])), tuple(sorted(verts[9:17]))]


@dataclass
class Query:
    n: int
    facets: list
    coeff: sd.FieldSpec
    sub: list | None = None       # facets of the subcomplex, if relative
    group: int = 0                # queries on one complex share a group


class HomologyLarge(Workload):
    """One-off homology queries on larger complexes.  A unit is a round
    of 15 queries: two random complexes, one RP^2 join and one
    two-facet complex, each asked for reduced homology over Z, Q and F2.
    The random and two-facet complexes are also asked for relative
    homology against the subcomplex generated by half of their facets.

    The F2 and relative queries take 5-60 ms, the Z and Q queries
    120-450 ms.  Leaving out the RP^2 join's relative query puts fewer
    than half of the queries in the fast group, so the median falls
    inside the RP^2 join over Z, whose cost does not depend on the seed,
    not in the gap between the groups."""
    name = "homology-large"
    latency_item = "query (construction and one homology call)"
    ROUNDS = 12
    TRACE_UNITS = 2
    WITH_RELATIVE = (True, True, False, True)

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        rng = random.Random(seed)
        self.rounds = []
        group = 0
        for r in range(self.ROUNDS):
            queries = []
            inputs = [_random_complex(rng), _random_complex(rng),
                      _rp2_join_boundary(rng), _disjoint_facets(rng)]
            for i, (n, facets) in enumerate(inputs):
                for c in (sd.Z, sd.Q, F2):
                    queries.append(Query(n, facets, c, group=group))
                if self.WITH_RELATIVE[i]:
                    sub = rng.sample(facets, max(1, len(facets) // 2))
                    rel = (sd.Z, sd.Q, F2)[(r + i) % 3]
                    queries.append(Query(n, facets, rel, sub, group))
                group += 1
            self.rounds.append(queries)

    def specs(self):
        return list(range(self.ROUNDS))

    def key(self, spec):
        return f"round{spec}"

    def run(self, spec) -> Unit:
        samples, outputs = [], []
        clock = time.perf_counter
        for q in self.rounds[spec]:
            clear_caches()
            t0 = clock()
            try:
                L = sd.make_complex(q.n, q.facets)
                if q.sub is None:
                    answer = sd.reduced_homology(L, q.coeff).as_json()
                else:
                    K = sd.make_complex(q.n, q.sub)
                    answer = sd.relative_homology(L, K, q.coeff).as_json()
            except Exception as exc:  # counted as a failed item
                answer = {"raised": type(exc).__name__}
            samples.append(clock() - t0)
            outputs.append((1, answer))
        failed = self.verify(self.rounds[spec], outputs)
        return Unit(spec, self.key(spec), len(samples), sum(samples),
                    samples, failed, outputs)

    @staticmethod
    def verify(queries: list[Query], outputs) -> int:
        """Euler characteristic of every answer, and the universal
        coefficient theorem across the Z, Q and F2 answers of a complex.
        Returns the number of queries that failed."""
        bad = set()
        by_group: dict[int, dict] = {}
        for idx, (q, (_, prof)) in enumerate(zip(queries, outputs)):
            if "groups" not in prof:
                bad.add(idx)
                continue
            groups = {int(d): (g["free"], g["torsion"])
                      for d, g in prof["groups"].items()}
            alt = sum((-1) ** d * free for d, (free, _) in groups.items())
            if q.sub is None:
                expect = euler_reduced(face_counts(q.n, q.facets))
                by_group.setdefault(q.group, {})[q.coeff.label] = (idx,
                                                                   groups)
            else:
                whole = face_counts(q.n, q.facets)
                part = face_counts(q.n, q.sub)
                expect = (euler_reduced(whole) - euler_reduced(part))
            if alt != expect:
                bad.add(idx)
        for answers in by_group.values():
            if len(answers) < 3:
                continue
            (iz, gz), (iq, gq), (i2, g2) = (answers["Z"], answers["Q"],
                                            answers["F2"])
            degrees = set(gz) | set(gq) | set(g2) | {d + 1 for d in gz}
            for d in degrees:
                free, tors = gz.get(d, (0, []))
                below = gz.get(d - 1, (0, []))[1]
                even = (sum(1 for t in tors if t % 2 == 0)
                        + sum(1 for t in below if t % 2 == 0))
                if (gq.get(d, (0, []))[0] != free
                        or g2.get(d, (0, []))[0] != free + even):
                    bad.update((iz, iq, i2))
                    break
        return len(bad)


def _write_complex(path: Path, n: int, facets, as_json: bool) -> None:
    if as_json:
        text = json.dumps({"n": n, "facets": [list(f) for f in facets]})
    else:
        text = f"n {n}\n" + "".join(
            "facet " + " ".join(map(str, f)) + "\n" for f in facets)
    path.write_text(text, encoding="utf-8")


def _normalise_stdout(argv: list[str], out: str) -> str:
    """Drop the wall-clock field a sweep prints."""
    if argv[0] != "sweep" or not out:
        return out
    if "--json" in argv:
        body = json.loads(out)
        body.pop("elapsed_seconds", None)
        return json.dumps(body, sort_keys=True)
    return "\n".join(line for line in out.splitlines()
                     if not line.startswith("elapsed:"))


class CliOneshot(Workload):
    """Sequential `python -m spectral_delta.cli` subprocesses, one query
    each.  A unit is a round of twelve verbs on one input: RP^2 or a
    seeded complex with at most 8 vertices, in text or JSON format."""
    name = "cli-oneshot"
    latency_item = "CLI subprocess (start to exit)"
    ROUNDS = 8
    TRACE_UNITS = ROUNDS
    rss_from_children = True

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        rng = random.Random(seed)
        rp2 = sd.rp2_complex()
        self.rounds = []
        for r in range(self.ROUNDS):
            as_json = r % 2 == 1
            if r % 4 == 0:
                n, facets = rp2.n, list(rp2.facets)
            else:
                n = rng.randint(5, 8)
                facets = [tuple(sorted(rng.sample(range(1, n + 1),
                                                  rng.randint(2, 4))))
                          for _ in range(rng.randint(2, 5))]
            path = work_dir / f"input{r}.{'json' if as_json else 'cplx'}"
            _write_complex(path, n, facets, as_json)
            p = str(path)
            face = str(facets[0][0])
            self.rounds.append([
                ["homology", p, "--field", "z"],
                ["homology", p, "--field", "q", "--json"],
                ["homology", p, "--field", "f2"],
                ["depth", p, "--field", "q"],
                ["depth", p, "--field", "f2", "--json"],
                ["delta", p],
                ["dual", p, "--json"],
                ["nerve", p],
                ["sr", p, "--json"],
                ["link", p, "--face", face],
                ["check", "--fixture", "rp2"],
                ["sweep", "-n", "3", "--json"] if as_json
                else ["sweep", "-n", "3"],
            ])

    def specs(self):
        return list(range(self.ROUNDS))

    def key(self, spec):
        return f"round{spec}"

    def call(self, argv: list[str]) -> tuple[int, str]:
        proc = subprocess.Popen(
            [sys.executable, "-m", "spectral_delta.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            stdin=subprocess.DEVNULL, cwd=self.work_dir, text=True)
        try:
            out, _ = proc.communicate(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return -1, ""
        return proc.returncode, out

    @staticmethod
    def in_process(argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def run(self, spec, call=None) -> Unit:
        """One round, each query through `call` (a subprocess unless
        another is given), with caches cleared before each query."""
        call = call or self.call
        samples, outputs, failed = [], [], 0
        for argv in self.rounds[spec]:
            clear_caches()
            t0 = time.perf_counter()
            code, out = call(argv)
            samples.append(time.perf_counter() - t0)
            if code != 0 or not out:
                failed += 1
            outputs.append((1, [code, _normalise_stdout(argv, out)]))
        return Unit(spec, self.key(spec), len(samples), sum(samples),
                    samples, failed, outputs)

    def reference_failures(self, unit: Unit) -> int:
        """Queries whose subprocess output differs from `cli.main` run
        in this process on the same arguments."""
        bad = 0
        for argv, (_, got) in zip(self.rounds[unit.spec], unit.outputs):
            code, out = self.in_process(argv)
            if [code, _normalise_stdout(argv, out)] != got:
                bad += 1
        return bad

    def in_process_pass(self, specs: list) -> list[Unit]:
        """The rounds of `specs` through `cli.main` in this process."""
        return [self.run(spec, self.in_process) for spec in specs]

    def reference_pass(self, specs):
        # first calls pay lazy imports, which subprocesses pay inside
        # their start-up time; keep them out of both passes
        for argv in self.rounds[specs[0]]:
            self.in_process(argv)
        return self.in_process_pass(specs)

    def traced_pass(self, specs, tracer):
        with tracer:
            return self.in_process_pass(specs)


WORKLOADS = {w.name: w for w in (SweepN5, SweepN8Par, HomologyLarge,
                                 CliOneshot)}
