"""Theorem checks, corpus generation, and verification sweeps.

Each check states one proved statement about one complex with one
coefficient system (or none) and returns only its verdict: a witness
when the statement failed, None when it held, and an expectation
polarity.  `run_instance` alone turns verdicts into `CheckOutcome`
records, describing the complex once for all of them.  The polarity
lets a documented counterexample (torsion breaking the
integer-coefficient vanishing statement) be asserted positively as an
expected failure rather than suppressed.

Checks whose statements are only true over a field (the duality and
generator-count statements) skip integer coefficients in sweeps; the
depth-vanishing check keeps them, which is exactly how the documented
torsion counterexample is exercised.

Every verdict is unchanged by relabelling the vertices, so
`run_instance` keeps one per isomorphism class.  A permutation of 1..n
is a ring isomorphism of the face ring (depth stays) and a simplicial
isomorphism of K, its derived complex, its dual and its facet nerve
(homology, facet and generator counts stay).  For `delta_iso_nerve`
it permutes the facet indexing by some sigma, and both sides are
indexed by the facets, so both move by the same sigma.  Witnesses
carry labels, so a failure is run again on each complex.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field as dc_field
from functools import lru_cache, partial
from typing import Iterable, Iterator, Sequence

from .complexes import (
    SimplicialComplex,
    _canonical_form,
    _from_masks,
    _maximal,
    alexander_dual,
)
from .depth import _check_feasible, depth
from .homology import FieldSpec, Q, Z, reduced_homology
from .serialize import complex_to_json
from .stanley_reisner import (
    delta_of_complex,
    nerve_of_facets,
    sr_generators,
)

EXHAUSTIVE_LIMIT = 5


def enumerate_complexes(n: int) -> Iterator[SimplicialComplex]:
    """Every non-void complex on the ambient set 1..n, exactly once.

    A backtracking walk over nonempty subsets in size order, admitting a
    subset as a face only once all its maximal proper subsets are faces;
    its first leaf chooses nothing and gives the irrelevant complex.
    Counts: n=1 gives 2, n=2 gives 5, n=3 gives 19.  Refuses n beyond 5,
    where exhaustive enumeration stops being practical.
    """
    if n < 1:
        raise ValueError("need at least one ambient vertex")
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"exhaustive enumeration is capped at n = {EXHAUSTIVE_LIMIT}; "
            "use random_complexes for larger vertex sets")
    subsets = sorted(range(1, 1 << n), key=lambda m: (bin(m).count("1"), m))
    total = len(subsets)
    chosen: set[int] = set()

    def admissible(m: int) -> bool:
        b = m
        while b:
            low = b & -b
            parent = m ^ low
            if parent and parent not in chosen:
                return False
            b ^= low
        return True

    def walk(idx: int) -> Iterator[SimplicialComplex]:
        if idx == total:
            yield _from_masks(n, _maximal(chosen) or [0])
            return
        m = subsets[idx]
        yield from walk(idx + 1)
        if admissible(m):
            chosen.add(m)
            yield from walk(idx + 1)
            chosen.remove(m)

    yield from walk(0)


def random_complexes(n: int, seed: int, count: int) -> list[SimplicialComplex]:
    """Seeded random corpus: facet count uniform in 1..n+2, each facet a
    uniform nonempty subset of 1..n; canonicalization merges duplicates."""
    if n < 1:
        raise ValueError("need at least one ambient vertex")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        masks = [rng.randrange(1, 1 << n)
                 for _ in range(rng.randint(1, n + 2))]
        out.append(_from_masks(n, _maximal(masks)))
    return out


@dataclass(frozen=True)
class CheckOutcome:
    check_id: str
    instance: str
    coeff: str
    passed: bool
    expect_pass: bool = True
    witness: dict | None = None

    @property
    def unexpected(self) -> bool:
        return self.passed != self.expect_pass

    def as_json(self) -> dict:
        out = {
            "check": self.check_id,
            "instance": self.instance,
            "coefficients": self.coeff,
            "passed": self.passed,
            "expect_pass": self.expect_pass,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


# what a check returns: (witness, expect_pass), the witness None when the
# statement held; run_instance turns it into a CheckOutcome
Verdict = tuple[dict | None, bool]


def _describe(K: SimplicialComplex) -> str:
    return json.dumps(complex_to_json(K), separators=(",", ":"))


def _depth_for(K: SimplicialComplex, coeff: FieldSpec) -> int:
    # vanishing statements pair integer homology with rational depth
    base = coeff if coeff.is_field else Q
    return depth(K, base).depth


def _derived_profile(K: SimplicialComplex, coeff: FieldSpec):
    """Reduced homology of the derived complex, which both depth checks
    read first: each asks for depth only when a nonzero group could make
    its statement fail, since any witness reports such a group whatever
    the depth.  On a cone the derived complex is a simplex, so no depth
    is computed.  The void complex is refused as depth refuses it."""
    _check_feasible(K, Q, "depth")
    return reduced_homology(delta_of_complex(K), coeff)


def check_hartshorne(K: SimplicialComplex, coeff: FieldSpec) -> Verdict:
    """depth >= 2 forces the derived complex to be connected."""
    profile = _derived_profile(K, coeff)
    if profile.group_is_trivial(0):
        return None, True
    d = _depth_for(K, coeff)
    if d < 2:
        return None, True
    return {"depth": d, "h0_free": profile.free_rank(0),
            "h0_torsion": list(profile.torsion(0))}, True


def check_depth_vanishing(K: SimplicialComplex, coeff: FieldSpec) -> Verdict:
    """depth >= d forces reduced homology of the derived complex to vanish
    in every degree up to d - 2.  Guaranteed for field coefficients only:
    over the integers torsion may survive in the window (the projective
    plane does exactly that), so an integral violation whose free part is
    zero is reported with expect_pass=False, a positive sighting of the
    known phenomenon rather than a theorem violation.  A nonzero free
    part would contradict the rational statement and stays unexpected."""
    profile = _derived_profile(K, coeff)
    if max(profile.nonzero_degrees(), default=-1) < 0:
        return None, True
    d = _depth_for(K, coeff)
    first_bad = None
    for j in range(0, d - 1):
        if profile.group_is_trivial(j):
            continue
        entry = {
            "depth": d,
            "degree": j,
            "free": profile.free_rank(j),
            "torsion": list(profile.torsion(j)),
        }
        if entry["free"]:
            return entry, True
        if first_bad is None:
            first_bad = entry
    return first_bad, first_bad is None or coeff.is_field


def check_few_facets(K: SimplicialComplex, coeff: FieldSpec) -> Verdict:
    """A complex with mu facets has trivial reduced homology in every
    degree mu - 1 and above."""
    mu = len(K.facets)
    for deg, free, tors in reduced_homology(K, coeff).entries:
        if deg >= mu - 1 and (free or tors):
            return {"facets": mu, "degree": deg, "free": free,
                    "torsion": list(tors)}, True
    return None, True


def check_generator_count(K: SimplicialComplex, coeff: FieldSpec) -> Verdict:
    """With g minimal generators and t = n - g, the derived complex has
    trivial reduced homology in degrees 0..t-2 (field coefficients)."""
    g = len(sr_generators(K))
    t = K.n - g
    profile = reduced_homology(delta_of_complex(K), coeff)
    for j in range(0, t - 1):
        if not profile.group_is_trivial(j):
            return {"generators": g, "t": t, "degree": j,
                    "free": profile.free_rank(j),
                    "torsion": list(profile.torsion(j))}, True
    return None, True


def check_alexander_duality(K: SimplicialComplex,
                            coeff: FieldSpec) -> Verdict:
    """Reduced Betti numbers of K in degree j match those of the dual in
    degree n - 3 - j (field coefficients)."""
    if K.is_void or K.is_irrelevant or K.is_full_simplex:
        raise ValueError("duality needs a complex strictly between the "
                         "irrelevant complex and the full simplex")
    pk = reduced_homology(K, coeff)
    pd = reduced_homology(alexander_dual(K), coeff)
    for j in range(-1, K.n + 1):
        left = pk.free_rank(j)
        right = pd.free_rank(K.n - 3 - j)
        if left != right:
            return {"degree": j, "betti": left, "dual_degree": K.n - 3 - j,
                    "dual_betti": right}, True
    return None, True


def check_nerve(K: SimplicialComplex, coeff: FieldSpec) -> Verdict:
    """The nerve of the facet cover has the same reduced homology as the
    complex itself (facet intersections are simplices, hence
    contractible).  Both sides go through the strong core, which is a
    retract of K and not its nerve, so two different complexes are
    still compared."""
    pk = reduced_homology(K, coeff)
    pn = reduced_homology(nerve_of_facets(K), coeff)
    if pk == pn:
        return None, True
    return {"complex": pk.as_json(), "nerve": pn.as_json()}, True


def check_delta_iso_nerve(K: SimplicialComplex) -> Verdict:
    """The derived complex of the minimal primes equals the nerve of the
    facets, vertex for vertex, under the shared facet indexing."""
    d = delta_of_complex(K)
    nrv = nerve_of_facets(K)
    if d == nrv:
        return None, True
    return {"delta_facets": [list(f) for f in d.facets],
            "nerve_facets": [list(f) for f in nrv.facets]}, True


def check_uct(K: SimplicialComplex, coeff: FieldSpec) -> Verdict:
    """Dimension over F_p equals the integral free rank plus the counts of
    p-divisible torsion in this degree and the one below."""
    if coeff.tag != "prime_field":
        raise ValueError("the coefficient comparison needs a prime field")
    p = coeff.p
    zp = reduced_homology(K, Z)
    fp = reduced_homology(K, coeff)
    degrees = set(zp.nonzero_degrees()) | set(fp.nonzero_degrees())
    degrees |= {d + 1 for d in zp.nonzero_degrees()}
    for i in sorted(degrees):
        expected = (zp.free_rank(i)
                    + sum(1 for t in zp.torsion(i) if t % p == 0)
                    + sum(1 for t in zp.torsion(i - 1) if t % p == 0))
        if fp.free_rank(i) != expected:
            return {"degree": i, "field_dim": fp.free_rank(i),
                    "predicted": expected}, True
    return None, True


# registry: check id -> (runner, coefficient policy)
#   "any"    runs on every requested coefficient system
#   "field"  skips integer coefficients in sweeps (statement needs a field)
#   "prime"  runs only on prime fields
#   "none"   coefficient-independent, runs once
# depth_vanishing is "any": the integral variant is meaningful and its
# torsion-only failures carry expect_pass=False (see the check docstring)
CHECKS = {
    "hartshorne": (check_hartshorne, "any"),
    "depth_vanishing": (check_depth_vanishing, "any"),
    "few_facets": (check_few_facets, "any"),
    "generator_count": (check_generator_count, "field"),
    "alexander_duality": (check_alexander_duality, "field"),
    "nerve": (check_nerve, "any"),
    "delta_iso_nerve": (check_delta_iso_nerve, "none"),
    "uct": (check_uct, "prime"),
}

CHECK_IDS = tuple(CHECKS)


# the void complex has no face ring, ideal or facet cover, so every
# check that goes through them is inapplicable to it by construction
_NEEDS_RING = frozenset({"hartshorne", "depth_vanishing", "generator_count",
                         "nerve", "delta_iso_nerve"})


def _applicable(K: SimplicialComplex, check_id: str) -> bool:
    if check_id == "alexander_duality":
        return not (K.is_void or K.is_irrelevant or K.is_full_simplex)
    if check_id in _NEEDS_RING:
        return not K.is_void
    return True


def _known(check_ids: Iterable[str]) -> tuple[str, ...]:
    """The check ids as a tuple; ValueError names the first unknown one,
    or says that there is none at all."""
    check_ids = tuple(check_ids)
    if not check_ids:
        raise ValueError("no checks selected")
    for cid in check_ids:
        if cid not in CHECKS:
            raise ValueError(f"unknown check {cid!r} "
                             f"(known: {', '.join(CHECK_IDS)})")
    return check_ids


def _invariant(K: SimplicialComplex) -> tuple:
    """n and each vertex's sorted sizes of the facets through it, sorted:
    unchanged by relabelling, and far cheaper than a canonical form."""
    return K.n, tuple(sorted(tuple(sorted(m.bit_count() for m in K.facet_masks
                                          if m >> v & 1)) for v in range(K.n)))


@lru_cache(maxsize=1 << 12)
def _orbits(invariant: tuple, check_ids: tuple[str, ...],
            coeffs: tuple[FieldSpec, ...]) -> list[list]:
    """The isomorphism classes met with one invariant under one choice of
    checks and coefficients: [first complex, {(check, coefficients):
    expect_pass} of the runs that passed, torsion flag, canonical form or
    None until a second complex with this invariant arrives] each."""
    return []


def run_instance(K: SimplicialComplex, check_ids: Sequence[str],
                 coeffs: Sequence[FieldSpec]) -> list[CheckOutcome]:
    """Outcome records for all requested checks on one complex;
    inapplicable combinations are skipped silently and leave no record.
    A coefficient-free check is recorded under the label "-".  Complexes
    isomorphic to one already met share its verdicts (see `_run_one`)."""
    return _run_one(K, _known(check_ids), tuple(coeffs))[0]


def _run_one(K: SimplicialComplex, check_ids: tuple[str, ...],
             coeffs: tuple[FieldSpec, ...]) -> tuple[list[CheckOutcome], bool]:
    """Outcomes for one complex, plus whether it shows integral torsion
    when Z is among the coefficients, as a sweep tracks it.  A complex
    isomorphic to one already met takes that orbit's verdicts and flag,
    and runs only the checks that failed again, for witnesses in its own
    labels.  Forms are computed only within one invariant."""
    orbits = _orbits(_invariant(K), check_ids, coeffs)
    form = _canonical_form(K) if orbits else None
    if orbits and orbits[0][3] is None:  # later orbits came with their form
        orbits[0][3] = _canonical_form(orbits[0][0])
    orbit = next((o for o in orbits if o[3] == form), None)
    instance = _describe(K)
    out = []
    for cid in check_ids:
        runner, policy = CHECKS[cid]
        if not _applicable(K, cid):
            continue
        runs = ([("-", ())] if policy == "none" else
                [(c.label, (c,)) for c in coeffs
                 if (policy != "field" or c.is_field)
                 and (policy != "prime" or c.tag == "prime_field")])
        for label, args in runs:
            if orbit and (cid, label) in orbit[1]:
                witness, expect_pass = None, orbit[1][cid, label]
            else:
                witness, expect_pass = runner(K, *args)
            out.append(CheckOutcome(cid, instance, label, witness is None,
                                    expect_pass, witness))
    if orbit is None:
        orbit = [K, {(o.check_id, o.coeff): o.expect_pass
                     for o in out if o.passed},
                 Z in coeffs and any(tors for _, _, tors
                                     in reduced_homology(K, Z).entries), form]
        orbits.append(orbit)
    return out, orbit[2]


@dataclass
class SweepReport:
    n: int
    mode: str
    seed: int | None
    count: int | None
    coeffs: tuple[str, ...]
    check_ids: tuple[str, ...]
    complexes: int = 0
    tallies: dict = dc_field(default_factory=dict)
    failures: list = dc_field(default_factory=list)
    torsion_sightings: int = 0
    unexpected_failures: int = 0
    elapsed: float = 0.0

    FAILURE_CAP = 100

    def record(self, outcome: CheckOutcome):
        t = self.tallies.setdefault(outcome.check_id,
                                    {"pass": 0, "fail": 0, "expected_fail": 0})
        if outcome.passed:
            t["pass"] += 1
        elif not outcome.expect_pass:
            t["expected_fail"] += 1
        else:
            t["fail"] += 1
            self.unexpected_failures += 1
            if len(self.failures) < self.FAILURE_CAP:
                self.failures.append(outcome.as_json())

    def body_json(self) -> dict:
        """Deterministic report body; timing is deliberately excluded."""
        return {
            "n": self.n,
            "mode": self.mode,
            "seed": self.seed,
            "count": self.count,
            "coefficients": list(self.coeffs),
            "checks": list(self.check_ids),
            "complexes": self.complexes,
            "tallies": {k: dict(v) for k, v in sorted(self.tallies.items())},
            "torsion_sightings": self.torsion_sightings,
            "unexpected_failures": self.unexpected_failures,
            "failures": self.failures,
        }

    def render_text(self) -> str:
        lines = [
            f"sweep n={self.n} mode={self.mode}"
            + (f" seed={self.seed} count={self.count}"
               if self.mode == "random" else ""),
            f"coefficients: {','.join(self.coeffs)}",
            f"checks: {','.join(self.check_ids)}",
            f"complexes: {self.complexes}",
            f"{'check':<20}{'pass':>8}{'fail':>8}{'expected_fail':>15}",
        ]
        for cid in self.check_ids:
            t = self.tallies.get(cid, {"pass": 0, "fail": 0,
                                       "expected_fail": 0})
            lines.append(f"{cid:<20}{t['pass']:>8}{t['fail']:>8}"
                         f"{t['expected_fail']:>15}")
        lines.append(f"torsion sightings: {self.torsion_sightings}")
        lines.append(f"unexpected failures: {self.unexpected_failures}")
        for fail in self.failures[:10]:
            lines.append(f"  FAIL {fail['check']} [{fail['coefficients']}] "
                         f"{fail['instance']}")
        lines.append(f"elapsed: {self.elapsed:.2f}s")
        return "\n".join(lines)


def resolve_threads(explicit: int | None = None) -> int:
    """Worker count for sweeps; the environment variable caps it."""
    if explicit is not None and explicit < 1:
        raise ValueError("thread count must be positive")
    cap = os.environ.get("SPECTRAL_DELTA_THREADS")
    if cap is not None:
        try:
            cap_val = int(cap)
        except ValueError:
            raise ValueError(
                f"SPECTRAL_DELTA_THREADS must be an integer, got {cap!r}")
        if cap_val < 1:
            raise ValueError("SPECTRAL_DELTA_THREADS must be positive")
        return min(explicit or cap_val, cap_val)
    return explicit or 1


def sweep(n: int, mode: str = "exhaustive", seed: int | None = None,
          count: int | None = None,
          coeffs: Sequence[FieldSpec] = (Q, FieldSpec.prime(2),
                                         FieldSpec.prime(3)),
          check_ids: Sequence[str] = CHECK_IDS,
          threads: int | None = None) -> SweepReport:
    """Run the selected checks over a whole corpus.

    mode "exhaustive" walks every non-void complex on 1..n (n <= 5);
    mode "random" draws `count` seeded samples.  Identical parameters
    give an identical report body; elapsed time lives outside the body.
    With more than one worker the corpus is cut into consecutive chunks,
    about four a worker; each worker returns its chunks' reports and
    `_merge` joins them in corpus order, so the body is the serial one.
    """
    check_ids = _known(check_ids)
    coeffs = tuple(coeffs)
    if mode == "exhaustive":
        instances = list(enumerate_complexes(n))
        seed_used, count_used = None, None
    elif mode == "random":
        if seed is None or count is None:
            raise ValueError("random mode needs both seed and count")
        instances = random_complexes(n, seed, count)
        seed_used, count_used = seed, count
    else:
        raise ValueError(f"unknown sweep mode {mode!r}")

    header = (n, mode, seed_used, count_used, coeffs, check_ids)
    start = time.monotonic()
    workers = resolve_threads(threads)
    if workers > 1 and len(instances) > 1:
        from concurrent.futures import ProcessPoolExecutor
        size = -(-len(instances) // (4 * workers))  # 4 chunks a worker
        with ProcessPoolExecutor(max_workers=workers) as pool:
            report = _merge(pool.map(
                partial(_sweep_part, header),
                [instances[i:i + size]
                 for i in range(0, len(instances), size)]))
    else:
        report = _sweep_part(header, instances)
    report.elapsed = time.monotonic() - start
    return report


def _sweep_part(header: tuple, chunk: Sequence[SimplicialComplex]
                ) -> SweepReport:
    """The report of a sweep over consecutive members of its corpus: the
    sweep's header (n, mode, seed, count, coefficients, check ids) and
    the counts of this chunk alone.  A worker process returns one."""
    n, mode, seed, count, coeffs, check_ids = header
    part = SweepReport(n, mode, seed, count, tuple(c.label for c in coeffs),
                       check_ids)
    for K in chunk:
        outcomes, has_torsion = _run_one(K, check_ids, coeffs)
        part.complexes += 1
        part.torsion_sightings += has_torsion
        for o in outcomes:
            part.record(o)
    return part


def _merge(parts: Iterable[SweepReport]) -> SweepReport:
    """The reports of consecutive chunks, given in corpus order, as the
    report of the whole corpus: counts and tallies summed, and failures
    kept in order up to the cap, as one serial part would keep them."""
    parts = iter(parts)
    report = next(parts)
    for part in parts:
        report.complexes += part.complexes
        report.torsion_sightings += part.torsion_sightings
        report.unexpected_failures += part.unexpected_failures
        for cid, t in part.tallies.items():
            mine = report.tallies.setdefault(cid, dict.fromkeys(t, 0))
            for key, value in t.items():
                mine[key] += value
        room = report.FAILURE_CAP - len(report.failures)
        report.failures += part.failures[:room]
    return report
