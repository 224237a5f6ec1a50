"""Command line interface.

Verbs: homology, depth, delta, dual, nerve, sr, link, check, sweep.
Exit codes: 0 success, 1 a check or sweep found an unexpected failure,
2 usage or input errors.  The input has one edge: `_load` reads and
parses every file, and names the file in any reading or format error.
The errors have one boundary: `main` prints every ValueError as the
one line `error: <text>`.  The CLI holds no rule of its own: check ids,
depth's coefficient rule and the exhaustive limit are the library's,
so a verb and a library call refuse the same input in the same words.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from .checks import CHECK_IDS, EXHAUSTIVE_LIMIT, _known, run_instance, sweep
from .complexes import (
    DegenerateDualWarning,
    SimplicialComplex,
    alexander_dual,
    link,
)
from .depth import depth
from .fixtures import rp2_self_check
from .homology import FieldSpec, reduced_homology
from .serialize import (
    complex_from_json,
    complex_to_json,
    parse_complex_text,
    parse_primes_text,
    primes_from_json,
    render_complex_text,
    render_generators_text,
    render_profile_text,
    generators_to_json,
    sniff_kind,
)
from .stanley_reisner import (
    PrimeFamily,
    delta_of_complex,
    delta_of_primes,
    nerve_of_facets,
    sr_generators,
)


def _load(path: str, primes: bool = False):
    """The complex in the text or JSON file at path ('-' reads standard
    input); with primes set, the prime family when the file holds one.
    Notices go to standard error, and errors name the file."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        if text.lstrip().startswith("{"):
            obj = json.loads(text)
            if primes and "primes" in obj:
                found, notices = primes_from_json(obj)
            else:
                found, notices = complex_from_json(obj)
        elif primes and sniff_kind(text) == "primes":
            found, notices = parse_primes_text(text)
        else:
            found, notices = parse_complex_text(text)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None
    # undecodable bytes are a ValueError; JSON nested too deep to decode
    # raises RecursionError
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    for note in notices:
        print(f"notice: {path}: {note}", file=sys.stderr)
    return found


def _parse_fields(tokens: str) -> list[FieldSpec]:
    return [FieldSpec.parse(t) for t in tokens.split(",") if t.strip()]


def _print_complex(K: SimplicialComplex, as_json: bool):
    if as_json:
        print(json.dumps(complex_to_json(K), sort_keys=True))
    else:
        print(render_complex_text(K), end="")


def cmd_homology(args) -> int:
    K = _load(args.input)
    profile = reduced_homology(K, FieldSpec.parse(args.field))
    if args.json:
        out = {"n": K.n}
        out.update(profile.as_json())
        print(json.dumps(out, sort_keys=True))
    else:
        print(render_profile_text(profile, K.dimension))
    return 0


def cmd_depth(args) -> int:
    report = depth(_load(args.input), FieldSpec.parse(args.field))
    if args.json:
        print(json.dumps(report.as_json(), sort_keys=True))
    else:
        print(report.one_line())
    return 0


def cmd_delta(args) -> int:
    found = _load(args.input, primes=True)
    delta = (delta_of_primes if isinstance(found, PrimeFamily)
             else delta_of_complex)
    _print_complex(delta(found), args.json)
    return 0


def cmd_dual(args) -> int:
    K = _load(args.input)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dual = alexander_dual(K)
    for w in caught:
        if issubclass(w.category, DegenerateDualWarning):
            print(f"warning: {w.message}", file=sys.stderr)
    _print_complex(dual, args.json)
    return 0


def cmd_nerve(args) -> int:
    _print_complex(nerve_of_facets(_load(args.input)), args.json)
    return 0


def cmd_sr(args) -> int:
    gens = sr_generators(_load(args.input))
    if args.json:
        print(json.dumps(generators_to_json(gens), sort_keys=True))
    else:
        print(render_generators_text(gens), end="")
    return 0


def _parse_face(spec: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in spec.split(",") if t.strip())
    except ValueError:
        raise ValueError(f"bad face {spec!r}: expected comma-separated "
                         "vertex ids") from None


def cmd_link(args) -> int:
    K = _load(args.input)
    _print_complex(link(K, _parse_face(args.face)), args.json)
    return 0


def cmd_check(args) -> int:
    if args.fixture:
        if args.fixture != "rp2":
            raise ValueError(f"unknown fixture {args.fixture!r}")
        results = rp2_self_check()
        if args.json:
            print(json.dumps([{"check": name, "passed": ok, "detail": detail}
                              for name, ok, detail in results]))
        else:
            for name, ok, detail in results:
                print(f"fixture rp2 {name}: "
                      f"{'pass' if ok else 'FAIL'} ({detail})")
        return 0 if all(ok for _, ok, _ in results) else 1
    if not args.input:
        raise ValueError("check needs an input file or --fixture rp2")
    K = _load(args.input)
    outcomes = run_instance(K, _resolve_checks(args.checks),
                            _parse_fields(args.fields))
    if args.json:
        print(json.dumps([o.as_json() for o in outcomes]))
    else:
        for o in outcomes:
            if o.passed:
                status = "pass"
            elif o.expect_pass:
                status = "FAIL"
            else:
                status = "FAIL (expected)"
            print(f"{o.check_id} [{o.coeff}] {status}")
    return 0 if all(not o.unexpected for o in outcomes) else 1


def _resolve_checks(spec: str) -> tuple[str, ...]:
    if spec == "all":
        return CHECK_IDS
    return _known(t.strip() for t in spec.split(",") if t.strip())


def cmd_sweep(args) -> int:
    mode = args.mode
    if mode == "auto":
        mode = "exhaustive" if args.n <= EXHAUSTIVE_LIMIT else "random"
    report = sweep(args.n, mode=mode, seed=args.seed, count=args.count,
                   coeffs=_parse_fields(args.fields),
                   check_ids=_resolve_checks(args.checks))
    if args.json:
        body = report.body_json()
        body["elapsed_seconds"] = round(report.elapsed, 3)
        print(json.dumps(body, sort_keys=True))
    else:
        print(report.render_text())
    return 0 if report.unexpected_failures == 0 else 1


def _arg(*flags, **options):
    return flags, options


_INPUT = _arg("input", help="input file (text or JSON; '-' reads standard "
                            "input)")
_FIELDS = _arg("--fields", default="q,f2,f3",
               help="comma-separated coefficient flags")
_CHECKS = _arg("--checks", default="all",
               help="comma-separated check ids or 'all'")

# verb -> (help, runner, arguments before --json), in --help order
VERBS = {
    "homology": ("reduced homology of a complex", cmd_homology, [
        _INPUT, _arg("--field", default="z",
                     help="coefficients: z, q, f2, f3 or fp:<prime>")]),
    "depth": ("depth report for the face ring", cmd_depth, [
        _INPUT, _arg("--field", default="q",
                     help="field coefficients: q, f2, f3 or fp:<prime>")]),
    "delta": ("derived complex of the minimal primes (accepts a complex or "
              "a prime family)", cmd_delta, [_INPUT]),
    "dual": ("combinatorial Alexander dual", cmd_dual, [_INPUT]),
    "nerve": ("nerve of the facet cover", cmd_nerve, [_INPUT]),
    "sr": ("minimal monomial generators of the face ideal", cmd_sr,
           [_INPUT]),
    "link": ("link of a face", cmd_link, [
        _INPUT, _arg("--face", default="",
                     help="comma-separated vertex ids (empty for the empty "
                          "face)")]),
    "check": ("run theorem checks on one complex", cmd_check, [
        _arg("input", nargs="?", help="input file (omit with --fixture)"),
        _arg("--fixture", help="run a bundled fixture self-check (rp2)"),
        _CHECKS, _FIELDS]),
    "sweep": ("run checks over a whole corpus", cmd_sweep, [
        _arg("-n", type=int, required=True, help="ambient vertex count"),
        _arg("--mode", choices=["auto", "exhaustive", "random"],
             default="auto"),
        _arg("--seed", type=int, default=1, help="random corpus seed"),
        _arg("--count", type=int, default=100, help="random corpus size"),
        _FIELDS, _CHECKS]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-delta",
        description="Exact homology, depth and theorem sweeps for "
                    "simplicial complexes and their face rings.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_text, run, arguments) in VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.set_defaults(run=run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
