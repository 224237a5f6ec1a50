"""End to end command line tests (driving main() in process)."""

import hashlib
import io
import json
import os
import resource
import shlex
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import spectral_delta
from spectral_delta import make_complex
from spectral_delta.cli import main
from spectral_delta.fixtures import rp2_complex
from spectral_delta.serialize import render_complex_text

HOLLOW = "n 3\nfacet 1 2\nfacet 1 3\nfacet 2 3\n"


@pytest.fixture
def hollow_file(tmp_path):
    p = tmp_path / "hollow.cplx"
    p.write_text(HOLLOW)
    return str(p)


@pytest.fixture
def rp2_file(tmp_path):
    p = tmp_path / "rp2.cplx"
    p.write_text(render_complex_text(rp2_complex()))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_homology_text(capsys, hollow_file):
    code, out, err = run(capsys, "homology", hollow_file)
    assert code == 0 and out.strip() == "H~0: 0, H~1: Z" and err == ""


def test_homology_field_flag(capsys, rp2_file):
    code, out, _ = run(capsys, "homology", rp2_file, "--field", "f2")
    assert code == 0
    assert out.strip() == "H~0: 0, H~1: F2, H~2: F2"
    code, out, _ = run(capsys, "homology", rp2_file, "--field", "q")
    assert out.strip() == "H~0: 0, H~1: 0, H~2: 0"


def test_homology_json(capsys, rp2_file):
    code, out, _ = run(capsys, "homology", rp2_file, "--json")
    data = json.loads(out)
    assert code == 0 and data["n"] == 6
    assert data["groups"]["1"] == {"free": 0, "torsion": [2]}


def test_homology_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(HOLLOW))
    code, out, _ = run(capsys, "homology", "-")
    assert code == 0 and out.strip() == "H~0: 0, H~1: Z"


def test_homology_accepts_json_input(capsys, tmp_path):
    p = tmp_path / "k.json"
    p.write_text(json.dumps({"n": 3, "facets": [[1, 2], [1, 3], [2, 3]]}))
    code, out, _ = run(capsys, "homology", str(p))
    assert code == 0 and out.strip() == "H~0: 0, H~1: Z"


def test_depth_lines_match_field(capsys, rp2_file):
    code, out, _ = run(capsys, "depth", rp2_file, "--field", "q")
    assert code == 0 and out.strip() == "pdim=3 depth=3 dim=3 CM=true"
    code, out, _ = run(capsys, "depth", rp2_file, "--field", "f2")
    assert code == 0 and out.strip() == "pdim=4 depth=2 dim=3 CM=false"


def test_depth_json(capsys, rp2_file):
    code, out, _ = run(capsys, "depth", rp2_file, "--field", "f2", "--json")
    data = json.loads(out)
    assert data["depth"] == 2 and data["krull_dim"] == 3
    assert data["cohen_macaulay"] is False


def test_depth_rejects_integer_coefficients(capsys, rp2_file):
    code, _, err = run(capsys, "depth", rp2_file, "--field", "z")
    assert code == 2 and err.startswith("error:")


def test_depth_has_no_vertex_cap_flag(capsys, tmp_path):
    p = tmp_path / "two.cplx"
    p.write_text(TWO_FACETS)
    code, out, _ = run(capsys, "depth", str(p))
    assert (code, out) == (0, "pdim=27 depth=1 dim=14 CM=false\n")
    with pytest.raises(SystemExit) as exc:
        main(["depth", str(p), "--max-n", "30"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-n" in capsys.readouterr().err


def test_delta_of_complex(capsys, hollow_file):
    code, out, _ = run(capsys, "delta", hollow_file)
    assert code == 0
    assert out == "n 3\nfacet 1 2\nfacet 1 3\nfacet 2 3\n"


def test_delta_of_primes(capsys, tmp_path):
    p = tmp_path / "fam.primes"
    p.write_text("n 3\nprime 3\nprime 2\nprime 1\n")
    code, out, _ = run(capsys, "delta", str(p))
    assert code == 0
    assert out == "n 3\nfacet 1 2\nfacet 1 3\nfacet 2 3\n"


@pytest.mark.parametrize("family,message", [
    # range and format errors alike name the file first
    ({"n": 2, "primes": [[3]]}, "{path}: prime (3,) outside variables 1..2"),
    ({"n": -1, "primes": [[1]]},
     "{path}: ambient variable count must be nonnegative"),
    ({"n": 2, "primes": [["a"]]}, "{path}: bad variable 'a' in prime ['a']"),
    ({"n": "x", "primes": [[1]]}, "{path}: bad variable count 'x'"),
    ({"n": 2, "primes": 5}, "{path}: bad prime list 5"),
    ({"n": 2, "primes": [1]}, "{path}: bad prime 1"),
    ({"n": 2, "primes": [[0]]}, "{path}: bad variable 0 in prime [0]"),
    ({"n": 2, "primes": [[True]]},
     "{path}: bad variable True in prime [True]"),
])
def test_delta_rejects_malformed_json_prime_family(capsys, tmp_path, family,
                                                   message):
    p = tmp_path / "fam.json"
    p.write_text(json.dumps(family))
    code, out, err = run(capsys, "delta", str(p))
    assert (code, out, err) == (2, "", f"error: {message.format(path=p)}\n")


@pytest.mark.parametrize("text,message", [
    # input errors name the file, as under every other verb
    ('{"n": 2, "facets": [[3]]}', "{path}: vertex 3 out of range 1..2"),
    ('{"n": 2, "facets": [[1, 2]',
     "{path}: Expecting ',' delimiter: line 1 column 27 (char 26)"),
    ('{"n": 2, "primes": [[1]]',
     "{path}: Expecting ',' delimiter: line 1 column 25 (char 24)"),
    # errors of the computation keep their text
    ('{"n": 0, "facets": [[]]}', "ambient variable count must be at least 1"),
    ("n 21\n" + "".join(f"prime {i}\n" for i in range(1, 22)),
     "family has 21 primes; limit is 20"),
])
def test_delta_names_the_file_in_input_errors(capsys, tmp_path, text,
                                              message):
    p = tmp_path / "in.txt"
    p.write_text(text)
    code, out, err = run(capsys, "delta", str(p))
    assert (code, out, err) == (2, "", f"error: {message.format(path=p)}\n")


@pytest.mark.parametrize("obj,message", [
    ({"n": 2, "facets": [[3]]}, "vertex 3 out of range 1..2"),
    ({"n": 2, "facets": [["a"]]}, "vertex 'a' out of range 1..2"),
    ({"n": 2, "facets": 5}, "bad facet list 5"),
    ({"n": 2, "facets": [1]}, "bad facet 1"),
    ({"n": 2, "facets": [[1, "a"]]}, "vertex 'a' out of range 1..2"),
    ({"n": 2, "facets": [[True]]}, "vertex True out of range 1..2"),
    ({"n": True, "facets": [[1]]}, "bad vertex count True"),
])
def test_homology_rejects_malformed_json_complex(capsys, tmp_path, obj,
                                                 message):
    p = tmp_path / "k.json"
    p.write_text(json.dumps(obj))
    code, out, err = run(capsys, "homology", str(p))
    assert (code, out, err) == (2, "", f"error: {p}: {message}\n")


def test_dual_warns_on_degenerate_input(capsys, tmp_path):
    p = tmp_path / "full.cplx"
    p.write_text("n 2\nfacet 1 2\n")
    code, out, err = run(capsys, "dual", str(p))
    assert code == 0 and "warning:" in err
    assert out.splitlines()[0] == "n 2"


def test_nerve(capsys, tmp_path):
    p = tmp_path / "k.cplx"
    p.write_text("n 4\nfacet 1 2\nfacet 2 3\nfacet 3 4\n")
    code, out, _ = run(capsys, "nerve", str(p))
    assert code == 0
    assert out == "n 3\nfacet 1 2\nfacet 2 3\n"


def test_sr_generators(capsys, hollow_file):
    code, out, _ = run(capsys, "sr", hollow_file)
    assert code == 0 and out == "n 3\ngenerator 1 2 3\n"
    code, out, _ = run(capsys, "sr", hollow_file, "--json")
    assert json.loads(out) == {"n": 3, "generators": [[1, 2, 3]]}


def test_link_of_face(capsys, rp2_file):
    code, out, _ = run(capsys, "link", rp2_file, "--face", "1,2")
    assert code == 0
    # every edge of the surface lies in exactly two triangles, so the
    # link of an edge is two points (relabelled to a compact support)
    assert out == "n 4\nfacet 1\nfacet 4\n"
    # empty face: the link is the complex itself
    code, out, _ = run(capsys, "link", rp2_file, "--face", "")
    assert out == render_complex_text(rp2_complex())


def test_link_rejects_nonface(capsys, hollow_file):
    code, _, err = run(capsys, "link", hollow_file, "--face", "1,2,3")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "link", hollow_file, "--face", "1,x")
    assert code == 2 and "expected comma-separated" in err


def test_link_refuses_a_face_outside_the_ambient_set(capsys, hollow_file):
    code, out, err = run(capsys, "link", hollow_file, "--face", "9")
    assert (code, out, err) == (
        2, "", "error: face (9,) outside ambient set 1..3\n")


UNKNOWN_CHECK = ("unknown check 'nope' (known: hartshorne, depth_vanishing, "
                 "few_facets, generator_count, alexander_duality, nerve, "
                 "delta_iso_nerve, uct)")
BAD_FIELD = ("unknown coefficient flag 'bogus' (expected z, q, f2, f3 or "
             "fp:<prime>)")

# with two faults in one command line, the one reported first: check ids
# before fields under `check`, fields first under `sweep`, and depth's
# field rule before the void complex
ERROR_ORDER = {
    "check_ids_then_fields": (
        ("check", HOLLOW, "--checks", "nope", "--fields", "bogus"),
        UNKNOWN_CHECK),
    "sweep_fields_then_ids": (
        ("sweep", None, "-n", "3", "--checks", "nope", "--fields", "bogus"),
        BAD_FIELD),
    "sweep_exhaustive_ids": (("sweep", None, "-n", "5", "--checks", "nope"),
                             UNKNOWN_CHECK),
    "depth_field_then_void": (("depth", "n 3\n", "--field", "z"),
                              "depth needs field coefficients "
                              "(q, f2, f3, fp:<p>)"),
    "depth_void": (("depth", "n 3\n", "--field", "q"),
                   "the void complex has no face ring"),
}


@pytest.mark.parametrize("case", sorted(ERROR_ORDER))
def test_the_first_of_two_faults_is_reported(capsys, tmp_path, case):
    (verb, text, *flags), message = ERROR_ORDER[case]
    argv = [verb] + flags
    if text is not None:
        p = tmp_path / "input.cplx"
        p.write_text(text)
        argv.insert(1, str(p))
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_check_fixture_battery(capsys):
    code, out, _ = run(capsys, "check", "--fixture", "rp2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6 and all(": pass" in l for l in lines)
    assert any("integral_h1_is_z_mod_2" in l for l in lines)


def test_check_fixture_json(capsys):
    code, out, _ = run(capsys, "check", "--fixture", "rp2", "--json")
    data = json.loads(out)
    assert code == 0 and all(entry["passed"] for entry in data)


def test_check_unknown_fixture(capsys):
    code, _, err = run(capsys, "check", "--fixture", "torus")
    assert code == 2 and "unknown fixture" in err


def test_check_file_with_selection(capsys, hollow_file):
    code, out, _ = run(capsys, "check", hollow_file,
                       "--checks", "hartshorne,nerve",
                       "--fields", "q,f2")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(l.endswith("pass") for l in lines)
    assert any(l.startswith("hartshorne [Q]") for l in lines)


def test_check_marks_expected_integral_failure(capsys, rp2_file):
    code, out, _ = run(capsys, "check", rp2_file,
                       "--checks", "depth_vanishing", "--fields", "z,q")
    lines = out.strip().splitlines()
    assert lines[0] == "depth_vanishing [Z] FAIL (expected)"
    assert lines[1] == "depth_vanishing [Q] pass"
    assert code == 0  # an expected failure is a met expectation


def test_check_needs_input_or_fixture(capsys):
    code, _, err = run(capsys, "check")
    assert code == 2 and err.startswith("error:")


def test_check_rejects_a_family_too_large_for_delta(capsys, tmp_path):
    # the 21 edges of the complete graph on 7 vertices: depth 2, so the
    # hartshorne check needs delta of 21 primes, past its subset limit
    p = tmp_path / "big.cplx"
    p.write_text("n 7\n" + "".join(f"facet {a} {b}\n"
                                    for a in range(1, 8)
                                    for b in range(a + 1, 8)))
    code, out, err = run(capsys, "check", str(p), "--checks", "hartshorne")
    assert (code, out, err) == (
        2, "", "error: family has 21 primes; limit is 20\n")


def test_check_unknown_check_id(capsys, hollow_file):
    code, _, err = run(capsys, "check", hollow_file, "--checks", "bogus")
    assert code == 2 and "unknown check" in err


@pytest.mark.parametrize("argv,message", [
    (("check", "--checks", ","), "no checks selected"),
    (("check", "--fields", ""), "no coefficients selected"),
    (("sweep", "-n", "2", "--checks", " , "), "no checks selected"),
    (("sweep", "-n", "2", "--fields", ""), "no coefficients selected"),
], ids=["check-ids", "check-fields", "sweep-ids", "sweep-fields"])
def test_an_empty_selection_exits_two(capsys, hollow_file, argv, message):
    verb, *flags = argv
    if verb == "check":
        flags.insert(0, hollow_file)
    assert run(capsys, verb, *flags) == (2, "", f"error: {message}\n")


def test_sweep_text(capsys):
    code, out, _ = run(capsys, "sweep", "-n", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "sweep n=2 mode=exhaustive"
    assert "complexes: 5" in lines
    assert "unexpected failures: 0" in lines
    assert lines[-1].startswith("elapsed:")


def test_sweep_json(capsys):
    code, out, _ = run(capsys, "sweep", "-n", "2", "--json",
                       "--checks", "hartshorne", "--fields", "q")
    data = json.loads(out)
    assert code == 0
    assert data["complexes"] == 5 and data["unexpected_failures"] == 0
    assert data["checks"] == ["hartshorne"]
    assert "elapsed_seconds" in data


def test_sweep_random_mode_flags(capsys):
    code, out, _ = run(capsys, "sweep", "-n", "6", "--mode", "random",
                       "--seed", "3", "--count", "5",
                       "--checks", "few_facets", "--fields", "q")
    assert code == 0
    assert out.splitlines()[0] == "sweep n=6 mode=random seed=3 count=5"


def test_sweep_rejects_a_negative_count(capsys):
    code, out, err = run(capsys, "sweep", "-n", "6", "--mode", "random",
                         "--seed", "3", "--count", "-5")
    assert (code, out) == (2, "")
    assert err == "error: count must be nonnegative, got -5\n"


def test_usage_errors_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "homology", str(tmp_path / "missing.cplx"))
    assert code == 2 and err.startswith("error:")
    bad = tmp_path / "bad.cplx"
    bad.write_text("n 2\nfacet 9\n")
    code, _, err = run(capsys, "homology", str(bad))
    assert code == 2 and "line 2" in err
    code, _, err = run(capsys, "homology", str(bad), "--field", "f9")
    assert code == 2


def test_unknown_verb_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# one file that is not UTF-8, and one JSON object nested past the
# decoder's recursion limit
UNREADABLE = {
    "not_utf8": b"n 2\nfacet 1 \xff\n",
    "deep_json": b'{"n": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
}


@pytest.mark.parametrize("kind", sorted(UNREADABLE))
@pytest.mark.parametrize("verb", ["homology", "depth", "delta", "dual",
                                  "nerve", "sr", "link", "check"])
def test_unreadable_input_is_an_input_error(capsys, tmp_path, verb, kind):
    p = tmp_path / "in.cplx"
    p.write_bytes(UNREADABLE[kind])
    code, out, err = run(capsys, verb, str(p))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {p}: ") and err.count("\n") == 1


def test_notices_go_to_stderr(capsys, tmp_path):
    p = tmp_path / "dups.cplx"
    p.write_text("n 2\nfacet 1 1 2\n")
    code, out, err = run(capsys, "homology", str(p))
    assert code == 0 and err.startswith("notice:") and "merged" in err


# 92 bytes, but 32,766 faces and 2**28 vertex subsets
TWO_FACETS = ("n 28\nfacet " + " ".join(map(str, range(1, 15)))
              + "\nfacet " + " ".join(map(str, range(15, 29))) + "\n")


# the child's address space; the largest answer below (`sr` on 30,000
# vertices) peaks at about 135 MB resident
CHILD_MEMORY = 1 << 30


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))


def run_child(tmp_path, *argv, text=TWO_FACETS, timeout=60):
    """Run the CLI on `text` as a child process with capped memory, so
    that a regression fails on the timeout or on the cap instead of
    hanging the suite or taking the machine's memory."""
    p = tmp_path / "input.cplx"
    p.write_text(text)
    src = str(Path(spectral_delta.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [x for x in [os.environ.get("PYTHONPATH")] if x]))
    return subprocess.run(
        [sys.executable, "-m", "spectral_delta.cli", argv[0], str(p),
         *argv[1:]], capture_output=True, text=True, timeout=timeout,
        env=env, preexec_fn=_cap_memory)


@pytest.mark.parametrize("field,label", [("z", "Z"), ("q", "Q"),
                                         ("f2", "F2")])
def test_homology_of_two_disjoint_large_facets_finishes(tmp_path, field,
                                                        label):
    # boundary maps of up to 6,864 columns; the dense kernels alone did
    # not finish in a minute
    done = run_child(tmp_path, "homology", "--field", field)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ", ".join(
        [f"H~0: {label}"] + [f"H~{i}: 0" for i in range(1, 14)])


def test_face_ideal_of_two_disjoint_large_facets_finishes(tmp_path):
    # the minimal nonfaces are the 196 edges across the two facets; a
    # scan of all 2**28 vertex subsets would not finish
    done = run_child(tmp_path, "sr")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "n 28\n" + "".join(
        f"generator {i} {j}\n" for i in range(1, 15) for j in range(15, 29))
    done = run_child(tmp_path, "dual")
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 1 + 196


def test_face_ideal_of_one_vertex_among_many_finishes(tmp_path):
    # 29,999 minimal nonfaces, one high vertex each; unmasking them bit
    # position by bit position did not finish in a minute
    done = run_child(tmp_path, "sr", text="n 30000\nfacet 1\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "n 30000\n" + "".join(
        f"generator {v}\n" for v in range(2, 30001))


# small inputs whose work lies far above the face budget: the dual of
# two edges and the boundary of a simplex keep all 24 vertices in their
# strong cores, the facet nerve of RP^2 * (boundary of a tetrahedron) has
# 10 facets of 20-30 vertices, and the dual of one vertex among 4,000
# lists 3,999 facets of 3,999 vertices
OVER_BUDGET = {
    "duality_of_two_edges": (
        ("check", "--checks", "alexander_duality", "--fields", "q"),
        "n 24\nfacet 1 2\nfacet 3 4\n", "face bound 184,549,376 "),
    "homology_of_a_simplex_boundary": (
        ("homology",),
        render_complex_text(make_complex(24, combinations(range(1, 25), 23))),
        "face bound 201,326,592 "),
    "nerve_of_rp2_join_a_sphere": (
        ("check", "--checks", "nerve", "--fields", "q"),
        render_complex_text(make_complex(
            10, [f + g for f in rp2_complex().facets
                 for g in combinations(range(7, 11), 3)])),
        "face bound 4,301,258,752 "),
    "dual_of_one_vertex_among_4000": (
        ("dual",), "n 4000\nfacet 1\n",
        "the dual's 15,992,001 vertex entries "),
}


@pytest.mark.parametrize("case", sorted(OVER_BUDGET))
def test_work_above_the_face_budget_exits_two_at_once(tmp_path, case):
    argv, text, bound = OVER_BUDGET[case]
    done = run_child(tmp_path, *argv, text=text, timeout=5)
    assert (done.returncode, done.stdout) == (2, ""), done.stderr[-500:]
    assert done.stderr.startswith("error: " + bound), done.stderr
    assert done.stderr.endswith("the face budget 4,194,304\n")
    assert done.stderr.count("\n") == 1


# a count far past what n-bit masks can walk: the face ideal and the dual
# of one vertex list n - 1 members, so without the ambient limit these
# inputs run out of memory or past the timeout
AMBIENT_VERBS = {
    "delta": ("delta",), "dual": ("dual",), "sr": ("sr",),
    "link": ("link", "--face", "1"), "check": ("check", "--fields", "q"),
}


@pytest.mark.parametrize("n", [10 ** 6, 10 ** 11])
@pytest.mark.parametrize("verb", sorted(AMBIENT_VERBS))
def test_an_ambient_count_above_the_limit_exits_two_at_once(tmp_path, verb,
                                                            n):
    done = run_child(tmp_path, *AMBIENT_VERBS[verb],
                     text=f"n {n}\nfacet 1\n", timeout=5)
    assert (done.returncode, done.stdout) == (2, ""), done.stderr[-500:]
    assert done.stderr == (f"error: {tmp_path / 'input.cplx'}: ambient "
                           f"vertex count {n:,} exceeds the limit 32,768\n")


def test_a_json_prime_far_outside_the_variables_exits_two_at_once(tmp_path):
    # 37 bytes; a mask of its variable would take 12.5 GB
    text = '{"n": 2, "primes": [[100000000000]]}'
    done = run_child(tmp_path, "delta", text=text, timeout=5)
    assert (done.returncode, done.stdout) == (2, ""), done.stderr[-500:]
    assert done.stderr == (f"error: {tmp_path / 'input.cplx'}: prime "
                           "(100000000000,) outside variables 1..2\n")


# sha256 of the top-level and each verb's --help screen at 80 columns
HELP_DIGESTS = {
    "":
        "dd99ab00780d08e5e0bc77933ea085d62fedc059c7468aeb0bbd7dba89e88c72",
    "homology":
        "6af8a0cf96a566e550d003fe81c3e377557f06337dde8e911865563bdfad6bb7",
    "depth":
        "e24ba1d7db4e710f2e6acad3a2221473974dae9c1ebc1097178d7049908b9502",
    "delta":
        "c1c3e4ce1c74050c675d61fc5f2036bacb41d6ef9760354e6aae122433406b00",
    "dual":
        "db1a065adf47cf5d7fa71dc09c3d6109256fa778cf06470d8cae46146e30bb9b",
    "nerve":
        "727e7c329cb704fe14c90cfab94f7ff8b812b5893c546c39b9a11941d86381d9",
    "sr":
        "de72abcbfbf1465831bc3d3d70729b32fe9c496e8266417a10891cb4e791bdf5",
    "link":
        "4f1cdde8bc2c159e3b582b980ee6eff26dcc29ce5799eac826c806fdb7ce018e",
    "check":
        "e9de10c6c668d1d3e245ab49ac72022968f8f6904f277e28c613b506e664d1ca",
    "sweep":
        "0fd7d668b75ac88292825a5d7754011c1d869c6a5d8cdace0028292b89e3b8fe",
}


@pytest.mark.parametrize("verb", sorted(HELP_DIGESTS),
                         ids=lambda verb: verb or "top")
def test_help_screens_are_pinned(capsys, monkeypatch, verb):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([verb, "--help"] if verb else ["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[verb], out


README = Path(__file__).resolve().parents[1] / "README.md"

README_INPUTS = {
    "hollow.cplx": HOLLOW,
    "rp2.cplx": render_complex_text(rp2_complex()),
    "two-edges.cplx": "n 24\nfacet 1 2\nfacet 3 4\n",
}


def readme_examples():
    """(argv, printed lines) for each `$ spectral-delta` line of the
    README, the printed lines running up to the next blank line."""
    examples, shown = [], None
    for line in README.read_text().splitlines():
        if line.startswith("$ spectral-delta "):
            shown = []
            examples.append((shlex.split(line[2:], comments=True)[1:], shown))
        elif not line.strip() or line == "```":
            shown = None
        elif shown is not None:
            shown.append(line)
    return examples


def test_readme_cli_examples_print_what_the_readme_shows(capsys, monkeypatch,
                                                         tmp_path):
    for name, text in README_INPUTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SPECTRAL_DELTA_THREADS", raising=False)
    examples = readme_examples()
    assert len(examples) == 8
    for argv, shown in examples:
        _, out, err = run(capsys, *argv)
        printed = [line for line in (out + err).splitlines()
                   if not line.startswith("elapsed: ")]
        assert printed == [line for line in shown
                           if not line.startswith("elapsed: ")], argv
