"""External text and JSON formats.

Complex files:  a header line `n <int>`, then `facet v1 v2 ...` lines;
a bare `empty` line declares the complex whose only face is the empty
set; `#` starts a comment; a header with no body is the void complex.
Prime-family files use `prime v1 v2 ...` lines instead (a bare `prime`
is the zero prime).  JSON mirrors: {"n": int, "facets": [[...], ...]}
and {"n": int, "primes": [[...], ...]}.

Parsers return notices (merged duplicates, pruned members) instead of
failing; hard errors carry the offending line number and token.
"""

from __future__ import annotations

from .complexes import SimplicialComplex, make_complex
from .homology import HomologyProfile
from .stanley_reisner import PrimeFamily, SRGenerators


class FormatError(ValueError):
    """Malformed input file; message carries line number and token."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def _parse_header(lines: list[tuple[int, str]]):
    if not lines:
        raise FormatError("empty input: expected a header line 'n <int>'")
    lineno, text = lines[0]
    parts = text.split()
    if len(parts) != 2 or parts[0] != "n":
        raise FormatError(f"expected header 'n <int>', got {text!r}", lineno)
    try:
        n = int(parts[1])
    except ValueError:
        raise FormatError(f"bad vertex count {parts[1]!r}", lineno)
    if n < 0:
        raise FormatError(f"vertex count must be nonnegative, got {n}", lineno)
    return n, lines[1:]


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((i, body))
    return out


def _parse_vertices(parts: list[str], n: int, lineno: int) -> tuple[int, ...]:
    verts = []
    for tok in parts:
        try:
            v = int(tok)
        except ValueError:
            raise FormatError(f"bad vertex token {tok!r}", lineno)
        if v < 1 or v > n:
            raise FormatError(f"vertex {tok!r} out of range 1..{n}", lineno)
        verts.append(v)
    return tuple(verts)


def parse_complex_text(text: str) -> tuple[SimplicialComplex, list[str]]:
    """Parse the complex text format; returns (complex, notices)."""
    n, rest = _parse_header(_content_lines(text))
    notices: list[str] = []
    faces: list[tuple[int, ...]] = []
    saw_empty = False
    for lineno, line in rest:
        parts = line.split()
        key = parts[0]
        if key == "facet":
            if len(parts) == 1:
                raise FormatError(
                    "facet line needs vertices (use 'empty' for the "
                    "empty-face complex)", lineno)
            verts = _parse_vertices(parts[1:], n, lineno)
            if len(set(verts)) != len(verts):
                notices.append(f"line {lineno}: duplicate vertices merged")
            faces.append(tuple(sorted(set(verts))))
        elif key == "empty":
            saw_empty = True
        else:
            raise FormatError(f"unknown keyword {key!r}", lineno)
    if saw_empty and faces:
        notices.append("'empty' line is redundant: facets already imply "
                       "the empty face")
    K = make_complex(n, faces, include_empty=saw_empty)
    if len(K.facets) != len(faces) and faces:
        notices.append("duplicate or contained facets merged")
    return K, notices


def render_complex_text(K: SimplicialComplex) -> str:
    lines = [f"n {K.n}"]
    if K.is_irrelevant:
        lines.append("empty")
    else:
        for f in K.facets:
            lines.append("facet " + " ".join(str(v) for v in f))
    return "\n".join(lines) + "\n"


def complex_to_json(K: SimplicialComplex) -> dict:
    return {"n": K.n, "facets": [list(f) for f in K.facets]}


def _is_int(v) -> bool:
    """True for a JSON integer; true and false do not count."""
    return isinstance(v, int) and not isinstance(v, bool)


def complex_from_json(obj: dict) -> tuple[SimplicialComplex, list[str]]:
    if not isinstance(obj, dict) or "n" not in obj or "facets" not in obj:
        raise FormatError('expected an object {"n": int, "facets": [[...]]}')
    n, facets = obj["n"], obj["facets"]
    if not _is_int(n) or n < 0:
        raise FormatError(f"bad vertex count {n!r}")
    if not isinstance(facets, list):
        raise FormatError(f"bad facet list {facets!r}")
    for f in facets:
        if not isinstance(f, list):
            raise FormatError(f"bad facet {f!r}")
        for v in f:
            if not _is_int(v):
                # make_complex words its range errors the same way
                raise FormatError(f"vertex {v!r} out of range 1..{n}")
    has_empty = any(len(f) == 0 for f in facets)
    K = make_complex(n, facets, include_empty=has_empty)
    notices = []
    if len(K.facets) != len(facets) and facets:
        notices.append("duplicate or contained facets merged")
    return K, notices


def parse_primes_text(text: str) -> tuple[PrimeFamily, list[str]]:
    """Parse the prime-family text format; returns (family, notices).
    Non-minimal and duplicate members are pruned with a notice."""
    n, rest = _parse_header(_content_lines(text))
    notices: list[str] = []
    primes: list[tuple[int, ...]] = []
    for lineno, line in rest:
        parts = line.split()
        if parts[0] != "prime":
            raise FormatError(f"unknown keyword {parts[0]!r}", lineno)
        verts = _parse_vertices(parts[1:], n, lineno)
        primes.append(tuple(sorted(set(verts))))
    family = PrimeFamily.from_subsets(n, primes)
    if len(family.primes) != len(primes):
        notices.append("duplicate or non-minimal primes pruned")
    return family, notices


def render_primes_text(P: PrimeFamily) -> str:
    lines = [f"n {P.ambient}"]
    for p in P.primes:
        lines.append(("prime " + " ".join(str(v) for v in p)).rstrip())
    return "\n".join(lines) + "\n"


def primes_to_json(P: PrimeFamily) -> dict:
    return {"n": P.ambient, "primes": [list(p) for p in P.primes]}


def primes_from_json(obj: dict) -> tuple[PrimeFamily, list[str]]:
    if not isinstance(obj, dict) or "n" not in obj or "primes" not in obj:
        raise FormatError('expected an object {"n": int, "primes": [[...]]}')
    n, primes = obj["n"], obj["primes"]
    if not _is_int(n):
        raise FormatError(f"bad variable count {n!r}")
    if not isinstance(primes, list):
        raise FormatError(f"bad prime list {primes!r}")
    for p in primes:
        if not isinstance(p, list):
            raise FormatError(f"bad prime {p!r}")
        for v in p:
            if not _is_int(v) or v < 1:
                raise FormatError(f"bad variable {v!r} in prime {p!r}")
    family = PrimeFamily.from_subsets(n, primes)
    notices = []
    if len(family.primes) != len(primes):
        notices.append("duplicate or non-minimal primes pruned")
    return family, notices


def generators_to_json(g: SRGenerators) -> dict:
    return {"n": g.ambient, "generators": [list(x) for x in g.generators]}


def render_generators_text(g: SRGenerators) -> str:
    lines = [f"n {g.ambient}"]
    for x in g.generators:
        lines.append("generator " + " ".join(str(v) for v in x))
    return "\n".join(lines) + "\n"


def sniff_kind(text: str) -> str:
    """Guess whether a file holds a complex or a prime family."""
    for _, line in _content_lines(text):
        key = line.split()[0]
        if key == "prime":
            return "primes"
        if key in ("facet", "empty"):
            return "complex"
    return "complex"


def format_group(free: int, torsion: tuple[int, ...], symbol: str) -> str:
    """Render one homology group: 0, Z, Q^2, F2, Z x Z/2, ..."""
    parts = []
    if free == 1:
        parts.append(symbol)
    elif free > 1:
        parts.append(f"{symbol}^{free}")
    parts.extend(f"Z/{d}" for d in torsion)
    return " x ".join(parts) if parts else "0"


def render_profile_text(profile: HomologyProfile, top_degree: int) -> str:
    """One comma-joined line: degrees 0..top always, -1 only if nonzero."""
    symbol = profile.coeff.label
    degrees = list(range(0, max(top_degree, -1) + 1))
    if not profile.group_is_trivial(-1):
        degrees.insert(0, -1)
    if not degrees:
        return "H~*: 0"
    return ", ".join(
        f"H~{i}: {format_group(profile.free_rank(i), profile.torsion(i), symbol)}"
        for i in degrees)
