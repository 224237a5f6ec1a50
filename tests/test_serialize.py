"""Text and JSON input/output formats."""

import pytest

from spectral_delta import (
    PrimeFamily,
    Q,
    Z,
    full_simplex,
    make_complex,
    reduced_homology,
    sr_generators,
)
from spectral_delta.serialize import (
    FormatError,
    complex_from_json,
    complex_to_json,
    format_group,
    generators_to_json,
    parse_complex_text,
    parse_primes_text,
    primes_from_json,
    primes_to_json,
    render_complex_text,
    render_generators_text,
    render_primes_text,
    render_profile_text,
    sniff_kind,
)

HOLLOW = "n 3\nfacet 1 2\nfacet 1 3\nfacet 2 3\n"


def test_parse_complex_basic():
    K, notices = parse_complex_text(HOLLOW)
    assert K.facets == ((1, 2), (1, 3), (2, 3))
    assert notices == []


def test_parse_complex_ignores_comments_and_blanks():
    text = "# a circle\n\nn 3   # header\n facet 1 2\n\nfacet 1 3 # edge\nfacet 2 3\n"
    K, _ = parse_complex_text(text)
    assert K.facets == ((1, 2), (1, 3), (2, 3))


def test_parse_complex_empty_keyword():
    K, notices = parse_complex_text("n 2\nempty\n")
    assert K.is_irrelevant and notices == []


def test_parse_complex_header_only_is_void():
    K, _ = parse_complex_text("n 3\n")
    assert K.is_void and K.n == 3


def test_parse_complex_redundant_empty_notice():
    K, notices = parse_complex_text("n 2\nfacet 1\nempty\n")
    assert K.facets == ((1,),)
    assert any("redundant" in m for m in notices)


def test_parse_complex_duplicate_vertex_notice():
    K, notices = parse_complex_text("n 2\nfacet 1 1 2\n")
    assert K.facets == ((1, 2),)
    assert any("duplicate vertices" in m and "line 2" in m for m in notices)


def test_parse_complex_merged_facets_notice():
    K, notices = parse_complex_text("n 3\nfacet 1 2 3\nfacet 2 3\n")
    assert K.facets == ((1, 2, 3),)
    assert any("merged" in m for m in notices)


def test_parse_complex_errors_carry_line_numbers():
    with pytest.raises(FormatError) as e:
        parse_complex_text("n 2\nfacet\n")
    assert e.value.line == 2
    with pytest.raises(FormatError) as e:
        parse_complex_text("n 2\nfacet 1 5\n")
    assert "out of range" in str(e.value) and e.value.line == 2
    with pytest.raises(FormatError) as e:
        parse_complex_text("n 2\nfacet 1 x\n")
    assert "'x'" in str(e.value)
    with pytest.raises(FormatError) as e:
        parse_complex_text("n 2\nsimplex 1\n")
    assert "unknown keyword" in str(e.value)
    with pytest.raises(FormatError):
        parse_complex_text("")
    with pytest.raises(FormatError):
        parse_complex_text("vertices 3\n")
    with pytest.raises(FormatError):
        parse_complex_text("n three\n")
    with pytest.raises(FormatError):
        parse_complex_text("n -1\n")


def test_complex_text_round_trip(rp2):
    for K in (rp2, full_simplex(3), make_complex(2, [], include_empty=True),
              make_complex(4, [(1, 2), (3,)])):
        back, notices = parse_complex_text(render_complex_text(K))
        assert back == K and notices == []


def test_complex_json_round_trip(rp2):
    for K in (rp2, make_complex(2, [], include_empty=True)):
        back, notices = complex_from_json(complex_to_json(K))
        assert back == K and notices == []


def test_complex_json_validation():
    with pytest.raises(FormatError):
        complex_from_json({"facets": []})
    with pytest.raises(FormatError):
        complex_from_json({"n": "three", "facets": []})
    with pytest.raises(FormatError):
        complex_from_json([1, 2])
    for facets in (5, [1], [[1, "a"]], [[True]]):
        with pytest.raises(FormatError):
            complex_from_json({"n": 2, "facets": facets})


def test_complex_json_merge_notice():
    K, notices = complex_from_json({"n": 3, "facets": [[1, 2, 3], [1, 2]]})
    assert K.facets == ((1, 2, 3),)
    assert notices


def test_parse_primes_basic():
    fam, notices = parse_primes_text("n 3\nprime 3\nprime 2\nprime 1\n")
    assert fam.primes == ((3,), (2,), (1,)) or fam.primes == ((1,), (2,), (3,))
    assert notices == []


def test_parse_primes_zero_prime():
    fam, _ = parse_primes_text("n 3\nprime\n")
    assert fam.primes == ((),)


def test_parse_primes_prunes_with_notice():
    fam, notices = parse_primes_text("n 3\nprime 1\nprime 1 2\n")
    assert fam.primes == ((1,),)
    assert any("pruned" in m for m in notices)


def test_parse_primes_rejects_other_keywords():
    with pytest.raises(FormatError):
        parse_primes_text("n 3\nfacet 1\n")


def test_json_primes_prune_with_notice():
    fam, notices = primes_from_json({"n": 3, "primes": [[2, 1], [1, 2, 3],
                                                        [1, 2]]})
    assert fam.primes == ((1, 2),)
    assert notices == ["duplicate or non-minimal primes pruned"]
    assert primes_from_json({"n": 3, "primes": [[1], [2]]})[1] == []


def test_primes_round_trips():
    fam = PrimeFamily(4, ((1, 2), (3,)))
    back, notices = parse_primes_text(render_primes_text(fam))
    assert back.primes == fam.primes and back.ambient == 4
    back, _ = primes_from_json(primes_to_json(fam))
    assert back.primes == fam.primes
    with pytest.raises(FormatError):
        primes_from_json({"n": 3})


def test_generator_outputs(hollow_triangle):
    g = sr_generators(hollow_triangle)
    assert generators_to_json(g) == {"n": 3, "generators": [[1, 2, 3]]}
    assert render_generators_text(g) == "n 3\ngenerator 1 2 3\n"


def test_sniff_kind():
    assert sniff_kind(HOLLOW) == "complex"
    assert sniff_kind("n 2\nempty\n") == "complex"
    assert sniff_kind("n 3\nprime 1\n") == "primes"
    assert sniff_kind("n 3\n") == "complex"  # header-only defaults


def test_format_group_rendering():
    assert format_group(0, (), "Z") == "0"
    assert format_group(1, (), "Z") == "Z"
    assert format_group(2, (), "Q") == "Q^2"
    assert format_group(1, (), "F2") == "F2"
    assert format_group(0, (2,), "Z") == "Z/2"
    assert format_group(1, (2, 4), "Z") == "Z x Z/2 x Z/4"


def test_render_profile_line(hollow_triangle, rp2, irrelevant2):
    prof = reduced_homology(hollow_triangle, Z)
    line = render_profile_text(prof, hollow_triangle.dimension)
    assert line == "H~0: 0, H~1: Z"
    prof = reduced_homology(rp2, Z)
    assert render_profile_text(prof, rp2.dimension) \
        == "H~0: 0, H~1: Z/2, H~2: 0"
    prof = reduced_homology(irrelevant2, Z)
    assert render_profile_text(prof, irrelevant2.dimension) == "H~-1: Z"
    prof = reduced_homology(make_complex(2, []), Z)
    assert render_profile_text(prof, -2) == "H~*: 0"
