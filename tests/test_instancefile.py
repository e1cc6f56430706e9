"""Instance-file parsing, diagnostics, and round-trip serialization."""

from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import is_isomorphic

from socle.linalg import QQ
from socle.modules import canonical_module, random_module, syzygy
from socle.ring import ring_from_strings
from socle.theorems import agp_example

from socle.instancefile import (
    ParseError,
    parse_instance,
    parse_poly,
    poly_str,
    serialize_instance,
)

AGP_PATH = Path(__file__).resolve().parents[1] / "examples" / "agp.ring"


def test_parse_poly_basic():
    p = parse_poly("2*x^2 - x*y + 3", ["x", "y"])
    assert p == {(2, 0): 2, (1, 1): -1, (0, 0): 3}


def test_parse_poly_merges_and_cancels():
    assert parse_poly("x + x", ["x"]) == {(1,): 2}
    assert parse_poly("x - x", ["x"]) == {(0,): 0}


def test_parse_poly_errors_carry_position():
    with pytest.raises(ParseError) as ei:
        parse_poly("x + ", ["x"], line=7)
    assert ei.value.line == 7
    with pytest.raises(ParseError) as ei:
        parse_poly("x * * y", ["x", "y"])
    assert ei.value.col == 5
    with pytest.raises(ParseError):
        parse_poly("z", ["x", "y"])
    with pytest.raises(ParseError):
        parse_poly("x^", ["x"])
    # terms are joined by '+' or '-' only: "2x" is not 2 + x
    for text, col in (("2x", 2), ("x y", 3), ("x^2 y", 5), ("3 4", 3),
                      ("x*y z", 5)):
        with pytest.raises(ParseError) as ei:
            parse_poly(text, ["x", "y", "z"], line=4)
        assert (ei.value.line, ei.value.col) == (4, col)


def test_poly_str_round_trip():
    for src in ["x^2 - 3*x*y + y^2", "- x + 2", "0", "x1*x2^3"]:
        names = ["x1", "x2"] if "x1" in src else ["x", "y"]
        p = parse_poly(src, names)
        assert parse_poly(poly_str(p, names), names) == p


def test_parse_instance_agp():
    ring, mods = parse_instance(AGP_PATH.read_text(encoding="utf-8"))
    assert ring.hilbert == [1, 4, 3]
    assert set(mods) == {"M"}
    assert mods["M"].min_gens() == 2
    assert mods["M"].dim == 8


def test_serialize_round_trip():
    ring, mods = parse_instance(AGP_PATH.read_text(encoding="utf-8"))
    text = serialize_instance(ring, mods)
    ring2, mods2 = parse_instance(text)
    assert ring2.hilbert == ring.hilbert
    assert serialize_instance(ring2, mods2) == text
    assert is_isomorphic(mods["M"], mods2["M"])


def test_agp_copies_agree():
    # the periodic example is written out in the shipped file and in the
    # theorems module (which `socle example agp` runs); both must stay one
    # instance
    shipped = AGP_PATH.read_text(encoding="utf-8")
    ring, M = agp_example()
    expected = serialize_instance(ring, {"M": M})
    assert serialize_instance(*parse_instance(shipped)) == expected


def _signed(c, mon):
    return f"{'-' if c > 0 else '+'} {abs(c)}*{mon}"


COEFFS = st.sampled_from([-5, -3, -2, -1, 1, 2, 3, 5, 7])


@given(st.tuples(COEFFS, COEFFS, COEFFS), st.integers(0, 2**16))
@example((3, 5, 2), 0)
@settings(max_examples=20, deadline=None)
def test_rational_dossier_round_trip(coeffs, seed):
    # over Q[x,y,z]/(x^2 - a yz, y^2 - b xz, z^2 - c xy, xyz) the
    # presentations of omega and of syzygies have fractional entries,
    # which the instance grammar cannot spell
    a, b, c = coeffs
    ring = ring_from_strings(QQ, ["x", "y", "z"], [
        "x^2 " + _signed(a, "y*z"), "y^2 " + _signed(b, "x*z"),
        "z^2 " + _signed(c, "x*y"), "x*y*z"])
    mods = {"omega": canonical_module(ring),
            "M1": syzygy(random_module(ring, seed))[0]}
    ring2, mods2 = parse_instance(serialize_instance(ring, mods))
    assert ring2.hilbert == ring.hilbert
    for name, mod in mods.items():
        assert mods2[name].dim == mod.dim
        assert is_isomorphic(mods2[name], mod)


def test_section_errors():
    with pytest.raises(ParseError):
        parse_instance("rel = x^2\n")  # content before header
    with pytest.raises(ParseError):
        parse_instance("[ring]\nvars = x\n[ring]\nvars = x\n")
    with pytest.raises(ParseError):
        parse_instance("[module M]\nrow = x\n")  # no ring section
    with pytest.raises(ParseError):
        parse_instance("[ring]\nvars = x\nrel = x^2\n[module]\n")
    with pytest.raises(ParseError) as ei:
        parse_instance(
            "[ring]\nvars = x\nrel = x^3\n[module M]\n[module M]\n"
        )
    assert ei.value.line == 5


def test_module_header_first_word_must_be_module():
    base = "[ring]\nvars = x\nrel = x^3\n"
    for head in ("modules M", "moduleM"):
        with pytest.raises(ParseError, match="unknown section") as ei:
            parse_instance(base + f"[{head}]\nrow = x\n")
        assert ei.value.line == 4
    _, mods = parse_instance(base + "[module M N]\nrow = x\n")
    assert list(mods) == ["M N"]


@pytest.mark.parametrize("text, key", [
    ("[ring]\nvars = x\nrel = x^3\nvars = y\n", "vars"),
    ("[ring]\nfield = GF(7)\nvars = x\nfield = Q\nrel = x^2\n", "field"),
], ids=["vars", "field"])
def test_repeated_ring_key_rejected_at_its_line(text, key):
    with pytest.raises(ParseError, match=f"repeated ring key '{key}'") as ei:
        parse_instance(text)
    assert ei.value.line == 4


def test_ragged_rows_rejected():
    with pytest.raises(ParseError):
        parse_instance(
            "[ring]\nvars = x\nrel = x^3\n[module M]\nrow = x, 0\nrow = x\n"
        )


def test_field_specs():
    base = "[ring]\nfield = {}\nvars = x\nrel = x^2\n"
    ring, _ = parse_instance(base.format("GF(7)"))
    assert ring.field.p == 7
    ring, _ = parse_instance(base.format("Q"))
    assert ring.field.p is None
    with pytest.raises(ParseError):
        parse_instance(base.format("GF(6)"))
    with pytest.raises(ParseError):
        parse_instance(base.format("R"))


def test_coefficients_reduced_mod_p():
    text = "[ring]\nfield = GF(5)\nvars = x\nrel = x^2\n[module M]\nrow = 7*x\n"
    ring, mods = parse_instance(text)
    # 7*x == 2*x over GF(5); the module is R/(x), of length 1
    assert mods["M"].dim == 1
