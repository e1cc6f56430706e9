"""Instance file grammar: [ring] and [module NAME] sections.

    # comment lines start with '#'
    [ring]
    field = GF(101)
    vars = x1 x2 x3 x4
    rel = x1^2
    rel = x1*x2 - x3*x4
    [module M]
    row = x3, x1
    row = x4, x2

Polynomial terms are an optional integer coefficient followed by
'*'-separated variables with optional '^' powers; terms are joined by
'+'/'-' and by nothing else, so '2x' is an error, not 2 + x.  Parsing is
total or fails with a line/column diagnostic.
Serialization round-trips to an identical model.
"""

import math
import re

import numpy as np

from .linalg import Field, GF101
from .modules import from_presentation, presentation_of, rmatrix_from_polys
from .ring import RingPresentation, build_ring


class ParseError(ValueError):
    def __init__(self, msg, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(msg + loc)
        self.line = line
        self.col = col


_TOKEN = re.compile(r"\s*([+-]|\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*)")


def parse_poly(text, varnames, line=None):
    """Parse a polynomial into an exponent-dict {tuple: int coeff}."""
    var_index = {v: i for i, v in enumerate(varnames)}
    e = len(varnames)
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"bad character {text[pos:].strip()[0]!r}", line, pos + 1)
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    if not tokens:
        raise ParseError("empty polynomial", line)

    poly = {}
    i = 0
    n = len(tokens)

    def fail(msg, at):
        raise ParseError(msg, line, at + 1)

    while i < n:
        sign = 1
        while i < n and tokens[i][0] in "+-":
            if tokens[i][0] == "-":
                sign = -sign
            i += 1
        if i >= n:
            fail("dangling sign", tokens[n - 1][1])
        coeff = 1
        exps = [0] * e
        while True:
            tok, at = tokens[i]
            if tok.isdigit():
                coeff *= int(tok)
            elif tok in var_index:
                power = 1
                if i + 1 < n and tokens[i + 1][0] == "^":
                    if i + 2 >= n or not tokens[i + 2][0].isdigit():
                        fail("expected exponent after '^'", tokens[i + 1][1])
                    power = int(tokens[i + 2][0])
                    i += 2
                exps[var_index[tok]] += power
            elif tok == "^":
                fail("unexpected '^'", at)
            elif tok == "*":
                fail("unexpected '*'", at)
            else:
                fail(f"unknown variable {tok!r}", at)
            i += 1
            if i < n and tokens[i][0] == "*":
                i += 1
                if i >= n:
                    fail("dangling '*'", tokens[i - 1][1])
                continue
            break
        if i < n and tokens[i][0] not in "+-":
            fail(f"expected '+' or '-' before {tokens[i][0]!r}", tokens[i][1])
        key = tuple(exps)
        poly[key] = poly.get(key, 0) + sign * coeff
    return {k: c for k, c in poly.items() if c != 0} or {tuple([0] * e): 0}


def poly_str(poly, varnames):
    terms = []
    for mon in sorted(poly, reverse=True):
        c = poly[mon]
        body = "*".join(
            v if k == 1 else f"{v}^{k}" for v, k in zip(varnames, mon) if k
        )
        mag = abs(c)
        if body:
            s = body if mag == 1 else f"{mag}*{body}"
        else:
            s = str(mag)
        terms.append(("- " if c < 0 else "+ ") + s)
    if not terms:
        return "0"
    first = terms[0]
    out = ("-" + first[2:]) if first.startswith("- ") else first[2:]
    return " ".join([out] + terms[1:])


def _parse_field(text, line):
    text = text.strip()
    if text in ("Q", "QQ"):
        return Field(None)
    m = re.fullmatch(r"GF\((\d+)\)", text)
    if not m:
        raise ParseError(f"bad field spec {text!r}", line)
    try:
        return Field(int(m.group(1)))
    except ValueError as exc:
        raise ParseError(str(exc), line)


def parse_instance_text(text, default_field=None):
    """Parse into (RingPresentation, {name: row-lists of poly dicts}).

    Module rows are lists of polynomial dicts; the caller realizes them
    over the built ring.
    """
    field = varnames = None
    relations = []
    modules = {}
    section = None
    saw_ring = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("unterminated section header", lineno)
            head = stripped[1:-1].strip()
            if head == "ring":
                if saw_ring:
                    raise ParseError("duplicate [ring] section", lineno)
                saw_ring = True
                section = ("ring",)
            elif head.split()[:1] == ["module"]:
                name = head[len("module"):].strip()
                if not name:
                    raise ParseError("module section needs a name", lineno)
                if name in modules:
                    raise ParseError(f"duplicate module name {name!r}", lineno)
                modules[name] = []
                section = ("module", name)
            else:
                raise ParseError(f"unknown section {head!r}", lineno)
            continue
        if section is None:
            raise ParseError("content before any section header", lineno)
        if "=" not in stripped:
            raise ParseError("expected 'key = value'", lineno)
        key, value = (s.strip() for s in stripped.split("=", 1))
        if section[0] == "ring":
            if {"field": field, "vars": varnames}.get(key) is not None:
                raise ParseError(f"repeated ring key {key!r}", lineno)
            if key == "field":
                field = _parse_field(value, lineno)
            elif key == "vars":
                varnames = value.replace(",", " ").split()
                if not varnames:
                    raise ParseError("empty vars list", lineno)
            elif key == "rel":
                relations.append((value, lineno))
            else:
                raise ParseError(f"unknown ring key {key!r}", lineno)
        else:
            if key != "row":
                raise ParseError(f"unknown module key {key!r}", lineno)
            modules[section[1]].append((value, lineno))

    if not saw_ring:
        raise ParseError("missing [ring] section")
    if varnames is None:
        raise ParseError("missing vars in [ring]")

    rels = [parse_poly(src, varnames, line=ln) for src, ln in relations]
    pres = RingPresentation(field or default_field or GF101, varnames, rels)

    parsed_modules = {}
    for name, rows in modules.items():
        out_rows = []
        width = None
        for src, ln in rows:
            entries = [parse_poly(p.strip() or "0", varnames, line=ln)
                       for p in src.split(",")]
            if width is None:
                width = len(entries)
            elif len(entries) != width:
                raise ParseError("ragged presentation matrix", ln)
            out_rows.append(entries)
        parsed_modules[name] = out_rows
    return pres, parsed_modules


def parse_instance(text, default_field=None):
    """Build the ring and realize every named module presentation."""
    pres, mods = parse_instance_text(text, default_field=default_field)
    ring = build_ring(pres)
    realized = {}
    for name, rows in mods.items():
        realized[name] = from_presentation(ring, rmatrix_from_polys(ring, rows))
    return ring, realized


def serialize_instance(ring, modules):
    """Emit instance-file text; modules is {name: FiniteModule}."""
    lines = ["[ring]"]
    p = ring.field.p
    lines.append(f"field = {'Q' if p is None else f'GF({p})'}")
    lines.append("vars = " + " ".join(ring.varnames))
    for f in ring.presentation.relations:
        lines.append("rel = " + poly_str(f, ring.varnames))
    for name, mod in modules.items():
        lines.append(f"[module {name}]")
        pres = presentation_of(mod)
        if p is None:
            # the grammar has no fractions: scale each column by the lcm of
            # its denominators, a unit, which leaves the cokernel unchanged
            pres = pres.copy()
            for c in range(pres.shape[1]):
                pres[:, c] *= math.lcm(*(x.denominator for x in pres[:, c].flat))
        for r in range(pres.shape[0]):
            lines.append(
                "row = "
                + ", ".join(
                    poly_str(_vec_to_poly(ring, pres[r, c]), ring.varnames)
                    for c in range(pres.shape[1])
                )
            )
    return "\n".join(lines) + "\n"


def _vec_to_poly(ring, vec):
    poly = {}
    for i in np.flatnonzero(vec):
        d, mon = ring.basis[i]
        poly[mon] = int(vec[i]) if ring.field.p is not None else vec[i]
    e = ring.e
    return poly or {tuple([0] * e): 0}
