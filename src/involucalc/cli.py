"""Structure-definition files, the analysis driver, and report emitters.

File grammar (line oriented, '#' starts a comment, whitespace insignificant
inside expressions):

    [dims]       nu = 0   d = 2   mu = 1
    [phi]        one polynomial per line, d lines, real coefficients
    [kernel]     optional; one kernel vector per line: d comma-separated polys
    [candidate]  optional, repeatable; lines "coord = poly" (omitted: zero)
    [bundle]     optional; "rank = r", "D j a b = poly", "lambda a b = poly",
                 "section = poly, ..., poly"; j indexes the nu + mu frame
                 fields, a and b run from 1 to the rank (default nu + d)
    [approx]     optional; "nx = 1", "order = 8", "box = 1", "grid = 33",
                 "b = poly, ..." and "u0 = poly, ..." over (x1..xN, t)
    [fbi]        optional; "data = gaussian|heaviside|boundary", "delta = 1/40",
                 "sigma = 3/20", "kappa = 1", "halfwidth = 1/2", "grid = 256",
                 "dirs = 8", "radii = 6/5:120:7"

    A key is set at most once in its section, a [bundle] D j a b or lambda a b
    once per index; only [candidate] sections and [bundle] section lines repeat.

    Polynomials use variables x1.., y1.., s1.., t1.., the imaginary unit i,
    rational literals p/q, operators + - * / ^ (with ^ a nonnegative integer
    and / by a nonzero constant), and parentheses.

    Integers are bounded by LIMITS: exponents by "exponent", each of nu, d
    and mu by "dimension", and so on; a ^ or * may expand to at most
    LIMITS["terms"] terms, bounded before it is expanded; [approx] also needs
    grid^(nx + 1) <= LIMITS["samples"].  The rationals box, delta, sigma,
    kappa and halfwidth must convert to a finite float, and box, kappa and
    halfwidth to a positive one, as must the lo and hi of a radii spec
    lo:hi:count, which needs lo < hi, a finite hi / lo and a count from 4 to
    LIMITS["radii"].

ApproxBlock and FbiBlock hold the settings and their defaults, and list each
key in file order with its check in CHECKS, which both the reader and the
writer of the blocks follow.  The approx and wavefront options (--order, --box, --grid,
--kappa, --dirs, --radii) edit the parsed block; each value is held to the
check of its file line, and a failure is a [cli] error naming the option.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from pathlib import Path
from typing import ClassVar

from .algebra import AlgebraError, GaussRat, Poly, RatFun
from .config import DEFAULTS
from .hull import SpanChain, hull_chain, kernel_chain
from .loci import degeneracy_locus_check, exceptional_locus_check
from .structure import (
    StructureDef,
    StructureError,
    build_frame,
    characteristic_dim,
    characteristic_form,
    field_vars,
    kernel_vectors,
    levi_form,
    structure_vars,
)


# Upper limits of the file grammar's integers (README, "Structure files"),
# above every catalog, benchmark and test input.  At each limit the step the
# setting controls stays within about 15 s on a 2-core Xeon, although the
# cofactor determinants of size d and rank are factorial: det and adjugate
# of a dense 7 x 7 W_s take 1.1 s there, of an 8 x 8 one 11.6 s.
# They bound single settings, not the whole run.  "terms" bounds each ^ and *
# the parser expands; at the limit one expansion takes about 1.5 s there (the
# worst case measured is a power of a 4-term sum with 12-digit coefficients),
# but later stages can still grow polynomials.  The k_max limit also keeps
# every jet degree far below the packed exponent field of algebra.Poly.
LIMITS = {
    "exponent": 64,  # ^ in a polynomial
    "terms": 30_000,  # the terms a ^ or * of the file grammar may expand to
    "dimension": 7,  # each of nu, d and mu
    "rank": 7,  # [bundle] rank
    "nx": 3,  # [approx] nx
    "order": 16,  # [approx] order and --order
    "grid": 65,  # [approx] grid and --grid
    "samples": 2**21,  # [approx] sample points, grid^(nx + 1)
    "scan_grid": 1024,  # [fbi] grid
    "dirs": 256,  # [fbi] dirs and --dirs
    "radii": 64,  # the count of an [fbi] radii spec and of --radii
    "kmax": 20,  # --kmax
}


class ParseError(Exception):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class DimensionMismatch(Exception):
    pass


class NonRealPhi(Exception):
    pass


# -- tokenizer -------------------------------------------------------------------


@dataclass(frozen=True)
class _Tok:
    kind: str  # NUMBER NAME OP
    text: str
    line: int
    col: int


_OPS = set("+-*/^(),=:")


def _tokenize_line(text, lineno):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "#":
            break
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                raise ParseError("decimal literals are not allowed; use p/q", lineno, i + 1)
            toks.append(_Tok("NUMBER", text[i:j], lineno, i + 1))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("NAME", text[i:j], lineno, i + 1))
            i = j
            continue
        if c in _OPS:
            toks.append(_Tok("OP", c, lineno, i + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", lineno, i + 1)
    return toks


class _ExprParser:
    """Recursive-descent parser for the polynomial grammar."""

    def __init__(self, toks, vars):
        self.toks = toks
        self.pos = 0
        self.vars = tuple(vars)

    def _peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _next(self):
        t = self._peek()
        if t is None:
            last = self.toks[-1]
            raise ParseError("unexpected end of expression", last.line, last.col + len(last.text))
        self.pos += 1
        return t

    def _expect_op(self, ops):
        t = self._next()
        if t.kind != "OP" or t.text not in ops:
            raise ParseError(f"expected one of {sorted(ops)}", t.line, t.col)
        return t

    def parse(self) -> Poly:
        p = self._expr()
        t = self._peek()
        if t is not None:
            raise ParseError(f"unexpected token {t.text!r}", t.line, t.col)
        return p

    def _expr(self) -> Poly:
        p = self._term()
        while True:
            t = self._peek()
            if t is None or t.kind != "OP" or t.text not in "+-":
                return p
            self._next()
            q = self._term()
            p = p + q if t.text == "+" else p - q

    def _term(self) -> Poly:
        p = self._unary()
        while True:
            t = self._peek()
            if t is None or t.kind != "OP" or t.text not in "*/":
                return p
            self._next()
            q = self._unary()
            if t.text == "*":
                _cap_terms(p.term_count() * q.term_count(), t)
                p = p * q
            else:
                if not q.is_constant() or q.constant_term().is_zero():
                    raise ParseError("division only by a nonzero constant", t.line, t.col)
                c = q.constant_term()
                p = p * (GaussRat(1) / c)

    def _unary(self) -> Poly:
        t = self._peek()
        if t is not None and t.kind == "OP" and t.text in "+-":
            self._next()
            p = self._unary()
            return p if t.text == "+" else -p
        return self._power()

    def _power(self) -> Poly:
        p = self._atom()
        t = self._peek()
        if t is not None and t.kind == "OP" and t.text == "^":
            self._next()
            e = self._next()
            if e.kind != "NUMBER":
                raise ParseError("exponent must be a nonnegative integer", e.line, e.col)
            n = int(e.text)
            if n > LIMITS["exponent"]:
                raise ParseError(f"exponent must be at most {LIMITS['exponent']}", e.line, e.col)
            terms = p.term_count()
            # at most the number of monomials of degree n in the terms of p
            _cap_terms(math.comb(terms + n - 1, n) if terms else 1, t)
            return p ** n
        return p

    def _atom(self) -> Poly:
        t = self._next()
        if t.kind == "NUMBER":
            return Poly.const(self.vars, int(t.text))
        if t.kind == "NAME":
            if t.text == "i":
                return Poly.const(self.vars, GaussRat(0, 1))
            if t.text in self.vars:
                return Poly.var(self.vars, t.text)
            raise ParseError(f"unknown variable {t.text!r}", t.line, t.col)
        if t.kind == "OP" and t.text == "(":
            p = self._expr()
            self._expect_op((")",))
            return p
        raise ParseError(f"unexpected token {t.text!r}", t.line, t.col)


def _cap_terms(bound, tok):
    """Refuse, at the operator ``tok``, an expansion that may have more
    terms than LIMITS["terms"]: ``bound`` bounds the terms of its result."""
    if bound > LIMITS["terms"]:
        raise ParseError(
            f"the expansion may have {bound} terms, more than the {LIMITS['terms']} allowed", tok.line, tok.col
        )


def parse_poly_tokens(toks, vars) -> Poly:
    try:
        return _ExprParser(toks, vars).parse()
    except AlgebraError as err:  # a degree past the packed exponent field
        raise ParseError(str(err), toks[0].line, toks[0].col)


def _split_on_commas(toks):
    """The comma-separated expressions of the nonempty toks, none of them
    empty.  An empty one is a ParseError at the comma that ends it, or just
    after the comma that ends toks."""
    groups = [[]]
    depth = 0
    for t in toks:
        if t.kind == "OP" and t.text == "(":
            depth += 1
        elif t.kind == "OP" and t.text == ")":
            depth -= 1
        if t.kind == "OP" and t.text == "," and depth == 0:
            if not groups[-1]:
                raise ParseError("empty expression", t.line, t.col)
            groups.append([])
        else:
            groups[-1].append(t)
    if not groups[-1]:
        t = toks[-1]
        raise ParseError("empty expression", t.line, t.col + len(t.text))
    return groups


# -- structure files -----------------------------------------------------------------


@dataclass
class BundleBlock:
    rank: int | None = None
    d_entries: dict = dc_field(default_factory=dict)  # (j, a, b) -> Poly
    lam_entries: dict = dc_field(default_factory=dict)  # (a, b) -> Poly
    sections: list = dc_field(default_factory=list)  # list of tuple[Poly]


@dataclass
class ApproxBlock:
    nx: int = 1
    order: int = 8  # truncation order of the approximate solution
    box: Fraction = Fraction(1)
    grid: int = 33  # sampling resolution of the cutoff constants
    b: tuple = ()
    u0: tuple = ()
    # each key in file order with its check; a numeric key's (see _reason)
    # serves its file line and the option that overrides it alike
    CHECKS: ClassVar[dict] = {
        "nx": (1, LIMITS["nx"]),
        "order": (0, LIMITS["order"]),
        "box": "positive",
        "grid": (1, LIMITS["grid"]),
        "b": "polys",
        "u0": "polys",
    }


@dataclass
class FbiBlock:
    data: str = "gaussian"
    delta: Fraction = Fraction(1, 10)
    sigma: Fraction = Fraction(3, 20)
    kappa: Fraction = Fraction(1, 4)  # Gaussian weight of the direction scan
    halfwidth: Fraction = Fraction(1, 2)
    grid: int = 256  # direction-scan grid resolution per axis
    dirs: int = 8
    radii: str = "6/5:120:7"  # lo:hi:count, log spaced
    # the radii of the spec, computed when it is checked (the default's here)
    radius_grid: list = dc_field(default_factory=lambda: _parse_radii(FbiBlock.radii))
    # as ApproxBlock.CHECKS; a tuple of names is a choice of one of them
    CHECKS: ClassVar[dict] = {
        "data": ("gaussian", "heaviside", "boundary"),
        "delta": "real",
        "sigma": "real",
        "kappa": "positive",
        "halfwidth": "positive",
        "grid": (1, LIMITS["scan_grid"]),
        "dirs": (1, LIMITS["dirs"]),
        "radii": "radii",
    }


@dataclass
class StructureFile:
    sdef: StructureDef
    kernel: list | None = None
    candidates: list = dc_field(default_factory=list)  # list of dict coord -> Poly
    bundle: BundleBlock | None = None
    approx: ApproxBlock | None = None
    fbi: FbiBlock | None = None

    def __eq__(self, other):
        if not isinstance(other, StructureFile):
            return NotImplemented
        return serialize_structure(self) == serialize_structure(other)


_SECTIONS = ("dims", "phi", "kernel", "candidate", "bundle", "approx", "fbi")


def parse_structure(text: str) -> StructureFile:
    """Parse a structure-definition file; raises ParseError with position,
    DimensionMismatch, or NonRealPhi."""
    sections = []  # (name, lineno, list of token lines)
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("unterminated section header", lineno, len(stripped))
            name = stripped[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(f"unknown section [{name}]", lineno, 1)
            if name != "candidate" and any(s[0] == name for s in sections):
                raise ParseError(f"repeated section [{name}]; only [candidate] may repeat", lineno, 1)
            current = (name, lineno, [])
            sections.append(current)
            continue
        if current is None:
            raise ParseError("content before the first section header", lineno, 1)
        current[2].append(_tokenize_line(raw, lineno))

    dims = None
    for name, lineno, lines in sections:
        if name == "dims":
            dims = _parse_dims(lines, lineno)
    if dims is None:
        raise ParseError("missing [dims] section", 1, 1)
    nu, d, mu = dims
    vars = structure_vars(nu, d, mu)

    phi = kernel = bundle = approx = fbi = None
    candidates = []
    for name, lineno, lines in sections:
        if name == "phi":
            polys = [parse_poly_tokens(toks, vars) for toks in lines]
            if len(polys) != d:
                raise DimensionMismatch(
                    f"[phi] lists {len(polys)} polynomials but d = {d}"
                )
            for p in polys:
                if not p.is_real():
                    raise NonRealPhi("phi entries must have real coefficients")
            phi = tuple(polys)
        elif name == "kernel":
            kernel = []
            for toks in lines:
                groups = _split_on_commas(toks)
                if len(groups) != d:
                    raise DimensionMismatch(
                        f"kernel vector has {len(groups)} components but d = {d}"
                    )
                kernel.append(tuple(parse_poly_tokens(g, vars) for g in groups))
        elif name == "candidate":
            cand = {}
            for coord, tok, rhs in _entries(lines):
                if coord not in vars:
                    raise ParseError(f"unknown coordinate {coord!r}", tok.line, tok.col)
                cand[coord] = parse_poly_tokens(rhs, vars)
            candidates.append(cand)
        elif name == "bundle":
            bundle = _parse_bundle(lines, vars, nu + mu, nu + d)
        elif name == "approx":
            approx = _parse_block(ApproxBlock(), lines)
        elif name == "fbi":
            fbi = _parse_block(FbiBlock(), lines)
    if phi is None:
        if d == 0:
            phi = ()
        else:
            raise DimensionMismatch(f"missing [phi] section with d = {d}")
    try:
        sdef = StructureDef(nu, d, mu, phi)
    except StructureError as e:
        raise NonRealPhi(str(e)) if "real" in str(e) else e
    return StructureFile(sdef, kernel, candidates, bundle, approx, fbi)


def _parse_assignment(toks):
    """(name, rhs) of a line 'name = rhs' or 'name : rhs'; without the '=' a
    ParseError at the name, and without a rhs one just after the '='."""
    if len(toks) < 2 or toks[0].kind != "NAME" or toks[1].text not in "=:":
        raise ParseError("expected 'name = expression'", toks[0].line, toks[0].col)
    if len(toks) == 2:
        raise ParseError("empty expression", toks[1].line, toks[1].col + len(toks[1].text))
    return toks[0].text, toks[2:]


def _once(seen, key, tok):
    """Add ``key`` to ``seen``, or raise a ParseError at ``tok`` if it is there."""
    if key in seen:
        raise ParseError(f"repeated key {key!r}", tok.line, tok.col)
    seen.add(key)


def _entries(lines):
    """(name, name token, rhs) of each 'name = rhs' line of a section, each
    name at most once."""
    seen = set()
    for toks in lines:
        name, rhs = _parse_assignment(toks)
        _once(seen, name, toks[0])
        yield name, toks[0], rhs


def _parse_dims(lines, header_line):
    def triples():  # each 'name = <int>' of the lines, several to a line
        for toks in lines:
            for t in (toks[i : i + 3] for i in range(0, len(toks), 3)):
                if [x.kind for x in t] != ["NAME", "OP", "NUMBER"] or t[1].text != "=":
                    raise ParseError("expected 'nu = <int>' style entries", t[0].line, t[0].col)
                yield t

    entries = [(tok, _parse_value(rhs, (0, LIMITS["dimension"]))) for _, tok, rhs in _entries(triples())]
    vals = {tok.text: value for tok, value in entries}
    for key in ("nu", "d", "mu"):
        if key not in vals:  # no key token to point at, so at the header
            raise ParseError(f"[dims] is missing {key}", header_line, 1)
    extra = [tok for tok, _ in entries if tok.text not in ("nu", "d", "mu")]
    if extra:
        raise ParseError(f"[dims] has unknown keys {sorted(t.text for t in extra)}", extra[0].line, extra[0].col)
    return vals["nu"], vals["d"], vals["mu"]


def _parse_fraction(toks):
    neg = False
    i = 0
    if toks and toks[0].kind == "OP" and toks[0].text in "+-":
        neg = toks[0].text == "-"
        i = 1
    if i >= len(toks) or toks[i].kind != "NUMBER":
        t = toks[min(i, len(toks) - 1)]
        raise ParseError("expected a rational literal", t.line, t.col)
    num = int(toks[i].text)
    den = 1
    if i + 1 < len(toks):
        if toks[i + 1].text != "/" or i + 2 >= len(toks) or toks[i + 2].kind != "NUMBER":
            raise ParseError("expected p/q", toks[i + 1].line, toks[i + 1].col)
        den = int(toks[i + 2].text)
        if den == 0:
            raise ParseError("zero denominator", toks[i + 2].line, toks[i + 2].col)
        if i + 3 < len(toks):
            raise ParseError("trailing tokens after rational", toks[i + 3].line, toks[i + 3].col)
    return Fraction(-num if neg else num, den)


def _reason(check, value):
    """Why ``value`` fails ``check``, or None.  A check is an integer's
    (minimum, maximum), with maximum None for no bound and a value None for
    one that is not an integer, or "real" or "positive" for a number the
    numerics read as a float: finite, and greater than zero when positive."""
    if isinstance(check, tuple):
        minimum, maximum = check
        if value is None or value < minimum or (maximum is not None and value > maximum):
            bounds = f">= {minimum}" if maximum is None else f"from {minimum} to {maximum}"
            return f"expected an integer {bounds}"
        return None
    positive = check == "positive"
    if positive and not value > 0:
        return "expected a positive number"
    try:
        as_float = float(value)
    except OverflowError:
        as_float = math.inf
    if not math.isfinite(as_float):
        return "number too large for a float"
    if positive and as_float == 0:
        return "number too small for a float"
    return None


def _int_literal(toks):
    """The integer of a single integer literal, or None."""
    return int(toks[0].text) if len(toks) == 1 and toks[0].kind == "NUMBER" else None


def _parse_value(toks, check):
    """The literal ``toks``, an integer when ``check`` is a range and a
    rational otherwise, held to the check (see _reason)."""
    value = _int_literal(toks) if isinstance(check, tuple) else _parse_fraction(toks)
    reason = _reason(check, value)
    if reason:
        raise ParseError(reason, toks[0].line, toks[0].col)
    return value


def _parse_bundle(lines, vars, n_fields, default_rank):
    """The [bundle] block; a frame index j must be from 1 to n_fields and a
    fiber index a or b from 1 to the rank (default_rank when no rank line).
    The rank and each D j a b and lambda a b are set at most once."""
    block = BundleBlock()
    seen = set()
    fiber_indices = []  # literals checked once the rank is known
    for toks in lines:
        head = toks[0]
        if head.kind != "NAME":
            raise ParseError("expected a bundle directive", head.line, head.col)
        if head.text == "rank":
            _once(seen, "rank", head)
            block.rank = _parse_value(_parse_assignment(toks)[1], (1, LIMITS["rank"]))
        elif head.text == "D":
            if len(toks) < 6 or toks[4].text != "=":
                raise ParseError("expected 'D j a b = poly'", head.line, head.col)
            j = _parse_value(toks[1:2], (1, n_fields))
            a, b = _parse_value(toks[2:3], (1, None)), _parse_value(toks[3:4], (1, None))
            _once(seen, f"D {j} {a} {b}", head)
            fiber_indices += toks[2:4]
            block.d_entries[(j, a, b)] = parse_poly_tokens(toks[5:], vars)
        elif head.text == "lambda":
            if len(toks) < 5 or toks[3].text != "=":
                raise ParseError("expected 'lambda a b = poly'", head.line, head.col)
            a, b = _parse_value(toks[1:2], (1, None)), _parse_value(toks[2:3], (1, None))
            _once(seen, f"lambda {a} {b}", head)
            fiber_indices += toks[1:3]
            block.lam_entries[(a, b)] = parse_poly_tokens(toks[4:], vars)
        elif head.text == "section":
            groups = _split_on_commas(_parse_assignment(toks)[1])
            block.sections.append(tuple(parse_poly_tokens(g, vars) for g in groups))
        else:
            raise ParseError(f"unknown bundle directive {head.text!r}", head.line, head.col)
    rank = block.rank if block.rank is not None else default_rank
    for tok in fiber_indices:
        _parse_value([tok], (1, rank))
    return block


def _parse_block(block, lines):
    """Set the keys of an [approx] or [fbi] ``block`` from its lines, each
    held to its entry in block.CHECKS.  The [approx] sample count is checked
    before b and u0 are parsed over the nx it fixes."""
    section = "approx" if isinstance(block, ApproxBlock) else "fbi"
    polys = []
    size_tok = None  # the nx or grid literal that last set the sample count
    for name, tok, rhs in _entries(lines):
        check = block.CHECKS.get(name)
        if check is None:
            raise ParseError(f"unknown {section} key {name!r}", tok.line, tok.col)
        if check == "polys":
            polys.append((name, rhs))
        elif check == "radii":
            block.radii, block.radius_grid = _parse_radii_spec(rhs)
        elif isinstance(check, tuple) and isinstance(check[0], str):
            if rhs[0].kind != "NAME" or rhs[0].text not in check:
                raise ParseError(f"{name} must be {', '.join(check[:-1])}, or {check[-1]}", rhs[0].line, rhs[0].col)
            if len(rhs) > 1:
                raise ParseError(f"unexpected token {rhs[1].text!r}", rhs[1].line, rhs[1].col)
            setattr(block, name, rhs[0].text)
        else:
            setattr(block, name, _parse_value(rhs, check))
            if name in ("nx", "grid"):
                size_tok = rhs[0]
    if section == "approx":
        reason = _samples_reason(block)
        if reason:
            raise ParseError(reason, size_tok.line, size_tok.col)
        vars = field_vars(block.nx)
        for name, rhs in polys:
            setattr(block, name, tuple(parse_poly_tokens(g, vars) for g in _split_on_commas(rhs)))
    return block


def _samples_reason(block):
    """Why the [approx] block samples too many points, or None."""
    if block.grid ** (block.nx + 1) <= LIMITS["samples"]:
        return None
    return (
        f"grid^(nx + 1) = {block.grid}^{block.nx + 1} exceeds the {LIMITS['samples']} "
        "sample points the [approx] sampler allows"
    )


def _parse_radii_spec(toks):
    """An [fbi] radii spec lo:hi:count: its text and its radii."""
    groups = [[]]
    for t in toks:
        if t.text == ":":
            if not groups[-1] or len(groups) == 3:
                raise ParseError("expected lo:hi:count", t.line, t.col)
            groups.append([])
        else:
            groups[-1].append(t)
    if len(groups) < 3 or not groups[-1]:
        end = toks[-1]
        raise ParseError("expected lo:hi:count", end.line, end.col + len(end.text))
    lo_toks, hi_toks, count_toks = groups
    radii, part, reason = _radii(_parse_fraction(lo_toks), _parse_fraction(hi_toks), _int_literal(count_toks))
    if reason:
        tok = groups[part][0]
        raise ParseError(reason, tok.line, tok.col)
    return "".join(t.text for t in toks), radii


def _radii(lo, hi, count):
    """The count log-spaced radii from lo to hi of a spec lo:hi:count, as
    ``(radii, None, None)``, or ``(None, part, reason)`` for the first check
    the spec fails, part 0, 1 or 2 naming lo, hi or count.  lo and hi must be
    positive numbers (see _reason) with lo < hi, count (None when it is not
    an integer) from 4 to LIMITS["radii"], and hi / lo and every radius
    finite floats (part 0 when not)."""
    for part, value in enumerate((lo, hi)):
        reason = _reason("positive", value)
        if reason:
            return None, part, reason
    lo, hi = float(lo), float(hi)
    if hi <= lo:
        return None, 1, "expected hi > lo"
    reason = _reason((4, LIMITS["radii"]), count)
    if reason:
        return None, 2, reason
    ratio = hi / lo
    radii = [lo * ratio ** (m / (count - 1)) for m in range(count)]
    if not all(math.isfinite(r) for r in radii):
        return None, 0, "hi / lo or a radius overflows a float"
    return radii, None, None


# -- serialization -----------------------------------------------------------------------


def serialize_structure(sf: StructureFile) -> str:
    lines = ["[dims]", f"nu = {sf.sdef.nu} d = {sf.sdef.d} mu = {sf.sdef.mu}"]
    if sf.sdef.d:
        lines.append("[phi]")
        lines += map(str, sf.sdef.phi)
    if sf.kernel is not None:
        lines.append("[kernel]")
        for b in sf.kernel:
            lines.append(", ".join(map(str, b)))
    for cand in sf.candidates:
        lines.append("[candidate]")
        for coord in sorted(cand):
            lines.append(f"{coord} = {cand[coord]}")
    if sf.bundle is not None:
        lines.append("[bundle]")
        if sf.bundle.rank is not None:
            lines.append(f"rank = {sf.bundle.rank}")
        for (j, a, b), p in sorted(sf.bundle.d_entries.items()):
            lines.append(f"D {j} {a} {b} = {p}")
        for (a, b), p in sorted(sf.bundle.lam_entries.items()):
            lines.append(f"lambda {a} {b} = {p}")
        for sec in sf.bundle.sections:
            lines.append("section = " + ", ".join(map(str, sec)))
    for section, block in (("approx", sf.approx), ("fbi", sf.fbi)):
        if block is None:
            continue
        lines.append(f"[{section}]")
        for key, check in block.CHECKS.items():
            value = getattr(block, key)
            if check != "polys":
                lines.append(f"{key} = {value}")
            elif value:
                lines.append(f"{key} = " + ", ".join(map(str, value)))
    return "\n".join(lines) + "\n"


# -- report driver -------------------------------------------------------------------------


class ModuleError(Exception):
    """An error with its origin tag, reported as ``[module] message``."""

    def __init__(self, module, original):
        super().__init__(f"[{module}] {original}")


@dataclass
class Report:
    """The lines a report has emitted, one ``[module] message`` per failed
    section, and what earlier sections computed for later ones (None until
    computed).  The options are the run's k_max, covectors and csv_dir; the
    numeric sections read their settings from the file's blocks."""

    sf: StructureFile
    options: dict
    human: list = dc_field(default_factory=list)
    machine: list = dc_field(default_factory=list)
    errors: list = dc_field(default_factory=list)
    kvs: list | None = None  # kernel vectors
    chain: SpanChain | None = None  # hull chain

    def emit(self, h, key=None, val=None):
        self.human.append(h)
        if key is not None:
            self.machine.append(f"{key} = {val}")

    def human_text(self) -> str:
        return "\n".join(self.human) + "\n"

    def machine_text(self) -> str:
        return "\n".join(self.machine) + "\n"


def _option_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise ModuleError("cli", f"bad {what} {text.strip()!r}: {e}")


def _override(block, key, value):
    """Set ``key`` of an [approx] or [fbi] block to the value of the option
    --key, held to the check of the key's file line; None leaves it."""
    if value is None:
        return
    check = block.CHECKS[key]
    reason = _reason(check, value)
    if reason:
        raise ModuleError("cli", f"--{key}: {reason}")
    setattr(block, key, value if isinstance(check, tuple) else Fraction(value))


def _parse_covector(spec: str, vars):
    xi = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            name, val = part.split("=", 1)
        elif ":" in part:
            name, val = part.split(":", 1)
        else:
            raise ModuleError("cli", f"bad covector component {part!r}")
        name = name.strip()
        if name not in vars:
            raise ModuleError("cli", f"unknown coordinate {name!r} in covector")
        if name in xi:
            raise ModuleError("cli", f"repeated coordinate {name!r} in covector")
        xi[name] = _option_fraction(val, "covector value")
    return xi


def _parse_radii(spec: str):
    """The radii of a --radii spec lo:hi:count, whose lo and hi are what
    Fraction reads, held to the check of a file's radii spec."""
    try:
        lo, hi, count = spec.split(":")
        lo, hi, count = Fraction(lo), Fraction(hi), int(count)
    except (ValueError, ZeroDivisionError) as e:
        raise ModuleError("cli", f"bad radii spec {spec!r}: {e}")
    radii, _, reason = _radii(lo, hi, count)
    if reason:
        raise ModuleError("cli", f"--radii: {reason}")
    return radii


def run_report(sf: StructureFile, options=None, command="analyze") -> Report:
    """The report of ``command`` on ``sf``: the version line, then each
    ``(module, needs, section)`` of COMMANDS[command].  A section that raises
    leaves no lines and records ``[module] message`` (a ModuleError keeps its
    own tag); a later section is skipped when one of the report attributes it
    needs is still unset.  Deterministic for fixed input and options."""
    options = {"k_max": DEFAULTS.k_max, "covectors": [], **(options or {})}
    report = Report(sf, options)
    report.emit("involucalc-report v1", "report_version", 1)
    for module, needs, section in COMMANDS[command]:
        if any(getattr(report, name) is None for name in needs):
            continue
        outputs = (report.human, report.machine)
        marks = [len(out) for out in outputs]
        try:
            section(report)
        except Exception as e:
            for out, mark in zip(outputs, marks):
                del out[mark:]
            report.errors.append(str(e) if isinstance(e, ModuleError) else f"[{module}] {e}")
    return report


def _header(report):
    """The analyze and autosys header: the configuration, the options and
    the structure."""
    sf = report.sf
    report.human.append("# configuration")
    a, f = sf.approx or ApproxBlock(), sf.fbi or FbiBlock()
    config = (
        ("k_max", DEFAULTS.k_max),
        ("kappa", f.kappa),
        ("grid", a.grid),
        ("scan_grid", f.grid),
        ("smooth_slope", DEFAULTS.smooth_slope),
        ("singular_slope", DEFAULTS.singular_slope),
        ("approx_order", a.order),
        ("n_dirs", f.dirs),
        ("radii", f.radii),
    )
    for key, value in config:
        report.human.append(f"#   {key} = {value}")
        report.machine.append(f"config.{key}={value}")
    k_max = report.options["k_max"]
    report.emit(f"# options: k_max = {k_max}", "options.k_max", k_max)
    sdef = sf.sdef
    report.emit(
        f"structure: nu = {sdef.nu}, d = {sdef.d}, mu = {sdef.mu}",
        "structure.dims",
        f"{sdef.nu},{sdef.d},{sdef.mu}",
    )
    for k, p in enumerate(sdef.phi, start=1):
        report.emit(f"phi_{k} = {p}", f"structure.phi{k}", p)


def _chardim(report):
    sdef = report.sf.sdef
    cd = characteristic_dim(sdef, sdef.zero_point())
    report.emit(f"characteristic dimension at 0: {cd}", "characteristic_dim", cd)


def _levi(report):
    sdef = report.sf.sdef
    for spec in report.options["covectors"]:
        xi = _parse_covector(spec, sdef.vars)
        xi_txt = ",".join(f"{k}={v}" for k, v in sorted(xi.items()))
        rep = levi_form(sdef, sdef.zero_point(), xi)
        n_plus, n_minus, n_zero = rep.inertia
        report.emit(
            f"levi inertia at 0 in <{xi_txt}>: (n+, n-, n0) = {rep.inertia}",
            f"levi.{xi_txt}",
            f"{n_plus},{n_minus},{n_zero}",
        )


def _kernel(report):
    sdef = report.sf.sdef
    kvs = kernel_vectors(sdef, user=report.sf.kernel)
    if not kvs:
        report.emit(
            "kernel vectors: none (phi_t has full generic rank; characteristic "
            "directions are generically trivial)",
            "kernel.count",
            0,
        )
    else:
        report.emit(f"kernel vectors: {len(kvs)}", "kernel.count", len(kvs))
        for i, kv in enumerate(kvs, start=1):
            btxt = ", ".join(map(str, kv.b))
            report.emit(f"  b[{i}] = ({btxt})   [{kv.provenance}]", f"kernel.b{i}", btxt)
            theta = characteristic_form(sdef, kv)
            labels = sdef.integral_labels()
            ttxt = " , ".join(f"d{l}: {c}" for l, c in zip(labels, theta.components()))
            report.emit(f"  theta[{i}] = ({ttxt})", f"kernel.theta{i}", ttxt)
    report.kvs = kvs


def _hull(report):
    sdef = report.sf.sdef
    k_max = report.options["k_max"]
    chain = hull_chain(sdef, report.kvs, k_max=k_max)
    kchain = kernel_chain(sdef, report.kvs, k_max=k_max)
    report.emit("hull chain (level: span dimension at 0):")
    for k, dim in enumerate(chain.dims):
        report.emit(f"  {k}: {dim}", f"hull.dim{k}", dim)
    if chain.nondeg_order is not None:
        order = value = chain.nondeg_order
    else:
        order, value = f"undetermined at k_max = {k_max}", "undetermined"
    report.emit(f"nondegeneracy order: {order}", "hull.nondeg_order", value)
    report.emit(
        f"kernel chain reaches dimension {kchain.dims[-1]} of {sdef.d}",
        "hull.kernel_dim",
        kchain.dims[-1],
    )
    report.chain = chain


def _loci(report):
    sdef = report.sf.sdef
    exc = exceptional_locus_check(sdef)
    deg = degeneracy_locus_check(sdef, report.chain)
    for name, verdict in (("exceptional", exc), ("degeneracy", deg)):
        if verdict.established:
            wtxt = "trivial" if verdict.witness is None else (
                f"rows {verdict.witness.rows}, minor {verdict.witness.minor}"
            )
            report.emit(f"{name} locus: Yes ({wtxt})", f"loci.{name}", "yes")
        else:
            report.emit(f"{name} locus: NotEstablished ({verdict.note})", f"loci.{name}", "not_established")


def _autosys(report, listed=False):
    """The automorphism system's size, its equations when ``listed`` (the
    autosys command), and the candidate verdicts."""
    sf = report.sf
    if not (listed or sf.candidates):
        return
    from .autosys import RealVectorFieldSym, check_candidate, generate_system

    system = generate_system(sf.sdef)
    report.emit(
        f"automorphism system: {len(system.equations)} equations in "
        f"{len(system.unknowns)} unknowns",
        "autosys.equations",
        len(system.equations),
    )
    for eq in system.equations if listed else ():
        terms = []
        for t in eq.terms:
            u = f"u_{t.unknown}"
            if t.deriv is not None:
                u = f"d{u}/d{t.deriv}"
            terms.append(f"({t.coeff})*{u}")
        report.emit(
            f"  [{eq.integral}, L{eq.field_index}] " + " + ".join(terms) + " = 0",
            f"autosys.eq.{eq.integral}.L{eq.field_index}",
            " + ".join(terms),
        )
    for i, cand in enumerate(sf.candidates, start=1):
        X = RealVectorFieldSym(sf.sdef.vars, cand)
        verdict = check_candidate(sf.sdef, X, system=system)
        if verdict.automorphism:
            report.emit(f"candidate {i}: Automorphism", f"autosys.candidate{i}", "automorphism")
        else:
            tag, res = verdict.failure
            report.emit(
                f"candidate {i}: Not (first residual at {tag}: {res})", f"autosys.candidate{i}", "not"
            )


def _bundle(report):
    block = report.sf.bundle
    if block is None:
        return
    from .bundle import VBundle, is_integrating_frame, is_solution_section

    sdef = report.sf.sdef
    rank = block.rank if block.rank is not None else sdef.nu + sdef.d
    zero = RatFun.of(Poly.zero(sdef.vars))
    base = build_frame(sdef)
    D = [[[zero for _ in range(rank)] for _ in range(rank)] for _ in base]
    for (j, a, b), p in block.d_entries.items():
        D[j - 1][a - 1][b - 1] = RatFun.of(p)
    bundle = VBundle(base, D, require_flat=False)
    verdict = bundle.flat
    if verdict:
        report.emit("bundle: Flat", "bundle.flat", "yes")
    else:
        j, k, a, b, _ = verdict.failure
        report.emit(f"bundle: NotFlat (first failure at fields ({j},{k}) entry ({a},{b}))", "bundle.flat", "no")
    for i, sec in enumerate(block.sections, start=1):
        v = is_solution_section(bundle, sec)
        report.emit(
            f"bundle section {i}: {'Solution' if v.solution else 'Not a solution'}",
            f"bundle.section{i}",
            "solution" if v.solution else "not",
        )
    if block.lam_entries:
        lam = [
            [RatFun.of(block.lam_entries.get((a + 1, b + 1), Poly.zero(sdef.vars))) for b in range(rank)]
            for a in range(rank)
        ]
        v = is_integrating_frame(bundle, lam)
        report.emit(
            f"integrating frame: {'Integrating' if v.integrating else 'Not'}",
            "bundle.integrating",
            "yes" if v.integrating else "no",
        )


def _csv(report, name, key, write):
    """Write one CSV table into the report's csv_dir, if it has one, and emit
    its path: under ``key`` in an analyze report, unkeyed at a command's end."""
    csv_dir = report.options.get("csv_dir")
    if csv_dir is None:
        return
    path = Path(csv_dir) / name
    write(path)
    report.emit(f"  csv: {path}" if key else f"csv: {path}", key, path)


def _approx_solution(block):
    """Cutoff plan and evaluator of the [approx] block's series, after
    checking that the series recursion residuals vanish."""
    from .approx import NormalFormField, assemble_evaluator, select_cutoff_plan, series_coefficients

    vars = field_vars(block.nx)
    b = block.b or tuple(Poly.zero(vars) for _ in range(block.nx))
    u0 = block.u0 or (Poly.var(vars, "x1"),)
    series = series_coefficients(NormalFormField(block.nx, b), u0, block.order)
    if not all(p.is_zero() for res in series.recursion_residuals() for p in res):
        raise ValueError("series recursion residuals do not vanish")
    plan = select_cutoff_plan(series, box_halfwidth=float(block.box), grid=block.grid)
    return plan, assemble_evaluator(series, plan)


def _approx_csv(plan, ev, path):
    """Samples of the solution on a 9-point grid over the box at s = plateau / 2."""
    import numpy as np

    ev.write_csv(path, [np.linspace(lo, hi, 9) for lo, hi in plan.box], plan.plateau / 2)


def _approx(report):
    block = report.sf.approx
    if block is None:
        return
    plan, ev = _approx_solution(block)
    report.emit(
        f"approximate solution: order {block.order}, plateau radius {plan.plateau:.6g}",
        "approx.plateau",
        f"{plan.plateau:.17g}",
    )
    for k, r in enumerate(plan.radii):
        report.emit(f"  R_{k} = {r}", f"approx.R{k}", r)
    s = plan.plateau / 2
    sup = ev.sup_d1u(s, grid=9)
    report.emit(
        f"  sup |D1 u| at s = {s:.6g}: {sup:.6g}",
        "approx.residual_sup",
        f"{sup:.17g}",
    )
    _csv(report, "approx_samples.csv", "approx.csv", lambda path: _approx_csv(plan, ev, path))


def _approx_header(report):
    block = report.sf.approx
    report.emit(f"# approx order {block.order}, box {float(block.box)}, grid {block.grid}")


def _approx_scales(report):
    """The approx command's cutoff scales, with the residual sups at seven
    halvings of the plateau radius."""
    plan, ev = _approx_solution(report.sf.approx)
    for k, (c, r) in enumerate(zip(plan.constants, plan.radii)):
        report.emit(f"R_{k} = {r}   (sampled constant {c:.6g})")
    report.emit(f"plateau radius = {plan.plateau:.6g}")
    for s in [plan.plateau * 2.0**-j for j in range(1, 8)]:
        report.emit(f"sup |D1 u| at s = {s:.6g}: {ev.sup_d1u(s, grid=9):.6g}")
    _csv(report, "approx_samples.csv", None, lambda path: _approx_csv(plan, ev, path))


def _fbi_data_fn(block):
    import numpy as np

    if block.data == "gaussian":
        s2 = 2.0 * float(block.sigma) ** 2
        return lambda X, T: np.exp(-(X**2 + T**2) / s2)
    if block.data == "heaviside":
        return lambda X, T: (X >= 0).astype(float) + 0 * T
    delta = float(block.delta)
    if delta == 0.0:  # 1/x has its pole on the grid or not, by the grid's parity
        from .fbi import FbiError

        raise FbiError("boundary data needs a nonzero delta")
    return lambda X, T: 1.0 / (X + 1j * delta)


def _fbi_scan(report, csv_key):
    """Direction scan of the [fbi] block's sampled data: its direction lines
    and CSV table."""
    from .fbi import direction_scan, sample_data

    block = report.sf.fbi
    data = sample_data(_fbi_data_fn(block), float(block.halfwidth), block.grid, window_plateau=0.95 * 0.75)
    scan = direction_scan(data, float(block.kappa), (0.0, 0.0), block.dirs, block.radius_grid)
    for i, (xi_d, tau_d) in enumerate(scan.directions):
        report.emit(
            f"  direction {i} ({xi_d:+.4f}, {tau_d:+.4f}): slope {scan.slopes[i]:+.3f} "
            f"-> {scan.labels[i]}",
            f"fbi.direction{i}",
            f"{scan.slopes[i]:.6g},{scan.labels[i]}",
        )
    _csv(report, "wavefront.csv", csv_key, scan.write_csv)


def _fbi(report):
    block = report.sf.fbi
    if block is None:
        return
    report.emit(
        f"direction scan: data = {block.data}, kappa = {block.kappa}, "
        f"dirs = {block.dirs}",
        "fbi.data",
        block.data,
    )
    _fbi_scan(report, "fbi.csv")


def _wavefront_header(report):
    block = report.sf.fbi
    report.emit(
        f"# wavefront kappa {block.kappa}, dirs {block.dirs}, radii {block.radii}, "
        f"grid {block.grid}, halfwidth {block.halfwidth}"
    )


def _wavefront_scan(report):
    block = report.sf.fbi
    report.emit(f"scan: data = {block.data}, kappa = {block.kappa}, dirs = {block.dirs}")
    _fbi_scan(report, None)


def _normal_form(report):
    """The wavefront command's normal-form reduction at its --covector."""
    from .fbi import NoNegativeDirection, RectificationUnavailable
    from .fbi import kappa_smallness_check, levi_to_normal_form, sign_condition

    if not report.options["covectors"]:
        return
    sdef, kappa = report.sf.sdef, report.sf.fbi.kappa
    xi = _parse_covector(report.options["covectors"][0], sdef.vars)
    try:
        red = levi_to_normal_form(sdef, sdef.zero_point(), xi)
        sr = sign_condition(red.field, red.xi0)
        report.emit(
            f"normal form witness: frame field {red.witness_index}, "
            f"drift sign pairing = {sr.value} ({'Holds' if sr.holds else 'Fails'})"
        )
        small = kappa_smallness_check(red.field, red.xi0, kappa)
        if not small.ok:
            report.emit(
                f"# warning: kappa = {kappa} violates the smallness bound "
                f"(lhs {small.lhs:.6g} vs rho/16 = {small.rho / 16:.6g})"
            )
    except (NoNegativeDirection, RectificationUnavailable) as e:
        report.emit(f"normal form: unavailable ({e})")


# the header and exact sections that analyze and autosys share
_EXACT = (
    ("cli", (), _header),
    ("structure", (), _chardim),
    ("structure", (), _levi),
    ("structure", (), _kernel),
    ("hull", ("kvs",), _hull),
    ("loci", ("chain",), _loci),
)
# each command's (module tag, Report attributes the section needs, section)
# in report order, its header first
COMMANDS = {
    "analyze": (
        *_EXACT, ("autosys", (), _autosys), ("bundle", (), _bundle), ("approx", (), _approx), ("fbi", (), _fbi)
    ),
    "autosys": (*_EXACT, ("autosys", (), functools.partial(_autosys, listed=True)), ("bundle", (), _bundle)),
    "approx": (("cli", (), _approx_header), ("approx", (), _approx_scales)),
    "wavefront": (("cli", (), _wavefront_header), ("structure", (), _normal_form), ("fbi", (), _wavefront_scan)),
}


# -- subcommands --------------------------------------------------------------------------


def _load(path) -> StructureFile:
    return parse_structure(Path(path).read_text())


def _csv_dir(args):
    """The --csv directory, created, or None."""
    if not getattr(args, "csv", None):
        return None
    Path(args.csv).mkdir(parents=True, exist_ok=True)
    return args.csv


def _print(report, machine=False) -> int:
    """Write the report to stdout and its errors to stderr; the exit code."""
    sys.stdout.write(report.machine_text() if machine else report.human_text())
    for error in report.errors:
        sys.stderr.write(error + "\n")
    return 1 if report.errors else 0


def cmd_analyze(args) -> int:
    """The analyze and autosys commands."""
    sf = _load(args.file)
    reason = _reason((0, LIMITS["kmax"]), args.kmax)
    if reason:
        raise ModuleError("cli", f"--kmax: {reason}")
    options = {
        "k_max": args.kmax,
        "covectors": getattr(args, "covector", None) or [],
        "csv_dir": _csv_dir(args),
    }
    report = run_report(sf, options, args.command)
    if options["csv_dir"] is not None:
        outdir = Path(options["csv_dir"])
        (outdir / "report.txt").write_text(report.human_text())
        (outdir / "report.kv").write_text(report.machine_text())
    return _print(report, args.machine)


def cmd_approx(args) -> int:
    sf = _load(args.file)
    block = sf.approx
    if block is None:
        raise ModuleError("approx", "the file has no [approx] section")
    for key in ("order", "box", "grid"):
        _override(block, key, getattr(args, key))
    reason = _samples_reason(block)
    if reason:
        raise ModuleError("cli", reason)
    return _print(run_report(sf, {"csv_dir": _csv_dir(args)}, "approx"))


def cmd_wavefront(args) -> int:
    sf = _load(args.file)
    if args.covector and len(args.covector) > 1:
        raise ModuleError("cli", "wavefront takes one --covector")
    block = sf.fbi = sf.fbi or FbiBlock()
    if args.kappa is not None:
        _override(block, "kappa", _option_fraction(args.kappa, "kappa"))
    _override(block, "dirs", args.dirs)
    if args.radii is not None:
        block.radii, block.radius_grid = args.radii, _parse_radii(args.radii)
    return _print(run_report(sf, {"covectors": args.covector or [], "csv_dir": _csv_dir(args)}, "wavefront"))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one."""
    ap = argparse.ArgumentParser(
        prog="involucalc",
        description="Analyze locally integrable structures given by polynomial first integrals.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, help, kmax=False, covector=False, csv=False, machine=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("file", help="structure definition file")
        if kmax:
            p.add_argument("--kmax", type=int, default=DEFAULTS.k_max)
        if covector:
            p.add_argument("--covector", action="append", help="e.g. 's1=1,t1=-2'")
        if csv:
            p.add_argument("--csv", help="directory for CSV/report artifacts")
        if machine:
            p.add_argument("--machine", action="store_true", help="machine-readable output")
        return p

    command("analyze", "full symbolic analysis report", kmax=True, covector=True, csv=True, machine=True)
    command("autosys", "emit the automorphism system and candidate verdicts", kmax=True, machine=True)
    p = command("approx", "build an approximate solution and its certificate", csv=True)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--box", type=float, default=None)
    p.add_argument("--grid", type=int, default=None)
    p = command("wavefront", "direction scan of sampled data", covector=True, csv=True)
    p.add_argument("--kappa", default=None)
    p.add_argument("--dirs", type=int, default=None)
    p.add_argument("--radii", default=None, help="lo:hi:count, log spaced")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up on each call, so that a rebound cmd_* is the one called
    run = {"analyze": cmd_analyze, "autosys": cmd_analyze, "approx": cmd_approx, "wavefront": cmd_wavefront}
    try:
        return run[args.command](args)
    except (ParseError, DimensionMismatch, NonRealPhi, OSError, UnicodeDecodeError) as e:
        sys.stderr.write(f"[cli] {e}\n")
        return 1
    except ModuleError as e:
        sys.stderr.write(f"{e}\n")
        return 1
    except StructureError as e:
        sys.stderr.write(f"[structure] {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
