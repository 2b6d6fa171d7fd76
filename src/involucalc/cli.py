"""Structure-definition files, the analysis driver, and report emitters.

File grammar (line oriented, '#' starts a comment, whitespace insignificant
inside expressions):

    [dims]       nu = 0   d = 2   mu = 1
    [phi]        one polynomial per line, d lines, real coefficients
    [kernel]     optional; one kernel vector per line: d comma-separated polys
    [candidate]  optional, repeatable; lines "coord = poly" (omitted: zero)
    [bundle]     optional; "rank = r", "D j a b = poly", "lambda a b = poly",
                 "section = poly, ..., poly"
    [approx]     optional; "nx = 1", "order = 8", "box = 1", "grid = 33",
                 "b = poly, ..." and "u0 = poly, ..." over (x1..xN, t)
    [fbi]        optional; "data = gaussian|heaviside|boundary", "delta = 1/40",
                 "sigma = 3/20", "kappa = 1", "halfwidth = 1/2", "grid = 256",
                 "dirs = 8", "radii = 6/5:120:7"

    Polynomials use variables x1.., y1.., s1.., t1.., the imaginary unit i,
    rational literals p/q, operators + - * / ^ (with ^ a nonnegative integer
    and / by a nonzero constant), and parentheses.

    Integers are bounded by LIMITS: exponents by "exponent", each of nu, d
    and mu by "dimension", and so on; [approx] also needs
    grid^(nx + 1) <= LIMITS["samples"].
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from pathlib import Path

from .algebra import AlgebraError, GaussRat, Poly, _deg_key
from .approx import (
    NormalFormField,
    assemble_evaluator,
    field_vars,
    select_cutoff_plan,
    series_coefficients,
)
from .autosys import RealVectorFieldSym, check_candidate, generate_system
from .bundle import (
    VBundle,
    flatness_check,
    is_integrating_frame,
    is_solution_section,
)
from .config import DEFAULTS
from .hull import hull_chain, kernel_chain
from .loci import degeneracy_locus_check, exceptional_locus_check
from .structure import (
    StructureDef,
    StructureError,
    build_frame,
    characteristic_dim,
    characteristic_form,
    kernel_vectors,
    levi_form,
    structure_vars,
)


# Upper limits of the file grammar's integers (README, "Structure files"),
# above every catalog, benchmark and test input.  At each limit the step the
# setting controls stays within about 15 s on a 2-core Xeon, although the
# cofactor determinants of size d and rank are factorial: det and adjugate
# of a dense 7 x 7 W_s take 1.1 s there, of an 8 x 8 one 11.6 s.
# They bound single settings, not the whole run: the size of an expanded
# polynomial is not limited.  The k_max limit also keeps every jet degree far
# below the packed exponent field of algebra.Poly.
LIMITS = {
    "exponent": 64,  # ^ in a polynomial
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
            last = self.toks[-1] if self.toks else _Tok("OP", "", 1, 1)
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
            if int(e.text) > LIMITS["exponent"]:
                raise ParseError(f"exponent must be at most {LIMITS['exponent']}", e.line, e.col)
            return p ** int(e.text)
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


def parse_poly_tokens(toks, vars) -> Poly:
    try:
        return _ExprParser(toks, vars).parse()
    except AlgebraError as err:  # a degree past the packed exponent field
        raise ParseError(str(err), toks[0].line, toks[0].col)


def _split_on_commas(toks):
    groups = [[]]
    depth = 0
    for t in toks:
        if t.kind == "OP" and t.text == "(":
            depth += 1
        elif t.kind == "OP" and t.text == ")":
            depth -= 1
        if t.kind == "OP" and t.text == "," and depth == 0:
            groups.append([])
        else:
            groups[-1].append(t)
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
    order: int = DEFAULTS.approx_order
    box: Fraction = Fraction(1)
    grid: int = DEFAULTS.grid
    b: tuple = ()
    u0: tuple = ()


@dataclass
class FbiBlock:
    data: str = "gaussian"
    delta: Fraction = Fraction(1, 10)
    sigma: Fraction = Fraction(3, 20)
    kappa: Fraction = DEFAULTS.kappa
    halfwidth: Fraction = Fraction(1, 2)
    grid: int = DEFAULTS.scan_grid
    dirs: int = DEFAULTS.n_dirs
    radii: str = DEFAULTS.radii_spec


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

    phi = None
    kernel = None
    candidates = []
    bundle = None
    approx = None
    fbi = None
    for name, lineno, lines in sections:
        if name == "phi":
            polys = [parse_poly_tokens(toks, vars) for toks in lines if toks]
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
                if not toks:
                    continue
                groups = _split_on_commas(toks)
                if len(groups) != d:
                    raise DimensionMismatch(
                        f"kernel vector has {len(groups)} components but d = {d}"
                    )
                kernel.append(tuple(parse_poly_tokens(g, vars) for g in groups))
        elif name == "candidate":
            cand = {}
            for toks in lines:
                if not toks:
                    continue
                coord, rhs = _parse_assignment(toks)
                if coord not in vars:
                    raise ParseError(f"unknown coordinate {coord!r}", toks[0].line, toks[0].col)
                cand[coord] = parse_poly_tokens(rhs, vars)
            candidates.append(cand)
        elif name == "bundle":
            bundle = _parse_bundle(lines, vars)
        elif name == "approx":
            approx = _parse_approx(lines)
        elif name == "fbi":
            fbi = _parse_fbi(lines)
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
    if len(toks) < 3 or toks[0].kind != "NAME" or toks[1].text not in "=:":
        raise ParseError("expected 'name = expression'", toks[0].line, toks[0].col)
    return toks[0].text, toks[2:]


def _parse_dims(lines, header_line):
    vals = {}
    for toks in lines:
        i = 0
        while i < len(toks):
            ok = (
                i + 2 < len(toks)
                and toks[i].kind == "NAME"
                and toks[i + 1].text == "="
                and toks[i + 2].kind == "NUMBER"
            )
            if not ok:
                raise ParseError("expected 'nu = <int>' style entries", toks[i].line, toks[i].col)
            vals[toks[i].text] = _parse_int(toks[i + 2 : i + 3], 0, LIMITS["dimension"])
            i += 3
    for key in ("nu", "d", "mu"):
        if key not in vals:
            raise ParseError(f"[dims] is missing {key}", header_line, 1)
    extra = set(vals) - {"nu", "d", "mu"}
    if extra:
        raise ParseError(f"[dims] has unknown keys {sorted(extra)}", header_line, 1)
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


def _bounds(minimum, maximum):
    return f">= {minimum}" if maximum is None else f"from {minimum} to {maximum}"


def _parse_int(toks, minimum, maximum=None):
    """A single integer literal in [minimum, maximum]."""
    value = int(toks[0].text) if len(toks) == 1 and toks[0].kind == "NUMBER" else None
    if value is None or value < minimum or (maximum is not None and value > maximum):
        raise ParseError(
            f"expected an integer {_bounds(minimum, maximum)}", toks[0].line, toks[0].col
        )
    return value


def _parse_positive(toks):
    """A rational literal greater than zero."""
    value = _parse_fraction(toks)
    if value <= 0:
        raise ParseError("expected a positive number", toks[0].line, toks[0].col)
    return value


def _parse_bundle(lines, vars):
    block = BundleBlock()
    for toks in lines:
        if not toks:
            continue
        head = toks[0]
        if head.kind != "NAME":
            raise ParseError("expected a bundle directive", head.line, head.col)
        if head.text == "rank":
            block.rank = _parse_int(_parse_assignment(toks)[1], 1, LIMITS["rank"])
        elif head.text == "D":
            if len(toks) < 6 or toks[4].text != "=":
                raise ParseError("expected 'D j a b = poly'", head.line, head.col)
            j, a, b = (_parse_int(toks[k : k + 1], 1) for k in (1, 2, 3))
            block.d_entries[(j, a, b)] = parse_poly_tokens(toks[5:], vars)
        elif head.text == "lambda":
            if len(toks) < 5 or toks[3].text != "=":
                raise ParseError("expected 'lambda a b = poly'", head.line, head.col)
            a, b = _parse_int(toks[1:2], 1), _parse_int(toks[2:3], 1)
            block.lam_entries[(a, b)] = parse_poly_tokens(toks[4:], vars)
        elif head.text == "section":
            groups = _split_on_commas(toks[2:])
            block.sections.append(tuple(parse_poly_tokens(g, vars) for g in groups))
        else:
            raise ParseError(f"unknown bundle directive {head.text!r}", head.line, head.col)
    return block


def _parse_approx(lines):
    block = ApproxBlock()
    pending = []
    size_tok = None  # the nx or grid literal that last set the sample count
    for toks in lines:
        if not toks:
            continue
        name, rhs = _parse_assignment(toks)
        if name in ("nx", "grid"):
            setattr(block, name, _parse_int(rhs, 1, LIMITS[name]))
            size_tok = rhs[0]
        elif name == "order":
            block.order = _parse_int(rhs, 0, LIMITS["order"])
        elif name == "box":
            block.box = _parse_positive(rhs)
        elif name in ("b", "u0"):
            pending.append((name, rhs))
        else:
            raise ParseError(f"unknown approx key {name!r}", toks[0].line, toks[0].col)
    if block.grid ** (block.nx + 1) > LIMITS["samples"]:
        raise ParseError(_samples_message(block.grid, block.nx), size_tok.line, size_tok.col)
    vars = field_vars(block.nx)
    for name, rhs in pending:
        polys = tuple(parse_poly_tokens(g, vars) for g in _split_on_commas(rhs))
        if name == "b":
            block.b = polys
        else:
            block.u0 = polys
    return block


def _samples_message(grid, nx):
    return (
        f"grid^(nx + 1) = {grid}^{nx + 1} exceeds the {LIMITS['samples']} "
        "sample points the [approx] sampler allows"
    )


def _parse_fbi(lines):
    block = FbiBlock()
    for toks in lines:
        if not toks:
            continue
        name, rhs = _parse_assignment(toks)
        if name == "data":
            if rhs[0].kind != "NAME" or rhs[0].text not in ("gaussian", "heaviside", "boundary"):
                raise ParseError("data must be gaussian, heaviside, or boundary", rhs[0].line, rhs[0].col)
            block.data = rhs[0].text
        elif name in ("delta", "sigma", "kappa"):
            setattr(block, name, _parse_fraction(rhs))
        elif name == "halfwidth":
            block.halfwidth = _parse_positive(rhs)
        elif name == "grid":
            block.grid = _parse_int(rhs, 1, LIMITS["scan_grid"])
        elif name == "dirs":
            block.dirs = _parse_int(rhs, 1, LIMITS["dirs"])
        elif name == "radii":
            parts = [t.text for t in rhs]
            block.radii = "".join(parts)
        else:
            raise ParseError(f"unknown fbi key {name!r}", toks[0].line, toks[0].col)
    return block


# -- serialization -----------------------------------------------------------------------


def format_gauss(c: GaussRat) -> str:
    def frac(f):
        return str(f)

    if c.im == 0:
        return frac(c.re)
    if c.re == 0:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return f"{frac(c.im)}*i"
    im = c.im
    op = "+" if im > 0 else "-"
    im_txt = "i" if abs(im) == 1 else f"{frac(abs(im))}*i"
    return f"({frac(c.re)}{op}{im_txt})"


def format_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for e in sorted(p.terms, key=_deg_key):
        c = p.terms[e]
        mono = "*".join(
            f"{v}^{k}" if k > 1 else v for v, k in zip(p.vars, e) if k
        )
        coeff = format_gauss(c)
        if mono:
            if coeff == "1":
                txt = mono
            elif coeff == "-1":
                txt = f"-{mono}"
            else:
                txt = f"{coeff}*{mono}"
        else:
            txt = coeff
        parts.append(txt)
    out = parts[0]
    for part in parts[1:]:
        out += part if part.startswith("-") else "+" + part
    return out


def serialize_structure(sf: StructureFile) -> str:
    lines = ["[dims]", f"nu = {sf.sdef.nu} d = {sf.sdef.d} mu = {sf.sdef.mu}"]
    if sf.sdef.d:
        lines.append("[phi]")
        for p in sf.sdef.phi:
            lines.append(format_poly(p))
    if sf.kernel is not None:
        lines.append("[kernel]")
        for b in sf.kernel:
            lines.append(", ".join(format_poly(p) for p in b))
    for cand in sf.candidates:
        lines.append("[candidate]")
        for coord in sorted(cand):
            lines.append(f"{coord} = {format_poly(cand[coord])}")
    if sf.bundle is not None:
        lines.append("[bundle]")
        if sf.bundle.rank is not None:
            lines.append(f"rank = {sf.bundle.rank}")
        for (j, a, b), p in sorted(sf.bundle.d_entries.items()):
            lines.append(f"D {j} {a} {b} = {format_poly(p)}")
        for (a, b), p in sorted(sf.bundle.lam_entries.items()):
            lines.append(f"lambda {a} {b} = {format_poly(p)}")
        for sec in sf.bundle.sections:
            lines.append("section = " + ", ".join(format_poly(p) for p in sec))
    if sf.approx is not None:
        a = sf.approx
        lines.append("[approx]")
        lines.append(f"nx = {a.nx}")
        lines.append(f"order = {a.order}")
        lines.append(f"box = {a.box}")
        lines.append(f"grid = {a.grid}")
        if a.b:
            lines.append("b = " + ", ".join(format_poly(p) for p in a.b))
        if a.u0:
            lines.append("u0 = " + ", ".join(format_poly(p) for p in a.u0))
    if sf.fbi is not None:
        f = sf.fbi
        lines.append("[fbi]")
        lines.append(f"data = {f.data}")
        lines.append(f"delta = {f.delta}")
        lines.append(f"sigma = {f.sigma}")
        lines.append(f"kappa = {f.kappa}")
        lines.append(f"halfwidth = {f.halfwidth}")
        lines.append(f"grid = {f.grid}")
        lines.append(f"dirs = {f.dirs}")
        lines.append(f"radii = {f.radii}")
    return "\n".join(lines) + "\n"


# -- report driver -------------------------------------------------------------------------


class ModuleError(Exception):
    """A module error with its origin tag, propagated to the exit code."""

    def __init__(self, module, original):
        super().__init__(f"[{module}] {original}")
        self.module = module
        self.original = original


@dataclass
class Report:
    human: list
    machine: list
    csv_paths: list

    def human_text(self) -> str:
        return "\n".join(self.human) + "\n"

    def machine_text(self) -> str:
        return "\n".join(self.machine) + "\n"


def _option_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise ModuleError("cli", ValueError(f"bad {what} {text.strip()!r}: {e}"))


def _option_int(value, default, minimum, maximum, flag):
    """An integer option, or ``default`` when it is absent; held to the
    limits the file grammar enforces for the same setting."""
    if value is None:
        return default
    if value < minimum or (maximum is not None and value > maximum):
        raise ModuleError(
            "cli", ValueError(f"{flag} must be {_bounds(minimum, maximum)}, got {value}")
        )
    return value


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
            raise ModuleError("cli", ValueError(f"bad covector component {part!r}"))
        name = name.strip()
        if name not in vars:
            raise ModuleError("cli", ValueError(f"unknown coordinate {name!r} in covector"))
        xi[name] = _option_fraction(val, "covector value")
    return xi


def _parse_radii(spec: str):
    try:
        lo, hi, count = spec.split(":")
        lo, hi, count = float(Fraction(lo)), float(Fraction(hi)), int(count)
    except (ValueError, ZeroDivisionError) as e:
        raise ModuleError("cli", ValueError(f"bad radii spec {spec!r}: {e}"))
    if not 4 <= count <= LIMITS["radii"] or lo <= 0 or hi <= lo:
        raise ModuleError(
            "cli", ValueError(f"radii spec needs 0 < lo < hi and count from 4 to {LIMITS['radii']}")
        )
    return [
        lo * (hi / lo) ** (m / (count - 1)) for m in range(count)
    ]


def _effective_config(sf: StructureFile):
    """DEFAULTS with the settings the file's [approx] and [fbi] blocks replace."""
    config = DEFAULTS
    if sf.approx is not None:
        config = replace(config, grid=sf.approx.grid, approx_order=sf.approx.order)
    if sf.fbi is not None:
        f = sf.fbi
        config = replace(
            config, kappa=f.kappa, scan_grid=f.grid, n_dirs=f.dirs, radii_spec=f.radii
        )
    return config


def run_report(sf: StructureFile, options=None) -> Report:
    """Analysis driver: characteristic dimension, Levi data, kernel and
    characteristic forms, hull chains, locus verdicts, candidate verdicts,
    bundle checks.  Deterministic for fixed input and options."""
    options = options or {}
    k_max = options.get("k_max", DEFAULTS.k_max)
    covectors = options.get("covectors", [])
    human = []
    machine = []
    csv_paths = []

    def emit(h, key=None, val=None):
        human.append(h)
        if key is not None:
            machine.append(f"{key} = {val}")

    human.append("involucalc-report v1")
    machine.append("report_version = 1")
    human.append("# configuration")
    for line in _effective_config(sf).header_lines():
        human.append("#   " + line)
        machine.append("config." + line.replace(" ", ""))
    human.append(f"# options: k_max = {k_max}")
    machine.append(f"options.k_max = {k_max}")

    sdef = sf.sdef
    emit(
        f"structure: nu = {sdef.nu}, d = {sdef.d}, mu = {sdef.mu}",
        "structure.dims",
        f"{sdef.nu},{sdef.d},{sdef.mu}",
    )
    for k, p in enumerate(sdef.phi, start=1):
        emit(f"phi_{k} = {format_poly(p)}", f"structure.phi{k}", format_poly(p))

    try:
        cd = characteristic_dim(sdef, sdef.zero_point())
    except Exception as e:
        raise ModuleError("structure", e)
    emit(f"characteristic dimension at 0: {cd}", "characteristic_dim", cd)

    for spec in covectors:
        xi = spec if isinstance(spec, dict) else _parse_covector(spec, sdef.vars)
        xi_txt = ",".join(f"{k}={v}" for k, v in sorted(xi.items()))
        try:
            rep = levi_form(sdef, sdef.zero_point(), xi)
        except Exception as e:
            raise ModuleError("structure", e)
        emit(
            f"levi inertia at 0 in <{xi_txt}>: "
            f"(n+, n-, n0) = {rep.inertia}",
            f"levi.{xi_txt}",
            f"{rep.inertia[0]},{rep.inertia[1]},{rep.inertia[2]}",
        )

    try:
        if sf.kernel is not None:
            kvs = kernel_vectors(sdef, user=sf.kernel)
        else:
            kvs = kernel_vectors(sdef)
    except Exception as e:
        raise ModuleError("structure", e)
    if not kvs:
        emit(
            "kernel vectors: none (phi_t has full generic rank; characteristic "
            "directions are generically trivial)",
            "kernel.count",
            0,
        )
    else:
        emit(f"kernel vectors: {len(kvs)}", "kernel.count", len(kvs))
        for i, kv in enumerate(kvs, start=1):
            btxt = ", ".join(format_poly(p) for p in kv.b)
            emit(f"  b[{i}] = ({btxt})   [{kv.provenance}]", f"kernel.b{i}", btxt)
            theta = characteristic_form(sdef, kv)
            parts = [format_poly(c.num) + ("/" + format_poly(c.den) if not c.is_polynomial() else "") for c in theta.components()]
            labels = sdef.integral_labels()
            ttxt = " , ".join(f"d{l}: {t}" for l, t in zip(labels, parts))
            emit(f"  theta[{i}] = ({ttxt})", f"kernel.theta{i}", ttxt)

    try:
        chain = hull_chain(sdef, kvs, k_max=k_max)
        kchain = kernel_chain(sdef, kvs, k_max=k_max, hull=chain)
    except Exception as e:
        raise ModuleError("hull", e)
    emit("hull chain (level: span dimension at 0):", None)
    for k, dim in enumerate(chain.dims):
        emit(f"  {k}: {dim}", f"hull.dim{k}", dim)
    if chain.nondeg_order is not None:
        emit(
            f"nondegeneracy order: {chain.nondeg_order}",
            "hull.nondeg_order",
            chain.nondeg_order,
        )
    else:
        emit(
            f"nondegeneracy order: undetermined at k_max = {k_max}",
            "hull.nondeg_order",
            "undetermined",
        )
    emit(
        f"kernel chain reaches dimension {kchain.dims[-1]} of {sdef.d}",
        "hull.kernel_dim",
        kchain.dims[-1],
    )

    try:
        exc = exceptional_locus_check(sdef)
        deg = degeneracy_locus_check(sdef, chain)
    except Exception as e:
        raise ModuleError("loci", e)
    for name, verdict in (("exceptional", exc), ("degeneracy", deg)):
        if verdict.established:
            wtxt = "trivial" if verdict.witness is None else (
                f"rows {verdict.witness.rows}, minor {format_poly(verdict.witness.minor)}"
            )
            emit(f"{name} locus: Yes ({wtxt})", f"loci.{name}", "yes")
        else:
            emit(f"{name} locus: NotEstablished ({verdict.note})", f"loci.{name}", "not_established")

    if options.get("autosys") or sf.candidates:
        try:
            system = generate_system(sdef)
        except Exception as e:
            raise ModuleError("autosys", e)
        emit(
            f"automorphism system: {len(system.equations)} equations in "
            f"{len(system.unknowns)} unknowns",
            "autosys.equations",
            len(system.equations),
        )
        if options.get("autosys"):
            for eq in system.equations:
                terms = []
                for t in eq.terms:
                    u = f"u_{t.unknown}"
                    if t.deriv is not None:
                        u = f"d{u}/d{t.deriv}"
                    terms.append(f"({format_poly(t.coeff)})*{u}")
                emit(
                    f"  [{eq.integral}, L{eq.field_index}] " + " + ".join(terms) + " = 0",
                    f"autosys.eq.{eq.integral}.L{eq.field_index}",
                    " + ".join(terms),
                )
        for i, cand in enumerate(sf.candidates, start=1):
            X = RealVectorFieldSym(sdef.vars, cand)
            verdict = check_candidate(sdef, X, system=system)
            if verdict.automorphism:
                emit(f"candidate {i}: Automorphism", f"autosys.candidate{i}", "automorphism")
            else:
                (tag, res) = verdict.failure
                emit(
                    f"candidate {i}: Not (first residual at {tag}: {format_poly(res)})",
                    f"autosys.candidate{i}",
                    "not",
                )

    if sf.bundle is not None:
        _bundle_report(sf, sdef, emit)

    csv_dir = options.get("csv_dir")
    if sf.approx is not None:
        _approx_report(sf.approx, emit, csv_dir, csv_paths)
    if sf.fbi is not None:
        _fbi_report(sf.fbi, emit, csv_dir, csv_paths)

    return Report(human, machine, csv_paths)


def _approx_solution(block, order, box, grid):
    """Cutoff plan and evaluator of the [approx] block's series at ``order``,
    after checking that the series recursion residuals vanish."""
    try:
        vars = field_vars(block.nx)
        b = block.b or tuple(Poly.zero(vars) for _ in range(block.nx))
        u0 = block.u0 or (Poly.var(vars, "x1"),)
        series = series_coefficients(NormalFormField(block.nx, b), u0, order)
        if not all(p.is_zero() for res in series.recursion_residuals() for p in res):
            raise ValueError("series recursion residuals do not vanish")
        plan = select_cutoff_plan(series, box_halfwidth=box, grid=grid)
        ev = assemble_evaluator(series, plan)
    except Exception as e:
        raise ModuleError("approx", e)
    return plan, ev


def _approx_csv(plan, ev, path):
    """Samples of the solution on a 9-point grid over the box at s = plateau / 2."""
    import numpy as np

    axes = [np.linspace(lo, hi, 9) for lo, hi in plan.box]
    mesh = np.meshgrid(*axes, indexing="ij")
    ev.write_csv(path, mesh, np.full(mesh[0].shape, plan.plateau / 2))


def _approx_report(block, emit, csv_dir, csv_paths):
    plan, ev = _approx_solution(block, block.order, float(block.box), block.grid)
    emit(
        f"approximate solution: order {block.order}, plateau radius {plan.plateau:.6g}",
        "approx.plateau",
        f"{plan.plateau:.17g}",
    )
    for k, r in enumerate(plan.radii):
        emit(f"  R_{k} = {r}", f"approx.R{k}", r)
    s = plan.plateau / 2
    sup = ev.sup_d1u(s, grid=9)
    emit(
        f"  sup |D1 u| at s = {s:.6g}: {sup:.6g}",
        "approx.residual_sup",
        f"{sup:.17g}",
    )
    if csv_dir is not None:
        path = Path(csv_dir) / "approx_samples.csv"
        _approx_csv(plan, ev, path)
        csv_paths.append(str(path))
        emit(f"  csv: {path}", "approx.csv", path)


def _fbi_scan(block, kappa, dirs, radii):
    """Direction scan of the [fbi] block's sampled data."""
    from .fbi import direction_scan, sample_data

    try:
        data = sample_data(
            _fbi_data_fn(block),
            halfwidth=float(block.halfwidth),
            n=block.grid,
            window_support=0.95,
            window_plateau=0.95 * 0.75,
        )
        return direction_scan(data, float(kappa), (0.0, 0.0), dirs, radii)
    except Exception as e:
        raise ModuleError("fbi", e)


def _fbi_report(block, emit, csv_dir, csv_paths):
    scan = _fbi_scan(block, block.kappa, block.dirs, _parse_radii(block.radii))
    emit(
        f"direction scan: data = {block.data}, kappa = {block.kappa}, "
        f"dirs = {block.dirs}",
        "fbi.data",
        block.data,
    )
    for i, (xi_d, tau_d) in enumerate(scan.directions):
        emit(
            f"  direction {i} ({xi_d:+.4f}, {tau_d:+.4f}): slope {scan.slopes[i]:+.3f} "
            f"-> {scan.labels[i]}",
            f"fbi.direction{i}",
            f"{scan.slopes[i]:.6g},{scan.labels[i]}",
        )
    if csv_dir is not None:
        path = Path(csv_dir) / "wavefront.csv"
        scan.write_csv(path)
        csv_paths.append(str(path))
        emit(f"  csv: {path}", "fbi.csv", path)


def _bundle_report(sf, sdef, emit):
    from .algebra import RatFun

    block = sf.bundle
    try:
        base = build_frame(sdef)
        rank = block.rank if block.rank is not None else sdef.nu + sdef.d
        vars = sdef.vars
        zero = RatFun.of(Poly.zero(vars))
        D = [
            [[zero for _ in range(rank)] for _ in range(rank)]
            for _ in base
        ]
        for (j, a, b), p in block.d_entries.items():
            D[j - 1][a - 1][b - 1] = RatFun.of(p)
        bundle = VBundle(base, D, require_flat=False)
        verdict = flatness_check(bundle)
    except Exception as e:
        raise ModuleError("bundle", e)
    if verdict.flat:
        emit("bundle: Flat", "bundle.flat", "yes")
    else:
        j, k, a, b, _ = verdict.failure
        emit(
            f"bundle: NotFlat (first failure at fields ({j},{k}) entry ({a},{b}))",
            "bundle.flat",
            "no",
        )
    for i, sec in enumerate(block.sections, start=1):
        try:
            v = is_solution_section(bundle, sec)
        except Exception as e:
            raise ModuleError("bundle", e)
        emit(
            f"bundle section {i}: {'Solution' if v.solution else 'Not a solution'}",
            f"bundle.section{i}",
            "solution" if v.solution else "not",
        )
    if block.lam_entries:
        try:
            lam = [
                [
                    RatFun.of(block.lam_entries.get((a + 1, b + 1), Poly.zero(sdef.vars)))
                    for b in range(rank)
                ]
                for a in range(rank)
            ]
            v = is_integrating_frame(bundle, lam)
        except Exception as e:
            raise ModuleError("bundle", e)
        emit(
            f"integrating frame: {'Integrating' if v.integrating else 'Not'}",
            "bundle.integrating",
            "yes" if v.integrating else "no",
        )


# -- subcommands --------------------------------------------------------------------------


def _load(path) -> StructureFile:
    text = Path(path).read_text()
    return parse_structure(text)


def cmd_analyze(args) -> int:
    sf = _load(args.file)
    options = {
        "k_max": _option_int(args.kmax, DEFAULTS.k_max, 0, LIMITS["kmax"], "--kmax"),
        "covectors": args.covector or [],
        "autosys": False,
    }
    if args.csv:
        Path(args.csv).mkdir(parents=True, exist_ok=True)
        options["csv_dir"] = args.csv
    report = run_report(sf, options)
    out = report.machine_text() if args.machine else report.human_text()
    sys.stdout.write(out)
    if args.csv:
        outdir = Path(args.csv)
        (outdir / "report.txt").write_text(report.human_text())
        (outdir / "report.kv").write_text(report.machine_text())
    return 0


def cmd_autosys(args) -> int:
    sf = _load(args.file)
    options = {
        "k_max": _option_int(args.kmax, DEFAULTS.k_max, 0, LIMITS["kmax"], "--kmax"),
        "covectors": [],
        "autosys": True,
    }
    report = run_report(sf, options)
    sys.stdout.write(report.machine_text() if args.machine else report.human_text())
    return 0


def cmd_approx(args) -> int:
    sf = _load(args.file)
    block = sf.approx
    if block is None:
        raise ModuleError("approx", ValueError("the file has no [approx] section"))
    order = _option_int(args.order, block.order, 0, LIMITS["order"], "--order")
    if args.box is not None and not (args.box > 0 and math.isfinite(args.box)):
        raise ModuleError("cli", ValueError(f"--box must be a positive number, got {args.box}"))
    box = args.box if args.box is not None else float(block.box)
    grid = _option_int(args.grid, block.grid, 1, LIMITS["grid"], "--grid")
    if grid ** (block.nx + 1) > LIMITS["samples"]:
        raise ModuleError("cli", ValueError(_samples_message(grid, block.nx)))
    plan, ev = _approx_solution(block, order, box, grid)
    lines = ["involucalc-report v1", f"# approx order {order}, box {box}, grid {grid}"]
    for k, (c, r) in enumerate(zip(plan.constants, plan.radii)):
        lines.append(f"R_{k} = {r}   (sampled constant {c:.6g})")
    lines.append(f"plateau radius = {plan.plateau:.6g}")
    svals = [plan.plateau * 2.0**-j for j in range(1, 8)]
    sups = [ev.sup_d1u(s, grid=9) for s in svals]
    for s, sup in zip(svals, sups):
        lines.append(f"sup |D1 u| at s = {s:.6g}: {sup:.6g}")
    sys.stdout.write("\n".join(lines) + "\n")
    if args.csv:
        outdir = Path(args.csv)
        outdir.mkdir(parents=True, exist_ok=True)
        path = outdir / "approx_samples.csv"
        _approx_csv(plan, ev, path)
        sys.stdout.write(f"csv: {path}\n")
    return 0


def _fbi_data_fn(block):
    import numpy as np

    if block.data == "gaussian":
        s2 = 2.0 * float(block.sigma) ** 2
        return lambda X, T: np.exp(-(X**2 + T**2) / s2)
    if block.data == "heaviside":
        return lambda X, T: (X >= 0).astype(float) + 0 * T
    delta = float(block.delta)
    return lambda X, T: 1.0 / (X + 1j * delta)


def cmd_wavefront(args) -> int:
    from .fbi import (
        NoNegativeDirection,
        RectificationUnavailable,
        kappa_smallness_check,
        levi_to_normal_form,
        sign_condition,
    )

    sf = _load(args.file)
    block = sf.fbi if sf.fbi is not None else FbiBlock()
    kappa = _option_fraction(args.kappa, "kappa") if args.kappa else block.kappa
    dirs = _option_int(args.dirs, block.dirs, 1, LIMITS["dirs"], "--dirs")
    spec = args.radii if args.radii else block.radii
    radii = _parse_radii(spec)
    lines = [
        "involucalc-report v1",
        f"# wavefront kappa {kappa}, dirs {dirs}, radii {spec}, grid {block.grid}, "
        f"halfwidth {block.halfwidth}",
    ]
    if args.covector:
        xi = _parse_covector(args.covector[0], sf.sdef.vars)
        try:
            red = levi_to_normal_form(sf.sdef, sf.sdef.zero_point(), xi)
            sr = sign_condition(red.field, red.xi0)
            lines.append(
                f"normal form witness: frame field {red.witness_index}, "
                f"drift sign pairing = {sr.value} ({'Holds' if sr.holds else 'Fails'})"
            )
            small = kappa_smallness_check(red.field, red.xi0, kappa)
            if not small.ok:
                lines.append(
                    f"# warning: kappa = {kappa} violates the smallness bound "
                    f"(lhs {small.lhs:.6g} vs rho/16 = {small.rho / 16:.6g})"
                )
        except (NoNegativeDirection, RectificationUnavailable) as e:
            lines.append(f"normal form: unavailable ({e})")
    scan = _fbi_scan(block, kappa, dirs, radii)
    lines.append(f"scan: data = {block.data}, kappa = {kappa}, dirs = {dirs}")
    for i, (xi_d, tau_d) in enumerate(scan.directions):
        lines.append(
            f"  direction {i} ({xi_d:+.4f}, {tau_d:+.4f}): slope {scan.slopes[i]:+.3f} "
            f"-> {scan.labels[i]}"
        )
    sys.stdout.write("\n".join(lines) + "\n")
    if args.csv:
        outdir = Path(args.csv)
        outdir.mkdir(parents=True, exist_ok=True)
        path = outdir / "wavefront.csv"
        scan.write_csv(path)
        sys.stdout.write(f"csv: {path}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="involucalc",
        description="Analyze locally integrable structures given by polynomial first integrals.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help, kmax=False, covector=False, csv=False, machine=False):
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
        p.set_defaults(func=func)
        return p

    command(
        "analyze", cmd_analyze, "full symbolic analysis report",
        kmax=True, covector=True, csv=True, machine=True,
    )
    command(
        "autosys", cmd_autosys, "emit the automorphism system and candidate verdicts",
        kmax=True, machine=True,
    )
    p = command("approx", cmd_approx, "build an approximate solution and its certificate", csv=True)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--box", type=float, default=None)
    p.add_argument("--grid", type=int, default=None)
    p = command("wavefront", cmd_wavefront, "direction scan of sampled data", covector=True, csv=True)
    p.add_argument("--kappa", default=None)
    p.add_argument("--dirs", type=int, default=None)
    p.add_argument("--radii", default=None, help="lo:hi:count, log spaced")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, DimensionMismatch, NonRealPhi) as e:
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
