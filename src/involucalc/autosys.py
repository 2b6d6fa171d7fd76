"""Infinitesimal automorphism systems.

A real vector field X is an infinitesimal automorphism exactly when
L (dF(X)) = 0 for every first integral F and frame field L.  Writing
X = sum_c u_c d/dc over the real coordinates, each pair (F, L) yields one
linear first-order PDE in the unknowns u_c.  Coefficients live in
Q(i)[coords, 1/det W_s]; the coefficients of one equation are brought over
their common denominator, a power of det W_s, so the emitted equations are
cleared exactly by multiplying with that power.

Candidate fields are checked by substituting their polynomial components into
the cleared equations; the verdict is Automorphism iff every residual is the
zero polynomial."""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Poly, common_denominator
from .structure import StructureDef, build_frame


class AutosysError(Exception):
    pass


class RealVectorFieldSym:
    """Real vector field with real polynomial coefficients per coordinate."""

    __slots__ = ("vars", "coeffs")

    def __init__(self, vars, coeffs):
        object.__setattr__(self, "vars", tuple(vars))
        clean = {}
        for name, p in coeffs.items():
            if name not in self.vars:
                raise AutosysError(f"unknown coordinate {name}")
            if not isinstance(p, Poly):
                raise AutosysError("coefficients must be polynomials")
            if not p.is_real():
                raise AutosysError(f"coefficient of d/d{name} is not real")
            if not p.is_zero():
                clean[name] = p
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("RealVectorFieldSym is immutable")

    def coeff(self, name) -> Poly:
        return self.coeffs.get(name, Poly.zero(self.vars))


@dataclass(frozen=True)
class PDETerm:
    unknown: str
    deriv: str | None  # None for the zeroth-order part
    coeff: Poly


@dataclass(frozen=True)
class PDEEquation:
    integral: str
    field_index: int  # 1-based frame index
    cleared_power: int  # the equation was multiplied by det^cleared_power
    terms: tuple  # PDETerm, complex Poly coefficients


@dataclass(frozen=True)
class PDESystem:
    sdef: StructureDef
    unknowns: tuple  # one unknown per coordinate, named after it
    equations: tuple


def generate_system(sdef: StructureDef) -> PDESystem:
    """One cleared linear PDE per (first integral, frame field) pair."""
    frame = build_frame(sdef)
    vars = sdef.vars
    equations = []
    for label, F in zip(sdef.integral_labels(), sdef.first_integrals()):
        dF = {c: F.diff(c) for c in vars}
        for i, L in enumerate(frame, start=1):
            raw = {}  # (unknown, deriv) -> RatFun coefficient
            for c in vars:
                fc = dF[c]
                if fc.is_zero():
                    continue
                for cprime, coeff in L.coeffs.items():
                    # zeroth order: L(F_c) * u_c
                    d = fc.diff(cprime)
                    if not d.is_zero():
                        raw[(c, None)] = coeff * d + raw.get((c, None), 0)
                    # first order: F_c * L^{c'} * du_c/dc'
                    raw[(c, cprime)] = coeff * fc + raw.get((c, cprime), 0)
            if not raw:
                continue
            keys = sorted(raw, key=lambda key: (key[0], key[1] or ""))
            nums = common_denominator([raw[key] for key in keys])
            big = max((p for f in raw.values() for _, p in f.powers), default=0)
            terms = tuple(PDETerm(u, deriv, num) for (u, deriv), num in zip(keys, nums) if not num.is_zero())
            equations.append(PDEEquation(label, i, big, terms))
    return PDESystem(sdef, vars, tuple(equations))


@dataclass(frozen=True)
class CandidateVerdict:
    automorphism: bool
    failure: tuple | None = None  # ((integral, field_index), residual Poly)

    def __bool__(self):
        return self.automorphism


def equation_residual(eq: PDEEquation, X: RealVectorFieldSym) -> Poly:
    vars = X.vars
    total = Poly.zero(vars)
    for term in eq.terms:
        u = X.coeff(term.unknown)
        if term.deriv is not None:
            u = u.diff(term.deriv)
        if u.is_zero():
            continue
        total = total + term.coeff * u
    return total


def check_candidate(
    sdef: StructureDef, X: RealVectorFieldSym, system: PDESystem | None = None
) -> CandidateVerdict:
    """Substitute X into the generated system; Automorphism iff all cleared
    residuals vanish identically.  Returns the first nonvanishing residual
    otherwise."""
    if system is None:
        system = generate_system(sdef)
    if X.vars != sdef.vars:
        raise AutosysError("candidate lives over different coordinates")
    for eq in system.equations:
        res = equation_residual(eq, X)
        if not res.is_zero():
            return CandidateVerdict(False, ((eq.integral, eq.field_index), res))
    return CandidateVerdict(True)
