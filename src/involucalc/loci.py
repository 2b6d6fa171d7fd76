"""Monomial-times-unit factorization and the normal-crossing locus criteria.

Both checks implement a sufficient minor criterion only: a verdict is either
Yes with a re-verifiable witness, or NotEstablished; the latter never proves
the condition fails.  Minors are enumerated in lexicographic order on the
row/column index tuples and the first success wins, so verdicts are
deterministic."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .algebra import Poly, det, ratfun_det
from .hull import SpanChain, lie_derivative
from .structure import StructureDef, build_frame, jacobians


class LociError(Exception):
    pass


class ZeroPolynomial(LociError):
    pass


class NotMonomialTimesUnit(LociError):
    """The polynomial is not a monomial times a unit at the origin."""


@dataclass(frozen=True)
class MonomialUnitFactor:
    alpha: tuple  # exponent multi-index over the polynomial's variables
    unit: Poly  # unit(0) != 0

    def reassemble(self) -> Poly:
        return self.unit * Poly.monomial(self.unit.vars, self.alpha)


def monomial_unit_factor(p: Poly) -> MonomialUnitFactor:
    """Write p = x^alpha * unit with unit(0) != 0, if possible."""
    if p.is_zero():
        raise ZeroPolynomial("zero polynomial admits no factorization")
    alpha = p.min_exponents()
    unit = p.shift_divide(alpha)
    if unit.constant_term().is_zero():
        raise NotMonomialTimesUnit(
            "remaining factor vanishes at the origin"
        )
    return MonomialUnitFactor(alpha, unit)


@dataclass(frozen=True)
class LocusWitness:
    rows: tuple  # row labels of the witness minor
    cols: tuple  # column labels
    minor: Poly  # the minor (numerator, denominators are units at 0)
    factor: MonomialUnitFactor


@dataclass(frozen=True)
class LocusVerdict:
    established: bool
    witness: LocusWitness | None = None
    note: str = ""

    def __bool__(self):
        return self.established


def exceptional_locus_check(sdef: StructureDef) -> LocusVerdict:
    """Sufficient criterion for a normal-crossing exceptional locus: some
    mu x mu minor of phi_t factors as monomial times unit."""
    mu, d = sdef.mu, sdef.d
    if mu == 0:
        return LocusVerdict(True, None, "mu = 0: trivially normal crossing")
    if d < mu:
        return LocusVerdict(
            False, None, "phi_t has fewer rows than columns; no full minors"
        )
    jac = jacobians(sdef)
    cols = tuple(range(mu))
    for rows in combinations(range(d), mu):
        sub = [[jac.phi_t[r][c] for c in cols] for r in rows]
        minor = det(sub)
        if minor.is_zero():
            continue
        try:
            factor = monomial_unit_factor(minor)
        except NotMonomialTimesUnit:
            continue
        return LocusVerdict(
            True,
            LocusWitness(
                tuple(r + 1 for r in rows), tuple(c + 1 for c in cols), minor, factor
            ),
        )
    return LocusVerdict(False, None, "no full minor of phi_t factored")


def hull_generator_rows(sdef: StructureDef, chain: SpanChain):
    """Symbolic coefficient rows (in the first-integral coframe) of the kept
    hull generators, recomputed exactly from the recorded words.

    The entries are in breadth-first order and a kept word's parent (the
    word without its leftmost, last-applied letter) is always kept, so each
    section is its parent's section differentiated once: the same RatFun
    operations as ``apply_word``, without redoing the shared prefixes."""
    frame = build_frame(sdef)
    sections = {}
    rows = []
    for word, si, _ in chain.entries:
        if word:
            sec = lie_derivative(sdef, frame[word[0]], sections[(word[1:], si)])
        else:
            sec = chain.starts[si]
        sections[(word, si)] = sec
        rows.append(((word, si), sec.components()))
    return rows


def degeneracy_locus_check(sdef: StructureDef, chain: SpanChain) -> LocusVerdict:
    """Sufficient criterion for a normal-crossing degeneracy locus: some full
    (nu+d) x (nu+d) minor of the hull-generator coefficient matrix factors as
    monomial times unit.

    Denominators of the coefficients are units at the origin, so the test is
    applied to the numerator of the minor."""
    size = sdef.nu + sdef.d
    rows = hull_generator_rows(sdef, chain)
    if len(rows) < size or size == 0:
        return LocusVerdict(False, None, "not enough hull generators for a full minor")
    for picked in combinations(range(len(rows)), size):
        mat = [list(rows[i][1]) for i in picked]
        minor = ratfun_det(mat)
        if minor.is_zero():
            continue
        if minor.den.constant_term().is_zero():
            continue
        try:
            factor = monomial_unit_factor(minor.num)
        except NotMonomialTimesUnit:
            continue
        return LocusVerdict(
            True,
            LocusWitness(
                tuple(rows[i][0] for i in picked),
                tuple(range(1, size + 1)),
                minor.num,
                factor,
            ),
        )
    return LocusVerdict(False, None, "no full minor of the hull generators factored")


def verify_witness(v: LocusVerdict) -> bool:
    """Re-check a Yes verdict: the recorded factorization must reassemble the
    recorded minor exactly."""
    if not v.established or v.witness is None:
        return v.established and v.witness is None
    w = v.witness
    return (
        w.factor.reassemble() == w.minor
        and not w.factor.unit.constant_term().is_zero()
    )
