"""Monomial-times-unit factorization and the normal-crossing locus criteria.

Both checks implement a sufficient minor criterion only: a verdict is either
Yes with a re-verifiable witness, or NotEstablished; the latter never proves
the condition fails.  Minors are enumerated in lexicographic order on the
row/column index tuples and the first success wins, so verdicts are
deterministic.

Both checks search the full minors of a matrix, phi_t or the hull
generators' coefficient rows, with ``full_minor_search``.  It computes each
minor exactly, as a RatFun determinant, until the first nonzero minor that
is not a witness.  From there on it computes exactly only the minors that
pass a mod-p screen at a fixed point (``screen.py``), which can turn a Yes
into a later witness or a NotEstablished, never the reverse: every Yes is
still an exact minor, factored exactly."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .algebra import Poly, RatFun, ratfun_det
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
    mu x mu minor of phi_t factors as monomial times unit (see
    ``full_minor_search``; the rows of phi_t are labelled 1..d)."""
    mu, d = sdef.mu, sdef.d
    if mu == 0:
        return LocusVerdict(True, None, "mu = 0: trivially normal crossing")
    if d < mu:
        return LocusVerdict(
            False, None, "phi_t has fewer rows than columns; no full minors"
        )
    phi_t = jacobians(sdef).phi_t
    rows = [(r + 1, tuple(RatFun.of(x) for x in phi_t[r])) for r in range(d)]
    verdict = full_minor_search(rows, mu)
    if verdict.established:
        return verdict
    return LocusVerdict(False, None, "no full minor of phi_t factored")


class HullRows(Sequence):
    """Symbolic coefficient rows (in the first-integral coframe) of the kept
    hull generators, recomputed exactly from the recorded words: row k is
    ((word, start index), components).

    Row k, with the parent rows it needs, is built the first time it is
    indexed, so a search that stops early builds only the rows it read; a
    full iteration builds every row, and the sequence can be iterated again.
    The entries are in breadth-first order and a kept word's parent (the
    word without its leftmost, last-applied letter) is always kept, so each
    section is its parent's section differentiated once: the same RatFun
    operations as differentiating the start section along the whole word,
    without redoing the shared prefixes."""

    def __init__(self, sdef: StructureDef, chain: SpanChain):
        self.sdef = sdef
        self.chain = chain
        self.frame = build_frame(sdef)
        self.index = {(word, si): k for k, (word, si, _) in enumerate(chain.entries)}
        self.sections = [None] * len(chain.entries)

    def __len__(self):
        return len(self.sections)

    def _section(self, k):
        sec = self.sections[k]
        if sec is None:
            word, si, _ = self.chain.entries[k]
            if word:
                parent = self._section(self.index[(word[1:], si)])
                sec = lie_derivative(self.sdef, self.frame[word[0]], parent)
            else:
                sec = self.chain.starts[si]
            self.sections[k] = sec
        return sec

    def __getitem__(self, k):
        k = range(len(self))[k]
        word, si, _ = self.chain.entries[k]
        return (word, si), self._section(k).components()


def hull_generator_rows(sdef: StructureDef, chain: SpanChain) -> HullRows:
    """The hull generators' coefficient rows, each built when first read."""
    return HullRows(sdef, chain)


def degeneracy_locus_check(sdef: StructureDef, chain: SpanChain) -> LocusVerdict:
    """Sufficient criterion for a normal-crossing degeneracy locus: some full
    (nu+d) x (nu+d) minor of the hull-generator coefficient matrix factors as
    monomial times unit (see ``full_minor_search``)."""
    size = sdef.nu + sdef.d
    rows = hull_generator_rows(sdef, chain)
    if len(rows) < size or size == 0:
        return LocusVerdict(False, None, "not enough hull generators for a full minor")
    return full_minor_search(rows, size)


def full_minor_search(rows, size) -> LocusVerdict:
    """The first subset of ``size`` rows, in lexicographic order, whose exact
    minor is a witness: nonzero, with a numerator that is a monomial times a
    unit (its denominator, as every RatFun's, is a unit at the origin).

    Subsets are tried exactly until the first nonzero minor that is not a
    witness; after it, only the subsets the mod-p screen passes are, in the
    same order (see ``screen._Screen``), unless at most one subset is left,
    which is tried exactly."""
    subsets = combinations(range(len(rows)), size)
    tried = 0
    for picked in subsets:
        tried += 1
        minor, witness = _exact_minor(rows, picked)
        if witness is not None:
            return LocusVerdict(True, witness)
        if not minor.is_zero():
            break
    if comb(len(rows), size) - tried > 1:
        from .screen import screened

        subsets = screened(rows, size, subsets)
    for picked in subsets:
        witness = _exact_minor(rows, picked)[1]
        if witness is not None:
            return LocusVerdict(True, witness)
    return LocusVerdict(False, None, "no full minor of the hull generators factored")


def _exact_minor(rows, picked):
    """The exact minor of the picked rows, and its witness if it is one."""
    minor = ratfun_det([list(rows[i][1]) for i in picked])
    if minor.is_zero():
        return minor, None
    try:
        factor = monomial_unit_factor(minor.num)
    except NotMonomialTimesUnit:
        return minor, None
    labels = tuple(rows[i][0] for i in picked)
    return minor, LocusWitness(labels, tuple(range(1, len(picked) + 1)), minor.num, factor)
