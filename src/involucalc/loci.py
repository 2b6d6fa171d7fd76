"""Monomial-times-unit factorization and the normal-crossing locus criteria.

Both checks implement a sufficient minor criterion only: a verdict is either
Yes with a re-verifiable witness, or NotEstablished; the latter never proves
the condition fails.  Minors are enumerated in lexicographic order on the
row/column index tuples and the first success wins, so verdicts are
deterministic.

The degeneracy search computes each minor exactly, as a RatFun determinant,
until the first nonzero minor that is not a witness.  From there on it
computes exactly only the minors that pass a screen mod the prime
P = 33,554,393 (P = 1 mod 4, with i sent to I_P = 33,479,089) at one fixed
point whose coordinates are drawn from ``random.Random(POINT_SEED)`` (see
``_Screen``).  A witness minor of degree at most D is screened out only if
the point is a root of one of at most (coordinates + 2) nonzero polynomials
of degree at most D, probability at most (coordinates + 2) * D / P for a
random point, or if P divides a coefficient the screen reads.  That can turn
a Yes into a later witness or a NotEstablished, never the reverse: every Yes
is still an exact minor, factored exactly."""

from __future__ import annotations

import functools
import random
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .algebra import Poly, common_denominator, det, ratfun_det
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
    operations as ``apply_word``, without redoing the shared prefixes."""

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
    minor is a witness: nonzero, with a denominator that is a unit at the
    origin and a numerator that is a monomial times a unit.

    Subsets are tried exactly until the first nonzero minor that is not a
    witness; after it, only the subsets the mod-p screen passes are, in the
    same order (see ``_Screen``)."""
    subsets = combinations(range(len(rows)), size)
    for picked in subsets:
        minor, witness = _exact_minor(rows, picked)
        if witness is not None:
            return LocusVerdict(True, witness)
        if not minor.is_zero():
            break
    for picked in _screened(rows, size, subsets):
        witness = _exact_minor(rows, picked)[1]
        if witness is not None:
            return LocusVerdict(True, witness)
    return LocusVerdict(False, None, "no full minor of the hull generators factored")


def _exact_minor(rows, picked):
    """The exact minor of the picked rows, and its witness if it is one."""
    minor = ratfun_det([list(rows[i][1]) for i in picked])
    if minor.is_zero() or minor.den.constant_term().is_zero():
        return minor, None
    try:
        factor = monomial_unit_factor(minor.num)
    except NotMonomialTimesUnit:
        return minor, None
    labels = tuple(rows[i][0] for i in picked)
    return minor, LocusWitness(labels, tuple(range(1, len(picked) + 1)), minor.num, factor)


# -- the mod-p screen ------------------------------------------------------------

P = 33_554_393  # prime, 1 mod 4
I_P = 33_479_089  # I_P^2 = -1 mod P: the image of i
# A product of two residues is below 2^50, so an int64 sum of fewer than
# 2^13 of them is exact.
MAX_POINTS = 1 << 13
POINT_SEED = 1980  # the point's coordinates are drawn from random.Random(POINT_SEED)
FIRST_CHUNK, MAX_CHUNK = 256, 4096  # subsets per screened chunk, doubling
SLICE_BYTES = 4 << 20  # the stage-2 values of one slice of subsets


class _CannotScreen(Exception):
    """A row the screen cannot reduce mod P faithfully."""


def _screened(rows, size, subsets):
    """The subsets of the iterator ``subsets`` that pass the screen, in
    order, taken in doubling chunks; from a chunk the screen cannot run on,
    every remaining subset."""
    screen = _Screen(rows, size)
    n = FIRST_CHUNK
    while batch := list(islice(subsets, n)):
        passed = screen.passes(batch)
        if passed is None:
            yield from batch
            yield from subsets
            return
        yield from passed
        n = min(2 * n, MAX_CHUNK)


class _Screen:
    """Mod-P screen of full minors (Schwartz, J. ACM 27, 1980; Zippel,
    EUROSAM 1979).

    Each row is cleared over its per-factor maximum denominator, so the
    minor of a subset is Delta / (U x^Q) with Delta the determinant of the
    cleared rows, U a product of factors that are units at the origin and
    x^Q the rows' coordinate factors.  The exact minor is a witness iff
    Delta = x^alpha * unit with alpha >= Q, that is iff the order of Delta
    at 0 along a line, its lowest total degree, equals the sum over
    coordinates j of alpha_j, its order along the axis of x_j, and every
    alpha_j >= Q_j.  The screen decides this for Delta mod P at the fixed
    point v:

    * stage 1: a subset whose Delta(v) is 0 is dropped;
    * stage 2: Delta is evaluated on the line lam * v and on each axis
      through v (x_j = lam * v_j, the other coordinates at v) at
      lam = 0..D, D the sum of the ``size`` largest row degrees along that
      direction, and the orders at lam = 0 are read off the values.

    Each stage-2 direction passes through v at lam = 1, so none of them is
    identically 0 after stage 1.  The screen cannot run when a
    non-coordinate denominator factor vanishes at 0 (the exact minor can
    lose it), when P divides a coefficient denominator, or when the line
    needs MAX_POINTS points or more."""

    def __init__(self, rows, size):
        self.rows = rows
        self.size = size
        self.point = None
        self.data = {}  # row index -> _row_residues of the row

    def _row(self, k):
        got = self.data.get(k)
        if got is None:
            comps = self.rows[k][1]
            if self.point is None:
                rng = random.Random(POINT_SEED)
                self.point = np.array([rng.randrange(1, P) for _ in comps[0].vars], np.int64)
            got = self.data[k] = _row_residues(comps, self.point)
        return got

    def passes(self, batch):
        """The subsets of ``batch`` that pass both stages, in order, or None
        if the screen cannot run on them."""
        needed = sorted({k for picked in batch for k in picked})
        try:
            data = [self._row(k) for k in needed]
        except _CannotScreen:
            return None
        at = {k: i for i, k in enumerate(needed)}
        idx = np.array([[at[k] for k in picked] for picked in batch], np.intp)
        grid = range(self.size)
        at_v = np.stack([a[:, 0].sum(axis=1) % P for a, _, _ in data])
        live = np.flatnonzero(_det_mod_p([[at_v[idx[:, i], j] for j in grid] for i in grid]))
        if not live.size:
            return []
        row_degs = list(zip(*(d for _, _, d in data)))  # per direction
        degs = [sum(sorted(col)[-self.size :]) for col in row_degs]  # of the minors
        if degs[0] + 1 >= MAX_POINTS:
            return None
        coef = np.zeros((self.size, len(data), len(degs), max(a.shape[2] for a, _, _ in data)), np.int64)
        for i, (a, _, _) in enumerate(data):
            coef[:, i, :, : a.shape[2]] = a
        sub = idx[live]
        ords = np.zeros((live.size, len(degs)), np.int64)
        for d in range(len(degs)):
            if not degs[d]:
                continue
            lam = np.arange(degs[d] + 1, dtype=np.int64)
            vals = np.zeros((self.size, len(data), lam.size), np.int64)
            for k in range(max(row_degs[d]), -1, -1):  # Horner in lam
                vals = (vals * lam + coef[:, :, d, k, None]) % P
            per = max(1, SLICE_BYTES // (self.size * self.size * lam.size * 8))
            for lo in range(0, live.size, per):
                part = sub[lo : lo + per]
                ords[lo : lo + per, d] = _orders(_det_mod_p([[vals[j][part[:, i]] for j in grid] for i in grid]))
        coord = np.stack([q for _, q, _ in data])[sub].sum(axis=1)
        ok = (ords[:, 0] == ords[:, 1:].sum(axis=1)) & (ords[:, 1:] >= coord).all(axis=1)
        return [batch[i] for i in live[ok]]


def _row_residues(comps, point):
    """(a, Q, degrees) of one row cleared over its denominator, mod P:
    a[c, 0, k] is the coefficient of lam^k of entry c on the line lam * v,
    a[c, 1 + j, k] that on the axis of x_j through v, Q the exponents of the
    denominator's coordinate factors, and degrees[d] the degree in lam of
    the row on direction d."""
    nums, powers = common_denominator(comps)
    n = len(point)
    coord = np.zeros(n, np.int64)
    for f, p in powers:
        if f.coord is not None:
            coord[f.coord] = p
        elif f.poly.constant_term().is_zero():
            raise _CannotScreen
    try:
        residues = [num.residues(P, I_P) for num in nums]
    except ZeroDivisionError:
        raise _CannotScreen from None
    deg = max(num.total_degree() for num in nums)
    pw = [[1] * (deg + 1) for _ in range(n)]
    for j, v in enumerate(point.tolist()):
        for k in range(1, deg + 1):
            pw[j][k] = pw[j][k - 1] * v % P
    a = [[[0] * (deg + 1) for _ in range(n + 1)] for _ in nums]
    for entry, res in zip(a, residues):
        for exps, r in res.items():
            for j, k in enumerate(exps):
                r = r * pw[j][k] % P
            entry[0][sum(exps)] += r
            for j, k in enumerate(exps):
                entry[1 + j][k] += r
    a = np.array(a, np.int64) % P
    used = a.any(axis=0).tolist()
    return a, coord, [max((k for k, u in enumerate(row) if u), default=0) for row in used]


def _det_mod_p(e):
    """Determinants mod P of the n x n matrices whose (i, j) entries are the
    equal-shape arrays e[i][j], entries in [0, P), by fraction-free
    elimination: step c replaces each row i > c by piv_c * row i minus
    row i's entry in column c times row c, which scales the remaining block's
    determinant by piv_c^(n-2-c) (Chio's condensation), so the last pivot is
    the determinant times the product of those powers.  A zero pivot left
    after the row swaps zeroes every row below it, and the last pivot with
    them."""
    n = len(e)
    rows = [list(r) for r in e]
    flip = np.zeros(e[0][0].shape, bool)  # an odd number of row swaps
    prefix = np.ones(e[0][0].shape, np.int64)  # piv_0 ... piv_c
    scale = prefix  # the product of the powers of piv_0 ... piv_n-3
    for c in range(n - 1):
        if (rows[c][c] == 0).any():  # a nonzero pivot, by swapping rows
            for i in range(c + 1, n):
                swap = (rows[c][c] == 0) & (rows[i][c] != 0)
                for j in range(c, n):
                    rows[c][j], rows[i][j] = (
                        np.where(swap, rows[i][j], rows[c][j]),
                        np.where(swap, rows[c][j], rows[i][j]),
                    )
                flip ^= swap
        piv = rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c]
            for j in range(c + 1, n):
                rows[i][j] = (piv * rows[i][j] - f * rows[c][j]) % P
        if c < n - 2:
            prefix = prefix * piv % P
            scale = scale * prefix % P
    last = np.where(flip, (P - rows[-1][-1]) % P, rows[-1][-1])
    return last * _inverse_mod_p(np.where(scale == 0, 1, scale)) % P


def _inverse_mod_p(x):
    """1/x mod P of each entry of the nonempty array x, none of them 0, with
    one ``pow`` (Montgomery's trick): the entries are multiplied in pairs up
    a tree, the root is inverted, and on the way down the inverse of each
    entry is its parent's inverse times its sibling."""
    tree = [x.ravel()]
    while tree[-1].size > 1:
        if tree[-1].size % 2:
            tree[-1] = np.append(tree[-1], 1)
        tree.append(tree[-1][0::2] * tree[-1][1::2] % P)
    inv = np.array([pow(int(tree[-1][0]), P - 2, P)], np.int64)
    for level in reversed(tree[:-1]):
        inv = np.repeat(inv[: level.size // 2], 2) * level.reshape(-1, 2)[:, ::-1].ravel() % P
    return inv[: x.size].reshape(x.shape)


@functools.lru_cache(maxsize=8)
def _factorials(points):
    """k!, 1/k! for k < points and 1/k for 0 < k < points, mod P."""
    fact = [1] * points
    for k in range(1, points):
        fact[k] = fact[k - 1] * k % P
    inv_fact = [pow(fact[-1], P - 2, P)] * points
    for k in range(points - 1, 0, -1):
        inv_fact[k - 1] = inv_fact[k] * k % P
    inv = [fact[k - 1] * inv_fact[k] % P for k in range(1, points)]
    return np.array(fact, np.int64), np.array(inv_fact, np.int64), np.array(inv, np.int64)


def _orders(y):
    """Order at 0 of each polynomial of degree < L given by its values
    y[..., l] at l = 0..L-1, mod P.  The lowest coefficients are peeled off
    one at a time: while c_0..c_k-1 are 0, f / lam^k has degree < L - k, and
    its values at 1..L-k give c_k as its value at 0."""
    points = y.shape[-1]
    flat = y.reshape(-1, points)
    out = np.zeros(len(flat), np.int64)
    todo = np.flatnonzero(flat[:, 0] == 0)
    fact, inv_fact, inv = _factorials(points)
    vals = flat[todo, 1:]
    for k in range(1, points):
        if not todo.size:
            break
        vals = vals * inv % P
        n = points - k  # (-1)^(l-1) C(n, l), l = 1..n, carry values at 1..n to 0
        weights = fact[n] * inv_fact[1 : n + 1] % P * inv_fact[n - 1 :: -1] % P
        weights[1::2] = (P - weights[1::2]) % P
        c = vals[:, :n] @ weights % P
        hit = c != 0
        out[todo[hit]] = k
        todo, vals = todo[~hit], vals[~hit]
    return out.reshape(y.shape[:-1])


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
