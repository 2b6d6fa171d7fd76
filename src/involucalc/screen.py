"""The mod-p screen of ``loci.full_minor_search``.

Once the search has met a nonzero minor that is not a witness, it computes
exactly only the minors that pass this screen: mod the prime P = 33,554,393
(P = 1 mod 4, with i sent to I_P = 33,479,089) at one fixed point whose
coordinates are drawn from ``random.Random(POINT_SEED)`` (see ``_Screen``).
A witness minor of degree at most D is screened out only if the point is a
root of one of at most (coordinates + 2) nonzero polynomials of degree at
most D, probability at most (coordinates + 2) * D / P for a random point, or
if P divides a coefficient the screen reads.  That can turn a Yes into a
later witness or a NotEstablished, never the reverse: every Yes is still an
exact minor, factored exactly.

This is the only module of the exact checks that uses numpy; ``loci`` imports
it when a search has more than one subset left to screen."""

from __future__ import annotations

import functools
import random
from itertools import combinations, islice
from math import comb

import numpy as np

from .algebra import common_denominator

P = 33_554_393  # prime, 1 mod 4
I_P = 33_479_089  # I_P^2 = -1 mod P: the image of i
# A product of two residues is below 2^50, so an int64 sum of fewer than
# 2^13 of them is exact: the weighted values of the fewer than MAX_POINTS
# points _orders sums, and the at most nu + d <= 14 Laplace terms of each
# coordinate _minors_mod_p sums.
MAX_POINTS = 1 << 13
POINT_SEED = 1980  # the point's coordinates are drawn from random.Random(POINT_SEED)
FIRST_CHUNK, MAX_CHUNK = 256, 4096  # subsets per screened chunk, doubling
SLICE_BYTES = 4 << 20  # the widest wedge of one stage-2 slice of subsets


class _CannotScreen(Exception):
    """A row the screen cannot reduce mod P faithfully."""


def screened(rows, size, subsets):
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

    Both stages take their values of Delta from ``_minors_mod_p``.  Each
    stage-2 direction passes through v at lam = 1, so none of them is
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
        at_v = np.stack([a[:, 0].sum(axis=1) % P for a, _, _ in data])
        live = np.flatnonzero(_minors_mod_p(at_v, idx))
        if not live.size:
            return []
        row_degs = list(zip(*(d for _, _, d in data)))  # per direction
        degs = [sum(sorted(col)[-self.size :]) for col in row_degs]  # of the minors
        if degs[0] + 1 >= MAX_POINTS:
            return None
        coef = np.zeros((len(data), self.size, len(degs), max(a.shape[2] for a, _, _ in data)), np.int64)
        for i, (a, _, _) in enumerate(data):
            coef[i, :, :, : a.shape[2]] = a
        sub = idx[live]
        ords = np.zeros((live.size, len(degs)), np.int64)
        for d in range(len(degs)):
            if not degs[d]:
                continue
            lam = np.arange(degs[d] + 1, dtype=np.int64)
            vals = np.zeros((len(data), self.size, lam.size), np.int64)
            for k in range(max(row_degs[d]), -1, -1):  # Horner in lam
                vals = (vals * lam + coef[:, :, d, k, None]) % P
            per = max(1, SLICE_BYTES // (comb(self.size, self.size // 2) * lam.size * 8))
            for lo in range(0, live.size, per):
                ords[lo : lo + per, d] = _orders(_minors_mod_p(vals, sub[lo : lo + per]))
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


@functools.lru_cache(maxsize=None)
def _laplace(n, k):
    """For each position t < k, over the k-subsets S of range(n) in
    lexicographic order: the index of S without S[t] among the
    (k-1)-subsets, and S[t]."""
    below = {s: i for i, s in enumerate(combinations(range(n), k - 1))}
    subsets = list(combinations(range(n), k))
    return [
        (np.array([below[s[:t] + s[t + 1 :]] for s in subsets]), np.array([s[t] for s in subsets]))
        for t in range(k)
    ]


def _minors_mod_p(m, idx):
    """det m[idx[b]] mod P for each row b of idx (B x n), m of shape
    (rows, n, ...) with entries in [0, P), without division (Rote, LNCS
    2122, 2001).  The wedge of rows idx[b, :k] has one coordinate per
    k-subset of the n columns, the minor on those columns; each is the
    Laplace expansion along row k of the wedge of idx[b, :k-1], a signed
    sum of k <= n products below 2^50.  A prefix is built once for each run
    of equal idx[b, :k], so lexicographically ordered subsets share their
    common prefixes; the result does not depend on the order.  The widest
    wedge has C(n, n // 2) coordinates, which makes this slower than
    elimination from n = 10 up; no size switch is kept, because a search
    reaches the screen only after an exact minor of its size, which takes
    factorial time at such a size."""
    n = idx.shape[1]
    flat = m.reshape(m.shape[0], n, -1)
    wedge = np.ones((1, 1, flat.shape[2]), np.int64)
    ids = np.zeros(len(idx), np.intp)  # the prefix of each subset
    for k in range(1, n + 1):
        start = np.ones(len(idx), bool)
        start[1:] = (idx[1:, :k] != idx[:-1, :k]).any(axis=1)
        first = np.flatnonzero(start)
        parent, row = ids[first, None], flat[idx[first, k - 1]]
        acc = 0
        for t, (sub, col) in enumerate(_laplace(n, k)):
            term = wedge[parent, sub] * row[:, col]
            acc = acc - term if (k - 1 - t) % 2 else acc + term
        wedge = acc % P
        ids = np.cumsum(start) - 1
    return wedge[ids, 0].reshape(idx.shape[:1] + m.shape[2:])


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

