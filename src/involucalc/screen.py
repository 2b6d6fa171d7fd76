"""The mod-p screen of ``loci.full_minor_search``.

Once the search has met a nonzero minor that is not a witness, it computes
exactly only the minors that pass this screen: mod the prime P = 33,554,393
(P = 1 mod 4, with i sent to I_P = 33,479,089) at one fixed point v whose
coordinates are drawn from ``random.Random(POINT_SEED)`` (see ``_Screen``).
A witness minor, whose cleared determinant is Delta = x^alpha * u with
u(0) = c_alpha != 0 and degree at most D, is screened out only if P divides
c_alpha, whose image c_alpha * v^alpha is the coefficient the screen reads
on the line through v, or if v is a root of u or, for some coordinate j, of
u with x_j = 0: at most (coordinates + 1) polynomials of degree at most D,
probability at most (coordinates + 1) * D / P for a random point.  A drop
can turn a Yes into a later witness or a NotEstablished, never the reverse:
every Yes is still an exact minor, factored exactly.

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
# 2^13 of them is exact: each coefficient of a truncated product in
# _minors_mod_p, of series of T < MAX_POINTS coefficients, the length cap.
MAX_POINTS = 1 << 13
POINT_SEED = 1980  # the point's coordinates are drawn from random.Random(POINT_SEED)
FIRST_CHUNK, MAX_CHUNK = 256, 4096  # subsets per screened chunk, doubling
SLICE_BYTES = 4 << 20  # the widest temporary of _minors_mod_p on one slice of subsets


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
    minor of a subset is Delta / U with Delta the determinant of the cleared
    rows and U a product of factors that are units at the origin.  The exact
    minor is a witness iff Delta = x^alpha * unit.  The screen decides this for
    Delta mod P from its Taylor coefficients in lam on lines through the
    fixed point v, each the first T coefficients of a determinant of power
    series computed by ``_minors_mod_p``:

    * a subset whose Delta(v) is 0 is dropped;
    * on the axis of each coordinate x_j through v (x_j = lam * v_j, the
      other coordinates at v), T doubles from 1 until a coefficient is
      nonzero, at the latest at lam^D_j, D_j the sum of the ``size``
      largest row degrees on the axis, as Delta(v) != 0 is its value at
      lam = 1; its index is ord_j;
    * on the line lam * v, a subset passes iff the coefficient of
      lam^sigma, sigma the sum of the ord_j, is nonzero (T is sigma + 1
      rounded up to a power of two, so that few lengths occur).

    Off the roots the module docstring counts, ord_j is the least exponent
    of x_j in Delta, so every monomial of Delta is a multiple of x^alpha
    with alpha_j = ord_j, and the coefficient of lam^sigma is
    c_alpha * v^alpha, nonzero iff Delta = x^alpha * unit.  The screen
    cannot run when P divides a coefficient denominator, or when a series
    needs MAX_POINTS coefficients or more."""

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
        """The subsets of ``batch`` that pass the screen, in order, or None if
        the screen cannot run on them."""
        needed = sorted({k for picked in batch for k in picked})
        try:
            data = [self._row(k) for k in needed]
        except _CannotScreen:
            return None
        at = {k: i for i, k in enumerate(needed)}
        idx = np.array([[at[k] for k in picked] for picked in batch], np.intp)
        at_v = np.stack([a[0].sum(axis=1) % P for a, _ in data])
        live = np.flatnonzero(self._series(at_v[..., None], idx)[:, 0])
        if not live.size:
            return []
        degs = [sum(sorted(col)[-self.size :]) for col in zip(*(d for _, d in data))]  # of the minors
        if max(degs) + 1 >= MAX_POINTS:
            return None
        coef = np.zeros((len(degs), len(data), self.size, max(degs) + 1), np.int64)
        for i, (a, _) in enumerate(data):
            coef[:, i, :, : a.shape[2]] = a
        sub = idx[live]
        moving = np.flatnonzero(degs[1:])  # on the other axes, Delta is Delta(v)
        order = np.zeros((live.size, len(degs) - 1), np.int64)
        order[:, moving] = -1  # until a coefficient is nonzero
        # the pending (axis, subset) pairs, in one call: axis k's rows are stacked k-th
        pk, ps = np.repeat(np.arange(moving.size), live.size), np.tile(np.arange(live.size), moving.size)
        terms, top = 1, max(degs[1:])
        while ps.size:
            stacked = coef[1 + moving, :, :, :terms].reshape(-1, self.size, terms)
            vals = self._series(stacked, sub[ps] + len(data) * pk[:, None]) != 0
            hit = vals.any(axis=1)
            order[ps[hit], moving[pk[hit]]] = vals[hit].argmax(axis=1)
            pk, ps = pk[~hit], ps[~hit]
            if terms > top:
                break
            terms = min(2 * terms, top + 1)
        sigma = order.sum(axis=1)
        keep = np.flatnonzero((order >= 0).all(axis=1) & (sigma <= degs[0]))
        sigma, ok, terms = sigma[keep], np.zeros(keep.size, bool), 1
        while terms // 2 <= sigma.max(initial=-1):  # the line, for each sigma in [terms // 2, terms)
            grp = np.flatnonzero((terms // 2 <= sigma) & (sigma < terms))
            if grp.size:
                line = self._series(coef[0, :, :, :terms], sub[keep[grp]])
                ok[grp] = line[np.arange(grp.size), sigma[grp]] != 0
            terms *= 2
        return [batch[i] for i in live[keep[ok]]]

    def _series(self, coef, sub):
        """``_minors_mod_p(coef, sub)`` in slices of subsets whose Laplace
        products, k * C(n, k) series per subset at level k, take at most
        SLICE_BYTES."""
        n = self.size
        per = max(1, SLICE_BYTES // (n * comb(n - 1, (n - 1) // 2) * coef.shape[-1] * 8))
        return np.concatenate([_minors_mod_p(coef, sub[lo : lo + per]) for lo in range(0, len(sub), per)])


def _row_residues(comps, point):
    """(a, degrees) of one row cleared over its denominator, mod P:
    a[0, c, k] is the coefficient of lam^k of entry c on the line lam * v,
    a[1 + j, c, k] that on the axis of x_j through v, and degrees[d] the
    degree in lam of the row on direction d."""
    nums = common_denominator(comps)
    n = len(point)
    try:
        residues = [num.residues(P, I_P) for num in nums]
    except ZeroDivisionError:
        raise _CannotScreen from None
    deg = max(num.total_degree() for num in nums)
    pw = [[1] * (deg + 1) for _ in range(n)]
    for j, v in enumerate(point.tolist()):
        for k in range(1, deg + 1):
            pw[j][k] = pw[j][k - 1] * v % P
    a = [[[0] * (deg + 1) for _ in nums] for _ in range(n + 1)]
    for c, res in enumerate(residues):
        for exps, r in res.items():
            for j, k in enumerate(exps):
                r = r * pw[j][k] % P
            a[0][c][sum(exps)] += r
            for j, k in enumerate(exps):
                a[1 + j][c][k] += r
    a = np.array(a, np.int64) % P
    degrees = [max((k for k, u in enumerate(d) if u), default=0) for d in a.any(axis=1).tolist()]
    return a[:, :, : max(degrees) + 1], degrees


@functools.lru_cache(maxsize=None)
def _laplace(n, k):
    """Two (k, C(n, k)) arrays over the k-subsets S of range(n) in
    lexicographic order: at [t, s], the index of S without S[t] among the
    (k-1)-subsets, and S[t], plus n where the Laplace sign (-1)^(k-1-t) is
    negative."""
    below = {s: i for i, s in enumerate(combinations(range(n), k - 1))}
    subsets = list(combinations(range(n), k))
    return (
        np.array([[below[s[:t] + s[t + 1 :]] for s in subsets] for t in range(k)]),
        np.array([[s[t] + n * ((k - 1 - t) % 2) for s in subsets] for t in range(k)]),
    )


def _minors_mod_p(m, idx):
    """det m[idx[b]] mod P for each row b of idx (B x n), m of shape
    (rows, n) or (rows, n, T) with entries in [0, P), without division
    (Rote, LNCS 2122, 2001).  A trailing axis holds power series in lam
    truncated at lam^T, as does the result's (Kaltofen, ISSAC 1992).  The
    wedge of rows idx[b, :k] has one coordinate per k-subset of the n
    columns, the minor on those columns; each is the Laplace expansion along
    row k of the wedge of idx[b, :k-1], a sum of k <= n truncated products
    reduced mod P, with a row entry negated mod P where the sign is
    negative.  A prefix is built once for each run of equal
    idx[b, :k], so lexicographically ordered subsets share their common
    prefixes; the result does not depend on the order.  The widest wedge
    has C(n, n // 2) coordinates, which makes this slower than elimination
    from n = 10 up; no size switch is kept, because a search reaches the
    screen only after an exact minor of its size, which takes factorial
    time at such a size."""
    n = idx.shape[1]
    terms = m.shape[2] if m.ndim > 2 else 1
    flat = m.reshape(m.shape[0], n, terms)
    flat = np.concatenate([flat, (P - flat) % P], axis=1)  # the rows, then the rows negated
    wedge = np.eye(1, terms, dtype=np.int64)[None]  # the series 1
    ids = np.zeros(len(idx), np.intp)  # the prefix of each subset
    start = np.arange(len(idx)) == 0  # where a prefix starts
    for k in range(1, n + 1):
        start[1:] |= idx[1:, k - 1] != idx[:-1, k - 1]
        first = np.flatnonzero(start)
        sub, col = _laplace(n, k)
        a, b = wedge[ids[first, None, None], sub], flat[idx[first, k - 1, None, None], col]
        term = a * b[..., :1]
        for s in range(1, terms):
            term[..., s:] += a[..., : terms - s] * b[..., s, None]
        wedge = (term % P).sum(axis=1) % P
        ids = np.cumsum(start) - 1
    return wedge[ids].reshape(idx.shape[:1] + m.shape[2:])
