"""Approximate solutions flat to high order in the transverse variable.

The model operator acts on C^r-valued data over coordinates (x_1..x_N, t):

    L u = du/dt + i sum_j b_j(x, t) du/dx_j,      D = L + A,

with real polynomial drift coefficients b_j and an optional polynomial r x r
matrix A.  Adding a transverse variable s, the operator of interest is
D_1 = d/ds + i D, and the formal solution with data u0 is

    u(x, t, s) = sum_k c_k(x, t) s^k,   c_0 = u0,   (k+1) c_{k+1} = -i D c_k.

All series coefficients are exact polynomials.  The numeric assembly damps
the k-th term with chi(R_k s) where chi is a fixed smooth bump (identically 1
on [-1/2, 1/2], supported in (-1, 1)) and R_k grows fast enough that

    sup_{|alpha|+l+m <= k} C(alpha, l, m, k) / R_k  <=  2^{-k},

the constants being suprema of derivative norms of the series terms estimated
by dense grid sampling times a safety factor of 2.  Inside the common plateau
|s| <= 1/(2 max R_k) every cutoff equals 1 and D_1 u reduces to the exact
polynomial i D c_n s^n."""

from __future__ import annotations

import csv
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import GaussRat, Poly
from .structure import field_vars


class ApproxError(Exception):
    pass


class PlanInfeasible(ApproxError):
    pass


@dataclass(frozen=True)
class NormalFormField:
    """First-order normal form d/dt + i b . d/dx with optional matrix part."""

    n_x: int
    b: tuple  # n_x real polynomials over (x_1..x_N, t)
    a_matrix: tuple | None = None  # r x r Poly matrix, or None for scalar

    def __post_init__(self):
        vars = self.vars
        b = tuple(self.b)
        object.__setattr__(self, "b", b)
        if len(b) != self.n_x:
            raise ApproxError("one drift coefficient per x variable required")
        for p in b:
            if not isinstance(p, Poly) or p.vars != vars:
                raise ApproxError(f"drift coefficients must be polynomials over {vars}")
            if not p.is_real():
                raise ApproxError("drift coefficients must be real")
        if self.a_matrix is not None:
            a = tuple(tuple(row) for row in self.a_matrix)
            object.__setattr__(self, "a_matrix", a)
            r = len(a)
            for row in a:
                if len(row) != r:
                    raise ApproxError("matrix part must be square")
                for p in row:
                    if not isinstance(p, Poly) or p.vars != vars:
                        raise ApproxError("matrix entries must be polynomials")

    @property
    def vars(self) -> tuple:
        return field_vars(self.n_x)

    @property
    def rank(self) -> int:
        return 1 if self.a_matrix is None else len(self.a_matrix)

    def apply_scalar(self, p: Poly) -> Poly:
        out = p.diff("t")
        for j, bj in enumerate(self.b, start=1):
            out = out + bj * p.diff(f"x{j}") * GaussRat(0, 1)
        return out

    def apply(self, vec) -> tuple:
        """D applied to a component vector: L componentwise plus A."""
        vec = tuple(vec)
        out = [self.apply_scalar(p) for p in vec]
        if self.a_matrix is not None:
            for i, row in enumerate(self.a_matrix):
                for j, a in enumerate(row):
                    if not a.is_zero():
                        out[i] = out[i] + a * vec[j]
        return tuple(out)


@dataclass(frozen=True)
class ApproxSeries:
    """Exact series coefficients c_0..c_n of the formal flat solution."""

    field: NormalFormField
    u0: tuple
    order: int
    coeffs: tuple  # coeffs[k] = c_k, a tuple of Poly

    def recursion_residuals(self):
        """(k+1) c_{k+1} + i D c_k for k < order; all must vanish."""
        out = []
        for k in range(self.order):
            idck = tuple(p * GaussRat(0, 1) for p in self.field.apply(self.coeffs[k]))
            res = tuple(
                c * (k + 1) + d for c, d in zip(self.coeffs[k + 1], idck)
            )
            out.append(res)
        return out

    def transverse_tail(self) -> tuple:
        """i D c_n: the exact value of D_1 u on the cutoff plateau is this
        polynomial vector times s^order."""
        return tuple(
            p * GaussRat(0, 1) for p in self.field.apply(self.coeffs[self.order])
        )


def series_coefficients(field: NormalFormField, u0, order: int) -> ApproxSeries:
    """Exact coefficients (-i D)^k u0 / k!."""
    if order < 0:
        raise ApproxError("order must be nonnegative")
    u0 = tuple(u0)
    if field.a_matrix is not None and len(u0) != field.rank:
        raise ApproxError("data length must match the matrix rank")
    coeffs = [u0]
    for k in range(order):
        nxt = tuple(
            p * GaussRat(0, Fraction(-1, k + 1)) for p in field.apply(coeffs[-1])
        )
        coeffs.append(nxt)
    return ApproxSeries(field, u0, order, tuple(coeffs))


@dataclass(frozen=True)
class ShiftJetReport:
    checked_orders: int
    ok: bool
    failures: tuple


def shift_jet_check(field: NormalFormField, j: int, l_max: int) -> ShiftJetReport:
    """For scalar data u0 = x_j the solution reads x_j + s * (shift profile).
    Check exactly, for l = 0..l_max, that the l-th transverse derivative of
    the profile at s = 0 equals (-i L)^l b_j / (l + 1)."""
    if field.a_matrix is not None:
        raise ApproxError("shift-profile identity applies to the scalar case")
    vars = field.vars
    series = series_coefficients(field, (Poly.var(vars, f"x{j}"),), l_max + 1)
    failures = []
    minus_il = field.b[j - 1]
    for l in range(l_max + 1):
        lhs = series.coeffs[l + 1][0] * math.factorial(l)  # l-th s-derivative at 0
        rhs = minus_il * Fraction(1, l + 1)
        if lhs != rhs:
            failures.append((l, lhs, rhs))
        # (-i L)^{l+1} b_j for the next round
        minus_il = field.apply_scalar(minus_il) * GaussRat(0, -1)
    return ShiftJetReport(l_max + 1, not failures, tuple(failures))


# -- the fixed cutoff ---------------------------------------------------------


def chi_float(u):
    """Smooth bump: 1 on [-1/2, 1/2], supported in (-1, 1)."""
    u = np.abs(np.asarray(u, dtype=float))
    out = np.zeros_like(u)
    out[u <= 0.5] = 1.0
    mid = (u > 0.5) & (u < 1.0)
    if np.any(mid):
        v1 = 2.0 - 2.0 * u[mid]
        v2 = 2.0 * u[mid] - 1.0
        f1 = np.exp(-1.0 / v1)
        f2 = np.exp(-1.0 / v2)
        out[mid] = f1 / (f1 + f2)
    return out


def _taylor_mul(a, b):
    n = len(a)
    return [
        sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)
    ]


def _taylor_recip(a):
    n = len(a)
    out = [1.0 / a[0]]
    for k in range(1, n):
        acc = 0.0
        for j in range(1, k + 1):
            acc += a[j] * out[k - j]
        out.append(-acc / a[0])
    return out


def _taylor_exp(g):
    n = len(g)
    out = [math.exp(g[0])]
    for k in range(1, n):
        acc = 0.0
        for j in range(1, k + 1):
            acc += j * g[j] * out[k - j]
        out.append(acc / k)
    return out


def chi_derivatives(u: float, order: int):
    """chi, chi', ..., chi^(order) at a single point, via exact Taylor
    recurrences on the defining formula (float arithmetic)."""
    sign = -1.0 if u < 0 else 1.0
    au = abs(u)
    n = order + 1
    if au <= 0.5:
        vals = [1.0] + [0.0] * order
    elif au >= 1.0:
        vals = [0.0] * n
    else:
        v1 = [2.0 - 2.0 * au, -2.0] + [0.0] * (n - 2) if n > 1 else [2.0 - 2.0 * au]
        v2 = [2.0 * au - 1.0, 2.0] + [0.0] * (n - 2) if n > 1 else [2.0 * au - 1.0]
        f1 = _taylor_exp([-c for c in _taylor_recip(v1)])
        f2 = _taylor_exp([-c for c in _taylor_recip(v2)])
        den = [a + b for a, b in zip(f1, f2)]
        chi = _taylor_mul(f1, _taylor_recip(den))
        vals = [c * math.factorial(q) for q, c in enumerate(chi)]
    return [v * (sign**q) for q, v in enumerate(vals)]


@functools.lru_cache(maxsize=None)
def chi_derivative_sups(order: int) -> tuple:
    """Sampled suprema of |chi^(q)| for q = 0..order (attained in the
    transition zone), from one Taylor expansion at each of 255 interior
    points.  The recurrences are truncation-stable, so entry q does not
    depend on order."""
    us = np.linspace(0.5, 1.0, 257)[1:-1]
    rows = [chi_derivatives(float(u), order) for u in us]
    return (1.0,) + tuple(max(abs(r[q]) for r in rows) for q in range(1, order + 1))


# -- numeric evaluation of the exact polynomials --------------------------------


def max_degrees(polys, n_vars: int) -> tuple:
    """The largest exponent of each of the n_vars variables over polys."""
    exps = [e for p in polys for e in p.terms]
    return tuple(max((e[v] for e in exps), default=0) for v in range(n_vars))


def grid_values_fn(axes, degrees):
    """Values of a polynomial p on the tensor grid axes[0] x ... x axes[n-1],
    for p of degree at most degrees[v] in variable v.

    Sum factorization: p's dense complex coefficient tensor is contracted
    with one real Vandermonde matrix per axis, one axis at a time, so no
    grid-sized array is made per term of p.  The matrices are built once,
    here; each call evaluates one polynomial, cut to its own degrees.  A
    variable p does not depend on is not contracted and its axis of the
    result has size 1; the others are contracted from the highest degree
    down, so the full grid is reached by the cheapest contraction.  The
    result's axes are in variable order.  A coefficient that does not
    convert to a complex raises OverflowError; an overflowing sample comes
    back as inf or NaN."""
    vander = [
        np.asarray(ax, dtype=float)[:, None] ** np.arange(d + 1)
        for ax, d in zip(axes, degrees)
    ]

    def values(p: Poly) -> np.ndarray:
        deg = max_degrees((p,), len(vander))
        live = sorted((v for v in range(len(vander)) if deg[v]), key=lambda v: -deg[v])
        vals = np.zeros(tuple(deg[v] + 1 for v in live), dtype=complex)
        for e, c in p.terms.items():
            vals[tuple(e[v] for v in live)] = complex(c)
        for v in live:  # contract the leading degree axis; its grid axis goes last
            vals = np.tensordot(vals, vander[v][:, : deg[v] + 1], axes=(0, 1))
        shape = tuple(len(m) if deg[v] else 1 for v, m in enumerate(vander))
        return np.transpose(vals, np.argsort(live)).reshape(shape)

    return values


@dataclass(frozen=True)
class CutoffPlan:
    """Cutoff scales, box, and the sampled constants that selected them."""

    radii: tuple  # R_0..R_n, nondecreasing positive Fractions (powers of two)
    box: tuple  # (lo, hi) per coordinate (x_1..x_N, t)
    grid: int
    constants: tuple  # sampled sup C(k) per k (after the safety factor)

    @property
    def plateau(self) -> float:
        return float(Fraction(1, 2) / max(self.radii))


# Overflowing samples are not warned about: every sampled sup is checked
# below and a non-finite one raises PlanInfeasible.
@np.errstate(over="ignore", invalid="ignore")
def select_cutoff_plan(
    series: ApproxSeries, box_halfwidth=1.0, grid: int = 33
) -> CutoffPlan:
    """Estimate the derivative-norm constants on the box by dense grid
    sampling (safety factor 2) and pick the smallest powers of two satisfying
    the selection inequality, made nondecreasing."""
    field = series.field
    vars = field.vars
    n = series.order
    box = tuple((-float(box_halfwidth), float(box_halfwidth)) for _ in vars)
    axes = [np.linspace(lo, hi, grid) for lo, hi in box]
    # derivatives have no larger degree than the coefficients they come from
    values = grid_values_fn(axes, max_degrees((p for c in series.coeffs for p in c), len(vars)))
    chi_sups = chi_derivative_sups(n)
    constants = []
    radii = []
    prev = Fraction(1)
    for k in range(n + 1):
        # weight of the m-th transverse derivative; the same for every alpha
        weights = []
        for m in range(k + 1):
            acc = 0.0
            for q in range(m + 1):
                acc += math.comb(m, q) * chi_sups[q] / math.factorial(k - m + q)
            weights.append(acc)
        best = 0.0
        for alpha_l, comps in _multiindex_derivatives(series.coeffs[k], vars, k):
            m_max = k - sum(alpha_l)
            sup_poly = 0.0
            try:
                for q in comps:
                    if q.is_zero():  # its samples are all 0, below any sup
                        continue
                    x = float(np.max(np.abs(values(q))))
                    if not math.isfinite(x):  # max() below would drop a NaN
                        raise PlanInfeasible("sampled derivative is not finite on the box")
                    sup_poly = max(sup_poly, x)
            except OverflowError as e:
                raise PlanInfeasible(f"sampled derivative norm overflows: {e}")
            sup_poly *= math.factorial(k)  # k! c_k = (-i D)^k u0
            if not math.isfinite(sup_poly):
                raise PlanInfeasible("sampled derivative norm is not finite")
            for m in range(m_max + 1):
                best = max(best, weights[m] * sup_poly)
        c_k = 2.0 * best
        constants.append(c_k)
        if c_k == 0.0:
            r = prev
        else:
            need = (2.0**k) * c_k
            exp = max(math.ceil(math.log2(need)) if need > 0 else 0, 0)
            r = Fraction(2) ** exp
            if r < need:  # guard against log2 rounding
                r = r * 2
        r = max(r, prev)
        radii.append(r)
        prev = r
    return CutoffPlan(tuple(radii), box, grid, tuple(constants))


def _derivative_multiindices(n_vars, k):
    """All derivative multi-indices over n_vars variables with total order
    <= k (the transverse order m is accounted separately), by total order,
    then lexicographically: the n_vars - 1 bars of each stars-and-bars
    arrangement, taken in lexicographic order."""
    for total in range(k + 1):
        for bars in itertools.combinations(range(total + n_vars - 1), n_vars - 1):
            edges = (-1,) + bars + (total + n_vars - 1,)
            yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def _multiindex_derivatives(polys, vars, k):
    """(alpha, derivatives of polys by alpha) for every multi-index of
    _derivative_multiindices(len(vars), k), in that order.  Each entry is one
    diff of the entry for alpha with its last nonzero index lowered, so the
    variables are differentiated in order, vars[0] first."""
    table = {}
    for alpha in _derivative_multiindices(len(vars), k):
        nz = [vi for vi, times in enumerate(alpha) if times]
        if not nz:
            comps = tuple(polys)
        else:
            vi = nz[-1]
            parent = alpha[:vi] + (alpha[vi] - 1,) + alpha[vi + 1 :]
            comps = tuple(q.diff(vars[vi]) for q in table[parent])
        table[alpha] = comps
        yield alpha, comps


class AssembledSolution:
    """Numeric evaluator of the cutoff series and of D_1 applied to it, on a
    tensor grid of the box at one transverse value s."""

    def __init__(self, series: ApproxSeries, plan: CutoffPlan):
        self.series = series
        self.plan = plan
        self.field = series.field
        self.rank = len(series.u0)
        self._tail = series.transverse_tail()
        self._degrees = max_degrees(
            (p for c in series.coeffs + (self._tail,) for p in c), len(self.field.vars)
        )
        self._radii = [float(r) for r in plan.radii]

    def _weighted_sum(self, axes, vectors, weights):
        """sum_k weights[k] vectors[k] on the grid axes[0] x ... x axes[N],
        one array per component; a term of weight 0 is skipped."""
        values = grid_values_fn(axes, self._degrees)
        out = [np.zeros(tuple(len(ax) for ax in axes), dtype=complex) for _ in range(self.rank)]
        for vec, w in zip(vectors, weights):
            if w:
                for c, p in enumerate(vec):
                    out[c] = out[c] + values(p) * w
        return out

    def u(self, axes, s: float):
        """sum_k c_k chi(R_k s) s^k on the grid axes (x_1..x_N, t) at the
        transverse value s; returns one array per component."""
        weights = [chi_derivatives(r * s, 0)[0] * s**k for k, r in enumerate(self._radii)]
        return self._weighted_sum(axes, self.series.coeffs, weights)

    def d1u(self, axes, s: float):
        """(d/ds + i D) applied to the assembled sum, on the grid axes at the
        transverse value s.

        Uses the telescoped form

            sum_k c_k (R_k chi'(R_k s) s^k + k (chi(R_k s) - chi(R_{k-1} s)) s^{k-1})
            + (i D c_n) chi(R_n s) s^n,

        which is algebraically identical to differentiating term by term but
        avoids the catastrophic cancellation of the raw sum: on the common
        plateau every cutoff factor is exactly 1 and only the tail remains."""
        chis = [chi_derivatives(r * s, 1) for r in self._radii]
        weights = []
        for k, rk in enumerate(self._radii):
            w = rk * chis[k][1] * s**k
            if k:
                w += (chis[k][0] - chis[k - 1][0]) * (k * s ** (k - 1))
            weights.append(w)
        weights.append(chis[-1][0] * s**self.series.order)
        return self._weighted_sum(axes, self.series.coeffs + (self._tail,), weights)

    def sup_d1u(self, s, grid=17):
        """Sampled sup over the box of the D_1 residual at transverse value s."""
        axes = [np.linspace(lo, hi, grid) for lo, hi in self.plan.box]
        return max(float(np.max(np.abs(v))) for v in self.d1u(axes, float(s)))

    def tail_certificate(self, m_max=2, grid=9, s_samples=21):
        """Check the selection inequality's consequence term by term: the
        sampled sup of each derivative of order <= min(k-1, m_max) of the k-th
        cutoff term is at most 2^{-k}.  The sup of a derivative
        d^alpha c_k d^m_s (chi(R_k s) s^k) factors into a grid sup, taken once
        per (k, alpha), times an s-sup, taken once per (k, m) over s_samples
        points of the term's support |s| <= 1/R_k."""
        vars = self.field.vars
        coeffs = self.series.coeffs
        axes = [np.linspace(lo, hi, grid) for lo, hi in self.plan.box]
        values = grid_values_fn(axes, self._degrees)
        rows = []
        ok = True
        for k in range(1, self.series.order + 1):
            rk = self._radii[k]
            budget = min(k - 1, m_max)
            # s_sups[m]: sampled sup of the m-th s-derivative of chi(R_k s) s^k
            s_sups = [0.0] * (budget + 1)
            for s in np.linspace(-1.0 / rk, 1.0 / rk, s_samples).tolist():
                dchi = chi_derivatives(rk * s, budget)
                for m in range(budget + 1):
                    acc = 0.0
                    for q in range(m + 1):
                        power = k - m + q
                        acc += (
                            math.comb(m, q) * (rk**q) * dchi[q] * math.perm(k, m - q) * s**power
                        )
                    s_sups[m] = max(s_sups[m], abs(acc))
            worst = 0.0
            for alpha, comps in _multiindex_derivatives(coeffs[k], vars, budget):
                sup_poly = max((float(np.max(np.abs(values(q)))) for q in comps), default=0.0)
                for m in range(budget - sum(alpha) + 1):
                    worst = max(worst, sup_poly * s_sups[m])
            bound = 2.0 ** (-k)
            rows.append((k, worst, bound))
            if worst > bound:
                ok = False
        return ok, rows

    def write_csv(self, path, axes, s: float):
        """Samples on the grid axes at the transverse value s as rows:
        coordinates, s, then Re/Im per component."""
        values = [v.ravel().tolist() for v in self.u(axes, s)]
        points = itertools.product(*(np.asarray(ax, dtype=float).tolist() for ax in axes))
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            header = list(self.field.vars) + ["s"]
            for c in range(self.rank):
                header += [f"re_u{c + 1}", f"im_u{c + 1}"]
            w.writerow(header)
            for idx, point in enumerate(points):
                row = [f"{x:.17g}" for x in point] + [f"{s:.17g}"]
                for vals in values:
                    row += [f"{vals[idx].real:.17g}", f"{vals[idx].imag:.17g}"]
                w.writerow(row)


def assemble_evaluator(series: ApproxSeries, plan: CutoffPlan) -> AssembledSolution:
    return AssembledSolution(series, plan)
