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


TABLE_SAMPLES = 2**16  # the most samples one temporary of a grid contraction holds


def _largest_factor(exps, k):
    """max prod_v e_v!/(e_v - a_v)! over |a| <= k: the k largest factors."""
    return math.prod(sorted((f for e in exps for f in range(2, e + 1)), reverse=True)[:k])


def grid_contraction_fn(axes, degrees, k_max):
    """contract(p, k), for p of degree at most degrees[v] in variable v and
    k <= k_max, yields batches (live, alphas, values) of the derivatives
    d^alpha p, |alpha| <= k, on the grid axes[0] x ... x axes[n-1]: live
    lists the variables p depends on, highest degree first, alphas[b] is a
    multi-index over live and values[b] its samples, grid axes in live order.

    Sum factorization: p's dense complex coefficient tensor is contracted
    with W_v[alpha_v] one axis at a time, for the stacks W_v[a, j, g] =
    j!/(j-a)! x_g^(j-a) (0 for j < a) built here, in batches of as many
    multi-indices (at least one) as keep each temporary within TABLE_SAMPLES
    samples.  A derivative coefficient that does not convert to a complex
    raises OverflowError; an overflowing sample comes back as inf or NaN."""
    stacks = []
    for ax, d in zip(axes, degrees):
        vander = np.asarray(ax, dtype=float)[:, None] ** np.arange(d + 1)
        w = np.zeros((min(d, k_max) + 1, d + 1, len(vander)), dtype=complex)
        for a in range(len(w)):
            w[a, a:] = (vander[:, : d + 1 - a] * [math.perm(j, a) for j in range(a, d + 1)]).T
        stacks.append(w)

    def contract(p, k):
        deg = max_degrees((p,), len(stacks))
        live = sorted((v for v in range(len(stacks)) if deg[v]), key=lambda v: -deg[v])
        coeffs = np.zeros(tuple(deg[v] + 1 for v in live), dtype=complex)
        for e, c in p.terms.items():
            coeffs[tuple(e[v] for v in live)] = complex(c)
        if not np.abs(coeffs).max() * _largest_factor(deg, k) < 2.0**1000:  # near the float range
            for e, c in p.terms.items():
                complex(c * _largest_factor(e, k))
        ranges = (range(min(deg[v], k) + 1) for v in live)
        alphas = np.array([a for a in itertools.product(*ranges) if sum(a) <= k], dtype=int)
        size = footprint = coeffs.size  # samples per alpha, before and after each contraction
        for v in live:
            size = size // (deg[v] + 1) * stacks[v].shape[2]
            footprint = max(footprint, size, (deg[v] + 1) * stacks[v].shape[2])
        batch = max(1, TABLE_SAMPLES // footprint)
        for at in range(0, len(alphas), batch):
            chunk = alphas[at : at + batch]
            vals = coeffs.reshape(1, -1)
            for i, v in enumerate(live):  # contract the leading degree axis; its grid axis goes last
                vals = vals.reshape(len(vals), deg[v] + 1, -1).transpose(0, 2, 1)
                vals = (vals @ stacks[v][chunk[:, i], : deg[v] + 1]).reshape(len(chunk), -1)
            yield live, chunk, vals

    return contract


def grid_values_fn(axes, degrees):
    """values(p): p's values on the grid axes[0] x ... x axes[n-1] (p of degree
    at most degrees[v] in variable v), grid_contraction_fn's multi-index 0, with
    axes in variable order and of size 1 along a variable p does not contain."""
    contract = grid_contraction_fn(axes, degrees, 0)

    def values(p: Poly) -> np.ndarray:
        ((live, _, vals),) = contract(p, 0)
        vals = np.transpose(vals.reshape([len(axes[v]) for v in live]), np.argsort(live))
        return vals.reshape([len(ax) if v in live else 1 for v, ax in enumerate(axes)])

    return values


def derivative_sups(contract, polys, k):
    """Entry t, for t = 0..k: the largest sampled |d^alpha p| over p in polys
    and alpha of total order t, from the batches of contract(p, k)."""
    table = np.zeros(k + 1)
    for p in polys:
        for _, alphas, vals in contract(p, k):
            np.maximum.at(table, alphas.sum(axis=1), np.abs(vals).max(axis=1))
    return table.tolist()


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
def select_cutoff_plan(series: ApproxSeries, box_halfwidth=1.0, grid: int = 33) -> CutoffPlan:
    """Estimate the derivative-norm constants on the box by dense grid sampling
    (safety factor 2), all derivatives of c_k from one table, and pick the
    smallest powers of two satisfying the selection inequality, nondecreasing."""
    vars = series.field.vars
    n = series.order
    box = tuple((-float(box_halfwidth), float(box_halfwidth)) for _ in vars)
    axes = [np.linspace(lo, hi, grid) for lo, hi in box]
    # derivatives have no larger degree than the coefficients they come from
    contract = grid_contraction_fn(axes, max_degrees((p for c in series.coeffs for p in c), len(vars)), n)
    chi_sups = chi_derivative_sups(n)
    constants, radii, prev = [], [], Fraction(1)
    for k in range(n + 1):
        # weight of the m-th transverse derivative; the same for every alpha
        weights = []
        for m in range(k + 1):
            acc = 0.0
            for q in range(m + 1):
                acc += math.comb(m, q) * chi_sups[q] / math.factorial(k - m + q)
            weights.append(acc)
        # an alpha of order t takes each m <= k - t; rounding is monotonic, so the largest weight
        weights = list(itertools.accumulate(weights, max))
        try:
            table = derivative_sups(contract, series.coeffs[k], k)
        except OverflowError as e:
            raise PlanInfeasible(f"sampled derivative norm overflows: {e}")
        best = 0.0
        for t, sup_poly in enumerate(table):
            if not math.isfinite(sup_poly):  # max() below would drop a NaN
                raise PlanInfeasible("sampled derivative is not finite on the box")
            sup_poly *= math.factorial(k)  # k! c_k = (-i D)^k u0
            if not math.isfinite(sup_poly):
                raise PlanInfeasible("sampled derivative norm is not finite")
            best = max(best, weights[k - t] * sup_poly)
        c_k = 2.0 * best
        constants.append(c_k)
        if c_k:
            need = (2.0**k) * c_k
            r = Fraction(2) ** max(math.ceil(math.log2(need)), 0)
            if r < need:  # guard against log2 rounding
                r *= 2
            prev = max(r, prev)
        radii.append(prev)
    return CutoffPlan(tuple(radii), box, grid, tuple(constants))


class AssembledSolution:
    """Numeric evaluator of the cutoff series and of D_1 applied to it, on a
    tensor grid of the box at one transverse value s."""

    def __init__(self, series: ApproxSeries, plan: CutoffPlan):
        self.series = series
        self.plan = plan
        self.field = series.field
        self.rank = len(series.u0)
        self._vectors = series.coeffs + (series.transverse_tail(),)
        self._degrees = max_degrees((p for c in self._vectors for p in c), len(self.field.vars))
        self._radii = [float(r) for r in plan.radii]
        self._grids = {}  # grid points -> (evaluator, {k: values of vector k})

    def _weighted_sum(self, axes, weights):
        """sum_k weights[k] v_k on the grid axes[0] x ... x axes[N], one array
        per component, for v_0..v_n = c_0..c_n and v_{n+1} = i D c_n.  A term
        of weight 0 is skipped; each v_k is evaluated on a grid once, the
        first time its weight there is nonzero, and kept for later calls."""
        key = tuple(map(tuple, axes))
        if key not in self._grids:
            self._grids[key] = (grid_values_fn(axes, self._degrees), {})
        values, known = self._grids[key]
        out = [np.zeros(tuple(len(ax) for ax in axes), dtype=complex) for _ in range(self.rank)]
        for k, w in enumerate(weights):
            if w:
                if k not in known:
                    known[k] = [values(p) for p in self._vectors[k]]
                for c, v in enumerate(known[k]):
                    out[c] = out[c] + v * w
        return out

    def u(self, axes, s: float):
        """sum_k c_k chi(R_k s) s^k on the grid axes (x_1..x_N, t) at the
        transverse value s; returns one array per component."""
        weights = [chi_derivatives(r * s, 0)[0] * s**k for k, r in enumerate(self._radii)]
        return self._weighted_sum(axes, weights)

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
        return self._weighted_sum(axes, weights)

    def sup_d1u(self, s, grid=17):
        """Sampled sup over the box of the D_1 residual at transverse value s."""
        axes = [np.linspace(lo, hi, grid) for lo, hi in self.plan.box]
        return max(float(np.max(np.abs(v))) for v in self.d1u(axes, float(s)))

    def tail_certificate(self, m_max=2, grid=9, s_samples=21):
        """Check the selection inequality's consequence term by term: the
        sampled sup of each derivative of order <= min(k-1, m_max) of the k-th
        cutoff term is at most 2^{-k}.  The sup of d^alpha c_k d^m_s (chi(R_k s) s^k)
        factors into a grid sup, every alpha's from one derivative table per k,
        times an s-sup, taken once per (k, m) over s_samples points of the
        term's support |s| <= 1/R_k."""
        axes = [np.linspace(lo, hi, grid) for lo, hi in self.plan.box]
        contract = grid_contraction_fn(axes, self._degrees, m_max)
        rows = []
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
                        acc += math.comb(m, q) * (rk**q) * dchi[q] * math.perm(k, m - q) * s ** (k - m + q)
                    s_sups[m] = max(s_sups[m], abs(acc))
            # an alpha of order t takes each m <= budget - t; the largest s-sup, as in the plan
            s_sups = list(itertools.accumulate(s_sups, max))
            table = derivative_sups(contract, self.series.coeffs[k], budget)
            worst = max((sup_poly * s_sups[budget - t] for t, sup_poly in enumerate(table)), default=0.0)
            rows.append((k, worst, 2.0 ** (-k)))
        return not any(worst > bound for _, worst, bound in rows), rows

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
