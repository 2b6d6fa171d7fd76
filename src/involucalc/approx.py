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
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import GaussRat, Poly


class ApproxError(Exception):
    pass


class PlanInfeasible(ApproxError):
    pass


def field_vars(n_x: int) -> tuple:
    return tuple(f"x{j}" for j in range(1, n_x + 1)) + ("t",)


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
        lhs = series.coeffs[l + 1][0]
        fact = 1
        for m in range(1, l + 1):
            fact *= m
        lhs = lhs * fact  # l-th s-derivative of the profile at 0
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


def chi_prime_float(u):
    u = np.asarray(u, dtype=float)
    au = np.abs(u)
    out = np.zeros_like(au)
    mid = (au > 0.5) & (au < 1.0)
    if np.any(mid):
        v1 = 2.0 - 2.0 * au[mid]
        v2 = 2.0 * au[mid] - 1.0
        f1 = np.exp(-1.0 / v1)
        f2 = np.exp(-1.0 / v2)
        d1 = f1 * (-2.0 / v1**2)
        d2 = f2 * (2.0 / v2**2)
        out[mid] = (d1 * f2 - f1 * d2) / (f1 + f2) ** 2
    return out * np.sign(u)


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
        fact = 1.0
        vals = []
        for q in range(n):
            vals.append(chi[q] * fact)
            fact *= q + 1
    return [v * (sign**q) for q, v in enumerate(vals)]


@functools.lru_cache(maxsize=None)
def chi_derivative_sups(order: int, samples: int = 257) -> tuple:
    """Sampled suprema of |chi^(q)| for q = 0..order (attained in the
    transition zone), from one Taylor expansion per sample point.  The
    recurrences are truncation-stable, so entry q does not depend on order."""
    us = np.linspace(0.5, 1.0, samples)[1:-1]
    rows = [chi_derivatives(float(u), order) for u in us]
    return (1.0,) + tuple(max(abs(r[q]) for r in rows) for q in range(1, order + 1))


def chi_derivative_sup(order: int, samples: int = 257) -> float:
    """Sampled supremum of |chi^(order)|."""
    return chi_derivative_sups(order, samples)[order]


# -- numeric evaluation of the exact polynomials --------------------------------


def poly_complex_fn(p: Poly):
    """Evaluator over numpy arrays, one array per variable in order."""
    terms = [(e, complex(c)) for e, c in p.terms.items()]

    def f(*arrays):
        shape = np.broadcast(*arrays).shape if arrays else ()
        powers = [{} for _ in arrays]  # arr**k, computed once per call
        total = None
        for e, c in terms:
            term = np.full(shape, c)
            for arr, k, cache in zip(arrays, e, powers):
                if k:
                    if k not in cache:
                        cache[k] = arr**k
                    term = term * cache[k]
            total = term if total is None else total + term
        if total is None:
            return np.zeros(shape, dtype=complex)
        return total

    return f


def max_degrees(polys, n_vars: int) -> tuple:
    """The largest exponent of each of the n_vars variables over polys."""
    exps = [e for p in polys for e in p.terms]
    return tuple(max((e[v] for e in exps), default=0) for v in range(n_vars))


def grid_sup_fn(axes, degrees):
    """max |p| over the tensor grid axes[0] x ... x axes[n-1], for a
    polynomial p of degree at most degrees[v] in variable v.

    Sum factorization: p's dense complex coefficient tensor is contracted
    with one real Vandermonde matrix per axis, one axis at a time, so no
    meshgrid array is filled per term.  The matrices are built once, here;
    each call evaluates one polynomial, cut to its own degrees.  A variable
    p does not depend on is not contracted, since the sup is the same along
    its axis; the others are contracted from the highest degree down, so the
    full grid is reached by the cheapest contraction.  A coefficient that
    does not convert to a complex raises OverflowError; an overflowing sample
    comes back as an inf or NaN sup (np.max propagates NaN)."""
    vander = [
        np.asarray(ax, dtype=float)[:, None] ** np.arange(d + 1)
        for ax, d in zip(axes, degrees)
    ]

    def sup(p: Poly) -> float:
        deg = max_degrees((p,), len(vander))
        live = sorted((v for v in range(len(vander)) if deg[v]), key=lambda v: -deg[v])
        vals = np.zeros(tuple(deg[v] + 1 for v in live), dtype=complex)
        for e, c in p.terms.items():
            vals[tuple(e[v] for v in live)] = complex(c)
        for v in live:  # contract the leading degree axis; its grid axis goes last
            vals = np.tensordot(vals, vander[v][:, : deg[v] + 1], axes=(0, 1))
        return float(np.max(np.abs(vals)))

    return sup


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
    grid_sup = grid_sup_fn(axes, max_degrees((p for c in series.coeffs for p in c), len(vars)))
    chi_sups = chi_derivative_sups(n)
    constants = []
    radii = []
    prev = Fraction(1)
    for k in range(n + 1):
        # k! c_k = (-i D)^k u0
        fact = 1.0
        for m in range(1, k + 1):
            fact *= m
        # weight of the m-th transverse derivative; the same for every alpha
        weights = []
        for m in range(k + 1):
            acc = 0.0
            for q in range(m + 1):
                dfac = 1.0
                for i in range(1, k - m + q + 1):
                    dfac *= i
                acc += math.comb(m, q) * chi_sups[q] / dfac
            weights.append(acc)
        best = 0.0
        for alpha_l, comps in _multiindex_derivatives(series.coeffs[k], vars, k):
            m_max = k - sum(alpha_l)
            sup_poly = 0.0
            try:
                for q in comps:
                    if q.is_zero():  # its samples are all 0, below any sup
                        continue
                    x = grid_sup(q)
                    if not math.isfinite(x):  # max() below would drop a NaN
                        raise PlanInfeasible("sampled derivative is not finite on the box")
                    sup_poly = max(sup_poly, x)
            except OverflowError as e:
                raise PlanInfeasible(f"sampled derivative norm overflows: {e}")
            sup_poly *= fact
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
    """All derivative multi-indices over the space variables with total
    order <= k (the transverse order m is accounted separately)."""
    out = []
    for total in range(k + 1):
        for combo in _compositions(total, n_vars):
            out.append(combo)
    return out


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


def _compositions(total, parts):
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


class AssembledSolution:
    """Numeric evaluator of the cutoff series and of D_1 applied to it."""

    def __init__(self, series: ApproxSeries, plan: CutoffPlan):
        self.series = series
        self.plan = plan
        self.field = series.field
        self.rank = len(series.u0)
        n = series.order
        self._coeff_fns = [
            [poly_complex_fn(p) for p in series.coeffs[k]] for k in range(n + 1)
        ]
        self._tail_fns = [poly_complex_fn(p) for p in series.transverse_tail()]
        self._radii = [float(r) for r in plan.radii]

    def u(self, coords, s):
        """coords: arrays (x_1..x_N, t); s: array; returns list per component."""
        s = np.asarray(s, dtype=float)
        out = [np.zeros(np.broadcast(*coords, s).shape, dtype=complex) for _ in range(self.rank)]
        for k in range(self.series.order + 1):
            damp = chi_float(self._radii[k] * s) * s**k
            for c in range(self.rank):
                out[c] = out[c] + self._coeff_fns[k][c](*coords) * damp
        return out

    def d1u(self, coords, s):
        """(d/ds + i D) applied to the assembled sum.

        Uses the telescoped form

            sum_k c_k R_k chi'(R_k s) s^k
            + sum_{k<n} (k+1) c_{k+1} (chi(R_{k+1} s) - chi(R_k s)) s^k
            + (i D c_n) chi(R_n s) s^n,

        which is algebraically identical to differentiating term by term but
        avoids the catastrophic cancellation of the raw sum: on the common
        plateau every cutoff factor is exactly 1 and only the tail remains."""
        s = np.asarray(s, dtype=float)
        shape = np.broadcast(*coords, s).shape
        out = [np.zeros(shape, dtype=complex) for _ in range(self.rank)]
        n = self.series.order
        for k in range(n + 1):
            rk = self._radii[k]
            prime = rk * chi_prime_float(rk * s) * s**k
            if np.any(prime):
                for c in range(self.rank):
                    out[c] = out[c] + self._coeff_fns[k][c](*coords) * prime
            if k < n:
                diff = (chi_float(self._radii[k + 1] * s) - chi_float(rk * s)) * (
                    (k + 1) * s**k
                )
                if np.any(diff):
                    for c in range(self.rank):
                        out[c] = out[c] + self._coeff_fns[k + 1][c](*coords) * diff
        tailmask = chi_float(self._radii[n] * s) * s**n
        for c in range(self.rank):
            out[c] = out[c] + self._tail_fns[c](*coords) * tailmask
        return out

    def sup_d1u(self, s, grid=17):
        """Sampled sup over the box of the D_1 residual at transverse value s."""
        axes = [np.linspace(lo, hi, grid) for lo, hi in self.plan.box]
        mesh = np.meshgrid(*axes, indexing="ij")
        vals = self.d1u(mesh, np.full(mesh[0].shape, float(s)))
        return max(float(np.max(np.abs(v))) for v in vals)

    def tail_certificate(self, m_max=2, grid=9, s_samples=21):
        """Check the selection inequality's consequence term by term: the
        sampled sup of each derivative of order <= min(k-1, m_max) of the k-th
        cutoff term is at most 2^{-k}.  The sup of a derivative
        d^alpha c_k d^m_s (chi(R_k s) s^k) factors into a grid sup, taken once
        per (k, alpha), times an s-sup, taken once per (k, m)."""
        vars = self.field.vars
        coeffs = self.series.coeffs
        axes = [np.linspace(lo, hi, grid) for lo, hi in self.plan.box]
        grid_sup = grid_sup_fn(axes, max_degrees((p for c in coeffs for p in c), len(vars)))
        svals = np.linspace(-1.0, 1.0, s_samples).tolist()
        rows = []
        ok = True
        for k in range(1, self.series.order + 1):
            rk = self._radii[k]
            budget = min(k - 1, m_max)
            # s_sups[m]: sampled sup of the m-th s-derivative of chi(R_k s) s^k
            s_sups = [0.0] * (budget + 1)
            for s in svals:
                dchi = chi_derivatives(rk * s, budget)
                for m in range(budget + 1):
                    acc = 0.0
                    for q in range(m + 1):
                        power = k - m + q
                        dfac = 1.0
                        for i in range(power + 1, k + 1):
                            dfac *= i
                        acc += math.comb(m, q) * (rk**q) * dchi[q] * dfac * s**power
                    s_sups[m] = max(s_sups[m], abs(acc))
            worst = 0.0
            for alpha, comps in _multiindex_derivatives(coeffs[k], vars, budget):
                sup_poly = max((grid_sup(q) for q in comps), default=0.0)
                for m in range(budget - sum(alpha) + 1):
                    worst = max(worst, sup_poly * s_sups[m])
            bound = 2.0 ** (-k)
            rows.append((k, worst, bound))
            if worst > bound:
                ok = False
        return ok, rows

    def write_csv(self, path, coords, s):
        """Samples as rows: coordinates, s, then Re/Im per component."""
        values = self.u(coords, s)
        flat_coords = [np.asarray(c, dtype=float).ravel() for c in coords]
        flat_s = np.broadcast_to(np.asarray(s, dtype=float), np.broadcast(*coords, s).shape).ravel()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            header = list(self.field.vars) + ["s"]
            for c in range(self.rank):
                header += [f"re_u{c + 1}", f"im_u{c + 1}"]
            w.writerow(header)
            for idx in range(flat_s.size):
                row = [f"{c[idx]:.17g}" for c in flat_coords] + [f"{flat_s[idx]:.17g}"]
                for c in range(self.rank):
                    v = values[c].ravel()[idx]
                    row += [f"{v.real:.17g}", f"{v.imag:.17g}"]
                w.writerow(row)


def assemble_evaluator(series: ApproxSeries, plan: CutoffPlan) -> AssembledSolution:
    return AssembledSolution(series, plan)
