import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from involucalc import approx
from involucalc.algebra import GaussRat, Poly
from involucalc.approx import (
    ApproxError,
    CutoffPlan,
    NormalFormField,
    assemble_evaluator,
    chi_derivative_sups,
    chi_derivatives,
    chi_float,
    derivative_sups,
    field_vars,
    grid_contraction_fn,
    grid_values_fn,
    max_degrees,
    select_cutoff_plan,
    series_coefficients,
    shift_jet_check,
)
from conftest import rand_poly


def mizohata_field():
    vars = field_vars(1)
    return NormalFormField(1, (-Poly.var(vars, "t"),))


def V(name, power=1):
    vars = field_vars(1)
    return Poly.var(vars, name, power)


def poly_complex_fn(p: Poly):
    """Oracle evaluator over numpy arrays, one array per variable in order:
    every term of p filled into an array of the broadcast shape, in term
    order, with each power recomputed per term."""

    def f(*arrays):
        total = np.zeros(np.broadcast(*arrays).shape, dtype=complex)
        for e, c in p.terms.items():
            term = np.full(total.shape, complex(c))
            for arr, k in zip(arrays, e):
                if k:
                    term = term * arr**k
            total = total + term
        return total

    return f


def _derivative_multiindices(n_vars, k):
    """Oracle: all derivative multi-indices over n_vars variables with total
    order <= k, by total order, then lexicographically: the n_vars - 1 bars
    of each stars-and-bars arrangement, taken in lexicographic order."""
    for total in range(k + 1):
        for bars in itertools.combinations(range(total + n_vars - 1), n_vars - 1):
            edges = (-1,) + bars + (total + n_vars - 1,)
            yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def _multiindex_derivatives(polys, vars, k):
    """Oracle: (alpha, derivatives of polys by alpha) for every multi-index
    of _derivative_multiindices(len(vars), k), in that order.  Each entry is
    one diff of the entry for alpha with its last nonzero index lowered, so
    the variables are differentiated in order, vars[0] first."""
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


# -- exact series ----------------------------------------------------------------


def test_series_mizohata_linear_data():
    f = mizohata_field()
    series = series_coefficients(f, (V("x1"),), 3)
    vars = f.vars
    assert series.coeffs[0][0] == V("x1")
    assert series.coeffs[1][0] == -V("t")
    assert series.coeffs[2][0] == Poly.const(vars, GaussRat(0, Fraction(1, 2)))
    assert series.coeffs[3][0].is_zero()


def test_series_constant_data_is_stationary():
    f = mizohata_field()
    series = series_coefficients(f, (Poly.one(f.vars),), 4)
    for k in range(1, 5):
        assert all(p.is_zero() for p in series.coeffs[k])


def test_series_nilpotent_matrix_part():
    vars = field_vars(1)
    zero = Poly.zero(vars)
    one = Poly.one(vars)
    f = NormalFormField(1, (zero,), a_matrix=((zero, one), (zero, zero)))
    e1 = (one, zero)
    e2 = (zero, one)
    s1 = series_coefficients(f, e1, 2)
    assert all(p.is_zero() for p in s1.coeffs[1])
    s2 = series_coefficients(f, e2, 2)
    assert s2.coeffs[1][0] == Poly.const(vars, GaussRat(0, -1))
    assert s2.coeffs[1][1].is_zero()
    assert all(p.is_zero() for p in s2.coeffs[2])


def test_series_recursion_residuals_vanish():
    rng = random.Random(5)
    vars = field_vars(2)
    b = tuple(rand_poly(rng, vars, max_degree=2, n_terms=2, real=True) for _ in range(2))
    f = NormalFormField(2, b)
    u0 = (rand_poly(rng, vars, max_degree=2, n_terms=3),)
    series = series_coefficients(f, u0, 5)
    for res in series.recursion_residuals():
        assert all(p.is_zero() for p in res)


# -- shift profile identity ---------------------------------------------------------


def test_shift_jets_mizohata():
    f = mizohata_field()
    report = shift_jet_check(f, 1, 8)
    assert report.ok
    series = series_coefficients(f, (V("x1"),), 2)
    # profile at s = 0 equals the drift coefficient
    assert series.coeffs[1][0] == f.b[0]
    # first transverse derivative is i/2
    assert series.coeffs[2][0] == Poly.const(f.vars, GaussRat(0, Fraction(1, 2)))


def test_shift_jets_random_quadratic():
    rng = random.Random(12)
    vars = field_vars(2)
    b = tuple(
        rand_poly(rng, vars, max_degree=2, n_terms=3, real=True) for _ in range(2)
    )
    f = NormalFormField(2, b)
    for j in (1, 2):
        assert shift_jet_check(f, j, 8).ok


def test_shift_jets_time_independent_drift_stays_real():
    vars = field_vars(1)
    f = NormalFormField(1, (Poly.var(vars, "x1", 2),))
    series = series_coefficients(f, (V("x1"),), 6)
    # for t-independent drift every profile jet is a real polynomial
    for k in range(1, 7):
        assert series.coeffs[k][0].is_real()


def test_shift_jets_reject_matrix_case():
    vars = field_vars(1)
    zero = Poly.zero(vars)
    f = NormalFormField(1, (zero,), a_matrix=((zero, zero), (zero, zero)))
    with pytest.raises(ApproxError):
        shift_jet_check(f, 1, 2)


# -- the cutoff ------------------------------------------------------------------------


def test_chi_plateau_and_support():
    u = np.array([0.0, 0.25, 0.5, -0.5, 0.75, 1.0, 1.5, -2.0])
    vals = chi_float(u)
    assert vals[0] == vals[1] == vals[2] == vals[3] == 1.0
    assert 0.0 < vals[4] < 1.0
    assert vals[5] == vals[6] == vals[7] == 0.0
    assert np.allclose(chi_float(u), chi_float(-u))


def test_chi_derivatives_match_finite_differences():
    h = 1e-6
    for u0 in (0.6, 0.75, 0.9):
        d = chi_derivatives(u0, 2)
        fd1 = (chi_float(u0 + h) - chi_float(u0 - h)) / (2 * h)
        fd2 = (chi_float(u0 + h) - 2 * chi_float(u0) + chi_float(u0 - h)) / h**2
        assert abs(d[1] - fd1) < 1e-5 * max(1.0, abs(d[1]))
        assert abs(d[2] - fd2) < 1e-3 * max(1.0, abs(d[2]))


def test_chi_prime_is_odd():
    for u in np.linspace(-1.2, 1.2, 41).tolist():
        assert chi_derivatives(u, 1)[1] == -chi_derivatives(-u, 1)[1]


def test_chi_derivative_sup_grows():
    sups = chi_derivative_sups(4)
    assert sups[1] > 1.0
    assert sups[4] > sups[1]


def test_chi_derivative_sups_match_per_order_loop():
    # oracle: one Taylor expansion per sample point and per order
    us = np.linspace(0.5, 1.0, 257)[1:-1]
    loop = [1.0] + [
        max(abs(chi_derivatives(float(u), q)[q]) for u in us) for q in range(1, 9)
    ]
    assert chi_derivative_sups(8) == tuple(loop)


@pytest.mark.parametrize("nx", [1, 2])
def test_grid_values_match_term_by_term_evaluation(nx):
    # oracle: every term of p filled into a meshgrid array; the values come
    # back in variable order, of size 1 along a variable p does not contain
    rng = random.Random(11 + nx)
    vars = field_vars(nx)
    axes = [np.linspace(-1.0, 1.0, 7 + v) for v in range(len(vars))]
    mesh = np.meshgrid(*axes, indexing="ij")
    polys = [rand_poly(rng, vars, max_degree=5, n_terms=8) for _ in range(20)]
    polys += [Poly.zero(vars), Poly.one(vars), Poly.var(vars, "t", 3) - Poly.var(vars, "x1")]
    values = grid_values_fn(axes, max_degrees(polys, len(vars)))
    for p in polys:
        got = values(p)
        deg = max_degrees((p,), len(vars))
        assert got.shape == tuple(len(ax) if d else 1 for ax, d in zip(axes, deg))
        want = poly_complex_fn(p)(*mesh)
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_multiindex_derivatives_match_direct_differentiation():
    # oracle: each multi-index differentiated from the polynomial itself,
    # vars[0] first; term order is compared too, since it fixes the order
    # in which the sampled values are summed
    rng = random.Random(5)
    vars = field_vars(2)
    polys = tuple(rand_poly(rng, vars, max_degree=6, n_terms=10) for _ in range(2))
    got = list(_multiindex_derivatives(polys, vars, 4))
    assert [alpha for alpha, _ in got] == list(_derivative_multiindices(len(vars), 4))
    # the order: by total order, then lexicographic
    for n_vars in (1, 2, 3, 4):
        brute = [a for a in itertools.product(range(5), repeat=n_vars) if sum(a) <= 4]
        want = sorted(brute, key=lambda a: (sum(a), a))
        assert list(_derivative_multiindices(n_vars, 4)) == want
    for alpha, comps in got:
        for p, q in zip(polys, comps):
            for vi, times in enumerate(alpha):
                for _ in range(times):
                    p = p.diff(vars[vi])
            assert q == p
            assert list(q.terms) == list(p.terms)


@pytest.mark.parametrize("nx", [1, 2, 3])
@pytest.mark.parametrize("grid", [1, 6, 7])
def test_grid_sup_matches_poly_complex_fn(nx, grid):
    # oracle: every term of p filled into a meshgrid array by poly_complex_fn
    rng = random.Random(10 * nx + grid)
    vars = field_vars(nx)
    axes = [np.linspace(-1.7, 1.7, grid) for _ in vars]
    mesh = np.meshgrid(*axes, indexing="ij")
    polys = [rand_poly(rng, vars, max_degree=6, n_terms=8) for _ in range(12)]
    # x1 has degree 0 in every polynomial, t in some of them
    polys = [
        Poly(vars, {(0,) + e[1:-1] + (e[-1] * (i % 2),): c for e, c in p.terms.items()})
        for i, p in enumerate(polys)
    ]
    degrees = max_degrees(polys, len(vars))
    assert degrees[0] == 0
    values = grid_values_fn(axes, degrees)
    for p in polys + [Poly.zero(vars), Poly.one(vars)]:
        want = float(np.max(np.abs(poly_complex_fn(p)(*mesh))))
        assert abs(float(np.max(np.abs(values(p)))) - want) <= 1e-12 * want


@pytest.mark.parametrize("cap", [None, 1, 100], ids=["cap-default", "cap-1", "cap-100"])
@pytest.mark.parametrize("nx", [1, 2, 3])
@pytest.mark.parametrize("grid", [1, 5])
def test_derivative_table_matches_diff_and_grid_values(nx, grid, cap, monkeypatch):
    # oracle: every multi-index derivative by Poly.diff, past the degree too
    # (where it is 0), sampled by grid_values_fn; x1 has degree 0 in every
    # polynomial and t in some.  A lowered cap splits one polynomial's
    # multi-indices over several batches.  The table rounds j!/(j-a)! with
    # the power of x rather than with the coefficient, so the last bits may
    # differ
    if cap is not None:
        monkeypatch.setattr(approx, "TABLE_SAMPLES", cap)
    rng = random.Random(100 * nx + grid)
    vars = field_vars(nx)
    axes = [np.linspace(-1.6, 1.6, grid) for _ in vars]
    polys = [rand_poly(rng, vars, max_degree=6, n_terms=8) for _ in range(6)]
    polys = [
        Poly(vars, {(0,) + e[1:-1] + (e[-1] * (i % 2),): c for e, c in p.terms.items()})
        for i, p in enumerate(polys)
    ]
    polys += [Poly.zero(vars), Poly.one(vars), Poly.var(vars, "t", 2) * 3]
    degrees = max_degrees(polys, len(vars))
    assert degrees[0] == 0
    contract = grid_contraction_fn(axes, degrees, 5)
    values = grid_values_fn(axes, degrees)
    batches = 0
    for k in (0, 2, 5):
        for p in polys:
            got = derivative_sups(contract, [p], k)
            want = [0.0] * (k + 1)
            for alpha, (q,) in _multiindex_derivatives([p], vars, k):
                want[sum(alpha)] = max(want[sum(alpha)], float(np.max(np.abs(values(q)))))
            assert len(got) == k + 1
            assert all(abs(g - w) <= 1e-14 * w for g, w in zip(got, want)), (p, k, got, want)
            batches = max(batches, len(list(contract(p, k))))
        assert derivative_sups(contract, polys, k) == [
            max(col) for col in zip(*(derivative_sups(contract, [p], k) for p in polys))
        ]
    assert batches > 1 if cap == 1 else batches >= 1


def test_derivative_table_batches_hold_at_most_the_cap():
    # the largest input the grammar admits for [approx] nx 3 at order 16:
    # every batch of every coefficient of the plan stays within the cap
    vars = field_vars(3)
    t = Poly.var(vars, "t")
    u0 = Poly.var(vars, "x1", 5) + Poly.var(vars, "x2") + Poly.var(vars, "x3", 3)
    series = series_coefficients(NormalFormField(3, (-t, -t, -t)), (u0,), 16)
    axes = [np.linspace(-1.0, 1.0, 38) for _ in vars]
    contract = grid_contraction_fn(axes, max_degrees((p for c in series.coeffs for p in c), 4), 16)
    sizes = [vals.size for k, c in enumerate(series.coeffs) for p in c for _, _, vals in contract(p, k)]
    assert max(sizes) <= approx.TABLE_SAMPLES
    assert len(sizes) > len(series.coeffs)


# -- plan selection ----------------------------------------------------------------------


def reference_plan(series, box_halfwidth, grid):
    """Oracle: the cutoff plan computed in place, every derivative taken from
    c_k itself and every weight and polynomial evaluated per multi-index."""
    vars = series.field.vars
    n = series.order
    box = tuple((-float(box_halfwidth), float(box_halfwidth)) for _ in vars)
    mesh = np.meshgrid(*[np.linspace(lo, hi, grid) for lo, hi in box], indexing="ij")
    us = np.linspace(0.5, 1.0, 257)[1:-1]
    chi_sups = [1.0] + [
        max(abs(chi_derivatives(float(u), q)[q]) for u in us) for q in range(1, n + 1)
    ]
    constants, radii, prev = [], [], Fraction(1)
    for k in range(n + 1):
        fact = 1.0
        for m in range(1, k + 1):
            fact *= m
        best = 0.0
        for alpha in _derivative_multiindices(len(vars), k):
            sup_poly = 0.0
            for p in series.coeffs[k]:
                for vi, times in enumerate(alpha):
                    for _ in range(times):
                        p = p.diff(vars[vi])
                vals = poly_complex_fn(p)(*mesh)
                sup_poly = max(sup_poly, float(np.max(np.abs(vals))))
            sup_poly *= fact
            for m in range(k - sum(alpha) + 1):
                acc = 0.0
                for q in range(m + 1):
                    dfac = 1.0
                    for i in range(1, k - m + q + 1):
                        dfac *= i
                    acc += math.comb(m, q) * chi_sups[q] / dfac
                best = max(best, acc * sup_poly)
        c_k = 2.0 * best
        constants.append(c_k)
        r = prev
        if c_k:
            need = (2.0**k) * c_k
            r = Fraction(2) ** max(math.ceil(math.log2(need)), 0)
            if r < need:
                r = r * 2
        r = max(r, prev)
        radii.append(r)
        prev = r
    return CutoffPlan(tuple(radii), box, grid, tuple(constants))


@pytest.mark.parametrize("nx", [1, 2, 3])
@pytest.mark.parametrize("box", [1.0, 0.5])
def test_plan_matches_reference(nx, box):
    grid = 9 if nx < 3 else 5
    vars = field_vars(nx)
    t = Poly.var(vars, "t")
    field = NormalFormField(nx, tuple(-t for _ in range(nx)))
    u0 = Poly.var(vars, "x1") ** 5 * Fraction(3, 7) + Poly.var(vars, f"x{nx}") * 2
    series = series_coefficients(field, (u0,), 8)
    assert select_cutoff_plan(series, box, grid) == reference_plan(series, box, grid)


def test_plan_satisfies_selection_inequality():
    f = mizohata_field()
    series = series_coefficients(f, (V("x1", 5),), 8)
    plan = select_cutoff_plan(series, box_halfwidth=1.0, grid=17)
    assert len(plan.radii) == 9
    for k, (c, r) in enumerate(zip(plan.constants, plan.radii)):
        assert r >= plan.radii[max(k - 1, 0)]
        if c:
            assert c / float(r) <= 2.0 ** (-k) * (1 + 1e-12)


def test_plan_trivial_for_terminating_series():
    f = mizohata_field()
    series = series_coefficients(f, (V("x1"),), 4)
    plan = select_cutoff_plan(series, box_halfwidth=1.0, grid=9)
    # coefficients vanish from order 3 on, so the scales stop growing there
    assert plan.radii[4] == plan.radii[3]


# -- assembled evaluator ---------------------------------------------------------------------


def test_evaluator_restores_data_at_s_zero():
    f = mizohata_field()
    series = series_coefficients(f, (V("x1", 2),), 4)
    plan = select_cutoff_plan(series, grid=9)
    ev = assemble_evaluator(series, plan)
    xs = np.linspace(-1, 1, 7)
    ts = np.linspace(-1, 1, 7)
    X, T = np.meshgrid(xs, ts, indexing="ij")
    (vals,) = ev.u((xs, ts), 0.0)
    assert np.allclose(vals, X**2)


def test_evaluator_constant_data():
    f = mizohata_field()
    series = series_coefficients(f, (Poly.one(f.vars),), 3)
    plan = select_cutoff_plan(series, grid=9)
    ev = assemble_evaluator(series, plan)
    (val,) = ev.u(([0.3], [0.1]), 0.0)
    assert val.shape == (1, 1)
    assert abs(val[0, 0] - 1.0) < 1e-15


def test_d1u_on_plateau_matches_exact_tail():
    f = mizohata_field()
    series = series_coefficients(f, (V("x1", 5),), 6)
    plan = select_cutoff_plan(series, grid=9)
    ev = assemble_evaluator(series, plan)
    s = plan.plateau * 0.5
    x, t = np.array([0.7, 0.2]), np.array([-0.4, 0.9, 1.0])
    (got,) = ev.d1u((x, t), s)
    tail = poly_complex_fn(series.transverse_tail()[0])(x[:, None], t[None, :]) * s**6
    assert np.max(np.abs(got - tail)) <= 1e-12 * max(1.0, np.max(np.abs(tail)))


def test_d1u_vanishes_identically_for_exact_solution():
    # data x with the Mizohata drift closes at order 2: the sum is an exact
    # solution and the residual is exactly zero inside the common plateau
    f = mizohata_field()
    series = series_coefficients(f, (V("x1"),), 3)
    plan = select_cutoff_plan(series, grid=9)
    ev = assemble_evaluator(series, plan)
    for s in plan.plateau * np.array([0.5, 0.25, 0.125]):
        (vals,) = ev.d1u(([0.3], [0.9]), s)
        assert np.max(np.abs(vals)) == 0.0


def test_sampled_slope_of_d1u_is_series_order():
    f = mizohata_field()
    n = 6
    series = series_coefficients(f, (V("x1", 5),), n)
    plan = select_cutoff_plan(series, grid=9)
    ev = assemble_evaluator(series, plan)
    svals = [plan.plateau * 2.0**-j for j in range(1, 8)]
    sups = [ev.sup_d1u(s, grid=7) for s in svals]
    assert all(v > 0 for v in sups)
    logs = np.log(sups)
    logx = np.log(svals)
    slope = np.polyfit(logx, logs, 1)[0]
    assert abs(slope - n) < 1e-6


def test_evaluator_evaluates_each_vector_once_per_grid(monkeypatch):
    # the seven residual sups of the approx report evaluate only the tail,
    # once; u and d1u on the same grid reuse what is evaluated there, with
    # the values of a fresh evaluator
    f = mizohata_field()
    series = series_coefficients(f, (V("x1", 5),), 6)
    plan = select_cutoff_plan(series, grid=9)
    ev, fresh = assemble_evaluator(series, plan), assemble_evaluator(series, plan)
    evaluated = []
    build = approx.grid_values_fn

    def counting(axes, degrees):
        values = build(axes, degrees)
        return lambda p: evaluated.append(p) or values(p)

    monkeypatch.setattr(approx, "grid_values_fn", counting)
    svals = [plan.plateau * 2.0**-j for j in range(1, 8)]
    sups = [ev.sup_d1u(s, grid=9) for s in svals]
    assert evaluated == list(series.transverse_tail())
    axes = [np.linspace(lo, hi, 9) for lo, hi in plan.box]
    s_off = 0.75 / float(plan.radii[3])  # off the plateau
    got = [getattr(ev, call)(axes, s_off)[0] for call in ("u", "d1u", "u", "d1u")]
    assert len(evaluated) == len(set(evaluated)) <= series.order + 2
    assert len(evaluated) > 3
    monkeypatch.undo()
    assert sups == [fresh.sup_d1u(s, grid=9) for s in svals]
    want = [getattr(fresh, call)(axes, s_off)[0] for call in ("u", "d1u", "u", "d1u")]
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_tail_certificate_passes():
    f = mizohata_field()
    series = series_coefficients(f, (V("x1"),), 4)
    plan = select_cutoff_plan(series, grid=9)
    ev = assemble_evaluator(series, plan)
    ok, rows = ev.tail_certificate(m_max=2, grid=5, s_samples=11)
    assert ok
    assert all(w <= bound for _, w, bound in rows)


def reference_tail_rows(ev, m_max, grid, s_samples):
    """Oracle: the tail certificate's rows with every derivative taken from
    c_k itself and evaluated on the meshgrid once per (alpha, m, s), for s
    on the support |s| <= 1/R_k of the k-th term."""
    vars = ev.field.vars
    mesh = np.meshgrid(*[np.linspace(lo, hi, grid) for lo, hi in ev.plan.box], indexing="ij")
    rows = []
    for k in range(1, ev.series.order + 1):
        rk = float(ev.plan.radii[k])
        budget = min(k - 1, m_max)
        sups = []
        for alpha in _derivative_multiindices(len(vars), budget):
            for m in range(budget - sum(alpha) + 1):
                sup_val = 0.0
                comps = []
                for p in ev.series.coeffs[k]:
                    for vi, times in enumerate(alpha):
                        for _ in range(times):
                            p = p.diff(vars[vi])
                    comps.append(poly_complex_fn(p))
                for s in np.linspace(-1.0 / rk, 1.0 / rk, s_samples):
                    dchi = chi_derivatives(rk * float(s), m)
                    acc = 0.0
                    for q in range(m + 1):
                        power = k - m + q
                        acc += (
                            math.comb(m, q) * rk**q * dchi[q]
                            * math.factorial(k) / math.factorial(power) * float(s) ** power
                        )
                    if acc:
                        for fn in comps:
                            vals = fn(*mesh)
                            sup_val = max(sup_val, float(np.max(np.abs(vals))) * abs(acc))
                sups.append(sup_val)
        rows.append((k, max(sups), 2.0 ** (-k)))
    return rows


@pytest.mark.parametrize("power", [1, 5])
def test_tail_certificate_matches_reference(power):
    f = mizohata_field()
    series = series_coefficients(f, (V("x1", power),), 4)
    plan = select_cutoff_plan(series, grid=9)
    ev = assemble_evaluator(series, plan)
    got = ev.tail_certificate(m_max=2, grid=5, s_samples=21)[1]
    want = reference_tail_rows(ev, 2, 5, 21)
    assert [(k, b) for k, _, b in got] == [(k, b) for k, _, b in want]
    assert any(w for _, w, _ in want)
    for (_, w1, _), (_, w2, _) in zip(got, want):
        assert abs(w1 - w2) <= 1e-12 * w2


@pytest.mark.parametrize(
    "nx, power, order", [(1, 5, 6), (1, 5, 8), (2, 5, 6), (2, 5, 8), (1, 1, 8)]
)
def test_tail_certificate_samples_each_support(nx, power, order):
    # R_k grows past s_samples / 2, so samples of [-1, 1] would leave only
    # s = 0, where every row is 0, inside the support of the k-th cutoff
    vars = field_vars(nx)
    t = Poly.var(vars, "t")
    field = NormalFormField(nx, tuple(-t for _ in range(nx)))
    series = series_coefficients(field, (Poly.var(vars, "x1", power),), order)
    ev = assemble_evaluator(series, select_cutoff_plan(series, grid=9))
    ok, rows = ev.tail_certificate(m_max=2, grid=5, s_samples=11)
    assert ok
    assert any(w for _, w, _ in rows)


def test_csv_export(tmp_path):
    f = mizohata_field()
    series = series_coefficients(f, (V("x1"),), 2)
    plan = select_cutoff_plan(series, grid=9)
    ev = assemble_evaluator(series, plan)
    xs = np.linspace(-1, 1, 3)
    path = tmp_path / "samples.csv"
    ev.write_csv(path, (xs, xs), 0.25)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x1,t,s,re_u1,im_u1"
    assert len(lines) == 10
    # row order: the grid in meshgrid "ij" order, x1 slowest
    assert [tuple(map(float, l.split(",")[:3])) for l in lines[1:4]] == [
        (-1.0, -1.0, 0.25), (-1.0, 0.0, 0.25), (-1.0, 1.0, 0.25)
    ]


def test_plan_overflow_names_the_derivative_coefficient_conversion():
    # d/dx1 of c_1 = 5*10^307 x1^4 t has the coefficient 2*10^308, past the
    # float range: its samples would be inf, but the exact conversion check
    # of the largest derivative coefficient fails first
    vars = field_vars(1)
    u0 = Poly.const(vars, 10**307) * Poly.var(vars, "x1", 5)
    series = series_coefficients(NormalFormField(1, (-Poly.var(vars, "t"),)), (u0,), 6)
    with pytest.raises(approx.PlanInfeasible) as exc:
        select_cutoff_plan(series)
    assert str(exc.value) == "sampled derivative norm overflows: integer division result too large for a float"


def test_plan_infeasible_on_overflowing_constants():
    from fractions import Fraction as F
    from involucalc.approx import PlanInfeasible, select_cutoff_plan

    vars = field_vars(1)
    huge = Poly.const(vars, F(10) ** 400) * Poly.var(vars, "x1")
    f = NormalFormField(1, (Poly.zero(vars),))
    series = series_coefficients(f, (huge,), 1)
    with pytest.raises(PlanInfeasible):
        select_cutoff_plan(series, box_halfwidth=1.0, grid=5)
