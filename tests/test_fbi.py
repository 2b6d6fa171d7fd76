import math
from fractions import Fraction

import numpy as np
import pytest

from involucalc.algebra import Poly
from involucalc.approx import NormalFormField, field_vars
from involucalc.catalog import (
    complex_structure,
    flat_structure,
    standard_mizohata,
)
from involucalc.cli import _parse_radii
from involucalc.config import DEFAULTS
from involucalc.fbi import (
    INCONCLUSIVE,
    SINGULAR,
    SMOOTH,
    DegenerateGrid,
    FbiError,
    NoNegativeDirection,
    RectificationUnavailable,
    SampledData,
    direction_scan,
    fbi_transforms,
    fit_loglog_slope,
    kappa_smallness_check,
    levi_to_normal_form,
    sample_data,
    scaled_window,
    sign_condition,
    simpson_weights,
)

# acceptance-scan configuration, fixed after calibration; see test_acceptance
HW = 0.5
WSUP = 0.95
WPLAT = 0.95 * 0.75
KAPPA = 1.0
RADII = list(np.logspace(np.log10(1.2), np.log10(120.0), 7))


def fbi_transform(data, kappa, basepoint, covector):
    """Transform value per component at one basepoint and covector."""
    return fbi_transforms(data, kappa, basepoint, [covector])[0]


def cauchy_data(delta, n=256):
    return sample_data(
        lambda X, T: 1.0 / (X + 1j * delta),
        halfwidth=HW,
        n=n,
        window_support=WSUP,
        window_plateau=WPLAT,
    )


def bump_data(n=256):
    return sample_data(
        lambda X, T: np.exp(-(X**2 + T**2) / (2 * 0.15**2)),
        halfwidth=HW,
        n=n,
        window_support=WSUP,
        window_plateau=WPLAT,
    )


def heaviside_data(n=256):
    return sample_data(
        lambda X, T: (X >= 0).astype(float) + 0 * T,
        halfwidth=HW,
        n=n,
        window_support=WSUP,
        window_plateau=WPLAT,
    )


# -- quadrature ------------------------------------------------------------------


@pytest.mark.parametrize("n", [9, 10, 33, 64])
def test_simpson_integrates_cubics_exactly(n):
    a, b = -1.0, 2.0
    xs = np.linspace(a, b, n)
    w = simpson_weights(n, xs[1] - xs[0])
    vals = xs**3 - 2 * xs**2 + 5
    exact = (b**4 / 4 - 2 * b**3 / 3 + 5 * b) - (a**4 / 4 - 2 * a**3 / 3 + 5 * a)
    assert abs(np.dot(w, vals) - exact) < 1e-12


def test_simpson_rejects_tiny_grid():
    with pytest.raises(DegenerateGrid):
        simpson_weights(3, 0.1)


def test_scaled_window_profile():
    xs = np.array([0.0, 0.3, 0.356, 0.40, 0.474, 0.5])
    w = scaled_window(xs, 0.356, 0.475)
    assert w[0] == w[1] == w[2] == 1.0
    assert 0 < w[3] < 1
    assert w[4] < 1e-6 or w[4] == 0.0
    assert w[5] == 0.0


@pytest.mark.parametrize("n", [255, 256])
def test_sample_data_window_and_rank(n):
    # oracle: the window evaluated on the meshgrid, bit for bit; the rank is
    # the leading axis of what fn returns
    data = sample_data(
        lambda X, T: np.stack([X, T, X * T]), halfwidth=HW, n=n,
        window_support=WSUP, window_plateau=WPLAT,
    )
    X, T = np.meshgrid(data.xs, data.ts, indexing="ij")
    want = scaled_window(X, WPLAT * HW, WSUP * HW) * scaled_window(T, WPLAT * HW, WSUP * HW)
    assert np.array_equal(data.window, want)
    assert data.rank == 3 and np.array_equal(data.values[2], X * T)
    for bad in (lambda X, T: X[:, :-1], lambda X, T: np.stack([[X]])):
        with pytest.raises(DegenerateGrid):
            sample_data(bad, halfwidth=HW, n=n)


# -- the transform ------------------------------------------------------------------


def test_transform_of_zero_data_is_zero():
    data = sample_data(lambda X, T: 0.0 * X, halfwidth=HW, n=64)
    val = fbi_transform(data, KAPPA, (0, 0), (3.0, 1.0))
    assert abs(val[0]) == 0.0


def test_transform_is_linear():
    d1 = cauchy_data(0.1, n=64)
    d2 = bump_data(n=64)
    a = 2.5 - 1.5j
    combo = SampledData(d1.xs, d1.ts, a * d1.values + d2.values, d1.window)
    cov = (7.0, -3.0)
    lhs = fbi_transform(combo, KAPPA, (0, 0), cov)[0]
    rhs = a * fbi_transform(d1, KAPPA, (0, 0), cov)[0] + fbi_transform(
        d2, KAPPA, (0, 0), cov
    )[0]
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_constant_data_decays_superpolynomially():
    data = sample_data(
        lambda X, T: 1.0 + 0 * X,
        halfwidth=HW,
        n=256,
        window_support=WSUP,
        window_plateau=WPLAT,
    )
    scan = direction_scan(data, KAPPA, (0, 0), 4, RADII)
    assert all(s <= -4.0 for s in scan.slopes)


def test_transform_rejects_zero_covector_and_kappa():
    data = bump_data(n=64)
    with pytest.raises(FbiError):
        fbi_transform(data, KAPPA, (0, 0), (0.0, 0.0))
    with pytest.raises(FbiError):
        fbi_transform(data, 0.0, (0, 0), (1.0, 0.0))


def meshgrid_transform(data, kappa, basepoint, covector):
    """Oracle: the unfactored quadrature, one n x n kernel per covector."""
    xi, tau = float(covector[0]), float(covector[1])
    rho = math.hypot(xi, tau)
    X, T = np.meshgrid(data.xs, data.ts, indexing="ij")
    dx = basepoint[0] - X
    dt = basepoint[1] - T
    kernel = np.exp(1j * (xi * dx + tau * dt) - kappa * rho * (dx**2 + dt**2))
    wx = simpson_weights(len(data.xs), data.xs[1] - data.xs[0])
    wt = simpson_weights(len(data.ts), data.ts[1] - data.ts[0])
    integrand = data.window[None, :, :] * data.values * kernel[None, :, :]
    return np.tensordot(integrand, np.outer(wx, wt), axes=([1, 2], [0, 1]))


def oracle_label(slope):
    if slope <= -DEFAULTS.smooth_slope:
        return SMOOTH
    if slope >= DEFAULTS.singular_slope:
        return SINGULAR
    return INCONCLUSIVE


@pytest.mark.parametrize(
    "make",
    [bump_data, heaviside_data, lambda: cauchy_data(1 / 40)],
    ids=["gaussian", "heaviside", "boundary"],
)
def test_scan_matches_meshgrid_oracle(make):
    data = make()
    radii = _parse_radii("6/5:120:7")
    scan = direction_scan(data, KAPPA, (0, 0), 8, radii)
    old = np.array(
        [
            [meshgrid_transform(data, KAPPA, (0, 0), (lam * xi, lam * tau)) for lam in radii]
            for xi, tau in scan.directions
        ]
    )
    covectors = [(lam * xi, lam * tau) for xi, tau in scan.directions for lam in radii]
    new = fbi_transforms(data, KAPPA, (0, 0), covectors).reshape(old.shape)
    scale = np.max(np.abs(old))
    assert np.max(np.abs(new - old)) <= 1e-12 * scale
    old_mags = np.abs(old).max(axis=2)
    assert np.max(np.abs(np.array(scan.magnitudes) - old_mags)) <= 1e-12 * scale
    assert scan.labels == [oracle_label(fit_loglog_slope(radii, m)) for m in old_mags]


def test_batched_transforms_match_single_covectors():
    # more covectors than one batch holds, so the batch boundary is crossed
    data = cauchy_data(0.1, n=64)
    rng = np.random.default_rng(3)
    covectors = rng.uniform(-40.0, 40.0, size=(150, 2))
    batch = fbi_transforms(data, KAPPA, (0.05, -0.1), covectors)
    single = np.array(
        [meshgrid_transform(data, KAPPA, (0.05, -0.1), c) for c in covectors]
    )
    assert batch.shape == (150, 1)
    assert np.max(np.abs(batch - single)) <= 1e-12 * np.max(np.abs(single))


def test_batched_transforms_reject_any_zero_covector():
    data = bump_data(n=64)
    with pytest.raises(FbiError):
        fbi_transforms(data, KAPPA, (0, 0), [(1.0, 2.0), (0.0, 0.0), (3.0, 0.0)])


def test_slope_fit_matches_per_row_polyfit():
    # one np.polyfit over every direction's row gives each row's own fit,
    # bit for bit, floored magnitudes included
    rng = np.random.default_rng(27)
    for _ in range(300):
        radii = np.sort(rng.uniform(0.5, 500.0, 7)).tolist()
        mags = np.exp(rng.normal(0.0, 8.0, (8, 7)))
        mags[rng.integers(8), rng.integers(7)] = 0.0
        want = [float(np.polyfit(np.log(radii), np.log(np.maximum(m, 1e-300)), 1)[0]) for m in mags]
        assert fit_loglog_slope(radii, mags) == want
        assert fit_loglog_slope(radii, mags.tolist()) == want
        assert fit_loglog_slope(radii, mags[3]) == want[3]


def test_scan_rejects_no_directions():
    data = bump_data(n=64)
    for n_dirs in (0, -2):
        with pytest.raises(FbiError):
            direction_scan(data, KAPPA, (0, 0), n_dirs, RADII)


def test_scan_rejects_all_zero_magnitudes():
    # zero data has a zero transform at every radius: no slope to label
    data = sample_data(lambda X, T: 0.0 * X, halfwidth=HW, n=64)
    with pytest.raises(FbiError, match="direction 0 is zero"):
        direction_scan(data, KAPPA, (0, 0), 2, RADII)


# -- direction scans ------------------------------------------------------------------


def test_gaussian_bump_all_smooth():
    scan = direction_scan(bump_data(), KAPPA, (0, 0), 8, RADII)
    assert all(lbl == "Smooth" for lbl in scan.labels)


def test_heaviside_singular_in_x_smooth_in_t():
    scan = direction_scan(heaviside_data(), KAPPA, (0, 0), 4, RADII)
    # directions are (1,0), (0,1), (-1,0), (0,-1)
    assert scan.labels[0] == "Singular"
    assert scan.labels[2] == "Singular"
    assert scan.labels[1] == "Smooth"
    assert scan.labels[3] == "Smooth"
    # 1-D Fourier oracle: the windowed 1-D transform of a jump decays like
    # 1/radius; check the x factor directly on the asymptotic radii
    xs = np.linspace(-HW, HW, 256)
    w1 = simpson_weights(256, xs[1] - xs[0])
    win = scaled_window(xs, WPLAT * HW, WSUP * HW)
    jump = (xs >= 0).astype(float)
    products = []
    for lam in RADII[-5:]:
        f = np.dot(w1, win * jump * np.exp(-1j * lam * xs - KAPPA * lam * xs**2))
        products.append(lam * abs(f))
    assert max(products) / min(products) < 2.0


def test_boundary_value_data_has_one_sided_steep_decay():
    scan = direction_scan(cauchy_data(0.05), KAPPA, (0, 0), 2, RADII)
    # direction (-1, 0) is the steep one for data 1/(x + i delta)
    assert scan.slopes[1] < scan.slopes[0] - 2.0


def test_scan_validates_radius_grid():
    data = bump_data(n=64)
    with pytest.raises(FbiError):
        direction_scan(data, KAPPA, (0, 0), 4, [1.0, 2.0, 4.0])
    with pytest.raises(FbiError):
        direction_scan(data, KAPPA, (0, 0), 4, [1.0, 2.0, 4.0, 8.0])


def test_kappa_scaling_does_not_flip_smooth_to_singular():
    base = direction_scan(bump_data(), KAPPA, (0, 0), 4, RADII)
    assert all(lbl == "Smooth" for lbl in base.labels)
    for kappa in (KAPPA / 2, 2 * KAPPA):
        scan = direction_scan(bump_data(), kappa, (0, 0), 4, RADII)
        # rescaling the Gaussian weight may weaken a verdict to Inconclusive
        # but never flips Smooth to Singular
        assert all(lbl != "Singular" for lbl in scan.labels)


def test_scan_csv(tmp_path):
    scan = direction_scan(bump_data(n=64), KAPPA, (0, 0), 2, RADII)
    path = tmp_path / "scan.csv"
    scan.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "direction_index,xi,tau,radius,abs_F"
    assert any("classification" in ln for ln in lines)


# -- sign condition ---------------------------------------------------------------------


def mizohata_normal_form():
    vars = field_vars(1)
    return NormalFormField(1, (-Poly.var(vars, "t"),))


def test_sign_condition_mizohata():
    f = mizohata_normal_form()
    r = sign_condition(f, (-1,))
    assert r.holds and r.value == 1
    r = sign_condition(f, (1,))
    assert not r.holds and r.value == -1


def test_sign_condition_zero_drift():
    vars = field_vars(1)
    f = NormalFormField(1, (Poly.zero(vars),))
    for xi in ((1,), (-1,), (Fraction(5, 3),)):
        r = sign_condition(f, xi)
        assert not r.holds and r.value == 0


def test_sign_condition_homogeneous():
    f = mizohata_normal_form()
    r1 = sign_condition(f, (-1,))
    r3 = sign_condition(f, (-3,))
    assert r1.holds and r3.holds
    assert r3.value == 3 * r1.value


# -- normal form reduction ---------------------------------------------------------------


def test_levi_to_normal_form_mizohata_negative():
    sdef = standard_mizohata(0, 1)
    red = levi_to_normal_form(sdef, {"s1": 1})
    assert red.witness_index == 1
    f = red.field
    assert f.n_x == 1
    # rectified field is d/dt + i t d/dx: drift is the rectified t variable
    assert f.b[0] == Poly.var(f.vars, "t")
    assert red.xi0 == (Fraction(1),)
    assert sign_condition(f, red.xi0).holds


def test_levi_to_normal_form_type11():
    sdef = standard_mizohata(1, 2)
    red = levi_to_normal_form(sdef, {"s1": 1})
    # the negative direction is the second frame field
    assert red.witness_index == 2
    assert sign_condition(red.field, red.xi0).holds


def test_levi_to_normal_form_elliptic():
    sdef = complex_structure(1)
    with pytest.raises(NoNegativeDirection):
        levi_to_normal_form(sdef, {"x1": 1})


def test_levi_to_normal_form_levi_flat():
    sdef = flat_structure(1, 1)
    with pytest.raises(NoNegativeDirection):
        levi_to_normal_form(sdef, {"s1": 1})


def test_levi_to_normal_form_positive_only():
    sdef = standard_mizohata(1, 1)
    with pytest.raises(NoNegativeDirection):
        levi_to_normal_form(sdef, {"s1": 1})
    # flipping the covector flips the signature
    red = levi_to_normal_form(sdef, {"s1": -1})
    assert sign_condition(red.field, red.xi0).holds


# -- smallness warning ----------------------------------------------------------------------


def test_kappa_smallness_warning_fires_at_default_kappa():
    f = mizohata_normal_form()
    rep = kappa_smallness_check(f, (-1,), Fraction(1, 4))
    assert rep.rho == 1.0
    assert not rep.ok  # the displayed inequality needs a far smaller kappa


def test_kappa_smallness_holds_for_tiny_kappa():
    f = mizohata_normal_form()
    rep = kappa_smallness_check(f, (-1,), Fraction(1, 400))
    assert rep.ok


def test_quadrature_convergence_on_doubled_grid():
    # halving the grid step changes |F| by < 1% at every scanned pair whose
    # reading sits above the quadrature noise floor; the only excluded pairs
    # are deep in the smooth regime (|F| < 1e-7, at or below the grid-256
    # aliasing floor) where the classification is already settled
    floor = 1e-7
    checked = 0
    excluded = 0
    for delta in (0.1, 0.025):
        coarse = cauchy_data(delta, n=256)
        fine = cauchy_data(delta, n=512)
        for sgn in (+1, -1):
            for lam in RADII:
                a = abs(fbi_transform(coarse, KAPPA, (0, 0), (sgn * lam, 0.0))[0])
                b = abs(fbi_transform(fine, KAPPA, (0, 0), (sgn * lam, 0.0))[0])
                if max(a, b) < floor:
                    excluded += 1
                    continue
                assert abs(a - b) / max(b, 1e-300) < 0.01
                checked += 1
    assert checked >= 24
    assert excluded <= 2


def test_rectification_unavailable_for_mixed_denominators():
    # phi depends on s, so the frame coefficient is a genuine quotient and
    # the witness is not polynomially rectifiable
    from involucalc.structure import StructureDef, structure_vars

    vars = structure_vars(0, 1, 1)
    t = Poly.var(vars, "t1")
    s = Poly.var(vars, "s1")
    sdef = StructureDef(0, 1, 1, (-t * t * Fraction(1, 2) + t * t * s * s * Fraction(1, 2),))
    with pytest.raises(RectificationUnavailable):
        levi_to_normal_form(sdef, {"s1": 1})
