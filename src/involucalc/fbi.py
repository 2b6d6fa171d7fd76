"""Wave-front direction scanning via a Gaussian-modulated oscillatory pairing.

For sampled data u on an (x, t) grid with a smooth compactly supported window
w (identically 1 on an inner box) the transform evaluated at basepoint p and
covector (xi, tau) is the quadrature of

    w(x', t') u(x', t') exp( i (xi, tau) . (p - (x', t'))
                             - kappa |(xi, tau)| |p - (x', t')|^2 ).

With rho = |(xi, tau)| the kernel factors into one factor per axis,

    exp(i xi dx - kappa rho dx^2) * exp(i tau dt - kappa rho dt^2),

dx = p_x - x', dt = p_t - t', so the double quadrature is kx^T (w u) kt with
one weighted row kx, kt per covector and axis.  A scan evaluates the
covectors of its directions x radii grid together, in batches of up to 64:
w u is formed once, contracted with a batch's kt rows in one matrix product,
and then with its kx rows.  No n x n kernel is built per covector.

Magnitudes are scanned along rays (xi, tau) = lambda * direction over a radius
grid spanning at least two decades, and the fitted log-log slope classifies
each direction: steep decay means microlocally smooth at (p, direction), flat
decay flags a singular direction.  The classification thresholds are artifact
choices set in config.DEFAULTS, not claims of the underlying regularity
theorems; the theorem content enters through the exact drift sign condition,
which the scans are correlated against.

Quadrature is composite Simpson per axis (with a 3/8 tail when the interval
count is odd), which for these smooth, compactly supported integrands
converges superalgebraically; aliasing of the integrand spectrum at the
half-grid frequency is the practical accuracy floor, so radius grids should
stay well below pi / grid_step."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import GaussRat, Poly, RatFun
from .approx import (
    NormalFormField,
    chi_float,
    grid_values_fn,
    max_degrees,
    series_coefficients,
)
from .config import DEFAULTS
from .structure import StructureDef, build_frame, levi_form


class FbiError(Exception):
    pass


class DegenerateGrid(FbiError):
    pass


class NoNegativeDirection(FbiError):
    pass


class RectificationUnavailable(FbiError):
    pass


# -- sampled data ---------------------------------------------------------------


@dataclass(frozen=True)
class SampledData:
    xs: np.ndarray  # 1-D grid in x
    ts: np.ndarray  # 1-D grid in t
    values: np.ndarray  # (r, nx, nt) complex samples
    window: np.ndarray  # (nx, nt), 1 on an inner box, 0 near the boundary

    @property
    def rank(self) -> int:
        return self.values.shape[0]


def scaled_window(x, plateau, support):
    """Smooth bump equal to 1 on |x| <= plateau, supported in |x| < support.

    The transition maps [plateau, support] affinely into the transition zone
    of the reference bump; the gluing is flat, so the result is smooth."""
    if not 0 < plateau < support:
        raise DegenerateGrid("window plateau must sit inside the support")
    ax = np.abs(np.asarray(x, dtype=float))
    u = 0.5 + (ax - plateau) / (2.0 * (support - plateau))
    return chi_float(np.clip(u, 0.0, 1.0))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def sample_data(
    fn,
    halfwidth=1.0,
    n=256,
    window_support=0.95,
    window_plateau=None,
) -> SampledData:
    """Sample fn(x, t) (broadcasting over arrays) on a centered square grid;
    fn returns an (n, n) array, or (r, n, n) for r components.

    The window is the outer product of two per-axis bumps with support radius
    window_support * halfwidth (strictly inside the box) and plateau radius
    window_plateau * halfwidth (default: half the support).  Overflow or a
    pole in fn, or overflow in the window, is not warned about:
    direction_scan rejects the non-finite or all-zero magnitudes it leads
    to."""
    if n < 5:
        raise DegenerateGrid("need at least 5 points per axis")
    if not 0 < window_support < 1:
        raise DegenerateGrid("window support must sit strictly inside the box")
    if window_plateau is None:
        window_plateau = window_support / 2.0
    xs = np.linspace(-halfwidth, halfwidth, n)
    vals = np.asarray(fn(*np.meshgrid(xs, xs, indexing="ij")), dtype=complex)
    if vals.ndim == 2:
        vals = vals[None, :, :]
    if vals.ndim != 3 or vals.shape[1:] != (n, n):
        raise DegenerateGrid("sampled values have unexpected shape")
    row = scaled_window(xs, window_plateau * halfwidth, window_support * halfwidth)
    return SampledData(xs, xs, vals, np.outer(row, row))


def simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights for n equally spaced points; when the
    interval count is odd the last three intervals use the 3/8 rule."""
    if n < 5 or h <= 0:
        raise DegenerateGrid("quadrature grid is degenerate")
    w = np.zeros(n)
    if n % 2 == 1:
        w[0] = w[-1] = 1.0
        w[1:-1:2] = 4.0
        w[2:-2:2] = 2.0
        w *= h / 3.0
        return w
    # even point count: Simpson on the first n-3 points, 3/8 on the rest
    m = n - 3
    w[0] = w[m - 1] = 1.0
    w[1 : m - 1 : 2] = 4.0
    w[2 : m - 2 : 2] = 2.0
    w *= h / 3.0
    tail = np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * h / 8.0)
    w[m - 1 : n] += tail
    return w


# covectors per batch: bounds the (batch, n) kernel rows a large scan holds
_BATCH = 64


@np.errstate(over="ignore", invalid="ignore")
def fbi_transforms(data: SampledData, kappa, basepoint, covectors) -> np.ndarray:
    """Transform values at one basepoint for a batch of covectors, shape
    (len(covectors), rank), by the separable quadrature kx^T (w u) kt.  A
    kernel that overflows is not warned about; see sample_data."""
    kappa = float(kappa)
    if kappa <= 0:
        raise FbiError("kappa must be positive")
    cov = np.asarray(covectors, dtype=float).reshape(-1, 2)
    xi, tau = cov[:, :1], cov[:, 1:]
    rho = np.hypot(xi, tau)
    if np.any(rho == 0):
        raise FbiError("covector must be nonzero")
    dx = float(basepoint[0]) - data.xs
    dt = float(basepoint[1]) - data.ts
    wx = simpson_weights(len(data.xs), data.xs[1] - data.xs[0])
    wt = simpson_weights(len(data.ts), data.ts[1] - data.ts[0])
    g = data.window[None, :, :] * data.values
    out = np.empty((len(cov), data.rank), dtype=complex)
    for lo in range(0, len(cov), _BATCH):
        hi = lo + _BATCH
        kx = wx * np.exp(1j * xi[lo:hi] * dx - kappa * rho[lo:hi] * dx**2)
        kt = wt * np.exp(1j * tau[lo:hi] * dt - kappa * rho[lo:hi] * dt**2)
        out[lo:hi] = np.einsum("ma,cam->mc", kx, g @ kt.T)
    return out


SMOOTH = "Smooth"
SINGULAR = "Singular"
INCONCLUSIVE = "Inconclusive"


@dataclass
class FbiScan:
    directions: list  # unit covectors (xi, tau)
    radii: list
    magnitudes: list  # magnitudes[i][m] for direction i, radius m
    slopes: list  # fitted d log|F| / d log radius per direction
    labels: list  # Smooth / Singular / Inconclusive

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["direction_index", "xi", "tau", "radius", "abs_F"])
            for i, (xi, tau) in enumerate(self.directions):
                for lam, mag in zip(self.radii, self.magnitudes[i]):
                    w.writerow(
                        [i, f"{xi:.17g}", f"{tau:.17g}", f"{lam:.17g}", f"{mag:.17g}"]
                    )
            w.writerow([])
            w.writerow(["direction_index", "xi", "tau", "slope", "classification"])
            for i, (xi, tau) in enumerate(self.directions):
                w.writerow(
                    [i, f"{xi:.17g}", f"{tau:.17g}", f"{self.slopes[i]:.17g}", self.labels[i]]
                )


def fit_loglog_slope(radii, magnitudes, floor=1e-300):
    """The least-squares slope of log magnitudes against log radii: one
    np.polyfit for every row of a (rows, radii) matrix, giving a list, or a
    float for one row of magnitudes."""
    lx = np.log(np.asarray(radii, dtype=float))
    ly = np.log(np.maximum(np.asarray(magnitudes, dtype=float), floor))
    return np.polyfit(lx, ly.T, 1)[0].tolist()


def direction_scan(
    data: SampledData,
    kappa,
    basepoint,
    n_dirs: int,
    radii,
) -> FbiScan:
    """Scan |F| over a circle of directions and a radius grid; classify each
    direction by the fitted log-log slope against DEFAULTS.smooth_slope and
    DEFAULTS.singular_slope."""
    radii = [float(r) for r in radii]
    if len(radii) < 4:
        raise FbiError("slope fits need at least 4 radii")
    if max(radii) / min(radii) < 99.0:
        raise FbiError("radius grid must span at least two decades")
    if n_dirs < 1:
        raise FbiError("a scan needs at least one direction")
    directions = [
        (math.cos(2 * math.pi * i / n_dirs), math.sin(2 * math.pi * i / n_dirs))
        for i in range(n_dirs)
    ]
    covectors = [(lam * xi, lam * tau) for xi, tau in directions for lam in radii]
    values = fbi_transforms(data, kappa, basepoint, covectors)
    mags = np.abs(values).max(axis=1).reshape(n_dirs, len(radii))
    if not np.all(np.isfinite(mags)):
        raise FbiError("non-finite transform magnitude in the scan")
    zero = np.flatnonzero(~mags.any(axis=1))
    if len(zero):
        raise FbiError(f"every transform magnitude in direction {zero[0]} is zero")
    slopes = fit_loglog_slope(radii, mags)
    labels = [
        SMOOTH if slope <= -DEFAULTS.smooth_slope else SINGULAR if slope >= DEFAULTS.singular_slope else INCONCLUSIVE
        for slope in slopes
    ]
    return FbiScan(directions, radii, mags.tolist(), slopes, labels)


# -- the exact side: sign condition and normal-form reduction ----------------------


@dataclass(frozen=True)
class SignReport:
    holds: bool
    value: Fraction  # the exact pairing d_t b(0) . xi0


def sign_condition(field: NormalFormField, xi0) -> SignReport:
    """Exact evaluation of d_t b(0) . xi0 > 0."""
    xi0 = tuple(Fraction(x) for x in xi0)
    if len(xi0) != field.n_x:
        raise FbiError("covector has wrong length")
    if all(x == 0 for x in xi0):
        raise FbiError("covector must be nonzero")
    total = Fraction(0)
    for bj, x in zip(field.b, xi0):
        if x:
            c = bj.diff("t").constant_term()
            total += Fraction(c.re) * x
    return SignReport(total > 0, total)


@dataclass(frozen=True)
class SmallnessReport:
    """Sampled check of the window-width constraint
    (3 kappa / 2)(1 + sup |Im shift|) < rho / 16, where rho is the sampled
    lower bound of the drift pairing along the covector direction."""

    ok: bool
    lhs: float
    rho: float
    sup_im_shift: float


# the smallness check samples the box [-1, 1]^(N+1) at 17 points per axis,
# and the shift profiles' series to order 6 at 17 values of |s| <= 1/4
_SMALL_BOX, _SMALL_GRID, _SMALL_ORDER, _SMALL_S = 1.0, 17, 6, 0.25


def kappa_smallness_check(field: NormalFormField, xi0, kappa) -> SmallnessReport:
    xi0 = tuple(Fraction(x) for x in xi0)
    norm = math.sqrt(sum(float(x) ** 2 for x in xi0))
    if norm == 0:
        raise FbiError("covector must be nonzero")
    vars = field.vars
    drifts = [(bj.diff("t"), float(x)) for bj, x in zip(field.b, xi0) if x != 0]
    profiles = []  # c_1..c_{order+1} of the series with data x_j: its shift profile
    for j in range(1, field.n_x + 1):
        series = series_coefficients(field, (Poly.var(vars, f"x{j}"),), _SMALL_ORDER + 1)
        profiles.append([c for (c,) in series.coeffs[1:]])
    polys = [p for p, _ in drifts] + [c for cs in profiles for c in cs]
    axes = [np.linspace(-_SMALL_BOX, _SMALL_BOX, _SMALL_GRID) for _ in vars]
    values = grid_values_fn(axes, max_degrees(polys, len(vars)))
    pairing = sum(values(p).real * x for p, x in drifts)
    rho = float(np.min(pairing)) / norm if drifts else 0.0
    sup_im = 0.0
    for coeffs in profiles:
        coeff_vals = [values(c) for c in coeffs]
        for s in np.linspace(-_SMALL_S, _SMALL_S, _SMALL_GRID):
            acc = sum(vals * s**k for k, vals in enumerate(coeff_vals))
            sup_im = max(sup_im, float(np.max(np.abs(acc.imag))))
    lhs = 1.5 * float(kappa) * (1.0 + sup_im)
    return SmallnessReport(lhs < rho / 16.0, lhs, rho, sup_im)


@dataclass(frozen=True)
class NormalFormReduction:
    witness_index: int  # 1-based frame index whose Levi diagonal is negative
    field: NormalFormField
    xi0: tuple  # covector in the rectified x coordinates
    coordinate_names: tuple  # original names of (x_1..x_N), then the rectified t


def levi_to_normal_form(sdef: StructureDef, point, xi: dict) -> NormalFormReduction:
    """Find a frame field with negative Levi diagonal at the covector and
    rewrite it as d/dt + i b . d/dx in the remaining coordinates.

    Only polynomial-rectifiable witnesses are handled: the distinguished real
    coordinate coefficient must be constant 1 after scaling and every other
    coefficient purely imaginary with polynomial imaginary part.  The sign
    condition holds for the returned covector by the commutator identity."""
    from .structure import characteristic_dim

    if characteristic_dim(sdef, point) == 0:
        raise NoNegativeDirection("characteristic set is trivial at this point")
    report = levi_form(sdef, point, xi)
    if report.inertia[1] < 1:
        raise NoNegativeDirection("the Levi form has no negative eigenvalue here")
    if any(p != 0 for p in report.point):
        raise RectificationUnavailable("translate the structure to the base point first")
    frame = build_frame(sdef)
    vars = sdef.vars
    candidates = [
        j for j in range(len(frame)) if report.matrix.entries[j][j].re < 0
    ]
    if not candidates:
        raise RectificationUnavailable(
            "no frame field has a negative Levi diagonal in this covector"
        )
    last_error = None
    for j in candidates:
        try:
            return _rectify(sdef, frame, j, report.covector, vars)
        except RectificationUnavailable as e:
            last_error = e
    raise last_error


def _rectify(sdef, frame, j, xi, vars) -> NormalFormReduction:
    L = frame[j]
    if j >= sdef.nu:
        marker = f"t{j - sdef.nu + 1}"
        scale = GaussRat(1)
    else:
        marker = f"x{j + 1}"
        scale = GaussRat(2)
    rest = [v for v in vars if v != marker]
    new_vars = tuple(f"x{i}" for i in range(1, len(rest) + 1)) + ("t",)
    mapping = {old: new for old, new in zip(rest, new_vars)}
    mapping[marker] = "t"
    b = []
    for old in rest:
        c = L.coeff(old) * scale
        re = c + c.conjugate()
        if not re.is_zero():
            raise RectificationUnavailable(
                f"coefficient on d/d{old} is not purely imaginary"
            )
        im = c * GaussRat(0, -1)
        if not im.is_polynomial():
            raise RectificationUnavailable(
                f"coefficient on d/d{old} is not polynomial"
            )
        b.append(im.as_poly().rename_vars(new_vars, mapping))
    marker_coeff = L.coeff(marker) * scale
    if not (marker_coeff - RatFun.of(Poly.one(vars))).is_zero():
        raise RectificationUnavailable("distinguished coefficient is not constant")
    if xi.get(marker, Fraction(0)) != 0:
        raise RectificationUnavailable(
            "covector has a component along the rectified direction"
        )
    xi0 = tuple(Fraction(xi.get(old, 0)) for old in rest)
    field = NormalFormField(len(rest), tuple(b))
    sr = sign_condition(field, xi0)
    if not sr.holds:
        raise RectificationUnavailable("sign condition failed after rectification")
    return NormalFormReduction(j + 1, field, xi0, tuple(rest) + (marker,))
