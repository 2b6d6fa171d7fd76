"""Locally integrable structures from polynomial first integrals.

A structure is given by dimensions (nu, d, mu) and d real polynomials
phi_k(x, y, s, t) vanishing to second order at the origin.  The first
integrals are

    Z_j = x_j + i y_j            (j = 1..nu)
    W_k = s_k + i phi_k          (k = 1..d)

and everything else (the spanning frame, characteristic forms, Levi forms)
is derived from them.  Every pointwise quantity (the characteristic
dimension, the Levi form) is taken at the base point, the origin; callers
translate their data.  The Wirtinger conventions are

    d/dz    = (d/dx - i d/dy) / 2,      d/dzbar = (d/dx + i d/dy) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .algebra import (
    GaussRat,
    HermitianMatrix,
    I,
    ONE,
    ZERO,
    HALF,
    Poly,
    RatFun,
    adjugate,
    det,
    hermitian_inertia,
    ratfun_jet,
)


class StructureError(Exception):
    pass


class NotCharacteristic(StructureError):
    """The covector does not annihilate the frame at the base point."""


class ZeroCovector(StructureError):
    pass


class KernelVerificationFailed(StructureError):
    """A candidate kernel vector does not annihilate phi_t identically."""


def structure_vars(nu: int, d: int, mu: int) -> tuple:
    return tuple(
        [f"x{j}" for j in range(1, nu + 1)]
        + [f"y{j}" for j in range(1, nu + 1)]
        + [f"s{k}" for k in range(1, d + 1)]
        + [f"t{r}" for r in range(1, mu + 1)]
    )


def field_vars(n_x: int) -> tuple:
    """The variables (x1..xN, t) of an [approx] block's operator."""
    return tuple(f"x{j}" for j in range(1, n_x + 1)) + ("t",)


@dataclass(frozen=True)
class StructureDef:
    """Dimensions and defining polynomials of a locally integrable structure."""

    nu: int
    d: int
    mu: int
    phi: tuple

    def __post_init__(self):
        if self.nu < 0 or self.d < 0 or self.mu < 0:
            raise StructureError("dimensions must be nonnegative")
        phi = tuple(self.phi)
        object.__setattr__(self, "phi", phi)
        if len(phi) != self.d:
            raise StructureError(f"expected {self.d} defining polynomials, got {len(phi)}")
        vars = self.vars
        for k, p in enumerate(phi, start=1):
            if not isinstance(p, Poly) or p.vars != vars:
                raise StructureError(f"phi_{k} is not a polynomial over {vars}")
            if not p.is_real():
                raise StructureError(f"phi_{k} must have real coefficients")
            if not p.constant_term().is_zero():
                raise StructureError(f"phi_{k} must vanish at the base point")
            for v in vars:
                if not p.diff(v).constant_term().is_zero():
                    raise StructureError(
                        f"phi_{k} must have vanishing first derivatives at the base point"
                    )

    @property
    def vars(self) -> tuple:
        return structure_vars(self.nu, self.d, self.mu)

    @property
    def dim(self) -> int:
        return 2 * self.nu + self.d + self.mu

    def first_integrals(self):
        """The nu + d basic solutions (Z's first, then W's) as polynomials."""
        vars = self.vars
        out = []
        for j in range(1, self.nu + 1):
            out.append(Poly.var(vars, f"x{j}") + Poly.var(vars, f"y{j}") * I)
        for k in range(1, self.d + 1):
            out.append(Poly.var(vars, f"s{k}") + self.phi[k - 1] * I)
        return out

    def integral_labels(self):
        return tuple(
            [f"Z{j}" for j in range(1, self.nu + 1)]
            + [f"W{k}" for k in range(1, self.d + 1)]
        )

    # Derived objects, built once per instance and freed with it, outside the
    # fields equality and hashing read; jacobians, build_frame and frame_jets read them.
    @cached_property
    def _jacobians(self):
        return _compute_jacobians(self)

    @cached_property
    def _frame(self):
        return _compute_frame(self)

    @cached_property
    def _frame_jets(self):
        return {}  # k_max -> frame jets of that order


@dataclass(frozen=True)
class PhiJacobians:
    """Derivative matrices of phi and the inverse of W_s = I + i*phi_s."""

    phi_z: tuple  # d x nu, Poly
    phi_zbar: tuple  # d x nu, Poly
    phi_s: tuple  # d x d, Poly
    phi_t: tuple  # d x mu, Poly
    w_s: tuple  # d x d, Poly
    det_w_s: Poly
    inv_w_s: tuple  # d x d, RatFun


def jacobians(sdef: StructureDef) -> PhiJacobians:
    return sdef._jacobians


def _compute_jacobians(sdef: StructureDef) -> PhiJacobians:
    vars = sdef.vars
    d, nu, mu = sdef.d, sdef.nu, sdef.mu
    phi_x = [[sdef.phi[k].diff(f"x{j}") for j in range(1, nu + 1)] for k in range(d)]
    phi_y = [[sdef.phi[k].diff(f"y{j}") for j in range(1, nu + 1)] for k in range(d)]
    phi_z = tuple(
        tuple((phi_x[k][j] - phi_y[k][j] * I) * HALF for j in range(nu))
        for k in range(d)
    )
    phi_zbar = tuple(
        tuple((phi_x[k][j] + phi_y[k][j] * I) * HALF for j in range(nu))
        for k in range(d)
    )
    phi_s = tuple(
        tuple(sdef.phi[k].diff(f"s{m}") for m in range(1, d + 1)) for k in range(d)
    )
    phi_t = tuple(
        tuple(sdef.phi[k].diff(f"t{r}") for r in range(1, mu + 1)) for k in range(d)
    )
    w_s = tuple(
        tuple(
            phi_s[k][m] * I + (1 if k == m else 0) for m in range(d)
        )
        for k in range(d)
    )
    if d:
        w_det = det([list(r) for r in w_s])
        adj = adjugate([list(r) for r in w_s])
        # w_det becomes one RatFun denominator factor, so frame
        # coefficients and their derivatives stay numerator / w_det^p
        inv = tuple(
            tuple(RatFun(adj[k][m], w_det) for m in range(d)) for k in range(d)
        )
    else:
        w_det = Poly.one(vars)
        inv = tuple()
    return PhiJacobians(phi_z, phi_zbar, phi_s, phi_t, w_s, w_det, inv)


class VectorFieldSym:
    """Complex vector field with RatFun coefficients in the coordinate frame."""

    __slots__ = ("vars", "coeffs")

    def __init__(self, vars, coeffs):
        object.__setattr__(self, "vars", tuple(vars))
        clean = {}
        for name, c in coeffs.items():
            if name not in self.vars:
                raise ValueError(f"unknown coordinate {name}")
            c = c if isinstance(c, RatFun) else RatFun.of(c, self.vars)
            if not c.is_zero():
                clean[name] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("VectorFieldSym is immutable")

    def coeff(self, name) -> RatFun:
        return self.coeffs.get(name, RatFun.of(Poly.zero(self.vars)))

    def apply(self, f) -> RatFun:
        """Derivation applied to a Poly or RatFun."""
        f = RatFun.of(f)
        total = RatFun.of(Poly.zero(self.vars))
        for name, c in self.coeffs.items():
            total = total + c * f.diff(name)
        return total

    def bracket(self, other) -> "VectorFieldSym":
        res = {}
        names = set(self.coeffs) | set(other.coeffs)
        for name in names:
            c = self.apply(other.coeff(name)) - other.apply(self.coeff(name))
            if not c.is_zero():
                res[name] = c
        return VectorFieldSym(self.vars, res)

    def __add__(self, other):
        res = dict(self.coeffs)
        for n, c in other.coeffs.items():
            res[n] = res.get(n, RatFun.of(Poly.zero(self.vars))) + c
        return VectorFieldSym(self.vars, res)

    def __sub__(self, other):
        return self + other.scale(GaussRat(-1))

    def scale(self, c) -> "VectorFieldSym":
        return VectorFieldSym(self.vars, {n: v * c for n, v in self.coeffs.items()})

    def scale_ratfun(self, f: RatFun) -> "VectorFieldSym":
        return VectorFieldSym(self.vars, {n: v * f for n, v in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, VectorFieldSym):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c!r}) d/d{n}" for n, c in sorted(self.coeffs.items()))


def build_frame(sdef: StructureDef) -> tuple:
    """The nu + mu spanning fields: zbar-type first, then t-type.

    Each field annihilates every first integral; the t-type fields use
    N_k = sum_l (tW_s^{-1})_{kl} d/ds_l."""
    return sdef._frame


def _compute_frame(sdef: StructureDef) -> tuple:
    jac = jacobians(sdef)
    vars, d = sdef.vars, sdef.d
    zero = RatFun.of(Poly.zero(vars))
    # each field's marker coefficients and the column of phi it corrects
    specs = [
        ({f"x{j}": HALF, f"y{j}": I * HALF}, [row[j - 1] for row in jac.phi_zbar])
        for j in range(1, sdef.nu + 1)
    ] + [({f"t{j}": ONE}, [row[j - 1] for row in jac.phi_t]) for j in range(1, sdef.mu + 1)]
    fields = []
    for markers, col in specs:
        coeffs = {name: RatFun.of(Poly.const(vars, c)) for name, c in markers.items()}
        # (tW_s^{-1})_{k,l} = (W_s^{-1})_{l,k}
        for ell in range(d):
            c = sum((RatFun.of(col[k]) * jac.inv_w_s[ell][k] for k in range(d)), zero)
            coeffs[f"s{ell + 1}"] = c * (-I)
        fields.append(VectorFieldSym(vars, coeffs))
    return tuple(fields)


def frame_jets(sdef: StructureDef, k_max: int) -> tuple:
    """Per frame field, its coefficients' Taylor jets of order ``k_max`` by
    coordinate; built once per structure and order."""
    if k_max not in sdef._frame_jets:
        sdef._frame_jets[k_max] = _compute_frame_jets(sdef, k_max)
    return sdef._frame_jets[k_max]


def _compute_frame_jets(sdef: StructureDef, k_max: int) -> tuple:
    frame = build_frame(sdef)
    return tuple({name: ratfun_jet(c, k_max) for name, c in L.coeffs.items()} for L in frame)


def expand_in_frame(sdef: StructureDef, field: VectorFieldSym, frame=None):
    """Express ``field`` in the structure frame.

    Returns (coefficients, residual).  Coefficients are read off the marker
    coordinates (x_j for zbar-type, t_j for t-type); the residual is the
    difference and vanishes exactly iff the field lies in the frame span."""
    if frame is None:
        frame = build_frame(sdef)
    coeffs = []
    for j in range(1, sdef.nu + 1):
        coeffs.append(field.coeff(f"x{j}") * GaussRat(2))
    for j in range(1, sdef.mu + 1):
        coeffs.append(field.coeff(f"t{j}"))
    residual = field
    for c, L in zip(coeffs, frame):
        residual = residual - L.scale_ratfun(c)
    return coeffs, residual


@dataclass(frozen=True)
class CotangentSection:
    """Section of the annihilator bundle in the first-integral coframe.

    Components cz_j multiply dZ_j and cw_k multiply dW_k, so evaluation on
    any frame field vanishes identically by construction."""

    sdef: StructureDef
    cz: tuple  # nu RatFun
    cw: tuple  # d RatFun

    def __post_init__(self):
        vars = self.sdef.vars
        object.__setattr__(
            self, "cz", tuple(RatFun.of(c, vars) for c in self.cz)
        )
        object.__setattr__(
            self, "cw", tuple(RatFun.of(c, vars) for c in self.cw)
        )
        if len(self.cz) != self.sdef.nu or len(self.cw) != self.sdef.d:
            raise StructureError("component count does not match dimensions")

    def components(self) -> tuple:
        return self.cz + self.cw

    def apply_to_field(self, X: VectorFieldSym) -> RatFun:
        integrals = self.sdef.first_integrals()
        total = RatFun.of(Poly.zero(self.sdef.vars))
        for c, F in zip(self.components(), integrals):
            total = total + c * X.apply(F)
        return total

    def coordinate_coefficients(self) -> dict:
        """Coefficients in the coordinate coframe (dx, dy, ds, dt)."""
        vars = self.sdef.vars
        nu, d, mu = self.sdef.nu, self.sdef.d, self.sdef.mu
        zero = RatFun.of(Poly.zero(vars))
        out = {v: zero for v in vars}
        for j in range(nu):
            out[f"x{j + 1}"] = out[f"x{j + 1}"] + self.cz[j]
            out[f"y{j + 1}"] = out[f"y{j + 1}"] + self.cz[j] * I
        for k in range(d):
            # dW_k = ds_k + i d(phi_k)
            out[f"s{k + 1}"] = out[f"s{k + 1}"] + self.cw[k]
            for v in vars:
                dphi = self.sdef.phi[k].diff(v)
                if not dphi.is_zero():
                    out[v] = out[v] + self.cw[k] * RatFun.of(dphi) * I
        return out


@dataclass(frozen=True)
class KernelVector:
    """Row of d real polynomials annihilating phi_t from the left."""

    sdef: StructureDef
    b: tuple  # d Poly, real
    provenance: str = "user"

    def __post_init__(self):
        b = tuple(self.b)
        object.__setattr__(self, "b", b)
        if len(b) != self.sdef.d:
            raise KernelVerificationFailed("kernel vector has wrong length")
        for p in b:
            if not isinstance(p, Poly) or not p.is_real():
                raise KernelVerificationFailed("kernel vector entries must be real polynomials")
        jac = jacobians(self.sdef)
        for r in range(self.sdef.mu):
            if not _dot(b, jac.phi_t, r, self.sdef.vars).is_zero():
                raise KernelVerificationFailed(
                    f"candidate does not annihilate column {r + 1} of phi_t"
                )

    def is_zero(self):
        return all(p.is_zero() for p in self.b)

    @cached_property
    def _form(self):
        return _compute_form(self)  # read it through characteristic_form


def generic_rank_phi_t(sdef: StructureDef):
    """Largest size of a not-identically-zero minor of phi_t, with a witness
    (size, rows, cols); size 0 when phi_t vanishes identically."""
    jac = jacobians(sdef)
    d, mu = sdef.d, sdef.mu
    for size in range(min(d, mu), 0, -1):
        for rows in combinations(range(d), size):
            for cols in combinations(range(mu), size):
                sub = [[jac.phi_t[r][c] for c in cols] for r in rows]
                if not det(sub).is_zero():
                    return size, rows, cols
    return 0, (), ()


def kernel_vectors(sdef: StructureDef, user=None) -> list:
    """Kernel vectors of phi_t.

    With ``user`` given (list of tuples of polynomials), validates and wraps
    them.  Otherwise applies the minor/adjoint recipe at the generic rank R of
    phi_t for every admissible (row set, column set, extra row); an empty list
    means the characteristic directions are generically trivial (R = d)."""
    if user is not None:
        return [KernelVector(sdef, tuple(b), provenance="user") for b in user]
    jac = jacobians(sdef)
    d = sdef.d
    if d == 0:
        return []
    big, _, _ = generic_rank_phi_t(sdef)
    if big == d:
        return []
    vars = sdef.vars
    if big == 0:
        out = []
        for ell in range(d):
            b = [Poly.zero(vars)] * d
            b[ell] = Poly.one(vars)
            out.append(
                KernelVector(sdef, tuple(b), provenance=f"adjoint-recipe(-,-,{ell + 1})")
            )
        return out
    out = []
    for rows in combinations(range(d), big):
        for cols in combinations(range(sdef.mu), big):
            sub = [[jac.phi_t[r][c] for c in cols] for r in rows]
            delta = det(sub)
            if delta.is_zero():
                continue
            adj = adjugate(sub)
            for ell in range(d):
                if ell in rows:
                    continue
                b = [Poly.zero(vars)] * d
                b[ell] = delta
                for j, r in enumerate(rows):
                    acc = Poly.zero(vars)
                    for m in range(big):
                        acc = acc + jac.phi_t[ell][cols[m]] * adj[m][j]
                    b[r] = -acc
                out.append(
                    KernelVector(
                        sdef,
                        tuple(b),
                        provenance=f"adjoint-recipe({rows},{cols},{ell + 1})",
                    )
                )
    return out


def characteristic_form(sdef: StructureDef, kv: KernelVector) -> CotangentSection:
    """The real annihilator one-form attached to a kernel vector of ``sdef``:
    components -2i*(b phi_z) on the dZ's and b(I + i phi_s) on the dW's.
    Built once per kernel vector."""
    if kv.sdef != sdef:
        raise StructureError("the kernel vector belongs to another structure")
    return kv._form


def _compute_form(kv: KernelVector) -> CotangentSection:
    sdef, jac = kv.sdef, jacobians(kv.sdef)
    cz = (RatFun.of(_dot(kv.b, jac.phi_z, j, sdef.vars) * GaussRat(0, -2)) for j in range(sdef.nu))
    cw = (RatFun.of(kv.b[m] + _dot(kv.b, jac.phi_s, m, sdef.vars) * I) for m in range(sdef.d))
    return CotangentSection(sdef, tuple(cz), tuple(cw))


def _dot(b, m, j, vars) -> Poly:
    """sum_k b[k] m[k][j]: the row vector b times column j of m, skipping
    zero factors."""
    return sum(
        (bk * row[j] for bk, row in zip(b, m) if not (bk.is_zero() or row[j].is_zero())),
        Poly.zero(vars),
    )


@dataclass(frozen=True)
class LeviReport:
    covector: dict
    matrix: HermitianMatrix
    inertia: tuple


def levi_form(sdef: StructureDef, xi: dict) -> LeviReport:
    """Levi form of the structure at the origin in the characteristic
    covector ``xi`` (entered in the coordinate coframe, real coefficients).

    Entry (j, k) is xi([L_j, conj(L_k)](0)) / 2i.  As xi is constant,
    xi([X, Y]) = X(xi(Y)) - Y(xi(X)), so with P_ab = conj(L_a)(xi(L_b))(0)
    the entry is (conj(P_jk) - P_kj) / 2i: only the frame coefficients'
    values and first partials at 0 enter, read from the order-1 frame jets.
    The inertia is computed exactly."""
    clean_xi = {}
    for name, val in xi.items():
        if name not in sdef.vars:
            raise ZeroCovector(f"unknown coordinate {name} in covector")
        if isinstance(val, GaussRat):
            if not val.is_real():
                raise ZeroCovector("covector must be real")
            val = val.re
        clean_xi[name] = Fraction(val)
    xi = clean_xi
    if all(v == 0 for v in xi.values()):
        raise ZeroCovector("covector must be nonzero")
    jets = frame_jets(sdef, 1)
    zero = Poly.zero(sdef.vars)
    # the order-1 jet of xi(L_b), whose value at 0 must vanish
    pairings = [sum((c * xi[m] for m, c in L.items() if m in xi), zero) for L in jets]
    for j, f in enumerate(pairings, start=1):
        if not f.constant_term().is_zero():
            raise NotCharacteristic(
                f"covector does not annihilate frame field {j} at the point"
            )
    # conj(L_a) at 0, as the nonzero values of its coefficients
    conj_at_0 = [
        [(m, v.conjugate()) for m, c in L.items() if not (v := c.constant_term()).is_zero()]
        for L in jets
    ]
    P = [
        [sum((v * f.diff(m).constant_term() for m, v in La), ZERO) for f in pairings]
        for La in conj_at_0
    ]
    n = len(jets)
    half_over_i = GaussRat(0, Fraction(-1, 2))  # 1/(2i)
    entries = [[ZERO] * n for _ in range(n)]
    for j in range(n):
        for k in range(j, n):
            val = (P[j][k].conjugate() - P[k][j]) * half_over_i
            entries[j][k] = val
            entries[k][j] = val.conjugate()
    matrix = HermitianMatrix(entries)
    return LeviReport(dict(xi), matrix, hermitian_inertia(matrix))


def characteristic_dim(sdef: StructureDef) -> int:
    """d - rank phi_t(0), which is d: every phi_k vanishes to second order
    at the origin, so phi_t(0) = 0."""
    return sdef.d
