"""Flat partial connections over a commuting base frame.

Conventions.  A bundle of rank r over a base frame L_1..L_n stores one r x r
matrix per frame field with entries

    (D_j)[alpha][beta] = D^alpha_beta(L_j),     D_L w^alpha = D^alpha_beta(L) w^beta,

so that for a section with component row vector eta the derivative components
are L_j eta + eta . D_j, a solution satisfies L_j eta = -eta . D_j, and a
matrix Lambda of solution rows satisfies L_j Lambda = -Lambda D_j.

The base fields commute pairwise, as the frame of ``build_frame`` does (the
standard normal form of a locally integrable structure); this is checked at
construction, and the curvature identity

    L_j D_k - L_k D_j + D_k D_j - D_j D_k = 0

is checked; bundles are flat by admission."""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    DenominatorVanishesAtBase,
    GaussRat,
    Poly,
    RatFun,
    ZeroDenominator,
    ratfun_det,
    ratfun_matrix_inverse,
)
from .structure import StructureDef, VectorFieldSym, build_frame


class BundleError(Exception):
    pass


class NotFlat(BundleError):
    pass


class BaseFrameMismatch(BundleError):
    pass


class NotInvertible(BundleError):
    pass


class NotInvertibleAtBase(BundleError):
    pass


# -- small RatFun matrix helpers ----------------------------------------------


def _zero(vars):
    return RatFun.of(Poly.zero(vars))


def _mat(entries):
    return tuple(tuple(row) for row in entries)


def _mzero(r, vars):
    return _mat([[_zero(vars)] * r for _ in range(r)])


def _madd(a, b):
    return _mat([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])


def _msub(a, b):
    return _mat([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])


def _mmul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(p):
            acc = a[i][0] * b[0][j]
            for k in range(1, m):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return _mat(out)


def _mapply(L: VectorFieldSym, a):
    return _mat([[L.apply(x) for x in row] for row in a])


def _mscale(a, f):
    return _mat([[x * f for x in row] for row in a])


def _mtranspose(a):
    return _mat(list(zip(*a)))


class VBundle:
    """Rank-r bundle with a flat partial connection over a commuting base frame."""

    __slots__ = ("vars", "base", "rank", "D", "flat")

    def __init__(self, base, D, require_flat=True):
        base = tuple(base)
        if not base:
            raise BundleError("base frame must be nonempty")
        vars = base[0].vars
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "base", base)
        D = tuple(_mat(m) for m in D)
        if len(D) != len(base):
            raise BundleError("one connection matrix per base field required")
        rank = len(D[0])
        for m in D:
            if len(m) != rank or any(len(row) != rank for row in m):
                raise BundleError("connection matrices must be square of equal size")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "D", D)
        for j in range(len(base)):
            for k in range(j + 1, len(base)):
                if not base[j].bracket(base[k]).is_zero():
                    raise BundleError(f"base fields L{j + 1} and L{k + 1} do not commute")
        verdict = flatness_check(self)
        object.__setattr__(self, "flat", verdict)
        if require_flat and not verdict:
            raise NotFlat(f"curvature identity fails at {verdict.failure[:4]}")

    def __setattr__(self, name, value):
        raise AttributeError("VBundle is immutable")

    def same_base(self, other) -> bool:
        return len(self.base) == len(other.base) and all(
            a == b for a, b in zip(self.base, other.base)
        )

    @classmethod
    def trivial(cls, base, rank):
        base = tuple(base)
        vars = base[0].vars
        return cls(base, [_mzero(rank, vars) for _ in base])


def canonical_annihilator_bundle(sdef: StructureDef) -> VBundle:
    """The annihilator bundle in the first-integral coframe: the canonical
    derivative acts componentwise there, so all connection matrices vanish."""
    return VBundle.trivial(build_frame(sdef), sdef.nu + sdef.d)


@dataclass(frozen=True)
class FlatnessVerdict:
    flat: bool
    failure: tuple | None = None  # (j, k, alpha, beta, residual)

    def __bool__(self):
        return self.flat


def flatness_check(b: VBundle) -> FlatnessVerdict:
    """Evaluate the curvature identity exactly for all j < k."""
    n = len(b.base)
    for j in range(n):
        for k in range(j + 1, n):
            lhs = _msub(
                _madd(_mapply(b.base[j], b.D[k]), _mmul(b.D[k], b.D[j])),
                _madd(_mapply(b.base[k], b.D[j]), _mmul(b.D[j], b.D[k])),
            )
            for alpha in range(b.rank):
                for beta in range(b.rank):
                    if not lhs[alpha][beta].is_zero():
                        return FlatnessVerdict(
                            False, (j + 1, k + 1, alpha + 1, beta + 1, lhs[alpha][beta])
                        )
    return FlatnessVerdict(True)


def _frame_inverse(T):
    """T^{-1} for a frame change T, which must be invertible at the base
    point: its entries divide by det T, and a RatFun's denominator is a unit
    there."""
    try:
        return ratfun_matrix_inverse(T)
    except ZeroDenominator:
        raise NotInvertible("frame change matrix is singular") from None
    except DenominatorVanishesAtBase:
        raise NotInvertibleAtBase("frame change matrix is singular at the base point") from None


def frame_change(b: VBundle, T) -> VBundle:
    """New bundle in the frame w~^alpha = T^alpha_beta w^beta:
    D~_j = (L_j T + T D_j) T^{-1}."""
    T = _mat(T)
    Tinv = _frame_inverse(T)
    newD = []
    for L, Dj in zip(b.base, b.D):
        newD.append(_mmul(_madd(_mapply(L, T), _mmul(T, Dj)), Tinv))
    return VBundle(b.base, newD)


def transform_section(b: VBundle, T, eta):
    """Components of a section in the changed frame: eta~ = eta . T^{-1}."""
    row = _mmul((tuple(eta),), _frame_inverse(_mat(T)))
    return tuple(row[0])


def dual_bundle(b: VBundle) -> VBundle:
    """Dual connection matrices are minus the transposes."""
    newD = [_mscale(_mtranspose(Dj), GaussRat(-1)) for Dj in b.D]
    return VBundle(b.base, newD)


def tensor_bundle(b: VBundle, b2: VBundle) -> VBundle:
    """Kronecker-sum connection on the tensor product, frame index pairing
    (alpha, gamma) in row-major order."""
    if not b.same_base(b2):
        raise BaseFrameMismatch("tensor factors live over different base frames")
    r1, r2 = b.rank, b2.rank
    vars = b.vars
    newD = []
    for Dj, Ej in zip(b.D, b2.D):
        m = [[_zero(vars)] * (r1 * r2) for _ in range(r1 * r2)]
        for a in range(r1):
            for g in range(r2):
                row = a * r2 + g
                for bb in range(r1):
                    m[row][bb * r2 + g] = m[row][bb * r2 + g] + Dj[a][bb]
                for dd in range(r2):
                    m[row][a * r2 + dd] = m[row][a * r2 + dd] + Ej[g][dd]
        newD.append(_mat(m))
    return VBundle(b.base, newD)


def hom_bundle(b: VBundle, b2: VBundle) -> VBundle:
    """Hom(E, F) = E* tensor F."""
    if not b.same_base(b2):
        raise BaseFrameMismatch("hom factors live over different base frames")
    return tensor_bundle(dual_bundle(b), b2)


@dataclass(frozen=True)
class SectionVerdict:
    solution: bool
    failure: tuple | None = None  # (field index, component, residual)

    def __bool__(self):
        return self.solution


def is_solution_section(b: VBundle, eta) -> SectionVerdict:
    """Exact residual check of L_j eta = -eta . D_j for all j."""
    eta = tuple(RatFun.of(x, b.vars) for x in eta)
    if len(eta) != b.rank:
        raise BundleError("section has wrong number of components")
    for j, (L, Dj) in enumerate(zip(b.base, b.D), start=1):
        for beta in range(b.rank):
            res = L.apply(eta[beta])
            for alpha in range(b.rank):
                res = res + eta[alpha] * Dj[alpha][beta]
            if not res.is_zero():
                return SectionVerdict(False, (j, beta + 1, res))
    return SectionVerdict(True)


def pair_sections(eta_dual, omega):
    """Natural pairing of dual components against components."""
    acc = None
    for a, w in zip(eta_dual, omega):
        term = a * w
        acc = term if acc is None else acc + term
    return acc


@dataclass(frozen=True)
class IntegratingVerdict:
    integrating: bool
    failure: tuple | None = None

    def __bool__(self):
        return self.integrating


def is_integrating_frame(b: VBundle, lam) -> IntegratingVerdict:
    """Exact residual check of L_j Lambda = -Lambda D_j; Lambda must be
    invertible at the base point."""
    lam = _mat(lam)
    det = ratfun_det(lam)
    if det.is_zero() or det.value_at_origin().is_zero():
        raise NotInvertibleAtBase("matrix is singular at the base point")
    for j, (L, Dj) in enumerate(zip(b.base, b.D), start=1):
        res = _madd(_mapply(L, lam), _mmul(lam, Dj))
        for a in range(b.rank):
            for c in range(b.rank):
                if not res[a][c].is_zero():
                    return IntegratingVerdict(False, (j, a + 1, c + 1, res[a][c]))
    return IntegratingVerdict(True)
