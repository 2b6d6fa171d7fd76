import random
from fractions import Fraction
from itertools import combinations_with_replacement

import hypothesis.strategies as st

from involucalc.algebra import GaussRat, HermitianMatrix, Poly, RatFun, hermitian_inertia

# -- hypothesis strategies ---------------------------------------------------

fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def gauss_rationals(draw):
    return GaussRat(draw(fractions), draw(fractions))


@st.composite
def polys(draw, vars=("u", "v"), max_degree=3, max_terms=4, real=False):
    vars = tuple(vars)
    terms = {}
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    for _ in range(n_terms):
        exps = tuple(
            draw(st.integers(min_value=0, max_value=max_degree)) for _ in vars
        )
        if real:
            c = GaussRat(draw(fractions))
        else:
            c = draw(gauss_rationals())
        terms[exps] = c
    return Poly(vars, terms)


@st.composite
def unit_ratfuns(draw, vars=("u", "v"), max_degree=2):
    """Rational functions whose denominator does not vanish at the origin."""
    num = draw(polys(vars=vars, max_degree=max_degree))
    den = draw(polys(vars=vars, max_degree=max_degree))
    den = den + 1 if den.constant_term().is_zero() else den
    return RatFun(num, den)


# -- seeded random builders (for tests that loop over seeds) -----------------


def rand_fraction(rng: random.Random, span=4, den=5) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_gauss(rng: random.Random, real=False) -> GaussRat:
    if real:
        return GaussRat(rand_fraction(rng))
    return GaussRat(rand_fraction(rng), rand_fraction(rng))


def rand_poly(rng: random.Random, vars, max_degree=2, n_terms=3, real=False) -> Poly:
    vars = tuple(vars)
    terms = {}
    for _ in range(rng.randint(0, n_terms)):
        exps = [0] * len(vars)
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(len(vars))] += 1
        terms[tuple(exps)] = rand_gauss(rng, real=real)
    return Poly(vars, terms)


def poly_evaluate(p: Poly, point) -> GaussRat:
    """p at a full point, given as Fraction/int/GaussRat values in variable
    order (oracle: term by term, by repeated multiplication)."""
    point = [GaussRat.of(x) for x in point]
    if len(point) != len(p.vars):
        raise ValueError("point length does not match variables")
    total = GaussRat(0)
    for e, c in p.terms.items():
        v = c
        for x, k in zip(point, e):
            for _ in range(k):
                v = v * x
        total = total + v
    return total


def gauss_rank(rows) -> int:
    """Rank over the complex rationals by Gaussian elimination on GaussRat
    entries (oracle for the packed-row echelon)."""
    m = [[GaussRat.of(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        if rank == len(m):
            break
        pr = next((r for r in range(rank, len(m)) if not m[r][col].is_zero()), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        pv = m[rank][col]
        for r in range(rank + 1, len(m)):
            if not m[r][col].is_zero():
                f = m[r][col] / pv
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def rand_unit_triangular(rng: random.Random, r, vars, upper=True, real=False):
    from involucalc.algebra import RatFun as _RatFun, Poly as _Poly

    m = [
        [
            _RatFun.of(_Poly.one(vars)) if i == j else _RatFun.of(_Poly.zero(vars))
            for j in range(r)
        ]
        for i in range(r)
    ]
    for i in range(r):
        for j in range(r):
            if (j > i) if upper else (j < i):
                if rng.random() < 0.7:
                    m[i][j] = _RatFun.of(rand_poly(rng, vars, max_degree=2, n_terms=2, real=real))
    return tuple(tuple(row) for row in m)


def rand_invertible_matrix(rng: random.Random, r, vars, real=False):
    """Unit lower times unit upper triangular: determinant 1."""
    from involucalc.bundle import _mmul

    lo = rand_unit_triangular(rng, r, vars, upper=False, real=real)
    up = rand_unit_triangular(rng, r, vars, upper=True, real=real)
    return _mmul(lo, up)


def rand_flat_bundle(rng: random.Random, base, r):
    """Random flat bundle: frame change of the trivial connection."""
    from involucalc.bundle import VBundle, frame_change

    vars = base[0].vars
    T = rand_invertible_matrix(rng, r, vars)
    return frame_change(VBundle.trivial(base, r), T), T


# -- structures whose det W_s is not constant ----------------------------------


def dense_structure_text(nu, d, mu, seed):
    """A structure file whose phi_k, in turn, take every monomial of total
    degree 2 and 3 over ``structure_vars(nu, d, mu)`` in
    ``combinations_with_replacement`` order, each with the coefficient
    ``random.Random(seed).randint(-5, 5)``; a 0 drops the term."""
    from involucalc.structure import structure_vars

    rng = random.Random(seed)
    vars = structure_vars(nu, d, mu)
    phis = []
    for _ in range(d):
        terms = []
        for degree in (2, 3):
            for mono in combinations_with_replacement(vars, degree):
                c = rng.randint(-5, 5)
                if c:
                    terms.append(f"({c})*" + "*".join(mono))
        phis.append(" + ".join(terms))
    return f"[dims]\nnu = {nu} d = {d} mu = {mu}\n[phi]\n" + "".join(p + "\n" for p in phis)


def s2_structure(d):
    """phi_k = s1 t1^2 + t1^(k+1), k = 1..d: det W_s = 1 + i t1^2."""
    from involucalc.structure import StructureDef, structure_vars

    vars = structure_vars(0, d, 1)
    s1t2 = Poly.var(vars, "s1") * Poly.var(vars, "t1", 2)
    return StructureDef(0, d, 1, tuple(s1t2 + Poly.var(vars, "t1", k + 1) for k in range(1, d + 1)))


def s1_structure():
    """nu = 1, d = 3, mu = 2 with phi = (t1^3/3 + x1^2 t2^2 + s1 t1^2,
    t1^2 t2 + y1^2 t1^2, t2^4 + x1 y1 t1 t2 + s2^2): det W_s depends on t1 and s2."""
    from involucalc.structure import StructureDef, structure_vars

    vars = structure_vars(1, 3, 2)
    x1, y1, s1, s2, t1, t2 = (Poly.var(vars, v) for v in ("x1", "y1", "s1", "s2", "t1", "t2"))
    phi = (
        t1 * t1 * t1 * Fraction(1, 3) + x1 * x1 * t2 * t2 + s1 * t1 * t1,
        t1 * t1 * t2 + y1 * y1 * t1 * t1,
        t2 * t2 * t2 * t2 + x1 * y1 * t1 * t2 + s2 * s2,
    )
    return StructureDef(1, 3, 2, phi)


# -- symbolic oracles for the jet hull chain ----------------------------------


def apply_word(sdef, omega, word, frame=None):
    """Iterated symbolic derivative along frame indices, leftmost applied last:
    word (i, j) means L_i (L_j omega)."""
    from involucalc.hull import lie_derivative
    from involucalc.structure import build_frame

    if frame is None:
        frame = build_frame(sdef)
    for idx in reversed(word):
        omega = lie_derivative(sdef, frame[idx], omega)
    return omega


def word_value_at_origin(sdef, omega, word, frame=None):
    """Value at 0 of an iterated derivative, computed symbolically."""
    section = apply_word(sdef, omega, word, frame=frame)
    return tuple(c.value_at_origin() for c in section.components())


# -- symbolic oracle for the Levi form -------------------------------------------


def levi_oracle(sdef, xi):
    """(matrix, inertia) of the Levi form at 0: entry (j, k) is
    xi([L_j, conj(L_k)]) / 2i with the bracket built as a symbolic field and
    read at 0."""
    from involucalc.structure import VectorFieldSym, build_frame

    frame = build_frame(sdef)
    conj = [VectorFieldSym(L.vars, {m: c.conjugate() for m, c in L.coeffs.items()}) for L in frame]
    n = len(frame)
    entries = [[GaussRat(0)] * n for _ in range(n)]
    for j in range(n):
        for k in range(j, n):
            br = frame[j].bracket(conj[k])
            val = sum(
                (GaussRat.of(v) * br.coeff(m).value_at_origin() for m, v in xi.items()), GaussRat(0)
            ) * GaussRat(0, Fraction(-1, 2))
            entries[j][k] = val
            entries[k][j] = val.conjugate()
    matrix = HermitianMatrix(entries)
    return matrix, hermitian_inertia(matrix)
