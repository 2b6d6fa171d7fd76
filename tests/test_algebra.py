from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from involucalc.algebra import (
    AlgebraError,
    DegreeOverflow,
    GaussRat,
    HermitianMatrix,
    NotHermitian,
    Poly,
    RatFun,
    DenominatorVanishesAtBase,
    adjugate,
    apply_field_truncated,
    det,
    exact_rank,
    hermitian_inertia,
    mul_truncated,
    ratfun_jet,
    ZERO,
)
from conftest import gauss_rationals, polys, unit_ratfuns, rand_gauss, rand_poly

import random


def P(vars, s=None):
    return Poly.var(vars, s) if s else Poly.one(vars)


# -- GaussRat -----------------------------------------------------------------


def test_gaussrat_field_ops():
    a = GaussRat(Fraction(1, 2), Fraction(-3, 4))
    b = GaussRat(2, 5)
    assert (a * b) / b == a
    assert a + (-a) == GaussRat(0)
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).is_real()


@given(gauss_rationals(), gauss_rationals(), gauss_rationals())
def test_gaussrat_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a


# -- Poly ----------------------------------------------------------------------


@given(polys(), polys(), polys())
@settings(max_examples=60)
def test_poly_ring_axioms(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p + q == q + p


@given(polys(), st.integers(min_value=0, max_value=6))
@settings(max_examples=40)
def test_poly_power_is_the_product_of_its_factors(p, n):
    product = Poly.one(p.vars)
    for _ in range(n):
        product = product * p
    assert p**n == product
    assert p ** (2 * n) == product * product


def test_poly_diff_and_eval():
    vars = ("u", "v")
    p = P(vars, "u") * P(vars, "u") * 3 + P(vars, "v")
    assert p.diff("u") == P(vars, "u") * 6
    assert p.evaluate([Fraction(2), Fraction(1)]) == GaussRat(13)


def test_poly_var_mismatch_raises():
    with pytest.raises(ValueError):
        Poly.var(("u",), "u") + Poly.var(("v",), "v")


# -- RatFun ---------------------------------------------------------------------


def test_ratfun_cross_multiplication_equality():
    vars = ("u",)
    u = P(vars, "u")
    unit = Poly.one(vars) + u
    assert RatFun(u * unit, unit) == RatFun(u)
    g = RatFun(u + 1, u * 2 + 2)
    assert g == RatFun(Poly.const(vars, Fraction(1, 2)))


def test_ratfun_trailing_denominator_normalization():
    vars = ("u",)
    u = P(vars, "u")
    f = RatFun(u, Poly.const(vars, 2) + u * 4)
    assert f.den.constant_term() == GaussRat(1)


def test_ratfun_sum_keeps_the_common_denominator_power():
    vars = ("u", "v")
    u, v = P(vars, "u"), P(vars, "v")
    f = Poly.one(vars) + u * v * GaussRat(0, 1)  # a unit at the origin
    a, b = RatFun(u, f), RatFun(v, f)
    assert (a + b).den == f  # lifted to the larger power, not multiplied
    assert (a * b).den == f * f
    assert a.diff("u").den == f * f  # quotient rule at power 2, not f^2 * f^2
    g = RatFun(u, Poly.one(vars) + v)
    assert g.diff("u").den == Poly.one(vars) + v  # the factor does not depend on u


def test_ratfun_equality_across_factorizations():
    vars = ("u", "v")
    u, v = P(vars, "u"), P(vars, "v")
    f = Poly.one(vars) + u + v * v
    assert RatFun(u, f) == RatFun(u * f, f * f)
    assert RatFun(u, f) != RatFun(v, f)
    assert RatFun(u, f) - RatFun(u * f, f * f) == 0


def test_ratfun_conjugate_and_coordinate_factors():
    vars = ("u", "v")
    u = P(vars, "u")
    i = GaussRat(0, 1)
    a = RatFun(Poly.one(vars), Poly.one(vars) + u * i)
    assert a.conjugate() == RatFun(Poly.one(vars), Poly.one(vars) - u * i)
    assert (a + a.conjugate()).den == Poly.one(vars) + u * u
    # a coordinate vanishes at the origin, so it is never a denominator factor
    with pytest.raises(DenominatorVanishesAtBase):
        RatFun(Poly.one(vars), u)
    with pytest.raises(DenominatorVanishesAtBase):
        RatFun.of(Poly.one(vars)) / u


def test_ratfun_factor_cache_is_dropped_with_its_last_holder():
    import gc

    from involucalc import algebra

    vars = ("u", "v")
    f = Poly.one(vars) + P(vars, "u") * 7 + P(vars, "v") ** 5 * 11
    a = RatFun(Poly.one(vars), f)
    b = a + RatFun(P(vars, "v"), f)  # shares the factor of f, power 1
    assert b.den == f and b.diff("u").den == f * f
    assert f in algebra._LIVE_FACTORS
    del a, b
    gc.collect()
    assert f not in algebra._LIVE_FACTORS


@given(unit_ratfuns(), unit_ratfuns())
@settings(max_examples=40)
def test_ratfun_factored_arithmetic_is_a_differential_field(f, g):
    assert (f + g).value_at_origin() == f.value_at_origin() + g.value_at_origin()
    assert (f * g).value_at_origin() == f.value_at_origin() * g.value_at_origin()
    assert (f * g).diff("u") == f.diff("u") * g + f * g.diff("u")
    assert (f + g).diff("v") - g.diff("v") == f.diff("v")
    if not g.value_at_origin().is_zero():
        assert (f / g) * g == f
    elif not g.is_zero():
        with pytest.raises(DenominatorVanishesAtBase):
            f / g


@given(unit_ratfuns(), unit_ratfuns())
@settings(max_examples=40)
def test_ratfun_jet_is_multiplicative(f, g):
    k = 3
    lhs = ratfun_jet(f * g, k)
    rhs = mul_truncated(ratfun_jet(f, k), ratfun_jet(g, k), k)
    assert lhs == rhs


def test_ratfun_jet_geometric_series():
    vars = ("u",)
    u = P(vars, "u")
    f = RatFun(Poly.one(vars), Poly.one(vars) + u)
    assert ratfun_jet(f, 2) == Poly.one(vars) - u + u * u


def test_ratfun_jet_polynomial_passthrough():
    # a polynomial is its own jet once the terms above the order are dropped
    vars = ("x", "y")
    x, y = P(vars, "x"), P(vars, "y")
    assert ratfun_jet(RatFun(x + y + x * y), 1) == x + y


def test_ratfun_jet_complex_denominator():
    # expand 1/(1 + i s); multiplying back by (1 + i s) must give 1
    vars = ("s",)
    s = P(vars, "s")
    den = Poly.one(vars) + s * GaussRat(0, 1)
    j = ratfun_jet(RatFun(Poly.one(vars), den), 2)
    assert j == Poly.one(vars) - s * GaussRat(0, 1) - s * s
    assert mul_truncated(j, den, 2) == Poly.one(vars)


def test_ratfun_jet_denominator_vanishing():
    # refused when it is built, so no jet is asked of it
    vars = ("u",)
    u = P(vars, "u")
    with pytest.raises(DenominatorVanishesAtBase):
        RatFun(Poly.one(vars), u + u * u)


@given(polys(max_degree=2), polys(max_degree=2))
@settings(max_examples=40)
def test_jet_truncated_product(p, q):
    k = 2
    assert mul_truncated(p, q, k) == (p * q).truncate(k)


@st.composite
def fields_and_jets(draw):
    """(coefficients by name, jet, order) over 2 to 4 coordinates; the jet's
    numerators are scaled by 1/k so that its denominator is not 1."""
    vars = ("u", "v", "w", "z")[: draw(st.integers(min_value=2, max_value=4))]
    names = draw(st.lists(st.sampled_from(vars), min_size=1, max_size=len(vars), unique=True))
    coeffs = {name: draw(polys(vars=vars, max_degree=2, max_terms=3)) for name in names}
    scale = GaussRat(Fraction(1, draw(st.integers(min_value=2, max_value=7))))
    jet = draw(polys(vars=vars, max_degree=4, max_terms=5)) * scale
    return coeffs, jet, draw(st.integers(min_value=0, max_value=4))


@given(fields_and_jets())
@settings(max_examples=60)
def test_apply_field_truncated_matches_diff_mul_add(case):
    coeffs, jet, order = case
    expected = Poly.zero(jet.vars)
    for name, c in coeffs.items():
        expected = expected + mul_truncated(c, jet.diff(name), order)
    assert apply_field_truncated(coeffs, jet, order) == expected


def test_apply_field_truncated_can_truncate_to_zero():
    vars = ("u", "v")
    u, v = P(vars, "u"), P(vars, "v")
    jet = (u ** 3 + v ** 3 * GaussRat(0, 1)) * GaussRat(Fraction(1, 3))
    coeffs = {"u": Poly.one(vars) * GaussRat(Fraction(1, 2)), "v": u}
    got = apply_field_truncated(coeffs, jet, 1)
    assert got.is_zero() and got == Poly.zero(vars)
    assert apply_field_truncated(coeffs, jet, 2) == u * u * GaussRat(Fraction(1, 2))


# -- the packed Poly kernel against exponent-tuple / GaussRat oracles ---------------
#
# The oracles are the loops Poly ran before its terms were packed.  They take
# and return plain dicts exponent tuple -> GaussRat, so the comparison covers
# the contents and the iteration order of ``terms``.


def oracle_mul(p, q, order=None):
    """p * q, skipping pairs whose degrees sum past ``order`` (if given)."""
    res = {}
    for e1, c1 in p.terms.items():
        d1 = sum(e1)
        if order is not None and d1 > order:
            continue
        for e2, c2 in q.terms.items():
            if order is not None and d1 + sum(e2) > order:
                continue
            e = tuple(a + b for a, b in zip(e1, e2))
            s = res.get(e, ZERO) + c1 * c2
            if s.is_zero():
                res.pop(e, None)
            else:
                res[e] = s
    return res


def oracle_add(p_terms, q_terms):
    res = dict(p_terms)
    for e, c in q_terms.items():
        s = res.get(e, ZERO) + c
        if s.is_zero():
            res.pop(e, None)
        else:
            res[e] = s
    return res


def oracle_diff(p, j):
    res = {}
    for e, c in p.terms.items():
        if e[j]:
            res[e[:j] + (e[j] - 1,) + e[j + 1 :]] = c * e[j]
    return res


def mixed_poly(rng, vars, max_degree=4, n_terms=7):
    """Gaussian coefficients with unrelated denominators up to 12, half of
    them from a small pool so that real or imaginary parts alone cancel."""
    terms = {}
    for _ in range(rng.randint(0, n_terms)):
        exps = [0] * len(vars)
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(len(vars))] += 1
        if rng.random() < 0.5:
            re, im = rng.choice((-1, 0, 1, Fraction(1, 2))), rng.choice((-1, 0, 1))
        else:
            re = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            im = Fraction(rng.randint(-30, 30), rng.randint(1, 12)) if rng.random() < 0.6 else 0
        terms[tuple(exps)] = GaussRat(re, im)
    return Poly(vars, terms)


def same_terms(p, expected):
    assert list(p.terms.items()) == list(expected.items())


@pytest.mark.parametrize("seed", range(6))
def test_packed_arithmetic_matches_tuple_oracles(seed):
    rng = random.Random(seed)
    vars = ("u", "v", "w")
    for _ in range(25):
        p, q = mixed_poly(rng, vars), mixed_poly(rng, vars)
        if rng.random() < 0.3:  # shared support, so sums and products cancel
            q = q + p * GaussRat(rng.choice((-1, 1)))
        same_terms(p * q, oracle_mul(p, q))
        same_terms(p + q, oracle_add(p.terms, q.terms))
        same_terms(p - q, oracle_add(p.terms, {e: -c for e, c in q.terms.items()}))
        k = rng.randint(0, 6)
        same_terms(mul_truncated(p, q, k), oracle_mul(p, q, k))
        same_terms(p.truncate(k), {e: c for e, c in p.terms.items() if sum(e) <= k})
        j = rng.randrange(len(vars))
        same_terms(p.diff(vars[j]), oracle_diff(p, j))
        same_terms(p.conjugate(), {e: c.conjugate() for e, c in p.terms.items()})
        c = rand_gauss(rng)
        same_terms(p * c, {e: a * c for e, a in p.terms.items() if not (a * c).is_zero()})
        if p.is_zero():
            continue
        lo = tuple(min(e[i] for e in p.terms) for i in range(len(vars)))
        assert p.min_exponents() == lo
        same_terms(p.shift_divide(lo), {tuple(a - b for a, b in zip(e, lo)): c for e, c in p.terms.items()})
        with pytest.raises(ValueError):  # some term misses each variable of hi
            p.shift_divide(tuple(x + 1 for x in lo))


@pytest.mark.parametrize("seed", range(4))
def test_packed_equality_and_hash_ignore_construction(seed):
    rng = random.Random(100 + seed)
    vars = ("u", "v")
    for _ in range(20):
        p = mixed_poly(rng, vars)
        items = list(p.terms.items())
        rng.shuffle(items)
        q = Poly(vars, dict(items))
        assert q == p and hash(q) == hash(p)
        # the same polynomial reached through arithmetic over other denominators
        r = mixed_poly(rng, vars)
        s = (p + r) * GaussRat(Fraction(3, 7)) - r * GaussRat(Fraction(3, 7))
        assert s == p * GaussRat(Fraction(3, 7))
        assert hash(s) == hash(p * GaussRat(Fraction(3, 7)))
        assert (p + r != p) == (not r.is_zero())


def test_shift_divide_rejects_a_term_short_in_one_variable():
    # u^4 has the degree of u*v*w and more, so only the v and w fields borrow
    vars = ("u", "v", "w")
    u, v, w = (Poly.var(vars, x) for x in vars)
    with pytest.raises(ValueError):
        (u ** 4 + u * v * w).shift_divide((1, 1, 1))
    assert (u ** 4 * v * w + u * v * w).shift_divide((1, 1, 1)) == u ** 3 + 1


def test_packed_terms_are_read_only():
    p = Poly(("u",), {(1,): GaussRat(Fraction(1, 2))})
    with pytest.raises(TypeError):
        p.terms[(2,)] = GaussRat(1)
    assert dict(p.terms) == {(1,): GaussRat(Fraction(1, 2))}


def test_degree_past_the_packed_field_raises_a_typed_error():
    vars = ("u", "v")
    u = Poly.var(vars, "u")
    big = (u ** 64) ** 64  # degree 4096 fits
    assert big.total_degree() == 4096
    with pytest.raises(DegreeOverflow):
        big ** 64
    with pytest.raises(AlgebraError):
        Poly(vars, {(40000, 0): 1})
    # a truncated product never forms the terms it drops
    huge = big ** 4 * big ** 3  # degree 28672
    assert mul_truncated(huge, huge, 10).is_zero()
    with pytest.raises(DegreeOverflow):
        huge * huge


# -- Hermitian inertia -------------------------------------------------------------


def test_inertia_identity():
    one = GaussRat(1)
    zero = GaussRat(0)
    h = HermitianMatrix(
        [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    )
    assert hermitian_inertia(h) == (3, 0, 0)


def test_inertia_diag_mixed():
    assert hermitian_inertia([[GaussRat(1), GaussRat(0)], [GaussRat(0), GaussRat(-1)]]) == (1, 1, 0)


def test_inertia_offdiagonal_pair():
    # characteristic polynomial of [[0, i], [-i, 0]] is l^2 - 1: eigenvalues +1, -1
    i = GaussRat(0, 1)
    h = [[GaussRat(0), i], [-i, GaussRat(0)]]
    trace = GaussRat(0)
    assert trace == GaussRat(0) and det(h) == GaussRat(-1)
    assert hermitian_inertia(h) == (1, 1, 0)


def test_not_hermitian_rejected():
    with pytest.raises(NotHermitian):
        HermitianMatrix([[GaussRat(0), GaussRat(1)], [GaussRat(1, 1), GaussRat(0)]])


@given(st.integers(min_value=0, max_value=2**30))
@settings(max_examples=25, deadline=None)
def test_inertia_congruence_invariant(seed):
    rng = random.Random(seed)
    r = rng.randint(1, 4)
    a = [[rand_gauss(rng) for _ in range(r)] for _ in range(r)]
    # h = a + a* is Hermitian
    h = [
        [a[j][k] + a[k][j].conjugate() for k in range(r)]
        for j in range(r)
    ]
    # p = unit lower triangular times unit upper triangular: invertible
    p = [[GaussRat(1) if j == k else GaussRat(0) for k in range(r)] for j in range(r)]
    for j in range(r):
        for k in range(r):
            if j != k and rng.random() < 0.6:
                p[j][k] = rand_gauss(rng)
    if det(p).is_zero():
        for j in range(r):
            p[j][j] = p[j][j] + GaussRat(7)
    if det(p).is_zero():
        return
    php = [
        [
            sum(
                (p[j][m] * h[m][l] * p[k][l].conjugate() for m in range(r) for l in range(r)),
                GaussRat(0),
            )
            for k in range(r)
        ]
        for j in range(r)
    ]
    assert hermitian_inertia(php) == hermitian_inertia(h)


# -- determinant and adjugate ---------------------------------------------------------

VARS = ("u", "v")


def rand_unit_ratfun(rng):
    den = rand_poly(rng, VARS, n_terms=2)
    return RatFun(rand_poly(rng, VARS, n_terms=2), den + 1 if den.constant_term().is_zero() else den)


def matmul(a, b):
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(1, n)), a[i][0] * b[0][j]) for j in range(n)]
        for i in range(n)
    ]


def assert_adjugate_identity(m, zero, one):
    d = det(m)
    n = len(m)
    expected = [[d if i == j else zero for j in range(n)] for i in range(n)]
    assert matmul(adjugate(m), m) == expected
    assert matmul(m, adjugate(m)) == expected
    assert adjugate([[m[0][0]]]) == [[one]]


@pytest.mark.parametrize("seed", range(4))
def test_adjugate_times_matrix_is_det_poly(seed):
    rng = random.Random(seed)
    m = [[rand_poly(rng, VARS) for _ in range(3)] for _ in range(3)]
    assert_adjugate_identity(m, Poly.zero(VARS), Poly.one(VARS))


@pytest.mark.parametrize("seed", range(3))
def test_adjugate_times_matrix_is_det_ratfun(seed):
    rng = random.Random(100 + seed)
    m = [[rand_unit_ratfun(rng) for _ in range(3)] for _ in range(3)]
    assert_adjugate_identity(m, RatFun(Poly.zero(VARS)), RatFun(Poly.one(VARS)))


@pytest.mark.parametrize("seed", range(4))
def test_det_commutes_with_evaluation(seed):
    rng = random.Random(200 + seed)
    n = rng.randint(2, 4)
    m = [[rand_poly(rng, VARS) for _ in range(n)] for _ in range(n)]
    point = [rand_gauss(rng), rand_gauss(rng)]
    values = [[p.evaluate(point) for p in row] for row in m]
    assert det(m).evaluate(point) == det(values)


def test_det_zero_first_row_keeps_ring():
    z = Poly.zero(VARS)
    m = [[z, z], [Poly.var(VARS, "u"), Poly.one(VARS)]]
    assert det(m) == z and isinstance(det(m), Poly)


# -- exact rank ----------------------------------------------------------------------


def minor_rank(m):
    """Rank by brute-force enumeration of square minors (oracle for exact_rank)."""
    nr, nc = len(m), len(m[0]) if m else 0
    for size in range(min(nr, nc), 0, -1):
        for ri in combinations(range(nr), size):
            for ci in combinations(range(nc), size):
                if not det([[m[r][c] for c in ci] for r in ri]).is_zero():
                    return size
    return 0


def test_rank_zero_matrix():
    z = GaussRat(0)
    assert exact_rank([[z, z, z], [z, z, z]]) == 0
    assert exact_rank([]) == 0
    assert exact_rank([[], []]) == 0


def test_rank_stacked_identity():
    one = GaussRat(1)
    z = GaussRat(0)
    assert exact_rank([[one, z], [z, one], [one, one]]) == 2


@given(st.integers(min_value=0, max_value=2**30))
@settings(max_examples=30, deadline=None)
def test_rank_matches_minor_enumeration(seed):
    rng = random.Random(seed)
    nr, nc = rng.randint(1, 4), rng.randint(1, 4)
    m = [[rand_gauss(rng) if rng.random() < 0.7 else GaussRat(0) for _ in range(nc)] for _ in range(nr)]
    assert exact_rank(m) == minor_rank(m)


def test_rank_invariant_under_row_scaling():
    rng = random.Random(7)
    m = [[rand_gauss(rng) for _ in range(3)] for _ in range(3)]
    scaled = [[x * GaussRat(Fraction(5, 3)) for x in m[0]]] + m[1:]
    assert exact_rank(m) == exact_rank(scaled)


@given(st.integers(min_value=0, max_value=2**30))
@settings(max_examples=30, deadline=None)
def test_inertia_matches_numeric_eigenvalues(seed):
    # dual route: exact symmetric elimination vs floating eigenvalues
    import numpy as np

    rng = random.Random(seed)
    r = rng.randint(1, 5)
    a = [[rand_gauss(rng) for _ in range(r)] for _ in range(r)]
    h = [[a[j][k] + a[k][j].conjugate() for k in range(r)] for j in range(r)]
    exact = hermitian_inertia(h)
    m = np.array([[complex(x) for x in row] for row in h])
    eig = np.linalg.eigvalsh(m)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(eig))))
    numeric = (
        int(np.sum(eig > tol)),
        int(np.sum(eig < -tol)),
        int(np.sum(np.abs(eig) <= tol)),
    )
    # float zeros can be ambiguous; compare only when the gap is clean
    if all(abs(e) > tol or abs(e) < tol / 10 for e in eig):
        assert exact == numeric


@given(st.integers(min_value=0, max_value=2**30))
@settings(max_examples=30, deadline=None)
def test_rank_matches_numpy(seed):
    import numpy as np

    rng = random.Random(seed)
    nr, nc = rng.randint(1, 5), rng.randint(1, 5)
    rows = [
        [rand_gauss(rng) if rng.random() < 0.6 else GaussRat(0) for _ in range(nc)]
        for _ in range(nr)
    ]
    m = np.array([[complex(x) for x in row] for row in rows])
    assert exact_rank(rows) == np.linalg.matrix_rank(m, tol=1e-9)
