import random

import pytest

from involucalc.algebra import GaussRat, Poly, RatFun
from involucalc.autosys import (
    AutosysError,
    RealVectorFieldSym,
    check_candidate,
    equation_residual,
    generate_system,
)
from involucalc.catalog import (
    complex_structure,
    crossing_powers,
    disk_times_line,
    flat_structure,
    standard_mizohata,
    three_quadrics,
)
from involucalc.structure import StructureDef, build_frame, structure_vars
from conftest import rand_poly


def candidate_residuals_direct(sdef, X):
    """Oracle: residuals computed as L(dF(X)) without the emitted system,
    one RatFun per (integral, field)."""
    frame = build_frame(sdef)
    out = []
    for label, F in zip(sdef.integral_labels(), sdef.first_integrals()):
        dFX = Poly.zero(sdef.vars)
        for c in sdef.vars:
            fc = F.diff(c)
            if not fc.is_zero():
                dFX = dFX + fc * X.coeff(c)
        for i, L in enumerate(frame, start=1):
            out.append(((label, i), L.apply(dFX)))
    return out


def real_field(sdef, **coeffs):
    vars = sdef.vars
    built = {}
    for name, expr in coeffs.items():
        built[name] = expr if isinstance(expr, Poly) else Poly.const(vars, expr)
    return RealVectorFieldSym(vars, built)


def denominator_fixture():
    # phi depends on s, so det W_s is a genuine unit and equations get cleared
    vars = structure_vars(0, 1, 1)
    t = Poly.var(vars, "t1")
    s = Poly.var(vars, "s1")
    return StructureDef(0, 1, 1, (t * t + t * s * s,))


# -- system generation ----------------------------------------------------------


def test_complex_structure_system_is_cauchy_riemann():
    sdef = complex_structure(1)
    sys = generate_system(sdef)
    assert len(sys.equations) == 1
    eq = sys.equations[0]
    # L dZ(X) = dzbar(u_x + i u_y): four first-order terms, no zeroth order
    assert all(t.deriv is not None for t in eq.terms)
    assert len(eq.terms) == 4


def test_flat_structure_system():
    sdef = flat_structure(1, 1)
    sys = generate_system(sdef)
    assert len(sys.equations) == 1
    eq = sys.equations[0]
    assert [(t.unknown, t.deriv) for t in eq.terms] == [("s1", "t1")]


def test_equation_count_before_simplification():
    sdef = three_quadrics()
    sys = generate_system(sdef)
    assert len(sys.equations) == (sdef.nu + sdef.d) * (sdef.nu + sdef.mu)


def test_crossing_system_contains_displayed_equation():
    # the real part of the W1 equation reads
    # db/dt + t^{2l} da/dx + t^{l+k} da/dy = 0  (x=s1, y=s2, t=t1, a=u_t1, b=u_s1)
    k, l = 1, 2
    sdef = crossing_powers(k, l)
    sys = generate_system(sdef)
    eq = next(e for e in sys.equations if e.integral == "W1")
    vars = sdef.vars
    got = {(t.unknown, t.deriv): t.coeff for t in eq.terms}
    # complex equation: (s1 deriv t1) + i t^l (t1 deriv t1) + t^{2l}(t1 deriv s1)
    #                   + t^{l+k}(t1 deriv s2) - i t^l (s1 deriv s1) - i t^k (s1 deriv s2) ...
    assert got[("s1", "t1")] == Poly.one(vars)
    assert got[("t1", "s1")] == Poly.var(vars, "t1", 2 * l)
    assert got[("t1", "s2")] == Poly.var(vars, "t1", l + k)
    # zeroth-order term from d/dt(t^l a)
    assert got[("t1", None)] == Poly.var(vars, "t1", l - 1) * GaussRat(0, l)


# -- candidate verdicts -----------------------------------------------------------


def test_zero_field_is_automorphism_everywhere():
    for sdef in [
        complex_structure(1),
        standard_mizohata(1, 2),
        crossing_powers(1, 2),
        three_quadrics(),
        disk_times_line(),
        denominator_fixture(),
    ]:
        X = RealVectorFieldSym(sdef.vars, {})
        assert check_candidate(sdef, X).automorphism


def test_complex_structure_rotation_scaling():
    sdef = complex_structure(1)
    vars = sdef.vars
    x, y = Poly.var(vars, "x1"), Poly.var(vars, "y1")
    assert check_candidate(sdef, real_field(sdef, x1=x, y1=y)).automorphism
    v = check_candidate(sdef, real_field(sdef, x1=x))
    assert not v.automorphism
    # residual is the constant 1/2 after clearing
    assert v.failure[1].is_constant()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_complex_structure_holomorphic_family(n):
    # X with dZ(X) = z^n is an automorphism: components are Re and Im of z^n
    sdef = complex_structure(1)
    vars = sdef.vars
    z = Poly.var(vars, "x1") + Poly.var(vars, "y1") * GaussRat(0, 1)
    zn = z**n
    X = real_field(sdef, x1=zn.real_part(), y1=zn.imag_part())
    assert check_candidate(sdef, X).automorphism


def test_disk_times_line_inert_direction():
    # any real a(t) d/dt is an automorphism of the product structure
    sdef = disk_times_line()
    vars = sdef.vars
    t = Poly.var(vars, "t1")
    assert check_candidate(sdef, real_field(sdef, t1=t * t)).automorphism
    assert check_candidate(sdef, real_field(sdef, t1=t * t * t + t * 2)).automorphism
    # but moving along s without compensation is not
    assert check_candidate(sdef, real_field(sdef, s1=Poly.var(vars, "x1"))).automorphism is False


def test_crossing_dilation_is_automorphism():
    k, l = 1, 2
    sdef = crossing_powers(k, l)
    vars = sdef.vars
    X = real_field(
        sdef,
        s1=Poly.var(vars, "s1") * (l + 1),
        s2=Poly.var(vars, "s2") * (k + 1),
        t1=Poly.var(vars, "t1"),
    )
    assert check_candidate(sdef, X).automorphism


def test_translations_are_automorphisms_crossing():
    sdef = crossing_powers(1, 2)
    vars = sdef.vars
    assert check_candidate(sdef, real_field(sdef, s1=Poly.one(vars))).automorphism
    assert check_candidate(sdef, real_field(sdef, s2=Poly.one(vars))).automorphism


def test_rejects_complex_candidate():
    sdef = crossing_powers(1, 2)
    vars = sdef.vars
    with pytest.raises(AutosysError):
        RealVectorFieldSym(vars, {"t1": Poly.var(vars, "t1") * GaussRat(0, 1)})


# -- behavioral equivalence with the displayed system ------------------------------


def crossing_paper_residuals(sdef, k, l, X):
    """Hand-coded copy of the four displayed real equations for the
    t^k/t^l structure; returns the four residual polynomials."""
    vars = sdef.vars
    t = Poly.var(vars, "t1")
    a = X.coeff("t1")
    b = X.coeff("s1")
    c = X.coeff("s2")

    def dx(p):
        return p.diff("s1")

    def dy(p):
        return p.diff("s2")

    def dt(p):
        return p.diff("t1")

    r1 = dt(b) + t ** (2 * l) * dx(a) + t ** (l + k) * dy(a)
    r2 = dt(t**l * a) - t**l * dx(b) - t**k * dy(b)
    r3 = dt(c) + t ** (l + k) * dx(a) + t ** (2 * k) * dy(a)
    r4 = dt(t**k * a) - t**l * dx(c) - t**k * dy(c)
    return [r1, r2, r3, r4]


def test_generated_system_matches_paper_system_behaviorally():
    k, l = 1, 2
    sdef = crossing_powers(k, l)
    sys = generate_system(sdef)
    vars = sdef.vars
    rng = random.Random(23)
    candidates = [
        RealVectorFieldSym(vars, {}),
        real_field(sdef, s1=Poly.one(vars)),
        real_field(
            sdef,
            s1=Poly.var(vars, "s1") * (l + 1),
            s2=Poly.var(vars, "s2") * (k + 1),
            t1=Poly.var(vars, "t1"),
        ),
        real_field(sdef, t1=Poly.var(vars, "t1")),
    ]
    while len(candidates) < 10:
        candidates.append(
            RealVectorFieldSym(
                vars,
                {v: rand_poly(rng, vars, max_degree=2, n_terms=2, real=True) for v in vars},
            )
        )
    for X in candidates:
        ours = check_candidate(sdef, X, system=sys).automorphism
        theirs = all(r.is_zero() for r in crossing_paper_residuals(sdef, k, l, X))
        assert ours == theirs


# -- internal consistency -----------------------------------------------------------


@pytest.mark.parametrize(
    "sdef",
    [crossing_powers(1, 2), denominator_fixture(), standard_mizohata(1, 2)],
    ids=["crossing", "unit-denominator", "mizohata"],
)
def test_system_residuals_match_direct_computation(sdef):
    sys = generate_system(sdef)
    rng = random.Random(41)
    det = None
    from involucalc.structure import jacobians

    det = jacobians(sdef).det_w_s
    for _ in range(3):
        X = RealVectorFieldSym(
            sdef.vars,
            {
                v: rand_poly(rng, sdef.vars, max_degree=2, n_terms=2, real=True)
                for v in sdef.vars
            },
        )
        direct = dict(candidate_residuals_direct(sdef, X))
        for eq in sys.equations:
            res = equation_residual(eq, X)
            den = Poly.one(sdef.vars)
            for _ in range(eq.cleared_power):
                den = den * det
            assert RatFun(res, den) == direct[(eq.integral, eq.field_index)]


def test_crossing_elimination_consequences():
    # consequences of the four equations: eliminating the derivatives of a
    # gives t^k b_t = t^l c_t and
    # (l - k) t^(k+l-1) a = t^(l+k) b_x + t^(2k) b_y - t^(2l) c_x - t^(l+k) c_y,
    # which every automorphism must satisfy
    k, l = 1, 2
    sdef = crossing_powers(k, l)
    vars = sdef.vars
    t = Poly.var(vars, "t1")
    automorphisms = [
        RealVectorFieldSym(vars, {}),
        RealVectorFieldSym(vars, {"s1": Poly.one(vars)}),
        RealVectorFieldSym(
            vars,
            {
                "s1": Poly.var(vars, "s1") * (l + 1),
                "s2": Poly.var(vars, "s2") * (k + 1),
                "t1": Poly.var(vars, "t1"),
            },
        ),
    ]
    for X in automorphisms:
        assert check_candidate(sdef, X).automorphism
        a, b, c = X.coeff("t1"), X.coeff("s1"), X.coeff("s2")
        first = t**k * b.diff("t1") - t**l * c.diff("t1")
        assert first.is_zero()
        second = (
            a * (l - k) * t ** (k + l - 1)
            - t ** (l + k) * b.diff("s1")
            - t ** (2 * k) * b.diff("s2")
            + t ** (2 * l) * c.diff("s1")
            + t ** (l + k) * c.diff("s2")
        )
        assert second.is_zero()
