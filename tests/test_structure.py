from fractions import Fraction

import pytest

from involucalc.algebra import GaussRat, Poly, RatFun
from involucalc.catalog import (
    complex_structure,
    crossing_powers,
    disk_times_line,
    disk_weighted_powers,
    flat_structure,
    monomial_structure,
    standard_mizohata,
    three_quadrics,
)
from involucalc.structure import (
    CotangentSection,
    KernelVector,
    KernelVerificationFailed,
    NotCharacteristic,
    StructureDef,
    StructureError,
    ZeroCovector,
    build_frame,
    characteristic_dim,
    characteristic_form,
    expand_in_frame,
    generic_rank_phi_t,
    jacobians,
    kernel_vectors,
    levi_form,
    structure_vars,
)

I = GaussRat(0, 1)


def pt(sdef, **coords):
    return tuple(Fraction(coords.get(v, 0)) for v in sdef.vars)


def _s_dependent_fixture():
    # phi depends on s, so the frame carries genuine det W_s denominators
    vars = structure_vars(0, 1, 1)
    t = Poly.var(vars, "t1")
    s = Poly.var(vars, "s1")
    return StructureDef(0, 1, 1, (t * t + t * s * s,))


def _coupled_fixture():
    # two phi entries coupling s1, s2 and both t variables
    vars = structure_vars(0, 2, 2)
    t1, t2 = Poly.var(vars, "t1"), Poly.var(vars, "t2")
    s1, s2 = Poly.var(vars, "s1"), Poly.var(vars, "s2")
    return StructureDef(
        0, 2, 2, (t1 * t2 + s2 * t1 * t1, t2 * t2 + s1 * s2 * t2)
    )


ALL_FIXTURES = [
    standard_mizohata(0, 1),
    standard_mizohata(1, 2),
    standard_mizohata(2, 3),
    crossing_powers(1, 2),
    crossing_powers(2, 3),
    three_quadrics(),
    disk_weighted_powers(1, 2),
    disk_times_line(),
    flat_structure(1, 1),
    complex_structure(1),
    _s_dependent_fixture(),
    _coupled_fixture(),
]


# -- definition validation ----------------------------------------------------


def test_structuredef_rejects_nonvanishing_phi():
    vars = structure_vars(0, 1, 1)
    with pytest.raises(StructureError):
        StructureDef(0, 1, 1, (Poly.one(vars),))
    with pytest.raises(StructureError):
        StructureDef(0, 1, 1, (Poly.var(vars, "t1"),))  # first derivative at 0


def test_structuredef_rejects_complex_phi():
    vars = structure_vars(0, 1, 1)
    with pytest.raises(StructureError):
        StructureDef(0, 1, 1, (Poly.var(vars, "t1", 2) * I,))


# -- frame construction -------------------------------------------------------


def test_mizohata_frame_is_the_classical_one():
    n, nu = 3, 1
    sdef = standard_mizohata(nu, n)
    frame = build_frame(sdef)
    vars = sdef.vars
    assert len(frame) == n
    for j, L in enumerate(frame, start=1):
        eps = 1 if j <= nu else -1
        assert L.coeff(f"t{j}") == RatFun.of(Poly.one(vars))
        expected = RatFun.of(Poly.var(vars, f"t{j}") * GaussRat(0, -eps))
        assert L.coeff("s1") == expected


def test_crossing_frame():
    k, l = 1, 2
    sdef = crossing_powers(k, l)
    (L,) = build_frame(sdef)
    vars = sdef.vars
    assert L.coeff("t1") == RatFun.of(Poly.one(vars))
    assert L.coeff("s1") == RatFun.of(Poly.var(vars, "t1", l) * GaussRat(0, -1))
    assert L.coeff("s2") == RatFun.of(Poly.var(vars, "t1", k) * GaussRat(0, -1))


def test_complex_structure_frame():
    sdef = complex_structure(1)
    (L,) = build_frame(sdef)
    assert L.coeff("x1") == RatFun.of(Poly.const(sdef.vars, Fraction(1, 2)))
    assert L.coeff("y1") == RatFun.of(Poly.const(sdef.vars, GaussRat(0, Fraction(1, 2))))


@pytest.mark.parametrize("sdef", ALL_FIXTURES, ids=lambda s: f"nu{s.nu}d{s.d}mu{s.mu}")
def test_frame_annihilates_first_integrals(sdef):
    frame = build_frame(sdef)
    for L in frame:
        for F in sdef.first_integrals():
            assert L.apply(F).is_zero()


@pytest.mark.parametrize("sdef", ALL_FIXTURES, ids=lambda s: f"nu{s.nu}d{s.d}mu{s.mu}")
def test_frame_is_involutive(sdef):
    frame = build_frame(sdef)
    for i in range(len(frame)):
        for j in range(i + 1, len(frame)):
            _, residual = expand_in_frame(sdef, frame[i].bracket(frame[j]), frame)
            assert residual.is_zero()


# -- kernel vectors -----------------------------------------------------------


def test_kernel_vectors_crossing_recipe():
    k, l = 1, 2
    sdef = crossing_powers(k, l)
    kvs = kernel_vectors(sdef)
    assert kvs
    vars = sdef.vars
    tk = Poly.var(vars, "t1", k)
    tl = Poly.var(vars, "t1", l)
    for kv in kvs:
        # every recipe vector is proportional to (t^k, -t^l)
        assert kv.b[0] * (-tl) == kv.b[1] * tk
        assert not kv.is_zero()


def test_kernel_vectors_phi_independent_of_t():
    sdef = flat_structure(1, 1)
    kvs = kernel_vectors(sdef)
    assert len(kvs) == 1
    assert kvs[0].b[0] == Poly.one(sdef.vars)


def test_kernel_vectors_monomial_user_vector():
    alphas = [(2, 0), (1, 1), (0, 2)]
    sdef = monomial_structure(alphas)
    lam = [1, -2, 1]  # sum lam_k alpha^k = 0
    vars = sdef.vars
    hats = []
    for j in range(3):
        hat = [0, 0]
        for kk in range(3):
            if kk != j:
                hat[0] += alphas[kk][0]
                hat[1] += alphas[kk][1]
        hats.append(tuple(hat))
    b = tuple(
        Poly.monomial(vars, (0, 0, 0) + hats[j], lam[j]) for j in range(3)
    )
    (kv,) = kernel_vectors(sdef, user=[b])
    assert kv.provenance == "user"


def test_kernel_vectors_user_rejects_bad_vector():
    sdef = crossing_powers(1, 2)
    vars = sdef.vars
    with pytest.raises(KernelVerificationFailed):
        kernel_vectors(sdef, user=[(Poly.one(vars), Poly.one(vars))])


def test_kernel_vectors_full_rank_returns_empty():
    # phi_t generically of rank d: no kernel
    sdef = monomial_structure([(2, 0), (0, 2)])
    assert generic_rank_phi_t(sdef)[0] == 2
    assert kernel_vectors(sdef) == []


# -- characteristic forms -----------------------------------------------------


def _crossing_b(sdef, k, l):
    vars = sdef.vars
    return KernelVector(
        sdef, (Poly.var(vars, "t1", k), -Poly.var(vars, "t1", l)), provenance="user"
    )


def test_characteristic_form_crossing():
    k, l = 1, 2
    sdef = crossing_powers(k, l)
    theta = characteristic_form(sdef, _crossing_b(sdef, k, l))
    vars = sdef.vars
    assert theta.cz == ()
    assert theta.cw[0] == RatFun.of(Poly.var(vars, "t1", k))
    assert theta.cw[1] == RatFun.of(-Poly.var(vars, "t1", l))


def test_characteristic_form_flat():
    sdef = flat_structure(1, 1)
    (kv,) = kernel_vectors(sdef)
    theta = characteristic_form(sdef, kv)
    assert theta.cw[0] == RatFun.of(Poly.one(sdef.vars))


def test_characteristic_form_is_read_from_its_kernel_vector():
    sdef = crossing_powers(1, 2)
    kv = _crossing_b(sdef, 1, 2)
    # an equal structure reads the same cached form; another one is refused
    assert characteristic_form(crossing_powers(1, 2), kv) is characteristic_form(sdef, kv)
    with pytest.raises(StructureError):
        characteristic_form(crossing_powers(1, 3), kv)


def test_characteristic_form_disk_weighted():
    k, l = 1, 2
    sdef = disk_weighted_powers(k, l)
    vars = sdef.vars
    kv = KernelVector(
        sdef, (Poly.var(vars, "t1", l), -Poly.var(vars, "t1", k)), provenance="user"
    )
    theta = characteristic_form(sdef, kv)
    zbar = Poly.var(vars, "x1") - Poly.var(vars, "y1") * I
    c = GaussRat(0, -2) * (GaussRat(Fraction(1, k + 1)) - GaussRat(Fraction(1, l + 1)))
    expected = RatFun.of(Poly.var(vars, "t1", k + l + 1) * zbar * c)
    assert theta.cz[0] == expected
    assert theta.cw[0] == RatFun.of(Poly.var(vars, "t1", l))
    assert theta.cw[1] == RatFun.of(-Poly.var(vars, "t1", k))


@pytest.mark.parametrize(
    "sdef",
    [crossing_powers(1, 2), three_quadrics(), disk_weighted_powers(1, 2), flat_structure(2, 1)],
    ids=["crossing", "threeq", "disk", "flat"],
)
def test_characteristic_form_is_real_and_annihilating(sdef):
    # with b phi_s = 0 (all fixtures here) the form is real in every
    # coordinate slot
    frame = build_frame(sdef)
    for kv in kernel_vectors(sdef):
        theta = characteristic_form(sdef, kv)
        for L in frame:
            assert theta.apply_to_field(L).is_zero()
        for coeff in theta.coordinate_coefficients().values():
            imag = coeff - coeff.conjugate()
            assert imag.is_zero()


def test_characteristic_form_reality_boundary_with_s_coupling():
    # when b phi_s != 0 the construction stays real on the dx, dy, dt slots
    # but picks up exactly 2 (b phi_s)_m on the imaginary part of ds_m; the
    # span computations at the base point are unaffected (phi_s(0) = 0)
    vars = structure_vars(0, 2, 1)
    t = Poly.var(vars, "t1")
    s1 = Poly.var(vars, "s1")
    sdef = StructureDef(0, 2, 1, (t * t + t * s1 * s1, t * t * t))
    jac = jacobians(sdef)
    frame = build_frame(sdef)
    for kv in kernel_vectors(sdef):
        theta = characteristic_form(sdef, kv)
        for L in frame:
            assert theta.apply_to_field(L).is_zero()
        coeffs = theta.coordinate_coefficients()
        for name, coeff in coeffs.items():
            imag = (coeff - coeff.conjugate()) * GaussRat(0, Fraction(-1, 2))
            if name.startswith("s"):
                m = int(name[1:]) - 1
                expect = Poly.zero(vars)
                for k in range(sdef.d):
                    expect = expect + kv.b[k] * jac.phi_s[k][m]
                assert imag == RatFun.of(expect * 2)
            else:
                assert imag.is_zero()


# -- Levi form ----------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_levi_mizohata_signature(n):
    for nu in range(n + 1):
        sdef = standard_mizohata(nu, n)
        report = levi_form(sdef, sdef.zero_point(), {"s1": 1})
        assert report.inertia == (nu, n - nu, 0)


def test_levi_flat_structure_is_zero():
    sdef = flat_structure(1, 1)
    report = levi_form(sdef, sdef.zero_point(), {"s1": 1})
    assert report.inertia == (0, 0, 1)


def test_levi_negative_eigenvalue_probe():
    sdef = standard_mizohata(0, 1)
    report = levi_form(sdef, sdef.zero_point(), {"s1": 1})
    assert report.inertia[1] >= 1


def test_levi_positive_scaling_invariance():
    sdef = standard_mizohata(1, 2)
    r1 = levi_form(sdef, sdef.zero_point(), {"s1": 1})
    r2 = levi_form(sdef, sdef.zero_point(), {"s1": Fraction(7, 3)})
    assert r1.inertia == r2.inertia


def test_levi_rejects_noncharacteristic():
    sdef = standard_mizohata(1, 1)
    p = pt(sdef, t1=1)
    with pytest.raises(NotCharacteristic):
        levi_form(sdef, p, {"s1": 1})


def test_levi_rejects_zero_covector():
    sdef = standard_mizohata(1, 1)
    with pytest.raises(ZeroCovector):
        levi_form(sdef, sdef.zero_point(), {"s1": 0})


# -- characteristic dimension --------------------------------------------------


def test_characteristic_dim_mizohata():
    sdef = standard_mizohata(1, 2)
    assert characteristic_dim(sdef, sdef.zero_point()) == 1
    assert characteristic_dim(sdef, pt(sdef, t1=Fraction(1, 3))) == 0


def test_characteristic_dim_flat():
    sdef = flat_structure(2, 1)
    assert characteristic_dim(sdef, sdef.zero_point()) == 2
    assert characteristic_dim(sdef, pt(sdef, t1=5)) == 2


def test_characteristic_dim_three_quadrics():
    sdef = three_quadrics()
    assert characteristic_dim(sdef, sdef.zero_point()) == 3


# -- derivative matrices -------------------------------------------------------


def test_w_s_inverse_exact():
    sdef = disk_weighted_powers(1, 2)
    jac = jacobians(sdef)
    d = sdef.d
    for j in range(d):
        for k in range(d):
            acc = RatFun.of(Poly.zero(sdef.vars))
            for m in range(d):
                acc = acc + RatFun.of(jac.w_s[j][m]) * jac.inv_w_s[m][k]
            expected = RatFun.of(Poly.one(sdef.vars) if j == k else Poly.zero(sdef.vars))
            assert acc == expected
    assert jac.det_w_s.constant_term() == GaussRat(1)


@pytest.mark.parametrize("name", ["s2-d3", "s1"])
def test_frame_coefficients_carry_det_to_the_first_power(name):
    # N_k = sum_l (tW_s^-1)_kl d/ds_l: every coefficient lies in
    # det W_s^-1 Q(i)[coords], so a sum of such terms needs no det^2
    from conftest import s1_structure, s2_structure

    sdef = s2_structure(3) if name == "s2-d3" else s1_structure()
    det = jacobians(sdef).det_w_s
    assert not det.is_constant()
    for L in build_frame(sdef):
        for c in L.coeffs.values():
            assert c.den in (Poly.one(sdef.vars), det)


def test_vector_field_is_a_derivation():
    import random as _random
    from conftest import rand_poly

    sdef = crossing_powers(1, 2)
    rng = _random.Random(19)
    vars = sdef.vars
    (L,) = build_frame(sdef)
    for _ in range(4):
        f = rand_poly(rng, vars)
        g = rand_poly(rng, vars)
        lhs = L.apply(f * g)
        rhs = L.apply(f) * RatFun.of(g) + RatFun.of(f) * L.apply(g)
        assert lhs == rhs


def test_any_section_annihilates_the_frame():
    import random as _random
    from conftest import rand_poly

    for sdef in [crossing_powers(1, 2), disk_weighted_powers(1, 1)]:
        rng = _random.Random(29)
        vars = sdef.vars
        frame = build_frame(sdef)
        omega = CotangentSection(
            sdef,
            tuple(rand_poly(rng, vars) for _ in range(sdef.nu)),
            tuple(rand_poly(rng, vars) for _ in range(sdef.d)),
        )
        for L in frame:
            assert omega.apply_to_field(L).is_zero()


from hypothesis import given, settings
import hypothesis.strategies as st


@st.composite
def random_structures(draw):
    nu = draw(st.integers(min_value=0, max_value=1))
    d = draw(st.integers(min_value=1, max_value=2))
    mu = draw(st.integers(min_value=1, max_value=2))
    vars = structure_vars(nu, d, mu)
    phi = []
    for _ in range(d):
        p = Poly.zero(vars)
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            exps = [0] * len(vars)
            total = draw(st.integers(min_value=2, max_value=3))
            for _ in range(total):
                exps[draw(st.integers(min_value=0, max_value=len(vars) - 1))] += 1
            c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
            p = p + Poly.monomial(vars, tuple(exps), GaussRat(c))
        phi.append(p)
    return StructureDef(nu, d, mu, tuple(phi))


@given(random_structures())
@settings(max_examples=25, deadline=None)
def test_random_structures_frame_contract(sdef):
    frame = build_frame(sdef)
    for L in frame:
        for F in sdef.first_integrals():
            assert L.apply(F).is_zero()
    for i in range(len(frame)):
        for j in range(i + 1, len(frame)):
            _, residual = expand_in_frame(sdef, frame[i].bracket(frame[j]), frame)
            assert residual.is_zero()
