import random
from fractions import Fraction

import pytest

from involucalc.algebra import GaussRat, Poly, RatFun, exact_rank
from involucalc.bundle import (
    BaseFrameMismatch,
    BundleError,
    NotInvertible,
    NotInvertibleAtBase,
    VBundle,
    canonical_annihilator_bundle,
    dual_bundle,
    flatness_check,
    frame_change,
    hom_bundle,
    is_integrating_frame,
    is_solution_section,
    pair_sections,
    tensor_bundle,
    transform_section,
)
from involucalc.catalog import (
    complex_structure,
    crossing_powers,
    standard_mizohata,
    three_quadrics,
)
from involucalc.structure import VectorFieldSym, build_frame, kernel_vectors, characteristic_form
from conftest import poly_evaluate, rand_flat_bundle, rand_invertible_matrix, rand_poly, s2_structure
from test_acceptance import all_fixtures


def mizohata_base():
    return build_frame(standard_mizohata(1, 2))


# -- the commuting base frame -----------------------------------------------------


def test_structure_frames_commute():
    # bundles rely on it: every frame they are built over commutes
    for sdef in all_fixtures() + [s2_structure(3)]:
        frame = build_frame(sdef)
        for j in range(len(frame)):
            for k in range(j + 1, len(frame)):
                assert frame[j].bracket(frame[k]).is_zero()


def test_non_commuting_base_is_rejected():
    # [d/dt1, t1 d/ds1] = d/ds1
    vars = ("s1", "t1")
    base = [VectorFieldSym(vars, {"t1": Poly.one(vars)}), VectorFieldSym(vars, {"s1": Poly.var(vars, "t1")})]
    with pytest.raises(BundleError, match="base fields L1 and L2 do not commute"):
        VBundle.trivial(base, 1)


# -- flatness ------------------------------------------------------------------


def test_trivial_bundle_is_flat():
    b = VBundle.trivial(mizohata_base(), 2)
    assert b.flat
    assert flatness_check(b).flat


def test_canonical_annihilator_bundle_is_flat_with_zero_matrices():
    for sdef in [crossing_powers(1, 2), three_quadrics(), standard_mizohata(1, 2)]:
        b = canonical_annihilator_bundle(sdef)
        assert b.flat
        assert all(e.is_zero() for m in b.D for row in m for e in row)


def test_random_frame_changes_stay_flat():
    rng = random.Random(100)
    base = mizohata_base()
    for _ in range(5):
        b, _ = rand_flat_bundle(rng, base, rng.randint(1, 3))
        assert b.flat


# -- frame change --------------------------------------------------------------


def test_frame_change_identity():
    base = mizohata_base()
    b = VBundle.trivial(base, 2)
    vars = base[0].vars
    one = RatFun.of(Poly.one(vars))
    zero = RatFun.of(Poly.zero(vars))
    b2 = frame_change(b, ((one, zero), (zero, one)))
    assert all(
        x == y for m, m2 in zip(b.D, b2.D) for r, r2 in zip(m, m2) for x, y in zip(r, r2)
    )


def test_frame_change_diagonal_logarithmic_derivative():
    base = mizohata_base()
    vars = base[0].vars
    b = VBundle.trivial(base, 2)
    f = RatFun.of(Poly.one(vars) + Poly.var(vars, "s1"))
    one = RatFun.of(Poly.one(vars))
    zero = RatFun.of(Poly.zero(vars))
    changed = frame_change(b, ((f, zero), (zero, one)))
    for L, Dj in zip(base, changed.D):
        assert Dj[0][0] == L.apply(f) / f
        assert Dj[0][1].is_zero() and Dj[1][0].is_zero() and Dj[1][1].is_zero()


def test_frame_change_composition_and_inverse():
    rng = random.Random(7)
    base = mizohata_base()
    vars = base[0].vars
    b = VBundle.trivial(base, 2)
    t1 = rand_invertible_matrix(rng, 2, vars)
    t2 = rand_invertible_matrix(rng, 2, vars)
    from involucalc.bundle import _mmul
    once = frame_change(frame_change(b, t1), t2)
    direct = frame_change(b, _mmul(t2, t1))
    for m, m2 in zip(once.D, direct.D):
        for r, r2 in zip(m, m2):
            for x, y in zip(r, r2):
                assert x == y
    from involucalc.algebra import ratfun_matrix_inverse

    back = frame_change(frame_change(b, t1), ratfun_matrix_inverse(t1))
    for m, m2 in zip(back.D, b.D):
        for r, r2 in zip(m, m2):
            for x, y in zip(r, r2):
                assert x == y


def test_frame_change_rejects_singular():
    base = mizohata_base()
    vars = base[0].vars
    b = VBundle.trivial(base, 2)
    s = RatFun.of(Poly.var(vars, "s1"))
    with pytest.raises(NotInvertible):
        frame_change(b, ((s, s), (s, s)))


def test_frame_change_rejects_a_matrix_singular_at_the_base_point():
    # det T = s1 is not 0, but its inverse 1/s1 has no expansion at 0
    base = mizohata_base()
    vars = base[0].vars
    b = VBundle.trivial(base, 2)
    one, zero = RatFun.of(Poly.one(vars)), RatFun.of(Poly.zero(vars))
    T = ((RatFun.of(Poly.var(vars, "s1")), zero), (zero, one))
    with pytest.raises(NotInvertibleAtBase):
        frame_change(b, T)
    with pytest.raises(NotInvertibleAtBase):
        transform_section(b, T, (one, one))


# -- dual, tensor, hom ------------------------------------------------------------


def test_dual_of_trivial_is_trivial():
    b = VBundle.trivial(mizohata_base(), 2)
    d = dual_bundle(b)
    assert all(e.is_zero() for m in d.D for row in m for e in row)


def test_dual_of_dual_restores_matrices():
    rng = random.Random(12)
    b, _ = rand_flat_bundle(rng, mizohata_base(), 2)
    dd = dual_bundle(dual_bundle(b))
    for m, m2 in zip(b.D, dd.D):
        for r, r2 in zip(m, m2):
            for x, y in zip(r, r2):
                assert x == y


def test_pairing_identity_random():
    rng = random.Random(5)
    base = mizohata_base()
    vars = base[0].vars
    b, _ = rand_flat_bundle(rng, base, 2)
    d = dual_bundle(b)
    for _ in range(3):
        omega = [RatFun.of(rand_poly(rng, vars)) for _ in range(2)]
        eta = [RatFun.of(rand_poly(rng, vars)) for _ in range(2)]
        for L, Dj, Dsj in zip(base, b.D, d.D):
            d_omega = [
                L.apply(omega[beta])
                + sum(
                    (omega[alpha] * Dj[alpha][beta] for alpha in range(2)),
                    RatFun.of(Poly.zero(vars)),
                )
                for beta in range(2)
            ]
            d_eta = [
                L.apply(eta[beta])
                + sum(
                    (eta[alpha] * Dsj[alpha][beta] for alpha in range(2)),
                    RatFun.of(Poly.zero(vars)),
                )
                for beta in range(2)
            ]
            lhs = L.apply(pair_sections(eta, omega))
            rhs = pair_sections(d_eta, omega) + pair_sections(eta, d_omega)
            assert lhs == rhs


def test_tensor_and_hom_flat_closure():
    rng = random.Random(9)
    base = mizohata_base()
    b1, _ = rand_flat_bundle(rng, base, 2)
    b2, _ = rand_flat_bundle(rng, base, 2)
    assert tensor_bundle(b1, b2).flat
    assert hom_bundle(b1, b2).flat


def test_tensor_of_solutions_is_solution():
    rng = random.Random(31)
    base = mizohata_base()
    vars = base[0].vars
    b1, t1 = rand_flat_bundle(rng, base, 2)
    b2, t2 = rand_flat_bundle(rng, base, 2)
    from involucalc.algebra import ratfun_matrix_inverse

    # rows of T^{-1} are solutions of the changed bundle
    s1 = ratfun_matrix_inverse(t1)[0]
    s2 = ratfun_matrix_inverse(t2)[1]
    assert is_solution_section(b1, s1).solution
    assert is_solution_section(b2, s2).solution
    tensor = tensor_bundle(b1, b2)
    prod = [s1[a] * s2[g] for a in range(2) for g in range(2)]
    assert is_solution_section(tensor, prod).solution


def test_base_frame_mismatch():
    b1 = VBundle.trivial(mizohata_base(), 2)
    b2 = VBundle.trivial(build_frame(crossing_powers(1, 2)), 2)
    with pytest.raises(BaseFrameMismatch):
        tensor_bundle(b1, b2)


# -- solution sections -------------------------------------------------------------


def test_constant_sections_solve_trivial_bundle():
    base = mizohata_base()
    vars = base[0].vars
    b = VBundle.trivial(base, 2)
    eta = (Poly.const(vars, Fraction(3, 2)), Poly.const(vars, GaussRat(0, 1)))
    assert is_solution_section(b, eta).solution


def test_characteristic_form_is_not_parallel_for_crossing():
    k, l = 1, 2
    sdef = crossing_powers(k, l)
    b = canonical_annihilator_bundle(sdef)
    (kv0, *_) = kernel_vectors(sdef)
    theta = characteristic_form(sdef, kv0)
    verdict = is_solution_section(b, theta.components())
    assert not verdict.solution


def test_solution_verdict_covariant_under_frame_change():
    rng = random.Random(77)
    base = mizohata_base()
    vars = base[0].vars
    b = VBundle.trivial(base, 2)
    T = rand_invertible_matrix(rng, 2, vars)
    changed = frame_change(b, T)
    eta = (Poly.const(vars, 2), Poly.const(vars, GaussRat(0, 3)))
    eta_t = transform_section(b, T, [RatFun.of(e, vars) for e in eta])
    assert is_solution_section(b, eta).solution
    assert is_solution_section(changed, eta_t).solution
    # and a non-solution stays a non-solution
    bad = (Poly.var(vars, "s1"), Poly.zero(vars))
    bad_t = transform_section(b, T, [RatFun.of(e, vars) for e in bad])
    assert not is_solution_section(b, bad).solution
    assert not is_solution_section(changed, bad_t).solution


# -- integrating frames --------------------------------------------------------------


def test_identity_integrates_trivial_bundle():
    base = mizohata_base()
    vars = base[0].vars
    b = VBundle.trivial(base, 2)
    one = RatFun.of(Poly.one(vars))
    zero = RatFun.of(Poly.zero(vars))
    assert is_integrating_frame(b, ((one, zero), (zero, one))).integrating


def test_inverse_frame_change_matrix_is_integrating():
    rng = random.Random(13)
    base = mizohata_base()
    b, T = rand_flat_bundle(rng, base, 2)
    from involucalc.algebra import ratfun_matrix_inverse

    assert is_integrating_frame(b, ratfun_matrix_inverse(T)).integrating


def test_non_integrating_example_and_base_invertibility():
    sdef = complex_structure(1)
    base = build_frame(sdef)
    vars = base[0].vars
    b = VBundle.trivial(base, 2)
    one = RatFun.of(Poly.one(vars))
    zero = RatFun.of(Poly.zero(vars))
    x = RatFun.of(Poly.var(vars, "x1"))
    with pytest.raises(NotInvertibleAtBase):
        is_integrating_frame(b, ((x, zero), (zero, one)))
    verdict = is_integrating_frame(b, ((one + x, zero), (zero, one)))
    assert not verdict.integrating


# -- lifted structure ------------------------------------------------------------------
#
# The induced involutive structure on the total space, built symbolically:
# no structure file reaches it, so it lives here as an oracle of flatness.


def _lift_ratfun(f: RatFun, new_vars):
    return RatFun(f.num.rename_vars(new_vars), f.den.rename_vars(new_vars))


def lifted_generators(b: VBundle):
    """Generators of the induced involutive structure on the total space, in
    coordinates (base coords, w_1..w_r, wbar_1..wbar_r): one lift per base
    field plus the antiholomorphic fiber fields.

    The lift of L_j carries fiber coefficient -sum_beta D^beta_alpha(L_j) w_beta
    on d/dw_alpha."""
    r = b.rank
    ext = b.vars + tuple(f"w{a}" for a in range(1, r + 1)) + tuple(
        f"wbar{a}" for a in range(1, r + 1)
    )
    gens = []
    for L, Dj in zip(b.base, b.D):
        coeffs = {n: _lift_ratfun(c, ext) for n, c in L.coeffs.items()}
        for alpha in range(r):
            acc = RatFun.of(Poly.zero(ext))
            for beta in range(r):
                entry = _lift_ratfun(Dj[beta][alpha], ext)
                acc = acc + entry * RatFun.of(Poly.var(ext, f"w{beta + 1}"))
            if not acc.is_zero():
                coeffs[f"w{alpha + 1}"] = acc * GaussRat(-1)
        gens.append(VectorFieldSym(ext, coeffs))
    for alpha in range(r):
        gens.append(
            VectorFieldSym(ext, {f"wbar{alpha + 1}": RatFun.of(Poly.one(ext))})
        )
    return gens, ext


def lifted_bracket_closure(b: VBundle) -> bool:
    """The lifts of the commuting base fields must commute, [G_i, G_j] = 0;
    exact check via the flatness identity."""
    gens, _ = lifted_generators(b)
    n = len(b.base)
    # the lifts pairwise, and each lift against the fiber fields d/dwbar, with
    # which it commutes as its coefficients are wbar-free
    return all(gens[i].bracket(gens[j]).is_zero() for i in range(n) for j in range(i + 1, len(gens)))


def lifted_rank_at(b: VBundle, base_point, fiber_point) -> int:
    """Rank of the lifted generator family at a point (base, fiber)."""
    gens, ext = lifted_generators(b)
    point = list(base_point) + [GaussRat.of(x) for x in fiber_point]
    point = point + [GaussRat.of(x).conjugate() for x in fiber_point]
    rows = []
    for g in gens:
        coeffs = [g.coeff(v) for v in ext]
        rows.append([poly_evaluate(c.num, point) / poly_evaluate(c.den, point) for c in coeffs])
    return exact_rank(rows)



def test_lifted_generators_trivial_rank_one():
    base = mizohata_base()
    b = VBundle.trivial(base, 1)
    gens, ext = lifted_generators(b)
    assert len(gens) == len(base) + 1
    # base lifts carry no fiber components for D = 0
    for g, L in zip(gens, base):
        assert g.coeff("w1").is_zero()
        assert g.coeff("wbar1").is_zero()
    assert gens[-1].coeff("wbar1") == RatFun.of(Poly.one(ext))


def test_lifted_rank_is_base_plus_fiber():
    rng = random.Random(3)
    base = mizohata_base()
    b, _ = rand_flat_bundle(rng, base, 2)
    sdef = standard_mizohata(1, 2)
    rank = lifted_rank_at(b, [0] * len(sdef.vars), (GaussRat(1), GaussRat(2)))
    assert rank == len(base) + 2


def test_lifted_bracket_closure_random():
    rng = random.Random(21)
    base = mizohata_base()
    for _ in range(3):
        b, _ = rand_flat_bundle(rng, base, 2)
        assert lifted_bracket_closure(b)
