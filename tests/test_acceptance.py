"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria are exact unless stated; numeric ones pin their tolerances here."""

import random
import time

import numpy as np

from involucalc.algebra import (
    GaussRat,
    Poly,
    RatFun,
    exact_rank,
    ratfun_matrix_inverse,
)
from involucalc.approx import (
    NormalFormField,
    assemble_evaluator,
    field_vars,
    select_cutoff_plan,
    series_coefficients,
    shift_jet_check,
)
from involucalc.autosys import RealVectorFieldSym, check_candidate, generate_system
from involucalc.bundle import (
    VBundle,
    canonical_annihilator_bundle,
    dual_bundle,
    flatness_check,
    frame_change,
    is_integrating_frame,
    pair_sections,
    tensor_bundle,
)
from involucalc.catalog import (
    crossing_powers,
    disk_weighted_powers,
    monomial_structure,
    standard_mizohata,
    three_quadrics,
)
from involucalc.fbi import direction_scan, sample_data, sign_condition
from involucalc.hull import hull_chain, kernel_chain
from involucalc.loci import degeneracy_locus_check, exceptional_locus_check
from involucalc.structure import (
    CotangentSection,
    KernelVector,
    build_frame,
    characteristic_form,
    expand_in_frame,
    kernel_vectors,
    levi_form,
)
from conftest import rand_flat_bundle, rand_invertible_matrix, rand_poly, word_value_at_origin


class Gate:
    def __init__(self, number, name, budget_s):
        self.number = number
        self.name = name
        self.budget = budget_s
        self.t0 = time.perf_counter()

    def finish(self, ok):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if ok and elapsed < self.budget else "FAIL"
        print(
            f"ACCEPTANCE {self.number} ({self.name}): {status} "
            f"[{elapsed:.2f}s / budget {self.budget:.0f}s]"
        )
        assert ok, f"criterion {self.number} failed"
        assert elapsed < self.budget, f"criterion {self.number} exceeded budget"


def mizohata_fixtures():
    return [standard_mizohata(nu, n) for n in (1, 2, 3) for nu in range(n + 1)]


def all_fixtures():
    return (
        mizohata_fixtures()
        + [crossing_powers(1, 2), crossing_powers(2, 3)]
        + [three_quadrics(), disk_weighted_powers(1, 2)]
    )


def disk_kernel(sdef, k, l):
    vars = sdef.vars
    return KernelVector(
        sdef,
        (Poly.var(vars, "t1", l), -Poly.var(vars, "t1", k)),
        provenance="user",
    )


def test_acceptance_1_frame_annihilation():
    gate = Gate(1, "frame annihilation", 5.0)
    ok = True
    for sdef in all_fixtures():
        frame = build_frame(sdef)
        for L in frame:
            for F in sdef.first_integrals():
                # L F is stored over a power of det W_s; clearing the
                # denominator, the numerator must vanish identically
                if not L.apply(F).is_zero():
                    ok = False
    gate.finish(ok)


def test_acceptance_2_involutivity_and_flatness():
    gate = Gate(2, "involutivity and flatness", 10.0)
    ok = True
    for sdef in all_fixtures():
        frame = build_frame(sdef)
        for i in range(len(frame)):
            for j in range(i + 1, len(frame)):
                _, residual = expand_in_frame(sdef, frame[i].bracket(frame[j]), frame)
                ok = ok and residual.is_zero()
    for sdef in [crossing_powers(1, 2), three_quadrics()]:
        b = canonical_annihilator_bundle(sdef)
        ok = ok and b.flat
        ok = ok and all(e.is_zero() for m in b.D for row in m for e in row)
    rng = random.Random(2024)
    base = build_frame(standard_mizohata(1, 2))
    for _ in range(5):
        r = rng.randint(1, 3)
        T = rand_invertible_matrix(rng, r, base[0].vars)
        changed = frame_change(VBundle.trivial(base, r), T)
        ok = ok and flatness_check(changed).flat
    gate.finish(ok)


def test_acceptance_3_levi_signatures():
    gate = Gate(3, "Levi signatures", 2.0)
    ok = True
    for n in (1, 2, 3):
        for nu in range(n + 1):
            sdef = standard_mizohata(nu, n)
            rep = levi_form(sdef, sdef.zero_point(), {"s1": 1})
            ok = ok and rep.inertia == (nu, n - nu, 0)
    gate.finish(ok)


def test_acceptance_4_nondegeneracy_orders():
    gate = Gate(4, "nondegeneracy orders", 30.0)
    ok = True
    # crossing structure with exponents (1, 2): order 2
    sdef = crossing_powers(1, 2)
    chain = hull_chain(sdef, kernel_vectors(sdef), k_max=8)
    ok = ok and chain.nondeg_order == 2

    # three quadrics: nondegenerate at 0
    sdef = three_quadrics()
    chain = hull_chain(sdef, kernel_vectors(sdef), k_max=8)
    ok = ok and chain.nondegenerate

    # the disk-weighted structure: nondegenerate with the witness iterates
    k, l = 1, 2
    sdef = disk_weighted_powers(k, l)
    kv = disk_kernel(sdef, k, l)
    chain = hull_chain(sdef, [kv], k_max=8)
    ok = ok and chain.nondegenerate
    theta = characteristic_form(sdef, kv)
    frame = build_frame(sdef)
    rows = [
        word_value_at_origin(sdef, theta, (0,) + (1,) * (k + l + 1), frame),
        word_value_at_origin(sdef, theta, (1,) * l, frame),
        word_value_at_origin(sdef, theta, (1,) * k, frame),
    ]
    ok = ok and exact_rank([list(r) for r in rows]) == 3

    # monomial structure: the kernel chain reaches C^d with the
    # coordinatewise witness values lam_j at the complementary exponents
    alphas = [(2, 0), (1, 1), (0, 2)]
    lam = [1, -2, 1]
    sdef = monomial_structure(alphas)
    vars = sdef.vars
    total = [sum(a[j] for a in alphas) for j in range(2)]
    hats = [tuple(total[j] - a[j] for j in range(2)) for a in alphas]
    b = tuple(Poly.monomial(vars, (0, 0, 0) + hats[j], lam[j]) for j in range(3))
    (kv,) = kernel_vectors(sdef, user=[b])
    frame = build_frame(sdef)
    for j, hat in enumerate(hats):
        word = (0,) * hat[0] + (1,) * hat[1]
        sec = CotangentSection(sdef, (), kv.b)
        vals = word_value_at_origin(sdef, sec, word, frame)
        fact = 1
        for e in hat:
            for m in range(1, e + 1):
                fact *= m
        expect = [GaussRat(0)] * 3
        expect[j] = GaussRat(lam[j] * fact)
        ok = ok and list(vals) == expect
    fchain = kernel_chain(sdef, [kv], k_max=8)
    ok = ok and fchain.dims[8] == 3
    hull = hull_chain(sdef, [kv], k_max=8)
    ok = ok and hull.nondegenerate
    gate.finish(ok)


def test_acceptance_5_loci():
    gate = Gate(5, "normal-crossing loci", 5.0)
    ok = True
    sdef = three_quadrics()
    v = exceptional_locus_check(sdef)
    ok = ok and v.established
    ok = ok and v.witness.minor == Poly.var(sdef.vars, "t1", 2) * 2

    k, l = 1, 2
    sdef = crossing_powers(k, l)
    chain = hull_chain(sdef, kernel_vectors(sdef), k_max=8)
    v = degeneracy_locus_check(sdef, chain)
    ok = ok and v.established
    expect = Poly.var(sdef.vars, "t1", k + l - 1) * (k - l)
    ok = ok and (v.witness.minor == expect or v.witness.minor == -expect)

    # the disk-weighted structure carries the x^2 + y^2 factor in every
    # minor of phi_t, so the sufficient criterion does not establish the
    # exceptional locus (recorded discrepancy with the source example)
    v = exceptional_locus_check(disk_weighted_powers(1, 2))
    ok = ok and not v.established
    gate.finish(ok)


def crossing_paper_residuals(sdef, k, l, X):
    vars = sdef.vars
    t = Poly.var(vars, "t1")
    a = X.coeff("t1")
    b = X.coeff("s1")
    c = X.coeff("s2")
    dx = lambda p: p.diff("s1")
    dy = lambda p: p.diff("s2")
    dt = lambda p: p.diff("t1")
    return [
        dt(b) + t ** (2 * l) * dx(a) + t ** (l + k) * dy(a),
        dt(t**l * a) - t**l * dx(b) - t**k * dy(b),
        dt(c) + t ** (l + k) * dx(a) + t ** (2 * k) * dy(a),
        dt(t**k * a) - t**l * dx(c) - t**k * dy(c),
    ]


def test_acceptance_6_automorphism_system():
    gate = Gate(6, "automorphism system", 10.0)
    k, l = 1, 2
    sdef = crossing_powers(k, l)
    vars = sdef.vars
    system = generate_system(sdef)
    rng = random.Random(99)
    candidates = [
        RealVectorFieldSym(vars, {}),
        RealVectorFieldSym(vars, {"s1": Poly.one(vars)}),
        RealVectorFieldSym(vars, {"s2": Poly.one(vars)}),
        RealVectorFieldSym(
            vars,
            {
                "s1": Poly.var(vars, "s1") * (l + 1),
                "s2": Poly.var(vars, "s2") * (k + 1),
                "t1": Poly.var(vars, "t1"),
            },
        ),
    ]
    while len(candidates) < 10:
        candidates.append(
            RealVectorFieldSym(
                vars,
                {
                    v: rand_poly(rng, vars, max_degree=2, n_terms=2, real=True)
                    for v in vars
                },
            )
        )
    ok = True
    seen_both = set()
    for X in candidates:
        ours = check_candidate(sdef, X, system=system).automorphism
        theirs = all(r.is_zero() for r in crossing_paper_residuals(sdef, k, l, X))
        ok = ok and (ours == theirs)
        seen_both.add(ours)
    ok = ok and seen_both == {True, False}
    gate.finish(ok)


def test_acceptance_7_shift_profile_relation():
    gate = Gate(7, "shift profile relation", 10.0)
    ok = True
    vars1 = field_vars(1)
    mizohata = NormalFormField(1, (-Poly.var(vars1, "t"),))
    ok = ok and shift_jet_check(mizohata, 1, 8).ok
    rng = random.Random(7)
    vars2 = field_vars(2)
    b = tuple(
        rand_poly(rng, vars2, max_degree=2, n_terms=3, real=True) for _ in range(2)
    )
    quad = NormalFormField(2, b)
    for j in (1, 2):
        ok = ok and shift_jet_check(quad, j, 8).ok
    gate.finish(ok)


def test_acceptance_8_approximate_solution_flatness():
    gate = Gate(8, "approximate solution flatness", 60.0)
    ok = True
    vars = field_vars(1)
    field = NormalFormField(1, (-Poly.var(vars, "t"),))
    # data x^5 keeps the tail i D c_8 nonzero; data x closes exactly
    for u0, expect_zero in (((Poly.var(vars, "x1", 5),), False), ((Poly.var(vars, "x1"),), True)):
        series = series_coefficients(field, u0, 8)
        # symbolic: all transverse derivatives of D_1 u at s = 0 up to order 7
        for res in series.recursion_residuals():
            ok = ok and all(p.is_zero() for p in res)
        plan = select_cutoff_plan(series, box_halfwidth=1.0, grid=33)
        ev = assemble_evaluator(series, plan)
        svals = [plan.plateau * 2.0**-j for j in range(1, 9)]
        sups = [ev.sup_d1u(s, grid=9) for s in svals]
        if expect_zero:
            ok = ok and all(v == 0.0 for v in sups)
        else:
            ok = ok and all(v > 0 for v in sups)
            slope = np.polyfit(np.log(svals), np.log(sups), 1)[0]
            # sampled log-log slope must dominate every k <= 7 bound
            for k in range(8):
                ok = ok and slope >= k - 0.2
    gate.finish(ok)


def test_acceptance_9_fbi_correlation():
    gate = Gate(9, "wave-front correlation", 300.0)
    ok = True
    hw, wsup, wplat, kappa, n = 0.5, 0.95, 0.95 * 0.75, 1.0, 256
    radii = list(np.logspace(np.log10(1.2), np.log10(120.0), 7))

    # exact side: drift -t, the sign condition holds exactly for xi0 = -1
    vars = field_vars(1)
    field = NormalFormField(1, (-Poly.var(vars, "t"),))
    holds = sign_condition(field, (-1,))
    fails = sign_condition(field, (1,))
    ok = ok and holds.holds and holds.value == 1 and not fails.holds
    holds_dir = -1.0

    for delta in (0.1, 0.05, 0.025):
        data = sample_data(
            lambda X, T, d=delta: 1.0 / (X + 1j * d),
            halfwidth=hw,
            n=n,
            window_support=wsup,
            window_plateau=wplat,
        )
        scan = direction_scan(data, kappa, (0.0, 0.0), 2, radii)
        # directions: index 0 is (+1, 0), index 1 is (-1, 0)
        slope_holds = scan.slopes[1] if holds_dir < 0 else scan.slopes[0]
        slope_other = scan.slopes[0] if holds_dir < 0 else scan.slopes[1]
        ok = ok and (slope_holds <= slope_other - 2.0)

    data = sample_data(
        lambda X, T: np.exp(-(X**2 + T**2) / (2 * 0.15**2)),
        halfwidth=hw,
        n=n,
        window_support=wsup,
        window_plateau=wplat,
    )
    scan = direction_scan(data, kappa, (0.0, 0.0), 8, radii)
    ok = ok and all(lbl == "Smooth" for lbl in scan.labels)

    data = sample_data(
        lambda X, T: (X >= 0).astype(float) + 0 * T,
        halfwidth=hw,
        n=n,
        window_support=wsup,
        window_plateau=wplat,
    )
    scan = direction_scan(data, kappa, (0.0, 0.0), 4, radii)
    ok = ok and scan.labels[0] == "Singular" and scan.labels[2] == "Singular"
    gate.finish(ok)


def test_acceptance_10_bundle_dualities():
    gate = Gate(10, "bundle dualities", 30.0)
    ok = True
    base = build_frame(standard_mizohata(1, 2))
    vars = base[0].vars
    zero = RatFun.of(Poly.zero(vars))
    for seed in range(20):
        rng = random.Random(1000 + seed)
        r = rng.randint(1, 3)
        b, T = rand_flat_bundle(rng, base, r)

        # pairing identity against the dual connection
        d = dual_bundle(b)
        omega = [RatFun.of(rand_poly(rng, vars)) for _ in range(r)]
        eta = [RatFun.of(rand_poly(rng, vars)) for _ in range(r)]
        for L, Dj, Dsj in zip(base, b.D, d.D):
            d_omega = [
                L.apply(omega[beta])
                + sum((omega[a] * Dj[a][beta] for a in range(r)), zero)
                for beta in range(r)
            ]
            d_eta = [
                L.apply(eta[beta])
                + sum((eta[a] * Dsj[a][beta] for a in range(r)), zero)
                for beta in range(r)
            ]
            lhs = L.apply(pair_sections(eta, omega))
            rhs = pair_sections(d_eta, omega) + pair_sections(eta, d_omega)
            ok = ok and lhs == rhs

        # dual of dual restores the matrices
        dd = dual_bundle(dual_bundle(b))
        for m, m2 in zip(b.D, dd.D):
            for row, row2 in zip(m, m2):
                for x, y in zip(row, row2):
                    ok = ok and x == y

        # tensor closure of flatness
        r2 = rng.randint(1, 2)
        b2, _ = rand_flat_bundle(rng, base, r2)
        ok = ok and flatness_check(tensor_bundle(b, b2)).flat

        # integrating-frame detection after the frame change
        lam = ratfun_matrix_inverse(T)
        ok = ok and is_integrating_frame(b, lam).integrating
        perturbed = [list(row) for row in lam]
        perturbed[0][0] = perturbed[0][0] + RatFun.of(Poly.var(vars, "s1"))
        ok = ok and not is_integrating_frame(b, perturbed).integrating
    gate.finish(ok)
