import random

import pytest

from involucalc.algebra import GaussRat, Poly, RatFun, exact_rank, ratfun_jet
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
from involucalc.hull import (
    _apply_field_jets,
    hull_chain,
    kernel_chain,
    lie_derivative,
)
from involucalc.structure import (
    CotangentSection,
    KernelVector,
    VectorFieldSym,
    build_frame,
    expand_in_frame,
    characteristic_form,
    kernel_vectors,
)
from conftest import apply_word, gauss_rank, rand_poly, s2_structure, word_value_at_origin

I = GaussRat(0, 1)


def lie_derivative_defining_formula(sdef, L, omega, X):
    """(D_L omega)(X) computed from L(omega(X)) - omega([L, X]); oracle for
    the componentwise rule of lie_derivative."""
    return L.apply(omega.apply_to_field(X)) - omega.apply_to_field(L.bracket(X))


def section(sdef, cz=(), cw=()):
    return CotangentSection(sdef, tuple(cz), tuple(cw))


# -- Lie derivative -----------------------------------------------------------


def test_lie_derivative_of_constant_coefficient_section_vanishes():
    sdef = complex_structure(1)
    (L,) = build_frame(sdef)
    omega = section(sdef, cz=(Poly.one(sdef.vars),))
    out = lie_derivative(sdef, L, omega)
    assert all(c.is_zero() for c in out.components())


def test_lie_derivative_crossing_section():
    k, l = 1, 2
    sdef = crossing_powers(k, l)
    (L,) = build_frame(sdef)
    vars = sdef.vars
    omega = section(
        sdef, cw=(Poly.var(vars, "t1", k), -Poly.var(vars, "t1", l))
    )
    out = lie_derivative(sdef, L, omega)
    assert out.cw[0] == RatFun.of(Poly.const(vars, k) * Poly.var(vars, "t1", k - 1))
    assert out.cw[1] == RatFun.of(-Poly.const(vars, l) * Poly.var(vars, "t1", l - 1))


def test_lie_derivative_function_times_section_on_mizohata():
    sdef = standard_mizohata(1, 1)
    (L,) = build_frame(sdef)
    vars = sdef.vars
    omega = section(sdef, cw=(Poly.var(vars, "s1"),))
    out = lie_derivative(sdef, L, omega)
    # L s1 = -i t1
    assert out.cw[0] == RatFun.of(Poly.var(vars, "t1") * GaussRat(0, -1))


@pytest.mark.parametrize(
    "sdef", [standard_mizohata(1, 2), crossing_powers(1, 2), disk_weighted_powers(1, 1)],
    ids=["mizohata", "crossing", "disk"],
)
def test_lie_derivative_matches_defining_formula(sdef):
    rng = random.Random(11)
    frame = build_frame(sdef)
    vars = sdef.vars
    for trial in range(3):
        omega = section(
            sdef,
            cz=tuple(rand_poly(rng, vars) for _ in range(sdef.nu)),
            cw=tuple(rand_poly(rng, vars) for _ in range(sdef.d)),
        )
        X = VectorFieldSym(
            vars, {v: RatFun.of(rand_poly(rng, vars)) for v in vars}
        )
        for L in frame:
            lhs = lie_derivative(sdef, L, omega).apply_to_field(X)
            rhs = lie_derivative_defining_formula(sdef, L, omega, X)
            assert lhs == rhs


def test_lie_derivative_leibniz():
    sdef = crossing_powers(1, 2)
    rng = random.Random(3)
    (L,) = build_frame(sdef)
    vars = sdef.vars
    for _ in range(4):
        f = RatFun.of(rand_poly(rng, vars))
        omega = section(
            sdef, cw=(rand_poly(rng, vars), rand_poly(rng, vars))
        )
        scaled = CotangentSection(sdef, (), tuple(c * f for c in omega.cw))
        lhs = lie_derivative(sdef, L, scaled)
        lf = L.apply(f)
        rhs_cw = tuple(
            lf * c + f * d
            for c, d in zip(omega.cw, lie_derivative(sdef, L, omega).cw)
        )
        assert all((a - b).is_zero() for a, b in zip(lhs.cw, rhs_cw))


@pytest.mark.parametrize(
    "sdef", [standard_mizohata(1, 2), three_quadrics()], ids=["mizohata", "threeq"]
)
def test_lie_derivative_commutator_identity(sdef):
    # D_{L_i} D_{L_j} - D_{L_j} D_{L_i} = D_{[L_i, L_j]} on random sections
    rng = random.Random(5)
    frame = build_frame(sdef)
    vars = sdef.vars
    omega = section(
        sdef,
        cz=tuple(rand_poly(rng, vars) for _ in range(sdef.nu)),
        cw=tuple(rand_poly(rng, vars) for _ in range(sdef.d)),
    )
    for i in range(len(frame)):
        for j in range(i + 1, len(frame)):
            lhs = lie_derivative(sdef, frame[i], lie_derivative(sdef, frame[j], omega))
            rhs = lie_derivative(sdef, frame[j], lie_derivative(sdef, frame[i], omega))
            br = frame[i].bracket(frame[j])
            mid = lie_derivative(sdef, br, omega)
            for a, b, c in zip(lhs.components(), rhs.components(), mid.components()):
                assert (a - b) == c


# -- hull chains ----------------------------------------------------------------


def test_hull_chain_crossing_order_two():
    sdef = crossing_powers(1, 2)
    chain = hull_chain(sdef, kernel_vectors(sdef))
    assert chain.nondeg_order == 2
    assert chain.dims[0] == 0 and chain.dims[1] == 1 and chain.dims[2] == 2
    # once the jet frontier dies the dimension is certified constant
    assert chain.stabilized_at is not None


def test_hull_chain_dims_monotone():
    for sdef in [crossing_powers(1, 2), three_quadrics(), standard_mizohata(1, 2)]:
        chain = hull_chain(sdef, kernel_vectors(sdef))
        assert all(a <= b for a, b in zip(chain.dims, chain.dims[1:]))


def test_hull_chain_three_quadrics_nondegenerate():
    sdef = three_quadrics()
    chain = hull_chain(sdef, kernel_vectors(sdef))
    assert chain.nondegenerate
    assert chain.nondeg_order == 2


def _disk_kernel(sdef, k, l):
    vars = sdef.vars
    return KernelVector(
        sdef,
        (Poly.var(vars, "t1", l), -Poly.var(vars, "t1", k)),
        provenance="user",
    )


def test_hull_chain_disk_weighted_nondegenerate_with_witness():
    k, l = 1, 2
    sdef = disk_weighted_powers(k, l)
    kv = _disk_kernel(sdef, k, l)
    chain = hull_chain(sdef, [kv])
    assert chain.nondegenerate
    # witness words: frame index 0 is the zbar field, 1 is the t field
    theta = characteristic_form(sdef, kv)
    frame = build_frame(sdef)
    rows = [
        word_value_at_origin(sdef, theta, (0,) + (1,) * (k + l + 1), frame),
        word_value_at_origin(sdef, theta, (1,) * l, frame),
        word_value_at_origin(sdef, theta, (1,) * k, frame),
    ]
    assert exact_rank([list(r) for r in rows]) == 3
    assert chain.nondeg_order == k + l + 2


def test_hull_chain_flat_structure_full_at_zero():
    sdef = flat_structure(1, 1)
    chain = hull_chain(sdef, kernel_vectors(sdef))
    assert chain.nondeg_order == 0


def test_kernel_chain_constant_vector():
    sdef = flat_structure(1, 1)
    chain = kernel_chain(sdef, kernel_vectors(sdef))
    assert chain.dims[0] == 1


def test_kernel_chain_crossing():
    sdef = crossing_powers(1, 2)
    chain = kernel_chain(sdef, kernel_vectors(sdef))
    assert chain.dims[2] == 2


def test_kernel_chain_monomial_kronecker_witness():
    alphas = [(2, 0), (1, 1), (0, 2)]
    lam = [1, -2, 1]
    sdef = monomial_structure(alphas)
    vars = sdef.vars
    hats = []
    total = [sum(a[j] for a in alphas) for j in range(2)]
    for a in alphas:
        hats.append(tuple(total[j] - a[j] for j in range(2)))
    b = tuple(
        Poly.monomial(vars, (0, 0, 0) + hats[j], lam[j]) for j in range(3)
    )
    (kv,) = kernel_vectors(sdef, user=[b])
    frame = build_frame(sdef)
    # (1/alpha!) L^alpha b at t=0 has lam_j exactly in slot j for alpha = hat_j
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
        assert list(vals) == expect
    chain = kernel_chain(sdef, [kv])
    assert chain.dims[max(sum(h) for h in hats)] == 3
    hull = hull_chain(sdef, [kv])
    assert hull.nondegenerate


# In the t-free-phi1 file phi_1 = -s2^2 does not depend on t, so both kernel
# vectors are (f, 0) and the kernel chain stays at dimension 1, while theta's
# dW2 part -2i f s2, which comes through phi_s, lets the hull chain reach
# nu + d = 2 at level 5.  Files 48 and 51 of the seed-1 sweep fall short the
# same way.
SHORT_KERNEL_CHAINS = {
    "t-free-phi1": (
        "[dims]\nnu = 0 d = 2 mu = 2\n[phi]\n-s2^2\n-s1*t1*t2 - 2*t2^3 - 5/4*s1*s2*t1*t2\n",
        [0, 0, 1, 1, 1, 2, 2, 2, 2],
        5,
    ),
    "sweep-48": (48, [0, 0, 0, 1, 2, 2, 2, 3, 3], 7),
    "sweep-51": (51, [0, 1, 2, 3, 3, 3, 3, 3, 3], 3),
}


@pytest.mark.parametrize("name", list(SHORT_KERNEL_CHAINS))
def test_kernel_chain_short_of_full_span(tmp_path, capsys, monkeypatch, name):
    from pathlib import Path

    from involucalc.cli import main, parse_structure

    text, dims, order = SHORT_KERNEL_CHAINS[name]
    if isinstance(text, int):  # a file of scripts/sweep.py --seed 1 --count 60
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "scripts"))
        import sweep

        text = sweep.structure_files(1, 60)[text]
    sdef = parse_structure(text).sdef
    kvs = kernel_vectors(sdef)
    hull = hull_chain(sdef, kvs)
    assert (hull.dims, hull.nondeg_order) == (dims, order)
    assert kernel_chain(sdef, kvs).dims[-1] == 1
    if name == "t-free-phi1":  # the hull chain does not overcount
        assert hull.dims[:6] == brute_force_dims(sdef, kvs, 5)
    f = tmp_path / "s.struct"
    f.write_text(text)
    assert main(["analyze", str(f)]) == 0
    out = capsys.readouterr()
    lines = out.out.splitlines()
    assert "[hull]" not in out.out + out.err
    assert "kernel chain reaches dimension 1 of 2" in lines
    assert any(line.startswith("degeneracy locus: Yes") for line in lines)


def test_apply_field_jets_loses_one_order():
    # a field applied to an order-k jet gives the order-(k-1) jet of L f
    rng = random.Random(23)
    sdef = disk_weighted_powers(1, 2)
    vars = sdef.vars
    k = 4
    for L in build_frame(sdef):
        frame_jets = {name: ratfun_jet(c, k) for name, c in L.coeffs.items()}
        for _ in range(3):
            num = rand_poly(rng, vars, max_degree=3, n_terms=4)
            den = Poly.one(vars) + Poly.var(vars, "t1") * rand_poly(rng, vars, max_degree=1)
            f = RatFun(num, den)
            got = _apply_field_jets(frame_jets, (ratfun_jet(f, k),), k - 1)
            assert got == (ratfun_jet(L.apply(f), k - 1),)


@pytest.mark.parametrize("k_max", [3, 5])
def test_run_chain_lowers_the_jet_order_once_per_level(monkeypatch, k_max):
    # level k applies the frame to level-(k-1) jets of order k_max - k + 1,
    # which are exact only to order k_max - k
    import involucalc.hull as hull_mod

    orders = []

    def recording(fj, jets, order):
        orders.append(order)
        return _apply_field_jets(fj, jets, order)

    monkeypatch.setattr(hull_mod, "_apply_field_jets", recording)
    sdef = disk_weighted_powers(1, 2)
    chain = hull_chain(sdef, [_disk_kernel(sdef, 1, 2)], k_max=k_max)
    levels = chain.stabilized_at or k_max
    assert orders == sorted(orders, reverse=True)
    assert sorted(set(orders), reverse=True) == [k_max - k for k in range(1, levels + 1)]


def test_hull_chain_undetermined_when_kmax_too_small():
    sdef = disk_weighted_powers(1, 2)
    chain = hull_chain(sdef, [_disk_kernel(sdef, 1, 2)], k_max=3)
    assert chain.nondeg_order is None


def test_span_tracker_matches_dense_rank():
    from fractions import Fraction

    from involucalc.algebra import Echelon, packed_row
    from conftest import rand_gauss

    rng = random.Random(57)
    vars = ("s1", "t1")
    exps = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    keys = [(0, e) for e in exps[:3]] + [(1, e) for e in exps]
    # the components live over different denominators
    scales = (GaussRat(Fraction(1, 9)), GaussRat(Fraction(2, 35)))
    nonreal_leads = 0
    for _ in range(20):
        vectors = []
        tracker = Echelon()
        added = 0
        for _ in range(10):
            vec = {
                (ci, e): rand_gauss(rng) * scales[ci]
                for ci, e in keys
                if rng.random() < 0.5
            }
            vectors.append(vec)
            jets = tuple(
                Poly(vars, {e: c for (cj, e), c in vec.items() if cj == ci})
                for ci in range(2)
            )
            if tracker.add(packed_row(jets)):
                added += 1
            if vec:  # keys are in pivot order
                nonreal_leads += not next(vec[k] for k in keys if k in vec).is_real()
            dense = [[v.get(k, GaussRat(0)) for k in keys] for v in vectors]
            assert added == gauss_rank(dense)
            assert tracker.dim == added
    assert nonreal_leads > 100


def _recorded_trackers(monkeypatch):
    import involucalc.hull as hull_mod
    from involucalc.algebra import Echelon

    trackers = []

    class Recording(Echelon):
        def __init__(self):
            super().__init__()
            trackers.append(self)

    monkeypatch.setattr(hull_mod, "Echelon", Recording)
    return trackers


@pytest.mark.parametrize(
    "sdef,k_max",
    [(s2_structure(5), 4), (disk_weighted_powers(1, 2), 8), (three_quadrics(), 8)],
    ids=["s2-d5", "disk", "threeq"],
)
def test_span_tracker_rows_stay_canonical(monkeypatch, sdef, k_max):
    # every stored row is in lowest terms and scaled to 1 at its pivot
    import math

    trackers = _recorded_trackers(monkeypatch)
    kvs = kernel_vectors(sdef)
    hull_chain(sdef, kvs, k_max=k_max)
    kernel_chain(sdef, kvs, k_max=k_max)
    rows = [(k, row) for tr in trackers for k, row in tr.rows.items()]
    assert len(trackers) == 4 and rows
    for pivot, (t, d) in rows:
        assert d > 0 and math.gcd(d, *(x for c in t.values() for x in c)) == 1
        assert t[pivot] == (d, 0)
        assert pivot == min(t)


def test_s2_d5_chains_at_kmax_8_stay_fast():
    # a tracker that multiplies rows by Gaussian pivots without dividing them
    # back out grows Gaussian factors and takes seconds here
    import time

    sdef = s2_structure(5)
    kvs = kernel_vectors(sdef)
    t0 = time.perf_counter()
    hull = hull_chain(sdef, kvs, k_max=8)
    kernel_chain(sdef, kvs, k_max=8)
    assert time.perf_counter() - t0 < 2.0
    assert hull.nondeg_order == 2


def brute_force_dims(sdef, kernel, k_max):
    """Independent oracle: every word up to length k_max, symbolically, no
    deduplication; span dimensions of the values at 0."""
    from itertools import product

    frame = build_frame(sdef)
    thetas = [characteristic_form(sdef, kv) for kv in kernel]
    rows = []
    dims = []
    for k in range(k_max + 1):
        if k == 0:
            new = [((), th) for th in thetas]
        else:
            new = []
            for word in product(range(len(frame)), repeat=k):
                for th in thetas:
                    new.append((word, apply_word(sdef, th, word, frame)))
        for _, sec in new:
            rows.append([c.value_at_origin() for c in sec.components()])
        dims.append(exact_rank(rows) if rows else 0)
    return dims


@pytest.mark.parametrize(
    "sdef,kmax",
    [(crossing_powers(1, 2), 4), (three_quadrics(), 3), (s2_structure(3), 5)],
    ids=["crossing", "threeq", "s2-d3"],
)
def test_hull_dims_match_brute_force(sdef, kmax):
    kvs = kernel_vectors(sdef)
    chain = hull_chain(sdef, kvs, k_max=kmax)
    assert chain.dims[: kmax + 1] == brute_force_dims(sdef, kvs, kmax)


CHAIN_CASES = {
    **{f"mizohata-{nu}-{n}": (standard_mizohata(nu, n), 8) for n in (1, 2, 3) for nu in range(n + 1)},
    "crossing-1-2": (crossing_powers(1, 2), 8),
    "crossing-2-3": (crossing_powers(2, 3), 8),
    "three-quadrics": (three_quadrics(), 8),
    "monomial-quadrics": (monomial_structure([(2, 0), (1, 1), (0, 2)]), 8),
    "disk-weighted-1-2": (disk_weighted_powers(1, 2), 8),
    "flat-1-1": (flat_structure(1, 1), 8),
    "complex-1": (complex_structure(1), 8),
    "disk-times-line": (disk_times_line(), 8),
    **{f"s2-d{d}": (s2_structure(d), 3) for d in (2, 3, 4, 5)},
}


@pytest.mark.parametrize("sdef, k_max", list(CHAIN_CASES.values()), ids=list(CHAIN_CASES))
def test_chain_dims_equal_the_rank_of_the_values_so_far(sdef, k_max):
    # the chains keep the span dimension at 0 incrementally; the GaussRat
    # rank of every kept value row up to each level is the oracle
    kvs = kernel_vectors(sdef)
    for chain in (hull_chain(sdef, kvs, k_max=k_max), kernel_chain(sdef, kvs, k_max=k_max)):
        for k, dim in enumerate(chain.dims):
            rows = [list(values) for word, _, values in chain.entries if len(word) <= k]
            assert dim == gauss_rank(rows)


def test_hull_dims_match_brute_force_disk():
    sdef = disk_weighted_powers(1, 2)
    kv = _disk_kernel(sdef, 1, 2)
    chain = hull_chain(sdef, [kv], k_max=6)
    assert chain.dims[:7] == brute_force_dims(sdef, [kv], 6)


def test_commutator_identity_with_nonzero_bracket():
    # function-coefficient combinations of frame fields have nonvanishing
    # brackets, exercising the commutator identity beyond the canonical frame
    sdef = three_quadrics()
    rng = random.Random(61)
    vars = sdef.vars
    frame = build_frame(sdef)
    f = RatFun.of(rand_poly(rng, vars, real=True) + Poly.var(vars, "t1"))
    g = RatFun.of(rand_poly(rng, vars, real=True) + Poly.var(vars, "t2"))
    X = frame[0] + frame[1].scale_ratfun(f)
    Y = frame[0].scale_ratfun(g)
    br = X.bracket(Y)
    assert not br.is_zero()
    # the bracket stays in the frame span
    _, residual = expand_in_frame(sdef, br, frame)
    assert residual.is_zero()
    omega = section(
        sdef, cw=tuple(rand_poly(rng, vars) for _ in range(sdef.d))
    )
    lhs = lie_derivative(sdef, X, lie_derivative(sdef, Y, omega))
    rhs = lie_derivative(sdef, Y, lie_derivative(sdef, X, omega))
    mid = lie_derivative(sdef, br, omega)
    for a, b, c in zip(lhs.components(), rhs.components(), mid.components()):
        assert (a - b) == c


def test_two_specific_iterates_span_for_crossing():
    # for exponents k != l the iterates of order k and l already span the
    # annihilator fiber at 0
    k, l = 1, 2
    sdef = crossing_powers(k, l)
    vars = sdef.vars
    theta = CotangentSection(
        sdef, (), (Poly.var(vars, "t1", k), -Poly.var(vars, "t1", l))
    )
    frame = build_frame(sdef)
    rows = [
        word_value_at_origin(sdef, theta, (0,) * k, frame),
        word_value_at_origin(sdef, theta, (0,) * l, frame),
    ]
    assert exact_rank([list(r) for r in rows]) == 2
