import random
import sys
import time
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from involucalc import loci, screen
from involucalc.algebra import GaussRat, Poly, RatFun, det
from involucalc.catalog import (
    crossing_powers,
    disk_weighted_powers,
    flat_structure,
    monomial_structure,
    three_quadrics,
)
from involucalc.cli import main
from involucalc.hull import hull_chain
from involucalc.loci import (
    NotMonomialTimesUnit,
    ZeroPolynomial,
    degeneracy_locus_check,
    exceptional_locus_check,
    full_minor_search,
    hull_generator_rows,
    monomial_unit_factor,
)
from involucalc.structure import (
    KernelVector,
    StructureDef,
    build_frame,
    characteristic_form,
    jacobians,
    kernel_vectors,
)
from conftest import apply_word, rand_poly, s1_structure, s2_structure


def verify_witness(v) -> bool:
    """Re-check a Yes verdict: the recorded factorization must reassemble the
    recorded minor exactly."""
    if not v.established or v.witness is None:
        return v.established and v.witness is None
    w = v.witness
    return (
        w.factor.reassemble() == w.minor
        and not w.factor.unit.constant_term().is_zero()
    )


# -- monomial-times-unit factorization ----------------------------------------


def test_factor_product_of_variables():
    vars = ("t1", "t2")
    p = Poly.var(vars, "t1") * Poly.var(vars, "t2")
    f = monomial_unit_factor(p)
    assert f.alpha == (1, 1)
    assert f.unit == Poly.one(vars)


def test_factor_sum_of_squares_fails():
    vars = ("t1", "t2")
    p = Poly.var(vars, "t1", 2) + Poly.var(vars, "t2", 2)
    with pytest.raises(NotMonomialTimesUnit):
        monomial_unit_factor(p)


def test_factor_with_unit():
    vars = ("t1", "x1")
    p = Poly.var(vars, "t1", 3) * 2 + Poly.var(vars, "t1", 3) * Poly.var(vars, "x1") * 2
    f = monomial_unit_factor(p)
    assert f.alpha == (3, 0)
    assert f.unit == Poly.const(vars, 2) + Poly.var(vars, "x1") * 2


def test_factor_zero_polynomial():
    with pytest.raises(ZeroPolynomial):
        monomial_unit_factor(Poly.zero(("t1",)))


def test_factor_roundtrip_randomized():
    rng = random.Random(17)
    vars = ("u", "v", "w")
    for _ in range(25):
        unit = rand_poly(rng, vars, max_degree=2, n_terms=3) + 1 + rng.randint(0, 3)
        if unit.constant_term().is_zero():
            continue
        alpha = tuple(rng.randint(0, 3) for _ in vars)
        p = unit * Poly.monomial(vars, alpha)
        f = monomial_unit_factor(p)
        assert f.reassemble() == p
        # recovered exponents match whenever unit(0) != 0
        assert f.alpha == alpha
        assert f.unit == unit


# -- exceptional locus ---------------------------------------------------------


def test_exceptional_three_quadrics():
    v = exceptional_locus_check(three_quadrics())
    assert v.established
    vars = three_quadrics().vars
    assert v.witness.minor == Poly.var(vars, "t1", 2) * 2
    assert v.witness.rows == (1, 2)
    assert verify_witness(v)


@pytest.fixture
def no_screen(monkeypatch):
    """Make an import of the screen module fail."""
    monkeypatch.setitem(sys.modules, "involucalc.screen", None)


def test_exceptional_disk_weighted_not_established(no_screen):
    # one 1 x 1 minor is left after the first nonzero one: tried exactly
    v = exceptional_locus_check(disk_weighted_powers(1, 2))
    assert not v.established


def test_exceptional_zero_row_only(no_screen):
    # phi_t identically zero: no nonzero minor, and none left to screen
    sdef = flat_structure(1, 1)
    v = exceptional_locus_check(sdef)
    assert not v.established


def test_exceptional_trivial_when_no_t_variables():
    from involucalc.structure import structure_vars

    vars = structure_vars(0, 1, 0)
    sdef = StructureDef(0, 1, 0, (Poly.zero(vars),))
    v = exceptional_locus_check(sdef)
    assert v.established and v.witness is None


def test_exceptional_invariant_under_s_permutation():
    # permuting the s variables permutes the rows of phi_t; verdict unchanged
    base = three_quadrics()
    for perm in permutations(range(3)):
        phi = tuple(base.phi[p] for p in perm)
        sdef = StructureDef(0, 3, 2, phi)
        assert exceptional_locus_check(sdef).established


def test_exceptional_monomial_structure():
    sdef = monomial_structure([(2, 0), (0, 2)])
    v = exceptional_locus_check(sdef)
    assert v.established
    assert verify_witness(v)


def test_exceptional_witness_after_a_nonzero_minor(tmp_path, capsys):
    # phi_t = (2*s1*t1 + 3*t1^2, t1): the first minor is nonzero and no
    # witness, so row 2 is found through the mod-p screen
    f = tmp_path / "exceptional.struct"
    f.write_text("[dims]\nnu = 0 d = 2 mu = 1\n[phi]\ns1*t1^2 + t1^3\nt1^2/2\n")
    assert main(["analyze", str(f)]) == 0
    assert "exceptional locus: Yes (rows (2,), minor t1)" in capsys.readouterr().out.splitlines()


# -- degeneracy locus ------------------------------------------------------------


def test_degeneracy_crossing_minor():
    k, l = 1, 2
    sdef = crossing_powers(k, l)
    chain = hull_chain(sdef, kernel_vectors(sdef))
    v = degeneracy_locus_check(sdef, chain)
    assert v.established
    vars = sdef.vars
    # the witness minor is (k - l) t^(k+l-1) up to sign from row scaling
    expect = Poly.var(vars, "t1", k + l - 1) * (k - l)
    assert v.witness.minor == expect or v.witness.minor == -expect
    assert verify_witness(v)


def test_degeneracy_immediate_when_full_at_zero():
    sdef = flat_structure(2, 1)
    chain = hull_chain(sdef, kernel_vectors(sdef))
    assert chain.nondeg_order == 0
    v = degeneracy_locus_check(sdef, chain)
    assert v.established
    # minor is a unit: empty exponent
    assert all(a == 0 for a in v.witness.factor.alpha)


def test_degeneracy_not_established_without_generators():
    sdef = crossing_powers(1, 2)
    chain = hull_chain(sdef, [])
    v = degeneracy_locus_check(sdef, chain)
    assert not v.established


def test_degeneracy_established_for_disk_weighted():
    sdef = disk_weighted_powers(1, 2)
    vars = sdef.vars
    kv = KernelVector(
        sdef, (Poly.var(vars, "t1", 2), -Poly.var(vars, "t1")), provenance="user"
    )
    chain = hull_chain(sdef, [kv], k_max=8)
    v = degeneracy_locus_check(sdef, chain)
    assert v.established
    assert verify_witness(v)


# -- hull generator rows -----------------------------------------------------------


@pytest.mark.parametrize("name, k_max", [("s2-d3", 3), ("s1", 4)])
def test_hull_rows_carry_det_to_at_most_word_length_plus_one(name, k_max):
    # each derivative along a frame field raises the det W_s power by at most one
    sdef = s2_structure(3) if name == "s2-d3" else s1_structure()
    det = jacobians(sdef).det_w_s
    powers = [Poly.one(sdef.vars)]
    for _ in range(k_max + 1):
        powers.append(powers[-1] * det)
    chain = hull_chain(sdef, kernel_vectors(sdef), k_max=k_max)
    rows = hull_generator_rows(sdef, chain)
    assert max(len(word) for (word, _), _ in rows) == k_max
    for (word, _), comps in rows:
        for c in comps:
            assert c.den in powers[: len(word) + 2]


@pytest.mark.parametrize("name", ["s2-d3", "disk"])
def test_hull_rows_match_apply_word(name):
    # rows are built from their parent word's row; they must equal the
    # section recomputed from the start form along the whole word
    sdef = s2_structure(3) if name == "s2-d3" else disk_weighted_powers(1, 2)
    kernel = kernel_vectors(sdef)
    if name == "disk":
        vars = sdef.vars
        kernel = [KernelVector(sdef, (Poly.var(vars, "t1", 2), -Poly.var(vars, "t1")))]
    chain = hull_chain(sdef, kernel, k_max=4)
    frame = build_frame(sdef)
    thetas = [characteristic_form(sdef, kv) for kv in kernel]
    rows = hull_generator_rows(sdef, chain)
    assert [key for key, _ in rows] == [(w, si) for w, si, _ in chain.entries]
    assert any(len(w) >= 2 for w, _, _ in chain.entries)
    for (word, si), comps in rows:
        expect = apply_word(sdef, thetas[si], word, frame=frame).components()
        assert all(a == b for a, b in zip(comps, expect))


# -- the mod-p screen of the degeneracy search ----------------------------------------


def exact_witness_subsets(rows, size, subsets=None):
    """Every subset (of ``subsets``, by default of all), in order, whose exact
    minor is nonzero with a monomial-times-unit numerator: the exhaustive
    search the screen stands in for."""
    found = []
    for picked in subsets or combinations(range(len(rows)), size):
        minor = det([list(rows[i][1]) for i in picked])
        if minor.is_zero():
            continue
        try:
            monomial_unit_factor(minor.num)
        except NotMonomialTimesUnit:
            continue
        found.append(picked)
    return found


@pytest.mark.parametrize(
    "name, subsets, witnesses",
    [
        ("disk", 455, 0),
        ("s2-d3", 220, 99),
        ("three-quadrics", 20, 17),
        ("monomial-6-5-3", 220, 168),
        ("s2-d4", 3060, 309),
        ("s2-d5-every-20th", 2126, 34),
    ],
)
def test_screen_passes_exactly_the_witness_subsets(name, subsets, witnesses):
    # minors of size 1 to 5: s2-d4 and s2-d5 reach sizes 4 and 5
    sdef, k_max, step = {
        "disk": (disk_weighted_powers(1, 2), 8, 1),
        "s2-d3": (s2_structure(3), 3, 1),
        "three-quadrics": (three_quadrics(), 8, 1),
        "monomial-6-5-3": (monomial_structure([(6,), (5,), (3,)]), 8, 1),
        "s2-d4": (s2_structure(4), 3, 1),
        "s2-d5-every-20th": (s2_structure(5), 3, 20),
    }[name]
    rows = hull_generator_rows(sdef, hull_chain(sdef, kernel_vectors(sdef), k_max=k_max))
    size = sdef.nu + sdef.d
    every = list(combinations(range(len(rows)), size))[::step]
    expect = exact_witness_subsets(rows, size, every)
    assert (len(every), len(expect)) == (subsets, witnesses)
    assert screen._Screen(rows, size).passes(every) == expect


def _exact_det_mod_p(m, terms=None):
    """The integer determinant of m by the Leibniz formula, mod P; with
    ``terms``, m's entries are coefficient lists of polynomials in lam, and
    the result is the determinant's coefficients of lam^0..lam^(terms-1)."""
    if terms is None:
        return _exact_det_mod_p([[[x] for x in row] for row in m], 1)[0]
    n, total = len(m), [0] * terms
    for perm in permutations(range(n)):
        term = [-1 if sum(a > b for a, b in combinations(perm, 2)) % 2 else 1]
        for i, j in enumerate(perm):
            e = m[i][j] + [0] * terms
            term = [sum(term[s] * e[k - s] for s in range(min(k + 1, len(term)))) for k in range(terms)]
        total = [x + y for x, y in zip(total, term)]
    return [x % screen.P for x in total]


@pytest.mark.parametrize("n", range(1, 7))
def test_minors_mod_p_match_the_exact_determinant(n):
    rng = random.Random(n)
    mats = [[[rng.randrange(screen.P) for _ in range(n)] for _ in range(n)] for _ in range(6)]
    # small entries: zero pivots, and singular matrices
    mats += [[[rng.choice((0, 0, 1, 2)) for _ in range(n)] for _ in range(n)] for _ in range(12)]
    if n > 1:
        dup = [row[:] for row in mats[0]]
        dup[-1] = dup[0][:]  # two equal rows
        scaled = [row[:] for row in mats[1]]
        scaled[1] = [3 * x % screen.P for x in scaled[0]]  # singular mod P only
        zero_col = [[0] + row[1:] for row in mats[2]]
        mats += [dup, scaled, zero_col]
    mats.append([[0] * n for _ in range(n)])
    stacked = np.array([row for m in mats for row in m], np.int64)
    idx = np.arange(len(stacked)).reshape(len(mats), n)
    expect = [_exact_det_mod_p(m) for m in mats]
    assert screen._minors_mod_p(stacked, idx).tolist() == expect
    assert 0 in expect and any(expect)
    # a trailing axis holds lam-coefficients: det(A + lam*B + lam^2*C) up to lam^2,
    # with B and C the matrices reversed and rotated by one
    series = np.stack([stacked, stacked[::-1], np.roll(stacked, n, axis=0)], axis=2)
    polys = series.reshape(len(mats), n, n, 3).tolist()
    assert screen._minors_mod_p(series, idx).tolist() == [_exact_det_mod_p(m, terms=3) for m in polys]
    # every n-subset of n + 3 rows, so that consecutive subsets share
    # prefixes, then the same subsets shuffled, which share fewer
    rows = [[rng.choice((0, 1, 2, rng.randrange(screen.P))) for _ in range(n)] for _ in range(n + 3)]
    subsets = list(combinations(range(n + 3), n))
    for _ in range(2):
        got = screen._minors_mod_p(np.array(rows, np.int64), np.array(subsets, np.intp))
        assert got.tolist() == [_exact_det_mod_p([rows[k] for k in s]) for s in subsets]
        rng.shuffle(subsets)


def test_screened_witness_is_the_exact_search_witness(tmp_path, capsys, monkeypatch):
    # minor 0 of the ten is nonzero and no witness, so subset 7, the first
    # witness in lexicographic order, is found through the screen
    f = tmp_path / "screened.struct"
    f.write_text("[dims]\nnu = 0 d = 2 mu = 1\n[phi]\ns1*t1^2 + t1^3\ns2*t1^2 + t1^4 + s1*t1^3\n")
    minors = []
    monkeypatch.setattr(loci, "ratfun_det", lambda m: minors.append(m) or det(m))
    assert main(["analyze", str(f), "--kmax", "4"]) == 0
    assert (
        "degeneracy locus: Yes (rows (((0, 0), 0), ((0, 0, 0), 0)), minor 144-288*i*t1^2-720*i*s1*t1"
        "+7440*t1^4+5040*s1*t1^3+30048*i*t1^6+13104*i*s1*t1^5-56304*t1^8-10896*s1*t1^7"
        "-50688*i*t1^10+18528*i*s1*t1^9+6048*t1^12-59808*s1*t1^11-33408*i*t1^14-73248*i*s1*t1^13"
        "+34992*t1^16+50016*s1*t1^15+16416*i*t1^18+19824*i*s1*t1^17-3888*t1^20-4368*s1*t1^19"
        "-480*i*t1^22-528*i*s1*t1^21+48*t1^24+48*s1*t1^23)"
    ) in capsys.readouterr().out.splitlines()
    assert len([m for m in minors if len(m) == 2]) == 2  # the exceptional search's are 1 x 1


def _crafted_rows(case):
    """Four 2-entry rows over (t1, t2): minor (0, 1) is nonzero and no
    witness, so the search hands the rest to the screen, and (2, 3) is the
    only witness; row 2 or rows 2 and 3 defeat the screen."""
    vars = ("t1", "t2")
    t1, t2 = Poly.var(vars, "t1"), Poly.var(vars, "t2")
    one, zero, q = Poly.one(vars), Poly.zero(vars), t1 * t1 + t2 * t2
    head = [(q, zero), (zero, q)]
    if case == "prime-divides-denominator":
        tail = [(one * GaussRat(Fraction(1, screen.P)), zero), (zero, one)]
    else:  # too many points: the degree bound is 2 * 4100
        tail = [(one + t1 ** 4100, zero), (zero, one + t2 ** 4100)]
    return [(k, tuple(RatFun.of(c) for c in row)) for k, row in enumerate(head + tail)]


@pytest.mark.parametrize("case", ["prime-divides-denominator", "too-many-points"])
def test_screen_falls_back_to_the_exact_search(case):
    rows = _crafted_rows(case)
    every = list(combinations(range(4), 2))
    assert screen._Screen(rows, 2).passes(every[1:]) is None
    assert exact_witness_subsets(rows, 2) == [(2, 3)]
    v = full_minor_search(rows, 2)
    assert v.established and v.witness.rows == (2, 3)
    assert v.witness.minor == det([list(rows[2][1]), list(rows[3][1])]).num
    assert verify_witness(v)


def test_screen_doubles_the_axis_series_length(monkeypatch):
    # nine 2-entry rows over (t1, t2); the witnesses' Delta include t1^2,
    # t1^5 (1 + t2) and t1^4, and (0, 1)'s Delta = q^2 is no witness
    vars = ("t1", "t2")
    t1, t2 = Poly.var(vars, "t1"), Poly.var(vars, "t2")
    one, zero, q = Poly.one(vars), Poly.zero(vars), t1 * t1 + t2 * t2
    rows = [(q, zero), (zero, q), (one, one), (one, one + t2), (t1**5, t2), (zero, one + t2)]
    rows += [(zero, t1**2), (one, zero), (zero, t1**4)]
    rows = [(k, tuple(RatFun.of(c) for c in row)) for k, row in enumerate(rows)]
    every = list(combinations(range(len(rows)), 2))
    expect = exact_witness_subsets(rows, 2, every)
    assert (0, 1) not in expect and {(2, 6), (4, 5), (7, 8)} <= set(expect)
    assert screen._Screen(rows, 2).passes(every) == expect
    # Delta = t1^4 of (7, 8) is 0 to lam^3 on the t1 axis: T = 1, 2 and 4 read zeros
    lengths = []
    real = screen._minors_mod_p
    monkeypatch.setattr(screen, "_minors_mod_p", lambda m, idx: lengths.append(m.shape[2]) or real(m, idx))
    assert screen._Screen(rows, 2).passes([(7, 8)]) == [(7, 8)]
    assert {1, 2, 4, 5} <= set(lengths)


def test_locus_search_builds_only_the_rows_it_reads(monkeypatch):
    sdef = s2_structure(5)
    chain = hull_chain(sdef, kernel_vectors(sdef), k_max=3)
    calls = []
    real = loci.lie_derivative
    monkeypatch.setattr(loci, "lie_derivative", lambda *a: calls.append(a) or real(*a))
    assert degeneracy_locus_check(sdef, chain).established
    built = len(calls)
    rows = hull_generator_rows(sdef, chain)
    assert len(rows) == 24 and len(calls) == built
    first, again = list(rows), list(rows)  # a full iteration builds every row, once
    derived = sum(1 for word, _, _ in chain.entries if word)
    assert len(calls) - built == derived and built < derived
    assert [key for key, _ in first] == [key for key, _ in again] == [(w, si) for w, si, _ in chain.entries]


def test_disk_weighted_search_makes_at_most_two_exact_minors(monkeypatch):
    sdef = disk_weighted_powers(1, 2)
    chain = hull_chain(sdef, kernel_vectors(sdef), k_max=8)
    minors = []
    monkeypatch.setattr(loci, "ratfun_det", lambda m: minors.append(m) or det(m))
    v = degeneracy_locus_check(sdef, chain)
    assert not v.established and v.note == "no full minor of the hull generators factored"
    assert len(minors) <= 2


def test_s1_degeneracy_search_at_kmax_5_ends(tmp_path, capsys):
    # 35,960 nonzero minors, none a witness: the exhaustive search ran for minutes
    f = tmp_path / "s1.struct"
    f.write_text(
        "[dims]\nnu = 1 d = 3 mu = 2\n[phi]\nt1^3/3 + x1^2*t2^2 + s1*t1^2\n"
        "t1^2*t2 + y1^2*t1^2\nt2^4 + x1*y1*t1*t2 + s2^2\n"
    )
    start = time.perf_counter()
    assert main(["analyze", str(f), "--kmax", "5"]) == 0
    assert time.perf_counter() - start < 15.0
    out = capsys.readouterr().out.splitlines()
    assert "degeneracy locus: NotEstablished (no full minor of the hull generators factored)" in out
