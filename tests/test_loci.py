import random
from itertools import permutations

import pytest

from involucalc.algebra import Poly
from involucalc.catalog import (
    crossing_powers,
    disk_weighted_powers,
    flat_structure,
    monomial_structure,
    three_quadrics,
)
from involucalc.hull import apply_word, hull_chain
from involucalc.loci import (
    NotMonomialTimesUnit,
    ZeroPolynomial,
    degeneracy_locus_check,
    exceptional_locus_check,
    hull_generator_rows,
    monomial_unit_factor,
    verify_witness,
)
from involucalc.structure import (
    KernelVector,
    StructureDef,
    build_frame,
    characteristic_form,
    jacobians,
    kernel_vectors,
)
from conftest import rand_poly, s1_structure, s2_structure


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


def test_exceptional_disk_weighted_not_established():
    v = exceptional_locus_check(disk_weighted_powers(1, 2))
    assert not v.established


def test_exceptional_zero_row_only():
    # phi_t identically zero: no nonzero minor
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
