"""Lie-derivative calculus on annihilator sections and the ascending span
chains that decide the nondegeneracy order at the base point.

In the first-integral coframe {dZ_j, dW_k} the canonical derivative along a
frame field acts componentwise, because each dZ_j, dW_k is closed and
annihilates the frame.  Chains are computed on jets at the origin: the level-k
entries are iterated derivatives L_w of the characteristic forms over words w
of length <= k, and the span dimension is taken on the values at 0.

Iterated words are deduplicated by their truncated jets: a word whose jet is a
constant-coefficient combination of already-kept jets contributes nothing new
at any later level, since differentiation is linear over constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Echelon, RatFun, apply_field_truncated, packed_row, ratfun_jet, scalar_row
from .config import DEFAULTS
from .structure import (
    CotangentSection,
    StructureDef,
    VectorFieldSym,
    characteristic_form,
    frame_jets,
)


def lie_derivative(
    sdef: StructureDef, L: VectorFieldSym, omega: CotangentSection
) -> CotangentSection:
    """Derivative of an annihilator section along a frame field,
    componentwise in the first-integral coframe."""
    return CotangentSection(
        sdef,
        tuple(L.apply(c) for c in omega.cz),
        tuple(L.apply(c) for c in omega.cw),
    )


# -- jet span bookkeeping -----------------------------------------------------


def _apply_field_jets(field_coeff_jets: dict, jets, order) -> tuple:
    """The field applied to jets of order ``order + 1``, exact to order ``order``."""
    return tuple(apply_field_truncated(field_coeff_jets, j, order) for j in jets)


@dataclass
class SpanChain:
    """Per-level generators (kept words with their values at 0), span
    dimensions, and the resulting nondegeneracy verdict."""

    target: int
    k_max: int
    dims: list  # dims[k] = span dimension at 0 of all iterates of length <= k
    entries: list  # (word, start index, value tuple at 0) per kept generator
    nondeg_order: int | None  # least k with dims[k] == target, if attained
    stabilized_at: int | None  # level at which the jet frontier was exhausted
    starts: tuple  # what the chain was built from, by start index

    @property
    def nondegenerate(self) -> bool:
        return self.nondeg_order is not None


def _run_chain(sdef: StructureDef, starts, components, target, k_max):
    """Shared chain driver: ``components`` gives each start as a tuple of
    RatFun (or Poly) components; iterates all frame words up to length k_max
    with jet deduplication.  Start jets have order k_max and each derivative
    costs one order, so the level-k jets have order k_max - k.  A second
    echelon over the kept entries' values keeps the span dimension at 0."""
    fjets = frame_jets(sdef, k_max)
    tracker, values_at_0 = Echelon(), Echelon()
    entries, dims, stabilized_at = [], [], None
    level = [
        ((), si, tuple(ratfun_jet(RatFun.of(c, sdef.vars), k_max) for c in comp))
        for si, comp in enumerate(components)
    ]
    for k in range(k_max + 1):
        if k:
            level = [
                ((fi,) + word, si, _apply_field_jets(fj, jets, k_max - k))
                for word, si, jets in frontier
                for fi, fj in enumerate(fjets)
            ]
        frontier = []
        for word, si, jets in level:
            if tracker.add(packed_row(jets)):
                values = tuple(j.constant_term() for j in jets)
                entries.append((word, si, values))
                values_at_0.add(scalar_row(values))
                frontier.append((word, si, jets))
        dims.append(values_at_0.dim)
        if k and not frontier:
            stabilized_at = k
            break
    # pad: once the frontier is empty the dimension can never grow
    dims += [dims[-1]] * (k_max + 1 - len(dims))
    nondeg_order = next((k for k, dim in enumerate(dims) if dim == target), None)
    return SpanChain(target, k_max, dims, entries, nondeg_order, stabilized_at, tuple(starts))


def hull_chain(sdef: StructureDef, kernel, k_max=DEFAULTS.k_max) -> SpanChain:
    """Ascending chain of iterated derivatives of the characteristic forms;
    the structure is nondegenerate at 0 when the values at 0 span all of the
    annihilator fiber (dimension nu + d)."""
    thetas = [characteristic_form(sdef, kv) for kv in kernel]
    return _run_chain(sdef, thetas, [th.components() for th in thetas], sdef.nu + sdef.d, k_max)


def kernel_chain(sdef: StructureDef, kernel, k_max=DEFAULTS.k_max) -> SpanChain:
    """Chain on the kernel rows alone (values in C^d).

    It need not reach C^d where the hull chain reaches full span: theta's dW
    part is b (I + i phi_s), whose iterates at 0 carry derivatives of phi_s
    that this chain, iterating b alone, does not see."""
    starts = [kv.b for kv in kernel]
    return _run_chain(sdef, starts, starts, sdef.d, k_max)
