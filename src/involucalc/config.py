"""Run-wide defaults that no structure file sets.  The numeric settings of
the [approx] and [fbi] blocks, and their defaults, live in cli.ApproxBlock
and cli.FbiBlock; an analyze report's header echoes both."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Defaults:
    k_max: int = 8  # hull chain depth
    smooth_slope: float = 4.0  # |slope| >= this classifies Smooth
    singular_slope: float = -1.5  # slope >= this classifies Singular


DEFAULTS = Defaults()
