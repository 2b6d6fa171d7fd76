"""Run-wide defaults.  A report header echoes them for reproducibility, with
the values its file's [approx] and [fbi] blocks replace."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Defaults:
    k_max: int = 8  # hull chain depth
    kappa: Fraction = Fraction(1, 4)  # Gaussian weight of the direction scan
    grid: int = 33  # sampling resolution for constant estimation
    scan_grid: int = 256  # direction-scan grid resolution per axis
    smooth_slope: float = 4.0  # |slope| >= this classifies Smooth
    singular_slope: float = -1.5  # slope >= this classifies Singular
    approx_order: int = 8  # truncation order of approximate solutions
    n_dirs: int = 8
    radii_spec: str = "6/5:120:7"  # min:max:count, log spaced

    def header_lines(self):
        return [
            f"k_max = {self.k_max}",
            f"kappa = {self.kappa}",
            f"grid = {self.grid}",
            f"scan_grid = {self.scan_grid}",
            f"smooth_slope = {self.smooth_slope}",
            f"singular_slope = {self.singular_slope}",
            f"approx_order = {self.approx_order}",
            f"n_dirs = {self.n_dirs}",
            f"radii = {self.radii_spec}",
        ]


DEFAULTS = Defaults()
