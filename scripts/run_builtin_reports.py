#!/usr/bin/env python3
"""Run the full symbolic analysis on the built-in example structures and
print one report per structure.  Errors of failed report sections go to
stderr, and the exit code is 1 if there were any."""

import sys

from involucalc.catalog import (
    crossing_powers,
    disk_times_line,
    disk_weighted_powers,
    flat_structure,
    monomial_structure,
    standard_mizohata,
    three_quadrics,
)
from involucalc.cli import StructureFile, run_report


def main():
    examples = [
        ("mizohata type {1,1}", standard_mizohata(1, 2), ["s1=1"]),
        ("mizohata type {0,1}", standard_mizohata(0, 1), ["s1=1"]),
        ("crossing powers (k,l) = (1,2)", crossing_powers(1, 2), []),
        ("crossing powers (k,l) = (2,3)", crossing_powers(2, 3), []),
        ("three quadrics", three_quadrics(), []),
        ("disk-weighted powers (1,2)", disk_weighted_powers(1, 2), []),
        ("monomial exponents (2,0),(1,1),(0,2)", monomial_structure([(2, 0), (1, 1), (0, 2)]), []),
        ("flat d=1 mu=1", flat_structure(1, 1), ["s1=1"]),
        ("product disk x line", disk_times_line(), []),
    ]
    failed = False
    for name, sdef, covectors in examples:
        print("=" * 72)
        print(f"== {name}")
        report = run_report(StructureFile(sdef), {"k_max": 8, "covectors": covectors})
        sys.stdout.write(report.human_text())
        for error in report.errors:
            sys.stderr.write(f"{name}: {error}\n")
        failed = failed or bool(report.errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
