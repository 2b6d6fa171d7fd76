#!/usr/bin/env python3
"""Run ``analyze`` on seeded random structure files and tally what happens.

    python3 scripts/sweep.py --seed N --count M

The M files are drawn in order from ``random.Random(N)`` (``structure_files``):
each has a random [dims] (nu, d and mu in DIMS, within
``cli.LIMITS["dimension"]``) and a [phi] of d real polynomials, each of TERMS
terms of total degree in DEGREE over the structure's coordinates, with small
rational coefficients.  The same seed gives the same files.

Each file runs ``python -m involucalc.cli analyze FILE`` in a fresh interpreter
with this checkout's ``src`` on the path, one after another, killed after
CAP_S seconds and held to MEMORY_BYTES of address space.  For each file the
script prints its exit code and wall time, its ``[module]`` error lines, the
last line of any traceback and whether it hit the cap, then a tally of exit
codes, cap hits, tracebacks, error lines and verdict lines (the label and
the verdict's first word).  ``structure_files(N, M)[i]`` is the text of the
file named ``sweep-N-i.struct``."""

from __future__ import annotations

import argparse
import collections
import os
import random
import re
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from involucalc.cli import LIMITS  # noqa: E402
from involucalc.structure import structure_vars  # noqa: E402

DIMS = {"nu": (0, 1), "d": (1, 3), "mu": (1, 2)}
TERMS = (1, 3)  # terms of each phi_k
DEGREE = (2, 4)  # total degree of each term
CAP_S = 20.0  # wall seconds per file
MEMORY_BYTES = 2 << 30
VERDICTS = ("nondegeneracy order", "exceptional locus", "degeneracy locus")


def structure_files(seed, count):
    """The texts of the ``count`` structure files of ``seed``."""
    rng = random.Random(seed)
    return [_structure_text(rng) for _ in range(count)]


def _structure_text(rng):
    dims = {k: rng.randint(lo, min(hi, LIMITS["dimension"])) for k, (lo, hi) in DIMS.items()}
    vars = structure_vars(dims["nu"], dims["d"], dims["mu"])
    phis = []
    for _ in range(dims["d"]):
        terms = []
        for _ in range(rng.randint(*TERMS)):
            exps = collections.Counter(rng.choice(vars) for _ in range(rng.randint(*DEGREE)))
            c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.choice((1, 1, 2, 3, 4)))
            terms.append(f"({c})*" + "*".join(v if e == 1 else f"{v}^{e}" for v, e in sorted(exps.items())))
        phis.append(" + ".join(terms))
    return f"[dims]\nnu = {dims['nu']} d = {dims['d']} mu = {dims['mu']}\n[phi]\n" + "\n".join(phis) + "\n"


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def _run(path):
    """(exit code or None at the cap, seconds, stdout + stderr)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, "-m", "involucalc.cli", "analyze", str(path)]
    start = time.perf_counter()
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=CAP_S, env=env, preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired as e:  # its output so far may be bytes
        out = [x.decode(errors="replace") if isinstance(x, bytes) else x or "" for x in (e.stdout, e.stderr)]
        return None, time.perf_counter() - start, "".join(out)
    return p.returncode, time.perf_counter() - start, p.stdout + p.stderr


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, required=True)
    args = ap.parse_args(argv)
    tally = collections.Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for i, text in enumerate(structure_files(args.seed, args.count)):
            path = Path(tmp) / f"sweep-{args.seed}-{i}.struct"
            path.write_text(text)
            code, wall, output = _run(path)
            lines = output.splitlines()
            print(f"{path.name}: {'cap' if code is None else f'exit {code}'}, {wall:.1f} s", flush=True)
            tally["cap" if code is None else f"exit {code}"] += 1
            for line in lines:
                if re.match(r"\[\w+\] ", line):
                    print(f"  {line}")
                    tally[line] += 1
                elif line.split(":")[0] in VERDICTS:
                    label, verdict = line.split(": ", 1)
                    tally[f"{label}: {verdict.split()[0]}"] += 1
            if "Traceback (most recent call last):" in lines:
                print(f"  traceback: {lines[-1]}")
                tally["traceback"] += 1
    print("# tally")
    for key, n in sorted(tally.items()):
        print(f"{n:5d}  {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
