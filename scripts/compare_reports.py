#!/usr/bin/env python3
"""Compare the reports of two source trees on the benchmark's inputs.

    python3 scripts/compare_reports.py PARENT_SRC CHANGE_SRC [--seed N]

PARENT_SRC and CHANGE_SRC are checkouts (or their ``src`` directories).
The inputs of each workload are taken from ``perfbench/workloads.py`` of the
checkout that holds this script, which is imported without writing to it
(the catalog inputs are generated with CHANGE_SRC's package).
A fixed list of inputs whose reports record errors (FAILING) is added as
the workload ``errors``, so that the error path is compared as well.
Every input of every workload runs once under each tree, each in a fresh
interpreter in the same scratch directory, so paths echoed in a report agree.  Inputs whose
standard output, standard error or exit code differ are printed with a
unified diff; inputs that exceed their time limit under either tree (the
benchmark's cap, or TIMEOUT_S for inputs it does not cap) are listed as not
compared.  The exit code is 1 if any input differs."""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 120.0  # per run, for inputs without a cap of their own
RUNNER = "import sys; from involucalc.cli import main; sys.exit(main(sys.argv[1:]))"

_MINIMAL = "[dims]\nnu = 0 d = 1 mu = 1\n[phi]\nt1^2\n"
_HUGE = "[fbi]\nhalfwidth = 1" + "0" * 189 + "\n"  # samples and kernels overflow to 0
_NO_FLOAT = "1" + "0" * 400  # past the largest float
# (name, structure file, command and options) of inputs that fail a report
# section, a command option or the file grammar
FAILING = [
    ("candidate-not-real", _MINIMAL + "[candidate]\ns1 = i*s1\n", ["analyze"]),
    (
        "candidate-not-real-then-bundle",
        _MINIMAL + "[candidate]\ns1 = i*s1\n[bundle]\nrank = 1\nD 1 1 1 = t1\n",
        ["analyze"],
    ),
    ("fbi-halfwidth-1e20", _MINIMAL + "[fbi]\nhalfwidth = 100000000000000000000\n", ["wavefront"]),
    ("fbi-halfwidth-190-digits", _MINIMAL + _HUGE, ["wavefront"]),
    ("fbi-halfwidth-190-digits-analyze", _MINIMAL + _HUGE, ["analyze"]),
    ("fbi-boundary-pole", _MINIMAL + "[fbi]\ndata = boundary\ndelta = 0\ngrid = 65\n", ["wavefront"]),
    (
        "bundle-lambda-index-above-rank",
        _MINIMAL + "[bundle]\nrank = 1\nlambda 1 1 = 1\nlambda 2 2 = 5\n",
        ["analyze"],
    ),
    ("bundle-frame-index-above-fields", _MINIMAL + "[bundle]\nD 3 1 1 = t1\n", ["analyze"]),
    ("covector-not-characteristic", "[dims]\nnu = 1 d = 0 mu = 0\n", ["analyze", "--covector", "x1=1"]),
    ("approx-box-401-digits", _MINIMAL + f"[approx]\nbox = {_NO_FLOAT}\n", ["approx"]),
    ("fbi-halfwidth-401-digits", _MINIMAL + f"[fbi]\nhalfwidth = {_NO_FLOAT}\n", ["wavefront"]),
    ("fbi-kappa-401-digits", _MINIMAL + f"[fbi]\nkappa = {_NO_FLOAT}\n", ["wavefront"]),
    ("option-kappa-401-digits", _MINIMAL, ["wavefront", "--kappa", _NO_FLOAT]),
    ("approx-box-float-zero", _MINIMAL + f"[approx]\nbox = 1/{_NO_FLOAT}\n", ["approx"]),
    ("fbi-halfwidth-float-zero", _MINIMAL + f"[fbi]\nhalfwidth = 1/{_NO_FLOAT}\n", ["wavefront"]),
    ("bundle-section-empty", _MINIMAL + "[bundle]\nrank = 1\nsection =\n", ["analyze"]),
    ("bundle-section-empty-group", _MINIMAL + "[bundle]\nrank = 2\nsection = t1, , 1\n", ["analyze"]),
]


def _load_workloads(src):
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(HERE.parent / "perfbench"), str(src)]
    from workloads import WORKLOADS, Input

    failing = [Input(name, text, argv[0], argv[1:]) for name, text, argv in FAILING]
    return {**WORKLOADS, "errors": lambda seed: failing}


def _src_dir(path):
    path = Path(path).resolve()
    for cand in (path, path / "src"):
        if (cand / "involucalc" / "__init__.py").is_file():
            return cand
    raise SystemExit(f"no involucalc package under {path}")


def _run(src, argv, cwd, timeout):
    """(exit code, stdout, stderr) of one command, or None on a timeout."""
    env = dict(os.environ, PYTHONPATH=str(src))
    try:
        p = subprocess.run(
            [sys.executable, "-c", RUNNER, *argv],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None
    return p.returncode, p.stdout, p.stderr


def _diff(name, a, b):
    return "".join(
        difflib.unified_diff(
            a.splitlines(keepends=True), b.splitlines(keepends=True),
            f"parent/{name}", f"change/{name}",
        )
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    trees = (_src_dir(args.parent), _src_dir(args.change))
    workloads = _load_workloads(trees[1])
    compared = differ = 0
    skipped = []
    with tempfile.TemporaryDirectory(prefix="compare_reports_") as tmp:
        for wl, make_inputs in workloads.items():
            for inp in make_inputs(args.seed):
                path = Path(tmp) / f"{inp.name}.txt"
                path.write_text(inp.text)
                label = f"{wl}/{inp.name}"
                limit = inp.cap_s if inp.cap_s is not None else TIMEOUT_S
                results = [_run(src, inp.argv(path.name), tmp, limit) for src in trees]
                if None in results:
                    side = " and ".join(t for t, r in zip(("parent", "change"), results) if r is None)
                    skipped.append(f"{label} (over {limit:g} s under {side})")
                    continue
                compared += 1
                (rc0, out0, err0), (rc1, out1, err1) = results
                if (rc0, out0, err0) == (rc1, out1, err1):
                    continue
                differ += 1
                print(f"== {label}: {' '.join(inp.argv(path.name))}")
                if rc0 != rc1:
                    print(f"exit code {rc0} -> {rc1}")
                print(_diff("stdout", out0, out1) + _diff("stderr", err0, err1), end="")
    print(f"# seed {args.seed}: {compared} inputs compared, {differ} differ")
    for line in skipped:
        print(f"# not compared: {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
