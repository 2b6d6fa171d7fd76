#!/usr/bin/env python3
"""Compare the reports of two source trees on the benchmark's inputs.

    python3 scripts/compare_reports.py PARENT_SRC CHANGE_SRC [--seed N]

PARENT_SRC and CHANGE_SRC are checkouts (or their ``src`` directories).
The inputs of each workload are taken from ``perfbench/workloads.py`` of the
checkout that holds this script, which is imported without writing to it
(the catalog inputs are generated with CHANGE_SRC's package).
A fixed list of inputs whose reports record errors (FAILING) is added as
the workload ``errors``, so that the error path is compared as well, and a
fixed list of inputs on paths the benchmark does not run (UNBENCHED) as the
workload ``unbenched``; the files a run writes under its ``--csv`` directory
are compared too.
Every input of every workload runs once under each tree, each in a fresh
interpreter in the same scratch directory, so paths echoed in a report agree.  Inputs whose
standard output, standard error, exit code or CSV files differ are printed with a
unified diff; inputs that exceed their time limit under either tree (the
benchmark's cap, or TIMEOUT_S for inputs it does not cap) are listed as not
compared.  The exit code is 1 if any input differs."""

from __future__ import annotations

import argparse
import difflib
import os
import shutil
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
_E300 = "1" + "0" * 300  # 1e300: a float, but 1e300 / 1e-300 is not
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
    ("fbi-radii-401-digits", _MINIMAL + f"[fbi]\nradii = 1:{_NO_FLOAT}:7\n", ["wavefront"]),
    ("fbi-radii-401-digits-analyze", _MINIMAL + f"[fbi]\nradii = 1:{_NO_FLOAT}:7\n", ["analyze"]),
    ("option-radii-1e400", _MINIMAL, ["wavefront", "--radii", "1:1e400:7"]),
    ("fbi-radii-count-3", _MINIMAL + "[fbi]\ngrid = 64\nradii = 1:2:3\n", ["wavefront"]),
    ("fbi-radii-four-fields", _MINIMAL + "[fbi]\ngrid = 64\nradii = 6/5:120:7:9\n", ["wavefront"]),
    ("fbi-radii-zero-denominator", _MINIMAL + "[fbi]\ngrid = 64\nradii = 1/0:2:3\n", ["analyze"]),
    ("fbi-radii-ratio-overflow", _MINIMAL + f"[fbi]\nradii = 1/{_E300}:{_E300}:7\n", ["wavefront"]),
    ("option-radii-ratio-overflow", _MINIMAL, ["wavefront", "--radii", "1e-300:1e300:7"]),
    ("fbi-kappa-zero", _MINIMAL + "[fbi]\nkappa = 0\n", ["wavefront"]),
    ("option-kappa-zero", _MINIMAL, ["wavefront", "--kappa", "0"]),
    ("option-kappa-empty", _MINIMAL, ["wavefront", "--kappa", ""]),
    ("option-radii-empty", _MINIMAL, ["wavefront", "--radii", ""]),
]

_APPROX = "[approx]\nnx = 2\norder = 8\nb = -t, -t\nu0 = 3/7*x1^5 + 2*x2\n"
_FBI = "[fbi]\ndata = boundary\ndelta = 1/20\ngrid = 128\ndirs = 4\n"
# (name, structure file, command and options) of inputs that succeed on paths
# the benchmark does not run: the machine report's 17-digit residual sup, the
# CSV tables, the command-line overrides of the [approx] and [fbi] values, and
# a degeneracy witness that comes from the mod-p screen (the structure's first
# nonzero minor is no witness)
UNBENCHED = [
    (
        "analyze-approx-fbi-machine",
        _MINIMAL + _APPROX + _FBI,
        ["analyze", "--machine", "--csv", "csv_analyze"],
    ),
    ("approx-csv", _MINIMAL + _APPROX, ["approx", "--csv", "csv_approx"]),
    (
        "approx-overrides-csv",
        _MINIMAL + _APPROX,
        ["approx", "--order", "3", "--box", "0.5", "--grid", "9", "--csv", "csv_approx_overrides"],
    ),
    (
        "wavefront-overrides-csv",
        _MINIMAL + _FBI,
        ["wavefront", "--kappa", "1", "--dirs", "4", "--radii", "2:200:4", "--covector", "s1=1",
         "--csv", "csv_wavefront_overrides"],
    ),
    (
        "degeneracy-witness-screened",
        "[dims]\nnu = 0 d = 2 mu = 1\n[phi]\ns1*t1^2 + t1^3\ns2*t1^2 + t1^4 + s1*t1^3\n",
        ["analyze", "--kmax", "4"],
    ),
]


def _load_workloads(src):
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(HERE.parent / "perfbench"), str(src)]
    from workloads import WORKLOADS, Input

    failing = [Input(name, text, argv[0], argv[1:]) for name, text, argv in FAILING]
    unbenched = [Input(name, text, argv[0], argv[1:]) for name, text, argv in UNBENCHED]
    return {**WORKLOADS, "errors": lambda seed: failing, "unbenched": lambda seed: unbenched}


def _src_dir(path):
    path = Path(path).resolve()
    for cand in (path, path / "src"):
        if (cand / "involucalc" / "__init__.py").is_file():
            return cand
    raise SystemExit(f"no involucalc package under {path}")


def _run(src, argv, cwd, timeout):
    """(exit code, stdout, stderr, {name: text} of the files written under
    its --csv directory) of one command, or None on a timeout."""
    csv_dir = Path(cwd) / argv[argv.index("--csv") + 1] if "--csv" in argv else None
    if csv_dir is not None:
        shutil.rmtree(csv_dir, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    try:
        p = subprocess.run(
            [sys.executable, "-c", RUNNER, *argv],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None
    files = {}
    if csv_dir is not None and csv_dir.is_dir():
        files = {f.name: f.read_text() for f in sorted(csv_dir.iterdir())}
    return p.returncode, p.stdout, p.stderr, files


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
                if results[0] == results[1]:
                    continue
                (rc0, out0, err0, files0), (rc1, out1, err1, files1) = results
                differ += 1
                print(f"== {label}: {' '.join(inp.argv(path.name))}")
                if rc0 != rc1:
                    print(f"exit code {rc0} -> {rc1}")
                print(_diff("stdout", out0, out1) + _diff("stderr", err0, err1), end="")
                for name in sorted(files0.keys() | files1.keys()):
                    print(_diff(name, files0.get(name, ""), files1.get(name, "")), end="")
    print(f"# seed {args.seed}: {compared} inputs compared, {differ} differ")
    for line in skipped:
        print(f"# not compared: {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
