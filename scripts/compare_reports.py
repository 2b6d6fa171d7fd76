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
compared.
Then every compared input runs once more under CHANGE_SRC, all of them in
order through one ``involucalc.cli.main`` in a single interpreter and the
same scratch directory, as the benchmark and library callers run it; an
input whose result there differs from its fresh CHANGE_SRC run is printed
the same way, since state that one call leaves for the next shows only
there.  The exit code is 1 if any input differs in either pass."""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 120.0  # per run, for inputs without a cap of their own
RUNNER = "import sys; from involucalc.cli import main; sys.exit(main(sys.argv[1:]))"
# runs _run_all on the argv lists given as JSON on stdin, in one interpreter
IN_PROCESS_RUNNER = f"import sys; sys.path.insert(0, {str(HERE)!r}); import compare_reports; compare_reports._run_all()"

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
    ("fbi-boundary-pole-even-grid", _MINIMAL + "[fbi]\ndata = boundary\ndelta = 0\ngrid = 64\n", ["wavefront"]),
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
    ("repeated-approx-key", _MINIMAL + "[approx]\norder = 4\norder = 9\n", ["approx"]),
    ("repeated-dims-key", "[dims]\nnu = 0 d = 1 mu = 1 d = 1\n[phi]\nt1^2\n", ["analyze"]),
    ("dims-unknown-key", "[dims]\nnu = 0 d = 1 mu = 1 q = 2\n[phi]\nt1^2\n", ["analyze"]),
    ("wavefront-second-covector", _MINIMAL, ["wavefront", "--covector", "s1=1", "--covector", "s1=-1"]),
    # d/dx1 of c_1 has the coefficient 2*10^308, past the float range (the
    # grammar caps ^ at 64, so the constant is written out)
    (
        "approx-derivative-overflow",
        _MINIMAL + "[approx]\nnx = 1\norder = 6\nb = -t\nu0 = 1" + "0" * 307 + "*x1^5\n",
        ["approx"],
    ),
    # phi = s1*s2*t1^16448 parses, but det W_s has degree 32898 > 32767: the
    # jacobians overflow, the characteristic dimension needs none of them
    (
        "jacobians-degree-overflow",
        "[dims]\nnu = 0 d = 2 mu = 1\n[phi]\n" + ("s1*s2*" + "*".join(["t1^64"] * 257) + "\n") * 2,
        ["analyze", "--covector", "s1=1"],
    ),
]

_APPROX = "[approx]\nnx = 2\norder = 8\nb = -t, -t\nu0 = 3/7*x1^5 + 2*x2\n"
# phi_k take every monomial of total degree 2 and 3 over the structure's
# coordinates, in itertools.combinations_with_replacement order, with the
# coefficients random.Random(1).randint(-5, 5) drawn in turn (a 0 drops the term)
_DENSE_022 = (
    '[dims]\nnu = 0 d = 2 mu = 2\n[phi]\n'
    '(-3)*s1*s1 + (4)*s1*s2 + (-4)*s1*t1 + (-1)*s1*t2 + (-4)*s2*s2 + (2)*s2*t1 + '
    '(2)*s2*t2 + (2)*t1*t1 + (5)*t1*t2 + (1)*t2*t2 + (-2)*s1*s1*s1 + (-4)*s1*s1*s2 + '
    '(2)*s1*s1*t1 + (-5)*s1*s1*t2 + (1)*s1*s2*s2 + (1)*s1*s2*t1 + (4)*s1*s2*t2 + '
    '(-5)*s1*t1*t1 + (2)*s1*t1*t2 + (-1)*s1*t2*t2 + (-2)*s2*s2*s2 + (4)*s2*s2*t1 + '
    '(-4)*s2*s2*t2 + (-5)*s2*t1*t2 + (-5)*s2*t2*t2 + (-5)*t1*t1*t1 + (5)*t1*t1*t2 + '
    '(3)*t1*t2*t2 + (-5)*t2*t2*t2\n'
    '(1)*s1*s1 + (5)*s1*s2 + (-2)*s1*t1 + (1)*s1*t2 + (-5)*s2*s2 + (3)*s2*t1 + '
    '(-2)*s2*t2 + (2)*t1*t1 + (2)*t1*t2 + (3)*t2*t2 + (-2)*s1*s1*s1 + (-2)*s1*s1*t1 + '
    '(5)*s1*s1*t2 + (-2)*s1*s2*s2 + (2)*s1*s2*t1 + (-1)*s1*s2*t2 + (-5)*s1*t1*t1 + '
    '(1)*s1*t1*t2 + (3)*s1*t2*t2 + (5)*s2*s2*s2 + (-4)*s2*s2*t1 + (-3)*s2*s2*t2 + '
    '(5)*s2*t1*t1 + (-1)*s2*t1*t2 + (-4)*s2*t2*t2 + (3)*t1*t1*t2 + (1)*t1*t2*t2 + '
    '(3)*t2*t2*t2\n'
)
_DENSE_112 = (
    '[dims]\nnu = 1 d = 1 mu = 2\n[phi]\n'
    '(-3)*x1*x1 + (4)*x1*y1 + (-4)*x1*s1 + (-1)*x1*t1 + (-4)*x1*t2 + (2)*y1*y1 + '
    '(2)*y1*s1 + (2)*y1*t1 + (5)*y1*t2 + (1)*s1*s1 + (-2)*s1*t1 + (-4)*s1*t2 + '
    '(2)*t1*t1 + (-5)*t1*t2 + (1)*t2*t2 + (1)*x1*x1*x1 + (4)*x1*x1*y1 + (-5)*x1*x1*s1 + '
    '(2)*x1*x1*t1 + (-1)*x1*x1*t2 + (-2)*x1*y1*y1 + (4)*x1*y1*s1 + (-4)*x1*y1*t1 + '
    '(-5)*x1*s1*s1 + (-5)*x1*s1*t1 + (-5)*x1*s1*t2 + (5)*x1*t1*t1 + (3)*x1*t1*t2 + '
    '(-5)*x1*t2*t2 + (1)*y1*y1*y1 + (5)*y1*y1*s1 + (-2)*y1*y1*t1 + (1)*y1*y1*t2 + '
    '(-5)*y1*s1*s1 + (3)*y1*s1*t1 + (-2)*y1*s1*t2 + (2)*y1*t1*t1 + (2)*y1*t1*t2 + '
    '(3)*y1*t2*t2 + (-2)*s1*s1*s1 + (-2)*s1*s1*t2 + (5)*s1*t1*t1 + (-2)*s1*t1*t2 + '
    '(2)*s1*t2*t2 + (-1)*t1*t1*t1 + (-5)*t1*t1*t2 + (1)*t1*t2*t2 + (3)*t2*t2*t2\n'
)
_DENSE_121 = (
    '[dims]\nnu = 1 d = 2 mu = 1\n[phi]\n'
    '(-3)*x1*x1 + (4)*x1*y1 + (-4)*x1*s1 + (-1)*x1*s2 + (-4)*x1*t1 + (2)*y1*y1 + '
    '(2)*y1*s1 + (2)*y1*s2 + (5)*y1*t1 + (1)*s1*s1 + (-2)*s1*s2 + (-4)*s1*t1 + '
    '(2)*s2*s2 + (-5)*s2*t1 + (1)*t1*t1 + (1)*x1*x1*x1 + (4)*x1*x1*y1 + (-5)*x1*x1*s1 + '
    '(2)*x1*x1*s2 + (-1)*x1*x1*t1 + (-2)*x1*y1*y1 + (4)*x1*y1*s1 + (-4)*x1*y1*s2 + '
    '(-5)*x1*s1*s1 + (-5)*x1*s1*s2 + (-5)*x1*s1*t1 + (5)*x1*s2*s2 + (3)*x1*s2*t1 + '
    '(-5)*x1*t1*t1 + (1)*y1*y1*y1 + (5)*y1*y1*s1 + (-2)*y1*y1*s2 + (1)*y1*y1*t1 + '
    '(-5)*y1*s1*s1 + (3)*y1*s1*s2 + (-2)*y1*s1*t1 + (2)*y1*s2*s2 + (2)*y1*s2*t1 + '
    '(3)*y1*t1*t1 + (-2)*s1*s1*s1 + (-2)*s1*s1*t1 + (5)*s1*s2*s2 + (-2)*s1*s2*t1 + '
    '(2)*s1*t1*t1 + (-1)*s2*s2*s2 + (-5)*s2*s2*t1 + (1)*s2*t1*t1 + (3)*t1*t1*t1\n'
    '(5)*x1*x1 + (-4)*x1*y1 + (-3)*x1*s1 + (5)*x1*s2 + (-1)*x1*t1 + (-4)*y1*y1 + '
    '(3)*y1*s2 + (1)*y1*t1 + (3)*s1*s1 + (5)*s1*s2 + (-2)*s1*t1 + (-1)*s2*s2 + '
    '(-1)*s2*t1 + (4)*t1*t1 + (2)*x1*x1*x1 + (3)*x1*x1*y1 + (1)*x1*x1*s1 + '
    '(4)*x1*x1*s2 + (-5)*x1*x1*t1 + (2)*x1*y1*y1 + (-2)*x1*y1*s1 + (1)*x1*y1*s2 + '
    '(1)*x1*y1*t1 + (5)*x1*s1*s1 + (-3)*x1*s1*s2 + (3)*x1*s2*s2 + (5)*x1*s2*t1 + '
    '(-4)*y1*y1*y1 + (2)*y1*y1*s1 + (5)*y1*y1*s2 + (3)*y1*y1*t1 + (-4)*y1*s1*s1 + '
    '(-3)*y1*s1*s2 + (3)*y1*s1*t1 + (1)*y1*s2*s2 + (2)*y1*t1*t1 + (-5)*s1*s1*s1 + '
    '(2)*s1*s1*s2 + (-5)*s1*s1*t1 + (-1)*s1*s2*s2 + (4)*s1*s2*t1 + (4)*s1*t1*t1 + '
    '(4)*s2*s2*s2 + (1)*s2*s2*t1 + (5)*s2*t1*t1 + (-3)*t1*t1*t1\n'
)
_FBI = "[fbi]\ndata = boundary\ndelta = 1/20\ngrid = 128\ndirs = 4\n"
# (name, structure file, command and options) of inputs that succeed on paths
# the benchmark does not run: the machine report's 17-digit residual sup, the
# CSV tables, the command-line overrides of the [approx] and [fbi] values,
# the largest [approx] run the grammar admits at nx 3 (README's limits),
# autosys on a file with [approx] and [fbi] blocks, a degeneracy and an
# exceptional witness that come from the mod-p screen (the structure's first
# nonzero minor is no witness), and three structures whose kernel chain stays
# short of C^d where the hull chain reaches full span (files 48 and 51 of
# sweep.py --seed 1 --count 60, and a two-line one whose phi_1 is free of t),
# and the Levi form of three dense structures
UNBENCHED = [
    (
        "analyze-approx-fbi-machine",
        _MINIMAL + _APPROX + _FBI,
        ["analyze", "--machine", "--csv", "csv_analyze"],
    ),
    ("autosys-approx-fbi", _MINIMAL + _APPROX + _FBI, ["autosys"]),
    (
        "approx-grammar-limit",
        _MINIMAL + "[approx]\nnx = 3\norder = 16\ngrid = 38\nb = -t, -t, -t\nu0 = x1^5 + x2 + x3^3\n",
        ["approx"],
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
    ("exceptional-witness-screened", "[dims]\nnu = 0 d = 2 mu = 1\n[phi]\ns1*t1^2 + t1^3\nt1^2/2\n", ["analyze"]),
    (
        "kernel-chain-short-t-free-phi1",
        "[dims]\nnu = 0 d = 2 mu = 2\n[phi]\n-s2^2\n-s1*t1*t2 - 2*t2^3 - 5/4*s1*s2*t1*t2\n",
        ["analyze"],
    ),
    (
        "kernel-chain-short-sweep-48",
        "[dims]\nnu = 1 d = 2 mu = 1\n[phi]\n(5/3)*s1^2*s2 + (2)*y1^2\n(1/2)*t1^3*y1\n",
        ["analyze"],
    ),
    (
        "kernel-chain-short-sweep-51",
        "[dims]\nnu = 1 d = 2 mu = 2\n[phi]\n(-5)*t2*y1 + (5/2)*s2*x1*y1\n(-4/3)*t2*x1\n",
        ["analyze"],
    ),
    ("dense-0-2-2-levi", _DENSE_022, ["analyze", "--covector", "s1=1"]),
    ("dense-1-1-2-levi", _DENSE_112, ["analyze", "--covector", "s1=1"]),
    ("dense-1-2-1-normal-form", _DENSE_121, ["wavefront", "--covector", "s1=1"]),
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


def _csv_dir(argv, cwd):
    """The command's --csv directory under ``cwd``, emptied, or None."""
    if "--csv" not in argv:
        return None
    csv_dir = Path(cwd) / argv[argv.index("--csv") + 1]
    shutil.rmtree(csv_dir, ignore_errors=True)
    return csv_dir


def _csv_files(csv_dir):
    if csv_dir is None or not csv_dir.is_dir():
        return {}
    return {f.name: f.read_text() for f in sorted(csv_dir.iterdir())}


def _run(src, argv, cwd, timeout):
    """(exit code, stdout, stderr, {name: text} of the files written under
    its --csv directory) of one command, or None on a timeout."""
    csv_dir = _csv_dir(argv, cwd)
    env = dict(os.environ, PYTHONPATH=str(src))
    try:
        p = subprocess.run(
            [sys.executable, "-c", RUNNER, *argv],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None
    return p.returncode, p.stdout, p.stderr, _csv_files(csv_dir)


def _run_all():
    """Run each argv list of the JSON list on stdin through one
    ``involucalc.cli.main``, in order, in the working directory; write the
    JSON list of their results, each as ``_run`` gives it."""
    from involucalc.cli import main

    results = []
    for argv in json.load(sys.stdin):
        csv_dir = _csv_dir(argv, ".")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # an argparse error
                code = e.code
            except Exception:  # as an uncaught error ends a fresh run
                traceback.print_exc()
                code = 1
        results.append((code, out.getvalue(), err.getvalue(), _csv_files(csv_dir)))
    json.dump(results, sys.stdout)


def _run_in_process(src, argvs, cwd, timeout):
    """The results of ``argvs`` run in order in one interpreter, or None on
    a timeout."""
    env = dict(os.environ, PYTHONPATH=str(src))
    try:
        p = subprocess.run(
            [sys.executable, "-c", IN_PROCESS_RUNNER], input=json.dumps(argvs),
            cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout, check=True,
        )
    except subprocess.TimeoutExpired:
        return None
    return [tuple(r) for r in json.loads(p.stdout)]


def _diff(name, a, b, sides):
    return "".join(
        difflib.unified_diff(
            a.splitlines(keepends=True), b.splitlines(keepends=True),
            f"{sides[0]}/{name}", f"{sides[1]}/{name}",
        )
    )


def _print_difference(label, argv, results, sides=("parent", "change")):
    (rc0, out0, err0, files0), (rc1, out1, err1, files1) = results
    print(f"== {label}: {' '.join(argv)}")
    if rc0 != rc1:
        print(f"exit code {rc0} -> {rc1}")
    print(_diff("stdout", out0, out1, sides) + _diff("stderr", err0, err1, sides), end="")
    for name in sorted(files0.keys() | files1.keys()):
        print(_diff(name, files0.get(name, ""), files1.get(name, ""), sides), end="")


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
    fresh = []  # (label, argv, result under CHANGE_SRC) of each compared input
    budget = 0.0  # the in-process pass's time limit, the sum of theirs
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
                fresh.append((label, inp.argv(path.name), results[1]))
                budget += limit
                if results[0] != results[1]:
                    differ += 1
                    _print_difference(label, inp.argv(path.name), results)
        in_process = _run_in_process(trees[1], [argv for _, argv, _ in fresh], tmp, budget)
        leaked = 0
        for (label, argv, result), shared in zip(fresh, in_process or ()):
            if shared != result:
                leaked += 1
                _print_difference(label, argv, (result, shared), ("fresh", "in-process"))
    print(f"# seed {args.seed}: {compared} inputs compared, {differ} differ")
    if in_process is None:
        print("# in process: not compared (over the sum of the time limits)")
    else:
        print(f"# in process: {len(fresh)} inputs run in one interpreter, {leaked} differ from their fresh runs")
    for line in skipped:
        print(f"# not compared: {line}")
    return 1 if differ or leaked or in_process is None else 0


if __name__ == "__main__":
    sys.exit(main())
