"""Smoke tests of the runnable experiments in scripts/: each runs in a fresh
interpreter, exits 0 and prints a line its result rests on."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import involucalc
from involucalc.cli import parse_structure

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, args, expected",
    [
        ("run_builtin_reports.py", [], "degeneracy locus: Yes (rows (((), 0), ((0,), 0), ((0, 0), 0)), minor -32*t2^3)"),
        ("approximate_solution_demo.py", [], "tail certificate (term sups vs 2^-k): ok"),
        ("wavefront_experiment.py", ["OUT"], "sign condition at xi0 = -1: value 1 -> Holds"),
    ],
)
def test_script_runs(tmp_path, script, args, expected):
    args = [str(tmp_path) if a == "OUT" else a for a in args]
    env = {**os.environ, "PYTHONPATH": str(Path(involucalc.__file__).parents[1])}
    p = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert (p.returncode, p.stderr) == (0, "")
    assert expected in p.stdout.splitlines()


def test_sweep_files_are_seeded_and_parse(monkeypatch):
    # the sweep's own runs take minutes; its generator is what a seed pins
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import sweep

    files = sweep.structure_files(3, 12)
    assert files == sweep.structure_files(3, 12) != sweep.structure_files(4, 12)
    for text in files:
        sdef = parse_structure(text).sdef
        assert all(lo <= getattr(sdef, k) <= hi for k, (lo, hi) in sweep.DIMS.items())
        assert len(sdef.phi) == sdef.d
