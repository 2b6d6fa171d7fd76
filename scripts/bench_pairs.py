#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and write one JSON file.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N \\
        --seed S --out BENCH_<n>.json

PARENT and CHANGE are the roots of two checkouts.  Pair i runs
``perfbench/run.py --workload W --seed S+i-1 --seconds T --trace 0`` from a
fresh copy of each side's checkout (see ``_run``), with identical arguments,
the parent first when i is odd; T is ``run_seconds`` in the change's
BENCHMARK.json.  One
``--trace 1`` run per side at seed S follows the pairs, for the per-layer
rows.

The file records the machine, every run's final JSON line, each end-to-end
metric's median and quartiles per side, and how many pairs each side won
(a tie counts for neither; "better" comes from BENCHMARK.json).  ``gain``
marks a metric that ran at least ten pairs, of which the change won nine in
ten, with a median better by more than the distance between the parent's
quartiles.  An existing
file keeps its other workloads, so one file can hold several; the file,
with every workload's summary, is rewritten after every run."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def _checkout(path):
    root = Path(path).resolve()
    if not (root / "perfbench" / "run.py").is_file():
        raise SystemExit(f"no perfbench/run.py under {root}")
    return root


def _revision(root):
    """``git describe --always --dirty`` of the checkout, or None outside git."""
    try:
        p = subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty"],
                           capture_output=True, text=True, timeout=60)
    except OSError:
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def _src_digest(root):
    """sha256 over the relative paths and bytes of the .py files under src/."""
    h = hashlib.sha256()
    for f in sorted((root / "src").rglob("*.py")):
        h.update(str(f.relative_to(root)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _machine():
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu": cpu,
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
    }


def _run(root, workload, seed, seconds, trace):
    """The final JSON line of one benchmark run and its '# python' line.

    The run starts from a fresh copy of the checkout without its
    ``__pycache__`` directories, with PYTHONDONTWRITEBYTECODE=1, so that its
    interpreters compile the checkout's modules, as in a fresh checkout,
    whatever bytecode either checkout holds, stale or fresh; installed
    packages still load theirs.  (An empty PYTHONPYCACHEPREFIX would hide
    theirs too, and numpy's import would measure its compiler.)"""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        copy = Path(tmp) / root.name
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".perfbench_work"))
        p = subprocess.run(argv, cwd=copy, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
                           capture_output=True, text=True, timeout=4 * seconds + 600)
    lines = [line for line in p.stdout.splitlines() if line.strip()]
    if p.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv[1:])} in {root} exited {p.returncode}:\n{p.stderr[-2000:]}")
    env = next((line for line in lines if line.startswith("# python")), None)
    return json.loads(lines[-1]), env


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def _summary(runs, better):
    """Per metric: median and quartiles per side, and the pair wins."""
    by_pair = {}
    for r in runs:
        if r["trace"] == 0:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
    pairs = [p for _, p in sorted(by_pair.items()) if len(p) == 2]
    out = {
        "pairs": len(pairs),
        "failed": {s: sum(p[s]["failed"] for p in pairs) for s in ("parent", "change")},
        "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in ("parent", "change")},
        "correct": all(p[s]["correct"] for p in pairs for s in ("parent", "change")),
        "metrics": {},
    }
    for name, direction in better.items():
        vals = {s: [p[s]["metrics"][name]["value"] for p in pairs if name in p[s]["metrics"]]
                for s in ("parent", "change")}
        if not vals["parent"] or len(vals["parent"]) != len(vals["change"]):
            continue
        row = {}
        for side, v in vals.items():
            q1, med, q3 = _quartiles(v)
            row[side] = {"median": med, "q1": q1, "q3": q3, "n": len(v)}
        sign = 1 if direction == "lower" else -1
        diffs = [sign * (c - p) for p, c in zip(vals["parent"], vals["change"])]
        row["change_wins"] = sum(d < 0 for d in diffs)
        row["parent_wins"] = sum(d > 0 for d in diffs)
        row["ties"] = sum(d == 0 for d in diffs)
        par, cha = row["parent"], row["change"]
        row["ratio_of_medians"] = cha["median"] / par["median"] if par["median"] else None
        # a gain: at least ten pairs, the change wins 9 in 10 of them, and its
        # median is better by more than the distance between the parent's quartiles
        row["gain"] = (len(pairs) >= 10 and row["change_wins"] >= 0.9 * len(pairs)
                       and sign * (par["median"] - cha["median"]) > par["q3"] - par["q1"])
        out["metrics"][name] = row
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    roots = {"parent": _checkout(args.parent), "change": _checkout(args.change)}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["description"] = (
        "scripts/bench_pairs.py: perfbench/run.py --trace 0 in alternating parent/change "
        "pairs, the parent first in odd pairs, each run from a fresh copy of its side's checkout "
        "without __pycache__, under PYTHONDONTWRITEBYTECODE=1; pair i uses "
        "seed S+i-1 on both sides; then one --trace 1 run per side at seed S"
    )
    doc["machine"] = _machine()
    entry = doc.setdefault("workloads", {})[args.workload] = {
        "seconds": seconds,
        "seeds": [args.seed + i for i in range(args.pairs)],
        "checkouts": {s: {"revision": _revision(r), "src_sha256": _src_digest(r)} for s, r in roots.items()},
        "runs": [],
    }

    def record(pair, side, seed, trace, order):
        result, env = _run(roots[side], args.workload, seed, seconds, trace)
        doc["machine"].setdefault("perfbench", env)
        entry["runs"].append({"pair": pair, "side": side, "seed": seed, "trace": trace,
                              "ran": order, "result": result})
        for e in doc["workloads"].values():  # the earlier workloads too
            e["summary"] = _summary(e["runs"], better)
        out.write_text(json.dumps(doc, indent=1) + "\n")
        wall = result["metrics"].get("wall_s", {}).get("value")
        print(f"{args.workload} pair {pair} {side} ({order}, trace {trace}): wall_s {wall}", flush=True)

    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for pos, side in enumerate(order):
            record(i, side, args.seed + i - 1, 0, ("first", "second")[pos])
    for side in ("parent", "change"):
        record(None, side, args.seed, 1, "traced")
    traced = {r["side"]: r["result"]["metrics"] for r in entry["runs"] if r["trace"] == 1}
    entry["traced"] = {
        name: {s: traced[s][name]["value"] for s in ("parent", "change")}
        for name in traced["change"] if name in traced["parent"]
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
