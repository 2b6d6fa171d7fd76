#!/usr/bin/env python3
"""involucalc benchmark.

    python3 perfbench/run.py --workload catalog|exact_stress|numeric \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout and driven through ``involucalc.cli.main`` in this process: one
client in a closed loop, so an input starts only after the previous verdict.
Every report is checked against hand-written expectations (workloads.py) on
its first run and must repeat byte for byte afterwards.  Human-readable
metric lines go first; the last line of standard output is one JSON object.

With ``--trace 0`` the JSON carries the end-to-end metrics, measured on
unwrapped code.  With ``--trace 1`` it carries the per-layer metrics from a
separate traced run (spans.py).  Wrong verdicts, nonzero exits and
tracebacks are counted in ``failed`` out of ``attempted``."""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
WORK = CHECKOUT / ".perfbench_work"

# Other tenants of a shared host slow this process by up to 40 % for seconds at
# a time.  On a busy host the fastest trial of a run depends on whether a quiet
# moment happened to occur in it, so every timing is a median over the run.
MIN_PASSES = 3
GUARD_CAP_S = 60.0  # per-input wall cap for timed inputs; hitting it is a failure
SETUP_PROBES = 2  # extra fresh-interpreter setups; setup_s is the median of 1 + this
COLD_SHARE = 0.2  # share of --seconds spent on cold starts, interleaved with the passes
CHILD_TIMEOUT_S = 150


class Capped(BaseException):
    """Raised by the interval timer; not an Exception, so the program's own
    ``except Exception`` handlers let it through."""


@dataclass
class Outcome:
    elapsed: float
    code: object  # the exit code, None after a traceback or the cap
    out: str
    err: str
    capped: bool


class Bench:
    """The loaded program, the generated inputs and the tallies of one process."""

    def __init__(self, workload, seed):
        sys.path.insert(0, str(SRC))
        import involucalc.cli as cli

        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"involucalc was imported from {cli.__file__}, not from {SRC}")
        self.cli = cli
        self.inputs = WORKLOADS[workload](seed)
        self.workdir = WORK / f"{workload}-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for inp in self.inputs:
            path = self.workdir / f"{inp.name}.struct"
            path.write_text(inp.text)
            self.paths[inp.name] = path
        self.timed = [inp for inp in self.inputs if inp.cap_s is None]
        self.once = [inp for inp in self.inputs if inp.cap_s is not None]
        self.attempted = 0
        self.failures = []
        self.undecided = set()
        self.reference = {}
        for inp in self.timed:  # the untimed warm-up pass
            self.run(inp)

    def argv(self, inp):
        return inp.argv(self.paths[inp.name].relative_to(CHECKOUT))

    def run(self, inp, cap_s=GUARD_CAP_S, call=None):
        """Run one input in this process; record its verdict and return the outcome."""
        outcome = run_in_process(self.cli.main, self.argv(inp), cap_s, call)
        self.tally(inp, outcome)
        return outcome

    def tally(self, inp, outcome):
        self.attempted += 1
        if outcome.capped:
            self.undecided.add(inp.name)
            if inp.cap_s is None:
                self.failures.append(f"{inp.name}: no verdict within {GUARD_CAP_S} s")
            return
        error = verdict_error(inp, outcome, self.reference.get(inp.name))
        if error:
            self.failures.append(f"{inp.name}: {error}")
        elif inp.name not in self.reference:
            self.reference[inp.name] = outcome.out

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def run_in_process(main, argv, cap_s, call=None):
    armed = [True]

    def on_alarm(signum, frame):
        if armed[0]:
            raise Capped()

    out, err = io.StringIO(), io.StringIO()
    code, capped = None, False
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = call(main, argv) if call else main(argv)
            except SystemExit as e:
                code = e.code
            except Exception:
                traceback.print_exc()
    except Capped:
        capped = True
    finally:
        armed[0] = False
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return Outcome(elapsed, code, out.getvalue(), err.getvalue(), capped)


def verdict_error(inp, outcome, reference):
    if outcome.code != 0:
        return f"exit code {outcome.code}: {outcome.err.strip()[-300:]}"
    if "Traceback" in outcome.err:
        return "traceback: " + outcome.err.strip()[-300:]
    if reference is not None:
        return None if outcome.out == reference else "report bytes differ from the first run"
    lines = outcome.out.splitlines()
    errors = [e for check in inp.checks if (e := check(lines))]
    return "; ".join(errors) or None


def timed_passes(bench, seconds, min_passes, call=None, between=(), cold=None):
    """Closed loop over the timed inputs until the passes, and the cold starts
    among them, have taken ``seconds``.  After a pass, ``cold`` runs once if
    its time so far is below COLD_SHARE of the loop's, so that cold starts
    sample the same stretches of the machine's time as the passes.  The
    ``between`` tasks run between passes, spread evenly, outside that time."""
    samples = {inp.name: [] for inp in bench.timed}
    pass_times = []
    cold_time = 0.0
    pending = list(between)
    while len(pass_times) < min_passes or sum(pass_times) + cold_time < seconds:
        start = time.perf_counter()
        for index, inp in enumerate(bench.timed):
            if call is not None:
                call.recorder.input_index = index
            outcome = bench.run(inp, call=call)
            samples[inp.name].append(outcome.elapsed)
        pass_times.append(time.perf_counter() - start)
        if call is not None:
            call.end_pass()
        if cold is not None and cold_time < COLD_SHARE * (sum(pass_times) + cold_time):
            start = time.perf_counter()
            cold()
            cold_time += time.perf_counter() - start
        done = len(between) - len(pending)
        if pending and sum(pass_times) + cold_time >= seconds * (done + 1) / (len(between) + 1):
            pending.pop(0)()
    for task in pending:
        task()
    return samples, pass_times


# -- children: setup probes and cold starts --------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def setup_probe(args):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-probe",
    ]
    proc = subprocess.run(cmd, cwd=CHECKOUT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cold_start(bench, inp):
    code = f"import sys\nfrom involucalc.cli import main\nsys.exit(main({bench.argv(inp)!r}))\n"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=CHECKOUT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    bench.tally(inp, Outcome(elapsed, proc.returncode, proc.stdout, proc.stderr, False))
    return elapsed


# -- statistics ------------------------------------------------------------------------


def tail(values):
    """The highest percentile with at least 10 samples beyond it, as
    (value, percentile, sample count); the maximum when there are fewer than 11."""
    s = sorted(values)
    n = len(s)
    i = n - 11 if n >= 11 else n - 1
    return s[i], 100.0 * (i + 1) / n, n


def machine_lines():
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg['name']} {cfg['version']}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    threads = "unknown"
    for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        with contextlib.suppress(OSError):
            dll = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(dll, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = fn()
                    break
    return [
        f"# python {sys.version.split()[0]}, numpy {np.__version__}, nproc {os.cpu_count()} "
        f"(affinity {len(os.sched_getaffinity(0))}), blas {blas}, blas threads {threads}"
    ]


# -- the two kinds of run -------------------------------------------------------------


def end_to_end(args, bench, setup_first):
    setups = [setup_first]
    colds = []

    def probe():
        result = setup_probe(args)
        setups.append(result["setup_s"])
        bench.attempted += result["attempted"]
        bench.failures += result["failures"]

    def cold():
        colds.append(cold_start(bench, bench.timed[0]))

    samples, pass_times = timed_passes(bench, args.seconds, MIN_PASSES, between=[probe] * SETUP_PROBES, cold=cold)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    once = [bench.run(inp, cap_s=inp.cap_s) for inp in bench.once]  # feed decided_ratio only

    verdicts = [t * 1e3 for ts in samples.values() for t in ts]
    medians = {name: statistics.median(ts) * 1e3 for name, ts in samples.items()}
    tail_ms, tail_pct, n = tail(verdicts)
    decided = len(bench.inputs) - len(bench.undecided)
    all_verdicts = f"{n} verdicts: {len(samples)} inputs x {len(pass_times)} passes"
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} setups"),
        "cold_start_ms": (
            statistics.median(colds) * 1e3, "ms",
            f"median of {len(colds)} fresh interpreters running {bench.timed[0].name}",
        ),
        "wall_s": (statistics.median(pass_times), "s", f"median of {len(pass_times)} passes over {len(samples)} inputs"),
        "verdict_p50_ms": (statistics.median(verdicts), "ms", all_verdicts),
        "verdict_tail_ms": (tail_ms, "ms", f"p{tail_pct:.1f}, 10 beyond; {all_verdicts}"),
        "verdict_geomean_ms": (
            math.exp(statistics.fmean(math.log(m) for m in medians.values())), "ms",
            f"geometric mean over {len(medians)} inputs of each one's median of {len(pass_times)} passes",
        ),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss before the inputs run once"),
        "decided_ratio": (decided / len(bench.inputs), "ratio", f"{decided}/{len(bench.inputs)} inputs"),
    }
    lines = ["# per-input median ms: " + ", ".join(f"{k} {m:.2f}" for k, m in medians.items())]
    if bench.once:
        lines.append(
            "# run once: "
            + ", ".join(
                f"{i.name} {'undecided' if o.capped else 'decided'} after {o.elapsed:.2f} s (cap {i.cap_s:g} s)"
                for i, o in zip(bench.once, once)
            )
        )
    return metrics, lines


class TracedCall:
    """Runs ``cli.main`` under a root span and collects per-pass summaries."""

    def __init__(self, bench):
        self.recorder = spans.Recorder()
        self.core = {i for i, inp in enumerate(bench.timed) if inp.core}
        self.passes = []

    def __call__(self, main, argv):
        return self.recorder.call(spans.ROOT, main, (argv,), {})

    def end_pass(self):
        self.passes.append(spans.pass_summary(self.recorder.spans, self.core))
        self.recorder.spans = []


def microbench(seed):
    """Seeded GaussRat multiply and 100 x 100-term Poly product in 4 variables."""
    from involucalc.algebra import GaussRat, Poly

    rng = random.Random(f"algebra:{seed}")

    def frac():
        return Fraction(rng.randint(-99, 99), rng.randint(1, 99))

    xs = [GaussRat(frac(), frac()) for _ in range(2000)]
    ys = [GaussRat(frac(), frac()) for _ in range(2000)]
    per_mul = []
    for _ in range(5):
        start = time.perf_counter()
        for x, y in zip(xs, ys):
            x * y
        per_mul.append((time.perf_counter() - start) / len(xs) * 1e6)

    vars = ("u1", "u2", "u3", "u4")

    def poly():
        terms = {}
        while len(terms) < 100:
            terms[tuple(rng.randint(0, 5) for _ in vars)] = GaussRat(frac(), frac())
        return Poly(vars, terms)

    p, q = poly(), poly()
    products = []
    for _ in range(3):
        start = time.perf_counter()
        p * q
        products.append((time.perf_counter() - start) * 1e3)
    return {"algebra.gauss_mul_us": min(per_mul), "algebra.poly_mul_ms": min(products)}


def traced(args, bench):
    """Alternate untraced and traced passes, so that drift in the machine's
    speed cancels out of trace.overhead_ratio."""
    import involucalc.fbi  # noqa: F401  (imported lazily by the cli; patch it too)

    call = TracedCall(bench)
    plain, wrapped = [], []
    deadline = time.perf_counter() + args.seconds
    while len(wrapped) < MIN_PASSES or time.perf_counter() < deadline:
        plain += timed_passes(bench, 0, 1)[1]
        undo = spans.install(call.recorder)
        try:
            wrapped += timed_passes(bench, 0, 1, call=call)[1]
        finally:
            spans.uninstall(undo)
    overhead = statistics.median(wrapped) / statistics.median(plain)
    per_layer, repeat = spans.per_layer_metrics(call.passes, overhead)
    if not repeat:
        bench.failures.append("per-layer counts differ between traced passes")
    ranked = sorted(((v, k) for k, v in per_layer.items() if k.endswith("_ms")), reverse=True)
    lines = [
        f"# traced passes {len(wrapped)} alternating with untraced ones; "
        f"per-layer sums over {len(call.core)} of {len(bench.timed)} inputs, whose shape is seed-independent",
        "# largest self times per pass: " + ", ".join(f"{k} {v:.1f}" for v, k in ranked[:6]),
    ]
    per_layer.update(microbench(args.seed))
    return {k: (v, unit_of(k), "") for k, v in per_layer.items()}, lines


def unit_of(name):
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    start = time.perf_counter()
    bench = Bench(args.workload, args.seed)
    setup_first = time.perf_counter() - start
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_first, "attempted": bench.attempted, "failures": bench.failures}))
            return 0
        if args.trace:
            metrics, extra = traced(args, bench)
        else:
            metrics, extra = end_to_end(args, bench, setup_first)
    finally:
        bench.close()

    failed = len(bench.failures)
    for f in bench.failures:
        print(f"FAILED {f}", file=sys.stderr)
    out = [
        f"# involucalc benchmark: workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, "
        f"trace {args.trace}; closed loop, 1 client"
    ]
    out += machine_lines() + extra
    for name, (value, unit, base) in metrics.items():
        out.append(f"{name:<26} {value:>14.6g} {unit:<6} {base}")
    out.append(f"{'fail_ratio':<26} {failed / bench.attempted:>14.6g} {'ratio':<6} {failed}/{bench.attempted} attempts")
    print("\n".join(out))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": bench.attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
