"""Span recorder for the traced run.

Spans are recorded around calls into each layer's public functions, by
replacing the names where the callers look them up (``involucalc.cli.hull_chain``,
``involucalc.loci.ratfun_det`` and so on) and restoring them afterwards, so
the untraced run executes the unmodified code.  Spans stay in memory and are
aggregated when the run ends.  A call made while a span of the same name is
innermost (a recursive determinant, say) belongs to that span."""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _chain_entries(chain):
    return {"hull.generators": len(chain.entries)}


def _row_terms(rows):
    comps = [c for _, cs in rows for c in cs]
    return {
        "loci.row_num_terms_max": max((len(c.num.terms) for c in comps), default=0),
        "loci.row_den_terms_max": max((len(c.den.terms) for c in comps), default=0),
    }


def _witness(verdict):
    return {"loci.witnesses": int(verdict.established and verdict.witness is not None)}


def _equations(system):
    return {"autosys.equations": len(system.equations)}


def _transforms(scan):
    return {"fbi.transforms": len(scan.directions) * len(scan.radii)}


# (span name, defining module, attribute, size counter read from the result)
TARGETS = [
    ("cli.parse", "involucalc.cli", "parse_structure", None),
    ("cli.report", "involucalc.cli", "run_report", None),
    ("cli.report", "involucalc.cli", "cmd_approx", None),
    ("cli.report", "involucalc.cli", "cmd_wavefront", None),
    ("structure.frame", "involucalc.structure", "build_frame", None),
    ("structure.chardim", "involucalc.structure", "characteristic_dim", None),
    ("structure.levi", "involucalc.structure", "levi_form", None),
    ("structure.kernel", "involucalc.structure", "kernel_vectors", None),
    ("structure.form", "involucalc.structure", "characteristic_form", None),
    ("hull.chain", "involucalc.hull", "hull_chain", _chain_entries),
    ("hull.kernel_chain", "involucalc.hull", "kernel_chain", None),
    ("loci.rows", "involucalc.loci", "hull_generator_rows", _row_terms),
    ("loci.check", "involucalc.loci", "exceptional_locus_check", None),
    ("loci.check", "involucalc.loci", "degeneracy_locus_check", _witness),
    ("algebra.ratfun_det", "involucalc.algebra", "ratfun_det", None),
    ("algebra.exact_rank", "involucalc.algebra", "exact_rank", None),
    ("algebra.ratfun_jet", "involucalc.algebra", "ratfun_jet", None),
    ("autosys.system", "involucalc.autosys", "generate_system", _equations),
    ("autosys.check", "involucalc.autosys", "check_candidate", None),
    ("bundle.flatness", "involucalc.bundle", "flatness_check", None),
    ("bundle.section", "involucalc.bundle", "is_solution_section", None),
    ("bundle.integrating", "involucalc.bundle", "is_integrating_frame", None),
    ("approx.series", "involucalc.approx", "series_coefficients", None),
    ("approx.plan", "involucalc.approx", "select_cutoff_plan", None),
    ("approx.eval", "involucalc.approx", "assemble_evaluator", None),
    ("approx.eval", "involucalc.approx", "AssembledSolution.sup_d1u", None),
    ("fbi.sample", "involucalc.fbi", "sample_data", None),
    ("fbi.scan", "involucalc.fbi", "direction_scan", _transforms),
    ("fbi.normal_form", "involucalc.fbi", "levi_to_normal_form", None),
    ("fbi.normal_form", "involucalc.fbi", "sign_condition", None),
    ("fbi.normal_form", "involucalc.fbi", "kappa_smallness_check", None),
]

ROOT = "cli.main"


class Recorder:
    """Spans as [name, start_ns, end_ns, parent index, input index, counts]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.input_index = None

    def call(self, name, fn, args, kwargs, count=None):
        stack = self.stack
        if stack and self.spans[stack[-1]][0] == name:
            return fn(*args, **kwargs)
        index = len(self.spans)
        span = [name, 0, 0, stack[-1] if stack else -1, self.input_index, None]
        self.spans.append(span)
        stack.append(index)
        span[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            stack.pop()
        if count is not None:
            span[5] = count(result)
        return result

    def wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return traced


def install(recorder):
    """Replace every package-level binding of each target; returns the undo list."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == "involucalc" or n.startswith("involucalc.")]
    undo = []
    for name, modname, attr, count in TARGETS:
        owner = importlib.import_module(modname)
        if "." in attr:  # a method: patch the class attribute
            cls_name, attr = attr.split(".")
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[attr]
            undo.append((cls, attr, orig))
            setattr(cls, attr, recorder.wrap(name, orig, count))
            continue
        orig = getattr(owner, attr)
        traced = recorder.wrap(name, orig, count)
        for mod in modules:
            if mod.__dict__.get(attr) is orig:
                undo.append((mod, attr, orig))
                setattr(mod, attr, traced)
    return undo


def uninstall(undo):
    for obj, attr, orig in reversed(undo):
        setattr(obj, attr, orig)


# -- aggregation -----------------------------------------------------------------

TIME_METRICS = {
    "cli.main_self_ms": ROOT,
    "cli.parse_ms": "cli.parse",
    "cli.report_self_ms": "cli.report",
    "structure.frame_ms": "structure.frame",
    "structure.chardim_ms": "structure.chardim",
    "structure.levi_ms": "structure.levi",
    "structure.kernel_ms": "structure.kernel",
    "structure.form_ms": "structure.form",
    "hull.chain_ms": "hull.chain",
    "hull.kernel_chain_ms": "hull.kernel_chain",
    "loci.rows_ms": "loci.rows",
    "loci.check_self_ms": "loci.check",
    "algebra.ratfun_det_ms": "algebra.ratfun_det",
    "algebra.exact_rank_ms": "algebra.exact_rank",
    "algebra.ratfun_jet_ms": "algebra.ratfun_jet",
    "autosys.system_ms": "autosys.system",
    "autosys.check_ms": "autosys.check",
    "bundle.flatness_ms": "bundle.flatness",
    "bundle.section_ms": "bundle.section",
    "bundle.integrating_ms": "bundle.integrating",
    "approx.series_ms": "approx.series",
    "approx.plan_ms": "approx.plan",
    "approx.eval_ms": "approx.eval",
    "fbi.sample_ms": "fbi.sample",
    "fbi.normal_form_ms": "fbi.normal_form",
    "fbi.scan_ms": "fbi.scan",  # fbi_transform is not wrapped: the scan has no child spans
}

COUNT_METRICS = [
    "hull.generators",
    "loci.row_num_terms_max",
    "loci.row_den_terms_max",
    "loci.minors_tried",
    "loci.witnesses",
    "algebra.ratfun_det_calls",
    "autosys.equations",
    "fbi.transforms",
]


def pass_summary(spans, core):
    """Self time per span name (ms) and counts for one pass, over the spans
    of inputs whose index is in ``core``."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_ns[s[3]] += s[2] - s[1]
    self_ms = {}
    counts = dict.fromkeys(COUNT_METRICS, 0)
    for i, (name, start, end, parent, inp, sizes) in enumerate(spans):
        if inp not in core:
            continue
        self_ms[name] = self_ms.get(name, 0.0) + (end - start - child_ns[i]) / 1e6
        if name == "algebra.ratfun_det":
            counts["algebra.ratfun_det_calls"] += 1
            if parent >= 0 and spans[parent][0] == "loci.check":
                counts["loci.minors_tried"] += 1
        for key, val in (sizes or {}).items():
            counts[key] = max(counts[key], val) if key.endswith("_max") else counts[key] + val
    return self_ms, counts


def per_layer_metrics(passes, overhead_ratio):
    """Each self time is its fastest over the traced passes; counts must
    repeat in every pass.  ``passes`` holds one (self_ms, counts) pair per
    traced pass."""
    out = {}
    for metric, span in TIME_METRICS.items():
        out[metric] = min(p[0].get(span, 0.0) for p in passes)
    counts = passes[0][1]
    repeat = all(p[1] == counts for p in passes)
    out.update({k: v for k, v in counts.items() if k != "loci.witnesses"})
    tried = counts["loci.minors_tried"]
    out["loci.witness_ratio"] = counts["loci.witnesses"] / tried if tried else 0.0
    transforms = counts["fbi.transforms"]
    out["fbi.transform_us"] = out["fbi.scan_ms"] * 1e3 / transforms if transforms else 0.0
    out["trace.overhead_ratio"] = overhead_ratio
    return out, repeat
