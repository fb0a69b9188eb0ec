"""In-process runs of one benchmark operation, alternately untraced and traced.

    python3 bench/trace_worker.py SPEC_JSON RESULT_JSON

The spec names the CLI invocations of the operation, its output files, the
seconds to spend and where to write the spans. Tracing replaces, in this
process only, the module attributes through which one popest layer calls the
next with wrappers that record a span (id, parent, name, start, end, attrs)
per call. Per-layer metrics are computed from the spans of each traced run.
A wrapped attribute that no longer exists is reported as missing, and every
metric that needs it is left out rather than reported as zero.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from collections import namedtuple

from popest import cli, dataio, diagnostics, meanmodel, mle, simulation, uncertainty

import inputs

Span = namedtuple("Span", "id parent name start end attrs")
KINDS = ("po", "ztpo", "nb2", "ztnb2", "zhang", "nb2-mixture")
STATUSES = ("converged", "stalled", "max-iterations")
VARIANTS = tuple(simulation.VARIANT_KINDS)


def _records(args, result):
    return {"rows": len(result.records)}


def _audit(args, result):
    _, audit = result
    return {"merged": len(audit.merged), "dropped": len(audit.dropped)}


def _fit(args, result):
    conv = result[3]
    return {"status": conv.status, "iterations": conv.iterations}


def _boot(args, result):
    return {"failures": result.failures, "phi_redraws": result.phi_redraw_count}


def _report(args, result):
    return {"records": len(result.residuals)}


def _sim(args, result):
    return {"failures": dict(result.failures)}


def _loglik(args, result):
    return {"value": result}


def _terms(args, result):
    return {"kind": args[0], "n": len(args[1])}


# (module, attribute, span name, attrs(args, result)). The span name is the
# layer that does the work; the module is the caller whose attribute is
# replaced, so each call is seen once.
TARGETS = (
    (dataio, "parse_csv", "dataio.parse_csv", _records),
    (dataio, "apply_model_conditions", "dataio.apply_model_conditions", _audit),
    (mle, "fit", "mle.fit", None),
    (mle, "prepare", "meanmodel.prepare", None),
    (mle, "linearized_init", "mle.linearized_init", None),
    (simulation, "_init_from_arrays", "mle.linearized_init", None),
    (mle, "fit_kind", "mle.fit_kind", _fit),
    (uncertainty, "fit_kind", "mle.fit_kind", _fit),
    (simulation, "fit_kind", "mle.fit_kind", _fit),
    (mle, "loglik_kind", "meanmodel.loglik_kind", _loglik),
    (mle, "score_and_hessian_kind", "meanmodel.score_and_hessian_kind", None),
    (meanmodel, "term_derivatives", "distributions.term_derivatives", _terms),
    (uncertainty, "sample_many", "distributions.sample_many", None),
    (simulation, "sample_many", "distributions.sample_many", None),
    (uncertainty, "parametric_bootstrap", "uncertainty.parametric_bootstrap", _boot),
    (uncertainty, "plugin_interval", "uncertainty.interval", None),
    (uncertainty, "percentile_interval", "uncertainty.interval", None),
    (uncertainty, "spin_interval", "uncertainty.interval", None),
    (simulation, "run_simulation", "simulation.run_simulation", _sim),
    (diagnostics, "diagnostics_report", "diagnostics.diagnostics_report", _report),
    (diagnostics, "linearized_check", "diagnostics.linearized_check", None),
)
W_SPAN = "meanmodel.W"


class Missing(Exception):
    pass


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.missing: set = set()  # span names with a wrapped attribute gone
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, fn, name, attrs=None):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            info = {}
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    info = attrs(args, result)
                return result
            except Exception as exc:
                info["raised"] = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, parent, name, t0, t1, info))

        return wrapper

    def install(self) -> None:
        self.spans = []
        for module, attr, name, attrs in TARGETS:
            fn = module.__dict__.get(attr)
            if fn is None:
                self.missing.add(name)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, attrs))
        prop = meanmodel.ModelData.__dict__.get("W")
        if isinstance(prop, property):
            self._saved.append((meanmodel.ModelData, "W", prop))
            meanmodel.ModelData.W = property(self._wrap(prop.fget, W_SPAN))
        else:
            self.missing.add(W_SPAN)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def analyse(spans: list, missing: set, wall: float) -> tuple[dict, list]:
    """Per-layer metrics of one traced operation."""
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def get(*names):
        for n in names:
            if n in missing:
                raise Missing(n)
        return [s for n in names for s in by_name.get(n, [])]

    def busy(*names):
        return sum(s.end - s.start for s in get(*names))

    def self_time(parent_name, *child_names):
        children = get(*child_names)
        total = 0.0
        for p in get(parent_name):
            inner = [(max(c.start, p.start), min(c.end, p.end)) for c in children
                     if c.start < p.end and c.end > p.start]
            total += (p.end - p.start) - covered(inner)
        return total

    def ratio(a, b):
        return a / b if b else 0.0

    def fit_stats():
        fits = get("mle.fit_kind")
        ll = get("meanmodel.loglik_kind")
        sh = get("meanmodel.score_and_hessian_kind")
        by_fit: dict = {}
        for s in sorted(ll, key=lambda s: s.start):
            by_fit.setdefault(s.parent, []).append(s.attrs.get("value", float("-inf")))
        iters = probes = accepted = 0
        sh_per_fit: dict = {}
        for s in sh:
            sh_per_fit[s.parent] = sh_per_fit.get(s.parent, 0) + 1
        for f in fits:
            values = by_fit.get(f.id, [])
            probes += max(len(values) - 1, 0)
            best = values[0] if values else float("-inf")
            for v in values[1:]:
                if v > best:  # the line search takes the first improving probe
                    accepted += 1
                    best = v
            iters += f.attrs.get("iterations", sh_per_fit.get(f.id, 0))
        return fits, iters, probes, accepted

    metrics: dict = {}
    lost: list = []

    def put(name, fn):
        try:
            metrics[name] = fn()
        except (Missing, KeyError) as exc:  # KeyError: a metric it derives from was left out
            lost.append(f"{name} (needs {exc})")

    top = ("dataio.parse_csv", "dataio.apply_model_conditions", "mle.fit",
           "uncertainty.parametric_bootstrap", "diagnostics.diagnostics_report",
           "simulation.run_simulation")
    put("cli.self_s", lambda: wall - covered((s.start, s.end) for s in get(*top)))

    put("dataio.parse_s", lambda: busy("dataio.parse_csv"))
    put("dataio.rows", lambda: sum(s.attrs.get("rows", 0) for s in get("dataio.parse_csv")))
    put("dataio.parse_us_per_row", lambda: 1e6 * ratio(metrics["dataio.parse_s"], metrics["dataio.rows"]))
    put("dataio.conditions_s", lambda: busy("dataio.apply_model_conditions"))
    put("dataio.merged", lambda: sum(s.attrs.get("merged", 0) for s in get("dataio.apply_model_conditions")))
    put("dataio.dropped", lambda: sum(s.attrs.get("dropped", 0) for s in get("dataio.apply_model_conditions")))

    put("meanmodel.prepare_s", lambda: busy("meanmodel.prepare"))
    put("meanmodel.loglik_calls", lambda: len(get("meanmodel.loglik_kind")))
    put("meanmodel.loglik_s", lambda: busy("meanmodel.loglik_kind"))
    put("meanmodel.score_hessian_calls", lambda: len(get("meanmodel.score_and_hessian_kind")))
    put("meanmodel.score_hessian_s", lambda: busy("meanmodel.score_and_hessian_kind"))
    put("meanmodel.W_builds", lambda: len(get(W_SPAN)))

    for kind in KINDS:
        def of_kind(kind=kind):
            return [s for s in get("distributions.term_derivatives") if s.attrs.get("kind") == kind]
        put(f"distributions.term_calls.{kind}", lambda f=of_kind: len(f()))
        put(f"distributions.term_s.{kind}", lambda f=of_kind: sum(s.end - s.start for s in f()))
        put(f"distributions.term_elements.{kind}", lambda f=of_kind: sum(s.attrs["n"] for s in f()))
        put(f"distributions.term_ns_per_element.{kind}",
            lambda k=kind: 1e9 * ratio(metrics[f"distributions.term_s.{k}"],
                                       metrics[f"distributions.term_elements.{k}"]))
    put("distributions.sample_calls", lambda: len(get("distributions.sample_many")))
    put("distributions.sample_s", lambda: busy("distributions.sample_many"))

    try:
        fits, iters, probes, accepted = fit_stats()
    except Missing as exc:
        fits = None
        lost.append(f"mle.* fit counts (needs {exc})")
    if fits is not None:
        status = [f.attrs.get("status", "raised") for f in fits]
        metrics["mle.fits"] = len(fits)
        metrics["mle.fit_s"] = sum(f.end - f.start for f in fits)
        metrics["mle.newton_iters"] = iters
        metrics["mle.probes_per_iter"] = ratio(probes, iters)
        metrics["mle.accept_ratio"] = ratio(accepted, probes)
        for s in (*STATUSES, "raised"):
            metrics[f"mle.status.{s}"] = status.count(s)
        metrics["mle.refit_failure_share"] = ratio(len(fits) - status.count("converged"), len(fits))
    put("mle.init_s", lambda: busy("mle.linearized_init"))

    put("uncertainty.bootstrap_s", lambda: busy("uncertainty.parametric_bootstrap"))
    put("uncertainty.self_s", lambda: self_time("uncertainty.parametric_bootstrap",
                                                "mle.fit_kind", "distributions.sample_many"))
    put("uncertainty.interval_s", lambda: busy("uncertainty.interval"))
    put("uncertainty.failures",
        lambda: sum(s.attrs.get("failures", 0) for s in get("uncertainty.parametric_bootstrap")))
    put("uncertainty.phi_redraws",
        lambda: sum(s.attrs.get("phi_redraws", 0) for s in get("uncertainty.parametric_bootstrap")))

    put("simulation.run_s", lambda: busy("simulation.run_simulation"))
    put("simulation.self_s", lambda: self_time("simulation.run_simulation", "mle.fit_kind",
                                               "distributions.sample_many", "mle.linearized_init"))
    for variant in VARIANTS:
        put(f"simulation.failures.{variant}",
            lambda v=variant: sum(s.attrs.get("failures", {}).get(v, 0)
                                  for s in get("simulation.run_simulation")))

    put("diagnostics.report_s", lambda: busy("diagnostics.diagnostics_report"))
    put("diagnostics.linearized_s", lambda: busy("diagnostics.linearized_check"))
    put("diagnostics.residual_us_per_record", lambda: 1e6 * ratio(
        metrics["diagnostics.report_s"] - metrics["diagnostics.linearized_s"],
        sum(s.attrs.get("records", 0) for s in get("diagnostics.diagnostics_report"))))
    return metrics, lost


def run_operation(argvs: list, threads: list) -> tuple[float, list]:
    """Wall seconds of the operation's CLI invocations, and any failures."""
    errors = []
    t0 = time.perf_counter()
    for argv, n in zip(argvs, threads):
        os.environ["POPEST_THREADS"] = str(n)
        try:
            rc = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - reported, the run goes on
            errors.append(f"in-process popest {argv[0]} raised {type(exc).__name__}: {exc}")
            continue
        if rc != 0:
            errors.append(f"in-process popest {argv[0]} returned {rc}")
    return time.perf_counter() - t0, errors


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = Tracer()
    start = time.perf_counter()
    out = {"untraced_s": [], "traced_s": [], "traced": [], "digests": [], "errors": [],
           "attempted": 0, "failed": 0}
    lost: set = set()
    first_spans = None
    while True:
        t0 = time.perf_counter()
        for traced in (False, True):
            if traced:
                tracer.install()
            try:
                wall, errors = run_operation(spec["argvs"], spec["threads"])
            finally:
                tracer.uninstall()
            out["attempted"] += 1
            out["failed"] += bool(errors)
            out["errors"].extend(errors)
            out["digests"].append(inputs.digest(spec["outputs"]))
            if traced:
                metrics, missing = analyse(tracer.spans, tracer.missing, wall)
                out["traced"].append(metrics)
                out["traced_s"].append(wall)
                lost.update(missing)
                if first_spans is None:
                    first_spans = tracer.spans
            else:
                out["untraced_s"].append(wall)
        pair = time.perf_counter() - t0
        if time.perf_counter() - start + pair > spec["seconds"]:
            break
    out["missing"] = sorted(lost)
    base = first_spans[0].start if first_spans else 0.0
    with open(spec["spans_path"], "w", encoding="utf-8") as fh:
        json.dump([[s.id, s.parent, s.name, s.start - base, s.end - base,
                    {k: v for k, v in s.attrs.items() if k != "value"}]
                   for s in first_spans or []], fh)
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
