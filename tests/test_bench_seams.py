"""The module attributes that the benchmark's tracer (bench/trace_worker.py)
wraps must exist, so that removing one fails here and not only in a
benchmark run. The tracer is imported and read, never installed."""

import importlib.util
from pathlib import Path

from popest import meanmodel, mle, simulation, uncertainty

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracing_seams_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # trace_worker imports bench/inputs.py
    spec = importlib.util.spec_from_file_location("trace_worker", BENCH / "trace_worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, *_ in worker.TARGETS
        if attr not in vars(module)
    ]
    assert missing == []
    assert isinstance(vars(meanmodel.ModelData).get("W"), property)
    assert hasattr(simulation, "VARIANT_KINDS")
    # The replicate refits call mle.fit_kind; the tracer also wraps the names
    # in uncertainty and simulation, which must be that same function, so
    # that a stale copy or wrapper there fails here rather than going
    # uncounted.
    assert uncertainty.fit_kind is mle.fit_kind is simulation.fit_kind
