"""The benchmark's tracer (bench/trace_worker.py), installed around in-process
runs of every traced command, must see each seam it wraps called with the
shape it records: a seam that still exists but is bypassed, or whose
arguments or result changed shape, fails here before it fails a benchmark
run."""

import importlib.util
from pathlib import Path

from popest import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_sees_every_seam_of_the_traced_commands(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # trace_worker imports bench/inputs.py
    spec = importlib.util.spec_from_file_location("trace_worker", BENCH / "trace_worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    inputs = worker.inputs
    data = str(tmp_path / "panel.csv")
    inputs.write(data, inputs.panel_csv(0, 1, 20, 3))
    d = ["--data", data, "--schema", inputs.SCHEMA]
    argvs = [
        ["boot", *d, "--dist", "ztnb2", "-B", "10", "--output", str(tmp_path / "boot.json")],
        ["simulate", "--phi", "2.5", "-B", "4", "--strata", "30",
         "--output", str(tmp_path / "sim.csv")],
        ["compare", *d, "--dists", "po,ztnb2", "--output", str(tmp_path / "compare.csv")],
        ["diagnose", *d, "--dist", "ztnb2", "--csv", str(tmp_path / "resid.csv"),
         "--output", str(tmp_path / "diagnose.json")],
    ]
    tracer = worker.Tracer()
    tracer.install()
    try:
        codes = [cli.main(argv) for argv in argvs]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0]
    metrics, lost = worker.analyse(tracer.spans, tracer.missing, wall=1.0)
    assert tracer.missing == set()
    assert lost == []
    # 1 + 10 bootstrap fits, 4 replicates x 4 variants, 2 compare cells, 1 diagnose fit
    assert metrics["mle.fits"] == 30
    assert metrics["mle.newton_iters"] == metrics["meanmodel.score_hessian_calls"]
