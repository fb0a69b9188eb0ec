"""The report files of ``compare``, ``diagnose --csv --audit`` and ``fit``
hold exactly the bytes that ``json.dumps(obj.to_dict(), indent=2,
sort_keys=True)`` and ``csv.writer`` give for the same report objects, built
here through the library. The CLI writes some of them with faster writers of
its own (``DiagnosticsReport.to_json``, ``AuditReport.to_json``); a change to
one that moves a byte fails here."""

import csv
import importlib.util
import io
import json
from pathlib import Path

import pytest

from popest import cli, dataio, diagnostics, mle, simulation, uncertainty

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def panel(tmp_path_factory):
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    path = tmp_path_factory.mktemp("panel") / "panel.csv"
    inputs.write(str(path), inputs.panel_csv(0, 2, 20, 3))
    schema = cli._parse_schema(inputs.SCHEMA)
    data, audit = dataio.apply_model_conditions(dataio.parse_csv(str(path), schema))
    assert audit.merged  # the panel has strata that the conditions pool
    return str(path), inputs.SCHEMA, data, audit


def dumps(obj) -> str:
    return json.dumps(obj.to_dict(), indent=2, sort_keys=True) + "\n"


def written(rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def test_diagnose_report_csv_and_audit_are_json_dumps_and_csv_writer(panel, tmp_path):
    path, schema, data, audit = panel
    files = {name: tmp_path / name for name in ("report.json", "resid.csv", "audit.json")}
    argv = ["diagnose", "--data", path, "--schema", schema, "--dist", "ztnb2",
            "--csv", str(files["resid.csv"]), "--audit", str(files["audit.json"]),
            "--output", str(files["report.json"])]
    assert cli.main(argv) == 0
    fitted = mle.fit(data, cli._model_spec("ztnb2", None, None))
    report = diagnostics.diagnostics_report(fitted, k=5)
    assert files["report.json"].read_text(encoding="utf-8") == dumps(report)
    assert files["audit.json"].read_text(encoding="utf-8") == dumps(audit)
    rows = [["period", "country", "domain", "m", "mu_hat", "residual"]] + [
        [r["key"][0], r["key"][1], "|".join(r["key"][2]), r["m"], r["mu_hat"], r["residual"]]
        for r in report.residuals
    ]
    assert files["resid.csv"].read_text(encoding="utf-8") == written(rows)


def test_audit_on_stderr_is_json_dumps(panel, tmp_path, capsys):
    path, schema, data, audit = panel
    argv = ["fit", "--data", path, "--schema", schema, "--dist", "po",
            "--output", str(tmp_path / "fit.json")]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == dumps(audit)


def test_fit_report_is_json_dumps(panel, tmp_path):
    path, schema, data, _ = panel
    out = tmp_path / "fit.json"
    argv = ["fit", "--data", path, "--schema", schema, "--dist", "ztnb2",
            "--alpha-cov", "intercept,country:C0,sex:M", "--output", str(out)]
    assert cli.main(argv) == 0
    fitted = mle.fit(data, cli._model_spec("ztnb2", "intercept,country:C0,sex:M", None))
    assert out.read_text(encoding="utf-8") == dumps(fitted)


def test_compare_table_is_csv_writer(panel, tmp_path):
    path, schema, data, _ = panel
    out = tmp_path / "compare.csv"
    covs = ["intercept", "intercept,country:C0,sex:M"]
    argv = ["compare", "--data", path, "--schema", schema, "--dists", "po,ztnb2",
            "--alpha-covs", ";".join(covs), "--output", str(out)]
    assert cli.main(argv) == 0
    rows = []
    for dist in ("po", "ztnb2"):
        for cov in covs:
            fitted = mle.fit(data, cli._model_spec(dist, cov, None))
            numbers = (fitted.loglik, fitted.aic, fitted.bic, fitted.xi_hat)
            rows.append([dist, cov, *numbers, fitted.convergence.status])
    rows.sort(key=lambda r: r[4])
    header = ["dist", "alpha_covariates", "loglik", "aic", "bic", "xi_hat", "status"]
    table = [header] + [[*r[:2], *(f"{v:.4f}" for v in r[2:6]), r[6]] for r in rows]
    assert out.read_text(encoding="utf-8") == written(table)


def test_boot_report_and_draws_are_json_dumps_and_csv_writer(panel, tmp_path):
    path, schema, data, _ = panel
    out, draws = tmp_path / "boot.json", tmp_path / "draws.csv"
    argv = ["boot", "--data", path, "--schema", schema, "--dist", "ztnb2", "-B", "12",
            "--seed", "4", "--draws-path", str(draws), "--output", str(out)]
    assert cli.main(argv) == 0
    fitted = mle.fit(data, cli._model_spec("ztnb2", None, None))
    result = uncertainty.parametric_bootstrap(fitted, B=12, seed=4)
    report = result.to_dict() | {"xi_hat": fitted.xi_hat, "draws_path": str(draws)}
    assert out.read_text(encoding="utf-8") == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert len(result.draws) > 1
    assert draws.read_text(encoding="utf-8") == written([["xi_star", "xi_hat_star"], *result.draws])


def test_simulate_table_is_csv_writer(tmp_path):
    out = tmp_path / "simulate.csv"
    argv = ["simulate", "--phi", "2.5", "-B", "4", "--strata", "20", "--seed", "2",
            "--output", str(out)]
    assert cli.main(argv) == 0
    population = tuple(simulation.synthetic_population(20, 2))
    design = simulation.SimDesign(phi_true=2.5, B=4, seed=2, population=population)
    report = simulation.run_simulation(design)
    rows = [["variant", "parameter", "rb_percent", "rrmse_percent", "failures"]] + [
        [v, p, f"{c['rb_percent']:.6f}", f"{c['rrmse_percent']:.6f}", report.failures[v]]
        for v in design.variants
        for p, c in report.metrics[v].items()
    ]
    assert len(rows) == 1 + 4 * len(simulation.PARAMETERS)
    assert out.read_text(encoding="utf-8") == written(rows)
