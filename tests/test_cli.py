"""Command-line interface: schemas, exit codes, report formats, determinism."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import popest
from popest import mle
from popest.cli import _parse_pad, _parse_schema, main

from conftest import synth_records

SCHEMA = "period=period,country=country,domain=sex+age,m=m,n=n,N=N"


def write_csv(path, records):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["period", "country", "sex", "age", "m", "n", "N"])
        for r in records:
            writer.writerow([r.period, r.country, *r.domain, r.m, r.n, r.N])
    return str(path)


@pytest.fixture
def data_csv(tmp_path):
    return write_csv(tmp_path / "data.csv", synth_records(11, 40))


def test_fit_with_country_covariate(data_csv, capsys):
    code = main(
        [
            "fit",
            "--data", data_csv,
            "--schema", SCHEMA,
            "--dist", "ztnb2",
            "--alpha-cov", "intercept,country:Ukraine",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["parameter_labels"] == [
        "alpha:intercept",
        "alpha:country:Ukraine",
        "beta:intercept",
        "phi",
    ]
    assert len(report["params"]["alpha"]) == 2
    assert report["convergence"]["status"] == "converged"


def test_fit_poisson_has_no_phi(data_csv, capsys):
    code = main(["fit", "--data", data_csv, "--schema", SCHEMA, "--dist", "po"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert "phi" not in report["params"]


def test_fit_real_stall_is_exit_one(data_csv, capsys, monkeypatch):
    # A constant log-likelihood: no probe can raise it, while the score at the
    # starting values is far from zero, so the stop is a stall, not an optimum.
    monkeypatch.setattr(mle, "loglik_kind", lambda md, kind, params: -1.0)
    code = main(["fit", "--data", data_csv, "--schema", SCHEMA, "--dist", "ztnb2"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["convergence"]["status"] == "stalled"
    assert report["convergence"]["iterations"] == 1


def test_unknown_dist_is_usage_error(data_csv):
    with pytest.raises(SystemExit) as err:
        main(["fit", "--data", data_csv, "--schema", SCHEMA, "--dist", "zipf"])
    assert err.value.code == 2


def test_bad_schema_is_exit_two(data_csv):
    code = main(
        ["fit", "--data", data_csv, "--schema", "period=period", "--dist", "po"]
    )
    assert code == 2


def test_missing_column_is_exit_two(data_csv):
    schema = SCHEMA.replace("N=N", "N=population")
    code = main(["fit", "--data", data_csv, "--schema", schema, "--dist", "po"])
    assert code == 2


def test_short_row_is_exit_two(data_csv, capsys):
    with open(data_csv, "a", encoding="utf-8") as fh:
        fh.write("Q9,Ukraine,F,0-30,5\n")
    code = main(["fit", "--data", data_csv, "--schema", SCHEMA, "--dist", "po"])
    assert code == 2
    assert "row 42: has 5 fields" in capsys.readouterr().err


def test_negative_top_k_is_exit_two(data_csv, capsys):
    code = main(
        ["diagnose", "--data", data_csv, "--schema", SCHEMA, "--dist", "po", "--top-k", "-2"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "--top-k must be nonnegative" in captured.err
    assert captured.out == ""


def test_count_below_support_is_exit_two(tmp_path, capsys):
    records = synth_records(5, 30, token="zotnb2")  # every m >= 2
    records[7] = dataclasses.replace(records[7], m=1)
    path = write_csv(tmp_path / "m1.csv", records)
    code = main(["fit", "--data", path, "--schema", SCHEMA, "--dist", "zotpo"])
    assert code == 2
    assert f"record {records[7].key} has m=1" in capsys.readouterr().err


def test_compare_quotes_failure_status(tmp_path, capsys):
    records = synth_records(5, 30, token="zotnb2")
    records[7] = dataclasses.replace(records[7], m=1)
    path = write_csv(tmp_path / "m1.csv", records)
    code = main(["compare", "--data", path, "--schema", SCHEMA, "--dists", "po,zotpo"])
    assert code == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [r["dist"] for r in rows] == ["po", "zotpo"]
    assert all(None not in r for r in rows)  # no row has surplus fields
    assert rows[1]["status"] == (
        f"failed: record {records[7].key} has m=1, below the support minimum 2 of zotpo"
    )


def test_compare_grid_sorted_by_bic(data_csv, capsys):
    code = main(
        [
            "compare",
            "--data", data_csv,
            "--schema", SCHEMA,
            "--dists", "po,ztpo,nb2,ztnb2",
            "--alpha-covs", "intercept;intercept,country:Ukraine",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 9  # header + 4 dists x 2 covariate sets
    bics = [float(line.split(",")[-3]) for line in lines[1:]]
    assert bics == sorted(bics)


def test_boot_deterministic_bytes(data_csv, tmp_path):
    out1 = tmp_path / "b1.json"
    out2 = tmp_path / "b2.json"
    for out in (out1, out2):
        code = main(
            [
                "boot",
                "--data", data_csv,
                "--schema", SCHEMA,
                "--dist", "ztnb2",
                "-B", "15",
                "--seed", "1",
                "--output", str(out),
            ]
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert set(report["intervals"]) == {"plugin", "percentile", "spin"}
    assert report["B"] == 15


def test_boot_zero_B_is_usage_error(data_csv):
    code = main(
        ["boot", "--data", data_csv, "--schema", SCHEMA, "--dist", "ztnb2", "-B", "0"]
    )
    assert code == 2


@pytest.mark.parametrize("level", ["1.5", "1.0", "0.0", "-0.2"])
def test_boot_quantile_level_outside_the_unit_interval_is_usage_error(data_csv, level, capsys):
    code = main(
        ["boot", "--data", data_csv, "--schema", SCHEMA, "--dist", "ztnb2", "-B", "4",
         "--quantile-level", level]
    )
    assert code == 2
    assert "--quantile-level" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--phi", "2.5", "-B", "4", "--variants", "bogus"], "unknown variant"),
        (["simulate", "--phi", "2.5", "-B", "4", "--variants", "nb2-closed,nb2-closed"],
         "repeated variant"),
        (["simulate", "--phi", "2.5", "-B", "4", "--seed", "-1"], "--seed"),
        (["boot", "DATA", "--dist", "ztnb2", "-B", "4", "--seed", "-1"], "--seed"),
        (["fit", "DATA", "--dist", "ztnb2", "--alpha-cov", "intercept,bogus:x"], "bogus"),
        (["fit", "DATA", "--dist", "ztnb2", "--alpha-cov", "foo"], "foo"),
        (["fit", "DATA", "--dist", "ztnb2", "--alpha-cov", "intercept,intercept"], "duplicate"),
    ],
    ids=["simulate-variant", "simulate-repeated-variant", "simulate-seed", "boot-seed", "fit-unknown-variable",
         "fit-malformed-term", "fit-duplicate-term"],
)
def test_bad_option_values_are_usage_errors(data_csv, argv, message, capsys):
    argv = [a for arg in argv for a in (["--data", data_csv, "--schema", SCHEMA] if arg == "DATA" else [arg])]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def _oversized_field(path):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("Q1,Ukraine,F," + "x" * 131_073 + ",3,10,100\n")


def _non_utf8(path):
    with open(path, "ab") as fh:
        fh.write(b"Q1,Ukra\xefne,F,0-30,3,10,100\n")


@pytest.mark.parametrize(
    "argv, spoil, message",
    [
        (["fit", "--data", "MISSING"], None, "No such file"),
        (["fit", "--data", "DATA", "--output", "MISSING/fit.json"], None, "No such file"),
        (["fit", "--data", "DATA"], _oversized_field, "field larger than field limit"),
        (["fit", "--data", "DATA"], _non_utf8, "can't decode"),
    ],
    ids=["missing-data", "output-in-missing-directory", "oversized-field", "non-utf8"],
)
def test_file_errors_are_exit_two(data_csv, tmp_path, argv, spoil, message, capsys):
    if spoil:
        spoil(data_csv)
    paths = {"DATA": data_csv, "MISSING": str(tmp_path / "missing")}
    argv = [paths.get(a, a.replace("MISSING", paths["MISSING"])) for a in argv]
    assert main([*argv, "--schema", SCHEMA, "--dist", "po"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_boot_draws_csv(data_csv, tmp_path):
    draws = tmp_path / "draws.csv"
    code = main(
        [
            "boot",
            "--data", data_csv,
            "--schema", SCHEMA,
            "--dist", "ztnb2",
            "-B", "8",
            "--seed", "2",
            "--draws-path", str(draws),
            "--output", str(tmp_path / "b.json"),
        ]
    )
    assert code == 0
    lines = draws.read_text().strip().splitlines()
    assert lines[0] == "xi_star,xi_hat_star"
    assert len(lines) >= 2


def test_diagnose_csv(data_csv, tmp_path, capsys):
    csv_out = tmp_path / "resid.csv"
    code = main(
        [
            "diagnose",
            "--data", data_csv,
            "--schema", SCHEMA,
            "--dist", "ztnb2",
            "--top-k", "3",
            "--csv", str(csv_out),
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["worst_fit"]) == 3
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "period,country,domain,m,mu_hat,residual"
    assert len(lines) == 41  # header + one row per record


def test_csv_reports_round_trip_labels_with_commas_and_quotes(tmp_path, capsys):
    rename = {"Ukraine": "Korea, Republic of", "Georgia": 'Georgia "GE"'}
    records = [
        dataclasses.replace(r, country=rename.get(r.country, r.country))
        for r in synth_records(11, 40)
    ]
    path = write_csv(tmp_path / "labels.csv", records)
    resid = tmp_path / "resid.csv"
    code = main(["diagnose", "--data", path, "--schema", SCHEMA, "--dist", "ztnb2",
                 "--csv", str(resid)])
    assert code == 0
    capsys.readouterr()
    with open(resid, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["period", "country", "domain", "m", "mu_hat", "residual"]
    assert all(len(row) == len(rows[0]) for row in rows)
    assert [row[1] for row in rows[1:]] == [r.country for r in records]

    code = main(["compare", "--data", path, "--schema", SCHEMA, "--dists", "po",
                 "--alpha-covs", 'intercept;intercept,country:Georgia "GE"'])
    assert code == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert all(len(row) == len(rows[0]) for row in rows)
    assert sorted(row[1] for row in rows[1:]) == [
        "intercept", 'intercept,country:Georgia "GE"'
    ]


def test_pad_flag_flows_through(tmp_path, capsys):
    records = synth_records(11, 20)
    path = write_csv(tmp_path / "pad.csv", records)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("Q1,other,F,60+,0,52,1286\n")
    code = main(
        [
            "diagnose",
            "--data", path,
            "--schema", SCHEMA,
            "--dist", "ztnb2",
            "--pad", "Q1:other:F,60+",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    padded = [
        row
        for row in report["residuals"]
        if row["key"][1] == "other" and row["key"][2] == ["F", "60+"]
    ]
    assert len(padded) == 1
    assert padded[0]["m"] == 1


def test_schema_and_pad_labels_are_stripped(tmp_path, capsys):
    schema = " period = period ,country=country,domain= sex + age ,m=m,n=n,N=N"
    assert _parse_schema(schema)["domain"] == ["sex", "age"]
    assert _parse_pad(" Q1 : other :F , 60+ ") == ("Q1", "other", ("F", "60+"))
    path = write_csv(tmp_path / "pad.csv", synth_records(11, 20))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("Q1,other,F,60+,0,52,1286\n")
    argv = ["diagnose", "--data", path, "--schema", schema, "--dist", "ztnb2",
            "--pad", " Q1 : other :F , 60+ "]
    assert main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["residuals"]
    assert [r["m"] for r in rows if r["key"] == ["Q1", "other", ["F", "60+"]]] == [1]


def test_audit_file_written(tmp_path):
    records = synth_records(11, 20)
    path = write_csv(tmp_path / "audit.csv", records)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("Q1,Nowhere,F,61+,0,5,100\n")
    audit_path = tmp_path / "audit.json"
    code = main(
        [
            "fit",
            "--data", path,
            "--schema", SCHEMA,
            "--dist", "ztnb2",
            "--audit", str(audit_path),
            "--output", str(tmp_path / "fit.json"),
        ]
    )
    assert code == 0
    audit = json.loads(audit_path.read_text())
    assert audit["merged"][0]["country"] == "Nowhere"


def test_simulate_requires_phi():
    with pytest.raises(SystemExit) as err:
        main(["simulate", "-B", "4"])
    assert err.value.code == 2


def test_simulate_single_variant(capsys):
    code = main(
        [
            "simulate",
            "--phi", "2.5",
            "-B", "6",
            "--strata", "30",
            "--seed", "3",
            "--variants", "zt-nb2",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "variant,parameter,rb_percent,rrmse_percent,failures"
    assert len(lines) == 5


def test_simulate_byte_identical_outputs(tmp_path):
    outs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        code = main(
            [
                "simulate",
                "--phi", "1.5",
                "-B", "5",
                "--strata", "25",
                "--seed", "7",
                "--variants", "nb2-closed",
                "--output", str(out),
            ]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_import_does_not_load_scipy_stats(tmp_path):
    # No command needs scipy: it is imported only by the quadrature oracle
    # mixture_pmf_oracle and by the tests. Importing it would make every
    # invocation start later, so neither importing popest.cli nor running
    # boot, simulate, compare and diagnose in one process may load any scipy
    # module. Nor numpy.ma, which scipy used to load first: np.quantile and
    # np.unique without return_inverse import it on their first call,
    # inside a command.
    src = Path(popest.__file__).resolve().parents[1]
    bench = Path(__file__).resolve().parents[1] / "bench"
    code = f"""
import json, sys
import popest.cli
unwanted = lambda: [m for m in sys.modules if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"]]
loaded = {{"import": unwanted()}}
sys.path.insert(0, {str(bench)!r})
import inputs
data = {str(tmp_path / "panel.csv")!r}
inputs.write(data, inputs.panel_csv(0, 1, 20, 3))
d = ["--data", data, "--schema", inputs.SCHEMA]
out = {str(tmp_path)!r}
codes = [popest.cli.main(argv) for argv in (
    ["boot", *d, "--dist", "ztnb2", "-B", "10", "--output", out + "/boot.json"],
    ["simulate", "--phi", "2.5", "-B", "4", "--strata", "30", "--output", out + "/sim.csv"],
    ["compare", *d, "--dists", "po,ztpo,nb2,ztnb2", "--output", out + "/compare.csv"],
    ["diagnose", *d, "--dist", "ztnb2", "--output", out + "/diagnose.json"],
)]
loaded["commands"] = unwanted()
print(json.dumps({{"codes": codes, "loaded": loaded}}))
"""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0]
    assert result["loaded"] == {"import": [], "commands": []}
