"""Panel-scale ingestion and report writing: the JSON writer's pieces equal
``json.dumps`` at the edges of a block of rows, ``diagnose`` writes its
report and residual CSV in one pass as ``json.dumps`` and ``csv.writer``
would, and writing a report or parsing a 40 000-stratum panel takes memory
that does not grow with the rows and runs no garbage collection; the
parse's error path names the same row at that scale."""

import csv
import gc
import inspect
import io
import json
import re
import sys
import tracemalloc
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from popest import cli, dataio, diagnostics
from popest.dataio import DuplicateKeyError, ParseError, parse_csv
from popest.diagnostics import DiagnosticsReport, LinearizedCheck

BENCH = Path(__file__).resolve().parents[1] / "bench"
SCHEMA = {"period": "period", "country": "country", "domain": ["sex", "age"],
          "m": "m", "n": "n", "N": "N"}


@pytest.fixture(scope="module")
def panel_text():
    """``bench/inputs.panel_csv(0, 20, 100, 10)``: a header and 40 000 strata."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        import inputs
    return inputs.panel_csv(0, 20, 100, 10)


def synthetic_report(n: int) -> DiagnosticsReport:
    rng = np.random.default_rng(n)
    i = np.arange(n)
    return DiagnosticsReport(
        period=[f"P{k:02d}" for k in i // 2000],
        country=[f"C{k}" for k in i // 20 % 100],
        domain=[("F" if k % 2 else "M", f"A{k % 10}") for k in i],
        m=rng.integers(0, 10**4, n).tolist(),
        mu_hat=rng.lognormal(3.0, 2.0, n).tolist(),
        residual=rng.normal(0.0, 1.0, n).tolist(),
        worst_fit=[{"delta": 1.5, "key": ["P00", "C0", ["F", "A0"]], "m": 3, "mu_hat": 1.5,
                    "residual": 0.25}],
        linearized=LinearizedCheck(-0.3, 0.4, -0.3, 0.8, False, {"F/A0": {"corr_logN": 0.1}}),
    )


@pytest.mark.parametrize("blocks", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 0)],
                         ids=["0", "1", "B-1", "B", "B+1", "3B"])
def test_report_pieces_equal_json_dumps_at_block_edges(blocks, tmp_path, capsys):
    whole, extra = blocks
    report = synthetic_report(whole * dataio._BLOCK + extra)
    expected = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    assert "".join(report.json_pieces()) == report.to_json() == expected
    path = tmp_path / "report.json"
    for out in (str(path), None):
        cli._write(chain(report.json_pieces(), ["\n"]), out)
    assert path.read_text(encoding="utf-8") == capsys.readouterr().out == expected + "\n"


def write_peak(report: DiagnosticsReport, path, csv_path=None) -> int:
    """Traced bytes allocated at the peak of writing ``report`` to ``path``
    (and its residual CSV to ``csv_path``) as ``diagnose`` writes them, above
    what was allocated before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        if csv_path is None:
            cli._write(chain(report.json_pieces(), ["\n"]), str(path))
        else:
            json_text, csv_text = report.pieces()
            cli._write(chain(json_text, ["\n"]), str(path), (csv_text, str(csv_path)))
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_writing_a_report_takes_memory_that_does_not_grow_with_rows(tmp_path):
    small, large = synthetic_report(10_000), synthetic_report(40_000)
    peaks = [write_peak(r, tmp_path / "report.json") for r in (small, large)]
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_writing_a_report_and_its_csv_takes_memory_that_does_not_grow_with_rows(tmp_path):
    small, large = synthetic_report(10_000), synthetic_report(40_000)
    paths = tmp_path / "report.json", tmp_path / "resid.csv"
    peaks = [write_peak(r, *paths) for r in (small, large)]
    assert peaks[1] <= 1.25 * peaks[0], peaks


ODD_LABELS = ["a,b", 'say "hi"', "two\nlines", "Łódź", "C0"]


def odd_report(n: int) -> DiagnosticsReport:
    """``synthetic_report(n)`` with labels that csv.writer quotes or json
    escapes, and NaN and infinite residuals, which the two spell apart."""
    report = synthetic_report(n)
    k = len(ODD_LABELS)
    report.country = [ODD_LABELS[i % k] for i in range(n)]
    report.domain = [(ODD_LABELS[(i + 1) % k], ODD_LABELS[(i + 2) % k]) for i in range(n)]
    report.residual[:3] = [float("nan"), float("inf"), -float("inf")][:n]
    return report


def csv_writer_text(report: DiagnosticsReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["period", "country", "domain", "m", "mu_hat", "residual"])
    writer.writerows(zip(report.period, report.country, map("|".join, report.domain),
                         report.m, report.mu_hat, report.residual))
    return out.getvalue()


@pytest.mark.parametrize("n", [0, 1, dataio._BLOCK - 1, dataio._BLOCK, dataio._BLOCK + 1],
                         ids=["0", "1", "B-1", "B", "B+1"])
def test_diagnose_writes_the_report_and_csv_in_one_pass_as_json_and_csv_writer_do(
        n, tmp_path, capsys, monkeypatch):
    report = odd_report(n)
    monkeypatch.setattr(cli, "_load_and_fit", lambda args: None)
    monkeypatch.setattr(diagnostics, "diagnostics_report", lambda fit, k: report)
    resid = tmp_path / "resid.csv"
    argv = ["diagnose", "--data", "unread.csv", "--schema", "unread", "--dist", "ztnb2",
            "--csv", str(resid)]
    expected = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    assert cli.main(argv) == 0  # the report to stdout, the CSV to a file
    assert capsys.readouterr().out == expected
    assert resid.read_bytes().decode("utf-8") == csv_writer_text(report)
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--output", str(out)]) == 0
    assert out.read_bytes().decode("utf-8") == expected
    assert resid.read_bytes().decode("utf-8") == csv_writer_text(report)


def test_an_unwritable_csv_path_is_exit_two_before_any_report_byte(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_load_and_fit", lambda args: None)
    monkeypatch.setattr(diagnostics, "diagnostics_report", lambda fit, k: synthetic_report(5))
    argv = ["diagnose", "--data", "unread.csv", "--schema", "unread", "--dist", "ztnb2",
            "--csv", str(tmp_path / "missing" / "resid.csv")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "No such file" in captured.err


def test_parse_csv_pauses_the_collector_and_restores_its_state(tmp_path):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("period,country,sex,age,m,n,N\nP,C,F,A,1,2,3\n", encoding="utf-8")
    bad.write_text("period,country,sex,age,m,n,N\nP,C,F,A,x,2,3\n", encoding="utf-8")
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        try:
            assert len(parse_csv(str(good), SCHEMA)) == 1
            assert gc.isenabled() is enabled
            with pytest.raises(ParseError):
                parse_csv(str(bad), SCHEMA)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()


def test_no_collection_runs_while_parsing_a_panel_or_writing_its_reports(panel_text, tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(panel_text, encoding="utf-8")
    bodies = {inspect.unwrap(f).__code__: name
              for name, f in (("parse_csv", dataio.parse_csv), ("_write", cli._write))}
    collected = []

    def on_collection(phase, info):
        if phase != "start":
            return
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in bodies:
            frame = frame.f_back
        if frame is not None:
            collected.append((bodies[frame.f_code], info["generation"]))

    argv = ["diagnose", "--data", str(path), "--dist", "ztnb2",
            "--schema", "period=period,country=country,domain=sex+age,m=m,n=n,N=N",
            "--csv", str(tmp_path / "resid.csv"), "--output", str(tmp_path / "report.json"),
            "--audit", str(tmp_path / "audit.json")]
    gc.callbacks.append(on_collection)
    try:
        assert cli.main(argv) == 0
    finally:
        gc.callbacks.remove(on_collection)
    assert collected == []


def test_parsing_a_panel_takes_bounded_memory(panel_text, tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(panel_text, encoding="utf-8")
    tracemalloc.start()
    try:
        data = parse_csv(str(path), SCHEMA)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(data) == 40_000
    assert peak < 12e6, peak
    for i in (0, 12_345, 39_999):
        period, country, sex, age, *counts = panel_text.splitlines()[i + 1].split(",")
        assert data.keys[i] == (period, country, (sex, age))
        assert [int(c[i]) for c in data.counts] == list(map(int, counts))


def with_lines(panel_text, replace: dict, after: bytes = b"") -> bytes:
    """The panel with the rows numbered as in the file (header = row 1)
    replaced, as bytes, followed by ``after``."""
    lines = panel_text.encode().splitlines(keepends=True)
    for row, text in replace.items():
        lines[row - 1] = text
    return b"".join(lines) + after


UNDECODABLE = b"P99,\xff,F,A0,5,20,100\n"


def test_the_first_bad_row_of_a_panel_is_named(panel_text, tmp_path):
    first = panel_text.splitlines()[6].encode() + b"\n"  # row 7
    cases = [
        ({40_001: b"P19,C99,M,A9,x,1,2\n"}, b"", ParseError,
         "row 40001: column 'm' value 'x' is not an integer"),
        ({40_001: first}, b"", DuplicateKeyError,
         "row 40001: duplicate key ('P00', 'C0', ('F', 'A5'))"),
        ({20_000: b"P09,C99,M,A8,-3,1,2\n"}, UNDECODABLE, ParseError,
         "row 20000: column 'm' is negative (-3)"),
        # the undecodable line shares its decoded chunk with row 39 999, so
        # decoding fails before that row is read, as it does on a row-by-row read
        ({39_999: b"P19,C99,M,A7,-3,1,2\n", 40_000: UNDECODABLE}, b"", UnicodeDecodeError,
         "can't decode byte 0xff"),
    ]
    for i, (replace, after, error, message) in enumerate(cases):
        path = tmp_path / f"bad{i}.csv"
        path.write_bytes(with_lines(panel_text, replace, after))
        with pytest.raises(error, match=re.escape(message)):
            parse_csv(str(path), SCHEMA)


def test_parse_equals_the_per_row_parser_across_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(dataio, "_BLOCK", 3)
    text = "period,country,sex,age,m,n,N\n" + "".join(
        f"Q{i % 2}, C{i // 4} ,{'FM'[i % 2]},A{i % 3},{i},{i + 1},{10 * i + 20}\n" + "\n" * (i == 4)
        for i in range(10)
    )
    path = tmp_path / "panel.csv"
    path.write_text(text, encoding="utf-8")
    data = parse_csv(str(path), SCHEMA)
    assert [(r.key, r.m, r.n, r.N) for r in data.records] == [
        ((f"Q{i % 2}", f"C{i // 4}", ("FM"[i % 2], f"A{i % 3}")), i, i + 1, 10 * i + 20)
        for i in range(10)
    ]
    assert data.labels[1][0] is data.labels[1][3] and data.labels[2][0] is data.labels[2][6]
    path.write_text(text + "Q1,C0,M,A1,7,8,9\n", encoding="utf-8")
    with pytest.raises(DuplicateKeyError, match="row 12: duplicate key"):
        parse_csv(str(path), SCHEMA)
