"""Panel-scale ingestion and report writing: the JSON writer's pieces equal
``json.dumps`` at the edges of a block of rows, and writing a report or
parsing a 40 000-stratum panel takes memory that does not grow with the
rows; the parse's error path names the same row at that scale."""

import json
import re
import tracemalloc
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from popest import cli, dataio
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


def write_peak(report: DiagnosticsReport, path) -> int:
    """Traced bytes allocated at the peak of writing ``report`` to ``path``
    as ``diagnose`` writes it, above what was allocated before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cli._write(chain(report.json_pieces(), ["\n"]), str(path))
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_writing_a_report_takes_memory_that_does_not_grow_with_rows(tmp_path):
    small, large = synthetic_report(10_000), synthetic_report(40_000)
    peaks = [write_peak(r, tmp_path / "report.json") for r in (small, large)]
    assert peaks[1] <= 1.25 * peaks[0], peaks


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
