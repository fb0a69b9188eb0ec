"""CSV ingestion, condition filtering, pseudo-country aggregation, padding."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from popest.dataio import (
    PSEUDO_COUNTRY,
    AuditReport,
    Dataset,
    DuplicateKeyError,
    PaddingError,
    ParseError,
    SchemaError,
    StratumRecord,
    apply_model_conditions,
    dumps,
    pad_empty_domain,
    parse_csv,
)

SCHEMA = {
    "period": "period",
    "country": "country",
    "domain": ["sex", "age"],
    "m": "m",
    "n": "n",
    "N": "N",
}


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_three_rows(tmp_path):
    p = write(
        tmp_path / "a.csv",
        "period,country,sex,age,m,n,N\n"
        "Q1,Ukraine,F,0-30,5,20,100\n"
        "Q1,Ukraine,M,0-30,7,30,200\n"
        "Q1,Georgia,F,0-30,2,10,50\n",
    )
    data = parse_csv(p, SCHEMA)
    assert len(data.records) == 3
    assert all(len(r.domain) == 2 for r in data.records)
    assert data.domain_names == ("sex", "age")
    assert data.records[0].m == 5


def test_parse_negative_count_cites_row(tmp_path):
    p = write(
        tmp_path / "b.csv",
        "period,country,sex,age,m,n,N\n"
        "Q1,Ukraine,F,0-30,-1,20,100\n",
    )
    with pytest.raises(ParseError, match="row 2"):
        parse_csv(p, SCHEMA)


def test_parse_non_integer_count(tmp_path):
    p = write(
        tmp_path / "c.csv",
        "period,country,sex,age,m,n,N\nQ1,Ukraine,F,0-30,1.5,20,100\n",
    )
    with pytest.raises(ParseError, match="row 2"):
        parse_csv(p, SCHEMA)


def test_parse_missing_column_names_it(tmp_path):
    p = write(
        tmp_path / "d.csv",
        "period,country,sex,age,m,n\nQ1,Ukraine,F,0-30,1,20\n",
    )
    with pytest.raises(SchemaError, match="'N'"):
        parse_csv(p, SCHEMA)


def test_parse_duplicate_key(tmp_path):
    p = write(
        tmp_path / "e.csv",
        "period,country,sex,age,m,n,N\n"
        "Q1,Ukraine,F,0-30,5,20,100\n"
        "Q1,Ukraine,F,0-30,6,21,101\n",
    )
    with pytest.raises(DuplicateKeyError, match="row 3"):
        parse_csv(p, SCHEMA)


def test_parse_count_beyond_64_bits(tmp_path):
    p = write(
        tmp_path / "f.csv",
        f"period,country,sex,age,m,n,N\nQ1,Ukraine,F,0-30,{2**63},20,100\n",
    )
    with pytest.raises(ParseError, match="64-bit"):
        parse_csv(p, SCHEMA)


def test_parse_short_row_names_it(tmp_path):
    # The blank line is skipped and not numbered, as before.
    p = write(
        tmp_path / "g.csv",
        "period,country,sex,age,m,n,N\n"
        "Q1,Ukraine,F,0-30,5,20,100\n"
        "\n"
        "Q1,Georgia,F,0-30,2,10\n",
    )
    with pytest.raises(ParseError, match="row 3: has 6 fields, the header has 7"):
        parse_csv(p, SCHEMA)


def test_parse_row_rules(tmp_path):
    # A repeated header name reads the last column, surplus fields are
    # ignored, and blank lines are skipped without being numbered.
    header = "period,country,sex,age,m,n,N,m\n"
    good = "\nQ1,Ukraine,F,0-30,99,20,100,5,surplus\n"
    data = parse_csv(write(tmp_path / "h.csv", header + good), SCHEMA)
    assert [(r.key, r.m) for r in data.records] == [(("Q1", "Ukraine", ("F", "0-30")), 5)]
    bad = good + "\nQ1,Ukraine,M,0-30,99,30,200,x\n"
    with pytest.raises(ParseError, match="row 3: column 'm' value 'x'"):
        parse_csv(write(tmp_path / "i.csv", header + bad), SCHEMA)


def test_dataset_columns_keys_and_codes_follow_the_records():
    records = (
        rec("B", 2, 3, 50, domain=("M",)),
        rec("A", 1, 5, 100, period="Q2"),
        rec("B", 4, 6, 70),
    )
    data = Dataset(records=records, domain_names=("sex",))
    m, n, N = data.columns
    assert m.tolist() == [2.0, 1.0, 4.0] and n.tolist() == [3.0, 5.0, 6.0]
    assert N.tolist() == [50.0, 100.0, 70.0]
    assert not m.flags.writeable
    assert data.keys == tuple(r.key for r in records)
    for variable, values in (
        ("country", [r.country for r in records]),
        ("sex", [r.domain[0] for r in records]),
        (None, [r.domain for r in records]),
        ("period", [r.period for r in records]),
    ):
        codes, levels = data.codes[variable]
        assert list(levels) == list(dict.fromkeys(values))  # first-appearance order
        assert [list(levels)[c] for c in codes] == values
    assert data.codes is data.codes  # built once
    assert data.nonconforming is None
    bad = Dataset(records=records + (rec("C", 0, 5, 100),), domain_names=("sex",))
    assert bad.nonconforming == bad.records[-1]


def test_nonconforming_is_exact_above_two_to_the_53():
    # As floats, n = 2**53 + 1 and N = 2**53 + 2 are equal; as integers n < N.
    big = rec("A", 1, 2**53 + 1, 2**53 + 2)
    assert Dataset(records=(big,)).nonconforming is None


def rec(country, m, n, N, period="Q1", domain=("F",)):
    return StratumRecord(period=period, country=country, domain=tuple(domain), m=m, n=n, N=N)


def test_conditions_drop_still_violating_pseudo():
    data = Dataset(records=(rec("A", 0, 5, 100), rec("B", 2, 3, 50)), domain_names=("sex",))
    out, audit = apply_model_conditions(data)
    assert [r.country for r in out.records] == ["B"]
    assert [d["country"] for d in audit.merged] == ["A"]
    assert len(audit.dropped) == 1
    assert audit.dropped[0]["m"] == 0


def test_conditions_pseudo_retained_when_conforming():
    # The violator's counts are absorbed by the pseudo-country record for the
    # same (period, domain); the merged record conforms and stays.
    data = Dataset(
        records=(rec("A", 0, 5, 100), rec("other", 1, 2, 40)), domain_names=("sex",)
    )
    out, audit = apply_model_conditions(data)
    merged = [r for r in out.records if r.country == "other"]
    assert len(merged) == 1
    assert (merged[0].m, merged[0].n, merged[0].N) == (1, 7, 140)
    assert not audit.dropped


def test_conditions_identity_on_conforming_data():
    data = Dataset(records=(rec("A", 1, 5, 100), rec("B", 2, 3, 50)), domain_names=("sex",))
    out, audit = apply_model_conditions(data)
    assert out.records == data.records
    assert audit.empty


def test_conditions_mass_conservation_and_idempotence():
    rng = np.random.default_rng(0)
    records = []
    for i in range(60):
        N = int(rng.integers(1, 200))
        n = int(rng.integers(0, 250))
        m = int(rng.integers(0, 5))
        records.append(
            StratumRecord(
                period=f"Q{1 + i % 2}",
                country=f"c{i % 7}",
                domain=(("F", "M")[i % 2],),
                m=m,
                n=n,
                N=N,
            )
        )
    data = Dataset(records=tuple(records), domain_names=("sex",))
    out, audit = apply_model_conditions(data)
    for r in out.records:
        assert r.m >= 1 and r.n >= 1 and r.n < r.N
    dropped_totals = np.array(
        [sum(d[k] for d in audit.dropped) for k in ("m", "n", "N")]
    )
    totals = [np.sum(col) for col in out.columns]
    assert (totals + dropped_totals).tolist() == [np.sum(col) for col in data.columns]
    again, audit2 = apply_model_conditions(out)
    assert again.records == out.records
    assert audit2.empty


def test_pad_empty_domain():
    data = Dataset(
        records=(
            StratumRecord("Q2", "other", ("F", "60+"), m=0, n=52, N=1286),
        ),
        domain_names=("sex", "age"),
    )
    out = pad_empty_domain(data, ("Q2", "other", ("F", "60+")))
    assert out.records[0].m == 1
    assert "padded" in out.provenance


def test_pad_missing_key():
    data = Dataset(records=(rec("A", 0, 5, 100),), domain_names=("sex",))
    with pytest.raises(PaddingError):
        pad_empty_domain(data, ("Q9", "A", ("F",)))


def test_pad_nonzero_m():
    data = Dataset(records=(rec("A", 3, 5, 100),), domain_names=("sex",))
    with pytest.raises(PaddingError):
        pad_empty_domain(data, ("Q1", "A", ("F",)))


# --- the column store and the byte-exact audit writer ------------------------

# Labels with quotes, backslashes, commas, non-ASCII and control characters.
LABEL_CHARS = st.characters(blacklist_categories=("Cs",))
CSV_LABELS = st.text(
    st.one_of(st.sampled_from(' ",\\\t\r\n;|éß中\x7f\x01'), LABEL_CHARS.filter(lambda c: c != "\x00")),
    max_size=5,
)
JSON_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e300, float("nan"), float("inf")]),
)


def reference_parse(text, schema):
    """The per-row parser: one StratumRecord per row, checked as it is read."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, [])
    position = {name: i for i, name in enumerate(header)}
    for col in [schema[k] for k in ("period", "country", "m", "n", "N")] + schema["domain"]:
        if col not in position:
            raise SchemaError(f"missing column {col!r}")
    records, seen = [], set()

    def count(raw, column, row_number):
        try:
            value = int(raw.strip())
        except ValueError:
            raise ParseError(f"row {row_number}: column {column!r} value {raw!r} is not an integer")
        if value < 0:
            raise ParseError(f"row {row_number}: column {column!r} is negative ({value})")
        if value > 2**63 - 1:
            raise ParseError(f"row {row_number}: column {column!r} exceeds 64-bit range")
        return value

    for row_number, row in enumerate(filter(None, reader), start=2):
        try:
            rec = StratumRecord(
                period=row[position[schema["period"]]].strip(),
                country=row[position[schema["country"]]].strip(),
                domain=tuple(row[position[c]].strip() for c in schema["domain"]),
                **{k: count(row[position[schema[k]]], schema[k], row_number) for k in "mnN"},
            )
        except IndexError:
            raise ParseError(f"row {row_number}: has {len(row)} fields, the header has {len(header)}")
        if rec.key in seen:
            raise DuplicateKeyError(f"row {row_number}: duplicate key {rec.key}")
        seen.add(rec.key)
        records.append(rec)
    return records


COUNT_TEXT = st.one_of(
    st.integers(0, 10**6).map(str),
    st.sampled_from(["0", " 7 ", "-1", "1.5", "", "x", "1_000", str(2**63 - 1), str(2**63), str(-(2**64))]),
)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(["Q1", "Q2", " Q1"]),
            st.one_of(st.sampled_from(["A", "B", "other"]), CSV_LABELS),
            st.sampled_from(["F", "M"]),
            COUNT_TEXT, COUNT_TEXT, COUNT_TEXT,
            st.integers(0, 2),  # 0 - a full row, 1 - a short row, 2 - a blank line before it
        ),
        max_size=12,
    ),
    n_domain=st.integers(0, 1),
)
def test_columnar_parse_equals_the_per_row_parser(tmp_path_factory, rows, n_domain):
    schema = dict(SCHEMA, domain=["sex"][:n_domain])
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["period", "country", "sex", "m", "n", "N"])
    for period, country, sex, m, n, N, form in rows:
        if form == 2:
            out.write("\n")
        writer.writerow([period, country, sex, m, n, N][: 5 if form == 1 else 6])
    text = out.getvalue()
    path = tmp_path_factory.mktemp("csv") / "panel.csv"
    path.write_text(text, encoding="utf-8")
    try:
        expected = reference_parse(text, schema)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            parse_csv(str(path), schema)
        assert str(got.value) == str(exc)
        return
    parsed = parse_csv(str(path), schema)
    assert list(parsed.records) == expected
    assert all(type(getattr(r, k)) is int for r in parsed.records for k in "mnN")
    assert_same_dataset(parsed, Dataset(records=parsed.records, domain_names=parsed.domain_names))


def assert_same_dataset(a, b):
    assert len(a) == len(b)
    assert a.keys == b.keys
    for x, y in zip(a.columns, b.columns):
        assert x.dtype == y.dtype == float and np.array_equal(x, y)
    assert a.codes.keys() == b.codes.keys()
    for variable, (codes, levels) in a.codes.items():
        assert np.array_equal(codes, b.codes[variable][0])
        assert list(levels.items()) == list(b.codes[variable][1].items())
    assert a.nonconforming == b.nonconforming


def test_parse_reports_the_first_bad_row_whatever_its_kind(tmp_path):
    header = "period,country,sex,age,m,n,N\n"
    good = "Q1,A,F,x,5,20,100\nQ1,B,F,x,6,30,200\n"
    cases = [
        ("Q1,A,F,x,7,20,100\nQ1,D,F,x,x,1,2\n", DuplicateKeyError, "row 4: duplicate key"),
        ("Q1,D,F,x,x,1,2\nQ1,A,F,x,7,20,100\n", ParseError, "row 4: column 'm' value 'x'"),
        ("Q1,C,F,x,q,10\n", ParseError, "row 4: column 'm' value 'q'"),  # short, m read first
        (f"Q1,C,F,x,{-(2**64)},10,100\n", ParseError, "row 4: column 'm' is negative"),
        (f"Q1,C,F,x,5,{2**64},100\n", ParseError, "row 4: column 'n' exceeds 64-bit range"),
    ]
    for i, (tail, error, message) in enumerate(cases):
        with pytest.raises(error, match=message):
            parse_csv(write(tmp_path / f"bad{i}.csv", header + good + tail), SCHEMA)


def test_parse_names_a_bad_row_read_before_an_undecodable_line(tmp_path):
    header = b"period,country,sex,age,m,n,N\n"
    tail = b"".join(b"Q1,A%d,F,x,5,20,100\n" % i for i in range(2000)) + b"Q1,\xff,F,x,5,20,100\n"
    for i, (head, error) in enumerate([
        (b"Q1,B,F,x,-3,20,100\n", ParseError),  # row 2 is bad: named, as a row-by-row read would
        (b"Q1,B,F,x,3,20,100\n", UnicodeDecodeError),  # no bad row before it
    ]):
        path = tmp_path / f"bytes{i}.csv"
        path.write_bytes(header + head + tail)
        with pytest.raises(error):
            parse_csv(str(path), SCHEMA)


def reference_conditions(records):
    """The per-record pooling: violators summed per (period, domain) into the
    pseudo-country, which absorbs them in place if it exists."""
    merged, dropped, kept, pools = [], [], [], {}
    for rec in records:
        if rec.conforms():
            kept.append(rec)
            continue
        pool = pools.setdefault((rec.period, rec.domain), [0, 0, 0])
        for j, k in enumerate("mnN"):
            pool[j] += getattr(rec, k)
        merged.append(dict(vars(rec)))
    out, absorbed = [], set()
    for rec in kept:
        key = (rec.period, rec.domain)
        if rec.country == PSEUDO_COUNTRY and key in pools:
            m, n, N = pools[key]
            rec = StratumRecord(rec.period, rec.country, rec.domain, rec.m + m, rec.n + n, rec.N + N)
            absorbed.add(key)
            if not rec.conforms():
                dropped.append(dict(vars(rec)))
                continue
        out.append(rec)
    for (period, domain), (m, n, N) in pools.items():
        if (period, domain) not in absorbed:
            rec = StratumRecord(period, PSEUDO_COUNTRY, domain, m, n, N)
            if rec.conforms():
                out.append(rec)
            else:
                dropped.append(dict(vars(rec)))
    return out, merged, dropped


@settings(max_examples=150, deadline=None)
@given(
    cells=st.lists(
        st.tuples(
            st.sampled_from(["Q1", "Q2"]),
            st.sampled_from(["A", "B", "C", PSEUDO_COUNTRY]),
            st.sampled_from([("F",), ("M",)]),
            st.integers(0, 4), st.integers(0, 60), st.integers(1, 60),
        ),
        unique_by=lambda c: c[:3],
        max_size=16,
    ),
    huge=st.booleans(),
)
def test_conditions_equal_the_per_record_reference(cells, huge):
    records = [StratumRecord(p, c, d, m, n, N) for p, c, d, m, n, N in cells]
    if huge and records:  # pools that leave 64 bits
        records[0] = StratumRecord(records[0].period, records[0].country, records[0].domain,
                                   0, 2**63 - 1, 2**63 - 1)
    data = Dataset(records=tuple(records), domain_names=("sex",))
    out, audit = apply_model_conditions(data)
    want, merged, dropped = reference_conditions(records)
    assert list(out.records) == want
    assert (audit.merged, audit.dropped) == (merged, dropped)
    assert_same_dataset(out, Dataset(records=want, domain_names=("sex",)))


def test_conditions_on_a_parsed_panel_with_and_without_pseudo_country_rows(tmp_path):
    rng = np.random.default_rng(3)
    lines = ["period,country,sex,age,m,n,N"]
    for p in ("Q1", "Q2"):
        for c in ("A", "B", "C", PSEUDO_COUNTRY):
            for sex in ("F", "M"):
                for age in ("0-30", "31+"):
                    m, N = int(rng.integers(0, 4)), int(rng.integers(2, 500))
                    lines.append(f"{p},{c},{sex},{age},{m},{int(rng.integers(0, N + 2))},{N}")
    text = "\n".join(lines) + "\n"
    without = "\n".join(l for l in lines if f",{PSEUDO_COUNTRY}," not in l) + "\n"
    for name, body in (("with", text), ("without", without)):
        data = parse_csv(write(tmp_path / f"{name}.csv", body), SCHEMA)
        out, audit = apply_model_conditions(data)
        want, merged, dropped = reference_conditions(list(data.records))
        assert audit.merged and list(out.records) == want
        assert (audit.merged, audit.dropped) == (merged, dropped)
        assert all(type(r.m) is int for r in out.records)
        assert out.counts[0].dtype == np.int64


def test_dataset_is_read_only_and_built_lazily(tmp_path):
    data = parse_csv(
        write(tmp_path / "a.csv", "period,country,sex,age,m,n,N\nQ1,A,F,x,5,20,100\n"), SCHEMA
    )
    assert "records" not in vars(data)  # StratumRecords are built only when read
    assert len(data) == 1 and data.records[0].m == 5
    with pytest.raises(AttributeError):
        data.provenance = "changed"
    for col in data.labels + data.counts:
        assert not col.flags.writeable


@settings(max_examples=200, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            st.text(LABEL_CHARS, max_size=4),
            st.text(LABEL_CHARS, max_size=4),
            st.lists(st.text(LABEL_CHARS, max_size=3), max_size=3).map(tuple),
            st.one_of(st.integers(-(2**70), 2**70), JSON_FLOATS),
            st.integers(0, 2**63),
            st.integers(0, 2**63),
        ),
        max_size=5,
    ),
    split=st.integers(0, 5),
)
def test_audit_writer_equals_json_dumps(entries, split):
    rows = [dict(zip(("period", "country", "domain", "m", "n", "N"), e)) for e in entries]
    audit = AuditReport(merged=rows[:split], dropped=rows[split:])
    assert audit.to_json() == json.dumps(audit.to_dict(), indent=2, sort_keys=True)


JSON_LABELS = st.lists(
    st.one_of(st.sampled_from(["%", "%s", ", ", "\x00", "\n"]), LABEL_CHARS), max_size=4
).map("".join)


@settings(max_examples=150, deadline=None)
@given(
    report=st.dictionaries(
        st.sampled_from(["a", "t", "z", "\n  \"t\": null"]),
        st.one_of(st.none(), JSON_FLOATS, JSON_LABELS, st.lists(JSON_LABELS, max_size=2)),
        max_size=3,
    ),
    rows=st.lists(
        st.tuples(
            st.one_of(JSON_FLOATS, st.integers(-(2**80), 2**80)),
            JSON_LABELS,
            st.lists(JSON_LABELS, max_size=3).map(tuple),
        ),
        max_size=4,
    ),
)
@example(report={}, rows=[])
def test_dumps_writes_what_json_dumps_writes(report, rows):
    # numbers of every kind, labels holding "%" or ", ", tuples, empty tables;
    # key "a%s" sorts first, so the slot order differs from the shape's
    shape = {"b": ["x", "y"], "a%s": "n", "c": {"z": "x"}}
    columns = dict(zip("nxy", map(list, zip(*rows)))) if rows else dict.fromkeys("nxy", [])
    tables = {"t": (shape, columns), "u": ("n", columns)}
    full = {
        "t": [{"b": [x, y], "a%s": n, "c": {"z": x}} for n, x, y in rows],
        "u": [n for n, _, _ in rows],
    }
    assert dumps(report, tables) == json.dumps(report | full, indent=2, sort_keys=True)
    assert dumps(report) == json.dumps(report, indent=2, sort_keys=True)
