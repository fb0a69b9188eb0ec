"""CSV ingestion, condition filtering, pseudo-country aggregation, padding."""

import numpy as np
import pytest

from popest.dataio import (
    Dataset,
    DuplicateKeyError,
    PaddingError,
    ParseError,
    SchemaError,
    StratumRecord,
    apply_model_conditions,
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
        rec("A", 1, 5, 100),
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
