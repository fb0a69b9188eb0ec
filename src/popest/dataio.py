"""Ingestion of stratified administrative counts.

Reads CSV files with per-stratum counts (m apprehended once, n in the police
register, N registered population), enforces the model's data conditions
(m > 0, n > 0, n/N < 1), aggregates nonconforming strata into a
pseudo-country, and optionally pads an empty domain with one apprehension.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

_INT64_MAX = 2**63 - 1
PSEUDO_COUNTRY = "other"  # country label of the records that pool nonconforming strata


class SchemaError(ValueError):
    """A mapped column is missing from the CSV header."""


class ParseError(ValueError):
    """A row-level value failed to parse as a valid count."""


class DuplicateKeyError(ValueError):
    """Two rows share the same (period, country, domain) key."""


class PaddingError(ValueError):
    """Padding requested for a missing key or a record with m != 0."""


@dataclass(frozen=True)
class StratumRecord:
    period: str
    country: str
    domain: tuple[str, ...]
    m: int
    n: int
    N: int

    @property
    def key(self) -> tuple:
        return (self.period, self.country, self.domain)

    def conforms(self) -> bool:
        return self.m > 0 and self.n > 0 and self.n < self.N


@dataclass(frozen=True)
class Dataset:
    """Records in a fixed order. The record-derived columns, keys and codes
    below are built on first use and cached, so every fit on one Dataset
    shares one build."""

    records: tuple[StratumRecord, ...]
    domain_names: tuple[str, ...] = ()
    provenance: str = ""

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only float arrays (m, n, N) in record order."""
        cols = tuple(np.array([getattr(r, k) for r in self.records], dtype=float) for k in "mnN")
        for col in cols:
            col.flags.writeable = False
        return cols

    @cached_property
    def keys(self) -> tuple[tuple, ...]:
        return tuple(r.key for r in self.records)

    @cached_property
    def nonconforming(self) -> StratumRecord | None:
        """The first record violating the model conditions, if any."""
        return next((r for r in self.records if not r.conforms()), None)

    @cached_property
    def codes(self) -> dict:
        """{variable: (read-only code per record, {level: code})} for
        "country", each domain variable by name and the whole domain tuple
        (None), with levels in first-appearance order."""
        values = {"country": [r.country for r in self.records],
                  None: [r.domain for r in self.records]}
        for j, name in enumerate(self.domain_names):
            values.setdefault(name, [r.domain[j] for r in self.records])
        out = {}
        for variable, column in values.items():
            levels: dict = {}
            codes = np.array([levels.setdefault(v, len(levels)) for v in column], dtype=np.intp)
            codes.flags.writeable = False
            out[variable] = (codes, levels)
        return out


@dataclass
class AuditReport:
    """What apply_model_conditions did: merges into the pseudo-country and
    pseudo-country records dropped because they still violate the conditions.
    Each entry is a record's fields, copied with ``dict(vars(record))``;
    ``dataclasses.asdict`` would deep-copy each of the thousands of entries
    of a large panel, on every load.
    """

    merged: list[dict] = field(default_factory=list)
    dropped: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return dict(vars(self))

    @property
    def empty(self) -> bool:
        return not self.merged and not self.dropped


def _parse_count(raw: str, column: str, row_number: int) -> int:
    text = raw.strip()
    try:
        value = int(text)
    except ValueError:
        raise ParseError(
            f"row {row_number}: column {column!r} value {raw!r} is not an integer"
        ) from None
    if value < 0:
        raise ParseError(f"row {row_number}: column {column!r} is negative ({value})")
    if value > _INT64_MAX:
        raise ParseError(f"row {row_number}: column {column!r} exceeds 64-bit range")
    return value


def parse_csv(path: str, schema: dict) -> Dataset:
    """Read one StratumRecord per CSV row; no condition filtering.

    ``schema`` maps logical names to column names: period, country, m, n, N,
    and ``domain`` -> list of zero or more domain column names.
    """
    domain_cols = list(schema.get("domain", []))
    needed = {k: schema[k] for k in ("period", "country", "m", "n", "N")}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        position = {name: i for i, name in enumerate(header)}  # a repeated name: last column
        for logical, col in list(needed.items()) + [("domain", c) for c in domain_cols]:
            if col not in position:
                raise SchemaError(f"missing column {col!r} (mapped to {logical})")
        i_period, i_country, i_m, i_n, i_N = (position[needed[k]] for k in needed)
        i_domain = [position[c] for c in domain_cols]
        records: list[StratumRecord] = []
        seen: set[tuple] = set()
        # Blank lines are skipped and not numbered.
        for row_number, row in enumerate(filter(None, reader), start=2):
            try:
                rec = StratumRecord(
                    period=row[i_period].strip(),
                    country=row[i_country].strip(),
                    domain=tuple([row[i].strip() for i in i_domain]),
                    m=_parse_count(row[i_m], needed["m"], row_number),
                    n=_parse_count(row[i_n], needed["n"], row_number),
                    N=_parse_count(row[i_N], needed["N"], row_number),
                )
            except IndexError:
                raise ParseError(
                    f"row {row_number}: has {len(row)} fields, the header has {len(header)}"
                ) from None
            key = rec.key
            if key in seen:
                raise DuplicateKeyError(f"row {row_number}: duplicate key {key}")
            seen.add(key)
            records.append(rec)
    return Dataset(
        records=tuple(records),
        domain_names=tuple(domain_cols),
        provenance=f"parsed from {path}",
    )


def apply_model_conditions(data: Dataset) -> tuple[Dataset, AuditReport]:
    """Enforce m > 0, n > 0, n/N < 1 on every record.

    Violating records are summed into a pseudo-country record per
    (period, domain); pseudo-country records that still violate the
    conditions are dropped and listed in the audit report.
    """
    audit = AuditReport()
    kept: list[StratumRecord] = []
    pools: dict[tuple, list[int]] = {}
    for rec in data.records:
        if rec.conforms():
            kept.append(rec)
            continue
        key = (rec.period, rec.domain)
        pool = pools.setdefault(key, [0, 0, 0])
        pool[0] += rec.m
        pool[1] += rec.n
        pool[2] += rec.N
        audit.merged.append(dict(vars(rec)))

    out: list[StratumRecord] = []
    merged_into_existing: set[tuple] = set()
    for rec in kept:
        key = (rec.period, rec.domain)
        if rec.country == PSEUDO_COUNTRY and key in pools:
            pool = pools[key]
            rec = replace(rec, m=rec.m + pool[0], n=rec.n + pool[1], N=rec.N + pool[2])
            merged_into_existing.add(key)
            if not rec.conforms():
                audit.dropped.append(dict(vars(rec)))
                continue
        out.append(rec)
    for key, pool in pools.items():
        if key in merged_into_existing:
            continue
        period, domain = key
        pseudo = StratumRecord(
            period=period, country=PSEUDO_COUNTRY, domain=domain, m=pool[0], n=pool[1], N=pool[2]
        )
        if pseudo.conforms():
            out.append(pseudo)
        else:
            audit.dropped.append(dict(vars(pseudo)))

    return replace(data, records=tuple(out)), audit


def pad_empty_domain(data: Dataset, key: tuple) -> Dataset:
    """Set m = 1 on the keyed record, which must currently have m = 0."""
    period, country, domain = key
    domain = tuple(domain)
    records = list(data.records)
    for i, rec in enumerate(records):
        if rec.key == (period, country, domain):
            if rec.m != 0:
                raise PaddingError(f"record {rec.key} has m={rec.m}, expected 0")
            records[i] = replace(rec, m=1)
            note = f"padded m=0 -> 1 at {rec.key}"
            provenance = f"{data.provenance}; {note}" if data.provenance else note
            return replace(data, records=tuple(records), provenance=provenance)
    raise PaddingError(f"no record with key {(period, country, domain)}")
