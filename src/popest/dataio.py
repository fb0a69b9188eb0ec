"""Ingestion of stratified administrative counts.

Reads CSV files with per-stratum counts (m apprehended once, n in the police
register, N registered population), enforces the model's data conditions
(m > 0, n > 0, n/N < 1), aggregates nonconforming strata into a
pseudo-country, and optionally pads an empty domain with one apprehension.
Parsing keeps no rows: they are read a block at a time into the columns.
Every JSON report is written by ``json_pieces`` and every CSV report by
``csv_lines``; both yield their text in pieces as they format it, so a
report's text is never held whole unless a caller joins it (``dumps``).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
from operator import itemgetter
from types import SimpleNamespace

import numpy as np

_INT64_MAX = 2**63 - 1
_BLOCK = 4096  # rows parsed, or written as JSON, at a time
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
        return _conforming(self.m, self.n, self.N)


_LABELS = ("period", "country", "domain")
_COUNTS = ("m", "n", "N")


def _conforming(m, n, N):
    """The model conditions m > 0, n > 0, n < N, on counts or count arrays."""
    return (m > 0) & (n > 0) & (n < N)


def _objects(values) -> np.ndarray:
    """A list as a 1-d object array (tuples stay elements); arrays pass."""
    if isinstance(values, np.ndarray):
        return values
    return np.fromiter(values, dtype=object, count=len(values))


def _count_array(values) -> np.ndarray:
    """int64 when every count is an int in 64-bit range, else the counts
    themselves as objects (a float ``m``, say); arrays pass."""
    if isinstance(values, np.ndarray):
        return values
    if all(type(v) is int for v in values):
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    return _objects(values)


class Dataset:
    """Strata in a fixed order, stored as columns.

    The one store is ``labels`` (object arrays of each record's period,
    country and domain tuple) and ``counts`` (arrays of m, n, N: int64 when
    every count is an integer in 64-bit range, as ``parse_csv`` guarantees,
    else the counts themselves as objects), all read-only. ``columns``,
    ``keys``, ``codes`` and ``nonconforming`` derive from them on first use
    and are cached, so every fit on one Dataset shares one build.
    ``records`` builds its StratumRecords only when read.
    ``Dataset(records=...)`` stores the records' fields in the same columns
    and keeps the records it was given.
    """

    def __init__(self, records, domain_names: tuple[str, ...] = (), provenance: str = ""):
        records = tuple(records)
        fields = [[getattr(r, k) for r in records] for k in _LABELS + _COUNTS]
        self._store(fields[:3], fields[3:], domain_names, provenance)
        self.__dict__["records"] = records

    @classmethod
    def _from_columns(
        cls, labels, counts, domain_names: tuple[str, ...] = (), provenance: str = ""
    ) -> "Dataset":
        """``labels``: period, country and domain tuple per record, as lists
        or object arrays; ``counts``: m, n, N, as lists or arrays
        (``_count_array``). Arrays are kept, not copied, and made read-only."""
        data = object.__new__(cls)
        data._store(labels, counts, domain_names, provenance)
        return data

    def _store(self, labels, counts, domain_names, provenance) -> None:
        labels = tuple(_objects(c) for c in labels)
        counts = tuple(_count_array(c) for c in counts)
        for col in labels + counts:
            col.flags.writeable = False
        self.__dict__.update(
            labels=labels, counts=counts, domain_names=tuple(domain_names), provenance=provenance
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"Dataset is read-only; cannot set {name!r}")

    def __len__(self) -> int:
        return len(self.labels[0])

    def _rows(self, index) -> list[tuple]:
        """The (period, country, domain, m, n, N) of each record in ``index``."""
        return list(zip(*(col[index].tolist() for col in self.labels + self.counts)))

    @cached_property
    def records(self) -> tuple[StratumRecord, ...]:
        return tuple(map(StratumRecord, *(col.tolist() for col in self.labels + self.counts)))

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only float arrays (m, n, N) in record order."""
        cols = tuple(col.astype(float) for col in self.counts)
        for col in cols:
            col.flags.writeable = False
        return cols

    @cached_property
    def keys(self) -> tuple[tuple, ...]:
        return tuple(zip(*(col.tolist() for col in self.labels)))

    @cached_property
    def nonconforming(self) -> StratumRecord | None:
        """The first record violating the model conditions, if any."""
        bad = np.flatnonzero(~_conforming(*self.counts))
        return StratumRecord(*self._rows(bad[:1])[0]) if bad.size else None

    @cached_property
    def codes(self) -> dict:
        """{variable: (read-only code per record, {level: code})} for
        "country", each domain variable by name and the whole domain tuple
        (None), with levels in first-appearance order."""
        country, domain = (col.tolist() for col in self.labels[1:])
        values = {"country": country, None: domain}
        for j, name in enumerate(self.domain_names):
            values.setdefault(name, list(map(itemgetter(j), domain)))
        out = {}
        for variable, column in values.items():
            levels = {v: i for i, v in enumerate(dict.fromkeys(column))}
            codes = np.fromiter(map(levels.__getitem__, column), dtype=np.intp, count=len(column))
            codes.flags.writeable = False
            out[variable] = (codes, levels)
        return out


def _json_text(value, depth: int = 0) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` as it reads when the
    value sits ``depth`` levels deep in an indented document."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


def _json_values(values: list, depth: int) -> list[str]:
    """Each value as ``_json_text`` writes it at ``depth``: an int/float
    column in one C-encoder call, any other column once per distinct value
    (so equal values must print alike, as strings and their tuples do)."""
    if set(map(type, values)) <= {int, float}:
        return json.dumps(values)[1:-1].split(", ") if values else []
    text = {v: _json_text(v, depth) for v in dict.fromkeys(values)}
    return list(map(text.__getitem__, values))


def _json_rows(shape, columns):
    """The text json writes at a top-level key for a list of rows, each row
    ``shape`` with its leaves (names of ``columns``) replaced by the row's
    values, in pieces of ``_BLOCK`` rows: one ``%`` per row of a template json
    wrote for the shape, with its slots in json's order (dict keys sorted) and
    each leaf column's slice formatted at its depth."""
    leaves = []  # (column name, depth) per slot

    def slotted(node, depth):  # a row sits 2 levels deep
        if isinstance(node, dict):
            return {k: slotted(node[k], depth + 1) for k in sorted(node)}
        if isinstance(node, (list, tuple)):
            return [slotted(v, depth + 1) for v in node]
        leaves.append((node, depth))
        return "\x00"

    template = "    " + _json_text(slotted(shape, 2), 2).replace("%", "%%")
    template = template.replace(json.dumps("\x00"), "%s")
    n = min((len(columns[name]) for name, _ in leaves), default=0)
    if not n:
        yield "[]"
        return
    yield "[\n"
    for start in range(0, n, _BLOCK):
        block = [_json_values(columns[name][start:start + _BLOCK], depth) for name, depth in leaves]
        yield (",\n" if start else "") + ",\n".join([template % row for row in zip(*block)])
    yield "\n  ]"


def json_pieces(report: dict, tables: dict | None = None):
    """The text of ``json.dumps(report | rows, indent=2, sort_keys=True)`` in
    pieces, without building the rows: ``tables`` maps a top-level key to
    ``(shape, columns)``, and its rows are ``shape`` (dicts and lists) with
    each leaf, a name of ``columns``, replaced by the row's value in that
    column. A table's rows are written ``_BLOCK`` at a time."""
    tables = tables or {}
    rest = _json_text(report | dict.fromkeys(tables))
    for key in sorted(tables):  # json's order of the top-level keys
        # only a top-level key's line opens with two spaces and a quote (json escapes newlines)
        line = f"\n  {json.dumps(key)}: "
        head, rest = rest.split(line + "null", 1)
        yield head + line
        yield from _json_rows(*tables[key])
    yield rest


def dumps(report: dict, tables: dict | None = None) -> str:
    """The joined ``json_pieces``."""
    return "".join(json_pieces(report, tables))


def csv_lines(header: list, rows):
    """The lines of the CSV of ``header`` and ``rows``, each formatted as it
    is read: ``csv.writer`` on a file whose ``write`` returns the line, so
    ``writerow`` does, with Unix line ends, quoting a field only when it holds
    a comma, a double quote or a line break."""
    writer = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
    return map(writer.writerow, chain([header], rows))


@dataclass
class AuditReport:
    """What apply_model_conditions did: merges into the pseudo-country and
    pseudo-country records dropped because they still violate the conditions.
    Each entry is a record's fields as a dict.
    """

    merged: list[dict] = field(default_factory=list)
    dropped: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return dict(vars(self))

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True)``."""
        shape = {k: k for k in _LABELS + _COUNTS}
        return dumps({}, {
            name: (shape, {k: [e[k] for e in entries] for k in shape})
            for name, entries in vars(self).items()
        })

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


def _raise_first_error(path: str, needed: dict, at: dict, i_domain: list) -> None:
    """Read ``path`` again and raise the error of its first bad row, numbered
    as in the file (the header is row 1; blank lines are skipped, not
    numbered); return at a line that cannot be read, or at the end."""
    seen: set[tuple] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        width = len(next(reader))
        try:
            for row_number, row in enumerate(filter(None, reader), start=2):
                try:
                    key = (
                        row[at["period"]].strip(),
                        row[at["country"]].strip(),
                        tuple([row[i].strip() for i in i_domain]),
                    )
                    for k in _COUNTS:
                        _parse_count(row[at[k]], needed[k], row_number)
                except IndexError:
                    raise ParseError(
                        f"row {row_number}: has {len(row)} fields, the header has {width}"
                    ) from None
                if key in seen:
                    raise DuplicateKeyError(f"row {row_number}: duplicate key {key}")
                seen.add(key)
        except (csv.Error, UnicodeDecodeError):  # no bad row before it: its own error stands
            return


def parse_csv(path: str, schema: dict) -> Dataset:
    """Read the CSV straight into the columns of a Dataset; no condition
    filtering.

    ``schema`` maps logical names to column names: period, country, m, n, N,
    and ``domain`` -> list of zero or more domain column names. Labels are
    stripped; counts must be integers in [0, 2**63). A repeated header name
    reads its last column, surplus fields are ignored and blank lines are
    skipped. Rows are read ``_BLOCK`` at a time into the columns (one str per
    distinct label, one tuple per distinct domain, counts as int64), which are
    checked whole (keys for duplicates in one set); only when a read or a
    check fails is the file read again, to name the first bad row.
    """
    domain_cols = list(schema.get("domain", []))
    needed = {k: schema[k] for k in ("period", "country", "m", "n", "N")}
    labels, counts = ([], [], []), ([], [], [])  # each a list of blocks for the counts
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        position = {name: i for i, name in enumerate(header)}  # a repeated name: last column
        for logical, col in list(needed.items()) + [("domain", c) for c in domain_cols]:
            if col not in position:
                raise SchemaError(f"missing column {col!r} (mapped to {logical})")
        at = {k: position[col] for k, col in needed.items()}
        i_domain = [position[c] for c in domain_cols]
        rows = filter(None, reader)
        copies: dict = {}
        try:
            for block in iter(lambda: list(islice(rows, _BLOCK)), []):
                fields = [list(map(str.strip, map(itemgetter(at[k]), block))) for k in _LABELS[:2]]
                levels = [map(str.strip, map(itemgetter(i), block)) for i in i_domain]
                fields.append(list(zip(*levels)) if levels else [()] * len(block))
                for col, values in zip(labels, fields):  # the first copy of each label and domain
                    col.extend(map(copies.setdefault, values, values))
                for col, k in zip(counts, _COUNTS):
                    values = map(int, map(itemgetter(at[k]), block))
                    col.append(np.fromiter(values, np.int64, len(block)))
            counts = [np.concatenate(col or [np.empty(0, np.int64)]) for col in counts]
            if any((c < 0).any() for c in counts) or len(set(zip(*labels))) < len(labels[0]):
                raise ValueError("a row has a negative count or a duplicate key")
        except (csv.Error, IndexError, ValueError, OverflowError):  # ValueError: also decoding
            _raise_first_error(path, needed, at, i_domain)
            raise
    return Dataset._from_columns(labels, counts, tuple(domain_cols), f"parsed from {path}")


def apply_model_conditions(data: Dataset) -> tuple[Dataset, AuditReport]:
    """Enforce m > 0, n > 0, n/N < 1 on every record.

    Violating records are summed into a pseudo-country record per
    (period, domain); pseudo-country records that still violate the
    conditions are dropped and listed in the audit report. The conforming
    records keep their order (an existing pseudo-country record absorbs its
    pool in place), and new pseudo-country records follow in the order of
    their first violating record.
    """
    audit = AuditReport()
    bad = np.flatnonzero(~_conforming(*data.counts))
    if not bad.size:
        return data, audit
    fields = _LABELS + _COUNTS
    pools: dict[tuple, list] = {}
    for period, country, domain, *counts in data._rows(bad):
        audit.merged.append(dict(zip(fields, (period, country, domain, *counts))))
        pool = pools.setdefault((period, domain), [0, 0, 0])
        for j, v in enumerate(counts):
            pool[j] += v

    keep = np.ones(len(data), dtype=bool)
    keep[bad] = False
    period, country, domain = data.labels
    absorbed: dict[int, tuple] = {}  # row -> its fields with the pool added
    merged_into: set[tuple] = set()
    for i in np.flatnonzero(keep & (country == PSEUDO_COUNTRY)).tolist():
        pool = pools.get((period[i], domain[i]))
        if pool is None:
            continue
        merged_into.add((period[i], domain[i]))
        (row,) = data._rows([i])
        row = row[:3] + tuple(a + b for a, b in zip(row[3:], pool))
        if _conforming(*row[3:]):
            absorbed[i] = row
        else:
            keep[i] = False
            audit.dropped.append(dict(zip(fields, row)))
    added = []
    for (p, d), pool in pools.items():
        if (p, d) in merged_into:
            continue
        row = (p, PSEUDO_COUNTRY, d, *pool)
        if _conforming(*pool):
            added.append(row)
        else:
            audit.dropped.append(dict(zip(fields, row)))

    index = np.flatnonzero(keep)
    at = np.searchsorted(index, list(absorbed))  # output positions of the absorbing rows
    new_rows = list(absorbed.values()) + added
    columns = []
    for j, col in enumerate(data.labels + data.counts):
        values = [row[j] for row in new_rows]
        new = _objects(values) if j < 3 else _count_array(values)
        col = col[index]
        if col.dtype != new.dtype:  # a count beyond 64 bits, or not an int
            col, new = col.astype(object), new.astype(object)
        col[at] = new[: len(at)]
        columns.append(np.concatenate([col, new[len(at):]]))
    out = Dataset._from_columns(columns[:3], columns[3:], data.domain_names, data.provenance)
    return out, audit


def pad_empty_domain(data: Dataset, key: tuple) -> Dataset:
    """Set m = 1 on the keyed record, which must currently have m = 0."""
    period, country, domain = key
    key = (period, country, tuple(domain))
    try:
        i = data.keys.index(key)
    except ValueError:
        raise PaddingError(f"no record with key {key}") from None
    m = data.counts[0].copy()
    if m[i] != 0:
        raise PaddingError(f"record {key} has m={m[i]}, expected 0")
    m[i] = 1
    note = f"padded m=0 -> 1 at {key}"
    provenance = f"{data.provenance}; {note}" if data.provenance else note
    return Dataset._from_columns(data.labels, (m, *data.counts[1:]), data.domain_names, provenance)
