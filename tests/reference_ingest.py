"""Reference household reader on csv.DictReader.

This is ingest's row walk as it was before it read rows with csv.reader
and a header-to-index map, with two later changes: a line starting with
'#' is a comment only where the csv reader starts a row, not inside a
quoted cell, and a known income must be finite as well as nonnegative.
DictReader defines the behaviour the fast reader must keep: which rows are
read, which are skipped, every error message and every line number,
including DictReader's own rules (with a duplicate header the later column
wins; a short row names the first column, by first appearance, whose last
appearance got no cell).
load_prepared is ingest.load_prepared as it was before it read columns:
one Household per row, each weight parsed and checked as it is read.

filter_by_income, sample, apply_weights, duplicate_by_weight, prepare and
write_households_csv are ingest's preparation steps and writer as they were
before they worked on columns: one Household built per row and step, and
four float reprs formatted per written row. The column-wise steps must give
the same households, the same first IngestError and, for any table with no
id starting with '#', the same prepared.csv bytes.
"""

from __future__ import annotations

import csv
import math

from pantryplan.distance import GeoPoint
from pantryplan.errors import IngestError
from pantryplan.ingest import (
    PREPARED_EXTRA,
    PREPARED_FIELDS,
    PREPARED_SCHEMA,
    ColumnSchema,
    Household,
    IngestConfig,
    _parse_float,
    compute_weight,
)
from pantryplan.rng import sample_indices


class _RowEnds:
    """A csv.reader's rows, setting start[0] after each: the line the reader
    pulls next starts a row."""

    def __init__(self, rows, start):
        self.rows, self.start = rows, start

    @property
    def line_num(self):
        return self.rows.line_num

    def __iter__(self):
        return self

    def __next__(self):
        row = next(self.rows)
        self.start[0] = True
        return row


def read_households(path, schema: ColumnSchema, extra: tuple = ()):
    """Yield (line number, id, GeoPoint, income, city, extra cells) per CSV
    row. A line starting with '#' is a comment where a row starts, and part
    of the cell inside a quoted cell."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except FileNotFoundError:
        raise IngestError(f"no such file: {path}") from None
    with fh:
        start = [True]  # the next line the csv reader pulls starts a row

        def plain():
            for line in fh:
                if not (start[0] and line.startswith("#")):
                    start[0] = False
                    yield line

        reader = csv.DictReader(plain())
        reader.reader = _RowEnds(reader.reader, start)
        if reader.fieldnames is None:
            raise IngestError(f"{path}: empty file, expected a CSV header")
        for col in (schema.lat, schema.lon, schema.income, schema.id, schema.city):
            if col is not None and col not in reader.fieldnames:
                raise IngestError(f"{path}: missing column {col!r}")
        for i, row in enumerate(reader):
            line_no = reader.line_num
            # DictReader fills the cells a short row lacks with None
            if None in row.values():
                col = next(k for k, v in row.items() if v is None)
                raise IngestError(f"line {line_no}: no cell for column {col!r}")
            lat = _parse_float(row[schema.lat], "latitude", line_no)
            lon = _parse_float(row[schema.lon], "longitude", line_no)
            if not -90.0 <= lat <= 90.0 or not -180.0 <= lon <= 180.0:
                raise IngestError(f"line {line_no}: coordinate out of range ({lat}, {lon})")
            income = None
            if schema.income and row[schema.income] != "":
                income = _parse_float(row[schema.income], "income", line_no)
                if not (math.isfinite(income) and income >= 0):
                    raw = row[schema.income]
                    raise IngestError(f"line {line_no}: income must be finite and nonnegative, got {raw!r}")
            hid = row[schema.id] if schema.id else str(i)
            city = (row[schema.city] or None) if schema.city else None
            yield line_no, hid, GeoPoint(lat, lon), income, city, tuple(row.get(c) or "" for c in extra)


def load_prepared(path) -> list:
    """The prepared file's Households, as ingest.load_prepared reads them."""
    out = []
    for line_no, hid, location, income, city, (raw, origin) in read_households(path, PREPARED_SCHEMA, PREPARED_EXTRA):
        weight = _parse_float(raw, "weight", line_no) if raw else 1.0
        if not (math.isfinite(weight) and weight > 0):
            raise IngestError(f"line {line_no}: weight must be positive and finite, got {raw!r}")
        out.append(Household(hid, location, income, weight, origin or hid, city))
    return out


def filter_by_income(households, cap: float) -> list:
    return [h for h in households if h.income is None or h.income <= cap]


def sample(households, n: int, seed: int) -> list:
    if n < 1:
        raise IngestError(f"sample size must be >= 1, got {n}")
    if n >= len(households):
        return list(households)
    return [households[i] for i in sample_indices(len(households), n, seed)]


def apply_weights(households, config: IngestConfig) -> list:
    out = []
    for h in households:
        if h.income is None:
            out.append(h)
        else:
            w = compute_weight(h.income, config.weight_numerator, config.weight_cap)
            out.append(Household(h.id, h.location, h.income, w, h.origin_id, h.city))
    return out


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def duplicate_by_weight(households) -> list:
    out = []
    for h in households:
        copies = max(1, _round_half_away(h.weight))
        for j in range(copies):
            cid = h.id if j == 0 else f"{h.id}#{j}"
            out.append(Household(cid, h.location, h.income, 1.0, h.origin_id, h.city))
    return out


def prepare(households, config: IngestConfig) -> list:
    hh = filter_by_income(households, config.income_cap)
    if config.sample_size != "all":
        hh = sample(hh, config.sample_size, config.seed)
    if config.weighting_mode == "none":
        return list(hh)
    hh = apply_weights(hh, config)
    if config.weighting_mode == "duplicate":
        hh = duplicate_by_weight(hh)
    return hh


def write_households_csv(households, path, header_comment=None) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(PREPARED_FIELDS)
        for h in households:
            writer.writerow([
                h.id,
                repr(h.location.lat),
                repr(h.location.lon),
                "" if h.income is None else repr(h.income),
                repr(h.weight),
                h.origin_id,
                h.city or "",
            ])
