"""Reference household reader on csv.DictReader.

This is ingest._read_households as it was before it read rows with
csv.reader and a header-to-index map. DictReader defines the behaviour the
fast reader must keep: which rows are read, which are skipped, every error
message and every line number, including DictReader's own rules (with a
duplicate header the later column wins; a short row names the first
column, by first appearance, whose last appearance got no cell).
load_prepared is ingest.load_prepared as it was before it read columns:
one Household per row, each weight parsed and checked as it is read.
"""

from __future__ import annotations

import csv
import math

from pantryplan.distance import GeoPoint
from pantryplan.errors import IngestError
from pantryplan.ingest import PREPARED_EXTRA, PREPARED_SCHEMA, ColumnSchema, Household, _parse_float


def read_households(path, schema: ColumnSchema, extra: tuple = ()):
    """Yield (line number, id, GeoPoint, income, city, extra cells) per CSV
    row, as ingest._read_households does."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except FileNotFoundError:
        raise IngestError(f"no such file: {path}") from None
    with fh:
        plain = (line for line in fh if not line.startswith("#"))
        reader = csv.DictReader(plain)
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
                if income < 0:
                    raise IngestError(f"line {line_no}: negative income {income}")
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
