"""Household ingestion: CSV loading, income filter, seeded sampling, weights.

The preparation recipe is filter -> sample -> weight -> duplicate. Weighting
can either attach a weight to each household directly or emulate it by
repeating the household round(w) times, which makes plain unweighted averages
downstream come out weighted.

load_households and load_prepared return a HouseholdTable: the households
column-wise, one tuple per field, and a read-only Sequence[Household] that
builds each Household only when it is indexed or iterated. A stage that
needs only points, weights or cities reads those columns. The file is read
in one csv.reader pass and each float column parsed with one map(float, ...).
The GeoPoint each row becomes checks its coordinates; the income's sign and
the weight's range are checked a column at a time. Only when a check fails
does the row walk (_read_households) run, to name the first fault with its
line, so the rows, messages and line numbers are the row walk's.

The preparation steps work on a HouseholdTable's columns (a list of
Households is read into one) and return a table, building no Household:
filter and sample pick row indices, weighting makes a weights column and
duplication repeats each column's cells. write_households_csv hands the
columns to csv.writer.writerows.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import chain, repeat
from numbers import Integral, Real
from typing import Iterable, Optional, Union

import numpy as np

from .distance import GeoPoint
from .errors import IngestError
from .rng import sample_indices

DEFAULT_INCOME_CAP = 40_000.0
DEFAULT_WEIGHT_NUMERATOR = 5.0
DEFAULT_WEIGHT_CAP = 50.0


def _require_weight(hid: str, weight: float) -> None:
    if not 0 < weight < math.inf:
        raise IngestError(f"household {hid}: weight must be positive and finite, got {weight}")


@dataclass(frozen=True)
class Household:
    """A geolocated demand point; weight defaults to 1 and must stay positive
    and finite."""

    id: str
    location: GeoPoint
    income: Optional[float] = None
    weight: float = 1.0
    origin_id: str = ""
    city: Optional[str] = None

    def __post_init__(self):
        _require_weight(self.id, self.weight)
        if self.income is not None and self.income < 0:
            raise IngestError(f"household {self.id}: negative income {self.income}")
        if not self.origin_id:
            object.__setattr__(self, "origin_id", self.id)


@dataclass(frozen=True)
class HouseholdTable(Sequence):
    """Households column-wise, one tuple per Household field, as the loaders
    return them. len, indexing and iteration build Households on demand."""

    ids: tuple[str, ...]
    points: tuple[GeoPoint, ...]
    incomes: tuple[Optional[float], ...]
    weights: tuple[float, ...]
    origin_ids: tuple[str, ...]
    cities: tuple[Optional[str], ...]

    @classmethod
    def of(cls, households: Iterable[Household]) -> "HouseholdTable":
        """households as a table: a table itself, any other iterable read row by row."""
        if isinstance(households, HouseholdTable):
            return households
        rows = [(h.id, h.location, h.income, h.weight, h.origin_id, h.city) for h in households]
        return cls(*zip(*rows)) if rows else cls((), (), (), (), (), ())

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> Household:
        return Household(
            self.ids[i], self.points[i], self.incomes[i], self.weights[i], self.origin_ids[i], self.cities[i]
        )

    def __iter__(self):
        return map(Household, self.ids, self.points, self.incomes, self.weights, self.origin_ids, self.cities)

    def take(self, index: list[int]) -> "HouseholdTable":
        """The rows at index, in index's order."""
        columns = (self.ids, self.points, self.incomes, self.weights, self.origin_ids, self.cities)
        return HouseholdTable(*(tuple(map(column.__getitem__, index)) for column in columns))


@dataclass(frozen=True)
class ColumnSchema:
    """Maps CSV column names onto household fields; income/id/city optional."""

    lat: str = "lat"
    lon: str = "lon"
    income: Optional[str] = None
    id: Optional[str] = None
    city: Optional[str] = None


@dataclass(frozen=True)
class IngestConfig:
    income_cap: float = DEFAULT_INCOME_CAP
    sample_size: Union[int, str] = "all"
    seed: int = 0
    weighting_mode: str = "none"  # none | duplicate | direct
    weight_cap: float = DEFAULT_WEIGHT_CAP
    weight_numerator: float = DEFAULT_WEIGHT_NUMERATOR

    def __post_init__(self):
        if self.weighting_mode not in ("none", "duplicate", "direct"):
            raise IngestError(f"unknown weighting_mode {self.weighting_mode!r}")
        if self.sample_size != "all":
            if isinstance(self.sample_size, bool) or not isinstance(self.sample_size, int) or self.sample_size < 1:
                raise IngestError(f"sample_size must be a positive integer or 'all', got {self.sample_size!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, Integral):
            raise IngestError(f"seed must be an integer, got {self.seed!r}")
        for name in ("income_cap", "weight_cap", "weight_numerator"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise IngestError(f"{name} must be a real number, got {value!r}")
            if name != "income_cap" and not math.isfinite(value):
                raise IngestError(f"{name} must be finite, got {value!r}")
        if self.weight_cap < 1.25:
            raise IngestError(f"weight_cap must be >= 1.25, got {self.weight_cap}")


def _parse_float(raw: str, what: str, line_no: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise IngestError(f"line {line_no}: cannot parse {what} from {raw!r}") from None


def _first_missing(header: list, cells: int) -> str:
    """The column csv.DictReader would name first as lacking a cell in a row
    of cells cells: the first header name, by first appearance, whose last
    appearance is past the row's end."""
    last = {name: j for j, name in enumerate(header)}
    return next(name for name in last if last[name] >= cells)


def _open(path):
    try:
        return open(path, newline="", encoding="utf-8")
    except FileNotFoundError:
        raise IngestError(f"no such file: {path}") from None


def _rows(fh):
    """csv.reader over the lines of fh; lines starting with '#' never reach it."""
    return csv.reader(line for line in fh if not line.startswith("#"))


def _columns_at(path, header, schema: ColumnSchema, extra: tuple) -> tuple:
    """The header's index of schema's lat, lon, income, id and city (None
    for one the schema leaves unset), and of each extra column (None for one
    the header lacks); a later duplicate header wins. An empty file or a
    missing schema column is an error."""
    if header is None:
        raise IngestError(f"{path}: empty file, expected a CSV header")
    where = {name: j for j, name in enumerate(header)}
    named = (schema.lat, schema.lon, schema.income, schema.id, schema.city)
    for col in named:
        if col is not None and col not in where:
            raise IngestError(f"{path}: missing column {col!r}")
    return [where[col] if col else None for col in named], [where.get(col) for col in extra]


def _read_households(path, schema: ColumnSchema, extra: tuple = ()):
    """Yield (line number, id, GeoPoint, income, city, extra cells) per CSV
    row, in file order; extra cells are those of the extra columns, "" for a
    column the header lacks. This row walk names a fault: the loaders run it
    only when _read_table's bulk checks fail.

    Lines starting with '#' never reach the CSV reader. The rows are read
    with csv.reader and each column's cell taken by its index in the header,
    where a later duplicate header wins, with the checks, messages and line
    numbers csv.DictReader gives: blank rows are skipped, a row's line number
    is that of its last physical line, a row shorter than the header is an
    error naming its first missing column, and cells past the header's
    width are ignored. Text that is not UTF-8, or that csv.reader refuses
    (a cell past csv.field_size_limit()), is an error too.
    """
    with _open(path) as fh:
        reader = _rows(fh)
        try:
            header = next(reader, None)
            (lat_at, lon_at, income_at, id_at, city_at), extra_at = _columns_at(path, header, schema, extra)
            width = len(header)
            for i, row in enumerate(filter(None, reader)):  # a blank line reads as [], which is skipped
                line_no = reader.line_num
                if len(row) < width:
                    raise IngestError(f"line {line_no}: no cell for column {_first_missing(header, len(row))!r}")
                lat = _parse_float(row[lat_at], "latitude", line_no)
                lon = _parse_float(row[lon_at], "longitude", line_no)
                if not -90.0 <= lat <= 90.0 or not -180.0 <= lon <= 180.0:
                    raise IngestError(f"line {line_no}: coordinate out of range ({lat}, {lon})")
                income = None
                if income_at is not None and row[income_at] != "":
                    income = _parse_float(row[income_at], "income", line_no)
                    if income < 0:
                        raise IngestError(f"line {line_no}: negative income {income}")
                hid = row[id_at] if id_at is not None else str(i)
                city = (row[city_at] or None) if city_at is not None else None
                cells = tuple([row[j] if j is not None else "" for j in extra_at])
                yield line_no, hid, GeoPoint(lat, lon), income, city, cells
        # the file is decoded a block at a time, so a decoding fault has no line
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start : exc.end]
            raise IngestError(f"{path}: not UTF-8 text ({exc.reason}: {bad!r})") from None
        except csv.Error as exc:
            raise IngestError(f"line {reader.line_num}: {exc}") from None


def _floats(cells: list, empty) -> list:
    """Each cell as a float, an empty one as empty; ValueError for a cell
    float() refuses."""
    if all(cells):
        return list(map(float, cells))
    return [float(c) if c else empty for c in cells]


def _read_table(path, schema: ColumnSchema, extra: tuple = ()) -> tuple:
    """(ids, points, incomes, cities, extra columns) of a household CSV, each
    a tuple in file order, from one csv.reader pass: what _read_households
    yields, less the line numbers, column by column.

    A missing file, an empty one or a missing column raises
    _read_households' IngestError. Any other fault (text that is not UTF-8
    or that csv.reader refuses, a short row, a cell that does not parse, a
    coordinate out of range, a negative income) raises a bare ValueError
    instead; the caller runs its row walk to name it.
    """
    with _open(path) as fh:
        reader = _rows(fh)
        try:
            header = next(reader, None)
            (lat_at, lon_at, income_at, id_at, city_at), extra_at = _columns_at(path, header, schema, extra)
            rows = list(filter(None, reader))
        except csv.Error as exc:  # UnicodeDecodeError is a ValueError already
            raise ValueError(exc) from None
    n = len(rows)

    def column(j):
        return [row[j] for row in rows]

    if rows and min(map(len, rows)) < len(header):
        raise ValueError("a row is short")
    # GeoPoint raises ValueError for a coordinate that is not finite or in range
    points = tuple(map(GeoPoint, map(float, column(lat_at)), map(float, column(lon_at))))
    incomes = _floats(column(income_at), None) if income_at is not None else [None] * n
    # np.array turns an absent income into NaN, which is not negative
    if (np.array(incomes, dtype=np.float64) < 0).any():
        raise ValueError("an income is negative")
    ids = tuple(column(id_at)) if id_at is not None else tuple(map(str, range(n)))
    cities = tuple([c or None for c in column(city_at)]) if city_at is not None else (None,) * n
    extras = tuple(tuple(column(j)) if j is not None else ("",) * n for j in extra_at)
    return ids, points, tuple(incomes), cities, extras


def load_households(path, schema: ColumnSchema) -> HouseholdTable:
    """Read one household per CSV row, in file order, all weights 1.0, as a
    HouseholdTable.

    Lines starting with '#' are provenance comments and are skipped. A row
    with fewer cells than the header, or with an unparseable or out-of-range
    coordinate, is an error naming the line; an empty income cell means
    income unknown.
    """
    try:
        ids, points, incomes, cities, _ = _read_table(path, schema)
    except ValueError:  # the row walk names the first fault
        return HouseholdTable.of(
            Household(hid, location, income, city=city)
            for _, hid, location, income, city, _ in _read_households(path, schema)
        )
    return HouseholdTable(ids, points, incomes, (1.0,) * len(ids), ids, cities)


def filter_by_income(households: Sequence[Household], cap: float = DEFAULT_INCOME_CAP) -> HouseholdTable:
    """Keep households with income <= cap or with no income, order preserved."""
    table = HouseholdTable.of(households)
    keep = [i for i, income in enumerate(table.incomes) if income is None or income <= cap]
    return table if len(keep) == len(table) else table.take(keep)


def sample(households: Sequence[Household], n: int, seed: int) -> HouseholdTable:
    """Uniform seeded n-subset in selection order; identity when n >= len."""
    if n < 1:
        raise IngestError(f"sample size must be >= 1, got {n}")
    table = HouseholdTable.of(households)
    if n >= len(table):
        return table
    return table.take(sample_indices(len(table), n, seed))


def compute_weight(
    income: float,
    numerator: float = DEFAULT_WEIGHT_NUMERATOR,
    cap: float = DEFAULT_WEIGHT_CAP,
) -> float:
    """Income-derived weight numerator/(income in $10k), capped above.

    At the $40,000 filter cap this gives exactly 1.25, and lower incomes get
    larger weights. An income that is not positive, or so small that income
    in $10k rounds to 0, is degenerate (the formula blows up) and is rejected.
    """
    scaled = income / 10_000.0
    if not scaled > 0:
        raise IngestError(f"cannot weight income {income}: income in $10k is {scaled}, not positive")
    return min(numerator / scaled, cap)


def apply_weights(households: Sequence[Household], config: IngestConfig) -> HouseholdTable:
    """Attach income-derived weights; absent income keeps its weight. The
    first row whose income cannot be weighted, or whose weight is not
    positive and finite, raises IngestError."""
    table = HouseholdTable.of(households)
    weights = []
    for hid, income, weight in zip(table.ids, table.incomes, table.weights):
        if income is not None:
            weight = compute_weight(income, config.weight_numerator, config.weight_cap)
            _require_weight(hid, weight)
        weights.append(weight)
    return replace(table, weights=tuple(weights))


def duplicate_by_weight(households: Sequence[Household]) -> HouseholdTable:
    """Repeat each household max(1, round(weight)) times, copies adjacent,
    rounding half away from zero.

    Copies get weight 1.0 and keep the source's origin_id; the first copy
    keeps the source id so single-copy households pass through unchanged.
    """
    table = HouseholdTable.of(households)
    # weights are positive, where floor(w + 0.5) rounds half away from zero
    copies = [max(1, math.floor(w + 0.5)) for w in table.weights]
    ids = tuple([hid if j == 0 else f"{hid}#{j}" for hid, c in zip(table.ids, copies) for j in range(c)])

    def repeated(column):
        return tuple(chain.from_iterable(map(repeat, column, copies)))

    points, incomes, origin_ids, cities = map(repeated, (table.points, table.incomes, table.origin_ids, table.cities))
    return HouseholdTable(ids, points, incomes, (1.0,) * len(ids), origin_ids, cities)


def prepare(households: Sequence[Household], config: IngestConfig) -> HouseholdTable:
    """Full preparation pipeline: filter -> sample -> weight -> duplicate."""
    table = filter_by_income(households, config.income_cap)
    if config.sample_size != "all":
        table = sample(table, config.sample_size, config.seed)
    if config.weighting_mode == "none":
        return table
    table = apply_weights(table, config)
    if config.weighting_mode == "duplicate":
        table = duplicate_by_weight(table)
    return table


PREPARED_FIELDS = ("id", "lat", "lon", "income", "weight", "origin_id", "city")


def _refuse_line_break_before_hash(table: HouseholdTable) -> None:
    """IngestError naming the first household whose id, origin_id or city
    holds a line break followed by '#': that cell would start a line which
    every loader skips as a comment."""
    text = "\0".join(chain(table.ids, table.origin_ids, filter(None, table.cities)))
    if "\n#" in text or "\r#" in text:
        h = next(h for h in table if any("\n#" in c or "\r#" in c for c in (h.id, h.origin_id, h.city or "")))
        raise IngestError(
            f"household {h.id!r}: a line break followed by '#' in its id, origin_id or city "
            "would read back as a comment line"
        )


def write_households_csv(households: Iterable[Household], path, header_comment: Optional[str] = None) -> None:
    """Write households in the prepared-CSV layout understood by load_prepared.

    The rows go to csv.writer.writerows from the table's columns. A run of
    rows sharing one location and one income (a household's copies from
    duplicate_by_weight) formats them once. If an id starts with '#', every
    cell of the file is quoted, so that row cannot read back as a comment
    line; a line break followed by '#' in an id, origin_id or city is an
    IngestError naming the household, raised before the file is opened.
    """
    table = HouseholdTable.of(households)
    _refuse_line_break_before_hash(table)
    lats, lons, incomes = [], [], []
    last = last_income = None
    for point, income in zip(table.points, table.incomes):
        if point is not last or income is not last_income:
            last, last_income = point, income
            cells = repr(point.lat), repr(point.lon), "" if income is None else repr(income)
        lats.append(cells[0])
        lons.append(cells[1])
        incomes.append(cells[2])
    cities = [city or "" for city in table.cities]
    rows = zip(table.ids, lats, lons, incomes, map(repr, table.weights), table.origin_ids, cities)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        hashed = any(map(str.startswith, table.ids, repeat("#")))
        writer = csv.writer(fh, quoting=csv.QUOTE_ALL if hashed else csv.QUOTE_MINIMAL)
        writer.writerow(PREPARED_FIELDS)
        writer.writerows(rows)


PREPARED_SCHEMA = ColumnSchema(lat="lat", lon="lon", income="income", id="id", city="city")
PREPARED_EXTRA = ("weight", "origin_id")  # optional: a file without them reads weight 1.0 and origin_id = id


def _weight(raw: str, line_no: int) -> float:
    weight = _parse_float(raw, "weight", line_no) if raw else 1.0
    if not (math.isfinite(weight) and weight > 0):
        raise IngestError(f"line {line_no}: weight must be positive and finite, got {raw!r}")
    return weight


def load_prepared(path) -> HouseholdTable:
    """Read a prepared-households CSV written by write_households_csv, as a
    HouseholdTable.

    Each row is one household with its weight and origin_id. An empty
    weight cell means 1.0; a weight that does not parse, or is not a
    positive finite number, is an error naming the line.
    """
    try:
        ids, points, incomes, cities, (raw, origins) = _read_table(path, PREPARED_SCHEMA, PREPARED_EXTRA)
        weights = _floats(raw, 1.0)
        w = np.array(weights)
        # numpy's min propagates a NaN, which then fails the comparison
        if w.size and not (0 < w.min() and w.max() < math.inf):
            raise ValueError("a weight is not positive and finite")
    except ValueError:  # the row walk names the first fault, a weight's included
        return HouseholdTable.of(
            Household(hid, location, income, _weight(raw, line_no), origin or hid, city)
            for line_no, hid, location, income, city, (raw, origin) in _read_households(
                path, PREPARED_SCHEMA, PREPARED_EXTRA
            )
        )
    origin_ids = tuple([origin or hid for origin, hid in zip(origins, ids)])
    return HouseholdTable(ids, points, incomes, tuple(weights), origin_ids, cities)
