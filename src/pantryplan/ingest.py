"""Household ingestion: CSV loading, income filter, seeded sampling, weights.

The preparation recipe is filter -> sample -> weight -> duplicate. Weighting
can either attach a weight to each household directly or emulate it by
repeating the household round(w) times, which makes plain unweighted averages
downstream come out weighted.

load_households and load_prepared return a HouseholdTable: the households
column-wise, one tuple per field, and a read-only Sequence[Household] that
builds each Household only when it is indexed or iterated. A stage that
needs only points, weights or cities reads those columns. Every household
CSV, faulty or not, is read by _read_table: one open and one csv.reader
pass, with '#' a comment only where a row starts, so every cell
write_households_csv writes reads back. It converts each column whole
(one map(float, ...) per float column; the GeoPoint each row becomes checks
its coordinates), and checks the rows it holds one at a time only to name
a fault and its line.

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
from typing import Iterable, Optional, Union

import numpy as np

from .distance import GeoPoint, as_floats, require_fits, weight_fault
from .errors import IngestError, is_int, require_fields, require_int, require_real
from .rng import sample_indices

DEFAULT_INCOME_CAP = 40_000.0
DEFAULT_WEIGHT_NUMERATOR = 5.0
DEFAULT_WEIGHT_CAP = 50.0


def _require_weights(ids: Sequence[str], weights: Sequence[float]) -> None:
    if (i := weight_fault(w := as_floats(weights))) is not None:
        raise IngestError(f"household {ids[i]}: weight must be positive and finite, got {w[i]}")


def income_fault(incomes: Sequence[Optional[float]]) -> Optional[int]:
    """The index of the first known income (not None) that is not finite
    and nonnegative (NaN is neither; as_floats reads the incomes), or None.
    numpy reads None as NaN, so the known cells are told apart only when the
    column is not all valid, as in weight_fault."""
    x = as_floats(incomes)
    if not x.size or 0 <= x.min() and np.isfinite(x.max()):
        return None
    bad = ~((x >= 0) & np.isfinite(x)) & np.array([v is not None for v in incomes])
    return int(np.argmax(bad)) if bad.any() else None


@dataclass(frozen=True)
class Household:
    """A geolocated demand point; weight (default 1) is a positive finite
    real number, and income, when known, a finite nonnegative one."""

    id: str
    location: GeoPoint
    income: Optional[float] = None
    weight: float = 1.0
    origin_id: str = ""
    city: Optional[str] = None

    def __post_init__(self):
        require_fields(self, require_real, IngestError, "weight")
        _require_weights((self.id,), (self.weight,))
        if self.income is not None:
            require_fields(self, require_real, IngestError, "income")
            if income_fault(income := as_floats((self.income,))) is not None:
                raise IngestError(f"household {self.id}: income must be finite and nonnegative, got {income[0]}")
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
    """Maps CSV column names onto household fields: lat and lon each name a
    column, and income, id and city each name one or are None."""

    lat: str = "lat"
    lon: str = "lon"
    income: Optional[str] = None
    id: Optional[str] = None
    city: Optional[str] = None

    def __post_init__(self):
        for name in ("lat", "lon", "income", "id", "city"):
            value = getattr(self, name)
            optional = name not in ("lat", "lon")
            if not (isinstance(value, str) and value or optional and value is None):
                want = "a non-empty string or null" if optional else "a non-empty string"
                raise IngestError(f"schema.{name} must be {want}, got {value!r}")


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
            if not (is_int(self.sample_size) and self.sample_size >= 1):
                raise IngestError(f"sample_size must be a positive integer or 'all', got {self.sample_size!r}")
            object.__setattr__(self, "sample_size", int(self.sample_size))
        require_fields(self, require_int, IngestError, "seed")
        for name in ("income_cap", "weight_cap", "weight_numerator"):
            require_fields(self, require_real, IngestError, name)
            value = getattr(self, name)
            if name != "income_cap" and not math.isfinite(value):
                raise IngestError(f"{name} must be finite, got {value!r}")
        _require_cap(self.income_cap)
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
    # utf-8-sig drops the byte-order mark spreadsheet programs start a file with
    try:
        return open(path, newline="", encoding="utf-8-sig")
    except FileNotFoundError:
        raise IngestError(f"no such file: {path}") from None


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


def _floats(cells: list, empty) -> list:
    """Each cell as a float, an empty one as empty; ValueError for a cell
    float() refuses."""
    if all(cells):
        return list(map(float, cells))
    return [float(c) if c else empty for c in cells]


def _read_table(
    path, schema: ColumnSchema, weight: Optional[str] = None, origin_id: Optional[str] = None
) -> HouseholdTable:
    """The households of a CSV file as a HouseholdTable, in file order, from
    one open and one csv.reader pass. A UTF-8 byte-order mark that starts
    the file is dropped.

    A line that starts with '#' where csv.reader would start a row is a
    comment: it is skipped and not counted as a line. Inside a quoted cell
    such a line is part of the cell. Rows are read as csv.DictReader reads
    them: blank rows are skipped, a row's line number is that of its last
    physical line, each column's cell is taken by its index in the header,
    where a later duplicate header wins, and cells past the header's width
    are ignored.

    An empty income cell means income unknown; a known one must be finite
    and nonnegative (income_fault). weight and origin_id name
    optional columns: an empty or absent weight is 1.0 and an empty or
    absent origin_id the row's id. Each column is converted whole. Only when
    that fails, or the text is not UTF-8 or holds a cell past
    csv.field_size_limit(), does _first_fault check the rows read, one at a
    time, and raise an IngestError naming the first fault in file order.
    A missing file, an empty one or a missing column is an IngestError too.
    """
    with _open(path) as fh:
        start = True  # csv.reader pulls a line only when it needs one, so this is exact

        def lines():
            nonlocal start
            for line in fh:
                if not (start and line.startswith("#")):
                    start = False
                    yield line

        reader = csv.reader(lines())
        header, rows, line_nos, fault = None, [], [], None
        try:
            header = next(reader, None)
            start = True
            for row in reader:
                start = True
                if row:  # a blank line reads as [], which is skipped
                    rows.append(row)
                    line_nos.append(reader.line_num)
        # the file is decoded a block at a time, so a decoding fault has no line
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start : exc.end]
            fault = IngestError(f"{path}: not UTF-8 text ({exc.reason}: {bad!r})")
        except csv.Error as exc:
            fault = IngestError(f"line {reader.line_num}: {exc}")
    if header is None and fault is not None:
        raise fault
    (lat_at, lon_at, income_at, id_at, city_at), (weight_at, origin_at) = _columns_at(
        path, header, schema, (weight, origin_id)
    )
    n = len(rows)

    def column(j):
        return [row[j] for row in rows]

    if fault is None:
        try:
            if rows and min(map(len, rows)) < len(header):
                raise ValueError("a row is short")
            # GeoPoint raises ValueError for a coordinate that is not finite or in range
            points = tuple(map(GeoPoint, map(float, column(lat_at)), map(float, column(lon_at))))
            incomes = _floats(column(income_at), None) if income_at is not None else [None] * n
            if income_at is not None and income_fault(incomes) is not None:
                raise ValueError("an income is not finite and nonnegative")
            weights = (1.0,) * n
            if weight_at is not None:
                weights = tuple(_floats(column(weight_at), 1.0))
                if weight_fault(weights) is not None:
                    raise ValueError("a weight is not positive and finite")
        except ValueError as exc:
            fault = exc  # _first_fault raises it only if no row is at fault, which would be a bug
        else:
            ids = tuple(column(id_at)) if id_at is not None else tuple(map(str, range(n)))
            origin_ids = ids
            if origin_at is not None:
                origin_ids = tuple([origin or hid for origin, hid in zip(column(origin_at), ids)])
            cities = tuple([c or None for c in column(city_at)]) if city_at is not None else (None,) * n
            return HouseholdTable(ids, points, tuple(incomes), weights, origin_ids, cities)
    _first_fault(header, rows, line_nos, (lat_at, lon_at, income_at, weight_at), fault)


def _first_fault(header: list, rows: list, line_nos: list, at: tuple, fault: Exception):
    """Raise an IngestError naming the first faulty row of rows, each read
    from the line of line_nos beside it, else fault. A row is checked in
    the order: its width, latitude, longitude, their range, income, weight;
    at holds the header's index of those last four (None for an unread
    column)."""
    lat_at, lon_at, income_at, weight_at = at
    for row, line_no in zip(rows, line_nos):
        if len(row) < len(header):
            raise IngestError(f"line {line_no}: no cell for column {_first_missing(header, len(row))!r}")
        lat = _parse_float(row[lat_at], "latitude", line_no)
        lon = _parse_float(row[lon_at], "longitude", line_no)
        try:
            GeoPoint(lat, lon)
        except ValueError:
            raise IngestError(f"line {line_no}: coordinate out of range ({lat}, {lon})") from None
        if income_at is not None and row[income_at] != "":
            raw = row[income_at]
            if income_fault([_parse_float(raw, "income", line_no)]) is not None:
                raise IngestError(f"line {line_no}: income must be finite and nonnegative, got {raw!r}")
        if weight_at is not None and row[weight_at] != "":
            raw = row[weight_at]
            if weight_fault([_parse_float(raw, "weight", line_no)]) is not None:
                raise IngestError(f"line {line_no}: weight must be positive and finite, got {raw!r}")
    raise fault


def load_households(path, schema: ColumnSchema) -> HouseholdTable:
    """Read one household per CSV row, in file order, all weights 1.0, as a
    HouseholdTable (see _read_table).

    A row with fewer cells than the header, with an unparseable or
    out-of-range coordinate, or with an income that is not a finite
    nonnegative number, is an error naming the line; an empty income cell
    means income unknown.
    """
    return _read_table(path, schema)


def _require_cap(cap: float) -> None:
    # every comparison with NaN is false, so a NaN cap would drop every income
    if math.isnan(cap):
        raise IngestError(f"income_cap must not be NaN (inf means no cap), got {cap!r}")


def filter_by_income(households: Sequence[Household], cap: float = DEFAULT_INCOME_CAP) -> HouseholdTable:
    """Keep households with income <= cap or with no income, order preserved;
    a cap of inf keeps all, a NaN cap is an IngestError."""
    _require_cap(cap)
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
    weights = list(table.weights)
    for i, income in enumerate(table.incomes):
        if income is not None:
            try:
                weights[i] = compute_weight(income, config.weight_numerator, config.weight_cap)
            except IngestError:
                _require_weights(table.ids, weights[:i])  # a weight fault in an earlier row comes first
                raise
    _require_weights(table.ids, weights)
    return replace(table, weights=tuple(weights))


def _copies(weights: Sequence[float]) -> list[int]:
    # weights are positive, where floor(w + 0.5) rounds half away from zero
    return [max(1, math.floor(w + 0.5)) for w in weights]


def duplicate_by_weight(households: Sequence[Household]) -> HouseholdTable:
    """Repeat each household max(1, round(weight)) times, copies adjacent,
    rounding half away from zero.

    Copies get weight 1.0 and keep the source's origin_id; the first copy
    keeps the source id so single-copy households pass through unchanged.
    """
    table = HouseholdTable.of(households)
    return _repeated(table, _copies(table.weights))


def _repeated(table: HouseholdTable, copies: list[int]) -> HouseholdTable:
    """duplicate_by_weight's table, each row repeated its count of copies."""
    ids = tuple([hid if j == 0 else f"{hid}#{j}" for hid, c in zip(table.ids, copies) for j in range(c)])

    def repeated(column):
        return tuple(chain.from_iterable(map(repeat, column, copies)))

    points, incomes, origin_ids, cities = map(repeated, (table.points, table.incomes, table.origin_ids, table.cities))
    return HouseholdTable(ids, points, incomes, (1.0,) * len(ids), origin_ids, cities)


def prepare(households: Sequence[Household], config: IngestConfig) -> HouseholdTable:
    """Full preparation pipeline: filter -> sample -> weight -> duplicate.

    The matrix stage builds the prepared rows' square matrix, so rows whose
    matrix distance.require_fits refuses are an IngestError, raised from
    the copy counts before duplication builds a row."""
    table = filter_by_income(households, config.income_cap)
    if config.sample_size != "all":
        table = sample(table, config.sample_size, config.seed)
    if config.weighting_mode != "none":
        table = apply_weights(table, config)
    copies = _copies(table.weights) if config.weighting_mode == "duplicate" else None
    rows = len(table) if copies is None else sum(copies)
    require_fits(rows, rows, IngestError)
    return table if copies is None else _repeated(table, copies)


PREPARED_FIELDS = ("id", "lat", "lon", "income", "weight", "origin_id", "city")


def write_households_csv(households: Iterable[Household], path, header_comment: Optional[str] = None) -> None:
    """Write households in the prepared-CSV layout understood by load_prepared.

    The rows go to csv.writer.writerows from the table's columns. A run of
    rows sharing one location and one income (a household's copies from
    duplicate_by_weight) formats them once. If an id starts with '#', every
    cell of the file is quoted, so that row cannot read back as a comment
    line. Each line of header_comment is written as its own '# ' line.
    """
    table = HouseholdTable.of(households)
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
            fh.write("".join(f"# {line}\n" for line in header_comment.splitlines()))
        hashed = any(map(str.startswith, table.ids, repeat("#")))
        writer = csv.writer(fh, quoting=csv.QUOTE_ALL if hashed else csv.QUOTE_MINIMAL)
        writer.writerow(PREPARED_FIELDS)
        writer.writerows(rows)


PREPARED_SCHEMA = ColumnSchema(lat="lat", lon="lon", income="income", id="id", city="city")
PREPARED_EXTRA = ("weight", "origin_id")  # optional: a file without them reads weight 1.0 and origin_id = id


def load_prepared(path) -> HouseholdTable:
    """Read a prepared-households CSV written by write_households_csv, as a
    HouseholdTable (see _read_table).

    Each row is one household with its weight and origin_id. An empty
    weight cell means 1.0; a weight that does not parse, or is not a
    positive finite number, is an error naming the line.
    """
    return _read_table(path, PREPARED_SCHEMA, *PREPARED_EXTRA)
