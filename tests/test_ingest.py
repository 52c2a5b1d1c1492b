import csv
import io
import math
from dataclasses import replace

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

import reference_ingest
from pantryplan import ingest
from pantryplan.distance import GeoPoint
from pantryplan.errors import IngestError
from pantryplan.ingest import (
    ColumnSchema,
    Household,
    IngestConfig,
    compute_weight,
    duplicate_by_weight,
    filter_by_income,
    load_households,
    load_prepared,
    prepare,
    sample,
    write_households_csv,
)

CA_SCHEMA = ColumnSchema(lat="latitude", lon="longitude", income="median_income", id="block_id")


def hh(i, income=None, weight=1.0, lat=0.0, lon=0.0):
    return Household(id=str(i), location=GeoPoint(lat, lon), income=income, weight=weight)


# --- load_households -------------------------------------------------------

def test_load_three_row_csv_in_order(tmp_path):
    p = tmp_path / "hh.csv"
    p.write_text("lat,lon,income\n1.0,2.0,30000\n3.0,4.0,\n5.0,6.0,20000\n")
    rows = load_households(p, ColumnSchema(income="income"))
    assert [h.id for h in rows] == ["0", "1", "2"]
    assert [h.location for h in rows] == [GeoPoint(1, 2), GeoPoint(3, 4), GeoPoint(5, 6)]
    assert [h.income for h in rows] == [30000.0, None, 20000.0]
    assert all(h.weight == 1.0 and h.origin_id == h.id for h in rows)


def test_out_of_range_latitude_names_the_row(tmp_path):
    p = tmp_path / "hh.csv"
    p.write_text("lat,lon\n10.0,20.0\n95.0,0.0\n")
    with pytest.raises(IngestError, match="line 3"):
        load_households(p, ColumnSchema())


def test_unparseable_row_names_the_row(tmp_path):
    p = tmp_path / "hh.csv"
    p.write_text("lat,lon\nxx,20.0\n")
    with pytest.raises(IngestError, match="line 2"):
        load_households(p, ColumnSchema())


def test_missing_file_is_an_error(tmp_path):
    with pytest.raises(IngestError, match="no such file"):
        load_households(tmp_path / "nope.csv", ColumnSchema())


def test_named_column_absent_is_an_error(tmp_path):
    p = tmp_path / "hh.csv"
    p.write_text("lat,lon\n1.0,2.0\n")
    with pytest.raises(IngestError, match="missing column 'income'"):
        load_households(p, ColumnSchema(income="income"))


def test_ca_fixture_loads_ten_households_with_incomes(data_dir):
    rows = load_households(data_dir / "ca_blocks.csv", CA_SCHEMA)
    assert len(rows) == 10
    assert rows[0].id == "b01"
    assert rows[0].income == 32000.0
    assert rows[5].income == 40000.0
    assert all(h.income is not None for h in rows)


# --- filter_by_income ------------------------------------------------------

def test_filter_keeps_boundary_drops_above():
    rows = [hh(0, 30000), hh(1, 45000), hh(2, 40000)]
    kept = filter_by_income(rows, 40000)
    assert [h.id for h in kept] == ["0", "2"]


def test_filter_without_incomes_is_identity():
    rows = [hh(0), hh(1), hh(2)]
    assert list(filter_by_income(rows, 40000)) == rows


def test_filter_fixture_removes_four_of_ten(data_dir):
    rows = load_households(data_dir / "ca_blocks.csv", CA_SCHEMA)
    # fixture has 45000, 61000, 52000 and 90000 above the cap
    assert len(filter_by_income(rows, 40000)) == 6


def test_filter_is_idempotent(data_dir):
    rows = load_households(data_dir / "ca_blocks.csv", CA_SCHEMA)
    once = filter_by_income(rows, 40000)
    assert filter_by_income(once, 40000) == once


# --- sample ----------------------------------------------------------------

def test_sample_full_size_is_identity():
    rows = [hh(i) for i in range(5)]
    assert list(sample(rows, 5, seed=1)) == rows
    assert list(sample(rows, 9, seed=1)) == rows


def test_sample_deterministic_across_runs():
    rows = [hh(i) for i in range(30)]
    assert sample(rows, 7, seed=123) == sample(rows, 7, seed=123)


def test_sample_golden_10_take_3_seed_42():
    rows = [hh(i) for i in range(10)]
    # selection order fixed by the splitmix64 Fisher-Yates trace (see test_rng)
    assert [h.id for h in sample(rows, 3, seed=42)] == ["3", "2", "4"]


def test_sample_rejects_nonpositive_n():
    with pytest.raises(IngestError):
        sample([hh(0)], 0, seed=1)


@given(st.integers(0, 2**64 - 1), st.integers(1, 20))
def test_sample_is_subset_property(seed, n):
    rows = [hh(i) for i in range(20)]
    picked = sample(rows, n, seed)
    ids = [h.id for h in picked]
    assert len(set(ids)) == len(ids)
    assert set(ids) <= {h.id for h in rows}


# --- compute_weight --------------------------------------------------------

def test_weight_at_the_cap_income_is_exactly_1_25():
    assert compute_weight(40000) == 1.25


def test_weight_direct_substitutions():
    assert compute_weight(10000) == 5.0
    assert compute_weight(25000) == 2.0


def test_weight_capped_for_tiny_incomes():
    assert compute_weight(100) == 50.0
    assert compute_weight(100, cap=10.0) == 10.0


def test_weight_rejects_nonpositive_income():
    with pytest.raises(IngestError):
        compute_weight(0)
    with pytest.raises(IngestError):
        compute_weight(-5)


def test_weight_rejects_an_income_too_small_to_scale():
    # 5e-324 / 10_000.0 underflows to 0, which the formula divides by
    with pytest.raises(IngestError, match="cannot weight income 5e-324"):
        compute_weight(5e-324)
    assert compute_weight(1e-300) == 50.0


@given(st.floats(min_value=5e-324, max_value=1e6), st.floats(min_value=0.01, max_value=1e6))
def test_weight_keeps_the_formula_bits(income, numerator):
    if income / 10_000.0 > 0:
        assert compute_weight(income, numerator, 1e300) == min(numerator / (income / 10_000.0), 1e300)


@given(st.floats(min_value=0.01, max_value=40000))
def test_weight_bound_below_cap_income(income):
    assert compute_weight(income) >= 1.25


# --- duplicate_by_weight ---------------------------------------------------

def test_duplicate_rounding_to_closest_integer():
    assert len(duplicate_by_weight([hh(0, weight=1.25)])) == 1
    assert len(duplicate_by_weight([hh(0, weight=1.5)])) == 2  # half away from zero
    assert len(duplicate_by_weight([hh(0, weight=4.6)])) == 5


def test_duplicate_total_count():
    rows = [hh(0, weight=1.25), hh(1, weight=2.0), hh(2, weight=4.6)]
    out = duplicate_by_weight(rows)
    assert len(out) == 1 + 2 + 5
    # copies adjacent, order preserved, unit weights, shared origin
    assert [h.origin_id for h in out] == ["0", "1", "1", "2", "2", "2", "2", "2"]
    assert all(h.weight == 1.0 for h in out)
    assert len({h.id for h in out}) == len(out)


def test_duplicate_identity_for_unit_weights():
    rows = [hh(0), hh(1)]
    assert list(duplicate_by_weight(rows)) == rows


def test_duplicate_copies_share_location_and_income():
    out = duplicate_by_weight([hh(3, income=12000, weight=3.0, lat=1.5, lon=2.5)])
    assert len(out) == 3
    assert len({h.location for h in out}) == 1
    assert len({h.income for h in out}) == 1


@given(st.lists(st.floats(min_value=0.1, max_value=12), min_size=1, max_size=20))
def test_duplicate_length_formula(weights):
    rows = [hh(i, weight=w) for i, w in enumerate(weights)]
    out = duplicate_by_weight(rows)
    import math

    assert len(out) == sum(max(1, int(math.floor(w + 0.5))) for w in weights)


def test_weighting_keeps_every_other_field():
    # each row is built with Household(...); dataclasses.replace is the reference
    rows = [
        Household("a", GeoPoint(1.0, 2.0), 12000.0, city="x"),
        Household("b", GeoPoint(3.0, 4.0), None, origin_id="o"),
        Household("c", GeoPoint(5.0, 6.0), 30000.0, weight=2.0, origin_id="o2"),
    ]
    cfg = IngestConfig(weighting_mode="direct")
    weighted = ingest.apply_weights(rows, cfg)
    assert list(weighted) == [
        replace(rows[0], weight=5 / 1.2),
        rows[1],
        replace(rows[2], weight=5 / 3.0),
    ]
    copies = duplicate_by_weight(weighted)
    assert list(copies) == [
        replace(h, id=h.id if j == 0 else f"{h.id}#{j}", weight=1.0)
        for h in weighted
        for j in range(max(1, round(h.weight)))
    ]


# --- full recipe -----------------------------------------------------------

def test_prepare_recipe_duplicated_total_at_least_unique(data_dir):
    rows = load_households(data_dir / "ca_blocks.csv", CA_SCHEMA)
    cfg = IngestConfig(income_cap=40000, sample_size=5, seed=7, weighting_mode="duplicate")
    out = prepare(rows, cfg)
    unique = len({h.origin_id for h in out})
    assert unique == 5
    assert len(out) >= unique
    assert all(h.weight == 1.0 for h in out)


def test_prepare_refuses_copies_past_the_matrix_limit(monkeypatch):
    # a cap of 16,385 copies one row that often, and that many rows' square
    # matrix needs 2,147,745,800 bytes, past distance.MAX_MATRIX_BYTES (2**31);
    # 16,384 copies need exactly the limit
    def config(cap):
        return IngestConfig(weighting_mode="duplicate", weight_cap=cap, weight_numerator=1e9)

    assert len(prepare([hh(0, income=1.0)], config(16384.0))) == 16384
    message = "a 16385 x 16385 distance matrix needs 2,147,745,800 bytes, over the limit of 2,147,483,648 bytes"
    with pytest.raises(IngestError, match=f"^{message}$"):
        prepare([hh(0, income=1.0)], config(16385.0))


def test_prepare_direct_mode_attaches_weights(data_dir):
    rows = load_households(data_dir / "ca_blocks.csv", CA_SCHEMA)
    cfg = IngestConfig(weighting_mode="direct")
    out = prepare(rows, cfg)
    assert len(out) == 6
    assert all(h.weight >= 1.25 for h in out)


def test_invalid_config_rejected():
    with pytest.raises(IngestError):
        IngestConfig(weighting_mode="sideways")
    with pytest.raises(IngestError):
        IngestConfig(sample_size=0)
    with pytest.raises(IngestError):
        IngestConfig(weight_cap=1.0)
    for name in ("weight_cap", "weight_numerator"):
        for value in (float("inf"), float("nan")):
            with pytest.raises(IngestError, match=f"{name} must be finite"):
                IngestConfig(**{name: value})
    assert IngestConfig(income_cap=float("inf")).income_cap == float("inf")  # no income filter


def test_a_nan_income_cap_is_refused_naming_it():
    # every comparison with NaN is false, so a NaN cap kept no household
    rows = [hh(0, income=30000.0), hh(1)]
    with pytest.raises(IngestError, match="^income_cap must not be NaN"):
        IngestConfig(income_cap=math.nan)
    with pytest.raises(IngestError, match="^income_cap must not be NaN"):
        filter_by_income(rows, math.nan)
    assert list(filter_by_income(rows, math.inf)) == rows


def test_household_invariants():
    with pytest.raises(IngestError):
        hh(0, weight=0.0)
    with pytest.raises(IngestError):
        hh(0, income=-1.0)
    for weight in (float("inf"), float("nan")):
        with pytest.raises(IngestError, match="weight must be positive and finite"):
            hh(0, weight=weight)


def test_prepared_csv_round_trip(tmp_path, data_dir):
    rows = load_households(data_dir / "ca_blocks.csv", CA_SCHEMA)
    cfg = IngestConfig(weighting_mode="duplicate")
    out = prepare(rows, cfg)
    path = tmp_path / "prepared.csv"
    write_households_csv(out, path, header_comment="test run")
    back = load_prepared(path)
    assert list(back) == list(out)


def test_load_prepared_parses_the_file_once(tmp_path, data_dir, monkeypatch):
    path = tmp_path / "prepared.csv"
    write_households_csv(prepare(load_households(data_dir / "ca_blocks.csv", CA_SCHEMA),
                                 IngestConfig(weighting_mode="direct")), path)
    readers = []
    real = csv.reader

    def counting(*args, **kwargs):
        readers.append(1)
        return real(*args, **kwargs)

    opens = []

    def counting_open(*args, **kwargs):
        opens.append(1)
        return open(*args, **kwargs)

    monkeypatch.setattr(csv, "reader", counting)
    monkeypatch.setattr(ingest, "open", counting_open, raising=False)
    back = load_prepared(path)
    assert (len(readers), len(opens)) == (1, 1)
    assert any(h.weight != 1.0 for h in back)
    # a faulty file is read once too: the fault is named from the rows held
    path.write_text(path.read_text().replace("\r\n", "\r\n#c\r\n", 1) + "z,1,2,,0,,\r\n")
    readers.clear()
    opens.clear()
    with pytest.raises(IngestError, match="^line 8: weight must be positive and finite, got '0'$"):
        load_prepared(path)
    assert (len(readers), len(opens)) == (1, 1)


def test_load_prepared_returns_a_table_of_the_households(tmp_path, data_dir):
    rows = prepare(load_households(data_dir / "ca_blocks.csv", CA_SCHEMA), IngestConfig(weighting_mode="direct"))
    path = tmp_path / "prepared.csv"
    write_households_csv(rows, path)
    table = load_prepared(path)
    assert table == ingest.HouseholdTable.of(rows)
    assert (table.ids, table.points, table.weights) == tuple(
        tuple(getattr(h, f) for h in rows) for f in ("id", "location", "weight")
    )
    assert len(table) == len(rows)
    assert [table[i] for i in range(len(rows))] == list(table) == list(rows)
    assert table[-1] == rows[-1]
    assert table.index(rows[2]) == 2 and rows[2] in table
    empty = tmp_path / "empty.csv"
    write_households_csv([], empty)
    assert load_prepared(empty) == ingest.HouseholdTable.of([])


def test_load_prepared_reads_empty_cells_without_the_row_walk(tmp_path, monkeypatch):
    # empty income, weight, origin_id and city cells read as None, 1.0, the
    # id and None, a column at a time
    path = tmp_path / "prepared.csv"
    path.write_text("# c\nid,lat,lon,income,weight,origin_id,city\na,1,2,,,,\nb,3,4,5,2.5,o,c\n\nc,-5,6,0,1e300,,\n")
    want = ingest.HouseholdTable.of(reference_ingest.load_prepared(path))
    assert want.origin_ids == ("a", "o", "c") and want.incomes == (None, 5.0, 0.0)

    def walk(*args):
        raise AssertionError("the row walk ran on a file without a fault")

    monkeypatch.setattr(ingest, "_first_fault", walk)
    assert load_prepared(path) == want


def test_load_prepared_names_the_bad_line(tmp_path):
    path = tmp_path / "prepared.csv"
    write_households_csv([hh(0, lat=1.0), hh(1, lat=2.0)], path, header_comment="test run")
    text = path.read_text().replace("2.0,", "north,", 1)
    path.write_text(text)
    # line numbers count the header row but not provenance comments
    with pytest.raises(IngestError, match="line 3: cannot parse latitude from 'north'"):
        load_prepared(path)


@pytest.mark.parametrize("load", [load_prepared, lambda path: load_households(path, ColumnSchema())])
def test_text_the_csv_reader_cannot_read_is_an_ingest_error(tmp_path, load):
    # both ended in a traceback: a UnicodeDecodeError, and csv.Error for a
    # cell past csv.field_size_limit()
    path = tmp_path / "prepared.csv"
    write_households_csv([hh(0, lat=1.0), hh(1, lat=2.0)], path, header_comment="test run")
    text = path.read_bytes()
    path.write_bytes(text.replace(b",2.0,", b",2.0\xe9,", 1))
    with pytest.raises(IngestError, match=r"prepared.csv: not UTF-8 text \(invalid continuation byte: b'\\xe9'\)"):
        load(path)
    path.write_bytes(text + b"5.0," + b"x" * 131_073 + b"\n")
    with pytest.raises(IngestError, match=r"^line 4: field larger than field limit \(131072\)$"):
        load(path)


@pytest.mark.parametrize("comment", [None, "test run"], ids=["header first", "comment first"])
@pytest.mark.parametrize(
    "load", [load_prepared, lambda path: load_households(path, ingest.PREPARED_SCHEMA)], ids=["prepared", "households"]
)
def test_a_byte_order_mark_is_dropped_by_both_loaders(tmp_path, load, comment):
    # spreadsheet programs start a UTF-8 CSV with one; it was read as part
    # of the first column's name
    path = tmp_path / "prepared.csv"
    write_households_csv([hh(0, lat=1.0, income=5.0), hh(1, lat=2.0)], path, header_comment=comment)
    want = load(path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load(path) == want


def test_a_byte_order_mark_before_a_plain_header_is_dropped(tmp_path):
    path = tmp_path / "hh.csv"
    path.write_bytes(b"\xef\xbb\xbflat,lon\n1,2\n")
    assert load_households(path, ColumnSchema()).points == (GeoPoint(1.0, 2.0),)
    # only a mark that starts the file: one inside a cell is the cell's
    path.write_bytes(b"lat,lon,city\n1,2,\xef\xbb\xbfx\n")
    assert load_households(path, ColumnSchema(city="city")).cities == ("\ufeffx",)


@pytest.mark.parametrize(
    "field, value",
    [("lat", None), ("lon", ""), ("lat", 5), ("lon", ["lon"]), ("id", ["id"]), ("income", ""), ("city", True),
     ("id", {"name": "id"}), ("income", 1.5)],
)
def test_column_schema_refuses_a_value_that_is_not_a_column_name(field, value):
    want = "a non-empty string" if field in ("lat", "lon") else "a non-empty string or null"
    with pytest.raises(IngestError) as err:
        ColumnSchema(**{field: value})
    assert str(err.value) == f"schema.{field} must be {want}, got {value!r}"


def test_column_schema_takes_null_for_an_optional_column():
    assert ColumnSchema(income=None, id=None, city=None) == ColumnSchema()


@pytest.mark.parametrize("later", [b"e,5,6\xe9,,1,,\n", b"e,5," + b"x" * 131_073 + b",,1,,\n"], ids=["not UTF-8", "long cell"])
@pytest.mark.parametrize("bad", [b"b,north,2,,1,,", b"b,1,2,,nan,,"], ids=["latitude", "weight"])
def test_a_row_fault_before_unreadable_text_is_named_first(tmp_path, later, bad):
    # the rows read before csv.reader's fault are checked first, so the
    # first fault in file order is named; 3,000 rows put the later fault
    # past the first block the file is decoded in
    path = tmp_path / "prepared.csv"
    head = b"# c\nid,lat,lon,income,weight,origin_id,city\na,1,2,,1,,\n"
    rest = b"c,3,4,,1,,\n" * 3000 + later
    path.write_bytes(head + bad + b"\n" + rest)
    with pytest.raises(IngestError, match="^line 3: (cannot parse latitude from 'north'|weight .* got 'nan')$"):
        load_prepared(path)
    path.write_bytes(head + b"b,1,2,,1,,\n" + rest)
    with pytest.raises(IngestError, match=r"(not UTF-8 text|^line 3004: field larger than field limit)"):
        load_prepared(path)


@pytest.mark.parametrize("cell", ["heavy", "inf", "nan", "0", "-2.0"])
def test_load_prepared_rejects_a_bad_weight_naming_the_line(tmp_path, cell):
    path = tmp_path / "prepared.csv"
    write_households_csv([hh(0, weight=2.0), hh(1, weight=3.0)], path, header_comment="test run")
    path.write_text(path.read_text().replace(",3.0,", f",{cell},", 1))
    with pytest.raises(IngestError, match=f"line 3: .*weight.*'{cell}'"):
        load_prepared(path)


# --- the csv.reader loader against the csv.DictReader reference -------------

def _outcome(read, path, schema, extra):
    """("rows", what read returns) or ("error", its message), as a repr:
    repr tells -0.0 from 0.0, and takes a NaN income for itself."""
    try:
        return repr(("rows", list(read(path, schema, extra))))
    except IngestError as exc:
        return repr(("error", str(exc)))


def _reference_households(path, schema, extra):
    """The reference's households of a file: for the prepared schema, the
    reference load_prepared's; else one Household per row the reference
    reads, as load_households builds them."""
    if extra:
        return reference_ingest.load_prepared(path)
    return [
        Household(hid, location, income, city=city)
        for _, hid, location, income, city, _ in reference_ingest.read_households(path, schema)
    ]


COLUMNS = ["lat", "lon", "income", "id", "city", "weight", "origin_id", "x", ""]
CELLS = ["1.5", "-45", "12e0", "0", "", "91", "-200", "nan", "north", "30000", "-5", "2.0", "a\nb", "#c", " 7", "s,t", 'q"r',
         "a\n#b", "c\r#d"]
PREPARED_COLUMNS = ("lat", "lon", "id", "income", "city", "weight")
SCHEMAS = [
    (ColumnSchema(), ()),
    (ColumnSchema(income="income", id="id", city="city"), ()),
    (ingest.PREPARED_SCHEMA, ingest.PREPARED_EXTRA),
]


@st.composite
def csv_texts(draw, columns=("lat", "lon")):
    """CSV files around a header of columns: duplicate and extra columns,
    short and long rows, empty cells, quoted cells holding line breaks, a
    line break followed by '#', or a leading '#', blank lines and '#'
    comment lines between rows."""
    header = list(columns) + draw(st.lists(st.sampled_from(COLUMNS), max_size=5))
    header = draw(st.permutations(header))
    if draw(st.booleans()):
        header = header[: draw(st.integers(0, len(header)))]  # a column may be missing
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "comment"]))
        if kind == "row":
            width = len(header) + draw(st.sampled_from([0, 0, 0, -1, -2, 1, 2]))
            lines.append([draw(st.sampled_from(CELLS)) for _ in range(max(0, width))])
        else:
            lines.append(kind)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    for line in lines:
        if line == "blank":
            buffer.write("\r\n")
        elif line == "comment":
            buffer.write("# provenance, 1,2\r\n")
        else:
            writer.writerow(line)
    return buffer.getvalue() if draw(st.booleans()) else buffer.getvalue().replace("\r\n", "\n")


@settings(max_examples=400)
@given(text=csv_texts(), schema=st.sampled_from(SCHEMAS))
@example(text="", schema=SCHEMAS[0])
@example(text="\nlat,lon\n1,2\n", schema=SCHEMAS[0])
@example(text="lat,lon,lat\n1,2,3\n4,5\n", schema=SCHEMAS[0])
@example(text="lat,lon,x,lat\n1,2,3\n", schema=SCHEMAS[0])
@example(text="lat,lon\n\n\n1,2\n\n3,4,5,6\n\n", schema=SCHEMAS[0])
@example(text='lat,lon\n"1\n#2",3\n', schema=SCHEMAS[0])
@example(text="id,lat,lon,income,weight,origin_id,city\na,1,2,,3,,\n", schema=SCHEMAS[2])
# a quoted cell whose second line starts with '#' is one cell, not a comment
@example(text='id,lat,lon,income,city\na,1.0,2.0,100,"x\n#y"\nb,3.0,4.0,200,z\nc,5.0,6.0,300,w\n', schema=SCHEMAS[1])
@example(text='"id","lat","lon","income","weight","origin_id","city"\n"#A1","0.0","0.0","12000.0","1.0","#A1",""\n',
         schema=SCHEMAS[2])
def test_read_households_matches_the_dictreader_reference(tmp_path_factory, text, schema):
    # the one reader and both loaders: the same households, or the same
    # first fault with the same line
    schema, extra = schema
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    path.write_text(text, encoding="utf-8", newline="")
    want = _outcome(_reference_households, path, schema, extra)
    assert _outcome(lambda *args: ingest._read_table(path, schema, *extra), path, schema, extra) == want
    if extra:
        assert _outcome(lambda path, *_: load_prepared(path), path, schema, extra) == want
    else:
        assert _outcome(lambda path, schema, _: load_households(path, schema), path, schema, extra) == want


@settings(max_examples=400)
@given(text=csv_texts(PREPARED_COLUMNS))
@example(text="id,lat,lon,income,weight,origin_id,city\na,1,2,,3,,\n")
@example(text="id,lat,lon,income,weight,origin_id,city\na,1,2,,nan,,\nb,95,2,,1,,\n")
@example(text="id,lat,lon,income,weight,origin_id,city\na,1,2,,,,\nb,3,4,-5,0,o,c\n")
@example(text="id,lat,lon,income,weight,origin_id,city\na,95,2,,1,,\nb,1,2,,nan,,\n")
@example(text="id,lat,lon,income,weight,origin_id,city\na,1,2,30000,2.0,,x\nb,3,4,-5,1,,\n")
@example(text="# c\nid,lat,lon,income,weight,origin_id,city\na,1,2,,,,\nb,3,4,5,2.5,o,c\n\nc,-5,6,nan,1e300,,\n")
def test_load_prepared_matches_the_reference(tmp_path_factory, text):
    # the column reader against one Household per row, each weight parsed
    # and checked as it is read: the same Households or the same message
    path = tmp_path_factory.mktemp("csv") / "prepared.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert _outcome(lambda path, *_: load_prepared(path), path, None, None) == _outcome(
        lambda path, *_: reference_ingest.load_prepared(path), path, None, None
    )


# --- the column-wise steps and writer against the row-wise reference --------

TEXT = st.text(alphabet='ab#,"\n\r ', max_size=4)
INCOMES = st.none() | st.sampled_from([0.0, 5e-324, 1e-300, 40000.0, 1e308]) | st.floats(0, 1e6)


@st.composite
def household_lists(draw, ids=st.text(alphabet="ab1#", max_size=3)):
    """Households with repeated ids, absent, zero, tiny and huge incomes
    (Household refuses an infinite or NaN one), weights of 1 or drawn, given or absent origin ids and cities."""
    return [
        Household(
            draw(ids),
            GeoPoint(draw(st.floats(-90, 90)), draw(st.floats(-180, 180))),
            draw(INCOMES),
            draw(st.sampled_from([1.0, 0.5, 2.5]) | st.floats(0.1, 12)),  # x.5 rounds half away from zero
            draw(st.just("") | ids),
            draw(st.none() | ids),
        )
        for _ in range(draw(st.integers(0, 12)))
    ]


ingest_configs = st.builds(
    IngestConfig,
    income_cap=st.sampled_from([40000.0, math.inf, 0.0]) | st.floats(0, 1e6),
    sample_size=st.just("all") | st.integers(1, 14),
    seed=st.integers(0, 2**64 - 1),
    weighting_mode=st.sampled_from(["none", "duplicate", "direct"]),
    weight_cap=st.floats(1.25, 100),
    # 0, a negative and an underflowing numerator give weights Household refuses
    weight_numerator=st.sampled_from([5.0, 0.0, -1.0, 1e-300]) | st.floats(0.01, 100),
)


def _prepared(prep, households, config):
    """("rows", the repr of prep's households) or ("error", its message)."""
    try:
        return "rows", repr(list(prep(households, config)))
    except IngestError as exc:
        return "error", str(exc)


def _written(write, households, path) -> bytes:
    write(households, path, header_comment="test run")
    return path.read_bytes()


@settings(max_examples=300)
@given(households=household_lists(), config=ingest_configs)
def test_prepare_and_write_match_the_row_wise_reference(tmp_path_factory, households, config):
    got = _prepared(prepare, households, config)
    assert got == _prepared(reference_ingest.prepare, households, config)
    if got[0] == "rows":
        path = tmp_path_factory.mktemp("csv") / "prepared.csv"
        table = prepare(households, config)
        want = reference_ingest.prepare(households, config)
        assume(not any(h.id.startswith("#") for h in want))  # the reference lets these read back as comments
        assert _written(write_households_csv, table, path) == _written(reference_ingest.write_households_csv, want, path)


@pytest.mark.parametrize("mode", ["none", "duplicate", "direct"])
@pytest.mark.parametrize("sample_size", ["all", 1, 4])
@pytest.mark.parametrize("schema", [CA_SCHEMA, replace(CA_SCHEMA, income=None)], ids=["incomes", "no_incomes"])
def test_prepared_csv_of_the_fixture_is_the_row_wise_writers(tmp_path, data_dir, mode, sample_size, schema):
    table = load_households(data_dir / "ca_blocks.csv", schema)
    config = IngestConfig(sample_size=sample_size, seed=3, weighting_mode=mode)
    got = _written(write_households_csv, prepare(table, config), tmp_path / "prepared.csv")
    want = reference_ingest.prepare(list(table), config)
    assert got == _written(reference_ingest.write_households_csv, want, tmp_path / "reference.csv")


def test_a_degenerate_income_raises_the_row_wise_first_error():
    # the first fault in row order, whether compute_weight refuses the income
    # or Household the weight it gives
    base = [hh(0, income=20000.0), hh(1, income=0.0), hh(2, income=5e-324)]
    for rows, config, message in [
        (base, IngestConfig(weighting_mode="direct"), "cannot weight income 0.0"),
        (base[::-1], IngestConfig(weighting_mode="direct"), "cannot weight income 5e-324"),
        (base, IngestConfig(weighting_mode="duplicate", weight_numerator=0.0), "household 0: weight must be positive"),
        # 1e-300 / (1e306 / 1e4) underflows to a weight of 0
        ([hh(0, income=1e306), *base[1:]], IngestConfig(income_cap=math.inf, weight_numerator=1e-300,
                                                        weighting_mode="direct"),
         "household 0: weight must be positive and finite, got 0.0"),
    ]:
        got = _prepared(prepare, rows, config)
        assert got == _prepared(reference_ingest.prepare, rows, config)
        assert got[0] == "error" and got[1].startswith(message)


def test_a_run_of_shared_objects_is_formatted_as_each_row(tmp_path):
    # copies share one location and one income; rows that share only one of
    # them are not copies
    p, q, income = GeoPoint(1.5, -0.0), GeoPoint(2.5, 3.25), 12345.6
    rows = [
        Household("a", p, income), Household("a#1", p, income), Household("b", p, 1e-7),
        Household("c", q, 1e-7), Household("d", q, None), Household("e", p, None, 2.5),
    ]
    got = _written(write_households_csv, rows, tmp_path / "prepared.csv")
    assert got == _written(reference_ingest.write_households_csv, rows, tmp_path / "reference.csv")


def test_the_steps_take_a_list_and_return_a_table():
    rows = [hh(0, income=30000.0, weight=2.0), hh(1, income=50000.0)]
    for step in (
        lambda r: filter_by_income(r, 40000),
        lambda r: sample(r, 1, seed=4),
        lambda r: ingest.apply_weights(r, IngestConfig(weighting_mode="direct")),
        duplicate_by_weight,
        lambda r: prepare(r, IngestConfig(weighting_mode="duplicate")),
    ):
        table = step(rows)
        assert isinstance(table, ingest.HouseholdTable)
        assert step(ingest.HouseholdTable.of(rows)) == table


# --- prepared.csv round trip -------------------------------------------------

@settings(max_examples=300)
@given(households=household_lists(ids=TEXT.filter(bool)))
def test_prepared_csv_round_trips_hashes_quotes_commas_and_line_breaks(tmp_path_factory, households):
    # every cell reads back as it was written: ids starting with '#', and
    # line breaks followed by '#' inside a cell, included
    table = ingest.HouseholdTable.of(households)
    path = tmp_path_factory.mktemp("csv") / "prepared.csv"
    cells = [cell for h in households for cell in (h.id, h.origin_id, h.city or "")]
    write_households_csv(table, path, header_comment="test run")
    # repr tells -0.0 from 0.0 and takes a NaN income for itself
    assert repr(load_prepared(path)) == repr(table)
    breaks = any("\n" in c or "\r" in c for c in cells)
    hashed = any("\n#" in c or "\r#" in c for c in cells)
    event(f"a '#' cell: {any('#' in c for c in cells)}, a line break: {breaks}, one before a '#': {hashed}")


def test_an_id_starting_with_a_hash_is_quoted_and_read_back(tmp_path):
    rows = [hh("#A1", income=12000.0), hh("b"), hh("#")]
    path = tmp_path / "prepared.csv"
    write_households_csv(rows, path, header_comment="test run")
    lines = path.read_text().splitlines()
    assert lines[1:] == [
        '"id","lat","lon","income","weight","origin_id","city"',
        '"#A1","0.0","0.0","12000.0","1.0","#A1",""',
        '"b","0.0","0.0","","1.0","b",""',
        '"#","0.0","0.0","","1.0","#",""',
    ]
    assert list(load_prepared(path)) == rows


def test_a_line_break_before_a_hash_reads_back(tmp_path):
    # a '#' line inside a quoted cell is part of the cell, not a comment
    path = tmp_path / "prepared.csv"
    rows = [hh("ok"), hh("a\n#b"), Household("c", GeoPoint(0, 0), city="x\r#y"),
            Household("d", GeoPoint(0, 0), origin_id="\n#"), hh("#e\r\n#f")]
    write_households_csv(rows, path, header_comment="test run")
    assert list(load_prepared(path)) == rows


def test_a_header_comment_of_several_lines_reads_back(tmp_path):
    # each line of the comment is its own '# ' line
    path = tmp_path / "prepared.csv"
    rows = [hh(0, lat=1.0), hh(1, lat=2.0)]
    write_households_csv(rows, path, header_comment="run\nnotes\r\nmore\rend")
    assert path.read_bytes().startswith(b"# run\n# notes\n# more\n# end\nid,")
    assert list(load_prepared(path)) == rows
