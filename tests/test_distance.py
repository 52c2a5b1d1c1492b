import json
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

import pantryplan.distance as distance
from pantryplan.distance import (
    EARTH_RADIUS_M,
    DistanceMatrix,
    FixtureTransport,
    GeoPoint,
    ProviderSpec,
    TransportError,
    build_matrix,
    great_circle,
    load_matrix,
    provider_tag,
    save_matrix,
    table_request,
    table_url,
)
from pantryplan.errors import DistanceError, MatrixFormatError, UnreachablePairsError

from conftest import MockTableTransport, load_table_fixtures

TABLE_SPEC = ProviderSpec(kind="table_api", base_url="http://osrm.test", chunk_size=100)
GC_SPEC = ProviderSpec(kind="great_circle")

coords = st.tuples(st.floats(-85, 85), st.floats(-179, 179)).map(lambda t: GeoPoint(*t))


# --- GeoPoint / ProviderSpec ------------------------------------------------

@pytest.mark.parametrize("lat,lon", [(91, 0), (-90.5, 0), (0, 181), (0, -180.1), (float("nan"), 0)])
def test_geopoint_rejects_bad_coordinates(lat, lon):
    with pytest.raises(ValueError):
        GeoPoint(lat, lon)


def test_provider_spec_validation():
    with pytest.raises(DistanceError):
        ProviderSpec(kind="table_api")  # base_url required
    with pytest.raises(DistanceError):
        ProviderSpec(kind="great_circle", base_url="http://x")
    with pytest.raises(DistanceError):
        ProviderSpec(chunk_size=1)
    with pytest.raises(DistanceError):
        ProviderSpec(kind="teleport")


@pytest.mark.parametrize(
    "fields, name",
    [
        ({"kind": "table_api", "base_url": 5}, "base_url"),
        ({"kind": "table_api", "base_url": b"http://osrm.test"}, "base_url"),
        ({"base_url": 5}, "base_url"),
        ({"earth_radius": "big"}, "earth_radius"),
        ({"earth_radius": None}, "earth_radius"),
        ({"earth_radius": True}, "earth_radius"),
        ({"earth_radius": -1.0}, "earth_radius"),
        ({"earth_radius": 0}, "earth_radius"),
        ({"earth_radius": math.nan}, "earth_radius"),
        ({"earth_radius": math.inf}, "earth_radius"),
    ],
)
def test_provider_spec_rejects_mistyped_url_and_radius(fields, name):
    with pytest.raises(DistanceError, match=f"^{name} must be"):
        ProviderSpec(**fields)


def test_provider_spec_accepts_an_integer_radius():
    assert provider_tag(ProviderSpec(earth_radius=6_371_000)) == "great_circle"


# --- great_circle -----------------------------------------------------------

def test_identical_points_are_zero():
    p = GeoPoint(45.5, -122.6)
    assert great_circle(p, p) == 0.0


def test_antipodal_is_half_circumference():
    # pi * 6_371_000 by hand
    d = great_circle(GeoPoint(0, 0), GeoPoint(0, 180))
    assert d == pytest.approx(20_015_087, rel=1e-3)
    assert d == pytest.approx(math.pi * 6_371_000, rel=1e-12)


def test_equator_degree():
    # pi * R / 180 by hand
    d = great_circle(GeoPoint(0, 0), GeoPoint(0, 1))
    assert d == pytest.approx(111_195, rel=1e-3)
    assert d == pytest.approx(math.pi * 6_371_000 / 180.0, rel=1e-12)


@given(coords, coords)
def test_symmetric_and_nonnegative(a, b):
    ab = great_circle(a, b)
    assert ab >= 0.0
    assert ab == pytest.approx(great_circle(b, a), rel=1e-12, abs=1e-9)


@given(coords, coords, coords)
def test_triangle_inequality(a, b, c):
    ac = great_circle(a, c)
    detour = great_circle(a, b) + great_circle(b, c)
    assert ac <= detour + 1e-6 * max(1.0, ac)


def test_custom_radius():
    assert great_circle(GeoPoint(0, 0), GeoPoint(0, 180), earth_radius=1.0) == pytest.approx(math.pi)


# --- DistanceMatrix invariants ----------------------------------------------

def test_matrix_rejects_negative_and_nonfinite():
    pts = [GeoPoint(0, 0), GeoPoint(0, 1)]
    with pytest.raises(DistanceError):
        DistanceMatrix(pts, pts, [[0, -1], [1, 0]], "t")
    with pytest.raises(DistanceError):
        DistanceMatrix(pts, pts, [[0, float("nan")], [1, 0]], "t")
    with pytest.raises(DistanceError):
        DistanceMatrix(pts, pts, [[0, float("inf")], [1, 0]], "t")


def test_matrix_rejects_nonzero_diagonal_for_identical_lists():
    pts = [GeoPoint(0, 0), GeoPoint(0, 1)]
    with pytest.raises(DistanceError, match="diagonal"):
        DistanceMatrix(pts, pts, [[0.5, 1], [1, 0]], "t")


def test_matrix_allows_asymmetry():
    pts = [GeoPoint(0, 0), GeoPoint(0, 1)]
    m = DistanceMatrix(pts, pts, [[0, 10], [12, 0]], "t")
    assert m.values[0, 1] != m.values[1, 0]


# --- table_request ----------------------------------------------------------

def test_recorded_2x2_identical_lists_zero_diagonal():
    fixtures = FixtureTransport(load_table_fixtures())
    pts = [GeoPoint(34.05, -118.24), GeoPoint(34.06, -118.25)]
    block = table_request(TABLE_SPEC, pts, pts, transport=fixtures)
    assert block.shape == (2, 2)
    assert block[0, 0] == 0.0 and block[1, 1] == 0.0


def test_recorded_3x3_block_equals_fixture_values():
    raw = load_table_fixtures()
    fixtures = FixtureTransport(raw)
    pts = [GeoPoint(34.0522, -118.2437), GeoPoint(34.0622, -118.2537), GeoPoint(34.0722, -118.2637)]
    block = table_request(TABLE_SPEC, pts, pts, transport=fixtures)
    url = table_url(TABLE_SPEC, pts, pts)
    assert url in raw
    assert np.array_equal(block, np.asarray(raw[url]["distances"], dtype=np.float64))


def test_null_cell_reports_the_pair():
    fixtures = FixtureTransport(load_table_fixtures())
    pts = [GeoPoint(34.05, -118.24), GeoPoint(33.40, -118.42)]
    with pytest.raises(UnreachablePairsError) as err:
        table_request(TABLE_SPEC, pts, pts, transport=fixtures)
    assert err.value.pairs == [(0, 1), (1, 0)]


class FlakyTransport:
    def __init__(self, failures, inner):
        self.failures = failures
        self.inner = inner
        self.calls = 0

    def get(self, url):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransportError("connection reset")
        return self.inner.get(url)


def test_transport_errors_are_retried(monkeypatch):
    monkeypatch.setattr(distance, "RETRY_BASE_SECONDS", 0.0)
    flaky = FlakyTransport(2, MockTableTransport())
    pts = [GeoPoint(0, 0), GeoPoint(0, 1)]
    block = table_request(TABLE_SPEC, pts, pts, transport=flaky)
    assert flaky.calls == 3
    assert block[0, 1] > 0


def test_retries_are_bounded(monkeypatch):
    monkeypatch.setattr(distance, "RETRY_BASE_SECONDS", 0.0)
    flaky = FlakyTransport(99, MockTableTransport())
    pts = [GeoPoint(0, 0), GeoPoint(0, 1)]
    with pytest.raises(DistanceError, match="after 3 attempts"):
        table_request(TABLE_SPEC, pts, pts, transport=flaky)
    assert flaky.calls == 3


class Http500Transport:
    def __init__(self):
        self.calls = 0

    def get(self, url):
        self.calls += 1
        return 500, {"message": "internal error"}


def test_http_error_is_not_retried():
    pts = [GeoPoint(0, 0), GeoPoint(0, 1)]
    transport = Http500Transport()
    with pytest.raises(DistanceError, match="HTTP 500"):
        table_request(TABLE_SPEC, pts, pts, transport=transport)
    assert transport.calls == 1


# --- build_matrix -----------------------------------------------------------

def test_great_circle_matrix_agrees_entrywise():
    pts = [GeoPoint(10, 20), GeoPoint(-5, 100)]
    m = build_matrix(GC_SPEC, pts, pts)
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            assert m.values[i, j] == great_circle(a, b)
    assert m.values[0, 0] == 0.0 and m.values[1, 1] == 0.0


# signed zeros, poles and the antimeridian next to arbitrary points
edge_or_any = st.sampled_from(
    [GeoPoint(0.0, 0.0), GeoPoint(-0.0, -0.0), GeoPoint(90, 0), GeoPoint(-90, 180), GeoPoint(0, -180)]
) | coords


def scalar_loop(sources, destinations, radius):
    return np.array([[great_circle(a, b, radius) for b in destinations] for a in sources], dtype=np.float64)


@given(st.data())
def test_great_circle_matrix_is_the_scalar_loop_byte_for_byte(data):
    # few distinct points and longer lists, so both sides repeat points
    pool = data.draw(st.lists(edge_or_any, min_size=1, max_size=5))
    points = st.lists(st.sampled_from(pool), min_size=1, max_size=12)
    sources = data.draw(points)
    destinations = sources if data.draw(st.booleans()) else data.draw(points)
    radius = data.draw(st.just(EARTH_RADIUS_M) | st.floats(1e-3, 1e8))
    m = build_matrix(ProviderSpec(earth_radius=radius), sources, destinations)
    assert m.values.tobytes() == scalar_loop(sources, destinations, radius).tobytes()
    assert m.sources == tuple(sources) and m.destinations == tuple(destinations)


@pytest.mark.parametrize("shape", ["repeated_rectangle", "identical_lists", "one_by_one"])
def test_great_circle_matrix_is_the_scalar_loop_on_random_points(shape):
    rng = np.random.default_rng(11)
    distinct = [GeoPoint(float(a), float(b)) for a, b in zip(rng.uniform(-90, 90, 40), rng.uniform(-180, 180, 40))]
    repeated = [distinct[i] for i in rng.integers(0, 40, 120)]
    sources, destinations = {
        "repeated_rectangle": (repeated, distinct[:25] * 2),
        "identical_lists": (repeated, repeated),
        "one_by_one": (distinct[:1], distinct[1:2]),
    }[shape]
    for radius in (EARTH_RADIUS_M, 6_378_137.0):
        m = build_matrix(ProviderSpec(earth_radius=radius), sources, destinations)
        assert m.values.tobytes() == scalar_loop(sources, destinations, radius).tobytes()


def test_great_circle_matrix_computes_each_distinct_pair_once(monkeypatch):
    calls = []
    real = math.asin
    monkeypatch.setattr(math, "asin", lambda x: calls.append(x) or real(x))
    a, b, c = GeoPoint(1, 2), GeoPoint(3, 4), GeoPoint(5, 6)
    m = build_matrix(GC_SPEC, [a, b, a, a, b], [c, a, c])
    assert len(calls) == 2 * 2
    assert m.values.tobytes() == scalar_loop([a, b, a, a, b], [c, a, c], EARTH_RADIUS_M).tobytes()


def test_provider_tag_names_kind_url_and_custom_radius():
    assert provider_tag(GC_SPEC) == build_matrix(GC_SPEC, [GeoPoint(0, 0)], [GeoPoint(0, 1)]).provider_tag
    assert provider_tag(GC_SPEC) == "great_circle"
    assert provider_tag(ProviderSpec(earth_radius=1.0)) == "great_circle:1.0"
    assert provider_tag(TABLE_SPEC) == "table:http://osrm.test"


def test_chunking_invariance():
    pts = [GeoPoint(34.05, -118.24), GeoPoint(34.1, -118.3), GeoPoint(34.2, -118.1),
           GeoPoint(33.9, -118.5), GeoPoint(34.0, -118.0)]
    results = {}
    for chunk in (2, 4, 100, 1000):
        spec = ProviderSpec(kind="table_api", base_url="http://osrm.test", chunk_size=chunk)
        transport = MockTableTransport()
        m = build_matrix(spec, pts, pts, transport=transport)
        results[chunk] = (m.values, len(transport.requests_seen))
    whole = results[1000][0]
    assert results[1000][1] == 1  # one tile
    assert results[2][1] == 25  # 1x1 tiles
    for chunk, (values, _) in results.items():
        assert np.array_equal(values, whole), f"chunk_size={chunk} differs"


def test_mock_metric_is_scaled_great_circle():
    pts = [GeoPoint(34.05, -118.24), GeoPoint(34.1, -118.3), GeoPoint(34.2, -118.1),
           GeoPoint(33.9, -118.5), GeoPoint(34.0, -118.0)]
    m = build_matrix(TABLE_SPEC, pts, pts, transport=MockTableTransport(scale=1.3))
    gc = build_matrix(GC_SPEC, pts, pts)
    assert np.array_equal(m.values, 1.3 * gc.values)


def test_unreachable_pairs_abort_with_global_indices():
    class NullTransport(MockTableTransport):
        def get(self, url):
            status, body = super().get(url)
            rows = body["distances"]
            # the mock's chunked URLs carry absolute coordinates; null out
            # every leg touching the second point by value matching
            for i, row in enumerate(rows):
                for j, v in enumerate(row):
                    if v > 150_000:  # legs to/from the far point
                        row[j] = None
            return status, body

    pts = [GeoPoint(0, 0), GeoPoint(0, 0.1), GeoPoint(0, 2.0)]
    spec = ProviderSpec(kind="table_api", base_url="http://osrm.test", chunk_size=2)
    with pytest.raises(UnreachablePairsError) as err:
        build_matrix(spec, pts, pts, transport=NullTransport())
    assert err.value.pairs == [(0, 2), (1, 2), (2, 0), (2, 1)]


def test_empty_inputs_rejected():
    with pytest.raises(DistanceError):
        build_matrix(GC_SPEC, [], [GeoPoint(0, 0)])


# --- save/load --------------------------------------------------------------

def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    src = [GeoPoint(float(a), float(b)) for a, b in rng.uniform(-50, 50, (3, 2))]
    dst = [GeoPoint(float(a), float(b)) for a, b in rng.uniform(-50, 50, (4, 2))]
    values = rng.uniform(0, 5e5, (3, 4))
    m = DistanceMatrix(src, dst, values, "table:http://osrm.test", created_at="2024-05-01T00:00:00Z")
    path = tmp_path / "m.dmat"
    save_matrix(m, path)
    back = load_matrix(path)
    assert back == m
    assert back.values.tobytes() == m.values.tobytes()


def test_wrong_magic_is_format_error(tmp_path):
    path = tmp_path / "m.dmat"
    path.write_bytes(b"NOPE1" + b"\x00" * 64)
    with pytest.raises(MatrixFormatError, match="not a DMAT1"):
        load_matrix(path)


def test_truncated_file_is_format_error(tmp_path):
    pts = [GeoPoint(0, 0), GeoPoint(0, 1)]
    m = build_matrix(GC_SPEC, pts, pts)
    path = tmp_path / "m.dmat"
    save_matrix(m, path)
    whole = path.read_bytes()
    path.write_bytes(whole[: len(whole) // 2])
    with pytest.raises(MatrixFormatError, match="truncated"):
        load_matrix(path)


def test_checksum_mismatch_detected(tmp_path):
    pts = [GeoPoint(0, 0), GeoPoint(0, 1)]
    m = build_matrix(GC_SPEC, pts, pts)
    path = tmp_path / "m.dmat"
    save_matrix(m, path)
    data = bytearray(path.read_bytes())
    data[14] ^= 0xFF  # flip a byte inside the float block
    path.write_bytes(bytes(data))
    with pytest.raises(MatrixFormatError, match="checksum"):
        load_matrix(path)


def test_file_size_matches_format_definition(tmp_path):
    src = [GeoPoint(0, i) for i in range(3)]
    dst = [GeoPoint(1, i) for i in range(4)]
    values = np.arange(12, dtype=np.float64).reshape(3, 4)
    m = DistanceMatrix(src, dst, values, "test", created_at="2024-05-01T00:00:00Z")
    path = tmp_path / "m.dmat"
    save_matrix(m, path)
    trailer = json.dumps(
        {
            "sources": [[p.lat, p.lon] for p in src],
            "destinations": [[p.lat, p.lon] for p in dst],
            "provider_tag": "test",
            "created_at": "2024-05-01T00:00:00Z",
            "crc32": zlib.crc32(values.tobytes()) & 0xFFFFFFFF,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    expected = 5 + 4 + 4 + 12 * 8 + 4 + len(trailer)
    assert path.stat().st_size == expected
