import json
import math
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

import pantryplan.distance as distance
from pantryplan.distance import (
    EARTH_RADIUS_M,
    DistanceMatrix,
    GeoPoint,
    ProviderSpec,
    TransportError,
    build_matrix,
    great_circle,
    load_matrix,
    matrix_fault,
    nearest_great_circle,
    provider_tag,
    save_matrix,
    table_request,
    table_url,
)
from pantryplan.errors import DistanceError, MatrixFormatError, SolveError, StaleMatrixError, UnreachablePairsError
from pantryplan.kmedoids import SolveParams, brute_force_solve, solve

from conftest import MockTableTransport, load_table_fixtures, peak_bytes, rewrite_trailer

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


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


@given(coords | st.sampled_from([GeoPoint(0.0, 0.0), GeoPoint(-0.0, -0.0), GeoPoint(90, 0), GeoPoint(-90, 180)]),
       coords, st.floats(-math.pi, math.pi))
def test_great_circle_is_symmetric_bit_for_bit(a, b, x):
    # what the square matrix's one triangle rests on: libm's sin is odd and
    # pow(x, 2) even over the kernel's half differences, [-pi, pi]
    assert bits(great_circle(a, b)) == bits(great_circle(b, a))
    assert bits(math.sin(-x)) == bits(-math.sin(x))
    assert bits((-x) ** 2) == bits(x ** 2)


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


def test_matrix_over_other_destinations_may_have_a_nonzero_diagonal():
    # a square shape over two point lists is a rectangle that happens to be
    # square: only a matrix over one list has a diagonal of self-distances
    src = [GeoPoint(0, 0), GeoPoint(0, 1)]
    dst = [GeoPoint(1, 0), GeoPoint(1, 1)]
    assert DistanceMatrix(src, dst, [[5.0, 6.0], [7.0, 8.0]], "t").values[0, 0] == 5.0


def test_matrix_allows_asymmetry():
    pts = [GeoPoint(0, 0), GeoPoint(0, 1)]
    m = DistanceMatrix(pts, pts, [[0, 10], [12, 0]], "t")
    assert m.values[0, 1] != m.values[1, 0]


def test_matrix_copies_a_writeable_array_and_leaves_it_to_the_caller():
    pts = [GeoPoint(0, 0), GeoPoint(0, 1)]
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    m = DistanceMatrix(pts, pts, a, "x")
    assert a.flags.writeable and m.values is not a
    a[0, 1] = 5.0
    assert m.values[0, 1] == 1.0
    assert not m.values.flags.writeable


def test_matrix_keeps_a_read_only_array_without_a_copy():
    pts = [GeoPoint(0, 0), GeoPoint(0, 1)]
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    a.setflags(write=False)
    assert DistanceMatrix(pts, pts, a, "x").values is a


@pytest.mark.parametrize("spec", [GC_SPEC, TABLE_SPEC])
def test_build_matrix_hands_over_its_array_read_only(spec):
    pts = [GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(1, 0)]
    m = build_matrix(spec, pts, pts, transport=MockTableTransport())
    assert not m.values.flags.writeable and m.values.base is None  # its own block, not a copy's view


# --- table_request ----------------------------------------------------------

def test_recorded_2x2_identical_lists_zero_diagonal():
    fixtures = MockTableTransport(fixtures=load_table_fixtures())
    pts = [GeoPoint(34.05, -118.24), GeoPoint(34.06, -118.25)]
    block = table_request(TABLE_SPEC, pts, pts, transport=fixtures)
    assert block.shape == (2, 2)
    assert block[0, 0] == 0.0 and block[1, 1] == 0.0


def test_recorded_3x3_block_equals_fixture_values():
    raw = load_table_fixtures()
    fixtures = MockTableTransport(fixtures=raw)
    pts = [GeoPoint(34.0522, -118.2437), GeoPoint(34.0622, -118.2537), GeoPoint(34.0722, -118.2637)]
    block = table_request(TABLE_SPEC, pts, pts, transport=fixtures)
    url = table_url(TABLE_SPEC, pts, pts)
    assert url in raw
    assert np.array_equal(block, np.asarray(raw[url]["distances"], dtype=np.float64))


def test_null_cell_reports_the_pair():
    fixtures = MockTableTransport(fixtures=load_table_fixtures())
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


# (distinct destinations, distinct sources): one short of, at and one past
# the rows one block holds; past GC_BLOCK_CELLS columns a block is one row
BLOCK_EDGES = [
    (cols, rows)
    for cols in (1, 7, distance.GC_BLOCK_CELLS + 1)
    for rows in (max(1, distance.GC_BLOCK_CELLS // cols) + offset for offset in (-1, 0, 1))
    if rows > 0
]


@pytest.mark.parametrize("cols, rows", BLOCK_EDGES)
def test_great_circle_matrix_is_the_scalar_loop_across_block_edges(cols, rows):
    rng = np.random.default_rng(cols)
    lats, lons = rng.uniform(-90, 90, rows + cols), rng.uniform(-180, 180, rows + cols)
    points = [GeoPoint(float(a), float(b)) for a, b in zip(lats, lons)]
    sources = points[:rows] + points[: rows : 3]  # repeats: the gather still maps every row
    destinations = points[rows:]
    m = build_matrix(GC_SPEC, sources, destinations)
    assert m.values.tobytes() == scalar_loop(sources, destinations, EARTH_RADIUS_M).tobytes()


def random_points(seed: int, n: int) -> list:
    rng = np.random.default_rng(seed)
    return [GeoPoint(float(a), float(b)) for a, b in zip(rng.uniform(-90, 90, n), rng.uniform(-180, 180, n))]


@pytest.mark.parametrize("cells", [1, 7, 64])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 13, 40])
def test_square_matrix_is_the_scalar_loop_across_strip_edges(monkeypatch, cells, n):
    # strips of rows r0:r1 x columns r0: about `cells` cells each, mirrored
    monkeypatch.setattr(distance, "GC_BLOCK_CELLS", cells)
    points = random_points(n, n)
    repeated = points + points[::2] + points[:1]
    for sources, destinations in [
        (points, points),
        (repeated, repeated),
        (repeated, points),  # other lists, the same distinct points in the same order
        (points[:1] * 3, points[:1]),  # a single distinct point
    ]:
        m = build_matrix(GC_SPEC, sources, destinations)
        assert m.values.tobytes() == scalar_loop(sources, destinations, EARTH_RADIUS_M).tobytes()


def test_square_matrix_computes_one_triangle(monkeypatch):
    calls = []
    real = math.asin
    monkeypatch.setattr(math, "asin", lambda x: calls.append(x) or real(x))
    monkeypatch.setattr(distance, "GC_BLOCK_CELLS", 1)  # one row per strip: no cell below the diagonal
    points = random_points(5, 5)
    sources = points + points[1:3]
    m = build_matrix(GC_SPEC, sources, sources)
    assert len(calls) == 5 * 6 // 2
    assert m.values.tobytes() == scalar_loop(sources, sources, EARTH_RADIUS_M).tobytes()


def test_one_list_as_both_sides_collects_its_distinct_points_once(monkeypatch):
    calls = []
    real = distance._distinct
    monkeypatch.setattr(distance, "_distinct", lambda points: calls.append(len(points)) or real(points))
    points = random_points(3, 6)
    sources = points + points[1:3]
    square = build_matrix(GC_SPEC, sources, sources)
    assert calls == [8]
    # the same points in two lists: the triangle still, from two collections
    calls.clear()
    twin = build_matrix(GC_SPEC, sources, list(sources))
    assert calls == [8, 8]
    assert twin.values.tobytes() == square.values.tobytes() == scalar_loop(sources, sources, EARTH_RADIUS_M).tobytes()
    calls.clear()
    build_matrix(GC_SPEC, sources, points)
    assert calls == [8, 6]


@pytest.mark.parametrize("cells", [None, 7, 64])
@pytest.mark.parametrize("n", [1, 2, 9, 40, 300])
def test_square_matrix_computes_exactly_the_triangle(monkeypatch, cells, n):
    # strips taller than one row hold no cell below the diagonal either
    if cells is not None:
        monkeypatch.setattr(distance, "GC_BLOCK_CELLS", cells)
    calls = []
    real = math.asin
    monkeypatch.setattr(math, "asin", lambda x: calls.append(x) or real(x))
    points = random_points(n, n)
    sources = points + points[: n // 2]
    m = build_matrix(GC_SPEC, sources, sources)
    assert len(calls) == n * (n + 1) // 2
    if n <= 40:
        assert m.values.tobytes() == scalar_loop(sources, sources, EARTH_RADIUS_M).tobytes()


def test_great_circle_squares_the_sine_with_libm_pow():
    # a pair whose latitude term has pow(x, 2) != x * x (about 0.09% of
    # arguments on x86_64 glibc) and whose longitude term does not, and where
    # that last bit reaches the distance: squaring as x * x (np.square) fails
    a, b = GeoPoint(33.8879, -117.9984), GeoPoint(33.5181, -117.8536)
    lat1, lon1, lat2, lon2 = map(math.radians, (a.lat, a.lon, b.lat, b.lon))
    x = math.sin((lat2 - lat1) / 2.0)
    y = math.sin((lon2 - lon1) / 2.0)
    assert x ** 2 != x * x and y ** 2 == y * y, "this libm squares these sines otherwise; pick another pair"
    product = x * x + math.cos(lat1) * math.cos(lat2) * (y * y)
    by_product = EARTH_RADIUS_M * 2.0 * math.asin(min(1.0, math.sqrt(product)))
    assert great_circle(a, b) != by_product
    m = build_matrix(GC_SPEC, [a, b], [b, a])
    assert m.values[0, 0] == m.values[1, 1] == great_circle(a, b)


# the kernel squares each sine with math.pow(s, 2.0); great_circle's s ** 2
# hands libm |s| instead of s, so the two agree only if libm's pow is even
SMALLEST_NORMAL = np.finfo(np.float64).tiny
SINES = [0.0, 5e-324, 1e-160, 1.5e-154, math.nextafter(SMALLEST_NORMAL, 0.0), SMALLEST_NORMAL, 1e-8, 0.5, 1.0]
SINES += np.sin(np.random.default_rng(19).uniform(-math.pi, math.pi, 2000)).tolist()


def test_math_pow_squares_each_sine_as_the_builtin_pow_does():
    for s in SINES + [-s for s in SINES]:
        assert bits(math.pow(s, 2.0)) == bits(s ** 2), s


@given(st.floats(-1.0, 1.0))
def test_math_pow_squares_any_sine_as_the_builtin_pow_does(s):
    assert bits(math.pow(s, 2.0)) == bits(s ** 2)
    assert bits(math.pow(-s, 2.0)) == bits(s ** 2)


def _antipode(p: GeoPoint, dlat: float, dlon: float) -> GeoPoint:
    """p's antipode moved by (dlat, dlon) degrees, kept in range."""
    lon = p.lon - 180.0 if p.lon > 0 else p.lon + 180.0
    return GeoPoint(min(90.0, max(-90.0, -p.lat + dlat)), min(180.0, max(-180.0, lon + dlon)))


poles = st.builds(GeoPoint, st.sampled_from([90.0, -90.0]), st.floats(-180, 180))
antimeridian = st.builds(GeoPoint, st.floats(-90, 90), st.sampled_from([180.0, -180.0]))
nudges = st.sampled_from([0.0, 1e-12]) | st.floats(-1e-6, 1e-6)


@st.composite
def kernel_lists(draw):
    """(sources, destinations) over a few distinct points, poles, points on
    the antimeridian and points within a micro-degree of another's antipode;
    both lists repeat points, and destinations are the sources or another
    list."""
    base = draw(st.lists(edge_or_any | poles | antimeridian, min_size=1, max_size=5))
    far = [_antipode(p, draw(nudges), draw(nudges)) for p in draw(st.lists(st.sampled_from(base), max_size=3))]
    points = st.lists(st.sampled_from(base + far), min_size=1, max_size=14)
    sources = draw(points)
    return sources, sources if draw(st.booleans()) else draw(points)


@given(kernel_lists())
def test_kernel_cells_are_great_circle_bit_for_bit(lists):
    sources, destinations = lists
    want = scalar_loop(sources, destinations, EARTH_RADIUS_M)
    assert build_matrix(GC_SPEC, sources, destinations).values.tobytes() == want.tobytes()
    assert nearest_great_circle(sources, destinations).tobytes() == want.min(axis=1).tobytes()


def test_kernel_lists_reach_the_antipode():
    # the strategy's near-antipodes lie within a meter of half the circumference
    p = GeoPoint(10.0, 20.0)
    d = great_circle(p, _antipode(p, 1e-12, 0.0))
    assert abs(d - math.pi * EARTH_RADIUS_M) < 1.0


# --- nearest_great_circle ---------------------------------------------------

def row_minima(sources, destinations, radius=EARTH_RADIUS_M):
    return build_matrix(ProviderSpec(earth_radius=radius), sources, destinations).values.min(axis=1)


@given(st.data())
def test_nearest_is_the_matrix_row_minimum_byte_for_byte(data):
    pool = data.draw(st.lists(edge_or_any, min_size=1, max_size=8))
    points = st.lists(st.sampled_from(pool), min_size=1, max_size=12)
    sources, destinations = data.draw(points), data.draw(points)
    radius = data.draw(st.just(EARTH_RADIUS_M) | st.floats(1e-3, 1e8))
    got = nearest_great_circle(sources, destinations, radius)
    assert got.tobytes() == row_minima(sources, destinations, radius).tobytes()


def _near_ties():
    # facilities one latitude ULP apart at 10 degrees, about 1,100 km from
    # each household: their distances lie a few ULP apart
    lats = [10.0]
    for _ in range(15):
        lats.append(math.nextafter(lats[-1], -math.inf))
    households = [GeoPoint(float(lat), 0.5) for lat in np.linspace(0.1, 5.0, 20)]
    return households, [GeoPoint(lat, 10.0) for lat in lats]


NEAREST_CASES = {
    # mirrored across the household's meridian: an exact tie
    "exact_tie": ([GeoPoint(40.1, -75.3)], [GeoPoint(40.4, -75.5), GeoPoint(40.4, -75.1), GeoPoint(41, -75.3)]),
    "near_ties": _near_ties(),
    "on_a_facility": ([GeoPoint(40.1, -75.3), GeoPoint(40.2, -75.3)], [GeoPoint(40.4, -75.1), GeoPoint(40.1, -75.3)]),
    # within decimeters of the antipode, where the clamp acts and arcsin's
    # slope turns one ULP of the haversine term into about 0.19 m
    "near_antipodal": (
        [GeoPoint(10, 20), GeoPoint(10 + 1e-7, 20), GeoPoint(10, 20 - 2e-7)],
        [GeoPoint(-10 + a, -160 + b) for a, b in np.random.default_rng(2).normal(0, 3e-7, (8, 2)).tolist()]
        + [GeoPoint(-10, -160)],
    ),
    "one_facility": (random_points(3, 20), [GeoPoint(12.5, -40.25)]),
    "duplicated_households": (random_points(4, 6) * 3 + random_points(4, 2), random_points(5, 9)),
}


@pytest.mark.parametrize("case", sorted(NEAREST_CASES))
def test_nearest_is_the_matrix_row_minimum_on_pinned_cases(case):
    sources, destinations = NEAREST_CASES[case]
    for radius in (EARTH_RADIUS_M, 6_378_137.0, 1.0):
        got = nearest_great_circle(sources, destinations, radius)
        assert got.tobytes() == row_minima(sources, destinations, radius).tobytes()


def test_pinned_nearest_cases_hold_what_they_name():
    d = scalar_loop(*NEAREST_CASES["exact_tie"], EARTH_RADIUS_M)[0]
    assert d[0] == d[1] < d[2]
    for d in scalar_loop(*NEAREST_CASES["near_ties"], EARTH_RADIUS_M):
        assert len(set(d)) > 2 and (d.max() - d.min()) <= 16 * math.ulp(d.min())
    assert nearest_great_circle(*NEAREST_CASES["on_a_facility"])[0] == 0.0
    d = scalar_loop(*NEAREST_CASES["near_antipodal"], EARTH_RADIUS_M)[0]
    assert len(set(d)) > 1 and np.all(abs(d - math.pi * EARTH_RADIUS_M) < 1.0)


@pytest.mark.parametrize("case", sorted(NEAREST_CASES))
def test_nearest_holds_when_libm_sin_is_a_few_ulp_from_numpy(monkeypatch, case):
    # numpy's sin agrees with this libm's; on another host it may not.
    # A libm sin moved by up to 4 ULP stands in for that host: the exact
    # cells and the oracle move with it, numpy's screen does not.
    real = math.sin

    def sin(x):
        v = real(x)
        return v + (struct.unpack("<q", bits(x))[0] % 9 - 4) * math.ulp(v)

    monkeypatch.setattr(math, "sin", sin)
    sources, destinations = NEAREST_CASES[case]
    got = nearest_great_circle(sources, destinations)
    assert got.tobytes() == row_minima(sources, destinations).tobytes()


@pytest.mark.parametrize("cols, rows", BLOCK_EDGES)
def test_nearest_is_the_matrix_row_minimum_across_block_edges(cols, rows):
    points = random_points(cols + 1, rows + cols)
    sources = points[:rows] + points[: rows : 3]
    destinations = points[rows:]
    got = nearest_great_circle(sources, destinations)
    assert got.tobytes() == row_minima(sources, destinations).tobytes()


def test_nearest_computes_about_one_exact_cell_per_distinct_source(monkeypatch):
    calls = []
    real = math.asin
    monkeypatch.setattr(math, "asin", lambda x: calls.append(x) or real(x))
    sources, destinations = random_points(6, 50), random_points(7, 30)
    got = nearest_great_circle(sources * 2, destinations)
    assert len(calls) == 50  # random points: no two facilities tie within the screen
    assert got.tobytes() == scalar_loop(sources * 2, destinations, EARTH_RADIUS_M).min(axis=1).tobytes()


def test_nearest_rejects_empty_inputs():
    with pytest.raises(DistanceError):
        nearest_great_circle([], [GeoPoint(0, 0)])
    with pytest.raises(DistanceError):
        nearest_great_circle([GeoPoint(0, 0)], [])


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
    m = DistanceMatrix(src, dst, values, "table:http://osrm.test")
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


def without(key):
    return lambda trailer: {k: v for k, v in trailer.items() if k != key}


def with_source(pair):
    return lambda trailer: {**trailer, "sources": [pair] + trailer["sources"][1:]}


TRAILER_DAMAGE = {
    "list": (lambda trailer: [trailer], "trailer is not a JSON object"),
    "null": (lambda trailer: None, "trailer is not a JSON object"),
    "no_sources": (without("sources"), "trailer has no 'sources'"),
    "no_destinations": (without("destinations"), "trailer has no 'destinations'"),
    "no_provider_tag": (without("provider_tag"), "trailer has no 'provider_tag'"),
    "sources_object": (lambda trailer: {**trailer, "sources": {}}, "trailer 'sources' must be a list, got dict"),
    "provider_tag_number": (lambda trailer: {**trailer, "provider_tag": 5}, "trailer 'provider_tag' must be a str, got int"),
    "short_point": (with_source([1.0]), "sources[0] is not a [lat, lon] pair"),
    "long_point": (with_source([1.0, 2.0, 3.0]), "sources[0] is not a [lat, lon] pair"),
    "string_point": (with_source("ab"), "sources[0] is not a [lat, lon] pair"),
    "bool_coordinate": (with_source([True, 2.0]), "sources[0] is not a [lat, lon] pair"),
    "string_coordinate": (with_source([1.0, "2"]), "sources[0] is not a [lat, lon] pair"),
    "latitude_out_of_range": (with_source([91.0, 2.0]), "sources[0]: latitude 91.0 out of [-90, 90]"),
    "integer_past_float": (with_source([10**400, 2.0]), "sources[0]: int too large"),
    # json parses an integer literal with int(), which raises ValueError past
    # 4300 digits: neither a JSONDecodeError nor a UnicodeDecodeError
    "int_of_5001_digits": (lambda trailer: json.dumps(trailer)[:-1] + ', "note": 1' + "0" * 5000 + "}",
                           "bad trailer: Exceeds the limit"),
    "bool_destination": (  # == takes [false, 0] for the sources' [0, 0]
        lambda trailer: {**trailer, "destinations": [[False, 0]] + trailer["destinations"][1:]},
        "destinations[0] is not a [lat, lon] pair",
    ),
    "destination_out_of_range": (
        lambda trailer: {**trailer, "destinations": trailer["destinations"][:1] + [[0, 200]]},
        "destinations[1]: longitude 200 out of [-180, 180]",
    ),
    "too_few_sources": (
        lambda trailer: {**trailer, "sources": trailer["sources"][:1]},
        "values shape (2, 2) does not match 1x2",
    ),
}


@pytest.mark.parametrize("damage", sorted(TRAILER_DAMAGE))
def test_malformed_trailer_is_format_error(tmp_path, damage):
    edit, why = TRAILER_DAMAGE[damage]
    pts = [GeoPoint(0, 0), GeoPoint(0, 1)]
    path = tmp_path / "m.dmat"
    save_matrix(build_matrix(GC_SPEC, pts, pts), path)
    rewrite_trailer(path, edit)
    with pytest.raises(MatrixFormatError) as err:
        load_matrix(path)
    assert str(err.value).startswith(f"{path}: ") and why in str(err.value)


FLOAT_POINTS = [GeoPoint(1.0, 2.0), GeoPoint(0.0, 1.0)]  # 1.0 == true under ==


def saved_square(tmp_path, points=FLOAT_POINTS):
    path = tmp_path / "m.dmat"
    save_matrix(build_matrix(GC_SPEC, points, points), path)
    return path


def outcome(load):
    try:
        return "matrix", load()
    except MatrixFormatError as exc:
        return "error", str(exc)


def test_load_with_the_listed_points_keeps_the_callers_objects(tmp_path):
    path = saved_square(tmp_path)
    points = [GeoPoint(1.0, 2.0), GeoPoint(0.0, 1.0)]  # equal to the saved points, not the same objects
    back = load_matrix(path, points)
    assert back == load_matrix(path)
    assert back.values.tobytes() == load_matrix(path).values.tobytes()
    assert all(a is b for a, b in zip(back.sources, points)) and back.destinations is back.sources


def both_sides(pair, i=0):
    def edit(trailer):
        for side in ("sources", "destinations"):
            trailer[side][i] = pair
        return trailer

    return edit


POINTS_PATH_DAMAGE = {
    **{name: edit for name, (edit, _) in TRAILER_DAMAGE.items()},
    "bool_coordinate_both_sides": both_sides([True, 2.0]),  # == would take it for FLOAT_POINTS[0]
    "bool_longitude_both_sides": both_sides([0.0, True], 1),  # == would take it for FLOAT_POINTS[1]
    "integer_coordinate_both_sides": both_sides([1, 2]),  # readable: GeoPoint(1, 2) == GeoPoint(1.0, 2.0)
    "nan_both_sides": both_sides([float("nan"), 2.0]),
    "extra_point": lambda trailer: {**trailer, "sources": trailer["sources"] + [[0.0, 0.0]]},
}


@pytest.mark.parametrize("damage", sorted(POINTS_PATH_DAMAGE))
def test_load_with_points_refuses_what_load_refuses(tmp_path, damage):
    path = saved_square(tmp_path)
    rewrite_trailer(path, POINTS_PATH_DAMAGE[damage])
    plain = outcome(lambda: load_matrix(path))
    assert outcome(lambda: load_matrix(path, FLOAT_POINTS)) == plain
    if "bool" in damage:
        assert plain[0] == "error" and "is not a [lat, lon] pair of numbers" in plain[1]


OTHER_POINTS = [
    [GeoPoint(1.0, 2.0), GeoPoint(0.0, 1.5)],  # another point
    [GeoPoint(0.0, 1.0), GeoPoint(1.0, 2.0)],  # the same points in another order
    FLOAT_POINTS[:1],  # too few
    [],
]


def stale(points):
    return pytest.raises(
        StaleMatrixError, match=rf"matrix is 2 points, which differ from the prepared households \({len(points)}\)$"
    )


@pytest.mark.parametrize("points", OTHER_POINTS)
def test_load_with_other_points_reads_the_trailers_own(tmp_path, points):
    # the trailer's own points are what is read, and they are refused as
    # stale rather than taken for the caller's
    path = saved_square(tmp_path)
    own = load_matrix(path)
    assert own.sources == own.destinations == tuple(FLOAT_POINTS)
    assert not any(a is b for a, b in zip(own.sources, points))
    with stale(points):
        load_matrix(path, points)


@given(
    points=st.sampled_from([FLOAT_POINTS] + OTHER_POINTS),
    side=st.sampled_from(["sources", "destinations"]),
    index=st.integers(0, 1),
    axis=st.integers(0, 1),
    value=st.sampled_from([True, False, 1, 0, 2, 1.0, 0.0, 2.0, -0.0, "1", None, [], 10**400, 1e300, float("nan")]),
)
def test_load_with_points_reads_every_edited_coordinate_as_load_does(tmp_path_factory, points, side, index, axis, value):
    # a plain load's fault first, then the matrix when it is over exactly
    # points, and otherwise a stale matrix
    path = saved_square(tmp_path_factory.mktemp("dmat"))

    def edit(trailer):
        trailer[side][index][axis] = value
        return trailer

    rewrite_trailer(path, edit)
    plain = outcome(lambda: load_matrix(path))
    if plain[0] == "error":
        assert outcome(lambda: load_matrix(path, points)) == plain
    elif plain[1].sources == plain[1].destinations == tuple(points):
        assert load_matrix(path, points) == plain[1]
    else:
        with stale(points):
            load_matrix(path, points)


def test_load_with_a_tag_refuses_another_providers_matrix(tmp_path):
    path = saved_square(tmp_path)
    assert load_matrix(path, FLOAT_POINTS, "great_circle") == load_matrix(path)
    with pytest.raises(StaleMatrixError, match=f"^{path}: built by provider great_circle, config asks for great_circle:1.0$"):
        load_matrix(path, FLOAT_POINTS, "great_circle:1.0")
    with pytest.raises(StaleMatrixError, match="built by provider great_circle, config asks for table:"):
        load_matrix(path, tag="table:http://osrm.test")
    rewrite_trailer(path, with_source([True, 2.0]))
    with pytest.raises(MatrixFormatError, match=r"sources\[0\] is not a \[lat, lon\] pair"):  # the fault, before the provider
        load_matrix(path, FLOAT_POINTS, "great_circle:1.0")


def test_load_does_not_copy_the_float_block(tmp_path):
    pts = [GeoPoint(0, i / 100) for i in range(400)]
    path = tmp_path / "m.dmat"
    m = build_matrix(GC_SPEC, pts, pts)
    save_matrix(m, path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        back = load_matrix(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * size  # the file's bytes once, not a second copy of the block
    assert not back.values.flags.writeable
    assert back.values.tobytes() == m.values.tobytes()


def test_loaded_values_are_aligned(tmp_path):
    # the header is 13 bytes, so a view of the file's bytes would not be
    pts = [GeoPoint(0, i / 100) for i in range(5)]
    path = tmp_path / "m.dmat"
    m = build_matrix(GC_SPEC, pts, pts)
    save_matrix(m, path)
    values = load_matrix(path).values
    assert values.flags.aligned and values.ctypes.data % 8 == 0
    assert values.flags.c_contiguous and not values.flags.writeable


def test_header_claiming_more_than_the_file_holds_is_truncated(tmp_path):
    pts = [GeoPoint(0, 0), GeoPoint(0, 1)]
    path = tmp_path / "m.dmat"
    save_matrix(build_matrix(GC_SPEC, pts, pts), path)
    whole = bytearray(path.read_bytes())
    struct.pack_into("<II", whole, len(b"DMAT1"), 2**32 - 1, 2**32 - 1)
    path.write_bytes(bytes(whole))
    with pytest.raises(MatrixFormatError, match="truncated float block"):
        load_matrix(path)


def test_file_size_matches_format_definition(tmp_path):
    src = [GeoPoint(0, i) for i in range(3)]
    dst = [GeoPoint(1, i) for i in range(4)]
    values = np.arange(12, dtype=np.float64).reshape(3, 4)
    m = DistanceMatrix(src, dst, values, "test")
    path = tmp_path / "m.dmat"
    save_matrix(m, path)
    trailer = json.dumps(
        {
            "sources": [[p.lat, p.lon] for p in src],
            "destinations": [[p.lat, p.lon] for p in dst],
            "provider_tag": "test",
            "crc32": zlib.crc32(values.tobytes()) & 0xFFFFFFFF,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    expected = 5 + 4 + 4 + 12 * 8 + 4 + len(trailer)
    assert path.stat().st_size == expected


# --- one copy of the block ----------------------------------------------------

def test_save_writes_from_the_values_own_buffer(tmp_path):
    pts = [GeoPoint(0, i / 100) for i in range(400)]
    m = build_matrix(GC_SPEC, pts, pts)
    path = tmp_path / "m.dmat"
    peak, _ = peak_bytes(lambda: save_matrix(m, path))
    assert peak < m.values.nbytes / 4  # the trailer's lists, not a bytes copy of the block
    data = path.read_bytes()
    block = data[13 : 13 + m.values.nbytes]
    assert block == m.values.tobytes()
    (tlen,) = struct.unpack_from("<I", data, 13 + m.values.nbytes)
    assert json.loads(data[-tlen:])["crc32"] == zlib.crc32(block)


def test_save_of_a_transposed_view_writes_row_major(tmp_path):
    values = np.arange(12, dtype=np.float64).reshape(4, 3).T  # 3 x 4, not C-contiguous
    values.setflags(write=False)
    src = [GeoPoint(0, i) for i in range(3)]
    dst = [GeoPoint(1, i) for i in range(4)]
    m = DistanceMatrix(src, dst, values, "test")
    assert m.values is values
    save_matrix(m, tmp_path / "m.dmat")
    assert load_matrix(tmp_path / "m.dmat").values.tobytes() == np.ascontiguousarray(values).tobytes()


def test_great_circle_build_over_distinct_points_holds_one_block():
    pts = [GeoPoint(i // 20 / 100, i % 20 / 100) for i in range(400)]
    peak, m = peak_bytes(lambda: build_matrix(GC_SPEC, pts, pts))
    # the block, plus a strip's temporaries; gathering it again would double it
    assert m.values.nbytes < peak < 1.5 * m.values.nbytes
    assert m.values.tobytes() == build_matrix(GC_SPEC, pts + pts[:1], pts + pts[:1]).values[:400, :400].tobytes()


def test_matrix_checks_a_valid_block_without_a_mask():
    pts = [GeoPoint(0, i / 100) for i in range(400)]
    values = build_matrix(GC_SPEC, pts, pts).values
    peak, _ = peak_bytes(lambda: DistanceMatrix(pts, pts, values, "x"))
    assert peak < values.size / 4  # a bool mask would be values.size bytes
    peak, fault = peak_bytes(lambda: matrix_fault(values, diagonal=True))
    assert fault is None and peak < values.size / 4


@pytest.mark.parametrize(
    "cells, message",
    [
        ({(0, 1): math.nan}, "matrix contains non-finite values"),
        ({(0, 1): math.inf}, "matrix contains non-finite values"),
        ({(0, 1): -1.0}, "matrix contains negative distances"),
        ({(0, 1): -1.0, (1, 0): math.inf}, "matrix contains non-finite values"),  # non-finite named first
        ({(0, 1): -math.inf}, "matrix contains non-finite values"),
        ({(0, 0): 1.0}, "nonzero diagonal at index 0"),
    ],
)
def test_matrix_names_the_fault(cells, message):
    pts = [GeoPoint(0, 0), GeoPoint(0, 1)]
    values = np.array([[0.0, 1.0], [1.0, 0.0]])
    for cell, value in cells.items():
        values[cell] = value
    with pytest.raises(DistanceError, match=f"^{message}"):
        DistanceMatrix(pts, pts, values, "x")


# --- the size limit ---------------------------------------------------------

@pytest.mark.parametrize("spec", [GC_SPEC, TABLE_SPEC])
def test_build_refuses_a_matrix_over_the_limit_before_any_work(monkeypatch, spec):
    monkeypatch.setattr(distance, "MAX_MATRIX_BYTES", 3 * 4 * 8 - 1)
    transport = MockTableTransport()
    src = [GeoPoint(0, i) for i in range(3)]
    dst = [GeoPoint(1, i) for i in range(4)]
    with pytest.raises(DistanceError, match=r"^a 3 x 4 distance matrix needs 96 bytes, over the limit of 95 bytes$"):
        build_matrix(spec, src, dst, transport=transport)
    assert transport.requests_seen == []
    monkeypatch.setattr(distance, "MAX_MATRIX_BYTES", 3 * 4 * 8)
    assert build_matrix(spec, src, dst, transport=transport).shape == (3, 4)


def test_the_limit_holds_a_paper_scale_matrix_and_refuses_a_runaway_one():
    distance.require_fits(3_000, 3_000)
    with pytest.raises(DistanceError, match=r"needs 3,200,960,072 bytes, over the limit of 2,147,483,648 bytes"):
        distance.require_fits(20_003, 20_003)  # weight_cap 20000 on two rows


@pytest.mark.parametrize(
    "cells, message",
    [
        ({(1, 2): math.nan}, "matrix contains non-finite values: non-finite cell at (1, 2) is nan"),
        ({(2, 0): -math.inf}, "matrix contains non-finite values: non-finite cell at (2, 0) is -inf"),
        ({(0, 1): -1.0, (2, 2): math.inf}, "matrix contains non-finite values: non-finite cell at (2, 2) is inf"),
        ({(2, 1): -0.5, (1, 0): -2.0}, "matrix contains negative distances: negative cell at (1, 0) is -2.0"),
        ({(2, 2): 3.0, (1, 1): 4.0}, "nonzero diagonal at index 1: nonzero diagonal cell at (1, 1) is 4.0"),
    ],
)
def test_matrix_and_solvers_raise_one_contract_fault(cells, message):
    # the first fault in row-major order, non-finite before negative before
    # the diagonal, worded alike by every layer that checks the contract
    pts = [GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(0, 2)]
    values = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    for cell, value in cells.items():
        values[cell] = value
    assert matrix_fault(values, diagonal=True) == message
    with pytest.raises(DistanceError) as matrix_error:
        DistanceMatrix(pts, pts, values, "x")
    with pytest.raises(SolveError) as solve_error:
        solve(values, SolveParams(k=1))
    with pytest.raises(SolveError) as oracle_error:
        brute_force_solve(values, 1)
    assert str(matrix_error.value) == str(solve_error.value) == str(oracle_error.value) == message


def test_matrix_fault_passes_a_valid_or_empty_matrix():
    assert matrix_fault(np.array([[0.0, 2.0], [3.0, 0.0]]), diagonal=True) is None
    assert matrix_fault(np.array([[5.0, 2.0], [3.0, 5.0]]), diagonal=False) is None
    assert matrix_fault(np.empty((0, 0)), diagonal=True) is None


# --- a file written before the trailer lost created_at ------------------------

def write_dmat_with_created_at(matrix, path) -> None:
    """Write matrix in the DMAT1 layout of the release that still wrote a
    created_at key into the trailer, byte for byte as it wrote it."""
    block = np.ascontiguousarray(matrix.values, dtype="<f8").tobytes()
    trailer = json.dumps(
        {
            "seed": 606,
            "config_hash": "da16d5554b952777",
            "sources": [[p.lat, p.lon] for p in matrix.sources],
            "destinations": [[p.lat, p.lon] for p in matrix.destinations],
            "provider_tag": matrix.provider_tag,
            "created_at": "2023-11-14T22:13:20Z",
            "crc32": zlib.crc32(block) & 0xFFFFFFFF,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    path.write_bytes(b"DMAT1" + struct.pack("<II", *matrix.shape) + block + struct.pack("<I", len(trailer)) + trailer)


def test_a_file_with_created_at_loads_as_the_same_matrix(tmp_path):
    pts = [GeoPoint(39.0 + i / 50, -86.0 - i / 70) for i in range(12)] * 2
    fresh = build_matrix(GC_SPEC, pts, pts)
    old = tmp_path / "old.dmat"
    write_dmat_with_created_at(fresh, old)
    for back in (load_matrix(old), load_matrix(old, pts, "great_circle")):
        assert back == fresh and back.values.tobytes() == fresh.values.tobytes()
    # written again, it loses only the created_at key, and rewrites byte-stably
    meta = {"seed": 606, "config_hash": "da16d5554b952777"}
    once, twice = tmp_path / "once.dmat", tmp_path / "twice.dmat"
    save_matrix(load_matrix(old), once, meta=meta)
    save_matrix(load_matrix(once), twice, meta=meta)
    assert once.read_bytes() == twice.read_bytes()
    end = 13 + fresh.values.nbytes
    assert once.read_bytes()[:end] == old.read_bytes()[:end]  # header and float block
    trailer = json.loads(old.read_bytes()[end + 4 :])
    del trailer["created_at"]
    assert json.loads(once.read_bytes()[end + 4 :]) == trailer


def test_saved_bytes_do_not_depend_on_the_clock(tmp_path, monkeypatch):
    # SOURCE_DATE_EPOCH once pinned a written time; nothing reads it now
    pts = [GeoPoint(0, i / 10) for i in range(5)]
    save_matrix(build_matrix(GC_SPEC, pts, pts), tmp_path / "a.dmat")
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "86400")
    save_matrix(build_matrix(GC_SPEC, pts, pts), tmp_path / "b.dmat")
    assert (tmp_path / "a.dmat").read_bytes() == (tmp_path / "b.dmat").read_bytes()
