"""build_matrix over the table provider through fake transports that fail
in scripted ways: retries and their backoff schedule, HTTP errors that are
not retried, malformed bodies, unreachable cells spread across tiles, and a
failing tile while others are in flight."""

import threading

import numpy as np
import pytest

from pantryplan.distance import GeoPoint, ProviderSpec, TransportError, build_matrix, table_url
from pantryplan.errors import DistanceError, UnreachablePairsError

from conftest import MockTableTransport

# chunk_size 4 makes 2 x 2 tiles: 5 points give 3 x 3 tiles
SPEC = ProviderSpec(kind="table_api", base_url="http://osrm.test", chunk_size=4)
POINTS = [GeoPoint(34.0 + 0.01 * i, -118.0 - 0.02 * i) for i in range(5)]
FIRST_TILE = table_url(SPEC, POINTS[0:2], POINTS[0:2])


def reference():
    return build_matrix(SPEC, POINTS, POINTS, transport=MockTableTransport()).values


class Scripted(MockTableTransport):
    """The mock table service, except that the n-th request for a URL in
    script gets script[url][n] while there is one: an exception to raise or
    a (status, body) reply."""

    def __init__(self, script):
        super().__init__()
        self.script = {url: list(replies) for url, replies in script.items()}
        self.lock = threading.Lock()

    def get(self, url):
        with self.lock:
            replies = self.script.get(url)
            reply = replies.pop(0) if replies else None
        if reply is None:
            return super().get(url)
        self.requests_seen.append(url)
        if isinstance(reply, Exception):
            raise reply
        return reply

    def count(self, url):
        return self.requests_seen.count(url)


def test_transient_transport_errors_then_success(sleeps):
    fake = Scripted({FIRST_TILE: [TransportError("reset"), TransportError("reset")]})
    m = build_matrix(SPEC, POINTS, POINTS, transport=fake)
    assert np.array_equal(m.values, reference())
    assert fake.count(FIRST_TILE) == 3 and len(fake.requests_seen) == 9 + 2
    assert sleeps == [0.5, 1.0]


@pytest.mark.parametrize("status", [429, 503])
def test_rate_limited_and_unavailable_are_retried(sleeps, status):
    fake = Scripted({FIRST_TILE: [(status, {"message": "later"}), (status, None)]})
    m = build_matrix(SPEC, POINTS, POINTS, transport=fake)
    assert np.array_equal(m.values, reference())
    assert fake.count(FIRST_TILE) == 3
    assert sleeps == [0.5, 1.0]


@pytest.mark.parametrize("status", [429, 503])
def test_retried_status_gives_up_after_three_attempts(sleeps, status):
    fake = Scripted({FIRST_TILE: [(status, None)] * 3})
    with pytest.raises(DistanceError, match=f"after 3 attempts: HTTP {status}") as err:
        build_matrix(SPEC, POINTS, POINTS, transport=fake, max_in_flight=1)
    assert FIRST_TILE in str(err.value)
    assert fake.count(FIRST_TILE) == 3 and len(fake.requests_seen) == 3
    assert sleeps == [0.5, 1.0]


@pytest.mark.parametrize("status", [400, 404, 500])
def test_other_http_errors_are_not_retried(sleeps, status):
    fake = Scripted({FIRST_TILE: [(status, {"code": "InvalidQuery"})]})
    with pytest.raises(DistanceError, match=f"HTTP {status}") as err:
        build_matrix(SPEC, POINTS, POINTS, transport=fake)
    assert not isinstance(err.value, UnreachablePairsError)
    assert FIRST_TILE in str(err.value)
    assert fake.count(FIRST_TILE) == 1
    assert sleeps == []


@pytest.mark.parametrize(
    "body, message",
    [
        (None, "malformed table response"),  # what the transport returns for a body that is not JSON
        ("<html>busy</html>", "malformed table response"),
        ({"code": "Ok"}, "malformed table response"),
        ({"code": "Ok", "distances": [[0.0, 1.0]]}, "shape mismatch"),  # one row short
        ({"code": "Ok", "distances": [[0.0, 1.0], [1.0]]}, "shape mismatch"),  # ragged
        ({"code": "Ok", "distances": [[[0.0], [1.0]], [[1.0], [0.0]]]}, "shape mismatch"),
        ({"code": "Ok", "distances": [[0.0, [1.0]], [1.0, 0.0]]}, "shape mismatch"),
        ({"code": "Ok", "distances": 7}, "shape mismatch"),
        ({"code": "Ok", "distances": [["x", 1], [1, 0]]}, r"cell \(0, 0\) is not a number \('x'\)"),
        ({"code": "Ok", "distances": [[0, {}], [1, 0]]}, r"cell \(0, 1\) is not a number \(\{\}\)"),
        ({"code": "Ok", "distances": [[0, "1.5"], [1, 0]]}, r"cell \(0, 1\) is not a number"),
        ({"code": "Ok", "distances": [[0, None], [True, 0]]}, r"cell \(1, 0\) is not a number \(True\)"),
        ({"code": "Ok", "distances": [[0.0, True], [1.0, 0.0]]}, r"cell \(0, 1\) is not a number \(True\)"),
        ({"code": "Ok", "distances": [[0, 1], [False, 0]]}, r"cell \(1, 0\) is not a number \(False\)"),
        ({"code": "Ok", "distances": [[0, 1.5], [1, True]]}, r"cell \(1, 1\) is not a number \(True\)"),
        ({"code": "Ok", "distances": [[False, True], [True, False]]}, r"cell \(0, 0\) is not a number \(False\)"),
        ({"code": "Ok", "distances": [[0, float("nan")], [1, 0]]}, "not finite"),
        ({"code": "Ok", "distances": [[0, float("inf")], [1, 0]]}, "not finite"),
        ({"code": "Ok", "distances": [[0, 10**400], [1, 0]]}, "not finite"),
    ],
)
def test_malformed_bodies_name_the_url(sleeps, body, message):
    fake = Scripted({FIRST_TILE: [(200, body)]})
    with pytest.raises(DistanceError, match=message) as err:
        build_matrix(SPEC, POINTS, POINTS, transport=fake)
    assert not isinstance(err.value, UnreachablePairsError)
    assert FIRST_TILE in str(err.value)
    assert fake.count(FIRST_TILE) == 1
    assert sleeps == []


def test_integer_and_large_integer_cells_decode_as_floats():
    fake = Scripted({FIRST_TILE: [(200, {"distances": [[0, 2**64 + 1], [7, 0]]})]})
    m = build_matrix(SPEC, POINTS, POINTS, transport=fake)
    expected = reference().copy()
    expected[0:2, 0:2] = [[0.0, float(2**64 + 1)], [7.0, 0.0]]
    assert np.array_equal(m.values, expected)


def test_null_cells_across_tiles_are_reported_in_global_indices():
    null = {(0, 3), (1, 4), (2, 3), (3, 0), (4, 0), (4, 3)}  # in six of the nine tiles
    index = {(p.lon, p.lat): i for i, p in enumerate(POINTS)}

    class Nulls(MockTableTransport):
        def get(self, url):
            status, body = super().get(url)
            path, query = url.split("/table/v1/driving/")[1].split("?")
            coords = [index[tuple(map(float, c.split(",")))] for c in path.split(";")]
            params = dict(part.split("=") for part in query.split("&"))
            src = [coords[int(i)] for i in params["sources"].split(";")]
            dst = [coords[int(j)] for j in params["destinations"].split(";")]
            for i, row in enumerate(body["distances"]):
                for j in range(len(row)):
                    if (src[i], dst[j]) in null:
                        row[j] = None
            return status, body

    fake = Nulls()
    with pytest.raises(UnreachablePairsError) as err:
        build_matrix(SPEC, POINTS, POINTS, transport=fake)
    assert err.value.pairs == sorted(null)
    assert len(fake.requests_seen) == 9  # every tile is fetched: a null is not a hard error


def test_hard_errors_stop_sending_tiles(sleeps):
    # 100 x 100 at chunk_size 10: 20 x 20 tiles, every one answered HTTP 500
    points = [GeoPoint(10.0 + 0.001 * i, 20.0) for i in range(100)]
    spec = ProviderSpec(kind="table_api", base_url="http://osrm.test", chunk_size=10)
    sent = []

    class Fails:
        def get(self, url):
            sent.append(url)
            return 500, None

    with pytest.raises(DistanceError, match="HTTP 500") as err:
        build_matrix(spec, points, points, transport=Fails(), max_in_flight=4)
    assert table_url(spec, points[0:5], points[0:5]) in str(err.value)  # the first tile's error
    assert 1 <= len(sent) <= 4  # each tile thread sends at most the one tile that failed
    assert sleeps == []


def test_first_failing_tile_in_tile_order_wins_while_others_are_in_flight():
    # tile 0 is still in flight when tile 1 fails; tile 0 then fails as well
    points = [GeoPoint(10.0 + 0.001 * i, 20.0) for i in range(100)]
    spec = ProviderSpec(kind="table_api", base_url="http://osrm.test", chunk_size=10)
    tile0 = table_url(spec, points[0:5], points[0:5])
    tile1 = table_url(spec, points[0:5], points[5:10])
    tile1_failed = threading.Event()
    sent = []

    class Transport:
        def get(self, url):
            sent.append(url)
            if url == tile0:
                assert tile1_failed.wait(timeout=10)
                return 404, None
            tile1_failed.set()
            return 500, None

    with pytest.raises(DistanceError, match="HTTP 404") as err:
        build_matrix(spec, points, points, transport=Transport(), max_in_flight=2)
    assert tile0 in str(err.value)
    assert sorted(sent) == sorted([tile0, tile1])  # not the 400 tiles of the build


def test_a_tile_failing_after_others_succeeded_is_raised_and_later_tiles_are_not_sent():
    points = [GeoPoint(10.0 + 0.001 * i, 20.0) for i in range(100)]
    spec = ProviderSpec(kind="table_api", base_url="http://osrm.test", chunk_size=10)
    failing = table_url(spec, points[0:5], points[50:55])  # tile 10 in tile order
    fake = Scripted({failing: [(400, None)]})
    with pytest.raises(DistanceError, match="HTTP 400") as err:
        build_matrix(spec, points, points, transport=fake, max_in_flight=1)
    assert failing in str(err.value)
    assert len(fake.requests_seen) == 11
