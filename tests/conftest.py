import json
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pantryplan.distance as distance
from pantryplan.distance import GeoPoint, ProviderSpec, build_matrix, great_circle

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def data_dir():
    return DATA_DIR


@pytest.fixture
def sleeps(monkeypatch):
    """The seconds each retry backoff would have slept; nothing sleeps."""
    slept = []
    monkeypatch.setattr(distance.time, "sleep", slept.append)
    return slept


def planar_matrix(rng: np.random.Generator, n: int, scale: float = 1000.0) -> np.ndarray:
    """Euclidean distance matrix of n random points in a scale x scale box."""
    pts = rng.uniform(0.0, scale, size=(n, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    np.fill_diagonal(d, 0.0)
    return d


def peak_bytes(call):
    """(the peak of the memory tracemalloc traces during call(), its result)."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def household_matrix(households):
    """Great-circle matrix over the households' locations."""
    pts = [h.location for h in households]
    return build_matrix(ProviderSpec(kind="great_circle"), pts, pts)


def line_matrix(coords) -> np.ndarray:
    """Pairwise absolute differences of 1-D coordinates."""
    c = np.asarray(coords, dtype=np.float64)
    return np.abs(c[:, None] - c[None, :])


class MockTableTransport:
    """Offline table service, the one fake transport of the tests.

    By default its metric is a scalable great-circle: it parses coordinates
    and source/destination indices straight out of the request URL, so any
    chunking must reassemble to the same matrix. Given fixtures, a dict of
    recorded request URL -> response body, it replays those instead, and a
    URL with no recording raises TransportError.
    """

    def __init__(self, scale: float = 1.0, fixtures: dict | None = None):
        self.scale = scale
        self.fixtures = fixtures
        self.requests_seen = []

    def get(self, url: str):
        self.requests_seen.append(url)
        if self.fixtures is not None:
            if url not in self.fixtures:
                raise distance.TransportError(f"no fixture recorded for {url}")
            return 200, self.fixtures[url]
        m = re.match(r".*/table/v1/driving/([^?]*)\?sources=([^&]*)&destinations=([^&]*)&annotations=distance", url)
        coords = [tuple(map(float, part.split(","))) for part in m.group(1).split(";")]
        src = [int(i) for i in m.group(2).split(";")]
        dst = [int(j) for j in m.group(3).split(";")]
        rows = []
        for i in src:
            a = GeoPoint(coords[i][1], coords[i][0])
            rows.append(
                [self.scale * great_circle(a, GeoPoint(coords[j][1], coords[j][0])) for j in dst]
            )
        return 200, {"code": "Ok", "distances": rows}

    def close(self) -> None:
        pass


def rewrite_trailer(path, edit) -> None:
    """Replace a DMAT1 file's JSON trailer by edit(trailer), or by its text
    if edit returns a str; the float block and the trailer's CRC of it stay
    as they were."""
    data = Path(path).read_bytes()
    rows, cols = struct.unpack_from("<II", data, len(distance.MAGIC))
    end = len(distance.MAGIC) + 8 + rows * cols * 8
    edited = edit(json.loads(data[end + 4 :]))
    text = (edited if isinstance(edited, str) else json.dumps(edited)).encode()
    Path(path).write_bytes(data[:end] + struct.pack("<I", len(text)) + text)


def load_table_fixtures() -> dict:
    with open(DATA_DIR / "table_fixtures.json", encoding="utf-8") as fh:
        return json.load(fh)
