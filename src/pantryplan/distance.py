"""Distance matrices from pluggable providers, plus a binary cache.

Two providers: an OSRM-compatible table-API client (chunked GET requests,
distances in meters, null cells mean unreachable) and an offline great-circle
fallback. Matrices are dense sources x destinations, row-major float64,
always meters; road matrices are directed, so no symmetry is assumed.

The great-circle provider computes one haversine per distinct pair of exact
(lat, lon) coordinates and gathers the full matrix from that block, so the
repeated rows of duplication weighting cost no extra trigonometry. Each cell is
bit-identical to great_circle(a, b): the loop keeps its operation order and
uses the same libm calls (numpy's arcsin and x**2 differ in the last bit).

Cache format (DMAT1):

    magic b"DMAT1" | u32 rows | u32 cols | rows*cols float64 (LE, row-major)
    | u32 trailer length | UTF-8 JSON trailer

The trailer holds sources, destinations, provider_tag, created_at and a
CRC32 of the float block. All integers little-endian.
"""

from __future__ import annotations

import json
import math
import os
import struct
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from numbers import Integral
from typing import Optional, Sequence

import numpy as np

from .errors import DistanceError, MatrixFormatError, UnreachablePairsError

EARTH_RADIUS_M = 6_371_000.0
MAGIC = b"DMAT1"
RETRY_ATTEMPTS = 3
RETRY_BASE_SECONDS = 0.5


@dataclass(frozen=True)
class GeoPoint:
    """WGS84 coordinate in degrees; both components finite and in range."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError(f"non-finite coordinate ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} out of [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} out of [-180, 180]")


@dataclass(frozen=True)
class ProviderSpec:
    kind: str = "great_circle"  # great_circle | table_api
    base_url: Optional[str] = None
    chunk_size: int = 100  # max coordinates (sources + destinations) per request
    earth_radius: float = EARTH_RADIUS_M

    def __post_init__(self):
        if self.kind not in ("great_circle", "table_api"):
            raise DistanceError(f"unknown provider kind {self.kind!r}")
        if isinstance(self.chunk_size, bool) or not isinstance(self.chunk_size, Integral):
            raise DistanceError(f"chunk_size must be an integer, got {self.chunk_size!r}")
        if self.chunk_size < 2:
            raise DistanceError(f"chunk_size must be >= 2, got {self.chunk_size}")
        if (self.kind == "table_api") != (self.base_url is not None):
            raise DistanceError("base_url is required for table_api and forbidden otherwise")


class DistanceMatrix:
    """Immutable dense matrix of nonnegative finite distances in meters."""

    def __init__(self, sources, destinations, values, provider_tag: str, created_at: Optional[str] = None):
        self.sources = tuple(sources)
        self.destinations = tuple(destinations)
        vals = np.asarray(values, dtype=np.float64)
        if vals.shape != (len(self.sources), len(self.destinations)):
            raise DistanceError(
                f"values shape {vals.shape} does not match "
                f"{len(self.sources)}x{len(self.destinations)} points"
            )
        if not np.all(np.isfinite(vals)):
            raise DistanceError("matrix contains non-finite values")
        if np.any(vals < 0):
            raise DistanceError("matrix contains negative distances")
        if self.sources == self.destinations and len(self.sources) > 0:
            diag = np.diagonal(vals)
            if np.any(diag != 0.0):
                bad = int(np.argmax(diag != 0.0))
                raise DistanceError(f"nonzero diagonal at index {bad} for identical source/destination lists")
        vals.setflags(write=False)
        self.values = vals
        self.provider_tag = provider_tag
        self.created_at = created_at or _now_iso()

    @property
    def shape(self):
        return self.values.shape

    def __eq__(self, other):
        if not isinstance(other, DistanceMatrix):
            return NotImplemented
        return (
            self.sources == other.sources
            and self.destinations == other.destinations
            and np.array_equal(self.values, other.values)
            and self.provider_tag == other.provider_tag
            and self.created_at == other.created_at
        )


def _now_iso() -> str:
    """Current UTC time; SOURCE_DATE_EPOCH pins it for reproducible runs."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    ts = int(epoch) if epoch else int(time.time())
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def great_circle(a: GeoPoint, b: GeoPoint, earth_radius: float = EARTH_RADIUS_M) -> float:
    """Haversine distance in meters on a sphere of the given radius."""
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    s = math.sin((lat2 - lat1) / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2.0) ** 2
    return earth_radius * 2.0 * math.asin(min(1.0, math.sqrt(s)))


def _fmt_coord(p: GeoPoint) -> str:
    # lon-first, at most 6 decimals, trailing zeros trimmed
    def fmt(v: float) -> str:
        s = f"{v:.6f}".rstrip("0").rstrip(".")
        return s if s not in ("", "-0") else "0"

    return f"{fmt(p.lon)},{fmt(p.lat)}"


def table_url(spec: ProviderSpec, sources: Sequence[GeoPoint], destinations: Sequence[GeoPoint]) -> str:
    coords = ";".join(_fmt_coord(p) for p in list(sources) + list(destinations))
    src_idx = ";".join(str(i) for i in range(len(sources)))
    dst_idx = ";".join(str(len(sources) + j) for j in range(len(destinations)))
    return (
        f"{spec.base_url.rstrip('/')}/table/v1/driving/{coords}"
        f"?sources={src_idx}&destinations={dst_idx}&annotations=distance"
    )


class RequestsTransport:
    """Default HTTP transport; returns (status_code, parsed JSON body)."""

    def __init__(self, timeout: float = 30.0):
        import requests  # deferred: the great-circle path never needs it

        self.timeout = timeout
        self._session = requests.Session()

    def get(self, url: str):
        import requests

        try:
            resp = self._session.get(url, timeout=self.timeout)
        except (requests.ConnectionError, requests.Timeout) as exc:
            raise TransportError(str(exc)) from exc
        try:
            body = resp.json()
        except ValueError:
            body = None
        return resp.status_code, body


class TransportError(DistanceError):
    """Network-level failure; the only error class that is retried."""


class FixtureTransport:
    """Replays recorded request-URL -> response-body pairs, no network."""

    def __init__(self, fixtures: dict):
        self.fixtures = dict(fixtures)
        self.requests_seen = []

    def get(self, url: str):
        self.requests_seen.append(url)
        if url not in self.fixtures:
            raise TransportError(f"no fixture recorded for {url}")
        return 200, self.fixtures[url]


def table_request(
    spec: ProviderSpec,
    sources: Sequence[GeoPoint],
    destinations: Sequence[GeoPoint],
    transport=None,
) -> np.ndarray:
    """One GET against the table endpoint; returns the distances block.

    Transport failures are retried up to RETRY_ATTEMPTS with exponential
    backoff; HTTP errors and null (unreachable) cells are not retried.
    """
    if spec.kind != "table_api":
        raise DistanceError("table_request needs a table_api provider")
    if transport is None:
        transport = RequestsTransport()
    url = table_url(spec, sources, destinations)

    last = None
    for attempt in range(RETRY_ATTEMPTS):
        try:
            status, body = transport.get(url)
            break
        except TransportError as exc:
            last = exc
            if attempt + 1 < RETRY_ATTEMPTS:
                time.sleep(RETRY_BASE_SECONDS * 2**attempt)
    else:
        raise DistanceError(f"table request failed after {RETRY_ATTEMPTS} attempts: {last}")

    if status != 200:
        raise DistanceError(f"table request returned HTTP {status}: {url}")
    if not isinstance(body, dict) or "distances" not in body:
        raise DistanceError(f"malformed table response (no 'distances'): {url}")
    rows = body["distances"]
    if len(rows) != len(sources) or any(len(r) != len(destinations) for r in rows):
        raise DistanceError(f"table response shape mismatch: {url}")

    bad = [(i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if v is None]
    if bad:
        raise UnreachablePairsError(bad)
    return np.asarray(rows, dtype=np.float64)


def _tiles(n_src: int, n_dst: int, chunk_size: int):
    side = max(1, chunk_size // 2)
    for r0 in range(0, n_src, side):
        for c0 in range(0, n_dst, side):
            yield r0, min(r0 + side, n_src), c0, min(c0 + side, n_dst)


def provider_tag(spec: ProviderSpec) -> str:
    """The tag a matrix built from spec carries; a cached matrix is reusable
    for spec only if its tag is this one."""
    if spec.kind == "table_api":
        return f"table:{spec.base_url}"
    if spec.earth_radius == EARTH_RADIUS_M:
        return "great_circle"
    return f"great_circle:{spec.earth_radius!r}"


def _distinct(points: Sequence[GeoPoint]):
    """Distinct exact (lat, lon) pairs in first-seen order, and each point's
    index among them."""
    first: dict = {}
    inverse = [first.setdefault((p.lat, p.lon), len(first)) for p in points]
    return list(first), np.asarray(inverse, dtype=np.intp)


def _great_circle_values(sources, destinations, earth_radius: float) -> np.ndarray:
    """great_circle for every (source, destination) cell, each distinct pair
    of coordinates computed once, with great_circle's own arithmetic."""
    src, si = _distinct(sources)
    dst, di = _distinct(destinations)
    ends = []
    for lat, lon in dst:
        lat2 = math.radians(lat)
        ends.append((lat2, math.radians(lon), math.cos(lat2)))
    asin, sin, sqrt = math.asin, math.sin, math.sqrt  # locals: the loop below is the hot path
    diameter = earth_radius * 2.0
    block = np.empty((len(src), len(dst)), dtype=np.float64)
    for i, (lat, lon) in enumerate(src):
        lat1, lon1 = math.radians(lat), math.radians(lon)
        cos1 = math.cos(lat1)
        block[i] = [
            diameter * asin(min(1.0, sqrt(sin((lat2 - lat1) / 2.0) ** 2 + cos1 * cos2 * sin((lon2 - lon1) / 2.0) ** 2)))
            for lat2, lon2, cos2 in ends
        ]
    return block[np.ix_(si, di)]


def build_matrix(
    spec: ProviderSpec,
    sources: Sequence[GeoPoint],
    destinations: Sequence[GeoPoint],
    transport=None,
    max_in_flight: int = 4,
) -> DistanceMatrix:
    """Full matrix from the provider; table requests are tiled and fetched
    concurrently, with tile placement independent of completion order.

    Any unreachable pair aborts the build; the error lists every bad pair
    across all tiles, in global (source, destination) indices.
    """
    sources = list(sources)
    destinations = list(destinations)
    if not sources or not destinations:
        raise DistanceError("sources and destinations must be nonempty")

    if spec.kind == "great_circle":
        values = _great_circle_values(sources, destinations, spec.earth_radius)
        return DistanceMatrix(sources, destinations, values, provider_tag(spec))

    if transport is None:
        transport = RequestsTransport()
    values = np.empty((len(sources), len(destinations)), dtype=np.float64)
    tiles = list(_tiles(len(sources), len(destinations), spec.chunk_size))

    def fetch(tile):
        r0, r1, c0, c1 = tile
        return table_request(spec, sources[r0:r1], destinations[c0:c1], transport)

    unreachable = []
    hard_error = None
    with ThreadPoolExecutor(max_workers=max(1, max_in_flight)) as pool:
        futures = [pool.submit(fetch, t) for t in tiles]
        for (r0, r1, c0, c1), future in zip(tiles, futures):
            try:
                values[r0:r1, c0:c1] = future.result()
            except UnreachablePairsError as exc:
                unreachable.extend((r0 + i, c0 + j) for i, j in exc.pairs)
            except DistanceError as exc:
                hard_error = hard_error or exc

    if hard_error is not None:
        raise hard_error
    if unreachable:
        raise UnreachablePairsError(unreachable)

    return DistanceMatrix(sources, destinations, values, provider_tag(spec))


def save_matrix(matrix: DistanceMatrix, path, meta: Optional[dict] = None) -> None:
    """Write the DMAT1 cache file for a matrix.

    meta entries (seed, config hash, ...) are merged into the JSON trailer;
    readers ignore keys they do not know.
    """
    rows, cols = matrix.shape
    block = np.ascontiguousarray(matrix.values, dtype="<f8").tobytes()
    trailer = json.dumps(
        {
            **(meta or {}),
            "sources": [[p.lat, p.lon] for p in matrix.sources],
            "destinations": [[p.lat, p.lon] for p in matrix.destinations],
            "provider_tag": matrix.provider_tag,
            "created_at": matrix.created_at,
            "crc32": zlib.crc32(block) & 0xFFFFFFFF,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", rows, cols))
        fh.write(block)
        fh.write(struct.pack("<I", len(trailer)))
        fh.write(trailer)


def load_matrix(path) -> DistanceMatrix:
    """Read a DMAT1 cache file back into a DistanceMatrix, bit-exact."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MAGIC) + 8 or data[: len(MAGIC)] != MAGIC:
        raise MatrixFormatError(f"{path}: not a DMAT1 file")
    rows, cols = struct.unpack_from("<II", data, len(MAGIC))
    off = len(MAGIC) + 8
    nbytes = rows * cols * 8
    if len(data) < off + nbytes + 4:
        raise MatrixFormatError(f"{path}: truncated float block")
    block = data[off : off + nbytes]
    off += nbytes
    (tlen,) = struct.unpack_from("<I", data, off)
    off += 4
    if len(data) < off + tlen:
        raise MatrixFormatError(f"{path}: truncated trailer")
    try:
        trailer = json.loads(data[off : off + tlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MatrixFormatError(f"{path}: bad trailer: {exc}") from None
    if zlib.crc32(block) & 0xFFFFFFFF != trailer.get("crc32"):
        raise MatrixFormatError(f"{path}: checksum mismatch")
    values = np.frombuffer(block, dtype="<f8").reshape(rows, cols)
    return DistanceMatrix(
        sources=[GeoPoint(lat, lon) for lat, lon in trailer["sources"]],
        destinations=[GeoPoint(lat, lon) for lat, lon in trailer["destinations"]],
        values=values,
        provider_tag=trailer["provider_tag"],
        created_at=trailer["created_at"],
    )
