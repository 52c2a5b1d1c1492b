"""Distance matrices from pluggable providers, plus a binary cache.

Two providers: an OSRM-compatible table-API client (chunked GET requests,
distances in meters, null cells mean unreachable) and an offline great-circle
fallback. Matrices are dense sources x destinations, row-major float64,
always meters; road matrices are directed, so no symmetry is assumed.

The table client's default transport is the standard library's http.client,
imported on first use, with one keep-alive connection per tile thread and no
proxy. Network failures and HTTP 429 and 503 are retried with backoff; any
other failure stops the build from sending further tiles.

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
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, nullcontext
from dataclasses import dataclass
from datetime import datetime, timezone
from numbers import Integral, Real
from typing import Optional, Sequence
from urllib.parse import urlsplit

import numpy as np

from .errors import DistanceError, MatrixFormatError, UnreachablePairsError

EARTH_RADIUS_M = 6_371_000.0
MAGIC = b"DMAT1"
RETRY_ATTEMPTS = 3
RETRY_BASE_SECONDS = 0.5
RETRY_STATUSES = (429, 503)  # too many requests, unavailable: worth asking again


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
        if self.base_url is not None and not isinstance(self.base_url, str):
            raise DistanceError(f"base_url must be a string, got {self.base_url!r}")
        if (self.kind == "table_api") != (self.base_url is not None):
            raise DistanceError("base_url is required for table_api and forbidden otherwise")
        r = self.earth_radius
        if isinstance(r, bool) or not isinstance(r, Real) or not (math.isfinite(r) and r > 0):
            raise DistanceError(f"earth_radius must be a positive finite number, got {r!r}")


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


class TransportError(DistanceError):
    """Network-level failure; with HTTP 429 and 503, the only failure that is
    retried."""


class RequestsTransport:
    """Default HTTP transport on http.client; get(url) returns (status code,
    parsed JSON body or None).

    Each thread that calls get keeps its own keep-alive connection per host
    (HTTPS for https URLs), so build_matrix's tile threads never share one.
    A reused connection that the server closed while it sat idle is reopened
    and the request sent once more at once; any other network failure, or a
    timeout, raises TransportError. Proxy settings (HTTP_PROXY, HTTPS_PROXY)
    are not consulted: requests go straight to the host in the URL. close()
    closes every connection the transport opened.
    """

    def __init__(self, timeout: float = 30.0):
        self.timeout = timeout
        self._local = threading.local()
        self._lock = threading.Lock()
        self._opened = []

    def _connection(self, parts):
        import http.client  # deferred: it loads ssl, which the great-circle path never needs

        if not hasattr(self._local, "conns"):
            self._local.conns = {}
        conn = self._local.conns.get((parts.scheme, parts.netloc))
        if conn is None:
            kinds = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}
            if parts.scheme not in kinds or not parts.hostname:
                raise DistanceError(f"table URL needs an http or https host: {parts.geturl()}")
            try:
                port = parts.port or kinds[parts.scheme].default_port
            except ValueError as exc:  # a port that is not a number in 0-65535
                raise DistanceError(f"table URL {parts.geturl()}: {exc}") from None
            conn = kinds[parts.scheme](parts.hostname, port, timeout=self.timeout)
            self._local.conns[(parts.scheme, parts.netloc)] = conn
            with self._lock:
                self._opened.append(conn)
        return conn

    def get(self, url: str):
        import http.client

        parts = urlsplit(url)
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        conn = self._connection(parts)
        reused = conn.sock is not None
        try:
            try:
                status, payload = _exchange(conn, target)
            except ConnectionError:
                if not reused:
                    raise
                conn.close()  # dropped by the server while idle: a new socket, no backoff
                status, payload = _exchange(conn, target)
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise TransportError(f"{type(exc).__name__}: {exc}") from exc
        try:
            body = json.loads(payload)
        except ValueError:  # not JSON, or not UTF-8
            body = None
        return status, body

    def close(self) -> None:
        with self._lock:
            for conn in self._opened:
                conn.close()


def _exchange(conn, target: str):
    """One GET on conn, the body read to the end so the connection can be
    reused."""
    conn.request("GET", target)
    response = conn.getresponse()
    return response.status, response.read()


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

    def close(self) -> None:
        pass


def _or_default(transport):
    """A context giving transport, or when it is None a RequestsTransport
    that is closed on exit."""
    return closing(RequestsTransport()) if transport is None else nullcontext(transport)


def table_request(
    spec: ProviderSpec,
    sources: Sequence[GeoPoint],
    destinations: Sequence[GeoPoint],
    transport=None,
) -> np.ndarray:
    """One GET against the table endpoint; returns the distances block.

    A TransportError, HTTP 429 (too many requests) or HTTP 503 (unavailable)
    is retried, up to RETRY_ATTEMPTS in all, after sleeping
    RETRY_BASE_SECONDS * 2**attempt (0.5 s, then 1 s). Any other HTTP status
    but 200, a malformed body and null (unreachable) cells are not retried.
    """
    if spec.kind != "table_api":
        raise DistanceError("table_request needs a table_api provider")
    url = table_url(spec, sources, destinations)

    with _or_default(transport) as transport:
        for attempt in range(RETRY_ATTEMPTS):
            try:
                status, body = transport.get(url)
            except TransportError as exc:
                last = str(exc)
            else:
                if status not in RETRY_STATUSES:
                    break
                last = f"HTTP {status}"
            if attempt + 1 < RETRY_ATTEMPTS:
                time.sleep(RETRY_BASE_SECONDS * 2**attempt)
        else:
            raise DistanceError(f"table request failed after {RETRY_ATTEMPTS} attempts: {last}: {url}")

    if status != 200:
        raise DistanceError(f"table request returned HTTP {status}: {url}")
    if not isinstance(body, dict) or "distances" not in body:
        raise DistanceError(f"malformed table response (no 'distances'): {url}")
    return _distances(body["distances"], len(sources), len(destinations), url)


def _distances(rows, n_src: int, n_dst: int, url: str) -> np.ndarray:
    """The n_src x n_dst float64 block of a response's distances.

    numpy infers a numeric dtype when every cell is a JSON number (true and
    false among numbers pass as 1 and 0), so the cells are looked at one by
    one only when it does not: a cell that is not a number raises
    DistanceError, and null cells raise UnreachablePairsError listing every
    one. NaN, Infinity and integers past float64's range are refused too.
    """
    try:
        block = np.asarray(rows)
    except ValueError:  # ragged rows
        block = None
    if block is None or block.shape != (n_src, n_dst):
        raise DistanceError(f"table response shape mismatch: {url}")
    if block.dtype.kind not in "iuf":  # a null, a string, an object, or an int past 64 bits
        cells = [(i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row)]
        for i, j, v in cells:
            if v is not None and (isinstance(v, bool) or not isinstance(v, (int, float))):
                raise DistanceError(f"table response cell ({i}, {j}) is not a number ({v!r}): {url}")
        bad = [(i, j) for i, j, v in cells if v is None]
        if bad:
            raise UnreachablePairsError(bad)
        try:
            block = np.asarray(rows, dtype=np.float64)
        except OverflowError:
            block = None
    if block is None or not np.isfinite(block).all():
        raise DistanceError(f"table response has a distance that is not finite: {url}")
    return block.astype(np.float64, copy=False)


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
    across all tiles, in global (source, destination) indices. Any other
    DistanceError stops the build from sending tiles it has not sent yet,
    and the first such error in tile order is raised. Without a transport,
    a RequestsTransport is made for the call and closed after it.
    """
    sources = list(sources)
    destinations = list(destinations)
    if not sources or not destinations:
        raise DistanceError("sources and destinations must be nonempty")

    if spec.kind == "great_circle":
        values = _great_circle_values(sources, destinations, spec.earth_radius)
        return DistanceMatrix(sources, destinations, values, provider_tag(spec))

    values = np.empty((len(sources), len(destinations)), dtype=np.float64)
    tiles = list(_tiles(len(sources), len(destinations), spec.chunk_size))
    stop = threading.Event()  # set by the first hard error: tiles not yet sent are skipped

    def fetch(tile):
        if stop.is_set():
            return None
        r0, r1, c0, c1 = tile
        try:
            return table_request(spec, sources[r0:r1], destinations[c0:c1], transport)
        except UnreachablePairsError:
            raise
        except DistanceError:
            stop.set()
            raise

    unreachable = []
    hard_error = None
    # the pool's threads are joined before the transport is closed
    with _or_default(transport) as transport, ThreadPoolExecutor(max_workers=max(1, max_in_flight)) as pool:
        futures = [pool.submit(fetch, t) for t in tiles]
        for (r0, r1, c0, c1), future in zip(tiles, futures):
            try:
                block = future.result()
            except UnreachablePairsError as exc:
                unreachable.extend((r0 + i, c0 + j) for i, j in exc.pairs)
            except DistanceError as exc:
                hard_error = hard_error or exc
            else:
                if block is not None:
                    values[r0:r1, c0:c1] = block

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
