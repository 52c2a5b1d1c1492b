"""Distance matrices from pluggable providers, plus a binary cache.

Two providers: an OSRM-compatible table-API client (chunked GET requests,
distances in meters, null cells mean unreachable) and an offline great-circle
fallback. Matrices are dense sources x destinations, row-major float64,
always meters; road matrices are directed, so no symmetry is assumed.

The table client's default transport is the standard library's http.client,
with one keep-alive connection per tile thread and no proxy. It and the
tiles' thread pool are imported on first use, so a great-circle build loads
neither. Network failures and HTTP 429 and 503 are retried with backoff; any
other failure stops the build from sending further tiles.

The great-circle provider computes one haversine per distinct pair of exact
(lat, lon) coordinates and gathers the full matrix from that block, so the
repeated rows of duplication weighting cost no extra trigonometry; when no
point repeats, the block is the matrix; otherwise two takes per strip of
rows gather it into the one output array. Each cell is bit-identical to
great_circle(a, b). The subtractions, halvings, products, sum, square root,
clamp to 1 and scaling by the diameter run in numpy, in great_circle's
order; IEEE rounds each of them correctly, so numpy and CPython agree. The
three calls whose result depends on libm stay libm calls, mapped over each
cell: math.sin, math.pow(x, 2.0) and math.asin. math.pow hands libm x where
great_circle's x ** 2 hands it |x|, so this rests on libm's pow being even
(tests check it on each libm CI runs). numpy's own versions are not the same
function: np.arcsin differs from math.asin in about 8% of arguments, and
x * x (np.square) from pow(x, 2) in about 0.09%; that np.sin matches
math.sin on one host is no guarantee for another.

Only the cells an output needs are computed. A square matrix (distinct
sources equal to distinct destinations) is computed one triangle at a time
and mirrored: great_circle(a, b) == great_circle(b, a) bit for bit, because
IEEE subtraction is exact under negation, libm's sin is odd, pow(x, 2) is
even and the cosine product commutes. nearest_great_circle gives each
source's distance to its nearest destination: a numpy screen of the
haversine term, with 1e-9 relative slack, picks the candidate cells, and
only those get the exact kernel.

Cache format (DMAT1):

    magic b"DMAT1" | u32 rows | u32 cols | rows*cols float64 (LE, row-major)
    | u32 trailer length | UTF-8 JSON trailer

The trailer holds sources, destinations, provider_tag, a CRC32 of the
float block and any meta the writer adds; readers ignore keys they do not
know. Nothing depends on the time of writing. All integers little-endian.
The float block is checksummed and written from the matrix's own buffer, and
read back into one aligned array, so neither side holds a second copy of it.

No stage builds a matrix of more than MAX_MATRIX_BYTES: ingest refuses a
prepared row count whose square matrix would pass it, and build_matrix
refuses any matrix that would, before it allocates or plans a tile.
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading
import time
import zlib
from contextlib import closing, nullcontext
from dataclasses import dataclass
from itertools import repeat
from typing import Optional, Sequence
from urllib.parse import urlsplit

import numpy as np

from .errors import DistanceError, MatrixFormatError, StaleMatrixError, UnreachablePairsError, is_real
from .errors import require_fields, require_int, require_real

EARTH_RADIUS_M = 6_371_000.0
MAGIC = b"DMAT1"
RETRY_ATTEMPTS = 3
RETRY_BASE_SECONDS = 0.5
RETRY_STATUSES = (429, 503)  # too many requests, unavailable: worth asking again
TRANSPORT_TIMEOUT_SECONDS = 30.0  # per connect and per read of RequestsTransport
GC_BLOCK_CELLS = 4096  # cells per pass of the great-circle kernel
# the largest float block a matrix may take, 2 GiB: 16,384 points square
MAX_MATRIX_BYTES = 2**31


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
        require_fields(self, require_int, DistanceError, "chunk_size")
        if self.chunk_size < 2:
            raise DistanceError(f"chunk_size must be >= 2, got {self.chunk_size}")
        if self.base_url is not None and not isinstance(self.base_url, str):
            raise DistanceError(f"base_url must be a string, got {self.base_url!r}")
        if (self.kind == "table_api") != (self.base_url is not None):
            raise DistanceError("base_url is required for table_api and forbidden otherwise")
        require_fields(self, require_real, DistanceError, "earth_radius")
        if not (math.isfinite(self.earth_radius) and self.earth_radius > 0):
            raise DistanceError(f"earth_radius must be a positive finite number, got {self.earth_radius!r}")


def weight_fault(weights) -> Optional[int]:
    """The index of the first weight that is not positive and finite (NaN is
    neither), or None. As in matrix_fault, valid weights cost no mask."""
    w = np.asarray(weights, dtype=np.float64)
    if not w.size or 0 < w.min() and w.max() < np.inf:
        return None
    return int(np.argmax(~((w > 0) & (w < np.inf))))


def matrix_fault(values: np.ndarray, diagonal: bool) -> Optional[str]:
    """The first fault of a float64 matrix against the matrix contract, as a
    message naming its cell and value, or None. The contract, checked in this
    order: every cell finite, every cell nonnegative and, when diagonal is
    true (a square matrix over one point list), a zero diagonal. NaN
    propagates through min and max, so a valid matrix costs no rows x cols
    mask; the masks are built only to locate a fault."""
    if not values.size or values.min() >= 0 and np.isfinite(values.max()) and not (diagonal and np.diagonal(values).any()):
        return None
    bad, headline, what = ~np.isfinite(values), "matrix contains non-finite values", "non-finite"
    if not bad.any():
        bad, headline, what = values < 0, "matrix contains negative distances", "negative"
    if not bad.any():
        bad, headline, what = np.diag(np.diagonal(values) != 0), "nonzero diagonal at index {r}", "nonzero diagonal"
    r, c = (int(x) for x in np.argwhere(bad)[0])
    return f"{headline.format(r=r)}: {what} cell at ({r}, {c}) is {float(values[r, c])!r}"


class DistanceMatrix:
    """Immutable dense matrix of nonnegative finite distances in meters, with
    a zero diagonal when its sources are its destinations (matrix_fault).

    A writeable values array is copied, so the caller's array stays its own
    and the matrix cannot change under it. A read-only float64 array is kept
    as it is: it is taken as handed over.
    """

    def __init__(self, sources, destinations, values, provider_tag: str):
        self.sources = tuple(sources)
        self.destinations = tuple(destinations)
        vals = np.asarray(values, dtype=np.float64)
        if vals.flags.writeable:
            vals = vals.copy()
        if vals.shape != (len(self.sources), len(self.destinations)):
            raise DistanceError(
                f"values shape {vals.shape} does not match "
                f"{len(self.sources)}x{len(self.destinations)} points"
            )
        if fault := matrix_fault(vals, self.sources == self.destinations):
            raise DistanceError(fault)
        vals.setflags(write=False)
        self.values = vals
        self.provider_tag = provider_tag

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
        )


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
    connect or read past TRANSPORT_TIMEOUT_SECONDS, raises TransportError. Proxy settings (HTTP_PROXY, HTTPS_PROXY)
    are not consulted: requests go straight to the host in the URL. close()
    closes every connection the transport opened.
    """

    def __init__(self):
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
            conn = kinds[parts.scheme](parts.hostname, port, timeout=TRANSPORT_TIMEOUT_SECONDS)
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


def table_request(
    spec: ProviderSpec,
    sources: Sequence[GeoPoint],
    destinations: Sequence[GeoPoint],
    transport,
) -> np.ndarray:
    """One GET against the table endpoint over transport; returns the
    distances block.

    A TransportError, HTTP 429 (too many requests) or HTTP 503 (unavailable)
    is retried, up to RETRY_ATTEMPTS in all, after sleeping
    RETRY_BASE_SECONDS * 2**attempt (0.5 s, then 1 s). Any other HTTP status
    but 200, a malformed body and null (unreachable) cells are not retried.
    """
    if spec.kind != "table_api":
        raise DistanceError("table_request needs a table_api provider")
    url = table_url(spec, sources, destinations)

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
            if v is not None and not is_real(v):
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


def require_fits(rows: int, cols: int, error=DistanceError) -> None:
    """Raise error when a rows x cols float64 matrix would take more than
    MAX_MATRIX_BYTES, naming both."""
    nbytes = rows * cols * 8
    if nbytes > MAX_MATRIX_BYTES:
        raise error(
            f"a {rows} x {cols} distance matrix needs {nbytes:,} bytes, "
            f"over the limit of {MAX_MATRIX_BYTES:,} bytes"
        )


def _distinct(points: Sequence[GeoPoint]):
    """Distinct exact (lat, lon) pairs in first-seen order, and each point's
    index among them."""
    first: dict = {}
    inverse = [first.setdefault((p.lat, p.lon), len(first)) for p in points]
    return list(first), np.asarray(inverse, dtype=np.intp)


def _radians_and_cos(points):
    """Each point's latitude and longitude in radians, and the cosine of its
    latitude, as great_circle computes them."""
    lat = [math.radians(lat) for lat, _ in points]
    lon = [math.radians(lon) for _, lon in points]
    return np.array(lat), np.array(lon), np.array([math.cos(v) for v in lat])


def _sin_squared(half: np.ndarray) -> np.ndarray:
    """math.sin(x) ** 2 for every cell, each a libm call as in great_circle
    (math.pow skips the builtin pow's dispatch)."""
    flat = half.ravel().tolist()
    return np.fromiter(map(math.pow, map(math.sin, flat), repeat(2.0)), np.float64, len(flat)).reshape(half.shape)


def _asin(x: np.ndarray) -> np.ndarray:
    """math.asin for every cell, each a libm call as in great_circle."""
    flat = x.ravel().tolist()
    return np.fromiter(map(math.asin, flat), np.float64, len(flat)).reshape(x.shape)


def _haversine(a, b, diameter: float) -> np.ndarray:
    """great_circle for every cell of the broadcast (lat, lon, cos lat)
    arrays a (sources) and b (destinations), with great_circle's own
    arithmetic."""
    lat1, lon1, cos1 = a
    lat2, lon2, cos2 = b
    ha = _sin_squared((lat2 - lat1) / 2.0)
    hb = _sin_squared((lon2 - lon1) / 2.0)
    # (cos1 * cos2) * hb, left to right as in great_circle; separate
    # ufuncs round each step and never fuse into an FMA
    root = np.minimum(1.0, np.sqrt(ha + cos1 * cos2 * hb))
    return diameter * _asin(root)


def _take(arrays, index) -> tuple:
    """Each of the (lat, lon, cos lat) arrays indexed by index."""
    return tuple(v[index] for v in arrays)


def _great_circle_values(sources, destinations, earth_radius: float) -> np.ndarray:
    """great_circle for every (source, destination) cell, each distinct pair
    of coordinates computed once, with great_circle's own arithmetic.

    Rows of distinct sources go through in strips of about GC_BLOCK_CELLS
    cells, which bounds the temporary lists the libm calls map over. When
    the distinct sources are the distinct destinations, strip r0:r1 covers
    only the cells (i, j) with j >= i, each written to (i, j) and (j, i), so
    n distinct points cost n(n + 1) / 2 cells rather than n^2. When no
    point repeats on either side, the distinct block is returned itself;
    otherwise the full matrix is gathered from it, a strip of rows at a time.
    Passed one list as both sides, it collects the distinct points once.
    """
    src, si = _distinct(sources)
    dst, di = (src, si) if destinations is sources else _distinct(destinations)
    a = _radians_and_cos(src)
    diameter = earth_radius * 2.0
    block = np.empty((len(src), len(dst)), dtype=np.float64)
    if src == dst:  # the square is symmetric bit for bit (module docstring)
        n = len(src)
        r0 = 0
        while r0 < n:
            r1 = min(n, r0 + max(1, GC_BLOCK_CELLS // (n - r0)))
            # the strip's cells on or above the diagonal, row by row
            rows, cols = np.nonzero(np.arange(r0, r1)[:, None] <= np.arange(r0, n))
            rows += r0
            cols += r0
            cells = _haversine(_take(a, rows), _take(a, cols), diameter)
            block[rows, cols] = cells
            block[cols, rows] = cells
            r0 = r1
    else:
        b = _radians_and_cos(dst)
        step = max(1, GC_BLOCK_CELLS // len(dst))
        for r0 in range(0, len(src), step):
            block[r0 : r0 + step] = _haversine(_take(a, np.s_[r0 : r0 + step, None]), b, diameter)
    if len(src) == len(sources) and len(dst) == len(destinations):
        return block  # nothing repeats: si and di are the identity
    out = np.empty((len(si), len(di)), dtype=np.float64)
    step = max(1, GC_BLOCK_CELLS // len(dst))
    for r0 in range(0, len(si), step):
        # every index is valid; mode="clip" lets take write to out unbuffered
        block.take(si[r0 : r0 + step], axis=0).take(di, axis=1, out=out[r0 : r0 + step], mode="clip")
    return out


def nearest_great_circle(
    sources: Sequence[GeoPoint], destinations: Sequence[GeoPoint], earth_radius: float = EARTH_RADIUS_M
) -> np.ndarray:
    """Each source's great-circle distance to its nearest destination, in
    meters: the same bits as build_matrix(...).values.min(axis=1) with a
    great_circle spec, from about one exact cell per distinct source.

    A screen computes each cell's haversine term s (the square of the half
    chord) with numpy's own sin, in row blocks of about GC_BLOCK_CELLS cells.
    s is a sum of nonnegative products, so numpy's sines, a few ULP from
    libm's, move it by a relative 1e-14 at most; the distance would not do,
    since near the antipode arcsin's slope turns one ULP of s into
    decimeters. great_circle is nondecreasing in s, so a row's nearest
    destination is among the cells whose screened s is within 1e-9 relative
    (plus the smallest normal float, for underflow) of the row's smallest.
    Only those cells get the exact libm kernel, and the row keeps their
    minimum.
    """
    sources = list(sources)
    destinations = list(destinations)
    if not sources or not destinations:
        raise DistanceError("sources and destinations must be nonempty")
    src, si = _distinct(sources)
    dst, _ = _distinct(destinations)  # a repeated destination cannot be nearer
    a = _radians_and_cos(src)
    b = _radians_and_cos(dst)
    lat2, lon2, cos2 = b
    diameter = earth_radius * 2.0
    floor = np.finfo(np.float64).tiny
    nearest = np.empty(len(src), dtype=np.float64)
    step = max(1, GC_BLOCK_CELLS // len(dst))
    for r0 in range(0, len(src), step):
        lat1, lon1, cos1 = _take(a, np.s_[r0 : r0 + step, None])
        s = np.square(np.sin((lat2 - lat1) / 2.0)) + cos1 * cos2 * np.square(np.sin((lon2 - lon1) / 2.0))
        bound = s.min(axis=1, keepdims=True) * (1.0 + 1e-9) + floor
        rows, cols = np.nonzero(s <= bound)  # row-major, and each row keeps at least its minimum
        exact = _haversine(_take(a, rows + r0), _take(b, cols), diameter)
        nearest[r0 : r0 + step] = np.minimum.reduceat(exact, np.flatnonzero(np.diff(rows, prepend=-1)))
    return nearest[si]


def build_matrix(
    spec: ProviderSpec,
    sources: Sequence[GeoPoint],
    destinations: Sequence[GeoPoint],
    transport=None,
    max_in_flight: int = 4,
) -> DistanceMatrix:
    """Full matrix from the provider; table requests are tiled and fetched
    concurrently, with tile placement independent of completion order.

    A matrix of more than MAX_MATRIX_BYTES raises DistanceError before
    anything is allocated or requested. Any unreachable pair aborts the
    build; the error lists every bad pair across all tiles, in global
    (source, destination) indices. Any other DistanceError stops the build
    from sending tiles it has not sent yet, and the first such error in
    tile order is raised. Without a transport, a RequestsTransport is made
    for the call and closed after it.
    """
    if not sources or not destinations:
        raise DistanceError("sources and destinations must be nonempty")
    require_fits(len(sources), len(destinations))

    if spec.kind == "great_circle":
        # uncopied (DistanceMatrix keeps tuples of its own), so one list
        # passed as both sides, as cmd_matrix passes it, arrives as one
        values = _great_circle_values(sources, destinations, spec.earth_radius)
        values.setflags(write=False)  # nothing else holds it: handed over, not copied
        return DistanceMatrix(sources, destinations, values, provider_tag(spec))

    sources, destinations = list(sources), list(destinations)
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

    # deferred, like http.client: the great-circle branch never runs a pool
    from concurrent.futures import ThreadPoolExecutor

    unreachable = []
    hard_error = None
    # the pool's threads are joined before a transport made here is closed
    owned = closing(RequestsTransport()) if transport is None else nullcontext(transport)
    with owned as transport, ThreadPoolExecutor(max_workers=max(1, max_in_flight)) as pool:
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

    values.setflags(write=False)  # nothing else holds it: handed over, not copied
    return DistanceMatrix(sources, destinations, values, provider_tag(spec))


def save_matrix(matrix: DistanceMatrix, path, meta: Optional[dict] = None) -> None:
    """Write the DMAT1 cache file for a matrix.

    The float block is checksummed and written straight from the values'
    own buffer (a little-endian, C-contiguous float64 array, as every
    DistanceMatrix on a little-endian host holds), not from a bytes copy.
    meta entries (seed, config hash, ...) are merged into the JSON trailer;
    readers ignore keys they do not know.
    """
    rows, cols = matrix.shape
    # a view of the values' memory as bytes; only another byte order or
    # layout is copied
    block = np.ascontiguousarray(matrix.values, dtype="<f8").reshape(-1).view(np.uint8)
    trailer = json.dumps(
        {
            **(meta or {}),
            "sources": [[p.lat, p.lon] for p in matrix.sources],
            "destinations": [[p.lat, p.lon] for p in matrix.destinations],
            "provider_tag": matrix.provider_tag,
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


TRAILER_KEYS = (("sources", list), ("destinations", list), ("provider_tag", str))


def _trailer_points(path, trailer: dict, key: str) -> list:
    """The trailer's list under key as GeoPoints; MatrixFormatError names the
    first entry that is not a [lat, lon] pair of numbers GeoPoint accepts."""
    points = []
    for i, pair in enumerate(trailer[key]):
        # type() and not isinstance: JSON true and false are not coordinates
        numbers = type(pair) is list and len(pair) == 2 and type(pair[0]) in (int, float) and type(pair[1]) in (int, float)
        if not numbers:
            raise MatrixFormatError(f"{path}: trailer {key}[{i}] is not a [lat, lon] pair of numbers: {pair!r}")
        try:
            points.append(GeoPoint(*pair))
        except (ValueError, OverflowError) as exc:  # out of range, or an integer past float range
            raise MatrixFormatError(f"{path}: trailer {key}[{i}]: {exc}") from None
    return points


def _lists_points(listed, pairs: list) -> bool:
    """Whether each of the trailer's lists in listed holds exactly pairs,
    every coordinate a float: under == JSON true would equal 1.0, and 1
    would equal 1.0, so any other list is left to _trailer_points."""
    return all(
        side == pairs and all(type(lat) is float and type(lon) is float for lat, lon in side) for side in listed
    )


def load_matrix(path, points: Optional[Sequence[GeoPoint]] = None, tag: Optional[str] = None) -> DistanceMatrix:
    """Read a DMAT1 cache file back into a DistanceMatrix, bit-exact.

    The values are read once, into an aligned read-only array. A file
    that is not DMAT1, is cut short, fails its checksum or has a trailer
    without the keys and points a matrix needs raises MatrixFormatError.

    points and tag, when given, are what the matrix must be built from: its
    sources and destinations are points, in order, and its provider_tag is
    tag. A readable matrix over other points or from another provider
    raises StaleMatrixError, decided only after every check above. When the
    trailer lists exactly points, as floats, it builds no GeoPoint.
    """
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC) + 8)
        if len(head) < len(MAGIC) + 8 or head[: len(MAGIC)] != MAGIC:
            raise MatrixFormatError(f"{path}: not a DMAT1 file")
        rows, cols = struct.unpack_from("<II", head, len(MAGIC))
        nbytes = rows * cols * 8
        # the size is checked before the block is allocated, so a header
        # that claims more than the file holds costs no memory
        if os.fstat(fh.fileno()).st_size < len(head) + nbytes + 4:
            raise MatrixFormatError(f"{path}: truncated float block")
        # read into a numpy allocation, which is aligned: a view of the
        # file's bytes would start 13 bytes in, and gathers from it are slow
        values = np.empty((rows, cols), dtype="<f8")
        block = values.reshape(-1).view(np.uint8)  # the same memory, as bytes
        got = fh.readinto(block)
        tail = fh.read(4)
        if got != nbytes or len(tail) < 4:  # the file shrank since fstat
            raise MatrixFormatError(f"{path}: truncated float block")
        (tlen,) = struct.unpack("<I", tail)
        text = fh.read(tlen)
    if len(text) < tlen:
        raise MatrixFormatError(f"{path}: truncated trailer")
    try:
        trailer = json.loads(text.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, or an int past int()'s digit limit
        raise MatrixFormatError(f"{path}: bad trailer: {exc}") from None
    if not isinstance(trailer, dict):
        raise MatrixFormatError(f"{path}: trailer is not a JSON object")
    for key, kind in TRAILER_KEYS:
        if key not in trailer:
            raise MatrixFormatError(f"{path}: trailer has no {key!r}")
        if not isinstance(trailer[key], kind):
            raise MatrixFormatError(f"{path}: trailer {key!r} must be a {kind.__name__}, got {type(trailer[key]).__name__}")
    if zlib.crc32(block) & 0xFFFFFFFF != trailer.get("crc32"):
        raise MatrixFormatError(f"{path}: checksum mismatch")
    values.setflags(write=False)
    listed = trailer["sources"], trailer["destinations"]
    if points is not None and _lists_points(listed, [[p.lat, p.lon] for p in points]):
        sources = destinations = tuple(points)
    else:
        sources = _trailer_points(path, trailer, "sources")
        # a households x households matrix lists its points twice; build them
        # once. Not ==, which takes a JSON true in destinations for a 1.0
        if _lists_points((trailer["destinations"],), trailer["sources"]):
            destinations = sources
        else:
            destinations = _trailer_points(path, trailer, "destinations")
    try:
        matrix = DistanceMatrix(
            sources=sources,
            destinations=destinations,
            values=values,
            provider_tag=trailer["provider_tag"],
        )
    except DistanceError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from None
    if points is not None and (matrix.sources, matrix.destinations) != (tuple(points),) * 2:
        n = len(matrix.sources)
        raise StaleMatrixError(f"{path}: matrix is {n} points, which differ from the prepared households ({len(points)})")
    if tag is not None and matrix.provider_tag != tag:
        raise StaleMatrixError(f"{path}: built by provider {matrix.provider_tag}, config asks for {tag}")
    return matrix
