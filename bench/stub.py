"""Loopback OSRM-compatible table service for the table_fetch workload.

    python3 bench/stub.py --src src --points points.json --reference reference.npy

Serves GET /table/v1/driving/{lon,lat;...}?sources=..&destinations=.. on an
ephemeral port of 127.0.0.1 and prints the port on its first stdout line.
Answers come from a matrix precomputed with the package's scalar
great_circle over the given points, so the client's matrix can be checked
bit for bit against reference.npy. GET /stats returns the requests served,
the requests refused and the summed service time; it is not itself counted.

Each response goes out in a single write: writing the headers and the body
separately stalls every keep-alive request on delayed acknowledgement.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit


class Table:
    def __init__(self, points, values):
        self.index = {(lon, lat): i for i, (lat, lon) in enumerate(points)}
        self.values = values
        self.lock = threading.Lock()
        self.requests = 0
        self.errors = 0
        self.busy_s = 0.0

    def answer(self, target: str):
        """(status, body) for one table request."""
        parts = urlsplit(target)
        prefix = "/table/v1/driving/"
        if not parts.path.startswith(prefix):
            return 404, {"code": "InvalidUrl"}
        try:
            coords = [tuple(map(float, c.split(","))) for c in parts.path[len(prefix):].split(";")]
            rows = [self.index[c] for c in coords]
            query = parse_qs(parts.query)
            src = [rows[int(i)] for i in query["sources"][0].split(";")]
            dst = [rows[int(j)] for j in query["destinations"][0].split(";")]
        except (KeyError, ValueError, IndexError):
            return 400, {"code": "InvalidQuery"}
        block = self.values[src][:, dst]
        return 200, {"code": "Ok", "distances": block.tolist()}


def make_handler(table: Table):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_GET(self):
            t0 = time.perf_counter()
            if self.path == "/stats":
                with table.lock:
                    stats = {"requests": table.requests, "errors": table.errors, "busy_s": table.busy_s}
                self._send(200, stats)
                return
            status, body = table.answer(self.path)
            self._send(status, body)
            with table.lock:
                table.requests += 1
                table.errors += status != 200
                table.busy_s += time.perf_counter() - t0

        def _send(self, status: int, body: dict) -> None:
            payload = json.dumps(body, separators=(",", ":")).encode("utf-8")
            head = (
                f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n"
            ).encode("ascii")
            self.wfile.write(head + payload)

        def log_message(self, *args):
            pass

    return Handler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    parser.add_argument("--points", required=True, help="JSON list of [lat, lon]")
    parser.add_argument("--reference", required=True, help="where to write the precomputed matrix (.npy)")
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    import numpy as np
    from pantryplan.distance import GeoPoint, great_circle

    with open(args.points, encoding="utf-8") as fh:
        points = [tuple(p) for p in json.load(fh)]
    geo = [GeoPoint(lat, lon) for lat, lon in points]
    values = np.array([[great_circle(a, b) for b in geo] for a in geo], dtype=np.float64)
    np.save(args.reference, values)

    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(Table(points, values)))
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
