"""RequestsTransport against a table service on 127.0.0.1: keep-alive reuse,
a connection the server drops while idle, a refused connection, a body that
is not JSON, and the CLI's matrix stage with requests not importable."""

import http.client
import json
import os
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np
import pytest

import pantryplan.distance as distance
from pantryplan.distance import GeoPoint, ProviderSpec, RequestsTransport, TransportError, build_matrix, table_url
from pantryplan.errors import DistanceError
from pantryplan.ingest import Household, write_households_csv

from conftest import MockTableTransport

SRC = str(Path(__file__).resolve().parents[1] / "src")
POINTS = [GeoPoint(34.0 + 0.01 * i, -118.0 - 0.02 * i) for i in range(6)]


class TableServer:
    """The mock table service over HTTP/1.1 keep-alive on an ephemeral port.

    Counts the connections accepted and the requests answered. With
    drop_idle, it closes each connection after answering on it, without a
    Connection: close header, as a server closes a connection left idle. A
    fixed payload replaces the table answer when given.
    """

    def __init__(self, drop_idle=False, payload=None):
        self.connections = 0
        self.requests = 0
        self.lock = threading.Lock()
        table = MockTableTransport()
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def setup(self):
                super().setup()
                with server.lock:
                    server.connections += 1

            def do_GET(self):
                body = payload
                if body is None:
                    body = json.dumps(table.get(self.path)[1]).encode("utf-8")
                head = f"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
                with server.lock:  # before the reply, so a client that has it sees the count
                    server.requests += 1
                self.wfile.write(head.encode("ascii") + body)
                self.close_connection = drop_idle

            def log_message(self, *args):
                pass

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.httpd.daemon_threads = True
        self.url = f"http://127.0.0.1:{self.httpd.server_address[1]}"
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.thread.start()

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


@pytest.fixture
def serve():
    servers = []

    def start(**kwargs):
        servers.append(TableServer(**kwargs))
        return servers[-1]

    yield start
    for s in servers:
        s.close()


def spec_for(server):
    return ProviderSpec(kind="table_api", base_url=server.url, chunk_size=4)  # 2 x 2 tiles


def reference(points=POINTS):
    spec = ProviderSpec(kind="table_api", base_url="http://osrm.test", chunk_size=100)
    return build_matrix(spec, points, points, transport=MockTableTransport()).values


def test_tiles_reuse_one_connection_per_thread(serve, sleeps):
    server = serve()
    m = build_matrix(spec_for(server), POINTS, POINTS, max_in_flight=2)  # 3 x 3 tiles
    assert np.array_equal(m.values, reference())
    assert server.requests == 9
    assert 1 <= server.connections <= 2
    assert sleeps == []


def test_many_threads_share_no_connection(serve):
    # more tile threads than cores and a short switch interval, so threads
    # interleave inside get; a connection shared between two threads would
    # mix up their responses or open more connections than threads
    points = [GeoPoint(10.0 + 0.01 * i, 20.0 + 0.01 * i) for i in range(16)]
    server = serve()
    transport = RequestsTransport()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        m = build_matrix(spec_for(server), points, points, transport=transport, max_in_flight=8)
    finally:
        sys.setswitchinterval(interval)
        transport.close()
    assert np.array_equal(m.values, reference(points))
    assert server.requests == 64
    assert server.connections == len(transport._opened) <= 8


def test_connection_dropped_while_idle_is_reopened_without_backoff(serve, sleeps):
    server = serve(drop_idle=True)
    transport = RequestsTransport()
    url = table_url(spec_for(server), POINTS[:2], POINTS[:2])
    try:
        for _ in range(3):
            status, body = transport.get(url)
            assert status == 200 and len(body["distances"]) == 2
    finally:
        transport.close()
    assert server.requests == 3 and server.connections == 3
    assert sleeps == []

    m = build_matrix(spec_for(server), POINTS, POINTS, max_in_flight=1)
    assert np.array_equal(m.values, reference())
    assert server.requests == 3 + 9 and server.connections == 3 + 9
    assert sleeps == []


def test_connection_refused_raises_transport_error():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]  # nothing listens once the socket is closed
    transport = RequestsTransport()
    with pytest.raises(TransportError, match="ConnectionRefusedError"):
        transport.get(f"http://127.0.0.1:{port}/table/v1/driving/0,0?sources=0")
    transport.close()


def test_ok_status_with_a_body_that_is_not_json_is_malformed(serve, sleeps):
    server = serve(payload=b"<html>maintenance</html>")
    spec = spec_for(server)
    url = table_url(spec, POINTS[:2], POINTS[:2])
    transport = RequestsTransport()
    assert transport.get(url) == (200, None)
    with pytest.raises(DistanceError, match="malformed table response") as err:
        distance.table_request(spec, POINTS[:2], POINTS[:2], transport)
    transport.close()
    assert url in str(err.value)
    assert sleeps == []


def test_https_urls_get_a_tls_connection_and_other_schemes_are_refused():
    transport = RequestsTransport()
    conn = transport._connection(urlsplit("https://osrm.test/t"))
    assert isinstance(conn, http.client.HTTPSConnection) and (conn.host, conn.port) == ("osrm.test", 443)
    conn = transport._connection(urlsplit("http://[::1]:5000/t"))
    assert (conn.host, conn.port) == ("::1", 5000)
    for url, message in [("ftp://osrm.test/table", "http or https"), ("http://osrm.test:abc/table", "Port")]:
        with pytest.raises(DistanceError, match=message):
            transport.get(url)
    transport.close()


def test_matrix_stage_runs_without_requests(serve, tmp_path):
    server = serve()
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    write_households_csv([Household(id=str(i), location=p) for i, p in enumerate(POINTS)], out_dir / "prepared.csv")
    cfg = {"out_dir": str(out_dir), "provider": {"kind": "table_api", "base_url": server.url, "chunk_size": 4}}
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    probe = (
        "import sys; sys.modules['requests'] = None; from pantryplan.cli import main; "
        "sys.exit(main(sys.argv[1:]))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", probe, "--config", str(tmp_path / "config.json"), "matrix"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert np.array_equal(distance.load_matrix(out_dir / "matrix.dmat").values, reference())
    assert server.requests == 9
