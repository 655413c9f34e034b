"""The daemon over real transports: TCP and unix-socket HTTP."""

import threading

import pytest

from repro.serve import Daemon, ServeApp, ServeClient, ServeError

RECURRENCE = (
    "for i := 1 to n do {\n"
    "  a(i) := a(i-1) + b(i)\n"
    "}\n"
)


@pytest.fixture
def daemon(tmp_path):
    app = ServeApp(store_path=tmp_path / "store.db")
    daemon = Daemon(app, host="127.0.0.1", port=0)
    daemon.start()
    yield daemon
    daemon.stop()


@pytest.fixture
def client(daemon):
    return ServeClient(port=daemon.port)


def test_health_ready_and_ping(client):
    status, body = client.healthz()
    assert status == 200 and body["alive"] is True
    status, body = client.readyz()
    assert status == 200 and body["ready"] is True
    assert client.ping()["status"] == "ok"


def test_analyze_over_http(client):
    status, envelope = client.analyze(RECURRENCE, name="recurrence")
    assert status == 200
    assert envelope["status"] == "ok"
    assert envelope["result"]["counts"]["flow_live"] >= 1
    assert envelope["request_id"]


def test_query_over_http(client):
    status, envelope = client.query(RECURRENCE, ("a(i)", "a(i-1)"))
    assert status == 200
    assert envelope["provenance"]


def test_stats_endpoint_reports_layers(client):
    client.analyze(RECURRENCE)
    status, envelope = client.request({}, path="/stats", method="GET")
    assert status == 200
    stats = envelope["stats"]
    assert stats["requests"] >= 1
    assert stats["store"]["path"]
    assert stats["admission"]["max_inflight"] >= 1
    assert stats["solver"]


def test_bad_requests_get_400_not_a_crash(client):
    status, envelope = client.request({"op": "nonsense"})
    assert status == 400
    assert envelope["status"] == "invalid"
    status, envelope = client.request(
        {"op": "analyze", "program": "for i := oops"}
    )
    assert status == 400
    # The daemon survived both.
    assert client.ping()["status"] == "ok"


def test_unknown_path_is_404(client):
    status, envelope = client.request({}, path="/nope", method="GET")
    assert status == 404


def test_drain_flips_readiness_and_sheds(daemon, client):
    assert client.drain()["draining"] is True
    status, body = client.readyz()
    assert status == 503 and body["ready"] is False
    status, envelope = client.analyze(RECURRENCE)
    assert status == 429
    assert envelope["reason"] == "draining"
    # Liveness stays up while draining.
    status, _ = client.healthz()
    assert status == 200


def test_stop_is_idempotent_and_graceful(tmp_path):
    app = ServeApp(store_path=tmp_path / "store.db")
    daemon = Daemon(app, host="127.0.0.1", port=0)
    daemon.start()
    client = ServeClient(port=daemon.port)
    assert client.ping()["status"] == "ok"
    daemon.stop()
    daemon.stop()  # second call is a no-op, not an error
    with pytest.raises(ServeError):
        client.ping()


def test_unix_socket_transport(tmp_path):
    socket_path = tmp_path / "serve.sock"
    app = ServeApp(store_path=tmp_path / "store.db")
    daemon = Daemon(app, host=None, port=0, unix_socket=socket_path)
    assert daemon.port is None
    daemon.start()
    try:
        client = ServeClient(unix_socket=socket_path)
        assert client.ping()["status"] == "ok"
        status, envelope = client.analyze(RECURRENCE, name="recurrence")
        assert status == 200 and envelope["status"] == "ok"
    finally:
        daemon.stop()
    assert not socket_path.exists()  # stop() cleans the socket file up


def test_unix_socket_relative_path_starting_with_a_dot(tmp_path, monkeypatch):
    # HTTPServer's own bind would resolve "./" as a host name and fail.
    monkeypatch.chdir(tmp_path)
    socket_path = "./.sock-serve"
    app = ServeApp(store_path=tmp_path / "store.db")
    daemon = Daemon(app, host=None, port=0, unix_socket=socket_path)
    daemon.start()
    try:
        client = ServeClient(unix_socket=socket_path)
        assert client.ping()["status"] == "ok"
    finally:
        daemon.stop()
    assert not (tmp_path / ".sock-serve").exists()


def test_both_transports_share_one_app(tmp_path):
    socket_path = tmp_path / "serve.sock"
    app = ServeApp(store_path=tmp_path / "store.db")
    daemon = Daemon(app, host="127.0.0.1", port=0, unix_socket=socket_path)
    daemon.start()
    try:
        tcp = ServeClient(port=daemon.port)
        unix = ServeClient(unix_socket=socket_path)
        tcp.analyze(RECURRENCE, name="recurrence")
        # The unix client replays from the shared result cache.
        _, envelope = unix.analyze(RECURRENCE, name="recurrence")
        assert envelope.get("result_cache") == "hit"
    finally:
        daemon.stop()


def test_concurrent_clients_all_get_answers(daemon):
    outcomes = []
    lock = threading.Lock()

    def one_client(index):
        client = ServeClient(port=daemon.port, timeout=30.0)
        status, envelope = client.analyze(
            RECURRENCE, name=f"client{index}"
        )
        with lock:
            outcomes.append((status, envelope["status"]))

    threads = [
        threading.Thread(target=one_client, args=(n,)) for n in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert len(outcomes) == 8
    # Under this light load nothing sheds; everything answers in-band.
    for http_status, body_status in outcomes:
        assert body_status in ("ok", "degraded", "rejected")
        assert http_status in (200, 429)
    assert any(body == "ok" for _, body in outcomes)
