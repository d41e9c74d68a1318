import faulthandler
import signal
import sys
import threading

import pytest

from hirefair.corpus import (
    DemographicGroup,
    JobPost,
    NamePool,
    Resume,
    load_name_pools,
)

pytest_plugins = ["pytester"]

FIXTURE_DIR_NAME = "data/fixtures"

#: Seconds any one test may take; the slowest takes about 5.
WATCHDOG_S = 120.0


@pytest.fixture
def watchdog_s() -> float:
    """The budget of the watchdog; a test module may override it."""
    return WATCHDOG_S


@pytest.fixture(autouse=True)
def watchdog(watchdog_s):
    """Fails a test that runs past `watchdog_s` seconds, so that a hang
    stalls one test and not the suite, and dumps every thread's stack to
    stderr before the failure unwinds them. A main thread that cannot take
    the failure gets its stacks dumped at twice the budget. Does nothing
    where SIGALRM does not exist."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expired(signum, frame):
        faulthandler.dump_traceback(file=sys.__stderr__)
        pytest.fail(f"the test ran past its {watchdog_s} s budget")

    faulthandler.dump_traceback_later(2 * watchdog_s, file=sys.__stderr__)
    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, watchdog_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def no_worker_left():
    """Fails a test after which a worker process it started still runs (and
    stops those, so the next test starts without them), or a non-daemon
    thread it started still runs after 5 s more."""
    threads = set(threading.enumerate())
    yield
    import multiprocessing

    leaked = multiprocessing.active_children()
    for child in leaked:
        child.terminate()
        child.join(timeout=10)
    assert not leaked, f"worker processes left running: {leaked}"
    started = [t for t in threading.enumerate() if t not in threads and not t.daemon]
    for thread in started:
        thread.join(timeout=5)
    running = [t for t in started if t.is_alive()]
    assert not running, f"threads left running: {running}"


def cached_response(cache, key: str):
    """The response `cache` stores under `key`, a cache_key digest, or None."""
    from hirefair.backends import decode_response

    blob = cache.get_many([key]).get(key)
    return None if blob is None else decode_response(blob)


def recorded_tasks(monkeypatch) -> list:
    """(thread id, task) of each task that this process sends to a worker of
    cpu_map's pool from now on; a task is (fn, items)."""
    import multiprocessing.connection

    tasks = []
    send = multiprocessing.connection.Connection.send

    def recorded(conn, task):
        tasks.append((threading.get_ident(), task))
        return send(conn, task)

    monkeypatch.setattr(multiprocessing.connection.Connection, "send", recorded)
    return tasks


@pytest.fixture(scope="session")
def pools():
    return load_name_pools()


@pytest.fixture(scope="session")
def fixtures_dir():
    from pathlib import Path

    import hirefair

    return Path(hirefair.__file__).parent / "data" / "fixtures"


@pytest.fixture
def unnamed_resume():
    return Resume(
        id="r1",
        profession="Data Analyst",
        body="Data Analyst\nSummary\nBuilds dashboards and forecasts.\nSkills\nSQL, Python\n",
        source="generated",
    )


@pytest.fixture
def job_post():
    return JobPost(id="j1", occupation="Data Analyst",
                   body="Data Analyst\nOwn the reporting stack.\n")


def make_pool(code: str, names_freqs: dict[str, int]) -> NamePool:
    return NamePool(
        group=DemographicGroup.from_code(code),
        names=tuple(names_freqs),
        frequencies=dict(names_freqs),
    )


@pytest.fixture
def tiny_pools():
    """Two-group pool set with hand-picked frequencies for binning tests."""
    return {
        "MW": make_pool("MW", {"Arlo": 1, "Bram": 2, "Cato": 100, "Dov": 200}),
        "FW": make_pool("FW", {"Wren": 1, "Xia": 2, "Yuna": 100, "Zola": 200}),
        "MB": make_pool("MB", {"Kofi": 1, "Lumo": 2, "Nuru": 100, "Okal": 200}),
        "FB": make_pool("FB", {"Pema": 1, "Qiana": 2, "Runa": 100, "Sela": 200}),
    }


class LoopbackService:
    """Embedding, chat and regard endpoints on 127.0.0.1 for HTTP-path tests.

    Every answer derives from the sha256 of the request body, so identical
    requests get identical answers whatever order they arrive in. Each
    request waits `delay` seconds while counted as in flight, per path and
    over all paths ("*"). Paths listed in
    `refuse` are answered with 400, paths listed in `unavailable` with 503,
    and paths listed in `fail_first` answer 503 to the first request of each
    distinct body.

    `script` maps a path to the answers its next requests get, one per
    request, before any derived answer: a (status, body) pair, whose body is
    sent as JSON or, when it is bytes, as is, or DROP, which closes the
    connection without an answer. `received` records each request (method,
    target, headers, body and client port); a CONNECT request is recorded
    and refused with 502. With `hang_up` set, each connection is closed
    after its answer without saying so. Given `tls`, an ssl.SSLContext, the
    service speaks https.
    """

    VOCAB = ("the candidate shows strong steady experience with reliable "
             "delivery clear communication and careful planning across "
             "demanding projects").split()
    DROP = "drop"

    def __init__(self, delay: float = 0.002, tls=None):
        import threading
        from http.server import ThreadingHTTPServer

        self.delay = delay
        self.refuse: set[str] = set()
        self.unavailable: set[str] = set()
        self.fail_first: set[str] = set()
        self.hang_up = False
        self.lock = threading.Lock()
        self.reset()
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), self._handler())
        self.server.daemon_threads = True
        if tls is not None:
            self.server.socket = tls.wrap_socket(self.server.socket, server_side=True)
        scheme = "http" if tls is None else "https"
        self.url = f"{scheme}://127.0.0.1:{self.server.server_address[1]}"
        # a short poll, so that shutdown() at teardown waits 50 ms at most
        self.thread = threading.Thread(target=self.server.serve_forever, args=(0.05,),
                                       daemon=True)
        self.thread.start()

    def reset(self) -> None:
        with self.lock:
            self.requests: dict[str, int] = {}
            self.regard_texts: dict[str, int] = {}
            self.inflight: dict[str, int] = {}
            self.inflight_max: dict[str, int] = {}  # per path, and "*" for all
            self.failed: set[tuple[str, bytes]] = set()  # (path, body) answered 503
            self.script: dict[str, list] = {}
            self.received: list[dict] = []

    def ports(self) -> set[int]:
        """The client ports of the requests received: one per connection."""
        with self.lock:
            return {request["port"] for request in self.received}

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)

    def answer(self, path: str, body: dict, digest: bytes):
        if path == "/v1/embeddings":
            return {"data": [{"embedding": [b / 255.0 - 0.5 for b in digest[:16]]}]}
        if path == "/v1/chat/completions":
            words = [self.VOCAB[b % len(self.VOCAB)] for b in digest]
            text = " ".join(" ".join(words[i:i + 8]).capitalize() + "."
                            for i in range(0, len(words), 8))
            return {"choices": [{"message": {"content": text}}]}
        if path == "/regard":
            weights = [1.0 + b for b in digest[:4]]
            return dict(zip(("positive", "negative", "neutral", "other"),
                            (w / sum(weights) for w in weights)))
        return None

    def _handler(self):
        import hashlib
        import json
        import time
        from http.server import BaseHTTPRequestHandler
        from urllib.parse import urlsplit

        service = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True

            def log_message(self, format, *args):  # noqa: A002 - stdlib signature
                pass

            def _record(self, raw: bytes) -> None:
                service.received.append({
                    "method": self.command, "target": self.path,
                    "headers": dict(self.headers), "body": raw,
                    "port": self.client_address[1]})

            def _send(self, status: int, payload: bytes) -> None:
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)
                self.close_connection = self.close_connection or service.hang_up

            def do_CONNECT(self):
                with service.lock:
                    self._record(b"")
                self._send(502, b"")

            def do_POST(self):
                raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                path = urlsplit(self.path).path
                with service.lock:
                    self._record(raw)
                    service.requests[path] = service.requests.get(path, 0) + 1
                    scripted = service.script.get(path)
                    scripted = scripted.pop(0) if scripted else None
                if scripted == service.DROP:
                    self.close_connection = True
                    return
                if scripted is not None:
                    status, doc = scripted
                    self._send(status, doc if isinstance(doc, bytes)
                               else json.dumps(doc).encode("utf-8"))
                    return
                body = json.loads(raw)
                with service.lock:
                    transient = (path in service.fail_first
                                 and (path, raw) not in service.failed)
                    if transient:
                        service.failed.add((path, raw))
                    if path == "/regard":
                        text = body["text"]
                        service.regard_texts[text] = service.regard_texts.get(text, 0) + 1
                    for name in (path, "*"):
                        service.inflight[name] = service.inflight.get(name, 0) + 1
                        service.inflight_max[name] = max(
                            service.inflight_max.get(name, 0), service.inflight[name])
                try:
                    time.sleep(service.delay)
                    doc = service.answer(path, body, hashlib.sha256(raw).digest())
                finally:
                    # out of flight before the client can see the answer
                    with service.lock:
                        for name in (path, "*"):
                            service.inflight[name] -= 1
                status = 400 if doc is None or path in service.refuse else 200
                if transient or path in service.unavailable:
                    status = 503
                payload = json.dumps(doc if status == 200 else {"error": "refused"})
                self._send(status, payload.encode("utf-8"))

        return Handler


@pytest.fixture
def loopback():
    service = LoopbackService()
    try:
        yield service
    finally:
        service.close()


@pytest.fixture
def https_loopback(tmp_path):
    """(service, certificate file): a LoopbackService over https whose
    self-signed certificate names 127.0.0.1; skipped without `openssl`."""
    import shutil
    import ssl
    import subprocess

    openssl = shutil.which("openssl")
    if openssl is None:
        pytest.skip("needs the openssl command")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run([openssl, "req", "-x509", "-newkey", "rsa:2048", "-nodes", "-days", "1",
                    "-keyout", str(key), "-out", str(cert), "-subj", "/CN=127.0.0.1",
                    "-addext", "subjectAltName=IP:127.0.0.1"],
                   check=True, capture_output=True, timeout=60)
    tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    tls.load_cert_chain(cert, key)
    service = LoopbackService(tls=tls)
    try:
        yield service, cert
    finally:
        service.close()
