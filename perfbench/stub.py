"""Loopback stand-in for remote embedding, chat and regard services.

Serves the openai-compatible `/v1/embeddings` and `/v1/chat/completions`
schemas and the regard schema (`/regard`) on 127.0.0.1. Every response is
derived from the sha256 of the canonical request body, so identical requests
get byte-identical answers. Each request waits a fixed service delay.

About 2% of embedding and chat bodies (chosen by digest) are answered with 429
or 503 on their first attempt and succeed on the retry, so the client's retry
path runs while every audit still completes. Regard requests never fail: the
regard client does not retry, and a fallback would change the report.

Control endpoints: `POST /_reset` clears the first-attempt memory and the
counters, `GET /_stats` returns the counters.

Run: python3 perfbench/stub.py
It prints "port <n>" once listening and serves until its stdin closes.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

EMBED_DIM = 64
SERVICE_DELAY_S = 0.010  # far below a real API's latency, yet most of a cold audit
ERROR_EVERY = 50  # one body in this many fails its first attempt
REGARD_CATEGORIES = ("positive", "negative", "neutral", "other")
VOCAB = (
    "the candidate shows strong steady experience with reliable delivery clear "
    "communication careful planning and good judgment across demanding projects "
    "colleagues value their thoughtful effective work and solid technical depth "
    "results were impressive although some gaps remain in recent roles"
).split()


def request_digest(body) -> str:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"),
                           ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def first_attempt_status(digest: str) -> int:
    """Status for a body's first attempt: 0 (serve it), 429 or 503."""
    if int(digest[:8], 16) % ERROR_EVERY:
        return 0
    return 429 if int(digest[8:10], 16) % 2 else 503


def embeddings_response(body: dict, rng: random.Random) -> dict:
    data = [{"object": "embedding", "index": i,
             "embedding": [rng.uniform(-1.0, 1.0) for _ in range(EMBED_DIM)]}
            for i in range(len(body["input"]))]
    return {"object": "list", "model": body.get("model", ""), "data": data}


def chat_response(body: dict, rng: random.Random) -> dict:
    words = [rng.choice(VOCAB) for _ in range(rng.randint(80, 120))]
    sentences = []
    while words:
        n = rng.randint(8, 14)
        chunk, words = words[:n], words[n:]
        sentences.append(" ".join(chunk).capitalize() + ".")
    return {"object": "chat.completion", "model": body.get("model", ""),
            "choices": [{"index": 0, "finish_reason": "stop",
                         "message": {"role": "assistant",
                                     "content": " ".join(sentences)}}]}


def regard_response(body: dict, rng: random.Random) -> dict:
    weights = [0.05 + rng.random() for _ in REGARD_CATEGORIES]
    total = sum(weights)
    return {c: w / total for c, w in zip(REGARD_CATEGORIES, weights)}


ROUTES = {
    "/v1/embeddings": (embeddings_response, True),
    "/v1/chat/completions": (chat_response, True),
    "/regard": (regard_response, False),
}


class StubState:
    """First-attempt memory and request counters, shared by handler threads."""

    def __init__(self):
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.seen: set[str] = set()
        self.pending: set[str] = set()  # bodies whose last answer was an error
        self.requests = 0
        self.retries = 0
        self.inflight = 0
        self.inflight_max = 0

    def stats(self) -> dict:
        return {"requests": self.requests, "retries": self.retries,
                "failed": len(self.pending), "inflight_max": self.inflight_max}

    def admit(self, digest: str, may_fail: bool) -> int:
        """Count one request and return the error status to answer, or 0."""
        self.requests += 1
        self.inflight += 1
        self.inflight_max = max(self.inflight_max, self.inflight)
        if digest in self.pending:
            self.retries += 1
            self.pending.discard(digest)
            return 0
        status = 0
        if may_fail and digest not in self.seen:
            status = first_attempt_status(digest)
            if status:
                self.pending.add(digest)
        self.seen.add(digest)
        return status


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Without this, keep-alive requests stall on delayed ACKs (~40 ms each).
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _send(self, status: int, doc) -> None:
        payload = json.dumps(doc, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self):
        state = self.server.state
        if self.path == "/_stats":
            with state.lock:
                self._send(200, state.stats())
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self):
        state = self.server.state
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/_reset":
            with state.lock:
                state.reset()
            self._send(200, {})
            return
        route = ROUTES.get(self.path)
        if route is None:
            self._send(404, {"error": "not found"})
            return
        try:
            body = json.loads(raw)
        except ValueError:
            self._send(400, {"error": "body is not JSON"})
            return
        make_response, may_fail = route
        digest = request_digest(body)
        with state.lock:
            status = state.admit(digest, may_fail)
        try:
            time.sleep(SERVICE_DELAY_S)
            if status:
                self._send(status, {"error": "stub refused first attempt"})
            else:
                self._send(200, make_response(body, random.Random(digest)))
        finally:
            with state.lock:
                state.inflight -= 1


def main() -> int:
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    server.daemon_threads = True
    server.state = StubState()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"port {server.server_address[1]}", flush=True)
    try:
        sys.stdin.read()  # returns at EOF, when the parent closes the pipe
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    return 0


if __name__ == "__main__":
    sys.exit(main())
