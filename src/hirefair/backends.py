"""Backends: every remote call the audit makes, with a persistent response
cache.

One class serves each kind: EmbeddingBackend, CompletionBackend and the
regard classifier, RegardClient. The PROTOCOLS table says how each (kind,
protocol) pair makes one uncached request. HTTP protocols speak openai-,
cohere-, or mistral-compatible wire schemas, or the regard schema; every
HTTP call has one timeout, HTTP_TIMEOUT_S. Credentials come only from
environment variables named in the backend config. Responses are cached in
one sqlite3 file keyed by a digest of the canonicalized request, so
byte-identical requests replay without network access and audits can be
re-run offline. Each response is written once, as zlib-compressed JSON,
after it validated. Fresh responses are committed in key order, which fills
the table's pages densely: when WRITE_CHUNK are pending, so that a run makes
few commits; when the oldest pending one is WRITE_AGE_S old, so that a
killed run loses little of what it fetched; and when a batch ends. A cache
directory written by earlier versions, one JSON file per response, is
imported into the file once.

A batch (cached_calls) reads its requests from an iterable, one window at
a time: the calling thread digests the window's cache keys and reads its
cached responses, pending ones included, in one query per READ_CHUNK keys.
Every key is cache_key's digest of its request; a completion batch makes
its keys with completion_keys, which hashes what a prompt's requests share
once per prompt.
An in-process backend's batch is one stream through thread_map(), the map
of cpu_map's pool on the thread that opened it, whose `fork` workers, one
per CPU and each with a pipe of its own, decode the cached responses and
make the answers, each with its encoding for the cache; a window is looked
up only when the map asks for its tasks. An HTTP backend fetches each
window's misses on up to `parallelism` threads, over as many keep-alive
connections (see JsonEndpoint), before it looks up the next. Each answer
is validated where it is decoded or made: on the pool, on the fetching
thread for an HTTP miss, or on the calling thread for a hit decoded there.
A request's step, when it has one (a completion batch gives each summary
one), runs there too, so that only its result comes back. A validated
answer is stored from the calling thread, or from the fetching thread for
an HTTP miss; the results come out in request order on the calling
thread. A backend's `stop` is the run's stop signal: once it is set, its
batches make no further request.

Two deterministic mocks support offline runs and metric validation:

* mock embedding: bag-of-words hashed projection. Whitespace tokens are
  hashed (sha256, first 8 bytes, big-endian) into one of 256 buckets,
  counted, and L2-normalized; empty text maps to the zero vector.
* biased mock: adds a configurable scalar bias along a fixed direction
  whenever a tagged token is present, for validating that the retrieval
  metrics detect injected group preference.

numpy is imported where a vector is made or checked (the mock embedders and
EmbeddingBackend), so that a process that embeds nothing never loads it.
"""

from __future__ import annotations

import collections
import hashlib
import json
import logging
import os
import random
import re
import sqlite3
import threading
import time
import weakref
import zlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import count, islice, repeat, tee
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from hirefair.records import check_types, encode_compact, encode_line, from_row

if TYPE_CHECKING:
    import numpy as np

logger = logging.getLogger(__name__)

MOCK_DIM = 256

#: Token whose hash bucket serves as the bias axis; queries that contain it
#: reward biased documents. Configurable per backend.
DEFAULT_ANCHOR_TOKEN = "the"

#: Seconds each HTTP request may take.
HTTP_TIMEOUT_S = 60.0

#: The categories a regard classifier scores; their scores sum to 1.
REGARD_CATEGORIES = ("positive", "negative", "neutral", "other")

#: The response cache's file, under the cache directory.
CACHE_FILE = "responses.sqlite"
#: Keys per query when a batch reads its cached responses, and requests per
#: window of a batch answered through a map (see cached_calls).
READ_CHUNK = 500
#: Fresh responses pending that make a put commit them: few, large
#: transactions. A batch flushes the rest when it ends. Also the requests per
#: window of a batch fetched on threads.
WRITE_CHUNK = 4096
#: Seconds after which the oldest pending response is committed by the next
#: put, so that a run that is killed loses about that much of what it fetched.
WRITE_AGE_S = 1.0
#: Items per task sent to cpu_map's pool: small, so that each task's pickled
#: items and answers take little memory in the calling process.
MAP_CHUNK = 64

#: A completion holds a word when it holds one of these characters; each
#: word of textmetrics holds one.
_WORD_CHAR_RE = re.compile(r"[A-Za-z0-9]")


class BackendError(Exception):
    """Raised for backend configuration or transport failures."""


class CacheError(Exception):
    """Raised for a response cache row that does not decode."""


class Stopped(Exception):
    """Raised for a request not made because the run's stop signal was set.

    Not a BackendError: the failure that set the signal is the one to report.
    """


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = field(default=3, metadata={"key": "max"})
    base_delay_ms: int = 250

    def __post_init__(self):
        check_types(self, BackendError)


@dataclass(frozen=True)
class BackendParams:
    """A backend block's `params`; each protocol reads the ones PROTOCOLS
    names for it."""

    dim: int = MOCK_DIM                                       # mock embedders
    tag_bias: dict[str, float] = field(default_factory=dict)  # mock-biased
    anchor_token: str = DEFAULT_ANCHOR_TOKEN                  # mock-biased
    input_type: str = "search_document"                       # cohere embeddings

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be a positive int, got {self.dim}")


@dataclass(frozen=True)
class BackendConfig:
    id: str
    kind: str       # "embedding" | "completion" | "regard"
    protocol: str   # (kind, protocol) must be a key of PROTOCOLS
    model_name: str = ""
    endpoint: str = ""
    credential_env: str = ""
    parallelism: int = 8
    retry: RetryPolicy = RetryPolicy()
    max_chars: int | None = None  # refuse (never truncate) longer inputs
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        check_types(self, BackendError)
        protocol = PROTOCOLS.get((self.kind, self.protocol))
        if protocol is None:
            raise BackendError(f"backend {self.id}: protocol {self.protocol!r} "
                               f"serves no kind {self.kind!r}")
        if self.parallelism < 1 or self.retry.max_attempts < 1:
            raise BackendError(f"backend {self.id}: parallelism and retry.max must be >= 1")
        unread = sorted(set(self.params) - set(protocol.params))
        if unread:
            raise BackendError(f"backend {self.id}: protocol {self.protocol!r} reads "
                               f"no param(s) {', '.join(unread)}")
        # `params` checked, with defaults for those it leaves out; an
        # attribute, not a field, so the manifest holds `params` as written
        object.__setattr__(self, "options", from_row(
            BackendParams, self.params, BackendError, f"backend {self.id} params"))

    @property
    def in_process(self) -> bool:
        """Whether the protocol answers in this process, making no request."""
        return PROTOCOLS[self.kind, self.protocol].call is not None


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    temperature: float = 0.0
    max_words_hint: int = 0
    run_index: int = 1

    def __post_init__(self):
        if not 0.0 <= self.temperature <= 1.0:
            raise BackendError(f"temperature must be in [0, 1], got {self.temperature}")
        # type() and not isinstance(), as True is an int too and JSON
        # spells it otherwise, which would key it apart from 1
        if type(self.max_words_hint) is not int or self.max_words_hint < 0:
            raise BackendError(f"max_words_hint must be an int >= 0, "
                               f"got {self.max_words_hint!r}")
        if type(self.run_index) is not int or not 1 <= self.run_index <= 5:
            raise BackendError(f"run_index must be an int in [1, 5], got {self.run_index!r}")


# ---------------------------------------------------------------------------
# response cache
# ---------------------------------------------------------------------------

def cache_key(backend_id: str, model_name: str, payload) -> str:
    """Digest of the canonicalized request; any byte difference changes it."""
    canonical = encode_compact(
        {"backend_id": backend_id, "model_name": model_name, "payload": payload})
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResponseCache:
    """Responses in one sqlite3 file, `<root>/responses.sqlite`, keyed by
    cache_key; eviction is manual (audits are archival).

    Each key is written once (INSERT OR IGNORE), its value the response as
    zlib-compressed JSON. Reads take a window's keys at once and see the
    rows still pending. Writes are buffered; a put commits every pending
    row once WRITE_CHUNK are pending (few, large transactions) or the
    oldest is WRITE_AGE_S old (a killed run loses little), and flush()
    commits the rest. Each transaction
    inserts its rows in key order, so that it rewrites each page of the
    table it touches once and leaves pages fuller than inserts in arrival
    order do. One connection serves every thread, behind a lock.
    When the file is created in a directory that holds an older cache of one
    `??/<key>.json` file per response, those responses are imported once, in
    one transaction, and the files are left alone. close() (or leaving a
    `with` block) flushes and leaves the single file behind.
    """

    # perfbench/traced_audit.py wraps this until ROADMAP item 2's benchmark change
    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._pending: dict[str, bytes] = {}
        self._oldest = 0.0  # time.monotonic() of the first pending put
        self.hits = 0
        self.misses = 0
        self._db = sqlite3.connect(self.root / CACHE_FILE, check_same_thread=False)
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.execute("PRAGMA cache_size=-256")
        with self._db:
            self._db.execute("BEGIN IMMEDIATE")
            if not self._db.execute(
                    "SELECT 1 FROM sqlite_master WHERE name = 'responses'").fetchone():
                self._db.execute("CREATE TABLE responses "
                                 "(key TEXT PRIMARY KEY, response BLOB) WITHOUT ROWID")
                self._db.executemany(_INSERT, _file_entries(self.root))

    def __enter__(self) -> ResponseCache:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        with self._lock:
            return self._db.execute("SELECT COUNT(*) FROM responses").fetchone()[0]

    def close(self) -> None:
        try:
            self.flush()
        finally:
            with self._lock:
                self._db.close()

    def _write(self) -> None:
        """Store the pending rows in one transaction, in key order; the
        caller holds the lock."""
        if self._pending:
            with self._db:
                self._db.executemany(_INSERT, sorted(self._pending.items()))
            self._pending = {}

    def get_many(self, keys: Sequence[str]) -> dict[str, bytes]:
        """The encoded responses of those of the distinct `keys` that are
        stored (see decode_response), rows put but not yet written included;
        the others are read with one query per READ_CHUNK keys."""
        with self._lock:
            found = {key: self._pending[key] for key in keys if key in self._pending}
            unwritten = [key for key in keys if key not in found]
            for start in range(0, len(unwritten), READ_CHUNK):
                chunk = unwritten[start:start + READ_CHUNK]
                found.update(self._db.execute(
                    "SELECT key, response FROM responses WHERE key IN "
                    f"({', '.join('?' * len(chunk))})", chunk))
            self.hits += len(found)
            self.misses += len(keys) - len(found)
        return found

    def put(self, key: str, blob: bytes) -> None:
        """Store `blob`, an encoded response (see encode_response), under
        `key`; it is written once WRITE_CHUNK rows are pending or the oldest
        is WRITE_AGE_S old, or by flush()."""
        now = time.monotonic()
        with self._lock:
            if not self._pending:
                self._oldest = now
            self._pending.setdefault(key, blob)
            if len(self._pending) >= WRITE_CHUNK or now - self._oldest >= WRITE_AGE_S:
                self._write()

    def flush(self) -> None:
        """Write every response put but not yet written."""
        with self._lock:
            self._write()


_INSERT = "INSERT OR IGNORE INTO responses (key, response) VALUES (?, ?)"


def _file_entries(root: Path):
    """(key, encoded response) of each readable `??/<key>.json` file of a
    cache written one file per response, as before the sqlite file. Kept so
    that archived audits of those versions still replay offline."""
    for path in sorted(root.glob("??/*.json")):
        try:
            yield path.stem, encode_response(json.loads(path.read_bytes())["response"])
        except (OSError, ValueError, LookupError, TypeError) as exc:
            logger.warning("skipped unreadable cache file %s: %s", path, exc)


def encode_response(response) -> bytes:
    return zlib.compress(encode_line(response).encode("utf-8"))


def decode_response(blob: bytes):
    return json.loads(zlib.decompress(blob))


def _answered(fetch: Callable, check: Callable,
              task: tuple) -> tuple[object, bytes | None]:
    """One distinct request of cached_calls, answered where this runs: on a
    worker of cpu_map, on a fetching thread or on the calling thread. `task`
    is (blob, item, steps): the cached response `blob` is decoded, or
    without one, fetch(item) makes the answer. The answer is then checked,
    and each of `steps`, one per request that shares it, is applied to what
    check returns; a request without a step (None) takes that itself.

    Returns (the list of results; the answer's encoding for the cache when
    it was made here, else None). A failure is returned as (the exception,
    None), and a blob that does not decode as (CacheError(its exception),
    None), so that a failure on the pool stays with its request and not
    with the whole task."""
    blob, item, steps = task
    fresh = None
    try:
        if blob is None:
            answer = fetch(item)
            fresh = encode_response(answer)
        else:
            try:
                answer = decode_response(blob)
            except Exception as exc:
                return CacheError(exc), None
        checked = check(answer)
        return [checked if step is None else step(checked) for step in steps], fresh
    except Exception as exc:
        return exc, None


class _Call:
    """One distinct request of a window of cached_calls: its digest, the item
    its first request fetches, the window's requests that share it (their
    indices and steps) and its cached response, if any."""

    __slots__ = ("digest", "item", "at", "steps", "blob", "hit")

    def __init__(self, digest: str, item):
        self.digest, self.item = digest, item
        self.at: list[int] = []
        self.steps: list = []
        self.blob: bytes | None = None
        self.hit = False


def _cancel_on_failure(futures: list, done) -> None:
    """Cancel every call of `futures` (None where taken) not yet started once
    `done` failed."""
    if not done.cancelled() and done.exception() is not None:
        for future in futures:
            if future is not None:
                future.cancel()


def cached_calls(cache: ResponseCache | None, keys: Iterable[str],
                 fetch: Callable, validate: Callable, width: int = 1,
                 on_error: Callable[[Exception], object] | None = None,
                 stop: threading.Event | None = None, items: Iterable | None = None,
                 map_fn: Callable = map,
                 steps: Iterable[Callable | None] = repeat(None)) -> Iterator:
    """steps[i](validate(fetch(items[i]))) for each i, in order, read
    through `cache` when there is one; a request whose step is None (each
    one, without `steps`) gives validate(fetch(items[i])) itself.

    `keys[i]` is the cache key of request i (see cache_key), and
    `fetch(items[i])` makes that request; `items` default to the indices of
    `keys`. `keys`, `items` and `steps` are iterables read in step, one
    window at a time, on the calling thread, so that keys made lazily are
    digested there a window at a time. The calling thread merges the
    window's requests with one key, which share one answer, and reads their
    stored responses with one get_many, rows put but not yet written
    included. A response that does not decode is a CacheError naming its
    key. How the answers are made depends on `width`:

    * width 1: `map_fn`, the builtin map or the map of cpu_map, decodes the
      cached responses and makes the misses, each with its encoding for the
      cache, in one map over every window of the batch. A window is
      READ_CHUNK requests, looked up only when the map asks for its tasks.
      A key that repeats in a later window while its first request is still
      on the pool is made again: in-process protocols are pure, so the
      answers are equal, and the cache keeps one row. The pool needs items,
      `fetch`, `validate` and steps that pickle.
    * width > 1: a window is WRITE_CHUNK requests. Its hits are decoded
      through `map_fn`, then its misses are fetched on min(width, misses)
      threads when that is more than one, and in order on the calling thread
      otherwise. The next window is looked up once they are all answered,
      so a key that repeats in it is a hit and each distinct request is made
      once per batch; without a cache it is made again.

    Each answer is validated where it is decoded or made: on the pool, on
    the fetching thread for a miss fetched on threads, or on the calling
    thread, so `validate` must give the same result wherever it runs. The
    steps of every request that shares its key run there too, and only
    their results come back. Results come out in order, each once every
    result before it is known. A fetched response is stored only after it
    validated and each step took it, so a bad response is never cached;
    responses that validated are stored even when the batch then fails.
    Without `on_error`, the first failure cancels the requests still
    queued and is raised; with it, `on_error(exc)` becomes the failed
    request's result (and may raise instead). Once `stop` is set, no
    further request is made: from the first request not made yet (on the
    pool, whose answer was not taken yet) on, the results raise Stopped,
    which on_error never sees. The cache is flushed when the results end,
    however they end, so a caller that keeps them takes them all.
    """
    numbered = enumerate(zip(keys, count() if items is None else items, steps))
    size = WRITE_CHUNK if width > 1 else READ_CHUNK
    windows = iter(lambda: list(islice(numbered, size)), [])
    answer = partial(_answered, fetch, validate)

    def looked_up(window: list) -> list[_Call]:
        """The distinct requests of `window`, in order of first appearance."""
        calls: dict[str, _Call] = {}
        for i, (digest, item, step) in window:
            call = calls.get(digest)
            if call is None:
                call = calls[digest] = _Call(digest, item)
            call.at.append(i)
            call.steps.append(step)
        if cache is not None:
            for digest, blob in cache.get_many(list(calls)).items():
                calls[digest].blob, calls[digest].hit = blob, True
        return list(calls.values())

    def task(call: _Call) -> tuple:
        """_answered's task for `call`; a hit's blob is let go once sent."""
        blob, call.blob = call.blob, None
        return blob, None if call.hit else call.item, call.steps

    def unless_stopped(call: _Call) -> _Call:
        """`call`, unless it is a miss and the run is stopping."""
        if not call.hit and stop is not None and stop.is_set():
            raise Stopped("not requested: the run is stopping")
        return call

    def settled(call: _Call, outcome: tuple[object, bytes | None]) -> tuple[list, list]:
        """(the indices, the results) of the requests of `call`, from
        _answered's outcome; a fresh answer, which validated, is stored."""
        value, blob = outcome
        if isinstance(value, CacheError):
            cause = value.args[0]
            raise CacheError(f"response cache {cache.root / CACHE_FILE}: the row of key "
                             f"{call.digest} does not decode: {cause}") from cause
        if isinstance(value, Exception):
            if on_error is None:
                raise value
            return call.at, [on_error(value)] * len(call.at)
        if blob is not None and cache is not None:
            cache.put(call.digest, blob)
        return call.at, value

    def fetched(call: _Call) -> tuple[list, list]:
        return settled(call, answer(task(unless_stopped(call))))

    def mapped() -> Iterator[tuple[list, list]]:
        """settled() of each distinct request of each window, through one map."""
        sent: collections.deque[_Call] = collections.deque()  # in the map, in order

        def tasks():
            for window in windows:
                for call in looked_up(window):
                    sent.append(unless_stopped(call))
                    yield task(call)

        answers = map_fn(answer, tasks())
        while True:
            if sent:  # the next answer's call, when the map has taken it
                unless_stopped(sent[0])
            outcome = next(answers, None)
            if outcome is None:
                return
            yield settled(sent.popleft(), outcome)

    def threaded() -> Iterator[tuple[list, list]]:
        """settled() of each distinct request of each window: its hits, then
        its misses, on threads when more than one."""
        for window in windows:
            calls = looked_up(window)
            hits = [call for call in calls if call.hit]
            misses = [call for call in calls if not call.hit]
            yield from map(settled, hits, map_fn(answer, map(task, hits)))
            if len(misses) <= 1:
                yield from map(fetched, misses)
                continue
            pool = ThreadPoolExecutor(max_workers=min(width, len(misses)))
            try:
                futures = [pool.submit(fetched, call) for call in misses]
                for future in futures:
                    future.add_done_callback(partial(_cancel_on_failure, futures))
                # Queued calls start in order, so the first failure comes
                # before every cancelled call. A result is let go once taken.
                for i in range(len(futures)):
                    future, futures[i] = futures[i], None
                    yield future.result()
            finally:
                pool.shutdown(cancel_futures=True)

    ahead: dict[int, object] = {}  # results of requests after the next one out
    done = 0
    try:
        for at, results in threaded() if width > 1 else mapped():
            ahead.update(zip(at, results))
            while done in ahead:
                yield ahead.pop(done)
                done += 1
    finally:
        if cache is not None:
            cache.flush()


#: Per thread, as `map`, the map of the cpu_map block that the thread opened.
_opened = threading.local()


def thread_map() -> Callable:
    """The map of the cpu_map block this thread opened and has not left; else
    the builtin map, as on other threads and in the pool's workers."""
    return getattr(_opened, "map", map)


def _serve(conn, parent_ends: list) -> None:
    """A worker of cpu_map's pool: answers each task (fn, items) with
    [fn(item) for item in items] until the calling process ends."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the calling process handles Ctrl-C
    _opened.map = map  # not the binding copied from the thread that forked it
    for end in parent_ends:  # so that only the calling process holds them
        end.close()
    with suppress(EOFError):  # the calling process has ended
        while True:
            fn, items = conn.recv()
            conn.send([fn(item) for item in items])


@contextmanager
def cpu_map() -> Iterator[Callable]:
    """A map for the pure per-item work of one run or command, answered in
    order: on one `fork` worker process per CPU this process may use, in
    tasks of MAP_CHUNK items read from the iterable as they are sent; the
    builtin map with one CPU or without `fork`. Nothing sets the width.
    Open it before the response cache and any thread, numpy's BLAS pool
    included, as each worker copies this process. Only where thread_map()
    gives this map, on the thread that opened it, does it use the pool;
    elsewhere it maps serially. Workers ignore SIGINT, which the calling
    process handles.

    cached_calls streams each batch through one map: the calling thread
    digests the keys a window at a time, and the workers decode the cached
    responses, make the answers and check them.

    Each worker has a pipe of its own and at most one task, since a worker
    blocked sending answers and this process blocked sending it a second
    task would wait for each other: task i goes to worker i % width, which
    gets task i + width once its answers are read. A map left early leaves
    answers owed, which the next map drops. An end of file on a worker's
    pipe, even mid-message, means that it ended (say, killed): the map
    raises BackendError. `fn` must not raise, as that ends its worker too;
    the functions this package maps return their failures instead (see
    records.valued). The workers are killed when the block ends, however
    it ends.
    """
    width = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if width < 2:
        yield map
        return
    import multiprocessing  # only a pool needs it, and importing it is slow

    if "fork" not in multiprocessing.get_all_start_methods():
        yield map
        return
    context = multiprocessing.get_context("fork")
    workers, pipes, owing = [], [], []  # owing: the workers that owe answers, in task order

    def talk(w: int, *task):
        """Sends worker w `task`, (fn, items), or without one, reads its answers."""
        try:
            return pipes[w].send(task) if task else pipes[w].recv()
        except (EOFError, OSError):
            workers[w].join()
            raise BackendError("a worker process of the pool ended with exit code "
                               f"{workers[w].exitcode}") from None

    def pooled(fn: Callable, items: Iterable) -> Iterator:
        if thread_map() is not pooled:
            yield from map(fn, items)
            return
        while owing:  # the answers a map left early owes
            talk(owing.pop(0))
        items = iter(items)
        chunks = iter(lambda: list(islice(items, MAP_CHUNK)), [])
        for i, chunk in enumerate(chunks):
            answers = talk(owing.pop(0)) if i >= width else ()
            talk(i % width, fn, chunk)
            owing.append(i % width)
            yield from answers
        while owing:
            yield from talk(owing.pop(0))

    outer = thread_map()
    try:
        for _ in range(width):
            pipe, child_end = context.Pipe()
            pipes.append(pipe)
            worker = context.Process(target=_serve, args=(child_end, pipes), daemon=True)
            worker.start()
            workers.append(worker)
            child_end.close()
        _opened.map = pooled
        yield pooled
    finally:
        _opened.map = outer
        for worker, pipe in zip(workers, pipes):
            worker.kill()
            worker.join()
            worker.close()
            pipe.close()


# ---------------------------------------------------------------------------
# mock embeddings
# ---------------------------------------------------------------------------

# Memoized, as texts repeat most of their words; bounded, as a corpus's
# vocabulary is not.
@lru_cache(maxsize=1 << 16)
def token_bucket(token: str, dim: int = MOCK_DIM) -> int:
    """Stable hash bucket: first 8 bytes of sha256(token), big-endian, mod dim."""
    return int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "big") % dim


def mock_embedding(text: str, dim: int = MOCK_DIM) -> np.ndarray:
    """Deterministic bag-of-words hashed projection, L2-normalized.

    Word order never matters; empty text maps to the zero vector (the only
    non-unit output).
    """
    import numpy as np

    from hirefair.retrieval import norm

    buckets = np.array([token_bucket(token, dim) for token in text.split()], dtype=np.intp)
    counts = np.bincount(buckets, minlength=dim).astype(np.float64)
    length = norm(counts)
    if length > 0.0:
        counts /= length
    return counts


def mock_biased_embedding(text: str, tag_bias: Mapping[str, float],
                          dim: int = MOCK_DIM,
                          anchor_token: str = DEFAULT_ANCHOR_TOKEN) -> np.ndarray:
    """Bag-of-words embedding plus a scalar bias along a fixed direction.

    When any key of ``tag_bias`` appears as a whitespace token, the summed
    bias of the present tags pushes the vector along the anchor token's
    bucket axis. Any query containing the anchor token then scores tagged
    documents higher, monotonically in the bias. Zero bias reproduces
    mock_embedding exactly.
    """
    from hirefair.retrieval import norm

    vec = mock_embedding(text, dim)
    bias = sum(tag_bias[t] for t in set(text.split()) & set(tag_bias))
    if bias == 0.0:
        return vec
    vec[token_bucket(anchor_token, dim)] += bias
    length = norm(vec)
    if length > 0.0:
        vec /= length
    return vec


# ---------------------------------------------------------------------------
# HTTP transport
# ---------------------------------------------------------------------------

class JsonEndpoint:
    """JSON POSTs to one http(s) URL over keep-alive connections; every
    failure is a BackendError.

    Construction fails fast, before any request, when the URL is empty or
    not an http(s) URL, or the credential variable is unset. It also reads
    the proxy settings once, from the environment (`HTTP_PROXY`,
    `HTTPS_PROXY` and `NO_PROXY`, through urllib.request), and fails when
    the proxy is not an http URL: an https URL goes through its proxy by
    CONNECT, an http one as an absolute-form target. TLS verifies against
    ssl.create_default_context(). Redirects are not followed and netrc is
    not read.

    A post takes the connection that went idle last, or opens one; it goes
    back, up to `width` idle connections, once its response was read in full
    and did not ask to close. An idle connection whose socket turned
    readable was closed by the server and is dropped. One that fails before
    its response, because the server closed it meanwhile, is replaced once
    by a new one, which costs no attempt. Connection errors, timeouts, 429
    and 5xx are retried under `retry` with exponential backoff; 3xx, any
    other 4xx, a body that is not JSON, and a body the schema adapter cannot
    read fail at once. Each connect, send and read may wait HTTP_TIMEOUT_S.
    close() closes the idle connections; it runs by itself when the
    endpoint is collected.
    """

    def __init__(self, name: str, url: str, credential_env: str,
                 retry: RetryPolicy, width: int = 1):
        if not url:
            raise BackendError(f"{name}: endpoint required for HTTP protocols")
        self.headers = {"Content-Type": "application/json"}
        if credential_env:
            if credential_env not in os.environ:
                raise BackendError(
                    f"{name}: credential env var {credential_env!r} is not set")
            self.headers["Authorization"] = f"Bearer {os.environ[credential_env]}"
        self.name, self.retry, self.width = name, retry, width
        # only HTTP backends need these, and importing them is slow
        import http.client
        import urllib.request

        parts = _http_url(name, "endpoint", url)
        proxy = None
        if not urllib.request.proxy_bypass(parts.netloc.rpartition("@")[2]):
            proxy = urllib.request.getproxies().get(parts.scheme)
        address = (parts.hostname, parts.port)
        self._target = parts.path or "/"
        if parts.query:
            self._target += f"?{parts.query}"
        self._tunnel = None
        if proxy:
            via = _http_url(name, "proxy", proxy if "://" in proxy else f"http://{proxy}",
                            ("http",))
            proxy_headers = {}
            if via.username is not None:
                from base64 import b64encode
                from urllib.parse import unquote

                user = f"{unquote(via.username)}:{unquote(via.password or '')}"
                proxy_headers["Proxy-Authorization"] = (
                    f"Basic {b64encode(user.encode('utf-8')).decode('ascii')}")
            if parts.scheme == "https":
                self._tunnel = (*address, proxy_headers)
            else:
                self._target = parts._replace(fragment="").geturl()
                self.headers.update(proxy_headers)
            address = (via.hostname, via.port)
        # a new connection, which its first request opens
        self._connection = partial(http.client.HTTPConnection, *address,
                                   timeout=HTTP_TIMEOUT_S)
        if parts.scheme == "https":
            import ssl

            self._connection = partial(http.client.HTTPSConnection, *address,
                                       timeout=HTTP_TIMEOUT_S,
                                       context=ssl.create_default_context())
        self._lock = threading.Lock()
        self._idle: list = []
        self.close = weakref.finalize(self, _close_all, self._idle, self._lock)

    def post(self, payload: dict, read: Callable):
        """`read(body)` of the JSON answer to `payload`; `read` raises
        LookupError, TypeError or ValueError for a body it cannot use."""
        from http.client import HTTPException

        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        delay = self.retry.base_delay_ms / 1000.0
        for attempt in range(1, self.retry.max_attempts + 1):
            try:
                status, answer = self._exchange(body)
            except (OSError, HTTPException) as exc:
                error = f"{type(exc).__name__}: {exc}"
            except ValueError as exc:  # say, a header value http.client refuses
                raise BackendError(f"{self.name}: request failed: {exc}") from exc
            else:
                if status < 300:
                    try:
                        return read(json.loads(answer))
                    except (LookupError, TypeError, ValueError) as exc:
                        raise BackendError(
                            f"{self.name}: unreadable response: {exc!r}") from exc
                error = f"HTTP {status}: {answer.decode('utf-8', 'replace')[:200]}"
                if status != 429 and status < 500:
                    raise BackendError(f"{self.name}: {error}")
            if attempt < self.retry.max_attempts:
                logger.warning("%s attempt %d failed: %s", self.name, attempt, error)
                time.sleep(delay)
                delay *= 2
        raise BackendError(f"{self.name}: request failed after "
                           f"{self.retry.max_attempts} attempts: {error}")

    def _exchange(self, body: bytes) -> tuple[int, bytes]:
        """(status, body) of the answer to one POST of `body`. A server that
        closes an idle connection has not read a request sent on it, so when
        an idle one fails that way, the request is sent once more on a new
        connection."""
        while True:
            with self._lock:
                conn = self._idle.pop() if self._idle else None
            if conn is None:
                break
            if _readable(conn.sock):  # closed by the server
                conn.close()
                continue
            try:
                return self._round_trip(conn, body)
            except ConnectionError:
                break
        conn = self._connection()
        if self._tunnel is not None:
            conn.set_tunnel(*self._tunnel)
        return self._round_trip(conn, body)

    def _round_trip(self, conn, body: bytes) -> tuple[int, bytes]:
        """(status, body) of the answer to `body` on `conn`, which then goes
        back to the idle connections unless it closes."""
        try:
            conn.request("POST", self._target, body, self.headers)
            response = conn.getresponse()
            answer = response.read()
        except BaseException:
            conn.close()
            raise
        with self._lock:
            keep = not response.will_close and len(self._idle) < self.width
            if keep:
                self._idle.append(conn)
        if not keep:
            conn.close()
        return response.status, answer


def _http_url(name: str, what: str, url: str, schemes=("http", "https")):
    """`url` split, when it is a URL of one of `schemes` with a host and a
    valid port."""
    from urllib.parse import urlsplit

    try:
        parts = urlsplit(url)
        parts.port  # raises ValueError for a port that is not a number in range
    except ValueError as exc:
        raise BackendError(f"{name}: bad {what} URL {url!r}: {exc}") from exc
    if parts.scheme not in schemes or not parts.hostname:
        raise BackendError(f"{name}: {what} {url!r} is not a {'/'.join(schemes)} URL")
    return parts


def _readable(sock) -> bool:
    """Whether `sock` has something to read (or has been closed by its peer)."""
    import select

    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def _close_all(connections: list, lock: threading.Lock) -> None:
    """Close and forget every connection of `connections`, which `lock` guards."""
    with lock:
        closing, connections[:] = connections[:], []
    for conn in closing:
        conn.close()


def _numbers(values) -> list[float]:
    """A JSON array of numbers as floats."""
    if not isinstance(values, list) or not all(type(v) in (int, float) for v in values):
        raise TypeError(f"not an array of numbers: {str(values)[:80]}")
    return [float(v) for v in values]


def validate_regard(scores: Mapping[str, float]) -> dict[str, float]:
    """Check a regard response: all four categories, each in [0, 1] (so not
    NaN), summing to 1 within 1e-6."""
    missing = [c for c in REGARD_CATEGORIES if c not in scores]
    if missing:
        raise ValueError(f"regard response missing categories: {missing}")
    values = {c: float(scores[c]) for c in REGARD_CATEGORIES}
    outside = {c: v for c, v in values.items() if not 0.0 <= v <= 1.0}
    if outside:
        raise ValueError(f"regard scores outside [0, 1]: {outside}")
    total = sum(values.values())
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"regard scores sum to {total}, not 1")
    return values


# ---------------------------------------------------------------------------
# protocols and backends
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Protocol:
    """How one (kind, protocol) pair answers one item, a text to embed or to
    score for regard, or a CompletionRequest: an HTTP protocol posts
    `body(config, item)` and answers `read(json_answer)`, an in-process one
    answers `call(config, item)`. The answer (a list of floats, a text, or
    the regard scores) is what the cache stores. `params` names the params
    the protocol reads."""

    body: Callable | None = None
    read: Callable | None = None
    call: Callable | None = None
    params: tuple[str, ...] = ()


#: Word stock for the deterministic mock summarizer; includes evaluative
#: vocabulary so the sentiment measures see non-trivial inputs.
_MOCK_VOCAB = (
    "the candidate demonstrates strong experience in data analysis and team "
    "leadership with excellent communication skills a proven record of "
    "reliable delivery and good judgment they bring solid technical depth "
    "careful planning and creative problem solving work history shows steady "
    "growth impressive results and clear impact across projects colleagues "
    "describe them as dependable thoughtful and effective overall a capable "
    "professional suited for demanding roles"
).split()


def _mock_summary(config: BackendConfig, request: CompletionRequest) -> str:
    """Deterministic pseudo-summary seeded by the prompt digest."""
    digest = hashlib.sha256(request.prompt.encode("utf-8")).hexdigest()
    rng = random.Random(f"{config.model_name}:{digest}:{request.run_index}:{request.temperature}")
    n_words = request.max_words_hint or 60
    words = [rng.choice(_MOCK_VOCAB) for _ in range(n_words)]
    sentences = []
    i = 0
    while i < len(words):
        n = min(rng.randint(8, 14), len(words) - i)
        chunk = words[i:i + n]
        sentences.append(chunk[0].capitalize() + " " + " ".join(chunk[1:]) + ".")
        i += n
    return " ".join(sentences)


# openai-compatible and mistral-compatible share the /embeddings and chat schemas
_EMBEDDINGS = Protocol(
    body=lambda config, text: {"model": config.model_name, "input": [text]},
    read=lambda answer: _numbers(answer["data"][0]["embedding"]))
_CHAT = Protocol(
    body=lambda config, request: {
        "model": config.model_name,
        "messages": [{"role": "user", "content": request.prompt}],
        "temperature": request.temperature},
    read=lambda answer: answer["choices"][0]["message"]["content"])

#: How each (kind, protocol) pair makes one uncached request; BackendConfig
#: rejects every other pair.
PROTOCOLS = {
    ("embedding", "openai-compatible"): _EMBEDDINGS,
    ("embedding", "mistral-compatible"): _EMBEDDINGS,
    ("embedding", "cohere-compatible"): Protocol(
        body=lambda config, text: {"model": config.model_name, "texts": [text],
                                   "input_type": config.options.input_type},
        read=lambda answer: _numbers(answer["embeddings"][0]),
        params=("input_type",)),
    ("embedding", "mock"): Protocol(
        call=lambda config, text: mock_embedding(text, config.options.dim).tolist(),
        params=("dim",)),
    ("embedding", "mock-biased"): Protocol(
        call=lambda config, text: mock_biased_embedding(
            text, config.options.tag_bias, config.options.dim,
            config.options.anchor_token).tolist(),
        params=("dim", "tag_bias", "anchor_token")),
    ("completion", "openai-compatible"): _CHAT,
    ("completion", "mistral-compatible"): _CHAT,
    ("completion", "cohere-compatible"): Protocol(
        body=lambda config, request: {"model": config.model_name, "message": request.prompt,
                                      "temperature": request.temperature},
        read=lambda answer: answer["text"]),
    ("completion", "mock"): Protocol(call=_mock_summary),
    # the prompt's trailing line; handy as a test double
    ("completion", "echo"): Protocol(
        call=lambda config, request: request.prompt.rstrip("\n").rsplit("\n", 1)[-1]),
    ("regard", "http"): Protocol(body=lambda config, text: {"text": text},
                                 read=validate_regard),
}


class Backend:
    """A backend's config, response cache and protocol.

    `width` bounds the threads a batch fetches misses on. An HTTP protocol
    posts through `http`, a JsonEndpoint built (and its credential checked)
    with the backend, with up to `parallelism` requests in flight; an
    in-process one makes no requests (`http` is None), so a batch streams
    through thread_map() (see cached_calls). Once `stop`, the run's stop
    signal, is set, a batch makes no further request. A backend
    pickles as its class and config, without its cache or stop signal, so
    that a worker of cpu_map's pool can answer for it."""

    width = 1
    http: JsonEndpoint | None = None
    stop: threading.Event | None = None

    def __init__(self, config: BackendConfig, cache: ResponseCache | None = None):
        self.config = config
        self.cache = cache
        self.protocol = PROTOCOLS[config.kind, config.protocol]
        if not config.in_process:
            self.http = JsonEndpoint(f"backend {config.id}", config.endpoint,
                                     config.credential_env, config.retry,
                                     width=config.parallelism)
            self.width = config.parallelism

    def __reduce__(self):
        return type(self), (self.config,)

    def _request(self, item):
        """The uncached answer to one item, made as the protocol says."""
        if self.protocol.call is not None:
            return self.protocol.call(self.config, item)
        return self.http.post(self.protocol.body(self.config, item), self.protocol.read)

    def _key(self, payload) -> str:
        """The cache key of a request of this backend with `payload`."""
        return cache_key(self.config.id, self.config.model_name, payload)

    def _batch(self, items: Iterable, text: Callable, digest: Callable,
               validate: Callable, on_error: Callable | None = None,
               steps: Iterable[Callable | None] = repeat(None)) -> Iterator:
        """steps[i](validate(answer)) for each item in order, as an iterator,
        each made where its answer is, or validate(answer) for an item
        without a step; its request's cache key is digest(item). No item's
        input text, text(item), may exceed max_chars, which each window of
        the batch checks before any of its requests (see cached_calls). A
        failed request raises, or gives on_error(exc). Only an in-process
        protocol's batches go through thread_map()."""
        limit = self.config.max_chars

        def key(item) -> str:
            if limit is not None and len(text(item)) > limit:
                raise BackendError(
                    f"backend {self.config.id}: input of {len(text(item))} chars exceeds "
                    f"max_chars={limit}; refusing to truncate")
            return digest(item)

        items, keyed = tee(items)  # read in step, so tee holds one item
        return cached_calls(self.cache, map(key, keyed), self._request, validate, self.width,
                            on_error, self.stop, items,
                            thread_map() if self.http is None else map, steps)


class EmbeddingBackend(Backend):
    """Texts as read-only float64 vectors of one dimension."""

    def __init__(self, config: BackendConfig, cache: ResponseCache | None = None):
        super().__init__(config, cache)
        # In process, the `dim` param, so that a copy of the backend on
        # cpu_map's pool checks each vector as this one would; over HTTP,
        # the first dimension a vector has.
        self._dimension: int | None = config.options.dim if config.in_process else None
        self._dim_lock = threading.Lock()

    def _vector(self, values: Sequence[float]) -> np.ndarray:
        """A response as a finite vector of the backend's dimension."""
        import numpy as np

        vec = np.array(values, dtype=np.float64)
        if not np.isfinite(vec).all():
            raise BackendError(f"backend {self.config.id}: embedding vector contains "
                               f"non-finite values")
        with self._dim_lock:
            if self._dimension is None:
                self._dimension = len(vec)
            elif len(vec) != self._dimension:
                raise BackendError(
                    f"backend {self.config.id}: dimension {len(vec)} != "
                    f"expected {self._dimension}"
                )
        return vec

    def embed_batch(self, texts: Iterable[str]) -> list[np.ndarray]:
        """Embed in order; cached entries are served without touching the
        network (see cached_calls). One vector serves every text of a window
        that shares its request, so each is read-only: marked so here, as a
        vector pickled back from the pool comes back writeable."""
        vectors = list(self._batch(texts, str,
                                   lambda text: self._key({"op": "embed", "text": text}),
                                   self._vector))
        for vec in vectors:
            vec.flags.writeable = False
        return vectors


def _completion_payload(request: CompletionRequest) -> dict:
    return {"op": "complete", "prompt": request.prompt, "temperature": request.temperature,
            "run_index": request.run_index, "max_words_hint": request.max_words_hint}


#: Prompts whose hashed key head one completion batch keeps at most.
PROMPT_MEMO = 64


def completion_keys(backend_id: str, model_name: str) -> Callable[[CompletionRequest], str]:
    """The cache key of each completion request of one batch: what
    cache_key(backend_id, model_name, _completion_payload(request)) gives,
    with the head that a prompt's requests share hashed once per prompt.

    Its keys sorted, the JSON that cache_key digests ends with the payload,
    whose max_words_hint, op and prompt come before run_index and
    temperature. So the requests of one prompt and length, at any run
    index and temperature, share every byte up to run_index. That head is
    hashed once, and each request hashes its run index and temperature on a
    copy of its hash. The hashes of up to PROMPT_MEMO heads are kept, and
    dropped together when that many are."""
    heads: dict[tuple[str, int], object] = {}  # (prompt, length) -> sha256 of head

    def key(request: CompletionRequest) -> str:
        shared = (request.prompt, request.max_words_hint)
        state = heads.get(shared)
        if state is None:
            if len(heads) >= PROMPT_MEMO:
                heads.clear()
            head = encode_compact({"backend_id": backend_id, "model_name": model_name,
                                   "payload": {"max_words_hint": request.max_words_hint,
                                               "op": "complete", "prompt": request.prompt}})
            state = heads[shared] = hashlib.sha256(f"{head[:-2]},".encode("utf-8"))
        state = state.copy()
        tail = encode_compact({"run_index": request.run_index,
                               "temperature": request.temperature})
        state.update(f"{tail[1:]}}}".encode("utf-8"))
        return state.hexdigest()

    return key


class CompletionBackend(Backend):
    def _text(self, text) -> str:
        """A completion that holds a word; any other answer is a backend
        error, so it is never cached and a rerun asks again. Pure, so that
        a batch checks its answers where it makes them."""
        if not isinstance(text, str) or not _WORD_CHAR_RE.search(text):
            raise BackendError(f"backend {self.config.id}: completion without a word "
                               f"{text!r:.80}")
        return text

    def complete_batch(self, requests: Iterable[CompletionRequest],
                       steps: Iterable[Callable | None] = repeat(None)) -> Iterator:
        """Run completions in order, as an iterator of their texts;
        responses are cached per (prompt, run_index, temperature) so reruns
        stay stable despite provider nondeterminism. `requests` (and
        `steps`) are read a window at a time, so a lazy grid streams
        through. With `steps`, steps[i](text of request i) in place of each
        text, each step made where its text is decoded or made: on
        cpu_map's pool for an in-process protocol, so that the text itself
        need not come back (see cached_calls). A caller that keeps the
        results takes them all, so that the batch ends and flushes the
        cache."""
        return self._batch(requests, attrgetter("prompt"),
                           completion_keys(self.config.id, self.config.model_name),
                           self._text, steps=steps)

    # perfbench/traced_audit.py wraps this until ROADMAP item 2's benchmark change
    def complete(self, request: CompletionRequest) -> str:
        """Run one completion: a batch of one."""
        [text] = self.complete_batch([request])
        return text


class RegardClient(Backend):
    """Category scores of texts from an external regard classifier.

    The endpoint receives {"text": ...} and must answer with the four
    category scores. A request that still fails after its retries is not
    cached: its score is None and the measure is recorded as absent."""

    @staticmethod
    def _failed(exc: Exception) -> Exception:
        if not isinstance(exc, (BackendError, ValueError, TypeError)):
            raise exc
        return exc

    def score_batch(self, texts: Iterable[str]) -> list[dict[str, float] | None]:
        """Scores of each text in order; None where a request failed, with
        one warning per batch that has any."""
        results = list(self._batch(texts, str, lambda text: self._key({"text": text}),
                                   validate_regard, self._failed))
        errors = [r for r in results if isinstance(r, Exception)]
        if errors:
            logger.warning("backend %s: regard absent for %d of %d texts; first error: %s",
                           self.config.id, len(errors), len(results), errors[0])
        return [None if isinstance(r, Exception) else r for r in results]

    # perfbench/traced_audit.py wraps this until ROADMAP item 2's benchmark change
    def score(self, text: str) -> dict[str, float] | None:
        return self.score_batch([text])[0]


# perfbench/traced_audit.py wraps this until ROADMAP item 2's benchmark change
def build_backend(config: BackendConfig, cache: ResponseCache | None = None) -> Backend:
    """Construct a backend from config, failing fast on missing credentials."""
    kind = EmbeddingBackend if config.kind == "embedding" else CompletionBackend
    return kind(config, cache)
