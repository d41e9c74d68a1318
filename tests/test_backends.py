import hashlib
import itertools
import json
import logging
import math
import multiprocessing
import os
import pickle
import shutil
import signal
import sys
import sqlite3
import subprocess
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, contextmanager
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hirefair import backends
from hirefair.backends import (
    DEFAULT_ANCHOR_TOKEN,
    MAP_CHUNK,
    MOCK_DIM,
    WRITE_AGE_S,
    WRITE_CHUNK,
    BackendConfig,
    BackendError,
    CacheError,
    PROTOCOLS,
    CompletionBackend,
    CompletionRequest,
    EmbeddingBackend,
    JsonEndpoint,
    ResponseCache,
    RetryPolicy,
    Stopped,
    _completion_payload,
    build_backend,
    cache_key,
    cached_calls,
    completion_keys,
    cpu_map,
    decode_response,
    encode_response,
    mock_biased_embedding,
    mock_embedding,
    thread_map,
    token_bucket,
)
from hirefair.retrieval import cosine
from hirefair.textmetrics import NoWordError

from conftest import DEEP_JSON, cached_response, recorded_tasks


def mock_config(backend_id="m", kind="embedding", protocol="mock", **params):
    return BackendConfig(id=backend_id, kind=kind, protocol=protocol,
                         model_name="mock-model", params=params)


# ---------------------------------------------------------------------------
# mock embedding: the published hashing rule
# ---------------------------------------------------------------------------

def reference_bucket(token: str, dim: int = MOCK_DIM) -> int:
    # independent evaluation of the documented rule
    return int.from_bytes(hashlib.sha256(token.encode()).digest()[:8], "big") % dim


def reference_embedding(text: str, dim: int = MOCK_DIM, tag_bias=None,
                        anchor_token: str = DEFAULT_ANCHOR_TOKEN) -> np.ndarray:
    """The mock embedders token by token, each bucket hashed afresh."""
    counts = np.zeros(dim, dtype=np.float64)
    for token in text.split():
        counts[reference_bucket(token, dim)] += 1.0
    norm = float(np.linalg.norm(counts))
    if norm > 0.0:
        counts /= norm
    bias = sum((tag_bias or {})[t] for t in set(text.split()) & set(tag_bias or {}))
    if bias == 0.0:
        return counts
    counts[reference_bucket(anchor_token, dim)] += bias
    norm = float(np.linalg.norm(counts))
    if norm > 0.0:
        counts /= norm
    return counts


def test_empty_text_is_zero_vector():
    vec = mock_embedding("")
    assert vec.shape == (MOCK_DIM,)
    assert not vec.any()


def test_repetition_is_scale_invariant():
    assert np.array_equal(mock_embedding("a a"), mock_embedding("a"))


def test_two_token_text_hand_computed():
    bx, by = reference_bucket("x"), reference_bucket("y")
    assert bx != by
    expected = np.zeros(MOCK_DIM)
    expected[bx] = 1 / math.sqrt(2)
    expected[by] = 1 / math.sqrt(2)
    assert np.allclose(mock_embedding("x y"), expected, atol=1e-15)


def test_token_bucket_matches_reference():
    for token in ("x", "y", "resume", "Williams", "Latoya"):
        assert token_bucket(token) == reference_bucket(token)


@given(st.lists(st.sampled_from("alpha beta gamma delta epsilon".split()),
                min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_word_order_never_matters(words):
    shuffled = list(reversed(words))
    assert np.array_equal(mock_embedding(" ".join(words)),
                          mock_embedding(" ".join(shuffled)))


def test_nonempty_vectors_are_unit_norm():
    vec = mock_embedding("one two three two")
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


@given(words=st.lists(st.sampled_from(["the", "analyst", "Latoya", "Émile", "x", "дата"]),
                      max_size=30),
       dim=st.sampled_from([1, 7, MOCK_DIM]),
       bias=st.sampled_from([0.0, 0.5, -2.0]))
@settings(max_examples=80, deadline=None)
def test_mock_embedders_equal_their_unmemoized_oracle(words, dim, bias):
    """Bit for bit, the empty text included, however often a token repeats."""
    text = "  ".join(words)
    assert mock_embedding(text, dim).tobytes() == reference_embedding(text, dim).tobytes()
    tag_bias = {"Latoya": bias}
    assert mock_biased_embedding(text, tag_bias, dim).tobytes() == \
        reference_embedding(text, dim, tag_bias).tobytes()


# ---------------------------------------------------------------------------
# biased mock
# ---------------------------------------------------------------------------

def test_zero_bias_reproduces_plain_mock():
    text = "strong analyst with Latoya header"
    assert np.array_equal(mock_biased_embedding(text, {"Latoya": 0.0}),
                          mock_embedding(text))
    assert np.array_equal(mock_biased_embedding(text, {"Absent": 5.0}),
                          mock_embedding(text))


def test_bias_raises_similarity_to_anchored_queries():
    job = mock_embedding("own the dashboard reporting stack for the analytics team")
    plain = "analyst resume Latoya mentions dashboards"
    base = cosine(mock_embedding(plain), job)
    last = base
    for bias in (0.5, 2.0, 8.0):
        biased = cosine(mock_biased_embedding(plain, {"Latoya": bias}), job)
        assert biased > last  # monotone in the bias
        last = biased


def test_bias_only_fires_on_tagged_tokens():
    no_tag = "analyst resume mentions dashboards"
    assert np.array_equal(mock_biased_embedding(no_tag, {"Latoya": 4.0}),
                          mock_embedding(no_tag))


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def test_cache_key_sensitivity():
    base = cache_key("b", "m", {"op": "embed", "text": "hello"})
    assert cache_key("b", "m", {"op": "embed", "text": "hello"}) == base
    assert cache_key("b", "m", {"op": "embed", "text": "hello!"}) != base
    assert cache_key("b2", "m", {"op": "embed", "text": "hello"}) != base
    assert cache_key("b", "m2", {"op": "embed", "text": "hello"}) != base
    # params key a request only when there are any
    assert cache_key("b", "m", {"op": "embed", "text": "hello"}, {}) == base
    with_params = cache_key("b", "m", {"op": "embed", "text": "hello"}, {"dim": 8})
    assert with_params != base
    assert cache_key("b", "m", {"op": "embed", "text": "hello"}, {"dim": 9}) != with_params


def test_a_backends_params_key_its_requests(tmp_path, monkeypatch, loopback):
    """Requests of a backend block that sets params are keyed with them, so
    that one cache answers a changed `tag_bias` or `input_type` afresh; a
    block without params keys its requests as cache_key does without, and
    params are keyed as checked, leaving out those at their defaults."""
    text = "the x"
    with ResponseCache(tmp_path) as cache:
        for tag_bias in ({}, {"x": 5.0}, {"x": 5}):
            backend = EmbeddingBackend(mock_config(protocol="mock-biased", tag_bias=tag_bias),
                                       cache)
            [vec] = backend.embed_batch([text])
            assert np.array_equal(vec, mock_biased_embedding(text, tag_bias))
        assert not np.array_equal(mock_biased_embedding(text, {}),
                                  mock_biased_embedding(text, {"x": 5.0}))
        assert len(cache) == 2
        for params in ({}, {"input_type": "search_query"}, {}):
            backend = build_backend(http_config("cohere-compatible", "embedding", monkeypatch,
                                                loopback, params=params), cache)
            loopback.script["/v1"] = [(200, {"embeddings": [[0.5, 0.5]]})]
            assert np.array_equal(backend.embed_batch(["hello"])[0], [0.5, 0.5])
        # the third batch, params as the first, was a hit
        assert [sent["input_type"] for sent in sent_bodies(loopback)] == [
            "search_document", "search_query"]
        assert len(cache) == 4
    payload = {"op": "embed", "text": text}
    plain = EmbeddingBackend(mock_config())
    assert plain._key(payload) == cache_key("m", "mock-model", payload)
    assert EmbeddingBackend(mock_config(dim=MOCK_DIM))._key(payload) == plain._key(payload)
    assert EmbeddingBackend(mock_config(dim=8))._key(payload) == cache_key(
        "m", "mock-model", payload, {"dim": 8})


#: A completion request whose key is pinned, with non-ASCII text and a newline.
GOLDEN_REQUEST = CompletionRequest("Résumé «x»\n\nGenerate a 100-word summary", 0.3, 100, 2)


def test_cache_keys_keep_their_digests(tmp_path):
    """The digests that key every archived cache: a change to how requests
    are canonicalized would orphan them. A completion backend stores its
    answer under the pinned key."""
    assert cache_key("b", "m", {"op": "embed", "text": "hello"}) == (
        "7a185f46d6584c6f44ed4aa0a0be7b41f4e11f905d33bd4c6165cd04becf2c24")
    golden = "0a25bf4049f79d7ee2f56409a4ee695c4097c196bad242e3e707a25b30a8d607"
    assert cache_key("mock-complete", "mock-summarizer",
                     _completion_payload(GOLDEN_REQUEST)) == golden
    assert completion_keys("mock-complete", "mock-summarizer")(GOLDEN_REQUEST) == golden
    config = BackendConfig(id="mock-complete", kind="completion", protocol="echo",
                           model_name="mock-summarizer")
    with ResponseCache(tmp_path) as cache:
        assert CompletionBackend(config, cache).complete(GOLDEN_REQUEST) == (
            "Generate a 100-word summary")
        assert cached_response(cache, golden) == "Generate a 100-word summary"


#: Prompts with what JSON escapes or spells as it is: quotes, backslashes,
#: control characters, non-ASCII text and line separators.
PROMPTS = st.one_of(st.text(), st.text(alphabet='"\\\x00\x1f\x7f\n\t é«»\u2028\U0001f600a'))


@pytest.mark.parametrize("memo", [1, 64])
def test_completion_keys_equal_cache_key(monkeypatch, memo):
    """completion_keys gives each request what cache_key gives its payload,
    as a batch's prompts repeat at other lengths, temperatures and run
    indices, and its memo of prompts fills and empties. A request stores an
    int temperature as a float, so 0 and 0.0 share a key; 0.0 and -0.0,
    which compare equal but are different JSON, keep the different keys
    that cache_key gives."""
    monkeypatch.setattr(backends, "PROMPT_MEMO", memo)

    @given(st.text(), st.text(), st.lists(PROMPTS, min_size=1, max_size=4), st.data())
    @settings(max_examples=150, deadline=None)
    def check(backend_id, model_name, prompts, data):
        key = completion_keys(backend_id, model_name)
        requests = data.draw(st.lists(st.builds(
            CompletionRequest, st.sampled_from(prompts),
            st.one_of(st.floats(0, 1), st.sampled_from([0, 1, -0.0])),
            st.integers(min_value=0), st.integers(1, 5)), min_size=1, max_size=30))
        for request in requests:
            assert key(request) == cache_key(backend_id, model_name,
                                             _completion_payload(request))

    check()


@pytest.mark.parametrize("field, value", [
    ("temperature", "0.3"), ("temperature", True),
    ("max_words_hint", 100.0), ("max_words_hint", -1), ("max_words_hint", True),
    ("max_words_hint", "100"), ("max_words_hint", None),
    ("run_index", 1.0), ("run_index", True), ("run_index", 0), ("run_index", 6),
    ("run_index", "1"),
])
def test_a_bad_request_field_is_refused_before_any_request(field, value):
    """A temperature that is not a number, a length that is not an int >= 0,
    or a run index that is not an int in [1, 5], is a BackendError when the
    request is built. A bool is no number here: its JSON would key it apart
    from the number it equals."""
    with pytest.raises(BackendError, match=f"{field} must be "):
        CompletionRequest("p", **{field: value})


def test_an_int_temperature_is_stored_as_a_float():
    request = CompletionRequest("p", 1)
    assert type(request.temperature) is float
    assert completion_keys("b", "m")(request) == completion_keys("b", "m")(
        CompletionRequest("p", 1.0))


class Clock:
    """A time.monotonic that stands still until `now` is set."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    clock = Clock()
    monkeypatch.setattr(backends.time, "monotonic", clock)
    return clock


def stored_keys(root) -> list[str]:
    """The keys committed to the cache file under `root`, as a second
    connection sees them."""
    with closing(sqlite3.connect(root / "responses.sqlite")) as db:
        return [key for (key,) in db.execute("SELECT key FROM responses ORDER BY key")]


def fresh_rows(n: int) -> list[tuple[str, bytes]]:
    return [(cache_key(*key_of(i)), encode_response(f"response {i}")) for i in range(n)]


def test_put_rows_wait_for_a_full_chunk_or_flush(tmp_path, clock):
    rows = fresh_rows(WRITE_CHUNK + 2)
    with ResponseCache(tmp_path) as cache:
        for row in rows[:WRITE_CHUNK - 1]:
            cache.put(*row)
        assert stored_keys(tmp_path) == []
        cache.put(*rows[WRITE_CHUNK - 1])
        assert stored_keys(tmp_path) == sorted(key for key, _ in rows[:WRITE_CHUNK])
        cache.put(*rows[WRITE_CHUNK])
        cache.put(*rows[WRITE_CHUNK + 1])
        assert len(stored_keys(tmp_path)) == WRITE_CHUNK
        cache.flush()
        assert stored_keys(tmp_path) == sorted(key for key, _ in rows)


def test_get_many_returns_rows_put_but_not_yet_written(tmp_path, clock):
    rows = fresh_rows(3)
    with ResponseCache(tmp_path) as cache:
        cache.put(*rows[0])
        cache.flush()
        cache.put(*rows[1])
        assert stored_keys(tmp_path) == [rows[0][0]]
        assert cache.get_many([key for key, _ in rows]) == dict(rows[:2])
        assert (cache.hits, cache.misses) == (2, 1)


def test_a_put_commits_every_pending_row_once_the_oldest_is_old(tmp_path, clock):
    rows = fresh_rows(6)
    with ResponseCache(tmp_path) as cache:
        cache.put(*rows[0])
        clock.now += WRITE_AGE_S / 2
        cache.put(*rows[1])
        clock.now += WRITE_AGE_S / 2 - 1e-3
        cache.put(*rows[2])
        assert stored_keys(tmp_path) == []
        clock.now += 1e-3  # the first row is WRITE_AGE_S old
        cache.put(*rows[3])
        assert stored_keys(tmp_path) == sorted(key for key, _ in rows[:4])
        # the age counts from the oldest row still pending
        clock.now += WRITE_AGE_S / 2
        cache.put(*rows[4])
        clock.now += WRITE_AGE_S / 2 - 1e-3
        cache.put(*rows[5])
        assert len(stored_keys(tmp_path)) == 4
    assert stored_keys(tmp_path) == sorted(key for key, _ in rows)


def test_a_response_file_nested_too_deep_is_skipped_on_import(tmp_path, caplog):
    """A cache of one file per response imports each file it can read; a
    file nested too deep to parse is skipped with a warning, as any other
    unreadable file is."""
    for key, doc in (("aa" * 32, b'{"response": "kept"}'),
                     ("bb" * 32, b'{"response": ' + DEEP_JSON + b"}")):
        path = tmp_path / key[:2] / f"{key}.json"
        path.parent.mkdir()
        path.write_bytes(doc)
    with caplog.at_level(logging.WARNING, logger="hirefair.backends"), \
            ResponseCache(tmp_path) as cache:
        assert stored_keys(tmp_path) == ["aa" * 32]
        assert cached_response(cache, "aa" * 32) == "kept"
    assert "skipped unreadable cache file" in caplog.text and "bb" * 32 in caplog.text


class RecordingConnection:
    """A sqlite3 connection that records the rows of each executemany."""

    def __init__(self, db):
        self.db = db
        self.batches: list[list] = []

    def __enter__(self):
        return self.db.__enter__()

    def __exit__(self, *exc):
        return self.db.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self.db, name)

    def executemany(self, sql, rows):
        self.batches.append(list(rows))
        return self.db.executemany(sql, self.batches[-1])


@pytest.mark.parametrize("width", [None, 1, 4])
def test_each_write_transaction_inserts_its_rows_in_key_order(tmp_path, clock, width):
    keys = [key_of(i) for i in range(WRITE_CHUNK + 100)]
    with ResponseCache(tmp_path) as cache:
        cache._db = recording = RecordingConnection(cache._db)
        list(cached_calls(cache, stream(keys), lambda i: f"response {i}", str, width=width))
        # one full chunk, then the batch's flush
        assert [len(batch) for batch in recording.batches] == [WRITE_CHUNK, 100]
        for batch in recording.batches:
            assert [key for key, _ in batch] == sorted(key for key, _ in batch)
        assert sorted(key for batch in recording.batches for key, _ in batch) == \
            sorted(cache_key(*key) for key in keys)


def test_same_text_twice_served_from_cache(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    backend = EmbeddingBackend(mock_config(), cache)
    first = backend.embed_batch(["same text"])
    assert cache.hits == 0
    second = backend.embed_batch(["same text"])
    assert cache.hits == 1
    assert np.array_equal(first[0], second[0])


def test_cache_persists_across_backend_instances(tmp_path):
    cache_dir = tmp_path / "cache"
    first = EmbeddingBackend(mock_config(), ResponseCache(cache_dir))
    vec = first.embed_batch(["persist me"])[0]
    fresh_cache = ResponseCache(cache_dir)
    second = EmbeddingBackend(mock_config(), fresh_cache)
    again = second.embed_batch(["persist me"])[0]
    assert fresh_cache.hits == 1
    assert np.array_equal(again, vec)


def test_cached_response_is_byte_identical(tmp_path):
    cache = ResponseCache(tmp_path)
    config = mock_config(kind="completion")
    backend = CompletionBackend(config, cache)
    req = CompletionRequest(prompt="summarize this", temperature=0.0,
                            max_words_hint=20, run_index=1)
    first = backend.complete(req)
    second = backend.complete(req)
    assert first == second
    assert cache.hits == 1


def test_completions_cached_per_run_index(tmp_path):
    cache = ResponseCache(tmp_path)
    backend = CompletionBackend(mock_config(kind="completion"), cache)
    texts = {
        run: backend.complete(CompletionRequest(
            prompt="p", temperature=0.0, max_words_hint=30, run_index=run))
        for run in (1, 2, 3)
    }
    assert len(set(texts.values())) > 1  # provider nondeterminism emulated
    for run, text in texts.items():
        assert backend.complete(CompletionRequest(
            prompt="p", temperature=0.0, max_words_hint=30, run_index=run)) == text


# ---------------------------------------------------------------------------
# embed_batch contract
# ---------------------------------------------------------------------------

def test_empty_request_list():
    backend = EmbeddingBackend(mock_config())
    assert backend.embed_batch([]) == []


def test_one_text_twice_is_one_read_only_vector(monkeypatch):
    """A text repeated within one window of a batch gets one vector, and a
    text repeated in a later window an equal one of its own; each is
    read-only. Windows are READ_CHUNK requests on a map and WRITE_CHUNK over
    threads, here 5 each."""
    first, second = EmbeddingBackend(mock_config()).embed_batch(["a", "a"])
    assert first is second
    assert first.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        first[0] = 1.0
    monkeypatch.setattr(backends, "READ_CHUNK", 5)
    monkeypatch.setattr(backends, "WRITE_CHUNK", 5)
    texts = ["a", "b", "a", "c", "d", "e", "f", "g", "a"]
    for width in (None, 1, 4):
        backend = EmbeddingBackend(mock_config())
        backend.width = width
        vectors = backend.embed_batch(texts)
        assert vectors[0] is vectors[2] and vectors[0] is not vectors[8]
        assert np.array_equal(vectors[0], vectors[8])
        assert not any(v.flags.writeable for v in vectors)


def test_order_preserved_under_parallelism(tmp_path):
    texts = [f"text number {i}" for i in range(40)]
    serial = EmbeddingBackend(mock_config())
    serial.config = BackendConfig(id="m", kind="embedding", protocol="mock",
                                  model_name="mock-model", parallelism=1)
    parallel = EmbeddingBackend(mock_config())
    a = serial.embed_batch(texts)
    b = parallel.embed_batch(texts)
    assert all(np.array_equal(u, v) for u, v in zip(a, b))


def test_dimension_mismatch_detected():
    class ShiftyBackend(EmbeddingBackend):
        def _request(self, text):
            return [1.0] * (8 if len(text) % 2 else 9)

    backend = ShiftyBackend(mock_config())
    with pytest.raises(BackendError, match="dimension"):
        backend.embed_batch(["a", "bb"])


def test_max_chars_refuses_not_truncates():
    config = BackendConfig(id="m", kind="embedding", protocol="mock",
                           model_name="mock-model", max_chars=5)
    backend = EmbeddingBackend(config)
    with pytest.raises(BackendError, match="refusing to truncate"):
        backend.embed_batch(["123456"])


def test_non_finite_vector_rejected():
    class NanBackend(EmbeddingBackend):
        def _request(self, text):
            return [float("nan")] * 4

    with pytest.raises(BackendError, match="non-finite"):
        NanBackend(mock_config()).embed_batch(["x"])


# ---------------------------------------------------------------------------
# cached_calls: one batched path for every remote request
# ---------------------------------------------------------------------------

def key_of(i):
    return ("b", "m", {"item": i})


def stream(keys: Iterable[tuple], items: Iterable | None = None,
           steps: Iterable = itertools.repeat(None)) -> Iterator[tuple]:
    """The requests of cached_calls for `keys`, cache_key's arguments: (the
    cache key, made as it is read, the item, the step), the items the
    indices of `keys` unless given."""
    return zip(itertools.starmap(cache_key, keys),
               itertools.count() if items is None else items, steps)


def test_cached_calls_keep_input_order():
    def fetch(i):
        time.sleep(0.001 * (i % 5))
        return i * 10

    keys = [key_of(i) for i in range(30)]
    assert list(cached_calls(None, stream(keys), fetch, lambda r: r + 1, width=4)) == \
        [i * 10 + 1 for i in range(30)]


def test_cached_calls_fetch_each_distinct_key_once(tmp_path):
    fetched = []
    lock = threading.Lock()

    def fetch(i):
        with lock:
            fetched.append(items[i])
        return f"response {items[i]}"

    items = [0, 1, 0, 2, 1, 0]
    keys = [key_of(i) for i in items]
    for cache in (None, ResponseCache(tmp_path)):
        fetched.clear()
        results = list(cached_calls(cache, stream(keys), fetch, str, width=4))
        assert results == [f"response {i}" for i in items]
        assert sorted(fetched) == [0, 1, 2]


def test_cached_calls_all_hits_start_no_thread(tmp_path, monkeypatch):
    cache = ResponseCache(tmp_path)
    keys = [key_of(i) for i in range(10)]
    list(cached_calls(cache, stream(keys), lambda i: [float(i)], tuple, width=8))

    def no_pool(*args, **kwargs):
        raise AssertionError("a batch of cache hits started a thread pool")

    monkeypatch.setattr("hirefair.backends.ThreadPoolExecutor", no_pool)
    threads = threading.active_count()
    assert list(cached_calls(cache, stream(keys), lambda i: pytest.fail("fetched a hit"),
                             tuple, width=8)) == [(float(i),) for i in range(10)]
    assert threading.active_count() == threads


def test_in_process_backends_run_on_the_calling_thread():
    seen = set()

    class Embedder(EmbeddingBackend):
        def _request(self, text):
            seen.add(threading.get_ident())
            return super()._request(text)

    class Completer(CompletionBackend):
        def _request(self, request):
            seen.add(threading.get_ident())
            return super()._request(request)

    embedder = Embedder(mock_config())
    completer = Completer(mock_config(kind="completion"))
    assert embedder.config.parallelism == completer.config.parallelism == 8
    embedder.embed_batch([f"text {i}" for i in range(20)])
    list(completer.complete_batch([CompletionRequest(prompt=f"p {i}") for i in range(20)]))
    assert seen == {threading.get_ident()}


@pytest.mark.parametrize("width", [1, 4])
@pytest.mark.parametrize("k", [0, 5])
def test_cached_calls_first_error_cancels_queued_calls(k, width):
    """Request k fails while request k - 1, if any, is still in flight: its
    failure is raised, and no request that had not started when it failed
    is made. The caller waits on request k - 1 meanwhile, so the threads
    themselves must leave the queued requests alone."""
    started, lock = [], threading.Lock()

    def fetch(i):
        with lock:
            started.append(i)
        if i == k:
            raise BackendError("refused")
        time.sleep(0.5 if i == k - 1 else 0.05)
        return i

    keys = [key_of(i) for i in range(60)]
    with pytest.raises(BackendError, match="refused"):
        list(cached_calls(None, stream(keys), fetch, int, width=width))
    # requests start in order: every one up to k, and at most the width - 1
    # that other threads had taken when request k failed
    assert set(range(k + 1)) <= set(started) <= set(range(k + width))


def test_a_failure_never_turns_an_earlier_request_into_stopped():
    """A thread that took request 0 before request 1 failed, but checks the
    batch's failures only after, still makes request 0: its result comes out,
    then request 1's failure, never Stopped in its place."""
    failed = threading.Event()
    calls = itertools.count()

    class SlowToCheck:
        """A stop signal that is never set, whose first check waits until
        request 1 has failed."""

        def is_set(self):
            if next(calls) == 0:
                failed.wait(timeout=10)
            return False

    def fetch(i):
        if i == 1:
            failed.set()
            raise BackendError("refused")
        return i

    results = cached_calls(None, stream([key_of(0), key_of(1)]), fetch, int, width=2,
                           stop=SlowToCheck())
    assert next(results) == 0
    with pytest.raises(BackendError, match="refused"):
        next(results)


def test_a_batch_closed_early_makes_none_of_its_queued_requests():
    """Leaving a batch on threads after its first result waits for the
    requests in flight and starts none of those still queued."""
    started, lock = [], threading.Lock()

    def fetch(i):
        with lock:
            started.append(i)
        time.sleep(0.05)
        return i

    keys = [key_of(i) for i in range(40)]
    with closing(cached_calls(None, stream(keys), fetch, int, width=4)) as results:
        assert next(results) == 0
    made = len(started)
    time.sleep(0.3)
    assert len(started) == made <= 2 * 4


@pytest.mark.parametrize("width", [None, 1, 4])
def test_cached_calls_make_no_request_once_stopped(tmp_path, width):
    """A set stop signal turns every request not yet made into Stopped, which
    on_error never sees; cached responses are still served."""
    stop = threading.Event()
    cache = ResponseCache(tmp_path)
    keys = [key_of(i) for i in range(12)]
    fetched = []

    def fetch(i):
        fetched.append(i)
        if i == 3:
            stop.set()
        return f"response {i}"

    with pytest.raises(Stopped):
        list(cached_calls(cache, stream(keys), fetch, str, width=width,
                          on_error=lambda exc: pytest.fail(f"on_error saw {exc!r}"), stop=stop))
    assert 3 in fetched and len(fetched) < len(keys)
    # responses that validated before the stop stay cached
    assert all(cached_response(cache, cache_key(*keys[i])) == f"response {i}" for i in fetched)
    assert list(cached_calls(cache, stream(keys[:1]), lambda i: pytest.fail("fetched a hit"),
                             str, stop=stop)) == ["response 0"]


def test_cached_calls_never_cache_an_invalid_response(tmp_path):
    def fetch(i):
        time.sleep(0.001)
        return "bad" if i == 5 else f"good {i}"

    def validate(response):
        if response == "bad":
            raise BackendError("invalid response")
        return response

    keys = [key_of(i) for i in range(12)]
    cache = ResponseCache(tmp_path)
    with pytest.raises(BackendError, match="invalid"):
        list(cached_calls(cache, stream(keys), fetch, validate, width=4))
    stored = [cached_response(cache, cache_key(*key)) for key in keys]
    assert len(cache) > 0 and "bad" not in stored

    # with on_error the failed request's result is absent, the rest is stored
    results = list(cached_calls(cache, stream(keys), fetch, validate, width=4,
                                on_error=lambda exc: None))
    assert results == [None if i == 5 else f"good {i}" for i in range(12)]
    assert cached_response(cache, cache_key(*keys[5])) is None
    assert len(cache) == 11


@pytest.mark.parametrize("width", [None, 1, 4])
def test_a_failed_batch_keeps_its_validated_responses(tmp_path, width):
    """Responses that validated before a failure are stored, in full chunks
    and in the final flush; a retry fetches only what is missing."""
    n, k = WRITE_CHUNK + 60, WRITE_CHUNK + 30
    keys = [key_of(i) for i in range(n)]
    fetched, lock = [], threading.Lock()

    def fetch(i):
        with lock:
            fetched.append(i)
        if i == k:
            raise BackendError("refused")
        return f"good {i}"

    cache = ResponseCache(tmp_path)
    with pytest.raises(BackendError, match="refused"):
        list(cached_calls(cache, stream(keys), fetch, str, width=width))
    stored = {i for i in range(n) if cached_response(cache, cache_key(*keys[i])) is not None}
    # queued calls start in order, so every request before k was fetched
    assert stored == set(fetched) - {k} >= set(range(k))
    assert len(cache) == len(stored)

    fetched.clear()
    results = list(cached_calls(cache, stream(keys),
                                fetch=lambda i: fetched.append(i) or f"good {i}",
                                validate=str, width=width))
    assert results == [f"good {i}" for i in range(n)]
    assert sorted(fetched) == sorted(set(range(n)) - stored)
    assert len(cache) == n


def test_embed_batch_stress_with_more_workers_than_cores(tmp_path):
    texts = [f"word{i % 97} shared text {i % 3}" for i in range(400)]
    cache = ResponseCache(tmp_path)
    backend = EmbeddingBackend(mock_config(), cache)
    backend.width = 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        vectors = backend.embed_batch(texts)
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(v, mock_embedding(t)) for v, t in zip(vectors, texts))
    assert len(cache) == len(set(texts))
    cache.close()
    assert [p.name for p in tmp_path.iterdir()] == ["responses.sqlite"]


# ---------------------------------------------------------------------------
# cpu_map: the run's process pool
# ---------------------------------------------------------------------------

def cpus(monkeypatch, n):
    """Let this process use `n` CPUs, as cpu_map sees them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def pid(item) -> int:
    """The process that maps `item`; at module level, so that a pool's worker
    can run it."""
    return os.getpid()


def sees_a_pool(item) -> bool:
    return thread_map() is not map


def test_cpu_map_on_one_cpu_is_the_builtin_map(monkeypatch):
    cpus(monkeypatch, 1)
    with cpu_map() as map_fn:
        assert map_fn is map
        assert thread_map() is map


def test_the_pool_maps_only_on_the_thread_that_opened_it(monkeypatch):
    """thread_map() gives the pool's map on the thread that opened the block,
    and the builtin map on another thread and after the block. The pool's
    map, called from another thread, runs serially there and sends the pool
    nothing; the pool still answers afterwards."""
    cpus(monkeypatch, 2)
    tasks = recorded_tasks(monkeypatch)
    assert thread_map() is map
    with cpu_map() as map_fn:
        assert thread_map() is map_fn is not map
        with ThreadPoolExecutor(max_workers=1) as other:
            assert other.submit(thread_map).result() is map
            serial = other.submit(lambda: list(map_fn(pid, range(4 * MAP_CHUNK)))).result()
        assert serial == [os.getpid()] * (4 * MAP_CHUNK)
        assert tasks == []
        pooled = set(map_fn(pid, range(4 * MAP_CHUNK)))
        assert pooled == {w.pid for w in multiprocessing.active_children()}
        assert {thread for thread, _ in tasks} == {threading.get_ident()}
    assert thread_map() is map


def test_a_function_run_in_a_worker_sees_no_pool(monkeypatch):
    """A worker forked on a thread that has a pool open sees none there, so
    that it never writes to the pipes of the process it copies; leaving the
    inner block gives the thread back the outer pool."""
    cpus(monkeypatch, 2)
    with cpu_map() as outer:
        with cpu_map() as inner:  # its workers copy a thread bound to `outer`
            assert thread_map() is inner
            assert not any(inner(sees_a_pool, range(4 * MAP_CHUNK)))
        assert thread_map() is outer
        assert not any(outer(sees_a_pool, range(4 * MAP_CHUNK)))
    assert multiprocessing.active_children() == []


def test_cpu_map_workers_ignore_sigint_and_end_with_the_block(monkeypatch):
    cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="run failed"):
        with cpu_map() as map_fn:
            assert map_fn is not map
            assert len(multiprocessing.active_children()) == 2
            assert set(map_fn(signal.getsignal, [signal.SIGINT] * 200)) == {signal.SIG_IGN}
            map_fn(time.sleep, [0.05] * 40)  # still running when the block ends
            raise RuntimeError("run failed")
    assert multiprocessing.active_children() == []


def test_a_killed_worker_ends_the_map_in_seconds(monkeypatch):
    """A worker killed during a long map closes its pipe, so the map raises
    BackendError, naming its exit code, within seconds instead of waiting
    for the task it held; the block ends, and no worker is left."""
    cpus(monkeypatch, 2)
    with pytest.raises(BackendError, match="worker process of the pool ended with exit "
                                           f"code -{int(signal.SIGKILL)}"):
        with cpu_map() as map_fn:
            victim = multiprocessing.active_children()[0]
            # 40 tasks of 64 items, 1.28 s each: about 26 s on two workers
            for i, _ in enumerate(map_fn(time.sleep, [0.02] * 2560)):
                if i == 0:
                    os.kill(victim.pid, signal.SIGKILL)
                    killed = time.monotonic()
    assert time.monotonic() - killed < 6
    assert multiprocessing.active_children() == []


def large_answer(i: int) -> bytes:
    """An answer whose task of MAP_CHUNK takes many writes to send."""
    return bytes(8192)


#: Five times over, a worker is killed while the workers send 64 KB answers:
#: each time the map raises BackendError within 6 s and no worker is left.
KILLED_WHILE_SENDING = """
import multiprocessing, os, signal, time

from hirefair.backends import BackendError, cpu_map


def large(i):
    return bytes(65536)


os.sched_getaffinity = lambda pid: {0, 1}
for _ in range(5):
    try:
        with cpu_map() as map_fn:
            victim = multiprocessing.active_children()[0]
            for i, _ in enumerate(map_fn(large, range(20000))):
                if i == 0:
                    os.kill(victim.pid, signal.SIGKILL)
                    killed = time.monotonic()
    except BackendError as exc:
        assert "exit code -9" in str(exc), exc
        assert time.monotonic() - killed < 6
    else:
        raise AssertionError("the map ended without BackendError")
    assert multiprocessing.active_children() == []
print("ended five times")
"""


def test_a_worker_killed_while_sending_ends_the_map():
    """A worker killed in the middle of a message cuts it short, which ends
    the map like any killed worker. In a subprocess with a timeout, so that
    a hang fails in seconds."""
    proc = subprocess.run(
        [sys.executable, "-c", KILLED_WHILE_SENDING], capture_output=True, text=True,
        timeout=30, env={**os.environ, "PYTHONPATH": str(Path(backends.__file__).parents[1])})
    assert proc.stdout == "ended five times\n", proc.stderr


def test_a_map_left_early_leaves_the_next_map_its_own_answers(monkeypatch):
    """A map abandoned after one answer leaves answers owed; the next map
    drops those and returns exactly its own."""
    cpus(monkeypatch, 2)
    with cpu_map() as map_fn:
        first = map_fn(str, range(1000))
        assert next(first) == "0"
        first.close()
        assert list(map_fn(abs, range(-500, 0))) == list(range(500, 0, -1))
        assert list(map_fn(str, range(3))) == ["0", "1", "2"]


def refuses_at(k: int, error: type[Exception], i: int) -> int:
    """2 * i, or `error` at item k; at module level, so that a pool's
    worker can run it."""
    if i == k:
        raise error(f"refused item {i}")
    return 2 * i


def until_raised(map_fn: Callable, k: int,
                 error: type[Exception] = ValueError) -> tuple[list, type, tuple]:
    """The answers a map of refuses_at over range(40) gives before it
    raises, and the type and arguments of what it raises."""
    answers = []
    try:
        for answer in map_fn(partial(refuses_at, k, error), range(40)):
            answers.append(answer)
    except Exception as exc:
        return answers, type(exc), exc.args
    pytest.fail("the map did not raise")


@pytest.mark.parametrize("k, error", [(0, ValueError), (4, ValueError), (5, ValueError),
                                      (17, ValueError), (39, ValueError), (5, NoWordError)])
def test_a_raising_fn_raises_at_its_item_as_the_builtin_map(monkeypatch, k, error):
    """On a two-worker pool with tasks of 3 items, a function that raises at
    item k gives the answers to items 0 to k-1 and then raises what the
    builtin map raises, a NoWordError too, which pickles back as it is
    raised. Both workers serve on, and the next map on the pool gives its
    own answers."""
    assert pickle.loads(pickle.dumps(error())).args == error().args
    cpus(monkeypatch, 2)
    monkeypatch.setattr(backends, "MAP_CHUNK", 3)
    with cpu_map() as map_fn:
        assert map_fn is not map
        assert until_raised(map_fn, k, error) == until_raised(map, k, error) == (
            [2 * i for i in range(k)], error, (f"refused item {k}",))
        assert [w.is_alive() for w in multiprocessing.active_children()] == [True, True]
        assert list(map_fn(abs, range(-100, 0))) == list(range(100, 0, -1))


def test_leaving_a_map_while_workers_send_ends_the_block(monkeypatch):
    """Workers still sending large answers when the block is left are killed,
    even in the middle of a message; as nothing reads their pipes any more,
    the block ends at once and no worker is left."""
    cpus(monkeypatch, 2)
    for _ in range(10):
        with cpu_map() as map_fn:
            assert next(iter(map_fn(large_answer, range(4096)))) == bytes(8192)
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("n", [1, 2])
def test_pooled_answers_and_cache_rows_equal_the_serial_ones(tmp_path, monkeypatch, n):
    texts = [f"word{i % 97} shared text {i % 3}" for i in range(300)]
    requests = [CompletionRequest(prompt=f"resume {i % 150}", max_words_hint=100)
                for i in range(300)]
    cpus(monkeypatch, n)
    with cpu_map(), ResponseCache(tmp_path) as cache:
        vectors = EmbeddingBackend(mock_config(), cache).embed_batch(texts)
        summaries = list(CompletionBackend(mock_config(kind="completion"),
                                           cache).complete_batch(requests))
        rows = cache._db.execute("SELECT key, response FROM responses").fetchall()
    serial = CompletionBackend(mock_config(kind="completion"))
    assert all(np.array_equal(v, mock_embedding(t)) for v, t in zip(vectors, texts))
    assert summaries == [serial.complete(request) for request in requests]
    assert len(rows) == len(set(texts)) + 150
    by_key = dict(rows)
    for text, vec in zip(texts, vectors):
        blob = by_key[cache_key("m", "mock-model", {"op": "embed", "text": text})]
        assert decode_response(blob) == vec.tolist()


class Refuses(EmbeddingBackend):
    """Answers "short" with a vector of 8 and "nan" with a non-finite one;
    at module level, so that a pool's worker can answer for it."""

    def _request(self, text):
        if text == "short":
            return [1.0] * 8
        if text == "nan":
            return [float("nan")] * MOCK_DIM
        return super()._request(text)


@pytest.mark.parametrize("at", [0, 12])
@pytest.mark.parametrize("bad, error", [("short", "dimension 8 != expected 256"),
                                        ("nan", "non-finite")])
def test_a_pooled_embedding_batch_refuses_a_bad_vector(tmp_path, monkeypatch, bad, error, at):
    """On the pool, a copy of an in-process embedder checks each vector
    against its `dim` param, even the first one it makes, and refuses one
    that is not finite; the batch raises at the bad vector's place, and
    only the vectors before it are cached."""
    cpus(monkeypatch, 2)
    monkeypatch.setattr(backends, "READ_CHUNK", 5)
    tasks = recorded_tasks(monkeypatch)
    texts = [f"text {i}" for i in range(20)]
    texts.insert(at, bad)
    with cpu_map() as map_fn, ResponseCache(tmp_path) as cache:
        assert map_fn is not map
        backend = Refuses(mock_config(), cache)
        with pytest.raises(BackendError, match=error):
            backend.embed_batch(texts)
        assert tasks
        assert cached_response(cache, backend._key({"op": "embed", "text": bad})) is None
        assert len(cache) == at


def test_a_pooled_embedding_batch_gives_read_only_vectors(tmp_path, monkeypatch):
    """Vectors made on the pool, and then decoded there from the cache, come
    back equal to mock_embedding's and read-only."""
    cpus(monkeypatch, 2)
    monkeypatch.setattr(backends, "READ_CHUNK", 5)
    tasks = recorded_tasks(monkeypatch)
    texts = [f"word{i % 7} text {i % 3}" for i in range(40)]
    with cpu_map() as map_fn, ResponseCache(tmp_path) as cache:
        assert map_fn is not map
        for made in (True, False):
            misses = cache.misses
            vectors = EmbeddingBackend(mock_config(), cache).embed_batch(texts)
            assert (cache.misses > misses) is made
            assert all(np.array_equal(v, mock_embedding(t)) for v, t in zip(vectors, texts))
            assert not any(v.flags.writeable for v in vectors)
    assert tasks


class StopAfterThree(EmbeddingBackend):
    """Sets `stop` once the calling thread took three results of a batch, as
    a run's failure elsewhere would; at module level, so that a pool's
    worker can answer for it."""

    def _batch(self, *args, **kwargs):
        self.taken = 0
        for result in super()._batch(*args, **kwargs):
            yield result
            self.taken += 1
            if self.taken == 3:
                self.stop.set()


class Refusing(EmbeddingBackend):
    def _request(self, item):
        pytest.fail(f"requested {item!r}")


def test_a_backend_whose_stop_is_set_makes_no_request(tmp_path, loopback):
    """A batch of a backend whose stop signal is set raises Stopped before
    any request, over HTTP as in process. A pickled backend carries neither
    the signal nor the cache."""
    with ResponseCache(tmp_path) as cache:
        for backend in (build_backend(loop_config(loopback), cache),
                        Refusing(mock_config(), cache)):
            backend.stop = threading.Event()
            backend.stop.set()
            with pytest.raises(Stopped):
                backend.embed_batch(["hello"])
            copy = pickle.loads(pickle.dumps(backend))
            assert (copy.stop, copy.cache) == (None, None)
    assert loopback.requests == {}


@pytest.mark.parametrize("n", [1, 2])
def test_a_batch_takes_no_answer_once_stopped(tmp_path, monkeypatch, n):
    """Once the stop signal is set, the batch takes no further answer, from
    the builtin map or the pool, and raises Stopped; what validated stays
    cached, and the next batch on the same map gets its own answers."""
    cpus(monkeypatch, n)
    texts = [f"text {i}" for i in range(200)]
    with cpu_map(), ResponseCache(tmp_path) as cache:
        backend = StopAfterThree(mock_config(), cache)
        backend.stop = threading.Event()
        with pytest.raises(Stopped):
            backend.embed_batch(texts)
        assert backend.taken == 3
        assert len(cache) == 3
        vectors = EmbeddingBackend(mock_config(), cache).embed_batch(texts)
        assert all(np.array_equal(v, mock_embedding(t)) for v, t in zip(vectors, texts))


class FailsOnFive(CompletionBackend):
    """Refuses the prompt "p 5"; at module level, so that a pool's worker can
    answer for it."""

    def _request(self, request):
        if request.prompt == "p 5":
            raise BackendError("refused p 5")
        return super()._request(request)


@pytest.mark.parametrize("n", [1, 2])
def test_a_pooled_failure_stays_with_its_item(tmp_path, monkeypatch, n):
    """A request that fails on a worker fails alone, as with the builtin map:
    on_error sees it at its place, and the items of its task around it are
    answered and stored."""
    cpus(monkeypatch, n)
    requests = [CompletionRequest(prompt=f"p {i}") for i in range(150)]
    with cpu_map(), ResponseCache(tmp_path) as cache:
        backend = FailsOnFive(mock_config(kind="completion"), cache)
        keys = [(backend.config.id, backend.config.model_name, {"prompt": r.prompt})
                for r in requests]
        results = list(cached_calls(cache, stream(keys, requests), backend._request,
                                    backend._text, on_error=lambda exc: str(exc)))
        assert results[5] == "refused p 5"
        assert results[:5] + results[6:] == [backend._request(r) for r in requests
                                             if r.prompt != "p 5"]
        assert len(cache) == 149


def answer(i: int) -> str:
    """The response to request i; at module level, so that a pool's worker
    can make it."""
    return f"answer {i}"


def refusing_sevens(response: str) -> str:
    if response.endswith("7"):
        raise ValueError(f"refused {response!r}")
    return response.upper()


#: 300 requests of 150 keys, each key twice; every third key is cached.
KEYS = [("b", "m", {"i": i % 150}) for i in range(300)]
CACHED = {cache_key(*key): encode_response(f"cached {key[2]['i']}") for key in KEYS[:150:3]}
#: A cached row that does not decode, for the key of request 10.
CORRUPT = {**CACHED, cache_key(*KEYS[10]): b"garbage"}
#: A key that does not digest (a set is not JSON), at request 100.
UNDIGESTIBLE = [*KEYS[:100], ("b", "m", {"i": {1, 2}}), *KEYS[100:]]


def outcome(call: Callable):
    """call()'s result, or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("keys, stored, validate, on_error", [
    (KEYS, CACHED, str, None),
    (KEYS, CACHED, refusing_sevens, None),
    (KEYS, CACHED, refusing_sevens, repr),
    (UNDIGESTIBLE, CACHED, str, None),
    (KEYS, CORRUPT, str, None),
    (KEYS, CORRUPT, str, repr),
], ids=["hits-and-misses", "failing-validation", "failing-validation-on-error",
        "digest-raises", "decoding-raises", "decoding-raises-on-error"])
def test_pooled_batches_equal_builtin_ones(tmp_path, monkeypatch, keys, stored, validate,
                                           on_error):
    """Over a two-worker pool, cached_calls gives what it gives over the
    builtin map, results or error, and leaves the same rows in the cache; an
    item that fails on a worker ends no worker."""
    cpus(monkeypatch, 2)

    def batch():
        shutil.rmtree(tmp_path / "cache", ignore_errors=True)
        with ResponseCache(tmp_path / "cache") as cache:
            for key, blob in stored.items():
                cache.put(key, blob)
            cache.flush()
            result = outcome(lambda: list(cached_calls(cache, stream(keys), answer, validate,
                                                       on_error=on_error)))
            rows = cache._db.execute("SELECT key, response FROM responses ORDER BY key")
            return result, rows.fetchall()

    serial = batch()
    with cpu_map() as map_fn:
        assert map_fn is not map
        pooled = batch()
        assert list(map_fn(abs, range(-200, 0))) == list(range(200, 0, -1))
        assert [w.is_alive() for w in multiprocessing.active_children()] == [True, True]
    assert pooled == serial


@pytest.mark.parametrize("window, tasks", [(500, 150), (40, 300)])
def test_a_batch_decodes_and_fetches_on_the_pool_in_one_map(tmp_path, monkeypatch,
                                                             window, tasks):
    """Every cached response is decoded and every miss answered through one
    map of the batch, however many windows it spans, on the pool's workers;
    the keys are digested on the calling thread. A key that repeats in a
    later window is a task of that window too, and the cache keeps one row
    for it."""
    cpus(monkeypatch, 2)
    monkeypatch.setattr(backends, "READ_CHUNK", window)
    mapped = []
    with cpu_map() as map_fn, ResponseCache(tmp_path) as cache:
        def counted(fn: Callable, items):
            """map_fn, counting its tasks; while it runs, thread_map() gives
            map_fn, so that the pool, which checks it, does the work."""
            items = list(items)
            mapped.append((fn.func, len(items)))
            with monkeypatch.context() as patch:
                patch.setattr(backends, "thread_map", lambda: map_fn)
                yield from map_fn(fn, items)

        monkeypatch.setattr(backends, "thread_map", lambda: counted)
        for key, blob in CACHED.items():
            cache.put(key, blob)
        cache.flush()
        results = list(cached_calls(cache, stream(KEYS, [i % 150 for i in range(300)],
                                                  [partial(tagged, i) for i in range(300)]),
                                    answer, str))
        workers = {w.pid for w in multiprocessing.active_children()}
        assert len(cache) == 150
    assert [(tag, text) for tag, text, _ in results] == [
        (i, f"cached {i % 150}" if i % 150 % 3 == 0 else f"answer {i % 150}")
        for i in range(300)]
    assert {pid for *_, pid in results} == workers and len(workers) == 2
    assert mapped == [(backends._answered, tasks)]


def tagged(tag: int, text: str) -> tuple[int, str, int]:
    """A step: its request's tag, the checked answer, and the process that
    ran it; at module level, so that a pool's worker can run it."""
    return tag, text, os.getpid()


@pytest.mark.parametrize("n", [1, 2])
def test_a_batch_with_steps_runs_them_where_answers_are(tmp_path, monkeypatch, n):
    """With steps, each request's step takes its key's one answer, checked,
    in the process that decoded or made it; a request that repeats a key
    gets its own step on the same answer. Results come in request order as
    an iterator, and each distinct answer is made and stored once."""
    cpus(monkeypatch, n)
    keys = [("b", "m", {"i": i % 5}) for i in range(12)]
    with cpu_map(), ResponseCache(tmp_path) as cache:
        cache.put(cache_key(*keys[0]), encode_response("cached 0"))
        cache.flush()
        results = cached_calls(cache, stream(keys, [i % 5 for i in range(12)],
                                             [partial(tagged, i) for i in range(12)]),
                               answer, str.upper)
        assert not isinstance(results, list)
        results = list(results)
        workers = {w.pid for w in multiprocessing.active_children()}
        assert len(cache) == 5
    assert [(tag, text) for tag, text, _ in results] == [
        (i, "CACHED 0" if i % 5 == 0 else f"ANSWER {i % 5}") for i in range(12)]
    assert {pid for *_, pid in results} <= (workers if n > 1 else {os.getpid()})


#: The width of cached_calls on each path that the stream tests take: one
#: map on the calling thread, one map over cpu_map's pool, fetching threads,
#: or an HTTP backend's windows at parallelism 1, fetched on the calling thread.
PATHS = {"map": None, "pool": None, "threads": 4, "width-1": 1}
#: Key ids of a stream read 5 at a time: keys repeat within a window (0 and
#: 4) and in later ones (0, 1, 2, 3 and 7); the keys of CACHED_IDS are hits.
STREAM = [0, 1, 0, 2, 3, 4, 4, 1, 5, 6, 0, 7, 9, 8, 2, 7, 3, 1]
CACHED_IDS = {1, 5, 8}


@contextmanager
def stream_path(monkeypatch, path: str):
    """The width of cached_calls on `path`, each window 5 requests long,
    inside a cpu_map block whose map is a pool only on path "pool". On the
    HTTP paths READ_CHUNK is 3, so that only WRITE_CHUNK can make the
    window 5 there."""
    monkeypatch.setattr(backends, "READ_CHUNK", 5 if PATHS[path] is None else 3)
    monkeypatch.setattr(backends, "WRITE_CHUNK", 5)
    cpus(monkeypatch, 2 if path == "pool" else 1)
    with cpu_map() as map_fn:
        assert (map_fn is not map) == (path == "pool")
        yield PATHS[path]


@pytest.mark.parametrize("path", PATHS)
def test_a_stream_comes_out_in_request_order(tmp_path, monkeypatch, path):
    """Requests read from generators give their results in request order,
    hits among misses and keys repeated within and across windows; a
    repeated key, even one made again on the pool, leaves one cache row."""
    with stream_path(monkeypatch, path) as width, ResponseCache(tmp_path) as cache:
        for i in CACHED_IDS:
            cache.put(cache_key(*key_of(i)), encode_response(f"cached {i}"))
        cache.flush()
        results = list(cached_calls(cache, stream((key_of(i) for i in STREAM), iter(STREAM)),
                                    answer, str, width=width))
        rows = dict(cache._db.execute("SELECT key, response FROM responses"))
    expected = [f"cached {i}" if i in CACHED_IDS else f"answer {i}" for i in STREAM]
    assert results == expected
    assert {key: decode_response(blob) for key, blob in rows.items()} == {
        cache_key(*key_of(i)): text for i, text in zip(STREAM, expected)}


@pytest.mark.parametrize("path", PATHS)
def test_the_rest_of_a_stream_raises_stopped_once_stop_is_set(monkeypatch, path):
    stop = threading.Event()
    with stream_path(monkeypatch, path) as width:
        results = cached_calls(None, stream((key_of(i) for i in range(20)), iter(range(20)),
                                            (partial(tagged, i) for i in range(20))),
                               answer, str.upper, width=width, stop=stop)
        assert [tag for tag, *_ in itertools.islice(results, 5)] == list(range(5))
        stop.set()
        with pytest.raises(Stopped):
            next(results)
        assert next(results, None) is None


@pytest.mark.parametrize("path", PATHS)
def test_a_row_that_does_not_decode_is_a_cache_error_naming_its_key(tmp_path, monkeypatch,
                                                                     path):
    digest = cache_key(*key_of(7))
    with stream_path(monkeypatch, path) as width, ResponseCache(tmp_path) as cache:
        cache.put(digest, b"garbage")
        cache.flush()
        with pytest.raises(CacheError, match=f"the row of key {digest} does not decode"):
            list(cached_calls(cache, stream((key_of(i) for i in range(12)), iter(range(12))),
                              answer, str, width=width))


@pytest.mark.parametrize("path", PATHS)
def test_a_stream_is_read_a_window_and_the_tasks_in_flight_ahead(monkeypatch, path):
    """The requests are read no further ahead of the results taken than one
    window, plus on the pool the tasks in flight: one per worker and the one
    the map reads before it takes the oldest one's answers. Off the pool,
    the first result comes once the whole first window is read."""
    monkeypatch.setattr(backends, "MAP_CHUNK", 2)
    read = []

    def keys():
        for i in range(40):
            read.append(i)
            yield key_of(i % 13)

    with stream_path(monkeypatch, path) as width:
        results = cached_calls(None, stream(keys(), (i % 13 for i in range(40)),
                                            (partial(tagged, i) for i in range(40))),
                               answer, str.upper, width=width)
        ahead = 5 + (3 * 2 if path == "pool" else 0)
        for taken, (tag, *_) in enumerate(results, 1):
            assert tag == taken - 1
            assert len(read) - taken <= ahead, (len(read), taken)
            assert taken > 1 or path == "pool" or len(read) == 5
    assert len(read) == 40


def test_a_completion_without_a_word_is_never_cached(tmp_path):
    asked = []

    class Dots(CompletionBackend):
        def _request(self, request):
            asked.append(request.prompt)
            return "..." if request.prompt == "p 1" else "A word."

    with ResponseCache(tmp_path) as cache:
        for _ in range(2):
            with pytest.raises(BackendError, match="completion without a word '...'"):
                list(Dots(mock_config(kind="completion"), cache).complete_batch(
                    [CompletionRequest(prompt=f"p {i}") for i in range(3)]))
        assert asked == ["p 0", "p 1", "p 1"]
        assert len(cache) == 1


def test_single_calls_are_batches_of_one(monkeypatch):
    """Every request goes through a batch: a single completion, score or
    augmentation is a batch of one, and augmenting N resumes one batch of N,
    made once every resume's group label was checked."""
    from hirefair import backends, perturb, pipeline, textmetrics
    from hirefair.corpus import DemographicGroup, Resume

    batches = []

    def recording(cache, calls, *args, **kwargs):
        calls = list(calls)
        batches.append(len(calls))
        return cached_calls(cache, calls, *args, **kwargs)

    monkeypatch.setattr(backends, "cached_calls", recording)
    backend = CompletionBackend(mock_config(kind="completion"))
    backend.complete(CompletionRequest(prompt="p"))
    resumes = [Resume(id=f"r{i}", profession="Data Analyst", body=f"Data Analyst\nSQL {i}\n",
                      source="generated", group=DemographicGroup.from_code(code))
               for i, code in enumerate(("FW", "MB", "FB"))]
    spec = perturb.PerturbationSpec(id="extra", kind="extracurricular", seed=1)
    perturb.apply_spec(resumes[0], spec, backend=backend)
    augmented = perturb.apply_plan(resumes, [spec], backend=backend)
    assert augmented[0] == perturb.apply_spec(resumes[0], spec, backend=backend)
    client = backends.RegardClient(BackendConfig(
        id="regard", kind="regard", protocol="http", endpoint="https://example.invalid"))
    monkeypatch.setattr(client.http, "post", lambda payload, read: None)
    client.score("text")
    record = textmetrics.SummaryRecord("r", "name:FW", "m", 100, "third", 0.0, 1, "A summary.")
    pipeline.measure_summaries([record], client, [(0.0, 0.0, 0.0, 0.0)])
    assert batches == [1, 1, 3, 1, 1, 1]

    batches.clear()
    unnamed = Resume(id="anon", profession="Data Analyst", body="SQL\n", source="generated")
    with pytest.raises(perturb.PerturbError, match="resume anon: .* needs a group label"):
        perturb.apply_plan([*resumes, unnamed], [spec], backend=backend)
    assert batches == []


# ---------------------------------------------------------------------------
# HTTP adapters
# ---------------------------------------------------------------------------

def http_config(protocol, kind, monkeypatch, loopback, **fields):
    """A backend of `protocol` posting to the loopback service's /v1, whose
    answers a test scripts."""
    monkeypatch.setenv("FAKE_KEY", "secret")
    return BackendConfig(
        id="live", kind=kind, protocol=protocol, model_name="model-x",
        endpoint=f"{loopback.url}/v1", credential_env="FAKE_KEY",
        parallelism=1, **fields,
    )


def loop_config(loopback, parallelism=1, **fields):
    """An embedding backend of the loopback service's derived answers."""
    return BackendConfig(id="loop", kind="embedding", protocol="openai-compatible",
                         model_name="loop-embed", endpoint=f"{loopback.url}/v1/embeddings",
                         parallelism=parallelism, **fields)


def test_a_key_repeated_in_a_later_window_is_posted_once(tmp_path, loopback, monkeypatch):
    """At parallelism 4, a batch fetched 3 texts at a time posts each
    distinct text once: a text that repeats in a later window is read from
    the row its first answer put, not yet written."""
    monkeypatch.setattr(backends, "WRITE_CHUNK", 3)
    texts = ["a", "b", "a", "c", "b", "d", "a", "e", "c"]
    with ResponseCache(tmp_path) as cache:
        backend = EmbeddingBackend(loop_config(loopback, parallelism=4), cache)
        vectors = backend.embed_batch(iter(texts))
    assert sorted(json.loads(r["body"])["input"][0] for r in loopback.received) == \
        ["a", "b", "c", "d", "e"]
    assert all(np.array_equal(vector, vectors[texts.index(text)])
               for vector, text in zip(vectors, texts))


def sent_bodies(loopback) -> list:
    return [json.loads(request["body"]) for request in loopback.received]


def test_openai_style_embedding_parses(monkeypatch, loopback):
    backend = build_backend(http_config("openai-compatible", "embedding", monkeypatch,
                                        loopback))
    loopback.script["/v1"] = [(200, {"data": [{"embedding": [0.1, 0.2]}]})]
    (vec,) = backend.embed_batch(["hello"])
    assert np.array_equal(vec, [0.1, 0.2])
    assert sent_bodies(loopback) == [{"model": "model-x", "input": ["hello"]}]
    assert loopback.received[0]["headers"]["Authorization"] == "Bearer secret"


def test_cohere_style_embedding_parses(monkeypatch, loopback):
    backend = build_backend(http_config("cohere-compatible", "embedding", monkeypatch,
                                        loopback))
    loopback.script["/v1"] = [(200, {"embeddings": [[0.5, 0.5]]})]
    assert np.array_equal(backend.embed_batch(["hello"])[0], [0.5, 0.5])
    (sent,) = sent_bodies(loopback)
    assert sent["texts"] == ["hello"]
    assert sent["input_type"] == "search_document"


def test_a_regard_batch_at_parallelism_1_fails_only_at_a_refused_text(tmp_path, loopback):
    """Over loopback at parallelism 1, a regard batch whose third text is
    refused (400) gives None at that text alone; every other text is scored
    and cached, and the refused one is asked again next time."""
    config = BackendConfig(id="regard", kind="regard", protocol="http",
                           endpoint=f"{loopback.url}/regard", parallelism=1)
    even = dict.fromkeys(backends.REGARD_CATEGORIES, 0.25)
    skewed = dict(zip(backends.REGARD_CATEGORIES, (0.4, 0.3, 0.2, 0.1)))
    loopback.script["/regard"] = [(200, even), (200, skewed), (400, {"error": "refused"})]
    texts = [f"text {i}" for i in range(5)]
    with ResponseCache(tmp_path) as cache:
        scores = backends.RegardClient(config, cache).score_batch(texts)
        assert len(cache) == 4
    assert loopback.requests == {"/regard": 5}
    fresh = backends.RegardClient(config).score_batch(texts[2:])
    assert scores == [even, skewed, None, *fresh[1:]]
    assert all(score is not None for score in fresh)


@pytest.mark.parametrize("body", [
    {"positive": True, "negative": False, "neutral": False, "other": False},
    dict.fromkeys(backends.REGARD_CATEGORIES, "0.25"),
    # an integer too large for a float
    b'{"positive": 1' + b"0" * 400 + b', "negative": 0, "neutral": 0, "other": 0}',
    pytest.param(DEEP_JSON, id="nested-too-deep"),
])
def test_a_regard_answer_of_other_than_numbers_is_absent_and_never_cached(tmp_path, loopback,
                                                                          body):
    """Booleans, numeric strings, a number no float holds and a body nested
    too deep to parse are no regard scores: the text's regard is absent and
    nothing of it is cached."""
    config = BackendConfig(id="regard", kind="regard", protocol="http",
                           endpoint=f"{loopback.url}/regard", parallelism=1)
    even = dict.fromkeys(backends.REGARD_CATEGORIES, 0.25)
    loopback.script["/regard"] = [(200, body), (200, even)]
    with ResponseCache(tmp_path) as cache:
        assert backends.RegardClient(config, cache).score_batch(["odd", "even"]) == [None, even]
        assert len(cache) == 1


def test_completion_chat_schema(monkeypatch, loopback):
    backend = build_backend(http_config("mistral-compatible", "completion", monkeypatch,
                                        loopback))
    loopback.script["/v1"] = [(200, {"choices": [{"message": {"content": "a summary"}}]})]
    assert backend.complete(CompletionRequest("prompt here", temperature=0.3)) == "a summary"
    (sent,) = sent_bodies(loopback)
    assert sent["messages"] == [{"role": "user", "content": "prompt here"}]
    assert sent["temperature"] == 0.3


def test_retry_then_success(monkeypatch, loopback):
    backend = build_backend(http_config("openai-compatible", "embedding", monkeypatch,
                                        loopback, retry=RetryPolicy(max_attempts=3,
                                                                    base_delay_ms=1)))
    loopback.script["/v1"] = [(500, {"err": "boom"}), (500, {"err": "boom"}),
                              (200, {"data": [{"embedding": [1.0]}]})]
    assert np.array_equal(backend.embed_batch(["x"])[0], [1.0])
    assert loopback.requests == {"/v1": 3}


def test_retries_bounded(monkeypatch, loopback):
    backend = build_backend(http_config("openai-compatible", "embedding", monkeypatch,
                                        loopback, retry=RetryPolicy(max_attempts=2,
                                                                    base_delay_ms=1)))
    loopback.script["/v1"] = [(503, {}), (503, {}), (503, {})]
    with pytest.raises(BackendError, match="after 2 attempts"):
        backend.embed_batch(["x"])
    assert loopback.requests == {"/v1": 2}


def test_http_pool_holds_every_request_in_flight(loopback):
    """A batch keeps up to `parallelism` requests in flight, more than a
    pool of 10 would, over at most that many connections."""
    loopback.delay = 0.02
    vectors = build_backend(loop_config(loopback, 16)).embed_batch(
        [f"text {i}" for i in range(200)])
    assert len(vectors) == 200
    assert loopback.inflight_max["*"] > 10
    assert len(loopback.ports()) <= 16


def test_a_batch_reuses_its_connections(loopback):
    """Requests take turns on keep-alive connections: a batch at parallelism
    2 opens at most two, however many texts it posts."""
    vectors = build_backend(loop_config(loopback, 2)).embed_batch(
        [f"text {i}" for i in range(50)])
    assert len(vectors) == 50
    assert loopback.requests == {"/v1/embeddings": 50}
    assert 1 <= len(loopback.ports()) <= 2


def test_a_server_that_hangs_up_gets_each_request_once(loopback, caplog):
    """A server that closes each connection after its answer, without
    saying so, gets one request per body and causes no retry."""
    loopback.hang_up = True
    texts = [f"text {i}" for i in range(30)]
    with caplog.at_level(logging.WARNING, logger="hirefair.backends"):
        vectors = build_backend(loop_config(loopback, 2)).embed_batch(texts)
    assert len(vectors) == 30
    assert sorted(body["input"][0] for body in sent_bodies(loopback)) == sorted(texts)
    assert len(loopback.ports()) == 30  # one request per connection
    assert caplog.text == ""


@pytest.mark.parametrize("status", [301, 400, 401])
def test_client_errors_fail_without_retry(monkeypatch, loopback, status):
    """Any 4xx but 429 fails at once, and so does a redirect, which is not
    followed."""
    backend = build_backend(http_config("openai-compatible", "embedding", monkeypatch,
                                        loopback))
    loopback.script["/v1"] = [(status, {"error": "denied"})] * 2
    with pytest.raises(BackendError, match=f"HTTP {status}"):
        backend.embed_batch(["x"])
    assert loopback.requests == {"/v1": 1}


def test_connection_errors_and_429_are_retried(monkeypatch, loopback):
    backend = build_backend(http_config("openai-compatible", "embedding", monkeypatch,
                                        loopback, retry=RetryPolicy(max_attempts=3,
                                                                    base_delay_ms=1)))
    loopback.script["/v1"] = [loopback.DROP, (429, {}),
                              (200, {"data": [{"embedding": [2.0]}]})]
    assert np.array_equal(backend.embed_batch(["x"])[0], [2.0])
    assert loopback.script["/v1"] == []
    assert loopback.requests == {"/v1": 3}


#: Answers with status 200 that the schema adapters cannot read.
MALFORMED_BODIES = [
    ("embedding", (200, {"data": []})),
    ("embedding", (200, {"data": [{"embedding": "abc"}]})),
    ("embedding", (200, b"not json")),
    ("completion", (200, {"id": "chat-1"})),
    # an integer too large for a float
    ("embedding", (200, b'{"data": [{"embedding": [1' + b"0" * 400 + b']}]}')),
    pytest.param("embedding", (200, DEEP_JSON), id="embedding-nested-too-deep"),
    pytest.param("completion", (200, DEEP_JSON), id="completion-nested-too-deep"),
]


@pytest.mark.parametrize("kind,response", MALFORMED_BODIES)
def test_malformed_body_is_backend_error(monkeypatch, loopback, tmp_path, kind, response):
    cache = ResponseCache(tmp_path)
    backend = build_backend(http_config("openai-compatible", kind, monkeypatch, loopback),
                            cache)
    loopback.script["/v1"] = [response]
    with pytest.raises(BackendError, match="unreadable response"):
        if kind == "embedding":
            backend.embed_batch(["x"])
        else:
            backend.complete(CompletionRequest("prompt"))
    assert len(cache) == 0  # never cached


def test_missing_credential_fails_fast(monkeypatch):
    monkeypatch.delenv("NOPE_KEY", raising=False)
    config = BackendConfig(
        id="live", kind="embedding", protocol="openai-compatible",
        model_name="m", endpoint="https://example.invalid",
        credential_env="NOPE_KEY",
    )
    with pytest.raises(BackendError, match="NOPE_KEY"):
        build_backend(config)


def proxy_env(monkeypatch, **values):
    """Set the proxy variables named in `values` (in lower case), in both
    cases, and unset the others."""
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        for variable in (name, name.upper()):
            if name in values:
                monkeypatch.setenv(variable, values[name])
            else:
                monkeypatch.delenv(variable, raising=False)


def test_endpoint_reads_the_proxy_environment_once(monkeypatch, loopback):
    """An endpoint keeps the proxy of the environment it was built in; an
    https URL goes through it by CONNECT."""
    proxy_env(monkeypatch, https_proxy=loopback.url)
    endpoint = JsonEndpoint("e", "https://backend.invalid/v1", "",
                            RetryPolicy(max_attempts=1))
    proxy_env(monkeypatch, https_proxy="http://other.invalid:3128")
    with pytest.raises(BackendError, match="Tunnel connection failed: 502"):
        endpoint.post({}, dict)
    assert [(r["method"], r["target"]) for r in loopback.received] == [
        ("CONNECT", "backend.invalid:443")]


def test_an_http_proxy_is_sent_the_absolute_target(monkeypatch, loopback):
    import base64

    proxy_env(monkeypatch, http_proxy=loopback.url.replace("//", "//user:p%40ss@"))
    (vec,) = build_backend(BackendConfig(
        id="e", kind="embedding", protocol="openai-compatible", model_name="m",
        endpoint="http://backend.invalid/v1/embeddings")).embed_batch(["hello"])
    assert len(vec) == 16
    (request,) = loopback.received
    assert request["target"] == "http://backend.invalid/v1/embeddings"
    assert request["headers"]["Host"] == "backend.invalid"
    assert request["headers"]["Proxy-Authorization"] == (
        "Basic " + base64.b64encode(b"user:p@ss").decode())


def test_no_proxy_reaches_the_endpoint_directly(monkeypatch, loopback):
    import socket

    with socket.socket() as unused:  # bound, never listening: refused
        unused.bind(("127.0.0.1", 0))
        proxy_env(monkeypatch, http_proxy=f"http://127.0.0.1:{unused.getsockname()[1]}",
                  no_proxy="127.0.0.1")
        build_backend(loop_config(loopback, retry=RetryPolicy(max_attempts=1))).embed_batch(
            ["hello"])
    assert [r["target"] for r in loopback.received] == ["/v1/embeddings"]


def test_an_https_endpoint_trusts_the_default_store(monkeypatch, https_loopback):
    """TLS verifies the server against ssl.create_default_context(), whose
    store SSL_CERT_FILE names: a server it does not trust is a backend
    error, one it trusts answers over a kept connection."""
    service, cert = https_loopback
    proxy_env(monkeypatch)
    monkeypatch.delenv("SSL_CERT_FILE", raising=False)
    config = BackendConfig(id="tls", kind="embedding", protocol="openai-compatible",
                           model_name="m", endpoint=f"{service.url}/v1/embeddings",
                           parallelism=1, retry=RetryPolicy(max_attempts=1))
    with pytest.raises(BackendError, match="CERTIFICATE_VERIFY_FAILED"):
        build_backend(config).embed_batch(["hello"])
    assert service.requests == {}
    monkeypatch.setenv("SSL_CERT_FILE", str(cert))
    assert len(build_backend(config).embed_batch(["hello", "again"])[1]) == 16
    assert service.requests == {"/v1/embeddings": 2}
    assert len(service.ports()) == 1


def test_netrc_leaves_the_bearer_credential(monkeypatch, loopback, tmp_path):
    """A netrc entry for the host does not replace the documented header."""
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login user password pw\n")
    netrc.chmod(0o600)
    monkeypatch.setenv("NETRC", str(netrc))
    monkeypatch.setenv("FAKE_KEY", "secret")
    proxy_env(monkeypatch)
    build_backend(loop_config(loopback, credential_env="FAKE_KEY")).embed_batch(["hello"])
    assert [r["headers"]["Authorization"] for r in loopback.received] == ["Bearer secret"]


def test_http_protocol_requires_endpoint():
    config = BackendConfig(id="x", kind="embedding",
                           protocol="openai-compatible", model_name="m")
    with pytest.raises(BackendError, match="endpoint"):
        build_backend(config)


@pytest.mark.parametrize("endpoint,proxy,message", [
    ("example.invalid/v1", "", "endpoint 'example.invalid/v1' is not a http/https URL"),
    ("ftp://example.invalid/v1", "", "is not a http/https URL"),
    ("https://example.invalid:port/v1", "", "bad endpoint URL"),
    ("https://example.invalid/v1", "socks5://proxy.invalid:1080", "proxy .* is not a http URL"),
    ("https://example.invalid/v1", "https://proxy.invalid:3128", "proxy .* is not a http URL"),
])
def test_endpoint_and_proxy_urls_are_checked_when_built(monkeypatch, endpoint, proxy,
                                                        message):
    proxy_env(monkeypatch, https_proxy=proxy)
    with pytest.raises(BackendError, match=message):
        JsonEndpoint("e", endpoint, "", RetryPolicy())


@pytest.mark.parametrize("kind", ["embedding", "completion", "oracle"])
@pytest.mark.parametrize("protocol", sorted({p for _, p in PROTOCOLS}) + ["telepathy"])
def test_config_validation(kind, protocol):
    """Each key of PROTOCOLS builds a backend of its kind; every other
    kind x protocol pair is refused when the config is built."""
    def config():
        return BackendConfig(id="x", kind=kind, protocol=protocol, model_name="m",
                             endpoint="https://example.invalid")

    if (kind, protocol) in PROTOCOLS:
        backend = build_backend(config())
        assert isinstance(backend, EmbeddingBackend if kind == "embedding"
                          else CompletionBackend)
    else:
        with pytest.raises(BackendError, match="serves no kind"):
            config()


def test_config_parallelism_and_retries_are_positive():
    with pytest.raises(BackendError, match="must be >= 1"):
        BackendConfig(id="x", kind="embedding", protocol="mock", parallelism=0)
    with pytest.raises(BackendError, match="must be >= 1"):
        BackendConfig(id="x", kind="embedding", protocol="mock",
                      retry=RetryPolicy(max_attempts=0))
    with pytest.raises(BackendError, match="retry.base_delay_ms must be >= 0"):
        BackendConfig(id="x", kind="embedding", protocol="mock",
                      retry=RetryPolicy(base_delay_ms=-5))
    for max_chars in (0, -1):
        with pytest.raises(BackendError, match="max_chars must be >= 1"):
            BackendConfig(id="x", kind="embedding", protocol="mock", max_chars=max_chars)
    assert BackendConfig(id="x", kind="embedding", protocol="mock", max_chars=1,
                         retry=RetryPolicy(base_delay_ms=0)).max_chars == 1


@pytest.mark.parametrize("protocol,params,message", [
    ("mock", {"dim": "abc"}, "dim must be int, got 'abc'"),
    ("mock", {"dim": True}, "dim must be int"),
    ("mock", {"dim": 0}, "dim must be a positive int, got 0"),
    ("mock-biased", {"tag_bias": [1]}, "tag_bias must be dict"),
    ("mock-biased", {"tag_bias": {"X": "high"}}, "tag_bias must be dict"),
    ("mock-biased", {"anchor_token": 5}, "anchor_token must be str"),
    ("cohere-compatible", {"input_type": 1}, "input_type must be str"),
    ("mock", {"tag_bias": {"X": 1.0}}, "reads no param(s) tag_bias"),
    ("openai-compatible", {"input_type": "search_query"}, "reads no param(s) input_type"),
    ("mock-biased", {"tag_bias": {"X": math.nan}}, "tag_bias must be dict[str, float], got"),
    ("mock-biased", {"tag_bias": {"X": math.inf}}, "tag_bias must be dict[str, float], got"),
])
def test_malformed_params_are_refused(protocol, params, message):
    with pytest.raises(BackendError) as info:
        BackendConfig(id="x", kind="embedding", protocol=protocol, params=params)
    assert message in str(info.value)


def test_params_a_protocol_reads_take_effect(loopback):
    backend = build_backend(mock_config(dim=16))
    assert backend.embed_batch(["a b"])[0].shape == (16,)
    backend = build_backend(BackendConfig(
        id="live", kind="embedding", protocol="cohere-compatible",
        endpoint=f"{loopback.url}/v1", params={"input_type": "search_query"}))
    loopback.script["/v1"] = [(200, {"embeddings": [[1.0]]})]
    backend.embed_batch(["q"])
    assert sent_bodies(loopback)[0]["input_type"] == "search_query"


def test_config_fields_take_their_json_type():
    from hirefair.backends import RetryPolicy

    with pytest.raises(BackendError, match="parallelism must be int"):
        BackendConfig(id="x", kind="embedding", protocol="mock", parallelism=True)
    with pytest.raises(BackendError, match=r"max_chars must be int \| None"):
        BackendConfig(id="x", kind="embedding", protocol="mock", max_chars="9")
    with pytest.raises(BackendError, match="max must be int"):  # the file key
        RetryPolicy(max_attempts=2.5)
    with pytest.raises(BackendError, match="params must be dict"):
        BackendConfig(id="x", kind="embedding", protocol="mock", params=[])
    assert BackendConfig(id="x", kind="embedding", protocol="mock").max_chars is None


# ---------------------------------------------------------------------------
# mock completion backends
# ---------------------------------------------------------------------------

def test_echo_backend_returns_trailing_line():
    backend = CompletionBackend(mock_config(kind="completion", protocol="echo"))
    assert backend.complete(CompletionRequest("line one\nline two\nSENTINEL")) == "SENTINEL"


def test_mock_completion_deterministic_and_sized():
    backend = CompletionBackend(mock_config(kind="completion"))
    a = backend.complete(CompletionRequest("describe this resume", max_words_hint=100))
    b = backend.complete(CompletionRequest("describe this resume", max_words_hint=100))
    assert a == b
    assert len(a.split()) == 100
    c = backend.complete(CompletionRequest("a different resume", max_words_hint=100))
    assert c != a


def test_build_backend_mock_variants(tmp_path):
    embed = build_backend(mock_config())
    assert isinstance(embed, EmbeddingBackend)
    biased = build_backend(mock_config(protocol="mock-biased", tag_bias={"X": 2.0}))
    text = "analyst X with the dashboards"
    (vec,) = biased.embed_batch([text])
    assert np.array_equal(vec, mock_biased_embedding(text, {"X": 2.0}))
    assert not np.array_equal(vec, mock_embedding(text))
    completion = build_backend(mock_config(kind="completion"))
    assert isinstance(completion, CompletionBackend)


# ---------------------------------------------------------------------------
# optional live smoke tests (env-gated; excluded from normal runs)
# ---------------------------------------------------------------------------

import os

LIVE_CONFIG_PATH = os.environ.get("HIREFAIR_LIVE_BACKENDS")


@pytest.mark.skipif(not LIVE_CONFIG_PATH, reason="HIREFAIR_LIVE_BACKENDS not set")
def test_live_backends_smoke(tmp_path):
    """Point HIREFAIR_LIVE_BACKENDS at a backends JSON to smoke-test each block."""
    import json as _json

    from hirefair.config import backend_from_dict

    doc = _json.loads(open(LIVE_CONFIG_PATH).read())
    cache = ResponseCache(tmp_path / "cache")
    for raw in doc["backends"]:
        backend = build_backend(backend_from_dict(raw), cache)
        if raw["kind"] == "embedding":
            (vec,) = backend.embed_batch(["smoke test resume text"])
            assert len(vec) > 0
        else:
            text = backend.complete(CompletionRequest("Reply with one short sentence.",
                                                      max_words_hint=20))
            assert text.strip()
