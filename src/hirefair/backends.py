"""Embedding and completion backends with a persistent response cache.

HTTP backends speak openai-, cohere-, or mistral-compatible wire schemas
through thin adapters; credentials come only from environment variables named
in the backend config. Responses are cached in a content-addressed on-disk
store keyed by a digest of the canonicalized request, so byte-identical
requests replay without network access and audits can be re-run offline.

Two deterministic mocks support offline runs and metric validation:

* mock embedding: bag-of-words hashed projection. Whitespace tokens are
  hashed (sha256, first 8 bytes, big-endian) into one of 256 buckets,
  counted, and L2-normalized; empty text maps to the zero vector.
* biased mock: adds a configurable scalar bias along a fixed direction
  whenever a tagged token is present, for validating that the retrieval
  metrics detect injected group preference.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import threading
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np
import requests

from hirefair.records import check_types

logger = logging.getLogger(__name__)

MOCK_DIM = 256


class BackendError(Exception):
    """Raised for backend configuration or transport failures."""


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = field(default=3, metadata={"key": "max"})
    base_delay_ms: int = 250

    def __post_init__(self):
        check_types(self, BackendError)


@dataclass(frozen=True)
class BackendConfig:
    id: str
    kind: str       # "embedding" | "completion"
    protocol: str   # (kind, protocol) must be a key of BACKENDS
    model_name: str = ""
    endpoint: str = ""
    credential_env: str = ""
    parallelism: int = 8
    retry: RetryPolicy = RetryPolicy()
    max_chars: int | None = None  # refuse (never truncate) longer inputs
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        check_types(self, BackendError)
        if (self.kind, self.protocol) not in BACKENDS:
            raise BackendError(f"backend {self.id}: protocol {self.protocol!r} "
                               f"serves no kind {self.kind!r}")
        if self.parallelism < 1 or self.retry.max_attempts < 1:
            raise BackendError(f"backend {self.id}: parallelism and retry.max must be >= 1")


@dataclass(frozen=True)
class EmbeddingVector:
    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not all(np.isfinite(vals)):
            raise BackendError("embedding vector contains non-finite values")
        object.__setattr__(self, "values", vals)

    @property
    def dimension(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    temperature: float = 0.0
    max_words_hint: int = 0
    run_index: int = 1

    def __post_init__(self):
        if not 0.0 <= self.temperature <= 1.0:
            raise BackendError(f"temperature must be in [0, 1], got {self.temperature}")
        if not 1 <= self.run_index <= 5:
            raise BackendError(f"run_index must be in [1, 5], got {self.run_index}")


# ---------------------------------------------------------------------------
# response cache
# ---------------------------------------------------------------------------

def cache_key(backend_id: str, model_name: str, payload) -> str:
    """Digest of the canonicalized request; any byte difference changes it."""
    canonical = json.dumps(
        {"backend_id": backend_id, "model_name": model_name, "payload": payload},
        sort_keys=True, separators=(",", ":"), ensure_ascii=False,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResponseCache:
    """Content-addressed on-disk store; eviction is manual (audits are archival)."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str):
        path = self._path(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return json.loads(raw)["response"]

    def put(self, key: str, response) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
        tmp.write_text(
            json.dumps({"key": key, "response": response}, sort_keys=True,
                       ensure_ascii=False),
            encoding="utf-8",
        )
        os.replace(tmp, path)


def cached_calls(cache: ResponseCache | None, keys: Sequence[tuple],
                 fetch: Callable[[int], object], validate: Callable, width: int = 1,
                 on_error: Callable[[Exception], object] | None = None) -> list:
    """[validate(fetch(i)) for each i], each distinct request made once and
    read through `cache` when there is one.

    `keys[i]` holds cache_key's arguments for request i, and `fetch(i)` makes
    that request. Requests with one key share one result. Cached responses
    are validated again on the calling thread; misses are fetched on
    min(width, misses) threads, on the calling thread when that is one. A
    fetched response is stored only after it validated, so a bad response is
    never cached. Without `on_error`, the first failure cancels the requests
    still queued and is raised; with it, `on_error(exc)` becomes the failed
    request's result (and may raise instead).
    """
    digests = [cache_key(*key) for key in keys]
    first: dict[str, int] = {}
    for i, digest in enumerate(digests):
        first.setdefault(digest, i)

    def guarded(step: Callable, *args):
        try:
            return step(*args)
        except Exception as exc:
            if on_error is None:
                raise
            return on_error(exc)

    def call(digest: str, i: int):
        response = fetch(i)
        result = validate(response)
        if cache is not None:
            cache.put(digest, response)
        return result

    results: dict[str, object] = {}
    misses: list[tuple[str, int]] = []
    for digest, i in first.items():
        response = cache.get(digest) if cache is not None else None
        if response is None:
            misses.append((digest, i))
        else:
            results[digest] = guarded(validate, response)
    workers = min(width, len(misses))
    if workers <= 1:
        for digest, i in misses:
            results[digest] = guarded(call, digest, i)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(guarded, call, digest, i) for digest, i in misses]
            wait(futures, return_when=FIRST_EXCEPTION)
            pool.shutdown(cancel_futures=True)
        # Queued calls start in order, so the first failure comes before
        # every cancelled call.
        for (digest, _), future in zip(misses, futures):
            results[digest] = future.result()
    return [results[digest] for digest in digests]


# ---------------------------------------------------------------------------
# mock embeddings
# ---------------------------------------------------------------------------

def token_bucket(token: str, dim: int = MOCK_DIM) -> int:
    """Stable hash bucket: first 8 bytes of sha256(token), big-endian, mod dim."""
    return int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "big") % dim


def mock_embedding(text: str, dim: int = MOCK_DIM) -> EmbeddingVector:
    """Deterministic bag-of-words hashed projection, L2-normalized.

    Word order never matters; empty text maps to the zero vector (the only
    non-unit output).
    """
    counts = np.zeros(dim, dtype=np.float64)
    for token in text.split():
        counts[token_bucket(token, dim)] += 1.0
    norm = float(np.linalg.norm(counts))
    if norm > 0.0:
        counts /= norm
    return EmbeddingVector(values=tuple(counts))


#: Token whose hash bucket serves as the bias axis; queries that contain it
#: reward biased documents. Configurable per backend.
DEFAULT_ANCHOR_TOKEN = "the"


def mock_biased_embedding(text: str, tag_bias: Mapping[str, float],
                          dim: int = MOCK_DIM,
                          anchor_token: str = DEFAULT_ANCHOR_TOKEN) -> EmbeddingVector:
    """Bag-of-words embedding plus a scalar bias along a fixed direction.

    When any key of ``tag_bias`` appears as a whitespace token, the summed
    bias of the present tags pushes the vector along the anchor token's
    bucket axis. Any query containing the anchor token then scores tagged
    documents higher, monotonically in the bias. Zero bias reproduces
    mock_embedding exactly.
    """
    base = np.asarray(mock_embedding(text, dim).values)
    present = set(text.split()) & set(tag_bias)
    bias = sum(tag_bias[t] for t in present)
    if bias == 0.0 or not present:
        return EmbeddingVector(values=tuple(base))
    vec = base.copy()
    vec[token_bucket(anchor_token, dim)] += bias
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return EmbeddingVector(values=tuple(vec))


# ---------------------------------------------------------------------------
# HTTP transport
# ---------------------------------------------------------------------------

class JsonEndpoint:
    """JSON POSTs to one URL over one session; every failure is a BackendError.

    Construction fails fast, before any request, when the URL is empty or the
    credential variable is unset. Connection errors, timeouts, 429 and 5xx
    are retried under `retry` with exponential backoff; any other 4xx, a body
    that is not JSON, and a body the schema adapter cannot read fail at once.
    The session pools `width` connections, one per request in flight.
    """

    def __init__(self, name: str, url: str, credential_env: str,
                 retry: RetryPolicy, timeout: float, width: int = 1):
        if not url:
            raise BackendError(f"{name}: endpoint required for HTTP protocols")
        self.headers = {"Content-Type": "application/json"}
        if credential_env:
            if credential_env not in os.environ:
                raise BackendError(
                    f"{name}: credential env var {credential_env!r} is not set")
            self.headers["Authorization"] = f"Bearer {os.environ[credential_env]}"
        self.name, self.url, self.retry, self.timeout = name, url, retry, timeout
        self.session = requests.Session()
        adapter = requests.adapters.HTTPAdapter(pool_maxsize=width)
        self.session.mount("http://", adapter)
        self.session.mount("https://", adapter)

    def post(self, payload: dict, read: Callable):
        """`read(body)` of the JSON answer to `payload`; `read` raises
        LookupError, TypeError or ValueError for a body it cannot use."""
        delay = self.retry.base_delay_ms / 1000.0
        for attempt in range(1, self.retry.max_attempts + 1):
            try:
                resp = self.session.post(self.url, json=payload, headers=self.headers,
                                         timeout=self.timeout)
            except (requests.ConnectionError, requests.Timeout) as exc:
                error = str(exc)
            except requests.RequestException as exc:
                raise BackendError(f"{self.name}: request failed: {exc}") from exc
            else:
                if resp.status_code < 400:
                    try:
                        return read(resp.json())
                    except (LookupError, TypeError, ValueError) as exc:
                        raise BackendError(
                            f"{self.name}: unreadable response: {exc!r}") from exc
                error = f"HTTP {resp.status_code}: {resp.text[:200]}"
                if resp.status_code != 429 and resp.status_code < 500:
                    raise BackendError(f"{self.name}: {error}")
            if attempt < self.retry.max_attempts:
                logger.warning("%s attempt %d failed: %s", self.name, attempt, error)
                time.sleep(delay)
                delay *= 2
        raise BackendError(f"{self.name}: request failed after "
                           f"{self.retry.max_attempts} attempts: {error}")


def _numbers(values) -> list[float]:
    """A JSON array of numbers as floats."""
    if not isinstance(values, list) or not all(type(v) in (int, float) for v in values):
        raise TypeError(f"not an array of numbers: {str(values)[:80]}")
    return [float(v) for v in values]


# ---------------------------------------------------------------------------
# backend implementations
# ---------------------------------------------------------------------------

def _check_length(config: BackendConfig, text: str) -> None:
    if config.max_chars is not None and len(text) > config.max_chars:
        raise BackendError(
            f"backend {config.id}: input of {len(text)} chars exceeds "
            f"max_chars={config.max_chars}; refusing to truncate"
        )


class Backend:
    """A backend's config and response cache.

    `width` bounds the threads a batch fetches misses on. In-process
    backends make no requests, so their batches run on the calling thread.
    """

    width = 1

    def __init__(self, config: BackendConfig, cache: ResponseCache | None = None):
        self.config = config
        self.cache = cache


class EmbeddingBackend(Backend):
    """Shared embed_batch plumbing: cache, ordering, dimension checks."""

    def __init__(self, config: BackendConfig, cache: ResponseCache | None = None):
        super().__init__(config, cache)
        self._dimension: int | None = None
        self._dim_lock = threading.Lock()

    def _embed_uncached(self, text: str) -> list[float]:
        raise NotImplementedError

    def _vector(self, values: Sequence[float]) -> EmbeddingVector:
        """A response as a vector of the backend's established dimension."""
        vec = EmbeddingVector(values=tuple(values))
        with self._dim_lock:
            if self._dimension is None:
                self._dimension = vec.dimension
            elif vec.dimension != self._dimension:
                raise BackendError(
                    f"backend {self.config.id}: dimension {vec.dimension} != "
                    f"established {self._dimension}"
                )
        return vec

    def embed_batch(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        """Embed in order, each distinct text once; cached entries are served
        without touching the network."""
        for text in texts:
            _check_length(self.config, text)
        keys = [(self.config.id, self.config.model_name, {"op": "embed", "text": text})
                for text in texts]
        return cached_calls(self.cache, keys, lambda i: self._embed_uncached(texts[i]),
                            self._vector, self.width)


class MockEmbeddingBackend(EmbeddingBackend):
    def __init__(self, config: BackendConfig, cache: ResponseCache | None = None):
        super().__init__(config, cache)
        self.dim = int(config.params.get("dim", MOCK_DIM))
        self.tag_bias = {str(k): float(v)
                         for k, v in config.params.get("tag_bias", {}).items()}
        self.anchor_token = str(config.params.get("anchor_token", DEFAULT_ANCHOR_TOKEN))
        self.biased = config.protocol == "mock-biased"

    def _embed_uncached(self, text: str) -> list[float]:
        if self.biased:
            return list(mock_biased_embedding(text, self.tag_bias, self.dim,
                                              self.anchor_token).values)
        return list(mock_embedding(text, self.dim).values)


class HttpBackend:
    """Mixin for the HTTP protocols: the backend's JsonEndpoint, built (and its
    credential checked) with the backend; batches keep up to `parallelism`
    requests in flight."""

    def __init__(self, config: BackendConfig, cache: ResponseCache | None = None):
        super().__init__(config, cache)
        self.http = JsonEndpoint(f"backend {config.id}", config.endpoint,
                                 config.credential_env, config.retry, timeout=60.0,
                                 width=config.parallelism)
        self.session = self.http.session
        self.width = config.parallelism


class HttpEmbeddingBackend(HttpBackend, EmbeddingBackend):
    def _embed_uncached(self, text: str) -> list[float]:
        if self.config.protocol == "cohere-compatible":
            payload = {
                "model": self.config.model_name,
                "texts": [text],
                "input_type": self.config.params.get("input_type", "search_document"),
            }
            return self.http.post(payload, lambda body: _numbers(body["embeddings"][0]))
        # openai-compatible and mistral-compatible share the /embeddings schema
        payload = {"model": self.config.model_name, "input": [text]}
        return self.http.post(payload, lambda body: _numbers(body["data"][0]["embedding"]))


class CompletionBackend(Backend):
    def _complete_uncached(self, request: CompletionRequest) -> str:
        raise NotImplementedError

    def _text(self, text) -> str:
        if not isinstance(text, str) or not text:
            raise BackendError(f"backend {self.config.id}: empty or non-text "
                               f"completion {text!r:.80}")
        return text

    def complete_batch(self, requests: Sequence[CompletionRequest]) -> list[str]:
        """Run completions in order, each distinct request once; responses
        are cached per (prompt, run_index, temperature) so reruns stay stable
        despite provider nondeterminism."""
        keys = []
        for request in requests:
            _check_length(self.config, request.prompt)
            keys.append((self.config.id, self.config.model_name, {
                "op": "complete", "prompt": request.prompt,
                "temperature": request.temperature, "run_index": request.run_index,
                "max_words_hint": request.max_words_hint,
            }))
        return cached_calls(self.cache, keys,
                            lambda i: self._complete_uncached(requests[i]),
                            self._text, self.width)

    def complete(self, request: CompletionRequest) -> str:
        """Run one completion: a batch of one."""
        return self.complete_batch([request])[0]

    def complete_text(self, prompt: str, temperature: float = 0.0,
                      run_index: int = 1, max_words_hint: int = 0) -> str:
        return self.complete(CompletionRequest(
            prompt=prompt, temperature=temperature, run_index=run_index,
            max_words_hint=max_words_hint,
        ))


class HttpCompletionBackend(HttpBackend, CompletionBackend):
    def _complete_uncached(self, request: CompletionRequest) -> str:
        if self.config.protocol == "cohere-compatible":
            payload = {
                "model": self.config.model_name,
                "message": request.prompt,
                "temperature": request.temperature,
            }
            return self.http.post(payload, lambda body: body["text"])
        payload = {
            "model": self.config.model_name,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
        }
        return self.http.post(payload, lambda body: body["choices"][0]["message"]["content"])


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


class MockCompletionBackend(CompletionBackend):
    """Deterministic pseudo-summaries seeded by the prompt digest."""

    def _complete_uncached(self, request: CompletionRequest) -> str:
        digest = hashlib.sha256(request.prompt.encode("utf-8")).hexdigest()
        rng = random.Random(
            f"{self.config.model_name}:{digest}:{request.run_index}:{request.temperature}"
        )
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


class EchoCompletionBackend(CompletionBackend):
    """Returns the prompt's trailing line; handy as a test double."""

    def _complete_uncached(self, request: CompletionRequest) -> str:
        return request.prompt.rstrip("\n").rsplit("\n", 1)[-1]


#: The backend class serving each (kind, protocol) pair; BackendConfig
#: rejects every other pair.
BACKENDS = {
    ("embedding", "openai-compatible"): HttpEmbeddingBackend,
    ("embedding", "mistral-compatible"): HttpEmbeddingBackend,
    ("embedding", "cohere-compatible"): HttpEmbeddingBackend,
    ("embedding", "mock"): MockEmbeddingBackend,
    ("embedding", "mock-biased"): MockEmbeddingBackend,
    ("completion", "openai-compatible"): HttpCompletionBackend,
    ("completion", "mistral-compatible"): HttpCompletionBackend,
    ("completion", "cohere-compatible"): HttpCompletionBackend,
    ("completion", "mock"): MockCompletionBackend,
    ("completion", "echo"): EchoCompletionBackend,
}


def build_backend(config: BackendConfig, cache: ResponseCache | None = None):
    """Construct a backend from config, failing fast on missing credentials."""
    return BACKENDS[(config.kind, config.protocol)](config, cache)
