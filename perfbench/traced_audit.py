"""Traced `hirefair run`: spans around each layer, recorded from outside it.

Run: python3 perfbench/traced_audit.py TRACE_JSON run --config C --out O [--seed N]

The audit runs in this process through `hirefair.cli.main`. Before it starts,
the stage functions that `run_audit` looks up in `hirefair.pipeline` (and the
writers it calls through `hirefair.retrieval` and `hirefair.textmetrics`) are
replaced by wrappers, and the backends, regard client and response cache that
`run_audit` builds are wrapped as they are created. Each wrapper records a
span: name, start, end and the index of its parent span. Spans and counters
stay in memory and are written to TRACE_JSON when the audit ends, however it
ends. The program's own code is not changed.

Every wrapped call is made from the audit's main thread (`embed_batch` fans
out to worker threads only inside the call), so one span stack suffices.
"""

from __future__ import annotations

import json
import sys
import time

#: Span names; each is the layer whose self time it measures.
LAYER_SPANS = {
    "corpus.load": "corpus.load_s",
    "perturb.build": "perturb.build_s",
    "backends.embed": "backends.embed_s",
    "retrieval.score": "retrieval.score_s",
    "retrieval.metrics": "retrieval.metrics_s",
    "backends.complete": "backends.complete_s",
    "textmetrics.measure": "textmetrics.measure_s",
    "textmetrics.regard": "textmetrics.regard_s",
    "stats.pair": "stats.pair_s",
    "stats.test": "stats.test_s",
    "report.write": "report.write_s",
    "pipeline": "pipeline.self_s",
}

#: Counters recorded by the wrappers, reported under the same names.
COUNTERS = ("perturb.variant_resumes", "backends.embed_texts",
            "retrieval.pairs_scored", "backends.complete_calls",
            "textmetrics.texts", "textmetrics.regard_fallbacks", "stats.t_tests",
            "report.bytes_written", "backends.cache_hits", "backends.cache_misses")


class Tracer:
    """In-memory spans and counters for one audit."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters = {name: 0 for name in COUNTERS}
        self._stack: list[int] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def wrap(self, name: str, fn, on_result=None):
        """`fn` recording a span named `name`; `on_result(args, result)` counts."""
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span["end"] = time.perf_counter()
            if on_result is not None:
                on_result(args, result)
            return result
        return traced


def install(tracer: Tracer, caches: list) -> None:
    """Wrap the layers `hirefair.cli.run_audit` reaches; `caches` collects
    every ResponseCache the audit creates."""
    import hirefair.cli as cli
    from hirefair import pipeline, retrieval, textmetrics

    wrap, count = tracer.wrap, tracer.count
    for name in ("load_corpus", "load_name_pools", "validate_corpus", "pair_jobs"):
        setattr(pipeline, name, wrap("corpus.load", getattr(pipeline, name)))
    pipeline.build_variants = wrap(
        "perturb.build", pipeline.build_variants,
        lambda args, vs: count("perturb.variant_resumes",
                               sum(len(v) for v in vs.resumes.values())))
    pipeline.score_variants = wrap(
        "retrieval.score", pipeline.score_variants,
        lambda args, rows: count("retrieval.pairs_scored", len(rows)))
    pipeline.retrieval_metrics = wrap("retrieval.metrics", pipeline.retrieval_metrics)
    pipeline.measure_summaries = wrap(
        "textmetrics.measure", pipeline.measure_summaries,
        lambda args, measured: count("textmetrics.texts", len(measured)))
    pipeline.paired_samples = wrap("stats.pair", pipeline.paired_samples)
    pipeline.summarization_metrics = wrap(
        "stats.test", pipeline.summarization_metrics,
        lambda args, entries: count("stats.t_tests", len(args[0])))
    for module, name in ((pipeline, "write_ledger"), (pipeline, "aggregate"),
                         (pipeline, "emit"), (pipeline, "_write_jsonl"),
                         (retrieval, "write_score_table"),
                         (textmetrics, "write_measures")):
        setattr(module, name, wrap("report.write", getattr(module, name)))

    build_backend = pipeline.build_backend

    def traced_build_backend(config, cache=None):
        backend = build_backend(config, cache)
        if config.kind == "embedding":
            backend.embed_batch = wrap(
                "backends.embed", backend.embed_batch,
                lambda args, vectors: count("backends.embed_texts", len(vectors)))
        else:
            backend.complete = wrap(
                "backends.complete", backend.complete,
                lambda args, text: count("backends.complete_calls"))
        return backend

    regard_client = pipeline.RegardClient

    def traced_regard_client(*args, **kwargs):
        client = regard_client(*args, **kwargs)
        client.score = wrap(
            "textmetrics.regard", client.score,
            lambda args, scores: count("textmetrics.regard_fallbacks",
                                       int(scores is None)))
        return client

    response_cache = pipeline.ResponseCache

    def recorded_cache(root):
        cache = response_cache(root)
        caches.append(cache)
        return cache

    pipeline.build_backend = traced_build_backend
    pipeline.RegardClient = traced_regard_client
    pipeline.ResponseCache = recorded_cache
    cli.run_audit = wrap(
        "pipeline", cli.run_audit,
        lambda args, result: count("report.bytes_written",
                                   sum(p.stat().st_size for p in result.files)))


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per span name, less the time covered by child spans.

    Children of one span run one after another, so their durations add up
    to the part of the parent's interval they cover.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals = {name: 0.0 for name in LAYER_SPANS}
    for span, covered in zip(spans, child_time):
        totals[span["name"]] += span["end"] - span["start"] - covered
    return totals


def layer_metrics(trace: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced audit that took `wall_s` seconds.

    `cli.startup_s` is the process time outside `run_audit` (interpreter
    start, imports, argument parsing, config load), so the self times,
    `pipeline.self_s` and `cli.startup_s` add up to `wall_s`.
    """
    own = self_times(trace["spans"])
    metrics = {LAYER_SPANS[name]: seconds for name, seconds in own.items()}
    metrics.update(trace["counters"])
    root = sum(s["end"] - s["start"] for s in trace["spans"] if s["parent"] is None)
    metrics["cli.startup_s"] = wall_s - root
    texts, measure_s = metrics["textmetrics.texts"], metrics["textmetrics.measure_s"]
    metrics["textmetrics.texts_per_s"] = texts / measure_s if measure_s > 0 else 0.0
    return metrics


def main(argv: list[str]) -> None:
    trace_path, cli_args = argv[0], argv[1:]
    import hirefair.cli as cli

    tracer, caches = Tracer(), []
    install(tracer, caches)
    try:
        cli.main(args=cli_args, prog_name="hirefair")
    finally:
        tracer.count("backends.cache_hits", sum(c.hits for c in caches))
        tracer.count("backends.cache_misses", sum(c.misses for c in caches))
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
