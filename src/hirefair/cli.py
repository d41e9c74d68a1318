"""Operator command line: validate, perturb, embed, summarize, measure,
audit, report, and the composite run.

Exit codes: 0 ok, 2 configuration error, 3 backend error, 4 data or write error.
"""

from __future__ import annotations

import logging
import math
import os
import sqlite3
import sys
from contextlib import contextmanager, nullcontext
from functools import partial

import click

from hirefair import perturb, stats, textmetrics
from hirefair.backends import (BackendError, CacheError, ResponseCache, build_backend,
                               cpu_map, thread_map)
from hirefair.config import ConfigError, backend_from_dict, load_run_config
from hirefair.corpus import (
    CorpusError,
    load_corpus,
    load_name_pools,
    pair_jobs,
    read_frequency_table,
    save_corpus,
    validate_corpus,
)
from hirefair.pipeline import (
    DataError,
    VariantSet,
    paired_samples,
    run_audit,
    score_variants,
    summarize,
)
from hirefair.records import RetrievalError, read_json, write_jsonl
from hirefair.report import ReportError, aggregate, emit, read_ledger

#: The exit code of each error a command may raise: config, backend, data. An
#: OSError is a failed write: readers and backends wrap their own OSErrors. A
#: response cache that cannot be read or written (sqlite3.Error), or one of
#: whose rows does not decode (CacheError), is a data error.
EXIT_CODES = {
    ConfigError: 2,
    BackendError: 3,
    **dict.fromkeys((CorpusError, DataError, RetrievalError, textmetrics.TextMetricsError,
                     perturb.PerturbError, stats.StatsError, ReportError, OSError,
                     sqlite3.Error, CacheError), 4),
}

class NumberRange(click.FloatRange):
    """A FloatRange that also refuses NaN, which compares false with either
    bound and so passes FloatRange."""

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if math.isnan(number):
            self.fail(f"{value} is not in the range {self._describe_range()}.", param, ctx)
        return number


#: A significance level of the stage commands, as `run` takes it: in (0, 1).
ALPHA = NumberRange(0, 1, min_open=True, max_open=True)

logger = logging.getLogger(__name__)


class _Commands(click.Group):
    """A command group whose commands end on one of the EXIT_CODES errors
    with an error line and its exit code, not a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except tuple(EXIT_CODES) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(next(code for error, code in EXIT_CODES.items() if isinstance(exc, error)))


@click.group(cls=_Commands)
@click.option("--verbose", "-v", is_flag=True, help="Enable debug logging.")
def main(verbose: bool):
    """Fairness audits for embedding-based resume retrieval and summarization."""
    # before anything loads numpy: the audit's BLAS calls are dots of one
    # vector pair, which OpenBLAS makes on the calling thread anyway
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )


@main.group()
def corpus():
    """Corpus inspection and validation."""


@corpus.command("validate")
@click.argument("path", type=click.Path(exists=True))
def corpus_validate(path):
    """Load a corpus, run invariant checks, and summarize occupation pairing."""
    resumes, jobs = load_corpus(path)
    problems = validate_corpus(resumes, jobs, load_name_pools())
    click.echo(f"resumes: {len(resumes)}")
    click.echo(f"jobs: {len(jobs)}")
    groups = pair_jobs(resumes, jobs)
    for occupation in sorted(groups):
        rs, js = groups[occupation]
        click.echo(f"occupation {occupation!r}: {len(rs)} resumes, {len(js)} jobs")
    if problems:
        for p in problems:
            click.echo(f"problem: {p}", err=True)
        raise CorpusError(f"{len(problems)} validation problem(s)")
    click.echo("corpus ok")


@main.command("perturb")
@click.option("--plan", "plan_path", required=True, type=click.Path(exists=True))
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--frequency-table", "frequency_table", default=None,
              type=click.Path(exists=True),
              help="A {group: {name: count}} JSON, the run config's frequency_table.")
def perturb_cmd(plan_path, in_path, out_path, frequency_table):
    """Apply an ordered perturbation plan to a corpus."""
    specs = perturb.load_plan(plan_path)
    resumes, jobs = load_corpus(in_path)
    pools = load_name_pools(frequency_overrides=(
        read_frequency_table(frequency_table) if frequency_table else None))
    perturbed = perturb.apply_plan(resumes, specs, pools=pools)
    save_corpus(perturbed, jobs, out_path)
    click.echo(f"wrote {len(perturbed)} resumes to {out_path}")


@contextmanager
def _load_backend(path, backend_id, kind, cache_dir):
    """The first `kind` block of a backends file (or the one named
    backend_id), built over a response cache in cache_dir if given, which
    opens after cpu_map's pool when the backend answers in-process. Both
    close when the block ends."""
    doc = read_json(path, ConfigError, "backends file")
    blocks = doc.get("backends", [doc]) if isinstance(doc, dict) else doc
    if not isinstance(blocks, list) or not all(isinstance(raw, dict) for raw in blocks):
        raise ConfigError(f"backends file {path} must hold backend blocks, got {doc!r:.80}")
    for raw in blocks:
        if raw.get("kind") == kind and backend_id in (None, raw.get("id")):
            config = backend_from_dict(raw)
            with cpu_map() if config.in_process else nullcontext(), \
                    ResponseCache(cache_dir) if cache_dir else nullcontext() as cache:
                yield build_backend(config, cache)
            return
    raise ConfigError(f"no {kind} backend {backend_id or ''!r} found in {path}")


def _variant_id(resume) -> str:
    """The spec id of the last perturbation (name:FW), without its details."""
    return perturb.parse_lineage_entry(resume.lineage[-1])[0] if resume.lineage else "original"


@main.command("embed")
@click.option("--backends", "backends_path", required=True, type=click.Path(exists=True),
              help="JSON file with backend blocks.")
@click.option("--backend-id", default=None, help="Which embedding backend block to use.")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--cache-dir", default=None, type=click.Path())
def embed_cmd(backends_path, backend_id, in_path, out_path, cache_dir):
    """Embed a corpus and write the (job, resume, variant, score) table."""
    from hirefair import retrieval  # before the pool forks, so that workers share numpy

    with _load_backend(backends_path, backend_id, "embedding", cache_dir) as backend:
        resumes, jobs = load_corpus(in_path)
        if not jobs:
            raise CorpusError("corpus has no job posts to score against")
        if not resumes:
            raise CorpusError("corpus has no resumes to score")
        variants = VariantSet(draw=0, resumes={})
        for resume in resumes:
            variants.resumes.setdefault(_variant_id(resume), {})[resume.id] = resume
        table = score_variants(backend, jobs, variants)
    retrieval.write_score_table(table, out_path)
    click.echo(f"wrote {len(table)} scores to {out_path}")


@main.command("summarize")
@click.option("--backends", "backends_path", required=True, type=click.Path(exists=True))
@click.option("--backend-id", default=None)
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--length", type=click.Choice([str(v) for v in textmetrics.ALLOWED_LENGTHS]),
              default="100")
@click.option("--pov", type=click.Choice(textmetrics.ALLOWED_POVS), default="third")
@click.option("--temperature",
              type=click.Choice([str(v) for v in textmetrics.ALLOWED_TEMPERATURES]),
              default="0.0")
@click.option("--runs", type=click.IntRange(1, textmetrics.MAX_RUNS), default=1)
@click.option("--cache-dir", default=None, type=click.Path())
def summarize_cmd(backends_path, backend_id, in_path, out_path, length, pov,
                  temperature, runs, cache_dir):
    """Generate summaries for every resume at one grid cell."""
    with _load_backend(backends_path, backend_id, "completion", cache_dir) as backend:
        resumes, _ = load_corpus(in_path)
        lines = [line for _, (line, *_) in summarize(
            backend, [(r, _variant_id(r)) for r in resumes],
            [(float(temperature), int(length), pov)], runs,
            partial(textmetrics.summary_lines, False))]
    write_jsonl(lines, out_path)
    click.echo(f"wrote {len(lines)} summaries to {out_path}")


def _measures_line(record) -> str:
    """A read summary's measures line; a module function, so that the pool can send it."""
    return textmetrics.summary_lines(True, record, record.text)[2]


@main.command("measure")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True),
              help="Summaries JSONL from the summarize stage.")
@click.option("--out", "out_path", required=True, type=click.Path())
def measure_cmd(in_path, out_path):
    """Compute the proxy measures for generated summaries."""
    records = textmetrics.read_summaries(in_path)
    with cpu_map():
        lines = list(thread_map()(_measures_line, records))
    write_jsonl(lines, out_path)
    click.echo(f"wrote {len(lines)} measure rows to {out_path}")


@main.command("rank")
@click.option("--scores", "scores_path", required=True, type=click.Path(exists=True))
@click.option("--variant", default="name:MW", help="Variant id to rank.")
@click.option("--top", default=0, type=click.IntRange(min=0),
              help="Print only the top N rows per job.")
def rank_cmd(scores_path, variant, top):
    """Print competition ranks per job from a saved score table."""
    from hirefair import retrieval

    table = retrieval.read_score_table(scores_path)
    scores = table.of(variant)
    for job_id, job_scores in zip(table.jobs, scores):
        ranks = retrieval.competition_ranks(job_scores)
        order = sorted(range(len(job_scores)),
                       key=lambda i: (-job_scores[i], table.resumes[i]))
        for i in order:
            if top and ranks[i] > top:
                break
            click.echo(f"{job_id}\t{ranks[i]}\t{table.resumes[i]}\t{job_scores[i]:.6f}")


@main.group()
def audit():
    """Standalone metric computation from stage artifacts."""


@audit.command("retrieval")
@click.option("--scores", "scores_path", required=True, type=click.Path(exists=True))
@click.option("--metric", type=click.Choice(["exclusion", "nonuniformity"]),
              required=True)
@click.option("--n", "n_values", multiple=True, type=click.IntRange(min=1), help="Top-n sizes.")
@click.option("--x", "x_values", multiple=True, type=NumberRange(0, 100, min_open=True),
              help="Top-x percentages.")
@click.option("--original", "original_variant", default="name:MW",
              help="Variant id treated as the original ranking (exclusion).")
@click.option("--perturbed", "perturbed_variant", default="swap:MW->FW",
              help="Variant id whose scores re-rank the originals (exclusion).")
@click.option("--alpha", type=ALPHA, default=0.05)
def audit_retrieval(scores_path, metric, n_values, x_values,
                    original_variant, perturbed_variant, alpha):
    """Recompute retrieval metrics from a saved score table. Non-uniformity is
    tested per job post; a score table has no occupations to pool by."""
    from hirefair import retrieval

    table = retrieval.read_score_table(scores_path)
    if metric == "exclusion":
        original = table.of(original_variant)
        perturbed = table.of(perturbed_variant)
        for j, job_id in enumerate(table.jobs):
            for n in n_values or (5, 10, 100):
                value = retrieval.exclusion(original[j], perturbed[j], n)
                click.echo(f"{job_id}\texclusion\tn={n}\t{value:.6f}")
    else:
        pools = table.pools()
        for x in x_values or (5.0, 10.0):
            for res in retrieval.non_uniformity(pools, x, alpha=alpha):
                click.echo(f"{res.unit_id}\tnonuniformity\tx={x:g}\tsep\t"
                           f"chi2={res.chi2:.4f}\tp={res.p:.6f}\tflag={res.flag}")


@audit.command("summarization")
@click.option("--measures", "measures_path", required=True, type=click.Path(exists=True))
@click.option("--correction", type=click.Choice(list(stats.CORRECTIONS)), default="bh")
@click.option("--alpha", type=ALPHA, default=0.05)
def audit_summarization(measures_path, correction, alpha):
    """Invariance-violation rates from a measures file.

    Pairs as the composite run does by default: group versions are matched
    by their name:* variant ids (a draw tag such as @d1 is ignored), the
    generation runs are averaged per resume, and regard is included when
    the file has it.
    """
    samples = paired_samples(textmetrics.read_measures(measures_path))
    if not samples:
        raise DataError("no pairable measures found (need name:* group variants)")
    results = [(sample.label, stats.paired_t_test(sample)) for sample in samples]
    rates, _ = stats.invariance_violation_rate(results, correction=correction,
                                               alpha=alpha)
    for rate in rates:
        click.echo(f"{rate.model}\t{rate.comparison_type}\t"
                   f"{rate.rejected}/{rate.total}\t{rate.rate:.4f}")


@main.command("report")
@click.option("--ledger", "ledger_paths", multiple=True, required=True,
              type=click.Path(exists=True))
@click.option("--run-id", required=True)
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--svg", is_flag=True, help="Also emit SVG bar charts.")
def report_cmd(ledger_paths, run_id, manifest_path, out_dir, svg):
    """Aggregate metric ledgers into report files."""
    entries = [entry for path in ledger_paths for entry in read_ledger(path)]
    manifest = read_json(manifest_path, ReportError, "manifest")
    if not isinstance(manifest, dict):
        raise ReportError(f"manifest {manifest_path} must be a JSON object")
    manifest.pop("run_id", None)
    files = emit(aggregate(entries, run_id, manifest), out_dir, svg=svg)
    for f in files:
        click.echo(f"wrote {f}")


@main.command("run")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", default=None, type=click.Path(),
              help="Override the config's output directory.")
@click.option("--seed", "master_seed", default=None, type=int)
@click.option("--draws", default=None, type=int)
@click.option("--correction", default=None, type=click.Choice(list(stats.CORRECTIONS)))
@click.option("--alpha", default=None, type=float)
@click.option("--svg", is_flag=True)
def run_cmd(config_path, out_dir, master_seed, draws, correction, alpha, svg):
    """Composite pipeline: validate, perturb, embed, summarize, measure,
    audit, report."""
    config = load_run_config(
        config_path, out_dir=out_dir, master_seed=master_seed,
        draws=draws, correction=correction, alpha=alpha,
    )
    result = run_audit(config, svg=svg)
    click.echo(f"run {result.run_id} complete")
    click.echo(f"report rows: {len(result.report.rows)}")
    for f in result.files:
        click.echo(f"wrote {f}")


if __name__ == "__main__":
    main()
