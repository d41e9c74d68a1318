"""Aggregate metric ledgers into versioned, byte-deterministic report files.

Ledger entries are the finest-grained metric observations (one job post, one
perturbation, one parameter setting). aggregate() deduplicates them by entry
id, averages within each (metric, model, perturbation, param, mode) key, and
emits CSV / JSON / plot-data files whose bytes depend only on the inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Sequence

from hirefair.records import encode_compact, from_row, read_jsonl, to_row, write_jsonl

REPORT_SCHEMA_VERSION = 1

METRICS = ("exclusion", "nonuniformity", "violation_rate")


class ReportError(Exception):
    """Raised for inconsistent ledger inputs."""


def manifest_digest(manifest: dict) -> str:
    """Stable digest of the run manifest (corpus + config + seeds + backends)."""
    return hashlib.sha256(encode_compact(manifest).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class LedgerEntry:
    """One metric observation, traceable by a content-derived entry id."""

    entry_id: str
    run_id: str
    metric: str
    model: str
    perturbation: str  # kind or direction, e.g. "swap:MW->FW", "spacing:FW"
    param: str         # e.g. "n=5" or "x=10"
    mode: str          # e.g. "sep" / "pool" / correction name
    value: float
    sample_size: int = 1

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ReportError(f"unknown metric {self.metric!r}")


def make_entry(run_id: str, metric: str, model: str, perturbation: str,
               param: str, mode: str, value: float, sample_size: int = 1,
               detail: str = "") -> LedgerEntry:
    """Build an entry whose id is a digest of its content (so duplicates collide)."""
    entry = LedgerEntry("", run_id, metric, model, perturbation, param, mode,
                        value, sample_size)
    content = to_row(entry, detail=detail)
    del content["entry_id"]
    entry_id = hashlib.sha256(encode_compact(content).encode("utf-8")).hexdigest()[:16]
    return replace(entry, entry_id=entry_id)


def write_ledger(entries: Iterable[LedgerEntry], path) -> None:
    """One compact JSON line per entry."""
    write_jsonl((encode_compact(to_row(entry)) for entry in entries), path)


def read_ledger(path) -> list[LedgerEntry]:
    """Entries from a ledger file; a row that is not an entry is a ReportError."""
    return [from_row(LedgerEntry, row, ReportError, f"{path} line {lineno}")
            for lineno, row in read_jsonl(path, ReportError)]


@dataclass(frozen=True)
class ReportRow:
    metric: str
    model: str
    perturbation: str
    param: str
    mode: str
    value: float
    sample_size: int


@dataclass(frozen=True)
class MetricReport:
    run_id: str
    manifest_digest: str
    rows: tuple[ReportRow, ...]


def aggregate(entries: Iterable[LedgerEntry], run_id: str,
              manifest: dict) -> MetricReport:
    """Deduplicate entries by id and average within each row key.

    Row values are unweighted means of the contributing entry values;
    sample_size sums the entries' sample sizes. Rows come out in
    lexicographic key order. Entries from a different run_id are an error.
    """
    by_id: dict[str, LedgerEntry] = {}
    for e in entries:
        if e.run_id != run_id:
            raise ReportError(f"entry {e.entry_id} belongs to run {e.run_id!r}, "
                              f"expected {run_id!r}")
        by_id.setdefault(e.entry_id, e)
    groups: dict[tuple[str, str, str, str, str], list[LedgerEntry]] = {}
    for e in by_id.values():
        groups.setdefault((e.metric, e.model, e.perturbation, e.param, e.mode),
                          []).append(e)
    rows = []
    for key in sorted(groups):
        members = groups[key]
        value = sum(m.value for m in members) / len(members)
        rows.append(ReportRow(*key, value=value,
                              sample_size=sum(m.sample_size for m in members)))
    return MetricReport(run_id=run_id, manifest_digest=manifest_digest(manifest),
                        rows=tuple(rows))


REPORT_COLUMNS = tuple(f.name for f in fields(ReportRow))


def _float_repr(value: float) -> str:
    return repr(float(value))


def emit(report: MetricReport, out_dir, svg: bool = False) -> list[Path]:
    """Write report.csv, report.json, and per-metric plot-data files.

    Identical reports produce byte-identical files. Plot-data rows are
    (x, y, series): x is the perturbation/param label, series the model.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    csv_path = out_dir / "report.csv"
    with csv_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(REPORT_COLUMNS)
        for row in report.rows:
            writer.writerow(_float_repr(v) if isinstance(v, float) else v
                            for v in astuple(row))
    written.append(csv_path)

    json_path = out_dir / "report.json"
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "run_id": report.run_id,
        "manifest_digest": report.manifest_digest,
        "rows": [to_row(r) for r in report.rows],
    }
    json_path.write_text(json.dumps(doc, indent=1, sort_keys=True,
                                    ensure_ascii=False) + "\n", encoding="utf-8")
    written.append(json_path)

    for metric in METRICS:
        rows = [r for r in report.rows if r.metric == metric]
        if not rows:
            continue
        plot_path = out_dir / f"plot_{metric}.csv"
        with plot_path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
            writer.writerow(["x", "y", "series"])
            for r in rows:
                label = f"{r.perturbation}|{r.param}" + (f"|{r.mode}" if r.mode else "")
                writer.writerow([label, _float_repr(r.value), r.model])
        written.append(plot_path)
        if svg:
            svg_path = out_dir / f"plot_{metric}.svg"
            svg_path.write_text(_bar_chart_svg(metric, rows), encoding="utf-8")
            written.append(svg_path)
    return written


def _bar_chart_svg(title: str, rows: Sequence[ReportRow]) -> str:
    """Minimal grouped bar chart; enough to eyeball a report without tooling."""
    width, bar_h, gap, label_w = 720, 16, 6, 340
    height = (bar_h + gap) * len(rows) + 40
    peak = max((abs(r.value) for r in rows), default=1.0) or 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="8" y="20" font-size="14" font-family="sans-serif">{title}</text>',
    ]
    y = 34
    for r in rows:
        label = f"{r.model} {r.perturbation} {r.param} {r.mode}".strip()
        w = int((width - label_w - 60) * abs(r.value) / peak)
        parts.append(
            f'<text x="8" y="{y + 12}" font-size="10" font-family="monospace">'
            f'{label[:52]}</text>'
        )
        parts.append(
            f'<rect x="{label_w}" y="{y}" width="{w}" height="{bar_h}" fill="#4477aa"/>'
        )
        parts.append(
            f'<text x="{label_w + w + 4}" y="{y + 12}" font-size="10" '
            f'font-family="monospace">{r.value:.4f}</text>'
        )
        y += bar_h + gap
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
