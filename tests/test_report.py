import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hirefair.records import encode_compact, encode_line, write_jsonl
from hirefair.report import (
    LedgerEntry,
    ReportError,
    aggregate,
    emit,
    make_entry,
    manifest_digest,
    read_ledger,
    write_ledger,
)

MANIFEST = {"config": {"alpha": 0.05}, "corpus_sha256": "ab" * 32}


def entries_fixture(run_id="run1"):
    return [
        make_entry(run_id, "exclusion", "model-a", "dir:M->F", "n=5", "", 0.4,
                   sample_size=3, detail="job=j1"),
        make_entry(run_id, "exclusion", "model-a", "dir:M->F", "n=5", "", 0.2,
                   sample_size=3, detail="job=j2"),
        make_entry(run_id, "nonuniformity", "model-a", "name-pool", "x=10", "sep",
                   1.0, sample_size=16, detail="unit=j1"),
        make_entry(run_id, "violation_rate", "model-a", "race", "alpha=0.05", "bh",
                   0.125, sample_size=64),
    ]


def test_manifest_digest_stable_and_sensitive():
    a = manifest_digest(MANIFEST)
    assert a == manifest_digest(json.loads(json.dumps(MANIFEST)))
    assert a != manifest_digest({**MANIFEST, "corpus_sha256": "cd" * 32})


def test_entry_ids_collide_only_for_identical_content():
    a = make_entry("r", "exclusion", "m", "p", "n=5", "", 0.5, detail="j1")
    b = make_entry("r", "exclusion", "m", "p", "n=5", "", 0.5, detail="j1")
    c = make_entry("r", "exclusion", "m", "p", "n=5", "", 0.5, detail="j2")
    assert a.entry_id == b.entry_id
    assert a.entry_id != c.entry_id


def test_make_entry_validates_metric():
    with pytest.raises(ReportError):
        make_entry("r", "sparkle", "m", "p", "", "", 0.0)


def test_aggregate_empty_ledger():
    report = aggregate([], "run1", MANIFEST)
    assert report.rows == ()
    assert report.manifest_digest == manifest_digest(MANIFEST)


def test_aggregate_means_and_sample_sizes():
    report = aggregate(entries_fixture(), "run1", MANIFEST)
    row = next(r for r in report.rows if r.metric == "exclusion")
    assert row.value == pytest.approx((0.4 + 0.2) / 2)
    assert row.sample_size == 6
    assert [r.metric for r in report.rows] == sorted(r.metric for r in report.rows)


def test_aggregate_deduplicates_by_entry_id():
    entries = entries_fixture()
    doubled = entries + [LedgerEntry(**vars(e)) for e in entries]
    once = aggregate(entries, "run1", MANIFEST)
    deduped = aggregate(doubled, "run1", MANIFEST)
    assert once.rows == deduped.rows


def test_aggregate_rejects_mixed_run_ids():
    mixed = entries_fixture() + entries_fixture(run_id="other")
    with pytest.raises(ReportError, match="other"):
        aggregate(mixed, "run1", MANIFEST)


def test_ledger_round_trip(tmp_path):
    entries = entries_fixture()
    path = tmp_path / "ledger.jsonl"
    write_ledger(entries, path)
    assert read_ledger(path) == entries


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=12)


@given(rows=st.lists(st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=5),
                     max_size=4),
       encoder=st.sampled_from([(encode_line, None), (encode_compact, (",", ":"))]))
@settings(max_examples=80, deadline=None)
def test_write_jsonl_writes_json_dumps_lines(tmp_path_factory, rows, encoder):
    """Each encoder writes each row as json.dumps would: encode_line with the
    default separators and encode_compact with the ledger's."""
    encode, separators = encoder
    path = tmp_path_factory.mktemp("jsonl") / "rows.jsonl"
    write_jsonl(map(encode, rows), path)
    assert path.read_bytes() == "".join(
        json.dumps(row, sort_keys=True, ensure_ascii=False, separators=separators) + "\n"
        for row in rows).encode("utf-8")


def test_write_jsonl_keeps_non_ascii_text(tmp_path):
    """Lines are written as UTF-8, one per row, from a one-pass iterable; text
    is never escaped to ASCII, and a line separator inside a string does not
    end its line."""
    rows = [{"text": f"Zoë’s résumé {i}: 東京, naïve “quotes”\u2028 \U0001f600 \\ \"",
             "i": i, "share": i / 7, "none": None, "nested": {"b": [1, 2.5], "a": "ü"}}
            for i in range(5)]
    for encode, separators in ((encode_line, None), (encode_compact, (",", ":"))):
        path = tmp_path / "rows.jsonl"
        write_jsonl(map(encode, rows), path)
        written = path.read_bytes()
        assert written == "".join(
            json.dumps(row, sort_keys=True, ensure_ascii=False, separators=separators) + "\n"
            for row in rows).encode("utf-8")
        assert written.count(b"\n") == len(rows)
        assert [json.loads(line) for line in written.decode("utf-8").split("\n")[:-1]] == rows


def test_a_row_that_does_not_encode_raises_where_its_line_is_written(tmp_path):
    """The lines before it are written, and the TypeError is raised."""
    rows = [{"a": 1}] * 100 + [{"a": {1, 2}}] + [{"a": 2}] * 100
    path = tmp_path / "rows.jsonl"
    with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
        write_jsonl(map(encode_line, rows), path)
    assert path.read_text() == '{"a": 1}\n' * 100


def test_emit_byte_deterministic(tmp_path):
    report = aggregate(entries_fixture(), "run1", MANIFEST)
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    files_a = emit(report, dir_a, svg=True)
    files_b = emit(report, dir_b, svg=True)
    assert [f.name for f in files_a] == [f.name for f in files_b]
    for fa, fb in zip(files_a, files_b):
        assert fa.read_bytes() == fb.read_bytes()


def test_emit_csv_schema(tmp_path):
    report = aggregate(entries_fixture(), "run1", MANIFEST)
    emit(report, tmp_path)
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "metric,model,perturbation,param,mode,value,sample_size"
    assert len(lines) == 1 + len(report.rows)
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["run_id"] == "run1"
    assert len(doc["rows"]) == len(report.rows)


def test_emit_single_row(tmp_path):
    report = aggregate(entries_fixture()[:1], "run1", MANIFEST)
    emit(report, tmp_path)
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert len(lines) == 2


def test_emit_plot_files_per_metric(tmp_path):
    report = aggregate(entries_fixture(), "run1", MANIFEST)
    files = emit(report, tmp_path, svg=True)
    names = {f.name for f in files}
    assert {"plot_exclusion.csv", "plot_nonuniformity.csv",
            "plot_violation_rate.csv"} <= names
    assert "plot_exclusion.svg" in names
    plot = (tmp_path / "plot_exclusion.csv").read_text().splitlines()
    assert plot[0] == "x,y,series"
    assert "model-a" in plot[1]
