"""README's library examples run as written."""

import json
import re
import shutil
from pathlib import Path

import pytest

from hirefair.config import load_run_config
from hirefair.pipeline import run_audit

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.DOTALL | re.MULTILINE)


@pytest.fixture
def workdir(tmp_path, fixtures_dir, monkeypatch):
    """A directory holding the mini corpus as corpus.jsonl and a run of one
    mock embedder, id emb, in out/."""
    shutil.copy(fixtures_dir / "mini_corpus.jsonl", tmp_path / "corpus.jsonl")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "schema_version": 1, "corpus": "corpus.jsonl", "out_dir": "out", "master_seed": 7,
        "backends": [{"id": "emb", "kind": "embedding", "protocol": "mock",
                      "model_name": "bow-256"}],
        "grid": {"n_values": [3], "x_values": [25]},
    }))
    run_audit(load_run_config(config))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_readme_has_two_python_blocks():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("block", range(len(BLOCKS)))
def test_readme_python_block_runs(workdir, block):
    exec(compile(BLOCKS[block], f"README.md python block {block}", "exec"), {})


def test_readme_numbers_of_cache_constants_match_them():
    """Each number README gives as "N ... (the cache's `NAME`)" is NAME's
    value in hirefair.backends."""
    from hirefair import backends

    stated = re.findall(r"(\d[\d,]*)(?:\s+\w+){0,2}\s+\(the cache's `(\w+)`\)",
                        README.read_text(encoding="utf-8"))
    assert {name for _, name in stated} == {"READ_CHUNK", "WRITE_CHUNK"}
    for number, name in stated:
        assert int(number.replace(",", "")) == getattr(backends, name), name


def test_readme_plan_paragraph_names_every_kind_and_choice():
    """README's "Perturbation plan" paragraph names every kind of
    hirefair.perturb and every allowed `matching` and `mode` value."""
    from hirefair import perturb

    paragraph = re.search(r"^\*\*Perturbation plan\*\*.*?(?=\n\n)",
                          README.read_text(encoding="utf-8"), re.DOTALL | re.MULTILINE)
    named = set(re.findall(r"`(\w+)`", paragraph.group()))
    choices = {*perturb._PARAMS["between_group_name"]["matching"],
               *perturb._PARAMS["spacing"]["mode"]}
    assert set(perturb.KINDS) | choices <= named
