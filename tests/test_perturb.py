import dataclasses
import hashlib
import json
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hirefair.config import load_run_config
from hirefair.corpus import (
    DemographicGroup,
    Resume,
    load_corpus,
    load_name_pools,
    overlapping_names,
)
from hirefair.perturb import (
    AUGMENTATION_PROMPT,
    PerturbationSpec,
    PerturbError,
    add_extracurriculars,
    apply_plan,
    apply_spec,
    assign_name,
    assigned_first_name,
    between_group_swap,
    lineage_entry,
    load_plan,
    parse_lineage_entry,
    qwerty_neighbors,
    save_plan,
    spacing_perturb,
    typo_perturb,
    within_group_swap,
)
from hirefair.pipeline import build_variants
from hirefair.stats import uniform_gof

from conftest import make_pool

FW = DemographicGroup.from_code("FW")
MB = DemographicGroup.from_code("MB")
MW = DemographicGroup.from_code("MW")


# ---------------------------------------------------------------------------
# name assignment
# ---------------------------------------------------------------------------

def test_assign_name_prepends_header(unnamed_resume, pools):
    named = assign_name(unnamed_resume, FW, pools, seed=5)
    first = assigned_first_name(named)
    assert first in pools["FW"].names
    header, rest = named.body.split("\n", 1)
    assert header == f"{first} Williams"
    assert rest == unnamed_resume.body
    assert named.body.count(f"{first} Williams") == 1
    assert named.group == FW
    assert named.lineage and named.lineage[-1].startswith("assign_name#")


def test_assign_name_deterministic(unnamed_resume, pools):
    a = assign_name(unnamed_resume, FW, pools, seed=123)
    b = assign_name(unnamed_resume, FW, pools, seed=123)
    assert a == b
    c = assign_name(unnamed_resume, FW, pools, seed=124)
    assert c.body != a.body or c == a  # different seed may draw a new name


def test_assign_name_rejects_named_resume(unnamed_resume, pools):
    named = assign_name(unnamed_resume, FW, pools, seed=1)
    with pytest.raises(PerturbError, match="already named"):
        assign_name(named, MB, pools, seed=2)


def test_assign_name_placeholder(pools):
    resume = Resume(id="p", profession="Data Analyst",
                    body="Contact: {{NAME}}\nSummary\nAnalyst.\n")
    named = assign_name(resume, FW, pools, seed=9)
    first = assigned_first_name(named)
    assert f"Contact: {first} Williams" in named.body
    assert "{{NAME}}" not in named.body
    two = Resume(id="p2", profession="Data Analyst", body="{{NAME}} and {{NAME}}")
    with pytest.raises(PerturbError, match="placeholder"):
        assign_name(two, FW, pools, seed=9)


def test_assign_name_draws_uniformly(unnamed_resume, pools):
    """10,000-seed sweep over the MB pool must pass a uniformity GoF test."""
    counts = Counter()
    for seed in range(10000):
        named = assign_name(unnamed_resume, MB, pools, seed)
        counts[assigned_first_name(named)] += 1
    observed = [counts.get(n, 0) for n in pools["MB"].names]
    result = uniform_gof(observed)
    assert result.p > 0.01


# ---------------------------------------------------------------------------
# between-group swap
# ---------------------------------------------------------------------------

def test_between_swap_touches_only_name_tokens(unnamed_resume, pools):
    named = assign_name(unnamed_resume, MW, pools, seed=3)
    old = assigned_first_name(named)
    swapped = between_group_swap(named, FW, pools, seed=3)
    new = assigned_first_name(swapped)
    assert new in pools["FW"].names and new != old
    assert swapped.group == FW
    assert swapped.body == named.body.replace(old, new)
    # non-name token multiset unchanged
    strip = lambda body: [t for t in body.split() if t not in (old, new)]
    assert strip(named.body) == strip(swapped.body)


def test_between_swap_replaces_every_occurrence(pools):
    body = "{{NAME}}\nSummary\nAnalyst.\nReferences\nAsk for NAMEHOLDER directly.\n"
    resume = Resume(id="two", profession="Data Analyst", body=body)
    named = assign_name(resume, MW, pools, seed=8)
    old = assigned_first_name(named)
    # referee line mentions the first name again
    with_ref = named.with_body(named.body.replace("NAMEHOLDER", old))
    swapped = between_group_swap(with_ref, FW, pools, seed=8)
    new = assigned_first_name(swapped)
    assert old not in swapped.body.split()
    assert swapped.body.count(new) == 2


def test_between_swap_inverse_restores_bytes(unnamed_resume, pools):
    named = assign_name(unnamed_resume, MW, pools, seed=21)
    swapped = between_group_swap(named, FW, pools, seed=21)
    _, details = parse_lineage_entry(swapped.lineage[-1])
    # invert using the mapping recorded in lineage
    restored_body = re.sub(rf"\b{details['first']}\b", details["prev"], swapped.body)
    assert restored_body == named.body


def test_between_swap_preconditions(unnamed_resume, pools):
    with pytest.raises(PerturbError, match="unnamed"):
        between_group_swap(unnamed_resume, FW, pools, seed=1)
    named = assign_name(unnamed_resume, FW, pools, seed=1)
    with pytest.raises(PerturbError, match="target group equals"):
        between_group_swap(named, FW, pools, seed=1)
    with pytest.raises(PerturbError, match="matching"):
        between_group_swap(named, MW, pools, seed=1, matching="psychic")


def test_between_swap_never_picks_overlapping_names(unnamed_resume, pools):
    overlap = overlapping_names(pools)
    assert overlap  # Amari, Bailey at least
    for seed in range(150):
        named = assign_name(unnamed_resume, MW, pools, seed=seed)
        swapped = between_group_swap(named, FW, pools, seed=seed, matching="random")
        assert assigned_first_name(swapped) not in overlap


def test_between_swap_frequency_binned_uses_matching_bin(tiny_pools, unnamed_resume):
    named = assign_name(unnamed_resume, MW, tiny_pools, seed=2)
    # force the rare name: bin 0 of MW pool is {Arlo, Bram}
    named = named.with_body(named.body.replace(assigned_first_name(named), "Arlo"),
                            lineage_entry="fix#first=Arlo")
    for seed in range(40):
        swapped = between_group_swap(named, FW, tiny_pools, seed=seed,
                                     matching="frequency_binned")
        assert assigned_first_name(swapped) in {"Wren", "Xia"}


# ---------------------------------------------------------------------------
# frequency bins and within-group swap
# ---------------------------------------------------------------------------

def test_frequency_bins_quartiles(tiny_pools):
    bins = tiny_pools["MW"].bins
    assert bins["Arlo"] == bins["Bram"] == 0  # low bin holds 1 and 2
    assert bins["Cato"] == 1
    assert bins["Dov"] == 2


def test_frequency_bins_degenerate_equal_frequencies():
    pool = make_pool("MW", {"A": 7, "B": 7, "C": 7, "D": 7})
    assert set(pool.bins.values()) == {0}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 10**12), min_size=2, max_size=120))
def test_frequency_bins_match_numpy_percentile(counts):
    """The bins are the upper-value quartiles np.percentile gives."""
    import numpy as np

    frequencies = {f"N{i}": count for i, count in enumerate(counts)}
    boundaries = np.percentile(counts, (25.0, 50.0, 75.0), method="higher")
    assert make_pool("MW", frequencies).bins == {
        name: int(np.count_nonzero(boundaries < f)) for name, f in frequencies.items()}


def test_within_swap_same_bin(tiny_pools, unnamed_resume):
    named = assign_name(unnamed_resume, MW, tiny_pools, seed=0)
    named = named.with_body(named.body.replace(assigned_first_name(named), "Arlo"),
                            lineage_entry="fix#first=Arlo")
    swapped = within_group_swap(named, tiny_pools, seed=0)
    # freq-1 name swaps only to its freq-2 bin partner
    assert assigned_first_name(swapped) == "Bram"
    assert swapped.group == named.group


def test_within_swap_degenerate_bins_allow_any_other(unnamed_resume):
    pools = {"MW": make_pool("MW", {"A": 3, "B": 3, "C": 3})}
    named = assign_name(unnamed_resume, MW, pools, seed=1)
    seen = set()
    for seed in range(30):
        seen.add(assigned_first_name(within_group_swap(named, pools, seed)))
    assert seen == {"A", "B", "C"} - {assigned_first_name(named)}


def test_within_swap_bin_fallback_recorded(unnamed_resume):
    # "Solo" sits alone in the top bin; swap must fall back to the nearest
    # occupied bin and record that in lineage
    pools = {"MW": make_pool("MW", {"A": 1, "B": 2, "C": 3, "Solo": 100})}
    assert pools["MW"].bins == {"A": 0, "B": 0, "C": 1, "Solo": 2}
    named = assign_name(unnamed_resume, MW, pools, seed=4)
    named = named.with_body(named.body.replace(assigned_first_name(named), "Solo"),
                            lineage_entry="fix#first=Solo")
    swapped = within_group_swap(named, pools, seed=4)
    assert assigned_first_name(swapped) == "C"  # nearest bin to the singleton
    _, details = parse_lineage_entry(swapped.lineage[-1])
    assert details["bin_fallback"] == "1"


def test_within_swap_requires_group_and_pool_membership(unnamed_resume, pools):
    with pytest.raises(PerturbError, match="unnamed"):
        within_group_swap(unnamed_resume, pools, seed=1)
    named = assign_name(unnamed_resume, FW, pools, seed=1)
    alien = named.with_body(named.body, lineage_entry="x#first=NotAPoolName")
    with pytest.raises(PerturbError, match="not in pool"):
        within_group_swap(alien, pools, seed=1)


# ---------------------------------------------------------------------------
# typos
# ---------------------------------------------------------------------------

def test_typo_zero_count_identity(unnamed_resume):
    out = typo_perturb(unnamed_resume, seed=1, count=0)
    assert out.body == unnamed_resume.body


def test_typo_spec_example_sample_to_aample():
    resume = Resume(id="t", profession="Data Analyst", body="sample")
    assert qwerty_neighbors()["s"] == ["a", "d"]
    hits = [seed for seed in range(400)
            if typo_perturb(resume, seed, count=1).body == "aample"]
    assert hits, "some seed must pick position 0 and neighbor 'a'"
    seed = hits[0]
    assert typo_perturb(resume, seed, count=1).body == "aample"
    assert typo_perturb(resume, seed, count=1).body == "aample"  # deterministic


def test_typo_changes_exactly_count_positions(unnamed_resume):
    for count in (1, 5, 10):
        out = typo_perturb(unnamed_resume, seed=77, count=count)
        assert len(out.body) == len(unnamed_resume.body)
        changed = sum(1 for a, b in zip(unnamed_resume.body, out.body) if a != b)
        assert changed == count


def test_typo_preserves_case_and_nonletters():
    resume = Resume(id="c", profession="Data Analyst", body="AB cd 12 !?")
    out = typo_perturb(resume, seed=3, count=4)
    for orig, new in zip(resume.body, out.body):
        if orig != new:
            assert orig.isalpha() and new.isalpha()
            assert orig.isupper() == new.isupper()
    assert out.body[6:] == "12 !?"


def test_typo_replacements_are_row_neighbors(unnamed_resume):
    neighbors = qwerty_neighbors()
    out = typo_perturb(unnamed_resume, seed=13, count=10)
    for orig, new in zip(unnamed_resume.body, out.body):
        if orig != new:
            assert new.lower() in neighbors[orig.lower()]


def test_typo_insufficient_positions():
    resume = Resume(id="s", profession="Data Analyst", body="ab 12")
    with pytest.raises(PerturbError, match="eligible"):
        typo_perturb(resume, seed=1, count=3)


@given(st.text(min_size=0, max_size=200), st.integers(0, 5))
@settings(max_examples=80, deadline=None)
def test_typo_length_invariant(body, count):
    resume = Resume(id="h", profession="Data Analyst", body=body or "x")
    neighbors = qwerty_neighbors()
    eligible = sum(1 for ch in resume.body if ch.lower() in neighbors)
    if eligible < count:
        with pytest.raises(PerturbError):
            typo_perturb(resume, seed=5, count=count)
    else:
        out = typo_perturb(resume, seed=5, count=count)
        assert len(out.body) == len(resume.body)
        assert sum(1 for a, b in zip(resume.body, out.body) if a != b) == count


# ---------------------------------------------------------------------------
# spacing
# ---------------------------------------------------------------------------

def test_typo_and_spacing_refuse_what_a_spec_refuses(unnamed_resume):
    with pytest.raises(PerturbError, match="invalid count -1"):
        typo_perturb(unnamed_resume, seed=1, count=-1)
    with pytest.raises(PerturbError, match="invalid mode 'tabs'"):
        spacing_perturb(unnamed_resume, mode="tabs")


def test_spacing_single_newline():
    r = Resume(id="s", profession="Data Analyst", body="a\nb")
    assert spacing_perturb(r).body == "a b"


def test_spacing_collapses_runs():
    r = Resume(id="s", profession="Data Analyst", body="a\n\n\nb")
    assert spacing_perturb(r).body == "a b"
    crlf = Resume(id="s2", profession="Data Analyst", body="a\r\n\r\nb\rc")
    assert spacing_perturb(crlf).body == "a b c"


def test_spacing_per_newline_mode():
    r = Resume(id="s", profession="Data Analyst", body="a\n\n\nb")
    assert spacing_perturb(r, mode="per_newline").body == "a   b"
    crlf = Resume(id="s2", profession="Data Analyst", body="a\r\nb")
    assert spacing_perturb(crlf, mode="per_newline").body == "a b"


def test_spacing_identity_without_newlines():
    r = Resume(id="s", profession="Data Analyst", body="one line only")
    assert spacing_perturb(r).body == r.body


@given(st.text(max_size=300))
@settings(max_examples=80, deadline=None)
def test_spacing_output_newline_free(body):
    r = Resume(id="h", profession="Data Analyst", body=body or "x")
    for mode in ("collapse", "per_newline"):
        out = spacing_perturb(r, mode=mode)
        assert "\n" not in out.body and "\r" not in out.body


# ---------------------------------------------------------------------------
# extracurricular augmentation
# ---------------------------------------------------------------------------

class FixedBlockBackend:
    block = ("Awards\n- Analyst of the year\n"
             "Mentorship and Leadership\n- Mentored interns\n"
             "Clubs and Organizations\n- Analytics guild")

    def complete_batch(self, requests):
        return [self.block for _ in requests]


class GroupKeyedBackend:
    def complete_batch(self, requests):
        return [self.section(request.prompt) for request in requests]

    @staticmethod
    def section(prompt):
        for token in ("female", "male"):
            if f"You are Black, {token} professional" in prompt:
                return f"Awards\n- Black {token} section"
            if f"You are White, {token} professional" in prompt:
                return f"Awards\n- White {token} section"
        raise AssertionError("prompt missing identity conditioning")


def test_extracurricular_appends_block(unnamed_resume, pools):
    named = assign_name(unnamed_resume, FW, pools, seed=1)
    (out,) = add_extracurriculars([named], FixedBlockBackend())
    assert out.body == named.body.rstrip("\n") + "\n\n" + FixedBlockBackend.block + "\n"


def test_extracurricular_group_conditioned(unnamed_resume, pools):
    fw, mb = add_extracurriculars([assign_name(unnamed_resume, FW, pools, 1),
                                   assign_name(unnamed_resume, MB, pools, 1)],
                                  GroupKeyedBackend())
    assert fw.body != mb.body
    assert "White female section" in fw.body
    assert "Black male section" in mb.body


def test_extracurricular_requires_group(unnamed_resume):
    with pytest.raises(PerturbError, match="group"):
        add_extracurriculars([unnamed_resume], FixedBlockBackend())


def test_extracurricular_empty_completion_rejected(unnamed_resume, pools):
    class EmptyBackend:
        def complete_batch(self, requests):
            return ["   " for _ in requests]

    named = assign_name(unnamed_resume, FW, pools, seed=1)
    with pytest.raises(PerturbError, match="empty completion"):
        add_extracurriculars([named], EmptyBackend())


def test_extracurricular_audit_log(unnamed_resume, pools):
    named = assign_name(unnamed_resume, FW, pools, seed=1)
    log = []
    add_extracurriculars([named], FixedBlockBackend(), audit_log=log)
    (entry,) = log
    assert entry["resume_id"] == named.id
    assert "You are White, female professional" in entry["prompt"]
    assert named.body in entry["prompt"]
    assert entry["completion"] == FixedBlockBackend.block


def test_augmentation_prompt_states_three_sections():
    prompt = AUGMENTATION_PROMPT.format(race="White", gender="female", resume="BODY")
    assert "add three sections" in prompt
    for header in ("Awards", "Mentorship and Leadership", "Clubs and Organizations"):
        assert header in prompt
    assert prompt.endswith("BODY")


# ---------------------------------------------------------------------------
# specs and plans
# ---------------------------------------------------------------------------

def test_spec_validation():
    PerturbationSpec(id="ok", kind="typo", seed=1)
    with pytest.raises(PerturbError):
        PerturbationSpec(id="", kind="typo", seed=1)
    with pytest.raises(PerturbError):
        PerturbationSpec(id="x", kind="mystery", seed=1)
    with pytest.raises(PerturbError):
        PerturbationSpec(id="x", kind="typo", seed=-1)
    with pytest.raises(PerturbError):
        PerturbationSpec(id="x", kind="typo", seed=2**64)
    with pytest.raises(PerturbError, match="missing params"):
        PerturbationSpec(id="x", kind="between_group_name", seed=1, params={"source": "MW"})


def test_apply_spec_group_mismatch_skips(unnamed_resume, pools):
    named = assign_name(unnamed_resume, FW, pools, seed=1)
    spec = PerturbationSpec(id="sw", kind="between_group_name", seed=1,
                            params={"source": "MW", "target": "MB"})
    assert apply_spec(named, spec, pools) is named


def test_apply_spec_extracurricular_source_filter(pools):
    kaggle = Resume(id="k", profession="Accountant", body="text", source="kaggle")
    named = assign_name(kaggle, FW, pools, seed=1)
    spec = PerturbationSpec(id="ex", kind="extracurricular", seed=1)
    assert apply_spec(named, spec, pools, backend=FixedBlockBackend()) is named
    forced = PerturbationSpec(id="ex", kind="extracurricular", seed=1,
                              params={"all_sources": True})
    out = apply_spec(named, forced, pools, backend=FixedBlockBackend())
    assert out.body.endswith(FixedBlockBackend.block + "\n")


def test_apply_plan_and_round_trip(tmp_path, unnamed_resume, pools):
    specs = [
        PerturbationSpec(id="n1", kind="assign_name", seed=11, params={"group": "MW"}),
        PerturbationSpec(id="t1", kind="typo", seed=12, params={"count": 3}),
        PerturbationSpec(id="s1", kind="spacing", seed=13),
    ]
    path = tmp_path / "plan.json"
    save_plan(specs, path)
    loaded = load_plan(path)
    assert loaded == specs

    out = apply_plan([unnamed_resume], loaded, pools)
    (resume,) = out
    assert [parse_lineage_entry(e)[0] for e in resume.lineage] == ["n1", "t1", "s1"]
    assert "\n" not in resume.body


def test_plan_rejects_bad_schema(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text('{"specs": []}')
    with pytest.raises(PerturbError, match="schema_version"):
        load_plan(path)


def test_lineage_entry_round_trip():
    entry = lineage_entry("spec9", first="Kaylee", prev="Brett")
    spec_id, details = parse_lineage_entry(entry)
    assert spec_id == "spec9"
    assert details == {"first": "Kaylee", "prev": "Brett"}


def test_perturbations_deterministic_under_fixed_inputs(unnamed_resume, pools):
    named = assign_name(unnamed_resume, MW, pools, seed=42)
    for op in (
        lambda r: between_group_swap(r, FW, pools, seed=7),
        lambda r: within_group_swap(r, pools, seed=7),
        lambda r: typo_perturb(r, seed=7, count=4),
        lambda r: spacing_perturb(r),
    ):
        assert op(named) == op(named)


#: sha256 of the fixture corpus's variants, draws 0-2, under a rank frequency
#: table, by swap matching. Criterion 8 covers the bundled pools and
#: frequency-binned matching only.
RANK_TABLE_VARIANTS_SHA256 = {
    "frequency_binned": "c7299b0bf2c1ea39d7461b41b4d0f09f88714157e443c0a023a506f5f9eb7949",
    "random": "44d79ea0bb44abe8c2ec32746990f3e10109510dae8bdb46be3a4350a26cd025",
}


@pytest.mark.parametrize("matching", sorted(RANK_TABLE_VARIANTS_SHA256))
def test_variants_under_a_rank_table_are_pinned(fixtures_dir, pools, matching):
    config = dataclasses.replace(load_run_config(fixtures_dir / "mock_run.json"),
                                 swap_matching=matching)
    resumes, _ = load_corpus(config.corpus_path)
    table = {code: {name: rank + 1 for rank, name in enumerate(pool.names)}
             for code, pool in pools.items()}
    ranked = load_name_pools(frequency_overrides=table)
    digest = hashlib.sha256()
    for draw in range(3):
        variants = build_variants(resumes, ranked, config, draw)
        for vid, variant in sorted(variants.resumes.items()):
            for rid, resume in sorted(variant.items()):
                digest.update(json.dumps([vid, rid, resume.body, list(resume.lineage),
                                          resume.group and resume.group.code]).encode())
    assert digest.hexdigest() == RANK_TABLE_VARIANTS_SHA256[matching]
