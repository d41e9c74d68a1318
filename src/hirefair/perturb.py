"""Controlled resume perturbations with recorded lineage.

Five perturbation families: name assignment, between-group and within-group
name swaps, keyboard typos, and newline/spacing changes, plus LLM-generated
extracurricular augmentation. Every operation is a deterministic function of
(input resume, spec parameters, seed); per-resume randomness is derived from
the seed and the resume id, so applying a plan is independent of corpus order.

Lineage entries have the form ``<spec_id>#key=value;key=value`` and record
enough detail (e.g. the old and new first name) to invert a name swap.
"""

from __future__ import annotations

import json
import logging
import random
import re
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Mapping, Sequence

from hirefair.backends import CompletionRequest
from hirefair.corpus import (
    GROUP_CODES,
    DemographicGroup,
    NamePool,
    Resume,
    overlapping_names,
)
from hirefair.records import from_row, read_json, to_row

logger = logging.getLogger(__name__)


class _OneOf(tuple):
    """The check that a param is one of these strings."""

    def __call__(self, value) -> bool:
        return isinstance(value, str) and value in self


_GROUP = _OneOf(GROUP_CODES)

#: Parameters each kind accepts, with a check of each value.
_PARAMS = {
    "assign_name": {"group": _GROUP},
    "between_group_name": {"source": _GROUP, "target": _GROUP,
                           "matching": _OneOf(("frequency_binned", "random"))},
    "within_group_name": {},
    "typo": {"count": lambda v: type(v) is int and v >= 0},
    "spacing": {"mode": _OneOf(("collapse", "per_newline"))},
    "extracurricular": {"all_sources": lambda v: type(v) is bool},
}

KINDS = tuple(_PARAMS)

_REQUIRED_PARAMS = {"assign_name": ("group",), "between_group_name": ("source", "target")}

LAST_NAME = "Williams"
NAME_PLACEHOLDER = "{{NAME}}"
PLAN_SCHEMA_VERSION = 1

#: Prompt used for identity-conditioned extracurricular augmentation.
AUGMENTATION_PROMPT = (
    "You are {race}, {gender} professional. Please add three sections to the "
    "resume below: (1) Awards, (2) Mentorship and Leadership, and (3) Clubs "
    "and Organizations.\n"
    "- These additional sections should be reflective of your identity and "
    "background.\n"
    "- For each of these sections, output them so that they can be directly "
    "added to the resume (i.e., formatted with section headers and bullet "
    "points).\n"
    "- Use the exact same section header format (i.e., punctuation, "
    "capitalization) present in the resume.\n"
    "- Do not output any introductory or explanatory text. Only output these "
    "additional sections.\n"
    "\n"
    "{resume}"
)

_QWERTY_PATH = Path(__file__).parent / "data" / "qwerty_neighbors.json"


class PerturbError(Exception):
    """Raised when a perturbation cannot be applied."""


def _check_param(kind: str, key: str, value, error: type[Exception] = PerturbError,
                 name: str = "") -> None:
    """Raise ``error``, naming ``name`` (else ``key``) and ``value``, unless
    ``_PARAMS`` allows ``value`` as the ``key`` param of a ``kind`` spec."""
    if not _PARAMS[kind][key](value):
        raise error(f"invalid {name or key} {value!r}")


@dataclass(frozen=True)
class PerturbationSpec:
    """Declarative description of one transformation over a resume set."""

    id: str
    kind: str
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.id:
            raise PerturbError("spec id must be non-empty")
        if self.kind not in KINDS:
            raise PerturbError(f"unknown perturbation kind {self.kind!r}")
        if not 0 <= self.seed < 2**64:
            raise PerturbError(f"spec {self.id!r}: seed must be a 64-bit unsigned "
                               f"integer, got {self.seed!r}")
        missing = [p for p in _REQUIRED_PARAMS.get(self.kind, ()) if p not in self.params]
        if missing:
            raise PerturbError(f"spec {self.id!r} ({self.kind}) missing params: {missing}")
        checks = _PARAMS[self.kind]
        for key, value in self.params.items():
            if key not in checks:
                raise PerturbError(f"spec {self.id!r} ({self.kind}): unknown param {key!r}")
            if not checks[key](value):
                raise PerturbError(f"spec {self.id!r} ({self.kind}): invalid {key} {value!r}")


def _rng(seed: int, kind: str, resume_id: str) -> random.Random:
    # string seeding hashes via sha512: stable across processes and runs
    return random.Random(f"{seed}:{kind}:{resume_id}")


def lineage_entry(spec_id: str, **details) -> str:
    if not details:
        return spec_id
    body = ";".join(f"{k}={v}" for k, v in details.items())
    return f"{spec_id}#{body}"


def parse_lineage_entry(entry: str) -> tuple[str, dict[str, str]]:
    spec_id, _, detail = entry.partition("#")
    parsed = {}
    if detail:
        for item in detail.split(";"):
            k, _, v = item.partition("=")
            parsed[k] = v
    return spec_id, parsed


def assigned_first_name(resume: Resume) -> str | None:
    """Current first name, recovered from lineage or the body header."""
    for entry in reversed(resume.lineage):
        _, details = parse_lineage_entry(entry)
        if "first" in details:
            return details["first"]
    match = re.search(rf"\b([A-Za-z]+)\s+{LAST_NAME}\b", resume.body)
    return match.group(1) if match else None


# ---------------------------------------------------------------------------
# name perturbations
# ---------------------------------------------------------------------------

def assign_name(resume: Resume, group: DemographicGroup,
                pools: Mapping[str, NamePool], seed: int,
                spec_id: str = "assign_name") -> Resume:
    """Give an unnamed resume a first name drawn uniformly from the group's pool.

    The full name goes on a header line prepended to the body, or replaces a
    single ``{{NAME}}`` placeholder if the body carries one. Draws are with
    replacement across resumes.
    """
    if resume.group is not None:
        raise PerturbError(f"resume {resume.id} already named (group {resume.group.code})")
    pool = pools[group.code]
    rng = _rng(seed, "assign_name", resume.id)
    first = rng.choice(pool.names)
    full = f"{first} {LAST_NAME}"
    placeholders = resume.body.count(NAME_PLACEHOLDER)
    if placeholders > 1:
        raise PerturbError(f"resume {resume.id}: multiple {NAME_PLACEHOLDER} placeholders")
    if placeholders == 1:
        body = resume.body.replace(NAME_PLACEHOLDER, full)
    else:
        body = f"{full}\n{resume.body}"
    return resume.with_body(
        body, group=group,
        lineage_entry=lineage_entry(spec_id, first=first, group=group.code),
    )


def _replace_name(body: str, old: str, new: str) -> str:
    # whole-word replacement so substrings inside other tokens survive
    return re.sub(rf"\b{re.escape(old)}\b", new, body)


def _swap(resume: Resume, target: DemographicGroup | None, pools: Mapping[str, NamePool],
          seed: int, kind: str, spec_id: str, matching: str, exclude: frozenset[str],
          details: dict) -> Resume:
    """Replace every whole-word occurrence of the resume's first name with a
    name of ``target``'s pool, drawn by ``_rng(seed, kind, resume.id)`` among
    the names other than the old one and those in ``exclude``. With
    frequency_binned matching the draw is from the target-pool bin matching
    the old name's bin in its own pool, or from the nearest bin holding a
    candidate (recorded as ``bin_fallback``); with random matching it is from
    the whole pool. The lineage entry records the new and old names, then
    ``details``."""
    if resume.group is None:
        raise PerturbError(f"resume {resume.id} is unnamed; assign a name first")
    old = assigned_first_name(resume)
    if old is None:
        raise PerturbError(f"resume {resume.id}: cannot determine current first name")
    want, bins = 0, dict.fromkeys(pools[target.code].names, 0)  # random: one bin
    if matching == "frequency_binned":
        want, bins = pools[resume.group.code].bins.get(old), pools[target.code].bins
        if want is None:
            raise PerturbError(
                f"resume {resume.id}: first name {old!r} not in pool {resume.group.code}"
            )
    by_bin: dict[int, list[str]] = {}
    for name, b in bins.items():
        if name != old and name not in exclude:
            by_bin.setdefault(b, []).append(name)
    if not by_bin:
        raise PerturbError(f"pool {target.code}: no candidate names available")
    got = min(by_bin, key=lambda b: (abs(b - want), b))
    new = _rng(seed, kind, resume.id).choice(sorted(by_bin[got]))
    fallback = {"bin_fallback": got} if got != want else {}
    return resume.with_body(
        _replace_name(resume.body, old, new), group=target,
        lineage_entry=lineage_entry(spec_id, first=new, prev=old, **details, **fallback),
    )


def between_group_swap(resume: Resume, target: DemographicGroup,
                       pools: Mapping[str, NamePool], seed: int,
                       matching: str = "frequency_binned",
                       spec_id: str = "between_group_name",
                       shared_names: frozenset[str] | None = None) -> Resume:
    """Swap the first name into the target group's pool.

    All whole-word occurrences of the old first name are replaced; nothing
    else in the body changes. Names that appear in more than one pool are
    never chosen as targets, keeping the new group label unambiguous;
    ``shared_names`` is ``overlapping_names(pools)`` when the caller already
    has it. With frequency_binned matching the replacement comes from the
    target-pool quartile bin matching the old name's bin in its own pool.
    """
    if resume.group == target:
        raise PerturbError(f"resume {resume.id}: target group equals current group")
    _check_param("between_group_name", "matching", matching)
    if shared_names is None:
        shared_names = overlapping_names(pools)
    source = resume.group.code if resume.group else None  # _swap refuses an unnamed resume
    return _swap(resume, target, pools, seed, "between_group_name", spec_id, matching,
                 shared_names, {"matching": matching, "source": source, "target": target.code})


def within_group_swap(resume: Resume, pools: Mapping[str, NamePool], seed: int,
                      spec_id: str = "within_group_name") -> Resume:
    """Swap the first name for a different same-group name in the same
    frequency bin; falls back to the nearest bin (recorded in lineage) when
    the bin holds no other name. Names shared with another pool may be
    drawn."""
    return _swap(resume, resume.group, pools, seed, "within_group_name", spec_id,
                 "frequency_binned", frozenset(), {})


# ---------------------------------------------------------------------------
# non-name perturbations
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def qwerty_neighbors() -> dict[str, list[str]]:
    """Same-row horizontal neighbor map for lowercase letters."""
    doc = json.loads(_QWERTY_PATH.read_text())
    return {k: list(v) for k, v in doc["neighbors"].items()}


def typo_perturb(resume: Resume, seed: int, count: int = 10,
                 spec_id: str = "typo") -> Resume:
    """Replace ``count`` distinct letters with horizontally adjacent keys.

    Positions are chosen uniformly among alphabetic characters; replacements
    preserve case; body length never changes. Digits and punctuation are
    never touched.
    """
    _check_param("typo", "count", count)
    neighbors = qwerty_neighbors()
    eligible = [i for i, ch in enumerate(resume.body) if ch.lower() in neighbors]
    if len(eligible) < count:
        raise PerturbError(
            f"resume {resume.id}: only {len(eligible)} eligible positions, need {count}"
        )
    rng = _rng(seed, "typo", resume.id)
    positions = sorted(rng.sample(eligible, count))
    chars = list(resume.body)
    for pos in positions:
        ch = chars[pos]
        repl = rng.choice(neighbors[ch.lower()])
        chars[pos] = repl.upper() if ch.isupper() else repl
    return resume.with_body(
        "".join(chars), lineage_entry=lineage_entry(spec_id, count=count),
    )


def spacing_perturb(resume: Resume, mode: str = "collapse",
                    spec_id: str = "spacing") -> Resume:
    """Replace newlines with spaces.

    Default mode collapses each maximal newline run (LF, CRLF, CR, mixed)
    into one space; per_newline maps each newline (CRLF counted once) to its
    own space.
    """
    _check_param("spacing", "mode", mode)
    body = re.sub(r"[\r\n]+" if mode == "collapse" else r"\r\n|\r|\n", " ", resume.body)
    return resume.with_body(body, lineage_entry=lineage_entry(spec_id, mode=mode))


def add_extracurriculars(resumes: Sequence[Resume], backend,
                         audit_log: list | None = None,
                         spec_id: str = "extracurricular") -> list[Resume]:
    """Append identity-conditioned extracurricular sections to each resume,
    written by a completion backend in one batch once every resume's group
    label was checked. Each raw prompt and completion is recorded in
    ``audit_log``, in order."""
    unnamed = [resume.id for resume in resumes if resume.group is None]
    if unnamed:
        raise PerturbError(f"resume {unnamed[0]}: extracurricular augmentation needs a group label")
    prompts = [AUGMENTATION_PROMPT.format(race=r.group.race, gender=r.group.gender,
                                          resume=r.body) for r in resumes]
    completions = list(backend.complete_batch([CompletionRequest(prompt=p) for p in prompts]))
    out = []
    for resume, prompt, completion in zip(resumes, prompts, completions):
        if not completion or not completion.strip():
            raise PerturbError(f"resume {resume.id}: backend returned empty completion")
        if audit_log is not None:
            audit_log.append({"resume_id": resume.id, "spec_id": spec_id,
                              "group": resume.group.code, "prompt": prompt,
                              "completion": completion})
        body = resume.body.rstrip("\n") + "\n\n" + completion.strip() + "\n"
        out.append(resume.with_body(
            body, lineage_entry=lineage_entry(spec_id, group=resume.group.code)))
    return out


# ---------------------------------------------------------------------------
# plan application
# ---------------------------------------------------------------------------

def apply_spec(resume: Resume, spec: PerturbationSpec,
               pools: Mapping[str, NamePool] | None = None,
               backend=None, audit_log: list | None = None) -> Resume:
    """Apply one spec to one resume: ``apply_plan`` with a plan of one. The
    resume comes back unchanged when the spec does not target it (wrong
    source group / non-generated source)."""
    return apply_plan([resume], [spec], pools, backend, audit_log)[0]


def apply_plan(resumes: Sequence[Resume], specs: Sequence[PerturbationSpec],
               pools: Mapping[str, NamePool] | None = None,
               backend=None, audit_log: list | None = None) -> list[Resume]:
    """Apply an ordered list of specs to every resume. Resumes are
    independent, so each spec is applied in turn to the whole list. An
    extracurricular spec augments the resumes it targets (generated ones, or
    all with `all_sources`) with one complete_batch call, with up to the
    backend's `parallelism` requests in flight, and appends their
    ``audit_log`` rows in resume order."""
    shared_names = overlapping_names(pools) if pools is not None else None

    def apply(resume: Resume, spec: PerturbationSpec) -> Resume:
        kind, params = spec.kind, spec.params
        if kind == "assign_name":
            group = DemographicGroup.from_code(params["group"])
            return assign_name(resume, group, pools, spec.seed, spec_id=spec.id)
        if kind == "between_group_name":
            if resume.group is None or resume.group.code != params["source"]:
                logger.debug("spec %s skips resume %s (group mismatch)", spec.id, resume.id)
                return resume
            target = DemographicGroup.from_code(params["target"])
            return between_group_swap(
                resume, target, pools, spec.seed,
                matching=params.get("matching", "frequency_binned"), spec_id=spec.id,
                shared_names=shared_names,
            )
        if kind == "within_group_name":
            return within_group_swap(resume, pools, spec.seed, spec_id=spec.id)
        if kind == "typo":
            return typo_perturb(resume, spec.seed, spec_id=spec.id, **params)
        return spacing_perturb(resume, spec_id=spec.id, **params)

    out = list(resumes)
    for spec in specs:
        if spec.kind != "extracurricular":
            out = [apply(resume, spec) for resume in out]
            continue
        if backend is None:
            raise PerturbError(f"spec {spec.id!r}: extracurricular augmentation needs "
                               "a completion backend")
        targets = [i for i, resume in enumerate(out)
                   if resume.source == "generated" or spec.params.get("all_sources", False)]
        for i, resume in zip(targets, add_extracurriculars(
                [out[i] for i in targets], backend, audit_log, spec.id)):
            out[i] = resume
    return out


def load_plan(path) -> list[PerturbationSpec]:
    """Read a plan file; a file that is not a valid plan is a PerturbError."""
    doc = read_json(path, PerturbError, "plan")
    if not isinstance(doc, dict) or doc.get("schema_version") != PLAN_SCHEMA_VERSION:
        raise PerturbError("plan file missing or unsupported schema_version")
    if not isinstance(doc.get("specs"), list):
        raise PerturbError(f"plan {path} must list its specs")
    return [from_row(PerturbationSpec, spec, PerturbError, f"plan {path} spec {i}")
            for i, spec in enumerate(doc["specs"], start=1)]


def save_plan(specs: Sequence[PerturbationSpec], path) -> None:
    doc = {"schema_version": PLAN_SCHEMA_VERSION, "specs": [to_row(s) for s in specs]}
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
