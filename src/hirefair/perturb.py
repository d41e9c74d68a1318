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
from pathlib import Path
from typing import Mapping, Sequence

from hirefair.corpus import (
    GROUP_CODES,
    DemographicGroup,
    NamePool,
    Resume,
    overlapping_names,
)
from hirefair.records import from_row, read_json, to_row

logger = logging.getLogger(__name__)


def _one_of(*values):
    return lambda v: isinstance(v, str) and v in values


_GROUP = _one_of(*GROUP_CODES)

#: Parameters each kind accepts, with a check of each value.
_PARAMS = {
    "assign_name": {"group": _GROUP},
    "between_group_name": {"source": _GROUP, "target": _GROUP,
                           "matching": _one_of("frequency_binned", "random")},
    "within_group_name": {},
    "typo": {"count": lambda v: type(v) is int and v >= 0},
    "spacing": {"mode": _one_of("collapse", "per_newline")},
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
_qwerty_cache: dict[str, list[str]] | None = None


class PerturbError(Exception):
    """Raised when a perturbation cannot be applied."""


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


def _bin_candidates(pool: NamePool, want_bin: int, exclude: set[str]) -> tuple[list[str], int]:
    """Names of ``want_bin`` minus exclusions, falling back to the nearest bin."""
    by_bin: dict[int, list[str]] = {}
    for name, b in pool.bins.items():
        if name not in exclude:
            by_bin.setdefault(b, []).append(name)
    if not by_bin:
        raise PerturbError(f"pool {pool.group.code}: no candidate names available")
    best = min(by_bin, key=lambda b: (abs(b - want_bin), b))
    return sorted(by_bin[best]), best


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
    if resume.group is None:
        raise PerturbError(f"resume {resume.id} is unnamed; assign a name first")
    if resume.group == target:
        raise PerturbError(f"resume {resume.id}: target group equals current group")
    if matching not in ("random", "frequency_binned"):
        raise PerturbError(f"unknown matching mode {matching!r}")
    old = assigned_first_name(resume)
    if old is None:
        raise PerturbError(f"resume {resume.id}: cannot determine current first name")
    source_pool = pools[resume.group.code]
    target_pool = pools[target.code]
    if shared_names is None:
        shared_names = overlapping_names(pools)
    exclude = set(shared_names) | {old}
    fallback_bin = None
    if matching == "frequency_binned":
        want = source_pool.bins.get(old)
        if want is None:
            raise PerturbError(
                f"resume {resume.id}: first name {old!r} not in pool {resume.group.code}"
            )
        candidates, got = _bin_candidates(target_pool, want, exclude)
        if got != want:
            fallback_bin = got
    else:
        candidates = sorted(n for n in target_pool.names if n not in exclude)
        if not candidates:
            raise PerturbError(f"pool {target.code}: no candidate names available")
    rng = _rng(seed, "between_group_name", resume.id)
    new = rng.choice(candidates)
    details = {"first": new, "prev": old, "matching": matching,
               "source": resume.group.code, "target": target.code}
    if fallback_bin is not None:
        details["bin_fallback"] = fallback_bin
    return resume.with_body(
        _replace_name(resume.body, old, new), group=target,
        lineage_entry=lineage_entry(spec_id, **details),
    )


def within_group_swap(resume: Resume, pools: Mapping[str, NamePool], seed: int,
                      spec_id: str = "within_group_name") -> Resume:
    """Swap the first name for a different same-group name in the same
    frequency bin; falls back to the nearest bin (recorded in lineage) when
    the bin holds no other name."""
    if resume.group is None:
        raise PerturbError(f"resume {resume.id} is unnamed; assign a name first")
    old = assigned_first_name(resume)
    if old is None:
        raise PerturbError(f"resume {resume.id}: cannot determine current first name")
    pool = pools[resume.group.code]
    if old not in pool.bins:
        raise PerturbError(
            f"resume {resume.id}: first name {old!r} not in pool {resume.group.code}"
        )
    want = pool.bins[old]
    candidates, got = _bin_candidates(pool, want, exclude={old})
    rng = _rng(seed, "within_group_name", resume.id)
    new = rng.choice(candidates)
    details = {"first": new, "prev": old}
    if got != want:
        details["bin_fallback"] = got
    return resume.with_body(
        _replace_name(resume.body, old, new),
        lineage_entry=lineage_entry(spec_id, **details),
    )


# ---------------------------------------------------------------------------
# non-name perturbations
# ---------------------------------------------------------------------------

def qwerty_neighbors() -> dict[str, list[str]]:
    """Same-row horizontal neighbor map for lowercase letters."""
    global _qwerty_cache
    if _qwerty_cache is None:
        doc = json.loads(_QWERTY_PATH.read_text())
        _qwerty_cache = {k: list(v) for k, v in doc["neighbors"].items()}
    return _qwerty_cache


def typo_perturb(resume: Resume, seed: int, count: int = 10,
                 spec_id: str = "typo") -> Resume:
    """Replace ``count`` distinct letters with horizontally adjacent keys.

    Positions are chosen uniformly among alphabetic characters; replacements
    preserve case; body length never changes. Digits and punctuation are
    never touched.
    """
    if count < 0:
        raise PerturbError(f"count must be non-negative, got {count}")
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
    if mode == "collapse":
        body = re.sub(r"[\r\n]+", " ", resume.body)
    elif mode == "per_newline":
        body = re.sub(r"\r\n|\r|\n", " ", resume.body)
    else:
        raise PerturbError(f"unknown spacing mode {mode!r}")
    return resume.with_body(body, lineage_entry=lineage_entry(spec_id, mode=mode))


def add_extracurriculars(resume: Resume, backend,
                         audit_log: list | None = None,
                         spec_id: str = "extracurricular") -> Resume:
    """Append identity-conditioned extracurricular sections from a completion
    backend. The raw prompt and completion are recorded in ``audit_log``."""
    if resume.group is None:
        raise PerturbError(
            f"resume {resume.id}: extracurricular augmentation needs a group label"
        )
    prompt = AUGMENTATION_PROMPT.format(
        race=resume.group.race, gender=resume.group.gender, resume=resume.body,
    )
    completion = backend.complete_text(prompt)
    if not completion or not completion.strip():
        raise PerturbError(f"resume {resume.id}: backend returned empty completion")
    if audit_log is not None:
        audit_log.append({
            "resume_id": resume.id,
            "spec_id": spec_id,
            "group": resume.group.code,
            "prompt": prompt,
            "completion": completion,
        })
    body = resume.body.rstrip("\n") + "\n\n" + completion.strip() + "\n"
    return resume.with_body(body, lineage_entry=lineage_entry(spec_id, group=resume.group.code))


# ---------------------------------------------------------------------------
# plan application
# ---------------------------------------------------------------------------

def apply_spec(resume: Resume, spec: PerturbationSpec,
               pools: Mapping[str, NamePool] | None = None,
               backend=None, audit_log: list | None = None,
               shared_names: frozenset[str] | None = None) -> Resume:
    """Apply one spec to one resume; returns the resume unchanged when the
    spec does not target it (wrong source group / non-generated source).
    ``shared_names`` is passed on to between_group_swap."""
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
        return typo_perturb(resume, spec.seed, count=params.get("count", 10),
                            spec_id=spec.id)
    if kind == "spacing":
        return spacing_perturb(resume, mode=params.get("mode", "collapse"),
                               spec_id=spec.id)
    # extracurricular, the one kind that calls a backend
    if backend is None:
        raise PerturbError(f"spec {spec.id!r}: extracurricular augmentation needs "
                           "a completion backend")
    if resume.source != "generated" and not params.get("all_sources", False):
        logger.debug("spec %s skips resume %s (source %s)", spec.id, resume.id, resume.source)
        return resume
    return add_extracurriculars(resume, backend, audit_log=audit_log, spec_id=spec.id)


def apply_plan(resumes: Sequence[Resume], specs: Sequence[PerturbationSpec],
               pools: Mapping[str, NamePool] | None = None,
               backend=None, audit_log: list | None = None) -> list[Resume]:
    """Apply an ordered list of specs to every resume."""
    shared_names = overlapping_names(pools) if pools is not None else None
    out = []
    for resume in resumes:
        for spec in specs:
            resume = apply_spec(resume, spec, pools=pools, backend=backend,
                                audit_log=audit_log, shared_names=shared_names)
        out.append(resume)
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
