"""Resume / job-post corpus loading, validation, and persistence.

Corpora are line-delimited JSON: one record per line, each carrying a
``schema_version`` and a ``kind`` of ``"resume"`` or ``"job"``. Loading is
deterministic and order-preserving; loaded corpora are immutable snapshots.

Name pools (the four demographic first-name sets plus per-name frequency
counts) ship as a checksummed static asset. The bundled frequency column is
all zeros; supply your own table via ``frequency_overrides`` to enable
frequency-binned name matching.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

from hirefair.records import (encode_line, from_row, read_json, read_jsonl, to_row,
                              write_jsonl)

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

#: Reserved key under which pair_jobs groups resumes with no matching occupation.
UNMATCHED = "unmatched"

GROUP_CODES = ("FB", "FW", "MB", "MW")

RESUME_SOURCES = ("generated", "kaggle", "user")

#: sha256 of the bundled name-pool asset, verified on load.
NAME_POOL_SHA256 = "698e781308152a3ebbb429afcf0a840824d7122cba8cd752304a52bb83b352c9"

_DATA_DIR = Path(__file__).parent / "data"

#: Profession labels used by the bundled synthetic-resume conventions.
GENERATED_PROFESSIONS = (
    "Account Executive", "Accountant", "Administrative Assistant",
    "Back-End Developer", "Data Analyst", "Data Engineer", "Data Scientist",
    "Firmware Engineer", "Front-End Developer", "Graphic Designer",
    "Hardware Engineer", "Legal Counsel", "Marketing Manager",
    "Mobile Developer", "PR Specialist", "Product Manager",
    "Quality Assurance Engineer", "Recruiter", "Research Scientist",
    "Supply Chain Manager", "Technical Writer", "UX Designer",
)

#: Field labels used by web-scraped resume datasets.
KAGGLE_FIELDS = (
    "Accountant", "Advocate", "Agriculture", "Apparel", "Arts", "Automobile",
    "Aviation", "Banking", "BPO", "Business Development", "Chef",
    "Construction", "Consultant", "Designer", "Digital Media", "Engineering",
    "Finance", "Fitness", "Healthcare", "HR", "Information Technology",
    "Public Relations", "Sales", "Teacher",
)

KNOWN_PROFESSIONS = frozenset(GENERATED_PROFESSIONS) | frozenset(KAGGLE_FIELDS)

#: Default profession -> job-post occupation aliases. User-overridable.
DEFAULT_OCCUPATION_ALIASES = {
    "Information Technology": "IT",
}


class CorpusError(Exception):
    """Raised for malformed corpus files or violated corpus invariants."""


@dataclass(frozen=True)
class DemographicGroup:
    """One of the four gender x race demographic groups."""

    gender: str  # "female" | "male"
    race: str    # "Black" | "White"

    def __post_init__(self):
        if self.gender not in ("female", "male"):
            raise ValueError(f"invalid gender: {self.gender!r}")
        if self.race not in ("Black", "White"):
            raise ValueError(f"invalid race: {self.race!r}")

    @property
    def code(self) -> str:
        """Two-letter code: FB, FW, MB, or MW."""
        return self.gender[0].upper() + self.race[0]

    @classmethod
    def from_code(cls, code: str) -> "DemographicGroup":
        if code not in GROUP_CODES:
            raise ValueError(f"invalid group code: {code!r}")
        gender = "female" if code[0] == "F" else "male"
        race = "Black" if code[1] == "B" else "White"
        return cls(gender=gender, race=race)


@dataclass(frozen=True)
class Resume:
    """One candidate document plus demographic label and perturbation lineage."""

    id: str
    profession: str
    body: str
    group: DemographicGroup | None = None
    lineage: tuple[str, ...] = ()
    source: str = "user"

    def __post_init__(self):
        if not self.id:
            raise ValueError("resume id must be non-empty")
        if self.source not in RESUME_SOURCES:
            raise ValueError(f"invalid resume source: {self.source!r}")
        object.__setattr__(self, "lineage", tuple(self.lineage))

    def with_body(self, body: str, *, group: DemographicGroup | None = None,
                  lineage_entry: str | None = None) -> "Resume":
        """Copy with a new body, optionally updating group and appending lineage."""
        lineage = self.lineage + (lineage_entry,) if lineage_entry else self.lineage
        return replace(self, body=body,
                       group=group if group is not None else self.group,
                       lineage=lineage)


@dataclass(frozen=True)
class JobPost:
    """One query document tagged with an occupation."""

    id: str
    occupation: str
    body: str

    def __post_init__(self):
        if not self.id:
            raise ValueError("job id must be non-empty")
        if not self.occupation:
            raise ValueError(f"job {self.id}: occupation must be non-empty")


@dataclass(frozen=True)
class NamePool:
    """First-name pool for one demographic group with corpus frequency counts.

    The bundled asset carries exactly 100 names per group; ad-hoc pools
    (fixtures, user-supplied) may be smaller but need at least two names.
    ``bins`` maps each name to its frequency quartile bin: the number of
    upper-value quartile boundaries of the pool's frequencies strictly below
    the name's frequency, so a pool with one distinct frequency has one bin.
    """

    group: DemographicGroup
    names: tuple[str, ...]
    frequencies: dict[str, int] = field(default_factory=dict)
    bins: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if len(names) < 2:
            raise ValueError("name pool needs at least two names")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate names in pool {self.group.code}")
        freqs = {n: int(self.frequencies.get(n, 0)) for n in names}
        for name, f in freqs.items():
            if f < 0:
                raise ValueError(f"negative frequency for {name!r}")
        object.__setattr__(self, "frequencies", freqs)
        # the quartiles of np.percentile(method="higher"): the sorted counts
        # at ceil(q * (n - 1)), exact in integers
        counts = sorted(freqs.values())
        boundaries = [counts[-(-q * (len(counts) - 1) // 4)] for q in (1, 2, 3)]
        object.__setattr__(self, "bins", {
            name: sum(b < f for b in boundaries) for name, f in freqs.items()
        })


def _record(item: Resume | JobPost) -> dict:
    """A corpus file row: the item's fields, its kind and the schema version;
    a resume's group as its code, left out when unset."""
    if isinstance(item, JobPost):
        return to_row(item, kind="job", schema_version=SCHEMA_VERSION)
    row = to_row(item, kind="resume", schema_version=SCHEMA_VERSION)
    if item.group is None:
        del row["group"]
    else:
        row["group"] = item.group.code
    return row


def save_corpus(resumes: list[Resume], jobs: list[JobPost], path) -> None:
    """Write a corpus file: resumes first, then jobs, input order preserved."""
    write_jsonl((encode_line(_record(item)) for item in [*resumes, *jobs]), path)


def load_corpus(path) -> tuple[list[Resume], list[JobPost]]:
    """Load a line-delimited corpus file.

    Raises CorpusError with the offending line number for malformed records
    and for duplicate ids. Unknown profession labels log a warning but do
    not fail the load.
    """
    resumes: list[Resume] = []
    jobs: list[JobPost] = []
    seen_ids: dict[str, int] = {}
    for lineno, rec in read_jsonl(path, CorpusError):
        where = f"{path} line {lineno}"
        if rec.get("schema_version") != SCHEMA_VERSION:
            raise CorpusError(f"{where}: missing or unsupported schema_version")
        kind = rec.get("kind")
        if kind not in ("resume", "job"):
            raise CorpusError(f"{where}: unknown record kind {kind!r}")
        given = {}
        if kind == "resume" and rec.get("group") is not None:
            try:
                given["group"] = DemographicGroup.from_code(rec["group"])
            except ValueError as exc:
                raise CorpusError(f"{where}: {exc}") from exc
        item = from_row(Resume if kind == "resume" else JobPost, rec, CorpusError,
                        where, extra=("schema_version", "kind"), **given)
        if item.id in seen_ids:
            raise CorpusError(
                f"{where}: duplicate id {item.id!r} "
                f"(first seen on line {seen_ids[item.id]})"
            )
        seen_ids[item.id] = lineno
        if isinstance(item, Resume):
            if item.profession not in KNOWN_PROFESSIONS:
                logger.warning("%s: unknown profession label %r", where, item.profession)
            resumes.append(item)
        else:
            jobs.append(item)
    return resumes, jobs


def read_frequency_table(path) -> dict[str, dict[str, int]]:
    """A ``{group code: {name: count}}`` JSON file, the ``frequency_overrides``
    of load_name_pools; a file that is not such a table is a CorpusError."""
    table = read_json(path, CorpusError, "frequency table")
    if not isinstance(table, dict):
        raise CorpusError(f"frequency table {path}: expected a JSON object")
    for code, counts in table.items():
        if code not in GROUP_CODES:
            raise CorpusError(f"frequency table {path}: unknown group {code!r}")
        if not isinstance(counts, dict) or not all(
                isinstance(n, int) and not isinstance(n, bool) and n >= 0
                for n in counts.values()):
            raise CorpusError(f"frequency table {path}: group {code} needs "
                              "an object of non-negative integer counts")
    return table


def load_name_pools(path=None, *, frequency_overrides: dict[str, dict[str, int]] | None = None
                    ) -> dict[str, NamePool]:
    """Load name pools keyed by group code.

    With no path, loads the bundled asset and verifies its sha256 against
    the embedded constant. ``frequency_overrides`` maps group code to a
    {name: count} table; names absent from the override keep frequency 0.
    """
    bundled = path is None
    path = Path(path) if path is not None else _DATA_DIR / "name_pools.json"
    raw = path.read_bytes()
    if bundled:
        digest = hashlib.sha256(raw).hexdigest()
        if digest != NAME_POOL_SHA256:
            raise CorpusError(
                f"name pool asset checksum mismatch: {digest} != {NAME_POOL_SHA256}"
            )
    doc = json.loads(raw)
    pools: dict[str, NamePool] = {}
    for entry in doc["pools"]:
        code = entry["group"]
        freqs = dict(entry.get("frequencies", {}))
        if frequency_overrides and code in frequency_overrides:
            freqs.update(frequency_overrides[code])
        pools[code] = NamePool(
            group=DemographicGroup.from_code(code),
            names=tuple(entry["names"]),
            frequencies=freqs,
        )
    if bundled:
        missing = set(GROUP_CODES) - set(pools)
        if missing:
            raise CorpusError(f"bundled asset missing pools: {sorted(missing)}")
        for code, pool in pools.items():
            if len(pool.names) != 100:
                raise CorpusError(f"pool {code}: expected 100 names, got {len(pool.names)}")
    return pools


def overlapping_names(pools: dict[str, NamePool]) -> frozenset[str]:
    """Names appearing in more than one pool (excluded as between-group swap targets)."""
    seen: dict[str, int] = {}
    for pool in pools.values():
        for name in pool.names:
            seen[name] = seen.get(name, 0) + 1
    return frozenset(n for n, count in seen.items() if count > 1)


def pair_jobs(resumes: list[Resume], jobs: list[JobPost],
              aliases: dict[str, str] | None = None,
              ) -> dict[str, tuple[list[Resume], list[JobPost]]]:
    """Group resumes and job posts by occupation.

    ``aliases`` maps resume profession labels to job-post occupation labels
    (defaults cover known naming differences, e.g. "Information Technology"
    -> "IT"). Resumes whose profession matches no job occupation are grouped
    under the reserved "unmatched" key. Total function: never raises.
    """
    alias_table = dict(DEFAULT_OCCUPATION_ALIASES)
    if aliases:
        alias_table.update(aliases)
    groups: dict[str, tuple[list[Resume], list[JobPost]]] = {}
    for job in jobs:
        groups.setdefault(job.occupation, ([], []))[1].append(job)
    for resume in resumes:
        occupation = alias_table.get(resume.profession, resume.profession)
        if occupation in groups:
            groups[occupation][0].append(resume)
        else:
            groups.setdefault(UNMATCHED, ([], []))[0].append(resume)
    return groups


def name_token_pattern(pools: dict[str, NamePool]) -> re.Pattern:
    """Compiled pattern matching any pool name as a whole word (case-sensitive)."""
    names = sorted({n for p in pools.values() for n in p.names}, key=len, reverse=True)
    return re.compile(r"\b(?:" + "|".join(re.escape(n) for n in names) + r")\b")


def validate_corpus(resumes: list[Resume], jobs: list[JobPost],
                    pools: dict[str, NamePool] | None = None,
                    known_spec_ids: set[str] | None = None) -> list[str]:
    """Run the deep corpus invariant checks; returns a list of problems.

    Checks beyond what load_corpus enforces structurally: no resume body is
    blank; unperturbed resumes (empty lineage) must carry no group label and
    contain no first-name token from any pool; lineage entries must reference
    known perturbation spec ids when a manifest is supplied.
    """
    problems: list[str] = []
    pattern = name_token_pattern(pools) if pools else None
    for r in resumes:
        if not r.body.strip():
            problems.append(f"resume {r.id}: empty body")
        if not r.lineage:
            if r.group is not None:
                problems.append(f"resume {r.id}: group set but lineage empty")
            if pattern is not None:
                hit = pattern.search(r.body)
                if hit:
                    problems.append(
                        f"resume {r.id}: unperturbed body contains pool name "
                        f"{hit.group(0)!r}"
                    )
        if known_spec_ids is not None:
            for entry in r.lineage:
                spec_id = entry.split("#", 1)[0]
                if spec_id not in known_spec_ids:
                    problems.append(
                        f"resume {r.id}: lineage references unknown spec {spec_id!r}"
                    )
    return problems
