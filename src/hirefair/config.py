"""Run configuration: corpus paths, backend blocks, experimental grid, and
statistical settings, loadable from JSON with CLI flag overrides.

The "replication" preset pins the published experimental grid (temperatures
{0.0, 0.3}, lengths {100, 200}, first/third person, 5 runs) and alpha = 0.05;
attempts to override those fields under the preset are configuration errors.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from hirefair.backends import BackendConfig, BackendError, RetryPolicy
from hirefair.records import check_types, from_row, read_json

CONFIG_SCHEMA_VERSION = 1

ALLOWED_TEMPERATURES = (0.0, 0.3)
ALLOWED_LENGTHS = (100, 200)
ALLOWED_POVS = ("first", "third")
MAX_RUNS = 5


class ConfigError(Exception):
    """Raised for invalid run configuration."""


@dataclass(frozen=True)
class GridConfig:
    """The experimental grid. Its defaults are the published grid, which the
    replication preset pins."""

    n_values: tuple[int, ...] = (5, 10, 100)
    x_values: tuple[float, ...] = (5.0, 10.0)
    temperatures: tuple[float, ...] = ALLOWED_TEMPERATURES
    lengths: tuple[int, ...] = ALLOWED_LENGTHS
    povs: tuple[str, ...] = ALLOWED_POVS
    runs: int = MAX_RUNS
    draws: int = 1

    def __post_init__(self):
        check_types(self, ConfigError)
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise ConfigError(f"n_values must be positive integers: {self.n_values}")
        if not self.x_values or any(not 0 < x <= 100 for x in self.x_values):
            raise ConfigError(f"x_values must lie in (0, 100]: {self.x_values}")
        for t in self.temperatures:
            if t not in ALLOWED_TEMPERATURES:
                raise ConfigError(f"temperature {t} outside supported {ALLOWED_TEMPERATURES}")
        for length in self.lengths:
            if length not in ALLOWED_LENGTHS:
                raise ConfigError(f"length {length} outside supported {ALLOWED_LENGTHS}")
        for pov in self.povs:
            if pov not in ALLOWED_POVS:
                raise ConfigError(f"pov {pov!r} outside supported {ALLOWED_POVS}")
        if not 1 <= self.runs <= MAX_RUNS:
            raise ConfigError(f"runs must be in [1, {MAX_RUNS}], got {self.runs}")
        if self.draws < 1:
            raise ConfigError(f"draws must be >= 1, got {self.draws}")


@dataclass(frozen=True)
class RunConfig:
    """A run's settings. Each field is read from the config file key named by
    its metadata "key", else by its name."""

    corpus_path: str = field(metadata={"key": "corpus"})
    out_dir: str
    backends: tuple[BackendConfig, ...]
    grid: GridConfig = field(default_factory=GridConfig)
    correction: str = "bh"
    alpha: float = 0.05
    master_seed: int = 0
    typo_count: int = 10
    spacing_mode: str = "collapse"
    swap_matching: str = "frequency_binned"
    extracurricular: bool = False
    pair_runs: str = "average"  # "average" | "separate"
    regard_endpoint: str = ""
    regard_credential_env: str = ""
    occupation_aliases: dict[str, str] = field(default_factory=dict)
    frequency_table_path: str = field(default="", metadata={"key": "frequency_table"})

    def __post_init__(self):
        check_types(self, ConfigError)
        if self.correction not in ("bh", "bonferroni"):
            raise ConfigError(f"correction must be bh or bonferroni, got {self.correction!r}")
        if not 0 < self.alpha < 1:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.pair_runs not in ("average", "separate"):
            raise ConfigError(f"pair_runs must be average or separate, got {self.pair_runs!r}")
        if self.spacing_mode not in ("collapse", "per_newline"):
            raise ConfigError(f"spacing_mode must be collapse or per_newline")
        if self.swap_matching not in ("random", "frequency_binned"):
            raise ConfigError(f"swap_matching must be random or frequency_binned")
        if self.typo_count < 0:
            raise ConfigError(f"typo_count must be non-negative, got {self.typo_count}")
        if not self.backends:
            raise ConfigError("at least one backend must be configured")
        ids = [b.id for b in self.backends]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate backend ids: {ids}")
        # report rows are keyed by model name, so two such backends would merge
        models = [(b.kind, b.model_name) for b in self.backends]
        shared = sorted({m for m in models if models.count(m) > 1})
        if shared:
            raise ConfigError("backends of one kind share a model_name: " + ", ".join(
                f"{kind} {name!r}" for kind, name in shared))

    def embedding_backends(self) -> list[BackendConfig]:
        return [b for b in self.backends if b.kind == "embedding"]

    def completion_backends(self) -> list[BackendConfig]:
        return [b for b in self.backends if b.kind == "completion"]

    def canonical_dict(self) -> dict:
        """Config as manifest content: every field but the paths and the
        deployment settings, so a rerun from another directory, into another
        directory or at another width has the same manifest. The manifest
        pins the corpus and frequency table by their sha256 instead."""
        doc = asdict(self, dict_factory=lambda items: {
            name: value for name, value in items if name not in _NOT_IN_MANIFEST})
        doc["backends"] = sorted(doc["backends"], key=lambda b: b["id"])
        return dict(doc, schema_version=CONFIG_SCHEMA_VERSION)


#: RunConfig fields holding paths; a relative path in the file is relative to
#: the file's directory.
_PATHS = ("corpus_path", "frequency_table_path", "out_dir")

#: RunConfig and BackendConfig fields the manifest leaves out: paths, and
#: settings that change how a run is deployed but not what it computes.
_NOT_IN_MANIFEST = _PATHS + ("regard_credential_env", "credential_env",
                             "parallelism", "retry", "max_chars")

_PINNED_BY_REPLICATION = ("temperatures", "lengths", "povs", "runs")


def backend_from_dict(raw) -> BackendConfig:
    """A backend block as a BackendConfig; any fault in it is a ConfigError.
    No block is of kind "regard": regard_endpoint sets the classifier."""
    given = {}
    if isinstance(raw, dict) and "retry" in raw:
        given["retry"] = from_row(RetryPolicy, raw["retry"], ConfigError, "retry")
    try:
        config = from_row(BackendConfig, raw, ConfigError, "backend", **given)
    except BackendError as exc:
        raise ConfigError(f"invalid backend block: {exc}") from exc
    if config.kind == "regard":
        raise ConfigError(f"backend {config.id}: the regard classifier is set by "
                          f"regard_endpoint, not by a backend block")
    return config


def load_run_config(path, **overrides) -> RunConfig:
    """Load a JSON run config; keyword overrides (RunConfig fields, or the
    grid's draws) that are not None win over file values."""
    path = Path(path)
    raw = read_json(path, ConfigError, "config")
    if not isinstance(raw, dict) or raw.get("schema_version") != CONFIG_SCHEMA_VERSION:
        raise ConfigError("config missing or unsupported schema_version")
    preset = raw.get("preset")
    if preset not in (None, "replication"):
        raise ConfigError(f"unknown preset {preset!r}")

    given = {key: value for key, value in overrides.items() if value is not None}
    if "out_dir" in given:  # CLI paths are cwd-relative
        given["out_dir"] = str(Path(given["out_dir"]).absolute())
    grid = raw.get("grid", {})
    if preset == "replication":
        if given.get("alpha", raw.get("alpha", RunConfig.alpha)) != RunConfig.alpha:
            raise ConfigError(f"replication preset pins alpha={RunConfig.alpha}")
        for key in _PINNED_BY_REPLICATION:
            if isinstance(grid, dict) and key in grid:
                raise ConfigError(
                    f"replication preset pins grid.{key}; remove the override")
    draws = {"draws": given.pop("draws")} if "draws" in given else {}
    given["grid"] = from_row(GridConfig, grid, ConfigError, "grid", **draws)
    if isinstance(raw.get("backends"), list):
        given["backends"] = tuple(backend_from_dict(b) for b in raw["backends"])
    config = from_row(RunConfig, raw, ConfigError, "top-level",
                      extra=("schema_version", "preset"), **given)
    return replace(config, **{name: str(path.parent / getattr(config, name))
                              for name in _PATHS if getattr(config, name) and name not in given})
