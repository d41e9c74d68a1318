"""Run configuration: corpus paths, backend blocks, experimental grid, and
statistical settings, loadable from JSON with CLI flag overrides.

The "replication" preset pins the published experimental grid (temperatures
{0.0, 0.3}, lengths {100, 200}, first/third person, 5 runs) and alpha = 0.05;
attempts to override those fields under the preset are configuration errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from hirefair.backends import BackendConfig, BackendError, RetryPolicy

CONFIG_SCHEMA_VERSION = 1

ALLOWED_TEMPERATURES = (0.0, 0.3)
ALLOWED_LENGTHS = (100, 200)
ALLOWED_POVS = ("first", "third")
MAX_RUNS = 5


class ConfigError(Exception):
    """Raised for invalid run configuration."""


@dataclass(frozen=True)
class GridConfig:
    n_values: tuple[int, ...] = (5, 10, 100)
    x_values: tuple[float, ...] = (5.0, 10.0)
    temperatures: tuple[float, ...] = ALLOWED_TEMPERATURES
    lengths: tuple[int, ...] = ALLOWED_LENGTHS
    povs: tuple[str, ...] = ALLOWED_POVS
    runs: int = MAX_RUNS
    draws: int = 1

    def __post_init__(self):
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


#: Grid pinned by the replication preset.
REPLICATION_GRID = GridConfig()


@dataclass(frozen=True)
class RunConfig:
    corpus_path: str
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
    occupation_aliases: dict = field(default_factory=dict)
    frequency_table_path: str = ""

    def __post_init__(self):
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
        """Config as manifest content. Excludes out_dir so reruns into a
        different directory produce identical manifests and reports."""
        return {
            "schema_version": CONFIG_SCHEMA_VERSION,
            "corpus_path": str(self.corpus_path),
            "backends": [
                {"id": b.id, "kind": b.kind, "protocol": b.protocol,
                 "model_name": b.model_name, "endpoint": b.endpoint,
                 "params": b.params}
                for b in sorted(self.backends, key=lambda b: b.id)
            ],
            "grid": {
                "n_values": list(self.grid.n_values),
                "x_values": list(self.grid.x_values),
                "temperatures": list(self.grid.temperatures),
                "lengths": list(self.grid.lengths),
                "povs": list(self.grid.povs),
                "runs": self.grid.runs,
                "draws": self.grid.draws,
            },
            "correction": self.correction,
            "alpha": self.alpha,
            "master_seed": self.master_seed,
            "typo_count": self.typo_count,
            "spacing_mode": self.spacing_mode,
            "swap_matching": self.swap_matching,
            "extracurricular": self.extracurricular,
            "pair_runs": self.pair_runs,
            "regard_endpoint": self.regard_endpoint,
            "occupation_aliases": self.occupation_aliases,
            "frequency_table_path": str(self.frequency_table_path),
        }


_PINNED_BY_REPLICATION = ("temperatures", "lengths", "povs", "runs")

_GRID_KEYS = ("n_values", "x_values", "temperatures", "lengths", "povs", "runs",
              "draws")

_TOP_LEVEL_KEYS = ("schema_version", "preset", "corpus", "out_dir", "backends",
                   "grid", "correction", "alpha", "master_seed", "typo_count",
                   "spacing_mode", "swap_matching", "extracurricular",
                   "pair_runs", "regard_endpoint", "regard_credential_env",
                   "occupation_aliases", "frequency_table")

_BACKEND_KEYS = tuple(f.name for f in fields(BackendConfig))

_RETRY_KEYS = ("max", "base_delay_ms")


def _reject_unknown(raw: dict, known: tuple[str, ...], where: str) -> None:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} block must be a JSON object, got {raw!r:.80}")
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}")


def _convert(kind, key: str, value):
    """kind(value) for config field `key`; a value it cannot take is a ConfigError."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}") from exc


def backend_from_dict(raw: dict) -> BackendConfig:
    """A backend block as a BackendConfig; any fault in it is a ConfigError."""
    _reject_unknown(raw, _BACKEND_KEYS, "backend")
    retry = raw.get("retry", {})
    _reject_unknown(retry, _RETRY_KEYS, "retry")
    try:
        return BackendConfig(
            id=raw["id"], kind=raw["kind"], protocol=raw["protocol"],
            model_name=raw.get("model_name", ""),
            endpoint=raw.get("endpoint", ""),
            credential_env=raw.get("credential_env", ""),
            parallelism=int(raw.get("parallelism", 8)),
            retry=RetryPolicy(max_attempts=int(retry.get("max", 3)),
                              base_delay_ms=int(retry.get("base_delay_ms", 250))),
            max_chars=None if raw.get("max_chars") is None else int(raw["max_chars"]),
            params=dict(raw.get("params", {})),
        )
    except (BackendError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid backend block: {exc}") from exc


def _grid_list(key: str, value) -> tuple:
    """A grid list as a tuple, unconverted: strings for povs, numbers (not
    booleans) for the others; anything else is a ConfigError."""
    kind, noun = (str, "strings") if key == "povs" else ((int, float), "numbers")
    if not isinstance(value, (list, tuple)) or any(
            isinstance(v, bool) or not isinstance(v, kind) for v in value):
        raise ConfigError(f"grid.{key} must be a list of {noun}, got {value!r}")
    return tuple(value)


def _grid_from_dict(raw: dict, preset: str | None) -> GridConfig:
    _reject_unknown(raw, _GRID_KEYS, "grid")
    if preset == "replication":
        for key in _PINNED_BY_REPLICATION:
            if key in raw:
                raise ConfigError(
                    f"replication preset pins grid.{key}; remove the override"
                )
        base = REPLICATION_GRID
    else:
        base = GridConfig()
    updates = {}
    for key in ("n_values", "x_values", "temperatures", "lengths", "povs"):
        if key in raw:
            updates[key] = _grid_list(key, raw[key])
    for key in ("runs", "draws"):
        if key in raw:
            updates[key] = _convert(int, key, raw[key])
    return replace(base, **updates) if updates else base


def load_run_config(path, **overrides) -> RunConfig:
    """Load a JSON run config; keyword overrides win over file values."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if raw.get("schema_version") != CONFIG_SCHEMA_VERSION:
        raise ConfigError("config missing or unsupported schema_version")
    _reject_unknown(raw, _TOP_LEVEL_KEYS, "top-level")
    preset = raw.get("preset")
    if preset not in (None, "replication"):
        raise ConfigError(f"unknown preset {preset!r}")

    def pick(key, default):
        if key in overrides and overrides[key] is not None:
            return overrides[key]
        return raw.get(key, default)

    alpha = _convert(float, "alpha", pick("alpha", 0.05))
    if preset == "replication" and alpha != 0.05:
        raise ConfigError("replication preset pins alpha=0.05")

    backends = tuple(backend_from_dict(b) for b in raw.get("backends", []))

    grid_raw = dict(raw.get("grid", {}))
    for key in ("n_values", "x_values", "draws"):
        if key in overrides and overrides[key] is not None:
            grid_raw[key] = overrides[key]

    base_dir = path.parent

    def resolve(p):
        p = Path(p)
        return str(p if p.is_absolute() else base_dir / p)

    corpus = pick("corpus", None)
    if corpus is None:
        raise ConfigError("config must name a corpus file")
    if overrides.get("out_dir") is not None:
        out_dir = str(Path(overrides["out_dir"]).absolute())  # CLI paths are cwd-relative
    elif raw.get("out_dir") is not None:
        out_dir = resolve(raw["out_dir"])
    else:
        raise ConfigError("config must name an output directory")
    freq_table = pick("frequency_table", "")
    extracurricular = pick("extracurricular", False)
    if not isinstance(extracurricular, bool):
        raise ConfigError(f"extracurricular must be true or false, got {extracurricular!r}")
    return RunConfig(
        corpus_path=resolve(corpus),
        out_dir=out_dir,
        backends=backends,
        grid=_grid_from_dict(grid_raw, preset),
        correction=pick("correction", "bh"),
        alpha=alpha,
        master_seed=_convert(int, "master_seed", pick("master_seed", 0)),
        typo_count=_convert(int, "typo_count", pick("typo_count", 10)),
        spacing_mode=pick("spacing_mode", "collapse"),
        swap_matching=pick("swap_matching", "frequency_binned"),
        extracurricular=extracurricular,
        pair_runs=pick("pair_runs", "average"),
        regard_endpoint=pick("regard_endpoint", ""),
        regard_credential_env=pick("regard_credential_env", ""),
        occupation_aliases=dict(raw.get("occupation_aliases", {})),
        frequency_table_path=resolve(freq_table) if freq_table else "",
    )
