"""One codec for the JSON artifact files: a record is written as a row of its
dataclass fields and read back from one.

A row's keys are the record's field names, or a field's metadata "key" where
the file spells it differently. Reading checks each value against its field's
annotation as JSON gives it; writing trusts the record. A row becomes a
line with encode_line (encode_compact for the ledger) wherever its caller
makes it, and write_jsonl writes lines so made. `valued` and `raised` carry
a failure of a function mapped on backends.cpu_map's pool back to the
calling thread as a value.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from functools import lru_cache
from pathlib import Path
from types import UnionType
from typing import Callable, Iterable, Iterator, get_args, get_origin, get_type_hints

_type_hints = lru_cache(maxsize=None)(get_type_hints)

_BAD = object()


class RetrievalError(Exception):
    """Raised for invalid retrieval inputs. Defined here rather than in
    hirefair.retrieval, so that the command line maps it to its exit code
    without loading numpy."""


def _as(value, hint):
    """`value` as a `hint` from JSON, or _BAD: a float takes an int and stores
    it as a float, a number takes no bool, and a tuple takes a list."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:
        for arg in args:
            out = _as(value, arg)
            if out is not _BAD:
                return out
        return _BAD
    if origin is tuple:
        if not isinstance(value, (tuple, list)):
            return _BAD
        items = tuple(_as(v, args[0]) for v in value)
        return _BAD if any(v is _BAD for v in items) else items
    if origin is dict:
        if not isinstance(value, dict):
            return _BAD
        items = {_as(k, args[0]): _as(v, args[1]) for k, v in value.items()}
        return _BAD if _BAD in items or any(v is _BAD for v in items.values()) else items
    if hint in (int, float):
        if not isinstance(value, (int, hint)) or isinstance(value, bool):
            return _BAD
        try:
            return float(value) if hint is float else value
        except OverflowError:
            return _BAD
    return value if isinstance(value, hint) else _BAD


@lru_cache(maxsize=None)
def _keys(cls) -> tuple[tuple[str, str], ...]:
    """(file key, field name) of each field of dataclass `cls`."""
    return tuple((f.metadata.get("key", f.name), f.name) for f in fields(cls))


def _typed(cls, name: str, key: str, value, error: type[Exception], where: str = ""):
    """`value` as field `name` of `cls` takes it; else `error` naming its key."""
    hint = _type_hints(cls)[name]
    out = _as(value, hint)
    if out is _BAD:
        name = hint.__name__ if isinstance(hint, type) else hint
        raise error(f"{where}{key} must be {name}, got {value!r:.80}")
    return out


def check_types(record, error: type[Exception]) -> None:
    """Raise `error` unless each field of the dataclass `record` holds a value
    of its annotated type as JSON gives it; store a list as a tuple and a
    float field's int as a float. The message names the field's file key."""
    for key, name in _keys(type(record)):
        value = getattr(record, name)
        out = _typed(type(record), name, key, value, error)
        if out is not value:
            object.__setattr__(record, name, out)


def from_row(cls, row, error: type[Exception], where: str, extra: Iterable[str] = (),
             **given):
    """A `cls` record from a JSON row keyed by its fields' file keys.

    `given` holds values by field name, already converted, for fields the
    row holds in another form; they win over the row. Keys in `extra` are
    allowed and ignored. A row that is not an object, a key that names no
    field, a missing field without a default, a value of the wrong JSON type
    and a ValueError of the record's own checks are `error`s; `where` names
    the row in each message. Types are checked before the record is built.
    """
    if not isinstance(row, dict):
        raise error(f"{where} must be a JSON object, got {row!r:.80}")
    keys = _keys(cls)
    unknown = sorted(set(row) - {key for key, _ in keys} - set(extra))
    if unknown:
        raise error(f"unknown {where} key(s): {', '.join(unknown)}")
    present = {name: key for key, name in keys if name in given or key in row}
    missing = [key for f, (key, name) in zip(fields(cls), keys) if name not in present
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise error(f"{where} must set {', '.join(missing)}")
    values = {name: _typed(cls, name, key, given[name] if name in given else row[key],
                           error, f"{where}: ")
              for name, key in present.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise error(f"{where}: {exc}") from exc


def to_row(record, **extra) -> dict:
    """A record's row: each field's value under its file key, then `extra`."""
    row = {key: getattr(record, name) for key, name in _keys(type(record))}
    row.update(extra)
    return row


def read_json(path, error: type[Exception], what: str):
    """The document of a JSON file holding a `what`; a file that cannot be
    read or parsed is `error`."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def read_jsonl(path, error: type[Exception]) -> Iterator[tuple[int, dict]]:
    """(line number, row) of each non-blank line of a JSONL file. A line that
    is not JSON or not an object, and a file that cannot be read, are
    `error`s naming the line."""
    lineno = 0
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise error(f"{path} line {lineno}: invalid JSON: {exc}") from exc
                if not isinstance(row, dict):
                    raise error(f"{path} line {lineno}: row must be a JSON object, "
                                f"got {row!r:.80}")
                yield lineno, row
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path} at line {lineno + 1}: {exc}") from exc


def valued(fn: Callable, item):
    """fn(item), or the exception it raised. A function run on
    backends.cpu_map's pool must not raise, so the pool maps this instead,
    and the calling thread raises a failure at its item's place: the
    failure stays with its item and ends no worker."""
    try:
        return fn(item)
    except Exception as exc:
        return exc


def raised(value):
    """`value`, raised when it is an exception (see valued)."""
    if isinstance(value, Exception):
        raise value
    return value


#: A row as a line of a JSONL file, keys sorted, without its newline.
encode_line = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode
#: encode_line without spaces: a ledger line, and the JSON that the manifest,
#: ledger entry and cache key digests read.
encode_compact = json.JSONEncoder(sort_keys=True, ensure_ascii=False,
                                  separators=(",", ":")).encode


def open_jsonl(path):
    """A JSONL file opened for writing lines, each ended by "\\n"."""
    return Path(path).open("w", encoding="utf-8", newline="\n")


def write_jsonl(lines: Iterable[str], path) -> None:
    """A JSONL file of `lines`, each already encoded (see encode_line); a
    line that fails to be made raises where it would be written."""
    with open_jsonl(path) as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
