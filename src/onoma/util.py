"""Shared helpers: seeds, JSON reading, field rules, deterministic
serialization, atomic writes.

Output files must be byte-identical across runs with the same inputs, so all
floats are rendered with an explicit 17-significant-digit format (enough to
round-trip IEEE doubles exactly) instead of relying on repr. Tables are
written as whole columns, each distinct value formatted once.

A dataclass read from JSON declares each field's kind by its annotation, a
key of `_KINDS`, and its range with `setting`; `check_fields` checks both.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import reprlib
from dataclasses import MISSING, Field, field, fields
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Collection, Mapping, Sequence

import numpy as np

from .errors import ConfigError, InputFormatError

__all__ = [
    "derive_seed",
    "fmt_float",
    "intern",
    "is_int",
    "is_number",
    "setting",
    "check_field",
    "check_fields",
    "check_keys",
    "from_fields",
    "pick",
    "format_each",
    "tsv_lines",
    "read_text",
    "parse_json",
    "dumps",
    "atomic_write",
    "sha256_file",
]


def derive_seed(seed: int, stage: str) -> int:
    """Stable 63-bit sub-seed for a named stage of a run.

    Every stochastic stage draws from its own derived seed, so stages are
    reproducible in isolation and independent of execution order.
    """
    digest = hashlib.sha256(f"{seed}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def fmt_float(value: float) -> str:
    """17-significant-digit decimal form; round-trips the double exactly."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value in output: {value!r}")
    return format(value, ".17g")


def is_int(value: object) -> bool:
    """Whether a JSON value is an integer; a bool is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value: object) -> bool:
    """Whether a JSON value is a number; a bool or a string is not."""
    return is_int(value) or isinstance(value, float)


def setting(default: Any = MISSING, rule: str = "", ok: Callable[[Any], bool] | None = None) -> Any:
    """A field's default and its range: the values `ok` accepts, `rule` in words."""
    return field(default=default, metadata={"rule": (rule, ok)})


def _is_path(value: object) -> bool:
    return isinstance(value, (str, Path))


def _list_of(ok: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda v: isinstance(v, (list, tuple)) and all(map(ok, v))


# Per field annotation: its kind in words, whether a value is of that kind (a
# bool is no number; a path is a string or a `Path`, a list a list or a
# tuple), and the field's value from one that is.
_KINDS: dict[str, tuple[str, Callable[[Any], bool], Callable[[Any], Any]]] = {
    "bool": ("true or false", lambda v: isinstance(v, bool), bool),
    "int": ("an integer", is_int, int),
    "float": ("a number", is_number, float),
    "str": ("a string", lambda v: isinstance(v, str), str),
    "Path": ("a string", _is_path, Path),
    "Path | None": ("a string or null", lambda v: v is None or _is_path(v),
                    lambda v: None if v is None else Path(v)),
    "tuple[int, ...]": ("a list of integers", _list_of(is_int), tuple),
    "tuple[float, ...]": ("a list of numbers", _list_of(is_number), lambda v: tuple(map(float, v))),
    "tuple[str, ...]": ("a list of strings", _list_of(lambda v: isinstance(v, str)), tuple),
    "tuple[Path, ...]": ("a list of strings", _list_of(_is_path), lambda v: tuple(map(Path, v))),
}


def check_field(f: Field, value: object, name: str | None = None) -> None:
    """Raise `ConfigError`, naming the value `name` or else `f.name`, unless
    `value` is of the kind of the field `f` and lies in its range."""
    kind, is_kind, _ = _KINDS[f.type]
    # A long value, such as a model's vocabulary, is shown in part.
    if not is_kind(value):
        raise ConfigError(f"{name or f.name} must be {kind}, got {reprlib.repr(value)}")
    rule, ok = f.metadata.get("rule", ("", None))
    if ok is not None and not ok(value):
        raise ConfigError(f"{name or f.name} must be {rule}, got {reprlib.repr(value)}")


def check_fields(obj: Any) -> None:
    """`check_field` of each field of the dataclass `obj` whose annotation is a
    kind of `_KINDS`, then set it to its value of that kind (a tuple for a
    list, a float for an integer number, a `Path` for a string)."""
    for f in fields(obj):
        if f.type in _KINDS:
            value = getattr(obj, f.name)
            check_field(f, value)
            object.__setattr__(obj, f.name, _KINDS[f.type][2](value))


def check_keys(doc: object, what: str, known: Collection[str]) -> None:
    """Raise `ConfigError` unless `doc`, a `what`, is a JSON object whose
    keys are all `known`."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object, got {reprlib.repr(doc)}")
    if unknown := sorted(set(doc) - set(known)):
        raise ConfigError(f"unknown {what} keys: {', '.join(unknown)}")


def from_fields(cls: type, doc: object, what: str, **read: Callable[[Any], Any]) -> Any:
    """The dataclass `cls` built from `doc`, a `what`: a JSON object whose
    keys are field names, each field without a default among them, and
    whose values are the fields' values, after `read[key]` where `read`
    names the key. Another key or a missing one raises `ConfigError`."""
    check_keys(doc, what, [f.name for f in fields(cls)])
    for f in fields(cls):
        if f.name not in doc and f.default is MISSING:
            raise ConfigError(f"missing {what} key: {f.name!r}")
    return cls(**{key: read[key](v) if key in read else v for key, v in doc.items()})


def intern(column: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct values of `column`, sorted, and each row's index among them."""
    order = np.array(sorted(range(len(column)), key=column.__getitem__), np.int64)
    values = np.array(column, dtype=object)[order]
    new = np.ones(len(values), bool)
    new[1:] = values[1:] != values[:-1]
    ids = np.empty(len(values), np.int64)
    ids[order] = np.cumsum(new) - 1
    return tuple(values[new].tolist()), ids


def pick(values: Sequence[str], ids: np.ndarray) -> list[str]:
    """values[i] for each i of `ids`."""
    return np.array(values, dtype=object)[ids].tolist()


def format_each(template: str, values: np.ndarray) -> list[str]:
    """`template % v` for each value of an int64 or float64 array, formatting
    each distinct bit pattern once (so 0.0 and -0.0 stay apart)."""
    keys = np.ascontiguousarray(values).view(np.int64)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    distinct = [template % v for v in values[first].tolist()]
    return np.array(distinct, dtype=object)[inverse.reshape(-1)].tolist()


_TSV_BLOCK_ROWS = 65536


def tsv_lines(*columns: Sequence[str]) -> str:
    """One line per row of the equally long string columns, fields tab-separated.

    Rows are joined a block at a time, so no more than one block's line
    strings exist at once.
    """
    rows = zip(*columns)
    return "".join(
        "\n".join(map("\t".join, islice(rows, _TSV_BLOCK_ROWS))) + "\n"
        for _ in range(0, len(columns[0]), _TSV_BLOCK_ROWS)
    )


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def read_text(path: Path | str) -> str:
    """The text of the UTF-8 file `path`, without a leading byte-order mark;
    other bytes are an `InputFormatError` at their offset in the file."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not valid UTF-8 at byte {exc.start}") from None


# The JSON escape of a surrogate: `read_text` decodes strictly, so only
# one can put a surrogate, which no UTF-8 file holds, into a parsed string.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def parse_json(text: str, source: Path | str) -> Any:
    """The JSON document `text`, read from `source`. Not valid JSON, a
    non-finite number (`NaN`, `Infinity` and `-Infinity`, which `json.loads`
    accepts, or one too large for a double), or a string holding a lone
    surrogate (an escape such as `"\\ud800"` outside a pair) is an
    `InputFormatError`."""
    try:
        doc = json.loads(text, parse_constant=_finite, parse_float=_finite)
        if _SURROGATE_ESCAPE.search(text):  # a pair parses to one character
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        lone = exc.object[exc.start]
        raise InputFormatError(f"{source}: not valid JSON: lone surrogate {lone!r}") from None
    except ValueError as exc:
        raise InputFormatError(f"{source}: not valid JSON: {exc}") from None
    return doc


# `json.dumps(text, ensure_ascii=False)` without building an encoder per call.
_quote = json.encoder.encode_basestring


def _emit(obj: Any, out: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(fmt_float(obj))
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, Mapping):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(pad)
            out.append(_quote(key))
            out.append(": ")
            _emit(value, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(close_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        # Flat numeric/str lists stay on one line to keep files compact.
        if set(map(type, obj)) == {str}:
            # The same ", "-separated bytes as emitting each string.
            out.append(json.dumps(obj, ensure_ascii=False))
            return
        if all(isinstance(x, (int, float, str, bool)) or x is None for x in obj):
            parts: list[str] = []
            for x in obj:
                sub: list[str] = []
                _emit(x, sub, indent, level)
                parts.append("".join(sub))
            out.append("[" + ", ".join(parts) + "]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad)
            _emit(value, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(close_pad + "]")
    elif isinstance(obj, np.ndarray):  # a float vector, as a flat float list
        if not np.isfinite(obj).all():
            fmt_float(obj[~np.isfinite(obj)][0])
        out.append("[" + ", ".join(format_each("%.17g", obj)) + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj: Any, indent: int = 2) -> str:
    """Deterministic JSON text: insertion-ordered keys, 17-digit floats."""
    out: list[str] = []
    _emit(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)


# Characters encoded, or bytes read, at a time by the file helpers below.
_BLOCK = 1 << 16


def atomic_write(path: Path | str, text: str) -> Path:
    """Write via a sibling temp file and rename, so readers never see partials.

    The text is encoded as UTF-8 _BLOCK characters at a time, so no copy of
    it is made whole. The temp file has a random name, so concurrent
    writers to one path do not collide (the last rename wins); it gets the
    mode open() gives a new file under the umask, and it is removed if the
    write fails.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            for start in range(0, len(text), _BLOCK):
                handle.write(text[start : start + _BLOCK].encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def sha256_file(path: Path | str) -> str:
    """Hex SHA-256 of a file's bytes, read _BLOCK bytes at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(_BLOCK), b""):
            digest.update(block)
    return digest.hexdigest()
