"""Shared helpers: seed derivation, deterministic serialization, atomic writes.

Output files must be byte-identical across runs with the same inputs, so all
floats are rendered with an explicit 17-significant-digit format (enough to
round-trip IEEE doubles exactly) instead of relying on repr. Tables are
written as whole columns, each distinct value formatted once.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from itertools import islice
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

__all__ = [
    "derive_seed",
    "fmt_float",
    "intern",
    "pick",
    "format_each",
    "tsv_lines",
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
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, Mapping):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(pad)
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(": ")
            _emit(value, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(close_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        # Flat numeric/str lists stay on one line to keep files compact.
        kinds = set(map(type, obj))
        if kinds == {float}:
            if not all(map(math.isfinite, obj)):
                fmt_float(next(x for x in obj if not math.isfinite(x)))
            out.append("[" + ", ".join(["%.17g"] * len(obj)) % tuple(obj) + "]")
            return
        if kinds == {str}:
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


def _file_mode() -> int:
    """Permissions a plain open() gives a new file under the current umask."""
    mask = os.umask(0o022)
    os.umask(mask)
    return 0o666 & ~mask


# Read once: os.umask can only be read by setting it, which is not safe
# while other threads create files.
_FILE_MODE = _file_mode()


def atomic_write(path: Path | str, content: str | bytes) -> Path:
    """Write via a sibling temp file and rename, so readers never see partials.

    The temp file has a unique name, so concurrent writers to one path do not
    collide (the last rename wins), and it is removed if the write fails.
    """
    path = Path(path)
    data = content.encode("utf-8") if isinstance(content, str) else content
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.chmod(tmp, _FILE_MODE)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def sha256_file(path: Path | str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
