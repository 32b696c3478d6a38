"""Seed derivation and deterministic serialization helpers."""

import json
import math
import random
import struct
from typing import Any, Mapping

import numpy as np
import pytest

from onoma.util import (
    _TSV_BLOCK_ROWS,
    atomic_write,
    derive_seed,
    dumps,
    fmt_float,
    format_each,
    intern,
    sha256_file,
    tsv_lines,
)


def parent_emit(obj: Any, out: list[str], indent: int, level: int) -> None:
    """The element-by-element writer that `util._emit`'s flat-list fast paths
    replaced, kept verbatim as their reference. A float array, as the model
    now hands its likelihood rows over, is read as the list of its floats."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
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
            parent_emit(value, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(close_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        # Flat numeric/str lists stay on one line to keep files compact.
        if all(isinstance(x, (int, float, str, bool)) or x is None for x in obj):
            parts: list[str] = []
            for x in obj:
                sub: list[str] = []
                parent_emit(x, sub, indent, level)
                parts.append("".join(sub))
            out.append("[" + ", ".join(parts) + "]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad)
            parent_emit(value, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(close_pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def parent_dumps(obj: Any, indent: int = 2) -> str:
    out: list[str] = []
    parent_emit(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)


def test_derive_seed_stable_and_stage_dependent():
    assert derive_seed(1, "split") == derive_seed(1, "split")
    assert derive_seed(1, "split") != derive_seed(2, "split")
    assert derive_seed(1, "split") != derive_seed(1, "train")
    assert 0 <= derive_seed(123, "x") < 2**63


def test_fmt_float_round_trips_exactly():
    import random

    rng = random.Random(17)
    values = [rng.uniform(-1e6, 1e6) for _ in range(500)]
    values += [rng.random() * 10 ** rng.randint(-20, 20) for _ in range(500)]
    values += [0.0, 1.0, 0.1, 2 / 3, 1e-300, 1e300]
    for x in values:
        again = float(fmt_float(x))
        assert struct.pack("d", again) == struct.pack("d", x), x


def test_fmt_float_rejects_non_finite():
    with pytest.raises(ValueError):
        fmt_float(float("nan"))
    with pytest.raises(ValueError):
        fmt_float(float("inf"))


def test_dumps_is_valid_deterministic_json():
    doc = {
        "b": [1, 2.5, "x", None, True],
        "a": {"nested": {"deep": [0.1]}},
        "empty_list": [],
        "empty_obj": {},
    }
    text = dumps(doc)
    assert text == dumps(doc)
    parsed = json.loads(text)
    assert parsed["b"] == [1, 2.5, "x", None, True]
    assert list(parsed.keys()) == ["b", "a", "empty_list", "empty_obj"]  # insertion order


def test_dumps_float_precision():
    parsed = json.loads(dumps({"x": 0.1}))
    assert struct.pack("d", parsed["x"]) == struct.pack("d", 0.1)


def test_dumps_matches_element_by_element_reference():
    rng = random.Random(3)
    floats = [rng.uniform(-1e6, 1e6) for _ in range(200)]
    floats += [rng.random() * 10 ** rng.randint(-300, 300) for _ in range(200)]
    floats += [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1, 2 / 3, 1.0, -1.0]
    floats += [2.2250738585072009e-308, 1e-310, -3e-320, 1.7e308, 2.0**53, 1e16, 123.0, -7.0]
    raw = (struct.unpack("d", rng.getrandbits(64).to_bytes(8, "little"))[0] for _ in range(600))
    floats += [x for x in raw if math.isfinite(x)]  # every exponent, subnormals included
    strings = [
        "", "plain", "Ñúñez", "李", "Ølsen-Šimić", "🙂", 'quote"d', "back\\slash",
        "\x00\x01\x1f\x7f", "tab\tnew\nline\r", "\u2028\u2029", "/slash", "it's",
    ]
    docs = [
        floats,
        [floats, floats[:3]],
        strings,
        tuple(strings),
        [strings, []],
        [-0.0],
        [5e-324],
        [],
        [1, 2.5, "x", None, True, False, -0.0, 5e-324],
        [True, False],
        [1, 2, 3],
        [1.0, 2],
        ["a", None],
        [np.float64(0.1), np.float64(-0.0)],
        {"log_priors": floats[:7], "vocabulary": strings, "nested": {"rows": [floats[:4]] * 3}},
        {"empty": [], "ints": [0, -1], "mixed": [0.5, "s", 1]},
        {"name": "Ñúñez \\ \"李\"", "mixed": [strings[2], 1, None, strings[8]]},
    ]
    for doc in docs:
        assert dumps(doc) == parent_dumps(doc), doc


def test_dumps_rejects_non_finite_in_float_lists():
    nan, inf = float("nan"), float("inf")
    for bad, first in (([0.1, nan], nan), ([inf], inf), ([1.0, 2.0, -inf, nan], -inf),
                       ([[0.5, nan]], nan)):
        message = f"^non-finite value in output: {first!r}$"  # as fmt_float says it
        with pytest.raises(ValueError, match=message):
            dumps(bad)
        with pytest.raises(ValueError, match=message):
            dumps({"x": bad})


def test_atomic_write_and_hash(tmp_path):
    path = tmp_path / "file.txt"
    atomic_write(path, "hello\n")
    assert path.read_text(encoding="utf-8") == "hello\n"
    assert not (tmp_path / "file.txt.tmp").exists()
    digest = sha256_file(path)
    atomic_write(path, "hello\n")
    assert sha256_file(path) == digest


def test_atomic_write_concurrent_writers_do_not_collide(tmp_path, monkeypatch):
    import os
    import threading

    path = tmp_path / "shared.txt"
    payloads = ["a" * 100_000, "b" * 50_000]
    errors = []
    # Both writers have written their temp file before either renames it.
    rounds = threading.Barrier(len(payloads), timeout=30)
    real_replace = os.replace

    def replace_together(src, dst):
        rounds.wait()
        real_replace(src, dst)

    def writer(text):
        try:
            for _ in range(50):
                atomic_write(path, text)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)
            rounds.abort()

    monkeypatch.setattr(os, "replace", replace_together)
    threads = [threading.Thread(target=writer, args=(text,)) for text in payloads]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert path.read_text(encoding="utf-8") in payloads
    assert [p.name for p in tmp_path.iterdir()] == ["shared.txt"]


def test_atomic_write_removes_temp_file_on_failure(tmp_path, monkeypatch):
    import os

    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename refused"):
        atomic_write(tmp_path / "out.txt", "data")
    assert list(tmp_path.iterdir()) == []


def test_float_arrays_format_each_distinct_value_once_as_per_value_17g():
    tiny = 5e-324
    row = np.array([0.0, -0.0, tiny, -tiny, 2.2250738585072009e-308, np.finfo(float).max,
                    -np.finfo(float).max, 0.1, 0.1, -0.0, 0.0, 1 / 3, tiny, -1.5, 0.1])
    expected = "[" + ", ".join("%.17g" % x for x in row.tolist()) + "]"
    assert "-0, 0," in expected
    assert dumps({"r": [row, row[:3]]}) == parent_dumps({"r": [row.tolist(), row[:3].tolist()]})
    assert dumps(row) == expected + "\n"
    assert format_each("%.17g", row) == ["%.17g" % x for x in row.tolist()]
    assert dumps({"r": np.array([])}) == '{\n  "r": []\n}\n'
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            dumps([np.array([1.0, bad, 2.0])])


def test_column_helpers():
    counts = np.array([3, 1, 3, 2**62, -7, 1], dtype=np.int64)
    assert format_each("%d", counts) == [str(n) for n in counts.tolist()]
    assert intern(["b", "a", "b", "c"]) == (("a", "b", "c"), pytest.approx([1, 0, 1, 2]))
    assert intern([]) == ((), pytest.approx([]))
    assert tsv_lines([], []) == ""


@pytest.mark.parametrize("extra", [-1, 0, 1, _TSV_BLOCK_ROWS + 1])
def test_tsv_lines_across_blocks_equal_one_join(extra):
    n = _TSV_BLOCK_ROWS + extra
    names = [f"n{i}" for i in range(n)]
    codes = tuple(f"c{i % 7}" for i in range(n))
    one_join = "\n".join(map("\t".join, zip(names, codes, names[::-1]))) + "\n"
    assert tsv_lines(names, codes, names[::-1]) == one_join
