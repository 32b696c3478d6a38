"""Seed derivation and deterministic serialization helpers."""

import json
import struct

import pytest

from onoma.util import atomic_write, derive_seed, dumps, fmt_float, sha256_file


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
