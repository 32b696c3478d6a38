"""Layer spans and counters recorded from outside the program.

A `Tracer` wraps the public functions of each `onoma` module. It replaces the
function in every loaded `onoma.*` namespace that binds it, because the
stage code imports functions by name (`from .classifier import train`).
Per-name functions get a counter instead of a span. Spans are kept in memory
and written out once, at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

# layer -> public functions timed as spans ("Class.method" for classmethods).
SPANNED: dict[str, tuple[str, ...]] = {
    "synth": ("generate", "generate_population", "score_pipeline"),
    "corpus": ("read_corpus_tsv", "ingest", "filter_core_names"),
    "features": ("build_vocabulary",),
    "typology": ("build_country_matrix", "ward_cluster", "cut_dendrogram", "relabel"),
    "classifier": ("split", "train", "evaluate", "TrainedModel.load"),
    "correction": (
        "reweight_priors",
        "correction_operator",
        "correct_counts",
        "ConfusionCounts.from_csv",
        "CorrectionOperator.from_csv",
    ),
    "diversity": ("tally_guesses", "distribution", "representation_ratios", "emit_report"),
    "util": ("atomic_write",),
}
# Called once per surname: counted, not spanned.
COUNTED: dict[str, tuple[str, ...]] = {
    "features": ("extract",),
    "classifier": ("classify",),
}
SETUP_SPANNED: dict[str, tuple[str, ...]] = {"synth": ("generate", "generate_population")}


# Work size recorded with a span, from its result or, for writes, its bytes.
SIZES: dict[str, Callable] = {
    "corpus.filter_core_names": lambda args, result: len(result),
    "typology.ward_cluster": lambda args, result: len(result.leaves),
    "classifier.train": lambda args, result: len(result.vocabulary),
    "util.atomic_write": lambda args, result: len(
        args[1].encode("utf-8") if isinstance(args[1], str) else args[1]
    ),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _span(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            record = {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "thread": threading.get_ident(),
            }
            size = SIZES.get(name)
            if size is not None:
                record["size"] = size(args, result)
            self.spans.append(record)
            return result

        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(
        self,
        spanned: Mapping[str, Sequence[str]] = SPANNED,
        counted: Mapping[str, Sequence[str]] = COUNTED,
    ) -> None:
        """Wrap the named functions wherever an `onoma` module binds them."""
        import onoma.cli  # noqa: F401  (loads every module the commands use)

        replacements: dict[int, Callable] = {}
        for table, make in ((spanned, self._span), (counted, self._counter)):
            for layer, names in table.items():
                module = sys.modules[f"onoma.{layer}"]
                for qualified in names:
                    owner_name, _, method = qualified.rpartition(".")
                    if owner_name:  # classmethod: rebind on its class
                        owner = getattr(module, owner_name)
                        func = owner.__dict__[method].__func__
                        setattr(owner, method, classmethod(make(f"{layer}.{qualified}", func)))
                    else:
                        func = getattr(module, qualified)
                        replacements[id(func)] = make(f"{layer}.{qualified}", func)
        for name, module in list(sys.modules.items()):
            if name == "onoma" or name.startswith("onoma."):
                for attr, value in list(vars(module).items()):
                    wrapped = replacements.get(id(value))
                    if wrapped is not None:
                        setattr(module, attr, wrapped)

    def dump(self, path: Path | str) -> None:
        Path(path).write_text(
            json.dumps({"spans": self.spans, "counts": self.counts}), encoding="utf-8"
        )


# ------------------------------------------------------------ derivation


def covered(spans: Iterable[Mapping]) -> float:
    """Wall time covered by the union of the spans' intervals."""
    total = 0.0
    end = float("-inf")
    for span in sorted(spans, key=lambda s: s["start"]):
        if span["end"] > end:
            total += span["end"] - max(span["start"], end)
            end = span["end"]
    return total


def self_times(spans: Sequence[Mapping]) -> dict[str, float]:
    """Per function: duration minus the time its child spans cover."""
    children: dict[int, list[Mapping]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out: dict[str, float] = {}
    for span in spans:
        own = span["end"] - span["start"] - covered(children.get(span["id"], ()))
        out[span["name"]] = out.get(span["name"], 0.0) + own
    return dict(sorted(out.items()))
