"""Benchmark of the onoma pipeline: one command, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Set-up generates the workload's
inputs from the seed; the timed operation runs `onoma` command lines in a
child process (`perfbench/onoma_cli.py`, with `src/` on `PYTHONPATH`) and
repeats until S seconds have passed; every repetition's outputs are checked
(`workloads.py`, `checks.py`). The last line of standard output is a JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics of a traced run with
`--trace 1`. Metric names and units come from `BENCHMARK.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import trace_layers
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
# set-ups per untraced run; setup_s is their median
SETUP_REPEATS = 2

# per-layer metric -> spanned functions whose covered wall time it reports
SPAN_METRICS = {
    "synth.generate_s": ("synth.generate",),
    "synth.population_s": ("synth.generate_population",),
    "corpus.ingest_s": ("corpus.read_corpus_tsv", "corpus.ingest"),
    "corpus.filter_core_s": ("corpus.filter_core_names",),
    "typology.country_matrix_s": ("typology.build_country_matrix",),
    "typology.ward_s": ("typology.ward_cluster",),
    "typology.cut_relabel_s": ("typology.cut_dendrogram", "typology.relabel"),
    "classifier.split_s": ("classifier.split",),
    "classifier.train_s": ("classifier.train",),
    "classifier.evaluate_s": ("classifier.evaluate",),
    "correction.operator_s": (
        "correction.reweight_priors",
        "correction.correction_operator",
        "correction.correct_counts",
    ),
    "diversity.tally_s": ("diversity.tally_guesses",),
    "diversity.distributions_s": ("diversity.distribution",),
    "diversity.report_s": ("diversity.representation_ratios", "diversity.emit_report"),
    "util.write_s": ("util.atomic_write",),
}


@dataclass
class Measured:
    """One repetition of the timed operation."""

    out: Path
    run_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    spans: list[dict] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    readings: dict[str, float] = field(default_factory=dict)
    digest: dict[str, str] = field(default_factory=dict)


def run_cli(args: list[str], log: Path, spans: Path | None) -> tuple[float, float, float, int]:
    """Wall seconds, CPU seconds, peak RSS (MiB) and exit code of one command."""
    env = {k: v for k, v in os.environ.items() if k != "ONOMA_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable, str(BENCH_DIR / "onoma_cli.py")]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd + args, env=env, stdout=err, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted or terminated: stop the child and wait for it
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def operate(workload, inputs, out: Path, traced: bool) -> Measured:
    """Run the workload's commands once, then check what they wrote."""
    out.mkdir(parents=True)
    m = Measured(out)
    for i, args in enumerate(workload.commands(inputs, out)):
        spans = out.parent / f"{out.name}.spans{i}.json" if traced else None
        wall, cpu, rss, code = run_cli(args, out.parent / f"{out.name}.log", spans)
        m.run_s += wall
        m.cpu_s += cpu
        m.peak_rss_mb = max(m.peak_rss_mb, rss)
        if spans is not None and spans.exists():
            doc = json.loads(spans.read_text(encoding="utf-8"))
            m.spans += doc["spans"]
            for name, n in doc["counts"].items():
                m.counts[name] = m.counts.get(name, 0) + n
        if code != 0:
            m.problems.append(f"onoma {args[0]} exited with {code}")
            return m
    m.digest = checks.sha256_tree(out)
    return m


def verify(workload, inputs, ops: list[Measured]) -> None:
    """Check the first repetition in full; later ones must be byte-identical."""
    first = ops[0]
    if not first.problems:
        try:
            result = workload.check(inputs, first.out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            result = workloads.Checked([f"unreadable output: {exc!r}"], {})
        first.problems += result.problems
        first.readings = result.readings
    for m in ops[1:]:
        if m.problems:
            continue
        changed = changed_files(first.digest, m.digest)
        if changed:
            m.problems.append(f"artifacts differ between repetitions: {changed}")
        else:
            m.problems, m.readings = list(first.problems), dict(first.readings)


def changed_files(a: dict[str, str], b: dict[str, str]) -> list[str]:
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def source_digest() -> str:
    """What the artifacts of one seed depend on: sources, benchmark, versions."""
    import numpy

    h = hashlib.sha256(f"{sys.version}\0{numpy.__version__}\0".encode())
    for path in sorted(SRC.rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def remembered_digest_problems(workload, seed: int, digest: dict[str, str]) -> list[str]:
    """Artifacts must match an earlier run of the same seed on the same source."""
    record = WORK / "digests" / source_digest() / f"{workload.name}-{seed}.json"
    if record.exists():
        changed = changed_files(json.loads(record.read_text(encoding="utf-8")), digest)
        return [f"artifacts differ from an earlier run with this seed: {changed}"] if changed else []
    record.parent.mkdir(parents=True, exist_ok=True)
    tmp = record.with_name(f"{record.name}.{os.getpid()}")
    tmp.write_text(json.dumps(digest, sort_keys=True), encoding="utf-8")
    os.replace(tmp, record)
    return []


def set_up(workload, work: Path, seed: int, repeats: int):
    """Run set-up `repeats` times; every repeat must write the same bytes."""
    times, digests, inputs = [], [], None
    for i in range(repeats):
        d = work / f"setup{i}"
        d.mkdir(parents=True)
        start = time.perf_counter()
        inputs = workload.setup(d, seed)
        times.append(time.perf_counter() - start)
        digests.append(checks.sha256_tree(d))
    problems = [] if all(d == digests[0] for d in digests) else ["set-up inputs are not reproducible"]
    return inputs, times, problems


def layer_metrics(m: Measured, setup_spans: list[dict], n_names: int) -> dict[str, float]:
    spans = setup_spans + m.spans
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def sizes(name: str) -> list[int]:
        return [s["size"] for s in by_name.get(name, [])]

    out = {
        metric: trace_layers.covered(s for f in functions for s in by_name.get(f, []))
        for metric, functions in SPAN_METRICS.items()
    }
    extract = m.counts.get("features.extract", 0)
    classify = m.counts.get("classifier.classify", 0)
    out.update({
        "synth.generate_calls": len(by_name.get("synth.generate", [])),
        "corpus.core_names": sum(sizes("corpus.filter_core_names")),
        "features.extract_calls": extract,
        "features.extract_per_name": extract / n_names,
        "typology.ward_leaves": sum(sizes("typology.ward_cluster")),
        "classifier.vocab_size": sum(sizes("classifier.train")),
        "classifier.classify_calls": classify,
        "classifier.classify_per_name": classify / n_names,
        "correction.l1_reference": m.readings.get("l1_reference", 0.0),
        "correction.l1_target": m.readings.get("l1_target", 0.0),
        "util.bytes_written": sum(sizes("util.atomic_write")),
        "cli.self_s": m.run_s - trace_layers.covered(m.spans),
    })
    return out


def median_of(values: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(v[key] for v in values) for key in values[0]}


def bench(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    # With tracing, set-up runs once, and the generator's spans are recorded
    # where it makes the operation's inputs.
    tracer = trace_layers.Tracer()
    if trace and workload.trace_setup:
        tracer.install(trace_layers.SETUP_SPANNED, {})
    repeats = 1 if trace else SETUP_REPEATS
    inputs, setup_times, run_problems = set_up(workload, work, seed, repeats)

    # Whole rounds only: one repetition, or an untraced and a traced one. At
    # least two repetitions, so a slow first one is never the whole reading
    # and every run compares the bytes of two.
    rounds: list[list[Measured]] = []
    min_rounds = 1 if trace else 2
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        k = len(rounds)
        plain = operate(workload, inputs, work / f"op{k}", traced=False)
        rounds.append([plain] + ([operate(workload, inputs, work / f"op{k}t", traced=True)] if trace else []))
    ops = [m for r in rounds for m in r]
    verify(workload, inputs, ops)
    if not ops[0].problems:
        ops[0].problems += remembered_digest_problems(workload, seed, ops[0].digest)
    for where, problem in [("set-up", p) for p in run_problems] + [
        (m.out.name, p) for m in ops for p in m.problems
    ]:
        print(f"{workload.name} seed {seed} {where}: {problem}", file=sys.stderr)

    if trace:
        readings = [
            {**layer_metrics(traced, tracer.spans, inputs.n_names),
             "trace.overhead_s": traced.run_s - plain.run_s}
            for plain, traced in rounds
        ]
        spans = rounds[-1][1].spans
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        (WORK / "traces" / f"{workload.name}-{seed}.json").write_text(json.dumps({
            "setup_spans": tracer.spans,
            "spans": spans,
            "counts": rounds[-1][1].counts,
            "self_s": trace_layers.self_times(spans),
        }), encoding="utf-8")
    else:
        readings = [
            {"run_s": m.run_s, "cpu_s": m.cpu_s, "peak_rss_mb": m.peak_rss_mb} for m in ops
        ]
        print(f"{workload.name} seed {seed}: set-up s {[round(t, 3) for t in setup_times]}, "
              f"run_s {[round(m.run_s, 3) for m in ops]}, "
              f"cpu_s {[round(m.cpu_s, 3) for m in ops]}", file=sys.stderr)
    metrics = median_of(readings)
    if not trace:
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["names_per_s"] = inputs.n_names / metrics["run_s"]
    return {
        "correct": not run_problems,
        "attempted": len(ops),
        "failed": sum(1 for m in ops if m.problems),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running child is stopped and the
    # work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (SRC / "onoma" / "__init__.py").is_file():
        print(f"no onoma sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        result = bench(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in declared}:
        print(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json", file=sys.stderr)
        return 3
    result["metrics"] = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in declared
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
