"""Command-line interface: argument parsing, config reading and file I/O.

The method lives in the library, its chain in `onoma.stages`
(`build_typology`, `fit`, `calibrate`, `compare`); the `cmd_*` commands and
`run_pipeline` read files, call the library and write what it returns. Each
subcommand reads and validates its inputs completely before any output
file is created, writes outputs atomically, and keeps every byte of output
deterministic for a given (inputs, config, seed) triple. Exit codes: 1 usage,
2 input format, 3 config validation, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import diversity, stages, synth
from .classifier import (
    EvalReport,
    Labeled,
    TrainedModel,
    evaluate,
    read_labeled_tsv,
    render_labeled_tsv,
)
from .correction import ConfusionCounts, CorrectionOperator, render_confusion_csv
from .corpus import (
    CountryRegistry,
    OccurrenceTable,
    filter_core_names,
    normalize_surname,
    read_core_names,
    read_corpus_tsv,
    render_core_names,
    render_corpus_tsv,
)
from .errors import ConfigError, InputFormatError, InvariantError, SurnameError
from .features import NGramConfig, featurize, write_vocabulary
from .typology import load_overrides
from .util import atomic_write, dumps, sha256_file

log = logging.getLogger(__name__)

EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_INVARIANT = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage problems, not argparse's 2
        raise _UsageError(f"{self.prog}: {message}")


def _parse_n_values(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"bad n-gram sizes {text!r}, expected e.g. 2,3") from None


def _feature_config(args) -> NGramConfig:
    try:
        return NGramConfig(
            n_values=_parse_n_values(args.n_values),
            pad_boundaries=not args.no_pad,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _load_registry(path: str | None) -> CountryRegistry:
    if path is None:
        return CountryRegistry.default()
    return CountryRegistry.from_tsv(path)


def _read_corpus(path: Path | str, registry: CountryRegistry, options) -> OccurrenceTable:
    """The corpus file, read with the `header`, `strict` and `strip_diacritics`
    of `options` (the parsed arguments or a `PipelineConfig`)."""
    return read_corpus_tsv(
        path,
        registry,
        header=options.header,
        strict=options.strict,
        strip_diacritics=options.strip_diacritics,
    )


@contextmanager
def _surnames_from(source: Path | str | Mapping[str, Path | str]) -> Iterator[None]:
    """Report a surname the n-gram pass rejects as an input error in its file.

    `source` is that file, or for `stages.compare` a map from each dataset
    name to its file.
    """
    try:
        yield
    except SurnameError as exc:
        path = source[exc.dataset] if isinstance(source, Mapping) else source
        raise InputFormatError(f"{path}: {exc}") from None


def _read_population(path: Path | str) -> list[str]:
    names = [
        line.strip()
        for line in Path(path).read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    if not names:
        raise InputFormatError(f"{path}: no surnames")
    return names


def _add_corpus_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--registry", help="country registry TSV (default: bundled list)")
    parser.add_argument("--header", action="store_true", help="skip the first input row")
    parser.add_argument(
        "--strict", action="store_true", help="fail on unknown country codes instead of skipping"
    )
    parser.add_argument(
        "--strip-diacritics", action="store_true", help="fold accented letters in normalization"
    )


def _add_feature_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-values", default="2,3", help="comma-separated n-gram sizes")
    parser.add_argument(
        "--no-pad", action="store_true", help="disable word-boundary padding markers"
    )


# ---------------------------------------------------------------- commands


def cmd_ingest(args) -> int:
    table = _read_corpus(args.corpus, _load_registry(args.registry), args)
    content = render_corpus_tsv(table)
    if args.out:
        atomic_write(args.out, content)
    else:
        sys.stdout.write(content)
    print(
        f"ingested {len(table)} records, {len(table.countries())} countries",
        file=sys.stderr,
    )
    return 0


def cmd_filter_core(args) -> int:
    if not 0 < args.hhi_min <= 1:
        raise ConfigError(f"--hhi-min must be in (0, 1], got {args.hhi_min}")
    if args.freq_min < 0:
        raise ConfigError(f"--freq-min must be >= 0, got {args.freq_min}")
    table = _read_corpus(args.corpus, _load_registry(args.registry), args)
    core = filter_core_names(table, args.hhi_min, args.freq_min, basis=args.basis)
    content = render_core_names(core)
    if args.out:
        atomic_write(args.out, content)
    else:
        sys.stdout.write(content)
    print(f"kept {len(core)} of {table.n_surnames} surnames", file=sys.stderr)
    return 0


def cmd_typology(args) -> int:
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    if args.min_core_names < 1:
        raise ConfigError(f"--min-core-names must be >= 1, got {args.min_core_names}")
    config = _feature_config(args)
    core = read_core_names(args.core)
    overrides = load_overrides(args.overrides) if args.overrides else ()
    with _surnames_from(args.core):
        features = featurize(core.names, config)
        typology, dendrogram, labeled, counts = stages.build_typology(
            core, features, args.min_core_names, args.k, overrides
        )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write(out_dir / "typology.tsv", typology.to_tsv())
    atomic_write(out_dir / "dendrogram.tsv", dendrogram.to_tsv())
    atomic_write(out_dir / "labeled.tsv", render_labeled_tsv(core.names, labeled))
    for region in typology.regions:
        print(f"{region}\t{counts[region]}", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    if args.alpha <= 0:
        raise ConfigError(f"--alpha must be > 0, got {args.alpha}")
    if not 0 < args.train_fraction < 1:
        raise ConfigError(f"--train-fraction must be in (0, 1), got {args.train_fraction}")
    if args.min_df < 1:
        raise ConfigError(f"--min-df must be >= 1, got {args.min_df}")
    config = _feature_config(args)
    names, labeled = Labeled.from_pairs(read_labeled_tsv(args.labeled))
    with _surnames_from(args.labeled):
        features = featurize(names, config)
        model, train_set, eval_set = stages.fit(
            labeled,
            features,
            seed=args.seed,
            train_fraction=args.train_fraction,
            alpha=args.alpha,
            min_df=args.min_df,
            strip_diacritics=args.strip_diacritics,
        )
    model.save(args.out)
    if args.eval_out:
        atomic_write(args.eval_out, render_labeled_tsv(names, eval_set))
    if args.train_out:
        atomic_write(args.train_out, render_labeled_tsv(names, train_set))
    if args.vocab_out:
        write_vocabulary(model.vocabulary, args.vocab_out)
    print(
        f"trained on {len(train_set)} names, {len(model.vocabulary)} features,"
        f" {len(model.regions)} regions ({len(eval_set)} held out)",
        file=sys.stderr,
    )
    return 0


def cmd_evaluate(args) -> int:
    if args.confusion:
        counts = ConfusionCounts.from_csv(args.confusion)
        report = EvalReport.from_confusion(counts.regions, counts.matrix)
    else:
        if not args.model:
            raise ConfigError("--eval requires --model")
        model = TrainedModel.load(args.model)
        strip = model.strip_diacritics
        pairs = [(normalize_surname(s, strip), r) for s, r in read_labeled_tsv(args.eval)]
        names, eval_set = Labeled.from_pairs(pairs)
        with _surnames_from(args.eval):
            report = evaluate(model, eval_set, featurize(names, model.feature_config))
    atomic_write(args.out, report.to_json())
    if args.confusion_out:
        atomic_write(args.confusion_out, render_confusion_csv(report.regions, report.confusion))
    for region, p, r in zip(report.regions, report.precision, report.recall):
        print(f"{region}\tprecision={p:.4f}\trecall={r:.4f}", file=sys.stderr)
    return 0


def _normalized_priors(text: str, n: int) -> np.ndarray:
    try:
        values = np.asarray([float(part) for part in text.split(",")], dtype=float)
    except ValueError:
        raise ConfigError(f"bad priors {text!r}, expected comma-separated numbers") from None
    if values.shape != (n,):
        raise ConfigError(f"expected {n} priors, got {len(values)}")
    if np.any(values <= 0):
        raise ConfigError("priors must be strictly positive")
    return values / values.sum()


def cmd_calibrate(args) -> int:
    counts = ConfusionCounts.from_csv(args.confusion)
    provenance: dict[str, object] = {"confusion": Path(args.confusion).name}
    model = reference = priors = None
    if args.priors:
        priors = _normalized_priors(args.priors, len(counts.regions))
        provenance["priors_source"] = "explicit"
    elif args.reference and args.model:
        model = TrainedModel.load(args.model)
        reference = _read_population(args.reference)
        provenance["priors_source"] = f"reference:{Path(args.reference).name}"
    else:
        raise ConfigError("need either --priors or both --reference and --model")
    with _surnames_from(args.reference):
        operator, _ = stages.calibrate(counts, model, reference, provenance, priors=priors)
    atomic_write(args.out, operator.to_csv())
    print(f"operator over {len(operator.regions)} regions -> {args.out}", file=sys.stderr)
    return 0


def cmd_classify_population(args) -> int:
    model = TrainedModel.load(args.model)
    operator = CorrectionOperator.from_csv(args.operator)
    names = _read_population(args.input)
    dataset = args.name or Path(args.input).stem
    with _surnames_from(args.input):
        dist = diversity.distribution(names, model, operator, dataset)
    doc = {
        "dataset": dist.dataset_name,
        "n_names": dist.n_names,
        "n_prior_only": dist.n_prior_only,
        "regions": list(dist.regions),
        "counts": {r: float(c) for r, c in zip(dist.regions, dist.counts)},
        "proportions": {r: float(p) for r, p in zip(dist.regions, dist.proportions)},
    }
    atomic_write(args.out, dumps(doc))
    return 0


def cmd_compare(args) -> int:
    model = TrainedModel.load(args.model)
    operator = CorrectionOperator.from_csv(args.operator)
    files = [args.reference, *args.targets]
    names = [Path(path).stem for path in files]
    datasets = [(name, _read_population(path), None) for name, path in zip(names, files)]
    with _surnames_from(dict(zip(names, files))):
        dists, profiles = stages.compare(datasets, model, operator)
    provenance = {
        "model_sha256": sha256_file(args.model),
        "operator": Path(args.operator).name,
        "reference": dists[0].dataset_name,
    }
    paths = diversity.emit_report(profiles, dists, args.out_dir, provenance)
    for key in sorted(paths):
        print(f"{key}: {paths[key]}", file=sys.stderr)
    return 0


def _spec_from_args(args) -> synth.SynthSpec:
    if args.spec:
        return synth.SynthSpec.load(args.spec)
    for option, value in (
        ("--regions", args.regions),
        ("--countries-per-region", args.countries_per_region),
        ("--names", args.names),
        ("--overlap", args.overlap),
        ("--seed", args.seed),
    ):
        if value is None:
            raise ConfigError(f"{option} is required when --spec is not given")
    try:
        spec = synth.standard_spec(
            args.regions, args.countries_per_region, args.names, args.overlap, args.seed
        )
        return replace(spec, populations=(synth.default_population(spec, args.population_size),))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_synth(args) -> int:
    spec = _spec_from_args(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table, truth = synth.generate(spec)
    spec.save(out_dir / "spec.json")
    atomic_write(out_dir / "corpus.tsv", render_corpus_tsv(table))
    atomic_write(out_dir / "truth.tsv", synth.render_truth_tsv(truth))
    atomic_write(out_dir / "countries.tsv", synth.registry_for(spec).to_tsv())
    heldout = None  # the first population, which the scorecard scores
    for population in spec.populations:
        names, truth_counts = synth.generate_population(spec, population)
        heldout = heldout or (names, truth_counts)
        atomic_write(out_dir / f"population_{population.name}.txt", "\n".join(names) + "\n")
        atomic_write(
            out_dir / f"population_{population.name}_truth.json",
            dumps({r: truth_counts[r] for r in sorted(truth_counts)}),
        )
    if args.score:
        card = synth.score_pipeline(
            spec,
            min_core_names=args.min_core_names,
            alpha=args.alpha,
            corpus=(table, truth),
            heldout=heldout,
        )
        atomic_write(out_dir / "scorecard.json", card.to_json())
        print(card.to_json(), end="", file=sys.stderr)
    print(f"corpus: {len(table)} records, {len(truth)} distinct names", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- pipeline


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# The JSON values each kind of pipeline config key takes; a bool is no number.
_JSON_KINDS: dict[str, Callable[[object], bool]] = {
    "true or false": lambda v: isinstance(v, bool),
    "an integer": _is_int,
    "a number": lambda v: _is_int(v) or isinstance(v, float),
    "a string": lambda v: isinstance(v, str),
    "a string or null": lambda v: v is None or isinstance(v, str),
    "a list of integers": lambda v: isinstance(v, list) and all(map(_is_int, v)),
    "a list of strings": lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v),
}


@dataclass
class PipelineConfig:
    """File-based configuration for the all-in-one pipeline command."""

    seed: int
    out_dir: Path
    corpus: Path | None = None
    synth_spec: synth.SynthSpec | None = None
    registry: Path | None = None
    header: bool = False
    strict: bool = False
    strip_diacritics: bool = False
    hhi_min: float = 0.8
    freq_min: float = 1e-6
    basis: str = "frequency"
    min_core_names: int = 20
    min_df: int = 1
    n_values: tuple[int, ...] = (2, 3)
    pad_boundaries: bool = True
    k_regions: int = 7
    overrides: Path | None = None
    alpha: float = 0.1
    train_fraction: float = 0.85
    reference: Path | None = None
    targets: tuple[Path, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int):
            raise ConfigError("seed must be an integer (stochastic stages require it)")
        if not 0 < self.hhi_min <= 1:
            raise ConfigError(f"hhi_min must be in (0, 1], got {self.hhi_min}")
        if self.freq_min < 0:
            raise ConfigError(f"freq_min must be >= 0, got {self.freq_min}")
        if self.basis not in ("frequency", "count"):
            raise ConfigError(f"basis must be frequency or count, got {self.basis!r}")
        if self.min_core_names < 1 or self.min_df < 1 or self.k_regions < 1:
            raise ConfigError("min_core_names, min_df and k_regions must be >= 1")
        if self.alpha <= 0:
            raise ConfigError(f"alpha must be > 0, got {self.alpha}")
        if not 0 < self.train_fraction < 1:
            raise ConfigError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.corpus is None and self.synth_spec is None:
            raise ConfigError("config needs either a corpus path or a synth block")
        if self.corpus is not None and self.synth_spec is not None:
            raise ConfigError("config cannot have both a corpus path and a synth block")

    @property
    def feature_config(self) -> NGramConfig:
        try:
            return NGramConfig(n_values=self.n_values, pad_boundaries=self.pad_boundaries)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_file(cls, path: Path | str, overrides: Mapping[str, object]) -> "PipelineConfig":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{path}: not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise InputFormatError(f"{path}: config must be a JSON object")
        known = {f.name for f in fields(cls)} - {"synth_spec"} | {"synth"}
        unknown = sorted(key for key in doc if key not in known)
        if unknown:
            raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
        merged = dict(doc)
        merged.update({k: v for k, v in overrides.items() if v is not None})
        base = Path(path).parent

        def resolve(value: str) -> Path:  # relative to the config file
            p = Path(value)
            return p if p.is_absolute() else base / p

        def optional_path(value: str | None) -> Path | None:
            return None if value is None else resolve(value)

        # Keys absent from the file take the field's default.
        convert = {
            "seed": ("an integer", int),
            "out_dir": ("a string", Path),
            "corpus": ("a string or null", optional_path),
            "registry": ("a string or null", optional_path),
            "header": ("true or false", bool),
            "strict": ("true or false", bool),
            "strip_diacritics": ("true or false", bool),
            "hhi_min": ("a number", float),
            "freq_min": ("a number", float),
            "basis": ("a string", str),
            "min_core_names": ("an integer", int),
            "min_df": ("an integer", int),
            "n_values": ("a list of integers", tuple),
            "pad_boundaries": ("true or false", bool),
            "k_regions": ("an integer", int),
            "overrides": ("a string or null", optional_path),
            "alpha": ("a number", float),
            "train_fraction": ("a number", float),
            "reference": ("a string or null", optional_path),
            "targets": ("a list of strings", lambda v: tuple(resolve(t) for t in v)),
        }
        for f in fields(cls):
            if f.default is MISSING and f.name not in merged:
                raise ConfigError(f"missing config key: {f.name!r}")
        values = {}
        for key, (kind, to) in convert.items():
            if key in merged:
                if not _JSON_KINDS[kind](merged[key]):
                    raise ConfigError(f"{path}: {key} must be {kind}, got {merged[key]!r}")
                values[key] = to(merged[key])

        synth_spec = None
        synth_block = merged.get("synth")
        if synth_block is not None:
            if not isinstance(synth_block, dict):
                raise ConfigError("synth block must be an object")
            if "spec" in synth_block:
                synth_spec = synth.SynthSpec.load(base / str(synth_block["spec"]))
            elif "standard" in synth_block:
                params = synth_block["standard"]
                for key in ("n_regions", "countries_per_region", "names_per_country", "overlap"):
                    kind = "a number" if key == "overlap" else "an integer"
                    value = params.get(key) if isinstance(params, dict) else None
                    if value is not None and not _JSON_KINDS[kind](value):
                        key = f"synth.standard.{key}"
                        raise ConfigError(f"{path}: {key} must be {kind}, got {value!r}")
                try:
                    synth_spec = synth.standard_spec(
                        params["n_regions"],
                        params["countries_per_region"],
                        params["names_per_country"],
                        float(params["overlap"]),
                        values["seed"],
                        populations=tuple(
                            synth.PopulationSpec.from_dict(p)
                            for p in synth_block.get("populations", [])
                        ),
                    )
                except KeyError as exc:
                    raise ConfigError(f"bad synth block: missing key {exc}") from None
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"bad synth block: {exc}") from None
            else:
                raise ConfigError("synth block needs a 'spec' path or 'standard' parameters")

        return cls(synth_spec=synth_spec, **values)


def run_pipeline(config: PipelineConfig) -> dict[str, Path]:
    """Run every stage from one config; returns the artifact paths."""
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, Path] = {}
    feature_config = config.feature_config

    reference_path = config.reference
    target_paths = list(config.targets)
    dataset_names: dict[Path, str] = {}

    if config.synth_spec is not None:
        spec = config.synth_spec
        table, truth = synth.generate(spec)
        registry = synth.registry_for(spec)
        artifacts["spec"] = spec.save(out_dir / "spec.json")
        artifacts["corpus"] = atomic_write(out_dir / "corpus.tsv", render_corpus_tsv(table))
        artifacts["truth"] = atomic_write(out_dir / "truth.tsv", synth.render_truth_tsv(truth))
        artifacts["registry"] = atomic_write(out_dir / "countries.tsv", registry.to_tsv())
        corpus_path = artifacts["corpus"]
        for population in spec.populations:
            names, _ = synth.generate_population(spec, population)
            pop_path = atomic_write(
                out_dir / f"population_{population.name}.txt", "\n".join(names) + "\n"
            )
            artifacts[f"population:{population.name}"] = pop_path
            dataset_names[pop_path] = population.name
            if reference_path is None:
                reference_path = pop_path
            else:
                target_paths.append(pop_path)
    else:
        corpus_path = config.corpus
        registry = _load_registry(config.registry)

    log.info("stage: ingest (%s)", corpus_path)
    table = _read_corpus(corpus_path, registry, config)

    log.info("stage: filter-core")
    core = filter_core_names(table, config.hhi_min, config.freq_min, basis=config.basis)
    artifacts["core"] = atomic_write(out_dir / "core.tsv", render_core_names(core))
    n_records, n_surnames = len(table), table.n_surnames
    del table  # the largest structure of the run; only its sizes are reported
    # Every core name's n-grams, extracted once for the country matrix,
    # training and evaluation; row i is core name i.
    with _surnames_from(corpus_path):
        core_features = featurize(core.names, feature_config)

    log.info("stage: typology")
    typology, dendrogram, labeled, region_counts = stages.build_typology(
        core,
        core_features,
        config.min_core_names,
        config.k_regions,
        load_overrides(config.overrides) if config.overrides else (),
    )
    artifacts["typology"] = atomic_write(out_dir / "typology.tsv", typology.to_tsv())
    artifacts["dendrogram"] = atomic_write(out_dir / "dendrogram.tsv", dendrogram.to_tsv())
    labeled_tsv = render_labeled_tsv(core.names, labeled)
    artifacts["labeled"] = atomic_write(out_dir / "labeled.tsv", labeled_tsv)

    log.info("stage: train")
    model, train_set, eval_set = stages.fit(
        labeled,
        core_features,
        seed=config.seed,
        train_fraction=config.train_fraction,
        alpha=config.alpha,
        min_df=config.min_df,
        strip_diacritics=config.strip_diacritics,
    )

    log.info("stage: evaluate")
    report = evaluate(model, eval_set, core_features)
    # Released before the model is serialized, the run's peak of memory.
    del core_features
    artifacts["model"] = model.save(out_dir / "model.json")
    eval_tsv = render_labeled_tsv(core.names, eval_set)
    artifacts["eval_set"] = atomic_write(out_dir / "eval.tsv", eval_tsv)
    artifacts["eval_report"] = atomic_write(out_dir / "eval_report.json", report.to_json())
    artifacts["confusion"] = atomic_write(
        out_dir / "confusion.csv", render_confusion_csv(report.regions, report.confusion)
    )

    log.info("stage: calibrate")
    reference_names = None
    priors_source = "evaluation column shares (no reference given)"
    if reference_path is not None:
        reference_names = _read_population(reference_path)
        priors_source = f"reference:{Path(reference_path).name}"
    with _surnames_from(reference_path):
        operator, reference_tally = stages.calibrate(
            ConfusionCounts(report.regions, report.confusion.astype(float)),
            model,
            reference_names,
            {"confusion": "confusion.csv", "priors_source": priors_source},
        )
    artifacts["operator"] = atomic_write(out_dir / "operator.csv", operator.to_csv())

    if reference_path is not None:
        log.info("stage: compare")
        files = [reference_path, *target_paths]
        names = [dataset_names.get(Path(path), Path(path).stem) for path in files]
        datasets = [(names[0], reference_names, reference_tally)]
        datasets += [(n, _read_population(path), None) for n, path in zip(names[1:], files[1:])]
        with _surnames_from(dict(zip(names, files))):
            dists, profiles = stages.compare(datasets, model, operator)
        report_paths = diversity.emit_report(
            profiles,
            dists,
            out_dir,
            provenance={
                "model_sha256": sha256_file(artifacts["model"]),
                "operator": "operator.csv",
                "reference": dists[0].dataset_name,
                "config": {
                    "seed": config.seed,
                    "alpha": config.alpha,
                    "train_fraction": config.train_fraction,
                    "hhi_min": config.hhi_min,
                    "freq_min": config.freq_min,
                    "min_core_names": config.min_core_names,
                    "min_df": config.min_df,
                    "n_values": list(config.n_values),
                    "pad_boundaries": config.pad_boundaries,
                    "k_regions": config.k_regions,
                },
            },
        )
        artifacts.update(report_paths)

    summary = {
        "seed": config.seed,
        "n_records": n_records,
        "n_surnames": n_surnames,
        "n_core_names": len(core),
        "regions": {r: region_counts[r] for r in typology.regions},
        "n_train": len(train_set),
        "n_eval": len(eval_set),
        "accuracy": report.accuracy,
        "artifacts": {key: artifacts[key].name for key in sorted(artifacts)},
    }
    artifacts["summary"] = atomic_write(out_dir / "summary.json", dumps(summary))
    return artifacts


def cmd_pipeline(args) -> int:
    # from_file skips the options left unset (None).
    overrides = {
        "out_dir": args.out_dir, "seed": args.seed, "k_regions": args.k, "alpha": args.alpha
    }
    config = PipelineConfig.from_file(args.config, overrides)
    artifacts = run_pipeline(config)
    for key in sorted(artifacts):
        print(f"{key}: {artifacts[key]}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- parser


FORMATS_HELP = """\
file formats:
  corpus TSV       surname<TAB>country<TAB>count, UTF-8, LF endings, no header
                   by default (--header skips the first row)
  registry TSV     country_code<TAB>name (bundled 176-entry list by default)
  core-name TSV    surname<TAB>country<TAB>hhi<TAB>max_frequency (6 sig. digits)
  labeled TSV      surname<TAB>region (train/eval sets)
  overrides TSV    REASSIGN<TAB>country<TAB>region or DELETE<TAB>country
  typology TSV     country<TAB>region (DELETED marks dropped countries)
  dendrogram TSV   node_a<TAB>node_b<TAB>height<TAB>new_node, leaf ids in
                   leading '# leaf' comment lines
  vocabulary       one n-gram token per line, order defines feature index
  population       one surname per line
  confusion CSV    header row/column of region labels, counts per cell
  operator CSV     row-stochastic matrix with '# key: value' provenance header
  model JSON       versioned document with regions, vocabulary, log priors and
                   log likelihoods (17 significant digits)
"""


def build_parser() -> _Parser:
    parser = _Parser(
        prog="onoma",
        description="Surname-origin inference pipeline over TSV corpora.",
        epilog=FORMATS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="log each stage and its counts (skipped rows, frequency ties) to stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and merge a raw occurrence TSV")
    p.add_argument("corpus", help="surname<TAB>country<TAB>count TSV")
    p.add_argument("--out", help="write merged TSV here (default: stdout)")
    _add_corpus_opts(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("filter-core", help="extract concentration-filtered core names")
    p.add_argument("corpus")
    p.add_argument("--out", help="core-name TSV (default: stdout)")
    p.add_argument("--hhi-min", type=float, default=0.8, help="minimum share concentration")
    p.add_argument("--freq-min", type=float, default=1e-6, help="minimum maximal frequency")
    p.add_argument(
        "--basis",
        choices=("frequency", "count"),
        default="frequency",
        help="share basis for the concentration index",
    )
    _add_corpus_opts(p)
    p.set_defaults(func=cmd_filter_core)

    p = sub.add_parser("typology", help="cluster countries and relabel core names")
    p.add_argument("--core", required=True, help="core-name TSV")
    p.add_argument("--k", type=int, default=7, help="number of regions")
    p.add_argument("--overrides", help="REASSIGN/DELETE override TSV")
    p.add_argument("--min-core-names", type=int, default=20)
    p.add_argument("--out-dir", required=True)
    _add_feature_opts(p)
    p.set_defaults(func=cmd_typology)

    p = sub.add_parser("train", help="split the labeled set and fit the classifier")
    p.add_argument("--labeled", required=True, help="surname<TAB>region TSV")
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--alpha", type=float, default=0.1, help="additive smoothing")
    p.add_argument("--train-fraction", type=float, default=0.85)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--min-df", type=int, default=1)
    p.add_argument("--eval-out", help="write the held-out evaluation set here")
    p.add_argument("--train-out", help="write the training set here")
    p.add_argument("--vocab-out", help="write the vocabulary (one token per line)")
    p.add_argument("--strip-diacritics", action="store_true")
    _add_feature_opts(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="confusion matrix and per-region metrics")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--eval", help="labeled evaluation TSV (needs --model)")
    src.add_argument("--confusion", help="precomputed confusion CSV")
    p.add_argument("--model", help="model JSON (with --eval)")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--confusion-out", help="also write the confusion CSV here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "calibrate", help="reweight confusion priors and emit the correction operator"
    )
    p.add_argument("--confusion", required=True, help="confusion CSV")
    p.add_argument("--model", help="model JSON (with --reference)")
    p.add_argument("--reference", help="reference population, one surname per line")
    p.add_argument("--priors", help="explicit comma-separated priors (normalized)")
    p.add_argument("--out", required=True, help="operator CSV path")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("classify-population", help="corrected origin distribution of a list")
    p.add_argument("--model", required=True)
    p.add_argument("--operator", required=True)
    p.add_argument("--input", required=True, help="one surname per line")
    p.add_argument("--name", help="dataset name (default: input file stem)")
    p.add_argument("--out", required=True, help="distribution JSON path")
    p.set_defaults(func=cmd_classify_population)

    p = sub.add_parser("compare", help="representativeness ratios against a reference")
    p.add_argument("targets", nargs="+", help="target population files")
    p.add_argument("--reference", required=True, help="reference population file")
    p.add_argument("--model", required=True)
    p.add_argument("--operator", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("synth", help="generate a ground-truth synthetic corpus")
    p.add_argument("--spec", help="synthetic spec JSON")
    p.add_argument("--regions", type=int, help="number of regions (without --spec)")
    p.add_argument("--countries-per-region", type=int)
    p.add_argument("--names", type=int, help="names per country")
    p.add_argument("--overlap", type=float, help="0 separable .. 1 indistinguishable")
    p.add_argument("--seed", type=int)
    p.add_argument("--population-size", type=int, default=2000)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--score", action="store_true", help="also run the scored pipeline")
    p.add_argument("--min-core-names", type=int, default=20)
    p.add_argument("--alpha", type=float, default=0.1)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pipeline", help="run every stage from one JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", help="override the config's output directory")
    p.add_argument("--seed", type=int, help="override the config's seed")
    p.add_argument("--k", type=int, help="override the region count")
    p.add_argument("--alpha", type=float, help="override the smoothing parameter")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    # The package's log records go to this call's stderr: warnings always,
    # the INFO stage lines and counts with -v. Undone on return.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    package_log = logging.getLogger("onoma")
    package_log.addHandler(handler)
    package_log.setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    finally:
        package_log.removeHandler(handler)
        package_log.setLevel(logging.NOTSET)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
