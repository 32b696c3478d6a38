"""Command-line interface: argument parsing, config reading and file I/O.

The method lives in the library, its chain in `onoma.stages`: the `cmd_*`
commands call one stage each, and `run_pipeline` hands the whole chain,
`stages.run`, a sink that writes each result as it comes. Each setting is
one `stages.PipelineConfig` field, which gives the config file (read by
`read_config`) its JSON type and every command its option's default and
range check. Each
subcommand reads and validates its inputs completely before any output
file is created, writes outputs atomically, and keeps every byte of output
deterministic for a given (inputs, config, seed) triple. Population files
are read by `_read_population`, which rejects every name classifying would
reject; a surname in another file that the n-gram pass rejects is reported
as an input error in that file. Exit codes: 1 usage, 2 input format,
3 config validation, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import contextmanager
from dataclasses import MISSING, fields, replace
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

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
from .stages import PipelineConfig, _check_setting, feature_config
from .typology import Dendrogram, RegionTypology, load_overrides
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
def _surnames_from(path: Path | str) -> Iterator[None]:
    """Report a surname the n-gram pass rejects as an input error in `path`."""
    try:
        yield
    except SurnameError as exc:
        raise InputFormatError(f"{path}: {exc}") from None


def _read_population(path: Path | str, strip_diacritics: bool, ngrams: NGramConfig) -> list[str]:
    """The surnames of a population file, one per line, each one classifying accepts.

    The file must hold a surname, and no name may be empty after
    `normalize_surname` or hold one of the boundary markers of `ngrams`.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    names = [name for line in lines if (name := line.strip())]
    if not names:
        raise InputFormatError(f"{path}: no surnames")
    markers = (ngrams.start_marker, ngrams.end_marker)
    for name in names:
        normalized = normalize_surname(name, strip_diacritics)
        if not normalized:
            raise InputFormatError(f"{path}: surname {name!r} is empty after normalization")
        for marker in markers:
            if marker in normalized:
                message = f"surname {normalized!r} contains reserved marker {marker!r}"
                raise InputFormatError(f"{path}: {message}")
    return names


class _Setting(argparse.Action):
    """Stores the value given to a setting's option once it lies in its field's range."""

    def __call__(self, parser, namespace, value, option_string=None):
        _check_setting(_FIELDS[self.dest], value, option_string)
        setattr(namespace, self.dest, value)


def _add_setting(parser: argparse.ArgumentParser, name: str, flag: str = "", **kwargs) -> None:
    """The option `flag` (else `--<name>`) with the type, default and range of
    the `PipelineConfig` field `name`; a switch flips the default."""
    f = _FIELDS[name]
    kwargs.setdefault("default", f.default)
    if "rule" in f.metadata:
        kwargs["help"] = f"{kwargs.get('help', '')} ({f.metadata['rule'][0]})".lstrip()
    if f.type == "bool":
        kwargs["action"] = "store_false" if f.default else "store_true"
    else:
        kwargs["type"] = _parse_n_values if f.type == "tuple[int, ...]" else type(f.default)
        kwargs["action"] = _Setting
    parser.add_argument(flag or "--" + name.replace("_", "-"), dest=name, **kwargs)


def _add_corpus_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--registry", help="country registry TSV (default: bundled list)")
    _add_setting(parser, "header", help="skip the first input row")
    _add_setting(parser, "strict", help="fail on unknown country codes instead of skipping")
    _add_setting(parser, "strip_diacritics", help="fold accented letters in normalization")


def _add_feature_opts(parser: argparse.ArgumentParser) -> None:
    _add_setting(parser, "n_values", help="comma-separated n-gram sizes")
    _add_setting(parser, "pad_boundaries", "--no-pad", help="disable word-boundary padding markers")


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
    config = feature_config(args)
    core = read_core_names(args.core)
    overrides = load_overrides(args.overrides) if args.overrides else ()
    with _surnames_from(args.core):
        features = featurize(core.names, config)
        typology, dendrogram, labeled, counts = stages.build_typology(
            core, features, args.min_core_names, args.k_regions, overrides
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
    config = feature_config(args)
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


def _parse_priors(text: str, n: int) -> np.ndarray:
    """The n positive weights of `--priors`; `stages.calibrate` normalizes them."""
    try:
        values = np.asarray([float(part) for part in text.split(",")], dtype=float)
    except ValueError:
        raise ConfigError(f"bad priors {text!r}, expected comma-separated numbers") from None
    if not np.isfinite(values).all():
        raise ConfigError(f"--priors must be finite numbers, got {text!r}")
    if values.shape != (n,):
        raise ConfigError(f"expected {n} priors, got {len(values)}")
    if np.any(values <= 0):
        raise ConfigError("priors must be strictly positive")
    return values


def cmd_calibrate(args) -> int:
    if args.priors and (args.reference or args.model):
        raise ConfigError("--priors cannot be combined with --reference or --model")
    counts = ConfusionCounts.from_csv(args.confusion)
    provenance: dict[str, object] = {"confusion": Path(args.confusion).name}
    if args.priors:
        priors = _parse_priors(args.priors, len(counts.regions))
        provenance["priors_source"] = "explicit"
    elif args.reference and args.model:
        model = TrainedModel.load(args.model)
        if model.regions != counts.regions:
            raise ConfigError("model regions do not match the confusion matrix")
        names = _read_population(args.reference, model.strip_diacritics, model.feature_config)
        priors = diversity.tally_guesses(model, names)[0]
        provenance["priors_source"] = f"reference:{Path(args.reference).name}"
    else:
        raise ConfigError("need either --priors or both --reference and --model")
    operator = stages.calibrate(counts, provenance, priors)
    atomic_write(args.out, operator.to_csv())
    print(f"operator over {len(operator.regions)} regions -> {args.out}", file=sys.stderr)
    return 0


def _model_and_operator(args) -> tuple[TrainedModel, CorrectionOperator]:
    """The `--model` and `--operator` files, once their region labels agree."""
    model = TrainedModel.load(args.model)
    operator = CorrectionOperator.from_csv(args.operator)
    if operator.regions != model.regions:
        raise ConfigError("operator and model disagree on regions")
    return model, operator


def cmd_classify_population(args) -> int:
    model, operator = _model_and_operator(args)
    names = _read_population(args.input, model.strip_diacritics, model.feature_config)
    tally = diversity.tally_guesses(model, names)
    dist = diversity.distribution(tally, operator, args.name or Path(args.input).stem)
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
    model, operator = _model_and_operator(args)
    strip, ngrams = model.strip_diacritics, model.feature_config
    datasets = [
        (Path(path).stem, _read_population(path, strip, ngrams))
        for path in (args.reference, *args.targets)
    ]
    tallies = [(name, diversity.tally_guesses(model, names)) for name, names in datasets]
    dists, profiles = stages.compare(tallies, operator)
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


def _write_synth(
    spec: synth.SynthSpec, out_dir: Path
) -> tuple[dict[str, Path], OccurrenceTable, dict[str, str], list[tuple[list[str], dict]]]:
    """Write the spec, its generated corpus, truth map and registry, and each
    population's names and truth counts under `out_dir`. Returns the paths
    by artifact name, the table, the truth map and the populations' names
    and truth counts in the spec's order."""
    table, truth = synth.generate(spec)
    paths = {
        "spec": spec.save(out_dir / "spec.json"),
        "corpus": atomic_write(out_dir / "corpus.tsv", render_corpus_tsv(table)),
        "truth": atomic_write(out_dir / "truth.tsv", synth.render_truth_tsv(truth)),
        "registry": atomic_write(out_dir / "countries.tsv", synth.registry_for(spec).to_tsv()),
    }
    populations = []
    for population in spec.populations:
        names, counts = synth.generate_population(spec, population)
        populations.append((names, counts))
        stem = f"population_{population.name}"
        paths[f"population:{population.name}"] = atomic_write(
            out_dir / f"{stem}.txt", "\n".join(names) + "\n"
        )
        paths[f"population_truth:{population.name}"] = atomic_write(
            out_dir / f"{stem}_truth.json", dumps({r: counts[r] for r in sorted(counts)})
        )
    return paths, table, truth, populations


def cmd_synth(args) -> int:
    spec = _spec_from_args(args)
    if args.score and spec.populations:  # the scored population is compared by name
        stages.check_dataset_names([spec.populations[0].name])
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _, table, truth, populations = _write_synth(spec, out_dir)
    if args.score:
        card = synth.score_pipeline(
            spec,
            min_core_names=args.min_core_names,
            alpha=args.alpha,
            corpus=(table, truth),
            heldout=populations[0] if populations else None,  # the population it scores
        )
        atomic_write(out_dir / "scorecard.json", card.to_json())
        print(card.to_json(), end="", file=sys.stderr)
    print(f"corpus: {len(table)} records, {len(truth)} distinct names", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- pipeline


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _resolve(value: str, base: Path) -> Path:
    path = Path(value)
    return path if path.is_absolute() else base / path


# Per field annotation: its JSON kind in words, whether a JSON value is of
# that kind (a bool is no number), and the field's value from one, given the
# config file's directory. Input paths are relative to the config file, but
# `out_dir`, the one `Path`, is relative to the working directory.
_JSON_KINDS: dict[str, tuple[str, Callable[[object], bool], Callable[[Any, Path], object]]] = {
    "bool": ("true or false", lambda v: isinstance(v, bool), lambda v, _: v),
    "int": ("an integer", _is_int, lambda v, _: v),
    "float": ("a number", lambda v: _is_int(v) or isinstance(v, float), lambda v, _: float(v)),
    "str": ("a string", lambda v: isinstance(v, str), lambda v, _: v),
    "Path": ("a string", lambda v: isinstance(v, str), lambda v, _: Path(v)),
    "Path | None": (
        "a string or null",
        lambda v: v is None or isinstance(v, str),
        lambda v, base: None if v is None else _resolve(v, base),
    ),
    "tuple[int, ...]": (
        "a list of integers",
        lambda v: isinstance(v, list) and all(map(_is_int, v)),
        lambda v, _: tuple(v),
    ),
    "tuple[Path, ...]": (
        "a list of strings",
        lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v),
        lambda v, base: tuple(_resolve(t, base) for t in v),
    ),
}


def read_config(path: Path | str, overrides: Mapping[str, object]) -> PipelineConfig:
    """The pipeline config in the JSON file `path`, with the `overrides` that are
    not None; a key absent from both takes its field's default."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputFormatError(f"{path}: config must be a JSON object")
    known = {f.name for f in fields(PipelineConfig)} - {"synth_spec"} | {"synth"}
    unknown = sorted(key for key in doc if key not in known)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
    merged = dict(doc)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    base = Path(path).parent

    values = {}
    for f in fields(PipelineConfig):
        if f.name not in merged:
            if f.default is MISSING:
                raise ConfigError(f"missing config key: {f.name!r}")
            continue
        kind, is_kind, to = _JSON_KINDS[f.type]
        if not is_kind(merged[f.name]):
            raise ConfigError(f"{path}: {f.name} must be {kind}, got {merged[f.name]!r}")
        values[f.name] = to(merged[f.name], base)

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
                kind, is_kind, _ = _JSON_KINDS["float" if key == "overlap" else "int"]
                value = params.get(key) if isinstance(params, dict) else None
                if value is not None and not is_kind(value):
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

    return PipelineConfig(synth_spec=synth_spec, **values)


_FIELDS = {f.name: f for f in fields(PipelineConfig)}


# Each artifact `run_pipeline` writes of a result of `stages.run`, by key: the
# result's name, the file and the file's text.
_ARTIFACTS: dict[str, tuple[str, str, Callable[[Any], str]]] = {
    "core": ("core", "core.tsv", render_core_names),
    "typology": ("typology", "typology.tsv", RegionTypology.to_tsv),
    "dendrogram": ("dendrogram", "dendrogram.tsv", Dendrogram.to_tsv),
    "labeled": ("labeled", "labeled.tsv", lambda pair: render_labeled_tsv(*pair)),
    "eval_set": ("eval_set", "eval.tsv", lambda pair: render_labeled_tsv(*pair)),
    "model": ("model", "model.json", TrainedModel.to_json),
    "eval_report": ("eval_report", "eval_report.json", EvalReport.to_json),
    "confusion": (
        "eval_report",
        "confusion.csv",
        lambda report: render_confusion_csv(report.regions, report.confusion),
    ),
    "operator": ("operator", "operator.csv", CorrectionOperator.to_csv),
}


def run_pipeline(config: PipelineConfig) -> dict[str, Path]:
    """Run every stage from one config; returns the artifact paths.

    The dataset names and every configured input are checked before
    `out_dir` is created. The reference dataset is `config.reference`, or
    else the synth block's first population; the targets are
    `config.targets`, then the other synth populations. `stages.run` then
    runs the chain, and each of its results is written as it comes.
    """
    out_dir, spec = config.out_dir, config.synth_spec
    synth_names = [population.name for population in spec.populations] if spec is not None else []
    files = [path for path in (config.reference, *config.targets) if path is not None]
    # Without a reference file, the first synth population is the reference.
    lead = 0 if config.reference is not None else 1
    datasets = synth_names[:lead] + [path.stem for path in files] + synth_names[lead:]
    stages.check_dataset_names(datasets)
    ngrams = feature_config(config)
    surnames = {
        path.stem: _read_population(path, config.strip_diacritics, ngrams) for path in files
    }
    overrides = load_overrides(config.overrides) if config.overrides else ()
    corpus_path = config.corpus
    if corpus_path is not None:
        log.info("stage: ingest (%s)", corpus_path)
        table = _read_corpus(corpus_path, _load_registry(config.registry), config)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, Path] = {}
    if spec is not None:
        log.info("stage: synth")
        # The generated table goes on as it is: the corpus file just written
        # has no header row, and the reader options are for input files.
        paths, table, truth, populations = _write_synth(spec, out_dir)
        del truth  # written to truth.tsv; the run never reads it
        artifacts.update(paths)
        surnames.update(zip(synth_names, (names for names, _ in populations)))
        corpus_path = artifacts["corpus"]
    priors_source = "evaluation column shares (no reference given)"
    if datasets:
        reference_file = config.reference or artifacts[f"population:{datasets[0]}"]
        priors_source = f"reference:{reference_file.name}"

    def write(name: str, result: Any) -> None:
        for key, (source, file, render) in _ARTIFACTS.items():
            if source == name:
                artifacts[key] = atomic_write(out_dir / file, render(result))
        if name == "compare":
            dists, profiles = result
            artifacts.update(diversity.emit_report(profiles, dists, out_dir, provenance={
                "model_sha256": sha256_file(artifacts["model"]),
                "operator": "operator.csv",
                "reference": dists[0].dataset_name,
                "config": {  # every setting but the paths and the synth block
                    f.name: getattr(config, f.name)
                    for f in fields(config)
                    if "Path" not in f.type and f.name != "synth_spec"
                },
            }))
        elif name == "summary":
            result["artifacts"] = {key: artifacts[key].name for key in sorted(artifacts)}
            artifacts["summary"] = atomic_write(out_dir / "summary.json", dumps(result))

    # Handed over, not kept here: `run` lets the table go after the core filter.
    # Every population name was checked above, so only a corpus name can fail.
    handed = [table]
    del table
    provenance = {"confusion": "confusion.csv", "priors_source": priors_source}
    with _surnames_from(corpus_path):
        stages.run(config, handed.pop(), [(name, surnames[name]) for name in datasets], write,
                   overrides=overrides, provenance=provenance)
    return artifacts


def cmd_pipeline(args) -> int:
    # The options named after fields; from_file skips those left unset (None).
    overrides = {key: value for key, value in vars(args).items() if key in _FIELDS}
    config = read_config(args.config, overrides)
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
    _add_setting(p, "hhi_min", help="minimum share concentration")
    _add_setting(p, "freq_min", help="minimum maximal frequency")
    _add_setting(p, "basis", help="share basis for the concentration index")
    _add_corpus_opts(p)
    p.set_defaults(func=cmd_filter_core)

    p = sub.add_parser("typology", help="cluster countries and relabel core names")
    p.add_argument("--core", required=True, help="core-name TSV")
    _add_setting(p, "k_regions", "--k", help="number of regions")
    p.add_argument("--overrides", help="REASSIGN/DELETE override TSV")
    _add_setting(p, "min_core_names", help="fewest core names a clustered country has")
    p.add_argument("--out-dir", required=True)
    _add_feature_opts(p)
    p.set_defaults(func=cmd_typology)

    p = sub.add_parser("train", help="split the labeled set and fit the classifier")
    p.add_argument("--labeled", required=True, help="surname<TAB>region TSV")
    p.add_argument("--out", required=True, help="model JSON path")
    _add_setting(p, "alpha", help="additive smoothing")
    _add_setting(p, "train_fraction", help="share of each region's names trained on")
    p.add_argument("--seed", type=int, required=True)
    _add_setting(p, "min_df", help="fewest training names an n-gram must occur in")
    p.add_argument("--eval-out", help="write the held-out evaluation set here")
    p.add_argument("--train-out", help="write the training set here")
    p.add_argument("--vocab-out", help="write the vocabulary (one token per line)")
    _add_setting(p, "strip_diacritics")
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
    p.add_argument(
        "--priors",
        help="explicit comma-separated priors (normalized); not with --reference or --model",
    )
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
    _add_setting(p, "min_core_names", help="fewest core names a clustered country has")
    _add_setting(p, "alpha", help="additive smoothing")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pipeline", help="run every stage from one JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", help="override the config's output directory")
    p.add_argument("--seed", type=int, help="override the config's seed")
    _add_setting(p, "k_regions", "--k", default=None, help="override the region count")
    _add_setting(p, "alpha", default=None, help="override the smoothing parameter")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # The package's log records go to this call's stderr: warnings always,
    # the INFO stage lines and counts with -v. Undone on return.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    package_log = logging.getLogger("onoma")
    package_log.addHandler(handler)
    package_log.setLevel(logging.WARNING)
    try:
        # A setting's option out of its range is a config error while parsing.
        args = build_parser().parse_args(argv)
        if args.verbose:
            package_log.setLevel(logging.INFO)
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConfigError, ValueError) as exc:
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
