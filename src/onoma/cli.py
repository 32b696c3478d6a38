"""Command-line interface: argument parsing, config reading and file I/O.

The method lives in the library, its chain in `onoma.stages`. The commands
follow the paper's two steps: `pipeline` builds the typology and the
classifier, handing the whole chain, `stages.run`, a sink that writes each
result as it comes. `compare` applies a saved model and confusion to
population files with the chain's apply step, `stages.apply`, and the same
sink, so it writes the pipeline's operator and reports; given a reference
alone, it writes that population's corrected distribution. `synth` writes a
synthetic corpus with its truth, registry and populations, files `pipeline`
reads like any others; that is the only way synthetic data reaches it. Each
setting is one `stages.PipelineConfig` field, declared with `util.setting`,
which gives the config file (read by `read_config`, `pipeline`'s only source
of settings, with one key per field) its JSON type and `synth`'s setting
options their default and range check.
Each subcommand reads and validates its inputs completely before any output
file is created, writes outputs atomically, and keeps every byte of output
deterministic for a given (inputs, config, seed) triple. An input file that
is not UTF-8, or holds a non-finite number, is an input error; a leading
byte-order mark is skipped. A file name a provenance line carries (the
reference's and the confusion's) holds no line break. Each reader checks
the names it reads: `_read_population` rejects every name classifying would
reject, `corpus.read_corpus_tsv` every name `features.check_surnames`
rejects, and `synth`'s spec reader every chain symbol a corpus file could
not carry back. Exit codes: 1 usage, 2 input format or io, 3 config
validation (a `ConfigError`), 4 internal error (any other exception).
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from . import diversity, stages, synth
from .classifier import EvalReport, TrainedModel, render_labeled_tsv
from .correction import ConfusionCounts, CorrectionOperator, render_confusion_csv
from .corpus import (
    CountryRegistry,
    OccurrenceTable,
    normalize_surname,
    read_corpus_tsv,
    render_core_names,
    render_corpus_tsv,
)
from .errors import ConfigError, InputFormatError, SurnameError
from .features import check_surnames
from .stages import PipelineConfig
from .typology import Dendrogram, RegionTypology, load_overrides
from .util import atomic_write, check_field, dumps, from_fields, parse_json, read_text, sha256_file

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


def _read_population(path: Path | str, strip_diacritics: bool) -> list[str]:
    """The surnames of a population file, one per line, each one classifying accepts.

    The file must hold a surname, and no name may be empty after
    `normalize_surname` or hold a boundary marker.
    """
    lines = read_text(path).splitlines()
    names = [name for line in lines if (name := line.strip())]
    if not names:
        raise InputFormatError(f"{path}: no surnames")
    normalized = [normalize_surname(name, strip_diacritics) for name in names]
    if "" in normalized:
        empty = names[normalized.index("")]
        raise InputFormatError(f"{path}: surname {empty!r} is empty after normalization")
    try:
        check_surnames(normalized)
    except SurnameError as exc:
        raise InputFormatError(f"{path}: {exc}") from None
    return names


class _Setting(argparse.Action):
    """Stores the value given to a setting's option once it lies in its field's range."""

    def __call__(self, parser, namespace, value, option_string=None):
        check_field(_FIELDS[self.dest], value, option_string)
        setattr(namespace, self.dest, value)


def _add_setting(parser: argparse.ArgumentParser, name: str, help: str) -> None:
    """The option `--<name>` with the type, default and range of the
    `PipelineConfig` field `name`, an `int` or a `float` with a range."""
    f = _FIELDS[name]
    parser.add_argument("--" + name.replace("_", "-"), dest=name, type=type(f.default),
                        default=f.default, action=_Setting,
                        help=f"{help} ({f.metadata['rule'][0]})")


# ---------------------------------------------------------------- commands


def _file_name(path: Path) -> str:
    """The name of `path`, which a provenance line carries: one with no line break."""
    if any(c in path.name for c in "\r\n"):
        raise InputFormatError(f"file name {str(path)!r} holds a line break")
    return path.name


def cmd_compare(args) -> int:
    files = [Path(path) for path in (args.reference, *args.targets)]
    provenance = {"confusion": _file_name(Path(args.confusion)),
                  "priors_source": f"reference:{_file_name(files[0])}"}
    stages.check_dataset_names([path.stem for path in files])
    model = TrainedModel.load(args.model)
    counts = ConfusionCounts.from_csv(args.confusion)
    if counts.regions != model.regions:
        raise ConfigError("model regions do not match the confusion matrix")
    datasets = [(path.stem, _read_population(path, model.strip_diacritics)) for path in files]
    artifacts = {"model": Path(args.model)}  # the model file the report's digest names
    stages.apply(model, counts, datasets, _writer(Path(args.out_dir), artifacts, {}), provenance)
    del artifacts["model"]
    for key in sorted(artifacts):
        print(f"{key}: {artifacts[key]}", file=sys.stderr)
    return 0


def _spec_from_args(args) -> synth.SynthSpec:
    """The `--spec` file, or else the standard spec the other options describe."""
    options = {
        "--regions": args.regions,
        "--countries-per-region": args.countries_per_region,
        "--names": args.names,
        "--overlap": args.overlap,
        "--seed": args.seed,
        "--population-size": args.population_size,
    }
    if args.spec:
        given = [option for option, value in options.items() if value is not None]
        if given:  # the spec file sets each of them
            raise _UsageError(f"onoma synth: --spec cannot be combined with {', '.join(given)}")
        return synth.SynthSpec.load(args.spec)
    size = options.pop("--population-size")
    for option, value in options.items():
        if value is None:
            raise ConfigError(f"{option} is required when --spec is not given")
    try:
        spec = synth.standard_spec(
            args.regions, args.countries_per_region, args.names, args.overlap, args.seed
        )
        size = 2000 if size is None else size
        return replace(spec, populations=(synth.default_population(spec, size),))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _write_synth(
    spec: synth.SynthSpec, out_dir: Path
) -> tuple[OccurrenceTable, dict[str, str], list[tuple[list[str], dict]]]:
    """Write the spec, its generated corpus, truth map and registry, and each
    population's names and truth counts under `out_dir`. Returns the table,
    the truth map and the populations' names and truth counts in the spec's
    order."""
    table, truth = synth.generate(spec)
    spec.save(out_dir / "spec.json")
    atomic_write(out_dir / "corpus.tsv", render_corpus_tsv(table))
    atomic_write(out_dir / "truth.tsv", synth.render_truth_tsv(truth))
    atomic_write(out_dir / "countries.tsv", synth.registry_for(spec).to_tsv())
    populations = []
    for population in spec.populations:
        names, counts = synth.generate_population(spec, population)
        populations.append((names, counts))
        stem = f"population_{population.name}"
        atomic_write(out_dir / f"{stem}.txt", "\n".join(names) + "\n")
        atomic_write(out_dir / f"{stem}_truth.json", dumps({r: counts[r] for r in sorted(counts)}))
    return table, truth, populations


def cmd_synth(args) -> int:
    spec = _spec_from_args(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table, truth, populations = _write_synth(spec, out_dir)
    sizes = f"corpus: {len(table)} records, {len(truth)} distinct names"
    # Handed over, not kept here: the scorer's `run` lets the table go after
    # the core filter.
    handed = [(table, truth)]
    del table
    if args.score:
        card = dumps(synth.score_pipeline(
            spec,
            min_core_names=args.min_core_names,
            alpha=args.alpha,
            corpus=handed.pop(),
            heldout=populations[0] if populations else None,  # the population it scores
        ))
        atomic_write(out_dir / "scorecard.json", card)
        print(card, end="", file=sys.stderr)
    print(sizes, file=sys.stderr)
    return 0


# ---------------------------------------------------------------- pipeline


def read_config(path: Path | str, overrides: Mapping[str, object]) -> PipelineConfig:
    """The pipeline config in the JSON file `path`, with the `overrides` that are
    not None; a key absent from both takes its field's default, but `seed`,
    `out_dir` and `corpus` must be given."""
    doc = parse_json(read_text(path), path)
    if not isinstance(doc, dict):
        raise InputFormatError(f"{path}: config must be a JSON object")
    merged = {**doc, **{k: v for k, v in overrides.items() if v is not None}}
    try:
        config = from_fields(PipelineConfig, merged, "config")
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if config.corpus is None:  # optional in the library only, whose chain reads no file
        raise ConfigError("missing config key: 'corpus'")
    # Input paths are relative to the config file (joined to an absolute
    # path, `base` drops out), but `out_dir` to the working directory.
    base = Path(path).parent
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "Path | None" and value is not None:
            setattr(config, f.name, base / value)
        elif f.type == "tuple[Path, ...]":
            setattr(config, f.name, tuple(base / t for t in value))
    return config


_FIELDS = {f.name: f for f in fields(PipelineConfig)}


# Each artifact `_writer` writes of a result of `stages.run` or `stages.apply`,
# by key: the result's name, the file and the file's text.
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


def _writer(
    out_dir: Path, artifacts: dict[str, Path], provenance: Mapping[str, object]
) -> Callable[[str, Any], None]:
    """The sink of `stages.run` and `stages.apply`: it writes each result's
    files under `out_dir`, made at the first write, and records their paths
    in `artifacts`. report.json's provenance is the digest of
    `artifacts["model"]`, the operator and the reference, then `provenance`.
    """

    def write(name: str, result: Any) -> None:
        files = {key: (file, render(result))
                 for key, (source, file, render) in _ARTIFACTS.items() if source == name}
        if name == "compare":
            dists, profiles = result
            files.update(diversity.emit_report(profiles, dists, provenance={
                "model_sha256": sha256_file(artifacts["model"]),
                "operator": "operator.csv",
                "reference": dists[0].dataset_name,
                **provenance,
            }))
        elif name == "summary":
            result["artifacts"] = {key: artifacts[key].name for key in sorted(artifacts)}
            files["summary"] = ("summary.json", dumps(result))
        for key, (file, text) in files.items():
            out_dir.mkdir(parents=True, exist_ok=True)
            artifacts[key] = atomic_write(out_dir / file, text)

    return write


def run_pipeline(config: PipelineConfig) -> dict[str, Path]:
    """Run every stage from one config; returns the artifact paths.

    The dataset names, the reference's file name and every configured
    input, the corpus surnames included, are checked before `out_dir` is
    created; a `summary.json` an earlier run left there is removed at once.
    The reference dataset is `config.reference` and the targets are
    `config.targets`, each named after its file's stem. `stages.run` then
    runs the chain, and `_writer` writes each of its results as it comes.
    """
    out_dir = config.out_dir
    priors_source = "evaluation column shares (no reference given)"
    if config.reference is not None:
        priors_source = f"reference:{_file_name(config.reference)}"
    files = [path for path in (config.reference, *config.targets) if path is not None]
    datasets = [path.stem for path in files]
    stages.check_dataset_names(datasets)
    surnames = [_read_population(path, config.strip_diacritics) for path in files]
    overrides = load_overrides(config.overrides) if config.overrides else ()
    log.info("stage: ingest (%s)", config.corpus)
    registry = (CountryRegistry.default() if config.registry is None
                else CountryRegistry.from_tsv(config.registry))
    table = read_corpus_tsv(config.corpus, registry, header=config.header,
                            strict=config.strict, strip_diacritics=config.strip_diacritics)
    # Written last, so it exists only for a run that finished.
    (out_dir / "summary.json").unlink(missing_ok=True)
    artifacts: dict[str, Path] = {}

    # Handed over, not kept here: `run` lets the table go after the core filter.
    handed = [table]
    del table
    # report.json echoes every setting but the paths.
    settings = {f.name: getattr(config, f.name) for f in fields(config) if "Path" not in f.type}
    write = _writer(out_dir, artifacts, {"config": settings})
    provenance = {"confusion": "confusion.csv", "priors_source": priors_source}
    stages.run(config, handed.pop(), list(zip(datasets, surnames)), write,
               overrides=overrides, provenance=provenance)
    return artifacts


def cmd_pipeline(args) -> int:
    config = read_config(args.config, {"out_dir": args.out_dir})
    artifacts = run_pipeline(config)
    for key in sorted(artifacts):
        print(f"{key}: {artifacts[key]}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- parser


FORMATS_HELP = """\
file formats:
  config JSON      pipeline settings, one key per setting; each value of its
                   setting's JSON kind and in its range (exit 3), and an
                   unknown key is a config error naming it
  spec JSON        synth --spec: seed, overlap, global_chain, regions,
                   countries, populations; each value of its field's JSON kind
                   and in its range, and a key no field reads is malformed
                   (exit 2)
  corpus TSV       surname<TAB>country<TAB>count, UTF-8, LF endings, no header
                   by default (config key "header" skips the first row)
  registry TSV     country_code<TAB>name (bundled 176-entry list by default); a
                   code, stripped and upper-cased, holds no whitespace, ',',
                   '"' or '#' (a region is named after one) and is listed once
  overrides TSV    REASSIGN<TAB>country<TAB>region or DELETE<TAB>country; a
                   region is named after its country with the most core names;
                   country and region are upper-cased
  population       one surname per line
  core-name TSV    surname<TAB>country<TAB>hhi<TAB>max_frequency (6 sig. digits);
                   pipeline output
  labeled TSV      surname<TAB>region (labeled and eval sets); pipeline output
  typology TSV     country<TAB>region (DELETED marks dropped countries), each
                   region named after its country with the most core names;
                   pipeline output
  dendrogram TSV   node_a<TAB>node_b<TAB>height<TAB>new_node, leaf ids in
                   leading '# leaf' comment lines; pipeline output
  confusion CSV    one grid format: sorted '# key: value' provenance lines,
  operator CSV     then a header row and a row per region, cells in 17
                   significant digits (counts for the confusion, P(actual |
                   guessed) rows for the operator); no region label holds
                   ',', '"' or '#'
  model JSON       version 1 and the model's fields, floats in 17 significant
                   digits; a value of another JSON kind or range, or a key no
                   field reads, is malformed (exit 2)
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

    p = sub.add_parser(
        "compare", help="corrected distributions of a reference and its targets, and their ratios"
    )
    p.add_argument("targets", nargs="*",
                   help="target population files (none: the reference's distribution alone)")
    p.add_argument("--reference", required=True, help="reference population file")
    p.add_argument("--model", required=True)
    p.add_argument("--confusion", required=True,
                   help="the pipeline's confusion CSV, reweighted to the reference's guesses")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("synth", help="generate a ground-truth synthetic corpus")
    p.add_argument("--spec", help="synthetic spec JSON")
    p.add_argument("--regions", type=int, help="number of regions (without --spec)")
    p.add_argument("--countries-per-region", type=int)
    p.add_argument("--names", type=int, help="names per country")
    p.add_argument("--overlap", type=float, help="0 separable .. 1 indistinguishable")
    p.add_argument("--seed", type=int)
    p.add_argument("--population-size", type=int,
                   help="held-out population size (default 2000; without --spec)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--score", action="store_true", help="also run the scored pipeline")
    _add_setting(p, "min_core_names", help="fewest core names a clustered country has")
    _add_setting(p, "alpha", help="additive smoothing")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pipeline", help="run every stage from one JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", help="override the config's output directory")
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # any other exception is a bug
        log.info("internal error", exc_info=True)  # its traceback, with -v
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    finally:
        package_log.removeHandler(handler)
        package_log.setLevel(logging.NOTSET)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
