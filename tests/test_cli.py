"""Command surface: formats, exit codes, end-to-end stage chaining."""

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import onoma
from onoma import synth
from onoma.classifier import Labeled, train
from onoma.cli import PipelineConfig, build_parser, main, read_config
from onoma.features import featurize
from onoma.resources import reference_confusion_path


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "synth"
    code = run(
        [
            "synth",
            "--regions", 3,
            "--countries-per-region", 2,
            "--names", 150,
            "--overlap", 0.2,
            "--seed", 5,
            "--population-size", 400,
            "--out-dir", out,
        ]
    )
    assert code == 0
    return out


def test_synth_writes_artifacts(synth_dir):
    for name in ("spec.json", "corpus.tsv", "truth.tsv", "countries.tsv",
                 "population_heldout.txt"):
        assert (synth_dir / name).exists(), name


def test_synth_score_generates_once(tmp_path, monkeypatch):
    calls = {"generate": 0, "generate_population": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(synth, name)):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(synth, name, counted)
    # The scorecard scores the first of two populations.
    spec = synth.standard_spec(
        3, 2, 120, 0.3, seed=4,
        populations=(synth.PopulationSpec("held", 300, (1.0, 2.0, 4.0)),
                     synth.PopulationSpec("other", 200, (4.0, 2.0, 1.0))),
    )
    spec.save(tmp_path / "spec.json")
    out = tmp_path / "synth"
    code = run(
        ["synth", "--spec", tmp_path / "spec.json", "--min-core-names", 10,
         "--out-dir", out, "--score"]
    )
    assert code == 0
    assert calls == {"generate": 1, "generate_population": 2}
    monkeypatch.undo()
    alone = synth.score_pipeline(spec, min_core_names=10, alpha=0.1).to_json()
    assert (out / "scorecard.json").read_text(encoding="utf-8") == alone


def test_scorer_and_pipeline_agree_on_one_spec(tmp_path):
    """The scorecard of a spec and `onoma pipeline` on the same spec and
    settings keep the same core names and evaluation set, and the corrected
    L1 is the one computed from the pipeline's report against the truth."""
    spec = synth.standard_spec(
        4, 5, 100, 0.2, seed=1,
        populations=(synth.PopulationSpec("reference", 300, (1.0, 2.0, 4.0, 8.0)),),
    )
    card = synth.score_pipeline(spec, min_core_names=10)
    spec.save(tmp_path / "spec.json")
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"seed": 1, "out_dir": str(tmp_path / "pipe"), "synth": {"spec": "spec.json"},
                    "k_regions": 4, "min_core_names": 10}),
        encoding="utf-8",
    )
    assert run(["pipeline", "--config", config]) == 0
    out = tmp_path / "pipe"
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert (card.n_core_names, card.n_eval) == (summary["n_core_names"], summary["n_eval"])
    assert sorted(card.region_map) == sorted(summary["regions"])

    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    counts = report["datasets"]["reference"]["counts"]
    truth = json.loads((out / "population_reference_truth.json").read_text(encoding="utf-8"))
    true_index = {r: i for i, r in enumerate(card.true_regions)}
    estimated = np.zeros(len(card.true_regions))
    for region, count in counts.items():  # in the model's region order
        estimated[true_index[card.region_map[region]]] += count
    total = float(sum(truth.values()))
    truth_vec = np.array([truth[r] for r in card.true_regions], dtype=float)
    assert card.l1_corrected == float(np.abs(estimated / total - truth_vec / total).sum())


def test_scoring_does_not_import_the_command_line():
    """The modules import one way: `synth` and `stages` never load `cli`."""
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            filter(None, [str(Path(onoma.__file__).parents[1]), os.environ.get("PYTHONPATH")])
        ),
    }
    code = (
        "import sys\n"
        "from onoma.synth import score_pipeline, standard_spec\n"
        "score_pipeline(standard_spec(2, 2, 80, 0.2, seed=2), min_core_names=10)\n"
        "print('onoma.cli' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.split() == ["False"]


def test_verbose_logs_stages(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "seed": 3,
                "out_dir": str(tmp_path / "out"),
                "synth": {
                    "standard": {"n_regions": 3, "countries_per_region": 2,
                                 "names_per_country": 100, "overlap": 0.25},
                    "populations": [
                        {"name": "reference", "n_names": 200, "region_weights": [1, 2, 4]},
                    ],
                },
                "k_regions": 3,
                "min_core_names": 5,
            }
        ),
        encoding="utf-8",
    )
    assert run(["pipeline", "--config", config]) == 0
    err = capsys.readouterr().err
    assert "stage: synth" not in err and "filter-core:" not in err
    assert "country-matrix:" not in err
    assert run(["-v", "pipeline", "--config", config]) == 0
    err = capsys.readouterr().err
    # The generated table goes on to the core filter; nothing is read back.
    assert "stage: synth" in err and "stage: calibrate" in err
    assert "stage: ingest" not in err
    assert "surnames read" in err
    assert "country-matrix: 6 countries with core names" in err
    # The funnel counts go to the log only, never into an artifact.
    for path in (tmp_path / "out").iterdir():
        text = path.read_text(encoding="utf-8")
        assert "surnames read" not in text, path.name
        assert "countries with core names" not in text, path.name


def test_synth_block_ignores_the_corpus_reader_options(tmp_path):
    """`header` and the other reader options are for corpus files: a synth
    block's generated records all reach the core filter either way."""
    runs = {}
    for header in (False, True):
        out = tmp_path / f"header_{header}"
        config = tmp_path / f"header_{header}.json"
        config.write_text(
            json.dumps(
                {
                    "seed": 1,
                    "out_dir": str(out),
                    "header": header,
                    "synth": {
                        "standard": {"n_regions": 3, "countries_per_region": 3,
                                     "names_per_country": 150, "overlap": 0.3},
                    },
                    "k_regions": 3,
                    "min_core_names": 10,
                }
            ),
            encoding="utf-8",
        )
        assert run(["pipeline", "--config", config]) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        runs[header] = summary["n_records"], (out / "core.tsv").read_bytes()
    corpus = (tmp_path / "header_False" / "corpus.tsv").read_text(encoding="utf-8")
    assert runs[True] == runs[False]
    assert runs[False][0] == len(corpus.splitlines())


def test_pipeline_artifacts_equal_per_surname_and_per_element_reference(tmp_path, monkeypatch):
    """Every artifact is byte-equal to a run through the reference core filter
    and JSON writer kept in the corpus and util tests."""
    from onoma import stages, util
    from test_corpus import as_core_set, parent_filter_core_names
    from test_util import parent_emit

    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "seed": 11,
                "synth": {
                    "standard": {"n_regions": 3, "countries_per_region": 3,
                                 "names_per_country": 120, "overlap": 0.4},
                    "populations": [
                        {"name": "reference", "n_names": 300, "region_weights": [1, 2, 4]},
                        {"name": "target", "n_names": 200, "region_weights": [4, 2, 1]},
                    ],
                },
                "k_regions": 3,
                "min_core_names": 5,
            }
        ),
        encoding="utf-8",
    )
    now, ref = tmp_path / "now", tmp_path / "ref"
    assert run(["pipeline", "--config", config, "--out-dir", now]) == 0
    calls = []

    def counted_filter(*args, **kwargs):
        calls.append(1)
        return as_core_set(parent_filter_core_names(*args, **kwargs))

    monkeypatch.setattr(util, "_emit", parent_emit)
    # Patched where stages.run binds it; the counter shows the reference ran.
    monkeypatch.setattr(stages, "filter_core_names", counted_filter)
    assert run(["pipeline", "--config", config, "--out-dir", ref]) == 0
    assert len(calls) == 1
    names = sorted(p.name for p in now.iterdir())
    assert {"model.json", "core.tsv", "summary.json"} <= set(names)
    assert names == sorted(p.name for p in ref.iterdir())
    for name in names:
        assert (now / name).read_bytes() == (ref / name).read_bytes(), name
    corpus = (now / "corpus.tsv").read_text(encoding="utf-8").splitlines()
    summary = json.loads((now / "summary.json").read_text(encoding="utf-8"))
    assert summary["n_records"] == len(corpus)
    assert summary["n_surnames"] == len({line.split("\t")[0] for line in corpus})


def test_stage_chain(tmp_path, synth_dir):
    corpus = synth_dir / "corpus.tsv"
    registry = synth_dir / "countries.tsv"
    core = tmp_path / "core.tsv"
    assert run(["filter-core", corpus, "--registry", registry, "--out", core]) == 0
    assert core.exists()

    typ_dir = tmp_path / "typ"
    assert run(
        ["typology", "--core", core, "--k", 3, "--min-core-names", 5, "--out-dir", typ_dir]
    ) == 0
    assert (typ_dir / "labeled.tsv").exists()
    assert (typ_dir / "typology.tsv").exists()
    assert (typ_dir / "dendrogram.tsv").exists()

    model = tmp_path / "model.json"
    eval_tsv = tmp_path / "eval.tsv"
    assert run(
        [
            "train",
            "--labeled", typ_dir / "labeled.tsv",
            "--out", model,
            "--seed", 1,
            "--eval-out", eval_tsv,
        ]
    ) == 0

    report = tmp_path / "report.json"
    confusion = tmp_path / "confusion.csv"
    assert run(
        ["evaluate", "--model", model, "--eval", eval_tsv, "--out", report,
         "--confusion-out", confusion]
    ) == 0
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["n_eval"] > 0

    operator = tmp_path / "operator.csv"
    reference = synth_dir / "population_heldout.txt"
    assert run(
        ["calibrate", "--confusion", confusion, "--model", model,
         "--reference", reference, "--out", operator]
    ) == 0

    dist = tmp_path / "dist.json"
    assert run(
        ["classify-population", "--model", model, "--operator", operator,
         "--input", reference, "--out", dist]
    ) == 0
    dist_doc = json.loads(dist.read_text(encoding="utf-8"))
    assert dist_doc["n_names"] == 400
    assert sum(dist_doc["proportions"].values()) == pytest.approx(1.0, abs=1e-9)

    # Passing the reference file as a target too collides on dataset names.
    compare_dir = tmp_path / "cmp"
    assert run(
        ["compare", "--model", model, "--operator", operator,
         "--reference", reference, str(reference), "--out-dir", compare_dir]
    ) == 3


def test_stage_commands_equal_pipeline(tmp_path):
    """The stage commands chained by hand write the same bytes as `pipeline`."""
    spec = synth.standard_spec(
        3, 3, 150, 0.3, seed=5,
        populations=(synth.PopulationSpec("reference", 400, (1.0, 2.0, 4.0)),
                     synth.PopulationSpec("target", 300, (4.0, 2.0, 1.0))),
    )
    spec.save(tmp_path / "spec.json")
    data = tmp_path / "data"
    assert run(["synth", "--spec", tmp_path / "spec.json", "--out-dir", data]) == 0
    corpus, registry = data / "corpus.tsv", data / "countries.tsv"
    reference, target = data / "population_reference.txt", data / "population_target.txt"

    st = tmp_path / "stages"
    st.mkdir()
    assert run(["filter-core", corpus, "--registry", registry, "--out", st / "core.tsv"]) == 0
    assert run(["typology", "--core", st / "core.tsv", "--k", 3, "--min-core-names", 5,
                "--out-dir", st]) == 0
    assert run(["train", "--labeled", st / "labeled.tsv", "--out", st / "model.json",
                "--seed", 5, "--eval-out", st / "eval.tsv"]) == 0
    assert run(["evaluate", "--model", st / "model.json", "--eval", st / "eval.tsv",
                "--out", st / "eval_report.json", "--confusion-out", st / "confusion.csv"]) == 0
    assert run(["calibrate", "--confusion", st / "confusion.csv", "--model", st / "model.json",
                "--reference", reference, "--out", st / "operator.csv"]) == 0
    assert run(["compare", "--model", st / "model.json", "--operator", st / "operator.csv",
                "--reference", reference, target, "--out-dir", st]) == 0

    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"seed": 5, "out_dir": str(tmp_path / "pipe"), "corpus": str(corpus),
                    "registry": str(registry), "reference": str(reference),
                    "targets": [str(target)], "k_regions": 3, "min_core_names": 5}),
        encoding="utf-8",
    )
    assert run(["pipeline", "--config", config]) == 0
    pipe = tmp_path / "pipe"

    shared = sorted({p.name for p in st.iterdir()} & {p.name for p in pipe.iterdir()})
    assert shared == sorted([
        "confusion.csv", "core.tsv", "dendrogram.tsv", "distributions.csv", "eval.tsv",
        "eval_report.json", "labeled.tsv", "model.json", "operator.csv", "ratios.csv",
        "report.json", "typology.tsv",
    ])
    for name in shared:
        if name != "report.json":
            assert (st / name).read_bytes() == (pipe / name).read_bytes(), name
    chained = json.loads((st / "report.json").read_text(encoding="utf-8"))
    piped = json.loads((pipe / "report.json").read_text(encoding="utf-8"))
    assert "config" not in chained["provenance"]
    del piped["provenance"]["config"]
    assert chained == piped


def test_typology_names_regions_as_synth_score_does(tmp_path):
    """At k other than 7, `typology` and `synth --score` give a cluster one name."""
    data = tmp_path / "synth"
    assert run(["synth", "--regions", 4, "--countries-per-region", 5, "--names", 100,
                "--overlap", 0.2, "--seed", 1, "--population-size", 300,
                "--min-core-names", 10, "--out-dir", data, "--score"]) == 0
    core = tmp_path / "core.tsv"
    assert run(["filter-core", data / "corpus.tsv", "--registry", data / "countries.tsv",
                "--out", core]) == 0
    assert run(["typology", "--core", core, "--k", 4, "--min-core-names", 10,
                "--out-dir", tmp_path / "typ"]) == 0
    lines = (tmp_path / "typ" / "typology.tsv").read_text(encoding="utf-8").splitlines()
    card = json.loads((data / "scorecard.json").read_text(encoding="utf-8"))
    assert {line.split("\t")[1] for line in lines} == set(card["region_map"])


def test_evaluate_confusion_fixture(tmp_path):
    out = tmp_path / "report.json"
    assert run(["evaluate", "--confusion", reference_confusion_path(), "--out", out]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert round(doc["precision"]["Asian"], 2) == 0.61
    assert round(doc["recall"]["Slavic"], 2) == 0.84


def test_calibrate_with_explicit_priors(tmp_path):
    out = tmp_path / "operator.csv"
    priors = "4.8,8.3,3.1,20.7,3.4,57.1,2.6"  # percentages; normalized internally
    assert run(
        ["calibrate", "--confusion", reference_confusion_path(), "--priors", priors,
         "--out", out]
    ) == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("# confusion:")
    assert "priors_source: explicit" in text


@pytest.mark.parametrize("priors", ["nan,1,1,1,1,1,1", "inf,1,1,1,1,1,1", "1,-inf,1,1,1,1,1"])
def test_calibrate_rejects_priors_that_are_not_finite(tmp_path, capsys, priors):
    out = tmp_path / "operator.csv"
    assert run(["calibrate", "--confusion", reference_confusion_path(), "--priors", priors,
                "--out", out]) == 3
    err = capsys.readouterr().err
    assert f"config error: --priors must be finite numbers, got {priors!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("given", [["--reference"], ["--model"], ["--reference", "--model"]])
def test_calibrate_rejects_priors_with_a_reference_or_model(tmp_path, capsys, given):
    # Two sources of priors fail before any file is read, so these need not exist.
    out = tmp_path / "operator.csv"
    sources = [arg for option in given for arg in (option, tmp_path / f"{option[2:]}.txt")]
    assert run(["calibrate", "--confusion", reference_confusion_path(),
                "--priors", "1,1,1,1,1,1,1", *sources, "--out", out]) == 3
    err = capsys.readouterr().err
    assert "config error: --priors cannot be combined with --reference or --model" in err
    assert not out.exists()


def test_compare_identical_files_gives_flat_profile(tmp_path, synth_dir):
    corpus = synth_dir / "corpus.tsv"
    registry = synth_dir / "countries.tsv"
    core = tmp_path / "core.tsv"
    run(["filter-core", corpus, "--registry", registry, "--out", core])
    typ_dir = tmp_path / "typ"
    run(["typology", "--core", core, "--k", 3, "--min-core-names", 5, "--out-dir", typ_dir])
    model = tmp_path / "model.json"
    eval_tsv = tmp_path / "eval.tsv"
    run(["train", "--labeled", typ_dir / "labeled.tsv", "--out", model, "--seed", 1,
         "--eval-out", eval_tsv])
    confusion = tmp_path / "confusion.csv"
    run(["evaluate", "--model", model, "--eval", eval_tsv, "--out", tmp_path / "r.json",
         "--confusion-out", confusion])
    operator = tmp_path / "operator.csv"
    reference = synth_dir / "population_heldout.txt"
    run(["calibrate", "--confusion", confusion, "--model", model, "--reference", reference,
         "--out", operator])

    target = tmp_path / "copy.txt"
    target.write_text(reference.read_text(encoding="utf-8"), encoding="utf-8")
    compare_dir = tmp_path / "cmp"
    assert run(
        ["compare", "--model", model, "--operator", operator, "--reference", reference,
         target, "--out-dir", compare_dir]
    ) == 0
    doc = json.loads((compare_dir / "report.json").read_text(encoding="utf-8"))
    for region, value in doc["datasets"]["copy"]["ratios"].items():
        assert value == 1.0, region


def test_filter_core_writes_to_stdout(tmp_path, synth_dir, capsys):
    corpus = synth_dir / "corpus.tsv"
    registry = synth_dir / "countries.tsv"
    assert run(
        ["filter-core", "--hhi-min", 0.8, "--freq-min", 1e-6,
         "--registry", registry, corpus]
    ) == 0
    out = capsys.readouterr().out
    first = out.splitlines()[0].split("\t")
    assert len(first) == 4  # surname, country, hhi, max_frequency


def test_train_vocab_out(tmp_path, synth_dir):
    corpus = synth_dir / "corpus.tsv"
    registry = synth_dir / "countries.tsv"
    core = tmp_path / "core.tsv"
    run(["filter-core", corpus, "--registry", registry, "--out", core])
    typ_dir = tmp_path / "typ"
    run(["typology", "--core", core, "--k", 3, "--min-core-names", 5, "--out-dir", typ_dir])
    vocab = tmp_path / "vocab.txt"
    assert run(
        ["train", "--labeled", typ_dir / "labeled.tsv", "--out", tmp_path / "m.json",
         "--seed", 2, "--vocab-out", vocab]
    ) == 0
    tokens = vocab.read_text(encoding="utf-8").splitlines()
    assert tokens == sorted(tokens) and tokens


def test_exit_code_usage():
    assert run(["typology"]) == 1  # missing required options
    assert run(["no-such-command"]) == 1


def test_exit_code_input_format(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("not a valid row\n", encoding="utf-8")
    assert run(["ingest", bad]) == 2


def test_exit_code_config(tmp_path, synth_dir):
    corpus = synth_dir / "corpus.tsv"
    registry = synth_dir / "countries.tsv"
    assert run(
        ["filter-core", corpus, "--registry", registry, "--hhi-min", 7.0]
    ) == 3


@pytest.mark.parametrize(
    "argv, name",
    [
        pytest.param(argv, name, id=f"{argv[0]}:{name}")
        for argv, names in [
            (["filter-core", "c.tsv"],
             ("hhi_min", "freq_min", "basis", "header", "strict", "strip_diacritics")),
            (["typology", "--core", "c.tsv", "--out-dir", "o"],
             ("k_regions", "min_core_names", "n_values", "pad_boundaries")),
            (["train", "--labeled", "l.tsv", "--out", "m.json", "--seed", "1"],
             ("alpha", "train_fraction", "min_df", "strip_diacritics", "n_values",
              "pad_boundaries")),
            (["synth", "--out-dir", "o"], ("min_core_names", "alpha")),
        ]
        for name in names
    ],
)
def test_stage_option_defaults_are_the_config_field_defaults(argv, name):
    args = build_parser().parse_args(argv)
    field = next(f for f in fields(PipelineConfig) if f.name == name)
    assert getattr(args, name) == field.default


@pytest.mark.parametrize("score", [[], ["--score"]], ids=["plain", "score"])
@pytest.mark.parametrize(
    "option, value, message",
    [("--alpha", -1, "--alpha must be > 0, got -1.0"),
     ("--min-core-names", 0, "--min-core-names must be >= 1, got 0")],
    ids=["alpha", "min_core_names"],
)
def test_synth_checks_its_settings_before_writing(tmp_path, capsys, score, option, value, message):
    out = tmp_path / "synth"
    assert run(["synth", "--regions", 2, "--countries-per-region", 2, "--names", 50,
                "--overlap", 0.2, "--seed", 1, "--out-dir", out, option, value, *score]) == 3
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_synth_score_checks_the_population_name_before_writing(tmp_path, capsys):
    spec = synth.standard_spec(2, 2, 50, 0.2, seed=1,
                               populations=(synth.PopulationSpec("a,b", 100, (1.0, 1.0)),))
    spec.save(tmp_path / "spec.json")
    out = tmp_path / "synth"
    assert run(["synth", "--spec", tmp_path / "spec.json", "--out-dir", out, "--score"]) == 3
    assert "config error: dataset name 'a,b' holds a comma" in capsys.readouterr().err
    assert not out.exists()
    # Without --score the name is never a dataset's.
    assert run(["synth", "--spec", tmp_path / "spec.json", "--out-dir", out]) == 0


def test_synth_score_warns_of_low_corrected_counts(tmp_path, capsys):
    """The scored population goes through `compare`, which warns of a region
    whose corrected count is below 5."""
    out = tmp_path / "synth"
    assert run(["synth", "--regions", 3, "--countries-per-region", 2, "--names", 120,
                "--overlap", 0.2, "--seed", 1, "--population-size", 20,
                "--min-core-names", 10, "--out-dir", out, "--score"]) == 0
    assert "dataset heldout: corrected count below 5" in capsys.readouterr().err


def test_malformed_operator_and_confusion_files_are_input_errors(tmp_path, capsys):
    names, labeled = Labeled.from_pairs([("abc", "A"), ("abd", "A"), ("xyz", "B"), ("xyw", "B")])
    model = tmp_path / "model.json"
    train(labeled, featurize(names), 0.1).save(model)
    population = tmp_path / "population.txt"
    population.write_text("abc\nxyz\n", encoding="utf-8")
    operator = tmp_path / "operator.csv"
    operator.write_text("guessed,A,B\nA,0.5,1\nB,0,1\n", encoding="utf-8")
    out = tmp_path / "dist.json"
    assert run(["classify-population", "--model", model, "--operator", operator,
                "--input", population, "--out", out]) == 2
    assert f"input error: {operator}: operator rows must sum to 1" in capsys.readouterr().err
    confusion = tmp_path / "confusion.csv"
    confusion.write_text("guessed,A,B\nA,3,0\nB,1,0\n", encoding="utf-8")
    assert run(["evaluate", "--confusion", confusion, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"input error: {confusion}: regions with zero actual names: B" in err
    assert not out.exists()


def test_typology_of_one_country_is_a_config_error(tmp_path, capsys):
    core = tmp_path / "core.tsv"
    core.write_text("".join(f"name{c}\tAA\t1\t0.01\n" for c in "abcdef"), encoding="utf-8")
    out = tmp_path / "typ"
    assert run(["typology", "--core", core, "--min-core-names", 1, "--out-dir", out]) == 3
    assert "config error: need at least 2 countries" in capsys.readouterr().err
    assert not out.exists()


def test_corpus_format_errors_name_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tUS\t3\nbroken row\n", encoding="utf-8")
    assert run(["filter-core", bad]) == 2
    err = capsys.readouterr().err
    assert f"input error: {bad}: line 2: expected 3 tab-separated fields, got 1" in err


def _fresh_onoma(env: dict[str, str]) -> list[str]:
    """The `Threads:` count and OPENBLAS_NUM_THREADS after `import onoma` in a
    new interpreter, with OPENBLAS_NUM_THREADS taken from `env` alone (this
    process imported numpy before onoma, so it cannot show the pool)."""
    env = {
        **{k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"},
        **env,
        "PYTHONPATH": os.pathsep.join(
            filter(None, [str(Path(onoma.__file__).parents[1]), os.environ.get("PYTHONPATH")])
        ),
    }
    code = (
        "import os, onoma\n"
        "threads = [l.split()[1] for l in open('/proc/self/status') if l.startswith('Threads:')]\n"
        "print(threads[0], os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    return result.stdout.split()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_importing_onoma_keeps_openblas_to_one_thread():
    assert _fresh_onoma({}) == ["1", "1"]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_importing_onoma_keeps_the_callers_openblas_setting():
    assert _fresh_onoma({"OPENBLAS_NUM_THREADS": "2"})[1] == "2"


def test_no_partial_artifacts_on_format_error(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tUS\t3\nbroken\n", encoding="utf-8")
    out = tmp_path / "merged.tsv"
    assert run(["ingest", bad, "--out", out]) == 2
    assert not out.exists()


def test_pipeline_from_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "seed": 42,
                "out_dir": str(tmp_path / "out"),
                "synth": {
                    "standard": {
                        "n_regions": 3,
                        "countries_per_region": 2,
                        "names_per_country": 150,
                        "overlap": 0.25,
                    },
                    "populations": [
                        {"name": "reference", "n_names": 500, "region_weights": [1, 2, 4]},
                        {"name": "elite", "n_names": 300, "region_weights": [4, 2, 1]},
                    ],
                },
                "k_regions": 3,
                "min_core_names": 5,
            }
        ),
        encoding="utf-8",
    )
    assert run(["pipeline", "--config", config]) == 0
    out = tmp_path / "out"
    for name in (
        "corpus.tsv", "core.tsv", "typology.tsv", "dendrogram.tsv", "labeled.tsv",
        "model.json", "eval.tsv", "eval_report.json", "confusion.csv", "operator.csv",
        "ratios.csv", "distributions.csv", "report.json", "summary.json",
    ):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["seed"] == 42
    # The synth block writes what `onoma synth` writes, truth counts included.
    for name in ("reference", "elite"):
        truth = json.loads((out / f"population_{name}_truth.json").read_text(encoding="utf-8"))
        assert sum(truth.values()) == {"reference": 500, "elite": 300}[name]
        assert summary["artifacts"][f"population_truth:{name}"] == f"population_{name}_truth.json"
    ratios = (out / "ratios.csv").read_text(encoding="utf-8").splitlines()
    reference_row = next(line for line in ratios[1:] if line.startswith("reference,"))
    assert set(reference_row.split(",")[1:]) == {"1"}


def test_pipeline_from_existing_corpus(tmp_path, synth_dir):
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "seed": 11,
                "out_dir": str(out),
                "corpus": str(synth_dir / "corpus.tsv"),
                "registry": str(synth_dir / "countries.tsv"),
                "reference": str(synth_dir / "population_heldout.txt"),
                "k_regions": 3,
                "min_core_names": 5,
            }
        ),
        encoding="utf-8",
    )
    assert run(["pipeline", "--config", config]) == 0
    assert (out / "model.json").exists()
    assert (out / "operator.csv").exists()
    assert (out / "report.json").exists()


def test_evaluate_eval_requires_model(tmp_path):
    eval_tsv = tmp_path / "eval.tsv"
    eval_tsv.write_text("aaa\tA\n", encoding="utf-8")
    assert run(["evaluate", "--eval", eval_tsv, "--out", tmp_path / "r.json"]) == 3


def test_pipeline_bad_config_value(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"seed": 1, "out_dir": str(tmp_path / "o"), "corpus": "x.tsv",
                    "alpha": -1.0}),
        encoding="utf-8",
    )
    assert run(["pipeline", "--config", config]) == 3


@pytest.mark.parametrize(
    "key, value, kind",
    [
        ("header", "no", "true or false"),
        ("pad_boundaries", "false", "true or false"),
        ("strict", 1, "true or false"),
        ("k_regions", 7.9, "an integer"),
        ("min_df", True, "an integer"),
        ("alpha", True, "a number"),
        ("hhi_min", "0.8", "a number"),
        ("registry", 5, "a string or null"),
        ("basis", 1, "a string"),
        ("out_dir", ["o"], "a string"),
        ("n_values", [2, "3"], "a list of integers"),
        ("n_values", [2, True], "a list of integers"),
        ("n_values", "2,3", "a list of integers"),
        ("targets", ["t.txt", 3], "a list of strings"),
        ("targets", "t.txt", "a list of strings"),
    ],
)
def test_pipeline_config_values_must_have_their_json_type(tmp_path, capsys, key, value, kind):
    config = tmp_path / "config.json"
    doc = {"seed": 1, "out_dir": str(tmp_path / "o"), "corpus": "x.tsv", key: value}
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["pipeline", "--config", config]) == 3
    err = capsys.readouterr().err
    assert f"config error: {config}: {key} must be {kind}, got {value!r}" in err
    assert not (tmp_path / "o").exists()


def test_pipeline_config_takes_an_integer_as_a_number_and_null_as_no_path(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"seed": 1, "out_dir": "o", "corpus": "x.tsv", "registry": None,
                    "alpha": 1, "header": True, "n_values": [3, 2], "reference": "r.txt",
                    "targets": ["t.txt"]}),
        encoding="utf-8",
    )
    loaded = read_config(config, {})
    assert loaded.alpha == 1.0 and isinstance(loaded.alpha, float)
    assert loaded.registry is None and loaded.header is True
    assert loaded.n_values == (3, 2) and loaded.targets == (tmp_path / "t.txt",)
    assert loaded.reference == tmp_path / "r.txt"


def test_pipeline_rejects_unknown_config_keys(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"seed": 1, "out_dir": str(tmp_path / "o"), "corpus": "x.tsv",
                    "alpah": 0.5, "targest": []}),
        encoding="utf-8",
    )
    assert run(["pipeline", "--config", config]) == 3
    assert "unknown config keys: alpah, targest" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "block",
    [
        {"standard": 5},
        {"standard": {"n_regions": 3, "countries_per_region": 2, "names_per_country": 50,
                      "overlap": 0.2},
         "populations": [{"name": "reference", "region_weights": [1, 1, 1]}]},
        {"standard": {"n_regions": 3, "countries_per_region": 2, "names_per_country": 50,
                      "overlap": 0.2},
         "populations": ["reference"]},
    ],
    ids=["standard-not-an-object", "population-without-n_names", "population-not-an-object"],
)
def test_pipeline_malformed_synth_block_is_a_config_error(tmp_path, capsys, block):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"seed": 1, "out_dir": str(tmp_path / "o"), "synth": block}),
        encoding="utf-8",
    )
    assert run(["pipeline", "--config", config]) == 3
    assert "config error: bad synth block: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _pipeline_config(tmp_path, synth_dir, corpus, reference):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "seed": 11,
                "out_dir": str(tmp_path / "out"),
                "corpus": str(corpus),
                "registry": str(synth_dir / "countries.tsv"),
                "reference": str(reference),
                "k_regions": 3,
                "min_core_names": 5,
            }
        ),
        encoding="utf-8",
    )
    return config


def test_empty_corpus_file_is_an_input_error(tmp_path, synth_dir, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("", encoding="utf-8")
    assert run(["filter-core", corpus]) == 2
    assert f"input error: {corpus}: no records" in capsys.readouterr().err
    reference = synth_dir / "population_heldout.txt"
    assert run(["pipeline", "--config", _pipeline_config(tmp_path, synth_dir, corpus, reference)]) == 2
    assert f"input error: {corpus}: no records" in capsys.readouterr().err


def test_corpus_of_only_unknown_countries_is_an_input_error(tmp_path, synth_dir, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("smith\tZZ\t3\njones\tQQ\t1\n", encoding="utf-8")
    registry = synth_dir / "countries.tsv"
    assert run(["filter-core", corpus, "--registry", registry]) == 2
    err = capsys.readouterr().err
    assert "unknown country code 'ZZ', row skipped" in err
    assert f"input error: {corpus}: no records" in err
    reference = synth_dir / "population_heldout.txt"
    assert run(["pipeline", "--config", _pipeline_config(tmp_path, synth_dir, corpus, reference)]) == 2
    assert f"input error: {corpus}: no records" in capsys.readouterr().err


def test_pipeline_corpus_surname_with_marker_is_an_input_error(tmp_path, synth_dir, capsys):
    corpus = tmp_path / "corpus.tsv"
    text = (synth_dir / "corpus.tsv").read_text(encoding="utf-8")
    country = text.splitlines()[0].split("\t")[1]
    corpus.write_text(text + f"o^brien\t{country}\t500\n", encoding="utf-8")
    reference = synth_dir / "population_heldout.txt"
    assert run(["pipeline", "--config", _pipeline_config(tmp_path, synth_dir, corpus, reference)]) == 2
    err = capsys.readouterr().err
    assert f"input error: {corpus}: surname 'o^brien' contains reserved marker '^'" in err


def test_pipeline_population_surname_with_marker_is_an_input_error(tmp_path, synth_dir, capsys):
    reference = tmp_path / "reference.txt"
    text = (synth_dir / "population_heldout.txt").read_text(encoding="utf-8")
    reference.write_text(text + "o$brien\n", encoding="utf-8")
    corpus = synth_dir / "corpus.tsv"
    assert run(["pipeline", "--config", _pipeline_config(tmp_path, synth_dir, corpus, reference)]) == 2
    err = capsys.readouterr().err
    assert f"input error: {reference}: surname 'o$brien' contains reserved marker '$'" in err
    assert not (tmp_path / "out").exists()
    # The same file as a target is named too.
    config = _pipeline_config(tmp_path, synth_dir, corpus, synth_dir / "population_heldout.txt")
    doc = json.loads(config.read_text(encoding="utf-8"))
    config.write_text(json.dumps({**doc, "targets": [str(reference)]}), encoding="utf-8")
    assert run(["pipeline", "--config", config]) == 2
    err = capsys.readouterr().err
    assert f"input error: {reference}: surname 'o$brien' contains reserved marker '$'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "lines, role, message",
    [
        (None, True, "io error: "),
        (" \n\u2028\t\n", False, "input error: {path}: no surnames"),
        ("\u0301\n", False, "input error: {path}: surname '\u0301' is empty after normalization"),
        ("ab\nÓ$Brien\n", True, "input error: {path}: surname 'o$brien' contains reserved marker '$'"),
        (None, "registry", "io error: "),
        ("broken\n", "corpus", "input error: {path}: line 1: expected 3 tab-separated fields, got 1"),
    ],
)
def test_pipeline_reads_its_population_files_before_writing(
    tmp_path, synth_dir, capsys, lines, role, message
):
    """A missing or rejected population, corpus or registry file leaves no out
    dir. `role` is True for a target, False for the reference, else the key."""
    path = tmp_path / "input.txt"
    if lines is not None:
        path.write_text(lines, encoding="utf-8")
    heldout = synth_dir / "population_heldout.txt"
    config = _pipeline_config(tmp_path, synth_dir, synth_dir / "corpus.tsv", heldout)
    doc = json.loads(config.read_text(encoding="utf-8"))
    key = {True: "targets", False: "reference"}.get(role, role)
    doc[key] = [str(path)] if key == "targets" else str(path)
    # With diacritics stripped, a lone combining accent normalizes to nothing.
    config.write_text(json.dumps({**doc, "strip_diacritics": True}), encoding="utf-8")
    assert run(["pipeline", "--config", config]) == 2
    assert message.format(path=path) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_pipeline_targets_need_a_reference(tmp_path, synth_dir, capsys):
    heldout = synth_dir / "population_heldout.txt"
    config = _pipeline_config(tmp_path, synth_dir, synth_dir / "corpus.tsv", heldout)
    doc = json.loads(config.read_text(encoding="utf-8"))
    del doc["reference"]
    doc["targets"] = [str(heldout)]
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["pipeline", "--config", config]) == 3
    assert "config error: targets need a reference" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_dataset_names_are_checked_before_writing(tmp_path, synth_dir, capsys):
    """Names must differ and fit in a CSV field; `pipeline` checks them before
    it creates its out dir, `compare` before it writes its report."""
    text = (synth_dir / "population_heldout.txt").read_text(encoding="utf-8")
    files = [tmp_path / "a" / "reference.txt", tmp_path / "b" / "reference.txt"]
    files.append(tmp_path / "tar,get.txt")
    for path in files:
        path.parent.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
    config = _pipeline_config(tmp_path, synth_dir, synth_dir / "corpus.tsv", files[0])
    doc = json.loads(config.read_text(encoding="utf-8"))
    for target, message in (
        (files[1], "duplicate dataset name 'reference'"),
        (files[2], "dataset name 'tar,get' holds a comma or a line break"),
    ):
        config.write_text(json.dumps({**doc, "targets": [str(target)]}), encoding="utf-8")
        assert run(["pipeline", "--config", config]) == 3
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["pipeline", "--config", config]) == 0
    out = tmp_path / "out"
    assert run(["compare", "--model", out / "model.json", "--operator", out / "operator.csv",
                "--reference", files[0], files[2], "--out-dir", tmp_path / "cmp"]) == 3
    err = capsys.readouterr().err
    assert "config error: dataset name 'tar,get' holds a comma or a line break" in err
    assert not (tmp_path / "cmp").exists()


def test_stage_commands_report_surnames_with_markers_as_input_errors(tmp_path, synth_dir, capsys):
    core = tmp_path / "core.tsv"
    run(["filter-core", synth_dir / "corpus.tsv", "--registry", synth_dir / "countries.tsv",
         "--out", core])
    bad_core = tmp_path / "bad_core.tsv"
    line = core.read_text(encoding="utf-8").splitlines()[0].split("\t")
    bad_core.write_text(
        core.read_text(encoding="utf-8") + "\t".join(["o^brien", *line[1:]]) + "\n",
        encoding="utf-8",
    )
    assert run(["typology", "--core", bad_core, "--k", 3, "--min-core-names", 5,
                "--out-dir", tmp_path / "bad_typ"]) == 2
    assert f"input error: {bad_core}: surname 'o^brien'" in capsys.readouterr().err

    typ_dir = tmp_path / "typ"
    run(["typology", "--core", core, "--k", 3, "--min-core-names", 5, "--out-dir", typ_dir])
    model, eval_tsv = tmp_path / "model.json", tmp_path / "eval.tsv"
    run(["train", "--labeled", typ_dir / "labeled.tsv", "--out", model, "--seed", 1,
         "--eval-out", eval_tsv])
    confusion = tmp_path / "confusion.csv"
    run(["evaluate", "--model", model, "--eval", eval_tsv, "--out", tmp_path / "r.json",
         "--confusion-out", confusion])
    reference = synth_dir / "population_heldout.txt"
    bad = tmp_path / "bad.txt"
    bad.write_text(reference.read_text(encoding="utf-8") + "o$brien\n", encoding="utf-8")
    capsys.readouterr()
    operator = tmp_path / "operator.csv"
    assert run(["calibrate", "--confusion", confusion, "--model", model, "--reference", bad,
                "--out", operator]) == 2
    assert f"input error: {bad}: surname 'o$brien'" in capsys.readouterr().err
    assert run(["calibrate", "--confusion", confusion, "--model", model,
                "--reference", reference, "--out", operator]) == 0
    dist = tmp_path / "dist.json"
    assert run(["classify-population", "--model", model, "--operator", operator,
                "--input", bad, "--out", dist]) == 2
    assert f"input error: {bad}: surname 'o$brien'" in capsys.readouterr().err
    assert not dist.exists()
    assert run(["compare", "--model", model, "--operator", operator, "--reference", reference,
                bad, "--out-dir", tmp_path / "cmp"]) == 2
    assert f"input error: {bad}: surname 'o$brien'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, kind",
    [("n_regions", 3.7, "an integer"), ("overlap", True, "a number"),
     ("names_per_country", "50", "an integer"), ("countries_per_region", False, "an integer")],
)
def test_pipeline_synth_standard_values_must_have_their_json_type(
    tmp_path, capsys, key, value, kind
):
    standard = {"n_regions": 3, "countries_per_region": 2, "names_per_country": 50,
                "overlap": 0.2, key: value}
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"seed": 1, "out_dir": str(tmp_path / "o"), "synth": {"standard": standard}}),
        encoding="utf-8",
    )
    assert run(["pipeline", "--config", config]) == 3
    err = capsys.readouterr().err
    assert f"config error: {config}: synth.standard.{key} must be {kind}, got {value!r}" in err
    assert not (tmp_path / "o").exists()


def test_typology_rejects_a_surname_listed_twice(tmp_path, synth_dir, capsys):
    core = tmp_path / "core.tsv"
    run(["filter-core", synth_dir / "corpus.tsv", "--registry", synth_dir / "countries.tsv",
         "--out", core])
    lines = core.read_text(encoding="utf-8").splitlines()
    core.write_text("\n".join(lines + [lines[1]]) + "\n", encoding="utf-8")
    assert run(["typology", "--core", core, "--k", 3, "--min-core-names", 5,
                "--out-dir", tmp_path / "typ"]) == 2
    name = lines[1].split("\t")[0]
    repeated = f"line {len(lines) + 1}: surname {name!r} repeats line 2"
    assert f"input error: {core}: {repeated}" in capsys.readouterr().err
    assert not (tmp_path / "typ").exists()


def test_stage_commands_read_their_files_in_any_order(tmp_path, synth_dir):
    """The labeled, evaluation and core files give the same outputs shuffled."""
    import random

    def shuffled(path):
        lines = path.read_text(encoding="utf-8").splitlines()
        random.Random(3).shuffle(lines)
        out = path.with_name("shuffled_" + path.name)
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return out

    core = tmp_path / "core.tsv"
    run(["filter-core", synth_dir / "corpus.tsv", "--registry", synth_dir / "countries.tsv",
         "--out", core])
    for name, core_file in (("a", core), ("b", shuffled(core))):
        assert run(["typology", "--core", core_file, "--k", 3, "--min-core-names", 5,
                    "--out-dir", tmp_path / name]) == 0
    labeled = tmp_path / "a" / "labeled.tsv"
    assert labeled.read_bytes() == (tmp_path / "b" / "labeled.tsv").read_bytes()
    for name, labeled_file in (("a", labeled), ("b", shuffled(labeled))):
        d = tmp_path / name
        assert run(["train", "--labeled", labeled_file, "--out", d / "m.json", "--seed", 2,
                    "--eval-out", d / "e.tsv", "--train-out", d / "t.tsv"]) == 0
    for file in ("m.json", "e.tsv", "t.tsv"):
        assert (tmp_path / "a" / file).read_bytes() == (tmp_path / "b" / file).read_bytes()
    model, eval_tsv = tmp_path / "a" / "m.json", tmp_path / "a" / "e.tsv"
    for name, eval_file in (("a", eval_tsv), ("b", shuffled(eval_tsv))):
        assert run(["evaluate", "--model", model, "--eval", eval_file,
                    "--out", tmp_path / name / "r.json"]) == 0
    assert (tmp_path / "a" / "r.json").read_bytes() == (tmp_path / "b" / "r.json").read_bytes()


def test_evaluate_reports_an_empty_surname_as_an_input_error(tmp_path, synth_dir, capsys):
    typ_dir, model, eval_tsv = tmp_path / "typ", tmp_path / "m.json", tmp_path / "e.tsv"
    run(["filter-core", synth_dir / "corpus.tsv", "--registry", synth_dir / "countries.tsv",
         "--out", tmp_path / "core.tsv"])
    run(["typology", "--core", tmp_path / "core.tsv", "--k", 3, "--min-core-names", 5,
         "--out-dir", typ_dir])
    run(["train", "--labeled", typ_dir / "labeled.tsv", "--out", model, "--seed", 1,
         "--eval-out", eval_tsv])
    region = eval_tsv.read_text(encoding="utf-8").split("\t")[1].split("\n")[0]
    bad = tmp_path / "bad.tsv"
    bad.write_text(eval_tsv.read_text(encoding="utf-8") + f" \t{region}\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["evaluate", "--model", model, "--eval", bad, "--out", tmp_path / "r.json"]) == 2
    assert f"input error: {bad}: empty surname" in capsys.readouterr().err


@pytest.fixture()
def piped(tmp_path, synth_dir):
    """A pipeline run on `synth_dir`'s corpus with its held-out reference."""
    config = _pipeline_config(tmp_path, synth_dir, synth_dir / "corpus.tsv",
                              synth_dir / "population_heldout.txt")
    assert run(["pipeline", "--config", config]) == 0
    return tmp_path / "out"


def test_population_commands_reject_an_operator_of_other_regions(tmp_path, synth_dir, piped,
                                                                  capsys):
    """An operator whose region labels are not the model's is a config error,
    and nothing is written."""
    operator = tmp_path / "paper_operator.csv"
    assert run(["calibrate", "--confusion", reference_confusion_path(),
                "--priors", "1,1,1,1,1,1,1", "--out", operator]) == 0
    reference = synth_dir / "population_heldout.txt"
    capsys.readouterr()
    dist = tmp_path / "dist.json"
    assert run(["classify-population", "--model", piped / "model.json", "--operator", operator,
                "--input", reference, "--out", dist]) == 3
    assert "config error: operator and model disagree on regions" in capsys.readouterr().err
    assert not dist.exists()
    target = tmp_path / "target.txt"
    target.write_text(reference.read_text(encoding="utf-8"), encoding="utf-8")
    assert run(["compare", "--model", piped / "model.json", "--operator", operator,
                "--reference", reference, target, "--out-dir", tmp_path / "cmp"]) == 3
    assert "config error: operator and model disagree on regions" in capsys.readouterr().err
    assert not (tmp_path / "cmp").exists()


def test_calibrate_rejects_a_confusion_of_other_regions(tmp_path, synth_dir, piped, capsys):
    operator = tmp_path / "operator.csv"
    assert run(["calibrate", "--confusion", reference_confusion_path(),
                "--model", piped / "model.json",
                "--reference", synth_dir / "population_heldout.txt", "--out", operator]) == 3
    err = capsys.readouterr().err
    assert "config error: model regions do not match the confusion matrix" in err
    assert not operator.exists()


def test_a_reference_of_one_name_yields_zero_guesses(tmp_path, synth_dir, piped, capsys):
    """One name gets one guess, so every other region has none: `calibrate`
    and `pipeline` both name those regions."""
    one = tmp_path / "one.txt"
    heldout = (synth_dir / "population_heldout.txt").read_text(encoding="utf-8")
    one.write_text(heldout.splitlines()[0] + "\n", encoding="utf-8")
    regions = json.loads((piped / "eval_report.json").read_text(encoding="utf-8"))["regions"]
    operator = tmp_path / "operator.csv"
    capsys.readouterr()
    assert run(["calibrate", "--confusion", piped / "confusion.csv",
                "--model", piped / "model.json", "--reference", one, "--out", operator]) == 3
    assert not operator.exists()
    (tmp_path / "again").mkdir()
    config = _pipeline_config(tmp_path / "again", synth_dir, synth_dir / "corpus.tsv", one)
    assert run(["pipeline", "--config", config]) == 3
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert len(errors) == 2
    for err in errors:
        prefix = "config error: reference population yields zero guesses for: "
        assert err.startswith(prefix), err
        missing = err[len(prefix):].split(", ")
        assert len(missing) == len(regions) - 1
        assert missing == [r for r in regions if r in missing]


def test_pipeline_classifies_each_dataset_once(tmp_path, synth_dir, monkeypatch):
    """With a reference and two targets, each dataset's names are classified
    in one call: the reference's tally calibrates and is compared too."""
    from onoma import diversity

    heldout = (synth_dir / "population_heldout.txt").read_text(encoding="utf-8").splitlines()
    files = {"first": heldout[:150], "last": heldout[-200:]}
    for name, names in files.items():
        (tmp_path / f"{name}.txt").write_text("\n".join(names) + "\n", encoding="utf-8")
    config = _pipeline_config(tmp_path, synth_dir, synth_dir / "corpus.tsv",
                              synth_dir / "population_heldout.txt")
    doc = json.loads(config.read_text(encoding="utf-8"))
    doc["targets"] = [str(tmp_path / f"{name}.txt") for name in files]
    config.write_text(json.dumps(doc), encoding="utf-8")
    calls = []

    def counted(model, surnames):
        calls.append(list(surnames))
        return inner(model, surnames)

    inner = diversity.classify_batch
    monkeypatch.setattr(diversity, "classify_batch", counted)
    assert run(["pipeline", "--config", config]) == 0
    assert calls == [heldout, files["first"], files["last"]]
