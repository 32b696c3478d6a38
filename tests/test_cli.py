"""Command surface: formats, exit codes, the build and read paths end to end."""

import argparse
import json
import math
import os
import random
import subprocess
import sys
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import onoma
from onoma import synth
from onoma.classifier import Labeled, TrainedModel, train
from onoma.cli import PipelineConfig, build_parser, main, read_config
from onoma.correction import CorrectionOperator
from onoma.errors import ConfigError, InputFormatError
from onoma.features import NGramConfig, featurize
from onoma.resources import reference_confusion_path
from onoma.util import dumps


def run(argv):
    return main([str(a) for a in argv])


def _config(tmp_path, **doc):
    """A pipeline config file in `tmp_path` with seed 1, out dir `out` and the keys of `doc`."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, "out_dir": str(tmp_path / "out"), **doc}),
                      encoding="utf-8")
    return config


def synth_files_config(tmp_path, spec, **settings):
    """A pipeline config over the files `onoma synth --spec` writes for `spec`
    to `tmp_path / "data"`: its corpus, its registry, its first population as
    the reference and the others as targets. The config's seed is the
    spec's, its out dir `tmp_path / "out"`; `settings` are further keys."""
    spec.save(tmp_path / "spec.json")
    data = tmp_path / "data"
    assert run(["synth", "--spec", tmp_path / "spec.json", "--out-dir", data]) == 0
    reference, *targets = (str(data / f"population_{p.name}.txt") for p in spec.populations)
    return _config(tmp_path, seed=spec.seed, corpus=str(data / "corpus.tsv"),
                   registry=str(data / "countries.tsv"), reference=reference, targets=targets,
                   **settings)


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
    alone = dumps(synth.score_pipeline(spec, min_core_names=10, alpha=0.1))
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
    config = synth_files_config(tmp_path, spec, k_regions=4, min_core_names=10)
    assert run(["pipeline", "--config", config]) == 0
    out = tmp_path / "out"
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert (card["n_core_names"], card["n_eval"]) == (summary["n_core_names"], summary["n_eval"])
    assert sorted(card["region_map"]) == sorted(summary["regions"])

    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    counts = report["datasets"]["population_reference"]["counts"]
    truth_file = tmp_path / "data" / "population_reference_truth.json"
    truth = json.loads(truth_file.read_text(encoding="utf-8"))
    true_index = {r: i for i, r in enumerate(card["true_regions"])}
    estimated = np.zeros(len(card["true_regions"]))
    for region, count in counts.items():  # in the model's region order
        estimated[true_index[card["region_map"][region]]] += count
    total = float(sum(truth.values()))
    truth_vec = np.array([truth[r] for r in card["true_regions"]], dtype=float)
    assert card["l1_corrected"] == float(np.abs(estimated / total - truth_vec / total).sum())


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
    spec = synth.standard_spec(
        3, 2, 100, 0.25, seed=3,
        populations=(synth.PopulationSpec("reference", 200, (1.0, 2.0, 4.0)),),
    )
    config = synth_files_config(tmp_path, spec, k_regions=3, min_core_names=5)
    capsys.readouterr()
    assert run(["pipeline", "--config", config]) == 0
    err = capsys.readouterr().err
    assert "stage: ingest" not in err and "filter-core:" not in err
    assert "country-matrix:" not in err
    assert run(["-v", "pipeline", "--config", config]) == 0
    err = capsys.readouterr().err
    assert "stage: ingest" in err and "stage: calibrate" in err
    assert "surnames read" in err
    assert "country-matrix: 6 countries with core names" in err
    # The funnel counts go to the log only, never into an artifact.
    for path in (tmp_path / "out").iterdir():
        text = path.read_text(encoding="utf-8")
        assert "surnames read" not in text, path.name
        assert "countries with core names" not in text, path.name


def test_pipeline_artifacts_equal_per_surname_and_per_element_reference(tmp_path, monkeypatch):
    """Every artifact is byte-equal to a run through the reference core filter
    and JSON writer kept in the corpus and util tests."""
    from onoma import stages, util
    from test_corpus import as_core_set, parent_filter_core_names
    from test_util import parent_emit

    spec = synth.standard_spec(
        3, 3, 120, 0.4, seed=11,
        populations=(synth.PopulationSpec("reference", 300, (1.0, 2.0, 4.0)),
                     synth.PopulationSpec("target", 200, (4.0, 2.0, 1.0))),
    )
    config = synth_files_config(tmp_path, spec, k_regions=3, min_core_names=5)
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
    corpus = (tmp_path / "data" / "corpus.tsv").read_text(encoding="utf-8").splitlines()
    summary = json.loads((now / "summary.json").read_text(encoding="utf-8"))
    assert summary["n_records"] == len(corpus)
    assert summary["n_surnames"] == len({line.split("\t")[0] for line in corpus})


def test_stage_chain(tmp_path, synth_dir, piped):
    """The pipeline's build artifacts, then the read path on its saved model."""
    for name in ("core.tsv", "labeled.tsv", "typology.tsv", "dendrogram.tsv"):
        assert (piped / name).exists(), name
    doc = json.loads((piped / "eval_report.json").read_text(encoding="utf-8"))
    assert doc["n_eval"] > 0

    model, confusion = piped / "model.json", piped / "confusion.csv"
    reference = synth_dir / "population_heldout.txt"
    target = tmp_path / "target.txt"
    target.write_text("\n".join(reference.read_text(encoding="utf-8").splitlines()[:200]) + "\n",
                      encoding="utf-8")
    compare_dir = tmp_path / "cmp"
    assert run(
        ["compare", "--model", model, "--confusion", confusion,
         "--reference", reference, target, "--out-dir", compare_dir]
    ) == 0
    assert (compare_dir / "operator.csv").exists()

    # Passing the reference file as a target too collides on dataset names.
    assert run(
        ["compare", "--model", model, "--confusion", confusion,
         "--reference", reference, str(reference), "--out-dir", tmp_path / "again"]
    ) == 3
    assert not (tmp_path / "again").exists()


def test_stage_commands_equal_pipeline(tmp_path):
    """On the pipeline's confusion matrix and model, `compare` writes the
    pipeline's operator and reports."""
    spec = synth.standard_spec(
        3, 3, 150, 0.3, seed=5,
        populations=(synth.PopulationSpec("reference", 400, (1.0, 2.0, 4.0)),
                     synth.PopulationSpec("target", 300, (4.0, 2.0, 1.0))),
    )
    config = synth_files_config(tmp_path, spec, k_regions=3, min_core_names=5)
    assert run(["pipeline", "--config", config]) == 0
    data, pipe = tmp_path / "data", tmp_path / "out"
    reference, target = data / "population_reference.txt", data / "population_target.txt"

    st = tmp_path / "stages"
    assert run(["compare", "--model", pipe / "model.json", "--confusion", pipe / "confusion.csv",
                "--reference", reference, target, "--out-dir", st]) == 0

    shared = sorted({p.name for p in st.iterdir()} & {p.name for p in pipe.iterdir()})
    assert shared == ["distributions.csv", "operator.csv", "ratios.csv", "report.json"]
    for name in shared:
        if name != "report.json":
            assert (st / name).read_bytes() == (pipe / name).read_bytes(), name
    chained = json.loads((st / "report.json").read_text(encoding="utf-8"))
    piped = json.loads((pipe / "report.json").read_text(encoding="utf-8"))
    assert "config" not in chained["provenance"]
    del piped["provenance"]["config"]
    assert chained == piped


def test_compare_of_a_reference_alone_is_the_pipelines_distribution(tmp_path, synth_dir, piped):
    """Given no targets, `compare` writes the reference's corrected
    distribution: on a pipeline run with that reference alone, its operator
    and distributions bytes, and the same report row."""
    reference = synth_dir / "population_heldout.txt"
    alone = tmp_path / "alone"
    assert run(["compare", "--model", piped / "model.json", "--confusion", piped / "confusion.csv",
                "--reference", reference, "--out-dir", alone]) == 0
    for name in ("operator.csv", "distributions.csv"):
        assert (alone / name).read_bytes() == (piped / name).read_bytes(), name
    row, piped_row = (json.loads((d / "report.json").read_text(encoding="utf-8"))
                      ["datasets"]["population_heldout"] for d in (alone, piped))
    for key in ("n_names", "n_prior_only", "counts", "proportions"):
        assert row[key] == piped_row[key], key
    assert row["n_names"] == 400
    assert sum(row["proportions"].values()) == pytest.approx(1.0, abs=1e-9)


def test_typology_names_regions_as_synth_score_does(tmp_path):
    """At k other than 7, `pipeline` and `synth --score` give a cluster one name."""
    data = tmp_path / "synth"
    assert run(["synth", "--regions", 4, "--countries-per-region", 5, "--names", 100,
                "--overlap", 0.2, "--seed", 1, "--population-size", 300,
                "--min-core-names", 10, "--out-dir", data, "--score"]) == 0
    config = _config(tmp_path, corpus=str(data / "corpus.tsv"),
                     registry=str(data / "countries.tsv"), k_regions=4, min_core_names=10)
    assert run(["pipeline", "--config", config]) == 0
    lines = (tmp_path / "out" / "typology.tsv").read_text(encoding="utf-8").splitlines()
    card = json.loads((data / "scorecard.json").read_text(encoding="utf-8"))
    assert {line.split("\t")[1] for line in lines} == set(card["region_map"])


def test_compare_takes_no_operator(tmp_path, synth_dir, piped, capsys):
    """`compare` calibrates on its own reference, so a saved operator is a
    usage error that writes nothing."""
    reference = synth_dir / "population_heldout.txt"
    assert run(["compare", "--model", piped / "model.json", "--operator", piped / "operator.csv",
                "--reference", reference, tmp_path / "target.txt",
                "--out-dir", tmp_path / "cmp"]) == 1
    assert "--confusion" in capsys.readouterr().err
    assert not (tmp_path / "cmp").exists()


def test_compare_identical_files_gives_flat_profile(tmp_path, synth_dir, piped):
    reference = synth_dir / "population_heldout.txt"
    target = tmp_path / "copy.txt"
    target.write_text(reference.read_text(encoding="utf-8"), encoding="utf-8")
    compare_dir = tmp_path / "cmp"
    assert run(
        ["compare", "--model", piped / "model.json", "--confusion", piped / "confusion.csv",
         "--reference", reference, target, "--out-dir", compare_dir]
    ) == 0
    doc = json.loads((compare_dir / "report.json").read_text(encoding="utf-8"))
    for region, value in doc["datasets"]["copy"]["ratios"].items():
        assert value == 1.0, region


def test_exit_code_usage():
    assert run(["compare"]) == 1  # missing required options
    assert run(["no-such-command"]) == 1


def test_the_commands_are_the_build_and_the_read_path():
    """`pipeline` builds (`synth` makes its data), and `compare` applies a saved model."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"synth", "pipeline", "compare"}
    for command in ("ingest", "filter-core", "typology", "train", "evaluate", "calibrate",
                    "classify-population"):
        assert run([command]) == 1, command


def test_exit_code_input_format(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("not a valid row\n", encoding="utf-8")
    assert run(["pipeline", "--config", _config(tmp_path, corpus=str(bad))]) == 2


def test_exit_code_config(tmp_path, synth_dir):
    config = _config(tmp_path, corpus=str(synth_dir / "corpus.tsv"),
                     registry=str(synth_dir / "countries.tsv"), hhi_min=7.0)
    assert run(["pipeline", "--config", config]) == 3


@pytest.mark.parametrize(
    "name", [pytest.param(name, id=f"synth:{name}") for name in ("min_core_names", "alpha")]
)
def test_stage_option_defaults_are_the_config_field_defaults(name):
    args = build_parser().parse_args(["synth", "--out-dir", "o"])
    field = next(f for f in fields(PipelineConfig) if f.name == name)
    assert getattr(args, name) == field.default


@pytest.mark.parametrize("score", [[], ["--score"]], ids=["plain", "score"])
@pytest.mark.parametrize(
    "option, value, message",
    [("--alpha", -1, "--alpha must be > 0 and finite, got -1.0"),
     ("--alpha", "inf", "--alpha must be > 0 and finite, got inf"),
     ("--min-core-names", 0, "--min-core-names must be >= 1, got 0")],
    ids=["alpha", "alpha-inf", "min_core_names"],
)
def test_synth_checks_its_settings_before_writing(tmp_path, capsys, score, option, value, message):
    out = tmp_path / "synth"
    assert run(["synth", "--regions", 2, "--countries-per-region", 2, "--names", 50,
                "--overlap", 0.2, "--seed", 1, "--out-dir", out, option, value, *score]) == 3
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def _spec_file(tmp_path, *names):
    """A 2x2x50 spec file with a population of 50 names for each of `names`,
    which the spec's own checks do not see."""
    spec = synth.standard_spec(2, 2, 50, 0.2, seed=1,
                               populations=(synth.PopulationSpec("p", 50, (1.0, 1.0)),))
    doc = json.loads(spec.to_json())
    doc["populations"] = [{**doc["populations"][0], "name": name} for name in names]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_synth_score_checks_the_population_name_before_writing(tmp_path, capsys):
    """A population name is a dataset name, so it must fit one field of the
    report's CSV files; the spec is malformed otherwise, with --score or not."""
    spec = _spec_file(tmp_path, "a,b")
    out = tmp_path / "synth"
    for score in (["--score"], []):
        assert run(["synth", "--spec", spec, "--out-dir", out, *score]) == 2
        err = capsys.readouterr().err
        assert f"input error: {spec}: malformed spec: population name 'a,b' holds" in err
        assert not out.exists()


@pytest.mark.parametrize(
    "names, message",
    [(("x", "x"), "population names must be unique"),
     (("x", "a/b"), "population name 'a/b' holds '/', a comma or a line break")],
    ids=["repeated", "slash"],
)
def test_synth_spec_rejects_a_population_name_it_cannot_write(tmp_path, capsys, names, message):
    """Each population is written to `population_<name>.txt`: a second one of
    the same name would overwrite the first, and a '/' names another directory."""
    spec = _spec_file(tmp_path, *names)
    out = tmp_path / "synth"
    assert run(["synth", "--spec", spec, "--out-dir", out]) == 2
    assert f"input error: {spec}: malformed spec: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "option, value",
    [("--regions", 2), ("--countries-per-region", 2), ("--names", 50), ("--overlap", 0.2),
     ("--seed", 1), ("--population-size", 100)],
)
def test_synth_spec_takes_no_option_the_spec_sets(tmp_path, capsys, option, value):
    """A spec file sets what these options set; given with it, one is a usage error."""
    synth.standard_spec(2, 2, 50, 0.2, seed=1).save(tmp_path / "spec.json")
    out = tmp_path / "synth"
    assert run(["synth", "--spec", tmp_path / "spec.json", option, value, "--out-dir", out]) == 1
    assert f"onoma synth: --spec cannot be combined with {option}" in capsys.readouterr().err
    assert not out.exists()


def test_synth_score_warns_of_low_corrected_counts(tmp_path, capsys):
    """The scored population goes through `compare`, which warns of a region
    whose corrected count is below 5."""
    out = tmp_path / "synth"
    assert run(["synth", "--regions", 3, "--countries-per-region", 2, "--names", 120,
                "--overlap", 0.2, "--seed", 1, "--population-size", 20,
                "--min-core-names", 10, "--out-dir", out, "--score"]) == 0
    assert "dataset heldout: corrected count below 5" in capsys.readouterr().err


def _two_region_model(tmp_path):
    """A model of regions A and B saved to `model.json`, and a population file."""
    names, labeled = Labeled.from_pairs([("abc", "A"), ("abd", "A"), ("xyz", "B"), ("xyw", "B")])
    model = tmp_path / "model.json"
    train(labeled, featurize(names), 0.1).save(model)
    population = tmp_path / "population.txt"
    population.write_text("abc\nxyz\n", encoding="utf-8")
    return model, population


def _compare_two_region(tmp_path, model, population, confusion=None):
    """The exit code of `compare` of the reference `population` alone into
    `tmp_path / "cmp"`, with `confusion` or else a confusion of regions A and B."""
    if confusion is None:
        confusion = tmp_path / "confusion.csv"
        confusion.write_text("guessed,A,B\nA,3,1\nB,1,3\n", encoding="utf-8")
    return run(["compare", "--model", model, "--confusion", confusion,
                "--reference", population, "--out-dir", tmp_path / "cmp"])


def test_apply_hands_the_operator_then_the_tallies_and_the_comparison(tmp_path):
    from onoma import stages
    from onoma.classifier import TrainedModel
    from onoma.correction import ConfusionCounts

    model = TrainedModel.load(_two_region_model(tmp_path)[0])
    confusion = ConfusionCounts(("A", "B"), np.array([[3.0, 1.0], [1.0, 3.0]]))
    for datasets, names in (
        ([], ["operator"]),
        ([("ref", ["abc", "xyz"]), ("t", ["abc"])], ["operator", "tallies", "compare"]),
    ):
        got = []
        stages.apply(model, confusion, datasets, lambda name, result: got.append((name, result)))
        assert [name for name, _ in got] == names
    tallies = dict(got[1][1])
    assert [tallies["ref"][0].tolist(), tallies["t"][0].tolist()] == [[1.0, 1.0], [1.0, 0.0]]
    dists, profiles = got[2][1]
    assert [d.dataset_name for d in dists] == [p.dataset_name for p in profiles] == ["ref", "t"]


MODEL_VALUES_OF_THE_WRONG_KIND = [
    ("strip_diacritics", "no"), ("strip_diacritics", 0), ("pad_boundaries", 1),
    ("start_marker", 5), ("n_values", ["2", "3"]), ("n_values", [2.0]), ("alpha", True),
    ("alpha", "0.1"), ("regions", "AB"), ("regions", {"A": 1, "B": 2}), ("vocabulary", 1),
]


@pytest.mark.parametrize("key, value", MODEL_VALUES_OF_THE_WRONG_KIND)
def test_a_model_value_of_the_wrong_kind_is_malformed(tmp_path, capsys, key, value):
    """The model reader takes each value only of its JSON kind: none is
    turned into a bool, a number, a string or a list (the vocabulary's first
    token is made a number)."""
    model, population = _two_region_model(tmp_path)
    doc = json.loads(model.read_text(encoding="utf-8"))
    if key == "vocabulary":
        doc[key][0] = value
    else:
        where = doc if key in ("alpha", "regions") else doc["feature_config"]
        where[key] = value
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert _compare_two_region(tmp_path, model, population) == 2
    assert f"input error: {model}: malformed model file: " in capsys.readouterr().err
    assert not (tmp_path / "cmp").exists()


@pytest.mark.parametrize(
    "edit",
    [lambda doc: doc.update(log_priors=list(map(str, doc["log_priors"]))),
     lambda doc: doc.update(log_priors=[True, False]),
     lambda doc: doc["log_likelihoods"][1].__setitem__(0, "-1.5"),
     lambda doc: doc["log_likelihoods"][0].__setitem__(-1, None),
     lambda doc: doc.update(log_likelihoods=["abc", "def"])],
    ids=["prior_strings", "prior_bools", "likelihood_string", "likelihood_null", "row_strings"],
)
def test_a_model_number_that_is_no_json_number_is_malformed(tmp_path, capsys, edit):
    """The model reader takes each log prior and log likelihood only as a
    JSON number: a string or a bool is not turned into a float."""
    model, population = _two_region_model(tmp_path)
    doc = json.loads(model.read_text(encoding="utf-8"))
    edit(doc)
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert _compare_two_region(tmp_path, model, population) == 2
    err = capsys.readouterr().err
    assert (f"input error: {model}: malformed model file: log_priors and log_likelihoods"
            " must hold JSON numbers") in err
    assert not (tmp_path / "cmp").exists()


@pytest.mark.parametrize("key, marker", [("start_marker", "<"), ("end_marker", ">")])
def test_a_model_with_other_boundary_markers_is_malformed(tmp_path, capsys, key, marker):
    """Every model pads words with `^` and `$`; a model file that names
    other markers is malformed."""
    model, population = _two_region_model(tmp_path)
    doc = json.loads(model.read_text(encoding="utf-8"))
    doc["feature_config"][key] = marker
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert _compare_two_region(tmp_path, model, population) == 2
    assert (f"input error: {model}: malformed model file: the boundary markers must be"
            " '^' and '$'") in capsys.readouterr().err
    assert not (tmp_path / "cmp").exists()


def test_malformed_operator_and_confusion_files_are_input_errors(tmp_path, capsys):
    """No command reads an operator, so its reader is checked in the library."""
    model, population = _two_region_model(tmp_path)
    operator = tmp_path / "operator.csv"
    operator.write_text("guessed,A,B\nA,0.5,1\nB,0,1\n", encoding="utf-8")
    with pytest.raises(InputFormatError) as raised:
        CorrectionOperator.from_csv(operator)
    assert str(raised.value) == f"{operator}: operator rows must sum to 1"
    confusion = tmp_path / "confusion.csv"
    confusion.write_text("guessed,A,B\nA,3,0\nB,1,0\n", encoding="utf-8")
    assert _compare_two_region(tmp_path, model, population, confusion) == 2
    err = capsys.readouterr().err
    assert f"input error: {confusion}: regions with zero actual names: B" in err
    assert not (tmp_path / "cmp").exists()


@pytest.mark.parametrize(
    "key, value, shown",
    [("log_likelihoods", math.nan, "NaN"), ("alpha", math.nan, "NaN"),
     ("alpha", math.inf, "Infinity"), ("log_priors", -math.inf, "-Infinity")],
)
def test_a_model_file_with_a_non_finite_number_is_an_input_error(tmp_path, capsys, key, value,
                                                                   shown):
    model, population = _two_region_model(tmp_path)
    doc = json.loads(model.read_text(encoding="utf-8"))
    if key == "alpha":
        doc[key] = value
    else:
        first = doc[key][0] if key == "log_likelihoods" else doc[key]
        first[0] = value
    model.write_text(json.dumps(doc), encoding="utf-8")  # json writes NaN, Infinity
    assert _compare_two_region(tmp_path, model, population) == 2
    err = capsys.readouterr().err
    assert f"input error: {model}: not valid JSON: non-finite number {shown}" in err
    assert not (tmp_path / "cmp").exists()


@pytest.mark.parametrize(
    "reader",
    ["model", "population", "operator", "confusion", "spec", "config", "corpus", "registry",
     "overrides"],
)
def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, synth_dir, capsys, reader):
    """Every file reader reports bytes that are not UTF-8 as an input error in
    that file, and nothing is written; no command reads an operator, so its
    reader is the library's."""
    bad = tmp_path / "bad"
    bad.write_bytes(b"abc\n\xff\n")
    model, population = _two_region_model(tmp_path)
    confusion = tmp_path / "confusion.csv"
    confusion.write_text("guessed,A,B\nA,3,1\nB,1,3\n", encoding="utf-8")
    files = {"model": model, "population": population, "confusion": confusion, reader: bad}
    out = tmp_path / "out"
    if reader == "operator":
        with pytest.raises(InputFormatError) as raised:
            CorrectionOperator.from_csv(bad)
        assert str(raised.value) == f"{bad}: not valid UTF-8 at byte 4"
        return
    if reader in ("model", "population", "confusion"):
        argv = ["compare", "--model", files["model"], "--confusion", files["confusion"],
                "--reference", files["population"], "--out-dir", out]
    elif reader == "spec":
        argv = ["synth", "--spec", bad, "--out-dir", out]
    else:  # the pipeline's config writes to `out`
        config = _pipeline_config(tmp_path, synth_dir, synth_dir / "corpus.tsv",
                                  synth_dir / "population_heldout.txt")
        if reader != "config":
            doc = json.loads(config.read_text(encoding="utf-8"))
            config.write_text(json.dumps({**doc, reader: str(bad)}), encoding="utf-8")
        argv = ["pipeline", "--config", bad if reader == "config" else config]
    assert run(argv) == 2
    # The corpus is read a block at a time; every other file at once.
    where = "" if reader == "corpus" else " at byte 4"
    assert f"input error: {bad}: not valid UTF-8{where}\n" in capsys.readouterr().err
    assert not out.exists()


def test_every_reader_skips_a_byte_order_mark(tmp_path, synth_dir, piped):
    """A file saved with a UTF-8 byte-order mark reads as the file without it."""
    from onoma.classifier import TrainedModel
    from onoma.cli import _read_population
    from onoma.correction import ConfusionCounts, CorrectionOperator
    from onoma.corpus import CountryRegistry, read_corpus_tsv, render_corpus_tsv
    from onoma.typology import load_overrides

    registry = CountryRegistry.from_tsv(synth_dir / "countries.tsv")
    overrides = tmp_path / "overrides.tsv"
    overrides.write_text("DELETE\tAA\n", encoding="utf-8")
    readers = {
        synth_dir / "corpus.tsv": lambda p: render_corpus_tsv(read_corpus_tsv(p, registry)),
        synth_dir / "countries.tsv": lambda p: CountryRegistry.from_tsv(p).to_tsv(),
        synth_dir / "population_heldout.txt": lambda p: _read_population(p, False),
        synth_dir / "spec.json": lambda p: synth.SynthSpec.load(p).to_json(),
        tmp_path / "config.json": lambda p: read_config(p, {}),
        overrides: load_overrides,
        piped / "model.json": lambda p: TrainedModel.load(p).to_json(),
        piped / "confusion.csv": lambda p: ConfusionCounts.from_csv(p).matrix.tolist(),
        piped / "operator.csv": lambda p: CorrectionOperator.from_csv(p).to_csv(),
    }
    for path, read in readers.items():
        marked = path.with_name("bom_" + path.name)
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert read(marked) == read(path), path.name


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
def test_operator_and_confusion_files_with_a_non_finite_cell_are_input_errors(tmp_path, capsys,
                                                                               cell):
    """No command reads an operator, so its reader is checked in the library."""
    model, population = _two_region_model(tmp_path)
    operator = tmp_path / "operator.csv"
    operator.write_text(f"guessed,A,B\nA,1,0\nB,{cell},1\n", encoding="utf-8")
    with pytest.raises(InputFormatError) as raised:
        CorrectionOperator.from_csv(operator)
    assert str(raised.value) == f"{operator}: row 3: non-finite cell"
    confusion = tmp_path / "confusion.csv"
    confusion.write_text(f"guessed,A,B\nA,3,1\nB,{cell},2\n", encoding="utf-8")
    assert _compare_two_region(tmp_path, model, population, confusion) == 2
    assert f"input error: {confusion}: row 3: non-finite cell" in capsys.readouterr().err
    assert not (tmp_path / "cmp").exists()


@pytest.mark.parametrize("where", ["start", "transition", "volume", "population weight"])
def test_a_spec_file_with_a_non_finite_number_is_an_input_error(tmp_path, capsys, where):
    spec = synth.standard_spec(2, 2, 50, 0.2, seed=1,
                               populations=(synth.PopulationSpec("p", 100, (1.0, 1.0)),))
    doc = json.loads(spec.to_json())
    chain = doc["regions"][0]["chain"]
    if where == "start":
        chain["start"]["b"] = math.nan
    elif where == "transition":
        chain["transitions"]["a"]["b"] = math.nan
    elif where == "volume":
        doc["countries"][0]["volume"] = math.nan
    else:
        doc["populations"][0]["region_weights"][0] = math.nan
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "synth"
    assert run(["synth", "--spec", path, "--out-dir", out, "--score"]) == 2
    err = capsys.readouterr().err
    assert f"input error: {path}: not valid JSON: non-finite number NaN" in err
    assert not out.exists()


def _edited_spec(tmp_path, edit):
    """A 2x2x30 spec file with a population, its JSON document changed by `edit`."""
    spec = synth.standard_spec(2, 2, 30, 0.3, seed=1,
                               populations=(synth.PopulationSpec("p", 30, (1.0, 1.0)),))
    doc = json.loads(spec.to_json())
    edit(doc)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("chain", ["global", "region"])
@pytest.mark.parametrize("transitions", [[], "x", 7, None, True, 0.5])
def test_a_spec_chain_whose_transitions_are_no_object_is_malformed(tmp_path, capsys, chain,
                                                                    transitions):
    def edit(doc):
        where = doc["global_chain"] if chain == "global" else doc["regions"][0]["chain"]
        where["transitions"] = transitions

    path = _edited_spec(tmp_path, edit)
    out = tmp_path / "synth"
    assert run(["synth", "--spec", path, "--out-dir", out]) == 2
    err = capsys.readouterr().err
    assert f"input error: {path}: malformed spec: transitions must be a JSON object" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [("n_names", 30.7), ("min_len", 2.9), ("seed", 1.5), ("n_names", "30"), ("overlap", "0.3"),
     ("volume", True), ("order", True), ("start", [["a", 1.0]]), ("weight", False),
     ("probability", True), ("max_len", 1e308), ("max_len", 1_000_000_000)],
)
def test_a_spec_number_of_the_wrong_kind_or_out_of_bounds_is_malformed(tmp_path, capsys, key,
                                                                        value):
    """The spec reader takes a number only of its field's kind, as the config
    reader does, and a name at most 1,000 characters long."""
    def edit(doc):
        region, country = doc["regions"][0], doc["countries"][0]
        chain = region["chain"]
        where = {"n_names": country, "volume": country, "min_len": region, "max_len": region,
                 "seed": doc, "overlap": doc, "order": chain, "start": chain}
        if key == "weight":
            doc["populations"][0]["region_weights"][0] = value
        elif key == "probability":
            chain["start"] = {"a": value}
        else:
            where[key][key] = value

    path = _edited_spec(tmp_path, edit)
    out = tmp_path / "synth"
    assert run(["synth", "--spec", path, "--out-dir", out]) == 2
    assert f"input error: {path}: malformed spec: " in capsys.readouterr().err
    assert not out.exists()


SPEC_STRINGS_OF_THE_WRONG_KIND = [
    ("label", 12), ("label", None), ("code", 7), ("code", None), ("region", None),
    ("region", ["R0"]), ("name", 12), ("name", True),
]


@pytest.mark.parametrize("key, value", SPEC_STRINGS_OF_THE_WRONG_KIND)
def test_a_spec_string_of_the_wrong_kind_is_malformed(tmp_path, capsys, key, value):
    """The spec reader takes a region label, a country code or region, and a
    population name only as a string: none is turned into one."""
    def edit(doc):
        where = {"label": doc["regions"][0], "code": doc["countries"][0],
                 "region": doc["countries"][0], "name": doc["populations"][0]}
        where[key][key] = value

    path = _edited_spec(tmp_path, edit)
    out = tmp_path / "synth"
    assert run(["synth", "--spec", path, "--out-dir", out]) == 2
    err = capsys.readouterr().err
    assert f"input error: {path}: malformed spec: {key} must be a string, got {value!r}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "where, key, typo",
    [("countries", "volume", "volme"), ("spec", "overlap", "overlapp"),
     ("regions", "max_len", "max_length")],
)
def test_a_spec_key_no_field_reads_is_malformed(tmp_path, capsys, where, key, typo):
    """A misspelt key is not left to its field's default: the spec reader
    names it, as the config reader names an unknown config key."""
    def edit(doc):
        obj = doc if where == "spec" else doc[where][0]
        obj[typo] = obj.pop(key)

    path = _edited_spec(tmp_path, edit)
    out = tmp_path / "synth"
    assert run(["synth", "--spec", path, "--out-dir", out]) == 2
    what = {"countries": "country", "spec": "spec", "regions": "region"}[where]
    err = capsys.readouterr().err
    assert f"input error: {path}: malformed spec: unknown {what} keys: {typo}\n" in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("hhi_min", math.nan), ("alpha", math.inf)])
def test_a_config_file_with_a_non_finite_number_is_an_input_error(tmp_path, synth_dir, capsys,
                                                                  key, value):
    config = _config(tmp_path, corpus=str(synth_dir / "corpus.tsv"), **{key: value})
    assert run(["pipeline", "--config", config]) == 2
    assert f"input error: {config}: not valid JSON: non-finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option", ["--seed", "--k", "--alpha"])
def test_pipeline_takes_its_settings_from_the_config_file_alone(tmp_path, capsys, option):
    config = _config(tmp_path, corpus="corpus.tsv")
    assert run(["pipeline", "--config", config, option, 3]) == 1
    assert f"unrecognized arguments: {option} 3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _single_country_corpus(tmp_path, sizes):
    """A corpus of `sizes[country]` names seen in that country alone, and a
    config for it with k 3 and `min_core_names` 1."""
    rng = random.Random(7)
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("".join(
        f"{country.lower()}{''.join(rng.choices('abcdefghij', k=5))}\t{country}\t3\n"
        for country, n in sizes.items() for _ in range(n)
    ), encoding="utf-8")
    return _config(tmp_path, corpus=str(corpus), k_regions=3, min_core_names=1)


@pytest.mark.parametrize(
    "sizes, message",
    [({"US": 5, "FR": 5, "JP": 5}, "empty evaluation set"),
     ({"US": 3, "FR": 40, "JP": 40}, "regions with zero actual names: US")],
    ids=["no_evaluation_names", "region_without_evaluation_names"],
)
def test_too_few_core_names_to_evaluate_is_a_config_error(tmp_path, capsys, sizes, message):
    config = _single_country_corpus(tmp_path, sizes)
    assert run(["pipeline", "--config", config]) == 3
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "internal error" not in err
    assert not (tmp_path / "out" / "summary.json").exists()


def test_a_confusion_row_with_no_guesses_is_a_config_error(tmp_path, capsys):
    model, population = _two_region_model(tmp_path)
    confusion = tmp_path / "confusion.csv"
    confusion.write_text("guessed,A,B\nA,0,0\nB,1,1\n", encoding="utf-8")
    assert _compare_two_region(tmp_path, model, population, confusion) == 3
    assert "config error: zero row sum for guessed region(s): A" in capsys.readouterr().err
    assert not (tmp_path / "cmp").exists()


def test_synth_score_reports_a_generated_marker_as_an_input_error(tmp_path, capsys):
    """A spec whose chains emit the start marker is malformed: the spec
    reader rejects the symbol, with or without `--score`, before any file
    is written."""
    spec = synth.standard_spec(2, 2, 50, 0.2, seed=1).to_json().replace('"a":', '"^":')
    path = tmp_path / "spec.json"
    path.write_text(spec, encoding="utf-8")
    out = tmp_path / "synth"
    for score in ([], ["--score"]):
        assert run(["synth", "--spec", path, "--out-dir", out, "--min-core-names", 5,
                    *score]) == 2
        err = capsys.readouterr().err
        assert f"input error: {path}: malformed spec: symbol '^' is a boundary marker" in err
        assert not out.exists()


@pytest.mark.parametrize(
    "symbol, problem",
    [("\t", "is whitespace"), ("\n", "is whitespace"), (" ", "is whitespace"),
     ("\u2028", "is whitespace"), ("$", "is a boundary marker"),
     ("Q", "changes under normalize_surname"), ("\u212b", "changes under normalize_surname"),
     ("\u0301", "is a combining mark")],
    ids=["tab", "line_feed", "space", "line_separator", "marker", "upper_case", "angstrom_sign",
         "combining_acute"],
)
@pytest.mark.parametrize("chain", ["global", "region"])
def test_a_spec_symbol_a_corpus_cannot_carry_back_is_malformed(tmp_path, capsys, chain, symbol,
                                                               problem):
    """A chain symbol that a corpus file would split, reject or change is
    malformed: the spec's chains generate only names the corpus reader
    reads back as they are."""
    def edit(doc):
        where = doc["global_chain"] if chain == "global" else doc["regions"][0]["chain"]
        where["transitions"]["b"][symbol] = where["transitions"]["b"].pop("a")

    path = _edited_spec(tmp_path, edit)
    out = tmp_path / "synth"
    assert run(["synth", "--spec", path, "--out-dir", out, "--score"]) == 2
    err = capsys.readouterr().err
    assert f"input error: {path}: malformed spec: symbol {symbol!r} {problem}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, problem",
    [("code", "A\tA", "is empty or holds whitespace"),
     ("code", "A A", "is empty or holds whitespace"), ("code", "", "is empty or holds whitespace"),
     ("code", "A,A", "is empty or holds whitespace, ',', '\"' or '#'"),
     ("code", "#A", "is empty or holds whitespace, ',', '\"' or '#'"),
     ("code", 'A"A', "is empty or holds whitespace, ',', '\"' or '#'"),
     ("label", "R\n0", "holds a tab or a line break"),
     ("label", "R\t0", "holds a tab or a line break"),
     ("label", "R\u20280", "holds a tab or a line break")],
    ids=["code_tab", "code_space", "code_empty", "code_comma", "code_hash", "code_quote",
         "label_line_feed", "label_tab", "label_line_separator"],
)
def test_a_spec_string_a_written_file_cannot_carry_back_is_malformed(tmp_path, capsys, key, value,
                                                                     problem):
    """A country code goes into `countries.tsv` and the corpus, and names a
    region in `confusion.csv` and `operator.csv`; a region label goes into
    `countries.tsv` and `truth.tsv`: neither may hold what would split its
    field or comment out its row."""
    def edit(doc):
        where = doc["regions"][0] if key == "label" else doc["countries"][0]
        where[key] = value
        if key == "label":  # its countries follow it
            for country in doc["countries"]:
                if country["region"] == "R0":
                    country["region"] = value

    path = _edited_spec(tmp_path, edit)
    out = tmp_path / "synth"
    assert run(["synth", "--spec", path, "--out-dir", out]) == 2
    err = capsys.readouterr().err
    assert f"input error: {path}: malformed spec: {key} {value!r} {problem}" in err
    assert not out.exists()


def test_a_registry_code_a_grid_file_cannot_carry_back_is_an_input_error(tmp_path, synth_dir,
                                                                        capsys):
    registry = tmp_path / "countries.tsv"
    text = (synth_dir / "countries.tsv").read_text(encoding="utf-8")
    registry.write_text(text + "a,a\tComma\n", encoding="utf-8")
    config = _config(tmp_path, corpus=str(synth_dir / "corpus.tsv"), registry=str(registry),
                     k_regions=3, min_core_names=5)
    assert run(["pipeline", "--config", config]) == 2
    line = len(text.splitlines()) + 1
    assert f"input error: {registry}: line {line}: code 'a,a' is empty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_an_override_region_is_upper_cased_as_its_country_is(tmp_path, synth_dir, piped):
    """A region is named after a country code, so `REASSIGN<TAB>ba<TAB>aa`
    reads as `REASSIGN<TAB>BA<TAB>AA`."""
    rows = dict(line.split("\t") for line in
                (piped / "typology.tsv").read_text(encoding="utf-8").splitlines())
    region = min(rows.values())
    country = min(c for c, r in rows.items() if r != region)
    overrides = tmp_path / "overrides.tsv"
    overrides.write_text(f"REASSIGN\t{country.lower()}\t{region.lower()}\n", encoding="utf-8")
    config = _config(tmp_path, corpus=str(synth_dir / "corpus.tsv"),
                     registry=str(synth_dir / "countries.tsv"), overrides=str(overrides),
                     k_regions=3, min_core_names=5, out_dir=str(tmp_path / "moved"))
    assert run(["pipeline", "--config", config]) == 0
    text = (tmp_path / "moved" / "typology.tsv").read_text(encoding="utf-8")
    assert f"# override\tREASSIGN\t{country}\t{region}\n" in text
    assert f"\n{country}\t{region}\n" in text


def test_a_lone_surrogate_in_a_json_input_is_an_input_error(tmp_path, synth_dir, capsys):
    """A spec whose chain emits "\\ud800", and a config whose out dir is it,
    are not valid JSON: the commands exit 2 and write nothing."""
    def edit(doc):
        row = doc["regions"][0]["chain"]["transitions"]["b"]
        row["\ud800"] = row.pop("a")

    path = _edited_spec(tmp_path, edit)
    assert "\\ud800" in path.read_text(encoding="utf-8")
    out = tmp_path / "spec_out"
    assert run(["synth", "--spec", path, "--out-dir", out, "--score"]) == 2
    err = capsys.readouterr().err
    assert f"input error: {path}: not valid JSON: lone surrogate '\\ud800'" in err
    assert not out.exists()
    config = _config(tmp_path, corpus=str(synth_dir / "corpus.tsv"),
                     registry=str(synth_dir / "countries.tsv"), k_regions=3, out_dir="\ud800")
    assert run(["pipeline", "--config", config]) == 2
    assert f"input error: {config}: not valid JSON: lone surrogate" in capsys.readouterr().err


def test_spec_symbols_that_compose_under_normalization_are_malformed(tmp_path, capsys):
    """U+1100 then U+1161 compose into one syllable under NFC, so a corpus
    file could not carry back the names a chain emitting both generates."""
    def edit(doc):
        row = doc["regions"][0]["chain"]["transitions"]["b"]
        row["\u1100"], row["\u1161"] = row.pop("a"), row.pop("c")

    path = _edited_spec(tmp_path, edit)
    out = tmp_path / "synth"
    assert run(["synth", "--spec", path, "--out-dir", out]) == 2
    assert (f"input error: {path}: malformed spec: symbols '\u1100' then '\u1161' change under"
            " normalize_surname") in capsys.readouterr().err
    assert not out.exists()


def test_a_value_error_the_command_does_not_expect_is_an_internal_error(monkeypatch, capsys,
                                                                         tmp_path):
    def broken(spec):
        raise ValueError("a bug")

    monkeypatch.setattr(synth, "generate", broken)
    assert run(["synth", "--regions", 2, "--countries-per-region", 2, "--names", 50,
                "--overlap", 0.2, "--seed", 1, "--out-dir", tmp_path / "synth"]) == 4
    assert "internal error: a bug" in capsys.readouterr().err


def test_any_other_exception_is_an_internal_error(monkeypatch, capsys, tmp_path):
    def broken(spec):
        raise KeyError("a bug")

    monkeypatch.setattr(synth, "generate", broken)
    argv = ["synth", "--regions", 2, "--countries-per-region", 2, "--names", 50,
            "--overlap", 0.2, "--seed", 1, "--out-dir", tmp_path / "synth"]
    assert run(argv) == 4
    err = capsys.readouterr().err
    assert "internal error: 'a bug'" in err and "Traceback" not in err
    assert run(["-v", *argv]) == 4  # -v also logs the traceback
    assert "Traceback (most recent call last)" in capsys.readouterr().err


def test_typology_of_one_country_is_a_config_error(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("".join(f"name{c}\tUS\t1\n" for c in "abcdef"), encoding="utf-8")
    config = _config(tmp_path, corpus=str(corpus), min_core_names=1)
    assert run(["pipeline", "--config", config]) == 3
    assert "config error: need at least 2 countries" in capsys.readouterr().err
    # The core filter's file is written; nothing of the typology or after it.
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["core.tsv"]


def test_corpus_format_errors_name_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tUS\t3\nbroken row\n", encoding="utf-8")
    assert run(["pipeline", "--config", _config(tmp_path, corpus=str(bad))]) == 2
    err = capsys.readouterr().err
    assert f"input error: {bad}: line 2: expected 3 tab-separated fields, got 1" in err
    assert not (tmp_path / "out").exists()


def _fresh_onoma(env: dict[str, str]) -> list[str]:
    """The `Threads:` count and OPENBLAS_NUM_THREADS after `import onoma`, then
    numpy, in a new interpreter, with OPENBLAS_NUM_THREADS taken from `env` alone (this
    process's pool depends on what the test session imported first)."""
    env = {
        **{k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"},
        **env,
        "PYTHONPATH": os.pathsep.join(
            filter(None, [str(Path(onoma.__file__).parents[1]), os.environ.get("PYTHONPATH")])
        ),
    }
    code = (
        "import os, onoma, numpy\n"
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


def test_pipeline_from_config(tmp_path):
    spec = synth.standard_spec(
        3, 2, 150, 0.25, seed=42,
        populations=(synth.PopulationSpec("reference", 500, (1.0, 2.0, 4.0)),
                     synth.PopulationSpec("elite", 300, (4.0, 2.0, 1.0))),
    )
    config = synth_files_config(tmp_path, spec, k_regions=3, min_core_names=5)
    assert run(["pipeline", "--config", config]) == 0
    data, out = tmp_path / "data", tmp_path / "out"
    for name in (
        "core.tsv", "typology.tsv", "dendrogram.tsv", "labeled.tsv",
        "model.json", "eval.tsv", "eval_report.json", "confusion.csv", "operator.csv",
        "ratios.csv", "distributions.csv", "report.json", "summary.json",
    ):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["seed"] == 42
    for name in ("reference", "elite"):
        truth = json.loads((data / f"population_{name}_truth.json").read_text(encoding="utf-8"))
        assert sum(truth.values()) == {"reference": 500, "elite": 300}[name]
    ratios = (out / "ratios.csv").read_text(encoding="utf-8").splitlines()
    reference_row = next(line for line in ratios[1:] if line.startswith("population_reference,"))
    assert set(reference_row.split(",")[1:]) == {"1"}

    # The chain given the generated table and populations themselves, as a
    # config's `synth` block once did, writes the same bytes as from files.
    from onoma import stages
    from onoma.cli import _ARTIFACTS

    got = {}
    populations = [(p.name, synth.generate_population(spec, p)[0]) for p in spec.populations]
    stages.run(read_config(config, {}), synth.generate(spec)[0], populations, got.__setitem__,
               provenance={"confusion": "confusion.csv",
                           "priors_source": "reference:population_reference.txt"})
    for source, file, render in _ARTIFACTS.values():
        assert render(got[source]) == (out / file).read_text(encoding="utf-8"), file


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


CONFIG_VALUES_OF_THE_WRONG_KIND = [
    ("seed", True, "an integer"), ("k_regions", True, "an integer"),
    ("hhi_min", "0.5", "a number"), ("alpha", None, "a number"),
    ("header", 1, "true or false"), ("n_values", (2, True), "a list of integers"),
    ("corpus", 5, "a string or null"),
]


@pytest.mark.parametrize("key, value, kind", CONFIG_VALUES_OF_THE_WRONG_KIND)
def test_the_config_dataclass_checks_each_value_kind(key, value, kind):
    """The library's `PipelineConfig` holds the kind rules `read_config` applies."""
    settings = {"seed": 1, "out_dir": Path("o"), key: value}
    with pytest.raises(ConfigError, match=f"^{key} must be {kind}, got "):
        PipelineConfig(**settings)


# A value of each field kind's wrong kind, by annotation, and the kind in words.
WRONG_KIND = {
    "bool": (1, "true or false"),
    "int": (1.5, "an integer"),
    "float": ("0.5", "a number"),
    "str": (12, "a string"),
    "Path": (5, "a string"),
    "Path | None": (5, "a string or null"),
    "tuple[int, ...]": ([2, "3"], "a list of integers"),
    "tuple[float, ...]": ([1.0, True], "a list of numbers"),
    "tuple[str, ...]": (["A", 1], "a list of strings"),
    "tuple[Path, ...]": (["t.txt", 3], "a list of strings"),
}
# Each class built from a JSON file, and the fields whose kind it checks.
KIND_CHECKED = {
    PipelineConfig: {
        "seed", "out_dir", "corpus", "registry", "header", "strict", "strip_diacritics",
        "hhi_min", "freq_min", "basis", "min_core_names", "min_df", "n_values",
        "pad_boundaries", "k_regions", "overrides", "alpha", "train_fraction", "reference",
        "targets",
    },
    synth.SynthSpec: {"seed", "overlap"},
    synth.MarkovChain: {"order"},
    synth.RegionGenerator: {"label", "min_len", "max_len"},
    synth.CountrySpec: {"code", "region", "n_names", "volume"},
    synth.PopulationSpec: {"name", "n_names", "region_weights"},
    NGramConfig: {"n_values", "pad_boundaries"},
    TrainedModel: {"regions", "vocabulary", "alpha", "strip_diacritics"},
}
# The classes each file is read into (a pipeline config, a spec, a model), and
# that file's hand-written values of the wrong kind.
_BY_FILE = [
    ([PipelineConfig], [(key, value) for key, value, _ in CONFIG_VALUES_OF_THE_WRONG_KIND]),
    ([synth.SynthSpec, synth.MarkovChain, synth.RegionGenerator, synth.CountrySpec,
      synth.PopulationSpec], SPEC_STRINGS_OF_THE_WRONG_KIND),
    ([NGramConfig, TrainedModel], MODEL_VALUES_OF_THE_WRONG_KIND),
]


def test_each_class_read_from_json_checks_the_kind_of_exactly_its_fields():
    """A field whose annotation names no kind, or is no string because its
    module lacks `from __future__ import annotations`, would go unchecked."""
    for cls, names in KIND_CHECKED.items():
        assert {f.name for f in fields(cls) if f.type in WRONG_KIND} == names, cls.__name__


def _wrong_kind_cases():
    """A value of the wrong kind for each field `KIND_CHECKED` names, then
    each hand-written one whose key is such a field of its file's classes."""
    for classes, handwritten in _BY_FILE:
        checked = {(cls, f.name): f.type for cls in classes for f in fields(cls)
                   if f.name in KIND_CHECKED[cls]}
        for (cls, key), kind in checked.items():
            yield pytest.param(cls, key, *WRONG_KIND[kind], id=f"{cls.__name__}.{key}")
        for n, (key, value) in enumerate(handwritten):
            for (cls, name), kind in checked.items():
                if name == key:
                    yield pytest.param(cls, key, value, WRONG_KIND[kind][1],
                                       id=f"{cls.__name__}.{key}-{n}")
                    break


@pytest.mark.parametrize("cls, key, value, kind", _wrong_kind_cases())
def test_a_reader_names_a_value_of_the_wrong_kind(tmp_path, capsys, cls, key, value, kind):
    """Each reader takes a field's value only of the field's JSON kind, and
    names the field: a config value is a config error (exit 3), a spec or
    model value makes the file malformed (exit 2). Neither creates an out dir."""
    message = f"{key} must be {kind}, got {json.loads(json.dumps(value))!r}\n"
    if cls is PipelineConfig:
        path, out = _config(tmp_path, **{"corpus": "x.tsv", key: value}), tmp_path / "out"
        assert run(["pipeline", "--config", path]) == 3
        message = f"config error: {path}: {message}"
    elif cls in (NGramConfig, TrainedModel):
        path, population = _two_region_model(tmp_path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        (doc if key in ("regions", "vocabulary", "alpha") else doc["feature_config"])[key] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert _compare_two_region(tmp_path, path, population) == 2
        message, out = f"input error: {path}: malformed model file: {message}", tmp_path / "cmp"
    else:
        def edit(doc):
            where = {synth.SynthSpec: doc, synth.MarkovChain: doc["global_chain"],
                     synth.RegionGenerator: doc["regions"][0],
                     synth.CountrySpec: doc["countries"][0],
                     synth.PopulationSpec: doc["populations"][0]}
            where[cls][key] = value

        path, out = _edited_spec(tmp_path, edit), tmp_path / "synth"
        assert run(["synth", "--spec", path, "--out-dir", out]) == 2
        message = f"input error: {path}: malformed spec: {message}"
    assert message in capsys.readouterr().err
    assert not out.exists()


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


def test_pipeline_config_has_no_synth_key(tmp_path, synth_dir, capsys):
    """Synthetic inputs reach `pipeline` as the files `onoma synth` writes."""
    config = _config(tmp_path, corpus=str(synth_dir / "corpus.tsv"),
                     synth={"spec": str(synth_dir / "spec.json")})
    assert run(["pipeline", "--config", config]) == 3
    assert "unknown config keys: synth" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("corpus", [{}, {"corpus": None}], ids=["absent", "null"])
def test_pipeline_config_needs_a_corpus(tmp_path, capsys, corpus):
    assert run(["pipeline", "--config", _config(tmp_path, **corpus)]) == 3
    assert "config error: missing config key: 'corpus'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _pipeline_config(tmp_path, synth_dir, corpus, reference):
    return _config(tmp_path, seed=11, corpus=str(corpus),
                   registry=str(synth_dir / "countries.tsv"), reference=str(reference),
                   k_regions=3, min_core_names=5)


def test_empty_corpus_file_is_an_input_error(tmp_path, synth_dir, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("", encoding="utf-8")
    reference = synth_dir / "population_heldout.txt"
    assert run(["pipeline", "--config", _pipeline_config(tmp_path, synth_dir, corpus, reference)]) == 2
    assert f"input error: {corpus}: no records" in capsys.readouterr().err


def test_corpus_of_only_unknown_countries_is_an_input_error(tmp_path, synth_dir, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("smith\tZZ\t3\njones\tQQ\t1\n", encoding="utf-8")
    reference = synth_dir / "population_heldout.txt"
    assert run(["pipeline", "--config", _pipeline_config(tmp_path, synth_dir, corpus, reference)]) == 2
    err = capsys.readouterr().err
    assert ("unknown country code 'ZZ', rows skipped: 1\n"
            "unknown country code 'QQ', rows skipped: 1\n") in err
    assert f"input error: {corpus}: no records" in err


def test_pipeline_corpus_surname_with_marker_is_an_input_error(tmp_path, synth_dir, capsys):
    corpus = tmp_path / "corpus.tsv"
    text = (synth_dir / "corpus.tsv").read_text(encoding="utf-8")
    countries = sorted({line.split("\t")[1] for line in text.splitlines()})
    reference = synth_dir / "population_heldout.txt"
    # In one country the name is a core name; spread evenly over two, it is not.
    for spread in (countries[:1], countries[:2]):
        lines = "".join(f"o^brien\t{country}\t500\n" for country in spread)
        corpus.write_text(text + lines, encoding="utf-8")
        config = _pipeline_config(tmp_path, synth_dir, corpus, reference)
        assert run(["pipeline", "--config", config]) == 2
        err = capsys.readouterr().err
        assert f"input error: {corpus}: surname 'o^brien' contains reserved marker '^'" in err
        assert not (tmp_path / "out").exists()


def test_failed_pipeline_rerun_leaves_no_summary(tmp_path, synth_dir, capsys):
    corpus, reference = synth_dir / "corpus.tsv", synth_dir / "population_heldout.txt"
    config = _pipeline_config(tmp_path, synth_dir, corpus, reference)
    assert run(["pipeline", "--config", config]) == 0
    assert (tmp_path / "out" / "summary.json").exists()
    # The rerun fails after the core filter has written core.tsv.
    doc = json.loads(config.read_text(encoding="utf-8"))
    config.write_text(json.dumps({**doc, "min_core_names": 100000}), encoding="utf-8")
    capsys.readouterr()
    assert run(["pipeline", "--config", config]) == 3
    err = capsys.readouterr().err
    assert "config error: need at least 2 countries with >= 100000 core names, got 0" in err
    assert not (tmp_path / "out" / "summary.json").exists()


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
    err = capsys.readouterr().err
    assert f"config error: {config}: targets need a reference path\n" in err
    assert not (tmp_path / "out").exists()


def test_dataset_names_are_checked_before_writing(tmp_path, synth_dir, capsys):
    """Names must differ and fit in a CSV field; `pipeline` checks them before
    it creates its out dir, `compare` before it reads a file."""
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
    assert run(["compare", "--model", out / "model.json", "--confusion", out / "confusion.csv",
                "--reference", files[0], files[2], "--out-dir", tmp_path / "cmp"]) == 3
    err = capsys.readouterr().err
    assert "config error: dataset name 'tar,get' holds a comma or a line break" in err
    assert not (tmp_path / "cmp").exists()
    missing = tmp_path / "missing"
    assert run(["compare", "--model", missing, "--confusion", missing,
                "--reference", files[0], files[1], "--out-dir", tmp_path / "cmp"]) == 3
    assert "config error: duplicate dataset name 'reference'" in capsys.readouterr().err
    assert not (tmp_path / "cmp").exists()


def test_a_file_name_with_a_line_break_is_an_input_error(tmp_path, synth_dir, piped, capsys):
    """operator.csv's provenance lines name the reference's and the
    confusion's files, so neither name may hold a line break: `compare` and
    `pipeline` reject one before they write anything."""
    heldout = synth_dir / "population_heldout.txt"
    reference, confusion = tmp_path / "ref.t\nxt", tmp_path / "conf\rx.csv"
    reference.write_bytes(heldout.read_bytes())
    confusion.write_bytes((piped / "confusion.csv").read_bytes())
    for bad, files in ((reference, [piped / "confusion.csv", reference]),
                       (confusion, [confusion, heldout])):
        assert run(["compare", "--model", piped / "model.json", "--confusion", files[0],
                    "--reference", files[1], "--out-dir", tmp_path / "cmp"]) == 2
        assert f"input error: file name {str(bad)!r} holds a line break" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()
    (tmp_path / "again").mkdir()
    config = _pipeline_config(tmp_path / "again", synth_dir, synth_dir / "corpus.tsv", reference)
    assert run(["pipeline", "--config", config]) == 2
    err = capsys.readouterr().err
    assert f"input error: file name {str(reference)!r} holds a line break" in err
    assert not (tmp_path / "again" / "out").exists()


def test_stage_commands_report_surnames_with_markers_as_input_errors(tmp_path, synth_dir, piped,
                                                                     capsys):
    """The read path names the population file that holds a reserved marker."""
    model = piped / "model.json"
    reference = synth_dir / "population_heldout.txt"
    bad = tmp_path / "bad.txt"
    bad.write_text(reference.read_text(encoding="utf-8") + "o$brien\n", encoding="utf-8")
    capsys.readouterr()
    confusion = piped / "confusion.csv"
    target = tmp_path / "target.txt"
    target.write_text(reference.read_text(encoding="utf-8"), encoding="utf-8")
    assert run(["compare", "--model", model, "--confusion", confusion, "--reference", bad,
                target, "--out-dir", tmp_path / "cmp"]) == 2
    assert f"input error: {bad}: surname 'o$brien'" in capsys.readouterr().err
    assert not (tmp_path / "cmp").exists()
    for populations in ([bad], [reference, bad]):  # the reference alone, then a target
        assert run(["compare", "--model", model, "--confusion", confusion, "--reference",
                    *populations, "--out-dir", tmp_path / "cmp"]) == 2
        assert f"input error: {bad}: surname 'o$brien'" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()


@pytest.fixture()
def piped(tmp_path, synth_dir):
    """A pipeline run on `synth_dir`'s corpus with its held-out reference."""
    config = _pipeline_config(tmp_path, synth_dir, synth_dir / "corpus.tsv",
                              synth_dir / "population_heldout.txt")
    assert run(["pipeline", "--config", config]) == 0
    return tmp_path / "out"


def test_population_commands_reject_an_operator_of_other_regions(tmp_path, synth_dir, piped,
                                                                  capsys):
    """A confusion whose region labels are not the model's, here the paper's
    published one, is a config error, and nothing is written."""
    reference = synth_dir / "population_heldout.txt"
    target = tmp_path / "target.txt"
    target.write_text(reference.read_text(encoding="utf-8"), encoding="utf-8")
    assert run(["compare", "--model", piped / "model.json",
                "--confusion", reference_confusion_path(),
                "--reference", reference, target, "--out-dir", tmp_path / "cmp"]) == 3
    err = capsys.readouterr().err
    assert "config error: model regions do not match the confusion matrix" in err
    assert not (tmp_path / "cmp").exists()


def test_calibrate_rejects_a_confusion_of_other_regions(tmp_path, synth_dir, piped, capsys):
    """`compare` calibrates only on a confusion of the model's region labels,
    in its order: here the pipeline's, with its first label renamed."""
    rows = [line.split(",") for line in
            (piped / "confusion.csv").read_text(encoding="utf-8").splitlines()]
    first = rows[0][1]
    confusion = tmp_path / "confusion.csv"
    confusion.write_text("".join(",".join("other" if cell == first else cell for cell in row)
                                 + "\n" for row in rows), encoding="utf-8")
    heldout = synth_dir / "population_heldout.txt"
    target = tmp_path / "target.txt"
    target.write_text(heldout.read_text(encoding="utf-8"), encoding="utf-8")
    assert run(["compare", "--confusion", confusion, "--model", piped / "model.json",
                "--reference", heldout, target, "--out-dir", tmp_path / "cmp"]) == 3
    err = capsys.readouterr().err
    assert "config error: model regions do not match the confusion matrix" in err
    assert not (tmp_path / "cmp").exists()


def test_calibrate_rejects_a_quoted_label_it_could_not_write_back(tmp_path, capsys):
    """A quoted field can carry a comma into a region label; no grid file
    can carry it back, so the confusion is an input error naming the file."""
    model, population = _two_region_model(tmp_path)
    confusion = tmp_path / "confusion.csv"
    confusion.write_text('guessed,"A,B",C\n"A,B",3,1\nC,1,3\n', encoding="utf-8")
    assert _compare_two_region(tmp_path, model, population, confusion) == 2
    assert (f"input error: {confusion}: region label 'A,B' holds ',', '\"' or '#'"
            in capsys.readouterr().err)
    assert not (tmp_path / "cmp").exists()


def test_a_reference_of_one_name_yields_zero_guesses(tmp_path, synth_dir, piped, capsys):
    """One name gets one guess, so every other region has none: `compare`
    and `pipeline` both name those regions."""
    one = tmp_path / "one.txt"
    heldout = (synth_dir / "population_heldout.txt").read_text(encoding="utf-8")
    one.write_text(heldout.splitlines()[0] + "\n", encoding="utf-8")
    regions = json.loads((piped / "eval_report.json").read_text(encoding="utf-8"))["regions"]
    capsys.readouterr()
    assert run(["compare", "--confusion", piped / "confusion.csv", "--model", piped / "model.json",
                "--reference", one, synth_dir / "population_heldout.txt",
                "--out-dir", tmp_path / "cmp"]) == 3
    assert not (tmp_path / "cmp").exists()
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


def test_compare_classifies_each_dataset_once(tmp_path, synth_dir, piped, monkeypatch):
    """With a reference and two targets, `compare` classifies each dataset's
    names in one call: the reference's tally calibrates and is compared too."""
    from onoma import diversity

    heldout = (synth_dir / "population_heldout.txt").read_text(encoding="utf-8").splitlines()
    files = {"first": heldout[:150], "last": heldout[-200:]}
    for name, names in files.items():
        (tmp_path / f"{name}.txt").write_text("\n".join(names) + "\n", encoding="utf-8")
    calls = []

    def counted(model, surnames):
        calls.append(list(surnames))
        return inner(model, surnames)

    inner = diversity.classify_batch
    monkeypatch.setattr(diversity, "classify_batch", counted)
    assert run(["compare", "--model", piped / "model.json", "--confusion", piped / "confusion.csv",
                "--reference", synth_dir / "population_heldout.txt", tmp_path / "first.txt",
                tmp_path / "last.txt", "--out-dir", tmp_path / "cmp"]) == 0
    assert calls == [heldout, files["first"], files["last"]]


# Before 3.11 a call's arguments stay on the caller's stack until it returns.
@pytest.mark.skipif(sys.version_info < (3, 11), reason="the caller keeps the table alive")
@pytest.mark.parametrize("command", ["pipeline", "synth --score"])
def test_the_corpus_table_is_gone_before_the_typology(tmp_path, synth_dir, monkeypatch, command):
    """Both consumers of `stages.run` hand the table over without keeping
    it, so it is freed after the core filter, before Ward may fork."""
    from onoma import stages

    tables, alive = [], []
    filter_core_names, build_typology = stages.filter_core_names, stages.build_typology

    def recording_filter(table, *args, **kwargs):
        tables.append(weakref.ref(table))
        return filter_core_names(table, *args, **kwargs)

    def checking_build(*args, **kwargs):
        alive.append(tables[-1]() is not None)
        return build_typology(*args, **kwargs)

    monkeypatch.setattr(stages, "filter_core_names", recording_filter)
    monkeypatch.setattr(stages, "build_typology", checking_build)
    if command == "pipeline":
        config = _pipeline_config(tmp_path, synth_dir, synth_dir / "corpus.tsv",
                                  synth_dir / "population_heldout.txt")
        argv = ["pipeline", "--config", config]
    else:
        argv = ["synth", "--regions", 3, "--countries-per-region", 2, "--names", 150,
                "--overlap", 0.2, "--seed", 5, "--population-size", 400,
                "--min-core-names", 5, "--out-dir", tmp_path / "scored", "--score"]
    assert run(argv) == 0
    assert alive == [False]
