"""The benchmark's workloads: seeded inputs, the timed commands, the checks.

Set-up generates every input with `onoma.synth` and writes it to files; the
timed operation is one or more `onoma` command lines that receive only those
files (or, for `validate-180c`, a spec file, because generation is the work
measured there). The checks use `checks.py` and the generator's truth, never
the program's own readings of itself, except the scorecard fields that only
the program can compute.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

import checks

REFERENCE_MIX = (1.0, 2.0, 4.0, 8.0, 1.0, 2.0, 4.0)
TARGET_MIX = (8.0, 4.0, 2.0, 1.0, 2.0, 4.0, 1.0)
# Pipeline config keys naming files; `report.json` does not echo them.
PATH_KEYS = ("out_dir", "corpus", "registry", "reference", "targets")
HHI_MIN = 0.8
FREQ_MIN = 1e-6
TRAIN_FRACTION = 0.85
ALPHA = 0.1
# Not the reader's default of 20, so a dropped key shows in the config echo;
# every country of pipeline-35k has about 640 core names.
MIN_CORE_NAMES = 30
# Lowest per-region recall accepted; at set-up sizes seeds 1 to 10 read
# at least 0.846 (pipeline-35k) and 0.826 (validate-180c).
RECALL_FLOOR = 0.6


@dataclass
class Inputs:
    """Files made by set-up, plus what the checks need to know about them."""

    dir: Path
    seed: int
    n_names: int  # surnames in the operation's input files
    country_truth: dict[str, str] = field(default_factory=dict)
    truth_tallies: dict[str, dict[str, int]] = field(default_factory=dict)
    true_regions: tuple[str, ...] = ()


@dataclass
class Checked:
    problems: list[str]
    readings: dict[str, float]


def _write_population(d: Path, spec, name: str, n: int, mix) -> dict[str, int]:
    from onoma import synth

    names, tally = synth.generate_population(spec, synth.PopulationSpec(name, n, mix))
    (d / f"{name}.txt").write_text("\n".join(names) + "\n", encoding="utf-8")
    (d / f"{name}_truth.json").write_text(json.dumps(tally, sort_keys=True), encoding="utf-8")
    return tally


def _true_space(vector, labels, to_true, true_regions) -> np.ndarray:
    out = np.zeros(len(true_regions))
    index = {r: i for i, r in enumerate(true_regions)}
    for label, value in zip(labels, vector):
        out[index[to_true[label]]] += value
    return out


def _truth_shares(tally: dict[str, int], true_regions) -> np.ndarray:
    vector = np.asarray([tally[r] for r in true_regions], dtype=float)
    return vector / vector.sum()


def _population_checks(
    inputs: Inputs,
    scores: checks.Scores,
    regions: tuple[str, ...],
    to_true: dict[str, str],
    datasets: dict[str, list[str]],
    confusion: np.ndarray,
    out: Path,
    reports: Path,
) -> Checked:
    """Operator, distributions and ratios against the independent tally.

    The first dataset is the reference. Its corrected L1 distance to the
    generator's truth must not exceed the raw guess distance; the targets'
    distance is recorded only, since the one-step correction is biased for
    a population whose mix differs from the reference.
    """
    problems: list[str] = []
    reference = next(iter(datasets))
    tallies = {name: scores.tally(regions, names) for name, names in datasets.items()}
    op_regions, operator, header = checks.read_matrix_csv(out / "operator.csv")
    if op_regions != regions:
        return Checked([f"operator.csv regions {op_regions}, model has {regions}"], {})
    ref_tally, ref_ties = tallies[reference]
    if ref_ties == 0:
        problems += checks.priors_header_problems(ref_tally, header)
        problems += checks.matrix_problems(
            "operator.csv", checks.operator_matrix(confusion, ref_tally / ref_tally.sum()), operator
        )
    problems += checks.distribution_problems(
        regions,
        operator,
        tallies,
        {name: len(names) for name, names in datasets.items()},
        {name: sum(s in scores.prior_only for s in names) for name, names in datasets.items()},
        reference,
        checks.read_distributions(reports / "distributions.csv"),
        checks.read_ratios(reports / "ratios.csv"),
    )
    if problems:
        return Checked(problems, {})
    rows = checks.read_distributions(reports / "distributions.csv")
    true_regions = inputs.true_regions
    l1 = {}
    for name, names in datasets.items():
        truth = _truth_shares(inputs.truth_tallies[name], true_regions)
        raw = _true_space(tallies[name][0] / len(names), regions, to_true, true_regions)
        corrected = _true_space(
            [rows[name].shares[r] for r in regions], regions, to_true, true_regions
        )
        l1[name] = (checks.l1(raw, truth), checks.l1(corrected, truth))
    raw_ref, corrected_ref = l1[reference]
    if corrected_ref > raw_ref:
        problems.append(
            f"reference: corrected L1 {corrected_ref:.4f} exceeds raw L1 {raw_ref:.4f}"
        )
    targets = [l1[name][1] for name in datasets if name != reference]
    return Checked(
        problems,
        {"l1_reference": corrected_ref, "l1_target": float(np.mean(targets))},
    )


# ------------------------------------------------------------- pipeline-35k


class Pipeline:
    """`onoma pipeline` over a ~25k-name corpus file and two populations."""

    name = "pipeline-35k"
    trace_setup = True
    shape = (7, 5, 700)  # regions, countries per region, names per country
    population_size = 5000
    populations = {"reference": REFERENCE_MIX, "target": TARGET_MIX}

    def config(self, seed: int) -> dict:
        return {
            "seed": seed,
            "out_dir": "out",
            "corpus": "corpus.tsv",
            "registry": "countries.tsv",
            "reference": "reference.txt",
            "targets": ["target.txt"],
            "hhi_min": HHI_MIN,
            "freq_min": FREQ_MIN,
            "min_core_names": MIN_CORE_NAMES,
            "min_df": 1,
            "n_values": [2, 3],
            "pad_boundaries": True,
            "k_regions": 7,
            "alpha": ALPHA,
            "train_fraction": TRAIN_FRACTION,
        }

    def setup(self, d: Path, seed: int) -> Inputs:
        from onoma import synth
        from onoma.corpus import render_corpus_tsv

        spec = synth.standard_spec(*self.shape, 0.3, seed)
        table, _ = synth.generate(spec)
        (d / "corpus.tsv").write_text(render_corpus_tsv(table), encoding="utf-8")
        (d / "countries.tsv").write_text(synth.registry_for(spec).to_tsv(), encoding="utf-8")
        tallies = {
            name: _write_population(d, spec, name, self.population_size, mix)
            for name, mix in self.populations.items()
        }
        (d / "config.json").write_text(json.dumps(self.config(seed), indent=2), encoding="utf-8")
        return Inputs(
            dir=d,
            seed=seed,
            n_names=len(table) + self.population_size * len(self.populations),
            country_truth={c.code: c.region for c in spec.countries},
            truth_tallies=tallies,
            true_regions=spec.region_labels,
        )

    def commands(self, inputs: Inputs, out: Path) -> list[list[str]]:
        return [["pipeline", "--config", str(inputs.dir / "config.json"), "--out-dir", str(out)]]

    def check(self, inputs: Inputs, out: Path) -> Checked:
        d = inputs.dir
        table = checks.read_corpus(d / "corpus.tsv")
        core = checks.core_names(table, HHI_MIN, FREQ_MIN)
        problems = checks.core_problems(core, checks.read_core_tsv(out / "core.tsv"))
        assignment = checks.read_typology(out / "typology.tsv")
        problems += checks.partition_problems(assignment, inputs.country_truth)
        problems += self._summary_problems(inputs, table, core, assignment, out)
        if problems:
            return Checked(problems, {})

        model = checks.NaiveBayes.load(out / "model.json")
        eval_set = [tuple(line.split("\t")) for line in checks.read_lines(out / "eval.tsv")]
        datasets = {name: checks.read_lines(d / f"{name}.txt") for name in self.populations}
        scores = model.score([s for s, _ in eval_set] + [s for n in datasets.values() for s in n])
        expected, ties = checks.confusion(scores, model.regions, eval_set)
        regions, got, _ = checks.read_matrix_csv(out / "confusion.csv")
        problems += checks.confusion_problems(expected, got, ties)
        low = checks.recall(got) < RECALL_FLOOR
        if low.any():
            problems.append(f"recall below {RECALL_FLOOR} for {np.asarray(regions)[low].tolist()}")
        if problems:
            return Checked(problems, {})
        to_true = checks.label_map(assignment, inputs.country_truth)
        return _population_checks(inputs, scores, model.regions, to_true, datasets, got, out, out)

    def _summary_problems(self, inputs, table, core, assignment, out: Path) -> list[str]:
        """summary.json and the report's config echo against the intended config.

        The config reader drops unknown keys silently, so a misspelt key in
        the benchmark's config would otherwise go unseen.
        """
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        by_region: dict[str, int] = {}
        for name in core.values():
            region = assignment[name.country]
            by_region[region] = by_region.get(region, 0) + 1
        n_eval = checks.expected_eval_size(by_region.values(), TRAIN_FRACTION)
        expected = {
            "seed": inputs.seed,
            "n_records": sum(len(by_country) for by_country in table.values()),
            "n_surnames": len(table),
            "n_core_names": len(core),
            "regions": dict(sorted(by_region.items())),
            "n_eval": n_eval,
            "n_train": len(core) - n_eval,
        }
        got = {key: summary.get(key) for key in expected}
        got["regions"] = dict(sorted((summary.get("regions") or {}).items()))
        problems = [f"summary.json {key}: {got[key]!r}, expected {value!r}"
                    for key, value in expected.items() if got[key] != value]
        from onoma.cli import PipelineConfig

        known = {f.name for f in fields(PipelineConfig)} - {"synth_spec"} | {"synth"}
        echoed = json.loads((out / "report.json").read_text(encoding="utf-8"))["provenance"]["config"]
        problems += checks.config_problems(self.config(inputs.seed), known, echoed, PATH_KEYS)
        return problems


# ------------------------------------------------------------ validate-180c


class Validate:
    """`onoma synth --score` at 12 regions x 15 countries x 100 names."""

    name = "validate-180c"
    trace_setup = False  # set-up generates the expected outputs, not inputs
    shape = (12, 15, 100)
    population_size = 2000

    def setup(self, d: Path, seed: int) -> Inputs:
        """The spec the program gets, and what the library generates from it.

        The command receives only `spec.json`; the corpus, truth and
        population generated here in-process are what its files must hold.
        """
        from onoma import synth
        from onoma.corpus import render_corpus_tsv

        n_regions = self.shape[0]
        # The held-out mix `onoma synth` uses when no spec file is given.
        mix = tuple(float(2 ** (i % 4)) for i in range(n_regions))
        spec = synth.standard_spec(
            *self.shape, 0.3, seed,
            populations=(synth.PopulationSpec("heldout", self.population_size, mix),),
        )
        (d / "spec.json").write_text(spec.to_json(), encoding="utf-8")
        expected = d / "expected"
        expected.mkdir()
        table, truth = synth.generate(spec)
        (expected / "corpus.tsv").write_text(render_corpus_tsv(table), encoding="utf-8")
        (expected / "truth.tsv").write_text(synth.render_truth_tsv(truth), encoding="utf-8")
        _write_population(expected, spec, "heldout", self.population_size, mix)
        return Inputs(
            dir=d,
            seed=seed,
            n_names=n_regions * self.shape[1] * self.shape[2] + self.population_size,
            country_truth={c.code: c.region for c in spec.countries},
            true_regions=spec.region_labels,
        )

    def commands(self, inputs: Inputs, out: Path) -> list[list[str]]:
        return [["synth", "--spec", str(inputs.dir / "spec.json"), "--out-dir", str(out), "--score"]]

    def check(self, inputs: Inputs, out: Path) -> Checked:
        problems = []
        if (out / "spec.json").read_bytes() != (inputs.dir / "spec.json").read_bytes():
            problems.append("spec.json written back differs from the spec given")
        expected = inputs.dir / "expected"
        for got, want in [("corpus.tsv", "corpus.tsv"), ("truth.tsv", "truth.tsv"),
                          ("population_heldout.txt", "heldout.txt")]:
            if (out / got).read_bytes() != (expected / want).read_bytes():
                problems.append(f"{got} differs from what synth.generate gives for the spec")
        table = checks.read_corpus(out / "corpus.tsv")
        truth = dict(line.split("\t") for line in checks.read_lines(out / "truth.tsv"))
        if set(truth) != set(table):
            problems.append("truth.tsv and corpus.tsv name different surnames")
        wrong = [s for s, by_country in table.items()
                 if any(truth.get(s) != inputs.country_truth[c] for c in by_country)]
        if wrong:
            problems.append(f"{len(wrong)} corpus names sit in a country of another region")
        names = checks.read_lines(out / "population_heldout.txt")
        tally = json.loads((out / "population_heldout_truth.json").read_text("utf-8"))
        if len(names) != self.population_size or sum(tally.values()) != self.population_size:
            problems.append("held-out population size differs from the spec")
        if tally != json.loads((expected / "heldout_truth.json").read_text("utf-8")):
            problems.append("held-out truth tally differs from what generate_population gives")

        card = json.loads((out / "scorecard.json").read_text(encoding="utf-8"))
        problems += checks.scorecard_problems(card, inputs.true_regions, RECALL_FLOOR)
        core = checks.core_names(table, HHI_MIN, FREQ_MIN)
        if card.get("n_core_names") != len(core):
            problems.append(f"scorecard n_core_names {card.get('n_core_names')}, filter gives {len(core)}")
        by_region: dict[str, int] = {}
        for name in core.values():
            region = inputs.country_truth[name.country]
            by_region[region] = by_region.get(region, 0) + 1
        n_eval = checks.expected_eval_size(by_region.values(), TRAIN_FRACTION)
        if card.get("n_eval") != n_eval:
            problems.append(f"scorecard n_eval {card.get('n_eval')}, split of the truth gives {n_eval}")
        return Checked(problems, {"l1_reference": float(card["l1_corrected"]), "l1_target": 0.0})


WORKLOADS = {w.name: w for w in (Pipeline(), Validate())}
