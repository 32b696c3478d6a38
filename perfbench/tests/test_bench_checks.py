"""Tests for the benchmark's independent checkers, on hand-computed inputs."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402

# Two regions, bigrams only. Likelihood rows sum to 1 over the vocabulary.
MODEL_DOC = {
    "version": 1,
    "regions": ["A", "B"],
    "vocabulary": ["^a", "ab", "b$", "^b"],
    "log_priors": [math.log(0.75), math.log(0.25)],
    "log_likelihoods": [
        [math.log(0.4), math.log(0.3), math.log(0.2), math.log(0.1)],
        [math.log(0.1), math.log(0.2), math.log(0.3), math.log(0.4)],
    ],
    "alpha": 0.1,
    "feature_config": {
        "n_values": [2],
        "pad_boundaries": True,
        "start_marker": "^",
        "end_marker": "$",
        "strip_diacritics": False,
    },
}


def test_ngrams_pad_each_word():
    assert checks.ngrams("ab ab", [2]) == {"^a": 2, "ab": 2, "b$": 2}
    assert checks.ngrams("abc", [2, 3]) == {
        "^a": 1, "ab": 1, "bc": 1, "c$": 1, "^ab": 1, "abc": 1, "bc$": 1,
    }
    assert checks.ngrams("a", [3], pad=False) == {}


def test_scorer_matches_hand_computed_two_region_model():
    model = checks.NaiveBayes.from_doc(MODEL_DOC)
    # "ab" -> ^a, ab, b$.  A: .75*.4*.3*.2 = .018   B: .25*.1*.2*.3 = .0015
    # "bb" -> ^b, bb (unknown), b$.  A: .75*.1*.2 = .015   B: .25*.4*.3 = .03
    # "cc" -> no known token: priors decide, A.
    scores = model.score(["ab", "bb", "cc", " AB "])
    assert scores.labels == {"ab": "A", "bb": "B", "cc": "A", " AB ": "A"}
    assert scores.prior_only == {"cc"}
    assert not scores.near_ties
    tally, ties = scores.tally(model.regions, ["ab", "bb", "cc", "bb"])
    assert tally.tolist() == [2.0, 2.0] and ties == 0


def test_scorer_flags_exact_ties_and_breaks_them_to_the_first_region():
    doc = dict(MODEL_DOC, log_priors=[math.log(0.5), math.log(0.5)])
    # "ba" -> ^b, ba (unknown), a$ (unknown). A: .5*.1  B: .5*.4 -> B.
    # "a" -> ^a, a$ (unknown). A: .5*.4 = .2; B: .5*.1 -> A.
    # "bab": ^b, ba, ab, b$ -> A: .1*.3*.2 = .006, B: .4*.2*.3 = .024 -> B.
    model = checks.NaiveBayes.from_doc(doc)
    assert model.score(["ba", "a", "bab"]).labels == {"ba": "B", "a": "A", "bab": "B"}
    tied = checks.NaiveBayes.from_doc(dict(doc, log_likelihoods=[[math.log(0.25)] * 4] * 2))
    scores = tied.score(["ab"])
    assert scores.labels["ab"] == "A" and scores.near_ties == {"ab"}


def _corpus(tmp_path: Path) -> Path:
    # Country totals: X = 10 + 10 + 80 = 100, Y = 10 + 10 + 80 = 100, Z = 1.
    rows = [
        ("alpha", "X", 10), ("alpha", "Y", 10),   # f = .1, .1 -> hhi .5
        ("beta", "X", 10),                        # f = .1 only in X -> hhi 1
        ("gamma", "X", 80), ("gamma", "Y", 10),   # f = .8, .1 -> shares 8/9, 1/9
        ("delta", "Y", 80),                       # f = .8 only in Y
        ("epsilon", "Z", 1),                      # f = 1 only in Z
    ]
    path = tmp_path / "corpus.tsv"
    path.write_text("".join(f"{s}\t{c}\t{n}\n" for s, c, n in rows), encoding="utf-8")
    return path


def test_hhi_filter_matches_hand_computed_table(tmp_path):
    table = checks.read_corpus(_corpus(tmp_path))
    core = checks.core_names(table, hhi_min=0.8, freq_min=1e-6)
    # totals: X = 100, Y = 100, Z = 1
    assert sorted(core) == ["beta", "delta", "epsilon", "gamma"]
    assert core["beta"] == checks.Core("X", 1.0, 0.1)
    assert core["delta"] == checks.Core("Y", 1.0, 0.8)
    assert core["epsilon"] == checks.Core("Z", 1.0, 1.0)
    assert core["gamma"].country == "X"
    assert core["gamma"].hhi == pytest.approx((8 / 9) ** 2 + (1 / 9) ** 2)
    assert core["gamma"].max_frequency == pytest.approx(0.8)
    # A stricter frequency floor drops the thin names.
    assert sorted(checks.core_names(table, 0.8, 0.5)) == ["delta", "epsilon", "gamma"]


def test_hhi_frequency_tie_goes_to_the_smallest_code(tmp_path):
    path = tmp_path / "tie.tsv"
    path.write_text("a\tY\t1\na\tX\t1\nb\tX\t1\nc\tY\t1\n", encoding="utf-8")
    core = checks.core_names(checks.read_corpus(path), hhi_min=0.5)
    assert core["a"].country == "X" and core["a"].hhi == pytest.approx(0.5)


def test_core_check_catches_a_dropped_or_moved_name(tmp_path):
    core = checks.core_names(checks.read_corpus(_corpus(tmp_path)))
    assert checks.core_problems(core, dict(core)) == []
    dropped = dict(core)
    del dropped["gamma"]
    assert checks.core_problems(core, dropped)
    moved = dict(core, beta=checks.Core("Y", 1.0, 0.1))
    assert checks.core_problems(core, moved)


def test_confusion_check_catches_one_changed_cell(tmp_path):
    model = checks.NaiveBayes.from_doc(MODEL_DOC)
    labeled = [("ab", "A"), ("bb", "B"), ("cc", "B"), ("ab", "A")]
    expected, ties = checks.confusion(model.score([s for s, _ in labeled]), model.regions, labeled)
    assert expected.tolist() == [[2.0, 1.0], [0.0, 1.0]] and ties == 0
    path = tmp_path / "confusion.csv"
    path.write_text("guessed,A,B\nA,2,1\nB,0,1\n", encoding="utf-8")
    regions, got, _ = checks.read_matrix_csv(path)
    assert regions == ("A", "B")
    assert checks.confusion_problems(expected, got, ties) == []
    got[0, 1] += 1
    assert checks.confusion_problems(expected, got, ties)


def test_operator_and_distribution_checks(tmp_path):
    confusion = np.array([[8.0, 2.0], [2.0, 8.0]])
    priors = np.array([0.75, 0.25])
    # Columns scaled to 15 and 5: [[12, 1], [3, 4]]; rows normalized.
    operator = checks.operator_matrix(confusion, priors)
    np.testing.assert_allclose(operator, [[12 / 13, 1 / 13], [3 / 7, 4 / 7]])
    tallies = {"ref": (np.array([3.0, 1.0]), 0), "tgt": (np.array([1.0, 1.0]), 0)}
    counts = {name: t @ operator for name, (t, _) in tallies.items()}
    shares = {name: c / c.sum() for name, c in counts.items()}

    def rows(counts):
        return {
            name: checks.DatasetRow(int(round(c.sum())), 0,
                                    {"A": c[0], "B": c[1]},
                                    {"A": shares[name][0], "B": shares[name][1]})
            for name, c in counts.items()
        }

    ratios = {name: {r: shares[name][i] / shares["ref"][i] for i, r in enumerate("AB")}
              for name in tallies}
    args = (("A", "B"), operator, tallies, {"ref": 4, "tgt": 2}, {"ref": 0, "tgt": 0}, "ref")
    assert checks.distribution_problems(*args, rows(counts), ratios) == []
    bad = dict(counts, tgt=counts["tgt"] + np.array([0.01, -0.01]))
    assert checks.distribution_problems(*args, rows(bad), ratios)
    bad_ratios = {**ratios, "tgt": {"A": 1.0, "B": 1.0}}
    assert checks.distribution_problems(*args, rows(counts), bad_ratios)
    header = {"priors": "0.75,0.25"}
    assert checks.priors_header_problems(np.array([3.0, 1.0]), header) == []
    assert checks.priors_header_problems(np.array([2.0, 2.0]), header)


def test_partition_and_scorecard_checks():
    truth = {"AA": "R0", "AB": "R0", "BA": "R1", "BB": "R1"}
    assert checks.partition_problems({"AA": "x", "AB": "x", "BA": "y", "BB": "y"}, truth) == []
    assert checks.partition_problems({"AA": "x", "AB": "y", "BA": "y", "BB": "y"}, truth)
    card = {"partition_exact": True, "region_map": {"AA": "R0", "BA": "R1"},
            "recall": {"R0": 0.9, "R1": 0.8}}
    assert checks.scorecard_problems(card, ("R0", "R1"), 0.6) == []
    assert checks.scorecard_problems(dict(card, region_map={"AA": "R0", "BA": "R0"}), ("R0", "R1"), 0.6)
    assert checks.scorecard_problems(dict(card, recall={"R0": 0.9, "R1": 0.5}), ("R0", "R1"), 0.6)


def test_expected_eval_size_rounds_training_up():
    assert checks.expected_eval_size([10, 7, 1000], 0.85) == 1 + 1 + 150


def test_config_check_catches_a_misspelt_or_dropped_key():
    known = {"seed", "corpus", "alpha", "min_core_names"}
    config = {"seed": 1, "corpus": "c.tsv", "alpha": 0.2, "min_core_names": 30}
    echoed = {"seed": 1, "alpha": 0.2, "min_core_names": 30}
    assert checks.config_problems(config, known, echoed, {"corpus"}) == []
    # A misspelt key is not read; its value falls back to the default.
    misspelt = {"seed": 1, "corpus": "c.tsv", "alpha": 0.2, "min_core_name": 30}
    assert checks.config_problems(misspelt, known, dict(echoed, min_core_names=20), {"corpus"})
    assert checks.config_problems(config, known, dict(echoed, min_core_names=20), {"corpus"})
    assert checks.config_problems(config, known, {"seed": 1, "alpha": 0.2}, {"corpus"})
