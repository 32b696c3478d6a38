"""Prior reweighting, operator construction and count correction."""

import numpy as np
import pytest

from onoma.correction import (
    ConfusionCounts,
    CorrectionOperator,
    correct_counts,
    correction_operator,
    parse_confusion_csv,
    render_confusion_csv,
    reweight_priors,
)
from onoma.errors import InputFormatError
from onoma.resources import reference_confusion_path

# Target priors published for the reference population, in percent, region
# order African, Arabian, Asian, CS-European, Indian, N-European, Slavic.
REFERENCE_PRIORS_PERCENT = (4.8, 8.3, 3.1, 20.7, 3.4, 57.1, 2.6)


def two_by_two(values):
    return ConfusionCounts(("A", "B"), np.array(values, dtype=float))


def random_counts(rng, n):
    matrix = rng.uniform(0.5, 20.0, size=(n, n))
    return ConfusionCounts(tuple(f"G{i}" for i in range(n)), matrix)


# ---------------------------------------------------------------- CSV / type


def test_fixture_csv_parses():
    counts = ConfusionCounts.from_csv(reference_confusion_path())
    assert counts.regions == (
        "African",
        "Arabian",
        "Asian",
        "CS-European",
        "Indian",
        "N-European",
        "Slavic",
    )
    assert counts.total == 96926  # evaluation names overall
    assert list(counts.column_sums) == [4529, 4596, 6754, 28668, 10067, 32469, 9843]


def test_confusion_csv_round_trip():
    counts = ConfusionCounts.from_csv(reference_confusion_path())
    provenance = {"source": "reference", "priors_source": "explicit"}
    text = render_confusion_csv(counts.regions, counts.matrix, provenance)
    assert text.startswith("# priors_source: explicit\n# source: reference\nguessed,")
    regions, matrix, read = parse_confusion_csv(text)
    assert regions == counts.regions
    assert np.array_equal(matrix, counts.matrix)
    assert read == provenance
    # Without provenance, the grid alone, and an empty record read back.
    assert parse_confusion_csv(render_confusion_csv(regions, matrix))[2] == {}


def test_confusion_validation():
    with pytest.raises(ValueError, match="negative"):
        two_by_two([[1, -1], [1, 1]])
    with pytest.raises(ValueError, match="zero actual"):
        two_by_two([[1, 0], [1, 0]])
    with pytest.raises(InputFormatError):
        parse_confusion_csv("guessed,A,B\nA,1,2\n")  # missing row


# ---------------------------------------------------------------- reweight


def test_reweight_fixed_point():
    counts = two_by_two([[8, 2], [2, 8]])
    shares = counts.column_sums / counts.total
    again = reweight_priors(counts, shares)
    assert np.allclose(again.matrix, counts.matrix, rtol=0, atol=1e-12)


def test_reweight_hand_arithmetic():
    counts = two_by_two([[8, 2], [2, 8]])
    out = reweight_priors(counts, (0.9, 0.1))
    assert np.allclose(out.matrix, [[14.4, 0.4], [3.6, 1.6]], rtol=0, atol=1e-12)
    assert out.total == pytest.approx(counts.total, rel=1e-12)


def test_reweight_hits_target_column_shares():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        counts = random_counts(rng, n)
        priors = rng.dirichlet(np.ones(n))
        priors = priors / priors.sum()
        out = reweight_priors(counts, priors)
        assert np.allclose(out.column_sums / out.total, priors, atol=1e-9)
        assert out.total == pytest.approx(counts.total, rel=1e-6)


def test_reweight_reference_priors_on_fixture():
    counts = ConfusionCounts.from_csv(reference_confusion_path())
    priors = np.array(REFERENCE_PRIORS_PERCENT) / 100.0
    out = reweight_priors(counts, priors)
    assert np.allclose(out.column_sums / out.total, priors, atol=1e-9)
    operator = correction_operator(out)
    assert np.allclose(operator.matrix.sum(axis=1), 1.0, atol=1e-9)


def test_reweight_validation():
    counts = two_by_two([[8, 2], [2, 8]])
    with pytest.raises(ValueError, match="positive"):
        reweight_priors(counts, (1.0, 0.0))
    with pytest.raises(ValueError, match="sum to 1"):
        reweight_priors(counts, (0.6, 0.6))
    with pytest.raises(ValueError, match="length"):
        reweight_priors(counts, (0.5, 0.3, 0.2))


# ---------------------------------------------------------------- operator


def test_operator_identity_from_diagonal():
    counts = two_by_two([[5, 0], [0, 9]])
    operator = correction_operator(counts)
    assert np.array_equal(operator.matrix, np.eye(2))


def test_operator_row_normalization():
    operator = correction_operator(two_by_two([[3, 1], [1, 3]]))
    assert np.array_equal(operator.matrix, [[0.75, 0.25], [0.25, 0.75]])


def test_operator_fixture_first_row():
    counts = ConfusionCounts.from_csv(reference_confusion_path())
    operator = correction_operator(counts)
    assert operator.matrix[0, 0] == pytest.approx(2763 / 6448, abs=1e-12)
    assert np.allclose(operator.matrix.sum(axis=1), 1.0, atol=1e-9)


def test_operator_zero_row_names_region():
    counts = ConfusionCounts(("A", "B"), np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(ValueError, match="A"):
        correction_operator(counts)


def test_operator_rows_are_probability_vectors():
    rng = np.random.default_rng(6)
    for _ in range(25):
        operator = correction_operator(random_counts(rng, int(rng.integers(2, 8))))
        assert np.all(operator.matrix >= 0)
        assert np.all(operator.matrix <= 1)
        assert np.allclose(operator.matrix.sum(axis=1), 1.0, atol=1e-9)


def test_operator_csv_round_trip(tmp_path):
    counts = two_by_two([[3, 1], [1, 3]])
    operator = correction_operator(counts, {"confusion": "x.csv", "priors_source": "explicit"})
    path = tmp_path / "operator.csv"
    path.write_text(operator.to_csv(), encoding="utf-8")
    loaded = CorrectionOperator.from_csv(path)
    assert loaded.regions == operator.regions
    assert np.array_equal(loaded.matrix, operator.matrix)
    assert loaded.provenance["priors_source"] == "explicit"


@pytest.mark.parametrize("label", ["A,B", "#A", 'A"B'], ids=["comma", "hash", "quote"])
def test_grid_files_carry_no_label_they_could_not_read_back(label):
    """The one grid writer checks the labels of `operator.csv` as it does
    those of `confusion.csv`, and the one reader rejects a quoted label the
    writer would refuse."""
    with pytest.raises(ValueError, match=""" holds ',', '"' or '#'"""):
        CorrectionOperator((label, "C"), np.eye(2)).to_csv()
    quoted = '"' + label.replace('"', '""') + '"'
    with pytest.raises(InputFormatError, match=f"^grid.csv: region label {label!r} holds"):
        parse_confusion_csv(f"guessed,{quoted},C\n{quoted},1,0\nC,0,1\n", "grid.csv")


@pytest.mark.parametrize(
    "key, value",
    [("confusion", "conf\nx.csv"), ("priors_source", "reference:ref.t\rxt"), ("con\nfusion", "x")],
    ids=["value_lf", "value_cr", "key"],
)
def test_grid_files_carry_no_provenance_line_break(key, value):
    """A line break in a provenance key or value would start a line the
    reader takes for a grid row."""
    with pytest.raises(ValueError, match="holds a line break"):
        CorrectionOperator(("A", "B"), np.eye(2), {key: value}).to_csv()


# ---------------------------------------------------------------- correct_counts


def test_correct_counts_identity():
    operator = CorrectionOperator(("A", "B"), np.eye(2))
    assert np.array_equal(correct_counts([10.0, 5.0], operator), [10.0, 5.0])


def test_correct_counts_hand_example():
    operator = CorrectionOperator(("A", "B"), np.array([[0.75, 0.25], [0.25, 0.75]]))
    assert np.allclose(correct_counts([100.0, 0.0], operator), [75.0, 25.0], atol=1e-12)


def test_correct_counts_linear_and_mass_preserving():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        operator = correction_operator(random_counts(rng, n))
        a = rng.uniform(0, 100, size=n)
        b = rng.uniform(0, 100, size=n)
        combined = correct_counts(a + b, operator)
        assert np.allclose(combined, correct_counts(a, operator) + correct_counts(b, operator), atol=1e-9)
        assert correct_counts(a, operator).sum() == pytest.approx(a.sum(), rel=1e-9)


@pytest.mark.parametrize(
    "matrix", [[[np.nan, 1.0], [0.0, 1.0]], [[1.0, 0.0], [np.nan, np.nan]]],
    ids=["entry", "row"],
)
def test_operator_rejects_a_nan(matrix):
    with pytest.raises(ValueError, match="operator entries must lie in"):
        CorrectionOperator(("A", "B"), matrix)


def test_correct_counts_validation():
    operator = CorrectionOperator(("A", "B"), np.eye(2))
    with pytest.raises(ValueError, match="length"):
        correct_counts([1.0, 2.0, 3.0], operator)
    with pytest.raises(ValueError, match="nonnegative"):
        correct_counts([-1.0, 2.0], operator)


# ---------------------------------------------------------------- audit


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_papers_correction_has_a_worse_ratio_error_than_raw_on_its_own_confusion(seed):
    """ROADMAP item 17 on exact tallies: C is the published confusion with
    its columns normalized, P(guess | actual), and the reference mix is its
    column shares. 15 target mixes per concentration c are drawn from
    Dirichlet(7 c x reference mix) and tallied as g = C p, with no sampling
    noise. A target's ratio error is the mean over regions of
    |log(estimated target / reference share) - log(true ratio)|. The
    paper's correction (the confusion reweighted to the reference's guess
    shares, row-normalized, applied to both tallies) has a larger median
    ratio error than the raw guess shares at every c. At seed 1 the medians
    read raw 0.894 / 0.205 / 0.103 and paper 1.168 / 0.270 / 0.145."""
    counts = ConfusionCounts.from_csv(reference_confusion_path())
    confusion = counts.matrix / counts.column_sums
    reference = counts.column_sums / counts.total
    guessed = confusion @ reference
    operator = correction_operator(reweight_priors(counts, guessed / guessed.sum()))
    corrected = correct_counts(guessed, operator)
    rng = np.random.default_rng(seed)
    for c in (1, 5, 20):
        raw, paper = [], []
        for target in rng.dirichlet(7 * c * reference, size=15):
            truth = np.log(target / reference)
            tally = confusion @ target
            raw.append(np.abs(np.log(tally / guessed) - truth).mean())
            paper.append(np.abs(np.log(correct_counts(tally, operator) / corrected) - truth).mean())
        assert np.median(paper) > np.median(raw), (c, np.median(paper), np.median(raw))
