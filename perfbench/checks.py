"""Output checks computed apart from the program.

Nothing here imports `onoma`. Each check re-derives an artifact from the
documented file formats and the benchmark's own inputs, and returns a list
of problems; an empty list means the artifact is right.

- Naive-Bayes scorer: reads `model.json` and scores surnames from the
  documented feature format (per word, `^word$` padding, every n-gram of the
  sizes in `feature_config`, log prior plus count-weighted log likelihoods
  of in-vocabulary tokens, first maximum over the sorted regions).
- Core filter: Herfindahl-Hirschman index over per-country normalized
  frequencies, kept at `hhi >= hhi_min` and `max frequency >= freq_min`,
  assigned to the country of maximal frequency (ties to the smallest code).
- Correction: columns of the confusion matrix rescaled to the reference
  guess shares, rows normalized; corrected counts are guesses times that
  operator; ratios are shares over the reference share.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

# Two region scores closer than this are a near tie: the program and this
# scorer add the same terms in a different order, so either label may win.
NEAR_TIE = 1e-9
# Relative tolerance for real-valued cells recomputed from the same inputs.
REL_TOL = 1e-9

_WS_RUN = re.compile(r"\s+")


# ------------------------------------------------------------ small helpers


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_tree(directory: Path) -> dict[str, str]:
    """sha256 of every regular file under `directory`, keyed by relative path."""
    return {
        str(path.relative_to(directory)): sha256_file(path)
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def read_lines(path: Path) -> list[str]:
    return [line.strip() for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def l1(p: Sequence[float], q: Sequence[float]) -> float:
    return float(np.abs(np.asarray(p, dtype=float) - np.asarray(q, dtype=float)).sum())


# ------------------------------------------------------- naive-Bayes scorer


def normalize(surname: str, strip_diacritics: bool = False) -> str:
    """NFC, lowercase, trimmed, inner whitespace collapsed to one space."""
    text = _WS_RUN.sub(" ", unicodedata.normalize("NFC", surname).lower()).strip()
    if strip_diacritics:
        decomposed = unicodedata.normalize("NFD", text)
        text = unicodedata.normalize(
            "NFC", "".join(ch for ch in decomposed if not unicodedata.combining(ch))
        )
    return text


def ngrams(
    surname: str, n_values: Iterable[int], pad: bool = True, start: str = "^", end: str = "$"
) -> dict[str, int]:
    """Token counts: every n-gram of each (padded) word, with multiplicity."""
    counts: dict[str, int] = {}
    for word in surname.split(" "):
        if not word:
            continue
        text = start + word + end if pad else word
        for n in n_values:
            for i in range(len(text) - n + 1):
                token = text[i : i + n]
                counts[token] = counts.get(token, 0) + 1
    return counts


@dataclass(frozen=True, eq=False)
class NaiveBayes:
    """The scoring-relevant content of a `model.json` document."""

    regions: tuple[str, ...]
    vocab: dict[str, int]
    log_priors: np.ndarray  # (regions,)
    log_likelihoods_t: np.ndarray  # (vocabulary, regions)
    n_values: tuple[int, ...]
    pad: bool
    start: str
    end: str
    strip_diacritics: bool

    @classmethod
    def from_doc(cls, doc: Mapping) -> "NaiveBayes":
        fc = doc["feature_config"]
        return cls(
            regions=tuple(doc["regions"]),
            vocab={token: j for j, token in enumerate(doc["vocabulary"])},
            log_priors=np.asarray(doc["log_priors"], dtype=float),
            log_likelihoods_t=np.ascontiguousarray(
                np.asarray(doc["log_likelihoods"], dtype=float).T
            ),
            n_values=tuple(sorted(int(n) for n in fc["n_values"])),
            pad=bool(fc["pad_boundaries"]),
            start=str(fc["start_marker"]),
            end=str(fc["end_marker"]),
            strip_diacritics=bool(fc.get("strip_diacritics", False)),
        )

    @classmethod
    def load(cls, path: Path) -> "NaiveBayes":
        return cls.from_doc(json.loads(Path(path).read_text(encoding="utf-8")))

    def score(self, surnames: Sequence[str], chunk: int = 20000) -> "Scores":
        """Labels for the distinct surnames given, in first-seen order."""
        distinct = list(dict.fromkeys(surnames))
        labels: dict[str, str] = {}
        near_ties: set[str] = set()
        prior_only: set[str] = set()
        for lo in range(0, len(distinct), chunk):
            block = distinct[lo : lo + chunk]
            ids: list[int] = []
            weights: list[float] = []
            starts: list[int] = []
            for surname in block:
                starts.append(len(ids))
                tokens = ngrams(
                    normalize(surname, self.strip_diacritics),
                    self.n_values,
                    self.pad,
                    self.start,
                    self.end,
                )
                for token, c in tokens.items():
                    j = self.vocab.get(token)
                    if j is not None:
                        ids.append(j)
                        weights.append(float(c))
            n_tokens = np.diff(np.asarray(starts + [len(ids)]))
            scores = np.tile(self.log_priors, (len(block), 1))
            if ids:
                terms = self.log_likelihoods_t[ids] * np.asarray(weights)[:, None]
                has = n_tokens > 0
                sums = np.add.reduceat(terms, np.asarray(starts)[has], axis=0)
                scores[has] += sums
            top2 = np.sort(scores, axis=1)[:, -2:]
            for k, surname in enumerate(block):
                # First maximum over sorted regions: lexicographic tie-break.
                labels[surname] = self.regions[int(np.argmax(scores[k]))]
                second, best = top2[k]
                if best - second <= NEAR_TIE * max(1.0, abs(best)):
                    near_ties.add(surname)
                if n_tokens[k] == 0:
                    prior_only.add(surname)
        return Scores(labels, near_ties, prior_only)


@dataclass(frozen=True, eq=False)
class Scores:
    labels: dict[str, str]
    near_ties: set[str]
    prior_only: set[str]

    def tally(self, regions: Sequence[str], surnames: Sequence[str]) -> tuple[np.ndarray, int]:
        """Per-region label counts over `surnames`, plus its near-tie count."""
        index = {r: i for i, r in enumerate(regions)}
        counts = np.zeros(len(regions))
        ties = 0
        for surname in surnames:
            counts[index[self.labels[surname]]] += 1
            ties += surname in self.near_ties
        return counts, ties


# ------------------------------------------------------------- core filter


def read_corpus(path: Path, strip_diacritics: bool = False) -> dict[str, dict[str, int]]:
    """surname -> country -> merged count, from surname<TAB>country<TAB>count."""
    table: dict[str, dict[str, int]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line:
            continue
        surname, country, count = line.split("\t")
        by_country = table.setdefault(normalize(surname, strip_diacritics), {})
        code = country.strip().upper()
        by_country[code] = by_country.get(code, 0) + int(count)
    return table


@dataclass(frozen=True)
class Core:
    country: str
    hhi: float
    max_frequency: float


def core_names(
    table: Mapping[str, Mapping[str, int]], hhi_min: float = 0.8, freq_min: float = 1e-6
) -> dict[str, Core]:
    """Concentrated surnames with their assigned countries."""
    totals: dict[str, int] = {}
    for by_country in table.values():
        for code, count in by_country.items():
            totals[code] = totals.get(code, 0) + count
    out: dict[str, Core] = {}
    for surname in sorted(table):
        by_country = table[surname]
        codes = sorted(by_country)
        freqs = [by_country[c] / totals[c] for c in codes]
        total = sum(freqs)
        concentration = sum((f / total) ** 2 for f in freqs)
        top = max(freqs)
        if concentration >= hhi_min and top >= freq_min:
            country = min(c for c, f in zip(codes, freqs) if f == top)
            out[surname] = Core(country, concentration, top)
    return out


def read_core_tsv(path: Path) -> dict[str, Core]:
    out: dict[str, Core] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line:
            surname, country, hhi, top = line.split("\t")
            out[surname] = Core(country, float(hhi), float(top))
    return out


def core_problems(expected: Mapping[str, Core], got: Mapping[str, Core]) -> list[str]:
    problems = []
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    if missing:
        problems.append(f"core.tsv lacks {len(missing)} core names, e.g. {missing[:3]}")
    if extra:
        problems.append(f"core.tsv has {len(extra)} names that are not core, e.g. {extra[:3]}")
    moved = sorted(s for s in set(expected) & set(got) if expected[s].country != got[s].country)
    if moved:
        problems.append(f"core.tsv assigns {len(moved)} names to another country, e.g. {moved[:3]}")
    off = sorted(
        s
        for s in set(expected) & set(got)
        if not (_close(expected[s].hhi, got[s].hhi, 1e-5)
                and _close(expected[s].max_frequency, got[s].max_frequency, 1e-5))
    )
    if off:
        problems.append(f"core.tsv hhi/max_frequency off for {len(off)} names, e.g. {off[:3]}")
    return problems


# -------------------------------------------------------------- confusion


def read_matrix_csv(path: Path) -> tuple[tuple[str, ...], np.ndarray, dict[str, str]]:
    """Square region-labelled grid, plus any `# key: value` header lines."""
    header: dict[str, str] = {}
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            header[key.strip()] = value.strip()
        elif line:
            rows.append(line.split(","))
    regions = tuple(rows[0][1:])
    labels = tuple(row[0] for row in rows[1:])
    if labels != regions:
        raise ValueError(f"{path}: row labels {labels} differ from columns {regions}")
    return regions, np.asarray([[float(x) for x in row[1:]] for row in rows[1:]]), header


def confusion(
    scores: Scores, regions: Sequence[str], labeled: Sequence[tuple[str, str]]
) -> tuple[np.ndarray, int]:
    """Guessed-by-actual counts over (surname, actual) pairs, plus near ties."""
    index = {r: i for i, r in enumerate(regions)}
    matrix = np.zeros((len(regions), len(regions)))
    ties = 0
    for surname, actual in labeled:
        matrix[index[scores.labels[surname]], index[actual]] += 1
        ties += surname in scores.near_ties
    return matrix, ties


def confusion_problems(expected: np.ndarray, got: np.ndarray, near_ties: int) -> list[str]:
    """Cells must match exactly; each near tie may move one count to another row."""
    if expected.shape != got.shape:
        return [f"confusion shape {got.shape}, expected {expected.shape}"]
    moved = float(np.abs(expected - got).sum())
    if moved > 2 * near_ties:
        return [f"confusion.csv differs from the independent scorer in {moved:g} counts"
                f" ({near_ties} near ties allowed)"]
    return []


# ------------------------------------------------------------- correction


def operator_matrix(confusion_counts: np.ndarray, priors: Sequence[float]) -> np.ndarray:
    """Row-normalized confusion after rescaling columns to the given priors."""
    m = np.asarray(confusion_counts, dtype=float)
    p = np.asarray(priors, dtype=float)
    scaled = m * (p * m.sum() / m.sum(axis=0))[None, :]
    return scaled / scaled.sum(axis=1)[:, None]


def priors_header_problems(tally: np.ndarray, header: Mapping[str, str]) -> list[str]:
    expected = ",".join(f"{p:.6g}" for p in tally / tally.sum())
    got = header.get("priors")
    if got != expected:
        return [f"operator.csv priors {got!r}, independent tally gives {expected!r}"]
    return []


def matrix_problems(name: str, expected: np.ndarray, got: np.ndarray) -> list[str]:
    if expected.shape != got.shape:
        return [f"{name} shape {got.shape}, expected {expected.shape}"]
    bad = [
        (i, j)
        for i in range(expected.shape[0])
        for j in range(expected.shape[1])
        if not _close(float(expected[i, j]), float(got[i, j]))
    ]
    if bad:
        return [f"{name} differs from the independent computation at {len(bad)} cells, e.g. {bad[:3]}"]
    return []


@dataclass(frozen=True)
class DatasetRow:
    n_names: int
    n_prior_only: int
    counts: dict[str, float]
    shares: dict[str, float]


def read_distributions(path: Path) -> dict[str, DatasetRow]:
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    header = rows[0]
    out: dict[str, DatasetRow] = {}
    for row in rows[1:]:
        if not row:
            continue
        counts: dict[str, float] = {}
        shares: dict[str, float] = {}
        for key, value in zip(header[3:], row[3:]):
            kind, _, region = key.partition(":")
            (counts if kind == "count" else shares)[region] = float(value)
        out[row[0]] = DatasetRow(int(row[1]), int(row[2]), counts, shares)
    return out


def read_ratios(path: Path) -> dict[str, dict[str, float]]:
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    regions = rows[0][1:]
    return {
        row[0]: {r: float(v) for r, v in zip(regions, row[1:])} for row in rows[1:] if row
    }


def distribution_problems(
    regions: Sequence[str],
    operator: np.ndarray,
    tallies: Mapping[str, tuple[np.ndarray, int]],
    sizes: Mapping[str, int],
    prior_only: Mapping[str, int],
    reference: str,
    distributions: Mapping[str, DatasetRow],
    ratios: Mapping[str, Mapping[str, float]],
) -> list[str]:
    """distributions.csv and ratios.csv against tally x operator.

    `tallies` maps each dataset to its independent guess tally and its
    near-tie count; a dataset with near ties gets one count of slack per tie.
    """
    problems = []
    if set(distributions) != set(tallies):
        return [f"distributions.csv datasets {sorted(distributions)}, expected {sorted(tallies)}"]
    if set(ratios) != set(tallies):
        return [f"ratios.csv datasets {sorted(ratios)}, expected {sorted(tallies)}"]
    ref = distributions[reference]
    for name, (tally, ties) in tallies.items():
        row = distributions[name]
        if row.n_names != sizes[name]:
            problems.append(f"{name}: n_names {row.n_names}, file has {sizes[name]}")
        if row.n_prior_only != prior_only[name]:
            problems.append(f"{name}: n_prior_only {row.n_prior_only}, expected {prior_only[name]}")
        expected = tally @ operator
        got = np.asarray([row.counts[r] for r in regions])
        slack = ties * float(np.abs(operator).max())
        if any(abs(e - g) > REL_TOL * max(1.0, abs(e)) + slack for e, g in zip(expected, got)):
            problems.append(f"{name}: corrected counts {got.round(6).tolist()},"
                            f" tally x operator gives {expected.round(6).tolist()}")
        if not _close(float(got.sum()), float(sizes[name])):
            problems.append(f"{name}: corrected counts sum to {got.sum()!r}, not {sizes[name]}")
        for r in regions:
            if not _close(row.shares[r], row.counts[r] / got.sum()):
                problems.append(f"{name}: share of {r} is not count over total")
            if not _close(ratios[name][r], row.shares[r] / ref.shares[r]):
                problems.append(f"{name}: ratio of {r} is not its share over the reference share")
    return problems


# ------------------------------------------------------------ ground truth


def partition_problems(
    assignment: Mapping[str, str | None], truth: Mapping[str, str]
) -> list[str]:
    """The typology's country groups must be the generator's region groups."""

    def groups(mapping: Mapping[str, str | None]) -> set[frozenset[str]]:
        out: dict[str, set[str]] = {}
        for country, region in mapping.items():
            if region is not None:
                out.setdefault(region, set()).add(country)
        return {frozenset(g) for g in out.values()}

    if groups(assignment) != groups(truth):
        return ["typology partition differs from the generator's country-to-region map"]
    return []


def read_typology(path: Path) -> dict[str, str | None]:
    out: dict[str, str | None] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            country, region = line.split("\t")
            out[country] = None if region == "DELETED" else region
    return out


def label_map(assignment: Mapping[str, str | None], truth: Mapping[str, str]) -> dict[str, str]:
    """Typology label -> true region, for a partition that matches the truth."""
    return {
        region: truth[country] for country, region in assignment.items() if region is not None
    }


def recall(matrix: np.ndarray) -> np.ndarray:
    return np.diag(matrix) / matrix.sum(axis=0)


def scorecard_problems(
    card: Mapping, true_regions: Sequence[str], recall_floor: float
) -> list[str]:
    problems = []
    if card.get("partition_exact") is not True:
        problems.append("scorecard: typology partition is not the generator's")
    mapped = list(card.get("region_map", {}).values())
    if sorted(mapped) != sorted(true_regions):
        problems.append(f"scorecard: region_map {card.get('region_map')} is not a bijection")
    low = {r: v for r, v in card.get("recall", {}).items() if v < recall_floor}
    if low or set(card.get("recall", {})) != set(true_regions):
        problems.append(f"scorecard: recall below {recall_floor} or missing: {low}")
    return problems


def expected_eval_size(region_sizes: Iterable[int], train_fraction: float) -> int:
    """Held-out names of the stratified split: n - ceil(fraction * n) per region."""
    return sum(n - math.ceil(train_fraction * n) for n in region_sizes)


def config_problems(
    config: Mapping[str, object],
    known_keys: Iterable[str],
    echoed: Mapping[str, object],
    unechoed_keys: Iterable[str],
) -> list[str]:
    """A config file against the keys its reader knows and the echo it gave.

    Every key written must be one the reader knows (it drops the others
    silently), and every key outside `unechoed_keys` must come back with the
    value written.
    """
    unknown = sorted(set(config) - set(known_keys))
    problems = [f"config keys {unknown} are not read by the program"] if unknown else []
    skipped = set(unechoed_keys)
    problems += [
        f"echoed config {key}: {echoed.get(key, '<missing>')!r}, configured {value!r}"
        for key, value in config.items()
        if key not in skipped and echoed.get(key, object()) != value
    ]
    return problems
