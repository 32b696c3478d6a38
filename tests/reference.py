"""One-name and dense references the tests compare the library with.

The library works on columns and sparse rows and no longer calls these; they
moved here verbatim from it (`feature_row` and `dense` were the methods
`FeatureMatrix.row` and `CountryFeatureMatrix.rows`; `draw` and `next_symbol`
were the methods `_RowSampler.draw` and `MarkovChain.next_symbol`).
`extract` and `classify` are the per-name n-gram loop and scorer that the
library's `extract` and `classify` were before they became one-name calls
into `featurize` and `classify_batch`. `RowSums` holds the true cumulative
sums of a chain's distribution, by the formula the library's rows use before
their last sum becomes `+inf`; `next_symbol` computes them from the chain's
`start` and `transitions`, not from the rows the library draws from.
`core_shares` and `shares` take a surname's counts and the country totals
from `occurrences`, which sums them from the rows of the table's corpus TSV
(`triples`), so they trust no total the table computed.

`generate` and `generate_population` are the library's generators as they
were when every character took its doubles from `rng.random()` one at a
time; the library now reads them from blocks and must give the same bytes.
"""

import operator
from bisect import bisect_right
from functools import lru_cache, reduce
from typing import Iterable, Mapping

import numpy as np

from onoma.classifier import Classification, TrainedModel
from onoma.corpus import OccurrenceTable, normalize_surname, render_corpus_tsv
from onoma.errors import InvariantError
from onoma.features import FeatureMatrix, FeatureVector, NGramConfig
from onoma.synth import STOP, MarkovChain, PopulationSpec, RegionGenerator, SynthSpec
from onoma.typology import CountryFeatureMatrix
from onoma.util import derive_seed


def _sum_left(values: Iterable[float]) -> float:
    """Left-to-right float sum: `sum()` before Python 3.12 (later ones compensate)."""
    return reduce(operator.add, values, 0.0)


def hhi(shares: Iterable[float]) -> float:
    """Herfindahl-Hirschman concentration: sum of squared shares.

    1.0 is full concentration in one entry; a uniform split over k entries
    gives exactly 1/k. The input must be a probability vector. Sums add
    left to right on every Python version.
    """
    values = [float(s) for s in shares]
    if any(s < 0 for s in values):
        raise ValueError("shares must be nonnegative")
    total = _sum_left(values)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"shares must sum to 1 (got {total!r})")
    return _sum_left(s * s for s in values)


def triples(table: OccurrenceTable) -> list[tuple[str, str, int]]:
    """Every (surname, country, count) of a table, as its corpus TSV lists them."""
    lines = render_corpus_tsv(table).split("\n")[:-1]
    return [(s, c, int(n)) for s, c, n in (line.split("\t") for line in lines)]


def occurrences(table: OccurrenceTable) -> tuple[dict[str, dict[str, int]], dict[str, int]]:
    """Each surname's counts by country and each country's total, summed
    here from the table's rows (`triples`), not read from the table."""
    by_surname: dict[str, dict[str, int]] = {}
    totals: dict[str, int] = {}
    for s, c, n in triples(table):
        by_surname.setdefault(s, {})[c] = n
        totals[c] = totals.get(c, 0) + n
    return by_surname, totals


def core_shares(
    table: OccurrenceTable, surname: str, *, basis: str = "frequency"
) -> dict[str, float]:
    """Per-country share vector for one surname of `table`: `shares` of its
    `occurrences`."""
    by_surname, totals = occurrences(table)
    if surname not in by_surname:
        raise ValueError(f"surname {surname!r} has no occurrences")
    return shares(by_surname[surname], totals, basis=basis)


def shares(
    per_country: Mapping[str, int], totals: Mapping[str, int], *, basis: str = "frequency"
) -> dict[str, float]:
    """Per-country share vector for one surname's counts, keyed by sorted country code.

    Shares are computed over per-country normalized frequencies (count /
    country total, Python's int / int) by default, so heavily sampled
    countries do not dominate the concentration measure. `basis="count"`
    switches to raw counts. Weights add left to right.
    """
    if basis not in ("frequency", "count"):
        raise ValueError(f"unknown share basis {basis!r}")
    countries = sorted(per_country)
    if basis == "frequency":
        weights = [per_country[c] / totals[c] for c in countries]
    else:
        weights = [float(per_country[c]) for c in countries]
    total = _sum_left(weights)
    return {c: w / total for c, w in zip(countries, weights)}


def feature_row(matrix: FeatureMatrix, i: int) -> FeatureVector:
    """Row i of a `FeatureMatrix` as a token -> count dict."""
    a, b = matrix.indptr[i], matrix.indptr[i + 1]
    return {matrix.tokens[j]: int(c) for j, c in zip(matrix.ids[a:b], matrix.counts[a:b])}


def dense(matrix: CountryFeatureMatrix) -> np.ndarray:
    """The dense countries x vocabulary array of a country matrix."""
    n = len(matrix.countries)
    return matrix.dense_rows(0, n, np.empty((n, len(matrix.vocabulary))))


def extract(surname: str, config: NGramConfig = NGramConfig()) -> FeatureVector:
    """Token -> occurrence count for every configured n-gram size.

    For each word of the (already normalized) surname, the padded string
    contributes every contiguous substring of length n with multiplicity;
    words shorter than n contribute nothing for that n. The boundary
    markers `^` and `$` are written here, not read from the package.
    Pure function.
    """
    if not surname:
        raise ValueError("empty surname")
    for marker in ("^", "$"):
        if marker in surname:
            raise ValueError(f"surname contains reserved marker {marker!r}")
    counts: FeatureVector = {}
    for word in surname.split(" "):
        if not word:
            continue
        padded = "^" + word + "$" if config.pad_boundaries else word
        for n in config.n_values:
            for i in range(len(padded) - n + 1):
                token = padded[i : i + n]
                counts[token] = counts.get(token, 0) + 1
    return counts


def classify(model: TrainedModel, surname: str) -> Classification:
    """Score a surname against every region.

    score(r) = log prior(r) + sum over in-vocabulary tokens of
    count * log likelihood(r, token). Out-of-vocabulary tokens are ignored
    (the model's event space is its training vocabulary); a name with no
    known token at all falls back to the priors and is flagged.
    """
    normalized = normalize_surname(surname, model.strip_diacritics)
    if not normalized:
        raise ValueError(f"surname {surname!r} is empty after normalization")
    tokens = extract(normalized, model.feature_config)
    indices: list[int] = []
    counts: list[float] = []
    vocab_index = model.vocab_index  # type: ignore[attr-defined]
    for token, c in tokens.items():
        j = vocab_index.get(token)
        if j is not None:
            indices.append(j)
            counts.append(float(c))
    scores = model.log_priors.copy()
    if indices:
        scores = scores + model.log_likelihoods[:, indices] @ np.array(counts)
    shifted = np.exp(scores - scores.max())
    posterior = shifted / shifted.sum()
    best = float(scores.max())
    label = min(model.regions[i] for i in range(len(scores)) if scores[i] == best)
    return Classification(
        label=label,
        regions=model.regions,
        scores=scores,
        posterior=posterior,
        prior_only=not indices,
    )


class RowSums:
    """True cumulative sums of one distribution, with and without the stop state."""

    def __init__(self, dist: Mapping[str, float]):
        items = sorted(dist.items())
        self.symbols = [s for s, _ in items]
        self.cum_full = np.cumsum([p for _, p in items]).tolist()
        nonstop = [(s, p) for s, p in items if s != STOP]
        self.nonstop_symbols = [s for s, _ in nonstop]
        weights = np.array([p for _, p in nonstop])
        self.cum_nonstop = np.cumsum(weights / weights.sum()).tolist()


@lru_cache(maxsize=256)
def chain_sums(chain: MarkovChain) -> tuple[RowSums, dict[str, RowSums]]:
    """`RowSums` of a chain's start distribution and of each context's row."""
    return RowSums(chain.start), {ctx: RowSums(row) for ctx, row in chain.transitions.items()}


def draw(sampler: RowSums, rng: np.random.Generator, allow_stop: bool) -> str:
    # The first sum above u wins, so a u on a boundary takes the next
    # symbol; the clamp covers a last sum that rounds below 1.
    u = rng.random()
    if allow_stop:
        idx = bisect_right(sampler.cum_full, u)
        return sampler.symbols[min(idx, len(sampler.symbols) - 1)]
    idx = bisect_right(sampler.cum_nonstop, u)
    return sampler.nonstop_symbols[min(idx, len(sampler.nonstop_symbols) - 1)]


def next_symbol(
    chain: MarkovChain, generated: str, rng: np.random.Generator, allow_stop: bool
) -> str:
    # Unknown contexts (possible after a cross-chain character) fall back
    # to the start distribution.
    start, samplers = chain_sums(chain)
    if generated:
        sampler = samplers.get(generated[-chain.order :])
        if sampler is None and chain.order == 2:
            sampler = samplers.get(generated[-1:])
    else:
        sampler = None
    if sampler is None:
        sampler = start
        allow_stop = False
    return draw(sampler, rng, allow_stop)


def _sample_name(
    generator: RegionGenerator,
    global_chain: MarkovChain,
    overlap: float,
    rng: np.random.Generator,
) -> str:
    chars: list[str] = []
    while len(chars) < generator.max_len:
        chain = global_chain if rng.random() < overlap else generator.chain
        allow_stop = len(chars) >= generator.min_len
        symbol = next_symbol(chain, "".join(chars[-2:]), rng, allow_stop)
        if symbol == STOP:
            break
        chars.append(symbol)
    return "".join(chars)


def generate(spec: SynthSpec) -> tuple[OccurrenceTable, dict[str, str]]:
    truth: dict[str, str] = {}
    pairs: list[tuple[str, str, int]] = []
    for country in sorted(spec.countries, key=lambda c: c.code):
        generator = spec.generator_for(country.region)
        rng = np.random.default_rng(derive_seed(spec.seed, f"corpus:{country.code}"))
        for _ in range(country.n_names):
            for _attempt in range(100):
                name = _sample_name(generator, spec.global_chain, spec.overlap, rng)
                owner = truth.get(name)
                if owner is None or owner == country.region:
                    break
            else:
                raise InvariantError(
                    f"no collision-free name for {country.code} after 100 attempts"
                )
            truth[name] = country.region
            count = 1 + int(rng.poisson(country.volume - 1.0))
            pairs.append((name, country.code, count))
    return OccurrenceTable(pairs), truth


def generate_population(
    spec: SynthSpec, population: PopulationSpec
) -> tuple[list[str], dict[str, int]]:
    rng = np.random.default_rng(derive_seed(spec.seed, f"population:{population.name}"))
    weights = np.asarray(population.region_weights, dtype=float)
    cum = np.cumsum(weights / weights.sum()).tolist()
    names: list[str] = []
    truth_counts = {g.label: 0 for g in spec.regions}
    for _ in range(population.n_names):
        idx = min(bisect_right(cum, rng.random()), len(spec.regions) - 1)
        generator = spec.regions[idx]
        names.append(_sample_name(generator, spec.global_chain, spec.overlap, rng))
        truth_counts[generator.label] += 1
    return names, truth_counts
