"""One-name and dense references the tests compare the library with.

The library works on columns and sparse rows and no longer calls these; they
moved here verbatim from it (`feature_row` and `dense` were the methods
`FeatureMatrix.row` and `CountryFeatureMatrix.rows`; `draw` and `next_symbol`
were the methods `_RowSampler.draw` and `MarkovChain.next_symbol`).

`generate` and `generate_population` are the library's generators as they
were when every character took its doubles from `rng.random()` one at a
time; the library now reads them from blocks and must give the same bytes.
"""

import operator
from bisect import bisect_right
from functools import reduce
from typing import Iterable

import numpy as np

from onoma.corpus import OccurrenceTable
from onoma.errors import InvariantError
from onoma.features import FeatureMatrix, FeatureVector
from onoma.synth import STOP, MarkovChain, PopulationSpec, RegionGenerator, SynthSpec, _RowSampler
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


def core_shares(
    table: OccurrenceTable, surname: str, *, basis: str = "frequency"
) -> dict[str, float]:
    """Per-country share vector for one surname, keyed by sorted country code.

    Shares are computed over per-country normalized frequencies by default,
    so heavily sampled countries do not dominate the concentration measure.
    `basis="count"` switches to raw counts. Weights add left to right.
    """
    per_country = table.countries_of(surname)
    if not per_country:
        raise ValueError(f"surname {surname!r} has no occurrences")
    if basis not in ("frequency", "count"):
        raise ValueError(f"unknown share basis {basis!r}")
    countries = sorted(per_country)
    if basis == "frequency":
        weights = [table.frequency(surname, c) for c in countries]
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


def draw(sampler: _RowSampler, rng: np.random.Generator, allow_stop: bool) -> str:
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
    if generated:
        sampler = chain._samplers.get(generated[-chain.order :])  # type: ignore[attr-defined]
        if sampler is None and chain.order == 2:
            sampler = chain._samplers.get(generated[-1:])  # type: ignore[attr-defined]
    else:
        sampler = None
    if sampler is None:
        sampler = chain._start_sampler  # type: ignore[attr-defined]
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
    truth_counts = {g.region: 0 for g in spec.generators}
    for _ in range(population.n_names):
        idx = min(bisect_right(cum, rng.random()), len(spec.generators) - 1)
        generator = spec.generators[idx]
        names.append(_sample_name(generator, spec.global_chain, spec.overlap, rng))
        truth_counts[generator.region] += 1
    return names, truth_counts
