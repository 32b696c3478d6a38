"""Synthetic multi-region surname corpora with known ground truth.

Each region owns a Markov chain over a letter alphabet; every generated
character is drawn from the region chain or, with probability `overlap`,
from a shared global chain. Overlap 0 gives fully separable regions,
overlap 1 makes them indistinguishable, so the end-to-end pipeline can be
scored against a controllable truth. All draws flow from per-country and
per-population sub-seeds, so generation is deterministic regardless of
scheduling.
"""

from __future__ import annotations

import json
import math
import string
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .classifier import EvalReport
from .corpus import CountryRegistry, OccurrenceTable
from .errors import InputFormatError, InvariantError
from .stages import PipelineConfig, run
from .typology import RegionTypology
from .util import atomic_write, derive_seed, dumps

__all__ = [
    "STOP",
    "MarkovChain",
    "RegionGenerator",
    "CountrySpec",
    "PopulationSpec",
    "SynthSpec",
    "standard_spec",
    "generate",
    "generate_population",
    "registry_for",
    "Scorecard",
    "score_pipeline",
]

# The stop state is the empty-string symbol.
STOP = ""


def _validate_dist(dist: Mapping[str, float], *, allow_stop: bool, what: str) -> None:
    if not dist:
        raise ValueError(f"{what}: empty distribution")
    total = 0.0
    nonstop = 0.0
    for symbol, prob in dist.items():
        if symbol == STOP and not allow_stop:
            raise ValueError(f"{what}: stop state not allowed here")
        if symbol != STOP and len(symbol) != 1:
            raise ValueError(f"{what}: symbols must be single characters, got {symbol!r}")
        if prob < 0:
            raise ValueError(f"{what}: negative probability for {symbol!r}")
        total += prob
        if symbol != STOP:
            nonstop += prob
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"{what}: probabilities sum to {total!r}, expected 1")
    if nonstop <= 0:
        raise ValueError(f"{what}: needs some non-stop mass")


class _RowSampler:
    """Cumulative tables for one distribution, with and without the stop state.

    `full` and `nonstop` pair each symbol list with its cumulative sums, the
    last sum replaced by `+inf`: the first sum above a double in [0, 1) then
    always exists, and it is the one `bisect_right` on the true sums finds,
    clamped to the last symbol when the last sum rounds below the double.
    `cum_full` and `cum_nonstop` rebuild the true sums on each read, so a
    spec, which lives through a whole scored run, holds one list of sums
    per row.
    """

    __slots__ = ("symbols", "nonstop_symbols", "full", "nonstop", "_last_full", "_last_nonstop")

    def __init__(self, dist: Mapping[str, float]):
        items = sorted(dist.items())
        self.symbols = [s for s, _ in items]
        # Python lists: bisect on a list costs far less per draw than
        # np.searchsorted on an array.
        cum_full = np.cumsum([p for _, p in items]).tolist()
        nonstop = [(s, p) for s, p in items if s != STOP]
        self.nonstop_symbols = [s for s, _ in nonstop]
        weights = np.array([p for _, p in nonstop])
        cum_nonstop = np.cumsum(weights / weights.sum()).tolist()
        self._last_full, self._last_nonstop = cum_full[-1], cum_nonstop[-1]
        cum_full[-1] = cum_nonstop[-1] = math.inf
        self.full = (self.symbols, cum_full)
        self.nonstop = (self.nonstop_symbols, cum_nonstop)

    @property
    def cum_full(self) -> list[float]:
        return self.full[1][:-1] + [self._last_full]

    @property
    def cum_nonstop(self) -> list[float]:
        return self.nonstop[1][:-1] + [self._last_nonstop]


@dataclass(frozen=True, eq=False)
class MarkovChain:
    """Character chain: start distribution plus per-context transition rows."""

    order: int
    start: Mapping[str, float]
    transitions: Mapping[str, Mapping[str, float]]

    def __post_init__(self) -> None:
        if self.order not in (1, 2):
            raise ValueError(f"order must be 1 or 2, got {self.order}")
        _validate_dist(self.start, allow_stop=False, what="start")
        samplers: dict[str, _RowSampler] = {}
        for context, row in self.transitions.items():
            _validate_dist(row, allow_stop=True, what=f"context {context!r}")
            samplers[context] = _RowSampler(row)
        start = _RowSampler(self.start)
        object.__setattr__(self, "_start_sampler", start)
        object.__setattr__(self, "_samplers", samplers)
        # What `_draw_name` reads: each context's row, with or without the
        # stop state. The empty context, where every name begins, maps to
        # the start distribution (never the stop state).
        for attr, row in (("_full_rows", "full"), ("_nonstop_rows", "nonstop")):
            rows = {ctx: getattr(sampler, row) for ctx, sampler in samplers.items()}
            rows[""] = start.nonstop
            object.__setattr__(self, attr, rows)

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "start": {s: float(p) for s, p in sorted(self.start.items())},
            "transitions": {
                ctx: {s: float(p) for s, p in sorted(row.items())}
                for ctx, row in sorted(self.transitions.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "MarkovChain":
        return cls(
            order=int(data["order"]),
            start=dict(data["start"]),
            transitions={ctx: dict(row) for ctx, row in data["transitions"].items()},
        )


@dataclass(frozen=True, eq=False)
class RegionGenerator:
    """Name generator for one region, with hard length bounds."""

    region: str
    chain: MarkovChain
    min_len: int = 3
    max_len: int = 12

    def __post_init__(self) -> None:
        if not 1 <= self.min_len <= self.max_len:
            raise ValueError(f"bad length bounds [{self.min_len}, {self.max_len}]")


@dataclass(frozen=True)
class CountrySpec:
    code: str
    region: str
    n_names: int
    volume: float = 1.0  # mean occurrence count per name, emulating uneven sampling

    def __post_init__(self) -> None:
        if self.n_names < 1:
            raise ValueError("n_names must be >= 1")
        if self.volume < 1:
            raise ValueError("volume must be >= 1")


@dataclass(frozen=True)
class PopulationSpec:
    """A held-out surname list drawn from the region chains with given mix."""

    name: str
    n_names: int
    region_weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n_names < 1:
            raise ValueError("n_names must be >= 1")
        weights = tuple(float(w) for w in self.region_weights)
        if not weights or min(weights) < 0 or sum(weights) <= 0:
            raise ValueError("region_weights must be nonnegative with positive sum")
        object.__setattr__(self, "region_weights", weights)

    @classmethod
    def from_dict(cls, data: Mapping) -> "PopulationSpec":
        return cls(
            name=str(data["name"]),
            n_names=int(data["n_names"]),
            region_weights=tuple(float(w) for w in data["region_weights"]),
        )


@dataclass(frozen=True, eq=False)
class SynthSpec:
    """Full description of a synthetic corpus; JSON-serializable."""

    seed: int
    overlap: float
    generators: tuple[RegionGenerator, ...]
    countries: tuple[CountrySpec, ...]
    global_chain: MarkovChain
    populations: tuple[PopulationSpec, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError(f"overlap must be in [0, 1], got {self.overlap}")
        labels = [g.region for g in self.generators]
        if len(set(labels)) != len(labels) or not labels:
            raise ValueError("region labels must be unique and non-empty")
        codes = [c.code for c in self.countries]
        if len(set(codes)) != len(codes) or not codes:
            raise ValueError("country codes must be unique and non-empty")
        known = set(labels)
        for c in self.countries:
            if c.region not in known:
                raise ValueError(f"country {c.code} references unknown region {c.region!r}")
        for p in self.populations:
            if len(p.region_weights) != len(self.generators):
                raise ValueError(f"population {p.name}: weight count mismatch")

    @property
    def region_labels(self) -> tuple[str, ...]:
        return tuple(g.region for g in self.generators)

    def generator_for(self, region: str) -> RegionGenerator:
        for g in self.generators:
            if g.region == region:
                return g
        raise KeyError(region)

    def to_json(self) -> str:
        doc = {
            "seed": self.seed,
            "overlap": float(self.overlap),
            "global_chain": self.global_chain.to_dict(),
            "regions": [
                {
                    "label": g.region,
                    "min_len": g.min_len,
                    "max_len": g.max_len,
                    "chain": g.chain.to_dict(),
                }
                for g in self.generators
            ],
            "countries": [
                {
                    "code": c.code,
                    "region": c.region,
                    "n_names": c.n_names,
                    "volume": float(c.volume),
                }
                for c in self.countries
            ],
            "populations": [
                {
                    "name": p.name,
                    "n_names": p.n_names,
                    "region_weights": list(p.region_weights),
                }
                for p in self.populations
            ],
        }
        return dumps(doc)

    def save(self, path: Path | str) -> Path:
        return atomic_write(path, self.to_json())

    @classmethod
    def from_json(cls, text: str, source: str = "<spec>") -> "SynthSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{source}: not valid JSON: {exc}") from None
        try:
            return cls(
                seed=int(doc["seed"]),
                overlap=float(doc["overlap"]),
                global_chain=MarkovChain.from_dict(doc["global_chain"]),
                generators=tuple(
                    RegionGenerator(
                        region=str(r["label"]),
                        chain=MarkovChain.from_dict(r["chain"]),
                        min_len=int(r.get("min_len", 3)),
                        max_len=int(r.get("max_len", 12)),
                    )
                    for r in doc["regions"]
                ),
                countries=tuple(
                    CountrySpec(
                        code=str(c["code"]).upper(),
                        region=str(c["region"]),
                        n_names=int(c["n_names"]),
                        volume=float(c.get("volume", 1.0)),
                    )
                    for c in doc["countries"]
                ),
                populations=tuple(
                    PopulationSpec.from_dict(p) for p in doc.get("populations", [])
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputFormatError(f"{source}: malformed spec: {exc}") from None

    @classmethod
    def load(cls, path: Path | str) -> "SynthSpec":
        return cls.from_json(Path(path).read_text(encoding="utf-8"), source=str(path))


def _letter_blocks(n_regions: int, alphabet: str) -> list[str]:
    base, extra = divmod(len(alphabet), n_regions)
    if base < 2:
        raise ValueError(f"alphabet too small for {n_regions} regions")
    blocks = []
    pos = 0
    for i in range(n_regions):
        size = base + (1 if i < extra else 0)
        blocks.append(alphabet[pos : pos + size])
        pos += size
    return blocks


def _random_chain(
    letters: str, rng: np.random.Generator, alphabet: str, leak: float
) -> MarkovChain:
    """Order-1 chain concentrated on `letters`, with rows for every context.

    `leak` spreads that fraction of each row uniformly over the full alphabet,
    blurring the region's letter signature independently of the global-chain
    overlap; 0 keeps region alphabets disjoint.
    """
    def blend(own: np.ndarray, mass: float) -> dict[str, float]:
        row = {ch: leak * mass / len(alphabet) for ch in alphabet}
        for ch, p in zip(letters, own):
            row[ch] = row.get(ch, 0.0) + (1.0 - leak) * mass * float(p)
        return row

    start = blend(rng.dirichlet(np.ones(len(letters))), 1.0)
    transitions: dict[str, dict[str, float]] = {}
    for context in alphabet:
        stop_w = float(rng.uniform(0.12, 0.25))
        row = blend(rng.dirichlet(np.ones(len(letters))), 1.0 - stop_w)
        row[STOP] = stop_w
        transitions[context] = row
    return MarkovChain(order=1, start=start, transitions=transitions)


def _uniform_chain(alphabet: str, stop_weight: float = 0.18) -> MarkovChain:
    start = {ch: 1.0 / len(alphabet) for ch in alphabet}
    row = {ch: (1.0 - stop_weight) / len(alphabet) for ch in alphabet}
    row[STOP] = stop_weight
    return MarkovChain(
        order=1, start=start, transitions={ch: dict(row) for ch in alphabet}
    )


def standard_spec(
    n_regions: int,
    countries_per_region: int,
    names_per_country: int,
    overlap: float,
    seed: int,
    *,
    leak: float = 0.25,
    volumes: Sequence[float] = (1.0, 10.0, 100.0),
    populations: Sequence[PopulationSpec] = (),
) -> SynthSpec:
    """Ready-made spec: one letter block per region, random chains.

    Region i is named R<i> and its countries get two-letter codes sharing a
    first letter, e.g. AA, AB, AC for R0. Country volumes cycle through
    `volumes` to emulate heterogeneous sampling intensity. `leak=0` makes
    region alphabets fully disjoint; the default leaves regions clearly
    separable but with realistic cross-region confusion.
    """
    if n_regions < 2:
        raise ValueError("need at least 2 regions")
    if n_regions > 12:
        raise ValueError("standard_spec supports at most 12 regions")
    if not 0.0 <= leak < 1.0:
        raise ValueError(f"leak must be in [0, 1), got {leak}")
    alphabet = string.ascii_lowercase
    blocks = _letter_blocks(n_regions, alphabet)
    generators = []
    for i, letters in enumerate(blocks):
        label = f"R{i}"
        rng = np.random.default_rng(derive_seed(seed, f"chain:{label}"))
        generators.append(
            RegionGenerator(region=label, chain=_random_chain(letters, rng, alphabet, leak))
        )
    countries = []
    for i in range(n_regions):
        for j in range(countries_per_region):
            countries.append(
                CountrySpec(
                    code=f"{chr(ord('A') + i)}{chr(ord('A') + j)}",
                    region=f"R{i}",
                    n_names=names_per_country,
                    volume=float(volumes[(i * countries_per_region + j) % len(volumes)]),
                )
            )
    return SynthSpec(
        seed=seed,
        overlap=overlap,
        generators=tuple(generators),
        countries=tuple(countries),
        global_chain=_uniform_chain(alphabet),
        populations=tuple(populations),
    )


def _draw_name(
    generator: RegionGenerator,
    global_chain: MarkovChain,
    overlap: float,
    u: list[float],
    pos: int,
) -> tuple[str, int]:
    """One name read from the doubles `u[pos:]`, and the position after them.

    Each character takes two doubles, so a name takes at most
    `2 * max_len`. The first picks the global chain when it is below
    `overlap`. The second picks the symbol from the chain's row for the last
    `order` characters; an order-2 chain falls back to the row of the last
    character, and any chain to its start distribution (never the stop
    state) when it has no row. The first cumulative sum above the double
    wins, so a double on a boundary takes the next symbol; each row's last
    sum is `+inf`, so the last symbol covers a true last sum that rounds
    below 1. The stop state can end a name once it has `min_len` characters.
    Each character costs one row lookup (more only on a fallback) and one
    `bisect_right`.
    """
    own = generator.chain
    min_len = generator.min_len
    max_len = generator.max_len
    name = ""
    while len(name) < max_len:
        chain = global_chain if u[pos] < overlap else own
        if len(name) >= min_len:
            rows = chain._full_rows  # type: ignore[attr-defined]
        else:
            rows = chain._nonstop_rows  # type: ignore[attr-defined]
        symbols, cum = rows.get(name[-chain.order :]) or rows.get(name[-1:]) or rows[""]
        symbol = symbols[bisect_right(cum, u[pos + 1])]
        pos += 2
        if symbol == STOP:
            break
        name += symbol
    return name, pos


def generate(spec: SynthSpec) -> tuple[OccurrenceTable, dict[str, str]]:
    """Synthetic occurrence table plus the surname -> region truth map.

    A name drawn for one region but already owned by another is regenerated
    (up to 100 attempts) so the truth map stays a function; duplicates within
    a region are kept and merge into the occurrence counts.

    A country's names read their doubles from a buffer that always holds
    one longest attempt past the read position, so a retry reads on from
    it. The only other draw is the name's count, `1 + poisson(volume - 1)`.
    With a mean above 0 it reads the stream, so the generator first steps
    back over the buffered doubles the name left unused, and the Poisson
    draw reads what one double per call would leave it; the buffer then
    starts again, one longest attempt at a time. A mean of 0 reads nothing
    (numpy returns 0 without touching the state), so the count is 1 and
    such a country reads its names from buffered runs of 4,096 doubles, as
    `generate_population` does.
    """
    truth: dict[str, str] = {}
    pairs: list[tuple[str, str, int]] = []
    global_chain, overlap = spec.global_chain, spec.overlap
    for country in sorted(spec.countries, key=lambda c: c.code):
        code, region = country.code, country.region
        generator = spec.generator_for(region)
        span = 2 * generator.max_len
        mean = country.volume - 1.0
        block = span if mean > 0 else max(span, 4096)
        seed = derive_seed(spec.seed, f"corpus:{code}")
        # what default_rng(seed) returns; numpy.random loads on this first
        # use, so `onoma pipeline`, which never draws from it, stays smaller
        rng = np.random.Generator(np.random.PCG64(seed))
        random, advance, poisson = rng.random, rng.bit_generator.advance, rng.poisson
        u: list[float] = []
        pos = 0
        for _ in range(country.n_names):
            for _attempt in range(100):
                if len(u) - pos < span:
                    u = u[pos:] + random(block).tolist()
                    pos = 0
                name, pos = _draw_name(generator, global_chain, overlap, u, pos)
                owner = truth.get(name)
                if owner is None or owner == region:
                    break
            else:
                raise InvariantError(f"no collision-free name for {code} after 100 attempts")
            truth[name] = region
            count = 1
            if mean > 0:
                # PCG64's state has period 2**128, so this steps back, and
                # the delta stays in the documented range 0 < delta < 2**128.
                unused = len(u) - pos
                if unused:
                    advance(2**128 - unused)
                u, pos = [], 0
                count += int(poisson(mean))
            pairs.append((name, code, count))
    return OccurrenceTable(pairs), truth


def generate_population(
    spec: SynthSpec, population: PopulationSpec
) -> tuple[list[str], dict[str, int]]:
    """Surname list drawn with the population's region mix, plus truth tallies.

    Every draw is a double: one picks the region, then the name reads on. So
    the doubles come in blocks, and what the last name leaves is never read.
    """
    if len(population.region_weights) != len(spec.generators):
        raise ValueError(f"population {population.name}: weight count mismatch")
    seed = derive_seed(spec.seed, f"population:{population.name}")
    rng = np.random.Generator(np.random.PCG64(seed))
    weights = np.asarray(population.region_weights, dtype=float)
    cum = np.cumsum(weights / weights.sum()).tolist()
    last = len(spec.generators) - 1
    need = 1 + 2 * max(g.max_len for g in spec.generators)
    block = max(need, 4096)
    u: list[float] = []
    pos = 0
    names: list[str] = []
    truth_counts = {g.region: 0 for g in spec.generators}
    for _ in range(population.n_names):
        if len(u) - pos < need:
            u = u[pos:] + rng.random(block).tolist()
            pos = 0
        generator = spec.generators[min(bisect_right(cum, u[pos]), last)]
        name, pos = _draw_name(generator, spec.global_chain, spec.overlap, u, pos + 1)
        names.append(name)
        truth_counts[generator.region] += 1
    return names, truth_counts


def registry_for(spec: SynthSpec) -> CountryRegistry:
    """Registry accepting exactly the spec's synthetic country codes."""
    return CountryRegistry({c.code: f"{c.code} ({c.region})" for c in spec.countries})


def render_truth_tsv(truth: Mapping[str, str]) -> str:
    return "".join(f"{name}\t{region}\n" for name, region in sorted(truth.items()))


def default_population(spec: SynthSpec, n_names: int = 2000) -> PopulationSpec:
    """Held-out mix deliberately shifted away from the near-uniform corpus mix."""
    weights = tuple(float(2 ** (i % 4)) for i in range(len(spec.generators)))
    return PopulationSpec(name="heldout", n_names=n_names, region_weights=weights)


@dataclass(frozen=True, eq=False)
class Scorecard:
    """End-to-end pipeline quality measured against the generator's truth."""

    true_regions: tuple[str, ...]
    recall: dict[str, float]  # per true region
    precision: dict[str, float]
    partition_exact: bool
    l1_raw: float
    l1_corrected: float
    n_core_names: int
    n_eval: int
    population_name: str
    region_map: dict[str, str]  # typology label -> true region

    def to_json(self) -> str:
        doc = {
            "true_regions": list(self.true_regions),
            "recall": {r: float(v) for r, v in self.recall.items()},
            "precision": {r: float(v) for r, v in self.precision.items()},
            "partition_exact": self.partition_exact,
            "l1_raw": float(self.l1_raw),
            "l1_corrected": float(self.l1_corrected),
            "n_core_names": self.n_core_names,
            "n_eval": self.n_eval,
            "population": self.population_name,
            "region_map": dict(sorted(self.region_map.items())),
        }
        return dumps(doc)


def _majority_region_map(
    typology: RegionTypology, country_truth: Mapping[str, str]
) -> dict[str, str]:
    """Each region of `typology` to the true region most of its countries
    belong to; a tie goes to the first true region by name."""
    mapping: dict[str, str] = {}
    for label in typology.regions:
        votes = Counter(country_truth[country] for country in typology.members(label))
        if votes:
            best = max(votes.values())
            mapping[label] = min(r for r, v in votes.items() if v == best)
    return mapping


def score_pipeline(
    spec: SynthSpec,
    *,
    min_core_names: int | None = None,
    alpha: float | None = None,
    corpus: tuple[OccurrenceTable, Mapping[str, str]] | None = None,
    heldout: tuple[Sequence[str], Mapping[str, int]] | None = None,
) -> Scorecard:
    """Run the pipeline's chain, `stages.run`, on a spec and score it on the truth.

    The typology is cut at the true region count and compared with the true
    country partition; classification metrics are mapped back to true regions
    by majority country vote; the correction step is scored by whether the
    corrected aggregate of a shifted-mixture held-out population beats the
    raw guessed aggregate in L1 distance to the truth. That population is
    the run's reference, calibrated on and compared.

    `corpus` is `generate(spec)` and `heldout` is `generate_population` of
    the scored population (the spec's first, else `default_population`),
    for a caller that already has them; each is generated here when None.
    Every other setting, and these two when None, is
    `stages.PipelineConfig`'s default; a value out of its range raises
    `ConfigError`.
    """
    given = {"min_core_names": min_core_names, "alpha": alpha}
    config = PipelineConfig(  # nothing is written to its out_dir
        spec.seed, Path(), synth_spec=spec, k_regions=len(spec.generators),
        **{k: v for k, v in given.items() if v is not None},
    )
    table, truth = generate(spec) if corpus is None else corpus
    population = spec.populations[0] if spec.populations else default_population(spec)
    names, truth_counts = generate_population(spec, population) if heldout is None else heldout
    got: dict[str, Any] = {}
    provenance = {"priors_source": f"population:{population.name}"}
    run(config, table, [(population.name, names)], got.__setitem__, provenance=provenance)
    typology, report, (dists, _) = got["typology"], got["eval_report"], got["compare"]
    core_names, eval_set = got["eval_set"]
    _, (guessed, _) = got["tallies"][0]  # the scored population's guess counts

    true_partition = {
        frozenset(c.code for c in spec.countries if c.region == g.region)
        for g in spec.generators
    }
    got_partition = {frozenset(typology.members(r)) for r in typology.regions}
    partition_exact = got_partition == true_partition

    region_map = _majority_region_map(typology, {c.code: c.region for c in spec.countries})

    # The evaluation's guesses, mapped through region_map, fill the
    # truth-space confusion; a guess whose region maps to no true region is
    # left out of it.
    true_labels = spec.region_labels
    true_index = {r: i for i, r in enumerate(true_labels)}
    to_true = np.array([true_index.get(region_map.get(r), -1) for r in report.regions])
    guessed_true = to_true[report.guessed]
    actual_true = np.array([true_index[truth[core_names[i]]] for i in eval_set.rows], np.int64)
    kept = guessed_true >= 0
    conf_true = np.zeros((len(true_labels), len(true_labels)), dtype=np.int64)
    np.add.at(conf_true, (guessed_true[kept], actual_true[kept]), 1)
    truth_report = EvalReport.from_confusion(true_labels, conf_true)

    total = float(len(names))
    truth_shares = np.array([truth_counts[r] for r in true_labels], dtype=float) / total
    mapped = to_true >= 0

    def l1(counts: np.ndarray) -> float:
        """L1 distance of per-region counts, summed into true regions, to the truth."""
        merged = np.bincount(to_true[mapped], counts[mapped], len(true_labels))
        return float(np.abs(merged / total - truth_shares).sum())

    return Scorecard(
        true_regions=true_labels,
        recall=dict(zip(true_labels, truth_report.recall.tolist())),
        precision=dict(zip(true_labels, truth_report.precision.tolist())),
        partition_exact=partition_exact,
        l1_raw=l1(guessed),
        l1_corrected=l1(dists[0].counts),
        n_core_names=got["summary"]["n_core_names"],
        n_eval=got["summary"]["n_eval"],
        population_name=population.name,
        region_map=region_map,
    )
