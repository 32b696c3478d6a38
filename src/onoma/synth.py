"""Synthetic multi-region surname corpora with known ground truth.

Each region owns a Markov chain over a letter alphabet; every generated
character is drawn from the region chain or, with probability `overlap`,
from a shared global chain. Overlap 0 gives fully separable regions,
overlap 1 makes them indistinguishable, so the end-to-end pipeline can be
scored against a controllable truth. All draws flow from per-country and
per-population sub-seeds, so generation is deterministic regardless of
scheduling. The spec file's objects are built into their classes by
`util.from_fields`, one key per field, so a key no field reads is malformed;
each field's kind and range are declared once, with `util.setting`.
"""

from __future__ import annotations

import math
import string
import unicodedata
from bisect import bisect_right
from collections import Counter
from dataclasses import asdict, dataclass
from functools import partial
from itertools import product
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .classifier import EvalReport
from .corpus import CountryRegistry, OccurrenceTable, country_code, normalize_surname
from .errors import InputFormatError, InvariantError
from .features import END_MARKER, START_MARKER
from .stages import PipelineConfig, run
from .typology import RegionTypology
from .util import (
    atomic_write, check_fields, derive_seed, dumps, from_fields, is_number, parse_json,
    read_text, setting,
)

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
    "score_pipeline",
]

# The stop state is the empty-string symbol.
STOP = ""
# The longest name a region generates; each country's buffer holds 2 * max_len doubles.
MAX_LEN = 1000


def _validate_dist(dist: Mapping[str, float], *, allow_stop: bool, what: str) -> None:
    if not isinstance(dist, Mapping) or not dist:
        raise ValueError(f"{what}: not a distribution, got {dist!r}")
    total = 0.0
    nonstop = 0.0
    for symbol, prob in dist.items():
        if symbol == STOP and not allow_stop:
            raise ValueError(f"{what}: stop state not allowed here")
        if not is_number(prob) or prob < 0:
            raise ValueError(f"{what}: probability of {symbol!r} must be a number >= 0")
        total += prob
        if symbol != STOP:
            nonstop += prob
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"{what}: probabilities sum to {total!r}, expected 1")
    if nonstop <= 0:
        raise ValueError(f"{what}: needs some non-stop mass")


def _rows(dist: Mapping[str, float]) -> tuple[tuple[list, list], tuple[list, list]]:
    """A distribution's rows with and without the stop state, as `_draw_name`
    reads them: the sorted symbols and their cumulative sums.

    Each row's last sum is replaced by `+inf`: the first sum above a double
    in [0, 1) then always exists, and it is the one `bisect_right` on the
    true sums finds, clamped to the last symbol when the last sum rounds
    below the double. The rows are Python lists: bisect on a list costs far
    less per draw than np.searchsorted on an array.
    """
    items = sorted(dist.items())
    cum_full = np.cumsum([p for _, p in items]).tolist()
    nonstop = [(s, p) for s, p in items if s != STOP]
    weights = np.array([p for _, p in nonstop])
    cum_nonstop = np.cumsum(weights / weights.sum()).tolist()
    cum_full[-1] = cum_nonstop[-1] = math.inf
    return ([s for s, _ in items], cum_full), ([s for s, _ in nonstop], cum_nonstop)


@dataclass(frozen=True, eq=False)
class MarkovChain:
    """Character chain: start distribution plus per-context transition rows."""

    order: int = setting(rule="1 or 2", ok=lambda v: v in (1, 2))
    start: Mapping[str, float]
    transitions: Mapping[str, Mapping[str, float]]

    def __post_init__(self) -> None:
        check_fields(self)
        _validate_dist(self.start, allow_stop=False, what="start")
        if not isinstance(self.transitions, Mapping):
            raise ValueError(f"transitions must be a JSON object, got {self.transitions!r}")
        # What `_draw_name` reads: each context's row, with or without the
        # stop state. The empty context, where every name begins, maps to
        # the start distribution (never the stop state).
        full_rows, nonstop_rows = {}, {}
        for context, row in self.transitions.items():
            _validate_dist(row, allow_stop=True, what=f"context {context!r}")
            full_rows[context], nonstop_rows[context] = _rows(row)
        full_rows[""] = nonstop_rows[""] = _rows(self.start)[1]
        # Each distinct symbol once: a corpus file must carry it back as it is.
        symbols = sorted(set(self.start).union(*self.transitions.values()) - {STOP})
        for symbol in symbols:
            problem = ("is not one character" if len(symbol) != 1
                       else "is whitespace" if symbol.isspace()
                       else "is a boundary marker" if symbol in (START_MARKER, END_MARKER)
                       else "changes under normalize_surname" if normalize_surname(symbol) != symbol
                       else "is a combining mark" if unicodedata.category(symbol)[0] == "M" else "")
            if problem:
                raise ValueError(f"symbol {symbol!r} {problem}")
        object.__setattr__(self, "_symbols", symbols)
        object.__setattr__(self, "_full_rows", full_rows)
        object.__setattr__(self, "_nonstop_rows", nonstop_rows)

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "start": {s: float(p) for s, p in sorted(self.start.items())},
            "transitions": {
                ctx: {s: float(p) for s, p in sorted(row.items())}
                for ctx, row in sorted(self.transitions.items())
            },
        }


@dataclass(frozen=True, eq=False)
class RegionGenerator:
    """Name generator for one region, with hard length bounds."""

    label: str
    chain: MarkovChain
    min_len: int = setting(3, ">= 1", lambda v: v >= 1)
    max_len: int = setting(12, f"<= {MAX_LEN}", lambda v: v <= MAX_LEN)

    def __post_init__(self) -> None:
        check_fields(self)
        if "\t" in self.label or self.label.splitlines() not in ([], [self.label]):
            raise ValueError(f"label {self.label!r} holds a tab or a line break")
        if self.min_len > self.max_len:
            raise ValueError(f"min_len {self.min_len} exceeds max_len {self.max_len}")


@dataclass(frozen=True)
class CountrySpec:
    code: str
    region: str
    n_names: int = setting(rule=">= 1", ok=lambda v: v >= 1)
    volume: float = setting(1.0, ">= 1", lambda v: v >= 1)  # mean count per name: uneven sampling

    def __post_init__(self) -> None:
        check_fields(self)
        object.__setattr__(self, "code", country_code(self.code))


@dataclass(frozen=True)
class PopulationSpec:
    """A held-out surname list drawn from the region chains with given mix."""

    name: str
    n_names: int = setting(rule=">= 1", ok=lambda v: v >= 1)
    region_weights: tuple[float, ...] = setting(
        rule="non-empty and nonnegative with positive sum",
        ok=lambda v: bool(v) and min(v) >= 0 and sum(v) > 0,
    )

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True, eq=False)
class SynthSpec:
    """Full description of a synthetic corpus; JSON-serializable."""

    seed: int
    overlap: float = setting(rule="in [0, 1]", ok=lambda v: 0 <= v <= 1)
    regions: tuple[RegionGenerator, ...]
    countries: tuple[CountrySpec, ...]
    global_chain: MarkovChain
    populations: tuple[PopulationSpec, ...] = ()

    def __post_init__(self) -> None:
        check_fields(self)
        labels = [g.label for g in self.regions]
        if len(set(labels)) != len(labels) or not labels:
            raise ValueError("region labels must be unique and non-empty")
        codes = [c.code for c in self.countries]
        if len(set(codes)) != len(codes) or not codes:
            raise ValueError("country codes must be unique and non-empty")
        # Two symbols one after the other must stay two: a corpus file
        # carries a name back normalized. Two ASCII symbols always do.
        chains = (self.global_chain, *(g.chain for g in self.regions))
        symbols = sorted(set().union(*(chain._symbols for chain in chains)))
        for a, b in product(symbols, repeat=2):
            if not (a + b).isascii() and normalize_surname(a + b) != a + b:
                raise ValueError(f"symbols {a!r} then {b!r} change under normalize_surname")
        known = set(labels)
        for c in self.countries:
            if c.region not in known:
                raise ValueError(f"country {c.code} references unknown region {c.region!r}")
        if len({p.name for p in self.populations}) != len(self.populations):
            raise ValueError("population names must be unique")
        for p in self.populations:
            if len(p.region_weights) != len(self.regions):
                raise ValueError(f"population {p.name}: weight count mismatch")
            # Each name is a file name's part and a dataset name in the report's CSV files.
            if any(c in p.name for c in '/,"\r\n'):
                raise ValueError(
                    f"population name {p.name!r} holds '/', a comma, '\"' or a line break"
                )

    @property
    def region_labels(self) -> tuple[str, ...]:
        return tuple(g.label for g in self.regions)

    def generator_for(self, region: str) -> RegionGenerator:
        for g in self.regions:
            if g.label == region:
                return g
        raise KeyError(region)

    def to_json(self) -> str:
        """The spec file's text; a country and a population are their fields."""
        return dumps({
            "seed": self.seed,
            "overlap": self.overlap,
            "global_chain": self.global_chain.to_dict(),
            "regions": [
                {
                    "label": g.label,
                    "min_len": g.min_len,
                    "max_len": g.max_len,
                    "chain": g.chain.to_dict(),
                }
                for g in self.regions
            ],
            "countries": list(map(asdict, self.countries)),
            "populations": list(map(asdict, self.populations)),
        })

    def save(self, path: Path | str) -> Path:
        return atomic_write(path, self.to_json())

    @classmethod
    def from_json(cls, text: str, source: str = "<spec>") -> "SynthSpec":
        def each(item: type, what: str, **read: Any) -> Any:
            return lambda docs: tuple(from_fields(item, doc, what, **read) for doc in docs)

        doc = parse_json(text, source)
        chain = partial(from_fields, MarkovChain, what="chain")
        try:
            return from_fields(cls, doc, "spec", global_chain=chain,
                               regions=each(RegionGenerator, "region", chain=chain),
                               countries=each(CountrySpec, "country"),
                               populations=each(PopulationSpec, "population"))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputFormatError(f"{source}: malformed spec: {exc}") from None

    @classmethod
    def load(cls, path: Path | str) -> "SynthSpec":
        return cls.from_json(read_text(path), source=str(path))


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
    regions = []
    for i, letters in enumerate(blocks):
        label = f"R{i}"
        rng = np.random.default_rng(derive_seed(seed, f"chain:{label}"))
        regions.append(
            RegionGenerator(label=label, chain=_random_chain(letters, rng, alphabet, leak))
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
        regions=tuple(regions),
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
    if len(population.region_weights) != len(spec.regions):
        raise ValueError(f"population {population.name}: weight count mismatch")
    seed = derive_seed(spec.seed, f"population:{population.name}")
    rng = np.random.Generator(np.random.PCG64(seed))
    weights = np.asarray(population.region_weights, dtype=float)
    cum = np.cumsum(weights / weights.sum()).tolist()
    last = len(spec.regions) - 1
    need = 1 + 2 * max(g.max_len for g in spec.regions)
    block = max(need, 4096)
    u: list[float] = []
    pos = 0
    names: list[str] = []
    truth_counts = {g.label: 0 for g in spec.regions}
    for _ in range(population.n_names):
        if len(u) - pos < need:
            u = u[pos:] + rng.random(block).tolist()
            pos = 0
        generator = spec.regions[min(bisect_right(cum, u[pos]), last)]
        name, pos = _draw_name(generator, spec.global_chain, spec.overlap, u, pos + 1)
        names.append(name)
        truth_counts[generator.label] += 1
    return names, truth_counts


def registry_for(spec: SynthSpec) -> CountryRegistry:
    """Registry accepting exactly the spec's synthetic country codes."""
    return CountryRegistry({c.code: f"{c.code} ({c.region})" for c in spec.countries})


def render_truth_tsv(truth: Mapping[str, str]) -> str:
    return "".join(f"{name}\t{region}\n" for name, region in sorted(truth.items()))


def default_population(spec: SynthSpec, n_names: int = 2000) -> PopulationSpec:
    """Held-out mix deliberately shifted away from the near-uniform corpus mix."""
    weights = tuple(float(2 ** (i % 4)) for i in range(len(spec.regions)))
    return PopulationSpec(name="heldout", n_names=n_names, region_weights=weights)


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
) -> dict[str, Any]:
    """Run the pipeline's chain, `stages.run`, on a spec and score it on the
    truth; returns the scorecard document that `synth --score` writes.

    The typology is cut at the true region count and compared with the true
    country partition; classification metrics are mapped back to true regions
    by majority country vote; the correction step is scored by whether the
    corrected aggregate of a shifted-mixture held-out population beats the
    raw guessed aggregate in L1 distance to the truth. That population is
    the run's reference, calibrated on and compared.

    `corpus` is `generate(spec)` and `heldout` is `generate_population` of
    the scored population (the spec's first, else `default_population`),
    for a caller that already has them; each is generated here when None.
    A caller that keeps no reference to `corpus` lets its table go after
    the core filter. Every other setting, and these two when None, is
    `stages.PipelineConfig`'s default; a value out of its range raises
    `ConfigError`.
    """
    given = {"min_core_names": min_core_names, "alpha": alpha}
    config = PipelineConfig(  # no path is read or written: `run` gets the table
        spec.seed, Path(), k_regions=len(spec.regions),
        **{k: v for k, v in given.items() if v is not None},
    )
    table, truth = generate(spec) if corpus is None else corpus
    handed = [table]
    del corpus, table  # `run` lets the table go after the core filter
    population = spec.populations[0] if spec.populations else default_population(spec)
    names, truth_counts = generate_population(spec, population) if heldout is None else heldout
    got: dict[str, Any] = {}
    provenance = {"priors_source": f"population:{population.name}"}
    run(config, handed.pop(), [(population.name, names)], got.__setitem__, provenance=provenance)
    typology, report, (dists, _) = got["typology"], got["eval_report"], got["compare"]
    core_names, eval_set = got["eval_set"]
    _, (guessed, _) = got["tallies"][0]  # the scored population's guess counts

    true_partition = {
        frozenset(c.code for c in spec.countries if c.region == g.label)
        for g in spec.regions
    }
    got_partition = {frozenset(typology.members(r)) for r in typology.regions}

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

    return {
        "true_regions": list(true_labels),
        "recall": dict(zip(true_labels, truth_report.recall.tolist())),
        "precision": dict(zip(true_labels, truth_report.precision.tolist())),
        "partition_exact": got_partition == true_partition,
        "l1_raw": l1(guessed),
        "l1_corrected": l1(dists[0].counts),
        "n_core_names": got["summary"]["n_core_names"],
        "n_eval": got["summary"]["n_eval"],
        "population": population.name,
        "region_map": dict(sorted(region_map.items())),
    }
