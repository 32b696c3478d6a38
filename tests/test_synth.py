"""Synthetic corpus generation and end-to-end pipeline scoring."""

import hashlib
import json
import math
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.random import PCG64, Generator

from onoma import synth
from onoma.classifier import Labeled, evaluate, split, train
from onoma.corpus import filter_core_names, render_corpus_tsv
from onoma.errors import ConfigError, InvariantError
from onoma.features import NGramConfig, featurize
from onoma.stages import PipelineConfig, fit, run
from onoma.synth import (
    CountrySpec,
    MarkovChain,
    PopulationSpec,
    RegionGenerator,
    STOP,
    SynthSpec,
    _draw_name,
    generate,
    generate_population,
    registry_for,
    score_pipeline,
    standard_spec,
)
from onoma.util import dumps
import reference


def test_chain_validation():
    with pytest.raises(ValueError, match="sum"):
        MarkovChain(order=1, start={"a": 0.5}, transitions={})
    with pytest.raises(ValueError, match="non-stop"):
        MarkovChain(order=1, start={"a": 1.0}, transitions={"a": {"": 1.0}})
    with pytest.raises(ValueError, match="order"):
        MarkovChain(order=3, start={"a": 1.0}, transitions={})


def test_spec_json_round_trip():
    spec = standard_spec(3, 2, 20, 0.4, seed=5, populations=(PopulationSpec("p", 10, (1, 2, 3)),))
    text = spec.to_json()
    again = SynthSpec.from_json(text)
    assert again.to_json() == text
    assert again.region_labels == ("R0", "R1", "R2")


def order2_spec(
    seed: int = 5,
    overlap: float = 0.3,
    n_names: int = 50,
    *,
    min_len: int = 3,
    max_len: int = 12,
    volumes: tuple[float, ...] = (1.0, 10.0, 100.0),
) -> SynthSpec:
    """`standard_spec(3, 2, ...)` with order-2 region chains, built through JSON.

    Each region writes four letters. Only three of them have a one-letter
    row and about two thirds of the letter pairs have a pair row, so a name
    meets all three lookups: the pair, the last letter, and the start
    distribution (also after a letter from the global chain).
    """
    rng = random.Random(seed)

    def dist(symbols: str, stop: float) -> dict[str, float]:
        weights = [rng.random() + 0.05 for _ in symbols]
        total = sum(weights) / (1.0 - stop)
        row = {s: w / total for s, w in zip(symbols, weights)}
        if stop:
            row[STOP] = 1.0 - sum(row.values())
        return row

    doc = json.loads(standard_spec(3, 2, n_names, overlap, seed, volumes=volumes).to_json())
    for i, region in enumerate(doc["regions"]):
        letters = "abcdefghijkl"[4 * i : 4 * i + 4]
        transitions = {ch: dist(letters, 0.2) for ch in letters[:3]}
        for a in letters:
            for b in letters[1:]:
                if (ord(a) + ord(b)) % 3:
                    transitions[a + b] = dist(letters, 0.15)
        region.update(min_len=min_len, max_len=max_len)
        region["chain"] = {"order": 2, "start": dist(letters, 0.0), "transitions": transitions}
    return SynthSpec.from_json(json.dumps(doc))


def collision_spec(
    volumes: tuple[float, float] = (10.0, 100.0), n_names: tuple[int, int] = (12, 8)
) -> SynthSpec:
    """Two regions writing the same short names, so names collide.

    Names of one to three letters stop at different draws, so a retry
    starts part of the way into its block of doubles.
    """
    row = {"a": 0.25, "b": 0.25, "c": 0.25, STOP: 0.25}
    chain = MarkovChain(
        order=1, start={"a": 0.2, "b": 0.3, "c": 0.5}, transitions={ch: row for ch in "abc"}
    )
    return SynthSpec(
        seed=4,
        overlap=0.0,
        regions=(
            RegionGenerator("R0", chain, min_len=1, max_len=3),
            RegionGenerator("R1", chain, min_len=1, max_len=3),
        ),
        countries=(
            CountrySpec("AA", "R0", n_names=n_names[0], volume=volumes[0]),
            CountrySpec("BA", "R1", n_names=n_names[1], volume=volumes[1]),
        ),
        global_chain=chain,
    )


def pick(dist: dict[str, float], u: float, allow_stop: bool) -> str:
    """The symbol the name sampler takes from `dist` for the double `u`.

    The name's first letter is "x", from the start distribution; its second
    comes from `dist`, the row of context "x", and may be the stop state
    when the length bounds allow one letter.
    """
    chain = MarkovChain(order=1, start={"x": 1.0}, transitions={"x": dist})
    generator = RegionGenerator("R", chain, min_len=1 if allow_stop else 2, max_len=2)
    name, pos = _draw_name(generator, chain, 0.0, [0.5, 0.5, 0.5, u], 0)
    assert pos == 4 and name[0] == "x"
    return name[1:]


def test_sampler_boundary_picks_next_symbol():
    # Sums 0.25, 0.5, 1.0 are exact: a draw on a boundary takes the symbol
    # after it (the side="right" rule of np.searchsorted).
    dist = {"": 0.25, "a": 0.25, "b": 0.5}
    assert pick(dist, 0.25, allow_stop=True) == "a"
    assert pick(dist, 0.5, allow_stop=True) == "b"
    assert pick(dist, 0.0, allow_stop=True) == ""
    # Without the stop state the sums are 1/3, 1.0 over "a", "b".
    assert pick(dist, 1 / 3, allow_stop=False) == "b"


def test_sampler_clamps_above_last_sum():
    dist = {ch: 0.1 for ch in "abcdefghij"}
    sampler = reference.RowSums(dist)
    assert sampler.cum_full[-1] < 1.0  # ten 0.1 steps round below 1
    for u in (sampler.cum_full[-1], float(np.nextafter(1.0, 0.0))):
        assert pick(dist, u, allow_stop=True) == "j"
        assert pick(dist, u, allow_stop=False) == "j"


def test_sampler_matches_searchsorted():
    rng = random.Random(3)
    weights = [rng.random() for _ in range(9)]
    total = sum(weights)
    dist = {STOP: weights[0] / total}
    dist.update({ch: w / total for ch, w in zip("abcdefgh", weights[1:])})
    sampler = reference.RowSums(dist)
    draws = [rng.random() for _ in range(2000)] + sampler.cum_full + sampler.cum_nonstop
    for u in draws:
        for allow_stop, cum, symbols in (
            (True, sampler.cum_full, sampler.symbols),
            (False, sampler.cum_nonstop, sampler.nonstop_symbols),
        ):
            idx = int(np.searchsorted(np.array(cum), u, side="right"))
            expected = symbols[min(idx, len(symbols) - 1)]
            assert pick(dist, u, allow_stop) == expected


@pytest.mark.parametrize(
    "make_spec", [lambda: standard_spec(12, 15, 100, 0.3, 1), order2_spec], ids=["order1", "order2"]
)
def test_rows_ending_in_inf_pick_as_the_clamped_true_sums(make_spec):
    # The rows `_draw_name` reads end in +inf in place of the last true sum;
    # at and around every true sum they pick the symbol that `bisect_right`
    # on the true sums picks, clamped to the last symbol.
    spec = make_spec()
    for chain in (spec.global_chain, *(g.chain for g in spec.regions)):
        start, samplers = reference.chain_sums(chain)
        rows = [(chain._full_rows[""], start.nonstop_symbols, start.cum_nonstop),
                (chain._nonstop_rows[""], start.nonstop_symbols, start.cum_nonstop)]
        for ctx, sampler in samplers.items():
            rows.append((chain._full_rows[ctx], sampler.symbols, sampler.cum_full))
            rows.append((chain._nonstop_rows[ctx], sampler.nonstop_symbols, sampler.cum_nonstop))
        for (row_symbols, row_cum), symbols, cum in rows:
            assert row_symbols == symbols
            assert row_cum[:-1] == cum[:-1] and row_cum[-1] == math.inf
            doubles = [0.0, float(np.nextafter(1.0, 0.0))]
            for c in cum:
                doubles += [float(np.nextafter(c, 0.0)), c, float(np.nextafter(c, 2.0))]
            for x in doubles:
                clamped = symbols[min(bisect_right(cum, x), len(symbols) - 1)]
                assert row_symbols[bisect_right(row_cum, x)] == clamped


def test_block_of_doubles_equals_scalar_draws():
    block, scalar = Generator(PCG64(7)), Generator(PCG64(7))
    assert block.random(1000).tolist() == [scalar.random() for _ in range(1000)]
    assert block.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("unused", [1, 2, 23, 24])
def test_advance_by_period_minus_k_steps_back_k_draws(unused):
    # generate() rewinds with this documented positive delta below 2**128.
    rewound, short = Generator(PCG64(7)), Generator(PCG64(7))
    rewound.random(24)
    rewound.bit_generator.advance(2**128 - unused)
    short.random(24 - unused)
    assert rewound.bit_generator.state == short.bit_generator.state
    for lam in (0.0, 9.0, 99.0):
        assert rewound.poisson(lam) == short.poisson(lam)
    assert rewound.random(5).tolist() == short.random(5).tolist()


def test_poisson_of_mean_zero_reads_nothing():
    # generate() draws no count for a volume-1 country: numpy returns 0 for
    # a mean of 0 and leaves the stream where it was.
    drawn, untouched = Generator(PCG64(7)), Generator(PCG64(7))
    assert drawn.poisson(0.0) == 0
    assert drawn.bit_generator.state == untouched.bit_generator.state


def test_generation_stream_golden():
    # Digests pinned when sampling used np.searchsorted; equal digests show
    # that bisect consumes the RNG stream in the same order and number. The
    # order-2 digests were pinned while every double was a scalar
    # `rng.random()`, before names read them from blocks.
    spec = standard_spec(3, 2, 50, 0.3, seed=5)
    corpus = render_corpus_tsv(generate(spec)[0])
    assert hashlib.sha256(corpus.encode()).hexdigest() == (
        "bf3470c249a7ce75ffdcebc34b377c679be617a669601f2c11d8493bedd5f8a7"
    )
    names, tally = generate_population(spec, PopulationSpec("p", 300, (1.0, 2.0, 4.0)))
    assert hashlib.sha256(("\n".join(names) + "\n").encode()).hexdigest() == (
        "af58110155ad8117b66529f2f5ca4a982488197c1c094c0457ea88d8a918fc41"
    )
    assert tally == {"R0": 43, "R1": 77, "R2": 180}

    spec = order2_spec()
    corpus = render_corpus_tsv(generate(spec)[0])
    assert hashlib.sha256(corpus.encode()).hexdigest() == (
        "35535e75af84271f797576387a8da5dc334b1ff61e22c0de79634b23301f204e"
    )
    names, tally = generate_population(spec, PopulationSpec("p", 300, (1.0, 2.0, 4.0)))
    assert hashlib.sha256(("\n".join(names) + "\n").encode()).hexdigest() == (
        "01f450bdc8867cd107370df101df3e7f1393fc47ee3adb10dfa015924659b449"
    )
    assert tally == {"R0": 48, "R1": 83, "R2": 169}


DIFFERENTIAL_SPECS = {
    **{f"order1-overlap{o}": lambda o=o: standard_spec(3, 2, 60, o, 8) for o in (0.0, 0.3, 1.0)},
    **{f"order2-overlap{o}": lambda o=o: order2_spec(9, o, 60) for o in (0.0, 0.3, 1.0)},
    "order2-min-eq-max": lambda: order2_spec(10, 0.3, 60, min_len=4, max_len=4),
    "collisions": collision_spec,
}
# Volume-1 countries draw no counts, so their names read on through buffered
# runs of 4,096 doubles: these refill them mid-country, and in the first a
# collision retry reads across a refill.
BUFFERED_SPECS = {
    "collisions-volume1": lambda: collision_spec((1.0, 1.0), (12, 1000)),
    "order1-volume1": lambda: standard_spec(3, 2, 2000, 0.3, 8, volumes=(1.0,)),
    "order2-volume1": lambda: order2_spec(9, 0.3, 1000, volumes=(1.0,)),
}
DIFFERENTIAL_SPECS.update(BUFFERED_SPECS)


@pytest.mark.parametrize("make_spec", DIFFERENTIAL_SPECS.values(), ids=DIFFERENTIAL_SPECS)
def test_block_draws_match_scalar_reference(make_spec):
    # Countries cycle through volumes 1, 10 and 100 (only 1 in the buffered
    # specs): Poisson means 9 and 99 run numpy's two Poisson algorithms on
    # the stream after a rewind.
    spec = make_spec()
    table, truth = generate(spec)
    want_table, want_truth = reference.generate(spec)
    assert render_corpus_tsv(table) == render_corpus_tsv(want_table)
    assert truth == want_truth
    weights = tuple(float(i + 1) for i in range(len(spec.regions)))
    for n in (1, 700):
        population = PopulationSpec("p", n, weights)
        assert generate_population(spec, population) == reference.generate_population(
            spec, population
        )


def test_collision_spec_retries(monkeypatch):
    calls = []
    sample = reference._sample_name
    monkeypatch.setattr(reference, "_sample_name", lambda *a: calls.append(1) or sample(*a))
    spec = collision_spec()
    reference.generate(spec)
    assert len(calls) > sum(c.n_names for c in spec.countries)


def _retries_and_fresh_buffers(monkeypatch, spec: SynthSpec) -> Counter:
    """How many names `generate(spec)` retries, starts at position 0 of a
    freshly filled buffer, or both."""
    seen: Counter = Counter()
    owners: dict[str, str] = {}
    retry = False
    draw = synth._draw_name

    def spy(generator, global_chain, overlap, u, pos):
        nonlocal retry
        seen["retries"] += retry
        seen["fresh"] += pos == 0
        seen["fresh retries"] += retry and pos == 0
        name, end = draw(generator, global_chain, overlap, u, pos)
        retry = owners.setdefault(name, generator.label) != generator.label
        return name, end

    with monkeypatch.context() as m:
        m.setattr(synth, "_draw_name", spy)
        generate(spec)
    return seen


def test_volume1_buffers_refill_mid_country_and_under_a_retry(monkeypatch):
    fresh_retries = 0
    for make_spec in BUFFERED_SPECS.values():
        spec = make_spec()
        calls = []
        sample = reference._sample_name
        with monkeypatch.context() as m:
            m.setattr(reference, "_sample_name", lambda *a: calls.append(1) or sample(*a))
            reference.generate(spec)
        seen = _retries_and_fresh_buffers(monkeypatch, spec)
        assert seen["retries"] == len(calls) - sum(c.n_names for c in spec.countries) > 0
        # each country fills its buffer once at its start; the rest are refills
        assert seen["fresh"] > len(spec.countries)
        fresh_retries += seen["fresh retries"]
    assert fresh_retries > 0


def test_generate_deterministic():
    spec = standard_spec(3, 2, 60, 0.3, seed=11)
    table_a, truth_a = generate(spec)
    table_b, truth_b = generate(spec)
    assert truth_a == truth_b
    assert render_corpus_tsv(table_a) == render_corpus_tsv(table_b)


def test_generate_truth_covers_every_surname():
    spec = standard_spec(3, 2, 80, 0.5, seed=12)
    table, truth = generate(spec)
    surnames = set(table.surnames())
    assert surnames == set(truth)
    region_of = {c.code: c.region for c in spec.countries}
    for line in render_corpus_tsv(table).splitlines():
        surname, country, count = line.split("\t")
        assert truth[surname] == region_of[country]
        assert int(count) >= 1


def test_generate_respects_length_bounds():
    spec = standard_spec(3, 2, 100, 0.3, seed=13)
    _, truth = generate(spec)
    for name in truth:
        assert 3 <= len(name) <= 12


def test_generate_collision_exhaustion_raises():
    chain = MarkovChain(order=1, start={"a": 1.0}, transitions={"a": {"a": 0.5, "": 0.5}})
    from onoma.synth import CountrySpec

    spec = SynthSpec(
        seed=1,
        overlap=0.0,
        regions=(
            RegionGenerator("R0", chain, min_len=3, max_len=3),
            RegionGenerator("R1", chain, min_len=3, max_len=3),
        ),
        countries=(
            CountrySpec("AA", "R0", n_names=1),
            CountrySpec("BA", "R1", n_names=1),
        ),
        global_chain=chain,
    )
    with pytest.raises(InvariantError, match="collision"):
        generate(spec)


def test_registry_for_spec():
    spec = standard_spec(2, 3, 10, 0.0, seed=3)
    registry = registry_for(spec)
    assert registry.codes() == ["AA", "AB", "AC", "BA", "BB", "BC"]


def test_population_mix_and_determinism():
    spec = standard_spec(3, 2, 40, 0.2, seed=21)
    population = PopulationSpec("held", 600, (1.0, 1.0, 6.0))
    names_a, counts_a = generate_population(spec, population)
    names_b, counts_b = generate_population(spec, population)
    assert names_a == names_b and counts_a == counts_b
    assert len(names_a) == 600
    assert sum(counts_a.values()) == 600
    assert counts_a["R2"] > counts_a["R0"]  # skew shows up


def test_separable_construction_gives_perfect_recall():
    spec = standard_spec(3, 2, 200, 0.0, seed=7, leak=0.0)
    card = score_pipeline(spec, min_core_names=10)
    assert all(v == 1.0 for v in card["recall"].values())
    assert card["partition_exact"]


def test_indistinguishable_overlap_matches_prior_baseline():
    # With overlap 1 every region shares one chain; accuracy collapses to the
    # largest class prior (within noise over 10 seeds).
    config = NGramConfig()
    gaps = []
    for seed in range(10):
        spec = standard_spec(3, 2, 150, 1.0, seed=seed)
        table, truth = generate(spec)
        core = filter_core_names(table)
        names, labeled = Labeled.from_pairs([(s, truth[s]) for s in core.names])
        train_set, eval_set = split(labeled, 0.85, seed=seed)
        features = featurize(names, config)
        model = train(train_set, features, 0.1)
        report = evaluate(model, eval_set, features)
        train_regions = [train_set.regions[g] for g in train_set.region]
        shares = np.array([sum(1 for r in train_regions if r == g) for g in model.regions])
        max_prior = shares.max() / shares.sum()
        gaps.append(report.accuracy - max_prior)
    assert abs(float(np.mean(gaps))) <= 0.05


def test_recall_non_increasing_in_overlap():
    means = []
    for overlap in (0.0, 0.3, 0.6, 0.9):
        values = []
        for seed in range(10):
            spec = standard_spec(3, 2, 150, overlap, seed=seed)
            card = score_pipeline(spec, min_core_names=10)
            values.append(float(np.mean(list(card["recall"].values()))))
        means.append(float(np.mean(values)))
    assert all(means[i] >= means[i + 1] for i in range(len(means) - 1))


def test_typology_recovery_at_low_overlap():
    exact = 0
    for seed in range(10):
        spec = standard_spec(3, 3, 120, 0.3, seed=seed)
        card = score_pipeline(spec, min_core_names=10)
        exact += card["partition_exact"]
    assert exact >= 8


def test_seven_regions_are_named_after_their_own_countries():
    """At k = 7 each region is named after its country with the most core
    names, one of its own, whose true region is the region's majority one."""
    spec = standard_spec(7, 3, 150, 0.2, seed=1)
    table, truth = generate(spec)
    got = {}
    run(PipelineConfig(1, Path(), k_regions=7, min_core_names=10), table, [], got.__setitem__)
    typology, core = got["typology"], got["core"]
    country_truth = {c.code: c.region for c in spec.countries}
    true_partition = {frozenset(c.code for c in spec.countries if c.region == g.label)
                      for g in spec.regions}
    assert {frozenset(typology.members(r)) for r in typology.regions} == true_partition
    core_names = Counter(core.countries[i] for i in core.country)
    for label in typology.regions:
        members = typology.members(label)
        assert label in members
        assert label == max(members, key=core_names.__getitem__)
        votes = Counter(country_truth[c] for c in members)
        assert country_truth[label] == votes.most_common(1)[0][0]
    # Not just the smallest code: the data pick some other member.
    assert any(label != min(typology.members(label)) for label in typology.regions)


def test_scorecard_serializes():
    """The scorecard is the JSON document `synth --score` writes, its keys in
    their order, and it reads back as it is."""
    spec = standard_spec(2, 2, 80, 0.2, seed=2)
    card = score_pipeline(spec, min_core_names=10)
    assert list(card) == ["true_regions", "recall", "precision", "partition_exact", "l1_raw",
                          "l1_corrected", "n_core_names", "n_eval", "population", "region_map"]
    assert json.loads(dumps(card)) == card
    assert card["population"] == "heldout" and list(card["region_map"]) == sorted(card["region_map"])
    assert card["l1_raw"] >= 0 and card["l1_corrected"] >= 0


def test_score_pipeline_classifies_each_row_once(monkeypatch):
    """The scorecard takes `evaluate`'s guesses: the evaluation rows and the
    population's distinct names are each classified once."""
    from onoma import classifier

    rows = []

    def counted(model, features, chosen):
        rows.append(len(chosen))
        return inner(model, features, chosen)

    inner = classifier.classify_rows
    monkeypatch.setattr(classifier, "classify_rows", counted)
    spec = standard_spec(3, 2, 120, 0.3, seed=4)
    names, counts = generate_population(spec, PopulationSpec("held", 300, (1.0, 2.0, 4.0)))
    card = score_pipeline(spec, min_core_names=10, heldout=(names, counts))
    assert sorted(rows) == sorted([card["n_eval"], len(set(names))])


def test_score_pipeline_compares_its_population_by_name():
    """The scored population is the run's reference dataset, so its name must
    fit one field of the report's CSV files, as a pipeline dataset's must:
    a spec holds no other name."""
    with pytest.raises(ValueError, match="holds '/', a comma, '\"' or a line break"):
        standard_spec(2, 2, 80, 0.2, seed=2, populations=(PopulationSpec("a,b", 200, (1.0, 2.0)),))


def test_score_pipeline_reports_bad_settings_as_config_errors():
    spec = standard_spec(2, 2, 80, 0.2, seed=2)
    with pytest.raises(ConfigError, match="need at least 2 countries"):
        score_pipeline(spec, min_core_names=1000)
    for key, value in (("min_core_names", 0), ("alpha", -1.0)):
        with pytest.raises(ConfigError, match=f"{key} must be"):
            score_pipeline(spec, **{key: value})
    # score_pipeline takes the pipeline's train fraction; the stage it calls
    # reports a bad one.
    table, truth = generate(spec)
    names, labeled = Labeled.from_pairs([(s, truth[s]) for s in filter_core_names(table).names])
    with pytest.raises(ConfigError, match="train_fraction"):
        fit(labeled, featurize(names), seed=2, train_fraction=1.0, alpha=0.1, min_df=1,
            strip_diacritics=False)


def test_spec_rejects_symbols_that_compose_across_its_chains():
    """Every ordered pair of symbols over all the spec's chains must stay two
    characters under normalization: U+1100 then U+1161 compose into one
    syllable, whichever chains emit them; two ASCII symbols never do."""
    spec = standard_spec(2, 2, 30, 0.3, seed=1)
    lead = MarkovChain(order=1, start={"\u1100": 1.0}, transitions={})
    vowel = MarkovChain(order=1, start={"\u1161": 1.0}, transitions={})
    with pytest.raises(ValueError, match="symbols '\u1100' then '\u1161' change under"):
        replace(spec, global_chain=lead,
                regions=(replace(spec.regions[0], chain=vowel), *spec.regions[1:]))
    # Either symbol alone passes, and so do precomposed letters next to each other.
    replace(spec, global_chain=vowel)
    accented = MarkovChain(order=1, start={"\u00e9": 0.5, "\u00f8": 0.5}, transitions={})
    replace(spec, global_chain=accented)
