"""n-gram extraction and vocabulary construction."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from onoma.errors import ConfigError, SurnameError
from onoma.features import (
    _CHUNK,
    END_MARKER,
    START_MARKER,
    NGramConfig,
    build_vocabulary,
    extract,
    featurize,
)
from onoma.util import intern
import reference
from reference import feature_row


def test_extract_padded_bigrams():
    assert extract("ab", NGramConfig(n_values=(2,))) == {"^a": 1, "ab": 1, "b$": 1}


def test_extract_multiplicity():
    assert extract("aaa", NGramConfig(n_values=(2,), pad_boundaries=False)) == {"aa": 2}


def test_extract_toriyama_trigrams():
    got = extract("toriyama", NGramConfig(n_values=(3,), pad_boundaries=False))
    assert got == {"tor": 1, "ori": 1, "riy": 1, "iya": 1, "yam": 1, "ama": 1}


def test_extract_short_word_contributes_nothing():
    assert extract("ab", NGramConfig(n_values=(3,), pad_boundaries=False)) == {}


def test_extract_is_pure():
    config = NGramConfig()
    assert extract("garcía", config) == extract("garcía", config)


def test_extract_token_count_identity():
    # For one n, a padded word of length L yields max(0, L - n + 1) tokens.
    rng = random.Random(3)
    letters = "abcdefg"
    for _ in range(100):
        word = "".join(rng.choice(letters) for _ in range(rng.randint(1, 10)))
        n = rng.randint(1, 5)
        for padded in (True, False):
            config = NGramConfig(n_values=(n,), pad_boundaries=padded)
            length = len(word) + (2 if padded else 0)
            assert sum(extract(word, config).values()) == max(0, length - n + 1)


def test_extract_multiword_does_not_cross_boundaries():
    config = NGramConfig(n_values=(2,), pad_boundaries=False)
    assert extract("ab cd", config) == {"ab": 1, "cd": 1}
    padded = extract("de la cruz", NGramConfig(n_values=(2,)))
    merged = {}
    for word in ("de", "la", "cruz"):
        for token, count in extract(word, NGramConfig(n_values=(2,))).items():
            merged[token] = merged.get(token, 0) + count
    assert padded == merged


def test_extract_rejects_bad_input():
    with pytest.raises(ValueError, match="empty"):
        extract("", NGramConfig())
    with pytest.raises(ValueError, match="marker"):
        extract("a^b", NGramConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        NGramConfig(n_values=())
    with pytest.raises(ValueError):
        NGramConfig(n_values=(9,))
    assert NGramConfig(n_values=(3, 2, 3)).n_values == (2, 3)


def test_config_dict_round_trip():
    config = NGramConfig(n_values=(1, 3), pad_boundaries=False)
    assert NGramConfig.from_dict(config.to_dict()) == config


def test_config_dict_records_the_markers_and_takes_no_others():
    written = NGramConfig().to_dict()
    assert (START_MARKER, END_MARKER) == ("^", "$")
    assert (written["start_marker"], written["end_marker"]) == ("^", "$")
    for key, other in (("start_marker", "<"), ("end_marker", "^"), ("end_marker", None)):
        with pytest.raises(ValueError, match=r"the boundary markers must be '\^' and '\$'"):
            NGramConfig.from_dict({**written, key: other})
    with pytest.raises(ConfigError, match=r"^missing feature_config key: 'start_marker'$"):
        NGramConfig.from_dict({"n_values": [2, 3], "pad_boundaries": True})


def vocabulary_of(corpus, config, min_df=1):
    """`build_vocabulary` over a feature matrix of exactly the corpus."""
    names, rows = intern(corpus)
    return build_vocabulary(rows, featurize(names, config), min_df)


def test_vocabulary_single_surname():
    vocab = vocabulary_of(["ab"], NGramConfig(n_values=(2,)))
    assert vocab == ["^a", "ab", "b$"]


def test_vocabulary_min_df_threshold():
    config = NGramConfig(n_values=(2,), pad_boundaries=False)
    vocab = vocabulary_of(["abc", "abd"], config, min_df=2)
    assert vocab == ["ab"]
    with pytest.raises(ValueError, match="min_df"):
        vocabulary_of(["abc", "xyz"], config, min_df=2)


def test_vocabulary_sorted_pair():
    vocab = vocabulary_of(["ab", "ba"], NGramConfig(n_values=(2,), pad_boundaries=False))
    assert vocab == ["ab", "ba"]


def test_vocabulary_order_independent():
    config = NGramConfig()
    corpus = ["garcia", "lopez", "tanaka", "smith"]
    assert vocabulary_of(corpus, config) == vocabulary_of(list(reversed(corpus)), config)


def test_vocabulary_counts_distinct_surnames():
    # The same surname repeated still counts once toward min_df.
    config = NGramConfig(n_values=(2,), pad_boundaries=False)
    with pytest.raises(ValueError, match="min_df"):
        vocabulary_of(["ab", "ab", "ab"], config, min_df=2)


def test_vocabulary_empty_corpus():
    with pytest.raises(ValueError, match="empty corpus"):
        vocabulary_of([], NGramConfig())


# ---------------------------------------------------------------- featurize


def test_featurize_rows_round_trip_to_extract():
    rng = random.Random(8)
    names = {"de la cruz", "o'neil", "garcía", "ab", "a", "aaa aaa", "ñ🙂ñ", " x  y "}
    while len(names) < 200:
        words = ["".join(rng.choice("abcde") for _ in range(rng.randint(1, 7)))
                 for _ in range(rng.randint(1, 3))]
        names.add(" ".join(words))
    names = sorted(names)
    for config in (NGramConfig(), NGramConfig(n_values=(1, 4), pad_boundaries=False)):
        matrix = featurize(names, config)
        assert matrix.names == tuple(names)
        assert list(matrix.tokens) == sorted(set(matrix.tokens))
        assert matrix.ids.dtype.name == "int32" and matrix.counts.dtype.name == "int32"
        for i, name in enumerate(names):
            assert feature_row(matrix, i) == reference.extract(name, config), name
        _, ids, counts = matrix.entries([3, 0, 3])
        row_0, row_3 = reference.extract(names[0], config), reference.extract(names[3], config)
        assert sum(counts) == sum(row_0.values()) + 2 * sum(row_3.values())
        assert {matrix.tokens[j] for j in ids} == set(row_0) | set(row_3)


def test_featurize_validation():
    assert featurize([], NGramConfig()).tokens == ()
    with pytest.raises(ValueError, match="duplicate"):
        featurize(["ab", "ab"], NGramConfig())
    with pytest.raises(ValueError, match="marker"):
        featurize(["ab", "a$b"], NGramConfig())
    with pytest.raises(SurnameError, match=r"surname 'o\^brien' contains reserved marker '\^'"):
        featurize([f"n{i}" for i in range(_CHUNK)] + ["o^brien"], NGramConfig())
    with pytest.raises(SurnameError, match="empty surname"):
        featurize(["ab", ""], NGramConfig())
    with pytest.raises(ValueError, match="row outside the feature matrix of 1 names"):
        featurize(["ab"], NGramConfig()).entries([0, 1])


def test_vocabulary_from_a_larger_matrix_matches_one_of_exactly_the_corpus():
    config = NGramConfig(n_values=(2,), pad_boundaries=False)
    corpus = ["aab", "abb", "bba", "abab"]
    larger = featurize(["baab", *corpus, "zzz", "qq"], config)
    for min_df in (1, 2, 3):
        expected = vocabulary_of(corpus, config, min_df)
        assert build_vocabulary([1, 2, 3, 4], larger, min_df) == expected


# ------------------------------------------------- featurize against extract


def reference_featurize(names, config):
    """The per-name `extract` loop the vectorized pass replaced, as arrays."""
    first_ids: dict[str, int] = {}
    ids, counts, indptr = [], [], [0]
    for name in names:
        for token, count in reference.extract(name, config).items():
            ids.append(first_ids.setdefault(token, len(first_ids)))
            counts.append(count)
        indptr.append(len(ids))
    tokens = tuple(sorted(first_ids))
    rank = {first_ids[token]: r for r, token in enumerate(tokens)}
    return (
        tokens,
        np.array(indptr, dtype=np.int64),
        np.array([rank[i] for i in ids], dtype=np.int32),
        np.array(counts, dtype=np.int32),
    )


def assert_matches_reference(names, config):
    matrix = featurize(names, config)
    tokens, indptr, ids, counts = reference_featurize(names, config)
    assert matrix.names == tuple(names)
    assert matrix.tokens == tokens
    # Arrays compared entry by entry, so within-row order counts too.
    for got, want in ((matrix.indptr, indptr), (matrix.ids, ids), (matrix.counts, counts)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def random_names(rng, letters, count, max_words=3, max_length=9):
    names = set()
    while len(names) < count:
        words = [
            "".join(rng.choice(letters) for _ in range(rng.randint(1, max_length)))
            for _ in range(rng.randint(1, max_words))
        ]
        names.add(" ".join(words))
    return sorted(names)


@pytest.mark.parametrize("size", range(1, 9))
def test_featurize_equals_extract_for_every_n_values_subset(size):
    rng = random.Random(size)
    names = random_names(rng, "abcdeé", 40)
    for n_values in itertools.combinations(range(1, 9), size):
        for pad in (True, False):
            assert_matches_reference(names, NGramConfig(n_values=n_values, pad_boundaries=pad))


def test_featurize_equals_extract_on_characters_around_the_markers():
    # Letters that sort below `$` (U+0024), between it and `^` (U+005E) and
    # above `^`, up to U+10FFFF, so tokens order the markers among letters.
    letters = ["\x00", "#", "%", "A", "]", "_", "a", "é", "\uffff", "\U0010ffff"]
    names = random_names(random.Random(2), letters, 80)
    for n_values in ((1, 2, 3), (2,), (4, 8)):
        for pad in (True, False):
            assert_matches_reference(names, NGramConfig(n_values=n_values, pad_boundaries=pad))


def test_featurize_equals_extract_on_word_shapes():
    names = [" lead", "trail ", "two  spaces", "  both  ", "a b c", "de la cruz", "x", "xy z", " "]
    for n_values in ((1,), (2, 3), (4,), (8,), (1, 5, 8)):
        for pad in (True, False):
            assert_matches_reference(names, NGramConfig(n_values=n_values, pad_boundaries=pad))


def test_featurize_equals_extract_on_any_characters():
    letters = ["ß", "ø", "ł", "ж", "中", "🙂", "𝔸", "\n", "\t", "\x00", "\ud800", "a", "b"]
    names = random_names(random.Random(4), letters, 80)
    names += ["o\nbrien", "tab\tbed", "\n", "\t \n"]
    for config in (NGramConfig(), NGramConfig(n_values=(1, 4, 8), pad_boundaries=False)):
        assert_matches_reference(names, config)


def test_featurize_keys_do_not_overflow_on_a_wide_alphabet():
    # 300 code points from U+0400 in one chunk: without re-ranking, the
    # 8-gram keys would pass 2**63.
    alphabet = [chr(0x400 + i) for i in range(300)]
    rng = random.Random(5)
    names = random_names(rng, alphabet, 200, max_words=2, max_length=12)
    assert len(set("".join(names))) >= 300
    assert_matches_reference(names, NGramConfig(n_values=(1, 2, 7, 8)))


@pytest.mark.parametrize("count", [0, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
def test_featurize_equals_extract_across_chunk_boundaries(count):
    names = random_names(random.Random(count), "abcdefgh", count)
    assert_matches_reference(names, NGramConfig())


def test_featurize_transient_memory_is_bounded_by_a_chunk():
    # Eight chunks of distinct 7-letter words over four letters.
    chunks, length = 8, 7
    names = ["".join(letters) for letters in itertools.product("abcd", repeat=length)]
    names = names[: chunks * _CHUNK]
    config = NGramConfig()
    featurize(names[:10], config)  # numpy's lazy set-up stays out of the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        matrix = featurize(names, config)
        kept, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    # Design: one chunk's pass holds about six arrays at once of one 8-byte
    # word per padded code point and per n-gram window (positions, keys,
    # rows, sort orders); 12 allows for numpy's own temporaries. Gathering
    # the chunks' entries then holds the result's ids and counts once more.
    # A pass over all names at once would need the chunk term eight times.
    padded = length + 2
    windows = sum(padded - n + 1 for n in config.n_values)
    chunk = 12 * 8 * _CHUNK * (padded + windows)
    entries = matrix.ids.nbytes + matrix.counts.nbytes
    assert peak - kept <= chunk + entries, (peak - kept, chunk, entries)
