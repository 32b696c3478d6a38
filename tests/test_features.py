"""n-gram extraction and vocabulary construction."""

import random

import pytest

from onoma.features import (
    NGramConfig,
    build_vocabulary,
    extract,
    featurize,
    read_vocabulary,
    write_vocabulary,
)


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
    with pytest.raises(ValueError):
        NGramConfig(start_marker="$", end_marker="$")
    with pytest.raises(ValueError):
        NGramConfig(start_marker="ab")
    assert NGramConfig(n_values=(3, 2, 3)).n_values == (2, 3)


def test_config_dict_round_trip():
    config = NGramConfig(n_values=(1, 3), pad_boundaries=False)
    assert NGramConfig.from_dict(config.to_dict()) == config


def test_vocabulary_single_surname():
    vocab = build_vocabulary(["ab"], NGramConfig(n_values=(2,)))
    assert vocab == ["^a", "ab", "b$"]


def test_vocabulary_min_df_threshold():
    config = NGramConfig(n_values=(2,), pad_boundaries=False)
    vocab = build_vocabulary(["abc", "abd"], config, min_df=2)
    assert vocab == ["ab"]
    with pytest.raises(ValueError, match="min_df"):
        build_vocabulary(["abc", "xyz"], config, min_df=2)


def test_vocabulary_sorted_pair():
    vocab = build_vocabulary(["ab", "ba"], NGramConfig(n_values=(2,), pad_boundaries=False))
    assert vocab == ["ab", "ba"]


def test_vocabulary_order_independent():
    config = NGramConfig()
    corpus = ["garcia", "lopez", "tanaka", "smith"]
    assert build_vocabulary(corpus, config) == build_vocabulary(list(reversed(corpus)), config)


def test_vocabulary_counts_distinct_surnames():
    # The same surname repeated still counts once toward min_df.
    config = NGramConfig(n_values=(2,), pad_boundaries=False)
    with pytest.raises(ValueError, match="min_df"):
        build_vocabulary(["ab", "ab", "ab"], config, min_df=2)


def test_vocabulary_empty_corpus():
    with pytest.raises(ValueError, match="empty corpus"):
        build_vocabulary([], NGramConfig())


def test_vocabulary_file_round_trip(tmp_path):
    vocab = build_vocabulary(["garcia", "tanaka"], NGramConfig())
    path = tmp_path / "vocab.txt"
    write_vocabulary(vocab, path)
    assert read_vocabulary(path) == vocab
    empty = tmp_path / "vocab2.txt"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty"):
        read_vocabulary(empty)


# ---------------------------------------------------------------- featurize


def test_featurize_rows_round_trip_to_extract():
    rng = random.Random(8)
    names = {"de la cruz", "o'neil", "garcía", "ab", "a", "aaa aaa"}
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
            assert matrix.row(i) == extract(name, config), name
        _, ids, counts = matrix.entries(matrix.rows_of([names[3], names[0], names[3]]))
        row_0, row_3 = extract(names[0], config), extract(names[3], config)
        assert sum(counts) == sum(row_0.values()) + 2 * sum(row_3.values())
        assert {matrix.tokens[j] for j in ids} == set(row_0) | set(row_3)


def test_featurize_validation():
    assert featurize([], NGramConfig()).tokens == ()
    with pytest.raises(ValueError, match="duplicate"):
        featurize(["ab", "ab"], NGramConfig())
    with pytest.raises(ValueError, match="marker"):
        featurize(["ab", "a$b"], NGramConfig())
    with pytest.raises(KeyError):
        featurize(["ab"], NGramConfig()).rows_of(["cd"])


def test_vocabulary_from_shared_matrix_matches_own_pass():
    config = NGramConfig(n_values=(2,), pad_boundaries=False)
    corpus = ["aab", "abb", "bba", "abab"]
    shared = featurize(corpus + ["zzz", "qq"], config)
    for min_df in (1, 2, 3):
        assert build_vocabulary(corpus, config, min_df, shared) == build_vocabulary(
            corpus, config, min_df
        )
