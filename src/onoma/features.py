"""Character n-gram decomposition of normalized surnames.

A surname is described by the multiset of its contiguous character n-grams,
optionally padded with boundary markers so that prefixes and suffixes become
distinct features. Multi-word surnames are decomposed word by word: compound
particles carry origin signal and should not blur across word boundaries.

Stages that read many names share one `featurize` pass: each distinct name
is decomposed once into a sparse row of a `FeatureMatrix`, and the country
matrix, training and evaluation read those rows by position. The matrix
carries its `NGramConfig`, so those stages take the matrix alone.

`featurize` has no loop over names. It takes _CHUNK names at a time, lays
their padded words end to end as code points, and gives every window of n
code points inside one word an integer key. One sort per n groups the equal
(name, n-gram) pairs; each pair becomes an entry placed at its first window
(word, then n, then start), so every row lists its tokens in the order a
scan of the padded words first meets them. Token ids follow the tokens'
sorted order. `extract` is `featurize` of one name, as a dict. A surname is
non-empty and holds neither `START_MARKER` (`^`) nor `END_MARKER` (`$`):
`check_surnames` applies that rule in `featurize`, `corpus.read_corpus_tsv`
and `cli`'s population reader; `synth`'s spec reader rejects marker symbols.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass, fields
from itertools import accumulate, count, pairwise
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import SurnameError
from .util import check_fields, setting

FeatureVector = dict[str, int]

__all__ = [
    "START_MARKER",
    "END_MARKER",
    "NGramConfig",
    "FeatureVector",
    "extract",
    "FeatureMatrix",
    "check_surnames",
    "featurize",
    "build_vocabulary",
]

START_MARKER, END_MARKER = "^", "$"  # the ends of every padded word: no surname holds them
_MARKER_KEYS = {"start_marker": START_MARKER, "end_marker": END_MARKER}  # in a model file
# Names decomposed together by `featurize`; its transient arrays scale with it.
_CHUNK = 1024
# Matrix rows whose entries `build_vocabulary` counts together.
_VOCAB_CHUNK = 4096


@dataclass(frozen=True)
class NGramConfig:
    """Which n-gram sizes to emit and whether words are padded with the markers."""

    n_values: tuple[int, ...] = setting(
        (2, 3), "non-empty, each n in 1..8", lambda v: bool(v) and all(1 <= n <= 8 for n in v)
    )
    pad_boundaries: bool = True

    def __post_init__(self) -> None:
        check_fields(self)
        object.__setattr__(self, "n_values", tuple(sorted(set(self.n_values))))

    def to_dict(self) -> dict:
        return {
            "n_values": list(self.n_values),
            "pad_boundaries": self.pad_boundaries,
            **_MARKER_KEYS,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "NGramConfig":
        if [data[key] for key in _MARKER_KEYS] != [START_MARKER, END_MARKER]:
            raise ValueError(f"the boundary markers must be {START_MARKER!r} and {END_MARKER!r}")
        return cls(**{f.name: data[f.name] for f in fields(cls)})


def extract(surname: str, config: NGramConfig = NGramConfig()) -> FeatureVector:
    """Token -> occurrence count for every configured n-gram size.

    For each word of the (already normalized) surname, the padded string
    contributes every contiguous substring of length n with multiplicity;
    words shorter than n contribute nothing for that n. The dict is
    `featurize`'s row of the one name, in its order. Pure function.
    """
    matrix = featurize([surname], config)
    tokens = [matrix.tokens[j] for j in matrix.ids.tolist()]
    return dict(zip(tokens, matrix.counts.tolist()))


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """N-gram counts of distinct names in compressed sparse row layout.

    Row i belongs to names[i]; its entries indptr[i]:indptr[i + 1] hold token
    ids into the sorted `tokens` (each id at most once per row) and the
    token's occurrence count in that name.
    """

    names: tuple[str, ...]
    tokens: tuple[str, ...]
    indptr: np.ndarray  # int64, len(names) + 1
    ids: np.ndarray  # int32
    counts: np.ndarray  # int32
    config: NGramConfig

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate names in feature matrix")

    def check_rows(self, rows: Iterable[int]) -> np.ndarray:
        """`rows` as an int64 array; ValueError for a row outside the matrix."""
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) and (rows.min() < 0 or rows.max() >= len(self.names)):
            raise ValueError(f"row outside the feature matrix of {len(self.names)} names")
        return rows

    def entries(self, rows: Iterable[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entries of the given rows (repeats allowed), row after row.

        Returns (position of the entry's row within `rows`, token id, count).
        """
        rows = self.check_rows(rows)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        owner = np.repeat(np.arange(len(rows), dtype=np.int32), lengths)
        positions = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        positions += np.arange(len(positions))
        return owner, self.ids[positions], self.counts[positions]


def featurize(names: Sequence[str], config: NGramConfig = NGramConfig()) -> FeatureMatrix:
    """Distinct names into a shared sparse matrix of their n-gram counts.

    The names are decomposed with numpy, _CHUNK names at a time, so the
    transient arrays are bounded by one chunk and the result. Each row lists
    its tokens in the order a scan of the padded words (word, then n, then
    start) first meets them, and token ids index the sorted `tokens`. A
    name that `check_surnames` rejects raises its `SurnameError`.
    """
    names = tuple(names)
    # A token seen for the first time gets the next id.
    token_ids: defaultdict[bytes, int] = defaultdict(count().__next__)
    indptr = np.zeros(len(names) + 1, dtype=np.int64)
    ids = array("i")
    counts = array("i")
    for lo in range(0, len(names), _CHUNK):
        chunk = names[lo : lo + _CHUNK]
        rows, chunk_ids, chunk_counts = _chunk_entries(chunk, config, token_ids)
        indptr[lo + 1 : lo + 1 + len(chunk)] = np.bincount(rows, minlength=len(chunk))
        ids.frombytes(chunk_ids.tobytes())
        counts.frombytes(chunk_counts.tobytes())
    np.cumsum(indptr, out=indptr)
    # UTF-32-BE bytes sort as their code points do, so as the tokens do.
    keys = sorted(token_ids)
    # Ids were handed out as tokens were found; renumber them in token order.
    rank = np.empty(len(keys), dtype=np.int32)
    rank[[token_ids[key] for key in keys]] = np.arange(len(keys), dtype=np.int32)
    ids = rank[np.frombuffer(ids, dtype=np.int32)]
    text = b"".join(keys).decode("utf-32-be", "surrogatepass")
    lengths = [len(key) // 4 for key in keys]
    del token_ids, keys  # freed before the tokens are made, not pinned under them
    bounds = pairwise(accumulate(lengths, initial=0))
    tokens = tuple(text[start:end] for start, end in bounds)
    return FeatureMatrix(
        names=names,
        tokens=tokens,
        indptr=indptr,
        ids=ids,
        counts=np.frombuffer(counts, dtype=np.int32),
        config=config,
    )


def check_surnames(names: Sequence[str], text: str | None = None) -> None:
    """`SurnameError` naming the first of `names` that is empty or holds a
    boundary marker; `text` is the names joined by spaces, if the caller
    has it."""
    markers = (START_MARKER, END_MARKER)
    text = " ".join(names) if text is None else text
    if all(names) and not any(marker in text for marker in markers):
        return
    for name in names:
        if not name:
            raise SurnameError("empty surname")
        for marker in markers:
            if marker in name:
                raise SurnameError(f"surname {name!r} contains reserved marker {marker!r}")


def _rerank(key: np.ndarray, span: int, factor: int) -> tuple[np.ndarray, int]:
    """`key` and its bound, replaced by its ranks if key * factor could pass 2**63."""
    if span <= (2**63 - 1) // factor:
        return key, span
    distinct, key = np.unique(key, return_inverse=True)
    return key, len(distinct)


def _chunk_entries(
    chunk: Sequence[str], config: NGramConfig, token_ids: defaultdict[bytes, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row (within the chunk), token id and count of each of the chunk's entries.

    Entries come row by row, each row in first-seen scan order. Token
    ids are looked up in `token_ids` by the token's UTF-32-BE bytes; it hands
    out the next id to a token it has not seen.
    """
    text = " ".join(chunk)
    check_surnames(chunk, text)
    code = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    # Words are the runs of non-space code points; the joining spaces end
    # each name's last word, and a word's row follows from the name lengths.
    letter = code != 32
    edges = np.flatnonzero(np.diff(np.concatenate(([False], letter, [False]))))
    starts, lengths = edges[::2], edges[1::2] - edges[::2]
    name_len = np.fromiter(map(len, chunk), dtype=np.int64, count=len(chunk))
    word_row = np.searchsorted(np.cumsum(name_len + 1), starts, side="right")

    # The padded words back to back; each window inside one word is an n-gram.
    pad = int(config.pad_boundaries)
    width = lengths + 2 * pad
    offset = np.cumsum(width) - width
    padded = np.empty(int(width.sum()), dtype=np.uint32)
    padded[np.flatnonzero(letter) + np.repeat(offset + pad - starts, lengths)] = code[letter]
    if pad:
        padded[offset] = ord(START_MARKER)
        padded[offset + width - 1] = ord(END_MARKER)
    word_of = np.repeat(np.arange(len(width)), width)
    room = np.repeat(offset + width, width) - np.arange(len(padded))  # code points left in the word

    # The scan meets the windows word by word, then by n, then by start:
    # window t of size n_values[j] in word w comes at base[w, j] + t.
    windows = np.maximum(width[:, None] - np.asarray(config.n_values) + 1, 0)
    base = (np.cumsum(windows) - windows.ravel()).reshape(windows.shape) - offset[:, None]
    row = np.repeat(word_row, windows.sum(axis=1))  # by position in scan order
    token = np.empty(len(row), dtype=np.int64)  # numbered within the chunk
    tally = np.zeros(len(row), dtype=np.int32)  # set at each entry's first occurrence
    found: list[bytes] = []  # each chunk token's UTF-32-BE bytes

    # key[s] identifies the n code points from s on: the (n - 1)-gram key
    # times the code point bound plus the next code point. Keys are
    # re-ranked before a product that could overflow.
    symbol = padded.astype(np.int64)
    size, rows = int(padded.max(initial=0)) + 1, len(chunk)
    key, span = symbol, size
    for n in range(1, config.n_values[-1] + 1):
        if n > 1:
            key, span = _rerank(key, span, size)
            key = key[:-1] * size + symbol[n - 1 :]
            span *= size
        if n not in config.n_values:
            continue
        key, span = _rerank(key, span, rows)
        at = np.flatnonzero(room >= n)
        # Equal (token, row) pairs are one entry, placed at their first
        # occurrence; the sort only groups, so the order among ties is free.
        pair = key[at] * rows + word_row[word_of[at]]
        order = np.argsort(pair)
        heads = np.flatnonzero(np.diff(pair[order], prepend=-1))
        new = np.diff(pair[order[heads]] // rows, prepend=-1) != 0  # a token's first entry
        position = base[word_of[at], config.n_values.index(n)] + at
        first = np.minimum.reduceat(position[order], heads)
        token[first] = np.cumsum(new) - 1 + len(found)
        tally[first] = np.diff(heads, append=len(pair))
        code_points = padded[at[order[heads[new]], None] + np.arange(n)].astype(">u4")
        found.extend(code_points.view(f"V{4 * n}").ravel().tolist())
    ids = np.fromiter(map(token_ids.__getitem__, found), dtype=np.int32, count=len(found))
    entries = np.flatnonzero(tally)
    return row[entries], ids[token[entries]], tally[entries]


def build_vocabulary(
    rows: Iterable[int], features: FeatureMatrix, min_df: int = 1
) -> list[str]:
    """Sorted list of tokens occurring in at least min_df distinct surnames.

    The surnames are the given rows of `features` (repeats count once).
    Document frequencies are counted _VOCAB_CHUNK matrix rows at a time, so
    no temporary spans every entry.
    """
    if min_df < 1:
        raise ValueError(f"min_df must be >= 1, got {min_df}")
    rows = features.check_rows(rows)
    if not len(rows):
        raise ValueError("empty corpus")
    chosen = np.zeros(len(features.names), dtype=bool)
    chosen[rows] = True
    df = np.zeros(len(features.tokens), dtype=np.int64)
    indptr = features.indptr
    for lo in range(0, len(chosen), _VOCAB_CHUNK):
        hi = min(lo + _VOCAB_CHUNK, len(chosen))
        ids = features.ids[indptr[lo] : indptr[hi]]
        df += np.bincount(
            ids[np.repeat(chosen[lo:hi], np.diff(indptr[lo : hi + 1]))],
            minlength=len(features.tokens),
        )
    vocabulary = [features.tokens[j] for j in np.flatnonzero(df >= min_df)]
    if not vocabulary:
        raise ValueError("empty vocabulary: no token passes min_df")
    return vocabulary
