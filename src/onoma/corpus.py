"""Surname occurrence tables, frequency normalization and core-name filtering.

The training corpus is a table of (surname, country, count) observations.
Counts are normalized per country so that heavily sampled countries do not
dominate, and surnames concentrated in a single country ("core names") are
kept as labeled learning examples. Concentration is measured with the
Herfindahl-Hirschman index over per-country shares. The table is stored as
sorted integer columns and the filter runs on them with numpy; its sums add
left to right, so its floats equal a per-surname loop's bit for bit.
The core names come out as columns too (`CoreSet`), sorted by surname, so
row i of `featurize(core.names)` is core name i and the later stages pass
row positions, not names.
"""

from __future__ import annotations

import logging
import re
import unicodedata
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import InputFormatError, SurnameError
from .features import check_surnames
from .resources import countries_path
from .util import format_each, intern, pick, read_text, tsv_lines

log = logging.getLogger(__name__)

__all__ = [
    "normalize_surname",
    "country_code",
    "CountryRegistry",
    "OccurrenceTable",
    "CoreSet",
    "ingest",
    "filter_core_names",
    "read_corpus_tsv",
    "render_corpus_tsv",
    "render_core_names",
]

_WS_RUN = re.compile(r"\s+")

_TOTAL_LIMIT = 2**53  # see OccurrenceTable


def normalize_surname(raw: str, strip_diacritics: bool = False) -> str:
    """Canonical surname form used everywhere downstream.

    Lowercase, then Unicode NFC (lowercasing can undo a composition), trimmed,
    inner whitespace collapsed to single spaces. Hyphens and apostrophes are
    kept; diacritics are kept unless explicitly stripped. Normalizing a
    normalized name returns it unchanged. ASCII skips NFC and NFD, which
    leave it unchanged; `str.split` splits where `\\s` matches.
    """
    if raw.isascii():
        return " ".join(raw.lower().split())
    text = unicodedata.normalize("NFC", raw.lower())
    text = _WS_RUN.sub(" ", text).strip()
    if strip_diacritics:
        decomposed = unicodedata.normalize("NFD", text)
        text = unicodedata.normalize(
            "NFC", "".join(ch for ch in decomposed if not unicodedata.combining(ch))
        )
    return text


def country_code(raw: str) -> str:
    """`raw` stripped and upper-cased, as a country code. A code names a
    region in the TSV and CSV files the pipeline writes, so one that is
    empty or holds whitespace, `,`, `"` or `#` raises `ValueError`."""
    code = raw.strip().upper()
    if not code or any(c.isspace() or c in ',"#' for c in code):
        raise ValueError(f"code {raw!r} is empty or holds whitespace, ',', '\"' or '#'")
    return code


class CountryRegistry:
    """Known country codes with display names; replaceable via config."""

    def __init__(self, names: Mapping[str, str]):
        self._names = {str(code): str(name) for code, name in names.items()}

    def __contains__(self, code: str) -> bool:
        return code in self._names

    def __len__(self) -> int:
        return len(self._names)

    def codes(self) -> list[str]:
        return sorted(self._names)

    @classmethod
    def from_tsv(cls, path: Path | str) -> "CountryRegistry":
        rows: dict[str, tuple[int, str]] = {}  # code: its line and name
        for lineno, line in enumerate(read_text(path).splitlines(), 1):
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise InputFormatError(f"{path}: line {lineno}: expected code<TAB>name")
            try:
                code, name = country_code(fields[0]), fields[1].strip()
            except ValueError as exc:
                raise InputFormatError(f"{path}: line {lineno}: {exc}") from None
            if not name:
                raise InputFormatError(f"{path}: line {lineno}: empty name")
            first, _ = rows.setdefault(code, (lineno, name))
            if first != lineno:
                raise InputFormatError(f"{path}: lines {first} and {lineno} list code {code}")
        if not rows:
            raise InputFormatError(f"{path}: empty registry")
        return cls({code: name for code, (_, name) in rows.items()})

    def to_tsv(self) -> str:
        return "".join(f"{code}\t{self._names[code]}\n" for code in self.codes())

    @classmethod
    def default(cls) -> "CountryRegistry":
        return cls.from_tsv(countries_path())


@dataclass(frozen=True, eq=False)
class CoreSet:
    """Surnames concentrated enough in one country to serve as labeled examples,
    as columns: `names` sorted and distinct, each name's country as an id into
    the sorted `countries`, its share HHI and its maximal frequency."""

    names: tuple[str, ...]
    countries: tuple[str, ...]
    country: np.ndarray  # int64
    hhi: np.ndarray  # float64
    max_frequency: np.ndarray  # float64

    def __len__(self) -> int:
        return len(self.names)


class OccurrenceTable:
    """Immutable (surname, country) -> count table with per-country totals.

    Columns: the sorted surnames and country codes (tuples), and int64 arrays
    of surname id, country id and count, one row per distinct pair, sorted by
    (surname, country). Duplicate observations merge additively; afterwards
    the table is read-only and safe for concurrent use; the core filter and
    the corpus writer read the columns. A country total of 2**53 or more
    raises `ValueError`: below it an int64 converts to a double exactly, so a
    frequency divides as Python's int / int does.
    """

    def __init__(self, pairs: Iterable[tuple[str, str, int]]):
        surnames, country_ids, cids, counts = [], {}, array("q"), array("q")
        for surname, country, count in pairs:
            if not isinstance(count, int) or not 0 < count < _TOTAL_LIMIT:
                raise ValueError(f"count must be a positive integer below 2**53, got {count!r}")
            if not surname:
                raise ValueError("empty surname")
            if not country:
                raise ValueError("empty country code")
            surnames.append(surname)
            cids.append(country_ids.setdefault(country, len(country_ids)))
            counts.append(count)
        self._set_columns(surnames, country_ids, cids, counts, ValueError)

    def _set_columns(self, surnames, country_ids, cids, counts, error) -> None:
        """Sort and merge rows; `cids` number the countries in first-seen order."""
        names, sid = intern(surnames)
        codes, rank = intern(list(country_ids))
        cid, counts = rank[np.asarray(cids)], np.asarray(counts)
        # Summed in doubles, exact below 2**53; a sum that reaches 2**53
        # never rounds back below it, and no int64 sum can wrap here.
        totals = np.bincount(cid, weights=counts, minlength=len(codes))
        if (totals >= _TOTAL_LIMIT).any():
            code = codes[int(np.argmax(totals >= _TOTAL_LIMIT))]
            raise error(f"country {code!r} total reaches 2**53")
        key = sid * len(codes) + cid
        order = np.argsort(key)
        first = np.flatnonzero(np.diff(key[order], prepend=-1))
        self._surnames, self._countries = names, codes
        self._sid, self._cid = sid[order[first]], cid[order[first]]
        self._count = np.add.reduceat(counts[order], first)
        self._totals = totals.astype(np.int64)
        self.n_surnames = len(names)

    def __len__(self) -> int:
        """Number of distinct (surname, country) pairs."""
        return len(self._count)

    def surnames(self) -> list[str]:
        return list(self._surnames)


def ingest(
    lines: Iterable[str],
    registry: CountryRegistry | None = None,
    *,
    header: bool = False,
    strict: bool = False,
    strip_diacritics: bool = False,
) -> OccurrenceTable:
    """Parse surname<TAB>country<TAB>count rows into an occurrence table.

    Duplicates merge; row order never affects the result. Rows with an
    unknown country code are skipped, with one warning per code that counts
    its rows, or rejected outright in strict mode.
    A country total at or above 2**53 raises `InputFormatError`.
    """
    surnames, country_ids, cids, counts = [], {}, array("q"), array("q")
    skipped: dict[str, int] = {}  # unknown code -> rows, in first-seen order
    for lineno, raw in enumerate(lines, 1):
        if lineno == 1 and header:
            continue
        line = raw.rstrip("\r\n")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise InputFormatError(
                f"line {lineno}: expected 3 tab-separated fields, got {len(fields)}"
            )
        raw_surname, raw_country, raw_count = fields
        try:
            count = int(raw_count)
        except ValueError:
            raise InputFormatError(
                f"line {lineno}: count {raw_count!r} is not an integer"
            ) from None
        if count < 1:
            raise InputFormatError(f"line {lineno}: count must be >= 1, got {count}")
        surname = normalize_surname(raw_surname, strip_diacritics)
        if not surname:
            raise InputFormatError(f"line {lineno}: surname empty after normalization")
        country = raw_country.strip().upper()
        if not country:
            raise InputFormatError(f"line {lineno}: empty country code")
        if registry is not None and country not in registry:
            if strict:
                raise InputFormatError(f"line {lineno}: unknown country code {country!r}")
            skipped[country] = skipped.get(country, 0) + 1
            continue
        if count >= _TOTAL_LIMIT:
            raise InputFormatError(f"line {lineno}: country {country!r} total reaches 2**53")
        surnames.append(surname)
        cids.append(country_ids.setdefault(country, len(country_ids)))
        counts.append(count)
    for country, rows in skipped.items():
        log.warning("unknown country code %r, rows skipped: %d", country, rows)
    if skipped:
        log.info("ingest: skipped %d rows with unknown country codes", sum(skipped.values()))
    table = OccurrenceTable.__new__(OccurrenceTable)
    table._set_columns(surnames, country_ids, cids, counts, InputFormatError)
    return table


def _segment_sums(values: np.ndarray, plan: tuple) -> np.ndarray:
    """Each segment's sum, added left to right as `sum()` did before Python
    3.12 (numpy's `add.reduceat` does not). `plan`: the segments' first
    positions, longest segment first; for k = 1, 2, ... how many are longer
    than k; and the permutation back to segment order."""
    firsts, widths, unsort = plan
    sums = values[firsts]
    for k, width in enumerate(widths, 1):
        sums[:width] += values[firsts[:width] + k]
    return sums[unsort]


def filter_core_names(
    table: OccurrenceTable,
    hhi_min: float = 0.8,
    freq_min: float = 1e-6,
    *,
    basis: str = "frequency",
) -> CoreSet:
    """Surnames whose share HHI and maximal frequency both pass the thresholds.

    Each passing surname is assigned to the country where its normalized
    frequency is maximal; exact frequency ties break to the lexicographically
    smallest country code and are logged. Computed with numpy over the
    table's columns, every float equals a per-surname loop's bit for bit
    (the tests keep one): each division and product is the same IEEE
    operation, and each per-surname sum adds left to right. One INFO line
    counts the surnames read, those dropped by the HHI threshold, those (of
    the rest) dropped by the frequency floor and the frequency ties broken.
    Returns the kept surnames as a `CoreSet`, sorted by surname.
    """
    if len(table) == 0:
        raise ValueError("empty occurrence table")
    if basis not in ("frequency", "count"):
        raise ValueError(f"unknown share basis {basis!r}")
    names, codes = table._surnames, table._countries
    sid, cid, counts = table._sid, table._cid, table._count
    starts = np.searchsorted(sid, np.arange(table.n_surnames))
    lengths = np.diff(starts, append=len(sid))
    order = np.argsort(-lengths, kind="stable")
    widths = np.searchsorted(-lengths[order], -np.arange(1, lengths.max())).tolist()
    plan = (starts[order], widths, np.argsort(order))
    freqs = counts / table._totals[cid]
    weights = freqs if basis == "frequency" else counts.astype(np.float64)
    shares = weights / np.repeat(_segment_sums(weights, plan), lengths)
    share_sums = _segment_sums(shares, plan)
    bad = (np.minimum.reduceat(shares, starts) < 0) | (np.abs(share_sums - 1.0) > 1e-9)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"surname {names[i]!r}: shares sum to {float(share_sums[i])!r}, not 1")
    concentration = _segment_sums(shares * shares, plan)
    max_freq = np.maximum.reduceat(freqs, starts)
    is_max = freqs == np.repeat(max_freq, lengths)
    best = cid[np.minimum.reduceat(np.where(is_max, np.arange(len(cid)), len(cid)), starts)]
    tied = np.add.reduceat(is_max, starts, dtype=np.int64) > 1
    low_hhi = concentration < hhi_min
    low_freq = ~low_hhi & (max_freq < freq_min)
    kept = np.flatnonzero(~low_hhi & ~low_freq)
    for i in kept[tied[kept]].tolist():
        rows = slice(starts[i], starts[i] + lengths[i])
        tie = [codes[c] for c in cid[rows][is_max[rows]].tolist()]
        log.info("surname %r: frequency tie across %s, assigned %s", names[i], tie, codes[best[i]])
    out = CoreSet(tuple(pick(names, kept)), codes, best[kept], concentration[kept], max_freq[kept])
    log.info(
        "filter-core: %d surnames read, %d below hhi_min, %d below freq_min, "
        "%d frequency ties broken, %d kept",
        table.n_surnames, low_hhi.sum(), low_freq.sum(), tied[kept].sum(), len(out),
    )
    return out


def read_corpus_tsv(
    path: Path | str,
    registry: CountryRegistry | None = None,
    *,
    header: bool = False,
    strict: bool = False,
    strip_diacritics: bool = False,
) -> OccurrenceTable:
    """`ingest` of the file `path`; a format error or a surname that
    `check_surnames` rejects is an `InputFormatError` naming the file."""
    with open(path, "r", encoding="utf-8-sig") as fh:  # a byte-order mark is skipped
        try:
            table = ingest(
                fh, registry, header=header, strict=strict, strip_diacritics=strip_diacritics
            )
            check_surnames(table._surnames)
        except (InputFormatError, SurnameError) as exc:
            raise InputFormatError(f"{path}: {exc}") from None
        except UnicodeDecodeError:  # its position is within a buffered block, not the file
            raise InputFormatError(f"{path}: not valid UTF-8") from None
    if len(table) == 0:
        raise InputFormatError(f"{path}: no records")
    return table


def render_corpus_tsv(table: OccurrenceTable) -> str:
    """Every (surname, country, count), by surname, then by country."""
    return tsv_lines(
        pick(table._surnames, table._sid),
        pick(table._countries, table._cid),
        format_each("%d", table._count),
    )


def render_core_names(core: CoreSet) -> str:
    return tsv_lines(
        core.names,
        pick(core.countries, core.country),
        format_each("%.6g", core.hhi),
        format_each("%.6g", core.max_frequency),
    )
