"""Surname occurrence tables, frequency normalization and core-name filtering.

The training corpus is a table of (surname, country, count) observations.
Counts are normalized per country so that heavily sampled countries do not
dominate, and surnames concentrated in a single country ("core names") are
kept as labeled learning examples. Concentration is measured with the
Herfindahl-Hirschman index over per-country shares.
"""

from __future__ import annotations

import logging
import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .errors import InputFormatError
from .util import atomic_write

log = logging.getLogger(__name__)

__all__ = [
    "normalize_surname",
    "CountryRegistry",
    "Gazetteer",
    "tag_affiliation_country",
    "OccurrenceRecord",
    "OccurrenceTable",
    "CoreName",
    "ingest",
    "hhi",
    "core_shares",
    "filter_core_names",
    "read_corpus_tsv",
    "render_corpus_tsv",
    "read_core_names",
    "render_core_names",
]

_WS_RUN = re.compile(r"\s+")


def normalize_surname(raw: str, strip_diacritics: bool = False) -> str:
    """Canonical surname form used everywhere downstream.

    Unicode NFC, lowercase, trimmed, inner whitespace collapsed to single
    spaces. Hyphens and apostrophes are kept; diacritics are kept unless
    explicitly stripped.
    """
    text = unicodedata.normalize("NFC", raw).lower()
    text = _WS_RUN.sub(" ", text).strip()
    if strip_diacritics:
        decomposed = unicodedata.normalize("NFD", text)
        text = unicodedata.normalize(
            "NFC", "".join(ch for ch in decomposed if not unicodedata.combining(ch))
        )
    return text


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

    def name(self, code: str) -> str:
        return self._names[code]

    @classmethod
    def from_tsv(cls, path: Path | str) -> "CountryRegistry":
        names: dict[str, str] = {}
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise InputFormatError(f"{path}: line {lineno}: expected code<TAB>name")
            code, name = fields[0].strip().upper(), fields[1].strip()
            if not code or not name:
                raise InputFormatError(f"{path}: line {lineno}: empty code or name")
            names[code] = name
        if not names:
            raise InputFormatError(f"{path}: empty registry")
        return cls(names)

    def to_tsv(self) -> str:
        return "".join(f"{code}\t{self._names[code]}\n" for code in self.codes())

    @classmethod
    def default(cls) -> "CountryRegistry":
        from .resources import countries_path

        return cls.from_tsv(countries_path())


class Gazetteer:
    """Country-name alias table for tagging free-text affiliations."""

    def __init__(self, entries: Iterable[tuple[str, str]]):
        self._patterns: list[tuple[re.Pattern[str], str]] = []
        for alias, code in entries:
            alias = alias.strip()
            code = code.strip().upper()
            if not alias or not code:
                raise ValueError("gazetteer entries need a non-empty alias and code")
            pattern = re.compile(
                r"(?<!\w)" + re.escape(alias) + r"(?!\w)", re.IGNORECASE | re.UNICODE
            )
            self._patterns.append((pattern, code))

    def __len__(self) -> int:
        return len(self._patterns)

    def matches(self, text: str) -> set[str]:
        return {code for pattern, code in self._patterns if pattern.search(text)}

    @classmethod
    def from_tsv(cls, path: Path | str) -> "Gazetteer":
        entries: list[tuple[str, str]] = []
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise InputFormatError(f"{path}: line {lineno}: expected alias<TAB>country_code")
            entries.append((fields[0], fields[1]))
        return cls(entries)

    @classmethod
    def default(cls) -> "Gazetteer":
        from .resources import gazetteer_path

        return cls.from_tsv(gazetteer_path())


def tag_affiliation_country(affiliation: str, gazetteer: Gazetteer) -> str | None:
    """Country code of the single whole-word alias match, else None.

    Zero matches and ambiguous multi-country matches both yield None; both
    are normal outcomes for free-text affiliations.
    """
    codes = gazetteer.matches(affiliation)
    if len(codes) == 1:
        return next(iter(codes))
    return None


@dataclass(frozen=True)
class OccurrenceRecord:
    surname: str
    country: str
    count: int


@dataclass(frozen=True)
class CoreName:
    """A surname concentrated enough in one country to serve as a labeled example."""

    surname: str
    assigned_country: str
    hhi: float
    max_frequency: float


class OccurrenceTable:
    """Immutable (surname, country) -> count table with per-country totals.

    Duplicate observations merge additively at construction; afterwards the
    table is read-only and safe for concurrent use. `len()` (distinct
    (surname, country) pairs) and `n_surnames` are counted at construction.
    """

    def __init__(self, pairs: Iterable[tuple[str, str, int]]):
        by_surname: dict[str, dict[str, int]] = {}
        totals: dict[str, int] = {}
        for surname, country, count in pairs:
            if not isinstance(count, int) or count < 1:
                raise ValueError(f"count must be a positive integer, got {count!r}")
            if not surname:
                raise ValueError("empty surname")
            if not country:
                raise ValueError("empty country code")
            per_country = by_surname.get(surname)
            if per_country is None:
                per_country = by_surname[surname] = {}
            per_country[country] = per_country.get(country, 0) + count
            totals[country] = totals.get(country, 0) + count
        self._by_surname = by_surname
        self._n_pairs = sum(map(len, by_surname.values()))
        self.n_surnames = len(by_surname)
        self.country_totals: dict[str, int] = totals

    def __len__(self) -> int:
        """Number of distinct (surname, country) pairs."""
        return self._n_pairs

    def count(self, surname: str, country: str) -> int:
        per_country = self._by_surname.get(surname)
        return per_country.get(country, 0) if per_country else 0

    def frequency(self, surname: str, country: str) -> float:
        """count(surname, country) / total occurrences of the country."""
        total = self.country_totals.get(country, 0)
        if total <= 0:
            raise ValueError(f"country {country!r} has no recorded occurrences")
        return self.count(surname, country) / total

    def surnames(self) -> list[str]:
        return sorted(self._by_surname)

    def countries(self) -> list[str]:
        return sorted(self.country_totals)

    def countries_of(self, surname: str) -> dict[str, int]:
        return dict(self._by_surname.get(surname, {}))

    def records(self) -> Iterator[OccurrenceRecord]:
        """Every (surname, country, count), by surname, then by country."""
        by_surname = self._by_surname
        for surname in sorted(by_surname):
            per_country = by_surname[surname]
            for country in sorted(per_country):
                yield OccurrenceRecord(surname, country, per_country[country])


def ingest(
    lines: Iterable[str],
    registry: CountryRegistry | None = None,
    *,
    header: bool = False,
    strict: bool = False,
    strip_diacritics: bool = False,
) -> OccurrenceTable:
    """Parse surname<TAB>country<TAB>count rows into an occurrence table.

    Duplicates merge; row order never affects the result. Unknown country
    codes are skipped with a warning, or rejected outright in strict mode.
    """
    pairs: list[tuple[str, str, int]] = []
    skipped = 0
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
            skipped += 1
            log.warning("line %d: unknown country code %r, row skipped", lineno, country)
            continue
        pairs.append((surname, country, count))
    if skipped:
        log.info("ingest: skipped %d rows with unknown country codes", skipped)
    return OccurrenceTable(pairs)


def hhi(shares: Iterable[float]) -> float:
    """Herfindahl-Hirschman concentration: sum of squared shares.

    1.0 is full concentration in one entry; a uniform split over k entries
    gives exactly 1/k. The input must be a probability vector.
    """
    values = [float(s) for s in shares]
    if any(s < 0 for s in values):
        raise ValueError("shares must be nonnegative")
    total = sum(values)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"shares must sum to 1 (got {total!r})")
    return sum(s * s for s in values)


def core_shares(
    table: OccurrenceTable, surname: str, *, basis: str = "frequency"
) -> dict[str, float]:
    """Per-country share vector for one surname, keyed by sorted country code.

    Shares are computed over per-country normalized frequencies by default,
    so heavily sampled countries do not dominate the concentration measure.
    `basis="count"` switches to raw counts.
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
    total = sum(weights)
    return {c: w / total for c, w in zip(countries, weights)}


def filter_core_names(
    table: OccurrenceTable,
    hhi_min: float = 0.8,
    freq_min: float = 1e-6,
    *,
    basis: str = "frequency",
) -> list[CoreName]:
    """Surnames whose share HHI and maximal frequency both pass the thresholds.

    Each passing surname is assigned to the country where its normalized
    frequency is maximal; exact frequency ties break to the lexicographically
    smallest country code and are logged. Shares and HHI are computed in the
    order of operations of `core_shares` and `hhi`, so every float equals
    theirs bit for bit. One INFO line counts the surnames read, those dropped
    by the HHI threshold, those (of the rest) dropped by the frequency floor
    and the frequency ties broken.
    """
    if len(table) == 0:
        raise ValueError("empty occurrence table")
    if basis not in ("frequency", "count"):
        raise ValueError(f"unknown share basis {basis!r}")
    by_surname = table._by_surname
    totals = table.country_totals
    out: list[CoreName] = []
    below_hhi = below_freq = ties = 0
    for surname in sorted(by_surname):
        per_country = by_surname[surname]
        countries = sorted(per_country)
        freqs = [per_country[c] / totals[c] for c in countries]
        weights = freqs if basis == "frequency" else [float(per_country[c]) for c in countries]
        total = sum(weights)
        shares = [w / total for w in weights]
        share_sum = sum(shares)
        if min(shares) < 0 or abs(share_sum - 1.0) > 1e-9:
            raise ValueError(f"surname {surname!r}: shares sum to {share_sum!r}, not 1")
        concentration = sum([s * s for s in shares])
        max_freq = max(freqs)
        if concentration < hhi_min:
            below_hhi += 1
            continue
        if max_freq < freq_min:
            below_freq += 1
            continue
        best = countries[freqs.index(max_freq)]
        if freqs.count(max_freq) > 1:
            ties += 1
            candidates = [c for c, f in zip(countries, freqs) if f == max_freq]
            log.info("surname %r: frequency tie across %s, assigned %s", surname, candidates, best)
        out.append(CoreName(surname, best, concentration, max_freq))
    log.info(
        "filter-core: %d surnames read, %d below hhi_min, %d below freq_min, "
        "%d frequency ties broken, %d kept",
        len(by_surname), below_hhi, below_freq, ties, len(out),
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
    with open(path, "r", encoding="utf-8") as fh:
        return ingest(
            fh, registry, header=header, strict=strict, strip_diacritics=strip_diacritics
        )


def render_corpus_tsv(table: OccurrenceTable) -> str:
    return "".join(f"{r.surname}\t{r.country}\t{r.count}\n" for r in table.records())


def render_core_names(names: Iterable[CoreName]) -> str:
    return "".join(
        f"{n.surname}\t{n.assigned_country}\t{n.hhi:.6g}\t{n.max_frequency:.6g}\n"
        for n in names
    )


def write_core_names(names: Iterable[CoreName], path: Path | str) -> Path:
    return atomic_write(path, render_core_names(names))


def read_core_names(path: Path | str) -> list[CoreName]:
    out: list[CoreName] = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise InputFormatError(f"{path}: line {lineno}: expected 4 fields")
        try:
            out.append(CoreName(fields[0], fields[1], float(fields[2]), float(fields[3])))
        except ValueError:
            raise InputFormatError(f"{path}: line {lineno}: malformed numeric field") from None
    return out
