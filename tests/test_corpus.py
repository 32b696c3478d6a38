"""Ingestion, normalization, HHI and core-name filtering."""

import logging
import math
import random
import re
import unicodedata
from collections import namedtuple

import numpy as np
import pytest

from onoma.corpus import (
    CoreSet,
    CountryRegistry,
    OccurrenceTable,
    country_code,
    filter_core_names,
    ingest,
    normalize_surname,
    read_corpus_tsv,
    render_core_names,
    render_corpus_tsv,
)
from onoma.errors import InputFormatError
from reference import core_shares, hhi, occurrences, shares, triples

# One core name, as the reference loops below build them.
CoreRow = namedtuple("CoreRow", "surname assigned_country hhi max_frequency")


def core_rows(core):
    """The columns of a `CoreSet`, one `CoreRow` per core name."""
    codes = [core.countries[c] for c in core.country.tolist()]
    return list(map(CoreRow, core.names, codes, core.hhi.tolist(), core.max_frequency.tolist()))


def as_core_set(rows):
    """`CoreRow`s, sorted by surname as the reference loops give them, as a `CoreSet`."""
    countries = tuple(sorted({n.assigned_country for n in rows}))
    return CoreSet(
        tuple(n.surname for n in rows),
        countries,
        np.array([countries.index(n.assigned_country) for n in rows], dtype=np.int64),
        np.array([n.hhi for n in rows], dtype=float),
        np.array([n.max_frequency for n in rows], dtype=float),
    )


def brute_force_core(rows, hhi_min=0.8, freq_min=1e-6):
    """Independent recomputation of the core-name set from raw rows.

    Accumulates totals in reverse row order on purpose: integer totals are
    exact, so the selection must be identical no matter the order.
    """
    totals = {}
    for _s, c, n in reversed(rows):
        totals[c] = totals.get(c, 0) + n
    per = {}
    for s, c, n in rows:
        per.setdefault(s, {})
        per[s][c] = per[s].get(c, 0) + n
    selected = set()
    for s, by_country in per.items():
        countries = sorted(by_country)
        freqs = [by_country[c] / totals[c] for c in countries]
        total = sum(freqs)
        shares = [f / total for f in freqs]
        concentration = sum(x * x for x in shares)
        max_freq = max(freqs)
        if concentration >= hhi_min and max_freq >= freq_min:
            selected.add((s, countries[freqs.index(max_freq)]))
    return selected


def parent_filter_core_names(table, hhi_min=0.8, freq_min=1e-6, *, basis="frequency"):
    """The per-surname loop over `shares` and `hhi` that `filter_core_names`
    replaced, kept as its reference. Counts, country totals and frequencies
    come from the table's rows (`occurrences`), as Python ints and int / int."""
    log = logging.getLogger("onoma.corpus")
    if len(table) == 0:
        raise ValueError("empty occurrence table")
    by_surname, totals = occurrences(table)
    out: list[CoreRow] = []
    for surname in sorted(by_surname):
        weights = shares(by_surname[surname], totals, basis=basis)
        concentration = hhi(weights.values())
        countries = sorted(weights)
        freqs = {c: by_surname[surname][c] / totals[c] for c in countries}
        max_freq = max(freqs.values())
        if concentration < hhi_min or max_freq < freq_min:
            continue
        best = [c for c in countries if freqs[c] == max_freq]
        if len(best) > 1:
            log.info("surname %r: frequency tie across %s, assigned %s", surname, best, best[0])
        out.append(CoreRow(surname, best[0], concentration, max_freq))
    return out


# ---------------------------------------------------------------- ingest


def country_totals(table):
    return occurrences(table)[1]


def test_ingest_single_record():
    table = ingest(["toriyama\tJP\t5\n"])
    assert country_totals(table) == {"JP": 5}
    assert triples(table) == [("toriyama", "JP", 5)]


def test_ingest_merges_duplicates():
    table = ingest(["li\tCN\t3\n", "li\tCN\t2\n"])
    records = triples(table)
    assert len(records) == 1
    assert records[0][2] == 5


def test_ingest_country_totals():
    table = ingest(["li\tCN\t3\n", "li\tUS\t1\n", "smith\tUS\t9\n"])
    assert country_totals(table) == {"CN": 3, "US": 10}


def test_ingest_order_irrelevant():
    rows = ["li\tCN\t3\n", "li\tUS\t1\n", "smith\tUS\t9\n", "li\tCN\t4\n"]
    a = ingest(rows)
    b = ingest(list(reversed(rows)))
    assert triples(a) == triples(b)
    assert country_totals(a) == country_totals(b)


def test_ingest_malformed_row_carries_line_number():
    with pytest.raises(InputFormatError, match="line 2"):
        ingest(["a\tUS\t1\n", "broken row\n"])
    with pytest.raises(InputFormatError, match="line 1.*integer"):
        ingest(["a\tUS\tmany\n"])
    with pytest.raises(InputFormatError, match="line 1.*>= 1"):
        ingest(["a\tUS\t0\n"])
    with pytest.raises(InputFormatError, match="line 1.*>= 1"):
        ingest(["a\tUS\t-3\n"])


def test_ingest_header_skip():
    table = ingest(["surname\tcountry\tcount\n", "li\tCN\t3\n"], header=True)
    assert country_totals(table) == {"CN": 3}


def test_ingest_unknown_country_modes():
    registry = CountryRegistry({"US": "United States"})
    lenient = ingest(["a\tUS\t1\n", "b\tZZ\t1\n"], registry)
    assert country_totals(lenient) == {"US": 1}
    with pytest.raises(InputFormatError, match="unknown country"):
        ingest(["a\tUS\t1\n", "b\tZZ\t1\n"], registry, strict=True)


def test_ingest_warns_once_per_unknown_country_code(caplog):
    """One warning per unknown code, counting its rows, in the order the
    codes first appear; the INFO line gives the total."""
    registry = CountryRegistry({"US": "United States"})
    rows = ["a\tQQ\t1\n", "b\tUS\t1\n", "c\tzz\t1\n", "d\tQQ\t2\n", "e\tQQ\t1\n"]
    caplog.set_level(logging.INFO, logger="onoma.corpus")
    assert country_totals(ingest(rows, registry)) == {"US": 1}
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", "unknown country code 'QQ', rows skipped: 3"),
        ("WARNING", "unknown country code 'ZZ', rows skipped: 1"),
        ("INFO", "ingest: skipped 4 rows with unknown country codes"),
    ]


def test_table_reads_match_pair_reference():
    """The table's sizes, surnames and rows against dicts built from the same rows."""
    rng = random.Random(21)
    countries = ["US", "FR", "JP", "CN", "Ωx", "DE"]
    names = [f"n{i}" for i in range(30)] + ["a", "a b", "zoë", "ß", "\x00", "n1\x00"]
    for trial in range(12):
        rows = [
            (rng.choice(names), rng.choice(countries[: rng.randint(1, 6)]), rng.randint(1, 9))
            for _ in range(rng.randint(1, 400))
        ]
        rows += rows[: len(rows) // 4]  # duplicate rows merge additively
        rng.shuffle(rows)
        pairs, by_surname, totals = {}, {}, {}
        for s, c, n in rows:
            pairs[(s, c)] = pairs.get((s, c), 0) + n
            by_surname.setdefault(s, {})[c] = by_surname.get(s, {}).get(c, 0) + n
            totals[c] = totals.get(c, 0) + n
        table = OccurrenceTable(rows)
        assert len(table) == len(pairs), trial
        assert table.n_surnames == len(by_surname)
        assert table.surnames() == sorted(by_surname)
        assert triples(table) == [
            (s, c, pairs[(s, c)]) for s, c in sorted(pairs)
        ]
        assert occurrences(table) == (by_surname, totals)
        surnames = table.surnames()
        surnames.append("zzz")  # a copy: the table does not change
        assert table.surnames() == sorted(by_surname)


def test_empty_table_reads():
    table = OccurrenceTable([])
    assert (len(table), table.n_surnames, table.surnames()) == (0, 0, [])
    assert triples(table) == []
    assert len(ingest(["\n"])) == 0
    with pytest.raises(ValueError, match="empty occurrence table"):
        filter_core_names(table)


def test_country_total_must_stay_below_2_pow_53():
    # Below the limit every frequency is Python's exact int / int.
    table = ingest([f"a\tUS\t{2**53 - 2}\n", "b\tUS\t1\n"])
    core = filter_core_names(table, 0.0, 0.0)
    assert core.max_frequency[core.names.index("b")] == 1 / (2**53 - 1)
    with pytest.raises(InputFormatError, match=r"line 2: country 'US' total reaches 2\*\*53"):
        ingest(["a\tFR\t1\n", f"b\tUS\t{2**53}\n"])
    with pytest.raises(InputFormatError, match=r"line 1: country 'US' total reaches 2\*\*53"):
        ingest([f"a\tUS\t{2**64}\n"])
    for count in (2**53, 2**64):
        with pytest.raises(ValueError, match=r"positive integer below 2\*\*53, got"):
            OccurrenceTable([("a", "US", count)])
    # Rows each below the limit whose total reaches it, also where an int64
    # sum would wrap: 2048 * (2**53 - 1) is 2**64 - 2048, -2048 in int64.
    for rows in (
        [("a", "US", 2**52), ("b", "FR", 5), ("b", "US", 2**52)],
        [("a", "US", 2**52), ("a", "US", 2**52)],
        [(f"s{i}", "US", 2**53 - 1) for i in range(2048)],
    ):
        with pytest.raises(ValueError, match="country 'US' total reaches 2"):
            OccurrenceTable(rows)
        with pytest.raises(InputFormatError, match="country 'US' total reaches 2"):
            ingest(f"{s}\t{c}\t{n}\n" for s, c, n in rows)


# ---------------------------------------------------------------- normalization


def test_normalize_basic():
    assert normalize_surname("  VAN  Der Berg ") == "van der berg"
    assert normalize_surname("O'Neil-Smith") == "o'neil-smith"


def test_normalize_composes_and_keeps_diacritics():
    decomposed = "Müller"  # u + combining diaeresis
    assert normalize_surname(decomposed) == "müller"
    assert normalize_surname(decomposed, strip_diacritics=True) == "muller"


def test_normalize_collapses_tabs_and_newlines():
    assert normalize_surname("de\tla\ncruz") == "de la cruz"


def test_normalize_is_idempotent_on_every_bmp_letter():
    # Lowercasing can leave a letter and a mark that NFC then composes, as
    # "J" + caron becomes "ǰ"; a second pass must find nothing left to do.
    assert normalize_surname("J\u030cones") == "\u01f0ones"
    letters = [chr(c) for c in range(0x10000) if unicodedata.category(chr(c)).startswith("L")]
    marks = ["", "\u0300", "\u0301", "\u0307", "\u0308", "\u030c"]
    for strip in (False, True):
        for name in (letter + mark for letter in letters for mark in marks):
            once = normalize_surname(name, strip)
            assert normalize_surname(once, strip) == once, (name, strip)


# ---------------------------------------------------------------- frequency / hhi


def test_frequency_cases():
    table = ingest(["sole\tJP\t5\n", "li\tCN\t3\n", "wang\tCN\t7\n"])
    core = filter_core_names(table, 0.0, 0.0)
    frequency = dict(zip(core.names, core.max_frequency.tolist()))
    assert frequency["sole"] == 1.0
    assert "absent" not in frequency
    assert frequency["li"] == pytest.approx(0.3)


def test_hhi_examples():
    assert hhi([1.0]) == 1.0
    assert hhi([0.5, 0.5]) == 0.5
    value = hhi([0.9, 0.1])
    assert value == pytest.approx(0.82, abs=1e-12)
    assert value >= 0.8  # passes the default concentration threshold


def test_hhi_uniform_is_one_over_k():
    for k in (1, 2, 3, 4, 5, 8, 10, 16):
        assert hhi([1.0 / k] * k) == pytest.approx(1.0 / k, abs=1e-12)


def test_hhi_permutation_invariant():
    rng = random.Random(11)
    for _ in range(50):
        raw = [rng.random() for _ in range(rng.randint(2, 9))]
        total = sum(raw)
        shares = [x / total for x in raw]
        shuffled = shares[:]
        rng.shuffle(shuffled)
        assert hhi(shuffled) == pytest.approx(hhi(shares), rel=1e-12)


def test_hhi_concentration_increases_on_merge():
    rng = random.Random(12)
    for _ in range(50):
        raw = [rng.random() for _ in range(rng.randint(3, 8))]
        total = sum(raw)
        shares = [x / total for x in raw]
        merged = [shares[0] + shares[1]] + shares[2:]
        assert hhi(merged) > hhi(shares)


def test_hhi_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        hhi([0.5, 0.4])
    with pytest.raises(ValueError, match="nonnegative"):
        hhi([1.5, -0.5])


# ---------------------------------------------------------------- shares / filtering


def test_core_shares_single_country():
    table = ingest(["a\tUS\t4\n"])
    assert core_shares(table, "a") == {"US": 1.0}


def test_core_shares_equal_frequencies():
    # 0.001 in both countries -> half/half regardless of raw counts
    table = ingest(["a\tUS\t1\n", "x\tUS\t999\n", "a\tFR\t10\n", "y\tFR\t9990\n"])
    shares = core_shares(table, "a")
    assert shares["US"] == pytest.approx(0.5)
    assert shares["FR"] == pytest.approx(0.5)


def test_core_shares_ratio():
    # frequencies 0.003 vs 0.001 -> shares 0.75 / 0.25
    table = ingest(["a\tUS\t3\n", "x\tUS\t997\n", "a\tFR\t1\n", "y\tFR\t999\n"])
    shares = core_shares(table, "a")
    assert shares["US"] == pytest.approx(0.75)
    assert shares["FR"] == pytest.approx(0.25)


def test_filter_includes_concentrated_name():
    rows = ["solo\tJP\t1\n"] + [f"filler{i}\tJP\t9999\n" for i in range(10)]
    table = ingest(rows)
    core = {n.surname: n for n in core_rows(filter_core_names(table))}
    assert "solo" in core
    assert core["solo"].hhi == 1.0
    assert core["solo"].assigned_country == "JP"


def test_filter_excludes_even_split():
    table = ingest(["dual\tUS\t5\n", "dual\tFR\t5\n"])
    assert core_rows(filter_core_names(table)) == []


def test_filter_frequency_floor():
    table = ingest(["rare\tUS\t1\n", "big\tUS\t10\n"])
    kept = core_rows(filter_core_names(table, freq_min=0.5))
    assert [n.surname for n in kept] == ["big"]


def test_filter_assigned_is_argmax_frequency():
    rng = random.Random(13)
    rows = []
    for i in range(300):
        for c in rng.sample(["US", "FR", "JP", "CN", "DE"], rng.randint(1, 3)):
            rows.append((f"name{i}", c, rng.randint(1, 40)))
    table = OccurrenceTable(rows)
    by_surname, totals = occurrences(table)
    for name in core_rows(filter_core_names(table, hhi_min=0.0, freq_min=0.0)):
        counts = by_surname[name.surname]
        best = counts[name.assigned_country] / totals[name.assigned_country]
        for c in totals:
            assert best >= counts.get(c, 0) / totals[c]


def test_filter_matches_brute_force_oracle():
    rng = random.Random(99)
    for _ in range(20):
        rows = []
        for _ in range(rng.randint(5, 500)):
            rows.append(
                (
                    f"n{rng.randint(0, 120)}",
                    rng.choice(["US", "FR", "JP", "CN", "DE", "BR", "IN", "NG"]),
                    rng.randint(1, 50),
                )
            )
        table = OccurrenceTable(rows)
        expected = brute_force_core(rows)
        got = {(n.surname, n.assigned_country) for n in core_rows(filter_core_names(table))}
        assert got == expected


def test_filter_row_order_independent():
    rng = random.Random(5)
    rows = [(f"n{i % 40}", rng.choice(["US", "FR", "JP"]), rng.randint(1, 9)) for i in range(200)]
    a = core_rows(filter_core_names(OccurrenceTable(rows)))
    shuffled = rows[:]
    rng.shuffle(shuffled)
    b = core_rows(filter_core_names(OccurrenceTable(shuffled)))
    assert a == b


def test_filter_count_basis_flag():
    # Equal raw counts but very different frequencies: the frequency basis
    # sees concentration, the count basis does not.
    table = ingest(["a\tUS\t10\n", "x\tUS\t99990\n", "a\tFR\t10\n", "y\tFR\t90\n"])
    by_freq = {n.surname for n in core_rows(filter_core_names(table))}
    by_count = {n.surname for n in core_rows(filter_core_names(table, basis="count"))}
    assert "a" in by_freq
    assert "a" not in by_count


def random_tied_table(rng, n_surnames):
    """Rows where many surnames have exactly equal frequencies in two countries.

    Counts are small and one filler surname a country brings every country to
    the same total, so equal counts are equal frequencies.
    """
    countries = ["BR", "CN", "DE", "FR", "JP", "US"]
    rows = []
    for i in range(n_surnames):
        for c in rng.sample(countries, rng.choice([1, 1, 2, 2, 3])):
            rows.append((f"s{i}", c, rng.randint(1, 3)))
    totals = {c: 0 for c in countries}
    for _s, c, n in rows:
        totals[c] += n
    top = max(totals.values()) + 1
    rows += [(f"fill{c}", c, top - totals[c]) for c in countries]
    return rows


def test_filter_matches_per_surname_reference():
    rng = random.Random(4)
    countries = ["US", "FR", "JP", "CN", "DE"]
    for trial in range(30):
        if trial % 2:
            rows = random_tied_table(rng, rng.randint(1, 80))
        else:
            rows = [
                (f"n{rng.randint(0, 60)}", rng.choice(countries), rng.randint(1, 60))
                for _ in range(rng.randint(1, 300))
            ]
        rng.shuffle(rows)
        table = OccurrenceTable(rows)
        for basis in ("frequency", "count"):
            for hhi_min, freq_min in ((0.8, 1e-6), (0.5, 0.0), (0.3, 0.02), (1.0, 0.1)):
                expected = parent_filter_core_names(table, hhi_min, freq_min, basis=basis)
                got = core_rows(filter_core_names(table, hhi_min, freq_min, basis=basis))
                assert got == expected, (trial, basis, hhi_min, freq_min)


def bits(core_names):
    return [(n.surname, n.assigned_country, n.hhi.hex(), n.max_frequency.hex()) for n in core_names]


def test_filter_matches_reference_bitwise_over_many_countries():
    # numpy's add.reduceat sums 8 or more elements pairwise; the filter's
    # per-surname sums must still add left to right, like core_shares and hhi.
    rng = random.Random(31)
    countries = [f"C{i:02d}" for i in range(14)]
    rows = []
    for i in range(300):
        for c in rng.sample(countries, rng.randint(1, 14)):
            rows.append((f"s{i}", c, rng.randint(1, 10**rng.randint(1, 6))))
    rng.shuffle(rows)
    table = OccurrenceTable(rows)
    assert sum(len(counts) >= 9 for counts in occurrences(table)[0].values()) > 100
    for basis in ("frequency", "count"):
        expected = parent_filter_core_names(table, 0.0, 0.0, basis=basis)
        assert len(expected) == 300
        got = core_rows(filter_core_names(table, 0.0, 0.0, basis=basis))
        assert bits(got) == bits(expected), basis


def test_filter_sums_left_to_right_on_every_python():
    """From Python 3.12 on `sum()` compensates; HHI must not change with it."""

    def left_to_right(values):
        total = 0.0
        for v in values:
            total += v
        return total

    # One surname per country, so every frequency is 1.0 and both bases see
    # equal weights when the counts are equal.
    for counts, basis in (([1] * 6, "frequency"), ([1] * 10, "count"), ([2, 8, 3, 1], "count")):
        table = OccurrenceTable([("s", f"C{i}", n) for i, n in enumerate(counts)])
        weights = [float(n) for n in counts]
        total = left_to_right(weights)
        squares = [(w / total) * (w / total) for w in weights]
        expected = left_to_right(squares)
        assert expected != math.fsum(squares)  # a compensated sum differs
        [core] = core_rows(filter_core_names(table, 0.0, 0.0, basis=basis))
        assert core.hhi.hex() == expected.hex()
        assert hhi(core_shares(table, "s", basis=basis).values()).hex() == expected.hex()


def test_filter_logs_the_same_frequency_ties(caplog):
    table = OccurrenceTable(random_tied_table(random.Random(8), 200))
    caplog.set_level(logging.INFO, logger="onoma.corpus")

    def ties(filter_fn):
        caplog.clear()
        filter_fn(table, 0.5, 0.0)
        return [r.getMessage() for r in caplog.records if "frequency tie across" in r.getMessage()]

    expected = ties(parent_filter_core_names)
    assert expected  # the table has ties among the kept surnames
    assert ties(filter_core_names) == expected


def test_filter_unknown_basis_rejected_before_any_surname():
    # Every surname sits in one country, so no share vector needs the basis.
    table = ingest(["a\tUS\t3\n", "b\tFR\t2\n"])
    with pytest.raises(ValueError, match="unknown share basis"):
        core_rows(filter_core_names(table, basis="weights"))


def test_filter_logs_funnel_counts(caplog):
    rows = [
        ("solo", "A", 40), ("filla", "A", 40),  # kept, one country
        ("tied", "A", 10), ("tied", "B", 10),  # kept, frequency tie between A and B
        ("spread", "A", 10), ("spread", "B", 10), ("spread", "C", 10),  # HHI 1/3
        ("rare", "C", 1),  # frequency 0.01
        ("fillb", "B", 80), ("fillc", "C", 89),  # every country totals 100
    ]
    caplog.set_level(logging.INFO, logger="onoma.corpus")
    kept = core_rows(filter_core_names(OccurrenceTable(rows), hhi_min=0.5, freq_min=0.05))
    assert [n.surname for n in kept] == ["filla", "fillb", "fillc", "solo", "tied"]
    funnel = [r.getMessage() for r in caplog.records if r.getMessage().startswith("filter-core:")]
    assert funnel == [
        "filter-core: 7 surnames read, 1 below hhi_min, 1 below freq_min, "
        "1 frequency ties broken, 5 kept"
    ]


# ---------------------------------------------------------------- registry


def test_country_code_is_stripped_and_upper_cased():
    assert country_code(" us ") == "US"
    for raw in ("", "  ", "U S", "U\tS", "A,A", "#A", 'A"A'):
        with pytest.raises(ValueError, match="is empty or holds whitespace, ',', '\"' or '#'"):
            country_code(raw)


@pytest.mark.parametrize("code", ["a,a", "#A", 'A"A', "A A"])
def test_registry_rejects_a_code_no_written_file_carries_back(tmp_path, code):
    """A registry code becomes a region's name in the grid files, so a code
    that could split or comment out a row is an input error naming the line."""
    path = tmp_path / "countries.tsv"
    path.write_text(f"US\tUnited States\n{code}\tOther\n", encoding="utf-8")
    with pytest.raises(InputFormatError, match=re.escape(f"{path}: line 2: code '{code}' is")):
        CountryRegistry.from_tsv(path)


def test_registry_codes_are_stripped_and_upper_cased(tmp_path):
    path = tmp_path / "countries.tsv"
    path.write_text(" us \tUnited States\n", encoding="utf-8")
    assert CountryRegistry.from_tsv(path).codes() == ["US"]


def test_default_registry_has_176_entries():
    registry = CountryRegistry.default()
    assert len(registry) == 176
    assert "JP" in registry and "ME" in registry and "ES" in registry


# ---------------------------------------------------------------- file round trips


def test_corpus_tsv_round_trip(tmp_path):
    table = ingest(["b\tUS\t2\n", "a\tFR\t1\n", "a\tUS\t5\n"])
    path = tmp_path / "corpus.tsv"
    path.write_text(render_corpus_tsv(table), encoding="utf-8")
    again = read_corpus_tsv(path)
    assert triples(again) == triples(table)


@pytest.mark.parametrize(
    "row, message",
    [("o^brien\tFR\t2", "surname 'o^brien' contains reserved marker '^'"),
     ("Ó$Brien\tFR\t2", "surname 'ó$brien' contains reserved marker '$'")],
)
def test_corpus_reader_rejects_a_surname_with_a_marker_and_names_the_file(tmp_path, row,
                                                                         message):
    # The check reads every distinct surname after normalization.
    path = tmp_path / "corpus.tsv"
    path.write_text(f"smith\tUS\t3\n{row}\n", encoding="utf-8")
    with pytest.raises(InputFormatError) as caught:
        read_corpus_tsv(path)
    assert str(caught.value) == f"{path}: {message}"


def test_core_names_tsv_round_trip():
    table = ingest(["solo\tJP\t1\n", "x\tJP\t999998\n", "dual\tUS\t1\n", "dual\tFR\t1\n"])
    core = filter_core_names(table)
    # 6 significant digits in the rendering
    line = render_core_names(core).splitlines()[0]
    assert line.split("\t")[2] == "1"


def test_core_names_render_as_the_per_name_format():
    rng = random.Random(6)
    rows = [(f"s{rng.randint(0, 400)}", rng.choice(["US", "FR", "JP"]), rng.randint(1, 99))
            for _ in range(900)]
    core = filter_core_names(OccurrenceTable(rows), 0.3, 0.0)
    assert len(core) > 100 and len(set(core.hhi.tolist())) > 10
    expected = "".join(
        f"{n.surname}\t{n.assigned_country}\t{n.hhi:.6g}\t{n.max_frequency:.6g}\n"
        for n in core_rows(core)
    )
    assert render_core_names(core) == expected


def normalize_slow_path(raw, strip_diacritics):
    """`normalize_surname` without its ASCII shortcut."""
    import re

    text = unicodedata.normalize("NFC", raw.lower())
    text = re.sub(r"\s+", " ", text).strip()
    if strip_diacritics:
        decomposed = unicodedata.normalize("NFD", text)
        text = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
        text = unicodedata.normalize("NFC", text)
    return text


def test_normalize_ascii_shortcut_equals_the_unicode_path():
    for code in range(128):
        ch = chr(code)
        for raw in (ch + "ab", "a" + ch + "b", "ab" + ch, ch, f" {ch}{ch} x{ch}Y "):
            for strip in (False, True):
                assert normalize_surname(raw, strip) == normalize_slow_path(raw, strip), (
                    code, raw, strip
                )
