"""End-to-end acceptance gate.

Each criterion records one PASS/FAIL verdict line; conftest echoes the
verdicts in the terminal summary so they survive pytest's output capture.
Tolerances and time budgets are pinned in the assertions themselves.
"""

import contextlib
import datetime
import json
import random
import time
import xml.etree.ElementTree as ET
from collections import Counter

import pytest

from placetime import dates, gazetteer, geotag, langid, mapviz
from placetime.annotate import annotate_inline, strip_inline
from placetime.dates import DateKind, NormalizedDate, extract_dates, resolve_relative
from placetime.gazetteer import name_table
from placetime.geotag import aggregate_by_country, disambiguate, tag_places

import corpusgen


VERDICTS = []


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        VERDICTS.append("criterion %d (%s): FAIL" % (number, name))
        raise
    VERDICTS.append("criterion %d (%s): PASS" % (number, name))


def resolve_places(text, index, stop_list=None, triggers=None):
    """(match, resolution) pairs: the resolution is a place record or a country code."""
    matches = tag_places(text, name_table(index, triggers), stop_list)
    return list(zip(matches, disambiguate(matches, index)))


# -- 1 ---------------------------------------------------------------------

RECOGNISED = [
    ("3-04-03", "2003-04-03"),
    ("21.2.1983", "1983-02-21"),
    ("1997/04/01", "1997-04-01"),
    ("1999, the 2nd of May", "1999-05-02"),
    ("the sixth of March in the year nineteen eighty four", "1984-03-06"),
    ("third February", "--02-03"),
    ("Jan. 2003", "2003-01"),
    ("yesterday", "D-1"),
    ("today", "D+0"),
    ("tomorrow", "D+1"),
    ("next June", "M06+1"),
    ("last September", "M09-1"),
    ("February last year", "M02Y-1"),
]
NOT_RECOGNISED = [
    "1.2.15",
    "1990 ;",
    "the 1970s",
    "two thousand and two",
    "in May",
    "last month",
    "next Summer",
    "Labour Day",
    "on Tuesday",
    "in the third quarter",
]


def test_criterion_1_date_format_closure(lexicon_en):
    with criterion(1, "date format closure"):
        started = time.perf_counter()
        for text, normal in RECOGNISED:
            out = extract_dates(text, lexicon_en, reject_two_digit_years=True)
            assert [m.normal.to_string() for m in out] == [normal], text
        for text in NOT_RECOGNISED:
            out = extract_dates(text, lexicon_en, reject_two_digit_years=True)
            assert out == [], text
        # period expressions surface only their complete right-hand date
        out = extract_dates("7-8 May 2003", lexicon_en, reject_two_digit_years=True)
        assert [(m.surface, m.normal.to_string()) for m in out] == [
            ("8 May 2003", "2003-05-08")]
        assert time.perf_counter() - started < 1.0


# -- 2 ---------------------------------------------------------------------

def test_criterion_2_numeric_order_disambiguation(lexicon_en):
    with criterion(2, "numeric field-order disambiguation"):
        (c,) = dates.find_numeric_dates("12/31/03")
        assert c.mdy_possible and not c.dmy_possible
        out = extract_dates("12/31/03 ... 01/02/03", lexicon_en)
        assert [m.normal.to_string() for m in out] == ["2003-12-31", "2003-01-02"]
        out = extract_dates("01/02/03", lexicon_en)
        assert [m.normal.to_string() for m in out] == ["2003-02-01"]


# -- 3 ---------------------------------------------------------------------

def test_criterion_3_homograph_flip(tmp_path):
    with criterion(3, "homograph place disambiguation flip"):
        path = tmp_path / "g.tsv"
        path.write_text("1\tRoma\tRome\tIT\t41.9\t12.5\t1\n"
                        "2\tRoma\t\tRO\t46.9\t26.9\t4\n"
                        "3\tBucurești\tBucuresti\tRO\t44.4\t26.1\t1\n"
                        "4\tIași\tIasi\tRO\t47.2\t27.6\t2\n")
        index = gazetteer.load_gazetteer(path)
        out = resolve_places("A visit to Roma.", index)
        assert out[0][1].country == "IT"
        out = resolve_places("București and Iași sent envoys to Roma.", index)
        roma = [place for m, place in out if m.surface == "Roma"][0]
        assert roma.country == "RO"


# -- 4 ---------------------------------------------------------------------

def test_criterion_4_longest_multiword_match(gaz_index):
    with criterion(4, "longest multi-word gazetteer match"):
        names = {gaz_index.records[i].canonical_name for i in gaz_index.records
                 if gaz_index.records[i].canonical_name.startswith("Stara")}
        assert len(names) == 6
        toks = gazetteer.tokenize("Stara Zagora")
        m = gaz_index.match_at(toks, 0)
        assert m.span == 2
        assert [gaz_index.records[i].canonical_name for i in m.payload] == ["Stara Zagora"]
        assert gaz_index.match_at(gazetteer.tokenize("Stara"), 0) is None


# -- 5 ---------------------------------------------------------------------

def test_criterion_5_stop_word_suppression(gaz_index, stop_list_en):
    with criterion(5, "geo stop-word suppression"):
        text = "Split talks: And said Annan would attend."
        assert {"Split", "And", "Annan"} <= stop_list_en.words
        suppressed = tag_places(text, name_table(gaz_index), stop_list_en)
        assert [m.surface for m in suppressed] == []
        unsuppressed = tag_places(text, name_table(gaz_index))
        assert {m.surface for m in unsuppressed} == {"Split", "And", "Annan"}


# -- 6 ---------------------------------------------------------------------

def test_criterion_6_language_encoding_identification():
    with criterion(6, "language/encoding identification accuracy"):
        started = time.perf_counter()
        labels = corpusgen.labels()
        assert len(labels) >= 5
        profiles = []
        for label in labels:
            train = corpusgen.generate_bytes(label, 50_000, seed=1)
            assert len(train) >= 50_000
            profiles.append(langid.train_profile(train, label))
        total = correct = 0
        per_label = 200 // len(labels) + 1
        for label in labels:
            for snippet in corpusgen.snippets(label, per_label, 500, seed=2):
                if total == 200:
                    break
                total += 1
                if langid.identify(profiles, snippet)[0].label == label:
                    correct += 1
        assert total == 200
        assert correct / total >= 0.95, "accuracy %.3f" % (correct / total)
        assert time.perf_counter() - started < 10.0


# -- 7 ---------------------------------------------------------------------

def _prf(predicted, gold):
    tp = sum((Counter(predicted) & Counter(gold)).values())
    precision = tp / len(predicted) if predicted else 1.0
    recall = tp / len(gold) if gold else 1.0
    return precision, recall


def test_criterion_7_corpus_quality(corpus_dir, gaz_index, stop_list_en,
                                    trigger_index, lexicon_en):
    with criterion(7, "fixture-corpus extraction quality"):
        started = time.perf_counter()
        docs = sorted(corpus_dir.glob("*.txt"))
        assert len(docs) == 20
        pred_places, gold_places = [], []
        pred_dates, gold_dates = [], []
        for doc in docs:
            text = doc.read_text(encoding="utf-8")
            gold = json.loads(doc.with_suffix(".json").read_text(encoding="utf-8"))
            for m, place in resolve_places(text, gaz_index, stop_list_en, trigger_index):
                country = place if isinstance(place, str) else place.country
                pred_places.append((doc.name, m.surface, country))
            gold_places += [(doc.name, g["surface"], g["country"])
                            for g in gold["places"]]
            for m in extract_dates(text, lexicon_en):
                if m.normal.kind is DateKind.FULL:
                    pred_dates.append((doc.name, m.surface, m.normal.to_string()))
            gold_dates += [(doc.name, g["surface"], g["normal"])
                           for g in gold["full_dates"]]
        p, r = _prf(pred_places, gold_places)
        assert p >= 0.95 and r >= 0.95, "places P=%.3f R=%.3f" % (p, r)
        p, r = _prf(pred_dates, gold_dates)
        assert p == 1.0 and r == 1.0, "dates P=%.3f R=%.3f" % (p, r)
        assert time.perf_counter() - started < 5.0


# -- 8 ---------------------------------------------------------------------

def _random_doc(rng, lexicon):
    bits = []
    for _ in range(rng.randrange(1, 8)):
        bits.append(rng.choice([
            "plain words here", "Paris", "London", "21 March 2001", "31.5.2003",
            "next June", "yesterday", "Jan. 2003", "third February", "Iraqi",
            "Stara Zagora", "the sixth of March in the year nineteen eighty four",
            "01/02/03", "nothing at all", "ün içödé tëxt",
        ]))
    return "  ".join(bits)


def _walk_relative_month(month, sign, reference):
    if sign == 0:
        return reference.year, month
    year, probe = reference.year, reference.month
    while True:
        probe += sign
        if probe == 13:
            probe, year = 1, year + 1
        elif probe == 0:
            probe, year = 12, year - 1
        if probe == month:
            return year, month


def test_criterion_8_property_suites(gaz_index, lexicon_en, data_dir):
    with criterion(8, "property suites"):
        rng = random.Random(97)
        table = name_table(gaz_index)

        # offset fidelity + inline round-trip on 1,000 random fixtures
        for _ in range(1000):
            text = _random_doc(rng, lexicon_en)
            spans = []
            for m in extract_dates(text, lexicon_en):
                assert text[m.offset:m.offset + m.length] == m.surface
                spans.append((m.offset, m.length, "date", m.normal.to_string()))
            for m in tag_places(text, table):
                assert text[m.offset:m.offset + m.length] == m.surface
            assert strip_inline(annotate_inline(text, spans)) == text

        # resolve_relative vs a day-walk oracle on 1,000 random cases
        epoch = datetime.date(1970, 1, 1)
        for _ in range(1000):
            reference = epoch + datetime.timedelta(days=rng.randrange(0, 30000))
            kind = rng.choice([DateKind.RELATIVE_DAY, DateKind.RELATIVE_MONTH,
                               DateKind.MONTH_RELATIVE_YEAR])
            if kind is DateKind.RELATIVE_DAY:
                off = rng.randrange(-1000, 1001)
                normal = NormalizedDate(kind, rel_offset=off)
                expect = reference
                step = datetime.timedelta(days=1 if off > 0 else -1)
                for _ in range(abs(off)):
                    expect += step
                got = resolve_relative(normal, reference)
                assert (got.year, got.month, got.day) == (
                    expect.year, expect.month, expect.day)
            elif kind is DateKind.RELATIVE_MONTH:
                month, sign = rng.randrange(1, 13), rng.choice([-1, 0, 1])
                normal = NormalizedDate(kind, month=month, rel_offset=sign)
                got = resolve_relative(normal, reference)
                assert (got.year, got.month) == _walk_relative_month(
                    month, sign, reference)
            else:
                month, off = rng.randrange(1, 13), rng.randrange(-5, 6)
                normal = NormalizedDate(kind, month=month, rel_offset=off)
                got = resolve_relative(normal, reference)
                assert (got.year, got.month) == (reference.year + off, month)

        # decode/encode round-trip across the whole encoding registry
        for name, codec in langid.ENCODING_REGISTRY.items():
            for _ in range(25):
                raw = bytes(b for b in (rng.randrange(128 if name == "US-ASCII"
                                                      else 256)
                                        for _ in range(300))
                            if _decodable(b, codec))
                if name == "UTF-8":
                    raw = "".join(chr(rng.randrange(0x20, 0x500))
                                  for _ in range(100)).encode("utf-8")
                if not raw:
                    continue
                assert langid.decode_to_utf8(raw, name).encode(codec) == raw

        # SVG determinism + color monotonicity
        outline = mapviz.load_outline(data_dir / "outline" / "world_outline.tsv")
        out = resolve_places("Paris, Paris, Paris, Berlin and London.", gaz_index)
        tallies = aggregate_by_country([place for _, place in out])
        dots = [mapviz.PlaceDot(place.id, place.latitude, place.longitude, place.country, 1)
                for _, place in out]
        svg1 = mapviz.render_svg(tallies, dots, outline)
        svg2 = mapviz.render_svg(tallies, dots, outline)
        assert svg1 == svg2
        ET.fromstring(svg1)
        buckets = mapviz.bucket_frequencies(tallies, 4)
        by_pct = sorted(tallies, key=lambda t: t.percentage)
        for a, b in zip(by_pct, by_pct[1:]):
            assert buckets[a.country] <= buckets[b.country]


def _decodable(byte, codec):
    try:
        bytes([byte]).decode(codec)
        return True
    except UnicodeDecodeError:
        return False


# -- 9 ---------------------------------------------------------------------

def test_criterion_9_known_error_reproduction(lexicon_en, lexicon_ro):
    with criterion(9, "known-error reproduction"):
        out = extract_dates("cei doi mai incercasera", lexicon_ro)
        assert [(m.surface, m.normal.to_string()) for m in out] == [
            ("doi mai", "--05-02")]
        assert extract_dates("this may sound strange", lexicon_en) == []
