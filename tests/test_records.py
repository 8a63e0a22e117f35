"""The record classes keep the fields, checks, equality and ordering they had as frozen
dataclasses.  Each is a named tuple, except ``Tokens``, a plain class whose length is
its number of tokens."""

import copy

import pytest

from placetime.cli import DATA_DIR
from placetime.dates import DateLexicon, load_date_lexicon
from placetime.gazetteer import CountryTrigger, GeoStopList, PlaceRecord, SpanMatch, Tokens
from placetime.langid import LangEncLabel, LangEncProfile, ScoredLabel
from placetime.mapviz import MapStyle, PlaceDot

EN = LangEncLabel("en", "UTF-8")
LEXICON = load_date_lexicon(DATA_DIR / "lexicons" / "en.lex")
LEXICON_FIELDS = ("default_order", "months", "day_ordinals", "relative_days", "pre_modifiers",
                  "relative_years", "connectors", "number_words")

# Each class: its fields in order, and the field values of one instance.
RECORDS = {
    LangEncLabel: (("language", "encoding"), ("en", "UTF-8")),
    LangEncProfile: (("label", "bigram_counts", "trigram_counts", "total_bytes"),
                     (EN, {(97, 98): 1}, {(97, 98, 99): 1}, 3)),
    ScoredLabel: (("label", "score"), (EN, -1.5)),
    DateLexicon: (LEXICON_FIELDS, tuple(getattr(LEXICON, name) for name in LEXICON_FIELDS)),
    Tokens: (("texts", "starts", "ends"), (["Paris", "today"], [0, 6], [5, 11])),
    PlaceRecord: (("id", "canonical_name", "variants", "country", "latitude", "longitude",
                   "size_class"), (7, "Paris", ("Lutetia",), "FR", 48.86, 2.35, 1)),
    CountryTrigger: (("surface", "country", "kind"), ("French", "FR", "adjective")),
    GeoStopList: (("language", "words"), ("en", frozenset({"Nice"}))),
    SpanMatch: (("span", "payload"), (2, (7, 9))),
    MapStyle: (("width", "height"), (800, 400)),
    PlaceDot: (("place_id", "latitude", "longitude", "country", "mentions"),
               (7, 48.86, 2.35, "FR", 3)),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    fields, values = RECORDS[cls]
    record = cls(*values)
    assert cls._fields == fields
    assert tuple(getattr(record, name) for name in fields) == values
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
    same = copy.deepcopy(values)
    assert record == cls(*same) == cls(**dict(zip(fields, same)))


def test_lang_enc_label_sorts_by_language_then_encoding():
    labels = [LangEncLabel("ro", "UTF-8"), LangEncLabel("en", "UTF-8"),
              LangEncLabel("en", "ISO-8859-1")]
    assert sorted(labels) == [labels[2], labels[1], labels[0]]
    assert labels[2] < labels[1] < labels[0]
    assert str(labels[1]) == "en/UTF-8"


@pytest.mark.parametrize("make, message", [
    (lambda: LangEncLabel("EN", "UTF-8"), "language must be a 2-letter lowercase code: 'EN'"),
    (lambda: LangEncLabel("en", "UTF-7"),
     "unknown encoding 'UTF-7' (registry: ISO-8859-1, ISO-8859-2, ISO-8859-3, ISO-8859-5, "
     "ISO-8859-7, US-ASCII, UTF-8)"),
    (lambda: CountryTrigger("Gallic", "FR", "nickname"), "unknown trigger kind 'nickname'"),
    (lambda: CountryTrigger("French", "Fr", "adjective"), "bad country code 'Fr'"),
    (lambda: MapStyle(width=0), "canvas dimensions must be positive"),
    (lambda: MapStyle(height=-1), "canvas dimensions must be positive"),
], ids=["label-language", "label-encoding", "trigger-kind", "trigger-country", "map-width",
        "map-height"])
def test_checked_on_construction(make, message):
    with pytest.raises(ValueError) as excinfo:
        make()
    assert str(excinfo.value) == message


def test_defaults():
    assert MapStyle() == MapStyle(1000, 500)
    first, second = LangEncProfile(EN), LangEncProfile(label=EN)
    assert first == (EN, {}, {}, 0) == second
    assert first.bigram_counts is not second.bigram_counts
    assert first.trigram_counts is not second.trigram_counts


def test_derived_tables_are_built_once_per_instance():
    values = RECORDS[LangEncProfile][1]
    profile = LangEncProfile(*values)
    assert profile._log_tables is profile._log_tables
    assert LangEncProfile(*values)._log_tables is not profile._log_tables
    assert LEXICON._scanner is LEXICON._scanner
    assert DateLexicon(*LEXICON)._scanner is not LEXICON._scanner
