import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from placetime import geotag
from placetime.gazetteer import (TRIGGER_KINDS, CountryTrigger, GazetteerIndex, GeoStopList,
                                 PlaceRecord, TriggerIndex, name_table, tokenize)
from placetime.geotag import (aggregate_by_country, disambiguate, tag_places,
                              unambiguous_tallies)

import tagging_oracle


def resolve(text, gaz_index, stop_list=None, triggers=None):
    """(match, resolution) pairs: the resolution is a place record or a country code."""
    matches = tag_places(text, name_table(gaz_index, triggers), stop_list)
    return list(zip(matches, disambiguate(matches, gaz_index)))


def resolutions(text, gaz_index, **kw):
    return [place for _, place in resolve(text, gaz_index, **kw)]


def resolved_countries(text, gaz_index, **kw):
    return [(m.surface, place if isinstance(place, str) else place.country)
            for m, place in resolve(text, gaz_index, **kw)]


class TestTagPlaces:
    def test_case_gate(self, gaz_index):
        assert tag_places("He went to paris anyway", name_table(gaz_index)) == []
        m = tag_places("He went to Paris anyway", name_table(gaz_index))
        assert len(m) == 1 and m[0].surface == "Paris"

    def test_offsets_are_faithful(self, gaz_index):
        text = "From London, via Stara Zagora, to Roma."
        for m in tag_places(text, name_table(gaz_index)):
            assert text[m.offset:m.offset + m.length] == m.surface

    def test_longest_name_wins(self, gaz_index):
        m = tag_places("Visiting Stara Zagora soon", name_table(gaz_index))
        assert len(m) == 1
        assert m[0].surface == "Stara Zagora"
        assert len(m[0].candidates) == 1

    def test_no_overlapping_matches(self, gaz_index):
        matches = tag_places("Stara Zagora and Stara Planina border towns",
                             name_table(gaz_index))
        spans = sorted((m.offset, m.offset + m.length) for m in matches)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_stop_word_suppressed(self, gaz_index, stop_list_en):
        text = "Talks in Split and Annan attended."
        with_stop = tag_places(text, name_table(gaz_index), stop_list_en)
        assert [m.surface for m in with_stop] == []
        without = tag_places(text, name_table(gaz_index))
        assert {m.surface for m in without} >= {"Split", "Annan"}

    def test_trigger_lowercase_matches(self, gaz_index, trigger_index):
        m = tag_places("paid in forint today", name_table(gaz_index, trigger_index))
        assert len(m) == 1
        assert m[0].trigger.country == "HU"

    def test_paris_ambiguous(self, gaz_index):
        m = tag_places("Paris", name_table(gaz_index))[0]
        assert m.is_ambiguous
        assert len(m.candidates) == 14


class TestDisambiguate:
    def test_roma_defaults_to_capital(self, gaz_index):
        out = resolved_countries("A trip to Roma was planned.", gaz_index)
        assert out == [("Roma", "IT")]

    def test_roma_flips_with_romanian_context(self, gaz_index):
        text = ("Officials in București met counterparts from Iași "
                "and Cluj-Napoca before travelling to Roma.")
        out = resolved_countries(text, gaz_index)
        assert ("Roma", "RO") in out

    def test_paris_defaults_to_france(self, gaz_index):
        [(_, rec)] = resolve("Paris", gaz_index)
        assert rec.country == "FR" and rec.size_class == 1

    def test_trigger_beats_importance(self, gaz_index, trigger_index):
        # Iraqi adjective counts for IQ but never needs disambiguation
        text = "Iraqi ministers met in Baghdad."
        matches = tag_places(text, name_table(gaz_index, trigger_index))
        refs = unambiguous_tallies(matches, gaz_index)
        assert refs["IQ"] == 2
        out = disambiguate(matches, gaz_index)
        assert out[0] == "IQ"

    def test_reference_counts_exclude_ambiguous(self, gaz_index):
        matches = tag_places("Paris and London and Paris", name_table(gaz_index))
        refs = unambiguous_tallies(matches, gaz_index)
        assert refs == {"GB": 1}

    def test_challenger_needs_strictly_more_refs(self, gaz_index):
        # one RO reference vs zero IT references: strictly more, flips
        assert resolved_countries("București then Roma", gaz_index) == [
            ("București", "RO"), ("Roma", "RO")]
        # equal reference counts: importance keeps the capital
        assert resolved_countries("București, Venezia, then Roma", gaz_index)[-1] == (
            "Roma", "IT")

    def test_all_matches_resolved(self, gaz_index, trigger_index):
        text = "Paris, Roma, Split, forint, Stara Zagora."
        matches = tag_places(text, name_table(gaz_index, trigger_index))
        out = disambiguate(matches, gaz_index)
        assert len(out) == len(matches) == 5
        for m, place in zip(matches, out):
            if m.trigger is not None:
                assert place == m.trigger.country
            else:
                assert place.id in m.candidates


class TestAggregate:
    def test_percentages_sum_to_100(self, gaz_index):
        tallies = aggregate_by_country(resolutions("London, Berlin, Paris, London.", gaz_index))
        assert sum(t.percentage for t in tallies) == pytest.approx(100.0)

    def test_counts_and_order(self, gaz_index):
        tallies = aggregate_by_country(resolutions("London, Berlin, Paris, London.", gaz_index))
        assert [(t.country, t.hits) for t in tallies] == [
            ("GB", 2), ("DE", 1), ("FR", 1)]
        assert tallies[0].percentage == pytest.approx(50.0)

    def test_triggers_count(self, gaz_index, trigger_index):
        tallies = aggregate_by_country(
            resolutions("Iraqi claims about Baghdad", gaz_index, triggers=trigger_index))
        assert tallies == [geotag.CountryTally("IQ", 2, 100.0)]


# -- the first-token table against the per-token oracle ----------------------

# Few words in several cases, so that places, triggers, stop words and text
# share first tokens and keys of every length.  Some hold a name inside a longer
# word or wrapped in non-ASCII punctuation, so that a name's characters also
# occur where no token of that name stands.
_WORDS = ("Nord", "nord", "NORD", "Pas", "de", "Calais", "Congo", "congo", "River", "New",
          "St.", "\u00c9ire", "\u00e9ire", "\u01c5x", "42", "4th", "Ab-Cd", "'s", "(Paris)",
          "xNord", "Calaisx", "Nord-Nord", "\u00abCalais\u00bb", "\U0001e95eNord")
_SEPARATORS = (" ", " ", " ", "\t", "\n", "\x85", "\u2028", "\u3000", ", ", ". ", " \u2014 ",
               "  ", "\n\n", " \u3000 ")


def _joined(word, separators):
    return st.lists(st.tuples(word, st.sampled_from(separators)),
                    min_size=1, max_size=30).map(lambda parts: "".join(w + s for w, s in parts))


def _surfaces(words):
    return st.lists(st.sampled_from(words), min_size=1, max_size=3).map(" ".join)


# Names, triggers and stop words are made of a few words of ``_WORDS``.  The
# text is mostly made of the same words, alone and glued to each other, among
# other words of ``_WORDS``, so that a name often also stands inside a longer
# word before it ("NordNord, Nord").
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_table_tagging_equals_oracle(data):
    words = data.draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4, unique=True))
    surfaces = _surfaces(words)
    names = data.draw(st.lists(st.tuples(surfaces, st.lists(surfaces, max_size=2)),
                               max_size=12))
    index = GazetteerIndex([PlaceRecord(i, canonical, tuple(variants), "FR", 0.0, 0.0, 1)
                            for i, (canonical, variants) in enumerate(names)])
    triggers = data.draw(st.none() | st.lists(
        st.builds(CountryTrigger, surfaces, st.sampled_from(("CG", "CD", "FR")),
                  st.sampled_from(TRIGGER_KINDS)), max_size=8).map(TriggerIndex))
    stop_words = data.draw(st.frozensets(surfaces, max_size=4))
    own = st.sampled_from(words)
    text = data.draw(_joined(own | st.tuples(own, own).map("".join) | st.sampled_from(_WORDS),
                             _SEPARATORS) | st.text(max_size=40))
    assert (tag_places(text, name_table(index, triggers), GeoStopList("en", stop_words))
            == tagging_oracle.tag_places(text, index, stop_words, triggers))


# Names whose words also stand inside longer words of ``_WORDS`` ("xNord",
# "Calaisx"), so a tagger that takes the first copy of a name misplaces it.
_BARE_NAMES = ("Nord", "Calais", "Nord Pas", "Pas de Calais")


@settings(max_examples=200, deadline=None)
@given(text=_joined(st.sampled_from(_WORDS), _SEPARATORS))
@example(text="Pas de Pas de Calais")  # the first "Pas" starts an entry, but no match
def test_table_tagging_equals_oracle_among_longer_words(text):
    index = GazetteerIndex([PlaceRecord(i, name, (), "FR", 0.0, 0.0, 1)
                            for i, name in enumerate(_BARE_NAMES)])
    triggers = TriggerIndex([CountryTrigger("nord", "FR", "adjective")])
    assert (tag_places(text, name_table(index, triggers))
            == tagging_oracle.tag_places(text, index, frozenset(), triggers))


def test_table_tagging_equals_oracle_on_fixtures(corpus_dir, gaz_index, stop_list_en,
                                                 trigger_index):
    table = name_table(gaz_index, trigger_index)
    for path in sorted(corpus_dir.glob("*.txt")):
        text = path.read_text(encoding="utf-8")
        assert tag_places(text, table, stop_list_en) == tagging_oracle.tag_places(
            text, gaz_index, stop_list_en.words, trigger_index), path.name


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_table_tagging_equals_oracle_on_shipped_data(data, gaz_index, stop_list_en,
                                                     trigger_index):
    words = sorted({w for rec in gaz_index.records.values() for surface in rec.surfaces()
                    for w in tokenize(surface).texts}
                   | {w for t in trigger_index.triggers for w in tokenize(t.surface).texts}
                   | stop_list_en.words)
    words += [w.lower() for w in words] + ["the", "in", "Mr."]
    text = data.draw(_joined(st.sampled_from(words), _SEPARATORS))
    assert (tag_places(text, name_table(gaz_index, trigger_index), stop_list_en)
            == tagging_oracle.tag_places(text, gaz_index, stop_list_en.words, trigger_index))


# -- disambiguation against the place-id oracle ------------------------------

# Few names shared by places of several countries and size classes, and
# triggers for the same countries, so that homographs, unambiguous references
# and challengers all occur.  A place may come twice, with two ids, so that
# only the id breaks the tie.
_HOMOGRAPHS = ("Roma", "Paris", "Nice")
_TRIGGER_WORDS = ("forint", "leu")
_COUNTRIES = ("FR", "RO", "IT")
_HOMOGRAPH_PLACES = st.lists(
    st.tuples(st.sampled_from(_HOMOGRAPHS), st.sampled_from(_COUNTRIES), st.integers(1, 3)),
    min_size=1, max_size=10).flatmap(lambda ps: st.permutations(ps + ps[:len(ps) // 2]))


@settings(max_examples=300, deadline=None)
@given(places=_HOMOGRAPH_PLACES,
       triggers=st.lists(st.tuples(st.sampled_from(_TRIGGER_WORDS), st.sampled_from(_COUNTRIES)),
                         min_size=1, max_size=4),
       words=st.lists(st.sampled_from(_HOMOGRAPHS + _TRIGGER_WORDS), min_size=1, max_size=30))
# RO and IT challenge FR's capitals with one reference each: for Roma the lower
# size class wins, then the lower id; for Nice the lower country code.  Paris
# has no challenger and two equal records.
@example(places=[("Roma", "FR", 1), ("Roma", "RO", 3), ("Roma", "IT", 2), ("Roma", "IT", 2),
                 ("Nice", "FR", 1), ("Nice", "RO", 2), ("Nice", "IT", 2),
                 ("Paris", "FR", 1), ("Paris", "FR", 1)],
         triggers=[("leu", "RO"), ("forint", "IT")],
         words=["leu", "forint", "Roma", "Nice", "Paris"])
def test_disambiguation_equals_oracle(places, triggers, words):
    index = GazetteerIndex([PlaceRecord(i, name, (), country, 0.0, 0.0, size_class)
                            for i, (name, country, size_class) in enumerate(places)])
    trigger_index = TriggerIndex(CountryTrigger(surface, country, "currency")
                                 for surface, country in triggers)
    matches = tag_places(" ".join(words), name_table(index, trigger_index))
    got = disambiguate(matches, index)
    assert len(got) == len(matches)
    for m, place, want in zip(matches, got, tagging_oracle.disambiguate(matches, index)):
        assert (place if isinstance(place, str) else place.id) == want, m
