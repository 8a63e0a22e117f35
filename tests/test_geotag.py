import pytest

from placetime import geotag
from placetime.geotag import (aggregate_by_country, disambiguate, tag_places,
                              unambiguous_tallies)


def resolve(text, gaz_index, stop_list=None, triggers=None):
    matches = tag_places(text, gaz_index, stop_list, triggers)
    return disambiguate(matches, gaz_index)


def resolved_countries(text, gaz_index, **kw):
    out = []
    for m in resolve(text, gaz_index, **kw):
        if isinstance(m.resolved, str):
            out.append((m.surface, m.resolved))
        else:
            out.append((m.surface, gaz_index.records[m.resolved].country))
    return out


class TestTagPlaces:
    def test_case_gate(self, gaz_index):
        assert tag_places("He went to paris anyway", gaz_index) == []
        m = tag_places("He went to Paris anyway", gaz_index)
        assert len(m) == 1 and m[0].surface == "Paris"

    def test_offsets_are_faithful(self, gaz_index):
        text = "From London, via Stara Zagora, to Roma."
        for m in tag_places(text, gaz_index):
            assert text[m.offset:m.offset + m.length] == m.surface

    def test_longest_name_wins(self, gaz_index):
        m = tag_places("Visiting Stara Zagora soon", gaz_index)
        assert len(m) == 1
        assert m[0].surface == "Stara Zagora"
        assert len(m[0].candidates) == 1

    def test_no_overlapping_matches(self, gaz_index):
        matches = tag_places("Stara Zagora and Stara Planina border towns", gaz_index)
        spans = sorted((m.offset, m.offset + m.length) for m in matches)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_stop_word_suppressed(self, gaz_index, stop_list_en):
        text = "Talks in Split and Annan attended."
        with_stop = tag_places(text, gaz_index, stop_list_en)
        assert [m.surface for m in with_stop] == []
        without = tag_places(text, gaz_index)
        assert {m.surface for m in without} >= {"Split", "Annan"}

    def test_trigger_lowercase_matches(self, gaz_index, trigger_index):
        m = tag_places("paid in forint today", gaz_index, None, trigger_index)
        assert len(m) == 1
        assert m[0].trigger.country == "HU"

    def test_paris_ambiguous(self, gaz_index):
        m = tag_places("Paris", gaz_index)[0]
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
        out = resolve("Paris", gaz_index)
        rec = gaz_index.records[out[0].resolved]
        assert rec.country == "FR" and rec.size_class == 1

    def test_trigger_beats_importance(self, gaz_index, trigger_index):
        # Iraqi adjective counts for IQ but never needs disambiguation
        text = "Iraqi ministers met in Baghdad."
        matches = tag_places(text, gaz_index, None, trigger_index)
        refs = unambiguous_tallies(matches, gaz_index)
        assert refs["IQ"] == 2
        out = disambiguate(matches, gaz_index)
        assert out[0].resolved == "IQ"

    def test_reference_counts_exclude_ambiguous(self, gaz_index):
        matches = tag_places("Paris and London and Paris", gaz_index)
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
        out = resolve(text, gaz_index, triggers=trigger_index)
        assert all(m.resolved is not None for m in out)


class TestAggregate:
    def test_percentages_sum_to_100(self, gaz_index):
        out = resolve("London, Berlin, Paris, London.", gaz_index)
        tallies = aggregate_by_country(out, gaz_index)
        assert sum(t.percentage for t in tallies) == pytest.approx(100.0)

    def test_counts_and_order(self, gaz_index):
        out = resolve("London, Berlin, Paris, London.", gaz_index)
        tallies = aggregate_by_country(out, gaz_index)
        assert [(t.country, t.hits) for t in tallies] == [
            ("GB", 2), ("DE", 1), ("FR", 1)]
        assert tallies[0].percentage == pytest.approx(50.0)

    def test_unresolved_rejected(self, gaz_index):
        matches = tag_places("Paris", gaz_index)
        with pytest.raises(ValueError):
            aggregate_by_country(matches, gaz_index)

    def test_triggers_count(self, gaz_index, trigger_index):
        out = resolve("Iraqi claims about Baghdad", gaz_index, triggers=trigger_index)
        tallies = aggregate_by_country(out, gaz_index)
        assert tallies == [geotag.CountryTally("IQ", 2, 100.0)]
