import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placetime import gazetteer
from placetime.errors import LoadError
from placetime.gazetteer import (CountryTrigger, GazetteerIndex, PlaceRecord, TriggerIndex,
                                 load_gazetteer, load_stop_words, name_table,
                                 propose_stop_words, tokenize)

import tagging_oracle

# Whitespace, punctuation, symbols, then letters, digits and marks, then anything.
_TOKEN_CHARS = st.one_of(
    st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\xa0\u1680\u2000\u2028\u2029\u3000"),
    st.sampled_from("!\"#%&'()*,-./:;?@[\\]_{}\xa1\xa7\xab\xb6\xb7\xbb\xbf\u2010\u2013\u2014"
                    "\u2018\u2019\u201c\u201d\u201e\u2026\u3001\u3002\u300c\u300d"),
    st.sampled_from("$+<=>^`|~\xa2\xa3\xa9\xb0\xb1\xb9\xb2\xbc\u2160"),
    st.characters(categories=("L", "M", "N")),
    st.characters(),
)


class TestTokenize:
    def test_strips_outer_punctuation(self):
        toks = tokenize('He said: "Stara Zagora!"')
        assert toks.texts == ["He", "said", "Stara", "Zagora"]

    def test_keeps_internal_hyphen_and_apostrophe(self):
        toks = tokenize("Nord-Pas de Calais and the festival's end")
        assert toks.texts[0] == "Nord-Pas"
        assert "festival's" in toks.texts

    def test_offsets_address_core(self):
        text = " (Paris), then"
        toks = tokenize(text)
        assert text[toks.starts[0]:toks.ends[0]] == "Paris"

    @settings(max_examples=500, deadline=None)
    @given(st.text(_TOKEN_CHARS, max_size=60))
    def test_columns_equal_per_character_strip(self, text):
        toks = tokenize(text)
        assert len(toks) == len(toks.texts) == len(toks.starts) == len(toks.ends)
        assert list(zip(toks.texts, toks.starts, toks.ends)) == tagging_oracle.tokenize(text)


class TestLoad:
    def test_comments_only(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("# nothing here\n\n# still nothing\n")
        assert len(load_gazetteer(path).records) == 0

    def test_single_row(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("1\tStara Zagora\t\tBG\t42.43\t25.64\t2\n")
        index = load_gazetteer(path)
        rec = index.records[1]
        assert rec.canonical_name == "Stara Zagora"
        assert rec.country == "BG"
        assert rec.size_class == 2
        m = index.match_at(tokenize("Stara Zagora"), 0)
        assert m is not None and m.span == 2 and m.payload == (1,)

    def test_size_class_out_of_range(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("1\tNowhere\t\tXX\t0\t0\t7\n")
        with pytest.raises(LoadError):
            load_gazetteer(path)

    @pytest.mark.parametrize("row, message", [
        ("1\t\t\tFR\t0\t0\t1", "empty canonical name"),
        ("1\tA\ta||b\tFR\t0\t0\t1", "empty variant"),
        ("1\tA\t\tFR\t91\t0\t1", "coordinates out of range"),
    ])
    def test_bad_row_names_line(self, tmp_path, row, message):
        path = tmp_path / "g.tsv"
        path.write_text(row + "\n")
        with pytest.raises(LoadError) as excinfo:
            load_gazetteer(path)
        assert str(excinfo.value) == "%s:1: %s" % (path, message)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("1\tA\t\tFR\t0\t0\t1\n1\tB\t\tDE\t0\t0\t1\n")
        with pytest.raises(LoadError):
            load_gazetteer(path)

    def test_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("1\tA\t\tFR\t0\t0\t1\n# comment\n2\tB\t\tDE\t0\t0\t1\n"
                        "1\tC\t\tDE\t0\t0\t1\n")
        with pytest.raises(LoadError, match=r"g\.tsv:4: duplicate place id 1$"):
            load_gazetteer(path)

    def test_unindexable_surface_names_line_after_dropped_record(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("1\tAnywhere\t\tFR\t0\t0\t6\n2\tParis\t--\tFR\t48.85\t2.35\t1\n")
        with pytest.raises(LoadError, match=r"g\.tsv:2: unindexable surface '--' for id 2$"):
            load_gazetteer(path, max_size_class=2)

    def test_malformed_row_cites_line(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("# header\n1\tonly\ttwo\n")
        with pytest.raises(LoadError) as err:
            load_gazetteer(path)
        assert ":2:" in str(err.value)

    def test_shared_surface_merges_ids_sorted(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("7\tSplit\tSplit\tHR\t43.5\t16.4\t3\n"
                        "2\tSplit\t\tUS\t40.0\t-80.0\t6\n")
        m = load_gazetteer(path).match_at(tokenize("Split"), 0)
        assert m.span == 1 and m.payload == (2, 7)

    def test_unindexable_surface(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("1\tParis\t--\tFR\t48.85\t2.35\t1\n")
        with pytest.raises(LoadError, match=r"g\.tsv:1: unindexable surface '--' for id 1"):
            load_gazetteer(path)

    def test_load_determinism(self, data_dir):
        path = data_dir / "gazetteer" / "world_small.tsv"
        a = load_gazetteer(path)
        b = load_gazetteer(path)
        assert a.records == b.records
        assert a._first == b._first

    def test_size_class_filter(self, data_dir):
        path = data_dir / "gazetteer" / "world_small.tsv"
        full = load_gazetteer(path)
        small = load_gazetteer(path, max_size_class=2, keep_countries=("BG",))
        assert len(small.records) < len(full.records)
        # BG villages survive, foreign ones don't
        assert any(r.country == "BG" and r.size_class == 6 for r in small.records.values())
        assert not any(r.country == "PL" and r.size_class == 6 for r in small.records.values())


class TestMatchAt:
    def test_stara_zagora_not_confused(self, gaz_index):
        toks = tokenize("Stara Zagora is")
        m = gaz_index.match_at(toks, 0)
        assert m.span == 2
        assert [gaz_index.records[i].canonical_name for i in m.payload] == ["Stara Zagora"]

    def test_paris_fourteen_candidates(self, gaz_index):
        m = gaz_index.match_at(tokenize("Paris"), 0)
        assert m.span == 1
        assert len(m.payload) == 14

    def test_prefix_alone_is_not_a_name(self, gaz_index):
        assert gaz_index.match_at(tokenize("Stara"), 0) is None

    def test_variant_reachable(self, gaz_index):
        m = gaz_index.match_at(tokenize("Rome"), 0)
        assert m is not None
        assert gaz_index.records[m.payload[0]].canonical_name == "Roma"

    def test_index_completeness(self, gaz_index):
        for rec in gaz_index.records.values():
            for surface in rec.surfaces():
                m = gaz_index.match_at(tokenize(surface), 0)
                assert m is not None, surface
                assert rec.id in m.payload

    def test_longest_match_wins(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("1\tYork\t\tGB\t53.96\t-1.08\t3\n"
                        "2\tNew York\t\tUS\t40.71\t-74.01\t2\n"
                        "3\tNew York City\t\tUS\t40.71\t-74.01\t2\n")
        index = load_gazetteer(path)
        m = index.match_at(tokenize("New York City limits"), 0)
        assert m.span == 3 and m.payload == (3,)
        m = index.match_at(tokenize("New York limits"), 0)
        assert m.span == 2 and m.payload == (2,)


class TestStopWords:
    def test_known_collisions(self, tmp_path):
        path = tmp_path / "sw.txt"
        path.write_text("And\nSplit\nAnnan\n")
        sl = load_stop_words(path, "en")
        assert sl.words == {"And", "Split", "Annan"}

    def test_empty(self, tmp_path):
        path = tmp_path / "sw.txt"
        path.write_text("")
        assert load_stop_words(path, "en").words == frozenset()

    def test_duplicates_collapse(self, tmp_path):
        path = tmp_path / "sw.txt"
        path.write_text("Split\nSplit\nSplit\n")
        assert load_stop_words(path, "en").words == {"Split"}


class TestTriggers:
    def test_load_and_match(self, trigger_index):
        from placetime.gazetteer import tokenize
        m = trigger_index.match_at(tokenize("Iraqi officials"), 0)
        assert m.span == 1
        assert m.payload[0].country == "IQ"
        assert m.payload[0].kind == "adjective"

    def test_multiword_trigger(self, trigger_index):
        m = trigger_index.match_at(tokenize("Marea Britanie azi"), 0)
        assert m.span == 2
        assert m.payload[0].country == "GB"

    def test_first_trigger_in_file_wins_shared_surface(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("Congo\tCG\tcountry_name\nCongo\tCD\tcountry_name\n"
                        "Congo River\tCD\tcountry_name\n")
        m = gazetteer.load_triggers(path).match_at(tokenize("Congo today"), 0)
        assert m.span == 1 and m.payload[0].country == "CG"
        m = gazetteer.load_triggers(path).match_at(tokenize("Congo River"), 0)
        assert m.span == 2 and m.payload[0].country == "CD"

    def test_unindexable_surface(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("...\tFR\tcurrency\n")
        with pytest.raises(LoadError, match=r"t\.tsv:1: unindexable trigger surface '\.\.\.'"):
            gazetteer.load_triggers(path)

    def test_unindexable_surface_names_its_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("# triggers\neuro\tFR\tcurrency\n\n(-)\tFR\tcurrency\n")
        with pytest.raises(LoadError, match=r"t\.tsv:4: unindexable trigger surface '\(-\)'$"):
            gazetteer.load_triggers(path)

    def test_each_surface_tokenized_once(self, data_dir, monkeypatch):
        surfaces = []
        split_words = gazetteer.split_words
        monkeypatch.setattr(gazetteer, "split_words",
                            lambda text: surfaces.append(text) or split_words(text))
        triggers = gazetteer.load_triggers(data_dir / "triggers" / "triggers.tsv")
        assert sorted(surfaces) == sorted(t.surface for t in triggers.triggers)

    @pytest.mark.parametrize("country", ["france", "fr", "F", "F1", ""])
    def test_bad_country(self, tmp_path, country):
        path = tmp_path / "t.tsv"
        path.write_text("# triggers\nx\t%s\tcurrency\n" % country)
        with pytest.raises(LoadError, match=r"t\.tsv:2: bad country code %r$" % country):
            gazetteer.load_triggers(path)

    def test_bad_kind(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("Foo\tFR\tnonsense\n")
        with pytest.raises(LoadError):
            gazetteer.load_triggers(path)


def _single_tokens_by_tokenizing(index):
    """Every surface of every record tokenized again; the one-token ones' tokens."""
    out = set()
    for rec in index.records.values():
        for surface in rec.surfaces():
            toks = tokenize(surface)
            if len(toks) == 1:
                out.add(toks.texts[0])
    return out


_SURFACE = st.text(_TOKEN_CHARS, min_size=1, max_size=12).filter(lambda s: len(tokenize(s)))


class TestSingleTokenSurfaces:
    def test_shipped_gazetteer(self, gaz_index):
        assert gaz_index.single_token_surfaces() == _single_tokens_by_tokenizing(gaz_index)

    @settings(max_examples=200, deadline=None)
    @given(names=st.lists(st.tuples(_SURFACE, st.lists(_SURFACE, max_size=3)), max_size=10))
    def test_generated_gazetteer(self, names):
        index = GazetteerIndex([PlaceRecord(i, canonical, tuple(variants), "FR", 0.0, 0.0, 1)
                                for i, (canonical, variants) in enumerate(names)])
        assert index.single_token_surfaces() == _single_tokens_by_tokenizing(index)


class TestNameTable:
    @pytest.fixture
    def indexes(self):
        index = GazetteerIndex([PlaceRecord(1, "Congo", (), "CG", 0.0, 0.0, 2),
                                PlaceRecord(2, "Congo River", (), "CD", 0.0, 0.0, 3),
                                PlaceRecord(3, "Paris", (), "FR", 0.0, 0.0, 1)])
        triggers = TriggerIndex([CountryTrigger("Congo", "CG", "country_name"),
                                 CountryTrigger("Congo River", "CD", "country_name"),
                                 CountryTrigger("Congo Free State", "CD", "country_name"),
                                 CountryTrigger("Congo", "CD", "country_name"),
                                 CountryTrigger("euro", "FR", "currency")])
        return index, triggers

    def test_unmerged_lists_are_the_indexes_own(self, indexes):
        index, triggers = indexes
        assert name_table(index)["Paris"] is index._first["Paris"]
        table = name_table(index, triggers)
        assert table["Paris"] is index._first["Paris"]
        assert table["euro"] is triggers._first["euro"]

    def test_merged_list_keeps_places_first(self, indexes):
        index, triggers = indexes
        trig = triggers.triggers
        assert name_table(index, triggers)["Congo"] == [
            (["Congo", "Free", "State"], (), trig[2]),
            (["Congo", "River"], (2,), None), (["Congo", "River"], (), trig[1]),
            (["Congo"], (1,), None), (["Congo"], (), trig[0])]
        # Merging builds a new list and leaves both indexes' lists as they were.
        assert index._first["Congo"] == [(["Congo", "River"], (2,), None),
                                         (["Congo"], (1,), None)]
        assert len(triggers._first["Congo"]) == 3


class TestProposeStopWords:
    def test_split_proposed(self, gaz_index):
        freq = ["the", "of"] + ["w%d" % i for i in range(400)] + ["split"] + ["x"] * 50
        proposals = propose_stop_words(gaz_index, freq, top_n=1000)
        assert "Split" in proposals

    def test_london_proposed_for_human_removal(self, gaz_index):
        proposals = propose_stop_words(gaz_index, ["london", "split"], top_n=10)
        assert proposals == ["London", "Split"]

    def test_small_top_n_empty(self, gaz_index):
        proposals = propose_stop_words(gaz_index, ["the", "of", "split"], top_n=2)
        assert proposals == []

    def test_rank_preserved(self, gaz_index):
        proposals = propose_stop_words(gaz_index, ["split", "and", "annan"], top_n=3)
        assert proposals == ["Split", "And", "Annan"]
