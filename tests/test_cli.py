import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placetime import dates, gazetteer
from placetime.annotate import strip_inline
from placetime.cli import DATA_DIR, main

import corpusgen

LEX_EN = str(DATA_DIR / "lexicons" / "en.lex")
LEX_RO = str(DATA_DIR / "lexicons" / "ro.lex")
GAZ = str(DATA_DIR / "gazetteer" / "world_small.tsv")
STOP_EN = str(DATA_DIR / "stopwords" / "en.txt")
TRIGGERS = str(DATA_DIR / "triggers" / "triggers.tsv")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


@pytest.fixture(scope="module")
def profile_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("profiles")
    for label in corpusgen.labels():
        corpus = root / ("%s.bin" % label.language)
        corpus.write_bytes(corpusgen.generate_bytes(label, 50_000, seed=1))
        code = main(["train-profile", str(corpus), "--lang", label.language,
                     "--encoding", label.encoding,
                     "--out", str(root / ("%s.prof" % label.language))])
        assert code == 0
        corpus.unlink()
    return root


class TestIdentify:
    def test_known_language(self, capsys, tmp_path, profile_dir):
        label = corpusgen.labels()[3]  # hu / ISO-8859-2
        assert label.language == "hu"
        doc = tmp_path / "doc.txt"
        doc.write_bytes(corpusgen.snippets(label, 1, 500, seed=7)[0])
        code, out, err = run(capsys, "identify", str(doc), "--profiles", str(profile_dir))
        assert code == 0
        path, lang, enc, score = out.strip().split("\t")
        assert (lang, enc) == ("hu", "ISO-8859-2")
        assert float(score) <= 0

    def test_missing_profile_dir(self, capsys, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_text("hello")
        code, out, err = run(capsys, "identify", str(doc),
                             "--profiles", str(tmp_path / "nowhere"))
        assert code == 2
        assert err
        code, out, err = run(capsys, "identify", str(doc), "--profiles", str(tmp_path))
        assert (code, out, err) == (2, "", "placetime: no *.prof files in %s\n" % tmp_path)

    def test_unreadable_file_partial(self, capsys, tmp_path, profile_dir):
        good = tmp_path / "good.txt"
        good.write_bytes(corpusgen.snippets(corpusgen.labels()[0], 1, 500, seed=2)[0])
        code, out, err = run(capsys, "identify", str(good),
                             str(tmp_path / "missing.txt"),
                             "--profiles", str(profile_dir))
        assert code == 1
        assert len(out.splitlines()) == 1  # the good file still processed
        assert "missing.txt" in err

    @pytest.mark.parametrize("record", [b"B 1 256 3", b"T 1 2 3 -4", b"B 1 2 3\xe9"])
    def test_malformed_profile_exit_2(self, capsys, tmp_path, profile_dir, record):
        profiles = tmp_path / "profiles"
        profiles.mkdir()
        good = (profile_dir / "en.prof").read_bytes().splitlines()
        bad = profiles / "en.prof"
        bad.write_bytes(b"\n".join(good[:2] + [record] + good[2:]) + b"\n")
        doc = tmp_path / "doc.txt"
        doc.write_bytes(corpusgen.snippets(corpusgen.labels()[0], 1, 500, seed=2)[0])
        code, out, err = run(capsys, "identify", str(doc), "--profiles", str(profiles))
        assert code == 2 and out == ""
        problem = "malformed record " if record.isascii() else "not UTF-8\n"
        assert err.startswith("placetime: %s:3: %s" % (bad, problem))
        assert len(err.splitlines()) == 1


    def test_duplicate_profile_record_exit_2(self, capsys, tmp_path, profile_dir):
        profiles = tmp_path / "profiles"
        profiles.mkdir()
        good = (profile_dir / "en.prof").read_bytes().splitlines()
        bad = profiles / "en.prof"
        bad.write_bytes(b"\n".join(good + [good[-1]]) + b"\n")
        doc = tmp_path / "doc.txt"
        doc.write_text("hello there")
        code, out, err = run(capsys, "identify", str(doc), "--profiles", str(profiles))
        assert (code, out, err) == (2, "", "placetime: %s:%d: duplicate record %r\n"
                                    % (bad, len(good) + 1, good[-1].decode()))

    def test_duplicate_profile_label_exit_2(self, capsys, tmp_path, profile_dir):
        profiles = tmp_path / "profiles"
        profiles.mkdir()
        for name in ("a.prof", "b.prof"):
            (profiles / name).write_bytes((profile_dir / "en.prof").read_bytes())
        doc = tmp_path / "doc.txt"
        doc.write_text("hello there")
        code, out, err = run(capsys, "identify", str(doc), "--profiles", str(profiles))
        label = next(label for label in corpusgen.labels() if label.language == "en")
        assert (code, out, err) == (2, "", "placetime: profiles %s and %s both have label %s\n"
                                    % (profiles / "a.prof", profiles / "b.prof", label))

    def test_unreadable_profile_exit_2(self, capsys, tmp_path, profile_dir):
        profiles = tmp_path / "profiles"
        profiles.mkdir()
        (profiles / "en.prof").write_bytes((profile_dir / "en.prof").read_bytes())
        (profiles / "x.prof").mkdir()
        doc = tmp_path / "doc.txt"
        doc.write_text("hello there")
        code, out, err = run(capsys, "identify", str(doc), "--profiles", str(profiles))
        assert code == 2 and out == ""
        assert err.startswith("placetime: cannot read profile %s: " % (profiles / "x.prof"))
        assert len(err.splitlines()) == 1


class TestTrainProfile:
    def test_missing_corpus_exit_2(self, capsys, tmp_path):
        out_path = tmp_path / "en.prof"
        code, out, err = run(capsys, "train-profile", str(tmp_path / "nowhere.txt"),
                             "--lang", "en", "--encoding", "UTF-8", "--out", str(out_path))
        assert code == 2 and out == ""
        assert err.startswith("placetime: cannot read corpus: ") and "nowhere.txt" in err
        assert len(err.splitlines()) == 1
        assert not out_path.exists()

    def test_short_corpus_exit_2(self, capsys, tmp_path):
        corpus = tmp_path / "tiny.txt"
        corpus.write_bytes(b"ab")
        out_path = tmp_path / "en.prof"
        code, out, err = run(capsys, "train-profile", str(corpus),
                             "--lang", "en", "--encoding", "UTF-8", "--out", str(out_path))
        assert code == 2 and out == ""
        assert err == "placetime: training corpus must hold at least 3 bytes, got 2\n"
        assert not out_path.exists()


class TestDates:
    def test_standoff_records(self, capsys, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_text("Signed 21.2.1983 and again yesterday.")
        code, out, err = run(capsys, "dates", str(doc), "--lexicon", LEX_EN,
                             "--reference", "2003-03-01")
        assert code == 0
        recs = records(out)
        assert [r["normal"] for r in recs] == ["1983-02-21", "D-1"]
        assert recs[1]["resolved"] == "2003-02-28"
        text = doc.read_text()
        for r in recs:
            assert text[r["offset"]:r["offset"] + r["length"]] == r["surface"]

    def test_inline_round_trip(self, capsys, tmp_path):
        text = "Signed 21.2.1983, effective next June."
        doc = tmp_path / "doc.txt"
        doc.write_text(text)
        code, out, err = run(capsys, "dates", str(doc), "--lexicon", LEX_EN,
                             "--format", "inline")
        assert code == 0
        assert "[[date:" in out
        assert strip_inline(out) == text

    # Python 3.11's date.fromisoformat also takes the week date and the basic form.
    @pytest.mark.parametrize("reference", ["", "03/01/2003", "2003-W01-1", "20030101",
                                           "2003-1-01", "2003-02-30", "\u0662003-01-01"])
    def test_bad_reference_exit_2(self, capsys, tmp_path, reference):
        doc = tmp_path / "doc.txt"
        doc.write_text("21.2.1983 yesterday")
        code, out, err = run(capsys, "dates", str(doc), "--lexicon", LEX_EN,
                             "--reference", reference)
        assert code == 2 and out == ""
        assert err.startswith("placetime: bad --reference %r: " % reference)
        assert len(err.splitlines()) == 1

    def test_empty_file(self, capsys, tmp_path):
        doc = tmp_path / "empty.txt"
        doc.write_text("")
        code, out, err = run(capsys, "dates", str(doc), "--lexicon", LEX_EN)
        assert code == 0
        assert out == ""

    def test_diagnostics_on_stderr(self, capsys, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_text("meeting 31/02/2003")
        code, out, err = run(capsys, "dates", str(doc), "--lexicon", LEX_EN,
                             "--diagnostics")
        assert code == 0 and out == ""
        assert "31/02/2003" in err

    def test_diagnostics_name_every_discard_reason(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "doc.txt").write_text(
            "a 29/02/2003 b 2003-13-01 c 13/13/2003 d 1.2.15 e 30 February f\n")
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "dates", "doc.txt", "--lexicon", LEX_EN,
                             "--diagnostics", "--reject-two-digit-years")
        assert (code, out) == (0, "")
        assert err.splitlines() == [
            "placetime: doc.txt:2: discarded '29/02/2003' (day 29 invalid for month 2 year 2003)",
            "placetime: doc.txt:15: discarded '2003-13-01' (month 13 outside 1..12)",
            "placetime: doc.txt:28: discarded '13/13/2003' (no valid day/month reading)",
            "placetime: doc.txt:41: discarded '1.2.15' "
            "(two-digit year with unpadded day and month)",
            "placetime: doc.txt:50: discarded '30 February' (day 30 invalid for month 2 year None)",
        ]

    @pytest.mark.parametrize("word,reference,offset,lexicon_line", [
        ("tomorrow", "9999-12-31", "+1", None),
        ("yesterday", "0001-01-01", "-1", None),
        ("tomorrow", "2003-03-01", "+1000000000", "tomorrow = 1000000000"),
    ])
    def test_unresolvable_relative_day_skips_file(self, capsys, tmp_path, monkeypatch,
                                                  word, reference, offset, lexicon_line):
        lexicon = Path(LEX_EN).read_text(encoding="utf-8")
        if lexicon_line:
            lexicon = lexicon.replace("\n[relative_days]\n", "\n[relative_days]\n%s\n"
                                      % lexicon_line).replace("\ntomorrow = +1\n", "\n")
        (tmp_path / "x.lex").write_text(lexicon, encoding="utf-8")
        (tmp_path / "bad.txt").write_text("Due %s." % word)
        (tmp_path / "good.txt").write_text("Signed 21 March 2001.")
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "dates", "bad.txt", "good.txt", "--lexicon", "x.lex",
                             "--reference", reference)
        assert code == 1
        assert [r["path"] for r in records(out)] == ["good.txt"]
        assert err == "placetime: bad.txt: %r: D%s is out of range from reference %s\n" % (
            word, offset, reference)

    @pytest.mark.parametrize("phrase,reference,normal", [
        ("next June", "9999-12-31", "M06+1"),
        ("last June", "0001-01-01", "M06-1"),
        ("February next year", "9999-12-31", "M02Y+1"),
        ("February last year", "0001-01-01", "M02Y-1"),
    ])
    def test_unresolvable_relative_month_or_year_skips_file(self, capsys, tmp_path, monkeypatch,
                                                            phrase, reference, normal):
        (tmp_path / "bad.txt").write_text("Due %s." % phrase)
        (tmp_path / "good.txt").write_text("Signed 21 March 2001.")
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "dates", "bad.txt", "good.txt", "--lexicon", LEX_EN,
                             "--reference", reference)
        assert code == 1
        assert [r["path"] for r in records(out)] == ["good.txt"]
        assert err == "placetime: bad.txt: %r: %s is out of range from reference %s\n" % (
            phrase, normal, reference)

    def test_discards_precede_failed_resolve(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "doc.txt").write_text("Filed 31/02/2003, due next June.")
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "dates", "doc.txt", "--lexicon", LEX_EN,
                             "--reference", "9999-12-31", "--diagnostics")
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "placetime: doc.txt:6: discarded '31/02/2003' (no valid day/month reading)",
            "placetime: doc.txt: 'next June': M06+1 is out of range from reference 9999-12-31",
        ]

    def test_leading_space_after_bar_is_stripped(self, capsys, tmp_path, monkeypatch):
        text = Path(LEX_EN).read_text(encoding="utf-8").replace(
            "\n1 = January|Jan|Jan.\n", "\n1 = January| Jan\n")
        (tmp_path / "x.lex").write_text(text, encoding="utf-8")
        (tmp_path / "doc.txt").write_text("met x Jan 2003 and 3 Jan 2003")
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "dates", "doc.txt", "--lexicon", "x.lex")
        assert (code, err) == (0, "")
        assert [(r["surface"], r["normal"]) for r in records(out)] == [
            ("Jan 2003", "2003-01"), ("3 Jan 2003", "2003-01-03")]

    @pytest.mark.parametrize("section,line,message", [
        ("number_words", "nineteen-oh = 1900", "number word 'nineteen-oh' holds a space or '-'"),
        ("number_words", "nineteen oh = 1900", "number word 'nineteen oh' holds a space or '-'"),
        ("number_words", "= 1900", "empty surface in [number_words]"),
        ("relative_days", "= -1", "empty surface in [relative_days]"),
        ("pre_modifiers", " = +1", "empty surface in [pre_modifiers]"),
        ("relative_years", "= -1", "empty surface in [relative_years]"),
    ])
    def test_unmatchable_lexicon_surface_exit_2(self, capsys, tmp_path, monkeypatch,
                                                section, line, message):
        text = Path(LEX_EN).read_text(encoding="utf-8").replace(
            "\n[%s]\n" % section, "\n[%s]\n%s\n" % (section, line))
        (tmp_path / "x.lex").write_text(text, encoding="utf-8")
        (tmp_path / "doc.txt").write_text("May nineteen-oh five, yesterday")
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "dates", "doc.txt", "--lexicon", "x.lex",
                             "--reference", "2003-03-01")
        lineno = text.splitlines().index(line) + 1
        assert (code, out, err) == (2, "", "placetime: x.lex:%d: %s\n" % (lineno, message))

    @pytest.mark.parametrize("old,new,message", [
        ("\n[relative_days]\n", "\n[relative_days]\nJan = -1\n",
         "surface 'Jan' appears in [months] and again in [relative_days]"),
        ("\n2 = February|Feb|Feb.\n", "\n2 = February|Feb|Jan\n",
         "surface 'Jan' appears in [months] and again in [months]"),
    ], ids=["month-and-relative-day", "two-month-indexes"])
    def test_duplicate_lexicon_surface_exit_2(self, capsys, tmp_path, monkeypatch,
                                              old, new, message):
        text = Path(LEX_EN).read_text(encoding="utf-8")
        assert old in text
        (tmp_path / "x.lex").write_text(text.replace(old, new), encoding="utf-8")
        (tmp_path / "doc.txt").write_text("3 Jan 2003")
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "dates", "doc.txt", "--lexicon", "x.lex")
        assert (code, out, err) == (2, "", "placetime: x.lex: %s\n" % message)

    @pytest.mark.parametrize("old,new,message", [
        ("default_order = dmy\n", "default_ordr = mdy\n", "4: unknown [meta] key 'default_ordr'"),
        ("default_order = dmy\n", "default_order = dmy\ndefault_order = mdy\n",
         "5: duplicate [meta] key 'default_order'"),
    ], ids=["unknown", "repeated"])
    def test_bad_meta_key_exit_2(self, capsys, tmp_path, monkeypatch, old, new, message):
        text = Path(LEX_EN).read_text(encoding="utf-8")
        assert text.count(old) == 1 and text.splitlines()[3] == old.strip()
        (tmp_path / "x.lex").write_text(text.replace(old, new), encoding="utf-8")
        (tmp_path / "doc.txt").write_text("03/04/2003")
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "dates", "doc.txt", "--lexicon", "x.lex")
        assert (code, out, err) == (2, "", "placetime: x.lex:%s\n" % message)

    def test_encoding_flag(self, capsys, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_bytes("semnat la 11 noiembrie 1918".encode("utf-8"))
        code, out, err = run(capsys, "dates", str(doc), "--lexicon", LEX_RO,
                             "--encoding", "UTF-8")
        assert code == 0
        assert [r["normal"] for r in records(out)] == ["1918-11-11"]

    def test_bad_day_ordinal_key_exit_2(self, capsys, tmp_path):
        lexicon = tmp_path / "bad.lex"
        lexicon.write_text(Path(LEX_EN).read_text(encoding="utf-8").replace(
            "\n[day_ordinals]\n", "\n[day_ordinals]\nfirst = 1st\n"), encoding="utf-8")
        doc = tmp_path / "doc.txt"
        doc.write_text("21 March 2001")
        code, out, err = run(capsys, "dates", str(doc), "--lexicon", str(lexicon))
        assert code == 2 and out == ""
        assert err.startswith("placetime: %s:" % lexicon)
        assert "day index 'first'" in err and len(err.splitlines()) == 1

    def test_post_modifiers_section_rejected(self, capsys, tmp_path):
        lexicon = tmp_path / "old.lex"
        text = Path(LEX_EN).read_text(encoding="utf-8") + "\n[post_modifiers]\n"
        lexicon.write_text(text, encoding="utf-8")
        doc = tmp_path / "doc.txt"
        doc.write_text("21 March 2001")
        code, out, err = run(capsys, "dates", str(doc), "--lexicon", str(lexicon))
        assert (code, out) == (2, "")
        assert err == "placetime: %s:%d: unknown section [post_modifiers]\n" % (
            lexicon, len(text.splitlines()))

    def test_repeated_calls_leave_module_state_unchanged(self, capsys, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_text("Signed 21 March 2001, then 12/31/03 and next June.")

        def module_state():
            return {name: len(value) for name, value in vars(dates).items()
                    if isinstance(value, (dict, list, set))}

        run(capsys, "dates", str(doc), "--lexicon", LEX_EN)
        before = module_state()
        for _ in range(50):
            assert run(capsys, "dates", str(doc), "--lexicon", LEX_EN)[0] == 0
        assert module_state() == before

    def test_identify_before_extract(self, capsys, tmp_path, profile_dir):
        # no --lang/--encoding: the ro profile picks UTF-8 for us
        doc = tmp_path / "doc.txt"
        doc.write_bytes("Întîlnirea a avut loc la 11 noiembrie 1918 în țară. "
                        "Față de așteptări, până mai departe după aceea, două "
                        "săptămâni împreună înainte de sărbătoare în oraș. "
                        "Președintele a mulțumit pentru călătorie și învățământ "
                        "între orașe, către țară, însă încă două față de viață. "
                        "Așa cunoaștere și dezvoltare până când guvern așteaptă "
                        "după mai și dar este sunt care pentru din de la cu pe "
                        "în și de la cu pe este sunt care pentru din mai dar.".encode("utf-8"))
        code, out, err = run(capsys, "dates", str(doc), "--lexicon", LEX_RO,
                             "--profiles", str(profile_dir))
        assert code == 0
        assert "1918-11-11" in [r["normal"] for r in records(out)]


# --------------------------------------------------------------------------
# generated text through `dates`, in both output forms

# Any Unicode but the inline markers' own "[", "]" and "|", which stripping
# would read as markers.
_ANY_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="[]|"),
                    max_size=6)
_SEP_RUN = st.text(" \t\n\r,.-/\u00a0\u2028", min_size=1, max_size=4)
_NUMERIC_DATE = st.tuples(st.sampled_from(["1", "12", "31", "2003", "\u0661"]),
                          st.sampled_from("/.-"), st.sampled_from(["2", "05", "13", "\u0662"]),
                          st.sampled_from(["03", "99", "2003", "1"])).map(
    lambda t: t[0] + t[1] + t[2] + t[1] + t[3])


_LEXICON_EN = dates.load_date_lexicon(LEX_EN)
_EN_SURFACE = st.sampled_from(sorted({
    *_LEXICON_EN.months, *_LEXICON_EN.day_ordinals, *_LEXICON_EN.relative_days,
    *_LEXICON_EN.pre_modifiers, *_LEXICON_EN.relative_years, *_LEXICON_EN.connectors,
    *_LEXICON_EN.number_words, "1999", "3"}))
_MONTH_DATE = st.tuples(st.sampled_from(["", "3 ", "the 2nd of ", "next "]),
                        st.sampled_from(sorted(_LEXICON_EN.months)),
                        st.sampled_from(["", " 1999", ", 2003", " last year"])).map("".join)
# Pieces, each maybe repeated, then glued to the next or separated from it.
_DATES_TEXT = st.lists(
    st.tuples(_ANY_TEXT | _EN_SURFACE | _MONTH_DATE | _NUMERIC_DATE, st.integers(1, 3),
              st.just("") | st.just(" ") | _SEP_RUN).map(lambda t: t[0] * t[1] + t[2]),
    max_size=30).map("".join)


@settings(max_examples=100, deadline=None)
@given(text=_DATES_TEXT)
def test_dates_records_address_the_text(tmp_path_factory, text):
    base = tmp_path_factory.getbasetemp()
    doc, out = base / "e2e.txt", base / "e2e.out"
    doc.write_bytes(text.encode("utf-8"))
    argv = ["dates", str(doc), "--lexicon", LEX_EN, "--lang", "en",
            "--reference", "2003-03-01", "--out", str(out)]

    assert main(argv) == 0
    spans = []
    with open(out, encoding="utf-8", newline="") as f:
        lines = f.read().split("\n")   # a surface may hold U+2028, which splitlines splits at
    assert lines.pop() == ""
    for line in lines:
        record = json.loads(line)
        assert record["type"] == "date"
        offset, length = record["offset"], record["length"]
        assert length > 0 and text[offset:offset + length] == record["surface"]
        spans.append((offset, offset + length))
    assert spans == sorted(spans)
    assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))

    assert main(argv + ["--format", "inline"]) == 0
    with open(out, encoding="utf-8", newline="") as f:
        assert strip_inline(f.read()) == text


# --------------------------------------------------------------------------
# generated text through `places`, in both output forms

_PLACE_SURFACE = st.sampled_from(sorted(
    {*(s for rec in gazetteer.load_gazetteer(GAZ).records.values() for s in rec.surfaces()),
     *(t.surface for t in gazetteer.load_triggers(TRIGGERS).triggers)}))
# Pieces, each glued to the next or separated from it, and maybe repeated
# with its separator: a name glued to a copy of itself is no name.
_PLACES_TEXT = st.lists(
    st.tuples(_ANY_TEXT | _PLACE_SURFACE, st.integers(1, 3),
              st.just("") | st.just(" ") | _SEP_RUN).map(lambda t: (t[0] + t[2]) * t[1]),
    max_size=30).map("".join)


@settings(max_examples=100, deadline=None)
@given(text=_PLACES_TEXT)
def test_places_records_address_the_text(tmp_path_factory, text):
    base = tmp_path_factory.getbasetemp()
    doc, out = base / "places.txt", base / "places.out"
    doc.write_bytes(text.encode("utf-8"))
    argv = ["places", str(doc), "--gazetteer", GAZ, "--triggers", TRIGGERS, "--out", str(out)]

    assert main(argv) == 0
    with open(out, encoding="utf-8", newline="") as f:
        lines = f.read().split("\n")   # a surface may hold U+2028, which splitlines splits at
    assert lines.pop() == ""
    *geo, tallies = map(json.loads, lines)
    spans = []
    for record in geo:
        assert record["type"] == "geo"
        offset, length = record["offset"], record["length"]
        assert length > 0 and text[offset:offset + length] == record["surface"]
        spans.append((offset, offset + length))
    assert spans == sorted(spans)
    assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))
    assert tallies["type"] == "tallies"
    assert {t["country"]: t["hits"] for t in tallies["tallies"]} == Counter(
        record["country"] for record in geo)

    assert main(argv + ["--format", "inline"]) == 0
    with open(out, encoding="utf-8", newline="") as f:
        assert strip_inline(f.read()) == text


class TestPlaces:
    ROMANIAN_TEXT = ("Delegatia din Franta a ajuns in orasul Compiègne. "
                     "Reprezentantii Germaniei si ai Marea Britanie au semnat.")

    def test_standoff_matches_and_tallies(self, capsys, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_text(self.ROMANIAN_TEXT)
        code, out, err = run(capsys, "places", str(doc), "--gazetteer", GAZ,
                             "--triggers", TRIGGERS)
        assert code == 0
        recs = records(out)
        geo = [r for r in recs if r["type"] == "geo"]
        assert {(r["surface"], r["country"]) for r in geo} == {
            ("Franta", "FR"), ("Compiègne", "FR"),
            ("Germaniei", "DE"), ("Marea Britanie", "GB")}
        compiegne = next(r for r in geo if r["surface"] == "Compiègne")
        assert compiegne["place_id"] == 37 and "lat" in compiegne
        (tally,) = [r for r in recs if r["type"] == "tallies"]
        assert sum(t["percentage"] for t in tally["tallies"]) == pytest.approx(100.0)
        assert {t["country"]: t["hits"] for t in tally["tallies"]} == {
            "FR": 2, "DE": 1, "GB": 1}

    def test_bad_trigger_country_exit_2(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "doc.txt").write_text("x marks the spot")
        (tmp_path / "t.tsv").write_text("x\tfrance\tcurrency\n")
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "places", "doc.txt", "--gazetteer", GAZ,
                             "--triggers", "t.tsv")
        assert (code, out, err) == (2, "", "placetime: t.tsv:1: bad country code 'france'\n")

    @pytest.mark.parametrize("flag, line", [
        ("--gazetteer", "1\tParis\t\t\u00c9\u00c9\t48.9\t2.4\t1\n"),
        ("--triggers", "x\t\u00c9\u00c9\tcurrency\n")], ids=["gazetteer", "triggers"])
    def test_non_ascii_country_exit_2(self, capsys, tmp_path, monkeypatch, flag, line):
        (tmp_path / "doc.txt").write_text("Paris")
        (tmp_path / "bad.tsv").write_text(line, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        # a second --gazetteer replaces the first
        code, out, err = run(capsys, "places", "doc.txt", "--gazetteer", GAZ, flag, "bad.tsv")
        assert (code, out, err) == (
            2, "", "placetime: bad.tsv:1: bad country code '\u00c9\u00c9'\n")

    def test_lowercase_text_no_matches(self, capsys, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_text("a trip through paris and london and roma")
        code, out, err = run(capsys, "places", str(doc), "--gazetteer", GAZ)
        assert code == 0
        recs = records(out)
        assert [r for r in recs if r["type"] == "geo"] == []

    def test_stopwords_flag(self, capsys, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_text("Split hosted the talks.")
        code, out, err = run(capsys, "places", str(doc), "--gazetteer", GAZ,
                             "--stopwords", STOP_EN, "--lang", "en")
        assert [r for r in records(out) if r["type"] == "geo"] == []
        code, out, err = run(capsys, "places", str(doc), "--gazetteer", GAZ)
        assert [r["surface"] for r in records(out) if r["type"] == "geo"] == ["Split"]

    def test_inline_round_trip(self, capsys, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_text(self.ROMANIAN_TEXT)
        code, out, err = run(capsys, "places", str(doc), "--gazetteer", GAZ,
                             "--triggers", TRIGGERS, "--format", "inline")
        assert code == 0
        assert strip_inline(out) == self.ROMANIAN_TEXT

    def test_size_filter_keeps_listed_countries(self, capsys, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_text("Paris and Compiègne")
        for spec, surfaces in (("1:FR", ["Paris", "Compiègne"]), ("1:DE,GB", ["Paris"])):
            code, out, err = run(capsys, "places", str(doc), "--gazetteer", GAZ,
                                 "--max-size-class-outside", spec)
            assert code == 0
            assert [r["surface"] for r in records(out) if r["type"] == "geo"] == surfaces

    @pytest.mark.parametrize("spec", ["1:fr", "1:FR,A1", "1:FRA", "x:FR", "1:\u00c9\u00c9"])
    def test_bad_size_filter_exit_2(self, capsys, tmp_path, spec):
        doc = tmp_path / "doc.txt"
        doc.write_text("Paris and Compiègne")
        code, out, err = run(capsys, "places", str(doc), "--gazetteer", GAZ,
                             "--max-size-class-outside", spec)
        assert (code, out, err) == (2, "", "placetime: bad --max-size-class-outside %r\n" % spec)

    def test_bad_gazetteer_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("not\ta\tgazetteer\n")
        doc = tmp_path / "doc.txt"
        doc.write_text("Paris")
        code, out, err = run(capsys, "places", str(doc), "--gazetteer", str(bad))
        assert code == 2


@pytest.mark.parametrize("command", ["dates", "places"])
def test_lang_skips_profile_loading(capsys, tmp_path, command):
    argv = {"dates": ["--lexicon", LEX_EN], "places": ["--gazetteer", GAZ]}[command]
    doc = tmp_path / "doc.txt"
    doc.write_text("Paris, 21 March 2001.")
    plain = run(capsys, command, str(doc), *argv, "--lang", "en")
    code, out, err = run(capsys, command, str(doc), *argv, "--lang", "en",
                         "--profiles", str(tmp_path / "nonexistent"))
    assert (code, out, err) == plain and code == 0 and out


@pytest.mark.parametrize("command", ["identify", "dates", "places"])
def test_missing_file_skipped_in_input_order(capsys, tmp_path, profile_dir, command):
    flags = {"identify": ["--profiles", str(profile_dir)],
             "dates": ["--lexicon", LEX_EN], "places": ["--gazetteer", GAZ]}[command]
    docs = []
    for name, text in (("first", "Paris, 21 March 2001, then London on 2 May."),
                       ("second", "Berlin, 9 May 1945, and Wien on 12 June.")):
        doc = tmp_path / ("%s.txt" % name)
        doc.write_text(text)
        docs.append(str(doc))
    missing = str(tmp_path / "missing.txt")
    code, out, err = run(capsys, command, docs[0], missing, docs[1], *flags)
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("placetime: %s: " % missing)
    if command == "identify":
        paths = [line.split("\t")[0] for line in out.splitlines()]
    else:
        paths = [r["path"] for r in records(out)]
    assert list(dict.fromkeys(paths)) == docs
    assert paths == sorted(paths, key=docs.index)


@pytest.mark.parametrize("command", ["identify", "dates", "places"])
@pytest.mark.parametrize("name,message", [
    ("missing.txt", "[Errno 2] No such file or directory: %r"),
    ("folder", "[Errno 21] Is a directory: %r"),
])
def test_unreadable_path_message(capsys, tmp_path, monkeypatch, profile_dir, command,
                                 name, message):
    flags = {"identify": ["--profiles", str(profile_dir)],
             "dates": ["--lexicon", LEX_EN], "places": ["--gazetteer", GAZ]}[command]
    (tmp_path / "folder").mkdir()
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, command, name, *flags)
    assert (code, out) == (1, "")
    assert err == "placetime: %s: %s\n" % (name, message % name)


@pytest.mark.parametrize("command, flag, what, name", [
    ("dates", "--lexicon", "lexicon", "nope.lex"),
    ("places", "--gazetteer", "gazetteer", "nope.tsv"),
])
def test_missing_data_file_exit_2(capsys, tmp_path, monkeypatch, command, flag, what, name):
    (tmp_path / "doc.txt").write_text("Paris, 21 March 2001.")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, command, "doc.txt", flag, name)
    assert (code, out) == (2, "")
    assert err.startswith("placetime: cannot read %s %s: " % (what, name))
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["dates", "places"])
def test_unknown_encoding_exit_2_before_any_file(capsys, tmp_path, monkeypatch, command):
    flags = {"dates": ["--lexicon", LEX_EN], "places": ["--gazetteer", GAZ]}[command]
    (tmp_path / "doc.txt").write_text("Paris, 21 March 2001.")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, command, "doc.txt", "missing.txt", "doc.txt", *flags,
                         "--encoding", "KOI8")
    assert (code, out, err) == (2, "", "placetime: unknown encoding 'KOI8'\n")


def test_standoff_records_encode_as_json_dumps(capsys, tmp_path, monkeypatch):
    (tmp_path / "doc.txt").write_text("La 1 întîi mai 2003 la București, Paris.",
                                      encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv in (["dates", "doc.txt", "--lexicon", LEX_RO, "--reference", "2003-03-01"],
                 ["places", "doc.txt", "--gazetteer", GAZ]):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out
        assert out == "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records(out))
        assert "\\u" not in out


def test_jobs_flag_removed(capsys, tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_text("Paris, 21 March 2001.")
    with pytest.raises(SystemExit) as exit_info:
        main(["places", str(doc), "--gazetteer", GAZ, "--jobs", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["identify", "dates", "places", "propose-stopwords",
                                     "map", "train-profile"])
def test_unwritable_out_exit_2(capsys, tmp_path, profile_dir, command):
    doc = tmp_path / "doc.txt"
    doc.write_text("Paris, 21 March 2001.")
    freq = tmp_path / "freq.txt"
    freq.write_text("the\nsplit\n")
    ann = tmp_path / "ann.jsonl"
    ann.write_text(json.dumps({"type": "tallies", "path": "x", "tallies": [
        {"country": "FR", "hits": 1, "percentage": 100.0}]}) + "\n")
    argv = {"identify": [str(doc), "--profiles", str(profile_dir)],
            "dates": [str(doc), "--lexicon", LEX_EN],
            "places": [str(doc), "--gazetteer", GAZ],
            "propose-stopwords": ["--gazetteer", GAZ, "--frequency-list", str(freq)],
            "map": [str(ann)],
            "train-profile": [str(doc), "--lang", "en", "--encoding", "UTF-8"]}[command]
    bad = tmp_path / "nowhere" / "out.txt"
    code, out, err = run(capsys, command, *argv, "--out", str(bad))
    assert (code, out, err) == (
        2, "", "placetime: cannot write %s: No such file or directory\n" % bad)


@pytest.mark.parametrize("label, message", [
    pytest.param(["--lang", "EN", "--encoding", "UTF-8"],
                 "language must be a 2-letter lowercase code: 'EN'", id="lang"),
    pytest.param(["--lang", "en", "--encoding", "KOI8"],
                 "unknown encoding 'KOI8' (registry: ", id="encoding")])
def test_train_profile_bad_label_exit_2(capsys, tmp_path, label, message):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("some training text")
    out_path = tmp_path / "x.prof"
    code, out, err = run(capsys, "train-profile", str(corpus), *label, "--out", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith("placetime: " + message) and len(err.splitlines()) == 1
    assert not out_path.exists()


class TestMap:
    def test_pipeline_to_svg(self, capsys, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_text("Paris and Berlin and Paris again; also London.")
        ann = tmp_path / "ann.jsonl"
        code, out, err = run(capsys, "places", str(doc), "--gazetteer", GAZ,
                             "--out", str(ann))
        assert code == 0
        svg_path = tmp_path / "map.svg"
        code, out, err = run(capsys, "map", str(ann), "--out", str(svg_path))
        assert code == 0
        svg = svg_path.read_text()
        assert svg.startswith("<?xml") and "<svg" in svg
        assert svg.count("<circle") == 3  # Paris, Berlin, London dots

    def test_two_files_sum(self, capsys, tmp_path):
        ann1 = tmp_path / "a1.jsonl"
        ann2 = tmp_path / "a2.jsonl"
        for ann, text in ((ann1, "Paris."), (ann2, "Paris and Berlin.")):
            doc = tmp_path / (ann.stem + ".txt")
            doc.write_text(text)
            assert run(capsys, "places", str(doc), "--gazetteer", GAZ,
                       "--out", str(ann))[0] == 0
        svg_path = tmp_path / "map.svg"
        assert run(capsys, "map", str(ann1), str(ann2),
                   "--out", str(svg_path))[0] == 0
        # Paris dot carries 2 mentions -> larger radius than Berlin's
        import re
        radii = dict(re.findall(r'id="place-(\d+)" [^/]*r="([\d.]+)"',
                                svg_path.read_text()))
        assert float(radii["9"]) > float(radii["31"])

    GOOD = json.dumps({"type": "geo", "path": "d", "offset": 0, "length": 5,
                       "surface": "Paris", "place_id": 9, "country": "FR",
                       "lat": 48.85, "lon": 2.35, "size_class": 1})

    @pytest.mark.parametrize("line, message", [
        pytest.param("not json", "not JSON: Expecting value", id="not-json"),
        pytest.param("[1]", "not a JSON object", id="not-object"),
        pytest.param('{"type": "geo", "place_id": 31, "lon": 2.35, "country": "FR"}',
                     "missing field 'lat'", id="no-lat"),
        pytest.param('{"type": "geo", "place_id": 31, "lat": 48.85, "country": "FR"}',
                     "missing field 'lon'", id="no-lon"),
        pytest.param('{"type": "geo", "place_id": 31, "lat": 48.85, "lon": 2.35}',
                     "missing field 'country'", id="no-country"),
        pytest.param('{"type": "geo", "place_id": 31, "lat": 200, "lon": 2.35, "country": "FR"}',
                     "coordinates (200, 2.35) out of range", id="lat-200"),
        pytest.param('{"type": "tallies", "tallies": [{"country": "FR"}]}',
                     "missing field 'hits'", id="tally-no-hits"),
        pytest.param('{"type": "tallies", "tallies": [{"country": 5, "hits": 1}, '
                     '{"country": "FR", "hits": 1}]}',
                     "bad tallies country 5", id="tally-country-not-string"),
        pytest.param('{"type": "tallies", "tallies": [{"country": "x\\ny", "hits": 1}]}',
                     "bad country code 'x\\ny'", id="tally-country-newline"),
        pytest.param('{"type": "geo", "place_id": 31, "lat": 1, "lon": 2, "country": "zz\\"<>"}',
                     "bad country code 'zz\"<>'", id="geo-country-markup"),
        pytest.param('{"type": "geo", "place_id": 9, "lat": 48.85, "lon": 2.35, "country": "Fr"}',
                     "bad country code 'Fr'", id="later-record-bad-country"),
        pytest.param('{"type": "tallies", "tallies": [{"country": "FR", "hits": 1e308}, '
                     '{"country": "DE", "hits": 1e308}]}',
                     "tallies hits sum 1e+308 is too large", id="tally-hits-overflow"),
        pytest.param('{"type": "tallies", "tallies": [{"country": "FR", "hits": NaN}]}',
                     "bad tallies hits nan", id="tally-hits-nan"),
        pytest.param('{"type": "tallies", "tallies": [{"country": "FR", "hits": -3}]}',
                     "bad tallies hits -3", id="tally-hits-negative"),
        pytest.param('{"type": "geo", "place_id": 9, "lat": 200, "lon": 2.35, "country": "FR"}',
                     "coordinates (200, 2.35) out of range", id="later-record-lat-200"),
        pytest.param('{"type": "geo", "place_id": 9, "lon": 2.35, "country": "FR"}',
                     "missing field 'lat'", id="later-record-no-lat"),
        pytest.param('{"type": "geo", "place_id": 9, "lat": 48.85, "lon": 2.35, "country": 5}',
                     "bad place_id 9 or country 5", id="later-record-country-not-string"),
        pytest.param("[" * 100_000, "not JSON: maximum recursion depth exceeded",
                     id="deep-nesting"),
        pytest.param('{"type": "geo", "place_id": true, "lat": true, "lon": false, '
                     '"country": "FR"}',
                     "bad place_id True or country 'FR'", id="place-id-boolean"),
        pytest.param('{"type": "geo", "place_id": 9, "lat": true, "lon": 2.35, "country": "FR"}',
                     "bad coordinates (True, 2.35)", id="lat-boolean"),
        pytest.param('{"type": "geo", "place_id": 31, "lat": 48.85, "lon": false, "country": "FR"}',
                     "bad coordinates (48.85, False)", id="lon-boolean"),
    ])
    def test_malformed_annotation_exit_2(self, capsys, tmp_path, line, message):
        ann = tmp_path / "ann.jsonl"
        ann.write_text(self.GOOD + "\n" + line + "\n")
        svg_path = tmp_path / "map.svg"
        code, out, err = run(capsys, "map", str(ann), "--out", str(svg_path))
        assert code == 2 and out == ""
        assert err.startswith("placetime: %s:2: %s" % (ann, message))
        assert len(err.splitlines()) == 1
        assert not svg_path.exists()

    @pytest.mark.parametrize("later, message", [
        ('{"type": "geo", "place_id": true, "lat": 1, "lon": 0, "country": "FR"}',
         "bad place_id True or country 'FR'"),
        ('{"type": "geo", "place_id": 1, "lat": true, "lon": 0, "country": "FR"}',
         "bad coordinates (True, 0)"),
        ('{"type": "geo", "place_id": 1, "lat": 1, "lon": false, "country": "FR"}',
         "bad coordinates (1, False)"),
        ('{"type": "geo", "place_id": 1.0, "lat": 1, "lon": 0, "country": "FR"}',
         "bad place_id 1.0 or country 'FR'"),
    ])
    def test_boolean_equal_to_first_record_exit_2(self, capsys, tmp_path, later, message):
        # true == 1, false == 0 and 1.0 == 1: a later record that equals the first is
        # still rejected when a field of it is a boolean or its id is a float.
        ann = tmp_path / "ann.jsonl"
        ann.write_text('{"type": "geo", "place_id": 1, "lat": 1, "lon": 0, "country": "FR"}\n'
                       + later + "\n")
        code, out, err = run(capsys, "map", str(ann), "--out", str(tmp_path / "map.svg"))
        assert (code, out, err) == (2, "", "placetime: %s:2: %s\n" % (ann, message))

    def test_later_records_draw_as_first(self, capsys, tmp_path):
        moved = json.loads(self.GOOD)
        moved.update(lat=10.0, lon=10.0)
        svgs = []
        for lines in ([self.GOOD] * 3, [self.GOOD, json.dumps(moved), self.GOOD]):
            ann = tmp_path / "ann.jsonl"
            ann.write_text("".join(line + "\n" for line in lines))
            svg_path = tmp_path / "map.svg"
            assert run(capsys, "map", str(ann), "--out", str(svg_path)) == (0, "", "")
            svgs.append(svg_path.read_text())
        assert svgs[0] == svgs[1]

    @pytest.mark.parametrize("flag", ["--width", "--height"])
    def test_zero_canvas_exit_2(self, capsys, tmp_path, flag):
        ann = tmp_path / "ann.jsonl"
        ann.write_text(self.GOOD + "\n")
        code, out, err = run(capsys, "map", str(ann), "--out", str(tmp_path / "map.svg"),
                             flag, "0")
        assert (code, out, err) == (2, "", "placetime: --width and --height must be positive\n")

    def test_bad_outline_country_exit_2(self, capsys, tmp_path):
        ann = tmp_path / "ann.jsonl"
        ann.write_text(self.GOOD + "\n")
        outline = tmp_path / "o.tsv"
        outline.write_text("FR\t0\t0,0 1,0 1,1\nA1\t0\t0,0 1,0 1,1\n")
        svg_path = tmp_path / "map.svg"
        code, out, err = run(capsys, "map", str(ann), "--outline", str(outline),
                             "--out", str(svg_path))
        assert (code, out, err) == (2, "", "placetime: %s:2: bad country code 'A1'\n" % outline)
        assert not svg_path.exists()

    def test_non_ascii_outline_country_exit_2(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "ann.jsonl").write_text(self.GOOD + "\n")
        (tmp_path / "o.tsv").write_text("\u00c9\u00c9\t0\t0,0 1,0 1,1\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "map", "ann.jsonl", "--outline", "o.tsv", "--out", "map.svg")
        assert (code, out, err) == (2, "", "placetime: o.tsv:1: bad country code '\u00c9\u00c9'\n")
        assert not (tmp_path / "map.svg").exists()

    def test_empty_annotations_exit_2(self, capsys, tmp_path):
        ann = tmp_path / "empty.jsonl"
        ann.write_text("")
        code, out, err = run(capsys, "map", str(ann),
                             "--out", str(tmp_path / "map.svg"))
        assert code == 2


class TestProposeStopwords:
    def test_proposals_printed(self, capsys, tmp_path):
        freq = tmp_path / "freq.txt"
        freq.write_text("the\nsplit\nand\nof\n")
        code, out, err = run(capsys, "propose-stopwords", "--gazetteer", GAZ,
                             "--frequency-list", str(freq), "--top-n", "10")
        assert code == 0
        assert out.splitlines() == ["Split", "And"]

    def test_top_n_zero_exit_2(self, capsys, tmp_path):
        freq = tmp_path / "freq.txt"
        freq.write_text("the\nsplit\n")
        code, out, err = run(capsys, "propose-stopwords", "--gazetteer", GAZ,
                             "--frequency-list", str(freq), "--top-n", "0")
        assert (code, out, err) == (2, "", "placetime: --top-n must be at least 1\n")


NOT_UTF8 = {  # flag -> (file name, contents with an ISO-8859-2 byte, its line)
    "--gazetteer": ("g.tsv", b"# places\n1\tKrak\xf3w\t\tPL\t50.06\t19.94\t2\n", 2),
    "--stopwords": ("s.txt", b"Split\nKrak\xf3w\n", 2),
    "--triggers": ("t.tsv", b"# triggers\nPoland\tPL\tcountry_name\n"
                   b"Polsk\xe1\tPL\tadjective\n", 3),
    "--lexicon": ("l.lex", b"[meta]\nlanguage = pl\n# miesi\xb1ce\n[months]\n", 3),
    "annotation": ("a.jsonl", TestMap.GOOD.encode() + b"\n{\"surface\": \"Krak\xf3w\"}\n", 2),
    "--outline": ("o.tsv", b"# outline\nPL\t0\t14,49 24,49 24,54\n# Krak\xf3w\n", 3),
    "--frequency-list": ("f.txt", b"the\nKrak\xf3w\n", 2),
}


@pytest.mark.parametrize("flag", NOT_UTF8)
def test_data_file_not_utf8_exit_2(capsys, tmp_path, flag):
    name, contents, line = NOT_UTF8[flag]
    bad = tmp_path / name
    bad.write_bytes(contents)
    doc = tmp_path / "doc.txt"
    doc.write_text("Paris, 21 March 2001.")
    ann = tmp_path / "good.jsonl"
    ann.write_text(TestMap.GOOD + "\n")
    svg = str(tmp_path / "map.svg")
    argv = {"--gazetteer": ["places", str(doc), "--gazetteer", str(bad)],
            "--stopwords": ["places", str(doc), "--gazetteer", GAZ, "--stopwords", str(bad)],
            "--triggers": ["places", str(doc), "--gazetteer", GAZ, "--triggers", str(bad)],
            "--lexicon": ["dates", str(doc), "--lexicon", str(bad)],
            "annotation": ["map", str(ann), str(bad), "--out", svg],
            "--outline": ["map", str(ann), "--outline", str(bad), "--out", svg],
            "--frequency-list": ["propose-stopwords", "--gazetteer", GAZ,
                                 "--frequency-list", str(bad)]}[flag]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "placetime: %s:%d: not UTF-8\n" % (bad, line))
