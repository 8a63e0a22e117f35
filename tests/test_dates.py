import calendar
import datetime
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from placetime import dates
from placetime.dates import (DateKind, NormalizedDate, extract_dates,
                             find_lexical_dates, find_numeric_dates,
                             infer_document_order, load_date_lexicon,
                             normalize_match, resolve_relative)
from placetime.errors import ContractError, LoadError, PlacetimeError

import dates_oracle


def normals(text, lexicon, **kw):
    return [m.normal.to_string() for m in extract_dates(text, lexicon, **kw)]


class TestNormalizedDate:
    def test_to_string_forms(self):
        assert NormalizedDate(DateKind.FULL, year=2003, month=5, day=31).to_string() == "2003-05-31"
        assert NormalizedDate(DateKind.YEAR_MONTH, year=2003, month=5).to_string() == "2003-05"
        assert NormalizedDate(DateKind.MONTH_DAY, month=5, day=31).to_string() == "--05-31"
        assert NormalizedDate(DateKind.RELATIVE_DAY, rel_offset=-1).to_string() == "D-1"
        assert NormalizedDate(DateKind.RELATIVE_MONTH, month=6, rel_offset=1).to_string() == "M06+1"
        assert NormalizedDate(DateKind.MONTH_RELATIVE_YEAR, month=2,
                              rel_offset=-1).to_string() == "M02Y-1"

    def test_kind_field_contracts(self):
        with pytest.raises(ValueError):
            NormalizedDate(DateKind.FULL, year=2003, month=5)  # no day
        with pytest.raises(ValueError):
            NormalizedDate(DateKind.YEAR_MONTH, year=2003, month=5, day=2)
        with pytest.raises(ValueError):
            NormalizedDate(DateKind.MONTH_DAY, month=13, day=2)

    def test_day_limit_equals_calendar(self):
        for year in (0, 1, 4, 100, 1900, 2000, 2003, 2004, 9999):
            for month in range(1, 13):
                for day in (0, 1, 28, 29, 30, 31, 32):
                    valid = 1 <= day <= calendar.monthrange(year, month)[1]
                    try:
                        NormalizedDate(DateKind.FULL, year=year, month=month, day=day)
                    except ValueError:
                        assert not valid
                    else:
                        assert valid

    def test_calendar_validity(self):
        with pytest.raises(ValueError):
            NormalizedDate(DateKind.FULL, year=2003, month=2, day=29)
        # leap-permissive when year unknown
        assert NormalizedDate(DateKind.MONTH_DAY, month=2, day=29).day == 29
        with pytest.raises(ValueError):
            NormalizedDate(DateKind.MONTH_DAY, month=2, day=30)


class TestLexiconLoad:
    def test_english_fixture(self, lexicon_en):
        assert set(lexicon_en.months.values()) == set(range(1, 13))
        assert lexicon_en.relative_days["yesterday"] == -1
        assert lexicon_en.pre_modifiers["next"] == 1

    def test_romanian_diacritic_variants(self, lexicon_ro):
        assert "întîi" in lexicon_ro.day_ordinals and "intii" in lexicon_ro.day_ordinals

    def test_missing_month_rejected(self, tmp_path):
        path = tmp_path / "bad.lex"
        path.write_text("[meta]\nlanguage = xx\ndefault_order = DMY\n"
                        "[months]\n" +
                        "".join("%d = m%d\n" % (i, i) for i in range(1, 12)))
        with pytest.raises(LoadError):
            load_date_lexicon(path)

    def test_bar_separated_surfaces_are_stripped(self, tmp_path):
        path = tmp_path / "x.lex"
        path.write_text("[months]\n1 = January| Jan |\t| Jan.\n" +
                        "".join("%d = m%d\n" % (i, i) for i in range(2, 13)) +
                        "[day_ordinals]\n1 = first | 1st\n2 =  |second\n", encoding="utf-8")
        lexicon = load_date_lexicon(path)
        assert list(lexicon.months.items())[:4] == [("January", 1), ("Jan", 1), ("Jan.", 1),
                                                    ("m2", 2)]
        assert lexicon.day_ordinals == {"first": 1, "1st": 1, "second": 2}

    def test_conflicting_surface_rejected(self, tmp_path):
        path = tmp_path / "bad.lex"
        path.write_text("[meta]\nlanguage = xx\ndefault_order = DMY\n"
                        "[months]\n" +
                        "".join("%d = m%d\n" % (i, i) for i in range(1, 13)) +
                        "[relative_days]\nm3 = -1\n")
        with pytest.raises(LoadError, match=r"'m3' appears in \[months\] and again in "
                                            r"\[relative_days\]$"):
            load_date_lexicon(path)

    def test_surface_under_two_month_indexes_rejected(self, tmp_path):
        path = tmp_path / "bad.lex"
        path.write_text("[months]\n" + "".join("%d = m%d\n" % (i, i) for i in range(1, 12))
                        + "12 = m12|m3\n")
        with pytest.raises(LoadError, match=r"'m3' appears in \[months\] and again in "
                                            r"\[months\]$"):
            load_date_lexicon(path)

    # Line 5 is "1 = m1", 16 "12 = m12", 18 "1 = first", 20 "today = 0" and 28 "one = 1".
    _VALID = ("[meta]\nlanguage = xx\ndefault_order = dmy\n[months]\n"
              + "".join("%d = m%d\n" % (i, i) for i in range(1, 13))
              + "[day_ordinals]\n1 = first\n[relative_days]\ntoday = 0\n"
                "[pre_modifiers]\nnext = +1\n[relative_years]\nnext year = +1\n"
                "[connectors]\nof\n[number_words]\none = 1\n")

    @pytest.mark.parametrize("old,new,message", [
        ("[connectors]\n", "[connector]\n", "{path}:25: unknown section [connector]"),
        ("[meta]\n", "x = 1\n[meta]\n", "{path}:1: content before first section"),
        ("language = xx", "language xx", "{path}:2: expected 'key = value' in [meta]"),
        ("default_order = dmy", "default_ordr = mdy",
         "{path}:3: unknown [meta] key 'default_ordr'"),
        ("language = xx\n", "language = xx\nlanguage = yy\n",
         "{path}:3: duplicate [meta] key 'language'"),
        ("default_order = dmy\n", "default_order = dmy\ndefault_order = mdy\n",
         "{path}:4: duplicate [meta] key 'default_order'"),
        ("default_order = dmy", "default_order = ymd", "{path}: default_order must be dmy or mdy"),
        ("\n1 = m1\n", "\none = m1\n", "{path}:5: month index 'one'"),
        ("12 = m12", "13 = m12", "{path}:16: bad or duplicate month index 13"),
        ("12 = m12", "1 = m12", "{path}:16: bad or duplicate month index 1"),
        ("12 = m12", "12 = | ", "{path}:16: month 12 has no surfaces"),
        ("12 = m12\n", "", "{path}: [months] missing indices [12]"),
        ("\n1 = first\n", "\nfirst = 1st\n", "{path}:18: day index 'first'"),
        ("\n1 = first\n", "\n32 = first\n", "{path}:18: day index 32 outside 1..31"),
        ("today = 0", "= 0", "{path}:20: empty surface in [relative_days]"),
        ("one = 1", "one two = 1", "{path}:28: number word 'one two' holds a space or '-'"),
        ("today = 0\n", "today = 0\ntoday = -1\n",
         "{path}:21: duplicate surface 'today' in [relative_days]"),
        ("next = +1", "next = soon", "{path}:22: bad integer 'soon'"),
        ("today = 0", "m3 = 0",
         "{path}: surface 'm3' appears in [months] and again in [relative_days]"),
        ("12 = m12", "12 = m12|m3",
         "{path}: surface 'm3' appears in [months] and again in [months]"),
        ("\n1 = first\n", "\n1 = first\n2 = first\n",
         "{path}: surface 'first' appears in [day_ordinals] and again in [day_ordinals]"),
    ])
    def test_single_fault_message(self, tmp_path, old, new, message):
        path = tmp_path / "x.lex"
        assert self._VALID.count(old) == 1
        path.write_text(self._VALID.replace(old, new), encoding="utf-8")
        with pytest.raises(LoadError) as excinfo:
            load_date_lexicon(path)
        assert str(excinfo.value) == message.format(path=path)

    def test_single_fault_base_loads(self, tmp_path):
        path = tmp_path / "x.lex"
        path.write_text(self._VALID, encoding="utf-8")
        assert load_date_lexicon(path).relative_years == {"next year": 1}


class TestNumericFinder:
    def test_dmy_forced(self):
        (c,) = find_numeric_dates("on 13/02/03 it")
        assert c.dmy_possible and not c.mdy_possible

    def test_mdy_forced(self):
        (c,) = find_numeric_dates("on 12/31/03 it")
        assert c.mdy_possible and not c.dmy_possible

    def test_ymd_forced(self):
        (c,) = find_numeric_dates("1997/04/01")
        assert c.ymd

    def test_ambiguous(self):
        (c,) = find_numeric_dates("01/02/03")
        assert c.dmy_possible and c.mdy_possible

    def test_mixed_separators_rejected(self):
        assert find_numeric_dates("13/02.2003") == []

    def test_digit_boundaries(self):
        assert find_numeric_dates("phone 113/02/034 here") == []

    def test_surface_and_offset(self):
        text = "x 31.5.2003 y"
        (c,) = find_numeric_dates(text)
        assert text[c.offset:c.offset + c.length] == c.surface == "31.5.2003"


class TestOrderInference:
    def test_mdy_document(self, lexicon_en):
        cands = find_numeric_dates("12/31/03 then 01/02/03")
        assert infer_document_order(cands) == dates.ORDER_MDY
        assert normals("12/31/03 then 01/02/03", lexicon_en) == ["2003-12-31", "2003-01-02"]

    def test_lone_ambiguous_defaults_dmy(self, lexicon_en):
        assert normals("01/02/03", lexicon_en) == ["2003-02-01"]

    def test_conflict_falls_back_but_forced_readings_stand(self, lexicon_en):
        out = normals("31/12/03 and 12/31/03", lexicon_en)
        assert out == ["2003-12-31", "2003-12-31"]

    def test_default_override(self, lexicon_en):
        assert normals("01/02/03", lexicon_en, default_order="MDY") == ["2003-01-02"]

    def test_idempotent_on_normalized_output(self):
        cands = find_numeric_dates("12/31/03 then 01/02/03")
        order = infer_document_order(cands)
        # the normalized strings re-parse to the same decision
        again = find_numeric_dates("2003-12-31 2003-01-02")
        assert infer_document_order(again, default=order) == order


class TestLexicalFinder:
    def test_spelled_year(self, lexicon_en):
        out = extract_dates("the sixth of March in the year nineteen eighty four",
                            lexicon_en)
        assert [m.normal.to_string() for m in out] == ["1984-03-06"]

    def test_year_month_and_month_day(self, lexicon_en):
        assert normals("Jan. 2003", lexicon_en) == ["2003-01"]
        assert normals("third February", lexicon_en) == ["--02-03"]

    def test_relative_kinds(self, lexicon_en):
        assert normals("February last year", lexicon_en) == ["M02Y-1"]
        assert normals("next June", lexicon_en) == ["M06+1"]
        assert normals("last September", lexicon_en) == ["M09-1"]
        assert normals("yesterday", lexicon_en) == ["D-1"]
        assert normals("today and tomorrow", lexicon_en) == ["D+0", "D+1"]

    def test_late_and_mid_modifiers(self, lexicon_en):
        assert normals("late January", lexicon_en) == ["M01+0"]
        assert normals("mid August", lexicon_en) == ["M08+0"]

    def test_period_first_part_missed(self, lexicon_en):
        out = extract_dates("7-8 May 2003", lexicon_en)
        assert [(m.surface, m.normal.to_string()) for m in out] == [("8 May 2003", "2003-05-08")]

    def test_exact_case_month(self, lexicon_en):
        assert normals("this may sound reasonable", lexicon_en) == []
        assert normals("this May", lexicon_en) == ["M05+0"]

    def test_bare_month_not_a_date(self, lexicon_en):
        assert normals("in May", lexicon_en) == []

    def test_connector_year_after(self, lexicon_en):
        assert normals("1999, the 2nd of May", lexicon_en) == ["1999-05-02"]

    def test_day_month_year(self, lexicon_en):
        out = extract_dates("signed on 21 March 2001 in", lexicon_en)
        assert [(m.surface, m.normal.to_string()) for m in out] == [
            ("21 March 2001", "2001-03-21")]

    def test_romanian_full_date(self, lexicon_ro):
        out = extract_dates("Armistice signed la 11 noiembrie 1918", lexicon_ro)
        assert [(m.surface, m.normal.to_string()) for m in out] == [
            ("11 noiembrie 1918", "1918-11-11")]

    def test_romanian_mai_false_positive(self, lexicon_ro):
        # known homograph error: adverb "mai" reads as the month
        assert normals("cei doi mai incercasera", lexicon_ro) == ["--05-02"]


class TestFormatClosure:
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
        "February three years ago is long gone",
    ]

    @pytest.mark.parametrize("text,normal", RECOGNISED)
    def test_recognised(self, lexicon_en, text, normal):
        out = extract_dates(text, lexicon_en, reject_two_digit_years=True)
        assert [m.normal.to_string() for m in out] == [normal]

    @pytest.mark.parametrize("text", NOT_RECOGNISED)
    def test_not_recognised(self, lexicon_en, text):
        out = extract_dates(text, lexicon_en, reject_two_digit_years=True)
        assert out == []

    def test_february_three_years_ago_keeps_no_relative(self, lexicon_en):
        # "February" alone would be a bare month; the unknown phrase after it
        # must not rescue the match
        assert normals("February three years ago", lexicon_en) == []


class TestTwoDigitYearFlag:
    def test_padded_fields_still_accepted(self, lexicon_en):
        assert normals("3-04-03", lexicon_en, reject_two_digit_years=True) == ["2003-04-03"]

    def test_unpadded_rejected_with_diagnostic(self, lexicon_en):
        diags = []
        out = extract_dates("1.2.15", lexicon_en, reject_two_digit_years=True,
                            diagnostics=diags)
        assert out == []
        assert len(diags) == 1 and diags[0][1] == "1.2.15"

    def test_default_accepts(self, lexicon_en):
        assert normals("1.2.15", lexicon_en) == ["2015-02-01"]


class TestNormalization:
    def test_pivot(self, lexicon_en):
        assert normals("1.2.49", lexicon_en) == ["2049-02-01"]
        assert normals("1.2.50", lexicon_en) == ["1950-02-01"]

    def test_invalid_calendar_discarded(self, lexicon_en):
        diags = []
        out = extract_dates("31/02/2003", lexicon_en, diagnostics=diags)
        assert out == []
        assert diags and diags[0][1] == "31/02/2003"


class TestResolveRelative:
    def test_relative_day(self):
        n = NormalizedDate(DateKind.RELATIVE_DAY, rel_offset=-1)
        r = resolve_relative(n, datetime.date(2003, 3, 1))
        assert r.to_string() == "2003-02-28"

    def test_relative_month_forward(self):
        n = NormalizedDate(DateKind.RELATIVE_MONTH, month=6, rel_offset=1)
        assert resolve_relative(n, datetime.date(2003, 9, 10)).to_string() == "2004-06"
        assert resolve_relative(n, datetime.date(2003, 3, 10)).to_string() == "2003-06"

    def test_relative_month_backward(self):
        n = NormalizedDate(DateKind.RELATIVE_MONTH, month=9, rel_offset=-1)
        assert resolve_relative(n, datetime.date(2003, 5, 5)).to_string() == "2002-09"
        assert resolve_relative(n, datetime.date(2003, 11, 5)).to_string() == "2003-09"

    def test_same_month_is_strict(self):
        n = NormalizedDate(DateKind.RELATIVE_MONTH, month=6, rel_offset=1)
        assert resolve_relative(n, datetime.date(2003, 6, 15)).to_string() == "2004-06"

    def test_this_month_same_year(self):
        n = NormalizedDate(DateKind.RELATIVE_MONTH, month=1, rel_offset=0)
        assert resolve_relative(n, datetime.date(2003, 12, 31)).to_string() == "2003-01"

    def test_month_relative_year(self):
        n = NormalizedDate(DateKind.MONTH_RELATIVE_YEAR, month=2, rel_offset=-1)
        assert resolve_relative(n, datetime.date(2003, 5, 5)).to_string() == "2002-02"

    def test_non_relative_rejected(self):
        n = NormalizedDate(DateKind.FULL, year=2003, month=1, day=1)
        with pytest.raises(ContractError):
            resolve_relative(n, datetime.date(2003, 1, 1))

    @pytest.mark.parametrize("reference,offset", [
        (datetime.date.max, 1), (datetime.date.min, -1),
        (datetime.date(2003, 3, 1), 10 ** 9), (datetime.date(2003, 3, 1), -10 ** 30)])
    def test_relative_day_out_of_range(self, reference, offset):
        n = NormalizedDate(DateKind.RELATIVE_DAY, rel_offset=offset)
        with pytest.raises(PlacetimeError) as info:
            resolve_relative(n, reference)
        assert str(info.value) == "D%+d is out of range from reference %s" % (offset, reference)

    @pytest.mark.parametrize("kind,month,offset,reference,normal", [
        (DateKind.RELATIVE_MONTH, 6, 1, datetime.date.max, "M06+1"),
        (DateKind.RELATIVE_MONTH, 6, -1, datetime.date.min, "M06-1"),
        (DateKind.MONTH_RELATIVE_YEAR, 2, 1, datetime.date.max, "M02Y+1"),
        (DateKind.MONTH_RELATIVE_YEAR, 2, -1, datetime.date.min, "M02Y-1"),
        (DateKind.MONTH_RELATIVE_YEAR, 2, 10 ** 30, datetime.date(2003, 3, 1),
         "M02Y+%d" % 10 ** 30),
    ], ids=["month-next-max", "month-last-min", "year-next-max", "year-last-min", "year-huge"])
    def test_relative_month_and_year_out_of_range(self, kind, month, offset, reference, normal):
        n = NormalizedDate(kind, month=month, rel_offset=offset)
        with pytest.raises(PlacetimeError) as info:
            resolve_relative(n, reference)
        assert str(info.value) == "%s is out of range from reference %s" % (normal, reference)

    def test_relative_month_and_year_at_the_edges(self):
        assert resolve_relative(NormalizedDate(DateKind.RELATIVE_MONTH, month=12, rel_offset=1),
                                datetime.date(9999, 11, 30)).to_string() == "9999-12"
        assert resolve_relative(NormalizedDate(DateKind.MONTH_RELATIVE_YEAR, month=1,
                                               rel_offset=-1),
                                datetime.date(2, 1, 1)).to_string() == "0001-01"


class TestExtractPipeline:
    def test_offset_fidelity(self, lexicon_en):
        text = ("Meetings on 21 March 2001, then 12/31/03, postponed to "
                "next June; yesterday the sixth of March was floated.")
        for m in extract_dates(text, lexicon_en):
            assert text[m.offset:m.offset + m.length] == m.surface

    def test_sorted_and_non_overlapping(self, lexicon_en):
        text = "21.2.1983 then Jan. 2003, third February, 01/02/03"
        out = extract_dates(text, lexicon_en)
        offs = [m.offset for m in out]
        assert offs == sorted(offs)
        for a, b in zip(out, out[1:]):
            assert a.offset + a.length <= b.offset

    def test_reference_resolves_relatives(self, lexicon_en):
        out = extract_dates("yesterday and next June", lexicon_en,
                            reference=datetime.date(2003, 9, 10))
        assert [m.resolved.to_string() for m in out] == ["2003-09-09", "2004-06"]

    def test_absolute_matches_have_no_resolved(self, lexicon_en):
        out = extract_dates("21.2.1983", lexicon_en,
                            reference=datetime.date(2003, 9, 10))
        assert out[0].resolved is None

    @pytest.mark.parametrize("text, expected", [
        ("3 May 2003, May 2003, May 3 and May",
         [("3 May 2003", "2003-05-03"), ("2003, May 3", "2003-05-03")]),
        ("3 May 2003; May 2003; May 3 and May",
         [("3 May 2003", "2003-05-03"), ("May 2003", "2003-05"), ("May 3", "--05-03")]),
        ("the 3rd of May, next May, May next year, May nineteen eighty-four, yesterday", []),
    ])
    def test_empty_optional_sections(self, tmp_path, text, expected):
        # Every section but [months] is empty, so its alternation must match nothing:
        # not a day ordinal, relative day, pre-modifier, relative year, connector or
        # number word, and not the empty string either.
        path = tmp_path / "empty.lex"
        path.write_text("[meta]\nlanguage = xx\n[months]\n5 = May\n"
                        + "".join("%d = m%d\n" % (i, i) for i in range(1, 13) if i != 5)
                        + "[day_ordinals]\n[relative_days]\n[pre_modifiers]\n"
                          "[relative_years]\n[connectors]\n[number_words]\n")
        lexicon = load_date_lexicon(path)
        assert [(m.surface, m.normal.to_string())
                for m in extract_dates(text, lexicon)] == expected

    def test_long_text_equals_its_paragraphs(self, lexicon_en, corpus_dir):
        # Numeric field order is inferred per document, so paragraphs that
        # would force month-day-year on the whole text are left out.
        paragraphs = [p.read_text(encoding="utf-8").strip()
                      for p in sorted(corpus_dir.glob("*.txt"))]
        paragraphs = [p for p in paragraphs
                      if infer_document_order(find_numeric_dates(p)) == dates.ORDER_DMY]
        paragraphs = paragraphs * (40_000 // len("\n\n".join(paragraphs)) + 1)
        text = "\n\n".join(paragraphs)
        assert len(text) >= 40_000
        expected = []
        base = 0
        for p in paragraphs:
            expected += [m._replace(offset=m.offset + base)
                         for m in extract_dates(p, lexicon_en)]
            base += len(p) + 2
        assert extract_dates(text, lexicon_en) == expected


class TestYearSharedByNeighbours:
    """A year that ends one date is also read as the year before the next month,
    and the longer of the two overlapping spans wins (ROADMAP item 3)."""

    @pytest.mark.xfail(strict=True, reason="the year of 3 May 2003 is taken for June 4")
    def test_full_date_then_month_day(self, lexicon_en):
        found = [(m.surface, m.normal.to_string())
                 for m in extract_dates("Signed 3 May 2003, June 4 was next", lexicon_en)]
        assert ("3 May 2003", "2003-05-03") in found
        assert ("June 4", "--06-04") in found

    @pytest.mark.xfail(strict=True, reason="the year of May 2003 is taken for May 3")
    def test_year_month_between_dates(self, lexicon_en):
        found = [(m.surface, m.normal.to_string())
                 for m in extract_dates("3 May 2003, May 2003, May 3 and May", lexicon_en)]
        assert ("May 2003", "2003-05") in found

    def test_year_before_day_and_month_is_one_date(self, lexicon_en):
        # A fix must keep reading a year before "the 2nd of May" as its year.
        assert [(m.surface, m.normal.to_string())
                for m in extract_dates("1999, the 2nd of May", lexicon_en)] == [
            ("1999, the 2nd of May", "1999-05-02")]


# --------------------------------------------------------------------------
# the token-bounded left-context search against a search over the whole prefix

_LEFT_PATTERNS = ("re_day_left", "re_year_left", "re_premod")
# Each run draws from one of these alphabets, so that runs the patterns can
# cross ("[\s,]+", "[\s-]+") are as likely as runs they cannot.
_SEPARATOR_RUNS = st.sampled_from([" ", " ,", " \t\n\u00a0", " -", " \t\n,-\u00a0"]).flatmap(
    lambda alphabet: st.text(alphabet=alphabet, max_size=200))
_FILLER = ("report", "said", "Paris", "ago", "x", "Year", "2a", "of-the", "anul2")


def _left_words(lexicon):
    """One word: first a kind, then a surface of that kind, so that the few
    multi-word connectors are drawn as often as all day ordinals together."""
    days = list(lexicon.day_ordinals)
    kinds = [list(lexicon.connectors), days, ["1", "02", "31", "1999", "2003"],
             list(_FILLER), list(lexicon.pre_modifiers)]
    return st.sampled_from([k for k in kinds if k]).flatmap(st.sampled_from)


def _check_left_searches(lexicon, data):
    """Every left search, windowed, equals the search over the whole prefix."""
    sc = lexicon._scanner
    parts = data.draw(st.lists(st.tuples(_left_words(lexicon), _SEPARATOR_RUNS), max_size=24))
    text = ""
    ends = {0}
    for word, run in parts:
        text += word + run
        ends.add(len(text))
    ends.update(data.draw(st.lists(st.integers(0, len(text)), max_size=4)))
    rev = text[::-1]
    for name in _LEFT_PATTERNS:
        pattern = getattr(sc, name)
        if pattern is None:
            continue
        for end in ends:
            want = _found(pattern.search(text[:end]))
            assert _found(sc.search_left(pattern, text, rev, end)) == want


def _found(m):
    return m and (m.span(), m.groups())


@pytest.mark.parametrize("lexicon_name", ["lexicon_en", "lexicon_ro"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_windowed_left_search_equals_unbounded(lexicon_name, data, request):
    _check_left_searches(request.getfixturevalue(lexicon_name), data)


@pytest.mark.parametrize("lexicon_name", ["lexicon_en", "lexicon_ro"])
def test_windowed_left_search_finds_longest_day_context(lexicon_name, request):
    # The longest re_day_left match (longest connector, day and connector)
    # is found whole: the window holds one token more than it.
    lexicon = request.getfixturevalue(lexicon_name)
    sc = lexicon._scanner

    def longest(surfaces):
        return max(surfaces, key=lambda s: len(re.findall(r"[^\s,-]+", s)))

    conn = longest(lexicon.connectors)
    day = longest(lexicon.day_ordinals)
    text = "filler " * 20 + "%s , %s,\n%s   " % (conn, day, conn)
    m = sc.search_left(sc.re_day_left, text, text[::-1], len(text))
    assert (m.start(), m.group(1), m.group(2)) == (140, conn, day)


# --------------------------------------------------------------------------
# the sorted-span overlap checks against pairwise scans

_SEPARATORS = st.sampled_from(["", " ", " ", " ", ", ", "-", "-", "/", "."])


def _joined(words, max_size=30):
    return st.lists(st.tuples(words, _SEPARATORS), max_size=max_size).map(
        lambda pairs: "".join(word + sep for word, sep in pairs))


@settings(max_examples=200, deadline=None)
@given(_joined(st.sampled_from(("2003", "1999", "12", "31", "5", "03"))))
def test_numeric_iso_overlap_equals_pairwise(text):
    iso = [m.span() for m in dates._RE_NUM_YMD.finditer(text)]
    general = [m.span() for m in dates._RE_NUM_GEN.finditer(text)
               if not any(m.start() < e and m.end() > s for s, e in iso)]
    got = [(c.offset, c.offset + c.length) for c in find_numeric_dates(text)]
    assert got == sorted(iso + general)


@settings(max_examples=200, deadline=None)
@given(_joined(st.sampled_from(("2003", "1999", "12", "31", "5", "2nd", "the", "of", "May",
                                "March", "Jan.", "next", "last year", "today"))))
def test_overlap_resolution_equals_pairwise(lexicon_en, text):
    numeric = find_numeric_dates(text)
    order = infer_document_order(numeric, lexicon_en.default_order)
    matches = [m for c in numeric + find_lexical_dates(text, lexicon_en)
               if (m := normalize_match(c, order)) is not None]
    matches.sort(key=lambda m: (-m.length, m.offset))
    kept = []
    for m in matches:
        if not any(m.offset < k.offset + k.length and m.offset + m.length > k.offset
                   for k in kept):
            kept.append(m)
    assert extract_dates(text, lexicon_en) == sorted(kept, key=lambda m: m.offset)


# --------------------------------------------------------------------------
# extract_dates against the normalizer it replaced

_FIELD = st.sampled_from(["0", "1", "2", "9", "00", "01", "12", "13", "29", "30", "31", "99"])
_YEAR = st.sampled_from(["00", "15", "49", "50", "0000", "1999", "2003", "2004"])
_NUMERIC = st.one_of(
    st.tuples(_FIELD, st.sampled_from("/.-"), _FIELD, _YEAR).map(
        lambda t: "%s%s%s%s%s" % (t[0], t[1], t[2], t[1], t[3])),
    st.tuples(_YEAR, st.sampled_from("/.-"), _FIELD, _FIELD).map(
        lambda t: "%s%s%s%s%s" % (t[0], t[1], t[2], t[1], t[3])))


def _left_run(lexicon):
    """A year, two connectors, a day and a connector before a month, each but
    the day and month often left out: the longest contexts the left searches
    read."""
    def maybe(surfaces):
        return st.sampled_from(["", *surfaces])
    conn = maybe(lexicon.connectors)
    days = list(lexicon.day_ordinals)
    return st.tuples(maybe(["1999"]), conn, conn, st.sampled_from(["7", "31", *days]), conn,
                     st.sampled_from(list(lexicon.months))
                     ).map(lambda parts: " ".join(p for p in parts if p))


def _date_words(lexicon):
    """One word: first a kind, then a surface, number or numeric date of that kind.

    A month name with a number or pre-modifier before it and maybe a year or
    relative year after it is also drawn as one word, so that every kind of
    date, and days past the month's end ("30 February 1999"), are common.
    """
    months = list(lexicon.months)
    kinds = [months, list(lexicon.day_ordinals),
             list(lexicon.relative_days), list(lexicon.pre_modifiers),
             list(lexicon.relative_years), list(lexicon.connectors),
             list(lexicon.number_words), list(_FILLER)]
    before = st.sampled_from(["0", "2", "29", "30", "31", *lexicon.pre_modifiers])
    after = st.sampled_from(["", " 1999", " 2004", *(" " + s for s in lexicon.relative_years)])
    return st.one_of(st.sampled_from([k for k in kinds if k]).flatmap(st.sampled_from),
                     _FIELD, _YEAR, _NUMERIC,
                     st.tuples(before, st.sampled_from(months), after).map("%s %s%s".__mod__),
                     _left_run(lexicon))


def _records(matches):
    """Each match's fields, normal form included, whatever its classes."""
    def fields(n):
        return n and (n.kind, n.year, n.month, n.day, n.rel_offset, n.to_string())
    return [(m.offset, m.length, m.surface, fields(m.normal), fields(m.resolved))
            for m in matches]


@pytest.mark.parametrize("lexicon_name", ["lexicon_en", "lexicon_ro"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_extract_dates_equals_oracle(lexicon_name, data, request):
    lexicon = request.getfixturevalue(lexicon_name)
    text = data.draw(_joined(_date_words(lexicon), 24))
    order = data.draw(st.sampled_from([None, dates.ORDER_DMY, dates.ORDER_MDY]))
    reject = data.draw(st.booleans())
    reference = data.draw(st.none() | st.dates(datetime.date(1900, 1, 1),
                                               datetime.date(2100, 12, 31)))
    got, want = [], []
    matches = extract_dates(text, lexicon, reference, order, reject, got)
    expected = dates_oracle.extract_dates(text, lexicon, reference, order, reject, want)
    assert _records(matches) == _records(expected)
    assert got == want


# --------------------------------------------------------------------------
# any lexicon the loader accepts

# Pieces of generated surfaces: mixed case, punctuation, digits and separators.
_PIECES = st.sampled_from(["May", "mai", "Ma", "x", "é", "ß", "7", "99", "of", "The", "Two",
                           ".", ",", "'", " ", "-", "\u00a0"])
_SURFACE = st.lists(_PIECES, min_size=1, max_size=3).map("".join)
_INT_SECTIONS = {
    "relative_days": st.one_of(st.integers(-3, 3), st.sampled_from([10 ** 9, -10 ** 30])),
    "pre_modifiers": st.integers(-2, 2),
    "relative_years": st.one_of(st.integers(-3, 3), st.just(10 ** 30)),
    "number_words": st.sampled_from([0, 1, 2, 9, 10, 19, 20, 40, 99, 1000]),
}


@st.composite
def _lexicon_file(draw):
    """A lexicon file whose surfaces differ, so that most drawn files load."""
    pool = draw(st.lists(_SURFACE, min_size=40, max_size=40, unique_by=str.strip))

    def take(sizes):
        taken = pool[:draw(sizes)]
        del pool[:len(taken)]
        return taken

    lines = ["[meta]", "default_order = " + draw(st.sampled_from(["dmy", "mdy"])), "[months]"]
    lines += ["%d = %s" % (i, "|".join(take(st.integers(1, 2)))) for i in range(1, 13)]
    lines.append("[day_ordinals]")
    lines += ["%d = %s" % (day, "|".join(take(st.integers(0, 2))))
              for day in draw(st.sets(st.integers(1, 31), max_size=4))]
    for section, values in _INT_SECTIONS.items():
        lines.append("[%s]" % section)
        lines += ["%s = %d" % (key, draw(values)) for key in take(st.integers(0, 4))]
    lines.append("[connectors]")
    lines += take(st.integers(0, 3))
    return "\n".join(lines) + "\n"


def _load_generated(tmp_path_factory, source):
    """The lexicon of a generated file; None when the loader rejects it."""
    path = tmp_path_factory.getbasetemp() / "generated.lex"
    path.write_text(source, encoding="utf-8")
    try:
        return load_date_lexicon(path)
    except LoadError:
        return None


def _lexicon_words(lexicon):
    return st.sampled_from(list(lexicon.months)
                           + list(lexicon.day_ordinals)
                           + [*lexicon.relative_days, *lexicon.pre_modifiers,
                              *lexicon.relative_years, *lexicon.connectors,
                              *lexicon.number_words, "7", "1999", "x"])


@settings(max_examples=120, deadline=None)
@given(source=_lexicon_file(), data=st.data(),
       reference=st.sampled_from([datetime.date.min, datetime.date.max]) | st.dates())
def test_generated_lexicon_extracts_or_raises_placetime_error(tmp_path_factory, source, data,
                                                              reference):
    lexicon = _load_generated(tmp_path_factory, source)
    if lexicon is None:
        return
    text = data.draw(_joined(_lexicon_words(lexicon), 16))
    try:
        matches = extract_dates(text, lexicon, reference=reference)
    except PlacetimeError:
        return
    for m in matches:
        assert m.length > 0 and text[m.offset:m.offset + m.length] == m.surface


# The same, against the lookbehind-led scans and per-search windows of the
# oracle.  Text mixes the lexicon's surfaces with numeric dates, fields, a
# non-ASCII digit and runs of years, connectors and days before a month, where
# the left searches reach furthest.

def _scan_words(lexicon):
    return st.one_of(_lexicon_words(lexicon), _NUMERIC, _FIELD, _YEAR, st.just("\u0663"),
                     _left_run(lexicon))


@settings(max_examples=100, deadline=None)
@given(source=_lexicon_file(), data=st.data())
def test_generated_lexicon_scans_equal_lookbehind_led(tmp_path_factory, source, data):
    lexicon = _load_generated(tmp_path_factory, source)
    assume(lexicon is not None)
    sc = lexicon._scanner
    text = data.draw(_joined(_scan_words(lexicon), 24))
    pairs = [(sc.re_month, dates_oracle.month_pattern(lexicon)),
             (dates._RE_NUM_YMD, dates_oracle.RE_NUM_YMD),
             (dates._RE_NUM_GEN, dates_oracle.RE_NUM_GEN)]
    if lexicon.relative_days:
        pairs.append((sc.re_relday, dates_oracle.relday_pattern(lexicon)))
    for new, old in pairs:
        assert list(map(_found, new.finditer(text))) == list(map(_found, old.finditer(text)))


# The shipped lexicons hold non-ASCII letters that the generated ones seldom
# do; each surface is also glued to word characters of several scripts.
_GLUE = ("x", "_", "3", "\u00c9", "\u0663")


@pytest.mark.parametrize("lexicon_name", ["lexicon_en", "lexicon_ro"])
def test_shipped_lexicon_scans_equal_lookbehind_led(lexicon_name, request, corpus_dir):
    lexicon = request.getfixturevalue(lexicon_name)
    sc = lexicon._scanner
    docs = [p.read_text(encoding="utf-8") for p in sorted(corpus_dir.glob("*.txt"))]
    for new, old, surfaces in (
            (sc.re_month, dates_oracle.month_pattern(lexicon),
             list(lexicon.months)),
            (sc.re_relday, dates_oracle.relday_pattern(lexicon), list(lexicon.relative_days))):
        glued = [text for s in surfaces for g in _GLUE
                 for text in (s, g + s, s + g, g + s + g, "%s %s %s" % (g, s, g))]
        found = 0
        for text in docs + glued:
            want = [(m.span(), m.group(1)) for m in old.finditer(text)]
            assert [(m.span(), m.group(1)) for m in new.finditer(text)] == want, text
            found += len(want)
        assert found >= 2 * len(surfaces)  # each bare and spaced surface at least


@settings(max_examples=100, deadline=None)
@given(source=_lexicon_file(), data=st.data())
def test_generated_lexicon_windowed_left_search_equals_unbounded(tmp_path_factory, source,
                                                                 data):
    lexicon = _load_generated(tmp_path_factory, source)
    assume(lexicon is not None)
    _check_left_searches(lexicon, data)


def _oracle_records(text, lexicon, *args):
    """The oracle's records, or None where dates raises: a resolved year out of range."""
    try:
        matches = dates_oracle.extract_dates(text, lexicon, *args)
    except OverflowError:
        return None
    if any(m.resolved and not 1 <= m.resolved.year <= 9999 for m in matches):
        return None
    return _records(matches)


@settings(max_examples=100, deadline=None)
@given(source=_lexicon_file(), data=st.data())
def test_generated_lexicon_extract_dates_equals_oracle(tmp_path_factory, source, data):
    lexicon = _load_generated(tmp_path_factory, source)
    assume(lexicon is not None)
    text = data.draw(_joined(_scan_words(lexicon), 24))
    args = (data.draw(st.none() | st.sampled_from([datetime.date.min, datetime.date.max])
                      | st.dates()),
            data.draw(st.sampled_from([None, dates.ORDER_DMY, dates.ORDER_MDY])),
            data.draw(st.booleans()))
    got, want = [], []
    try:
        records = _records(extract_dates(text, lexicon, *args, got))
    except PlacetimeError:
        records = None
    assert records == _oracle_records(text, lexicon, *args, want)
    assert got == want
