import calendar
import datetime
import re
from itertools import combinations
from typing import NamedTuple

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from placetime import dates
from placetime.dates import (DateKind, NormalizedDate, extract_dates,
                             find_lexical_dates, find_numeric_dates,
                             infer_document_order, load_date_lexicon,
                             normalize_match, resolve_relative)
from placetime.errors import ConfigError, ContractError, LoadError, PlacetimeError

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

    @pytest.mark.parametrize("kind, fields, message", [
        (DateKind.YEAR_MONTH, {"year": 2003, "month": 5, "day": 2},
         "year_month: field day unexpected for kind DateKind.YEAR_MONTH"),
        (DateKind.RELATIVE_DAY, {"month": 5, "rel_offset": 1},
         "relative_day: field month unexpected for kind DateKind.RELATIVE_DAY"),
        (DateKind.FULL, {"year": 2003, "month": 5},
         "full: field day required for kind DateKind.FULL"),
        (DateKind.MONTH_RELATIVE_YEAR, {"month": 5},
         "month_relative_year: field rel_offset required for kind "
         "DateKind.MONTH_RELATIVE_YEAR"),
        (DateKind.MONTH_DAY, {"month": 13, "day": 2}, "month 13 outside 1..12"),
        (DateKind.YEAR_MONTH, {"year": 2003, "month": 0}, "month 0 outside 1..12"),
        (DateKind.FULL, {"year": 2003, "month": 2, "day": 29},
         "day 29 invalid for month 2 year 2003"),
        (DateKind.FULL, {"year": 1900, "month": 2, "day": 29},
         "day 29 invalid for month 2 year 1900"),
        (DateKind.MONTH_DAY, {"month": 4, "day": 31}, "day 31 invalid for month 4 year None"),
        (DateKind.FULL, {"year": 2004, "month": 1, "day": 0},
         "day 0 invalid for month 1 year 2004"),
    ])
    def test_rule_messages(self, kind, fields, message):
        # --diagnostics prints these messages as discard reasons.
        with pytest.raises(ValueError) as info:
            NormalizedDate(kind, **fields)
        assert str(info.value) == message

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
        ("1 = first", "1 = 1st|first,",
         "{path}:18: 'first,' in [day_ordinals] starts or ends with ',' or '-'"),
        ("next = +1", "-next = +1",
         "{path}:22: '-next' in [pre_modifiers] starts or ends with ',' or '-'"),
        ("\nof\n", "\nof 2\n", "{path}:26: connector 'of 2' holds a digit"),
        ("\nof\n", "\nOf First\n",
         "{path}:26: connector 'Of First' holds a day-ordinal word"),
        ("today = 0", "m3 today = 0", "{path}:20: 'm3' and 'm3 today' can overlap in a text"),
    ])
    def test_single_fault_message(self, tmp_path, old, new, message):
        path = tmp_path / "x.lex"
        assert self._VALID.count(old) == 1
        path.write_text(self._VALID.replace(old, new), encoding="utf-8")
        with pytest.raises(LoadError) as excinfo:
            load_date_lexicon(path)
        assert str(excinfo.value) == message.format(path=path)

    @pytest.mark.parametrize("month, relative_day", [
        ("m12 x", "x"), ("x m12", "x"), ("m12.x", "x"), ("m12 x", "x y"), ("x.m12", "y x"),
        ("x", "m12 x"), ("x y", "m12 x"), ("m12 x", "m12 x y")])
    def test_overlapping_anchors_rejected(self, tmp_path, month, relative_day):
        # A text can hold both as overlapping whole words, where the one anchor
        # scan finds only one of them.
        path = tmp_path / "x.lex"
        path.write_text(self._VALID.replace("12 = m12", "12 = m12|" + month)
                        .replace("today = 0", relative_day + " = 0"), encoding="utf-8")
        with pytest.raises(LoadError, match="can overlap in a text$"):
            load_date_lexicon(path)

    @pytest.mark.parametrize("month, relative_day", [
        ("m12x", "x"), ("xm12", "x"), ("m12 x", "xy"), ("m12 x", "y x"), ("x_y", "y")])
    def test_anchors_that_cannot_overlap_load(self, tmp_path, month, relative_day):
        path = tmp_path / "x.lex"
        path.write_text(self._VALID.replace("12 = m12", "12 = m12|" + month)
                        .replace("today = 0", relative_day + " = 0"), encoding="utf-8")
        assert relative_day in load_date_lexicon(path).relative_days

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
        with pytest.raises(ConfigError, match="^default order must be dmy or mdy, got 'ymd'$"):
            extract_dates("01/02/03", lexicon_en, default_order="ymd")

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

    @pytest.mark.parametrize("text, expected", [
        ("Signed 5 May two thousand and two.", [("5 May two thousand and two", "2002-05-05")]),
        ("May 5, two thousand and two", [("May 5, two thousand and two", "2002-05-05")]),
        ("5 May two thousand", [("5 May two thousand", "2000-05-05")]),
        # The thousand form of a spelled year only counts inside a full date.
        ("In May two thousand and two.", []),
    ])
    def test_spelled_thousand_year(self, lexicon_en, text, expected):
        found = extract_dates(text, lexicon_en)
        assert [(m.surface, m.normal.to_string()) for m in found] == expected
        assert _records(found) == _records(dates_oracle.extract_dates(text, lexicon_en))

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
         [("3 May 2003", "2003-05-03"), ("May 2003", "2003-05"), ("May 3", "--05-03")]),
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
    """A token that ends one date, numeric or lexical, is not read again as the
    left context of the next month."""

    def test_full_date_then_month_day(self, lexicon_en):
        found = [(m.surface, m.normal.to_string())
                 for m in extract_dates("Signed 3 May 2003, June 4 was next", lexicon_en)]
        assert ("3 May 2003", "2003-05-03") in found
        assert ("June 4", "--06-04") in found

    def test_year_month_between_dates(self, lexicon_en):
        found = [(m.surface, m.normal.to_string())
                 for m in extract_dates("3 May 2003, May 2003, May 3 and May", lexicon_en)]
        assert ("May 2003", "2003-05") in found

    def test_year_before_day_and_month_is_one_date(self, lexicon_en):
        # A fix must keep reading a year before "the 2nd of May" as its year.
        assert [(m.surface, m.normal.to_string())
                for m in extract_dates("1999, the 2nd of May", lexicon_en)] == [
            ("1999, the 2nd of May", "1999-05-02")]

    @pytest.mark.parametrize("text, expected", [
        ("Filed 12/05/2003, June 4 was next.",
         [("12/05/2003", "2003-05-12"), ("June 4", "--06-04")]),
        ("Met May 3, 1999, the 2nd of May.",
         [("May 3, 1999", "1999-05-03"), ("2nd of May", "--05-02")]),
        ("From 2003-05-12, June 4 on.",
         [("2003-05-12", "2003-05-12"), ("June 4", "--06-04")]),
        # A numeric candidate claims its tokens though normalization discards it.
        ("On 31/02/2003 May was cold.", []),
        # No left context starts inside the word a numeric date ends.
        ("Filed 12/05/2003first June, 12/05/2003next June.",
         [("12/05/2003", "2003-05-12"), ("12/05/2003", "2003-05-12")]),
        # A day on a month's right goes to the next month when that month
        # reads it as its own left day.
        ("In May, 12 June 2003", [("12 June 2003", "2003-06-12")]),
        ("May, the 12th of June 2003", [("12th of June 2003", "2003-06-12")]),
        # A month-anchored date claims its tokens though normalization
        # discards it: alone, "2003 May" is a date.
        ("Due February 30, 2003 May was cold.", []),
        ("In May, 31 June", []),
        # So a day between two months is ambiguous.  It goes to the later one
        # unless that one reads a day on its right (more cases last, so the
        # other ids keep their numbers); a year goes to the month before it.
        ("May 3, June 4", [("May 3", "--05-03"), ("June 4", "--06-04")]),
        ("May 3, 2004 June", [("May 3, 2004", "2004-05-03")]),
        ("next May, 2004 June", [("May, 2004", "2004-05")]),
        # A right context stops at the next numeric date.
        ("X this June, 31/08/1981 y.", [("this June", "M06+0"), ("31/08/1981", "1981-08-31")]),
        ("X Nov. twenty fifteen and 1959-12-16 y.",
         [("Nov. twenty fifteen", "2015-11"), ("1959-12-16", "1959-12-16")]),
        # A spelled year is the longest run of number words that composes one
        # and does not end in a join word.
        ("In May twenty seventeen and rain fell.", [("May twenty seventeen", "2017-05")]),
        ("X Jul nineteen fourteen twenty-fourth May y.",
         [("Jul nineteen fourteen", "1914-07"), ("twenty-fourth May", "--05-24")]),
        ("May 3, June 2004", [("3, June 2004", "2004-06-03")]),
        ("May 3, June 4, 2004", [("May 3", "--05-03"), ("June 4, 2004", "2004-06-04")]),
    ])
    def test_shapes(self, lexicon_en, text, expected):
        assert [(m.surface, m.normal.to_string())
                for m in extract_dates(text, lexicon_en)] == expected

    # A month's right context stops at the next date, so neither is lost or
    # cut short.
    @pytest.mark.parametrize("text, expected", [
        ("Signed June 4, 2003-05-12 was filed.",
         [("June 4", "--06-04"), ("2003-05-12", "2003-05-12")]),
        ("In September, 3 May 2003", [("3 May 2003", "2003-05-03")]),
        ("In May 2003, 4 June was next.", [("May 2003", "2003-05"), ("4 June", "--06-04")]),
    ])
    def test_right_context_stops_at_the_next_date(self, lexicon_en, text, expected):
        assert [(m.surface, m.normal.to_string())
                for m in extract_dates(text, lexicon_en)] == expected


# The phrase shapes that take a surface from a lexicon section, and the section.
_SHAPE_SECTIONS = {"relative_day": "relative_days", "relative_year": "relative_years",
                   "pre_modifier": "pre_modifiers", "spelled_year": "number_words"}


class _Phrase(NamedTuple):
    """A date phrase, its normal form and the kinds of its first and last token
    that a neighbouring date can read: ``lead`` is "year" for a year before
    the month and "month" for a phrase that starts with a month that reads no
    day on its right; ``trail`` is "day" for a day on the month's right and
    "month" for a month that has no year and reads its right."""

    text: str
    normal: str
    lead: str | None = None
    trail: str | None = None


def _spelled(lexicon, number):
    """``number``, 10..99, in the lexicon's number words."""
    word = {v: k for k, v in lexicon.number_words.items()}
    if number < 20 or number % 10 == 0:
        return word[number]
    return "%s %s" % (word[number - number % 10], word[number % 10])


@st.composite
def _phrase(draw, lexicon):
    """One date phrase built from the lexicon's entries: a full date, spelled
    or numeric, a month with a day or a year (spelled or not), a relative day
    or a month with a relative year or a pre-modifier.  A day is a number or
    one of its day ordinals."""
    shapes = ["full", "numeric", "iso", "month_day", "year_month", *_SHAPE_SECTIONS]
    shape = draw(st.sampled_from([s for s in shapes if s not in _SHAPE_SECTIONS
                                  or getattr(lexicon, _SHAPE_SECTIONS[s])]))
    n = draw(st.integers(1, 12))
    month = draw(st.sampled_from([s for s, v in lexicon.months.items() if v == n]))
    day = draw(st.integers(1, 28))
    year = draw(st.integers(1950, 2049))
    full = "%04d-%02d-%02d" % (year, n, day)
    spoken = draw(st.sampled_from([str(day), *(s for s, v in lexicon.day_ordinals.items()
                                                if v == day)]))
    if shape == "full":
        return draw(st.sampled_from([_Phrase("%s %s %d" % (spoken, month, year), full),
                                     _Phrase("%s %s, %d" % (month, spoken, year), full)]))
    if shape == "numeric":       # a day past 12 forces day-month-year
        day = draw(st.integers(13, 28))
        return _Phrase("%d/%02d/%d" % (day, n, year), "%04d-%02d-%02d" % (year, n, day))
    if shape == "iso":
        return _Phrase("%d-%02d-%02d" % (year, n, day), full)
    if shape == "month_day":
        normal = "--%02d-%02d" % (n, day)
        return draw(st.sampled_from([_Phrase("%s %s" % (month, spoken), normal, None, "day"),
                                     _Phrase("%s %s" % (spoken, month), normal, None, "month")]))
    if shape == "year_month":
        normal = "%04d-%02d" % (year, n)
        return draw(st.sampled_from([_Phrase("%s %d" % (month, year), normal, "month"),
                                     _Phrase("%d %s" % (year, month), normal, "year")]))
    if shape == "spelled_year":
        year = draw(st.integers(1910, 2029).filter(lambda y: y % 100 >= 10))
        return _Phrase("%s %s %s" % (month, _spelled(lexicon, year // 100),
                                     _spelled(lexicon, year % 100)),
                       "%04d-%02d" % (year, n), "month")
    table = getattr(lexicon, _SHAPE_SECTIONS[shape])
    surface = draw(st.sampled_from(sorted(table)))
    if shape == "relative_day":
        return _Phrase(surface, "D%+d" % table[surface])
    if shape == "relative_year":
        return _Phrase("%s %s" % (month, surface), "M%02dY%+d" % (n, table[surface]), "month")
    return _Phrase("%s %s" % (surface, month), "M%02d%+d" % (n, table[surface]), None, "month")


def _read(text, lexicon, base=0):
    return [(base + m.offset, m.surface, m.normal.to_string())
            for m in extract_dates(text, lexicon)]


@pytest.mark.parametrize("lexicon_name", ["lexicon_en", "lexicon_ro"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_neighbouring_dates_keep_their_own_forms(lexicon_name, data, request):
    lexicon = request.getfixturevalue(lexicon_name)
    first, second = data.draw(_phrase(lexicon)), data.draw(_phrase(lexicon))
    joint = data.draw(st.sampled_from([", ", " and ", "; ", " "]))
    text = first.text + joint + second.text
    # Across a joint of separators only, two readings are ambiguous, and the
    # rules of ``find_lexical_dates`` choose: a day on a month's right goes to
    # a month after it that reads it as its left day and no day on its right
    # ("May 3, June 2004" gives "3, June 2004"), and a year goes to the month
    # before it ("May 3, 2004 June" gives "May 3, 2004").  Each side of the
    # token that moves then reads as it does alone.
    cut = None
    if joint in (", ", " ") and first.trail == "day" and second.lead == "month":
        cut = first.text.rindex(" ") + 1
    elif joint in (", ", " ") and first.trail and second.lead == "year":
        cut = len(first.text + joint) + second.text.index(" ")
    if cut is None:
        expected = [(0, first.text, first.normal),
                    (len(first.text + joint), second.text, second.normal)]
    else:
        expected = _read(text[:cut], lexicon) + _read(text[cut:], lexicon, cut)
    assert _read(text, lexicon) == expected


# --------------------------------------------------------------------------
# the reversed left-context reads against the forward searches of the oracle

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
    """Every reversed left read, with no floor and with drawn floors, equals the
    forward search over the prefix from the floor."""
    parts = data.draw(st.lists(st.tuples(_left_words(lexicon), _SEPARATOR_RUNS), max_size=24))
    text = ""
    ends = {0}
    for word, run in parts:
        text += word + run
        ends.add(len(text))
    ends.update(data.draw(st.lists(st.integers(0, len(text)), max_size=4)))
    floors = {0, *data.draw(st.lists(st.integers(0, len(text)), max_size=4))}
    _check_left_text(lexicon, text, ends, floors)


def _read_left(pattern, text, floor, end):
    """Reversed ``pattern`` on the reversed text from ``end`` back to ``floor``,
    as ``find_lexical_dates`` reads a left context."""
    n = len(text)
    return pattern.match(text[::-1], n - end, n - dates._left_floor(text, floor))


def _check_left_text(lexicon, text, ends, floors):
    """At each end and each floor before it, every reversed left read (``rev_<name>``)
    finds the span and the groups, with their spans, of the forward search from
    the floor (``dates_oracle.left_patterns``)."""
    sc = lexicon._scanner
    for name, forward in dates_oracle.left_patterns(lexicon).items():
        reverse = getattr(sc, "rev_" + name)
        for end in ends:
            for floor in floors:
                if floor <= end:
                    want = _found(forward.search(text, floor, end))
                    got = _found_reversed(_read_left(reverse, text, floor, end), len(text))
                    assert got == want, (name, floor, end)


def _found(m):
    return m and (m.span(), [(m.span(i), m.group(i)) for i in range(1, m.re.groups + 1)])


def _found_reversed(m, n):
    """``_found`` of the forward match that reversed match ``m`` reads, in a text of ``n``."""
    def span(i):
        return (-1, -1) if m.start(i) < 0 else (n - m.end(i), n - m.start(i))
    return m and (span(0), [(span(i), m.group(i) and m.group(i)[::-1])
                            for i in range(m.re.groups, 0, -1)])


@pytest.mark.parametrize("lexicon_name", ["lexicon_en", "lexicon_ro"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_windowed_left_search_equals_unbounded(lexicon_name, data, request):
    _check_left_searches(request.getfixturevalue(lexicon_name), data)


@pytest.mark.parametrize("lexicon_name", ["lexicon_en", "lexicon_ro"])
def test_windowed_left_search_finds_longest_day_context(lexicon_name, request):
    # The longest day context (longest connector, day and connector) is read whole.
    lexicon = request.getfixturevalue(lexicon_name)
    sc = lexicon._scanner

    def longest(surfaces):
        return max(surfaces, key=lambda s: len(re.findall(r"[^\s,-]+", s)))

    conn = longest(lexicon.connectors)
    day = longest(lexicon.day_ordinals)
    text = "filler " * 20 + "%s , %s,\n%s   " % (conn, day, conn)
    m = _read_left(sc.rev_day_left, text, 0, len(text))
    assert _found_reversed(m, len(text))[1] == [((140, 140 + len(conn)), conn),
                                                ((143 + len(conn), 143 + len(conn + day)), day)]


# --------------------------------------------------------------------------
# the sorted-span overlap checks against pairwise scans

_SEPARATORS = st.sampled_from(["", " ", " ", " ", ", ", "-", "-", "/", "."])


def _joined(words, max_size=30):
    return st.lists(st.tuples(words, _SEPARATORS), max_size=max_size).map(
        lambda pairs: "".join(word + sep for word, sep in pairs))


@settings(max_examples=200, deadline=None)
@given(_joined(st.sampled_from(("2003", "1999", "12", "31", "5", "03", "x", "May", "\u0663"))))
def test_numeric_iso_overlap_equals_pairwise(text):
    iso = [m.span() for m in dates._RE_NUM_YMD.finditer(text)]
    general = [m.span() for m in dates._RE_NUM_GEN.finditer(text)
               if not any(m.start() < e and m.end() > s for s, e in iso)]
    got = [(c.offset, c.offset + c.length) for c in find_numeric_dates(text)]
    assert got == sorted(iso + general)


class TestNumericPrefilter:
    """Both numeric scans start a few characters before the first
    digit-separator-digit pair, and do not run without one."""

    @pytest.mark.parametrize("surface", ["1/2/03", "12.5.2003", "2003-05-06", "31-12-99"])
    @pytest.mark.parametrize("before", ["", "7 ", "x", "12 ", "- ", "a.b/c "])
    def test_first_separator_within_lead(self, before, surface):
        # The first separator lies 1, 2 or 4 characters after the start.
        found = [(c.offset, c.surface) for c in find_numeric_dates(before + surface)]
        assert found == [(len(before), surface)]

    def test_candidate_at_end_of_long_text(self):
        text = "no digits here, only words. " * 2000 + "31.12.2003"
        found = [(c.offset, c.surface) for c in find_numeric_dates(text)]
        assert found == [(len(text) - 10, "31.12.2003")]

    @pytest.mark.parametrize("text", ["", "2003 05 06", "1-a a-1 12..5 5/ 6 -7 8-",
                                      "in 1999, then 2003; 12 / 5", "4.", ".4"])
    def test_no_digit_separator_digit_pair(self, text):
        assert find_numeric_dates(text) == []

    @pytest.mark.parametrize("text, fields", [
        ("\u0661/\u0662/\u0660\u0663", ("\u0661", "\u0662", "\u0660\u0663", False)),
        ("\u0662\u0660\u0660\u0663-\u0660\u0665-\u0660\u0666",
         ("\u0662\u0660\u0660\u0663", "\u0660\u0665", "\u0660\u0666", True)),
    ])
    def test_non_ascii_digits_stay_candidates(self, text, fields):
        (c,) = find_numeric_dates("on " + text)
        assert (c.offset, c.surface, c.f1, c.f2, c.f3, c.ymd) == (3, text, *fields)


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


def _check_disjoint(text, lexicon):
    """The normalised numeric matches and the lexical ones share no character."""
    numeric = find_numeric_dates(text)
    order = infer_document_order(numeric, lexicon.default_order)
    matches = [m for c in numeric if (m := normalize_match(c, order)) is not None]
    matches += find_lexical_dates(text, lexicon, numeric)
    spans = [(m.offset, m.offset + m.length) for m in matches]
    assert [(a, b) for a, b in combinations(spans, 2) if a[0] < b[1] and b[0] < a[1]] == []


@pytest.mark.parametrize("lexicon_name", ["lexicon_en", "lexicon_ro"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_numeric_and_lexical_matches_are_disjoint(lexicon_name, data, request):
    lexicon = request.getfixturevalue(lexicon_name)
    _check_disjoint(data.draw(_joined(_date_words(lexicon), 24)), lexicon)


# --------------------------------------------------------------------------
# any lexicon the loader accepts

# Pieces of generated surfaces: mixed case, punctuation, digits and separators.
_PIECES = st.sampled_from(["May", "mai", "Ma", "x", "é", "ß", "7", "99", "of", "The", "Two",
                           ".", ",", "'", " ", "-", "\u00a0"])
_SURFACE = st.lists(_PIECES, min_size=1, max_size=3).map("".join)
_EDGES = r"^[\s,-]+|[\s,-]+$"
_INT_SECTIONS = {
    "relative_days": st.one_of(st.integers(-3, 3), st.sampled_from([10 ** 9, -10 ** 30])),
    "pre_modifiers": st.integers(-2, 2),
    "relative_years": st.one_of(st.integers(-3, 3), st.just(10 ** 30)),
    "number_words": st.sampled_from([0, 1, 2, 9, 10, 19, 20, 40, 99, 1000]),
}


@st.composite
def _lexicon_file(draw):
    """A lexicon file whose surfaces differ, so that most drawn files load.

    Connectors, day ordinals and pre-modifiers lose the separators at their
    ends, and connectors their digits, which the loader refuses.
    """
    pool = draw(st.lists(_SURFACE, min_size=40, max_size=40,
                         unique_by=lambda s: re.sub(_EDGES, "", s)))

    def take(sizes, trim=None):
        taken = pool[:draw(sizes)]
        del pool[:len(taken)]
        if trim is not None:
            taken = [t for t in (re.sub(trim, "", s) for s in taken) if t]
        return taken

    lines = ["[meta]", "default_order = " + draw(st.sampled_from(["dmy", "mdy"])), "[months]"]
    lines += ["%d = %s" % (i, "|".join(take(st.integers(1, 2)))) for i in range(1, 13)]
    months = [s.strip() for line in lines[3:] for s in line.partition(" = ")[2].split("|")]
    lines.append("[day_ordinals]")
    lines += ["%d = %s" % (day, "|".join(take(st.integers(0, 2), _EDGES)))
              for day in draw(st.sets(st.integers(1, 31), max_size=4))]
    for section, values in _INT_SECTIONS.items():
        keys = take(st.integers(0, 4), _EDGES if section == "pre_modifiers" else None)
        if section == "relative_days":
            # None that the loader refuses for overlapping a month.
            keys = [k for k in keys if not any(_can_overlap(m, k.strip()) for m in months)]
        lines.append("[%s]" % section)
        lines += ["%s = %d" % (key, draw(values)) for key in keys]
    lines.append("[connectors]")
    lines += take(st.integers(0, 3), _EDGES + r"|\d")
    return "\n".join(lines) + "\n"


def _can_overlap(a, b):
    """Whether one text can hold ``a`` and ``b`` as overlapping whole words.

    Each placement of one starting inside the other that agrees on the shared
    characters is tried in the shortest text holding both, whose ends are the
    only characters around them that a longer text could change.
    """
    for x, y in ((a, b), (b, a)):
        for d in range(len(x)):         # y starts at x[d]
            text = x + y[len(x) - d:]
            if (text[d:d + len(y)] == y and _whole_word(x, text, 0)
                    and _whole_word(y, text, d)):
                return True
    return False


def _whole_word(surface, text, pos):
    return re.compile(r"(?<!\w)%s(?!\w)" % re.escape(surface)).match(text, pos) is not None


_ANCHOR_PIECES = st.sampled_from(["m1", "m", "x", "y", "_", "3", "\u00e9", " ", ".", "-"])


@settings(max_examples=300, deadline=None)
@given(months=st.lists(st.lists(_ANCHOR_PIECES, min_size=1, max_size=4).map("".join),
                       min_size=1, max_size=3),
       relative_days=st.lists(st.lists(_ANCHOR_PIECES, min_size=1, max_size=4).map("".join),
                              min_size=1, max_size=3))
def test_loader_refuses_exactly_overlapping_anchors(tmp_path_factory, months, relative_days):
    months = sorted({"m12" + m.strip() for m in months} - {"m12"})
    others = ["m%d" % i for i in range(1, 12)]
    relative_days = sorted({r.strip() for r in relative_days} - {""} - set(months + others))
    assume(months and relative_days)
    path = tmp_path_factory.getbasetemp() / "anchors.lex"
    path.write_text("[months]\n" + "".join("%d = m%d\n" % (i, i) for i in range(1, 12))
                    + "12 = " + "|".join(months) + "\n[relative_days]\n"
                    + "".join("%s = 0\n" % r for r in relative_days), encoding="utf-8")
    overlapping = any(_can_overlap(m, r) for m in months + others for r in relative_days)
    if overlapping:
        with pytest.raises(LoadError, match="can overlap in a text$"):
            load_date_lexicon(path)
    else:
        assert sorted(load_date_lexicon(path).relative_days) == relative_days


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
    text = data.draw(_joined(_scan_words(lexicon), 24))
    assert _anchors(lexicon._scanner.re_anchor, text) == _oracle_anchors(lexicon, text)
    for new, old in ((dates._RE_NUM_YMD, dates_oracle.RE_NUM_YMD),
                     (dates._RE_NUM_GEN, dates_oracle.RE_NUM_GEN)):
        assert list(map(_found, new.finditer(text))) == list(map(_found, old.finditer(text)))


def _anchors(pattern, text):
    return [(m.span(), m.group(1)) for m in pattern.finditer(text)]


def _oracle_anchors(lexicon, text):
    """The months and relative days of the two lookbehind-led scans, in offset order."""
    return sorted(_anchors(dates_oracle.month_pattern(lexicon), text)
                  + _anchors(dates_oracle.relday_pattern(lexicon), text))


# The shipped lexicons hold non-ASCII letters that the generated ones seldom
# do; each surface is also glued to word characters of several scripts.
_GLUE = ("x", "_", "3", "\u00c9", "\u0663")


@pytest.mark.parametrize("lexicon_name", ["lexicon_en", "lexicon_ro"])
def test_shipped_lexicon_scans_equal_lookbehind_led(lexicon_name, request, corpus_dir):
    lexicon = request.getfixturevalue(lexicon_name)
    docs = [p.read_text(encoding="utf-8") for p in sorted(corpus_dir.glob("*.txt"))]
    surfaces = [*lexicon.months, *lexicon.relative_days]
    glued = [text for s in surfaces for g in _GLUE
             for text in (s, g + s, s + g, g + s + g, "%s %s %s" % (g, s, g))]
    found = 0
    for text in docs + glued:
        want = _oracle_anchors(lexicon, text)
        assert _anchors(lexicon._scanner.re_anchor, text) == want, text
        found += len(want)
    assert found >= 2 * len(surfaces)  # each bare and spaced surface at least


@settings(max_examples=100, deadline=None)
@given(source=_lexicon_file(), data=st.data())
def test_generated_lexicon_windowed_left_search_equals_unbounded(tmp_path_factory, source,
                                                                 data):
    lexicon = _load_generated(tmp_path_factory, source)
    assume(lexicon is not None)
    _check_left_searches(lexicon, data)


def _months_and(sections):
    return ("[months]\n" + "".join("%d = m%d\n" % (i, i) for i in range(1, 13) if i != 5)
            + "5 = May\n" + sections)


# A lexicon whose day ordinal is "," and whose connector holds a month name:
# on "May.99 , May" the forward day_left match is "May.99 , " and the reversed
# one only "99 , ".  The loader refuses it.
_PROBE_SPAN_LEXICON = _months_and("[day_ordinals]\n2 = ,\n[connectors]\nMay.99\n")
# Connectors and day ordinals that hold separators and punctuation, and a
# connector that is a month name.
_WORDY_LEXICON = _months_and("[day_ordinals]\n2 = x|x.y\n3 = The Two\n"
                             "[pre_modifiers]\nof.x = 1\nx.x = -1\n[connectors]\nof\nof of\nMay\n")


@settings(max_examples=60, deadline=None)
@given(source=_lexicon_file(),
       text=st.lists(_PIECES | st.sampled_from(["1999", "3", "31", " , ", "\t", "May.99"]),
                     max_size=30).map("".join),
       floors=st.lists(st.integers(0, 60), min_size=1, max_size=4))
@example(source=_WORDY_LEXICON, text="1999 of The Two of x.y, of of x.x of.x May",
         floors=[0, 1, 4, 5, 9, 16, 19, 30])
# A floor inside the word "ab": the day ".x" cannot start just after that word.
@example(source=_months_and("[day_ordinals]\n2 = .x\n"), text="ab.x May", floors=[1])
# Each breaks one rule of the loader, which refuses it; the reversed read
# places the day or pre-modifier of the text elsewhere than a forward search.
@example(source=_months_and("[day_ordinals]\n2 = x,\n3 = x\n"), text="x, May", floors=[0])
@example(source=_months_and("[pre_modifiers]\nx- = 1\nx = -1\n"), text="x- May", floors=[0])
@example(source=_months_and("[connectors]\n7\n"), text="7,7 May", floors=[0])
@example(source=_months_and("[day_ordinals]\n2 = x\n[connectors]\nX\n"), text="x,x May",
         floors=[0])
def test_generated_lexicon_probes_equal_forward_search(tmp_path_factory, source, text, floors):
    # Surfaces made of punctuation and word pieces, glued to each other
    # without separators, every end in the text and floors before them.
    lexicon = _load_generated(tmp_path_factory, source)
    assume(lexicon is not None)
    _check_left_text(lexicon, text, range(len(text) + 1), floors)


# Text of the pieces generated surfaces are made of, numeric dates and fields.
_PIECE_TEXT = st.lists(_PIECES | _NUMERIC | _FIELD | _YEAR | st.sampled_from([" ", ", "]),
                       max_size=40).map("".join)


@settings(max_examples=150, deadline=None)
@given(source=_lexicon_file(), text=_PIECE_TEXT)
# A month "99" inside the numeric date, with a relative year after it.
@example(source="[months]\n1 = 99\n" + "".join("%d = m%d\n" % (i, i) for i in range(2, 13))
         + "[relative_years]\nmaiMa = 1\n", text="1/2/99 maiMa")
def test_generated_lexicon_matches_are_disjoint(tmp_path_factory, source, text):
    lexicon = _load_generated(tmp_path_factory, source)
    assume(lexicon is not None)
    _check_disjoint(text, lexicon)


def test_probe_span_lexicon(tmp_path_factory):
    # The reversed reads would misplace that lexicon's day contexts.
    path = tmp_path_factory.getbasetemp() / "probe_span.lex"
    path.write_text(_PROBE_SPAN_LEXICON, encoding="utf-8")
    with pytest.raises(LoadError, match=r":15: ',' in \[day_ordinals\] starts or ends with"):
        load_date_lexicon(path)


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
