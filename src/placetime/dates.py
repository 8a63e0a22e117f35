"""Date-expression recognition and normalization.

Recognition is driven entirely by a per-language lexicon file (month
names, day ordinals, relative-day words, modifiers, connectors, number
words), so adding a language means writing a parameter file, not code.
Every section but the months may be empty: its alternation then never
matches, and the whole-text relative-day scan is skipped.

The pipeline first finds complete numeric dates (``13/02/03``,
``31.5.2003``), infers whether the document writes day-month-year or
month-day-year, then anchors on month names and scans both sides for the
remaining parts.  The full-text scans keep the regex engine from trying a
match at every character: every one starts by consuming a character the
engine can skip ahead to.  The numeric patterns start with a digit, and
the month and relative-day alternations are grouped by the first character
of the lexicon's own surfaces, each group checking the word boundary only
after that character.  Each left-context search is bounded by token count: it
looks only as many separator-delimited tokens back from the month as the
lexicon's longest connector, day surface, year and pre-modifier could
fill, which finds the same match as a search over the whole prefix.  The
day, year and pre-modifier searches that end at the month share one such
window.  Overlaps between candidates are resolved against sorted spans, so
extraction takes time linear in document length.  Matches carry character
offset, length and a typed normal form; relative expressions can be
resolved against a reference date.  Candidates and matches are plain
named tuples; only the normal form validates its fields.
"""

from __future__ import annotations

import bisect
import calendar
import datetime
import functools
import operator
import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import ConfigError, ContractError, LoadError, PlacetimeError, read_lines

ORDER_DMY = "dmy"
ORDER_MDY = "mdy"

# Permissive month lengths (leap year) used when the year is unknown.
_MONTH_DAYS = (31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
_FIELDS = ("year", "month", "day", "rel_offset")


class DateKind(Enum):
    """A kind of date: its name, the fields it carries and its normal form."""

    FULL = "full", ("year", "month", "day"), "%04d-%02d-%02d"
    YEAR_MONTH = "year_month", ("year", "month"), "%04d-%02d"
    MONTH_DAY = "month_day", ("month", "day"), "--%02d-%02d"
    RELATIVE_DAY = "relative_day", ("rel_offset",), "D%+d"
    RELATIVE_MONTH = "relative_month", ("month", "rel_offset"), "M%02d%+d"
    MONTH_RELATIVE_YEAR = "month_relative_year", ("month", "rel_offset"), "M%02dY%+d"

    def __new__(cls, value, fields, form):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.fields = fields
        kind.present = tuple(name in fields for name in _FIELDS)
        kind.form = form
        kind.values_of = operator.attrgetter(*fields)
        return kind


@dataclass(frozen=True)
class NormalizedDate:
    kind: DateKind
    year: int | None = None
    month: int | None = None
    day: int | None = None
    rel_offset: int | None = None

    def __post_init__(self):
        if (self.year is not None, self.month is not None, self.day is not None,
                self.rel_offset is not None) != self.kind.present:
            for name, want in zip(_FIELDS, self.kind.present):
                have = getattr(self, name) is not None
                if have != want:
                    raise ValueError("%s: field %s %s for kind %s"
                                     % (self.kind.value, name,
                                        "unexpected" if have else "required", self.kind))
        if self.month is not None and not 1 <= self.month <= 12:
            raise ValueError("month %r outside 1..12" % (self.month,))
        if self.day is not None:
            if self.month is None:
                limit = 31
            elif self.month == 2 and self.year is not None and not calendar.isleap(self.year):
                limit = 28
            else:
                limit = _MONTH_DAYS[self.month - 1]
            if not 1 <= self.day <= limit:
                raise ValueError("day %r invalid for month %r year %r"
                                 % (self.day, self.month, self.year))

    def to_string(self) -> str:
        return self.kind.form % self.kind.values_of(self)


class DateMatch(NamedTuple):
    offset: int
    length: int
    surface: str
    normal: NormalizedDate
    resolved: NormalizedDate | None = None


@dataclass(frozen=True)
class DateLexicon:
    default_order: str
    months: dict            # surface -> 1..12
    day_ordinals: dict      # surface -> 1..31
    relative_days: dict     # surface -> day offset
    pre_modifiers: dict     # surface -> month-relative sign
    relative_years: dict    # surface phrase -> year offset
    connectors: tuple       # surface phrases
    number_words: dict      # surface -> integer value (0 = join word)

    @functools.cached_property
    def _scanner(self):
        return _Scanner(self)


# --------------------------------------------------------------------------
# lexicon file parsing

_SECTIONS = ("meta", "months", "day_ordinals", "relative_days", "pre_modifiers",
             "relative_years", "connectors", "number_words")
_META_KEYS = ("language", "default_order")  # ``language`` is accepted and ignored


def _surfaces(value):
    """The non-empty ``|``-separated surfaces of a value, each stripped."""
    return [s for s in map(str.strip, value.split("|")) if s]


def load_date_lexicon(path) -> DateLexicon:
    """Parse a sectioned ``key = value`` parameter file (see data/lexicons).

    One pass, top to bottom, puts each entry into the table of its section;
    the first bad line in the file is the one reported.  A surface has one
    meaning across the months, day ordinals, relative days, pre-modifiers and
    relative years, since a surface listed twice would make matching ambiguous.
    """
    tables = {name: {} for name in _SECTIONS}
    tables["connectors"] = []
    meaning = {}            # surface -> the section that gave it its meaning
    name = None
    for lineno, raw in enumerate(read_lines(path, "lexicon"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            table = tables.get(name)
            if table is None:
                raise LoadError("%s:%d: unknown section [%s]" % (path, lineno, name))
            continue
        if name is None:
            raise LoadError("%s:%d: content before first section" % (path, lineno))
        if name == "connectors":
            table.append(line)
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise LoadError("%s:%d: expected 'key = value' in [%s]" % (path, lineno, name))
        key = key.strip()
        value = value.strip()
        if name == "meta":
            if key not in _META_KEYS:
                raise LoadError("%s:%d: unknown [meta] key %r" % (path, lineno, key))
            if key in table:
                raise LoadError("%s:%d: duplicate [meta] key %r" % (path, lineno, key))
            table[key] = value
            continue
        if name == "months":
            try:
                number = int(key)
            except ValueError as exc:
                raise LoadError("%s:%d: month index %r" % (path, lineno, key)) from exc
            if not 1 <= number <= 12 or number in table.values():
                raise LoadError("%s:%d: bad or duplicate month index %d" % (path, lineno, number))
            surfaces = _surfaces(value)
            if not surfaces:
                raise LoadError("%s:%d: month %d has no surfaces" % (path, lineno, number))
        elif name == "day_ordinals":
            try:
                number = int(key)
            except ValueError as exc:
                raise LoadError("%s:%d: day index %r" % (path, lineno, key)) from exc
            if not 1 <= number <= 31:
                raise LoadError("%s:%d: day index %d outside 1..31" % (path, lineno, number))
            surfaces = _surfaces(value)
        else:
            if not key:
                raise LoadError("%s:%d: empty surface in [%s]" % (path, lineno, name))
            if name == "number_words" and _RE_WORD_SEP.search(key):
                raise LoadError("%s:%d: number word %r holds a space or '-'" % (path, lineno, key))
            if key in table:
                raise LoadError("%s:%d: duplicate surface %r in [%s]" % (path, lineno, key, name))
            try:
                number = int(value)
            except ValueError as exc:
                raise LoadError("%s:%d: bad integer %r" % (path, lineno, value)) from exc
            if name == "number_words":
                table[key] = number
                continue
            surfaces = (key,)
        for s in surfaces:
            if s in meaning:
                raise LoadError("%s: surface %r appears in [%s] and again in [%s]"
                                % (path, s, meaning[s], name))
            meaning[s] = name
            table[s] = number

    default_order = tables.pop("meta").get("default_order", ORDER_DMY).lower()
    if default_order not in (ORDER_DMY, ORDER_MDY):
        raise LoadError("%s: default_order must be dmy or mdy" % path)
    missing = sorted(set(range(1, 13)).difference(tables["months"].values()))
    if missing:
        raise LoadError("%s: [months] missing indices %s" % (path, missing))
    tables["connectors"] = tuple(tables["connectors"])
    return DateLexicon(default_order=default_order, **tables)   # one field per section


# --------------------------------------------------------------------------
# numeric dates

class NumericCandidate(NamedTuple):
    offset: int
    length: int
    surface: str
    f1: str
    f2: str
    f3: str
    ymd: bool
    dmy_possible: bool
    mdy_possible: bool


# Each pattern starts with a digit, so the regex engine skips ahead to the
# next digit; ``\d(?<!\d\d)`` is a digit that follows no digit.
_RE_NUM_YMD = re.compile(r"(\d(?<!\d\d)\d{3})([./-])(\d{1,2})\2(\d{1,2})(?!\d)")
_RE_NUM_GEN = re.compile(r"(\d(?<!\d\d)\d?)([./-])(\d{1,2})\2(\d{4}|\d{2})(?!\d)")


def _day_ok(month: int, day: int) -> bool:
    return 1 <= month <= 12 and 1 <= day <= _MONTH_DAYS[month - 1]


def find_numeric_dates(text: str):
    """Complete numeric date candidates with their possible field orders."""
    candidates = []
    taken = []              # ISO spans, sorted and disjoint
    for m in _RE_NUM_YMD.finditer(text):
        start, end = m.span()
        surface, f1, f2, f3 = m.group(0, 1, 3, 4)
        candidates.append(NumericCandidate(start, end - start, surface, f1, f2, f3,
                                           True, False, False))
        taken.append((start, end))
    i = 0
    for m in _RE_NUM_GEN.finditer(text):
        start, end = m.span()
        while i < len(taken) and taken[i][1] <= start:
            i += 1
        if i < len(taken) and taken[i][0] < end:
            continue
        surface, f1, f2, f3 = m.group(0, 1, 3, 4)
        a, b = int(f1), int(f2)
        candidates.append(NumericCandidate(start, end - start, surface, f1, f2, f3,
                                           False, _day_ok(b, a), _day_ok(a, b)))
    candidates.sort(key=_offset)
    return candidates


def infer_document_order(candidates, default: str = ORDER_DMY) -> str:
    """Document-wide field order from unambiguous numeric candidates."""
    forced_dmy = any(c.dmy_possible and not c.mdy_possible for c in candidates)
    forced_mdy = any(c.mdy_possible and not c.dmy_possible for c in candidates)
    if forced_mdy and not forced_dmy:
        return ORDER_MDY
    if forced_dmy and not forced_mdy:
        return ORDER_DMY
    return default


def _expand_year(field: str) -> int:
    year = int(field)
    if len(field) == 2:
        return 2000 + year if year < 50 else 1900 + year
    return year


# --------------------------------------------------------------------------
# lexical dates

class LexicalCandidate(NamedTuple):
    """A lexical date; the fields after ``surface`` are its ``NormalizedDate``'s."""

    offset: int
    length: int
    surface: str
    kind: DateKind
    year: int | None = None
    month: int | None = None
    day: int | None = None
    rel_offset: int | None = None


def _alt(surfaces):
    """The surfaces as a longest-first alternation; with none, one that never matches."""
    return "|".join(re.escape(s) for s in sorted(surfaces, key=len, reverse=True)) or "(?!)"


def _word_pattern(surfaces):
    """``(surface)`` as a whole word, for surfaces none of which is empty.

    The longest-first alternation is grouped by first character, and each
    group checks that no word character precedes the surface only after
    consuming that character (``(?<!\\w.)``, under ``re.S``).  A pattern led by
    such consuming branches gets a first-character prefilter from the regex
    engine, which then skips to the positions that can start a match; one led
    by an assertion would be tried at every position.
    """
    groups = {}
    for s in sorted(surfaces, key=len, reverse=True):
        groups.setdefault(s[0], []).append(re.escape(s[1:]))
    return re.compile(r"(%s)(?!\w)" % "|".join(
        r"%s(?<!\w.)(?:%s)" % (re.escape(first), "|".join(rests))
        for first, rests in groups.items()), re.S)


_RE_TOKEN = re.compile(r"[^\s,-]+")
_RE_WORD_SEP = re.compile(r"[\s-]+")     # between spelled number words


def _max_tokens(surfaces):
    return max((len(_RE_TOKEN.findall(s)) for s in surfaces), default=0)


class _Scanner:
    """Compiled month-anchored patterns for one lexicon."""

    def __init__(self, lexicon: DateLexicon):
        self.lexicon = lexicon
        conn = "(?i:%s)" % _alt(lexicon.connectors)
        day_alt = r"(?:%s|\d{1,2})" % _alt(lexicon.day_ordinals)

        self.re_month = _word_pattern(lexicon.months)
        self.re_day_left = re.compile(
            r"(?<!\w)(?:(%s)[\s,]+)?(%s)(?:[\s,]+(?:%s))?[\s,]+\Z"
            % (conn, day_alt, conn))
        self.re_year_left = re.compile(
            r"(?<!\w)(\d{4})[\s,]*(?:(?:%s)[\s,]+)?\Z" % conn)
        self.re_year_right = re.compile(
            r"[\s,]+(?:(?:%s)[\s,]+)?(\d{4})(?!\w)" % conn)
        self.re_day_right = re.compile(
            r"[\s,]+(?:(?:%s)[\s,]+)?(%s)(?!\w)" % (conn, day_alt))
        self.re_premod = re.compile(r"(?<!\w)(%s)[\s-]+\Z" % _alt(lexicon.pre_modifiers))
        self.re_relyear = re.compile(
            r"[\s,]+(?:(?:%s)[\s,]+)?(%s)(?!\w)" % (conn, _alt(lexicon.relative_years)))
        numword = _alt(lexicon.number_words)
        self.re_numseq = re.compile(
            r"[\s,]+(?:(?:%s)[\s,]+)?((?:%s)(?:[\s-]+(?:%s)){0,4})(?!\w)"
            % (conn, numword, numword))
        # re_relday alone scans the whole text, where a never-matching pattern costs ~45 us/KB.
        self.re_relday = _word_pattern(lexicon.relative_days) if lexicon.relative_days else None

        # The most separator-delimited tokens a match of re_day_left,
        # re_year_left or re_premod can hold; a year is one token.
        conn_tokens = _max_tokens(lexicon.connectors)
        left_tokens = max(2 * conn_tokens + max(_max_tokens(lexicon.day_ordinals), 1),
                          1 + conn_tokens, _max_tokens(lexicon.pre_modifiers))
        # Matched on the reversed text: one more token than that.
        self.re_left_window = re.compile(
            r"[\s,-]*[^\s,-]+(?:[\s,-]+[^\s,-]+){%d}" % left_tokens)

    def left_window(self, text, rev, end):
        """The start of the window before ``end`` that a left search covers.

        The window holds one token more than any match of ``re_day_left``,
        ``re_year_left`` or ``re_premod`` can.  A match starting before it
        would hold every token in it, so the leftmost match in the window is
        the leftmost in the whole prefix; lookbehinds still see the text
        before the window.  ``rev`` is ``text`` reversed.
        """
        w = self.re_left_window.match(rev, len(text) - end)
        return 0 if w is None else len(text) - w.end()

    def search_left(self, pattern, text, rev, end):
        """``pattern.search(text[:end])`` for a ``\\Z``-anchored left pattern."""
        return pattern.search(text, self.left_window(text, rev, end), end)

    def parse_day(self, surface: str):
        day_ordinals = self.lexicon.day_ordinals
        if surface in day_ordinals:
            return day_ordinals[surface]
        if surface.isdigit():
            value = int(surface)
            if 1 <= value <= 31:
                return value
        return None

    def compose_spelled_year(self, words):
        """Compose number words into a year value; None if not a year.

        Pairs grammar: (19)(84) -> 1984, with tens+units grouping.  The
        thousand form (two thousand and two) is flagged so callers can
        restrict it to day-bearing dates.
        """
        vals = [self.lexicon.number_words[w] for w in words]
        vals = [v for v in vals if v != 0]  # join words like "and"
        if not vals:
            return None, False
        if 1000 in vals:
            i = vals.index(1000)
            head, tail = vals[:i], vals[i + 1:]
            if len(head) == 1 and 1 <= head[0] <= 9 and len(tail) <= 2:
                rest = _group_tens(tail)
                if len(rest) <= 1 and (not rest or 0 <= rest[0] <= 99):
                    return head[0] * 1000 + (rest[0] if rest else 0), True
            return None, False
        groups = _group_tens(vals)
        if len(groups) == 2 and 10 <= groups[0] <= 29 and 0 <= groups[1] <= 99:
            return groups[0] * 100 + groups[1], False
        return None, False


def _group_tens(vals):
    out = []
    i = 0
    while i < len(vals):
        v = vals[i]
        if v % 10 == 0 and 20 <= v <= 90 and i + 1 < len(vals) and 1 <= vals[i + 1] <= 9:
            out.append(v + vals[i + 1])
            i += 2
        else:
            out.append(v)
            i += 1
    return out


def find_lexical_dates(text: str, lexicon: DateLexicon):
    """Month-anchored and relative-day candidates (not yet validated)."""
    sc = lexicon._scanner
    rev = text[::-1]
    candidates = []
    for m in sc.re_month.finditer(text):
        cand = _scan_month(text, rev, m, sc)
        if cand is not None:
            candidates.append(cand)
    if sc.re_relday is not None:
        relative_days = lexicon.relative_days
        for m in sc.re_relday.finditer(text):
            start, end = m.span()
            surface = m.group(0)
            candidates.append(LexicalCandidate(start, end - start, surface,
                                               DateKind.RELATIVE_DAY,
                                               rel_offset=relative_days[surface]))
    candidates.sort(key=_offset)
    return candidates


def _scan_month(text, rev, m, sc: _Scanner):
    month = sc.lexicon.months[m.group(1)]
    start, end = m.start(1), m.end(1)
    anchor = start
    day = year = rel_offset = None
    spelled_thousand = False

    # re_day_left, re_year_left and re_premod all end at the anchor, so they
    # share one window; a year before a day ends elsewhere and gets its own.
    window = sc.left_window(text, rev, anchor)
    lm = sc.re_day_left.search(text, window, anchor)
    if lm is not None:
        parsed = sc.parse_day(lm.group(2))
        if parsed is not None:
            day = parsed
            start = lm.start(1) if lm.group(1) else lm.start(2)
            ym = sc.search_left(sc.re_year_left, text, rev, start)
            if ym is not None:
                year = int(ym.group(1))
                start = ym.start(1)
            else:
                # A leading connector only belongs to the span when a year
                # precedes it ("1999, the 2nd of May").
                start = lm.start(2)
    if day is None:
        ym = sc.re_year_left.search(text, window, anchor)
        if ym is not None:
            year = int(ym.group(1))
            start = ym.start(1)

    pos = end
    if day is None and year is None:
        rm = sc.re_relyear.match(text, pos)
        if rm is not None:
            rel_offset = sc.lexicon.relative_years[rm.group(1)]
            end = rm.end(1)
    if rel_offset is None:
        for _ in range(2):
            matched = False
            if year is None:
                rm = sc.re_year_right.match(text, pos)
                if rm is not None:
                    year = int(rm.group(1))
                    pos = end = rm.end(1)
                    matched = True
                elif (rm := sc.re_numseq.match(text, pos)) is not None:
                    words = _RE_WORD_SEP.split(rm.group(1))
                    value, used_thousand = sc.compose_spelled_year(words)
                    if value is not None:
                        year = value
                        spelled_thousand = used_thousand
                        pos = end = rm.end(1)
                        matched = True
            if not matched and day is None:
                rm = sc.re_day_right.match(text, pos)
                if rm is not None:
                    parsed = sc.parse_day(rm.group(1))
                    if parsed is not None:
                        day = parsed
                        pos = end = rm.end(1)
                        matched = True
            if not matched:
                break

    # The thousand form of a spelled year only counts inside a full date.
    if spelled_thousand and day is None:
        year = None
        end = m.end(1)

    # A relative year is only looked for when neither a day nor a year was
    # found, so each kind below leaves the fields it does not carry None.
    if rel_offset is not None:
        kind = DateKind.MONTH_RELATIVE_YEAR
    elif day is not None:
        kind = DateKind.FULL if year is not None else DateKind.MONTH_DAY
    elif year is not None:
        kind = DateKind.YEAR_MONTH
    else:
        pm = sc.re_premod.search(text, window, anchor)
        if pm is None:
            return None
        start, kind = pm.start(1), DateKind.RELATIVE_MONTH
        rel_offset = sc.lexicon.pre_modifiers[pm.group(1)]
    return LexicalCandidate(start, end - start, text[start:end], kind,
                            year, month, day, rel_offset)


# --------------------------------------------------------------------------
# normalization and resolution

def _numeric_reading(c, document_order, reject_two_digit_years):
    """The (kind, year, month, day, rel_offset) fields of a numeric candidate.

    Raises ValueError, naming the reason, when the candidate has no reading.
    """
    if c.ymd:
        return DateKind.FULL, int(c.f1), int(c.f2), int(c.f3), None
    if reject_two_digit_years and len(c.f3) == 2 and len(c.f1) == 1 and len(c.f2) == 1:
        raise ValueError("two-digit year with unpadded day and month")
    if not (c.dmy_possible or c.mdy_possible):
        raise ValueError("no valid day/month reading")
    day, month = int(c.f1), int(c.f2)
    if c.mdy_possible and (not c.dmy_possible or document_order == ORDER_MDY):
        day, month = month, day
    return DateKind.FULL, _expand_year(c.f3), month, day, None


def normalize_match(candidate, document_order: str, reject_two_digit_years: bool = False,
                    diagnostics=None):
    """Turn a finder candidate into a DateMatch; None when discarded.

    Discards land on the diagnostics list as (offset, surface, reason).
    """
    try:
        normal = NormalizedDate(*(
            _numeric_reading(candidate, document_order, reject_two_digit_years)
            if isinstance(candidate, NumericCandidate) else candidate[3:]))
    except ValueError as exc:
        if diagnostics is not None:
            diagnostics.append((candidate.offset, candidate.surface, str(exc)))
        return None
    return DateMatch(candidate.offset, candidate.length, candidate.surface, normal)


def _out_of_range(normal, reference):
    return PlacetimeError("%s is out of range from reference %s"
                          % (normal.to_string(), reference))


def resolve_relative(normal: NormalizedDate, reference: datetime.date) -> NormalizedDate:
    """Resolve a relative normal form against a reference date."""
    k = normal.kind
    if k is DateKind.RELATIVE_DAY:
        try:
            resolved = reference + datetime.timedelta(days=normal.rel_offset)
        except OverflowError as exc:
            raise _out_of_range(normal, reference) from exc
        return NormalizedDate(DateKind.FULL, year=resolved.year,
                              month=resolved.month, day=resolved.day)
    if k is DateKind.RELATIVE_MONTH:
        sign = normal.rel_offset
        month = normal.month
        if sign > 0:
            year = reference.year + (0 if month > reference.month else 1)
        elif sign < 0:
            year = reference.year - (0 if month < reference.month else 1)
        else:
            year = reference.year
    elif k is DateKind.MONTH_RELATIVE_YEAR:
        year, month = reference.year + normal.rel_offset, normal.month
    else:
        raise ContractError("cannot resolve non-relative kind %s" % k)
    if not datetime.MINYEAR <= year <= datetime.MAXYEAR:
        raise _out_of_range(normal, reference)
    return NormalizedDate(DateKind.YEAR_MONTH, year=year, month=month)


_offset = operator.attrgetter("offset")


def extract_dates(text: str, lexicon: DateLexicon, reference: datetime.date | None = None,
                  default_order: str | None = None, reject_two_digit_years: bool = False,
                  diagnostics=None):
    """Full per-document pipeline; matches sorted by offset."""
    numeric = find_numeric_dates(text)
    default = (default_order or lexicon.default_order).lower()
    if default not in (ORDER_DMY, ORDER_MDY):
        raise ConfigError("default order must be dmy or mdy, got %r" % default_order)
    order = infer_document_order(numeric, default)
    matches = [m for cand in numeric + find_lexical_dates(text, lexicon)
               if (m := normalize_match(cand, order, reject_two_digit_years, diagnostics))
               is not None]

    # Overlaps keep the longest match, then the leftmost.  Kept matches stay
    # sorted by offset and disjoint, so their ends are sorted too and only the
    # last kept match starting before a candidate's end can overlap it.
    matches.sort(key=lambda m: (-m.length, m.offset))
    kept = []
    for m in matches:
        i = bisect.bisect_left(kept, m.offset + m.length, key=_offset)
        if i and kept[i - 1].offset + kept[i - 1].length > m.offset:
            continue
        kept.insert(i, m)

    if reference is not None:
        for i, m in enumerate(kept):
            if m.normal.rel_offset is not None:
                try:
                    kept[i] = m._replace(resolved=resolve_relative(m.normal, reference))
                except PlacetimeError as exc:
                    raise PlacetimeError("%r: %s" % (m.surface, exc)) from exc
    return kept
