"""Date-expression recognition and normalization.

Recognition is driven entirely by a per-language lexicon file (month
names, day ordinals, relative-day words, modifiers, connectors, number
words), so adding a language means writing a parameter file, not code.
Every section but the months may be empty: its alternation then never
matches.

The pipeline finds complete numeric dates (``13/02/03``, ``31.5.2003``),
infers whether the document writes day-month-year or month-day-year, then
finds the month and relative-day anchors in one scan, in offset order.  Each
full-text scan starts by consuming a character the regex engine can skip
ahead to.  A month's left contexts (a day, a year, a pre-modifier) are each
one match of a reversed pattern on the reversed text, back to no further
than the end of the last date before the month, so a token that ends
one date cannot start the next.  Only a day read last on a month's right
stays open to the next month, and the overlap then goes to the longer date.
Overlaps are resolved in one walk in offset order, and only a run of
overlapping matches goes through the longest-then-leftmost choice, so
extraction is linear in document length.
Matches carry offset, length and a typed normal form; relative expressions
can be resolved against a reference date.  Numeric candidates and matches
are named tuples, and normal forms are tuples validated on construction; a
month-anchored or relative-day date becomes its match where it is read.
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
        kind.label = value      # a plain attribute: ``value`` is a property
        kind.fields = fields
        kind.present = tuple(name in fields for name in _FIELDS)
        kind.form = form
        kind.values_of = operator.attrgetter(*fields)
        return kind


class _DateFields(NamedTuple):
    kind: DateKind
    year: int | None = None
    month: int | None = None
    day: int | None = None
    rel_offset: int | None = None


class NormalizedDate(_DateFields):
    """A date kind with exactly the fields it carries, validated on construction."""

    __slots__ = ()

    def __new__(cls, kind, year=None, month=None, day=None, rel_offset=None):
        if (year is not None, month is not None, day is not None,
                rel_offset is not None) != kind.present:
            for name, value, want in zip(_FIELDS, (year, month, day, rel_offset), kind.present):
                have = value is not None
                if have != want:
                    raise ValueError("%s: field %s %s for kind %s"
                                     % (kind.value, name,
                                        "unexpected" if have else "required", kind))
        if month is not None and not 1 <= month <= 12:
            raise ValueError("month %r outside 1..12" % (month,))
        if day is not None:
            if month == 2 and year is not None and not calendar.isleap(year):
                limit = 28
            else:
                limit = _MONTH_DAYS[month - 1]
            if not 1 <= day <= limit:
                raise ValueError("day %r invalid for month %r year %r" % (day, month, year))
        return tuple.__new__(cls, (kind, year, month, day, rel_offset))

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
    The whole lexicon is then checked once more (``_check_reading``).
    """
    tables = {name: {} for name in _SECTIONS}
    tables["connectors"] = []
    meaning = {}            # surface -> (the section that gave it its meaning, its line)
    connector_lines = {}
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
            connector_lines.setdefault(line, lineno)
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
                                % (path, s, meaning[s][0], name))
            meaning[s] = name, lineno
            table[s] = number

    default_order = tables.pop("meta").get("default_order", ORDER_DMY).lower()
    if default_order not in (ORDER_DMY, ORDER_MDY):
        raise LoadError("%s: default_order must be dmy or mdy" % path)
    missing = sorted(set(range(1, 13)).difference(tables["months"].values()))
    if missing:
        raise LoadError("%s: [months] missing indices %s" % (path, missing))
    _check_reading(path, tables, lambda s, connector=False: (
        connector_lines[s] if connector else meaning[s][1]))
    tables["connectors"] = tuple(tables["connectors"])
    return DateLexicon(default_order=default_order, **tables)   # one field per section


def _check_reading(path, tables, line_of):
    """Refuse, at its first line, what ``_Scanner`` would read otherwise than
    forward left-context searches and separate month and relative-day scans.

    That is a connector, day ordinal or pre-modifier that starts or ends with
    ``,`` or ``-``, a connector that holds a digit (``\\d``) or a day-ordinal
    word, ignoring case, and a month and a relative day that one text can hold
    as overlapping whole words.
    """
    faults = [(line_of(s, name == "connectors"),
               "%r in [%s] starts or ends with ',' or '-'" % (s, name))
              for name in ("connectors", "day_ordinals", "pre_modifiers")
              for s in tables[name] if s[0] in ",-" or s[-1] in ",-"]
    faults += [(line_of(s, True), "connector %r holds a digit" % s)
               for s in tables["connectors"] if any(map(str.isdecimal, s))]
    shared = _words(tables["connectors"]) & _words(tables["day_ordinals"])
    faults += [(line_of(s, True), "connector %r holds a day-ordinal word" % s)
               for s in tables["connectors"] if shared and _words([s]) & shared]
    pair = _overlap(tables["months"], tables["relative_days"])
    if pair:
        faults.append((max(map(line_of, pair)), "%r and %r can overlap in a text" % pair))
    if faults:
        raise LoadError("%s:%d: %s" % (path, *min(faults)))


def _words(surfaces):
    """The words of the surfaces, keyed so that ``re.IGNORECASE``-equal ones meet.

    Upper-casing the lower-cased word and dropping U+0307 also keys ``İ`` as ``i``.
    """
    return set(" ".join(surfaces).replace(",", " ").lower().upper().replace("\u0307", "").split())


def _overlap(months, relative_days):
    """A month and a relative day that one text can hold as overlapping whole
    words, or None.

    The one starting inside the other starts with a word of the other or with
    a non-word character, so most lexicons are cleared by their words.
    """
    joined = "\n".join(months), "\n".join(relative_days)
    if not (set(_RE_WORD.findall(joined[0])) & set(_RE_WORD.findall(joined[1]))
            or _RE_LEAD_NONWORD.search("\n".join(joined))):
        return None
    for surfaces, others in ((months, relative_days), (relative_days, months)):
        heads = {b[:m.start()]: b for b in others for m in _RE_WORD_END.finditer(b, 1)}
        for a in surfaces:
            for p in (m.start() for m in _RE_WORD_START.finditer(a)):
                for q in (m.start() for m in _RE_WORD_END.finditer(a, p + 1)):
                    if q == len(a):
                        b = heads.get(a[p:])        # a ends inside b
                    elif a[p:q] in others:
                        b = a[p:q]                  # b lies inside a
                    else:
                        continue
                    if b is not None:
                        return a, b
    return None


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
# A digit-separator-digit pair, which every candidate holds at its first
# separator, 1 to 4 characters after its start.  Led by the separator, which
# the engine skips to faster than to a digit; ``\d``, not ``[0-9]``, so that
# dates written in other scripts' digits stay candidates.
_RE_NUM_SEP = re.compile(r"[./-](?<=\d.)\d")
_NUM_SEP_LEAD = 4


def _day_ok(month: int, day: int) -> bool:
    return 1 <= month <= 12 and 1 <= day <= _MONTH_DAYS[month - 1]


def find_numeric_dates(text: str):
    """Complete numeric date candidates with their possible field orders.

    No candidate starts more than ``_NUM_SEP_LEAD`` characters before the
    first digit-separator-digit pair, so both scans start there.
    """
    hit = _RE_NUM_SEP.search(text)
    if hit is None:
        return []
    pos = max(0, hit.start() - _NUM_SEP_LEAD)
    candidates = []
    taken = []              # ISO spans, sorted and disjoint
    for m in _RE_NUM_YMD.finditer(text, pos):
        start, end = m.span()
        surface, f1, f2, f3 = m.group(0, 1, 3, 4)
        candidates.append(NumericCandidate(start, end - start, surface, f1, f2, f3,
                                           True, False, False))
        taken.append((start, end))
    i = 0
    for m in _RE_NUM_GEN.finditer(text, pos):
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


_RE_WORD_SEP = re.compile(r"[\s-]+")     # between spelled number words
_RE_WORD = re.compile(r"\w+")
_RE_WORD_START = re.compile(r"(?<!\w)")
_RE_WORD_END = re.compile(r"(?!\w)")
_RE_LEAD_NONWORD = re.compile(r"^\W", re.M)
_RE_WORD_RUN = re.compile(r"(?<=\w)\w*")  # the rest of a word, from inside it


class _Scanner:
    """Compiled anchor and context patterns for one lexicon."""

    def __init__(self, lexicon: DateLexicon):
        self.lexicon = lexicon
        conn = "(?i:%s)" % _alt(lexicon.connectors)
        day_alt = r"(?:%s|\d{1,2})" % _alt(lexicon.day_ordinals)
        rconn = "(?i:%s)" % _alt(s[::-1] for s in lexicon.connectors)
        rday_alt = r"(?:%s|\d{1,2})" % _alt(s[::-1] for s in lexicon.day_ordinals)

        self.re_anchor = _word_pattern([*lexicon.months, *lexicon.relative_days])
        self.re_year_right = re.compile(r"[\s,]+(?:(?:%s)[\s,]+)?(\d{4})(?!\w)" % conn)
        self.re_day_right = re.compile(r"[\s,]+(?:(?:%s)[\s,]+)?(%s)(?!\w)" % (conn, day_alt))
        # Read by ``.match(rev, len(text) - end, len(text) - _left_floor(text, floor))``,
        # each the reverse of a forward pattern, groups in reverse order:
        #   day_left   (?<!\w)(?:(conn)[\s,]+)?(day)(?:[\s,]+conn)?[\s,]+\Z
        #   year_left  (?<!\w)(\d{4})[\s,]*(?:(conn)[\s,]+)?\Z
        #   premod     (?<!\w)(pre_modifier)[\s-]+\Z
        self.rev_day_left = re.compile(
            r"[\s,]+(?:%s[\s,]+)?(%s)(?:[\s,]+(%s))?(?!\w)" % (rconn, rday_alt, rconn))
        self.rev_year_left = re.compile(r"(?:[\s,]+(%s))?[\s,]*(\d{4})(?!\w)" % rconn)
        self.rev_premod = re.compile(
            r"[\s-]+(%s)(?!\w)" % _alt(s[::-1] for s in lexicon.pre_modifiers))
        self.re_relyear = re.compile(
            r"[\s,]+(?:(?:%s)[\s,]+)?(%s)(?!\w)" % (conn, _alt(lexicon.relative_years)))
        numword = _alt(lexicon.number_words)
        self.re_numseq = re.compile(
            r"[\s,]+(?:(?:%s)[\s,]+)?((?:%s)(?:[\s-]+(?:%s)){0,4})(?!\w)"
            % (conn, numword, numword))

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


def _left_floor(text, floor):
    r"""``floor``, or one past the end of the word it cuts when a word character precedes it.

    A forward left-context pattern starts with ``(?<!\w)``, so no match starts
    inside that word or at its end.  Its reverse, matched on the reversed text
    up to the floor, sees the end of the string there, so its closing
    ``(?!\w)`` would let a match start at ``floor`` after a word character.
    From the returned floor, it reads what the forward search from ``floor`` finds.
    """
    word = _RE_WORD_RUN.match(text, floor)
    return floor if word is None else word.end() + 1


def find_lexical_dates(text: str, lexicon: DateLexicon, numeric, diagnostics=None):
    """Month-anchored and relative-day dates as matches, in offset order.

    A month's left context reads back no further than the furthest end of the
    dates that start before it, ``numeric`` (``find_numeric_dates``) included,
    so that a token that ends one date does not start the next.  A day read
    last on a month's right is the one exception: it can be the next month's
    day, and the overlap goes to the longer date, so "In May, 12 June 2003"
    gives ``12 June 2003``.  A date that names no calendar day ("February 30")
    goes onto ``diagnostics`` as (offset, surface, reason), but claims its tokens.
    """
    sc = lexicon._scanner
    n = len(text)
    rev = text[::-1]
    matches = []
    reach = 0               # the furthest claimed end of the candidates before the anchor
    numeric = iter(numeric)
    nxt = next(numeric, None)
    for m in sc.re_anchor.finditer(text):
        anchor, month_end = start, end = m.span()
        while nxt is not None and nxt.offset < anchor:
            reach = max(reach, nxt.offset + nxt.length)
            nxt = next(numeric, None)
        surface = m.group()
        month = lexicon.months.get(surface)
        if month is None:
            matches.append(DateMatch(start, end - start, surface, NormalizedDate(
                DateKind.RELATIVE_DAY, rel_offset=lexicon.relative_days[surface])))
            reach = max(reach, end)
            continue
        stop = n - _left_floor(text, min(reach, anchor))    # the floor in ``rev``
        day = year = rel_offset = None
        spelled_thousand = False

        lm = sc.rev_day_left.match(rev, n - anchor, stop)
        if lm is not None:
            day = sc.parse_day(lm.group(1)[::-1])
        if day is None:
            ym = sc.rev_year_left.match(rev, n - anchor, stop)
        else:
            ym = sc.rev_year_left.match(rev, lm.end(), stop)
            if ym is None:
                # A leading connector only belongs to the span when a year
                # precedes it ("1999, the 2nd of May").
                start = n - lm.end(1)
        if ym is not None:
            start = n - ym.end()
            year = int(text[start:start + 4])

        if day is None and year is None:
            rm = sc.re_relyear.match(text, end)
            if rm is not None:
                rel_offset = lexicon.relative_years[rm.group(1)]
                end = rm.end(1)
        claimed = end           # the end of the date but a day read last on the right
        if rel_offset is None:
            for _ in range(2):
                if year is None:
                    rm = sc.re_year_right.match(text, end)
                    if rm is not None:
                        year = int(rm.group(1))
                        end = claimed = rm.end(1)
                        continue
                    rm = sc.re_numseq.match(text, end)
                    if rm is not None:
                        words = _RE_WORD_SEP.split(rm.group(1))
                        year, spelled_thousand = sc.compose_spelled_year(words)
                        if year is not None:
                            end = claimed = rm.end(1)
                            continue
                if day is None:
                    rm = sc.re_day_right.match(text, end)
                    if rm is not None:
                        day = sc.parse_day(rm.group(1))
                        if day is not None:
                            end = rm.end(1)
                            continue
                break

        # The thousand form of a spelled year only counts inside a full date.
        if spelled_thousand and day is None:
            year = None
            end = claimed = month_end

        # A relative year is only looked for when neither a day nor a year was
        # found, so each kind below leaves the fields it does not carry None.
        if rel_offset is not None:
            kind = DateKind.MONTH_RELATIVE_YEAR
        elif day is not None:
            kind = DateKind.FULL if year is not None else DateKind.MONTH_DAY
        elif year is not None:
            kind = DateKind.YEAR_MONTH
        else:
            pm = sc.rev_premod.match(rev, n - anchor, stop)
            if pm is None:
                continue
            start, kind = n - pm.end(), DateKind.RELATIVE_MONTH
            rel_offset = lexicon.pre_modifiers[pm.group(1)[::-1]]
        reach = max(reach, claimed)
        try:
            normal = NormalizedDate(kind, year, month, day, rel_offset)
        except ValueError as exc:
            if diagnostics is not None:
                diagnostics.append((start, text[start:end], str(exc)))
            continue
        matches.append(DateMatch(start, end - start, text[start:end], normal))
    return matches


# --------------------------------------------------------------------------
# normalization and resolution

def normalize_match(candidate, document_order: str, reject_two_digit_years: bool = False,
                    diagnostics=None):
    """Turn a numeric candidate into a DateMatch; None when discarded.

    Discards land on the diagnostics list as (offset, surface, reason).
    """
    c = candidate
    try:
        if c.ymd:
            normal = NormalizedDate(DateKind.FULL, int(c.f1), int(c.f2), int(c.f3))
        else:
            if reject_two_digit_years and len(c.f3) == 2 and len(c.f1) == 1 and len(c.f2) == 1:
                raise ValueError("two-digit year with unpadded day and month")
            if not (c.dmy_possible or c.mdy_possible):
                raise ValueError("no valid day/month reading")
            day, month = int(c.f1), int(c.f2)
            if c.mdy_possible and (not c.dmy_possible or document_order == ORDER_MDY):
                day, month = month, day
            normal = NormalizedDate(DateKind.FULL, _expand_year(c.f3), month, day)
    except ValueError as exc:
        if diagnostics is not None:
            diagnostics.append((c.offset, c.surface, str(exc)))
        return None
    return DateMatch(c.offset, c.length, c.surface, normal)


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


def _resolve_overlaps(run):
    """The matches of a run that the longest-then-leftmost choice keeps, sorted by offset.

    Kept matches stay sorted by offset and disjoint, so their ends are sorted
    too and only the last kept match starting before a candidate's end can
    overlap it.
    """
    run.sort(key=lambda m: (-m.length, m.offset))
    kept = []
    for m in run:
        i = bisect.bisect_left(kept, m.offset + m.length, key=_offset)
        if i and kept[i - 1].offset + kept[i - 1].length > m.offset:
            continue
        kept.insert(i, m)
    return kept


def _drop_overlaps(matches):
    """The matches that overlapping ones do not outrank, sorted by offset.

    In offset order, a match that starts at or after the furthest end seen so
    far opens a new run; the runs are the connected parts of the overlap
    relation, so resolving each on its own keeps what resolving all at once
    would.  A run of one is kept as it is.
    """
    kept = []
    run = None              # the current run, once a second match joins it
    reach = 0               # the furthest end of the current run
    for m in sorted(matches, key=_offset):
        start = m.offset
        if start < reach:
            if run is None:
                run = [kept.pop()]
            run.append(m)
            reach = max(reach, start + m.length)
            continue
        if run is not None:
            kept += _resolve_overlaps(run)
            run = None
        kept.append(m)
        reach = start + m.length
    if run is not None:
        kept += _resolve_overlaps(run)
    return kept


def extract_dates(text: str, lexicon: DateLexicon, reference: datetime.date | None = None,
                  default_order: str | None = None, reject_two_digit_years: bool = False,
                  diagnostics=None):
    """Full per-document pipeline; matches sorted by offset."""
    numeric = find_numeric_dates(text)
    default = (default_order or lexicon.default_order).lower()
    if default not in (ORDER_DMY, ORDER_MDY):
        raise ConfigError("default order must be dmy or mdy, got %r" % default_order)
    order = infer_document_order(numeric, default)
    # Numeric discards reach ``diagnostics`` before lexical ones.  Overlaps keep
    # the longest match, then the leftmost, within each run of overlapping matches.
    matches = [m for c in numeric if (m := normalize_match(
        c, order, reject_two_digit_years, diagnostics)) is not None]
    kept = _drop_overlaps(matches + find_lexical_dates(text, lexicon, numeric, diagnostics))

    if reference is not None:
        for i, m in enumerate(kept):
            if m.normal.rel_offset is not None:
                try:
                    kept[i] = m._replace(resolved=resolve_relative(m.normal, reference))
                except PlacetimeError as exc:
                    raise PlacetimeError("%r: %s" % (m.surface, exc)) from exc
    return kept
