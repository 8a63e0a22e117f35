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
one match of a reversed pattern on the reversed text.  No two dates share a
token (``find_lexical_dates``), and extraction is linear in document length.
Matches carry offset, length and a typed normal form; relative expressions
can be resolved against a reference date.  Numeric candidates and matches
are named tuples, and normal forms are tuples validated on construction; a
month-anchored or relative-day date becomes its match where it is read.
"""

from __future__ import annotations

import calendar
import datetime
import functools
import operator
from itertools import chain, pairwise
import re
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


class _LexiconFields(NamedTuple):
    default_order: str
    months: dict            # surface -> 1..12
    day_ordinals: dict      # surface -> 1..31
    relative_days: dict     # surface -> day offset
    pre_modifiers: dict     # surface -> month-relative sign
    relative_years: dict    # surface phrase -> year offset
    connectors: tuple       # surface phrases
    number_words: dict      # surface -> integer value (0 = join word)


class DateLexicon(_LexiconFields):
    """One language's date words, read by :func:`load_date_lexicon`."""

    # No __slots__: the instance __dict__ holds the cached _scanner.

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
_RE_NUMBER_WORD = re.compile(r"[^\s-]+")
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
        """The day of a day ordinal or of one or two digits; None outside 1..31."""
        value = self.lexicon.day_ordinals.get(surface) or int(surface)
        return value if 1 <= value <= 31 else None

    def read_spelled_year(self, text, pos, limit):
        """(year, thousand form, end) of the longest number-word run after ``pos``
        that ends by ``limit``, composes a year and ends in no join word, or None."""
        rm = self.re_numseq.match(text, pos)
        if rm is None:
            return None
        words = list(_RE_NUMBER_WORD.finditer(text, rm.start(1), rm.end(1)))
        for k in range(len(words), 0, -1):
            last = words[k - 1]
            if last.end() <= limit and self.lexicon.number_words[last.group()]:
                year, thousand = self.compose_spelled_year([w.group() for w in words[:k]])
                if year is not None:
                    return year, thousand, last.end()
        return None

    def takes_day(self, text, rev, m, start, limit):
        """Whether anchor ``m`` is a month whose left-day read puts its day at
        ``start`` and that reads no day on its own right before ``limit``.

        ``limit``, the next numeric candidate after the month before, is also
        the next after ``m`` whenever ``m`` can read that day: no connector
        holds a digit."""
        if m is None or m.group() not in self.lexicon.months:
            return False
        n = len(rev)
        lm = self.rev_day_left.match(rev, n - m.start(), n - start)
        if lm is None or lm.end(1) != n - start:
            return False
        rm = self.re_day_right.match(text, m.end())
        return rm is None or rm.end(1) > limit or self.parse_day(rm.group(1)) is None

    def compose_spelled_year(self, words):
        """(year, thousand form) of number words, or (None, False): two groups
        of tens and units ((19)(84) -> 1984), or the thousand form (two
        thousand and two), which only a date with a day may take."""
        vals = [self.lexicon.number_words[w] for w in words]
        vals = [v for v in vals if v != 0]  # join words like "and"
        if 1000 in vals:
            i = vals.index(1000)
            rest = _group_tens(vals[i + 1:]) or [0]
            if i == 1 and 1 <= vals[0] <= 9 and len(rest) == 1 and 0 <= rest[0] <= 99:
                return vals[0] * 1000 + rest[0], True
            return None, False
        groups = _group_tens(vals)
        if len(groups) == 2 and 10 <= groups[0] <= 29 and 0 <= groups[1] <= 99:
            return groups[0] * 100 + groups[1], False
        return None, False


def _group_tens(vals):
    """The values, each tens value joined to a unit after it (20 5 -> 25)."""
    out = []
    for v in vals:
        if out and 1 <= v <= 9 and out[-1] % 10 == 0 and 20 <= out[-1] <= 90:
            out[-1] += v
        else:
            out.append(v)
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

    None shares a token with another or with a ``numeric`` candidate
    (``find_numeric_dates``), by three rules:

    1. An anchor that starts before ``reach``, the furthest end of the dates
       before it, or that a numeric candidate starts inside, is not read.  A
       month's left contexts read back no further than ``reach``.
    2. No right-context token (year, spelled year, day, relative year) ends
       past the start of the next numeric candidate.
    3. A day read on a month's right goes to the next anchor when that is a
       month whose left-day read puts its day there and that reads no day on
       its own right ("In May, 12 June 2003" gives ``12 June 2003``, and "May
       3, June 4" gives ``May 3`` and ``June 4``).  Every other token stays
       with the date before.

    A date that names no calendar day ("February 30") goes onto ``diagnostics``
    as (offset, surface, reason), but keeps its tokens.
    """
    sc = lexicon._scanner
    n = len(text)
    rev = text[::-1]
    matches = []
    reach = 0
    numeric = iter(numeric)
    nxt = next(numeric, None)       # the first numeric candidate not before the anchor's end
    for m, following in pairwise(chain(sc.re_anchor.finditer(text), [None])):
        anchor, end = m.span()
        while nxt is not None and nxt.offset < end:
            reach = max(reach, nxt.offset + nxt.length)
            nxt = next(numeric, None)
        if anchor < reach:
            continue
        surface = m.group()
        month = lexicon.months.get(surface)
        if month is None:
            matches.append(DateMatch(anchor, end - anchor, surface, NormalizedDate(
                DateKind.RELATIVE_DAY, rel_offset=lexicon.relative_days[surface])))
            reach = end
            continue
        start, month_end = anchor, end
        limit = n if nxt is None else nxt.offset
        stop = n - _left_floor(text, reach)     # the floor in ``rev``
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
            if rm is not None and rm.end(1) <= limit:
                rel_offset = lexicon.relative_years[rm.group(1)]
                end = rm.end(1)
        if rel_offset is None:
            for _ in range(2):
                if year is None:
                    rm = sc.re_year_right.match(text, end)
                    if rm is not None and rm.end(1) <= limit:
                        year = int(rm.group(1))
                        end = rm.end(1)
                        continue
                    spelled = sc.read_spelled_year(text, end, limit)
                    if spelled is not None:
                        year, spelled_thousand, end = spelled
                        continue
                if day is None:
                    rm = sc.re_day_right.match(text, end)
                    if (rm is not None and rm.end(1) <= limit
                            and not sc.takes_day(text, rev, following, rm.start(1), limit)):
                        day = sc.parse_day(rm.group(1))
                        if day is not None:
                            end = rm.end(1)
                            continue
                break

        # The thousand form of a spelled year only counts inside a full date.
        if spelled_thousand and day is None:
            year = None
            end = month_end

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
        reach = end
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


def extract_dates(text: str, lexicon: DateLexicon, reference: datetime.date | None = None,
                  default_order: str | None = None, reject_two_digit_years: bool = False,
                  diagnostics=None):
    """Full per-document pipeline; matches sorted by offset."""
    numeric = find_numeric_dates(text)
    default = (default_order or lexicon.default_order).lower()
    if default not in (ORDER_DMY, ORDER_MDY):
        raise ConfigError("default order must be dmy or mdy, got %r" % default_order)
    order = infer_document_order(numeric, default)
    # Numeric discards reach ``diagnostics`` before lexical ones.  No lexical
    # date shares a token with another date (``find_lexical_dates``).
    matches = [m for c in numeric if (m := normalize_match(
        c, order, reject_two_digit_years, diagnostics)) is not None]
    kept = sorted(matches + find_lexical_dates(text, lexicon, numeric, diagnostics), key=_offset)

    if reference is not None:
        for i, m in enumerate(kept):
            if m.normal.rel_offset is not None:
                try:
                    kept[i] = m._replace(resolved=resolve_relative(m.normal, reference))
                except PlacetimeError as exc:
                    raise PlacetimeError("%r: %s" % (m.surface, exc)) from exc
    return kept
