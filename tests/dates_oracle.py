"""The date normal forms, scans, month scan and normalizer that ``dates`` replaced,
kept as the reference the tests compare them against.

Here each kind's required fields and its normal form are spelled out in two
``if`` ladders, the day check asks ``calendar.monthrange``, ``_scan_month``
builds its candidate separately for each kind and reads each left context
with a forward search over the text between the floor and the month, and
``normalize_match`` has one path for numeric candidates and one for lexical
ones, which it validates after the scan.  The numeric, month and relative-day
patterns start with their lookbehind, with no first-character filter, and
months and relative days are two scans.  Each anchor's floor and the limit of
its right contexts are recomputed from every candidate so far, a spelled year
tries each run of number words in turn, and whether the next month takes a
day is a forward search from that day and a read of that month's own right.
No two candidates share a token, so no pairwise overlap scan follows.
"""

import calendar
import datetime
import re
from dataclasses import dataclass
from typing import NamedTuple

from placetime.dates import (_MONTH_DAYS, ORDER_MDY, DateKind, NumericCandidate, _alt,
                             _day_ok, _expand_year, infer_document_order)

RE_NUM_YMD = re.compile(r"(?<!\d)(\d{4})([./-])(\d{1,2})\2(\d{1,2})(?!\d)")
RE_NUM_GEN = re.compile(r"(?<!\d)(\d{1,2})([./-])(\d{1,2})\2(\d{4}|\d{2})(?!\d)")


class LexicalCandidate(NamedTuple):
    """A lexical date before validation: its span and its normal form's fields."""

    offset: int
    length: int
    surface: str
    kind: DateKind
    year: int | None = None
    month: int | None = None
    day: int | None = None
    rel_offset: int | None = None


def month_pattern(lexicon):
    return re.compile(r"(?<!\w)(%s)(?!\w)" % _alt(lexicon.months))


def relday_pattern(lexicon):
    return re.compile(r"(?<!\w)(%s)(?!\w)" % _alt(lexicon.relative_days))


def left_patterns(lexicon):
    """The forward left-context patterns by name, each ending at ``\\Z``:
    ``.search(text, floor, end)`` finds the leftmost match from ``floor`` up to ``end``."""
    conn = "(?i:%s)" % _alt(lexicon.connectors)
    day_alt = r"(?:%s|\d{1,2})" % _alt(lexicon.day_ordinals)
    return {
        "day_left": re.compile(r"(?<!\w)(?:(%s)[\s,]+)?(%s)(?:[\s,]+(?:%s))?[\s,]+\Z"
                               % (conn, day_alt, conn)),
        "year_left": re.compile(r"(?<!\w)(\d{4})[\s,]*(?:(%s)[\s,]+)?\Z" % conn),
        "premod": re.compile(r"(?<!\w)(%s)[\s-]+\Z" % _alt(lexicon.pre_modifiers)),
    }


def find_numeric_dates(text):
    candidates = []
    iso = [m.span() for m in RE_NUM_YMD.finditer(text)]
    for m in RE_NUM_YMD.finditer(text):
        f1, f2, f3 = m.group(1, 3, 4)
        candidates.append(NumericCandidate(m.start(), m.end() - m.start(), m.group(0),
                                           f1, f2, f3, True, False, False))
    for m in RE_NUM_GEN.finditer(text):
        if any(m.start() < e and m.end() > s for s, e in iso):
            continue
        f1, f2, f3 = m.group(1, 3, 4)
        a, b = int(f1), int(f2)
        candidates.append(NumericCandidate(m.start(), m.end() - m.start(), m.group(0),
                                           f1, f2, f3, False, _day_ok(b, a), _day_ok(a, b)))
    candidates.sort(key=lambda c: c.offset)
    return candidates


@dataclass(frozen=True)
class NormalizedDate:
    kind: DateKind
    year: int | None = None
    month: int | None = None
    day: int | None = None
    rel_offset: int | None = None

    def __post_init__(self):
        k = self.kind
        if k is DateKind.FULL:
            self._need(year=True, month=True, day=True)
        elif k is DateKind.YEAR_MONTH:
            self._need(year=True, month=True)
        elif k is DateKind.MONTH_DAY:
            self._need(month=True, day=True)
        elif k is DateKind.RELATIVE_DAY:
            self._need(rel=True)
        elif k is DateKind.RELATIVE_MONTH:
            self._need(month=True, rel=True)
        elif k is DateKind.MONTH_RELATIVE_YEAR:
            self._need(month=True, rel=True)
        if self.month is not None and not 1 <= self.month <= 12:
            raise ValueError("month %r outside 1..12" % (self.month,))
        if self.day is not None:
            if self.year is not None and self.month is not None:
                limit = calendar.monthrange(self.year, self.month)[1]
            elif self.month is not None:
                limit = _MONTH_DAYS[self.month - 1]
            else:
                limit = 31
            if not 1 <= self.day <= limit:
                raise ValueError("day %r invalid for month %r year %r"
                                 % (self.day, self.month, self.year))

    def _need(self, year=False, month=False, day=False, rel=False):
        for name, want in (("year", year), ("month", month),
                           ("day", day), ("rel_offset", rel)):
            have = getattr(self, name) is not None
            if have != want:
                raise ValueError("%s: field %s %s for kind %s"
                                 % (self.kind.value, name,
                                    "unexpected" if have else "required", self.kind))

    def to_string(self):
        k = self.kind
        if k is DateKind.FULL:
            return "%04d-%02d-%02d" % (self.year, self.month, self.day)
        if k is DateKind.YEAR_MONTH:
            return "%04d-%02d" % (self.year, self.month)
        if k is DateKind.MONTH_DAY:
            return "--%02d-%02d" % (self.month, self.day)
        if k is DateKind.RELATIVE_DAY:
            return "D%+d" % self.rel_offset
        if k is DateKind.RELATIVE_MONTH:
            return "M%02d%+d" % (self.month, self.rel_offset)
        return "M%02dY%+d" % (self.month, self.rel_offset)


def _spelled_year(sc, text, pos, limit):
    """(year, thousand form, end) of the longest run of number words after
    ``pos`` that ends by ``limit``, composes a year and does not end in a join
    word, or None."""
    rm = sc.re_numseq.match(text, pos)
    if rm is None:
        return None
    found = None
    words = []
    for w in re.finditer(r"[^\s-]+", rm.group(1)):
        words.append(w.group())
        end = rm.start(1) + w.end()
        value, used_thousand = sc.compose_spelled_year(words)
        if value is not None and end <= limit and sc.lexicon.number_words[words[-1]] != 0:
            found = value, used_thousand, end
    return found


def _takes_day(text, sc, left, following, day_start, limit):
    """Whether the next anchor is a month whose left day starts at ``day_start``
    and that reads no day on its right before ``limit``, its own limit."""
    if following is None or not following[2]:
        return False
    lm = left["day_left"].search(text, day_start, following[0])
    if lm is None or lm.start(2) != day_start:
        return False
    rm = sc.re_day_right.match(text, following[1].end(1))
    return rm is None or rm.end(1) > limit or sc.parse_day(rm.group(1)) is None


def _scan_month(text, m, sc, left, floor, limit, following, following_limit):
    """The candidate at month match ``m``, or None."""
    month = sc.lexicon.months[m.group(1)]
    start, end = m.start(1), m.end(1)
    anchor = start
    day = year = rel_year = None
    spelled_thousand = False

    lm = left["day_left"].search(text, floor, anchor)
    if lm is not None:
        parsed = sc.parse_day(lm.group(2))
        if parsed is not None:
            day = parsed
            start = lm.start(1) if lm.group(1) else lm.start(2)
            ym = left["year_left"].search(text, floor, start)
            if ym is not None:
                year = int(ym.group(1))
                start = ym.start(1)
            else:
                start = lm.start(2)
    if day is None:
        ym = left["year_left"].search(text, floor, anchor)
        if ym is not None:
            year = int(ym.group(1))
            start = ym.start(1)

    pos = end
    if sc.re_relyear is not None and day is None and year is None:
        rm = sc.re_relyear.match(text, pos)
        if rm is not None and rm.end(1) <= limit:
            rel_year = sc.lexicon.relative_years[rm.group(1)]
            end = rm.end(1)
    if rel_year is None:
        for _ in range(2):
            matched = False
            if year is None:
                rm = sc.re_year_right.match(text, pos)
                spelled = _spelled_year(sc, text, pos, limit)
                if rm is not None and rm.end(1) <= limit:
                    year = int(rm.group(1))
                    pos = end = rm.end(1)
                    matched = True
                elif spelled is not None:
                    year, spelled_thousand, pos = spelled
                    end = pos
                    matched = True
            if not matched and day is None:
                rm = sc.re_day_right.match(text, pos)
                if (rm is not None and rm.end(1) <= limit
                        and not _takes_day(text, sc, left, following, rm.start(1),
                                           following_limit)):
                    parsed = sc.parse_day(rm.group(1))
                    if parsed is not None:
                        day = parsed
                        pos = end = rm.end(1)
                        matched = True
            if not matched:
                break

    if spelled_thousand and day is None:
        year = None
        end = m.end(1)

    if rel_year is not None:
        return LexicalCandidate(offset=start, length=end - start,
                                surface=text[start:end], kind=DateKind.MONTH_RELATIVE_YEAR,
                                month=month, rel_offset=rel_year)
    if day is not None and year is not None:
        return LexicalCandidate(offset=start, length=end - start,
                                surface=text[start:end], kind=DateKind.FULL,
                                year=year, month=month, day=day)
    if year is not None:
        return LexicalCandidate(offset=start, length=end - start,
                                surface=text[start:end], kind=DateKind.YEAR_MONTH,
                                year=year, month=month)
    if day is not None:
        return LexicalCandidate(offset=start, length=end - start,
                                surface=text[start:end], kind=DateKind.MONTH_DAY,
                                month=month, day=day)
    pm = left["premod"].search(text, floor, anchor)
    if pm is None:
        return None
    start = pm.start(1)
    return LexicalCandidate(offset=start, length=end - start,
                            surface=text[start:end], kind=DateKind.RELATIVE_MONTH,
                            month=month, rel_offset=sc.lexicon.pre_modifiers[pm.group(1)])


def find_lexical_dates(text, lexicon, numeric):
    """An anchor that a candidate before it overlaps, or a numeric candidate
    starts inside, is skipped.  Each month's left context reads from the
    furthest end of the candidates that start before it, and its right context
    no further than the start of the next numeric candidate."""
    sc = lexicon._scanner
    left = left_patterns(lexicon)
    anchors = [(m.start(), m, True) for m in month_pattern(lexicon).finditer(text)]
    if lexicon.relative_days:
        anchors += [(m.start(), m, False) for m in relday_pattern(lexicon).finditer(text)]
    anchors.sort(key=lambda a: a[0])
    candidates = []
    claims = [(c.offset, c.offset + c.length) for c in numeric]
    for i, (start, m, is_month) in enumerate(anchors):
        if any(s < m.end() and e > start for s, e in claims):
            continue
        if is_month:
            floor = max((e for s, e in claims if s < start), default=0)
            limit = min((c.offset for c in numeric if c.offset >= start), default=len(text))
            following = anchors[i + 1] if i + 1 < len(anchors) else None
            following_limit = following and min(
                (c.offset for c in numeric if c.offset >= following[0]), default=len(text))
            c = _scan_month(text, m, sc, left, floor, limit, following, following_limit)
        else:
            c = LexicalCandidate(
                offset=m.start(), length=m.end() - m.start(), surface=m.group(0),
                kind=DateKind.RELATIVE_DAY, rel_offset=lexicon.relative_days[m.group(1)])
        if c is not None:
            candidates.append(c)
            claims.append((c.offset, c.offset + c.length))
    return candidates


@dataclass(frozen=True)
class DateMatch:
    offset: int
    length: int
    surface: str
    normal: NormalizedDate
    resolved: NormalizedDate | None = None


def normalize_match(candidate, document_order, reject_two_digit_years=False, diagnostics=None):
    def discard(reason):
        if diagnostics is not None:
            diagnostics.append((candidate.offset, candidate.surface, reason))
        return None

    if isinstance(candidate, NumericCandidate):
        if candidate.ymd:
            year, month, day = int(candidate.f1), int(candidate.f2), int(candidate.f3)
        else:
            if (reject_two_digit_years and len(candidate.f3) == 2
                    and len(candidate.f1) == 1 and len(candidate.f2) == 1):
                return discard("two-digit year with unpadded day and month")
            year = _expand_year(candidate.f3)
            if candidate.dmy_possible and not candidate.mdy_possible:
                day, month = int(candidate.f1), int(candidate.f2)
            elif candidate.mdy_possible and not candidate.dmy_possible:
                month, day = int(candidate.f1), int(candidate.f2)
            elif candidate.dmy_possible and candidate.mdy_possible:
                if document_order == ORDER_MDY:
                    month, day = int(candidate.f1), int(candidate.f2)
                else:
                    day, month = int(candidate.f1), int(candidate.f2)
            else:
                return discard("no valid day/month reading")
        try:
            normal = NormalizedDate(DateKind.FULL, year=year, month=month, day=day)
        except ValueError as exc:
            return discard(str(exc))
        return DateMatch(candidate.offset, candidate.length, candidate.surface, normal)

    try:
        normal = NormalizedDate(candidate.kind, year=candidate.year,
                                month=candidate.month, day=candidate.day,
                                rel_offset=candidate.rel_offset)
    except ValueError as exc:
        return discard(str(exc))
    return DateMatch(candidate.offset, candidate.length, candidate.surface, normal)


def resolve_relative(normal, reference):
    k = normal.kind
    if k is DateKind.RELATIVE_DAY:
        resolved = reference + datetime.timedelta(days=normal.rel_offset)
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
        return NormalizedDate(DateKind.YEAR_MONTH, year=year, month=month)
    if k is DateKind.MONTH_RELATIVE_YEAR:
        return NormalizedDate(DateKind.YEAR_MONTH,
                              year=reference.year + normal.rel_offset, month=normal.month)
    return None


def extract_dates(text, lexicon, reference=None, default_order=None,
                  reject_two_digit_years=False, diagnostics=None):
    numeric = find_numeric_dates(text)
    order = infer_document_order(numeric, (default_order or lexicon.default_order).lower())
    matches = []
    for cand in numeric + find_lexical_dates(text, lexicon, numeric):
        m = normalize_match(cand, order, reject_two_digit_years, diagnostics)
        if m is not None:
            matches.append(m)
    matches.sort(key=lambda m: m.offset)
    if reference is not None:
        matches = [DateMatch(m.offset, m.length, m.surface, m.normal,
                             resolve_relative(m.normal, reference)) for m in matches]
    return matches
