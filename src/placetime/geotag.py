"""Place-name tagging, homograph disambiguation and per-country tallies.

Every token whose first cased character is upper-case is tested against
the gazetteer (longest multi-word name wins).  Country triggers - ISO
codes, currency names, demonym adjectives, foreign country names - count
as a hit for their country and bypass disambiguation.  Homograph places
are resolved by importance (size class 1 beats 4) unless another
candidate's country has strictly more unambiguous references in the
document.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

from .gazetteer import CountryTrigger, GazetteerIndex, GeoStopList, TriggerIndex, tokenize


@dataclass(frozen=True)
class GeoMatch:
    offset: int
    length: int
    surface: str
    candidates: tuple = ()
    trigger: CountryTrigger | None = None
    resolved: object = None  # place id (int) or country code (str)

    def __post_init__(self):
        if not self.candidates and self.trigger is None:
            raise ValueError("GeoMatch needs candidates or a trigger")

    @property
    def is_ambiguous(self):
        return self.trigger is None and len(self.candidates) > 1


@dataclass(frozen=True)
class CountryTally:
    country: str
    hits: int
    percentage: float


def _starts_upper(token_text: str) -> bool:
    for ch in token_text:
        if ch.isalpha():
            return ch.isupper() or ch.istitle()
    return False


def tag_places(text, index: GazetteerIndex, stop_list: GeoStopList | None = None,
               triggers: TriggerIndex | None = None):
    """Scan decoded text for place names and country triggers.

    Matches are non-overlapping, longest-first, left to right; surfaces
    found in the stop list are dropped.  Candidates are left unresolved.
    """
    stop_words = stop_list.words if stop_list is not None else frozenset()
    tokens = tokenize(text)
    matches = []
    i = 0
    while i < len(tokens):
        place = index.match_at(tokens, i) if _starts_upper(tokens[i].text) else None
        trig = triggers.match_at(tokens, i) if triggers is not None else None
        best = None
        if place is not None and (trig is None or place.span >= trig.span):
            start = tokens[i].start
            end = tokens[i + place.span - 1].end
            best = GeoMatch(offset=start, length=end - start,
                            surface=text[start:end], candidates=place.payload)
            span = place.span
        elif trig is not None:
            start = tokens[i].start
            end = tokens[i + trig.span - 1].end
            best = GeoMatch(offset=start, length=end - start,
                            surface=text[start:end], trigger=trig.payload[0])
            span = trig.span
        if best is None:
            i += 1
            continue
        if best.surface in stop_words:
            i += span
            continue
        matches.append(best)
        i += span
    return matches


def unambiguous_tallies(matches, index: GazetteerIndex) -> Counter:
    """Per-country reference counts from single-candidate matches and triggers."""
    refs = Counter()
    for m in matches:
        if m.trigger is not None:
            refs[m.trigger.country] += 1
        elif len(m.candidates) == 1:
            refs[index.records[m.candidates[0]].country] += 1
    return refs


def disambiguate(matches, index: GazetteerIndex):
    """Resolve every match; returns a new list.

    The candidate of highest importance (lowest size class) wins by
    default; a candidate whose country has strictly more unambiguous
    references in the document overrides it.  Ties break by reference
    count, then lexicographic country code.  Triggers resolve directly to
    their country.
    """
    refs = unambiguous_tallies(matches, index)
    resolved = []
    for m in matches:
        if m.trigger is not None:
            resolved.append(replace(m, resolved=m.trigger.country))
            continue
        cands = [index.records[i] for i in m.candidates]
        best = min(cands, key=lambda r: (r.size_class, -refs[r.country], r.country, r.id))
        challengers = [r for r in cands if refs[r.country] > refs[best.country]]
        if challengers:
            best = min(challengers,
                       key=lambda r: (-refs[r.country], r.size_class, r.country, r.id))
        resolved.append(replace(m, resolved=best.id))
    return resolved


def aggregate_by_country(matches, index: GazetteerIndex):
    """Hit counts and percentages per country over resolved matches."""
    counts = Counter()
    for m in matches:
        if m.resolved is None:
            raise ValueError("aggregate_by_country needs resolved matches")
        if isinstance(m.resolved, str):
            counts[m.resolved] += 1
        else:
            counts[index.records[m.resolved].country] += 1
    total = sum(counts.values())
    tallies = [CountryTally(country=c, hits=n, percentage=100.0 * n / total)
               for c, n in counts.items()]
    tallies.sort(key=lambda t: (-t.hits, t.country))
    return tallies
