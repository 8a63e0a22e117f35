"""Place-name tagging, homograph disambiguation and per-country tallies.

Place names and country triggers - ISO codes, currency names, demonym
adjectives, foreign country names - are looked up in one first-token table
(:func:`~placetime.gazetteer.name_table`).  At each token the longest
matching surface wins, and a place beats a trigger of the same length.  A
place needs a token whose first cased character is upper-case; a trigger
needs no capital.  A trigger counts as a hit for its country and bypasses
disambiguation.  Homograph places are resolved by importance (size class 1
beats 4) unless another candidate's country has strictly more unambiguous
references in the document.  :func:`disambiguate` returns one resolution
per match: the winning :class:`~placetime.gazetteer.PlaceRecord`, or a
trigger's country code.

:class:`GeoMatch` and :class:`CountryTally` are named tuples, built
positionally once per match and per country.  A match takes the candidates
and trigger of its table entry unchecked: every entry has place ids or a
trigger, since a place entry holds the ids of at least one record and a
trigger entry its trigger.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, count
from typing import NamedTuple

from .gazetteer import CountryTrigger, GazetteerIndex, GeoStopList, locate, split_words
from .gazetteer import tokenize  # noqa: F401  (perfbench wraps ``geotag.tokenize`` by name)


class GeoMatch(NamedTuple):
    offset: int
    length: int
    surface: str
    candidates: tuple = ()
    trigger: CountryTrigger | None = None

    @property
    def is_ambiguous(self):
        return self.trigger is None and len(self.candidates) > 1


class CountryTally(NamedTuple):
    country: str
    hits: int
    percentage: float


def tag_places(text, table, stop_list: GeoStopList | None = None):
    """Scan decoded text for place names and country triggers.

    ``table`` is :func:`~placetime.gazetteer.name_table` of the gazetteer and
    triggers.  Matches are non-overlapping, longest-first, left to right;
    surfaces found in the stop list are dropped.  Candidates are left unresolved.
    """
    stop_words = stop_list.words if stop_list is not None else frozenset()
    words, keys = split_words(text)
    matches = []
    free = 0  # the first token not inside an earlier match
    cursor = 0  # the end of the last word located: hits are searched for from here
    for i in compress(count(), map(table.get, keys)):  # the tokens that start an entry
        if i < free:
            continue
        start, end, cursor = locate(text, words[i], keys[i], cursor)
        for key, candidates, trigger in table[keys[i]]:
            span = len(key)
            if span > 1:
                if keys[i:i + span] != key:
                    continue
                for j in range(i + 1, i + span):
                    _, end, cursor = locate(text, words[j], keys[j], cursor)
            surface = text[start:end]
            if surface not in stop_words:
                matches.append(GeoMatch(start, end - start, surface, candidates, trigger))
            free = i + span
            break
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
    """One resolution per match, in order: its winning place record, or its
    trigger's country code.

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
            resolved.append(m.trigger.country)
            continue
        if len(m.candidates) == 1:
            resolved.append(index.records[m.candidates[0]])
            continue
        cands = [index.records[i] for i in m.candidates]
        best = min(cands, key=lambda r: (r.size_class, r.country, r.id))
        challengers = [r for r in cands if refs[r.country] > refs[best.country]]
        if challengers:
            best = min(challengers,
                       key=lambda r: (-refs[r.country], r.size_class, r.country, r.id))
        resolved.append(best)
    return resolved


def aggregate_by_country(resolved):
    """Hit counts and percentages per country over :func:`disambiguate`'s resolutions."""
    counts = Counter([r if isinstance(r, str) else r.country for r in resolved])
    total = len(resolved)
    return [CountryTally(c, n, 100.0 * n / total)
            for c, n in sorted(counts.items(), key=lambda cn: (-cn[1], cn[0]))]
