"""The per-token place tagger that ``gazetteer.name_table`` and ``geotag.tag_places``
replaced, and the place-id disambiguator that ``geotag.disambiguate`` replaced,
kept as the references the tests compare them against.

Here a token is one object, punctuation is stripped one character at a time,
and every token position asks a place index (upper-case-initial tokens only)
and a trigger index separately; the longer match wins, a place on a tie.
"""

import re
import unicodedata
from collections import Counter, namedtuple

from placetime.geotag import GeoMatch

Token = namedtuple("Token", "text start end")

_NONSPACE = re.compile(r"\S+")


def _is_punct(ch):
    return unicodedata.category(ch).startswith("P")


def tokenize(text):
    tokens = []
    for m in _NONSPACE.finditer(text):
        s, e = m.start(), m.end()
        while s < e and _is_punct(text[s]):
            s += 1
        while e > s and _is_punct(text[e - 1]):
            e -= 1
        if e > s:
            tokens.append(Token(text[s:e], s, e))
    return tokens


def _first_token_index(named, payload):
    by_key = {}
    for surface, value in named:
        key = tuple(t.text for t in tokenize(surface))
        by_key.setdefault(key, []).append(value)
    first = {}
    for key in sorted(by_key, key=lambda k: (-len(k), k)):
        first.setdefault(key[0], []).append((key, payload(by_key[key])))
    return first


def _match(first_index, tokens, position):
    """(span, payload) of the longest key at ``position``, or None."""
    for key, payload in first_index.get(tokens[position].text, ()):
        if position + len(key) > len(tokens):
            continue
        if all(tokens[position + i].text == key[i] for i in range(len(key))):
            return len(key), payload
    return None


def _starts_upper(token_text):
    for ch in token_text:
        if ch.isalpha():
            return ch.isupper() or ch.istitle()
    return False


def tag_places(text, index, stop_words=frozenset(), triggers=None):
    """``index`` is a GazetteerIndex, ``triggers`` a TriggerIndex or None."""
    places = _first_token_index(
        ((surface, rec.id) for rec in index.records.values() for surface in rec.surfaces()),
        lambda ids: tuple(sorted(set(ids))))
    trigs = _first_token_index(((t.surface, t) for t in triggers.triggers), tuple) \
        if triggers is not None else {}
    tokens = tokenize(text)
    matches = []
    i = 0
    while i < len(tokens):
        place = _match(places, tokens, i) if _starts_upper(tokens[i].text) else None
        trig = _match(trigs, tokens, i)
        if place is not None and (trig is None or place[0] >= trig[0]):
            span, fields = place[0], {"candidates": place[1]}
        elif trig is not None:
            span, fields = trig[0], {"trigger": trig[1][0]}
        else:
            i += 1
            continue
        start, end = tokens[i].start, tokens[i + span - 1].end
        if text[start:end] not in stop_words:
            matches.append(GeoMatch(offset=start, length=end - start,
                                    surface=text[start:end], **fields))
        i += span
    return matches


def disambiguate(matches, index):
    """Per match, the winning place id, or a trigger's country code.

    The candidate of highest importance (lowest size class) wins by
    default; a candidate whose country has strictly more unambiguous
    references in the document overrides it.  Ties break by reference
    count, then lexicographic country code.  Triggers resolve directly to
    their country.
    """
    refs = Counter()
    for m in matches:
        if m.trigger is not None:
            refs[m.trigger.country] += 1
        elif len(m.candidates) == 1:
            refs[index.records[m.candidates[0]].country] += 1
    resolved = []
    for m in matches:
        if m.trigger is not None:
            resolved.append(m.trigger.country)
            continue
        cands = [index.records[i] for i in m.candidates]
        best = min(cands, key=lambda r: (r.size_class, -refs[r.country], r.country, r.id))
        challengers = [r for r in cands if refs[r.country] > refs[best.country]]
        if challengers:
            best = min(challengers,
                       key=lambda r: (-refs[r.country], r.size_class, r.country, r.id))
        resolved.append(best.id)
    return resolved
