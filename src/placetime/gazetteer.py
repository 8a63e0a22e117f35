"""Place-name database: loading, indexing and longest multi-word lookup.

The gazetteer file is UTF-8 TSV:
``id<TAB>canonical<TAB>variant1|variant2|...<TAB>country<TAB>lat<TAB>lon<TAB>size_class``
with ``#`` comment lines.  Lookup is a dictionary match over whitespace
tokens, longest name first, exact-case; :func:`name_table` puts places and
country triggers under one first-token table for tagging.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from itertools import compress, repeat

from .errors import LoadError, check_country, read_lines, tsv_records

TRIGGER_KINDS = ("iso_code", "currency", "adjective", "country_name")


@dataclass
class Tokens:
    """Whitespace tokens as parallel columns: stripped text, start and end offset."""
    texts: list
    starts: list
    ends: list

    def __len__(self):
        return len(self.texts)


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


_ASCII_PUNCT = "".join(ch for ch in map(chr, range(128)) if _is_punct(ch))
_ASCII_BYTES = bytes(range(128))


def split_words(text: str):
    """The words of ``text`` and their tokens: two parallel lists.

    A word is a run of non-whitespace (``str.split``); its token is the word
    stripped of leading and trailing punctuation (Unicode category P).  Words
    that are all punctuation have no token and are left out.
    """
    punct = _ASCII_PUNCT
    if not text.isascii():
        # Without its ASCII bytes, the UTF-8 form still holds every other character whole.
        other = text.encode("utf-8", "surrogatepass").translate(None, _ASCII_BYTES)
        punct += "".join(filter(_is_punct, set(other.decode("utf-8", "surrogatepass"))))
    words = text.split()
    keys = list(map(str.strip, words, repeat(punct)))
    if "" in keys:
        words = list(compress(words, keys))
        keys = list(filter(None, keys))
    return words, keys


def locate(text: str, word: str, key: str, cursor: int):
    """Where the next copy of ``word`` stands as a whole word at or after ``cursor``:
    the start and end of its token ``key``, and the end of the word.

    Between ``cursor`` and the word asked for, ``text`` must hold no other word
    equal to it; then the first copy with whitespace or the text's edge on both
    sides is that word.
    """
    find, n = text.find, len(word)
    start = find(word, cursor)
    while ((start and not text[start - 1].isspace())
           or (start + n < len(text) and not text[start + n].isspace())):
        start = find(word, start + 1)
    s = start if key is word else start + word.find(key)  # only punctuation precedes key
    return s, s + len(key), start + n


def tokenize(text: str) -> Tokens:
    """Split on whitespace and strip leading/trailing punctuation.

    Internal hyphens and apostrophes survive ("Nord-Pas de Calais" gives
    the three tokens "Nord-Pas", "de", "Calais").  Offsets address the
    stripped core in the original text.
    """
    words, keys = split_words(text)
    starts, ends = [], []
    cursor = 0
    for word, key in zip(words, keys):
        s, e, cursor = locate(text, word, key, cursor)
        starts.append(s)
        ends.append(e)
    return Tokens(keys, starts, ends)


@dataclass(frozen=True)
class PlaceRecord:
    id: int
    canonical_name: str
    variants: tuple
    country: str
    latitude: float
    longitude: float
    size_class: int

    def surfaces(self):
        return (self.canonical_name,) + self.variants


@dataclass(frozen=True)
class CountryTrigger:
    surface: str
    country: str
    kind: str

    def __post_init__(self):
        if self.kind not in TRIGGER_KINDS:
            raise ValueError("unknown trigger kind %r" % (self.kind,))
        check_country(self.country)


@dataclass(frozen=True)
class GeoStopList:
    language: str
    words: frozenset


@dataclass(frozen=True)
class SpanMatch:
    """A name at some token position: its token span and place ids, or (first trigger,)."""
    span: int
    payload: tuple


class GazetteerIndex:
    """All place records plus a first-token index over every surface form.

    When ``where`` is given, a LoadError about the i-th record begins with
    ``where(i)``, such as the ``path:line`` it was read from.
    """

    def __init__(self, records, where=None):
        records = list(records)
        self.records = {}
        for i, rec in enumerate(records):
            if rec.id in self.records:
                raise LoadError(_located(where, i, "duplicate place id %d" % rec.id))
            self.records[rec.id] = rec
        self._first = _first_token_index(
            ((surface, i) for i, rec in enumerate(records) for surface in rec.surfaces()),
            lambda surface, i: _located(
                where, i, "unindexable surface %r for id %d" % (surface, records[i].id)),
            lambda key, positions: (key, tuple(sorted({records[i].id for i in positions})), None))

    def match_at(self, tokens, position):
        """Longest name/variant whose tokens start at ``position``, or None."""
        return _match_token_index(self._first, tokens, position)

    def single_token_surfaces(self):
        """All distinct single-token surface forms in the index."""
        return {key[0] for entries in self._first.values() for key, _, _ in entries
                if len(key) == 1}


class TriggerIndex:
    """Country triggers indexed the same way as gazetteer names; ``where`` as there."""

    def __init__(self, triggers, where=None):
        self.triggers = triggers = tuple(triggers)
        self._first = _first_token_index(
            ((trig.surface, i) for i, trig in enumerate(triggers)),
            lambda surface, i: _located(where, i, "unindexable trigger surface %r" % (surface,)),
            lambda key, positions: (key, (), triggers[positions[0]]))

    def match_at(self, tokens, position):
        return _match_token_index(self._first, tokens, position)


def _located(where, i, message):
    return message if where is None else "%s: %s" % (where(i), message)


def _first_token_index(named, unindexable, entry):
    """First token -> [entry(key, values)], longest key first.

    ``named`` yields (surface, value); ``key`` lists its tokens; same-key values keep their order.
    Each entry is ``(key, candidates, trigger)`` and needs candidates or a trigger, which
    :func:`~placetime.geotag.tag_places` then copies into every match unchecked.
    """
    by_key = {}
    for surface, value in named:
        key = tuple(tokenize(surface).texts)
        if not key:
            raise LoadError(unindexable(surface, value))
        by_key.setdefault(key, []).append(value)
    first = {}
    for key in sorted(by_key, key=lambda k: (-len(k), k)):
        made = entry(list(key), by_key[key])
        if not made[1] and made[2] is None:
            raise ValueError("a name table entry needs candidates or a trigger")
        first.setdefault(key[0], []).append(made)
    return first


def _match_token_index(first_index, tokens, position):
    if position < 0 or position >= len(tokens):
        raise IndexError("position %d outside token sequence" % position)
    texts = tokens.texts
    for key, ids, trigger in first_index.get(texts[position], ()):  # sorted longest first
        if texts[position:position + len(key)] == key:
            return SpanMatch(span=len(key), payload=ids or (trigger,))
    return None


def _starts_upper(token_text: str) -> bool:
    for ch in token_text:
        if ch.isalpha():
            return ch.isupper() or ch.istitle()
    return False


def name_table(index: GazetteerIndex, triggers: TriggerIndex | None = None):
    """One first-token table over place names and country triggers.

    Maps a token to the entries ``(key, candidates, trigger)`` of both indexes:
    ``key`` lists a surface's tokens, and a place entry holds the surface's
    sorted place ids and no trigger, a trigger entry no ids and the surface's
    first trigger in file order.  Entries run longest key first, a place before
    a trigger of the same length, so the first entry whose key matches at a
    position is the match there.  Places are listed only under a token whose
    first cased character is upper-case; triggers need no capital.  A token's
    list is the index's own unless places and triggers both start it, so the
    table serves every document of a run and is never changed.
    """
    table = {first: entries for first, entries in index._first.items()
             if _starts_upper(first)}
    for first, entries in triggers._first.items() if triggers is not None else ():
        places = table.get(first)
        table[first] = entries if places is None else sorted(
            places + entries, key=lambda entry: -len(entry[0]))  # stable: places stay first
    return table


def _place_record(fields) -> PlaceRecord:
    """One gazetteer line's fields as a record; ValueError names the first broken rule."""
    rid, canonical, variants, country, lat, lon, size_class = fields
    rid, lat, lon, size_class = int(rid), float(lat), float(lon), int(size_class)
    if not canonical:
        raise ValueError("empty canonical name")
    variant_list = tuple(variants.split("|")) if variants else ()
    if any(not v for v in variant_list):
        raise ValueError("empty variant")
    if not (1 <= size_class <= 6):
        raise ValueError("size_class %d outside 1..6" % size_class)
    if not (-90.0 <= lat <= 90.0) or not (-180.0 <= lon <= 180.0):
        raise ValueError("coordinates out of range")
    check_country(country)
    return PlaceRecord(rid, canonical, variant_list, country, lat, lon, size_class)


def load_gazetteer(path, max_size_class=None, keep_countries=()) -> GazetteerIndex:
    """Load the TSV gazetteer.

    When ``max_size_class`` is given, records of a larger (less important)
    size class are dropped unless their country is in ``keep_countries``.
    An error about a record names its file and line.
    """
    records, lines = [], []
    keep = frozenset(keep_countries)
    for lineno, fields in tsv_records(path, "gazetteer", 7):
        try:
            rec = _place_record(fields)
        except ValueError as exc:
            raise LoadError("%s:%d: %s" % (path, lineno, exc)) from exc
        if (max_size_class is not None and rec.size_class > max_size_class
                and rec.country not in keep):
            continue
        records.append(rec)
        lines.append(lineno)
    return GazetteerIndex(records, lambda i: "%s:%d" % (path, lines[i]))


def load_stop_words(path, language: str) -> GeoStopList:
    """One surface form per line, exact-case, deduplicated."""
    words = frozenset(w.strip() for w in read_lines(path, "stop-word list") if w.strip())
    return GeoStopList(language=language, words=words)


def load_triggers(path) -> TriggerIndex:
    """TSV ``surface<TAB>country<TAB>kind`` with ``#`` comments."""
    triggers, lines = [], []
    for lineno, (surface, country, kind) in tsv_records(path, "trigger file", 3):
        try:
            triggers.append(CountryTrigger(surface, country, kind))
        except ValueError as exc:
            raise LoadError("%s:%d: %s" % (path, lineno, exc)) from exc
        lines.append(lineno)
    return TriggerIndex(triggers, lambda i: "%s:%d" % (path, lines[i]))


def propose_stop_words(index: GazetteerIndex, frequency_list, top_n: int):
    """Candidate geo stop words for human review.

    Every single-token gazetteer surface that occurs (case-insensitively)
    among the ``top_n`` most frequent words, in frequency-rank order.  The
    output is a proposal only; nothing is ever applied automatically.
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    surfaces = {}
    for s in index.single_token_surfaces():
        surfaces.setdefault(s.lower(), []).append(s)
    proposals = []
    seen = set()
    for word in list(frequency_list)[:top_n]:
        key = word.lower()
        for surface in sorted(surfaces.get(key, ())):
            if surface not in seen:
                seen.add(surface)
                proposals.append(surface)
    return proposals
