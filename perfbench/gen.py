"""Seeded benchmark inputs, each with its expected output.

Nothing here calls placetime's extraction code.  Date phrases are composed
from the shipped lexicon entries and their normal forms come from this
generator; relative forms are resolved with ``datetime`` against the
reference date.  Places and triggers take their expected country from this
module's own reading of the gazetteer and trigger TSVs, with the documented
homograph rule.  Filler text holds no lexicon, gazetteer or trigger surface,
so the expected outputs are exactly the planted items.
"""

from __future__ import annotations

import datetime
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "placetime" / "data"
CORPUS = ROOT / "tests" / "data" / "corpus"

LEXICON = {"en": DATA / "lexicons" / "en.lex", "ro": DATA / "lexicons" / "ro.lex"}
GAZETTEER = DATA / "gazetteer" / "world_small.tsv"
TRIGGERS = DATA / "triggers" / "triggers.tsv"
STOPWORDS = DATA / "stopwords" / "en.txt"
OUTLINE = DATA / "outline" / "world_outline.tsv"

# Training text is generated on this seed whatever ``--seed`` is, so the
# identification documents never share a seed with the profiles.
TRAIN_SEED = 1

EN_WORDS = """
council report market officials announced agreement delegates meeting weather
rainfall traffic railway museum exhibition opened visitors ministers travelled
budget schools hospital harbour festival orchestra performed ceremony parade
workers strike bridge repairs river floods coast ferry safety experts discussed
talks summit signed treaty trade prices energy grain exports imports rose fell
sharply slowly quietly reported confirmed denied local regional national press
agency statement said after before while with from into near across between
about under over against among new large small public private several many
both were was had has have would could should will also again later earlier
soon still already nearly almost students teachers farmers pilots engineers
company bank shares profits losses tourists hotels season visitors concert
election voters candidates campaign police court judge ruling appeal
""".split()

RO_WORDS = """
guvernul ministrul primăria orașul consiliul raportul piața prețurile energie
școlile spitalul podul râul inundații festivalul muzeul expoziția vizitatori
delegații acordul semnat anunțat confirmat declarat transport trenuri vremea
ploile zăpadă grâu export import creștere scădere mult puțin nou vechi mare
mic public privat toți fiecare după înainte apoi deja încă totuși foarte
echipa meciul turiști hotelul sezonul studenți profesori universitatea
cercetare alegeri candidați campanie poliția tribunalul decizia recolta
fermierii șoferii inginerii compania banca acțiunile profituri pierderi
""".split()

TABLE_WORDS = """
consignment received shipped pending cleared delayed invoice audit inspection
batch cargo container freight dispatched returned archived approved rejected
""".split()

# --------------------------------------------------------------------------
# independent readers of the shipped data files

def _data_lines(path):
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            yield line


def read_lexicon(path):
    """Section name -> list of (key, value); connectors keep the whole line."""
    sections = {}
    current = None
    for line in _data_lines(path):
        line = line.strip()
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], [])
        elif "=" in line:
            key, _, value = line.partition("=")
            current.append((key.strip(), value.strip()))
        else:
            current.append((line, ""))
    return sections


@dataclass(frozen=True)
class Place:
    id: int
    country: str
    size_class: int


@dataclass
class Geo:
    """The benchmark's own reading of the gazetteer and trigger files."""
    by_surface: dict = field(default_factory=dict)   # surface -> [Place]
    triggers: dict = field(default_factory=dict)     # surface -> country
    stop_words: frozenset = frozenset()
    outline_rows: int = 0

    @classmethod
    def load(cls):
        geo = cls()
        for line in _data_lines(GAZETTEER):
            rid, canonical, variants, country, _lat, _lon, size = line.split("\t")
            place = Place(int(rid), country, int(size))
            for surface in [canonical] + [v for v in variants.split("|") if v]:
                geo.by_surface.setdefault(surface, []).append(place)
        for line in _data_lines(TRIGGERS):
            surface, country, _kind = line.split("\t")
            geo.triggers[surface] = country
        geo.stop_words = frozenset(_data_lines(STOPWORDS))
        geo.outline_rows = sum(1 for _ in _data_lines(OUTLINE))
        return geo

    def tokens(self):
        """Every whitespace token of every gazetteer and trigger surface."""
        return {t for s in list(self.by_surface) + list(self.triggers) for t in s.split()}


def resolve_places(planted, geo):
    """Expected country and place id of each planted surface, in order.

    Triggers count for their country.  A homograph goes to its most important
    candidate (lowest size class) unless another candidate's country has
    strictly more unambiguous references in the document; ties break by
    reference count, then country code, then id.
    """
    refs = Counter()
    for surface in planted:
        if surface in geo.triggers:
            refs[geo.triggers[surface]] += 1
        elif len(geo.by_surface[surface]) == 1:
            refs[geo.by_surface[surface][0].country] += 1
    out = []
    for surface in planted:
        if surface in geo.triggers:
            out.append((geo.triggers[surface], None))
            continue
        cands = geo.by_surface[surface]
        best = min(cands, key=lambda p: (p.size_class, -refs[p.country], p.country, p.id))
        challengers = [p for p in cands if refs[p.country] > refs[best.country]]
        if challengers:
            best = min(challengers,
                       key=lambda p: (-refs[p.country], p.size_class, p.country, p.id))
        out.append((best.country, best.id))
    return out


# --------------------------------------------------------------------------
# date phrases

class Phrases:
    """Date phrases of one lexicon, each with its normal form."""

    def __init__(self, lang):
        sec = read_lexicon(LEXICON[lang])
        self.lang = lang
        self.months = {int(k): v.split("|") for k, v in sec["months"]}
        self.days = {}
        for k, v in sec["day_ordinals"]:
            self.days.setdefault(int(k), []).extend(s for s in v.split("|") if s)
        self.relative_days = {k: int(v) for k, v in sec.get("relative_days", [])}
        self.pre_modifiers = {k: int(v) for k, v in sec.get("pre_modifiers", [])}
        self.relative_years = {k: int(v) for k, v in sec.get("relative_years", [])}
        self.number_words = {k: int(v) for k, v in sec.get("number_words", [])}
        self.connectors = [k for k, _ in sec.get("connectors", [])]
        forms = ["full_dmy", "full_dmy", "full_mdy", "year_month", "month_day",
                 "numeric_dmy", "numeric_dot", "numeric_iso", "relative_day",
                 "month_relative_year"]
        if self.pre_modifiers:
            forms.append("relative_month")
        if self.number_words:
            forms.append("spelled_year")
        if lang == "ro":
            forms.remove("full_mdy")
        self.forms = forms

    def surfaces(self):
        """Every surface a filler word must not be."""
        out = set(self.relative_days) | set(self.pre_modifiers) | set(self.number_words)
        for group in (self.months, self.days):
            for surfaces in group.values():
                out.update(surfaces)
        for phrase in list(self.relative_years) + self.connectors:
            out.update(phrase.split())
        return out

    def _month(self, rng, month, full=False):
        surfaces = self.months[month]
        return surfaces[0] if full else rng.choice(surfaces)

    def _day(self, rng, day):
        if rng.random() < 0.5:
            return str(day)
        return rng.choice(self.days.get(day, [str(day)]))

    def phrase(self, rng, form, reference):
        """(surface, kind, normal, resolved); resolved is None unless relative."""
        date = datetime.date.fromordinal(rng.randrange(
            datetime.date(1950, 1, 1).toordinal(), datetime.date(2030, 12, 31).toordinal()))
        y, m, d = date.year, date.month, date.day
        full = "%04d-%02d-%02d" % (y, m, d)
        if form == "full_dmy":
            return "%s %s %d" % (self._day(rng, d), self._month(rng, m), y), "full", full, None
        if form == "full_mdy":
            return "%s %d, %d" % (self._month(rng, m), d, y), "full", full, None
        if form == "numeric_dmy":
            return "%02d/%02d/%04d" % (d, m, y), "full", full, None
        if form == "numeric_dot":
            return "%d.%d.%04d" % (d, m, y), "full", full, None
        if form == "numeric_iso":
            return full, "full", full, None
        if form == "year_month":
            return "%s %d" % (self._month(rng, m), y), "year_month", full[:7], None
        if form == "month_day":
            return ("%s %s" % (self._day(rng, d), self._month(rng, m)), "month_day",
                    "--%02d-%02d" % (m, d), None)
        if form == "spelled_year":
            y = rng.randrange(1910, 2030)
            while y % 100 < 10:
                y = rng.randrange(1910, 2030)
            return ("%s %s" % (self._month(rng, m), self._spell_year(y)), "year_month",
                    "%04d-%02d" % (y, m), None)
        if form == "relative_day":
            word = rng.choice(sorted(w for w in self.relative_days if w.islower()))
            offset = self.relative_days[word]
            resolved = reference + datetime.timedelta(days=offset)
            return word, "relative_day", "D%+d" % offset, resolved.isoformat()
        if form == "relative_month":
            word = rng.choice(sorted(w for w in self.pre_modifiers if w.islower()))
            sign = self.pre_modifiers[word]
            year = _walk_to_month(reference, m, sign)
            return ("%s %s" % (word, self._month(rng, m, full=True)), "relative_month",
                    "M%02d%+d" % (m, sign), "%04d-%02d" % (year, m))
        if form == "month_relative_year":
            phrase = rng.choice(sorted(self.relative_years))
            offset = self.relative_years[phrase]
            return ("%s %s" % (self._month(rng, m, full=True), phrase),
                    "month_relative_year", "M%02dY%+d" % (m, offset),
                    "%04d-%02d" % (reference.year + offset, m))
        raise ValueError(form)

    def _spell_year(self, year):
        word = {v: k for k, v in self.number_words.items() if v}

        def two(n):
            if n < 20 or n % 10 == 0:
                return word[n]
            return "%s %s" % (word[n - n % 10], word[n % 10])
        return "%s %s" % (two(year // 100), two(year % 100))


def _walk_to_month(reference, month, sign):
    """Year of the named month, walking month by month from the reference."""
    if sign == 0:
        return reference.year
    probe = datetime.date(reference.year, reference.month, 1)
    while True:
        if sign > 0:
            probe = (probe + datetime.timedelta(days=32)).replace(day=1)
        else:
            probe = (probe - datetime.timedelta(days=1)).replace(day=1)
        if probe.month == month:
            return probe.year


# --------------------------------------------------------------------------
# documents

@dataclass
class Doc:
    name: str
    lang: str
    encoding: str
    data: bytes
    dates: list = field(default_factory=list)    # expected date records
    places: list = field(default_factory=list)   # expected geo records
    gold: dict | None = None                     # fixture gold JSON
    kind: str = ""

    @property
    def text(self):
        return self.data.decode(self.encoding)


class _Builder:
    def __init__(self):
        self.parts = []
        self.size = 0        # characters
        self.nbytes = 0
        self.dates = []
        self.places = []     # (offset, length, surface)

    def add(self, text):
        self.parts.append(text)
        self.size += len(text)
        self.nbytes += len(text.encode("utf-8"))

    def date(self, surface, kind, normal, resolved):
        record = {"offset": self.size, "length": len(surface), "surface": surface,
                  "kind": kind, "normal": normal}
        if resolved is not None:
            record["resolved"] = resolved
        self.dates.append(record)
        self.add(surface)

    def place(self, surface):
        self.places.append((self.size, len(surface), surface))
        self.add(surface)

    def finish(self, name, lang, geo, kind):
        text = "".join(self.parts)
        resolved = resolve_places([s for _, _, s in self.places], geo)
        places = []
        for (offset, length, surface), (country, pid) in zip(self.places, resolved):
            record = {"offset": offset, "length": length, "surface": surface,
                      "country": country}
            if pid is not None:
                record["place_id"] = pid
            places.append(record)
        return Doc(name, lang, "UTF-8", text.encode("utf-8"), self.dates, places, kind=kind)


class Generator:
    """Makes the text documents of the long-articles and news-batch workloads."""

    def __init__(self):
        self.geo = Geo.load()
        self.phrases = {lang: Phrases(lang) for lang in LEXICON}
        geo_tokens = self.geo.tokens()
        for lang, words in (("en", EN_WORDS + TABLE_WORDS), ("ro", RO_WORDS)):
            banned = self.phrases[lang].surfaces() | geo_tokens
            bad = sorted(w for w in words
                         if {w, w.capitalize()} & banned or w.lower() in
                         {c.lower() for c in self.phrases[lang].connectors}
                         or any(ch.isdigit() or ch in "[]|" for ch in w))
            if bad:
                raise ValueError("filler words that are surfaces: %s" % bad)
        planted = [s for s in self.geo.by_surface if s not in self.geo.stop_words]
        ro_only = {"Franta", "Frantei", "Franța", "Franței", "Germania", "Germaniei",
                   "Marea Britanie"}
        self.surfaces = {
            "en": planted + [s for s in self.geo.triggers if s not in ro_only],
            "ro": planted + list(self.geo.triggers),
        }
        self.suppressed = sorted(s for s in self.geo.stop_words if s in self.geo.by_surface)

    def _item(self, rng, b, lang, reference):
        if rng.random() < 0.5:
            p = self.phrases[lang]
            b.date(*p.phrase(rng, rng.choice(p.forms), reference))
        elif rng.random() < 0.03:
            b.add(rng.choice(self.suppressed))       # a stop word: no record
        else:
            b.place(rng.choice(self.surfaces[lang]))
            if rng.random() < 0.3:
                b.add(",")

    def prose(self, rng, lang, target_bytes, reference, items_per_sentence=2.0, name=""):
        """Sentences of filler words with dates, places and triggers planted
        between them, never next to each other."""
        words = EN_WORDS if lang == "en" else RO_WORDS
        b = _Builder()
        sentences = 0
        while b.nbytes < target_bytes:
            n = rng.randint(8, 16)
            k = min(n - 1, _poisson(rng, items_per_sentence))
            gaps = set(rng.sample(range(1, n), k))
            for i in range(n):
                word = rng.choice(words)
                b.add(word.capitalize() if i == 0 else word)
                if i + 1 in gaps:
                    b.add(" ")
                    self._item(rng, b, lang, reference)
                if i + 1 < n:
                    b.add(" ")
            sentences += 1
            b.add(".\n\n" if sentences % 6 == 0 else ". ")
        return b.finish(name, lang, self.geo, "prose")

    def table(self, rng, target_bytes, name=""):
        """Rows of ISO, dd/mm/yyyy and dotted dates beside a place and words."""
        p = self.phrases["en"]
        b = _Builder()
        while b.nbytes < target_bytes:
            b.add("| ")
            for form in ("numeric_iso", "numeric_dmy", "numeric_dot", "numeric_dmy"):
                b.date(*p.phrase(rng, form, None))
                b.add(" | ")
            b.place(rng.choice(self.surfaces["en"]))
            b.add(" | %s %s |\n" % (rng.choice(TABLE_WORDS), rng.choice(TABLE_WORDS)))
        return b.finish(name, "en", self.geo, "table")


def _poisson(rng, mean):
    limit, k, p = math.exp(-mean), 0, rng.random()
    while p > limit:
        k += 1
        p *= rng.random()
    return k


def fixtures():
    """The 20 fixture documents with their gold JSON."""
    docs = []
    for path in sorted(CORPUS.glob("*.txt")):
        gold = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
        docs.append(Doc("fixture_" + path.name, "en", "UTF-8", path.read_bytes(),
                        gold=gold, kind="fixture"))
    return docs


def training_text(gen, lang, target_bytes):
    """Held-out text of the news generator, on the fixed training seed."""
    rng = random.Random("train|%s|%d" % (lang, TRAIN_SEED))
    reference = datetime.date(2003, 3, 1)
    return gen.prose(rng, lang, target_bytes, reference, items_per_sentence=1.0).data
