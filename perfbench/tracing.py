"""Spans around placetime's public functions, recorded from outside.

Each wrapped call records one span: name, start, end, parent span and an
optional count taken from its arguments or result.  Spans live in compact
arrays and are written out once, when the run ends.  Nothing in placetime is
edited: module attributes and class methods are replaced while tracing and
restored afterwards.
"""

from __future__ import annotations

import array
import json
import statistics
import time
from collections import defaultdict


def _ambiguous(args, result):
    return sum(1 for m in args[0] if m.is_ambiguous)


def _length(args, result):
    return len(result)


def _hit(args, result):
    return result is not None


def _bytes(args, result):
    return len(args[1])


def wrap_points():
    """(owner, attribute, span name, count) for every wrapped function.

    Names bound by ``from ... import`` are wrapped where they are looked up
    (``geotag.tokenize``), and ``match_at`` on both index classes.
    """
    from placetime import annotate, cli, dates, gazetteer, geotag, langid, mapviz
    return [
        (cli, "main", "cli.main", None),
        (langid, "train_profile", "langid.train_profile", None),
        (langid, "save_profile", "langid.save_profile", None),
        (langid, "load_profile", "langid.load_profile", None),
        (langid, "load_profile_dir", "langid.load_profile_dir", None),
        (langid, "identify", "langid.identify", None),
        (langid, "score_text", "langid.score_text", _bytes),
        (langid, "decode_to_utf8", "langid.decode_to_utf8", None),
        (dates, "load_date_lexicon", "dates.load_date_lexicon", None),
        (dates, "extract_dates", "dates.extract_dates", _length),
        (dates, "find_numeric_dates", "dates.find_numeric_dates", _length),
        (dates, "find_lexical_dates", "dates.find_lexical_dates", _length),
        (dates, "normalize_match", "dates.normalize_match", None),
        (gazetteer, "load_gazetteer", "gazetteer.load_gazetteer", None),
        (gazetteer, "load_stop_words", "gazetteer.load_stop_words", None),
        (gazetteer, "load_triggers", "gazetteer.load_triggers", None),
        (gazetteer, "tokenize", "gazetteer.tokenize", _length),
        (geotag, "tokenize", "gazetteer.tokenize", _length),
        (gazetteer.GazetteerIndex, "match_at", "gazetteer.match_at", _hit),
        (gazetteer.TriggerIndex, "match_at", "gazetteer.match_at", _hit),
        (geotag, "tag_places", "geotag.tag_places", _length),
        (geotag, "disambiguate", "geotag.disambiguate", _ambiguous),
        (geotag, "aggregate_by_country", "geotag.aggregate_by_country", None),
        (annotate, "annotate_inline", "annotate.annotate_inline", None),
        (mapviz, "load_outline", "mapviz.load_outline", None),
        (mapviz, "render_svg", "mapviz.render_svg", None),
    ]


class Tracer:
    def __init__(self):
        self.names = []
        self._index = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.count = array.array("q")
        self._stack = []
        self._saved = []

    def _name_id(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _wrap(self, func, name, count):
        name_id = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter
        names, parents, starts, ends, counts = (self.name, self.parent, self.start,
                                                self.end, self.count)

        def traced(*args, **kwargs):
            span = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            counts.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if count is not None:
                counts[span] = count(args, result)
            return result
        traced.__wrapped__ = func
        return traced

    def install(self):
        for owner, attr, name, count in wrap_points():
            func = owner.__dict__[attr]
            self._saved.append((owner, attr, func))
            setattr(owner, attr, self._wrap(func, name, count))

    def uninstall(self):
        for owner, attr, func in reversed(self._saved):
            setattr(owner, attr, func)
        self._saved.clear()

    def mark(self):
        """Position to pass to :meth:`summary` for spans recorded after now."""
        return len(self.name)

    def set_count(self, span, value):
        self.count[span] = value

    def summary(self, first=0, last=None):
        """Per name: calls, total seconds, self seconds and summed count."""
        last = len(self.name) if last is None else last
        total = defaultdict(float)
        child = defaultdict(float)
        calls = defaultdict(int)
        counts = defaultdict(int)
        for i in range(first, last):
            name = self.names[self.name[i]]
            duration = self.end[i] - self.start[i]
            total[name] += duration
            calls[name] += 1
            counts[name] += self.count[i]
            parent = self.parent[i]
            if parent >= first:
                child[self.names[self.name[parent]]] += duration
        return {name: {"calls": calls[name], "s": total[name],
                       "self_s": total[name] - child[name], "count": counts[name]}
                for name in total}

    def write(self, path):
        """One JSON header line naming the arrays, then the raw arrays."""
        header = {"names": self.names, "spans": len(self.name),
                  "arrays": [["name", "i"], ["parent", "i"], ["start", "d"],
                             ["end", "d"], ["count", "q"]]}
        with open(path, "wb") as out:
            out.write((json.dumps(header) + "\n").encode("utf-8"))
            for arr in (self.name, self.parent, self.start, self.end, self.count):
                arr.tofile(out)


def layer_metrics(rounds):
    """Per-layer metrics: the median over traced rounds of each round's value.

    ``rounds`` holds one :meth:`Tracer.summary` per round, with the
    ``cli.main`` count set to the records the round's commands wrote.
    """
    def value(summary, span, field):
        if field == "kept_ratio":
            cands = sum(summary.get(name, {}).get("count", 0) for name in
                        ("dates.find_lexical_dates", "dates.find_numeric_dates"))
            kept = summary.get("dates.extract_dates", {}).get("count", 0)
            return kept / cands if cands else 1.0
        entry = summary.get(span)
        if entry is None:
            return 0.0
        if field == "hit_ratio":
            return entry["count"] / entry["calls"]
        return entry[field]

    return {metric: (statistics.median(value(s, span, field) for s in rounds), unit)
            for metric, unit, span, field in PER_LAYER if field != "overhead"}


# Per-layer metrics: name, unit, span name and summary field.  A ``count``
# field sums the count each span took from its arguments or result.
PER_LAYER = [
    ("cli.self_s", "s", "cli.main", "self_s"),
    ("cli.records_out", "count", "cli.main", "count"),
    ("langid.score_text.s", "s", "langid.score_text", "s"),
    ("langid.score_text.bytes", "count", "langid.score_text", "count"),
    ("langid.identify.calls", "count", "langid.identify", "calls"),
    ("langid.decode_to_utf8.s", "s", "langid.decode_to_utf8", "s"),
    ("langid.load_profile.s", "s", "langid.load_profile", "s"),
    ("langid.train_profile.s", "s", "langid.train_profile", "s"),
    ("langid.save_profile.s", "s", "langid.save_profile", "s"),
    ("dates.find_lexical_dates.s", "s", "dates.find_lexical_dates", "s"),
    ("dates.find_lexical_dates.candidates", "count", "dates.find_lexical_dates", "count"),
    ("dates.find_numeric_dates.s", "s", "dates.find_numeric_dates", "s"),
    ("dates.find_numeric_dates.candidates", "count", "dates.find_numeric_dates", "count"),
    ("dates.extract_dates.self_s", "s", "dates.extract_dates", "self_s"),
    ("dates.normalize_match.s", "s", "dates.normalize_match", "s"),
    ("dates.extract_dates.matches", "count", "dates.extract_dates", "count"),
    ("dates.kept_ratio", "1", None, "kept_ratio"),
    ("dates.load_date_lexicon.s", "s", "dates.load_date_lexicon", "s"),
    ("gazetteer.tokenize.s", "s", "gazetteer.tokenize", "s"),
    ("gazetteer.tokenize.tokens", "count", "gazetteer.tokenize", "count"),
    ("gazetteer.match_at.calls", "count", "gazetteer.match_at", "calls"),
    ("gazetteer.match_at.hit_ratio", "1", "gazetteer.match_at", "hit_ratio"),
    ("gazetteer.load_gazetteer.s", "s", "gazetteer.load_gazetteer", "s"),
    ("geotag.tag_places.self_s", "s", "geotag.tag_places", "self_s"),
    ("geotag.tag_places.matches", "count", "geotag.tag_places", "count"),
    ("geotag.disambiguate.s", "s", "geotag.disambiguate", "s"),
    ("geotag.disambiguate.ambiguous", "count", "geotag.disambiguate", "count"),
    ("geotag.aggregate_by_country.s", "s", "geotag.aggregate_by_country", "s"),
    ("annotate.annotate_inline.s", "s", "annotate.annotate_inline", "s"),
    ("mapviz.render_svg.s", "s", "mapviz.render_svg", "s"),
    ("mapviz.load_outline.s", "s", "mapviz.load_outline", "s"),
    ("trace.overhead", "1", None, "overhead"),
]
