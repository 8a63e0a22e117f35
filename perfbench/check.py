"""Independent checks of placetime's outputs against the generator's values.

Each ``check_*`` returns a function that reads one call's output, appends a
message to ``errors`` for every disagreement and returns the number of
records the output holds.  None of them calls placetime.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import gen


class Problems:
    """Operations attempted and failed, and whether every output was right."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.messages = []

    def fail(self, call, message, wrong=False):
        self.failed += 1
        self.correct = self.correct and not wrong
        if len(self.messages) < 20:
            self.messages.append("%s: %s" % (" ".join(call.argv[:2]), message))


def _jsonl(path):
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line.strip()]


def _spans_ok(text, records, where, errors):
    """Every offset slices the text to the surface; spans do not overlap."""
    end = -1
    for r in sorted(records, key=lambda r: r["offset"]):
        if text[r["offset"]:r["offset"] + r["length"]] != r["surface"]:
            errors.append("%s: offset %d does not slice to %r" % (where, r["offset"], r["surface"]))
        if r["offset"] < end:
            errors.append("%s: span at %d overlaps the previous one" % (where, r["offset"]))
        end = max(end, r["offset"] + r["length"])


def _by_path(records, paths, errors):
    grouped = {p: [] for p in paths}
    for r in records:
        if r.get("path") not in grouped:
            errors.append("record for unknown path %r" % r.get("path"))
            continue
        grouped[r["path"]].append(r)
    return grouped


def check_dates(out, paths, docs):
    """Standoff dates: exactly the planted dates, with normal and resolved forms."""
    def run(errors):
        records = _jsonl(out)
        grouped = _by_path(records, paths, errors)
        for path, doc in zip(paths, docs):
            got = grouped[path]
            if any(r.get("type") != "date" for r in got):
                errors.append("%s: non-date record" % path)
            _spans_ok(doc.text, got, path, errors)
            got = [{k: v for k, v in r.items() if k not in ("type", "path")} for r in got]
            if got != doc.dates:
                errors.append("%s: %d date records, %d expected, first difference %s"
                              % (path, len(got), len(doc.dates), _first_diff(got, doc.dates)))
        return len(records)
    return run


def _first_diff(got, want):
    for a, b in zip(got, want):
        if a != b:
            return "%r != %r" % (a, b)
    return "in length"


def _expected_places(doc, geo):
    """(surface, country, place id or None) per expected geo record of a document."""
    if doc.gold is not None:
        surfaces = [p["surface"] for p in doc.gold["places"]]
        return [(s, c, pid) for s, (c, pid) in zip(surfaces, gen.resolve_places(surfaces, geo))]
    return [(p["surface"], p["country"], p.get("place_id")) for p in doc.places]


def check_places(out, paths, docs):
    """Standoff places: planted items (or fixture gold) and consistent tallies."""
    def run(errors):
        records = _jsonl(out)
        grouped = _by_path(records, paths, errors)
        for path, doc in zip(paths, docs):
            got = grouped[path]
            geo = [r for r in got if r.get("type") == "geo"]
            tallies = [r for r in got if r.get("type") == "tallies"]
            if len(tallies) != 1 or len(geo) + 1 != len(got):
                errors.append("%s: want geo records and one tallies record" % path)
                continue
            _spans_ok(doc.text, geo, path, errors)
            if doc.gold is not None:
                got_pairs = [{"surface": r["surface"], "country": r["country"]} for r in geo]
                if got_pairs != doc.gold["places"]:
                    errors.append("%s: places differ from gold: %s"
                                  % (path, _first_diff(got_pairs, doc.gold["places"])))
            else:
                keys = ("offset", "length", "surface", "country", "place_id")
                got_geo = [{k: r[k] for k in keys if k in r} for r in geo]
                if got_geo != doc.places:
                    errors.append("%s: %d geo records, %d expected, first difference %s"
                                  % (path, len(got_geo), len(doc.places),
                                     _first_diff(got_geo, doc.places)))
            hits = {t["country"]: t["hits"] for t in tallies[0]["tallies"]}
            if hits != dict(Counter(r["country"] for r in geo)):
                errors.append("%s: tallies %s do not count the geo records" % (path, hits))
            if geo and abs(sum(t["percentage"] for t in tallies[0]["tallies"]) - 100.0) > 1e-6:
                errors.append("%s: tally percentages do not sum to 100" % path)
        return len(records)
    return run


def strip_markers(text):
    """Remove ``[[kind|normal|surface]]`` markers.

    Returns the plain text and (offset in plain text, kind, normal, surface)
    per marker.
    """
    plain, markers = [], []
    pos = size = 0
    while True:
        start = text.find("[[", pos)
        if start < 0:
            plain.append(text[pos:])
            return "".join(plain), markers
        plain.append(text[pos:start])
        size += start - pos
        bar1 = text.index("|", start + 2)
        bar2 = text.index("|", bar1 + 1)
        close = text.index("]]", bar2 + 1)
        surface = text[bar2 + 1:close]
        markers.append((size, text[start + 2:bar1], text[bar1 + 1:bar2], surface))
        plain.append(surface)
        size += len(surface)
        pos = close + 2


def check_inline(out, docs):
    """Inline dates: stripping the markers restores the decoded inputs exactly,
    and the markers are exactly the planted dates (fixture gold: full dates)."""
    def run(errors):
        plain, markers = strip_markers(Path(out).read_text(encoding="utf-8"))
        if plain != "".join(d.text for d in docs):
            errors.append("stripped output differs from the concatenated inputs")
            return len(markers)
        base = 0
        it = iter(markers)
        pending = next(it, None)
        for doc in docs:
            body = doc.text
            got = []
            while pending is not None and pending[0] < base + len(body):
                offset, kind, normal, surface = pending
                got.append({"offset": offset - base, "length": len(surface),
                            "surface": surface, "kind": kind, "normal": normal})
                pending = next(it, None)
            _spans_ok(body, got, doc.name, errors)
            if doc.gold is not None:
                full = [{"surface": g["surface"], "normal": g["normal"]}
                        for g in got if g["kind"] == "date:full"]
                if full != doc.gold["full_dates"]:
                    errors.append("%s: full dates differ from gold" % doc.name)
            else:
                want = [{"offset": d["offset"], "length": d["length"], "surface": d["surface"],
                         "kind": "date:" + d["kind"], "normal": d["normal"]} for d in doc.dates]
                if got != want:
                    errors.append("%s: inline markers differ: %s"
                                  % (doc.name, _first_diff(got, want)))
            base += len(body)
        return len(markers)
    return run


def check_identify(out, paths, docs):
    """The top label of every document is the label that generated it."""
    def run(errors):
        lines = [line.split("\t") for line in
                 Path(out).read_text(encoding="utf-8").splitlines() if line]
        got = {fields[0]: (fields[1], fields[2]) for fields in lines}
        for path, doc in zip(paths, docs):
            if got.get(path) != (doc.lang, doc.encoding):
                errors.append("%s: identified as %s, generated as %s/%s"
                              % (path, got.get(path), doc.lang, doc.encoding))
        return len(lines)
    return run


def check_profile(path, corpus, label):
    """The saved counts equal a Counter over the corpus's bigrams and trigrams."""
    want_bi = Counter(zip(corpus, corpus[1:]))
    want_tri = Counter(zip(corpus, corpus[1:], corpus[2:]))

    def run(errors):
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        header = lines[0].split()
        if header != ["#langenc", label.language, label.encoding, str(len(corpus))]:
            errors.append("%s: header %r" % (path, lines[0]))
        bi, tri = Counter(), Counter()
        for line in lines[1:]:
            fields = line.split()
            if fields[0] == "B":
                bi[tuple(map(int, fields[1:3]))] = int(fields[3])
            elif fields[0] == "T":
                tri[tuple(map(int, fields[1:4]))] = int(fields[4])
        if bi != want_bi or tri != want_tri:
            errors.append("%s: n-gram counts differ from the corpus" % path)
        return 1
    return run


def check_map(out, annotations, docs, geo):
    """SVG parses; one circle per distinct place id, one polygon per outline
    row, and fill buckets that never fall as hits rise."""
    def run(errors):
        records = sum(len(_jsonl(a)) for a in annotations)
        hits = Counter()
        place_ids = set()
        for doc in docs:
            for _surface, country, pid in _expected_places(doc, geo):
                hits[country] += 1
                if pid is not None:
                    place_ids.add(pid)
        root = ET.parse(out).getroot()
        tag = lambda el: el.tag.rsplit("}", 1)[-1]  # noqa: E731
        circles = [el for el in root.iter() if tag(el) == "circle"]
        polygons = [el for el in root.iter() if tag(el) == "polygon"]
        legend = [g for g in root if tag(g) == "g" and g.get("id") == "legend"]
        ramp = [el.get("fill") for el in legend[0] if tag(el) == "rect"] if legend else []
        if len(circles) != len(place_ids):
            errors.append("%d circles for %d distinct places" % (len(circles), len(place_ids)))
        if len(polygons) != geo.outline_rows:
            errors.append("%d polygons for %d outline rows" % (len(polygons), geo.outline_rows))
        bucket = {}
        for poly in polygons:
            country = poly.get("id").rsplit("-", 1)[0]
            fill = poly.get("fill")
            if hits[country]:
                if fill not in ramp:
                    errors.append("%s has hits but fill %s" % (country, fill))
                    continue
                bucket[country] = ramp.index(fill)
            elif fill in ramp:
                errors.append("%s has no hits but a ramp fill" % country)
        ordered = sorted(bucket, key=lambda c: hits[c])
        for a, b in zip(ordered, ordered[1:]):
            if hits[a] < hits[b] and bucket[a] > bucket[b]:
                errors.append("fill of %s (%d hits) above %s (%d hits)"
                              % (a, hits[a], b, hits[b]))
        return records
    return run
