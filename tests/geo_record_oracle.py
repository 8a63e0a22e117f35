"""The ``geo`` and ``tallies`` record builders that ``cli._geo_lines`` and
``cli._tallies_line`` replaced, kept as the reference the tests compare them
against: one dict per record, encoded whole."""

import json
from collections import Counter

_encode_json = json.JSONEncoder(ensure_ascii=False).encode


def geo_record(path, pair):
    m, place = pair
    record = {"type": "geo", "path": path, "offset": m.offset, "length": m.length,
              "surface": m.surface}
    if isinstance(place, str):
        record["country"] = place
    else:
        record.update(place_id=place.id, country=place.country, lat=place.latitude,
                      lon=place.longitude, size_class=place.size_class)
    return record


def geo_line(path, pair):
    return _encode_json(geo_record(path, pair)) + "\n"


def tallies_line(path, resolved):
    """The ``tallies`` record of a file's resolutions: place records or country codes."""
    counts = Counter(r if isinstance(r, str) else r.country for r in resolved)
    total = sum(counts.values())
    tallies = [{"country": c, "hits": n, "percentage": 100.0 * n / total}
               for c, n in counts.items()]
    tallies.sort(key=lambda t: (-t["hits"], t["country"]))
    return _encode_json({"type": "tallies", "path": path, "tallies": tallies}) + "\n"
