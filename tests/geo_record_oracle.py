"""The ``geo`` record builder that ``cli._geo_lines`` replaced, kept as the reference
the tests compare it against: one dict per record, encoded whole."""

import json

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
