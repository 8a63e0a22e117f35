"""The ``date`` record builder that ``cli._date_lines`` replaced, kept as the reference
the tests compare it against: one dict per record, encoded whole."""

import json

_encode_json = json.JSONEncoder(ensure_ascii=False).encode


def date_record(path, m):
    record = {"type": "date", "path": path, "offset": m.offset, "length": m.length,
              "surface": m.surface, "kind": m.normal.kind.value,
              "normal": m.normal.to_string()}
    if m.resolved is not None:
        record["resolved"] = m.resolved.to_string()
    return record


def date_line(path, m):
    return _encode_json(date_record(path, m)) + "\n"
