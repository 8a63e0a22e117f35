"""``map`` reading each line with one decode against the per-line ``json.loads`` reader."""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from placetime import cli

import map_oracle

# Paths and surfaces hold characters JSON escapes; "ZZ" has no outline.
_TEXT = st.text(st.sampled_from('"\\\x00\x1f\u2028\ufeff\U0001f600 aZ'), max_size=6)
_COUNTRY = st.sampled_from(("FR", "DE", "RO", "ZZ"))
_LATITUDE = st.sampled_from((0, 0.0, 1, -1.5, 48.85, 90))
_LONGITUDE = st.sampled_from((0, 1.0, 2.35, -180.0, 180))
# Values a record may hold instead of a good one; no booleans.
_BAD = st.sampled_from((None, "x", 200, -200.5, 2.5, [1], {}, float("nan"), float("inf"), 1e308))


@st.composite
def _place(draw):
    return {"type": "geo", "path": draw(_TEXT), "offset": draw(st.integers(0, 99)),
            "length": draw(st.integers(1, 9)), "surface": draw(_TEXT),
            "place_id": draw(st.integers(0, 4)), "country": draw(_COUNTRY),
            "lat": draw(_LATITUDE), "lon": draw(_LONGITUDE), "size_class": 1}


@st.composite
def _record(draw, faults):
    kind = draw(st.sampled_from(("place", "place", "place", "trigger", "tallies", "date")))
    if kind == "place":
        record = draw(_place())
    elif kind == "trigger":
        record = {"type": "geo", "path": draw(_TEXT), "offset": 3, "length": 5,
                  "surface": draw(_TEXT), "country": draw(_COUNTRY)}
    elif kind == "tallies":
        record = {"type": "tallies", "path": draw(_TEXT), "tallies": [
            {"country": draw(_COUNTRY), "hits": draw(st.integers(0, 9) | st.floats(0, 9)),
             "percentage": 50.0} for _ in range(draw(st.integers(0, 3)))]}
    else:
        record = {"type": "date", "path": draw(_TEXT), "offset": 0, "length": 4,
                  "surface": "2003", "kind": "year", "normal": "2003"}
    damage = draw(st.sampled_from(("none",) * 8 + ("drop", "bad", "bad-tally"))) if faults else ""
    if damage == "drop":
        del record[draw(st.sampled_from(sorted(record)))]
    elif damage == "bad":
        record[draw(st.sampled_from(sorted(record)))] = draw(_BAD)
    elif damage == "bad-tally" and record.get("tallies"):
        record["tallies"][0][draw(st.sampled_from(("country", "hits")))] = draw(_BAD)
    return record


_SEPARATORS = st.sampled_from(((", ", ": "), (",", ":"), (" ,  ", " :\t")))
_CLEAN = ("record",) * 10 + ("blank", "space", "padded")
_FAULTY = ("extra", "not-object", "nested", "unclosed", "garbage")


@st.composite
def _line(draw, faults):
    shape = draw(st.sampled_from(_CLEAN + _FAULTY if faults else _CLEAN))
    if shape == "blank":
        return ""
    if shape == "space":
        return draw(st.text(" \t\r\x0c\x0b\u00a0\u2003", min_size=1, max_size=3))
    if shape == "not-object":
        return draw(st.sampled_from(("[1]", "1", '"geo"', "null", "[]")))
    depth = draw(st.integers(1, 50))
    if shape == "nested":
        return "[" * depth + "]" * depth
    if shape == "unclosed":
        return "[" * depth
    if shape == "garbage":
        return draw(st.sampled_from(("{", "}", "{'a': 1}", "NaN", "{]", "\ufeff{}")))
    line = json.dumps(draw(_record(faults)), ensure_ascii=draw(st.booleans()),
                      separators=draw(_SEPARATORS))
    if shape == "padded":
        return (draw(st.text(" \t\r\u00a0\ufeff", max_size=2)) + line
                + draw(st.text(" \t\r\u00a0", max_size=2)))
    if shape == "extra":
        return line + draw(st.sampled_from(("x", " {}", "]", "1", ",", " \u00a0")))
    return line


@st.composite
def _file(draw, faults):
    """A file's text: its lines, each ended by a line feed or a carriage return and one.

    Without ``faults`` every line is a good record or blank, and the map is drawn.
    """
    lines = draw(st.lists(_line(faults), max_size=10))
    # A place's later records: some equal to the first, some moved.
    for _ in range(draw(st.integers(0, 3))):
        if lines and draw(st.booleans()):
            lines.append(draw(st.sampled_from(lines)))
    lines = draw(st.permutations(lines))
    ends = [draw(st.sampled_from(("\n", "\r\n"))) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[:-1] if text and draw(st.booleans()) else text


def _map(reader, paths, out):
    """(exit code, stdout, stderr, SVG bytes or None) of ``map`` run with ``reader``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(cli._COMMANDS, {"map": cli._COMMANDS["map"]._replace(run=reader)}), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["map", *paths, "--out", str(out)])
    return code, stdout.getvalue(), stderr.getvalue(), out.read_bytes() if out.exists() else None


@settings(max_examples=300, deadline=None)
@given(texts=st.booleans().flatmap(lambda faults: st.lists(_file(faults), min_size=1,
                                                           max_size=3)))
def test_map_equals_per_line_reader(texts):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = []
        for i, text in enumerate(texts):
            path = tmp / ("a%d.jsonl" % i)
            path.write_bytes(text.encode("utf-8"))
            paths.append(str(path))
        assert (_map(cli.cmd_map, paths, tmp / "change.svg")
                == _map(map_oracle.cmd_map, paths, tmp / "oracle.svg"))
