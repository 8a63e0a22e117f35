"""The annotation reader that ``cli.cmd_map`` replaced, kept as the reference the
tests compare it against: ``json.loads`` per line and one one-mention dot per
``geo`` record of a place, summed by ``render_svg``.

It takes the arguments of ``cmd_map`` and can stand in for it as the ``run``
of ``cli._COMMANDS["map"]``.  It lets booleans through, which ``cmd_map``
rejects, and also an integral float id (``1.0``) in a record that equals an
earlier one with the integer id, since ``dots.get(1.0)`` finds place 1; a line
nested deeper than the recursion limit ends in a ``RecursionError``.  An
unhashable id (``[1]``, ``{}``) is named as a bad ``place_id``, as ``cmd_map``
names it, not by the ``TypeError`` of its lookup.
"""

import json
import math
import sys
from collections import Counter
from pathlib import Path

from placetime import geotag, mapviz
from placetime.errors import ConfigError, check_country, read_lines


def _place_dot(record):
    pid, lat, lon, country = record["place_id"], record["lat"], record["lon"], record["country"]
    if not isinstance(pid, int) or not isinstance(country, str):
        raise ValueError("bad place_id %r or country %r" % (pid, country))
    check_country(country)
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        raise ValueError("coordinates (%r, %r) out of range" % (lat, lon))
    return mapviz.PlaceDot(pid, lat, lon, country, 1)


def cmd_map(args):
    try:
        style = mapviz.MapStyle(width=args.width, height=args.height)
    except ValueError as exc:
        raise ConfigError("--width and --height must be positive") from exc
    outline = mapviz.load_outline(args.outline)
    hits = Counter()
    hits_sum = 0.0
    dots = {}
    places = []
    records = 0
    for path in args.annotations:
        for lineno, line in enumerate(read_lines(path, "annotations"), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("not a JSON object")
                if record.get("type") == "tallies":
                    for t in record["tallies"]:
                        country, n = t["country"], t["hits"]
                        if not isinstance(country, str):
                            raise ValueError("bad tallies country %r" % (country,))
                        check_country(country)
                        if (isinstance(n, bool) or not isinstance(n, (int, float))
                                or not 0 <= n <= sys.float_info.max):
                            raise ValueError("bad tallies hits %r" % (n,))
                        hits_sum += n
                        if not math.isfinite(100.0 * hits_sum):
                            raise ValueError("tallies hits sum %g is too large" % hits_sum)
                        hits[country] += n
                elif record.get("type") == "geo" and "place_id" in record:
                    pid = record["place_id"]
                    try:
                        dot = dots.get(pid)
                    except TypeError:  # an unhashable id, rejected by _place_dot below
                        dot = None
                    if (dot is None or dot.latitude != record["lat"]
                            or dot.longitude != record["lon"] or dot.country != record["country"]):
                        dot = dots.setdefault(pid, _place_dot(record))
                    places.append(dot)
            except json.JSONDecodeError as exc:
                raise ConfigError("%s:%d: not JSON: %s" % (path, lineno, exc)) from exc
            except KeyError as exc:
                raise ConfigError("%s:%d: missing field %s" % (path, lineno, exc)) from exc
            except (TypeError, ValueError) as exc:
                raise ConfigError("%s:%d: %s" % (path, lineno, exc)) from exc
            records += 1
    if records == 0:
        raise ConfigError("no annotation records in input")
    total = sum(hits.values())
    tallies = [geotag.CountryTally(c, n, 100.0 * n / total)
               for c, n in sorted(hits.items())] if total else []
    diagnostics = []
    svg = mapviz.render_svg(tallies, places, outline, style, diagnostics)
    for message in diagnostics:
        print("placetime: %s" % message, file=sys.stderr)
    Path(args.out).write_text(svg, encoding="utf-8")
    return 0
