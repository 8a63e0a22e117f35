"""Command-line front end: identify -> decode -> extract -> aggregate -> render.

Subcommands: identify, dates, places, map, train-profile, propose-stopwords.
Standoff output is JSON Lines (one object per match, plus one tallies
object per file); inline output wraps matches as ``[[kind|normal|surface]]``.
Files are processed one at a time, in input order, and each file's output
is written as soon as it is done.
Exit codes: 0 success, 1 partial failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import math
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

# Every other placetime module is imported by the functions that use it, so a
# process loads only its own command's modules.  Each is called as
# ``module.function``, so that a wrapper set on the module is seen.
from .errors import (ConfigError, LoadError, PlacetimeError, TrainingError, check_country,
                     read_lines)

DATA_DIR = Path(__file__).resolve().parent / "data"


def build_parser():
    """The full ``placetime`` parser, with every subcommand's arguments.

    ``main`` builds it only for a command line that does not begin with a
    subcommand, or that holds an argument the subcommand's own parser does
    not know.
    """
    parser = argparse.ArgumentParser(prog="placetime", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, entry in _COMMANDS.items():
        entry.add_arguments(sub.add_parser(name, help=entry.help))
    return parser


def _cannot_write(path, exc):
    return ConfigError("cannot write %s: %s" % (path, exc.strerror))


def _open_out(args):
    """The ``--out`` file opened for writing, or standard output if none."""
    if not args.out:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        raise _cannot_write(args.out, exc) from exc


def _document_arguments(p):
    """The input and output arguments of ``dates`` and ``places``."""
    p.add_argument("paths", nargs="+", metavar="PATH")
    p.add_argument("--lang", help="language code; skips identification")
    p.add_argument("--encoding", help="input encoding (registry name)")
    p.add_argument("--profiles", help="profile directory for identification")
    p.add_argument("--format", choices=("standoff", "inline"), default="standoff")
    p.add_argument("--out", help="output file (default: stdout)")


def _decoder(args):
    """``decode(raw)`` with the declared, identified (no --lang) or UTF-8 encoding.

    An unknown ``--encoding`` fails here, before any file is read.
    """
    from . import langid
    if args.encoding:
        langid.decode_to_utf8(b"", args.encoding)
    profiles = (langid.load_profile_dir(args.profiles)
                if args.profiles and not args.encoding and not args.lang else None)

    def decode(raw):
        if args.encoding:
            encoding = args.encoding
        elif profiles:
            encoding = langid.identify(profiles, raw)[0].label.encoding
        else:
            encoding = "UTF-8"
        return langid.decode_to_utf8(raw, encoding)
    return decode


def _run_documents(args, analyse):
    """Per file, in order: write the string ``analyse(path, raw)`` to the output.

    A file that cannot be read or analysed is reported and skipped (exit 1).
    """
    failed = False
    with _open_out(args) as out:
        for path in args.paths:
            try:
                with open(path, "rb") as f:
                    raw = f.read()
                result = analyse(path, raw)
            except (OSError, PlacetimeError) as exc:
                print("placetime: %s: %s" % (path, exc), file=sys.stderr)
                failed = True
                continue
            out.write(result)
    return 1 if failed else 0


# One encoder for every record: json.dumps builds a new one per call when
# given any non-default argument.  A string goes straight to the function
# that encoder calls for one.
_encode_json = json.JSONEncoder(ensure_ascii=False).encode
_encode_str = json.encoder.encode_basestring


# --------------------------------------------------------------------------
# subcommands

def _identify_arguments(p):
    p.add_argument("paths", nargs="+", metavar="PATH")
    p.add_argument("--profiles", required=True)
    p.add_argument("--out")


def cmd_identify(args):
    from . import langid
    profiles = langid.load_profile_dir(args.profiles)

    def analyse(path, raw):
        best = langid.identify(profiles, raw)[0]
        return "%s\t%s\t%s\t%.4f\n" % (path, best.label.language, best.label.encoding,
                                       best.score)
    return _run_documents(args, analyse)


def _train_profile_arguments(p):
    p.add_argument("corpus", nargs="+", metavar="CORPUS")
    p.add_argument("--lang", required=True)
    p.add_argument("--encoding", required=True)
    p.add_argument("--out", required=True)


def cmd_train_profile(args):
    from . import langid
    try:
        label = langid.LangEncLabel(args.lang, args.encoding)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        corpus = b"".join(Path(p).read_bytes() for p in args.corpus)
    except OSError as exc:
        raise ConfigError("cannot read corpus: %s" % exc) from exc
    profile = langid.train_profile(corpus, label)
    try:
        langid.save_profile(profile, args.out)
    except OSError as exc:
        raise _cannot_write(args.out, exc) from exc
    return 0


def _date_lines(path, matches):
    """The ``date`` record of each match.

    The head up to ``offset`` is encoded once per call, and only the surface
    per record: a kind label and a normal form are ASCII with nothing to escape.
    """
    head = '{"type": "date", "path": %s, "offset": ' % _encode_str(path)
    out = []
    for offset, length, surface, normal, resolved in matches:
        kind = normal.kind
        out.append('%s%d, "length": %d, "surface": %s, "kind": "%s", "normal": "%s"%s}\n'
                   % (head, offset, length, _encode_str(surface), kind.label,
                      kind.form % kind.values_of(normal),
                      "" if resolved is None else ', "resolved": "%s"' % resolved.to_string()))
    return out


_RE_REFERENCE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _date_span(m):
    kind = m.normal.kind
    return m.offset, m.length, "date:" + kind.label, kind.form % kind.values_of(m.normal)


def _dates_arguments(p):
    from . import dates
    _document_arguments(p)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--reference", metavar="YYYY-MM-DD")
    p.add_argument("--default-order", choices=(dates.ORDER_DMY, dates.ORDER_MDY))
    p.add_argument("--reject-two-digit-years", action="store_true")
    p.add_argument("--diagnostics", action="store_true",
                   help="report discarded candidates on stderr")


def cmd_dates(args):
    from . import annotate, dates
    decode = _decoder(args)
    lexicon = dates.load_date_lexicon(args.lexicon)
    reference = None
    if args.reference is not None:
        try:
            # fromisoformat alone takes other ISO 8601 forms from Python 3.11 on.
            if not _RE_REFERENCE.fullmatch(args.reference):
                raise ValueError("expected YYYY-MM-DD")
            reference = datetime.date.fromisoformat(args.reference)
        except ValueError as exc:
            raise ConfigError("bad --reference %r: %s" % (args.reference, exc)) from exc

    def analyse(path, raw):
        text = decode(raw)
        diagnostics = [] if args.diagnostics else None
        try:
            matches = dates.extract_dates(
                text, lexicon, reference=reference,
                default_order=args.default_order,
                reject_two_digit_years=args.reject_two_digit_years,
                diagnostics=diagnostics)
        finally:  # a failed resolve still reports the file's discards, before its error
            for offset, surface, reason in diagnostics or ():
                print("placetime: %s:%d: discarded %r (%s)"
                      % (path, offset, surface, reason), file=sys.stderr)
        if args.format == "inline":
            return annotate.annotate_inline(text, [_date_span(m) for m in matches])
        return "".join(_date_lines(path, matches))

    return _run_documents(args, analyse)


def _geo_lines():
    """``lines(path, pairs)``: the ``geo`` record of each (place match, resolution) pair.

    A record's fields after ``surface`` depend only on the resolution, so each
    resolution's tail is encoded once per ``_geo_lines()``, keyed by place id or
    country code, and the head up to ``offset`` once per call.
    """
    tails = {}

    def tail(place):
        fields = ({"country": place} if isinstance(place, str) else
                  {"place_id": place.id, "country": place.country, "lat": place.latitude,
                   "lon": place.longitude, "size_class": place.size_class})
        return ", " + _encode_json(fields)[1:] + "\n"

    def lines(path, pairs):
        head = '{"type": "geo", "path": %s, "offset": ' % _encode_str(path)
        out = []
        for m, place in pairs:
            key = place if isinstance(place, str) else place.id
            rest = tails.get(key)
            if rest is None:
                rest = tails[key] = tail(place)
            out.append('%s%d, "length": %d, "surface": %s%s'
                       % (head, m.offset, m.length, _encode_str(m.surface), rest))
        return out
    return lines


def _tallies_line(path, tallies):
    """The ``tallies`` record of a file's :class:`~placetime.geotag.CountryTally` list.

    Only the path needs the JSON encoder: a country code is two ASCII
    capitals, ``hits`` an int, and ``percentage`` a finite float, whose
    ``repr`` is what ``json`` writes.
    """
    return '{"type": "tallies", "path": %s, "tallies": [%s]}\n' % (
        _encode_str(path),
        ", ".join(['{"country": "%s", "hits": %d, "percentage": %r}' % t for t in tallies]))


def _geo_span(pair):
    m, place = pair
    if isinstance(place, str):
        return m.offset, m.length, "country", place
    return m.offset, m.length, "place", "%s:%d" % (place.country, place.id)


def _parse_size_filter(spec):
    try:
        limit, _, countries = spec.partition(":")
        keep = tuple(c for c in countries.split(",") if c)
        for country in keep:
            check_country(country)
        return int(limit), keep
    except ValueError as exc:
        raise ConfigError("bad --max-size-class-outside %r" % spec) from exc


def _places_arguments(p):
    _document_arguments(p)
    p.add_argument("--gazetteer", required=True)
    p.add_argument("--stopwords")
    p.add_argument("--triggers")
    p.add_argument("--max-size-class-outside", metavar="N:CC,CC,...",
                   help="outside the listed countries keep only size class <= N")


def cmd_places(args):
    from . import annotate, gazetteer, geotag
    decode = _decoder(args)
    spec = args.max_size_class_outside
    limit, keep = _parse_size_filter(spec) if spec else (None, ())
    index = gazetteer.load_gazetteer(args.gazetteer, max_size_class=limit, keep_countries=keep)
    stop_list = (gazetteer.load_stop_words(args.stopwords, args.lang or "")
                 if args.stopwords else None)
    triggers = gazetteer.load_triggers(args.triggers) if args.triggers else None
    table = gazetteer.name_table(index, triggers)
    lines = _geo_lines()

    def analyse(path, raw):
        text = decode(raw)
        matches = geotag.tag_places(text, table, stop_list)
        resolved = geotag.disambiguate(matches, index)
        pairs = zip(matches, resolved)
        if args.format == "inline":
            return annotate.annotate_inline(text, [_geo_span(p) for p in pairs])
        out = lines(path, pairs)
        out.append(_tallies_line(path, geotag.aggregate_by_country(resolved)))
        return "".join(out)

    return _run_documents(args, analyse)


def _map_arguments(p):
    p.add_argument("annotations", nargs="+", metavar="ANNOTATION")
    p.add_argument("--outline", default=str(DATA_DIR / "outline" / "world_outline.tsv"))
    p.add_argument("--out", required=True)
    p.add_argument("--width", type=int, default=1000)
    p.add_argument("--height", type=int, default=500)


# One decoder for every annotation line, kept as _encode_json is.
_decode_json = json.JSONDecoder().raw_decode


def cmd_map(args):
    from . import geotag, mapviz
    try:
        style = mapviz.MapStyle(width=args.width, height=args.height)
    except ValueError as exc:
        raise ConfigError("--width and --height must be positive") from exc
    outline = mapviz.load_outline(args.outline)
    hits = Counter()
    hits_sum = 0.0  # kept small enough that every percentage of it is finite
    dots = {}  # place_id -> (lat, lon, country) of its first record
    mentions = Counter()  # place_id -> its geo records
    countries = set()  # the country codes that passed check_country
    records = 0
    for path in args.annotations:
        for lineno, line in enumerate(read_lines(path, "annotations"), start=1):
            try:
                # A line that is one JSON value and nothing else is decoded once.  Any
                # other line (blank, padded, trailing data, not JSON) takes json.loads,
                # which skips the padding or names the fault.
                try:
                    record, end = _decode_json(line)
                except (ValueError, RecursionError):
                    end = -1
                if end != len(line):
                    if not line.strip():
                        continue
                    record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("not a JSON object")
                kind = record.get("type")
                if kind == "tallies":
                    for t in record["tallies"]:
                        country, n = t["country"], t["hits"]
                        if not isinstance(country, str):
                            raise ValueError("bad tallies country %r" % (country,))
                        if country not in countries:
                            check_country(country)
                            countries.add(country)
                        if (isinstance(n, bool) or not isinstance(n, (int, float))
                                or not 0 <= n <= sys.float_info.max):
                            raise ValueError("bad tallies hits %r" % (n,))
                        hits_sum += n
                        if not math.isfinite(100.0 * hits_sum):
                            raise ValueError("tallies hits sum %g is too large" % hits_sum)
                        hits[country] += n
                elif kind == "geo" and "place_id" in record:
                    # Every record of a place is checked; the first one places its dot.
                    pid, lat, lon, country = (record["place_id"], record["lat"],
                                              record["lon"], record["country"])
                    if type(pid) is not int or not isinstance(country, str):
                        raise ValueError("bad place_id %r or country %r" % (pid, country))
                    if country not in countries:
                        check_country(country)
                        countries.add(country)
                    if type(lat) is bool or type(lon) is bool:
                        raise ValueError("bad coordinates (%r, %r)" % (lat, lon))
                    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
                        raise ValueError("coordinates (%r, %r) out of range" % (lat, lon))
                    dots.setdefault(pid, (lat, lon, country))
                    mentions[pid] += 1
            except (json.JSONDecodeError, RecursionError) as exc:
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
    places = [mapviz.PlaceDot(pid, *dot, mentions[pid]) for pid, dot in dots.items()]
    diagnostics = []
    svg = mapviz.render_svg(tallies, places, outline, style, diagnostics)
    for message in diagnostics:
        print("placetime: %s" % message, file=sys.stderr)
    try:
        Path(args.out).write_text(svg, encoding="utf-8")
    except OSError as exc:
        raise _cannot_write(args.out, exc) from exc
    return 0


def _propose_stopwords_arguments(p):
    p.add_argument("--gazetteer", required=True)
    p.add_argument("--frequency-list", required=True,
                   help="ranked word list, one word per line, most frequent first")
    p.add_argument("--top-n", type=int, default=1000)
    p.add_argument("--out")


def cmd_propose_stopwords(args):
    from . import gazetteer
    if args.top_n < 1:
        raise ConfigError("--top-n must be at least 1")
    index = gazetteer.load_gazetteer(args.gazetteer)
    words = [w.strip() for w in read_lines(args.frequency_list, "frequency list") if w.strip()]
    proposals = gazetteer.propose_stop_words(index, words, args.top_n)
    with _open_out(args) as out:
        out.write("".join(surface + "\n" for surface in proposals))
    return 0


class _Command(NamedTuple):
    help: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


# Every subcommand, in the order that usage and --help list them.
_COMMANDS = {
    "identify": _Command("rank language/encoding per file", _identify_arguments,
                         cmd_identify),
    "train-profile": _Command("train a language/encoding profile", _train_profile_arguments,
                              cmd_train_profile),
    "dates": _Command("extract and normalize date expressions", _dates_arguments, cmd_dates),
    "places": _Command("extract, disambiguate and tally place names", _places_arguments,
                       cmd_places),
    "map": _Command("render SVG map from places annotations", _map_arguments, cmd_map),
    "propose-stopwords": _Command("propose geo stop words for review",
                                  _propose_stopwords_arguments, cmd_propose_stopwords),
}


def _parse(argv):
    """``argv`` parsed as the full parser would parse it.

    A first word that names a subcommand hands it all the rest of ``argv``, so
    that subcommand's own parser reads the rest as the full parser's subparser
    would.  Words it leaves over are the full parser's error, whose usage
    names every subcommand.
    """
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is not None:
        parser = argparse.ArgumentParser(prog="placetime " + argv[0])
        entry.add_arguments(parser)
        args, unknown = parser.parse_known_args(argv[1:])
        if not unknown:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return _COMMANDS[args.command].run(args)
    except (ConfigError, LoadError, TrainingError) as exc:
        print("placetime: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
