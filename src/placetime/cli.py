"""Command-line front end: identify -> decode -> extract -> aggregate -> render.

Subcommands: identify, dates, places, map, train-profile, propose-stopwords.
Standoff output is JSON Lines (one object per match, plus one tallies
object per file); inline output wraps matches as ``[[kind|normal|surface]]``.
Exit codes: 0 success, 1 partial failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import annotate, dates, gazetteer, geotag, langid, mapviz
from .errors import ConfigError, LoadError, PlacetimeError, TrainingError

DATA_DIR = Path(__file__).resolve().parent / "data"


def _add_common_io(parser):
    parser.add_argument("paths", nargs="+", metavar="PATH")
    parser.add_argument("--lang", help="language code; skips identification")
    parser.add_argument("--encoding", help="input encoding (registry name)")
    parser.add_argument("--profiles", help="profile directory for identification")
    parser.add_argument("--format", choices=("standoff", "inline"), default="standoff")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N")


def build_parser():
    parser = argparse.ArgumentParser(prog="placetime", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identify", help="rank language/encoding per file")
    p.add_argument("paths", nargs="+", metavar="PATH")
    p.add_argument("--profiles", required=True)
    p.add_argument("--out")

    p = sub.add_parser("train-profile", help="train a language/encoding profile")
    p.add_argument("corpus", nargs="+", metavar="CORPUS")
    p.add_argument("--lang", required=True)
    p.add_argument("--encoding", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("dates", help="extract and normalize date expressions")
    _add_common_io(p)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--reference", metavar="YYYY-MM-DD")
    p.add_argument("--default-order", choices=(dates.ORDER_DMY, dates.ORDER_MDY))
    p.add_argument("--reject-two-digit-years", action="store_true")
    p.add_argument("--diagnostics", action="store_true",
                   help="report discarded candidates on stderr")

    p = sub.add_parser("places", help="extract, disambiguate and tally place names")
    _add_common_io(p)
    p.add_argument("--gazetteer", required=True)
    p.add_argument("--stopwords")
    p.add_argument("--triggers")
    p.add_argument("--max-size-class-outside", metavar="N:CC,CC,...",
                   help="outside the listed countries keep only size class <= N")

    p = sub.add_parser("map", help="render SVG map from places annotations")
    p.add_argument("annotations", nargs="+", metavar="ANNOTATION")
    p.add_argument("--outline", default=str(DATA_DIR / "outline" / "world_outline.tsv"))
    p.add_argument("--out", required=True)
    p.add_argument("--width", type=int, default=1000)
    p.add_argument("--height", type=int, default=500)

    p = sub.add_parser("propose-stopwords", help="propose geo stop words for review")
    p.add_argument("--gazetteer", required=True)
    p.add_argument("--frequency-list", required=True,
                   help="ranked word list, one word per line, most frequent first")
    p.add_argument("--top-n", type=int, default=1000)
    p.add_argument("--out")
    return parser


def _open_out(args):
    if getattr(args, "out", None):
        return open(args.out, "w", encoding="utf-8")
    return None


def _emit(out, text):
    (out or sys.stdout).write(text)


def _decode(raw, args, profiles):
    """Pick an encoding (declared, identified, or UTF-8) and decode."""
    if args.encoding:
        encoding = args.encoding
    elif not args.lang and profiles:
        encoding = langid.identify(profiles, raw)[0].label.encoding
    else:
        encoding = "UTF-8"
    return langid.decode_to_utf8(raw, encoding)


def _load_profiles_if_needed(args):
    if getattr(args, "profiles", None) and not args.encoding:
        return langid.load_profile_dir(args.profiles)
    return None


def _map_files(paths, worker, jobs):
    """Run ``worker(path)`` per file, preserving input order.

    Returns (results, failed) where results holds (path, value-or-None).
    """
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(lambda p: _safe(worker, p), paths))
    else:
        outcomes = [_safe(worker, p) for p in paths]
    failed = False
    results = []
    for path, value, error in outcomes:
        if error is not None:
            print("placetime: %s: %s" % (path, error), file=sys.stderr)
            failed = True
        results.append((path, value))
    return results, failed


def _safe(worker, path):
    try:
        return path, worker(path), None
    except (OSError, PlacetimeError) as exc:
        return path, None, exc


# --------------------------------------------------------------------------
# subcommands

def cmd_identify(args):
    profiles = langid.load_profile_dir(args.profiles)
    out = _open_out(args)
    try:
        def worker(path):
            raw = Path(path).read_bytes()
            return langid.identify(profiles, raw)[0]
        results, failed = _map_files(args.paths, worker, 1)
        for path, best in results:
            if best is not None:
                _emit(out, "%s\t%s\t%s\t%.4f\n"
                      % (path, best.label.language, best.label.encoding, best.score))
    finally:
        if out:
            out.close()
    return 1 if failed else 0


def cmd_train_profile(args):
    label = langid.LangEncLabel(args.lang, args.encoding)
    try:
        corpus = b"".join(Path(p).read_bytes() for p in args.corpus)
    except OSError as exc:
        raise ConfigError("cannot read corpus: %s" % exc) from exc
    profile = langid.train_profile(corpus, label)
    langid.save_profile(profile, args.out)
    return 0


def _date_record(path, m):
    record = {"type": "date", "path": path, "offset": m.offset, "length": m.length,
              "surface": m.surface, "kind": m.normal.kind.value,
              "normal": m.normal.to_string()}
    if m.resolved is not None:
        record["resolved"] = m.resolved.to_string()
    return record


def cmd_dates(args):
    lexicon = dates.load_date_lexicon(args.lexicon)
    reference = None
    if args.reference:
        try:
            reference = datetime.date.fromisoformat(args.reference)
        except ValueError as exc:
            raise ConfigError("bad --reference %r: %s" % (args.reference, exc)) from exc
    profiles = _load_profiles_if_needed(args)
    out = _open_out(args)
    try:
        def worker(path):
            raw = Path(path).read_bytes()
            text = _decode(raw, args, profiles)
            diagnostics = [] if args.diagnostics else None
            matches = dates.extract_dates(
                text, lexicon, reference=reference,
                default_order=args.default_order,
                reject_two_digit_years=args.reject_two_digit_years,
                diagnostics=diagnostics)
            if diagnostics:
                for offset, surface, reason in diagnostics:
                    print("placetime: %s:%d: discarded %r (%s)"
                          % (path, offset, surface, reason), file=sys.stderr)
            return text, matches

        results, failed = _map_files(args.paths, worker, args.jobs)
        for path, value in results:
            if value is None:
                continue
            text, matches = value
            if args.format == "standoff":
                for m in matches:
                    _emit(out, json.dumps(_date_record(path, m), ensure_ascii=False) + "\n")
            else:
                spans = [(m.offset, m.length, "date:%s" % m.normal.kind.value,
                          m.normal.to_string()) for m in matches]
                _emit(out, annotate.annotate_inline(text, spans))
    finally:
        if out:
            out.close()
    return 1 if failed else 0


def _geo_record(path, m, index):
    record = {"type": "geo", "path": path, "offset": m.offset, "length": m.length,
              "surface": m.surface}
    if isinstance(m.resolved, str):
        record["country"] = m.resolved
    else:
        rec = index.records[m.resolved]
        record.update(place_id=rec.id, country=rec.country, lat=rec.latitude,
                      lon=rec.longitude, size_class=rec.size_class)
    return record


def _parse_size_filter(spec):
    try:
        limit, _, countries = spec.partition(":")
        return int(limit), tuple(c for c in countries.split(",") if c)
    except ValueError as exc:
        raise ConfigError("bad --max-size-class-outside %r" % spec) from exc


def cmd_places(args):
    if args.max_size_class_outside:
        limit, keep = _parse_size_filter(args.max_size_class_outside)
        index = gazetteer.load_gazetteer(args.gazetteer, max_size_class=limit,
                                         keep_countries=keep)
    else:
        index = gazetteer.load_gazetteer(args.gazetteer)
    stop_list = (gazetteer.load_stop_words(args.stopwords, args.lang or "")
                 if args.stopwords else None)
    triggers = gazetteer.load_triggers(args.triggers) if args.triggers else None
    profiles = _load_profiles_if_needed(args)
    out = _open_out(args)
    try:
        def worker(path):
            raw = Path(path).read_bytes()
            text = _decode(raw, args, profiles)
            matches = geotag.tag_places(text, index, stop_list, triggers)
            resolved = geotag.disambiguate(matches, index)
            tallies = geotag.aggregate_by_country(resolved, index)
            return text, resolved, tallies

        results, failed = _map_files(args.paths, worker, args.jobs)
        for path, value in results:
            if value is None:
                continue
            text, resolved, tallies = value
            if args.format == "standoff":
                for m in resolved:
                    _emit(out, json.dumps(_geo_record(path, m, index),
                                          ensure_ascii=False) + "\n")
                _emit(out, json.dumps(
                    {"type": "tallies", "path": path,
                     "tallies": [{"country": t.country, "hits": t.hits,
                                  "percentage": t.percentage} for t in tallies]},
                    ensure_ascii=False) + "\n")
            else:
                spans = []
                for m in resolved:
                    if isinstance(m.resolved, str):
                        spans.append((m.offset, m.length, "country", m.resolved))
                    else:
                        rec = index.records[m.resolved]
                        spans.append((m.offset, m.length, "place",
                                      "%s:%d" % (rec.country, rec.id)))
                _emit(out, annotate.annotate_inline(text, spans))
    finally:
        if out:
            out.close()
    return 1 if failed else 0


def cmd_map(args):
    outline = mapviz.load_outline(args.outline)
    hits = Counter()
    dots = {}
    records = 0
    for path in args.annotations:
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise ConfigError("cannot read annotations %s: %s" % (path, exc)) from exc
        for line in lines:
            if not line.strip():
                continue
            record = json.loads(line)
            records += 1
            if record.get("type") == "tallies":
                for t in record["tallies"]:
                    hits[t["country"]] += t["hits"]
            elif record.get("type") == "geo" and "place_id" in record:
                pid = record["place_id"]
                if pid in dots:
                    d = dots[pid]
                    dots[pid] = mapviz.PlaceDot(pid, d.latitude, d.longitude,
                                                d.country, d.mentions + 1)
                else:
                    dots[pid] = mapviz.PlaceDot(pid, record["lat"], record["lon"],
                                                record["country"], 1)
    if records == 0:
        raise ConfigError("no annotation records in input")
    total = sum(hits.values())
    tallies = [geotag.CountryTally(c, n, 100.0 * n / total)
               for c, n in sorted(hits.items())] if total else []
    style = mapviz.MapStyle(width=args.width, height=args.height)
    diagnostics = []
    svg = mapviz.render_svg(tallies, dots.values(), outline, style, diagnostics)
    for message in diagnostics:
        print("placetime: %s" % message, file=sys.stderr)
    Path(args.out).write_text(svg, encoding="utf-8")
    return 0


def cmd_propose_stopwords(args):
    index = gazetteer.load_gazetteer(args.gazetteer)
    try:
        words = [w.strip() for w in
                 Path(args.frequency_list).read_text(encoding="utf-8").splitlines()
                 if w.strip()]
    except OSError as exc:
        raise ConfigError("cannot read frequency list: %s" % exc) from exc
    proposals = gazetteer.propose_stop_words(index, words, args.top_n)
    out = _open_out(args)
    try:
        for surface in proposals:
            _emit(out, surface + "\n")
    finally:
        if out:
            out.close()
    return 0


_COMMANDS = {
    "identify": cmd_identify,
    "train-profile": cmd_train_profile,
    "dates": cmd_dates,
    "places": cmd_places,
    "map": cmd_map,
    "propose-stopwords": cmd_propose_stopwords,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError("--jobs must be at least 1")
        return _COMMANDS[args.command](args)
    except (ConfigError, LoadError, TrainingError) as exc:
        print("placetime: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
