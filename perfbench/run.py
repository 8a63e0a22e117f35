"""placetime benchmark: one closed-loop client driving ``placetime.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then repeats whole rounds of
CLI calls (each awaited before the next, in this one process and thread)
until ``--seconds`` have passed.  Every output is checked against the
generator's expected values.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import datetime
import io
import json
import math
import random
import re
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"


def _import_program():
    """Put the checkout's source on the path, or exit 1."""
    for need in (ROOT / "src" / "placetime" / "cli.py", ROOT / "tests" / "data" / "corpus"):
        if not need.exists():
            sys.exit("perfbench: %s not found; run from a placetime checkout"
                     % need.relative_to(ROOT))
    sys.path.insert(0, str(ROOT / "src"))


_import_program()

import gen  # noqa: E402
from check import (Problems, check_dates, check_identify, check_inline,  # noqa: E402
                   check_map, check_places, check_profile)
from tracing import PER_LAYER, Tracer, layer_metrics  # noqa: E402

from placetime import cli, dates, gazetteer, langid, mapviz  # noqa: E402

KB = 1024.0


# --------------------------------------------------------------------------
# calls and rounds

class Call:
    """One CLI invocation, the bytes it reads and how to check its output."""

    def __init__(self, step, argv, nbytes=0, files=1, group="", check=None):
        self.step = step          # train, identify, dates, places or map
        self.argv = argv
        self.nbytes = nbytes
        self.files = files
        self.group = group        # exponent fit: calls of one group share an intercept
        self.check = check        # check(errors) -> records in the output


class Workload:
    """Inputs written once; each round runs the same calls in the same order."""

    steps = ("train", "identify", "dates", "places", "map")

    def __init__(self, work, seed, smoke):
        self.work = work
        self.seed = seed
        self.smoke = smoke
        self.rng = random.Random("%s|%d" % (self.name, seed))
        self.calls = []
        self.loaders = []

    def write(self, rel, data):
        path = self.work / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        return str(path)

    def out(self, rel):
        path = self.work / "out" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        return str(path)

    def add_training(self, corpora):
        """One train-profile call per (label, corpus bytes)."""
        profiles = self.work / "profiles"
        profiles.mkdir(parents=True, exist_ok=True)
        for label, corpus in corpora:
            src = self.write("train/%s_%s.txt" % (label.language, label.encoding), corpus)
            dst = str(profiles / ("%s_%s.prof" % (label.language, label.encoding)))
            self.calls.append(Call(
                "train", ["train-profile", src, "--lang", label.language,
                          "--encoding", label.encoding, "--out", dst],
                len(corpus), check=check_profile(dst, corpus, label)))
        self.loaders.append(lambda: langid.load_profile_dir(profiles))
        return str(profiles)

    def write_docs(self, docs):
        for d in docs:
            self.write(d.name, d.data)

    def add_identify(self, profiles, docs, out_name="identify.tsv"):
        paths = [str(self.work / d.name) for d in docs]
        out = self.out(out_name)
        self.calls.append(Call(
            "identify", ["identify", *paths, "--profiles", profiles, "--out", out],
            sum(len(d.data) for d in docs), len(docs),
            check=check_identify(out, paths, docs)))

    def add_places(self, docs, group, out_name, extra=()):
        paths = [str(self.work / d.name) for d in docs]
        out = self.out(out_name)
        self.calls.append(Call(
            "places", ["places", *paths, *extra, "--gazetteer", str(gen.GAZETTEER),
                       "--stopwords", str(gen.STOPWORDS), "--triggers", str(gen.TRIGGERS),
                       "--out", out],
            sum(len(d.data) for d in docs), len(docs), group,
            check=check_places(out, paths, docs)))
        return out

    def add_map(self, annotations, docs, geo):
        out = self.out("map.svg")
        self.calls.append(Call(
            "map", ["map", *annotations, "--outline", str(gen.OUTLINE), "--out", out],
            check=check_map(out, annotations, docs, geo)))

    def add_place_loaders(self):
        self.loaders += [lambda: gazetteer.load_gazetteer(gen.GAZETTEER),
                         lambda: gazetteer.load_stop_words(gen.STOPWORDS, "en"),
                         lambda: gazetteer.load_triggers(gen.TRIGGERS),
                         lambda: mapviz.load_outline(gen.OUTLINE)]


class LongArticles(Workload):
    """English articles on a size ladder, one dates and one places call each.

    Two prose articles per rung: the cost of the superlinear date paths
    depends on how many month names fall where, which varies from seed to
    seed, and two articles halve that variance against one.
    """

    name = "long-articles"
    prose_kb = (2, 4, 8, 16, 32)
    prose_copies = 2
    table_kb = (2, 8, 32)

    def build(self, g):
        rng = self.rng
        reference = (datetime.date(1995, 1, 1)
                     + datetime.timedelta(days=rng.randrange(5000)))
        prose_kb, table_kb = ((2, 4), (2,)) if self.smoke else (self.prose_kb, self.table_kb)
        docs = [g.prose(rng, "en", kb * 1024, reference,
                        name="articles/prose_%02dkb_%d.txt" % (kb, copy))
                for kb in prose_kb for copy in range(self.prose_copies)]
        docs += [g.table(rng, kb * 1024, name="articles/table_%02dkb.txt" % kb)
                 for kb in table_kb]
        train_kb = 4 if self.smoke else 32
        profiles = self.add_training(
            [(langid.LangEncLabel(lang, "UTF-8"), gen.training_text(g, lang, train_kb * 1024))
             for lang in ("en", "ro")])
        self.write_docs(docs)
        # Tables are mostly digits, which no language profile tells apart.
        self.add_identify(profiles, [d for d in docs if d.kind == "prose"])
        for d in docs:
            path = str(self.work / d.name)
            out = self.out(d.name + ".dates.jsonl")
            self.calls.append(Call(
                "dates", ["dates", path, "--lang", "en", "--lexicon", str(gen.LEXICON["en"]),
                          "--reference", reference.isoformat(), "--out", out],
                len(d.data), 1, d.kind, check=check_dates(out, [path], [d])))
        annotations = [self.add_places([d], d.kind, d.name + ".places.jsonl", ["--lang", "en"])
                       for d in docs]
        self.add_map(annotations, docs, g.geo)
        self.loaders.append(lambda: dates.load_date_lexicon(gen.LEXICON["en"]))
        self.add_place_loaders()


class NewsBatch(Workload):
    """About a thousand short news items, batched by language and size tier."""

    name = "news-batch"
    items = 980
    tiers = (512, 1024)      # item-size tier edges in bytes

    def build(self, g):
        rng = self.rng
        reference = datetime.date(2003, 3, 1)
        items = 40 if self.smoke else self.items
        docs = []
        for i in range(items):
            lang = "ro" if rng.random() < 0.2 else "en"
            size = int(math.exp(rng.uniform(math.log(200), math.log(2048))))
            docs.append(g.prose(rng, lang, size, reference, items_per_sentence=1.0,
                                name="news/%s_%04d.txt" % (lang, i)))
        docs += gen.fixtures()
        train_kb = 4 if self.smoke else 32
        profiles = self.add_training(
            [(langid.LangEncLabel(lang, "UTF-8"), gen.training_text(g, lang, train_kb * 1024))
             for lang in ("en", "ro")])
        self.write_docs(docs)
        batches = {}
        for d in docs:
            tier = sum(len(d.data) >= edge for edge in self.tiers)
            batches.setdefault((d.lang, tier), []).append(d)
        annotations = []
        for (lang, tier), batch in sorted(batches.items()):
            # One identify call per batch, over at most 32 of its items, so
            # that identification is timed over several short calls.
            self.add_identify(profiles, batch[::max(1, len(batch) // 32)][:32],
                              "identify_%s_%d.tsv" % (lang, tier))
            paths = [str(self.work / d.name) for d in batch]
            out = self.out("news_%s_%d.inline.txt" % (lang, tier))
            self.calls.append(Call(
                "dates", ["dates", *paths, "--lang", lang, "--format", "inline",
                          "--lexicon", str(gen.LEXICON[lang]), "--out", out],
                sum(len(d.data) for d in batch), len(batch), lang,
                check=check_inline(out, batch)))
            annotations.append(self.add_places(
                batch, lang, "news_%s_%d.places.jsonl" % (lang, tier), ["--lang", lang]))
        self.add_map(annotations, docs, g.geo)
        self.loaders += [lambda: dates.load_date_lexicon(gen.LEXICON["en"]),
                         lambda: dates.load_date_lexicon(gen.LEXICON["ro"])]
        self.add_place_loaders()


WORKLOADS = {w.name: w for w in (LongArticles, NewsBatch)}


# --------------------------------------------------------------------------
# machine speed

_REFERENCE_TEXT = "The quick brown fox jumps over Paris on 12 March 2003 and London. " * 200
_REFERENCE_WORD = re.compile(r"\w+")
REFERENCE_NOMINAL_S = 0.004


def reference_time():
    """Wall time of a fixed pure-Python computation: regex scan, dict counts, JSON.

    Its code and input never change, so its timings measure how fast the
    shared machine runs Python at that moment, not how fast placetime is.
    """
    start = time.perf_counter()
    for _ in range(4):
        counts = {}
        for m in _REFERENCE_WORD.finditer(_REFERENCE_TEXT):
            counts[m.group(0)] = counts.get(m.group(0), 0) + 1
        json.dumps(sorted(counts.items()))
    return time.perf_counter() - start


def local_scales(references, k=2):
    """Nominal reference time over the median of the 2k+1 samples around each sample.

    The machine's speed changes within seconds, so each call is scaled by
    the reference samples taken nearest it, not by the run's median.
    """
    return [REFERENCE_NOMINAL_S / statistics.median(references[max(0, j - k):j + k + 1])
            for j in range(len(references))]


# --------------------------------------------------------------------------
# rounds

def run_round(workload, problems, tracer=None, setup_times=None, references=None):
    """Run every call once; returns [(call, seconds, records)] in call order.

    With ``references``, the reference computation is timed before every
    call, so that it samples the machine at the same moments as the calls.
    With ``setup_times`` (which needs ``references``), one pass over the
    workload's loaders is timed after every few calls, so set-up is sampled
    all through the run; each sample is kept with the index of the reference
    sample taken just before.
    """
    stride = max(1, len(workload.calls) // 8)
    results = []
    for i, call in enumerate(workload.calls):
        gc.collect()      # every call starts with the same collector state
        if references is not None:
            references.append(reference_time())
        mark = tracer.mark() if tracer else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(call.argv)
        except SystemExit as exc:
            code = exc.code
        elapsed = time.perf_counter() - start
        problems.attempted += 1
        records = 0
        if code != 0:
            problems.fail(call, "exit code %r" % (code,))
        else:
            errors = []
            records = call.check(errors)
            if errors:
                problems.fail(call, "; ".join(errors[:3]), wrong=True)
        if tracer is not None:
            tracer.set_count(mark, records)
        results.append((call, elapsed, records))
        if setup_times is not None and i % stride == 0:
            setup_times.append((len(references) - 1, time_setup(workload)))
    return results


def time_setup(workload):
    """Wall time of one pass over the loaders the workload's commands read."""
    start = time.perf_counter()
    for load in workload.loaders:
        load()
    return time.perf_counter() - start


def end_to_end(rounds, scales):
    """End-to-end values from each call's median scaled time over the rounds.

    ``scales[j]`` belongs to the j-th call of the run (rounds in order): other
    tenants of a shared machine slow all Python code by up to half for
    stretches of seconds to minutes, and a wall time times its scale is what
    the call would take on a machine running the reference in its nominal
    time.
    """
    n = len(rounds[0])
    best = [(call, statistics.median(r[i][1] * scales[k * n + i] for k, r in enumerate(rounds)),
             records)
            for i, (call, _, records) in enumerate(rounds[0])]

    def rate(step, amount):
        entries = [e for e in best if e[0].step == step]
        return sum(amount(c, r) for c, _, r in entries) / sum(t for _, t, _ in entries)

    in_kb = lambda c, r: c.nbytes / KB  # noqa: E731
    return {
        "dates_kb_s": rate("dates", in_kb),
        "places_kb_s": rate("places", in_kb),
        "map_records_s": rate("map", lambda c, r: r),
        "identify_kb_s": rate("identify", in_kb),
        "train_kb_s": rate("train", in_kb),
        "dates_size_exponent": size_exponent([e for e in best if e[0].step == "dates"]),
        "places_size_exponent": size_exponent([e for e in best if e[0].step == "places"]),
    }


def size_exponent(entries):
    """Slope of log(seconds per file) on log(bytes per file), one intercept per group."""
    groups = {}
    for call, seconds, _ in entries:
        groups.setdefault(call.group, []).append(
            (math.log(call.nbytes / call.files), math.log(seconds / call.files)))
    sxy = sxx = 0.0
    for points in groups.values():
        mx = sum(x for x, _ in points) / len(points)
        my = sum(y for _, y in points) / len(points)
        sxy += sum((x - mx) * (y - my) for x, y in points)
        sxx += sum((x - mx) ** 2 for x, _ in points)
    return sxy / sxx if sxx else 0.0


END_TO_END_UNITS = {
    "setup_s": "s", "dates_kb_s": "KB/s", "places_kb_s": "KB/s",
    "map_records_s": "records/s", "identify_kb_s": "KB/s", "train_kb_s": "KB/s",
    "dates_size_exponent": "1", "places_size_exponent": "1", "peak_rss_mb": "MB",
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest inputs and a single round (schema check only)")
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workload = WORKLOADS[args.workload](Path(tmp), args.seed, args.smoke)
        workload.build(gen.Generator())
        problems = Problems()
        if args.trace:
            metrics = traced_run(workload, problems, args)
        else:
            metrics = untraced_run(workload, problems, args)
    for line in problems.messages:
        print("perfbench: %s" % line, file=sys.stderr)
    print(json.dumps({"correct": problems.correct, "attempted": problems.attempted,
                      "failed": problems.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def _wall(results):
    return sum(t for _, t, _ in results)


def _log_rounds(rounds, label="untraced"):
    print("perfbench: %d %s rounds, median %.3f s of CLI calls each"
          % (len(rounds), label, statistics.median(_wall(r) for r in rounds)),
          file=sys.stderr)


def _rounds(workload, problems, seconds, min_rounds, **kwargs):
    deadline = time.perf_counter() + seconds
    rounds = []
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        rounds.append(run_round(workload, problems, **kwargs))
    return rounds


def untraced_run(workload, problems, args):
    setup_times, references = [], []
    started = time.perf_counter()
    rounds = _rounds(workload, problems, 0, 1 if args.smoke else 2,
                     setup_times=setup_times, references=references)
    # Peak memory after a fixed number of rounds, so that state which grows
    # with every call does not make a faster program look larger.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds += _rounds(workload, problems, args.seconds - (time.perf_counter() - started),
                      0 if args.smoke else 1, setup_times=setup_times, references=references)
    _log_rounds(rounds)
    print("perfbench: reference computation median %.4f s over %d samples (nominal %.4f s)"
          % (statistics.median(references), len(references), REFERENCE_NOMINAL_S),
          file=sys.stderr)
    scales = local_scales(references)
    values = end_to_end(rounds, scales)
    values["setup_s"] = statistics.median(t * scales[j] for j, t in setup_times)
    values["peak_rss_mb"] = peak_mb
    return {k: (values[k], END_TO_END_UNITS[k]) for k in END_TO_END_UNITS}


def traced_run(workload, problems, args):
    """Untraced and traced rounds in turn, so both see the same machine."""
    tracer = Tracer()
    summaries, plain, traced = [], [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(run_round(workload, problems))
        first = tracer.mark()
        tracer.install()
        try:
            traced.append(run_round(workload, problems, tracer))
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary(first))
    tracer.write(OUT_DIR / ("spans-%s-seed%d.bin" % (workload.name, args.seed)))
    _log_rounds(plain)
    _log_rounds(traced, "traced")
    metrics = layer_metrics(summaries)
    metrics["trace.overhead"] = (statistics.median(_wall(r) for r in traced)
                                 / statistics.median(_wall(r) for r in plain), "1")
    return {name: metrics[name] for name, *_ in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
