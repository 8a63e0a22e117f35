"""Byte-for-byte CLI outputs on the fixture corpus.

Each case runs ``python -m placetime.cli`` in a fresh process, from the corpus
directory with relative document paths, so that the ``path`` fields do not
depend on where the repository lives.  Its stdout, stderr and exit code must
equal the files under ``tests/data/golden/``; the ``map`` cases also compare
the SVG they write.

To regenerate the expected outputs from a given source tree::

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

With names, only those cases and their ``codes.json`` entries are rewritten;
with none, every case is.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import placetime
from placetime.cli import DATA_DIR

TESTS_DIR = Path(__file__).resolve().parent
CORPUS_DIR = TESTS_DIR / "data" / "corpus"
GOLDEN_DIR = TESTS_DIR / "data" / "golden"

_DOCS = sorted(p.name for p in CORPUS_DIR.glob("*.txt"))
_PLACES = ["places", *_DOCS, "--lang", "en",
           "--gazetteer", str(DATA_DIR / "gazetteer" / "world_small.tsv")]
_TAGGERS = ["--stopwords", str(DATA_DIR / "stopwords" / "en.txt"),
            "--triggers", str(DATA_DIR / "triggers" / "triggers.tsv")]
_REFERENCE = ["--reference", "2003-03-01"]
_DATE_OPTS = ["--lexicon", str(DATA_DIR / "lexicons" / "en.lex"), *_REFERENCE]
_DATES = ["dates", *_DOCS, *_DATE_OPTS]
_DISCARDS = "../golden/dates-diagnostics.txt"

# name -> (argv, working directory).  The map case reads the first places output;
# map-fallback reads two annotation files with blank, whitespace-only and padded
# lines, CR LF line ends and a later record of a place that moves.
# dates-diagnostics names a missing document between two readings of a document
# with discarded candidates, so its message falls between their diagnostics, and
# the run exits 1.  dates-ro reads a Romanian text that uses every non-empty
# section of ro.lex.
CASES = {
    "places-standoff": ([*_PLACES, *_TAGGERS], CORPUS_DIR),
    "places-inline": ([*_PLACES, *_TAGGERS, "--format", "inline"], CORPUS_DIR),
    "places-size-filter": ([*_PLACES, "--max-size-class-outside", "2:RO,FR"], CORPUS_DIR),
    "map": (["map", "places-standoff.stdout", "--out", "{svg}"], GOLDEN_DIR),
    "map-fallback": (["map", "map-fallback-a.jsonl", "map-fallback-b.jsonl", "--out", "{svg}"],
                     GOLDEN_DIR),
    "dates-standoff": (_DATES, CORPUS_DIR),
    "dates-inline": ([*_DATES, "--format", "inline"], CORPUS_DIR),
    "dates-diagnostics": (["dates", _DISCARDS, "nosuch.txt", *_DOCS, _DISCARDS, *_DATE_OPTS,
                           "--diagnostics"], CORPUS_DIR),
    "dates-ro": (["dates", "dates-ro.txt", "--lang", "ro",
                  "--lexicon", str(DATA_DIR / "lexicons" / "ro.lex"), *_REFERENCE], GOLDEN_DIR),
}


def run_case(name, svg_path, module="placetime.cli"):
    """(stdout bytes, stderr bytes, exit code) of one case, run in a new process."""
    argv, cwd = CASES[name]
    env = dict(os.environ, PYTHONIOENCODING="utf-8",
               PYTHONPATH=str(Path(placetime.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", module,
         *(str(svg_path) if a == "{svg}" else a for a in argv)],
        cwd=cwd, env=env, capture_output=True, timeout=120)
    return proc.stdout, proc.stderr, proc.returncode


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_is_golden(name, tmp_path):
    svg = tmp_path / "map.svg"
    out, err, code = run_case(name, svg)
    codes = json.loads((GOLDEN_DIR / "codes.json").read_text(encoding="utf-8"))
    assert code == codes[name]
    assert out == (GOLDEN_DIR / ("%s.stdout" % name)).read_bytes()
    assert err == (GOLDEN_DIR / ("%s.stderr" % name)).read_bytes()
    if name.startswith("map"):
        assert svg.read_bytes() == (GOLDEN_DIR / ("%s.svg" % name)).read_bytes()


def test_package_runs_as_module(tmp_path):
    out, err, code = run_case("dates-standoff", tmp_path / "map.svg", module="placetime")
    assert (out, err, code) == ((GOLDEN_DIR / "dates-standoff.stdout").read_bytes(), b"", 0)


def write_golden(names):
    """Rewrite the expected outputs and exit codes of the named cases."""
    unknown = set(names) - set(CASES)
    if unknown:
        sys.exit("unknown golden case(s): %s" % ", ".join(sorted(unknown)))
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    codes_path = GOLDEN_DIR / "codes.json"
    codes = json.loads(codes_path.read_text(encoding="utf-8")) if codes_path.exists() else {}
    for name in CASES:  # places-standoff first: the map case reads it
        if name in names:
            out, err, codes[name] = run_case(name, GOLDEN_DIR / ("%s.svg" % name))
            (GOLDEN_DIR / ("%s.stdout" % name)).write_bytes(out)
            (GOLDEN_DIR / ("%s.stderr" % name)).write_bytes(err)
    codes = {name: codes[name] for name in CASES if name in codes}
    codes_path.write_text(json.dumps(codes, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_golden(sys.argv[1:] or list(CASES))
