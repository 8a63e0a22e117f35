"""The command-line and package surface that a restructured CLI or package must keep.

The ``--help`` texts are pinned as Python 3.11 formats them at 80 columns; a
new option or subcommand changes them on purpose.
"""

import argparse
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import placetime
from placetime import cli
from placetime.cli import DATA_DIR, build_parser, main

LEX_EN = str(DATA_DIR / "lexicons" / "en.lex")

EXPORTS = {
    "dates": ["DateKind", "DateLexicon", "DateMatch", "NormalizedDate", "extract_dates",
              "load_date_lexicon", "resolve_relative"],
    "gazetteer": ["CountryTrigger", "GazetteerIndex", "GeoStopList", "PlaceRecord",
                  "load_gazetteer", "load_stop_words", "load_triggers", "name_table",
                  "propose_stop_words", "tokenize"],
    "geotag": ["CountryTally", "GeoMatch", "aggregate_by_country", "disambiguate", "tag_places"],
    "langid": ["ENCODING_REGISTRY", "LangEncLabel", "LangEncProfile", "ScoredLabel",
               "decode_to_utf8", "identify", "score_text", "train_profile"],
    "mapviz": ["MapStyle", "PlaceDot", "bucket_frequencies", "load_outline", "render_svg"],
}

HELP = {
    None: """\
usage: placetime [-h]
                 {identify,train-profile,dates,places,map,propose-stopwords}
                 ...

Command-line front end: identify -> decode -> extract -> aggregate -> render.
Subcommands: identify, dates, places, map, train-profile, propose-stopwords.
Standoff output is JSON Lines (one object per match, plus one tallies object
per file); inline output wraps matches as ``[[kind|normal|surface]]``. Files
are processed one at a time, in input order, and each file's output is written
as soon as it is done. Exit codes: 0 success, 1 partial failure, 2
configuration error.

positional arguments:
  {identify,train-profile,dates,places,map,propose-stopwords}
    identify            rank language/encoding per file
    train-profile       train a language/encoding profile
    dates               extract and normalize date expressions
    places              extract, disambiguate and tally place names
    map                 render SVG map from places annotations
    propose-stopwords   propose geo stop words for review

options:
  -h, --help            show this help message and exit
""",
    "identify": """\
usage: placetime identify [-h] --profiles PROFILES [--out OUT] PATH [PATH ...]

positional arguments:
  PATH

options:
  -h, --help           show this help message and exit
  --profiles PROFILES
  --out OUT
""",
    "train-profile": """\
usage: placetime train-profile [-h] --lang LANG --encoding ENCODING --out OUT
                               CORPUS [CORPUS ...]

positional arguments:
  CORPUS

options:
  -h, --help           show this help message and exit
  --lang LANG
  --encoding ENCODING
  --out OUT
""",
    "dates": """\
usage: placetime dates [-h] [--lang LANG] [--encoding ENCODING]
                       [--profiles PROFILES] [--format {standoff,inline}]
                       [--out OUT] --lexicon LEXICON [--reference YYYY-MM-DD]
                       [--default-order {dmy,mdy}] [--reject-two-digit-years]
                       [--diagnostics]
                       PATH [PATH ...]

positional arguments:
  PATH

options:
  -h, --help            show this help message and exit
  --lang LANG           language code; skips identification
  --encoding ENCODING   input encoding (registry name)
  --profiles PROFILES   profile directory for identification
  --format {standoff,inline}
  --out OUT             output file (default: stdout)
  --lexicon LEXICON
  --reference YYYY-MM-DD
  --default-order {dmy,mdy}
  --reject-two-digit-years
  --diagnostics         report discarded candidates on stderr
""",
    "places": """\
usage: placetime places [-h] [--lang LANG] [--encoding ENCODING]
                        [--profiles PROFILES] [--format {standoff,inline}]
                        [--out OUT] --gazetteer GAZETTEER
                        [--stopwords STOPWORDS] [--triggers TRIGGERS]
                        [--max-size-class-outside N:CC,CC,...]
                        PATH [PATH ...]

positional arguments:
  PATH

options:
  -h, --help            show this help message and exit
  --lang LANG           language code; skips identification
  --encoding ENCODING   input encoding (registry name)
  --profiles PROFILES   profile directory for identification
  --format {standoff,inline}
  --out OUT             output file (default: stdout)
  --gazetteer GAZETTEER
  --stopwords STOPWORDS
  --triggers TRIGGERS
  --max-size-class-outside N:CC,CC,...
                        outside the listed countries keep only size class <= N
""",
    "map": """\
usage: placetime map [-h] [--outline OUTLINE] --out OUT [--width WIDTH]
                     [--height HEIGHT]
                     ANNOTATION [ANNOTATION ...]

positional arguments:
  ANNOTATION

options:
  -h, --help         show this help message and exit
  --outline OUTLINE
  --out OUT
  --width WIDTH
  --height HEIGHT
""",
    "propose-stopwords": """\
usage: placetime propose-stopwords [-h] --gazetteer GAZETTEER --frequency-list
                                   FREQUENCY_LIST [--top-n TOP_N] [--out OUT]

options:
  -h, --help            show this help message and exit
  --gazetteer GAZETTEER
  --frequency-list FREQUENCY_LIST
                        ranked word list, one word per line, most frequent
                        first
  --top-n TOP_N
  --out OUT
""",
}

_USAGE = """\
usage: placetime [-h]
                 {identify,train-profile,dates,places,map,propose-stopwords}
                 ...
"""


def _usage(command):
    """A subcommand's usage, as its ``--help`` text above begins."""
    return HELP[command].split("\n\n")[0] + "\n"


USAGE_ERRORS = {
    "no command": ([], _USAGE + "placetime: error: the following arguments are required: "
                   "command\n"),
    "unknown command": (["frob"], _USAGE + "placetime: error: argument command: invalid "
                        "choice: 'frob' (choose from 'identify', 'train-profile', 'dates', "
                        "'places', 'map', 'propose-stopwords')\n"),
    # The subcommand is the first word that names one, not the first word.
    "unknown option before command": (["--frob", "dates"], _usage("dates")
                                      + "placetime dates: error: the following arguments "
                                      "are required: PATH, --lexicon\n"),
    "dates: unknown option": (["dates", "d.txt", "--lexicon", LEX_EN, "--bogus"], _USAGE
                              + "placetime: error: unrecognized arguments: --bogus\n"),
    "map: bad --width": (["map", "a.jsonl", "--out", "m.svg", "--width", "x"], _usage("map")
                         + "placetime map: error: argument --width: invalid int value: "
                         "'x'\n"),
    "dates: bad --format": (["dates", "d.txt", "--lexicon", LEX_EN, "--format", "xml"],
                            _usage("dates") + "placetime dates: error: argument --format: "
                            "invalid choice: 'xml' (choose from 'standoff', 'inline')\n"),
}
REQUIRED = {
    "identify": "PATH, --profiles",
    "train-profile": "CORPUS, --lang, --encoding, --out",
    "dates": "PATH, --lexicon",
    "places": "PATH, --gazetteer",
    "map": "ANNOTATION, --out",
    "propose-stopwords": "--gazetteer, --frequency-list",
}
for _command, _required in REQUIRED.items():
    USAGE_ERRORS[_command + ": no arguments"] = (
        [_command], "%splacetime %s: error: the following arguments are required: %s\n"
        % (_usage(_command), _command, _required))

# Two valid argvs per subcommand: its required arguments only (so every other
# option takes its default), and every option given.
VALID_ARGV = {
    "identify": (["identify", "a.txt", "--profiles", "p"],
                 ["identify", "a.txt", "b.txt", "--profiles", "p", "--out", "o.tsv"]),
    "train-profile": (["train-profile", "c.txt", "--lang", "en", "--encoding", "UTF-8",
                       "--out", "en.prof"],
                      ["train-profile", "c.txt", "d.txt", "--lang", "en", "--encoding",
                       "UTF-8", "--out", "en.prof"]),
    "dates": (["dates", "d.txt", "--lexicon", LEX_EN],
              ["dates", "d.txt", "--lexicon", LEX_EN, "--reference", "2003-03-01",
               "--default-order", "mdy", "--reject-two-digit-years", "--diagnostics",
               "--format", "inline", "--lang", "en"]),
    "places": (["places", "d.txt", "--gazetteer", "g.tsv"],
               ["places", "d.txt", "e.txt", "--gazetteer", "g.tsv", "--stopwords", "s.txt",
                "--triggers", "t.tsv", "--max-size-class-outside", "2:FR,DE", "--encoding",
                "ISO-8859-2", "--profiles", "p", "--out", "o.jsonl"]),
    "map": (["map", "a.jsonl", "--out", "m.svg"],
            ["map", "a.jsonl", "--outline", "w.tsv", "--out", "m.svg", "--width", "800",
             "--height", "400"]),
    "propose-stopwords": (["propose-stopwords", "--gazetteer", "g.tsv", "--frequency-list",
                           "f.txt"],
                          ["propose-stopwords", "--gazetteer", "g.tsv", "--frequency-list",
                           "f.txt", "--top-n", "5", "--out", "s.txt"]),
}


def test_package_exports():
    exported = {name for name in dir(placetime) if not name.startswith("_")
                and not isinstance(getattr(placetime, name), types.ModuleType)}
    assert exported == {name for names in EXPORTS.values() for name in names}
    for module, names in EXPORTS.items():
        owner = importlib.import_module("placetime." + module)
        for name in names:
            assert getattr(placetime, name) is getattr(owner, name)
    assert placetime.__version__ == "0.1.0"


@pytest.fixture
def columns_80(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("command", HELP)
def test_help_text(capsys, columns_80, command):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"] if command else ["--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr() == (HELP[command], "")


@pytest.mark.parametrize("case", USAGE_ERRORS)
def test_usage_error(capsys, columns_80, case):
    argv, err = USAGE_ERRORS[case]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert capsys.readouterr() == ("", err)


def _add_argument_calls(build):
    """How many ``add_argument`` calls ``build()`` makes, and what it returns."""
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)
    with mock.patch.object(argparse.ArgumentParser, "add_argument", counted):
        result = build()
    return len(calls), result


@pytest.mark.parametrize("command", VALID_ARGV)
def test_build_parser_adds_only_the_named_arguments(command):
    """A command word gets a parser with that command's arguments alone, which parses
    as the full parser."""
    full_calls, full = _add_argument_calls(build_parser)
    parsed = {name: entry._replace(run=lambda args: args) for name, entry in cli._COMMANDS.items()}
    for argv in VALID_ARGV[command]:
        with mock.patch.object(cli, "_COMMANDS", parsed):
            calls, args = _add_argument_calls(lambda: main(argv))
        assert calls < full_calls
        assert args == full.parse_args(argv)


# Every word of the valid argvs (each command, option and value), help flags,
# abbreviated and joined options, and words that no parser knows.
_ARGV_WORDS = sorted({word for argvs in VALID_ARGV.values() for argv in argvs for word in argv}
                     | {"-h", "--help", "--", "-", "--lex", "--out=o.txt", "--out=p.txt",
                        "--lang=en", "-1", "-x", "--bogus", "bogus", ""})


def _outcome(parse, argv, capsys):
    """``parse(argv)``'s namespace, or its exit code, with what it wrote."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = exc.code
    return result, capsys.readouterr()


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=st.one_of(
    st.lists(st.sampled_from(_ARGV_WORDS), max_size=8),
    st.builds(lambda first, rest: [first, *rest], st.sampled_from(list(VALID_ARGV)),
              st.lists(st.sampled_from(_ARGV_WORDS), max_size=8)),
    # A valid command line and more words, which the command's parser may leave over.
    st.builds(lambda valid, rest: [*valid, *rest],
              st.sampled_from([argv for argvs in VALID_ARGV.values() for argv in argvs]),
              st.lists(st.sampled_from(_ARGV_WORDS), max_size=4))))
def test_main_parses_as_the_full_parser(capsys, columns_80, monkeypatch, argv):
    seen = []
    monkeypatch.setattr(cli, "_COMMANDS", {name: entry._replace(run=seen.append)
                                           for name, entry in cli._COMMANDS.items()})
    result, written = _outcome(main, argv, capsys)
    if result is None:
        result = seen.pop()
    assert (result, written) == _outcome(build_parser().parse_args, argv, capsys)


@pytest.mark.parametrize("reference, code", [("2003-03-01", 0), ("2003-02-30", 2)])
def test_python_m_placetime_equals_main(capsys, tmp_path, monkeypatch, reference, code):
    (tmp_path / "doc.txt").write_text("Signed 21 March 2001, yesterday.\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    argv = ["dates", "doc.txt", "--lexicon", LEX_EN, "--reference", reference]
    env = dict(os.environ, PYTHONIOENCODING="utf-8",
               PYTHONPATH=str(Path(placetime.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-m", "placetime", *argv], env=env,
                          capture_output=True, timeout=120)
    assert main(argv) == proc.returncode == code
    captured = capsys.readouterr()
    assert (proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")) == (captured.out,
                                                                          captured.err)
    if code == 0:
        assert captured.out and not captured.err
    else:
        assert not captured.out and captured.err.startswith("placetime: bad --reference ")
