"""Every data-file loader rejects bad input with LoadError or ConfigError only."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placetime import langid
from placetime.cli import DATA_DIR
from placetime.dates import load_date_lexicon
from placetime.errors import ConfigError, LoadError, read_lines
from placetime.gazetteer import load_gazetteer, load_stop_words, load_triggers
from placetime.mapviz import load_outline

import corpusgen

LOADERS = {
    "gazetteer": (load_gazetteer, DATA_DIR / "gazetteer" / "world_small.tsv"),
    "triggers": (load_triggers, DATA_DIR / "triggers" / "triggers.tsv"),
    "stopwords": (lambda path: load_stop_words(path, "en"), DATA_DIR / "stopwords" / "en.txt"),
    "lexicon": (load_date_lexicon, DATA_DIR / "lexicons" / "en.lex"),
    "outline": (load_outline, DATA_DIR / "outline" / "world_outline.tsv"),
    "profile": (langid.load_profile, None),  # no profile ships; one is trained below
}

# Loader name -> what its message for a file it cannot read calls the file.
_WHAT = {"gazetteer": "gazetteer", "triggers": "trigger file", "stopwords": "stop-word list",
         "lexicon": "lexicon", "outline": "outline", "profile": "profile"}

# Byte strings that mean something to at least one format.
_TOKENS = st.sampled_from([b"\t", b"|", b"=", b"[", b"]", b"#", b",", b" ", b"-1", b"0",
                           b"256", b"nan", b"inf", b"1e999", b"9" * 5000, b"T", b"B",
                           b"#langenc", b"\xff", b"\xc3", b"\xe2\x80\xa8", b"\r"])
_PIECES = st.one_of(_TOKENS, st.binary(max_size=12))


@pytest.fixture(scope="module")
def shipped(tmp_path_factory):
    """Loader name -> the lines of its shipped (or freshly trained) file."""
    root = tmp_path_factory.mktemp("loaders")
    label = corpusgen.labels()[0]
    profile = langid.train_profile(corpusgen.generate_bytes(label, 400, seed=3), label)
    langid.save_profile(profile, root / "trained.prof")
    return {name: (path or root / "trained.prof").read_bytes().splitlines()
            for name, (_, path) in LOADERS.items()}


@st.composite
def _mutated(draw, lines):
    """The file with one to four of its lines replaced, deleted, duplicated or spliced."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        op = draw(st.sampled_from(("replace", "delete", "duplicate", "splice")))
        if op == "replace" or not lines:
            lines[i:i + 1] = [b"".join(draw(st.lists(_PIECES, max_size=6)))]
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            line = lines[i]
            a = draw(st.integers(0, len(line)))
            b = draw(st.integers(a, len(line)))
            lines[i] = line[:a] + draw(_PIECES) + line[b:]
    return b"\n".join(lines) + b"\n"


@pytest.mark.parametrize("name", LOADERS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_loader_raises_only_load_or_config_error(tmp_path_factory, shipped, name, data):
    contents = data.draw(st.one_of(st.binary(max_size=400), _mutated(shipped[name])))
    path = tmp_path_factory.getbasetemp() / ("fuzz-" + name)
    path.write_bytes(contents)
    try:
        LOADERS[name][0](path)
    except (LoadError, ConfigError):
        pass


@pytest.mark.parametrize("name", ["gazetteer", "triggers", "profile"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_loader_error_names_line(tmp_path_factory, shipped, name, data):
    path = tmp_path_factory.getbasetemp() / ("lines-" + name)
    path.write_bytes(data.draw(_mutated(shipped[name])))
    try:
        LOADERS[name][0](path)
    except LoadError as exc:
        assert str(exc).startswith("%s:" % path)
        assert str(exc)[len(str(path)) + 1:].split(":")[0].isdigit(), str(exc)


@pytest.mark.parametrize("name", LOADERS)
def test_loader_follows_reading_rules(tmp_path, shipped, name):
    load = LOADERS[name][0]
    path = tmp_path / "bad"
    path.write_bytes(shipped[name][0] + b"\n\xff\n")
    with pytest.raises(LoadError) as excinfo:
        load(path)
    assert str(excinfo.value) == "%s:2: not UTF-8" % path
    missing = tmp_path / "missing"
    with pytest.raises(LoadError) as excinfo:
        load(missing)
    assert str(excinfo.value).startswith("cannot read %s %s: " % (_WHAT[name], missing))


@pytest.mark.parametrize("sep", ["\x85", "\u2028", "\x0c"], ids=["NEL", "LS", "FF"])
def test_lines_end_at_line_feed_only(tmp_path, sep):
    path = tmp_path / "g.tsv"
    record = "1\tSt%sIves\t\tGB\t50.2\t-5.5\t5\r\n" % sep
    path.write_bytes(record.encode("utf-8"))
    assert load_gazetteer(path).records[1].canonical_name == "St%sIves" % sep
    path.write_bytes((record + "2\tOops\t\tGB\t0\t0\t9\n").encode("utf-8"))
    with pytest.raises(LoadError, match=r"g\.tsv:2: size_class 9"):
        load_gazetteer(path)
    path.write_bytes(record.encode("utf-8") + b"\xff\n")
    with pytest.raises(LoadError, match=r"g\.tsv:2: not UTF-8"):
        load_gazetteer(path)
    path.write_bytes(("a%sb\r\n\r\r\n\nc" % sep).encode("utf-8"))
    assert read_lines(path, "test file") == ["a%sb" % sep, "\r", "", "c"]
