import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placetime import langid
from placetime.cli import main
from placetime.errors import ConfigError, DecodeError, ScoringError, TrainingError
from placetime.langid import ENCODING_REGISTRY, LangEncLabel

import corpusgen
import langid_oracle

EN = LangEncLabel("en", "ISO-8859-1")
HU = LangEncLabel("hu", "ISO-8859-2")


def brute_force_counts(data, n):
    counts = {}
    for i in range(len(data) - n + 1):
        key = tuple(data[i:i + n])
        counts[key] = counts.get(key, 0) + 1
    return counts


class TestLabel:
    def test_valid(self):
        label = LangEncLabel("en", "UTF-8")
        assert str(label) == "en/UTF-8"

    @pytest.mark.parametrize("lang,enc", [
        ("EN", "UTF-8"), ("e", "UTF-8"), ("eng", "UTF-8"), ("en", "KOI8-R"),
    ])
    def test_invalid(self, lang, enc):
        with pytest.raises(ValueError):
            LangEncLabel(lang, enc)


class TestTrain:
    def test_aaa(self):
        p = langid.train_profile(b"aaa", EN)
        a = ord("a")
        assert p.trigram_counts == {(a, a, a): 1}
        assert p.bigram_counts == {(a, a): 2}
        assert p.total_bytes == 3

    def test_ab_repeated(self):
        p = langid.train_profile(b"ab" * 100, EN)
        a, b = ord("a"), ord("b")
        assert p.bigram_counts[(a, b)] == 100
        assert p.bigram_counts[(b, a)] == 99

    def test_empty_corpus(self):
        with pytest.raises(TrainingError):
            langid.train_profile(b"", EN)

    def test_counts_match_brute_force(self):
        rng = random.Random(7)
        for _ in range(25):
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(3, 1000)))
            p = langid.train_profile(data, EN)
            assert p.bigram_counts == brute_force_counts(data, 2)
            assert p.trigram_counts == brute_force_counts(data, 3)
            assert p.total_bytes == len(data)

    def test_trigram_bounded_by_bigram(self):
        data = corpusgen.generate_bytes(EN, 5000, seed=3)
        p = langid.train_profile(data, EN)
        for (b1, b2, b3), n in p.trigram_counts.items():
            assert n <= p.bigram_counts[(b1, b2)]


class TestScore:
    def test_untrained_floor(self):
        p = langid.LangEncProfile(label=EN)
        assert langid.score_text(p, b"xyz") == pytest.approx(math.log(1 / 256))

    def test_trained_on_aaaa(self):
        p = langid.train_profile(b"a" * 1000, EN)
        assert langid.score_text(p, b"aaa") == pytest.approx(math.log(999 / 1255))
        assert langid.score_text(p, b"aaa") == pytest.approx(-0.2282, abs=1e-4)

    def test_matching_profile_scores_higher(self):
        en = langid.train_profile(corpusgen.generate_bytes(EN, 50_000, seed=1), EN)
        hu = langid.train_profile(corpusgen.generate_bytes(HU, 50_000, seed=1), HU)
        test_en = corpusgen.generate_bytes(EN, 500, seed=9)
        assert langid.score_text(en, test_en) > langid.score_text(hu, test_en)

    def test_too_short(self):
        p = langid.train_profile(b"abc", EN)
        with pytest.raises(ScoringError):
            langid.score_text(p, b"ab")

    def test_finite_and_nonpositive(self):
        p = langid.train_profile(corpusgen.generate_bytes(EN, 2000, seed=4), EN)
        rng = random.Random(11)
        for _ in range(50):
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(3, 200)))
            s = langid.score_text(p, data)
            assert math.isfinite(s) and s <= 0


class TestIdentify:
    def test_singleton(self):
        p = langid.train_profile(b"xyzxyz", HU)
        ranked = langid.identify([p], b"completely different")
        assert ranked[0].label == HU

    def test_empty_profile_set(self):
        with pytest.raises(ConfigError):
            langid.identify([], b"abc")

    def test_fixture_hungarian_snippet(self):
        en = langid.train_profile(corpusgen.generate_bytes(EN, 50_000, seed=1), EN)
        hu = langid.train_profile(corpusgen.generate_bytes(HU, 50_000, seed=1), HU)
        snippet = corpusgen.snippets(HU, 1, 500, seed=5)[0]
        assert langid.identify([en, hu], snippet)[0].label == HU

    def test_self_consistency(self):
        train = corpusgen.generate_bytes(EN, 50_000, seed=1)
        en = langid.train_profile(train, EN)
        hu = langid.train_profile(corpusgen.generate_bytes(HU, 50_000, seed=1), HU)
        assert langid.identify([en, hu], train[:500])[0].label == EN

    def test_sorted_descending(self):
        profiles = [langid.train_profile(corpusgen.generate_bytes(lab, 10_000, seed=1), lab)
                    for lab in corpusgen.labels()]
        ranked = langid.identify(profiles, corpusgen.snippets(EN, 1, 400, seed=6)[0])
        scores = [s.score for s in ranked]
        assert scores == sorted(scores, reverse=True)


class TestDecode:
    def test_ascii_a(self):
        assert langid.decode_to_utf8(bytes([65]), "US-ASCII") == "A"

    def test_utf8_two_byte(self):
        assert langid.decode_to_utf8(bytes([195, 188]), "UTF-8") == "ü"

    def test_pure_ascii_is_valid_utf8(self):
        data = bytes(range(32, 127))
        assert langid.decode_to_utf8(data, "UTF-8") == data.decode("ascii")

    def test_invalid_byte_names_offset(self):
        with pytest.raises(DecodeError) as err:
            langid.decode_to_utf8(b"ok\xffrest", "UTF-8")
        assert err.value.offset == 2

    def test_round_trip_all_encodings(self):
        rng = random.Random(13)
        for name, codec in ENCODING_REGISTRY.items():
            for _ in range(40):
                if name == "UTF-8":
                    raw = "".join(chr(rng.randrange(0x20, 0x2000))
                                  for _ in range(50)).encode("utf-8")
                else:
                    raw = bytes(b for b in (rng.randrange(256) for _ in range(200))
                                if _decodable(b, codec))
                if len(raw) == 0:
                    continue
                decoded = langid.decode_to_utf8(raw, name)
                assert decoded.encode(codec) == raw


def _decodable(byte, codec):
    try:
        bytes([byte]).decode(codec)
        return True
    except UnicodeDecodeError:
        return False


class TestProfileFiles:
    def test_round_trip(self, tmp_path):
        p = langid.train_profile(corpusgen.generate_bytes(EN, 5000, seed=2), EN)
        path = tmp_path / "en.prof"
        langid.save_profile(p, path)
        q = langid.load_profile(path)
        assert q.label == p.label
        assert q.bigram_counts == p.bigram_counts
        assert q.trigram_counts == p.trigram_counts
        assert q.total_bytes == p.total_bytes
        assert path.read_text().startswith("#langenc en ISO-8859-1 ")
        again = tmp_path / "again.prof"
        langid.save_profile(q, again)
        assert again.read_bytes() == path.read_bytes()

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.prof"
        path.write_text("B 1 2 3\n")
        with pytest.raises(langid.LoadError):
            langid.load_profile(path)

    @pytest.mark.parametrize("record", [
        b"B 256 1 3",        # byte above 255
        b"T 1 -1 2 3",       # negative byte
        b"B 1 02 3",         # byte not a plain decimal
        b"T 1 2 +3 4",
        b"B 1 2 -3",         # negative count
        b"T 1 2 3 x",
        b"B 1 2 \xff",       # not UTF-8
    ])
    def test_malformed_record_names_line(self, tmp_path, record):
        path = tmp_path / "bad.prof"
        path.write_bytes(b"#langenc en UTF-8 9\nB 1 2 3\n\n" + record + b"\nT 1 2 3 1\n")
        with pytest.raises(langid.LoadError, match=r"bad\.prof:4: malformed record "):
            langid.load_profile(path)

    @pytest.mark.parametrize("body,lineno,record", [
        ("B 1 2 3\nT 1 2 3 1\nT 1 2 3 7\n", 4, "T 1 2 3 7"),
        ("T 1 2 3 1\nB 1 2 3\n\nB 1 2 9\nB 1 2 3\n", 5, "B 1 2 9"),
        ("B 1 2 3\nT 4 5 6 1\n  T  4 5 6   1 \n", 4, "  T  4 5 6   1 "),
    ])
    def test_duplicate_record_names_line(self, tmp_path, body, lineno, record):
        path = tmp_path / "dup.prof"
        path.write_text("#langenc en UTF-8 9\n" + body)
        with pytest.raises(langid.LoadError) as excinfo:
            langid.load_profile(path)
        assert str(excinfo.value) == "%s:%d: duplicate record %r" % (path, lineno, record)

    def test_duplicate_label_in_directory(self, tmp_path):
        text = "#langenc en UTF-8 9\nB 1 2 3\n"
        for name in ("a.prof", "b.prof"):
            (tmp_path / name).write_text(text)
        (tmp_path / "c.prof").write_text(text.replace(" en ", " ro "))
        with pytest.raises(ConfigError) as excinfo:
            langid.load_profile_dir(tmp_path)
        assert str(excinfo.value) == "profiles %s and %s both have label en/UTF-8" % (
            tmp_path / "a.prof", tmp_path / "b.prof")

    def test_negative_total_bytes(self, tmp_path):
        path = tmp_path / "bad.prof"
        path.write_text("#langenc en UTF-8 -5\nB 1 2 3\n")
        with pytest.raises(langid.LoadError, match=r"bad\.prof:1: negative total_bytes -5"):
            langid.load_profile(path)

    def test_non_utf8_header(self, tmp_path):
        path = tmp_path / "bad.prof"
        path.write_bytes(b"#langenc en UTF-8 9\xe9\nB 1 2 3\n")
        with pytest.raises(langid.LoadError, match=r"bad\.prof:1: "):
            langid.load_profile(path)


# --------------------------------------------------------------------------
# distinct-trigram scoring against the per-position loop it replaced

def reference_score(profile, text):
    tri = profile.trigram_counts
    bi = profile.bigram_counts
    total = 0.0
    for i in range(len(text) - 2):
        b1, b2, b3 = text[i], text[i + 1], text[i + 2]
        t = tri.get((b1, b2, b3), 0)
        b = bi.get((b1, b2), 0)
        total += math.log((t + 1) / (b + 256))
    return total / (len(text) - 2)


# Few symbols, so that texts and profiles share trigrams and bigrams often.
_SYMBOLS = b"ab\x00\xff"
_SYMBOL = st.sampled_from(_SYMBOLS)
_TRIGRAM = st.tuples(_SYMBOL, _SYMBOL, _SYMBOL)
_TEXTS = st.integers(3, 4096).flatmap(lambda n: st.binary(min_size=n, max_size=n)).map(
    lambda raw: bytes(_SYMBOLS[b % len(_SYMBOLS)] for b in raw))


@st.composite
def _trained(draw, label=EN):
    return langid.train_profile(draw(_TEXTS), label)


@st.composite
def _hand_built(draw, label=EN):
    """Random counts, plus one trigram whose bigram is missing and one whose
    log-probability is exactly 0.0 (count + 1 == bigram count + 256)."""
    trigrams = draw(st.dictionaries(_TRIGRAM, st.integers(0, 1000), max_size=30))
    bigrams = draw(st.dictionaries(st.tuples(_SYMBOL, _SYMBOL), st.integers(0, 1000),
                                   max_size=10))
    orphan, exact = draw(st.lists(_TRIGRAM, min_size=2, max_size=2, unique_by=lambda k: k[:2]))
    trigrams[orphan] = draw(st.integers(0, 1000))
    bigrams.pop(orphan[:2], None)
    bigrams[exact[:2]] = b = draw(st.integers(0, 1000))
    trigrams[exact] = b + 255
    return langid.LangEncProfile(label, bigrams, trigrams, 0)


@st.composite
def _text_with(draw, keys):
    """A text that holds each trigram of ``keys`` at a drawn position."""
    text = bytearray(draw(_TEXTS))
    for key in keys:
        at = draw(st.integers(0, len(text)))
        text[at:at] = bytes(key)
    return bytes(text)


class TestScoreAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(profile=_trained(), text=_TEXTS)
    def test_trained_on_random_bytes(self, profile, text):
        assert langid.score_text(profile, text) == pytest.approx(
            reference_score(profile, text), rel=0, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_hand_built(self, data):
        profile = data.draw(_hand_built())
        tri, bi = profile.trigram_counts, profile.bigram_counts
        special = [k for k, t in tri.items()
                   if k[:2] not in bi or t + 1 == bi[k[:2]] + 256]
        text = data.draw(_text_with(special))
        assert langid.score_text(profile, text) == pytest.approx(
            reference_score(profile, text), rel=0, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_identify_ranks_as_reference(self, data):
        labels = corpusgen.labels()
        kinds = st.sampled_from([_trained, _hand_built])
        profiles = [data.draw(kinds.flatmap(lambda kind: kind(label)))
                    for label in labels[:data.draw(st.integers(2, len(labels)))]]
        text = data.draw(_TEXTS)
        want = sorted(profiles, key=lambda p: (-reference_score(p, text), p.label))
        ranked = langid.identify(profiles, text)
        assert [s.label for s in ranked] == [p.label for p in want]
        for s, p in zip(ranked, want):
            assert s.score == pytest.approx(reference_score(p, text), rel=0, abs=1e-9)

    def test_log_tables_built_once_and_bounded(self):
        p = langid.train_profile(corpusgen.generate_bytes(EN, 5000, seed=2), EN)
        tables = p._log_tables
        for label in corpusgen.labels():
            for text in corpusgen.snippets(label, 5, 300, seed=8):
                langid.score_text(p, text)
        assert p._log_tables is tables
        tri_logs, bi_logs = tables
        assert len(tri_logs) <= len(p.trigram_counts)
        assert len(bi_logs) <= len(p.bigram_counts)

    def test_repeated_identify_leaves_module_state_unchanged(self, tmp_path, capsys):
        for label in corpusgen.labels()[:3]:
            langid.save_profile(langid.train_profile(
                corpusgen.generate_bytes(label, 5000, seed=1), label),
                tmp_path / ("%s.prof" % label.language))
        doc = tmp_path / "doc.txt"
        doc.write_bytes(corpusgen.snippets(EN, 1, 500, seed=4)[0])

        def module_state():
            return {name: len(value) for name, value in vars(langid).items()
                    if isinstance(value, (dict, list, set))}

        argv = ["identify", str(doc), "--profiles", str(tmp_path)]
        assert main(argv) == 0
        before = module_state()
        for _ in range(50):
            assert main(argv) == 0
        capsys.readouterr()
        assert module_state() == before


# --------------------------------------------------------------------------
# one trigram count per document, and one counting pass per corpus, against
# the per-profile loop and two-pass trainer they replaced

_ANY_BYTES = st.one_of(st.binary(min_size=3, max_size=2048), _TEXTS)


class TestAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(corpus=_ANY_BYTES)
    def test_train_profile_counts(self, corpus):
        got = langid.train_profile(corpus, EN)
        want = langid_oracle.train_profile(corpus, EN)
        assert got.bigram_counts == want.bigram_counts
        assert got.trigram_counts == want.trigram_counts
        assert got.total_bytes == want.total_bytes

    def test_saved_profile_bytes(self, tmp_path):
        corpus = corpusgen.generate_bytes(HU, 20_000, seed=2)
        langid.save_profile(langid.train_profile(corpus, HU), tmp_path / "got.prof")
        langid.save_profile(langid_oracle.train_profile(corpus, HU), tmp_path / "want.prof")
        assert (tmp_path / "got.prof").read_bytes() == (tmp_path / "want.prof").read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_identify_and_score_text(self, data):
        labels = corpusgen.labels()
        profiles = [langid.train_profile(data.draw(_ANY_BYTES), label)
                    for label in labels[:data.draw(st.integers(1, len(labels)))]]
        text = data.draw(_ANY_BYTES)
        want = langid_oracle.identify(profiles, text)
        got = langid.identify(profiles, text)
        assert [s.label for s in got] == [s.label for s in want]
        for g, w in zip(got, want):
            assert g.score == pytest.approx(w.score, rel=0, abs=1e-12)
        for p in profiles:
            assert langid.score_text(p, text) == pytest.approx(
                langid_oracle.score_text(p, text), rel=0, abs=1e-12)

    def test_corpus_documents(self, corpus_dir):
        profiles = [langid.train_profile(corpusgen.generate_bytes(label, 20_000, seed=1), label)
                    for label in corpusgen.labels()]
        texts = [path.read_bytes() for path in sorted(corpus_dir.glob("*.txt"))]
        assert texts
        for text in texts:
            want = langid_oracle.identify(profiles, text)
            got = langid.identify(profiles, text)
            assert [(s.label, s.score) for s in got] == [(s.label, s.score) for s in want]
