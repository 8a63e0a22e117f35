"""Byte n-gram language and character-encoding identification.

A profile holds exact overlapping bigram and trigram byte counts for one
(language, encoding) pair.  Scoring uses an order-2 Markov model with
add-one smoothing over the 256-symbol byte alphabet; language and encoding
are recognised in the same step by ranking all profiles.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter, mul
from pathlib import Path

from .errors import ConfigError, DecodeError, LoadError, ScoringError, TrainingError

# Registry name -> Python codec name.
ENCODING_REGISTRY = {
    "UTF-8": "utf-8",
    "ISO-8859-1": "iso8859-1",
    "ISO-8859-2": "iso8859-2",
    "ISO-8859-3": "iso8859-3",
    "ISO-8859-5": "iso8859-5",
    "ISO-8859-7": "iso8859-7",
    "US-ASCII": "ascii",
}

_ALPHABET = 256
_UNSEEN_BIGRAM = math.log(1 / _ALPHABET)
_BYTE = {str(i): i for i in range(_ALPHABET)}
_PREFIX = itemgetter(slice(2))


@dataclass(frozen=True, order=True)
class LangEncLabel:
    language: str
    encoding: str

    def __post_init__(self):
        if not (
            len(self.language) == 2
            and self.language.isascii()
            and self.language.isalpha()
            and self.language.islower()
        ):
            raise ValueError("language must be a 2-letter lowercase code: %r" % (self.language,))
        if self.encoding not in ENCODING_REGISTRY:
            raise ValueError("unknown encoding %r (registry: %s)"
                             % (self.encoding, ", ".join(sorted(ENCODING_REGISTRY))))

    def __str__(self):
        return "%s/%s" % (self.language, self.encoding)


@dataclass(frozen=True)
class LangEncProfile:
    label: LangEncLabel
    bigram_counts: dict = field(default_factory=dict)
    trigram_counts: dict = field(default_factory=dict)
    total_bytes: int = 0

    @functools.cached_property
    def _log_tables(self):
        bi = self.bigram_counts
        return ({key: math.log((t + 1) / (bi.get(key[:2], 0) + _ALPHABET))
                 for key, t in self.trigram_counts.items()},
                {key: math.log(1 / (b + _ALPHABET)) for key, b in bi.items()})


@dataclass(frozen=True)
class ScoredLabel:
    label: LangEncLabel
    score: float


def train_profile(corpus: bytes, label: LangEncLabel) -> LangEncProfile:
    """Count overlapping byte bigrams and trigrams of ``corpus``."""
    if len(corpus) < 3:
        raise TrainingError("training corpus must hold at least 3 bytes, got %d" % len(corpus))
    trigrams = Counter(zip(corpus, corpus[1:], corpus[2:]))
    # Every bigram but the last starts a trigram.
    bigrams = {}
    for (b1, b2, _), n in trigrams.items():
        bigrams[b1, b2] = bigrams.get((b1, b2), 0) + n
    last = (corpus[-2], corpus[-1])
    bigrams[last] = bigrams.get(last, 0) + 1
    return LangEncProfile(
        label=label,
        bigram_counts=bigrams,
        trigram_counts=dict(trigrams),
        total_bytes=len(corpus),
    )


def _trigrams(text: bytes):
    """``text``'s distinct trigrams, their 2-byte prefixes, their counts and the trigram total."""
    if len(text) < 3:
        raise ScoringError("text must hold at least 3 bytes, got %d" % len(text))
    counts = Counter(zip(text, text[1:], text[2:]))
    keys = list(counts)
    return keys, list(map(_PREFIX, keys)), list(counts.values()), len(text) - 2


def _score(profile: LangEncProfile, keys, prefixes, counts, n) -> float:
    tri_logs, bi_logs = profile._log_tables
    return sum(map(mul, counts, map(tri_logs.get, keys,
                                    map(bi_logs.get, prefixes, repeat(_UNSEEN_BIGRAM))))) / n


def score_text(profile: LangEncProfile, text: bytes) -> float:
    """Mean log-probability per byte of ``text`` under the profile.

    Each distinct trigram (b1, b2, b3) of ``text`` adds its count times
    ln((trigram_count + 1) / (bigram_count + 256)), read from tables the
    profile builds on first use (per trained trigram, else per bigram, else
    ln(1/256)); the sum is divided by the number of trigrams.  Always finite and <= 0.
    """
    return _score(profile, *_trigrams(text))


def identify(profiles, text: bytes):
    """Rank all profiles against ``text``; best match first.

    The text's trigrams are counted once and every profile is scored from
    that count, as :func:`score_text` would score it.  Ties on score break
    by lexicographic label order.
    """
    profiles = list(profiles)
    if not profiles:
        raise ConfigError("identify needs at least one profile")
    trigrams = _trigrams(text)
    scored = [ScoredLabel(p.label, _score(p, *trigrams)) for p in profiles]
    scored.sort(key=lambda s: (-s.score, s.label))
    return scored


def decode_to_utf8(text: bytes, encoding: str) -> str:
    """Decode ``text`` under a registry encoding to a Unicode string."""
    if encoding not in ENCODING_REGISTRY:
        raise ConfigError("unknown encoding %r" % (encoding,))
    codec = ENCODING_REGISTRY[encoding]
    try:
        return text.decode(codec)
    except UnicodeDecodeError as exc:
        raise DecodeError(
            "invalid byte for %s at offset %d" % (encoding, exc.start),
            offset=exc.start,
        ) from exc


def save_profile(profile: LangEncProfile, path) -> None:
    """Write a profile in the line-oriented text format.

    Header ``#langenc <lang> <encoding> <total_bytes>``, then one record
    per line: ``B b1 b2 count`` / ``T b1 b2 b3 count``.  Bytes are plain
    decimals from 0 to 255 and counts are integers >= 0; the file is UTF-8.
    """
    lines = ["#langenc %s %s %d" % (profile.label.language, profile.label.encoding,
                                    profile.total_bytes)]
    for (b1, b2), n in sorted(profile.bigram_counts.items()):
        lines.append("B %d %d %d" % (b1, b2, n))
    for (b1, b2, b3), n in sorted(profile.trigram_counts.items()):
        lines.append("T %d %d %d %d" % (b1, b2, b3, n))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_profile(path) -> LangEncProfile:
    """Read a :func:`save_profile` file; LoadError names the first line breaking its rules."""
    path = Path(path)
    # An undecodable byte becomes a lone surrogate, which no field accepts.
    try:
        lines = path.read_text(encoding="utf-8", errors="surrogateescape").splitlines()
    except OSError as exc:
        raise LoadError("cannot read profile %s: %s" % (path, exc)) from exc
    header = lines[0].split() if lines else []
    try:
        if len(header) != 4 or header[0] != "#langenc":
            raise ValueError("missing or malformed #langenc header")
        label = LangEncLabel(header[1], header[2])
        total = int(header[3])
        if total < 0:
            raise ValueError("negative total_bytes %d" % total)
    except ValueError as exc:
        raise LoadError("%s:1: %s" % (path, exc)) from exc
    bigrams, trigrams = {}, {}
    blank = 0
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split()
        if not fields:
            blank += 1
            continue
        try:
            if len(fields) == 5 and fields[0] == "T":
                _, b1, b2, b3, n = fields
                trigrams[_BYTE[b1], _BYTE[b2], _BYTE[b3]] = n = int(n)
            elif len(fields) == 4 and fields[0] == "B":
                _, b1, b2, n = fields
                bigrams[_BYTE[b1], _BYTE[b2]] = n = int(n)
            else:
                raise ValueError("bad record")
            if n < 0:
                raise ValueError("negative count")
        except (KeyError, ValueError) as exc:
            raise LoadError("%s:%d: malformed record %r" % (path, lineno, line)) from exc
    if len(bigrams) + len(trigrams) != len(lines) - 1 - blank:
        _raise_duplicate(path, lines)
    return LangEncProfile(label=label, bigram_counts=bigrams,
                          trigram_counts=trigrams, total_bytes=total)


def _raise_duplicate(path, lines):
    """Raise a LoadError naming the first record whose bytes an earlier record had.

    Only called when a profile holds fewer keys than records, so a clean load
    pays one comparison for the check.
    """
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        key = tuple(line.split()[1:-1])
        if key in seen:
            raise LoadError("%s:%d: duplicate record %r" % (path, lineno, line))
        if key:
            seen.add(key)


def load_profile_dir(directory):
    """Load every ``*.prof`` file under ``directory``; no two may share a label."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigError("profile directory %s does not exist" % directory)
    paths = sorted(directory.glob("*.prof"))
    if not paths:
        raise ConfigError("no *.prof files in %s" % directory)
    profiles = [load_profile(p) for p in paths]
    first = {}
    for p, profile in zip(paths, profiles):
        other = first.setdefault(profile.label, p)
        if other is not p:
            raise ConfigError("profiles %s and %s both have label %s"
                              % (other, p, profile.label))
    return profiles
