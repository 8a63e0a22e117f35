"""The scoring loop, trainer and writer that ``langid.identify``,
``langid.train_profile`` and ``langid.save_profile`` replaced, kept as the
reference the tests compare them against.

Here every profile counts the text's trigrams again and walks them one at a
time, computing each log-probability from the profile's counts rather than
reading the tables the profile builds; training counts bigrams and trigrams
in two separate passes; and saving sorts each table's (key, count) pairs.
"""

import math
from collections import Counter
from pathlib import Path

from placetime.errors import ScoringError, TrainingError
from placetime.langid import _UNSEEN_BIGRAM, LangEncProfile, ScoredLabel


def train_profile(corpus, label):
    if len(corpus) < 3:
        raise TrainingError("training corpus must hold at least 3 bytes, got %d" % len(corpus))
    bigrams = Counter(zip(corpus, corpus[1:]))
    trigrams = Counter(zip(corpus, corpus[1:], corpus[2:]))
    return LangEncProfile(label=label, bigram_counts=dict(bigrams),
                          trigram_counts=dict(trigrams), total_bytes=len(corpus))


def save_profile(profile, path):
    lines = ["#langenc %s %s %d" % (profile.label.language, profile.label.encoding,
                                    profile.total_bytes)]
    for (b1, b2), n in sorted(profile.bigram_counts.items()):
        lines.append("B %d %d %d" % (b1, b2, n))
    for (b1, b2, b3), n in sorted(profile.trigram_counts.items()):
        lines.append("T %d %d %d %d" % (b1, b2, b3, n))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def score_text(profile, text):
    if len(text) < 3:
        raise ScoringError("text must hold at least 3 bytes, got %d" % len(text))
    trigrams, bigrams = profile.trigram_counts, profile.bigram_counts
    terms = []
    for key, n in Counter(zip(text, text[1:], text[2:])).items():
        t, b = trigrams.get(key), bigrams.get(key[:2])
        if t is not None:
            logp = math.log((t + 1) / ((b or 0) + 256))
        elif b is not None:
            logp = math.log(1 / (b + 256))
        else:
            logp = _UNSEEN_BIGRAM
        terms.append(n * logp)
    # sum(), as langid sums them: from Python 3.12 on it rounds differently from +=.
    return sum(terms) / (len(text) - 2)


def identify(profiles, text):
    scored = [ScoredLabel(p.label, score_text(p, text)) for p in profiles]
    scored.sort(key=lambda s: (-s.score, s.label))
    return scored
