"""The scoring loop and trainer that ``langid.identify`` and ``langid.train_profile``
replaced, kept as the reference the tests compare them against.

Here every profile counts the text's trigrams again and walks them one at a
time, and training counts bigrams and trigrams in two separate passes.
"""

from collections import Counter

from placetime.errors import ScoringError, TrainingError
from placetime.langid import _UNSEEN_BIGRAM, LangEncProfile, ScoredLabel


def train_profile(corpus, label):
    if len(corpus) < 3:
        raise TrainingError("training corpus must hold at least 3 bytes, got %d" % len(corpus))
    bigrams = Counter(zip(corpus, corpus[1:]))
    trigrams = Counter(zip(corpus, corpus[1:], corpus[2:]))
    return LangEncProfile(label=label, bigram_counts=dict(bigrams),
                          trigram_counts=dict(trigrams), total_bytes=len(corpus))


def score_text(profile, text):
    if len(text) < 3:
        raise ScoringError("text must hold at least 3 bytes, got %d" % len(text))
    tri_logs, bi_logs = profile._log_tables
    total = 0.0
    for key, n in Counter(zip(text, text[1:], text[2:])).items():
        logp = tri_logs.get(key)
        if logp is None:
            logp = bi_logs.get(key[:2], _UNSEEN_BIGRAM)
        total += n * logp
    return total / (len(text) - 2)


def identify(profiles, text):
    scored = [ScoredLabel(p.label, score_text(p, text)) for p in profiles]
    scored.sort(key=lambda s: (-s.score, s.label))
    return scored
