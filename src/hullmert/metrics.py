"""Corpus losses driven by additive sufficient statistics.

Each metric maps a (hypothesis, reference) token pair to a fixed-length
vector of sufficient statistics; vectors add over sentences, and the
corpus loss is a function of the aggregate alone.  Additivity is what lets
per-sentence error surfaces merge into an exact corpus surface: every
interval stores a statistics vector, never a loss.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConfigError

# Floors bare counts before ratios and divisions so empty hypotheses and
# unseen n-gram orders stay finite.
EPS_COUNT = 1e-9

Tokens = Sequence[str]


def tokenize(text: str) -> tuple[str, ...]:
    """Whitespace tokenization; the only segmentation used anywhere."""
    return tuple(text.split())


class Metric:
    """Loss = f(sum of per-sentence statistics vectors)."""

    name: str = ""
    n_stats: int = 0

    def stats(self, hyp: Tokens, ref: Tokens) -> np.ndarray:
        raise NotImplementedError

    def loss(self, aggregate: np.ndarray) -> float:
        raise NotImplementedError

    def zero_stats(self) -> np.ndarray:
        return np.zeros(self.n_stats)


class ExactMatch(Metric):
    """Number of sentences whose yield differs from the reference.

    The single statistic is a mismatch indicator and the scalarizer is the
    identity, so the corpus loss counts wrong sentences.
    """

    name = "exact"
    n_stats = 1

    def stats(self, hyp: Tokens, ref: Tokens) -> np.ndarray:
        return np.array([0.0 if tuple(hyp) == tuple(ref) else 1.0])

    def loss(self, aggregate: np.ndarray) -> float:
        return float(aggregate[0])


def _ngram_counts(tokens: Tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


@lru_cache(maxsize=1024)
def _reference_counts(ref: tuple[str, ...], max_n: int) -> tuple[Counter, ...]:
    """N-gram counts of a reference for orders 1..max_n.

    A line search scores every envelope hypothesis of a sentence against
    the same reference, so the counts are built once per reference.  The
    Counters are shared: callers only read them.
    """
    return tuple(_ngram_counts(ref, n) for n in range(1, max_n + 1))


class Bleu(Metric):
    """1 - corpus BLEU against a single reference.

    Statistics layout: clipped n-gram matches for orders 1..max_n, then
    hypothesis n-gram totals for the same orders, then hypothesis and
    reference lengths.  Counts are floored at EPS_COUNT on both sides of
    each precision ratio, so a short corpus that matches everything it
    emits still scores a loss of exactly 0.
    """

    name = "bleu"

    def __init__(self, max_n: int = 4):
        if max_n < 1:
            raise ConfigError(f"bleu needs max_n >= 1, got {max_n}")
        self.max_n = max_n
        self.n_stats = 2 * max_n + 2

    def stats(self, hyp: Tokens, ref: Tokens) -> np.ndarray:
        out = np.zeros(self.n_stats)
        for n, ref_counts in enumerate(_reference_counts(tuple(ref), self.max_n), 1):
            matched = 0
            for gram, count in _ngram_counts(hyp, n).items():
                matched += min(count, ref_counts[gram])
            out[n - 1] = matched
            out[self.max_n + n - 1] = max(len(hyp) - n + 1, 0)
        out[-2] = len(hyp)
        out[-1] = len(ref)
        return out

    def loss(self, aggregate: np.ndarray) -> float:
        matches = aggregate[: self.max_n]
        totals = aggregate[self.max_n : 2 * self.max_n]
        hyp_len = float(aggregate[-2])
        ref_len = float(aggregate[-1])
        log_precision = sum(
            math.log(max(float(m), EPS_COUNT) / max(float(t), EPS_COUNT))
            for m, t in zip(matches, totals)
        ) / self.max_n
        brevity = min(0.0, 1.0 - ref_len / max(hyp_len, EPS_COUNT))
        return 1.0 - math.exp(brevity + log_precision)


_METRICS = {ExactMatch.name: ExactMatch, Bleu.name: Bleu}


def get_metric(name: str) -> Metric:
    try:
        return _METRICS[name]()
    except KeyError:
        known = ", ".join(sorted(_METRICS))
        raise ConfigError(f"unknown metric {name!r}; expected one of: {known}") from None
