"""Corpus losses driven by additive sufficient statistics.

Each metric maps a (hypothesis, reference) token pair to a fixed-length
vector of sufficient statistics; vectors add over sentences, and the
corpus loss is a function of the aggregate alone.  Additivity is what lets
per-sentence error surfaces merge into an exact corpus surface: every
interval stores a statistics vector, never a loss.  ``stats`` defines a
metric one pair at a time; ``stats_many`` scores a batch of pairs and
must return exactly the rows ``stats`` would.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import repeat
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
    """Loss = f(sum of per-sentence statistics vectors).

    A subclass defines ``stats``, ``loss`` and ``n_stats``.  The library
    scores every yield through ``stats_many`` (a search, a sweep, a decode
    and ``sentence_surface`` alike), which by default stacks ``stats``; a
    subclass that overrides ``stats_many`` (as ``Bleu`` does) must keep
    every row equal to ``stats``, and one that changes ``stats`` must
    override ``stats_many`` to match.
    """

    name: str = ""
    n_stats: int = 0

    def stats(self, hyp: Tokens, ref: Tokens) -> np.ndarray:
        """The statistics vector of one hypothesis against its reference.

        Must be a pure function of ``(hyp, ref)``: a line search, sweep,
        decode or optimize call scores each distinct yield of a sentence
        once, through ``stats_many``, and shares its row, which it marks
        read-only.
        """
        raise NotImplementedError

    def stats_many(self, hyps: Sequence[Tokens], refs: Sequence[Tokens]) -> np.ndarray:
        """A ``(len(hyps), n_stats)`` array whose row i equals
        ``stats(hyps[i], refs[i])`` bit for bit.

        The same purity contract as ``stats`` holds; the line search marks
        the returned array read-only and shares its rows.
        """
        rows = [self.stats(hyp, ref) for hyp, ref in zip(hyps, refs)]
        return np.stack(rows) if rows else np.zeros((0, self.n_stats))

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


def _extend(at: np.ndarray, gram: np.ndarray, tok: np.ndarray, n: int, size: int):
    """Start positions and keys of the order-n n-grams that extend the
    order-(n-1) n-grams starting at ``at`` (with indices ``gram``) by a
    token in the vocabulary."""
    last = tok[at + n - 1]
    keep = last >= 0
    return at[keep], gram[keep] * size + last[keep]


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``keys`` in increasing order, and how often
    each occurs."""
    keys = np.sort(keys)
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    counts = np.empty_like(starts)
    counts[:-1] = starts[1:] - starts[:-1]
    counts[-1:] = len(keys) - starts[-1:]
    return keys[starts], counts


class Bleu(Metric):
    """1 - corpus BLEU against a single reference.

    Statistics layout: clipped n-gram matches for orders 1..max_n, then
    hypothesis n-gram totals for the same orders, then hypothesis and
    reference lengths.  Counts are floored at EPS_COUNT on both sides of
    each precision ratio, so a short corpus that matches everything it
    emits still scores a loss of exactly 0.

    ``stats`` is the definition, one pair at a time with ``Counter``;
    ``stats_many`` computes the same rows for a batch in one numpy pass.
    A subclass that changes ``stats`` must override ``stats_many`` too.
    """

    name = "bleu"

    def __init__(self, max_n: int = 4):
        if max_n < 1:
            raise ConfigError(f"bleu needs max_n >= 1, got {max_n}")
        self.max_n = max_n
        self.n_stats = 2 * max_n + 2

    def stats(self, hyp: Tokens, ref: Tokens) -> np.ndarray:
        out = np.zeros(self.n_stats)
        for n in range(1, self.max_n + 1):
            ref_counts = _ngram_counts(ref, n)
            matched = 0
            for gram, count in _ngram_counts(hyp, n).items():
                matched += min(count, ref_counts[gram])
            out[n - 1] = matched
            out[self.max_n + n - 1] = max(len(hyp) - n + 1, 0)
        out[-2] = len(hyp)
        out[-1] = len(ref)
        return out

    def stats_many(self, hyps: Sequence[Tokens], refs: Sequence[Tokens]) -> np.ndarray:
        """``stats`` of every pair, in one numpy pass over all their tokens.

        Each reference gets its own vocabulary, numbered on from the
        previous one's (a run of pairs that share one reference object
        shares it), and each token becomes its id in its own reference's
        vocabulary, or -1 when that reference lacks it; -1 also ends every
        sequence, so no n-gram spans two.  Order by order, only n-grams
        that a reference holds are kept: an order-n n-gram whose
        order-(n-1) prefix is kept gets the key ``(index of the prefix
        among the sorted order-(n-1) reference keys) * G + id of its last
        token``, G being the number of ids, and is kept when the sorted
        order-n reference keys hold it.  Both factors are below the total
        number T of reference tokens, so every key is below T**2 and int64
        cannot overflow; the (hypothesis, n-gram) keys that count the kept
        n-grams are below ``len(hyps) * T``.  Counts are clipped per
        hypothesis by the reference's count; all counts are integers held
        in float64, so every sum is exact and row i equals
        ``stats(hyps[i], refs[i])`` bit for bit.
        """
        ref_ids: list[int] = []
        hyp_ids: list[int] = []
        hyp_len: list[int] = []
        ref_len: list[int] = []
        vocab: dict = {}
        size = 0
        last = None
        for hyp, ref in zip(hyps, refs):
            if ref is not last:
                last = ref
                vocab = {}
                ref_ids += [vocab.setdefault(t, size + len(vocab)) for t in ref]
                ref_ids.append(-1)
                size += len(vocab)
            get = vocab.get
            hyp_ids += map(get, hyp, repeat(-1))
            hyp_ids.append(-1)
            hyp_len.append(len(hyp))
            ref_len.append(len(ref))
        n_hyps = len(hyp_len)
        out = np.zeros((n_hyps, self.n_stats))
        lengths = np.array(hyp_len, dtype=np.int64)
        out[:, self.max_n : 2 * self.max_n] = np.maximum(
            lengths[:, None] - np.arange(self.max_n), 0
        )
        out[:, -2] = lengths
        out[:, -1] = ref_len
        owner = np.repeat(np.arange(n_hyps, dtype=np.int64), lengths + 1)
        ref_tok = np.array(ref_ids, dtype=np.int64)
        hyp_tok = np.array(hyp_ids, dtype=np.int64)
        # Each order keeps only the n-grams a reference holds: their start
        # positions and their indices among the sorted reference keys.  At
        # order 1 every id is a reference unigram, so the id is its index.
        ref_at = np.flatnonzero(ref_tok >= 0)
        hyp_at = np.flatnonzero(hyp_tok >= 0)
        ref_gram, hyp_gram = ref_tok[ref_at], hyp_tok[hyp_at]
        ref_counts = np.bincount(ref_gram, minlength=size)
        for n in range(1, self.max_n + 1):
            if n > 1:
                ref_at, keys = _extend(ref_at, ref_gram, ref_tok, n, size)
                table, ref_counts = _runs(keys)
                ref_gram = np.searchsorted(table, keys)
                hyp_at, keys = _extend(hyp_at, hyp_gram, hyp_tok, n, size)
                at = np.searchsorted(table, keys)
                # -1 matches no key, and an empty table still has an entry.
                held = np.append(table, -1)[at] == keys
                hyp_at, hyp_gram = hyp_at[held], at[held]
            if not len(hyp_at):
                break  # no higher order can match either
            pairs, counts = _runs(owner[hyp_at] * len(ref_counts) + hyp_gram)
            clipped = np.minimum(counts, ref_counts[pairs % len(ref_counts)])
            out[:, n - 1] = np.bincount(
                pairs // len(ref_counts), weights=clipped, minlength=n_hyps
            )
        return out

    def loss(self, aggregate: np.ndarray) -> float:
        # Summed left to right: sum() compensates its rounding since Python
        # 3.12.  A conditional floors a count as max(count, EPS_COUNT) would,
        # NaN included, without the builtin's call.
        stats = aggregate.tolist()
        max_n = self.max_n
        log_precision = 0.0
        for n in range(max_n):
            m, t = stats[n], stats[max_n + n]
            log_precision += math.log(
                (EPS_COUNT if EPS_COUNT > m else m) / (EPS_COUNT if EPS_COUNT > t else t)
            )
        log_precision /= max_n
        hyp_len = stats[-2]
        brevity = 1.0 - stats[-1] / (EPS_COUNT if EPS_COUNT > hyp_len else hyp_len)
        return 1.0 - math.exp((brevity if brevity < 0.0 else 0.0) + log_precision)


_METRICS = {ExactMatch.name: ExactMatch, Bleu.name: Bleu}


def get_metric(name: str) -> Metric:
    try:
        return _METRICS[name]()
    except KeyError:
        known = ", ".join(sorted(_METRICS))
        raise ConfigError(f"unknown metric {name!r}; expected one of: {known}") from None
