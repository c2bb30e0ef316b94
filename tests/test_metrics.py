import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullmert.errors import ConfigError
from hullmert.metrics import Bleu, ExactMatch, get_metric, tokenize

token_lists = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=8).map(tuple)
# "z" is in no reference.
hypothesis_lists = st.lists(st.sampled_from(["a", "b", "c", "d", "z"]), max_size=10).map(tuple)


@st.composite
def batches(draw) -> tuple[list, list]:
    """Hypotheses paired with a few reference objects, each shared by any
    number of them, in any order; empty sequences and ones shorter than
    the n-gram order come up often."""
    refs = draw(st.lists(token_lists, min_size=1, max_size=3))
    pairs = draw(
        st.lists(st.tuples(hypothesis_lists, st.integers(0, len(refs) - 1)), max_size=8)
    )
    return [hyp for hyp, _ in pairs], [refs[i] for _, i in pairs]


def assert_rows_equal_stats(metric, hyps, refs) -> None:
    got = metric.stats_many(hyps, refs)
    assert got.shape == (len(hyps), metric.n_stats)
    assert got.tobytes() == b"".join(metric.stats(h, r).tobytes() for h, r in zip(hyps, refs))


def reference_corpus_bleu(pairs: list[tuple[tuple[str, ...], tuple[str, ...]]]) -> float:
    """Independent corpus BLEU written straight from its definition."""
    eps = 1e-9
    log_p = 0.0
    for n in range(1, 5):
        matched = total = 0
        for hyp, ref in pairs:
            hyp_grams = Counter(tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1))
            ref_grams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
            matched += sum(min(c, ref_grams[g]) for g, c in hyp_grams.items())
            total += max(len(hyp) - n + 1, 0)
        log_p += math.log(max(matched, eps) / max(total, eps))
    hyp_len = sum(len(h) for h, _ in pairs)
    ref_len = sum(len(r) for _, r in pairs)
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / max(hyp_len, eps))
    return bp * math.exp(log_p / 4.0)


class TestTokenize:
    def test_splits_on_any_whitespace(self) -> None:
        assert tokenize("a  b\tc\n") == ("a", "b", "c")
        assert tokenize("") == ()


class TestExactMatch:
    def test_match_and_mismatch(self) -> None:
        m = ExactMatch()
        assert m.stats(("a", "b"), ("a", "b")).tolist() == [0.0]
        assert m.stats(("a", "b"), ("a", "c")).tolist() == [1.0]
        assert m.stats((), ()).tolist() == [0.0]

    def test_corpus_loss_counts_mismatches(self) -> None:
        m = ExactMatch()
        agg = m.zero_stats()
        for hyp, ref in [(("a",), ("a",)), (("b",), ("a",)), (("c",), ("a",))]:
            agg += m.stats(hyp, ref)
        assert m.loss(agg) == 2.0


class TestBleuStats:
    def test_identical_bigram_sentence(self) -> None:
        got = Bleu().stats(("a", "b"), ("a", "b"))
        assert got.tolist() == [2, 1, 0, 0, 2, 1, 0, 0, 2, 2]

    def test_clipping_against_the_reference(self) -> None:
        got = Bleu().stats(("a", "a"), ("a",))
        assert got.tolist() == [1, 0, 0, 0, 2, 1, 0, 0, 2, 1]

    def test_empty_hypothesis(self) -> None:
        got = Bleu().stats((), ("a",))
        assert got.tolist() == [0, 0, 0, 0, 0, 0, 0, 0, 0, 1]

    @given(token_lists, token_lists)
    def test_stats_are_non_negative_and_bounded(self, hyp, ref) -> None:
        got = Bleu().stats(hyp, ref)
        assert (got >= 0).all()
        for n in range(1, 5):
            assert got[n - 1] <= got[4 + n - 1]  # matches never exceed totals

    @given(st.lists(st.tuples(token_lists, token_lists), max_size=5))
    def test_additivity_over_concatenation(self, pairs) -> None:
        m = Bleu()
        total = m.zero_stats()
        for hyp, ref in pairs:
            total += m.stats(hyp, ref)
        assert total.tolist() == sum(
            (m.stats(h, r) for h, r in pairs), m.zero_stats()
        ).tolist()


class TestStatsMany:
    @settings(max_examples=300)
    @given(st.integers(1, 6), batches())
    def test_bleu_rows_equal_stacked_stats(self, max_n, batch) -> None:
        assert_rows_equal_stats(Bleu(max_n), *batch)

    @given(batches())
    def test_exact_match_rows_equal_stacked_stats(self, batch) -> None:
        assert_rows_equal_stats(ExactMatch(), *batch)

    @pytest.mark.parametrize("metric", [ExactMatch()] + [Bleu(n) for n in range(1, 7)])
    def test_no_hypotheses_give_no_rows(self, metric) -> None:
        assert metric.stats_many([], []).shape == (0, metric.n_stats)

    def test_one_reference_shared_by_many_hypotheses(self) -> None:
        ref = tokenize("a b a c")
        hyps = [tokenize(t) for t in ["a a a", "a b a c", "", "z a b", "c a b a c"]]
        assert_rows_equal_stats(Bleu(), hyps, [ref] * len(hyps))


class TestBleuLoss:
    def test_perfect_corpus_scores_zero(self) -> None:
        m = Bleu()
        pairs = [(("a", "b", "c", "d"), ("a", "b", "c", "d"))] * 3
        agg = sum((m.stats(h, r) for h, r in pairs), m.zero_stats())
        assert m.loss(agg) == pytest.approx(0.0, abs=1e-9)

    def test_zero_matches_saturate_near_one(self) -> None:
        m = Bleu()
        agg = m.stats(("x", "y", "z"), ("a", "b", "c"))
        assert m.loss(agg) == pytest.approx(1.0, abs=1e-6)

    def test_matches_an_independent_corpus_computation(self) -> None:
        m = Bleu()
        pairs = [
            (tokenize("the cat sat"), tokenize("the cat sat on the mat")),
            (tokenize("a b c d"), tokenize("a b x d")),
        ]
        agg = sum((m.stats(h, r) for h, r in pairs), m.zero_stats())
        assert m.loss(agg) == pytest.approx(1.0 - reference_corpus_bleu(pairs), abs=1e-9)

    def test_extra_match_never_hurts(self) -> None:
        m = Bleu()
        base = np.array([3.0, 2.0, 1.0, 0.0, 6.0, 5.0, 4.0, 3.0, 6.0, 6.0])
        for i in range(4):
            better = base.copy()
            better[i] += 1.0
            assert m.loss(better) <= m.loss(base)

    def test_loss_stays_in_unit_interval(self, rng) -> None:
        m = Bleu()
        for _ in range(200):
            totals = rng.integers(0, 20, size=4)
            matches = np.minimum(rng.integers(0, 20, size=4), totals)
            hyp_len, ref_len = rng.integers(0, 30, size=2)
            agg = np.concatenate([matches, totals, [hyp_len, ref_len]]).astype(float)
            assert 0.0 <= m.loss(agg) <= 1.0 + 1e-12

    def test_max_n_validated(self) -> None:
        with pytest.raises(ConfigError):
            Bleu(max_n=0)


class TestRegistry:
    def test_lookup(self) -> None:
        assert isinstance(get_metric("exact"), ExactMatch)
        assert isinstance(get_metric("bleu"), Bleu)

    def test_unknown_name(self) -> None:
        with pytest.raises(ConfigError):
            get_metric("meteor")
