import numpy as np
import pytest

from hullmert import Edge, Hypergraph, MertEstimator
from hullmert.errors import ConfigError
from hullmert.io import loads_corpus
from hullmert.linesearch import build_envelope, decode_loss
from hullmert.metrics import ExactMatch
from hullmert.sampling import random_corpus

CORPUS_TEXT = (
    '{"id": "s1", "nodes": 1, "goal": 0, "edges": ['
    '{"head": 0, "tails": [], "features": {"tm": 1.0}, "yield": ["good"]},'
    '{"head": 0, "tails": [], "features": {"tm": -1.0}, "yield": ["bad"]}],'
    ' "reference": "good"}\n'
    '{"id": "s2", "nodes": 1, "goal": 0, "edges": ['
    '{"head": 0, "tails": [], "features": {"lm": 1.0}, "yield": ["right"]},'
    '{"head": 0, "tails": [], "features": {"lm": -1.0}, "yield": ["wrong"]}],'
    ' "reference": "right"}\n'
)


class TestParams:
    def test_get_params_round_trip(self) -> None:
        est = MertEstimator(metric="bleu", iterations=3)
        params = est.get_params()
        assert params["metric"] == "bleu" and params["iterations"] == 3
        clone = MertEstimator(**params)
        assert clone.get_params() == params

    def test_set_params_returns_self(self) -> None:
        est = MertEstimator()
        assert est.set_params(iterations=5) is est
        assert est.iterations == 5

    def test_set_params_rejects_unknown(self) -> None:
        with pytest.raises(ValueError, match="unknown parameter"):
            MertEstimator().set_params(learning_rate=0.1)

    def test_threads_is_not_a_parameter(self) -> None:
        assert "threads" not in MertEstimator().get_params()
        with pytest.raises(ValueError, match="unknown parameter 'threads'"):
            MertEstimator().set_params(threads=1)

    def test_merge_eps_is_not_a_parameter(self) -> None:
        assert "merge_eps" not in MertEstimator().get_params()
        with pytest.raises(ValueError, match="unknown parameter 'merge_eps'"):
            MertEstimator().set_params(merge_eps=1e-9)
        est = MertEstimator("bleu", 2, {"tm": 1.0})
        assert est.get_params() == {
            "metric": "bleu", "iterations": 2, "initial_weights": {"tm": 1.0}
        }

    def test_sklearn_clone_compatibility(self) -> None:
        sklearn = pytest.importorskip("sklearn.base")
        est = MertEstimator(metric="bleu", iterations=2)
        clone = sklearn.clone(est)
        assert clone.get_params() == est.get_params()


class TestFit:
    def test_fit_on_corpus_improves_loss(self) -> None:
        corpus = loads_corpus(CORPUS_TEXT)
        est = MertEstimator(iterations=3, initial_weights={"tm": -1.0, "lm": -1.0})
        assert est.fit(corpus) is est
        assert est.initial_loss_ == 2.0
        assert est.loss_ == 0.0
        assert est.n_steps_ == 2
        assert est.feature_index_ is corpus.features

    def test_fit_on_raw_pairs(self, rng) -> None:
        pairs = random_corpus(rng, n_sentences=3, n_nodes=5)
        est = MertEstimator(iterations=2).fit(pairs)
        assert est.weights_.shape == (3,)
        assert est.loss_ <= est.initial_loss_
        assert est.feature_index_ is None

    def test_dense_initial_weights_checked(self, rng) -> None:
        pairs = random_corpus(rng, n_sentences=2, n_nodes=4)
        est = MertEstimator(initial_weights=np.zeros(7))
        with pytest.raises(ConfigError, match="entries"):
            est.fit(pairs)

    def test_named_weights_need_a_corpus(self, rng) -> None:
        pairs = random_corpus(rng, n_sentences=2, n_nodes=4)
        est = MertEstimator(initial_weights={"tm": 1.0})
        with pytest.raises(ConfigError, match="feature index"):
            est.fit(pairs)

    def test_invalid_config_surfaces_at_fit(self) -> None:
        corpus = loads_corpus(CORPUS_TEXT)
        with pytest.raises(ConfigError):
            MertEstimator(iterations=-1).fit(corpus)


class TestPredictAndScore:
    def test_unfitted_estimators_refuse(self) -> None:
        corpus = loads_corpus(CORPUS_TEXT)
        with pytest.raises(ValueError, match="not fitted"):
            MertEstimator().predict(corpus)
        with pytest.raises(ValueError, match="not fitted"):
            MertEstimator().score(corpus)

    def test_predict_decodes_fitted_yields(self) -> None:
        corpus = loads_corpus(CORPUS_TEXT)
        est = MertEstimator(iterations=3).fit(corpus)
        assert est.predict(corpus) == [("good",), ("right",)]

    def test_score_is_negated_loss(self) -> None:
        corpus = loads_corpus(CORPUS_TEXT)
        est = MertEstimator(iterations=3).fit(corpus)
        assert est.score(corpus) == -est.loss_ == 0.0

    def test_score_agrees_with_decode(self, rng) -> None:
        pairs = random_corpus(rng, n_sentences=3, n_nodes=5)
        est = MertEstimator(metric="bleu", iterations=1).fit(pairs)
        assert est.score(pairs) == pytest.approx(-est.loss_, abs=1e-12)


class TestDecodeTies:
    """Exact ties at the decode weights go to the first edge in in-edge
    order, in ``decode_loss`` and ``predict`` alike."""

    @staticmethod
    def tied_sentence(ref: str, skip: bool = False) -> tuple[Hypergraph, tuple[str, ...]]:
        if skip:
            # Node 2's in-edges: an arc from node 1, the skip arc from node
            # 0, then a second arc from node 1.  The skip arc and the path
            # through the second arc have equal features, {0: 0.5}.
            g = Hypergraph(
                3,
                [
                    Edge.make(0, (), {}, ("s",)),
                    Edge.make(1, (0,), {}, (0,)),
                    Edge.make(2, (1,), {1: 1.0}, (0, "first")),
                    Edge.make(2, (0,), {0: 0.5}, (0, "skip")),
                    Edge.make(2, (1,), {0: 0.5}, (0, "second")),
                ],
                goal=2,
                n_features=2,
            )
        else:
            # At weights [1, 1] all three word edges score exactly 1.
            g = Hypergraph(
                2,
                [
                    Edge.make(0, (), {}, ("s",)),
                    Edge.make(1, (0,), {0: 1.0}, (0, "first")),
                    Edge.make(1, (0,), {1: 1.0}, (0, "second")),
                    Edge.make(1, (0,), {0: 0.5, 1: 0.5}, (0, "third")),
                ],
                goal=1,
                n_features=2,
            )
        return g, ("s", ref)

    def test_predict_takes_the_first_edge(self) -> None:
        corpus = [self.tied_sentence("third")]
        est = MertEstimator(iterations=0, initial_weights=[1.0, 1.0]).fit(corpus)
        assert est.predict(corpus) == [("s", "first")]

    @pytest.mark.parametrize("ref, loss", [("first", 0.0), ("second", 1.0), ("third", 1.0)])
    def test_decode_loss_takes_the_first_edge(self, ref: str, loss: float) -> None:
        corpus = [self.tied_sentence(ref)]
        assert decode_loss(corpus, np.array([1.0, 1.0]), ExactMatch()) == loss

    @pytest.mark.parametrize("ref, loss", [("skip", 0.0), ("second", 1.0)])
    def test_ties_follow_in_edge_order_across_runs(self, ref: str, loss: float) -> None:
        # The two arcs from node 1 are not adjacent in in-edge order, so the
        # skip arc between them comes first and keeps the tie.
        corpus = [self.tied_sentence(ref, skip=True)]
        w0 = np.array([1.0, -1.0])
        assert decode_loss(corpus, w0, ExactMatch()) == loss
        graph, _ = corpus[0]
        for v in ([1.0, 0.0], [0.0, 0.0]):
            env = build_envelope(graph, w0, np.array(v))
            assert (env.chain[-1].x, env.chain[-1].y) == (v[0] * 0.5, -0.5)
            assert env.derivations[-1].tokens == ("s", "skip")
