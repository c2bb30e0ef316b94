"""Estimator facade: fit/predict/score over the exact line search trainer.

Follows the scikit-learn estimator protocol by duck typing (get_params,
set_params, fit, predict, score; fitted attributes carry a trailing
underscore) without importing scikit-learn.  ``fit`` tunes weights by
coordinate-descent line search, ``predict`` decodes yields at the fitted
weights, ``score`` returns the negated corpus loss so larger is better.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError
from .forest import Hypergraph
from .io import Corpus, FeatureIndex
from .linesearch import _decode, decode_loss, optimize
from .metrics import get_metric

Pairs = Sequence[tuple[Hypergraph, Sequence[str]]]

_PARAM_NAMES = ("metric", "iterations", "initial_weights")


class MertEstimator:
    """Minimum-error trainer for weighted forests with a familiar API.

    Parameters mirror the search knobs: ``metric`` ("exact" or "bleu"),
    ``iterations`` (outer sweeps over coordinate axes), and
    ``initial_weights`` (a {feature: value} mapping, a dense vector, or
    None for zeros).  As in ``optimize``, ``linesearch.pick_eta`` fixes
    where an accepted step lands inside its interval.
    """

    def __init__(
        self,
        metric: str = "exact",
        iterations: int = 1,
        initial_weights: Mapping[str, float] | Sequence[float] | None = None,
    ):
        self.metric = metric
        self.iterations = iterations
        self.initial_weights = initial_weights

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in _PARAM_NAMES}

    def set_params(self, **params) -> "MertEstimator":
        for name, value in params.items():
            if name not in _PARAM_NAMES:
                raise ValueError(f"unknown parameter {name!r} for MertEstimator")
            setattr(self, name, value)
        return self

    def _materialize(self, X: Corpus | Pairs) -> tuple[Pairs, FeatureIndex | None, int]:
        if isinstance(X, Corpus):
            return X.pairs(), X.features, len(X.features)
        pairs = list(X)
        dim = max((g.n_features for g, _ in pairs), default=0)
        return pairs, None, dim

    def _initial_vector(self, index: FeatureIndex | None, dim: int) -> np.ndarray:
        w = self.initial_weights
        if w is None:
            return np.zeros(dim)
        if isinstance(w, Mapping):
            if index is None:
                raise ConfigError(
                    "named initial_weights need a Corpus input with a feature index"
                )
            return index.vectorize(w, "initial_weights")
        vec = np.asarray(w, dtype=float)
        if vec.shape != (dim,):
            raise ConfigError(f"initial_weights must have {dim} entries, got {vec.shape}")
        return vec

    def fit(self, X: Corpus | Pairs, y=None) -> "MertEstimator":
        """Tune weights on the corpus; references travel with the forests."""
        pairs, index, dim = self._materialize(X)
        metric = get_metric(self.metric)
        w0 = self._initial_vector(index, dim)
        result = optimize(pairs, w0, metric, iterations=self.iterations)
        self.weights_ = result.weights
        self.loss_ = result.loss
        self.initial_loss_ = result.initial_loss
        self.n_steps_ = len(result.steps)
        self.feature_index_ = index
        return self

    def _check_fitted(self) -> None:
        if not hasattr(self, "weights_"):
            raise ValueError("this MertEstimator is not fitted yet; call fit first")

    def predict(self, X: Corpus | Pairs) -> list[tuple[str, ...]]:
        """Decode each sentence's best yield at the fitted weights."""
        self._check_fitted()
        pairs, _, _ = self._materialize(X)
        return _decode(pairs, self.weights_)

    def score(self, X: Corpus | Pairs, y=None) -> float:
        """Negated corpus loss at the fitted weights (larger is better)."""
        self._check_fitted()
        pairs, _, _ = self._materialize(X)
        return -decode_loss(pairs, self.weights_, get_metric(self.metric))
