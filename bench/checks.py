"""Output checks against ``hullmert.oracle``, run outside timed regions.

Each check raises ``CheckFailed`` with a reason.  The first result of an
operation gets the oracle checks; repeats of the same call must return a
result with the same signature, since every operation is deterministic.
Duality is checked on a few sentences of the first batch only: it costs
one max-plus inside pass per envelope segment.

Losses are compared with a max-plus re-decode.  With integer features two
derivations with different yields can share a dual point, so they tie at
every eta and the library and the oracle may each pick a different one.
Where the library's derivation scores within the oracle's relative
tolerance of the oracle's best, the re-decode keeps the library's pick;
the loss must then match exactly, and the number of such ties is reported.
"""

from __future__ import annotations

import json

import numpy as np

from hullmert import build_envelope, line_search as library_line_search, oracle, realize

DUALITY_SENTENCES = 2
GRID_PROBES = (0, 500, 1000, 1500, 2000)
INSIDE_TOL = 1e-6


class CheckFailed(Exception):
    pass


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


class Ties:
    """How many sentences a re-decode resolved as a tie with the library."""

    def __init__(self):
        self.count = 0


def redecode(pairs, weights, metric, chosen, ties: Ties) -> float:
    """Corpus loss of the max-plus argmax at ``weights``, keeping the
    library's derivation (from ``chosen``) wherever it ties the argmax."""
    weights = np.asarray(weights, dtype=float)
    total = metric.zero_stats()
    for (graph, ref), mine in zip(pairs, chosen):
        best, tree = oracle.viterbi_derivation(graph, weights)
        tokens = realize(graph, tree).tokens
        if tokens != mine.tokens:
            mine_score = oracle.score(mine, weights)
            if abs(mine_score - best) <= oracle.DEFAULT_REL_TOL * max(1.0, abs(best)):
                ties.count += 1
                tokens = mine.tokens
        total += metric.stats(tokens, ref)
    return metric.loss(total)


def at_eta(envelopes, eta: float) -> list:
    """The library's derivation per sentence at ``eta`` along a search line."""
    return [env.derivations[env.segment_at(eta)] for env in envelopes]


def decoded(pairs, weights) -> list:
    """The library's fixed-weight decode: the hull inside pass with v = 0."""
    zero = np.zeros_like(np.asarray(weights, dtype=float))
    out = []
    for graph, _ in pairs:
        env = build_envelope(graph, weights, zero)
        out.append(env.derivations[env.segment_at(0.0)])
    return out


def line_search(pairs, w0, v, metric, result, duality: bool, ties: Ties) -> None:
    require(result.loss == min(result.interval_losses),
            f"line_search loss {result.loss!r} is not its lowest interval loss")
    expected = redecode(pairs, result.weights, metric, at_eta(result.envelopes, result.eta), ties)
    require(result.loss == expected,
            f"line_search loss {result.loss!r} != oracle decode {expected!r}")
    for graph, _ in pairs[:DUALITY_SENTENCES if duality else 0]:
        report = oracle.duality_report(graph, w0, v)
        require(report.ok, f"duality report failed: score err {report.max_score_err}, "
                           f"point err {report.max_point_err}")


def optimize(pairs, metric, result, ties: Ties) -> None:
    if result.steps:
        # The last accepted step's line search, seen from the final weights:
        # they lie strictly inside its chosen interval, at eta = 0.
        axis = np.eye(len(result.weights))[result.steps[-1].axis]
        chosen = at_eta(library_line_search(pairs, result.weights, axis, metric).envelopes, 0.0)
    else:
        chosen = decoded(pairs, result.weights)
    expected = redecode(pairs, result.weights, metric, chosen, ties)
    require(result.loss == expected,
            f"optimize loss {result.loss!r} != oracle decode {expected!r}")


def decode(pairs, weights, metric, loss, ties: Ties) -> None:
    expected = redecode(pairs, weights, metric, decoded(pairs, weights), ties)
    require(loss == expected, f"decode_loss {loss!r} != oracle decode {expected!r}")


def _strictly_inside(eta: float, boundaries: np.ndarray) -> bool:
    return boundaries.size == 0 or float(np.min(np.abs(boundaries - eta))) > INSIDE_TOL


def sweep(pairs, w0, v, metric, result, ls, ties: Ties) -> None:
    require(result.best_loss >= ls.loss,
            f"best sweep loss {result.best_loss!r} below line search loss {ls.loss!r}")
    boundaries = np.array([b for s in ls.surface.surfaces for b in s.boundaries])
    picks = []
    for start in GRID_PROBES + (result.best_index,):
        for i in range(start, min(start + 10, len(result.etas))):
            if _strictly_inside(result.etas[i], boundaries):
                picks.append(i)
                break
    require(bool(picks), "no sweep grid point lies strictly inside an interval")
    for i in picks:
        eta = result.etas[i]
        weights = np.asarray(w0, dtype=float) + eta * np.asarray(v, dtype=float)
        expected = redecode(pairs, weights, metric, at_eta(ls.envelopes, eta), ties)
        require(result.losses[i] == expected,
                f"sweep loss {result.losses[i]!r} at eta {eta!r} != oracle grid {expected!r}")


def cli(code: int, stdout: str, ls) -> None:
    require(code == 0, f"CLI linesearch exited {code}")
    report = json.loads(stdout)
    require(report["loss"] == ls.loss, f"CLI loss {report['loss']!r} != library {ls.loss!r}")
    require(report["eta"] == ls.eta, f"CLI eta {report['eta']!r} != library {ls.eta!r}")
    require(report["surface"]["boundaries"] == list(ls.boundaries),
            "CLI boundaries differ from the library result")


def same(first, again, what: str) -> None:
    require(first == again, f"{what}: a repeated call returned a different result")


# Signatures: what a repeated call must reproduce exactly.

def sig_setup(corpus) -> tuple:
    return (
        len(corpus),
        corpus.features.names,
        tuple(s.graph.n_edges for s in corpus.sentences),
        all(s.graph.validate().ok for s in corpus.sentences),
    )


def sig_line_search(result) -> tuple:
    return (result.boundaries, result.interval_losses, result.eta, result.loss)


def sig_optimize(result) -> tuple:
    return (tuple(result.weights), result.loss, result.steps)
