"""Command-line surface: validate, linesearch, sweep, optimize, verify.

Reports go to stdout as canonical JSON (one document), except ``sweep``,
which emits plot-ready tab-separated (eta, loss) rows.  Exit codes: 0
success, 1 usage problems (including out-of-range or non-finite flag
values), 2 data problems, 3 internal invariant violations (including a
failed ``verify``).  Output bytes depend only on the inputs, never on
timing.  No flag moves a reported eta within its interval
(``linesearch.pick_eta`` places it), and ``verify`` takes no search flags.
The library checks flag values and sentences; the search commands and
``verify`` name a sentence with a data error as ``sentence <i> (id '<id>')``.
``validate`` reports a cyclic sentence, or one whose goal derives nothing,
as not ``ok`` and exits 2.  Warnings go to stderr as
``warning: <category>: <message>``, with no source location.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import Callable, Sequence

from .errors import ConfigError, DataError, MertError, UsageError
from .forest import DEFAULT_DERIVATION_CAP, count_derivations
from .io import Corpus, canonical_json, load_corpus, load_vector_map
from .linesearch import line_search, optimize, sweep
from .metrics import get_metric
from .oracle import duality_report


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting so run() controls the exit code."""

    def error(self, message):
        raise UsageError(message)


def _add_inputs(p: argparse.ArgumentParser, direction: bool) -> None:
    p.add_argument("corpus", help="line-delimited sentence forest file")
    p.add_argument("--weights", required=True, help="JSON {feature: value} map")
    if direction:
        p.add_argument("--direction", required=True, help="JSON {feature: value} map")


def _add_common(p: argparse.ArgumentParser, direction: bool) -> None:
    _add_inputs(p, direction)
    p.add_argument("--metric", choices=["exact", "bleu"], default="exact")


def build_parser() -> _Parser:
    parser = _Parser(prog="hullmert", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural checks and derivation counts")
    p.add_argument("corpus")
    p.add_argument("--weights", help="optionally check feature coverage of this map")
    p.add_argument("--direction", help="optionally check feature coverage of this map")

    p = sub.add_parser("linesearch", help="exact error minimization along a direction")
    _add_common(p, direction=True)
    p.add_argument(
        "--threads", type=int, default=1, help=">= 1; envelopes are built serially at any value"
    )

    p = sub.add_parser("sweep", help="corpus loss on an eta grid, as TSV rows")
    _add_common(p, direction=True)
    p.add_argument("--range", default="-10:10", help="grid extent as LO:HI")
    p.add_argument("--steps", type=int, default=2001, help="number of grid points")

    p = sub.add_parser("optimize", help="iterated line search along coordinate axes")
    _add_common(p, direction=False)
    p.add_argument("--iterations", type=int, default=1, help="outer sweeps over the axes; >= 0")

    p = sub.add_parser("verify", help="cross-check envelopes against max-plus scoring")
    _add_inputs(p, direction=True)

    return parser


def _load_searchable(path: str) -> Corpus:
    corpus = load_corpus(path)
    if not len(corpus):
        raise UsageError(f"corpus {path} contains no sentences")
    return corpus


def _in_sentence(corpus: Corpus, idx: int, exc: DataError) -> DataError:
    """``exc`` as a data error that names sentence idx by position and id."""
    return DataError(f"sentence {idx} (id {corpus.sentences[idx].sid!r}): {exc}")


def _search(corpus: Corpus, search: Callable, *args, **kwargs):
    """``search(corpus.pairs(), *args, **kwargs)``; a data error raised for
    one sentence names it."""
    try:
        return search(corpus.pairs(), *args, **kwargs)
    except DataError as exc:
        idx = getattr(exc, "_sentence", None)
        if idx is None:
            raise
        raise _in_sentence(corpus, idx, exc) from exc


def _vector(corpus: Corpus, path: str, label: str):
    return corpus.features.vectorize(load_vector_map(path, label), label)


def _vectors(corpus: Corpus, args, direction: bool):
    w0 = _vector(corpus, args.weights, "weights")
    return w0, (_vector(corpus, args.direction, "direction") if direction else None)


def _parse_grid(text: str) -> tuple[float, float]:
    """LO and HI of ``--range LO:HI``; ``sweep`` checks the values."""
    try:
        lo, hi = map(float, text.split(":"))
    except ValueError:  # not two parts, or not numbers
        raise UsageError(f"--range must be LO:HI, got {text!r}") from None
    return lo, hi


def cmd_validate(args) -> tuple[str, int]:
    corpus = load_corpus(args.corpus)
    if args.weights:
        _vector(corpus, args.weights, "weights")
    if args.direction:
        _vector(corpus, args.direction, "direction")
    sentences = []
    all_ok = True
    for s in corpus.sentences:
        report = s.graph.validate()
        errors, warnings = list(report.errors), list(report.warnings)
        if not report.goal_derivable:
            # No command can search such a sentence.  Its graph report
            # then warns about the goal alone, and that warning is an error.
            errors, warnings = errors + warnings, []
        ok = report.ok and report.goal_derivable
        all_ok = all_ok and ok
        if report.ok:
            n = count_derivations(s.graph)
            derivations = n if n <= DEFAULT_DERIVATION_CAP else "overflow"
        else:
            derivations = None
        sentences.append(
            {
                "id": s.sid,
                "ok": ok,
                "nodes": s.graph.n_nodes,
                "edges": s.graph.n_edges,
                "derivations": derivations,
                "errors": errors,
                "warnings": warnings,
            }
        )
    doc = {
        "command": "validate",
        "features": list(corpus.features.names),
        "ok": all_ok,
        "sentences": sentences,
    }
    return canonical_json(doc) + "\n", 0 if all_ok else 2


def cmd_linesearch(args) -> tuple[str, int]:
    corpus = _load_searchable(args.corpus)
    metric = get_metric(args.metric)
    w0, v = _vectors(corpus, args, direction=True)
    result = _search(corpus, line_search, w0, v, metric, threads=args.threads)
    sentences = []
    for s, env in zip(corpus.sentences, result.envelopes):
        segments = [
            {
                "lo": lo,
                "hi": hi,
                "slope": x,
                "intercept": -y,
                "yield": " ".join(tokens),
            }
            for lo, hi, x, y, tokens in zip(*env._spans(), env._xs, env._ys, env._tokens)
        ]
        sentences.append({"id": s.sid, "segments": segments})
    doc = {
        "command": "linesearch",
        "metric": metric.name,
        "features": list(corpus.features.names),
        "weights": corpus.features.to_mapping(w0),
        "direction": corpus.features.to_mapping(v),
        "sentences": sentences,
        "surface": {
            "boundaries": list(result.boundaries),
            "counts": [stats.tolist() for stats in result.surface.stats],
            "losses": list(result.interval_losses),
        },
        "best_interval": result.best_interval,
        "eta": result.eta,
        "loss": result.loss,
        "updated_weights": corpus.features.to_mapping(result.weights),
    }
    return canonical_json(doc) + "\n", 0


def cmd_sweep(args) -> tuple[str, int]:
    corpus = _load_searchable(args.corpus)
    metric = get_metric(args.metric)
    w0, v = _vectors(corpus, args, direction=True)
    lo, hi = _parse_grid(args.range)
    result = _search(corpus, sweep, w0, v, metric, lo, hi, args.steps)
    rows = [
        f"{format(eta, '.17g')}\t{format(loss, '.17g')}"
        for eta, loss in zip(result.etas, result.losses)
    ]
    return "\n".join(rows) + "\n", 0


def cmd_optimize(args) -> tuple[str, int]:
    corpus = _load_searchable(args.corpus)
    metric = get_metric(args.metric)
    w0, _ = _vectors(corpus, args, direction=False)
    result = _search(corpus, optimize, w0, metric, iterations=args.iterations)
    names = corpus.features.names
    trace = [
        {
            "iteration": step.iteration,
            "direction": names[step.axis],
            "eta": step.eta,
            "loss": step.loss,
        }
        for step in result.steps
    ]
    doc = {
        "command": "optimize",
        "metric": metric.name,
        "features": list(names),
        "initial_weights": corpus.features.to_mapping(w0),
        "initial_loss": result.initial_loss,
        "trace": trace,
        "iterations_run": result.iterations_run,
        "final_weights": corpus.features.to_mapping(result.weights),
        "final_loss": result.loss,
    }
    return canonical_json(doc) + "\n", 0


def cmd_verify(args) -> tuple[str, int]:
    corpus = _load_searchable(args.corpus)
    w0, v = _vectors(corpus, args, direction=True)
    sentences = []
    all_ok = True
    for idx, s in enumerate(corpus.sentences):
        try:
            report = duality_report(s.graph, w0, v)
        except DataError as exc:
            raise _in_sentence(corpus, idx, exc) from exc
        all_ok = all_ok and report.ok
        sentences.append(
            {
                "id": s.sid,
                "ok": report.ok,
                "segments": report.n_segments,
                "boundaries": list(report.boundaries),
                "max_score_err": report.max_score_err,
                "max_point_err": report.max_point_err,
            }
        )
    doc = {"command": "verify", "ok": all_ok, "sentences": sentences}
    return canonical_json(doc) + "\n", 0 if all_ok else 3


_COMMANDS = {
    "validate": cmd_validate,
    "linesearch": cmd_linesearch,
    "sweep": cmd_sweep,
    "optimize": cmd_optimize,
    "verify": cmd_verify,
}


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning without the frame it names: library code or ``runpy``."""
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            args = parser.parse_args(argv)
            text, code = _COMMANDS[args.command](args)
        sys.stdout.write(text)
        return code
    except (UsageError, ConfigError) as exc:
        # Only flag values raise ConfigError here; corpus and vector-file
        # problems are other DataErrors.
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, DataError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except MertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports everything
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        sys.stdout.flush()
