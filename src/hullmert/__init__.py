"""Exact minimum-error training over packed forests via the convex hull semiring.

The pipeline: project each hyperedge to a dual point, run the inside
algorithm in the lower-chain (envelope) semiring, read the upper envelope
off the goal's lower chain, turn envelopes into additive error surfaces,
and pick the eta that exactly minimizes the corpus loss along a search
direction.  The full convex hull semiring stays as the reference, and
brute-force oracles for every stage live in ``oracle``.
"""

from .errors import (
    CapExceededError,
    ConfigError,
    CyclicForestError,
    DataError,
    DegenerateDirectionWarning,
    DimensionMismatchError,
    EnumerationOverflowError,
    ForestFormatError,
    InvalidGeometryError,
    MertError,
    MissingFeatureWarning,
    NoHypothesesError,
    ProvenanceError,
    UnknownFeatureWarning,
    UsageError,
)
from .geometry import (
    ConvexChain,
    Point2,
    envelope_boundaries,
    lower_chain,
    lower_hull,
)
from .semiring import ConvexHullValue
from .forest import (
    Derivation,
    Edge,
    Hypergraph,
    count_derivations,
    enumerate_derivations,
    inside,
    inside_hull,
    project_edge,
    realize,
    reconstruct,
)
from .metrics import Bleu, ExactMatch, Metric, get_metric, tokenize
from .linesearch import (
    CorpusSurface,
    Envelope,
    ErrorSurface,
    LineSearchResult,
    OptimizeResult,
    SweepResult,
    build_envelope,
    build_envelopes,
    corpus_surface,
    decode_loss,
    line_search,
    optimize,
    pick_eta,
    sentence_surface,
    sweep,
)
from .io import (
    Corpus,
    FeatureIndex,
    Sentence,
    canonical_json,
    load_corpus,
    loads_corpus,
    serialize_corpus,
)
from .estimator import MertEstimator

__version__ = "0.1.0"

__all__ = [
    "Bleu",
    "CapExceededError",
    "ConfigError",
    "ConvexChain",
    "ConvexHullValue",
    "Corpus",
    "CorpusSurface",
    "CyclicForestError",
    "DataError",
    "DegenerateDirectionWarning",
    "Derivation",
    "DimensionMismatchError",
    "Edge",
    "EnumerationOverflowError",
    "Envelope",
    "ErrorSurface",
    "ExactMatch",
    "FeatureIndex",
    "ForestFormatError",
    "Hypergraph",
    "InvalidGeometryError",
    "LineSearchResult",
    "MertError",
    "MertEstimator",
    "Metric",
    "MissingFeatureWarning",
    "NoHypothesesError",
    "OptimizeResult",
    "Point2",
    "ProvenanceError",
    "Sentence",
    "SweepResult",
    "UnknownFeatureWarning",
    "UsageError",
    "build_envelope",
    "build_envelopes",
    "canonical_json",
    "corpus_surface",
    "count_derivations",
    "decode_loss",
    "enumerate_derivations",
    "envelope_boundaries",
    "get_metric",
    "inside",
    "inside_hull",
    "line_search",
    "load_corpus",
    "loads_corpus",
    "lower_chain",
    "lower_hull",
    "optimize",
    "pick_eta",
    "project_edge",
    "realize",
    "reconstruct",
    "sentence_surface",
    "serialize_corpus",
    "sweep",
    "tokenize",
]
