"""The names in ``hullmert.__all__`` are the package's public contract."""

import hullmert

PUBLIC_NAMES = [
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


def test_all_lists_exactly_the_public_names() -> None:
    # Adding or dropping a public name is a deliberate edit of this list.
    assert sorted(hullmert.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves() -> None:
    for name in hullmert.__all__:
        getattr(hullmert, name)  # AttributeError names the missing one
