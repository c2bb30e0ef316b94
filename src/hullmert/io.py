"""Corpus files, named feature vectors, and canonical report output.

A corpus is line-delimited JSON, one sentence per line:

    {"id": "s1",
     "nodes": 3,
     "goal": 2,
     "edges": [{"head": 0, "tails": [], "features": {"lm": 1.5}, "yield": ["the"]},
               {"head": 2, "tails": [0], "features": {"tm": -1.0},
                "yield": ["$0", "cat"]}],
     "reference": "the cat"}

Feature names are strings; the loader assigns them a stable global index
by sorting all names seen in the corpus, so the dense vector layout does
not depend on sentence order.  Yield entries are strings; "$k" substitutes
tail k's yield (tokens of that exact shape, "$" and ASCII digits, are
reserved for slots).
``nodes`` is the node count, or equivalently a list of the ids 0..n-1.

All floats in serialized output use 17 significant digits, dictionary keys
are emitted sorted, and infinities become the strings "inf" and "-inf", so
byte-identical reports mean identical results.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from itertools import repeat
from operator import add
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DataError,
    ForestFormatError,
    MissingFeatureWarning,
    UnknownFeatureWarning,
    _warn,
)
from .forest import Edge, Hypergraph
from .metrics import tokenize

_SLOT_RE = re.compile(r"\$([0-9]+)")  # fullmatch: no trailing newline, ASCII digits
_SENTENCE_KEYS = {"id", "nodes", "goal", "edges", "reference"}
_EDGE_KEYS = {"head", "tails", "features", "yield"}


class FeatureIndex:
    """Stable mapping between feature names and dense vector positions.

    Names are stored sorted, so the index is a function of the name set
    alone; reports record it so vectors can be read back by name.
    """

    __slots__ = ("names", "ids")

    def __init__(self, names: Iterable[str]):
        self.names: tuple[str, ...] = tuple(sorted(set(names)))
        self.ids: dict[str, int] = {n: i for i, n in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, FeatureIndex) and self.names == other.names

    def vectorize(self, mapping: Mapping[str, float], label: str) -> np.ndarray:
        """Dense vector from a name -> value map.

        Unknown names are ignored and indexed names absent from the map
        default to 0.0; each case raises one aggregated warning so sparse
        files stay ergonomic without hiding typos.
        """
        vec = np.zeros(len(self.names))
        unknown = sorted(k for k in mapping if k not in self.ids)
        if unknown:
            _warn(
                f"{label}: ignoring feature names not in the corpus: {unknown}",
                UnknownFeatureWarning,
            )
        missing = sorted(n for n in self.names if n not in mapping)
        if missing:
            _warn(f"{label}: features defaulting to 0.0: {missing}", MissingFeatureWarning)
        for k, v in mapping.items():
            i = self.ids.get(k)
            if i is not None:
                vec[i] = float(v)
        return vec

    def to_mapping(self, vec: Sequence[float]) -> dict[str, float]:
        return {name: float(vec[i]) for i, name in enumerate(self.names)}


@dataclass(frozen=True)
class Sentence:
    sid: str
    graph: Hypergraph
    reference: tuple[str, ...]


@dataclass(frozen=True)
class Corpus:
    sentences: tuple[Sentence, ...]
    features: FeatureIndex

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)

    def pairs(self) -> list[tuple[Hypergraph, tuple[str, ...]]]:
        return [(s.graph, s.reference) for s in self.sentences]


def _fail(where: str, message: str) -> ForestFormatError:
    return ForestFormatError(f"{where}: {message}")


def _check_int(value, where: str, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(where, f"{what} must be an integer, got {value!r}")
    return value


def _as_float(value: int | float) -> float:
    """``float(value)``, or inf for an integer too large for a float."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _check_number(value, where: str, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(where, f"{what} must be a number, got {value!r}")
    number = _as_float(value)
    if not math.isfinite(number):
        raise _fail(where, f"{what} must be finite, got {value!r}")
    return number


def _parse_nodes(value, where: str) -> int:
    if isinstance(value, list):
        ids = [_check_int(x, where, "node id") for x in value]
        if sorted(ids) != list(range(len(ids))) or not ids:
            raise _fail(where, f"node list must be the ids 0..n-1, got {value!r}")
        return len(ids)
    n = _check_int(value, where, "'nodes'")
    if n < 1:
        raise _fail(where, f"'nodes' must be positive, got {n}")
    return n


def _parse_reference(value, where: str) -> tuple[str, ...]:
    if isinstance(value, str):
        return tokenize(value)
    if isinstance(value, list) and all(isinstance(t, str) for t in value):
        return tuple(value)
    raise _fail(where, f"'reference' must be a string or list of tokens, got {value!r}")


def _parse_features(features: dict, where: str) -> dict[str, float]:
    """The map as it is when every value is a finite float; else each
    value checked in order, and an integer made a float."""
    values = features.values()
    if set(map(type, values)) <= {float} and all(map(math.isfinite, values)):
        return features
    return {
        name: _check_number(val, where, f"feature {name!r}") for name, val in features.items()
    }


def _parse_template(value, where: str) -> tuple[str | int, ...]:
    if not isinstance(value, list):
        raise _fail(where, f"'yield' must be a list, got {value!r}")
    out: list[str | int] = []
    for item in value:
        if not isinstance(item, str):
            raise _fail(where, f"yield entries must be strings, got {item!r}")
        m = _SLOT_RE.fullmatch(item) if item[:1] == "$" else None
        out.append(int(m.group(1)) if m else item)
    return tuple(out)


def _parse_doc(doc, where: str) -> dict:
    """Structural checks on one sentence document; features stay named."""
    if not isinstance(doc, dict):
        raise _fail(where, "sentence document must be a JSON object")
    missing = _SENTENCE_KEYS - doc.keys()
    if missing:
        raise _fail(where, f"missing keys: {sorted(missing)}")
    unknown = doc.keys() - _SENTENCE_KEYS
    if unknown:
        raise _fail(where, f"unknown keys: {sorted(unknown)}")
    if not isinstance(doc["id"], str):
        raise _fail(where, f"'id' must be a string, got {doc['id']!r}")
    n_nodes = _parse_nodes(doc["nodes"], where)
    goal = _check_int(doc["goal"], where, "'goal'")
    if not isinstance(doc["edges"], list):
        raise _fail(where, "'edges' must be a list")
    edges = []
    for k, e in enumerate(doc["edges"]):
        ewhere = f"{where}, edge {k}"
        if not isinstance(e, dict):
            raise _fail(ewhere, "edge must be a JSON object")
        bad = e.keys() - _EDGE_KEYS
        if bad:
            raise _fail(ewhere, f"unknown keys: {sorted(bad)}")
        if "head" not in e:
            raise _fail(ewhere, "missing 'head'")
        head = _check_int(e["head"], ewhere, "'head'")
        tails = e.get("tails", [])
        if not isinstance(tails, list):
            raise _fail(ewhere, "'tails' must be a list")
        tails = tuple(_check_int(t, ewhere, "tail") for t in tails)
        features = e.get("features", {})
        if not isinstance(features, dict):
            raise _fail(ewhere, "'features' must be an object")
        feats = _parse_features(features, ewhere)
        template = _parse_template(e.get("yield", []), ewhere)
        edges.append((head, tails, feats, template))
    return {
        "id": doc["id"],
        "n_nodes": n_nodes,
        "goal": goal,
        "edges": edges,
        "reference": _parse_reference(doc["reference"], where),
    }


def loads_corpus(text: str) -> Corpus:
    """Parse line-delimited sentence documents into a Corpus.

    Two passes: the first collects every feature name so the global index
    covers the whole corpus, the second builds the hypergraphs.
    """
    docs = []
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"line {i}"
        try:
            raw = json.loads(line)
        except ValueError as exc:  # also an integer past the interpreter's digit limit
            raise _fail(where, f"invalid JSON: {exc}") from None
        docs.append((where, _parse_doc(raw, where)))
    names = {
        name for _, doc in docs for _, _, feats, _ in doc["edges"] for name in feats
    }
    index = FeatureIndex(names)
    sentences = []
    ids = index.ids
    for where, doc in docs:
        # Names are distinct, so the pairs sort by id; values are floats.
        edges = [
            Edge(head, tails, tuple(sorted([(ids[n], v) for n, v in feats.items()])), template)
            for head, tails, feats, template in doc["edges"]
        ]
        try:
            graph = Hypergraph(doc["n_nodes"], edges, doc["goal"], len(index))
        except ForestFormatError as exc:
            raise _fail(where, str(exc)) from None
        sentences.append(Sentence(doc["id"], graph, doc["reference"]))
    return Corpus(tuple(sentences), index)


def load_corpus(path: str) -> Corpus:
    """``loads_corpus`` of a file; a byte that is not UTF-8 is a
    ForestFormatError that names the file and the byte's line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The lines before the bad byte, and ("x") the one it stands on.
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        byte = f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        raise _fail(f"corpus file {path}, line {line}", byte) from None
    return loads_corpus(text)


def serialize_corpus(corpus: Corpus) -> str:
    """Canonical line-delimited form; loads_corpus inverts it exactly."""
    names = corpus.features.names
    lines = []
    for s in corpus.sentences:
        edges = []
        for e in s.graph.edges:
            edges.append(
                {
                    "head": e.head,
                    "tails": list(e.tails),
                    "features": {names[i]: v for i, v in e.features},
                    "yield": [f"${x}" if isinstance(x, int) else x for x in e.template],
                }
            )
        doc = {
            "id": s.sid,
            "nodes": s.graph.n_nodes,
            "goal": s.graph.goal,
            "edges": edges,
            "reference": " ".join(s.reference),
        }
        lines.append(canonical_json(doc))
    return "\n".join(lines) + "\n" if lines else ""


def load_vector_map(path: str, label: str) -> dict[str, float]:
    """A JSON object of feature name -> finite number."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as exc:  # also undecodable bytes, or an integer past the digit limit
        raise DataError(f"{label} file {path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise DataError(f"{label} file {path}: expected a JSON object of name: value")
    out = {}
    for name, val in raw.items():
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise DataError(f"{label} file {path}: {name!r} must map to a number")
        out[name] = _as_float(val)
        if not math.isfinite(out[name]):
            raise DataError(f"{label} file {path}: {name!r} must be finite")
    return out


_encode_str = json.encoder.encode_basestring  # json.dumps(s, ensure_ascii=False)


def _float_repr(x: float) -> str:
    # +0.0 writes -0.0 as 0: a JSON reader parses "-0" as the integer 0,
    # so a report with it would not read back as written.
    out = format(x + 0.0, ".17g")
    # ".17g" may emit bare exponents like "1e+300"; that is valid JSON.
    # Only "inf", "-inf" and "nan" hold an "n".
    if "n" in out:
        if x != x:
            raise ValueError("refusing to serialize NaN")
        return '"inf"' if x > 0 else '"-inf"'
    return out


def _write_items(items, out: list[str]) -> None:
    """A list of only floats, or only ints, in one join; a float list with
    an infinity or NaN (an "n" in its text) goes one item at a time."""
    kinds = set(map(type, items))
    if kinds == {float}:
        text = ",".join(map(format, map(add, items, repeat(0.0)), repeat(".17g")))
        if "n" not in text:
            out.append(f"[{text}]")
            return
    elif kinds == {int}:
        out.append(f"[{','.join(map(str, items))}]")
        return
    out.append("[")
    for i, item in enumerate(items):
        if i:
            out.append(",")
        _write_canonical(item, out)
    out.append("]")


def _write_dict(obj, out: list[str]) -> None:
    out.append("{")
    for i, key in enumerate(sorted(obj)):
        if not isinstance(key, str):
            raise ValueError(f"report keys must be strings, got {key!r}")
        out.append(f",{_encode_str(key)}:" if i else f"{_encode_str(key)}:")
        _write_canonical(obj[key], out)
    out.append("}")


def _write_canonical(obj, out: list[str]) -> None:
    """One ``isinstance`` test per value, bool before int; numpy values
    write as their ``tolist()``.  ``oracle.canonical_json`` is the
    reference; this writer differs from it only by ``_write_items``'s
    joined float and int lists and by its string encoder."""
    if isinstance(obj, float):
        out.append(_float_repr(obj))
    elif isinstance(obj, str):
        out.append(_encode_str(obj))
    elif isinstance(obj, dict):
        _write_dict(obj, out)
    elif isinstance(obj, (list, tuple)):
        _write_items(obj, out)
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (np.floating, np.integer, np.ndarray)):
        _write_canonical(obj.tolist(), out)
    else:
        raise ValueError(f"cannot serialize {type(obj).__name__} canonically")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats, no
    whitespace, infinities as the strings "inf"/"-inf"."""
    out: list[str] = []
    _write_canonical(obj, out)
    return "".join(out)
