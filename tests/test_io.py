import copy
import itertools
import json
import math
import re
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullmert import oracle
from hullmert.errors import (
    DataError,
    ForestFormatError,
    MissingFeatureWarning,
    UnknownFeatureWarning,
)
from hullmert.io import (
    FeatureIndex,
    canonical_json,
    load_corpus,
    load_vector_map,
    loads_corpus,
    serialize_corpus,
)

from helpers import reference_setup, setup_bits

SENTENCE = (
    '{"id": "s1", "nodes": 3, "goal": 2, "edges": ['
    '{"head": 0, "tails": [], "features": {"lm": 1.5}, "yield": ["the"]},'
    '{"head": 1, "tails": [0], "features": {"tm": -1.0}, "yield": ["$0", "cat"]},'
    '{"head": 2, "tails": [1], "features": {}, "yield": ["$0"]}],'
    ' "reference": "the cat"}'
)


def doc_with(**overrides) -> str:
    doc = {
        "id": "s1",
        "nodes": 1,
        "goal": 0,
        "edges": [{"head": 0, "tails": [], "features": {"f": 1.0}, "yield": ["w"]}],
        "reference": "w",
    }
    doc.update(overrides)
    return json.dumps(doc)


class TestFeatureIndex:
    def test_names_are_sorted_and_deduplicated(self) -> None:
        idx = FeatureIndex(["tm", "lm", "tm"])
        assert idx.names == ("lm", "tm")
        assert idx.ids == {"lm": 0, "tm": 1}
        assert len(idx) == 2

    def test_vectorize_places_values(self) -> None:
        idx = FeatureIndex(["a", "b", "c"])
        got = idx.vectorize({"a": 1.0, "b": 2.0, "c": 3.0}, "weights")
        assert got.tolist() == [1.0, 2.0, 3.0]

    def test_missing_names_default_with_warning(self) -> None:
        idx = FeatureIndex(["a", "b"])
        with pytest.warns(MissingFeatureWarning, match="'b'"):
            got = idx.vectorize({"a": 4.0}, "weights")
        assert got.tolist() == [4.0, 0.0]

    def test_unknown_names_ignored_with_warning(self) -> None:
        idx = FeatureIndex(["a"])
        with pytest.warns(UnknownFeatureWarning, match="typo"):
            got = idx.vectorize({"a": 4.0, "typo": 9.0}, "weights")
        assert got.tolist() == [4.0]

    def test_to_mapping_round_trip(self) -> None:
        idx = FeatureIndex(["a", "b"])
        vec = idx.vectorize({"a": 1.5, "b": -2.0}, "weights")
        assert idx.to_mapping(vec) == {"a": 1.5, "b": -2.0}


class TestLoadsCorpus:
    def test_docstring_example(self) -> None:
        corpus = loads_corpus(SENTENCE + "\n")
        assert len(corpus) == 1
        s = corpus.sentences[0]
        assert s.sid == "s1"
        assert s.graph.n_nodes == 3 and s.graph.goal == 2
        assert s.reference == ("the", "cat")
        assert corpus.features.names == ("lm", "tm")
        e1 = s.graph.edges[1]
        assert e1.template == (0, "cat")
        assert e1.features == ((corpus.features.ids["tm"], -1.0),)

    def test_blank_lines_skipped(self) -> None:
        corpus = loads_corpus("\n" + SENTENCE + "\n\n")
        assert len(corpus) == 1

    def test_feature_index_spans_all_sentences(self) -> None:
        text = (
            doc_with(id="a", edges=[{"head": 0, "features": {"z": 1.0}, "yield": ["w"]}])
            + "\n"
            + doc_with(id="b", edges=[{"head": 0, "features": {"a": 1.0}, "yield": ["w"]}])
            + "\n"
        )
        corpus = loads_corpus(text)
        assert corpus.features.names == ("a", "z")
        for s in corpus.sentences:
            assert s.graph.n_features == 2

    def test_nodes_as_id_list(self) -> None:
        corpus = loads_corpus(doc_with(nodes=[0]))
        assert corpus.sentences[0].graph.n_nodes == 1
        with pytest.raises(ForestFormatError, match="0..n-1"):
            loads_corpus(doc_with(nodes=[0, 2]))

    def test_reference_as_token_list(self) -> None:
        corpus = loads_corpus(doc_with(reference=["w", "x"]))
        assert corpus.sentences[0].reference == ("w", "x")

    def test_literal_dollar_token_is_not_a_slot(self) -> None:
        corpus = loads_corpus(
            doc_with(edges=[{"head": 0, "features": {}, "yield": ["$x", "$"]}])
        )
        assert corpus.sentences[0].graph.edges[0].template == ("$x", "$")

    @pytest.mark.parametrize(
        "word", ["$0\n", "$\u0663"], ids=["trailing-newline", "arabic-indic-three"]
    )
    def test_slot_lookalikes_stay_literal(self, word: str) -> None:
        # A slot is "$" and ASCII digits, the whole entry: "$" before a
        # trailing newline and non-ASCII digits do not make one.
        edges = [
            {"head": 0, "features": {}, "yield": ["w"]},
            {"head": 1, "tails": [0], "features": {}, "yield": ["$0", word]},
        ]
        corpus = loads_corpus(doc_with(nodes=2, goal=1, edges=edges))
        assert corpus.sentences[0].graph.edges[1].template == (0, word)
        again = loads_corpus(serialize_corpus(corpus))
        assert again.sentences[0].graph.edges == corpus.sentences[0].graph.edges

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("{not json", "invalid JSON"),
            ('["not", "an", "object"]', "JSON object"),
            (doc_with(goal="2"), "integer"),
            (doc_with(goal=True), "integer"),
            (doc_with(nodes=0), "positive"),
            pytest.param(
                doc_with(nodes=10**5),
                "line 1: 100000 nodes; the goal and edges name at most 2",
                id="node-count-past-the-edges",
            ),
            pytest.param(doc_with(nodes=10**400), "line 1: 10+ nodes", id="huge-node-count"),
            (doc_with(id=7), "'id'"),
            ('{"id": "s", "nodes": 1, "goal": 0, "edges": []}', "missing keys"),
            (doc_with(extra=1), "unknown keys"),
            (doc_with(reference=7), "'reference'"),
            (doc_with(edges=[{"head": 0, "bad": 1}]), "unknown keys"),
            (doc_with(edges=[{"tails": []}]), "missing 'head'"),
            (doc_with(edges=[{"head": 0, "tails": 3}]), "'tails'"),
            (doc_with(edges=[{"head": 0, "features": {"f": "x"}}]), "number"),
            (doc_with(edges=[{"head": 0, "features": {"f": math.inf}}]), "finite"),
            pytest.param(
                doc_with(edges=[{"head": 0, "features": {"f": 10**400}}]), "finite", id="huge-int"
            ),
            pytest.param(
                doc_with(goal=0).replace('"goal": 0', '"goal": 1' + "0" * 5000),
                "invalid JSON",
                id="int-past-the-digit-limit",
            ),
            (doc_with(edges=[{"head": 0, "yield": [3]}]), "strings"),
            (doc_with(edges=[{"head": 0, "yield": "w"}]), "list"),
        ],
    )
    def test_malformed_documents(self, text: str, fragment: str) -> None:
        with pytest.raises(ForestFormatError, match=fragment):
            loads_corpus(text)

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85"], ids=["u2028", "u2029", "nel"])
    def test_unicode_line_separators_stay_inside_their_line(self, sep: str) -> None:
        # Only "\n" ends a line: JSON strings may hold these raw.
        token = f"a{sep}b"
        line = json.dumps(
            {"id": f"s{sep}", "nodes": 1, "goal": 0, "reference": f"x{sep}y",
             "edges": [{"head": 0, "tails": [], "features": {}, "yield": [token]}]},
            ensure_ascii=False,
        )
        assert sep in line
        corpus = loads_corpus(line + "\r\n" + doc_with(id="t") + "\n")
        s = corpus.sentences[0]
        assert (s.sid, s.graph.edges[0].template, s.reference) == (f"s{sep}", (token,), ("x", "y"))
        text = serialize_corpus(corpus)
        assert sep in text
        again = loads_corpus(text)
        assert serialize_corpus(again) == text
        assert [t.graph.edges for t in again] == [t.graph.edges for t in corpus]
        with pytest.raises(ForestFormatError, match=r"^line 2: 'goal' must be an integer"):
            loads_corpus(line + "\n" + doc_with(goal="0") + "\n")

    def test_only_a_newline_ends_a_line(self) -> None:
        # A lone "\r" or form feed is not a line break, and not JSON whitespace.
        for sep in ("\r", "\x0c"):
            with pytest.raises(ForestFormatError, match="^line 1: invalid JSON: Extra data"):
                loads_corpus(doc_with() + sep + doc_with(id="t") + "\n")

    def test_slot_past_the_digit_limit_is_a_format_error(self) -> None:
        edges = [
            {"head": 0, "features": {}, "yield": ["w"]},
            {"head": 1, "tails": [0], "features": {}, "yield": ["$0", "$" + "1" * 5000]},
        ]
        message = (
            r"^line 1, edge 1: yield slot \$111111111\.\.\. has 5000 digits, past the digit limit$"
        )
        with pytest.raises(ForestFormatError, match=message):
            loads_corpus(doc_with(nodes=2, goal=1, edges=edges))
        edges[1]["yield"] = [3, "$" + "1" * 5000]  # a wrong class is found first
        with pytest.raises(ForestFormatError, match="yield entries must be strings, got 3"):
            loads_corpus(doc_with(nodes=2, goal=1, edges=edges))

    def test_integer_features_become_floats(self) -> None:
        edges = [{"head": 0, "features": {"b": 2, "a": -3, "c": 0.5}, "yield": ["w"]}]
        (edge,) = loads_corpus(doc_with(edges=edges)).sentences[0].graph.edges
        assert edge.features == ((0, -3.0), (1, 2.0), (2, 0.5))
        assert {type(v) for _, v in edge.features} == {float}

    def test_structural_errors_carry_the_line_number(self) -> None:
        text = doc_with() + "\n" + doc_with(goal=5) + "\n"
        with pytest.raises(ForestFormatError, match="line 2"):
            loads_corpus(text)

    def test_infinite_feature_in_map_rejected(self) -> None:
        text = doc_with(
            edges=[{"head": 0, "features": {"f": 1e999}, "yield": ["w"]}]
        )
        with pytest.raises(ForestFormatError, match="finite"):
            loads_corpus(text)


class TestSerializeCorpus:
    def test_round_trip_is_identity(self) -> None:
        text = SENTENCE + "\n" + doc_with(id="s2") + "\n"
        first = serialize_corpus(loads_corpus(text))
        again = serialize_corpus(loads_corpus(first))
        assert first == again
        corpus = loads_corpus(first)
        assert [s.sid for s in corpus] == ["s1", "s2"]
        assert corpus.sentences[0].graph.edges == loads_corpus(text).sentences[0].graph.edges

    @pytest.mark.parametrize(
        "tokens",
        [("a b",), ("x", "a\u2028b"), ("",), ("x", "", "y"), (" ",)],
        ids=["space", "line-separator", "empty", "empty-inside", "blank"],
    )
    def test_reference_that_a_string_cannot_hold_is_written_as_a_list(self, tokens) -> None:
        text = doc_with(reference=list(tokens)) + "\n"
        out = serialize_corpus(loads_corpus(text))
        assert loads_corpus(out).sentences[0].reference == tokens
        assert json.loads(out)["reference"] == list(tokens)

    @pytest.mark.parametrize("reference", [["w", "x"], "w  x", "", []])
    def test_reference_that_a_string_holds_is_written_as_one(self, reference) -> None:
        corpus = loads_corpus(doc_with(reference=reference) + "\n")
        out = serialize_corpus(corpus)
        assert json.loads(out)["reference"] == " ".join(corpus.sentences[0].reference)
        assert loads_corpus(out).sentences[0].reference == corpus.sentences[0].reference

    def test_slots_serialize_back_to_dollar_forms(self) -> None:
        corpus = loads_corpus(SENTENCE)
        out = serialize_corpus(corpus)
        assert '"$0"' in out
        assert '"features":{"tm":' in out  # sorted keys, no spaces

    def test_empty_corpus(self) -> None:
        assert serialize_corpus(loads_corpus("")) == ""

    def test_load_corpus_reads_files(self, tmp_path) -> None:
        p = tmp_path / "c.jsonl"
        p.write_text(SENTENCE + "\n", encoding="utf-8")
        assert len(load_corpus(str(p))) == 1

    @pytest.mark.parametrize(
        "lines, line, byte",
        [
            ([b"\xff"], 1, "0xff"),
            ([SENTENCE.encode(), b"", b'{"id": "\xc3"}'], 3, "0xc3"),
            ([SENTENCE.encode().replace(b"the", b"\xe2\x80the")], 1, "0xe2"),
            ([SENTENCE.encode().replace(b"the", "\u2028the".encode()), b"\xff"], 2, "0xff"),
        ],
        ids=["first-line", "after-a-blank-line", "cut-sequence", "after-a-line-separator"],
    )
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, lines, line, byte) -> None:
        p = tmp_path / "c.jsonl"
        p.write_bytes(b"\r\n".join(lines) + b"\n")
        message = f"^{re.escape(f'corpus file {p}, line {line}')}: byte {byte} is not UTF-8"
        with pytest.raises(ForestFormatError, match=message):
            load_corpus(str(p))


class TestLoadVectorMap:
    def test_valid_map(self, tmp_path) -> None:
        p = tmp_path / "w.json"
        p.write_text('{"lm": 1.5, "tm": -2}', encoding="utf-8")
        assert load_vector_map(str(p), "weights") == {"lm": 1.5, "tm": -2.0}

    @pytest.mark.parametrize(
        "content,fragment",
        [
            ("[1, 2]", "JSON object"),
            ('{"a": true}', "number"),
            ('{"a": "x"}', "number"),
            ('{"a": 1e999}', "finite"),
            pytest.param('{"a": 1' + "0" * 400 + "}", "finite", id="huge-int"),
            pytest.param(
                '{"a": 1' + "0" * 5000 + "}", "invalid JSON", id="int-past-the-digit-limit"
            ),
            ("{bad", "invalid JSON"),
        ],
    )
    def test_invalid_maps(self, tmp_path, content: str, fragment: str) -> None:
        p = tmp_path / "w.json"
        p.write_text(content, encoding="utf-8")
        with pytest.raises(DataError, match=fragment):
            load_vector_map(str(p), "weights")


class TestCanonicalJson:
    def test_sorted_keys_no_whitespace(self) -> None:
        assert canonical_json({"b": 1, "a": [2, "x"]}) == '{"a":[2,"x"],"b":1}'

    def test_float_precision(self) -> None:
        assert canonical_json(0.1) == "0.10000000000000001"
        assert canonical_json(1.0) == "1"
        assert canonical_json(-2.5) == "-2.5"
        # "-0" would read back as the integer 0.
        assert canonical_json(-0.0) == "0"
        assert canonical_json([-0.0, 1.5]) == "[0,1.5]"

    def test_infinities_become_strings(self) -> None:
        assert canonical_json(math.inf) == '"inf"'
        assert canonical_json([-math.inf]) == '["-inf"]'

    def test_nan_rejected(self) -> None:
        with pytest.raises(ValueError):
            canonical_json(math.nan)

    def test_numpy_values_are_unwrapped(self) -> None:
        obj = {"v": np.array([1.0, 0.5]), "n": np.int64(3), "x": np.float64(0.25)}
        assert canonical_json(obj) == '{"n":3,"v":[1,0.5],"x":0.25}'

    def test_bool_and_null(self) -> None:
        assert canonical_json({"t": True, "n": None}) == '{"n":null,"t":true}'

    def test_non_string_keys_rejected(self) -> None:
        with pytest.raises(ValueError):
            canonical_json({1: "x"})

    def test_unknown_types_rejected(self) -> None:
        with pytest.raises(ValueError):
            canonical_json({"x": object()})

    def test_finite_output_parses_back(self) -> None:
        obj = {"a": [0.1, 2, "s"], "b": {"c": -1.25e-8}}
        assert json.loads(canonical_json(obj)) == obj


# Strings with JSON escapes: quotes, backslashes, control characters,
# non-ASCII text and surrogates.
TEXT = st.text(st.sampled_from('ab"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600'), max_size=6)
FLOATS = st.floats(allow_nan=False) | st.sampled_from(
    [math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, 1e16]
)
INTS = st.integers() | st.sampled_from([2**63, -(2**63) - 1, 2**64 + 1, 10**30])


# Subclasses of the built-in types: each writer takes its built-in branch.
class FloatSub(float):
    pass


class IntSub(int):
    pass


class StrSub(str):
    pass


class DictSub(dict):
    pass


class Pair(NamedTuple):
    a: object
    b: object


SCALARS = st.one_of(
    FLOATS,
    INTS,
    TEXT,
    st.booleans(),
    st.none(),
    FLOATS.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.lists(FLOATS, max_size=5).map(lambda xs: np.array(xs, dtype=np.float64)),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=5).map(
        lambda xs: np.array(xs, dtype=np.int64)
    ),
    # Float-only and int-only lists take the writer's joined paths.
    st.lists(FLOATS, max_size=6),
    st.lists(INTS, max_size=6).map(tuple),
    FLOATS.map(FloatSub),
    INTS.map(IntSub),
    TEXT.map(StrSub),
    st.dictionaries(TEXT, FLOATS | INTS, max_size=3).map(DictSub),
    st.builds(Pair, FLOATS, FLOATS | INTS),
    st.floats(allow_nan=False, width=32).map(np.float32),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=20,
)
# Each is refused: NaN anywhere, a numpy bool, a key that is not a
# string, keys that do not sort.
REFUSED = st.sampled_from(
    [
        math.nan,
        np.float64(math.nan),
        FloatSub(math.nan),
        np.bool_(True),
        [0.5, math.nan],
        (1, math.nan),
        np.array([0.5, math.nan]),
        {1: "x"},
        {"a": 1, 2: "b"},
        {("k",): 1.0},
    ]
)


def write_outcome(write, obj):
    try:
        return write(obj)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


class TestCanonicalJsonReadsBack:
    @given(VALUES)
    @settings(max_examples=400, deadline=None)
    def test_written_text_reads_back_as_written(self, obj) -> None:
        # FLOATS draw -0.0 and subnormals; "-0" would read back as 0.
        text = canonical_json(obj)
        assert canonical_json(json.loads(text)) == text


class TestCanonicalJsonMatchesTheReference:
    @given(VALUES)
    @settings(max_examples=400, deadline=None)
    def test_same_bytes(self, obj) -> None:
        assert canonical_json(obj) == oracle.canonical_json(obj)

    @given(st.lists(VALUES | REFUSED, min_size=1, max_size=5), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_same_refusals(self, items, as_dict) -> None:
        # The first refused value in writing order raises, in both writers.
        obj = {f"k{i}": x for i, x in enumerate(items)} if as_dict else items
        assert write_outcome(canonical_json, obj) == write_outcome(oracle.canonical_json, obj)


def pool(values: list) -> st.SearchStrategy:
    """One of ``values``, drawn as a fresh deep copy.  ``mutate`` changes
    documents in place, so a drawn list or dict must never be the pool's own:
    a later example would draw the altered value, and an edge could end up
    holding itself."""
    return st.sampled_from(values).map(copy.deepcopy)


# What a mutation puts where the corpus format expects something else:
# wrong classes, bools, numbers too large or not finite, "$" forms that are
# and are not slots, and ids out of range.
NOT_INTS = [None, True, False, "0", 1.5, 2.0, 2**70, -(10**400), [], {}]
NODE_IDS = st.integers(-1, 4) | pool(NOT_INTS)
FEATURE_VALUES = st.floats(-4, 4) | st.integers(-3, 3) | st.sampled_from([-0.0, 2**53 + 1])
ODD_FEATURES = pool(
    [True, False, None, "1", [], {}, 10**400, -(10**400), 2**70, math.inf, -math.inf, math.nan]
)
ODD_TOKENS = pool(
    [
        "$", "$0", "$1", "$2", "$00", "$01", "$-1", "$+1", "$ 1", "$1_0", "$x", "$0\n", "$\u0663",
        "$\u00b2", "$" + "9" * 5000, "$" + "0" * 4999 + "1", "\u2028", "\x85", "\r",
        None, 0, 1, True, 1.5, [], {},
    ]
)
ODD_FIELDS = pool([None, True, 0, 1.5, "x", "$0", [], {}, [0], {"f": 1.0}])
NAMES = st.sampled_from(["a", "b", "c", "lm"])


@st.composite
def sentence_docs(draw) -> dict:
    """A valid sentence document over a small acyclic forest."""
    n = draw(st.integers(1, 4))
    edges = []
    for head in range(n):
        for _ in range(draw(st.integers(0 if head < n - 1 else 1, 2))):
            tails = draw(st.lists(st.integers(0, head - 1), max_size=2)) if head else []
            words = draw(st.lists(st.sampled_from(["w", "x", "$y", "a b"]), max_size=2))
            template = words + [f"${i}" for i in range(len(tails))]
            edges.append({
                "head": head,
                "tails": tails,
                "features": draw(st.dictionaries(NAMES, FEATURE_VALUES, max_size=3)),
                "yield": draw(st.permutations(template)),
            })
    nodes = list(range(n)) if draw(st.booleans()) else n
    reference = draw(pool(["w x", ["w", "x"], "a b", ""]))
    return {"id": "s", "nodes": nodes, "goal": n - 1, "edges": edges, "reference": reference}


def mutate(doc: dict, data, k: int) -> None:
    """One structural change to a document, in place.  Most go to an edge,
    most often edge k (modulo the edge count), so that changes meet in one
    edge."""
    kind = data.draw(st.sampled_from(
        3 * ["feature", "tail", "yield", "head"]
        + ["field", "edge-drop", "edge-add", "edge", "cycle", "doc", "drop", "add"]
    ))
    if kind == "doc":
        doc[data.draw(st.sampled_from(sorted(doc)))] = data.draw(ODD_FIELDS | NODE_IDS)
        return
    if kind == "drop":
        del doc[data.draw(st.sampled_from(sorted(doc)))]
        return
    if kind == "add":
        doc["extra"] = 1
        return
    edges = doc.get("edges")
    if not isinstance(edges, list) or not edges:
        return
    other = data.draw(st.sampled_from([False, False, False, True]))
    k = data.draw(st.integers(0, len(edges) - 1)) if other else k % len(edges)
    e = edges[k]
    if not isinstance(e, dict):
        return
    if kind == "edge":
        edges[k] = data.draw(ODD_FIELDS)
    elif kind == "edge-drop" and e:
        del e[data.draw(st.sampled_from(sorted(e)))]
    elif kind == "edge-add":
        e["weight"] = 1
    elif kind == "field":
        e[data.draw(st.sampled_from(["tails", "features", "yield"]))] = data.draw(ODD_FIELDS)
    elif kind == "cycle" and isinstance(e.get("tails"), list) and e["tails"]:
        e["tails"][0] = e.get("head")
    elif kind == "head":
        e["head"] = data.draw(NODE_IDS)
    elif kind == "tail" and isinstance(e.get("tails"), list):
        tails = e["tails"]
        i = data.draw(st.integers(0, len(tails)))
        tails[i:i + 1] = [data.draw(NODE_IDS)]
    elif kind == "feature" and isinstance(e.get("features"), dict):
        e["features"][data.draw(NAMES)] = data.draw(ODD_FEATURES | FEATURE_VALUES)
    elif kind == "yield" and isinstance(e.get("yield"), list):
        template = e["yield"]
        i = data.draw(st.integers(0, len(template)))
        template[i:i + 1] = [data.draw(ODD_TOKENS)]


def setup_outcome(load, text: str):
    try:
        return load(text)
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return type(exc), str(exc)


class TestSetUpMatchesTheReference:
    @given(st.data())
    @settings(max_examples=1000, deadline=None)
    def test_same_corpus_or_same_error(self, data) -> None:
        # Each document is valid until mutated; the same error, or equal
        # edges (feature values to the bit, with their types), in-edges,
        # validate reports and plans, must come from both.
        lines = []
        for _ in range(data.draw(st.integers(1, 2))):
            doc = data.draw(sentence_docs())
            k = data.draw(st.integers(0, 7))
            for _ in range(data.draw(st.sampled_from([0, 1, 1, 2, 3]))):
                mutate(doc, data, k)
            lines.append(json.dumps(doc, ensure_ascii=data.draw(st.booleans())))
        text = data.draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"
        got = setup_outcome(lambda t: setup_bits(loads_corpus(t)), text)
        assert got == setup_outcome(reference_setup, text)

    @pytest.mark.parametrize(
        "faults",
        [
            pair
            for pair in itertools.combinations(
                [
                    ("weight", 1),
                    ("head", True),
                    ("head", 3),
                    ("tails", [0, None]),
                    ("tails", [4]),
                    ("features", {"f": 1.0, "g": math.inf}),
                    ("features", {"f": 2, "g": False}),
                    ("yield", ["w", 3]),
                    ("yield", ["$" + "9" * 5000]),
                ],
                2,
            )
            if pair[0][0] != pair[1][0]
        ],
    )
    def test_first_of_two_faults_in_one_edge(self, faults) -> None:
        # The check order within an edge, which random mutations seldom
        # put to the test: both faults sit in the one edge.
        edge = {"head": 0, "tails": [], "features": {"f": 1.0}, "yield": ["w"]}
        edge.update(faults)
        text = doc_with(edges=[edge]) + "\n"
        got = setup_outcome(lambda t: setup_bits(loads_corpus(t)), text)
        assert got[0] is ForestFormatError
        assert got == setup_outcome(reference_setup, text)
