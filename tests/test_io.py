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
        ],
        ids=["first-line", "after-a-blank-line", "cut-sequence"],
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
