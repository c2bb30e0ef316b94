import json
from pathlib import Path

import pytest

from hullmert import cli
from hullmert.errors import MissingFeatureWarning

FIXTURES = Path(__file__).resolve().parent / "fixtures"

ONE_HYP = (
    '{"id": "only", "nodes": 1, "goal": 0, "edges": ['
    '{"head": 0, "tails": [], "features": {"tm": 1.0}, "yield": ["a"]}],'
    ' "reference": "a"}\n'
)

# Two hypotheses crossing at eta = -0.5 under tm0=0.5, v=(tm: 1):
# "a" scores eta + 0.5, "b" scores -eta - 0.5, and "a" is the reference.
TWO_HYP = (
    '{"id": "pair", "nodes": 1, "goal": 0, "edges": ['
    '{"head": 0, "tails": [], "features": {"tm": 1.0}, "yield": ["a"]},'
    '{"head": 0, "tails": [], "features": {"tm": -1.0}, "yield": ["b"]}],'
    ' "reference": "a"}\n'
)

CYCLIC = (
    '{"id": "loop", "nodes": 1, "goal": 0, "edges": ['
    '{"head": 0, "tails": [0], "features": {}, "yield": ["$0"]}],'
    ' "reference": ""}\n'
)

# Node 1 is the goal, but node 0 has no edge, so the goal derives nothing.
NO_GOAL = (
    '{"id": "void", "nodes": 2, "goal": 1, "edges": ['
    '{"head": 1, "tails": [0], "features": {"tm": 1.0}, "yield": ["$0"]}],'
    ' "reference": ""}\n'
)

# Both edges project finitely, but their crossing is -inf / inf under
# weights {a: 1, b: 1} and direction {a: 1, b: 0.5}.
NOT_FINITE = (
    '{"id":"s","nodes":2,"goal":1,"edges":['
    '{"head":0,"tails":[],"features":{},"yield":[]},'
    '{"head":1,"tails":[0],"features":{"a":1e308,"b":0},"yield":["$0","a"]},'
    '{"head":1,"tails":[0],"features":{"a":-1e308,"b":1},"yield":["$0","b"]}],'
    '"reference":"a"}\n'
)

OPTIMIZE_CORPUS = (
    '{"id": "s", "nodes": 1, "goal": 0, "edges": ['
    '{"head": 0, "tails": [], "features": {"tm": 1.0, "lm": 0.0}, "yield": ["good"]},'
    '{"head": 0, "tails": [], "features": {"tm": -1.0, "lm": 0.0}, "yield": ["bad"]}],'
    ' "reference": "good"}\n'
)


@pytest.fixture
def files(tmp_path):
    def write(name: str, content: str) -> str:
        p = tmp_path / name
        p.write_text(content, encoding="utf-8")
        return str(p)

    return write


def run_json(capsys, argv: list[str]) -> tuple[dict, int]:
    code = cli.run(argv)
    return json.loads(capsys.readouterr().out), code


class TestValidate:
    def test_single_edge_file(self, files, capsys) -> None:
        path = files("c.jsonl", ONE_HYP)
        doc, code = run_json(capsys, ["validate", path])
        assert code == 0 and doc["ok"]
        [s] = doc["sentences"]
        assert s["nodes"] == 1 and s["edges"] == 1 and s["derivations"] == 1
        assert doc["features"] == ["tm"]

    def test_cyclic_file_names_the_node(self, files, capsys) -> None:
        path = files("c.jsonl", CYCLIC)
        doc, code = run_json(capsys, ["validate", path])
        assert code == 2 and not doc["ok"]
        [s] = doc["sentences"]
        assert not s["ok"] and s["derivations"] is None
        assert any("node 0" in e for e in s["errors"])

    def test_goal_that_derives_nothing_is_an_error(self, files, capsys) -> None:
        path = files("c.jsonl", TWO_HYP + NO_GOAL)
        doc, code = run_json(capsys, ["validate", path])
        assert code == 2 and not doc["ok"]
        good, void = doc["sentences"]
        assert good["ok"] and void["id"] == "void"
        assert not void["ok"] and void["derivations"] == 0 and void["warnings"] == []
        assert void["errors"] == ["goal node 1 derives nothing (empty language)"]

    def test_missing_feature_defaults_with_warning(self, files, capsys) -> None:
        corpus = files("c.jsonl", TWO_HYP)
        weights = files("w.json", "{}")
        with pytest.warns(MissingFeatureWarning, match="tm"):
            doc, code = run_json(capsys, ["validate", corpus, "--weights", weights])
        assert code == 0

    def test_huge_forests_report_overflow(self, files, capsys) -> None:
        lines = ['{"head": 0, "tails": [], "features": {}, "yield": []}']
        for i in range(1, 15):
            for w in ("x", "y"):
                lines.append(
                    '{"head": %d, "tails": [%d], "features": {}, "yield": ["$0", "%s"]}'
                    % (i, i - 1, w)
                )
        doc_text = (
            '{"id": "big", "nodes": 15, "goal": 14, "edges": [%s], "reference": ""}\n'
            % ",".join(lines)
        )
        path = files("c.jsonl", doc_text)
        doc, code = run_json(capsys, ["validate", path])
        assert code == 0
        assert doc["sentences"][0]["derivations"] == "overflow"  # 2^14 > 10000


class TestLineSearch:
    def test_single_hypothesis_keeps_weights(self, files, capsys) -> None:
        corpus = files("c.jsonl", ONE_HYP)
        weights = files("w.json", '{"tm": 0.5}')
        direction = files("v.json", '{"tm": 1.0}')
        doc, code = run_json(
            capsys,
            ["linesearch", corpus, "--weights", weights, "--direction", direction],
        )
        assert code == 0
        assert doc["eta"] == 0 and doc["updated_weights"] == {"tm": 0.5}
        [s] = doc["sentences"]
        assert s["segments"][0]["lo"] == "-inf" and s["segments"][0]["hi"] == "inf"

    def test_hand_checked_two_hypothesis_report(self, files, capsys) -> None:
        corpus = files("c.jsonl", TWO_HYP)
        weights = files("w.json", '{"tm": 0.5}')
        direction = files("v.json", '{"tm": 1.0}')
        doc, code = run_json(
            capsys,
            ["linesearch", corpus, "--weights", weights, "--direction", direction],
        )
        assert code == 0
        assert doc["surface"]["boundaries"] == [-0.5]
        assert doc["surface"]["losses"] == [1, 0]
        assert doc["best_interval"] == 1
        assert doc["eta"] == pytest.approx(-0.4)
        assert doc["loss"] == 0
        assert doc["updated_weights"]["tm"] == pytest.approx(0.1)
        segs = doc["sentences"][0]["segments"]
        assert [s["yield"] for s in segs] == ["b", "a"]
        assert [s["slope"] for s in segs] == [-1, 1]
        assert [s["intercept"] for s in segs] == [-0.5, 0.5]

    def test_byte_identical_across_threads(self, files, capsys) -> None:
        corpus = files("c.jsonl", TWO_HYP + ONE_HYP.replace('"only"', '"second"'))
        weights = files("w.json", '{"tm": 0.5}')
        direction = files("v.json", '{"tm": 1.0}')
        outputs = []
        for threads in ("1", "3"):
            code = cli.run(
                ["linesearch", corpus, "--weights", weights,
                 "--direction", direction, "--threads", threads]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_empty_corpus_is_a_usage_error(self, files, capsys) -> None:
        corpus = files("c.jsonl", "")
        weights = files("w.json", '{"tm": 0.0}')
        code = cli.run(
            ["linesearch", corpus, "--weights", weights, "--direction", weights]
        )
        assert code == 1
        assert "no sentences" in capsys.readouterr().err

    def test_cyclic_sentence_reports_index_and_id(self, files, capsys) -> None:
        corpus = files("c.jsonl", TWO_HYP + CYCLIC)
        weights = files("w.json", '{"tm": 0.0}')
        code = cli.run(
            ["linesearch", corpus, "--weights", weights, "--direction", weights]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "sentence 1" in err and "'loop'" in err

    def test_internal_failures_exit_three(self, files, capsys, monkeypatch) -> None:
        corpus = files("c.jsonl", TWO_HYP)
        weights = files("w.json", '{"tm": 0.5}')

        def boom(*args, **kwargs):
            raise RuntimeError("fault injected by the test")

        monkeypatch.setattr(cli, "line_search", boom)
        code = cli.run(
            ["linesearch", corpus, "--weights", weights, "--direction", weights]
        )
        assert code == 3
        assert "internal error" in capsys.readouterr().err


class TestSweep:
    def test_flat_surface_emits_constant_column(self, files, capsys) -> None:
        corpus = files("c.jsonl", ONE_HYP)
        weights = files("w.json", '{"tm": 0.5}')
        direction = files("v.json", '{"tm": 1.0}')
        code = cli.run(
            ["sweep", corpus, "--weights", weights, "--direction", direction,
             "--range=-2:2", "--steps", "5"]
        )
        assert code == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 5
        assert {row.split("\t")[1] for row in rows} == {"0"}

    def test_single_jump_straddles_the_boundary(self, files, capsys) -> None:
        corpus = files("c.jsonl", TWO_HYP)
        weights = files("w.json", '{"tm": 0.5}')
        direction = files("v.json", '{"tm": 1.0}')
        code = cli.run(
            ["sweep", corpus, "--weights", weights, "--direction", direction,
             "--range=-2:2", "--steps", "5"]
        )
        assert code == 0
        rows = [r.split("\t") for r in capsys.readouterr().out.splitlines()]
        etas = [float(e) for e, _ in rows]
        losses = [float(l) for _, l in rows]
        assert etas == [-2.0, -1.0, 0.0, 1.0, 2.0]
        assert losses == [1.0, 1.0, 0.0, 0.0, 0.0]
        jumps = [
            (lo, hi)
            for lo, hi, a, b in zip(etas, etas[1:], losses, losses[1:])
            if a != b
        ]
        assert jumps == [(-1.0, 0.0)]  # the only jump straddles eta = -0.5

    def test_steps_one_reads_range_start(self, files, capsys) -> None:
        corpus = files("c.jsonl", TWO_HYP)
        weights = files("w.json", '{"tm": 0.5}')
        direction = files("v.json", '{"tm": 1.0}')
        code = cli.run(
            ["sweep", corpus, "--weights", weights, "--direction", direction,
             "--range=-3:9", "--steps", "1"]
        )
        assert code == 0
        assert capsys.readouterr().out == "-3\t1\n"

    @pytest.mark.parametrize(
        "extra",
        [
            ["--range=5:-5"],
            ["--range=abc"],
            ["--range=1:2:3"],
            ["--steps", "0"],
        ],
    )
    def test_invalid_grid_is_a_usage_error(self, files, capsys, extra) -> None:
        corpus = files("c.jsonl", TWO_HYP)
        weights = files("w.json", '{"tm": 0.5}')
        code = cli.run(
            ["sweep", corpus, "--weights", weights, "--direction", weights] + extra
        )
        assert code == 1

    @pytest.mark.parametrize("grid", ["-1e308:1e308", "-inf:inf", "nan:1"])
    def test_range_without_finite_width_is_a_usage_error(self, files, capsys, grid) -> None:
        corpus = files("c.jsonl", TWO_HYP)
        weights = files("w.json", '{"tm": 0.5}')
        code = cli.run(
            ["sweep", corpus, "--weights", weights, "--direction", weights,
             f"--range={grid}", "--steps", "3"]
        )
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("usage error: range "), err
        assert "finite width" in err


class TestOptimize:
    def test_zero_iterations_echo_weights(self, files, capsys) -> None:
        corpus = files("c.jsonl", OPTIMIZE_CORPUS)
        weights = files("w.json", '{"tm": -1.0, "lm": 0.0}')
        doc, code = run_json(
            capsys,
            ["optimize", corpus, "--weights", weights, "--iterations", "0"],
        )
        assert code == 0
        assert doc["final_weights"] == doc["initial_weights"]
        assert doc["trace"] == [] and doc["iterations_run"] == 0
        assert doc["final_loss"] == doc["initial_loss"] == 1

    def test_axis_sweep_fixes_the_sign(self, files, capsys) -> None:
        corpus = files("c.jsonl", OPTIMIZE_CORPUS)
        weights = files("w.json", '{"tm": -1.0, "lm": 0.0}')
        doc, code = run_json(
            capsys,
            ["optimize", corpus, "--weights", weights, "--iterations", "3"],
        )
        assert code == 0
        assert doc["initial_loss"] == 1 and doc["final_loss"] == 0
        [step] = doc["trace"]
        assert step["direction"] == "tm" and step["loss"] == 0
        assert doc["final_weights"]["tm"] > 0
        assert doc["iterations_run"] == 2

    def test_identical_hypotheses_converge_immediately(self, files, capsys) -> None:
        corpus = files("c.jsonl", ONE_HYP)
        weights = files("w.json", '{"tm": 2.0}')
        doc, code = run_json(
            capsys,
            ["optimize", corpus, "--weights", weights, "--iterations", "5"],
        )
        assert code == 0
        assert doc["trace"] == [] and doc["iterations_run"] == 1
        assert doc["final_loss"] == doc["initial_loss"] == 0


class TestVerify:
    def test_reports_per_sentence_agreement(self, files, capsys) -> None:
        corpus = files("c.jsonl", TWO_HYP + ONE_HYP.replace('"only"', '"o2"'))
        weights = files("w.json", '{"tm": 0.5}')
        direction = files("v.json", '{"tm": 1.0}')
        doc, code = run_json(
            capsys,
            ["verify", corpus, "--weights", weights, "--direction", direction],
        )
        assert code == 0 and doc["ok"]
        assert [s["segments"] for s in doc["sentences"]] == [2, 1]
        assert doc["sentences"][0]["boundaries"] == [-0.5]

    def test_disagreement_exits_three(self, files, capsys, monkeypatch) -> None:
        corpus = files("c.jsonl", TWO_HYP)
        weights = files("w.json", '{"tm": 0.5}')

        from hullmert.oracle import DualityReport

        monkeypatch.setattr(
            cli,
            "duality_report",
            lambda *a, **k: DualityReport(False, 1, (), 1.0, 0.0),
        )
        doc, code = run_json(
            capsys, ["verify", corpus, "--weights", weights, "--direction", weights]
        )
        assert code == 3 and not doc["ok"]


# Search flags per command, with values outside each flag's range.
SEARCH_FLAGS = {
    "linesearch": ("--merge-eps", "--threads"),
    "sweep": ("--merge-eps", "--threads"),
    "optimize": ("--merge-eps", "--iterations", "--threads"),
}
OUT_OF_RANGE = {
    "--merge-eps": ("-1e-9", "nan"),
    "--iterations": ("-1",),
    "--threads": ("0",),
}
LEGAL_EDGES = {
    "--merge-eps": ("0", "inf"),
    "--iterations": ("0",),
    "--threads": ("1",),
}


def flag_cases(values: dict) -> list:
    return [
        (command, flag, value)
        for command, flags in SEARCH_FLAGS.items()
        for flag in flags
        for value in values[flag]
    ]


def search_argv(files, command: str, flag: str, value: str) -> list[str]:
    corpus = files("c.jsonl", TWO_HYP)
    weights = files("w.json", '{"tm": 0.5}')
    argv = [command, corpus, "--weights", weights, f"{flag}={value}"]
    if command != "optimize":
        argv += ["--direction", files("v.json", '{"tm": 1.0}')]
    return argv


class TestArgumentHandling:
    def test_missing_required_flag(self, files, capsys) -> None:
        corpus = files("c.jsonl", TWO_HYP)
        assert cli.run(["linesearch", corpus]) == 1

    def test_unknown_command(self, capsys) -> None:
        assert cli.run(["frobnicate"]) == 1

    def test_unknown_metric(self, files, capsys) -> None:
        corpus = files("c.jsonl", TWO_HYP)
        weights = files("w.json", '{"tm": 0.5}')
        code = cli.run(
            ["linesearch", corpus, "--weights", weights,
             "--direction", weights, "--metric", "wer"]
        )
        assert code == 1

    @pytest.mark.parametrize("command, flag, value", flag_cases(OUT_OF_RANGE))
    def test_out_of_range_flag_is_a_usage_error(self, files, capsys, command, flag, value) -> None:
        assert cli.run(search_argv(files, command, flag, value)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage error: {flag[2:]} must be "), err

    @pytest.mark.parametrize("command, flag, value", flag_cases(LEGAL_EDGES))
    def test_legal_edge_flag_runs(self, files, capsys, command, flag, value) -> None:
        assert cli.run(search_argv(files, command, flag, value)) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("linesearch", "--offset", "0.1"),
            ("optimize", "--offset", "0.1"),
            ("verify", "--metric", "bleu"),
            ("verify", "--merge-eps", "-1"),
            ("verify", "--threads", "0"),
        ],
    )
    def test_flag_the_command_does_not_take_is_a_usage_error(
        self, files, capsys, command, flag, value
    ) -> None:
        # An eta's place in its interval is not a setting, and verify runs
        # no corpus search, so it takes no search flags.
        assert cli.run(search_argv(files, command, flag, value)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error: "), err

    def test_missing_file_is_a_data_error(self, tmp_path, capsys) -> None:
        missing = str(tmp_path / "nope.jsonl")
        assert cli.run(["validate", missing]) == 2

    def test_bleu_metric_accepted(self, files, capsys) -> None:
        corpus = files("c.jsonl", TWO_HYP)
        weights = files("w.json", '{"tm": 0.5}')
        direction = files("v.json", '{"tm": 1.0}')
        doc, code = run_json(
            capsys,
            ["linesearch", corpus, "--weights", weights,
             "--direction", direction, "--metric", "bleu"],
        )
        assert code == 0 and doc["metric"] == "bleu"
        assert doc["loss"] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("command", ["linesearch", "sweep", "optimize"])
    def test_overflowing_sentence_reports_index_and_id(self, files, capsys, command) -> None:
        # lm = 1.7e308 projects each fixture edge finitely, but the
        # 'lattice' sentence adds two of them and overflows.  Along tm the
        # 'three-way' sentence's one crossing, at 1.7e308, stays finite.
        corpus = str(FIXTURES / "corpus.jsonl")
        weights = files("w.json", '{"lm": 1.7e308, "tm": 0}')
        direction = files("v.json", '{"lm": 0.0, "tm": 1.0}')
        argv = [command, corpus, "--weights", weights]
        if command != "optimize":
            argv += ["--direction", direction]
        code = cli.run(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: sentence 1 (id 'lattice'): "), err
        assert "non-finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["linesearch", "sweep", "optimize"])
    def test_sentence_with_a_crossing_that_is_not_finite_is_named(
        self, files, capsys, command
    ) -> None:
        corpus = files("c.jsonl", NOT_FINITE)
        argv = [command, corpus, "--weights", files("w.json", '{"a": 1, "b": 1}')]
        if command != "optimize":
            argv += ["--direction", files("v.json", '{"a": 1, "b": 0.5}')]
        assert cli.run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("data error: sentence 0 (id 's'): "), err
        assert "not finite" in err

    @pytest.mark.parametrize("command", ["linesearch", "sweep", "optimize", "verify"])
    @pytest.mark.parametrize(
        "text, idx, sid, weights, direction",
        [
            (TWO_HYP + CYCLIC, 1, "loop", '{"tm": 0.5}', '{"tm": 1.0}'),
            (TWO_HYP + NO_GOAL, 1, "void", '{"tm": 0.5}', '{"tm": 1.0}'),
            (NOT_FINITE, 0, "s", '{"a": 1, "b": 1}', '{"a": 1, "b": 0.5}'),
        ],
        ids=["cyclic", "goal-derives-nothing", "crossing-not-finite"],
    )
    def test_every_command_names_a_bad_sentence_the_same_way(
        self, files, capsys, command, text, idx, sid, weights, direction
    ) -> None:
        argv = [command, files("c.jsonl", text), "--weights", files("w.json", weights)]
        if command != "optimize":
            argv += ["--direction", files("v.json", direction)]
        assert cli.run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"data error: sentence {idx} (id '{sid}'): "), err
