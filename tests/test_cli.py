import json
import os
import subprocess
import sys
import time
import tokenize
import typing
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from onlinefair import _online, _search, cli
from onlinefair.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"
TRACE_ENTRY = SRC.parent / "perfbench" / "trace_entry.py"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*argv, timeout=30, stdout=subprocess.PIPE, env=None):
    """Run a fresh interpreter on the package sources, under the default
    budget; ``env`` sets variables, and a value of None unsets one."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "ONLINEFAIR_BUDGET": None,
           **(env or {})}
    return subprocess.run([sys.executable, *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=timeout,
                          env={k: v for k, v in env.items() if v is not None})


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def pair_instance(tmp_path):
    data = {
        "agents": 2,
        "items": 2,
        "utilities": [["1", "1"], ["1", "1"]],
        "arrival": {"type": "order", "order": [1, 2]},
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def witness_instance(tmp_path):
    data = {
        "agents": 3,
        "items": 3,
        "utilities": [["0", "1", "0"], ["1", "0", "1"], ["1", "1", "1"]],
        "arrival": {"type": "order", "order": [1, 2, 3]},
    }
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def six_agent_instance(tmp_path):
    """Six agents who want every item, three items each arriving at every
    moment with probability 1/3."""
    data = {
        "agents": 6,
        "items": 3,
        "utilities": [["1", "1", "1"]] * 6,
        "arrival": {"type": "distribution", "matrix": [["1/3"] * 3] * 3},
    }
    path = tmp_path / "six.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestOutcome:
    def test_exact_utility(self, capsys, pair_instance):
        out = run_json(capsys, "outcome", pair_instance, "--query", "exact",
                       "--mechanism", "balanced-like", "--agent", "1")
        assert out["value"] == "1"
        assert out["method"] == "dp"
        assert out["expected_utility"] == ["1", "1"]

    def test_exact_item_probability(self, capsys, pair_instance):
        out = run_json(capsys, "outcome", pair_instance, "--query", "exact",
                       "--mechanism", "balanced-like", "--agent", "1",
                       "--item", "2")
        assert out["value"] == "1/2"
        assert out["item"] == 2

    def test_necessary(self, capsys, pair_instance):
        out = run_json(capsys, "outcome", pair_instance, "--query", "necessary",
                       "--mechanism", "like", "--agent", "1",
                       "--threshold", "1")
        assert out["answer"] is True
        out = run_json(capsys, "outcome", pair_instance, "--query", "necessary",
                       "--mechanism", "like", "--agent", "1",
                       "--threshold", "3/2")
        assert out["answer"] is False

    def test_necessary_needs_threshold(self, capsys, pair_instance):
        code, _, err = run_cli(capsys, "outcome", pair_instance, "--query",
                               "necessary", "--mechanism", "like", "--agent", "1")
        assert code == 2
        assert "threshold" in err

    def test_float_threshold_rejected(self, capsys, pair_instance):
        code, _, err = run_cli(capsys, "outcome", pair_instance, "--query",
                               "necessary", "--mechanism", "like",
                               "--agent", "1", "--threshold", "0.5")
        assert code == 2

    @pytest.mark.parametrize("item", ["2", "9"])
    def test_necessary_rejects_item(self, capsys, witness_instance, item):
        # a necessary query is about the agent's utility, so an item, in range
        # or not, is an input error rather than silently ignored
        code, out, err = run_cli(capsys, "outcome", witness_instance, "--query",
                                 "necessary", "--mechanism", "like", "--agent", "1",
                                 "--threshold", "1/2", "--item", item)
        assert code == 2 and out == ""
        assert "--item is not supported for --query necessary" in err

    @pytest.mark.parametrize("query", [("exact",), ("exact", "--item", "2"),
                                       ("possible",), ("possible", "--item", "2")])
    def test_threshold_only_for_necessary(self, capsys, pair_instance, query):
        code, out, err = run_cli(capsys, "outcome", pair_instance, "--query", *query,
                                 "--mechanism", "like", "--agent", "1",
                                 "--threshold", "9/2")
        assert code == 2 and out == ""
        assert f"--threshold is not supported for --query {query[0]}" in err

    def test_possible(self, capsys, witness_instance):
        out = run_json(capsys, "outcome", witness_instance, "--query",
                       "possible", "--mechanism", "balanced-like", "--agent", "1")
        assert out["answer"] is True
        out = run_json(capsys, "outcome", witness_instance, "--query",
                       "possible", "--mechanism", "like", "--agent", "1",
                       "--item", "1")
        assert out["answer"] is False

    @pytest.mark.parametrize("agent, item, answer", [
        ("1", "1", False), ("2", "1", True), ("1", "2", True), ("2", "2", False)])
    def test_possible_item_with_prefix(self, capsys, pair_instance, tmp_path,
                                       agent, item, answer):
        # item 1 went to agent 2, so only agent 1, holding less, can win item 2
        prefix = {"arrived": [1], "bundles": [[], [1]], "probability": "1/2"}
        path = tmp_path / "prefix.json"
        path.write_text(json.dumps(prefix))
        out = run_json(capsys, "outcome", pair_instance, "--query", "possible",
                       "--mechanism", "balanced-like", "--agent", agent,
                       "--item", item, "--prefix", str(path))
        assert out["answer"] is answer

    @pytest.mark.parametrize("prefix, message", [
        ({"arrived": [0], "bundles": [[], [], []]}, "item 0 outside 1..3"),
        ({"arrived": [1, 2, 3], "bundles": [[4], [], []]}, "item 4 outside 1..3"),
    ])
    def test_prefix_items_are_one_based(self, capsys, witness_instance,
                                        tmp_path, prefix, message):
        path = tmp_path / "prefix.json"
        path.write_text(json.dumps(prefix))
        code, out, err = run_cli(capsys, "outcome", witness_instance, "--query",
                                 "exact", "--mechanism", "balanced-like",
                                 "--agent", "1", "--prefix", str(path))
        assert code == 2
        assert out == ""
        assert message in err

    def test_exact_with_prefix(self, capsys, monkeypatch, pair_instance, tmp_path):
        # one owner-level step, with one check of the prefix, gives both the
        # next-item probabilities and the utilities
        calls = []
        for name in ("states_after", "check_prefix"):
            real = getattr(_online, name)
            monkeypatch.setattr(_online, name, lambda *args, real=real, name=name:
                                calls.append(name) or real(*args))
        prefix = {"arrived": [1], "bundles": [[1], []], "probability": "1/2"}
        path = tmp_path / "prefix.json"
        path.write_text(json.dumps(prefix))
        out = run_json(capsys, "outcome", pair_instance, "--query", "exact",
                       "--mechanism", "balanced-like", "--agent", "1",
                       "--prefix", str(path))
        assert out["method"] == "online"
        assert out["value"] == "1"
        assert out["expected_utility"] == ["1", "1"]
        assert out["next_item_probability"] == ["0", "1"]
        assert sorted(calls) == ["check_prefix", "states_after"]

    @pytest.mark.parametrize("command", [
        ("outcome", "--query", "exact", "--agent", "1"),
        ("sample", "--samples", "200", "--seed", "4"),
    ])
    def test_prefix_probability_changes_no_answer(self, capsys, pair_instance,
                                                  tmp_path, command):
        # answers are conditional on the prefix, so its probability is
        # validated but never multiplied in
        outputs = []
        for extra in ({}, {"probability": "1/2"}):
            path = tmp_path / "prefix.json"
            path.write_text(json.dumps({"arrived": [1], "bundles": [[1], []], **extra}))
            code, out, err = run_cli(capsys, command[0], pair_instance, *command[1:],
                                     "--mechanism", "like", "--prefix", str(path))
            assert code == 0, err
            outputs.append(out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", [
        ("outcome", "--query", "exact", "--agent", "1"),
        ("sample", "--samples", "200", "--seed", "4"),
    ])
    def test_prefix_bundle_lists_each_item_once(self, capsys, pair_instance,
                                                tmp_path, command):
        # within one bundle or across two, the repeated item is named 1-based
        path = tmp_path / "prefix.json"
        for bundles, item in ([[2, 2], [1]], 2), ([[1], [1]], 1):
            path.write_text(json.dumps({"arrived": [1, 2], "bundles": bundles}))
            code, out, err = run_cli(capsys, command[0], pair_instance, *command[1:],
                                     "--mechanism", "like", "--prefix", str(path))
            assert code == 2 and out == ""
            assert err == f"error: the prefix bundles list item {item} twice\n"

    def test_agent_out_of_range(self, capsys, pair_instance):
        code, _, err = run_cli(capsys, "outcome", pair_instance, "--query",
                               "exact", "--mechanism", "like", "--agent", "3")
        assert code == 2
        assert "agent" in err


class TestManipulate:
    def test_exact_mode(self, capsys, witness_instance, tmp_path):
        deviation = tmp_path / "dev.json"
        deviation.write_text(json.dumps(["0", "1", "1"]))
        out = run_json(capsys, "manipulate", witness_instance, "--mode", "exact",
                       "--agent", "3", "--deviation", str(deviation))
        assert out["sincere_utility"] == "9/8"
        assert out["deviated_utility"] == "5/4"
        assert out["gain"] == "1/8"

    def test_explicit_sincere_row(self, capsys, witness_instance, tmp_path):
        deviation = tmp_path / "dev.json"
        deviation.write_text(json.dumps(
            {"bids": ["0", "1", "1"], "sincere": ["0", "1", "1"]}))
        out = run_json(capsys, "manipulate", witness_instance, "--mode", "exact",
                       "--agent", "3", "--deviation", str(deviation))
        assert out["gain"] == "0"

    def test_necessary_mode(self, capsys, witness_instance, tmp_path):
        deviation = tmp_path / "dev.json"
        deviation.write_text(json.dumps(["0", "1", "1"]))
        out = run_json(capsys, "manipulate", witness_instance, "--mode",
                       "necessary", "--agent", "3", "--deviation",
                       str(deviation), "--threshold", "1/8")
        assert out["answer"] is True
        out = run_json(capsys, "manipulate", witness_instance, "--mode",
                       "necessary", "--agent", "3", "--deviation",
                       str(deviation), "--threshold", "1/8", "--strict")
        assert out["answer"] is False

    def test_empty_threshold_rejected(self, capsys, witness_instance, tmp_path):
        # an empty --threshold is no rational, here as for outcome --query necessary
        deviation = tmp_path / "dev.json"
        deviation.write_text(json.dumps(["0", "1", "1"]))
        for argv in (("manipulate", witness_instance, "--mode", "necessary",
                      "--deviation", str(deviation)),
                     ("outcome", witness_instance, "--query", "necessary",
                      "--mechanism", "balanced-like")):
            code, out, err = run_cli(capsys, *argv, "--agent", "3", "--threshold", "")
            assert code == 2 and out == ""
            assert "not an exact rational literal: ''" in err

    def test_best_response(self, capsys, witness_instance):
        out = run_json(capsys, "manipulate", witness_instance, "--mode",
                       "best-response", "--agent", "3")
        assert out["best_response_row"] == ["0", "1", "1"]
        assert out["gain"] == "1/8"

    def test_strategyproof(self, capsys, witness_instance):
        out = run_json(capsys, "manipulate", witness_instance, "--mode",
                       "strategyproof", "--mechanism", "like")
        assert out["answer"] is True
        out = run_json(capsys, "manipulate", witness_instance, "--mode",
                       "strategyproof", "--mechanism", "balanced-like")
        assert out["answer"] is False

    @pytest.mark.parametrize("mode", ["exact", "best-response", "strategyproof"])
    @pytest.mark.parametrize("flags", [("--threshold", "5"), ("--strict",)])
    def test_gain_flags_only_for_necessary(self, capsys, witness_instance, tmp_path,
                                           mode, flags):
        deviation = tmp_path / "dev.json"
        deviation.write_text(json.dumps(["0", "1", "1"]))
        code, out, err = run_cli(capsys, "manipulate", witness_instance, "--mode", mode,
                                 "--agent", "3", "--deviation", str(deviation), *flags)
        assert code == 2 and out == ""
        assert f"{flags[0]} is not supported for --mode {mode}" in err

    @pytest.mark.parametrize("mode, flags, message", [
        ("best-response", ("--agent", "1", "--deviation", "DEV"),
         "--deviation is not supported for --mode best-response"),
        ("strategyproof", ("--deviation", "DEV"),
         "--deviation is not supported for --mode strategyproof"),
        ("strategyproof", ("--agent", "2"),
         "--agent is not supported for --mode strategyproof"),
    ], ids=["best-response --deviation", "strategyproof --deviation",
            "strategyproof --agent"])
    def test_agent_and_deviation_only_where_read(self, capsys, witness_instance,
                                                 tmp_path, mode, flags, message):
        deviation = tmp_path / "dev.json"
        deviation.write_text(json.dumps(["0", "1", "1"]))
        flags = [str(deviation) if flag == "DEV" else flag for flag in flags]
        code, out, err = run_cli(capsys, "manipulate", witness_instance, "--mode",
                                 mode, *flags)
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize("mode", ["exact", "necessary", "best-response",
                                      "strategyproof"])
    def test_max_items_is_a_usage_error(self, capsys, witness_instance, tmp_path,
                                        mode):
        # the budget alone bounds a search: the item cap and its flag are gone
        deviation = tmp_path / "dev.json"
        deviation.write_text(json.dumps(["0", "1", "1"]))
        flags = {"strategyproof": [], "best-response": ["--agent", "3"]}.get(
            mode, ["--agent", "3", "--deviation", str(deviation)])
        with pytest.raises(SystemExit) as stop:
            main(["manipulate", witness_instance, "--mode", mode, *flags,
                  "--max-items", "12"])
        assert stop.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --max-items 12" in captured.err

    @pytest.mark.parametrize("mode", ["best-response", "strategyproof"])
    def test_search_refuses_rows_over_budget(self, capsys, monkeypatch,
                                             witness_instance, mode):
        # 2^3 rows: budget 7 refuses before the arrival plan is built, and
        # budget 8 answers as the default budget does
        agent = ["--agent", "3"] if mode == "best-response" else []
        argv = ["manipulate", witness_instance, "--mode", mode, *agent]
        expected = run_json(capsys, *argv)
        def no_plan(*_args):
            raise AssertionError("the search started")
        with monkeypatch.context() as patch:
            patch.setattr(_search, "_plan", no_plan)
            patch.setenv("ONLINEFAIR_BUDGET", "7")
            code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == "budget exceeded: best-response search needs 2^3 rows (budget 7)\n"
        monkeypatch.setenv("ONLINEFAIR_BUDGET", "8")
        assert run_json(capsys, *argv) == expected

    @pytest.mark.parametrize("mode", ["best-response", "strategyproof"])
    def test_like_answers_past_the_row_budget(self, capsys, tmp_path, mode):
        # Like is strategyproof: at m = 25 the 2^25 rows outnumber the default
        # budget, and the search answers anyway, with the sincere row
        rows = [["1"] * 25, ["0", "1"] * 12 + ["1"], ["2"] + ["0"] * 24]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "agents": 3, "items": 25, "utilities": rows,
            "arrival": {"type": "order", "order": list(range(25, 0, -1))}}))
        agent = ["--agent", "2"] if mode == "best-response" else []
        out = run_json(capsys, "manipulate", str(path), "--mode", mode,
                       "--mechanism", "like", *agent)
        if mode == "strategyproof":
            assert out["answer"] is True
        else:
            assert (out["best_response_row"], out["gain"]) == (rows[1], "0")
        # Balanced Like, the default mechanism, still refuses the 2^25 rows
        code, stdout, err = run_cli(capsys, "manipulate", str(path), "--mode", mode,
                                    *agent)
        assert (code, stdout) == (3, "")
        assert err == ("budget exceeded: best-response search needs 2^25 rows "
                       "(budget 1000000)\n")

    def test_missing_deviation_file(self, capsys, witness_instance):
        code, _, err = run_cli(capsys, "manipulate", witness_instance,
                               "--mode", "exact", "--agent", "3")
        assert code == 2
        assert "deviation" in err


class TestGenerate:
    def test_reduction1_round_trip(self, capsys, tmp_path):
        payload = run_json(capsys, "generate", "--kind", "reduction1",
                           "--graph-name", "c4")
        path = tmp_path / "r1.json"
        path.write_text(json.dumps(payload))
        out = run_json(capsys, "outcome", str(path), "--query", "exact",
                       "--mechanism", "balanced-like", "--agent", "1")
        assert out["value"] == "1/2"

    def test_reduction2_round_trip(self, capsys, tmp_path):
        payload = run_json(capsys, "generate", "--kind", "reduction2",
                           "--graph-name", "k33")
        assert payload["agents"] == 10 and payload["items"] == 11
        path = tmp_path / "r2.json"
        path.write_text(json.dumps(payload))
        out = run_json(capsys, "outcome", str(path), "--query", "exact",
                       "--mechanism", "balanced-like", "--agent", "10")
        assert out["value"] == "46/45"

    def test_reduction2_manip_shape(self, capsys):
        payload = run_json(capsys, "generate", "--kind", "reduction2-manip",
                           "--graph-name", "k33")
        assert payload["agents"] == 10 and payload["items"] == 12

    def test_reduction3_round_trip(self, capsys, tmp_path):
        payload = run_json(capsys, "generate", "--kind", "reduction3",
                           "--graph-name", "c6", "-r", "3")
        assert payload["agents"] == 10 and payload["items"] == 10
        path = tmp_path / "r3.json"
        path.write_text(json.dumps(payload))
        out = run_json(capsys, "outcome", str(path), "--query", "exact",
                       "--mechanism", "balanced-like", "--agent", "10",
                       "--item", "10")
        assert out["value"] == "1/4"

    def test_reduction3_needs_r(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--kind", "reduction3",
                               "--graph-name", "c6")
        assert code == 2

    def test_subset_payload(self, capsys, tmp_path):
        payload = run_json(capsys, "generate", "--kind", "subset",
                           "--values", "1,2", "-b", "3", "-c", "2")
        assert payload["threshold"] == "3/8"
        assert payload["subset_exists"] is True
        path = tmp_path / "subset.json"
        path.write_text(json.dumps(payload))
        out = run_json(capsys, "outcome", str(path), "--query", "necessary",
                       "--mechanism", "like", "--agent", "1",
                       "--threshold", payload["threshold"])
        assert out["answer"] is True

    @pytest.mark.parametrize("command, kind", [("generate", "subset"),
                                               ("oracle", "subset-sum")])
    @pytest.mark.parametrize("missing", ["--values", "-b", "-c"])
    def test_subset_flags_required(self, capsys, command, kind, missing):
        flags = {"--values": "1,2", "-b": "3", "-c": "2"}
        del flags[missing]
        argv = [command, "--kind", kind]
        for flag, value in flags.items():
            argv += [flag, value]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert missing in err

    def test_random_round_trip(self, capsys, tmp_path):
        payload = run_json(capsys, "generate", "--kind", "random",
                           "-n", "2", "-m", "3", "--seed", "11",
                           "--arrival", "distribution")
        path = tmp_path / "rand.json"
        path.write_text(json.dumps(payload))
        out = run_json(capsys, "outcome", str(path), "--query", "exact",
                       "--mechanism", "like", "--agent", "1")
        assert "value" in out

    def test_random_reads_budget(self, capsys, monkeypatch):
        # 3 x 6 utilities plus a 6 x 6 arrival matrix
        monkeypatch.setenv("ONLINEFAIR_BUDGET", "10")
        code, out, err = run_cli(capsys, "generate", "--kind", "random", "-n", "3",
                                 "-m", "6", "--arrival", "distribution")
        assert code == 3 and out == ""
        assert err.rstrip().endswith("54 cells (budget 10)")

    def test_graph_file_input(self, capsys, tmp_path):
        graph = {"left": 2, "right": 2,
                 "edges": [[1, 1], [1, 2], [2, 1], [2, 2]]}
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph))
        payload = run_json(capsys, "generate", "--kind", "reduction1",
                           "--graph", str(path))
        assert payload["agents"] == 2

    @pytest.mark.parametrize("kind, flags", [
        ("reduction2", ("--graph-name", "k33", "-r", "3")),
        ("reduction2", ("--graph-name", "k33", "--seed", "5")),
        ("reduction2", ("--graph-name", "k33", "--seed", "0")),
        ("reduction1", ("--graph-name", "c4", "-n", "0")),
        ("reduction3", ("--graph-name", "c4", "-r", "1", "--values", "1,2")),
        ("reduction2-manip", ("--graph-name", "k33", "--full-support")),
        ("subset", ("--values", "1,2", "-b", "3", "-c", "2", "--graph-name", "c4")),
        ("random", ("--graph-name", "c4",)),
        ("random", ("--arrival", "order", "-r", "0")),
    ])
    def test_refuses_flags_the_kind_never_reads(self, capsys, kind, flags):
        code, out, err = run_cli(capsys, "generate", "--kind", kind, *flags)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith("error: ") and f"is not supported for --kind {kind}" in err

    def test_random_defaults(self, capsys):
        payload = run_json(capsys, "generate", "--kind", "random")
        assert payload == run_json(capsys, "generate", "--kind", "random", "-n", "3",
                                   "-m", "4", "--seed", "0", "--arrival", "order",
                                   "--utility-kind", "binary")
        assert (payload["agents"], payload["items"]) == (3, 4)

    def test_unknown_graph_name_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "--kind", "reduction1", "--graph-name", "nope"])


class TestOracle:
    def test_count_pm(self, capsys):
        for name, count in (("k33", 6), ("cube", 9), ("k55-minus-c10", 13),
                            ("c4", 2), ("c6", 2)):
            out = run_json(capsys, "oracle", "--kind", "count-pm",
                           "--graph-name", name)
            assert out["answer"] == count

    def test_min_maximal(self, capsys):
        out = run_json(capsys, "oracle", "--kind", "min-maximal",
                       "--graph-name", "c6")
        assert out["answer"] == 2

    @pytest.mark.parametrize("kind, graph, budget", [("count-pm", "k33", "4"),
                                                     ("min-maximal", "c6", "1")])
    def test_reads_budget(self, capsys, monkeypatch, kind, graph, budget):
        monkeypatch.setenv("ONLINEFAIR_BUDGET", budget)
        code, _, err = run_cli(capsys, "oracle", "--kind", kind,
                               "--graph-name", graph)
        assert code == 3
        assert err.rstrip().endswith(f"(budget {budget})")

    @pytest.mark.parametrize("argv, budget, tail", [
        (("oracle", "--kind", "min-maximal", "--graph", "K32_32"), "10000",
         "walked 10001 nodes"),
        (("oracle", "--kind", "subset-sum", "--values", "POWERS", "-b", "3",
          "-c", "8"), "1000", "after 10 of 15 values"),
        (("generate", "--kind", "subset", "--values", "POWERS", "-b", "3",
          "-c", "8"), "1000", "after 10 of 15 values"),
    ], ids=["min-maximal", "subset-sum", "generate-subset"])
    def test_reads_budget_on_large_inputs(self, capsys, monkeypatch, tmp_path,
                                          argv, budget, tail):
        # K32,32 has 1,024 edges, one search level each; every subset of
        # 2^0..2^14 has its own sum, so the subset-sum table holds one pair
        # per subset of at most 8 values: 511 after 9 values, 1,013 after 10
        path = tmp_path / "k32.json"
        path.write_text(json.dumps({"left": 32, "right": 32, "edges": [
            [a, b] for a in range(1, 33) for b in range(1, 33)]}))
        files = {"K32_32": str(path),
                 "POWERS": ",".join(str(2 ** k) for k in range(15))}
        monkeypatch.setenv("ONLINEFAIR_BUDGET", budget)
        code, _, err = run_cli(capsys, *(files.get(a, a) for a in argv))
        assert code == 3
        assert err.rstrip().endswith(f"{tail} (budget {budget})")

    def test_count_pm_refuses_wide_graph(self, tmp_path):
        # a fresh process with a timeout: an unbudgeted loop over 2^64
        # column subsets would never end
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps({"left": 64, "right": 64, "edges": []}))
        result = run_python("-m", "onlinefair.cli", "oracle", "--kind",
                            "count-pm", "--graph", str(path))
        assert result.returncode == 3, result.stderr
        assert "2^64" in result.stderr

    def test_subset_sum(self, capsys):
        out = run_json(capsys, "oracle", "--kind", "subset-sum",
                       "--values", "1,2,3", "-b", "5", "-c", "2")
        assert out["answer"] is True
        out = run_json(capsys, "oracle", "--kind", "subset-sum",
                       "--values", "1,2,3", "-b", "7", "-c", "2")
        assert out["answer"] is False

    def test_subset_sum_grows_only_pairs_below_c(self, capsys):
        # 2^30 subsets, but only 1 + 30 + 435 pairs of cardinality at most 2
        powers = ",".join(str(2 ** k) for k in range(30))
        out = run_json(capsys, "oracle", "--kind", "subset-sum",
                       "--values", powers, "-b", "3", "-c", "2")
        assert out["answer"] is True

    @pytest.mark.parametrize("kind, flags", [
        ("count-pm", ("--graph-name", "k33", "--values", "1,2", "-b", "3")),
        ("count-pm", ("--graph-name", "k33", "-c", "0")),
        ("min-maximal", ("--graph-name", "c6", "-b", "3")),
        ("subset-sum", ("--values", "1,2", "-b", "3", "-c", "2", "--graph-name", "k33")),
        ("subset-sum", ("--values", "1,2", "-b", "3", "-c", "2", "--graph", "g.json")),
    ])
    def test_refuses_flags_the_kind_never_reads(self, capsys, kind, flags):
        code, out, err = run_cli(capsys, "oracle", "--kind", kind, *flags)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith("error: ") and f"is not supported for --kind {kind}" in err


class TestGraphOptions:
    """``--graph`` and ``--graph-name`` exclude each other wherever they are
    read; either alone answers."""

    KINDS = [("generate", "reduction1"), ("oracle", "count-pm")]

    @pytest.fixture
    def graph(self, tmp_path):
        """A 2+2 graph with one perfect matching."""
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"left": 2, "right": 2, "edges": [[1, 1], [2, 2]]}))
        return str(path)

    @pytest.mark.parametrize("command, kind", KINDS)
    @pytest.mark.parametrize("path", ["FILE", ""])
    @pytest.mark.parametrize("name_first", [False, True])
    def test_both_are_a_usage_error(self, capsys, graph, command, kind, path,
                                    name_first):
        flags = ["--graph", graph if path else ""]
        flags = (["--graph-name", "k33", *flags] if name_first
                 else [*flags, "--graph-name", "k33"])
        with pytest.raises(SystemExit) as stop:
            main([command, "--kind", kind, *flags])
        assert stop.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        first, second = ("--graph-name", "--graph") if name_first else (
            "--graph", "--graph-name")
        assert f"argument {second}: not allowed with argument {first}" in captured.err

    @pytest.mark.parametrize("command, kind", KINDS)
    def test_either_alone_answers(self, capsys, graph, command, kind):
        by_file = run_json(capsys, command, "--kind", kind, "--graph", graph)
        by_name = run_json(capsys, command, "--kind", kind, "--graph-name", "k33")
        if command == "oracle":  # one perfect matching, and K33's six
            assert (by_file["answer"], by_name["answer"]) == (1, 6)
        else:  # an item per vertex on one side
            assert (by_file["items"], by_name["items"]) == (2, 3)


class TestSample:
    def test_deterministic_output(self, capsys, pair_instance):
        a = run_cli(capsys, "sample", pair_instance, "--mechanism",
                    "balanced-like", "--samples", "500", "--seed", "9")
        b = run_cli(capsys, "sample", pair_instance, "--mechanism",
                    "balanced-like", "--samples", "500", "--seed", "9")
        assert a == b
        payload = json.loads(a[1])
        assert payload["estimates"] == [1.0, 1.0]
        assert payload["standard_error"] == [0.0, 0.0]
        assert payload["voided"] == 0

    def test_with_prefix(self, capsys, pair_instance, tmp_path):
        prefix = {"arrived": [1], "bundles": [[1], []]}
        path = tmp_path / "prefix.json"
        path.write_text(json.dumps(prefix))
        out = run_json(capsys, "sample", pair_instance, "--mechanism",
                       "balanced-like", "--samples", "200", "--seed", "4",
                       "--prefix", str(path))
        assert out["estimates"] == [1.0, 1.0]

    def test_reads_budget(self, capsys, monkeypatch, pair_instance):
        # more runs than the budget are refused before any is drawn, and
        # exactly the budget's worth run
        monkeypatch.setenv("ONLINEFAIR_BUDGET", "10")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "sample", pair_instance, "--mechanism",
                                 "like", "--samples", "1000000000000", "--seed", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err.rstrip().endswith("1000000000000 samples exceed the budget 10")
        out = run_json(capsys, "sample", pair_instance, "--mechanism", "like",
                       "--samples", "10", "--seed", "1")
        assert out["samples"] == 10


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "outcome", "/no/such/file.json",
                               "--query", "exact", "--mechanism", "like",
                               "--agent", "1")
        assert code == 2
        assert err.startswith("error:")

    def test_budget_exhaustion(self, capsys, monkeypatch, tmp_path):
        data = {
            "agents": 3,
            "items": 3,
            "utilities": [["1", "1", "1"]] * 3,
            "arrival": {"type": "order", "order": [1, 2, 3]},
        }
        path = tmp_path / "three.json"
        path.write_text(json.dumps(data))
        monkeypatch.setenv("ONLINEFAIR_BUDGET", "1")
        code, _, err = run_cli(capsys, "outcome", str(path), "--query",
                               "exact", "--mechanism", "balanced-like",
                               "--agent", "1")
        assert code == 3
        assert "budget" in err.lower()

    @pytest.mark.parametrize("query", [("exact",), ("possible", "--item", "2")])
    def test_online_queries_read_budget(self, capsys, monkeypatch, pair_instance,
                                        tmp_path, query):
        # under Like either agent may win item 2: two owner-level successors
        path = tmp_path / "prefix.json"
        path.write_text(json.dumps({"arrived": [1], "bundles": [[], [1]]}))
        monkeypatch.setenv("ONLINEFAIR_BUDGET", "1")
        code, out, err = run_cli(capsys, "outcome", pair_instance, "--query",
                                 *query, "--mechanism", "like", "--agent", "1",
                                 "--prefix", str(path))
        assert code == 3 and out == ""
        assert err.rstrip().endswith(
            "frontier reached 2 states at moment 2 of 2 (budget 1)")

    @pytest.mark.parametrize("budget, message", [
        ("many", "ONLINEFAIR_BUDGET must be an integer, got 'many'"),
        ("0", "ONLINEFAIR_BUDGET must be positive"),
        ("-3", "ONLINEFAIR_BUDGET must be positive"),
    ])
    def test_invalid_budget_env(self, capsys, monkeypatch, pair_instance, budget, message):
        monkeypatch.setenv("ONLINEFAIR_BUDGET", budget)
        result = run_cli(capsys, "outcome", pair_instance, "--query",
                         "exact", "--mechanism", "balanced-like", "--agent", "1")
        assert result == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("mode, budget, code, tail", [
        *[(mode, "8", 3, "frontier reached 15 states at moment 1 of 3 (budget 8)")
          for mode in ("best-response", "strategyproof")],
        ("exact", "1", 3, "frontier reached 2 states at moment 2 of 3 (budget 1)"),
        *[(mode, "abc", 2, "ONLINEFAIR_BUDGET must be an integer, got 'abc'")
          for mode in ("best-response", "strategyproof", "exact")],
    ])
    def test_manipulate_reads_budget(self, capsys, monkeypatch, tmp_path,
                                     witness_instance, six_agent_instance,
                                     mode, budget, code, tail):
        # a search needs a budget of at least its 2^3 rows, so its frontier
        # overflow is shown on the six-agent instance at budget 8
        deviation = tmp_path / "dev.json"
        deviation.write_text(json.dumps(["0", "1", "1"]))
        monkeypatch.setenv("ONLINEFAIR_BUDGET", budget)
        argv = {"best-response": [six_agent_instance, "--agent", "1"],
                "strategyproof": [six_agent_instance],
                "exact": [witness_instance, "--agent", "3",
                          "--deviation", str(deviation)]}[mode]
        got, out, err = run_cli(capsys, "manipulate", argv[0], "--mode", mode,
                                *argv[1:])
        assert (got, out) == (code, "")
        assert err.rstrip().endswith(tail)

    def test_byte_identical_reports(self, capsys, pair_instance):
        a = run_cli(capsys, "outcome", pair_instance, "--query", "exact",
                    "--mechanism", "like", "--agent", "2")
        b = run_cli(capsys, "outcome", pair_instance, "--query", "exact",
                    "--mechanism", "like", "--agent", "2")
        assert a == b


PAIR = {
    "agents": 2,
    "items": 2,
    "utilities": [["1", "1"], ["1", "1"]],
    "arrival": {"type": "order", "order": [1, 2]},
}


_OUTCOME = ("outcome", "FILE", "--query", "exact", "--mechanism", "like",
            "--agent", "1")
_PREFIX = (*_OUTCOME[:2], "--prefix", "PREFIX", *_OUTCOME[2:])
_DEVIATE = ("manipulate", "FILE", "--mode", "exact", "--agent", "1",
            "--deviation", "DEVIATION")
_UNEQUAL = {"left": 2, "right": 3, "edges": [[1, 1]]}
_EMPTY_PATH = "cannot read : [Errno 2] No such file or directory: ''"


class TestInputErrorMessages:
    """Each malformed input, and each query that does not fit its context,
    exits 2 with one ``error:`` line naming the problem."""

    @pytest.mark.parametrize("argv, files, message", [
        (_OUTCOME, {"FILE": dict(PAIR, utilities=[["-1", "1"], ["1", "1"]])},
         "negative utility -1"),
        (_OUTCOME, {"FILE": dict(PAIR, utilities=[["1", "1"], ["1"]])},
         "utility matrix rows have unequal lengths"),
        (_OUTCOME, {"FILE": dict(PAIR, utilities=[["1", "1"]])},
         "utility matrix is 1x2, expected 2x2"),
        (_OUTCOME, {"FILE": dict(PAIR, arrival={"type": "order", "order": [1, 1]})},
         "order [1, 1] is not a permutation of 1..2"),
        (_OUTCOME, {"FILE": dict(PAIR, arrival={"type": "order", "order": [1, 3]})},
         "order [1, 3] is not a permutation of 1..2"),
        (_OUTCOME, {"FILE": dict(PAIR, arrival={"type": "order", "order": [2]})},
         "order [2] is not a permutation of 1..2"),
        (_OUTCOME, {"FILE": dict(PAIR, arrival={"type": "order", "order": [True, 2]})},
         "an order entry must be an integer, got True"),
        # the order is checked against the item count without listing 1..m
        (_OUTCOME, {"FILE": dict(PAIR, items=10 ** 15)},
         f"order [1, 2] is not a permutation of 1..{10 ** 15}"),
        (_OUTCOME, {"FILE": dict(PAIR, arrival={"type": "order", "order": "12"})},
         "arrival order must be a list"),
        (_OUTCOME, {"FILE": dict(PAIR, arrival={"type": "distribution",
                                                "matrix": [["1", "0"], ["1/2", "0"]]})},
         "column 1 of the arrival matrix sums to 3/2 > 1"),
        (_OUTCOME, {"FILE": dict(PAIR, arrival={"type": "distribution",
                                                "matrix": [["3/2", "0"], ["0", "0"]]})},
         "arrival probability 3/2 > 1"),
        (_OUTCOME, {"FILE": dict(PAIR, arrival={"type": "distribution",
                                                "matrix": [["-1/2", "0"], ["0", "0"]]})},
         "negative arrival probability -1/2"),
        (_OUTCOME, {"FILE": dict(PAIR, arrival={"type": "distribution", "matrix": "12"})},
         "arrival matrix must be a list of rows"),
        (_OUTCOME, {"FILE": dict(PAIR, agents=0, utilities=[])},
         "need at least one agent, got 0"),
        (_PREFIX, {"FILE": PAIR, "PREFIX": {"arrived": [1, 1], "bundles": [[], []]}},
         "an item arrived twice in the prefix"),
        (_PREFIX, {"FILE": PAIR, "PREFIX": {"arrived": [1], "bundles": [[2], []]}},
         "state allocates an item that never arrived"),
        (_PREFIX, {"FILE": PAIR, "PREFIX": {"arrived": [2], "bundles": [[], []]}},
         "arrived items are not a prefix of the fixed order"),
        (("oracle", "--kind", "count-pm", "--graph", "GRAPH"), {"GRAPH": _UNEQUAL},
         "perfect matchings need equal sides, got 2 and 3"),
        (("generate", "--kind", "reduction1", "--graph", "GRAPH"), {"GRAPH": _UNEQUAL},
         "need equal sides, got 2 items and 3 moments"),
        (("oracle", "--kind", "min-maximal", "--graph", "GRAPH"),
         {"GRAPH": {"left": 2, "right": 2, "edges": []}},
         "the graph has no edges"),
        (("oracle", "--kind", "count-pm", "--graph", "GRAPH"),
         {"GRAPH": {"left": 2, "right": 2, "edges": [[1, 5]]}},
         "edge [1, 5] out of range"),
        (("oracle", "--kind", "count-pm", "--graph", "GRAPH"),
         {"GRAPH": {"left": 2, "right": 2, "edges": [[1, 1], [1, 1]]}},
         "duplicate edge [1, 1]"),
        (("oracle", "--kind", "count-pm", "--graph", "GRAPH"),
         {"GRAPH": {"left": 2, "right": 2, "edges": [[0, 1]]}},
         "edge [0, 1] out of range"),
        (("generate", "--kind", "reduction2", "--graph-name", "c6"), {},
         "the graph must be 3-regular with equal sides"),
        (("generate", "--kind", "reduction3", "--graph-name", "k33", "-r", "1"), {},
         "need left degrees exactly 2, right degrees <= 3, left side at least "
         "as large as right, and distinct left neighborhoods"),
        (("generate", "--kind", "reduction3", "--graph-name", "c6", "-r", "9"), {},
         "r must be within 1..3"),
        (_DEVIATE, {"FILE": PAIR, "DEVIATION": ["-1", "1"]}, "negative bid -1"),
        (_DEVIATE, {"FILE": PAIR, "DEVIATION": ["1"]},
         "bid profile does not match the instance"),
        (_DEVIATE, {"FILE": PAIR, "DEVIATION": {"sincere": ["1", "1"]}},
         'deviation file must be a list of rationals or {"bids": [...]}'),
        (_PREFIX, {"FILE": PAIR, "PREFIX": {"arrived": [1], "bundles": [[], [], []]}},
         "prefix has 3 bundles for 2 agents"),
        (_PREFIX, {"FILE": PAIR, "PREFIX": {"arrived": [1]}},
         "missing prefix field: 'bundles'"),
        (_PREFIX, {"FILE": PAIR, "PREFIX": {"bundles": [[], []]}},
         "missing prefix field: 'arrived'"),
        ((*_PREFIX, "--item", "1"),
         {"FILE": PAIR, "PREFIX": {"arrived": [], "bundles": [[], []]}},
         "--item is not supported together with --prefix"),
        (("generate", "--kind", "reduction2"), {},
         "provide --graph FILE or --graph-name NAME"),
        (("generate", "--kind", "subset", "--values", "1,x", "-b", "2", "-c", "1"), {},
         "bad --values list: invalid literal for int() with base 10: 'x'"),
        (_OUTCOME, {"FILE": dict(PAIR, utilities=[])}, "utility matrix is empty"),
        (_OUTCOME, {"FILE": dict(PAIR, arrival={"type": "distribution", "matrix": []})},
         "arrival matrix is empty"),
        (_OUTCOME, {"FILE": dict(PAIR, arrival={"type": "distribution",
                                                "matrix": [["1"], ["1"]]})},
         "arrival matrix is 2x1, expected 2x2"),
        (("generate", "--kind", "subset", "--values", "", "-b", "1", "-c", "1"), {},
         "--values lists no integers"),
        (("oracle", "--kind", "subset-sum", "--values", ",", "-b", "0", "-c", "0"), {},
         "--values lists no integers"),
        # an empty path is a path to read, not a missing option
        ((*_OUTCOME, "--prefix="), {"FILE": PAIR}, _EMPTY_PATH),
        ((*_OUTCOME, "--item", "1", "--prefix="), {"FILE": PAIR}, _EMPTY_PATH),
        (("sample", "FILE", "--mechanism", "like", "--samples", "10", "--seed", "1",
          "--prefix="), {"FILE": PAIR}, _EMPTY_PATH),
        (("generate", "--kind", "reduction2", "--graph="), {}, _EMPTY_PATH),
    ])
    def test_exit_2_with_message(self, capsys, tmp_path, argv, files, message):
        paths = {}
        for name, data in files.items():
            paths[name] = tmp_path / f"{name.lower()}.json"
            paths[name].write_text(json.dumps(data))
        code, out, err = run_cli(capsys, *(str(paths.get(a, a)) for a in argv))
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestParser:
    """``main`` builds only the subcommand that its first argument names,
    and every help text and argparse error reads as from the full parser."""

    COMMANDS = ["outcome", "manipulate", "generate", "oracle", "sample"]
    ARGVS = [
        [], ["--help"], ["-h"], ["bogus"], ["--bogus"], ["-h", "outcome"],
        *[[command] for command in COMMANDS],
        *[[command, "--help"] for command in COMMANDS],
        *[[command, "-h", "--bogus"] for command in COMMANDS],
        *[[command, "extra", "extra", "--bogus", "1"] for command in COMMANDS],
        ["outcome", "x.json"],
        ["outcome", "x.json", "--query", "maybe", "--mechanism", "like", "--agent", "1"],
        ["outcome", "x.json", "--query", "exact", "--mechanism", "like", "--agent", "one"],
        ["outcome", "x.json", "--query", "exact", "--mechanism", "like", "--agent", "1",
         "--bogus"],
        ["outcome", "x.json", "--query", "exact", "--mechanism", "like", "--agent", "1",
         "surplus"],
        ["outcome", "x.json", "--que", "exact", "--mechanism", "like", "--agent"],
        ["manipulate", "x.json", "--mode", "exact", "--agent", "many"],
        ["manipulate", "x.json", "--mode", "best"],
        ["generate", "--kind", "nope"],
        ["generate", "--kind", "random", "-n"],
        ["generate", "--graph-name", "k99", "--kind", "reduction2"],
        ["oracle", "--kind", "subset-sum", "-b", "x"],
        ["sample", "x.json", "--mechanism", "like", "--samples", "1", "--seed"],
        ["sample", "x.json", "--mechanism", "like", "--samples", "1", "--seed", "1",
         "outcome"],
    ]

    @staticmethod
    def parse(capsys, parse, argv):
        with pytest.raises(SystemExit) as stop:
            parse(list(argv))
        captured = capsys.readouterr()
        return stop.value.code, captured.out, captured.err

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_same_text_and_exit_as_the_full_parser(self, capsys, argv):
        full = self.parse(capsys, build_parser().parse_args, argv)
        assert full[0] in (0, 2) and full[1] + full[2]
        assert self.parse(capsys, main, argv) == full

    @pytest.mark.parametrize("command", COMMANDS)
    def test_builds_only_the_named_subcommand(self, capsys, monkeypatch, command):
        def built(parser):
            return list(parser._subparsers._group_actions[0].choices)
        assert built(build_parser(command)) == [command]
        assert built(build_parser()) == self.COMMANDS
        assert built(build_parser("bogus")) == self.COMMANDS
        asked = []
        def recorded(command=None):
            asked.append(command)
            return build_parser(command)
        monkeypatch.setattr(cli, "build_parser", recorded)
        self.parse(capsys, main, [command, "--help"])
        self.parse(capsys, main, ["--help"])
        assert asked == [command, "--help"]


class TestStrictInputTypes:
    """Wrongly typed JSON is an input error (exit 2), never misparsed and
    never a traceback."""

    @pytest.mark.parametrize("changes", [
        {"utilities": [["1", "1"], "12"]},       # would iterate as ["1", "2"]
        {"utilities": 12},
        {"arrival": [1, 2]},
        {"arrival": {"type": "distribution", "matrix": ["10", "01"]}},
        {"agents": True, "utilities": [["1", "1"]]},
    ])
    def test_instance(self, capsys, tmp_path, changes):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**PAIR, **changes}))
        code, out, err = run_cli(capsys, "outcome", str(path), "--query",
                                 "exact", "--mechanism", "like", "--agent", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("prefix", [
        {"arrived": "1", "bundles": [[1], []]},
        {"arrived": ["1"], "bundles": [[1], []]},
        {"arrived": [1.5], "bundles": [[1], []]},
        {"arrived": [1], "bundles": ["1", []]},
        {"arrived": [1], "bundles": [[True], []]},
    ])
    def test_prefix(self, capsys, pair_instance, tmp_path, prefix):
        path = tmp_path / "prefix.json"
        path.write_text(json.dumps(prefix))
        code, out, err = run_cli(capsys, "outcome", pair_instance, "--query",
                                 "exact", "--mechanism", "balanced-like",
                                 "--agent", "1", "--prefix", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("deviation", [
        {"bids": "101"},                          # would iterate as [1, 0, 1]
        {"bids": ["1", "0", "1"], "sincere": "101"},
        ["1", "0"],                               # one bid short
        ["1", "-1", "0"],
    ])
    def test_deviation(self, capsys, witness_instance, tmp_path, deviation):
        path = tmp_path / "dev.json"
        path.write_text(json.dumps(deviation))
        code, out, err = run_cli(capsys, "manipulate", witness_instance, "--mode",
                                 "exact", "--agent", "3", "--deviation", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("changes", [
        {"edges": [[1, 2, 3]]},
        {"edges": "ab"},                          # would unpack as ("a", "b")
        {"edges": [["x", 1]]},
        {"edges": [[True, 1]]},
        {"left": 3.7},                            # would read as 3
        {"left": "3"},
    ])
    def test_graph(self, capsys, tmp_path, changes):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(
            {"left": 3, "right": 3, "edges": [[1, 1], [2, 2], [3, 3]], **changes}))
        code, out, err = run_cli(capsys, "oracle", "--kind", "count-pm",
                                 "--graph", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


DEEP = "[" * 100_000            # json.load raises RecursionError
HUGE = "9" * 5000               # past the 4,300-digit int conversion limit
PAIR_TEXT = json.dumps(PAIR)


class TestOversizedInputs:
    """Deeply nested JSON and integer literals over 4,300 digits are input
    errors (exit 2) in every file argument and in ``--threshold``.  The files
    are written as raw text, since ``json.dump`` cannot write the literal."""

    @staticmethod
    def expect_input_error(capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, err
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("text", [
        DEEP,
        PAIR_TEXT.replace('"1"', HUGE, 1),
        PAIR_TEXT.replace('"1"', f'"{HUGE}"', 1),
        PAIR_TEXT.replace('"1"', f'"1/{HUGE}"', 1),
    ], ids=["deep", "number", "integer-string", "denominator"])
    def test_instance(self, capsys, tmp_path, text):
        path = tmp_path / "instance.json"
        path.write_text(text)
        self.expect_input_error(capsys, "outcome", str(path), "--query", "exact",
                                "--mechanism", "like", "--agent", "1")

    @pytest.mark.parametrize("text", [
        DEEP,
        f'{{"arrived": [{HUGE}], "bundles": [[], []]}}',
        f'{{"arrived": [1], "bundles": [[1], []], "probability": "{HUGE}/1"}}',
    ], ids=["deep", "number", "rational"])
    def test_prefix(self, capsys, pair_instance, tmp_path, text):
        path = tmp_path / "prefix.json"
        path.write_text(text)
        self.expect_input_error(capsys, "outcome", pair_instance, "--query",
                                "exact", "--mechanism", "balanced-like",
                                "--agent", "1", "--prefix", str(path))

    @pytest.mark.parametrize("text", [
        DEEP, f'[{HUGE}, 1, 1]', f'["{HUGE}", "1", "1"]',
    ], ids=["deep", "number", "rational"])
    def test_deviation(self, capsys, witness_instance, tmp_path, text):
        path = tmp_path / "dev.json"
        path.write_text(text)
        self.expect_input_error(capsys, "manipulate", witness_instance, "--mode",
                                "exact", "--agent", "3", "--deviation", str(path))

    @pytest.mark.parametrize("text", [
        DEEP, f'{{"left": {HUGE}, "right": 1, "edges": []}}',
    ], ids=["deep", "number"])
    def test_graph(self, capsys, tmp_path, text):
        path = tmp_path / "graph.json"
        path.write_text(text)
        self.expect_input_error(capsys, "oracle", "--kind", "count-pm",
                                "--graph", str(path))

    def test_long_answer_is_printed_in_full(self, capsys, tmp_path):
        # each literal is within the conversion limit, but the sum's
        # denominator has 5,001 digits; a long literal is still refused after
        big = 10 ** 2500
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({
            "agents": 1, "items": 2, "arrival": {"type": "order", "order": [1, 2]},
            "utilities": [[f"1/{big + 1}", f"1/{big + 3}"]]}))
        out = run_json(capsys, "outcome", str(path), "--query", "exact",
                       "--mechanism", "like", "--agent", "1")
        numerator, denominator = out["value"].split("/")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            value = Fraction(int(numerator), int(denominator))
        finally:
            sys.set_int_max_str_digits(limit)
        assert value == Fraction(1, big + 1) + Fraction(1, big + 3)
        path.write_text(PAIR_TEXT.replace('"1"', f'"{HUGE}"', 1))
        self.expect_input_error(capsys, "outcome", str(path), "--query", "exact",
                                "--mechanism", "like", "--agent", "1")

    @pytest.mark.parametrize("threshold", [HUGE, f"1/{HUGE}"],
                             ids=["integer", "denominator"])
    def test_threshold(self, capsys, pair_instance, witness_instance, tmp_path,
                       threshold):
        self.expect_input_error(capsys, "outcome", pair_instance, "--query",
                                "necessary", "--mechanism", "like", "--agent",
                                "1", "--threshold", threshold)
        path = tmp_path / "dev.json"
        path.write_text('["0", "1", "1"]')
        self.expect_input_error(capsys, "manipulate", witness_instance, "--mode",
                                "necessary", "--agent", "3", "--deviation",
                                str(path), "--threshold", threshold)


FIELDS = st.sampled_from(["agents", "items", "utilities", "arrival", "type",
                          "order", "distribution", "matrix", "instance",
                          "arrived", "bundles", "probability", "bids", "sincere"])
LEAVES = (st.none() | st.booleans() | st.integers(-1, 4) | st.just(1.5)
          | st.sampled_from(["0", "1", "1/2", "-1", "1/0", "x", "101"]))
ANY_JSON = st.recursive(
    LEAVES, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(FIELDS, inner, max_size=4), max_leaves=12)


@st.composite
def instance_json(draw):
    """A well-formed instance, sometimes with one field replaced by any JSON."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def rows(entries, count):
        return draw(st.lists(st.lists(entries, min_size=m, max_size=m),
                             min_size=count, max_size=count))

    if draw(st.booleans()):
        order = draw(st.permutations(range(1, m + 1)))
        arrival = {"type": "order", "order": list(order)}
    else:
        # entries of 1/m keep every column sum at most 1
        arrival = {"type": "distribution",
                   "matrix": rows(st.sampled_from(["0", f"1/{m}"]), m)}
    utilities = rows(st.sampled_from(["0", "1", "1/2"]), n)
    data = {"agents": n, "items": m, "utilities": utilities, "arrival": arrival}
    for key in draw(st.lists(st.sampled_from(sorted(data)), max_size=1)):
        data[key] = draw(ANY_JSON)
    return data


PREFIX_JSON = ANY_JSON | st.fixed_dictionaries({
    "arrived": st.lists(st.integers(0, 4), max_size=3),
    "bundles": st.lists(st.lists(st.integers(0, 4), max_size=2), max_size=3)})
DEVIATION_JSON = ANY_JSON | st.lists(st.sampled_from(["0", "1"]), max_size=4)
COMMANDS = st.sampled_from([
    ("outcome", "--query", "exact", "--agent", "1"),
    ("outcome", "--query", "exact", "--agent", "1", "--item", "2"),
    ("outcome", "--query", "exact", "--agent", "2", "--prefix", "PREFIX"),
    ("outcome", "--query", "necessary", "--agent", "1", "--threshold", "1/2"),
    ("outcome", "--query", "possible", "--agent", "1", "--item", "1"),
    ("outcome", "--query", "possible", "--agent", "1", "--prefix", "PREFIX"),
    ("manipulate", "--mode", "exact", "--agent", "1", "--deviation", "DEVIATION"),
    ("manipulate", "--mode", "necessary", "--agent", "1", "--deviation",
     "DEVIATION", "--threshold", "0"),
    ("manipulate", "--mode", "best-response", "--agent", "1"),
    ("sample", "--samples", "2", "--seed", "1"),
    ("sample", "--samples", "2", "--seed", "1", "--prefix", "PREFIX"),
])


class TestFuzzedFiles:
    """Whatever JSON the input files hold, the CLI ends with exit code 0, 2
    or 3, never a traceback."""

    # every example sets the same budget and overwrites the same three
    # files, so sharing the function-scoped fixtures between examples is safe
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=COMMANDS, mechanism=st.sampled_from(["like", "balanced-like"]),
           instance=instance_json() | ANY_JSON, prefix=PREFIX_JSON,
           deviation=DEVIATION_JSON)
    def test_exit_codes(self, capsys, monkeypatch, tmp_path, command, mechanism,
                        instance, prefix, deviation):
        # so small that instances of three items can exceed it (exit 3)
        monkeypatch.setenv("ONLINEFAIR_BUDGET", "2")
        files = {}
        for name, data in (("INSTANCE", instance), ("PREFIX", prefix),
                           ("DEVIATION", deviation)):
            files[name] = str(tmp_path / f"{name.lower()}.json")
            with open(files[name], "w") as handle:
                json.dump(data, handle)
        argv = [command[0], files["INSTANCE"], "--mechanism", mechanism]
        argv += [files.get(arg, arg) for arg in command[1:]]
        code, _out, _err = run_cli(capsys, *argv)
        assert code in (0, 2, 3)


@st.composite
def graph_json(draw):
    """A small bipartite graph in the file format, sometimes with one field
    replaced by any JSON."""
    left, right = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    pairs = [[a, b] for a in range(1, left + 1) for b in range(1, right + 1)]
    data = {"left": left, "right": right,
            "edges": draw(st.lists(st.sampled_from(pairs), unique_by=tuple))
            if pairs else []}
    for key in draw(st.lists(st.sampled_from(sorted(data)), max_size=1)):
        data[key] = draw(ANY_JSON)
    return data


GRAPH_COMMANDS = st.sampled_from([
    ("generate", "--kind", "reduction1"),
    ("generate", "--kind", "reduction1", "--full-support"),
    ("generate", "--kind", "reduction2"),
    ("generate", "--kind", "reduction2-manip"),
    ("generate", "--kind", "reduction3", "-r", "1"),
    ("oracle", "--kind", "count-pm"),
    ("oracle", "--kind", "min-maximal"),
])


class TestFuzzedGraphFiles:
    """Whatever JSON a graph file holds, the graph commands end with exit
    code 0, 2 or 3, never a traceback."""

    # every example sets the same budget and overwrites the same file
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=GRAPH_COMMANDS, graph=graph_json() | ANY_JSON)
    def test_exit_codes(self, capsys, monkeypatch, tmp_path, command, graph):
        # small enough that the oracles can exceed it (exit 3)
        monkeypatch.setenv("ONLINEFAIR_BUDGET", "8")
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph))
        code, _out, _err = run_cli(capsys, *command, "--graph", str(path))
        assert code in (0, 2, 3)


def count_tokens(path: Path) -> int:
    """The tokenize tokens of a source file, its ENCODING token included."""
    with open(path, "rb") as handle:
        return sum(1 for _token in tokenize.tokenize(handle.readline))


_AT_PAIR = ("PAIR", "--mechanism", "like")
CALLS = {
    "outcome": ("outcome", *_AT_PAIR, "--query", "exact", "--agent", "1"),
    "outcome --prefix": ("outcome", *_AT_PAIR, "--query", "exact", "--agent", "1",
                         "--prefix", "PREFIX"),
    "sample": ("sample", *_AT_PAIR, "--samples", "10", "--seed", "1"),
    "sample --prefix": ("sample", *_AT_PAIR, "--samples", "10", "--seed", "1",
                        "--prefix", "PREFIX"),
    "manipulate --mode exact": ("manipulate", *_AT_PAIR, "--mode", "exact",
                                "--agent", "1", "--deviation", "DEV"),
    "manipulate --mode best-response": ("manipulate", *_AT_PAIR, "--mode",
                                        "best-response", "--agent", "1"),
    "generate": ("generate", "--kind", "reduction2", "--graph-name", "k33"),
    "oracle": ("oracle", "--kind", "count-pm", "--graph-name", "k33"),
}


class TestStartup:
    def test_no_dataclasses_or_inspect(self):
        """A CLI call loads neither ``dataclasses`` nor ``inspect`` (about
        12 ms of every call's start-up) beyond what the interpreter itself
        loads at start."""
        show = "import sys; print(' '.join(sys.modules), file=sys.stderr)"
        calls = ("from onlinefair.cli import main; "
                 "main(['generate', '--kind', 'reduction2', '--graph-name', 'c4']); "
                 "main(['oracle', '--kind', 'min-maximal', '--graph-name', 'c4']); ")
        bare = set(run_python("-c", show).stderr.split())
        cli = set(run_python("-c", calls + show).stderr.split())
        assert "onlinefair.cli" in cli
        assert not {"dataclasses", "inspect"} & (cli - bare)

    @staticmethod
    def call_argv(command, pair_instance, tmp_path) -> list[str]:
        """``CALLS[command]`` with its placeholders replaced by files."""
        prefix = tmp_path / "prefix.json"
        prefix.write_text(json.dumps({"arrived": [1], "bundles": [[1], []]}))
        deviation = tmp_path / "deviation.json"
        deviation.write_text(json.dumps(["1", "0"]))
        files = {"PAIR": pair_instance, "PREFIX": str(prefix), "DEV": str(deviation)}
        return [files.get(arg, arg) for arg in CALLS[command]]

    def loaded_modules(self, command, pair_instance, tmp_path) -> list[str]:
        """The ``onlinefair`` modules that ``CALLS[command]`` loads."""
        argv = self.call_argv(command, pair_instance, tmp_path)
        show = ("import sys; from onlinefair.cli import main; status = main(sys.argv[1:]); "
                "print(status, *sorted(sys.modules), file=sys.stderr)")
        result = run_python("-c", show, *argv)
        status, *modules = result.stderr.split()
        assert status == "0", result.stderr
        return [m for m in modules if m.split(".")[0] == "onlinefair"]

    @pytest.mark.parametrize("command, loaded", [
        ("outcome", set()),
        ("outcome --prefix", {"_online", "_cli_prefix"}),
        ("sample", {"_sampler", "_cli_sample"}),
        ("sample --prefix", {"_sampler", "_cli_sample", "_cli_prefix"}),
        ("manipulate --mode exact", {"_cli_manipulate"}),
        ("manipulate --mode best-response", {"_search", "_cli_manipulate"}),
        ("generate", {"_gadgets", "_cli_generate"}),
        ("oracle", {"_gadgets", "_cli_generate"}),
    ], ids=["outcome", "outcome --prefix", "sample", "sample --prefix",
            "manipulate --mode exact", "manipulate", "generate", "oracle"])
    def test_loads_only_what_it_runs(self, pair_instance, tmp_path, command, loaded):
        """A call compiles a private module only when it runs its code: the
        known-prefix code, the sampler, the best-response search, the gadget
        builders and oracles, or another subcommand's parser and runner."""
        modules = self.loaded_modules(command, pair_instance, tmp_path)
        private = {"_gadgets", "_online", "_sampler", "_search", "_cli_prefix",
                   "_cli_manipulate", "_cli_generate", "_cli_sample"}
        assert {m.removeprefix("onlinefair.") for m in modules} & private == loaded

    @pytest.mark.parametrize("command, budget", [
        ("outcome", 7843), ("outcome --prefix", 9063),
        ("manipulate --mode exact", 8355), ("manipulate --mode best-response", 9208),
        ("generate", 11434), ("oracle", 11434), ("sample", 9075),
        ("sample --prefix", 9432),
    ])
    def test_compile_budget(self, pair_instance, tmp_path, command, budget):
        """Without bytecode a call compiles every package module it loads.
        Their tokenize tokens may not pass the budget, the call's count when
        the budget was last set."""
        modules = self.loaded_modules(command, pair_instance, tmp_path)
        package = Path(cli.__file__).parent
        total = sum(count_tokens(package / f"{m.partition('.')[2] or '__init__'}.py")
                    for m in modules)
        assert total <= budget, f"{command} compiles {total} tokens, over {budget}"

    @pytest.mark.parametrize("command", ["manipulate --mode exact", "generate", "sample"])
    def test_lazy_modules_reuse_the_running_cli(self, pair_instance, tmp_path, command):
        """Under ``python -m onlinefair.cli`` the running module is
        ``__main__``; a lazy module that imported ``onlinefair.cli`` would
        compile ``cli.py`` a second time, and ``-X importtime`` would show it."""
        argv = self.call_argv(command, pair_instance, tmp_path)
        result = run_python("-X", "importtime", "-m", "onlinefair.cli", *argv)
        assert result.returncode == 0, result.stderr
        imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()
                    if line.startswith("import time:")}
        assert f"onlinefair._cli_{command.split()[0]}" in imported
        assert "onlinefair.cli" not in imported

    @pytest.mark.parametrize("module, ceiling", [("engine.py", 1548), ("cli.py", 1748)])
    def test_module_size_ceiling(self, module, ceiling):
        """Every CLI call compiles these modules, so neither may grow past its
        tokenize token count (ENCODING token included) when the ceiling was
        set.  A change that needs room deletes code to make it."""
        tokens = count_tokens(Path(cli.__file__).with_name(module))
        assert tokens <= ceiling, f"{module} has {tokens} tokens, over {ceiling}"

    def test_graph_annotations_resolve(self):
        from onlinefair import _cli_generate
        assert typing.get_type_hints(_cli_generate.graph_from_args)["return"] \
            is _cli_generate.BipartiteGraph


def launch(argv, unbuffered, stdout=subprocess.PIPE, budget=None):
    """Run ``python -m onlinefair.cli`` with ``PYTHONUNBUFFERED`` set or
    unset, under ``budget`` (the default if None)."""
    return run_python("-m", "onlinefair.cli", *argv, stdout=stdout,
                      env={"PYTHONUNBUFFERED": "1" if unbuffered else None,
                           "ONLINEFAIR_BUDGET": budget})


BUFFERING = pytest.mark.parametrize("unbuffered", [True, False],
                                    ids=["unbuffered", "buffered"])


class TestLauncher:
    """``cli.run`` ends the process with ``os._exit`` after flushing, so a
    launched call must print and exit exactly as ``main`` returns; a missing
    flush loses buffered output."""

    @BUFFERING
    @pytest.mark.parametrize("argv, budget, code", [
        (("PAIR", "--mechanism", "like", "--agent", "1"), None, 0),
        (("PAIR", "--mechanism", "like", "--agent", "3"), None, 2),
        (("WITNESS", "--mechanism", "balanced-like", "--agent", "1"), "1", 3),
    ], ids=["exit 0", "exit 2", "exit 3"])
    def test_same_as_main(self, capsys, monkeypatch, pair_instance,
                          witness_instance, unbuffered, argv, budget, code):
        files = {"PAIR": pair_instance, "WITNESS": witness_instance}
        argv = ["outcome", "--query", "exact", *(files.get(a, a) for a in argv)]
        if budget is None:
            monkeypatch.delenv("ONLINEFAIR_BUDGET", raising=False)
        else:
            monkeypatch.setenv("ONLINEFAIR_BUDGET", budget)
        expected = run_cli(capsys, *argv)
        assert expected[0] == code
        result = launch(argv, unbuffered, budget=budget)
        assert (result.returncode, result.stdout, result.stderr) == expected

    @BUFFERING
    @pytest.mark.parametrize("target", ["/dev/full", "closed pipe"])
    def test_unwritable_stdout(self, unbuffered, target):
        if target == "closed pipe":
            read, fd = os.pipe()
            os.close(read)  # no reader: every write fails with EPIPE
        elif os.path.exists(target):
            fd = os.open(target, os.O_WRONLY)
        else:
            pytest.skip(f"no {target}")
        try:
            result = launch(["oracle", "--kind", "count-pm", "--graph-name", "k33"],
                            unbuffered, stdout=fd)
        finally:
            os.close(fd)
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: cannot write the report: ")
        assert result.stderr.count("\n") == 1

    @BUFFERING
    @pytest.mark.parametrize("argv", [["--help"], ["outcome", "x.json", "--bogus"]],
                             ids=" ".join)
    def test_argparse_exits_as_main(self, capsys, unbuffered, argv):
        with pytest.raises(SystemExit) as stop:
            main(list(argv))
        captured = capsys.readouterr()
        result = launch(argv, unbuffered)
        assert stop.value.code in (0, 2)
        assert (result.returncode, result.stdout, result.stderr) \
            == (stop.value.code, captured.out, captured.err)

    def test_help_to_a_full_device(self):
        # argparse's own report goes through the launcher's flush; unbuffered,
        # argparse swallows the write error itself, so only buffered is checked
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        fd = os.open("/dev/full", os.O_WRONLY)
        try:
            result = launch(["--help"], unbuffered=False, stdout=fd)
        finally:
            os.close(fd)
        assert result.returncode == 1
        assert result.stderr.startswith("error: cannot write the report: ")
        assert result.stderr.count("\n") == 1

    @BUFFERING
    @pytest.mark.parametrize("argv, code, message", [
        (["oracle", "--kind", "count-pm", "--graph-name", "k33"], 1,
         "error: cannot write the report: stdout is closed\n"),
        (["outcome", "missing.json", "--query", "exact", "--mechanism", "like",
          "--agent", "1"], 2, "error: cannot read missing.json: "),
    ], ids=["exit 0", "exit 2"])
    def test_closed_stdout(self, unbuffered, argv, code, message):
        # the child starts with descriptor 1 closed, so sys.stdout is None;
        # a report needs it, an input error does not
        start = ("import os, sys; os.close(1); os.execv(sys.executable, "
                 "[sys.executable, '-m', 'onlinefair.cli', *sys.argv[1:]])")
        result = run_python("-c", start, *argv,
                            env={"PYTHONUNBUFFERED": "1" if unbuffered else None})
        assert result.returncode == code
        assert result.stderr.startswith(message)
        assert result.stderr.count("\n") == 1

    def test_script_is_the_launcher(self):
        tomllib = pytest.importorskip("tomllib")
        with open(SRC.parent / "pyproject.toml", "rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        assert scripts == {"onlinefair": "onlinefair.cli:run"}
        assert callable(cli.run)


class TestTraceHarness:
    """``perfbench/trace_entry.py`` wraps engine names that ``cli`` imports;
    a rename there must not break traced runs."""

    @pytest.mark.parametrize("extra, span", [
        ((), "engine.outcome_report"),
        (("--prefix", "PREFIX"), "engine.online"),
    ])
    def test_traced_outcome_records_its_span(self, pair_instance, tmp_path,
                                             extra, span):
        prefix = tmp_path / "prefix.json"
        prefix.write_text(json.dumps({"arrived": [1], "bundles": [[1], []]}))
        spans = tmp_path / "spans.json"
        extra = [str(prefix) if arg == "PREFIX" else arg for arg in extra]
        result = run_python(str(TRACE_ENTRY), str(spans), "q", "--", "outcome",
                            pair_instance, "--query", "exact", "--mechanism",
                            "like", "--agent", "1", *extra)
        assert result.returncode == 0, result.stderr
        trace = json.loads(spans.read_text())
        assert span in {name for name, *_rest in trace["spans"]}
        if extra:
            # the owner-level step computes feasible sets through the
            # engine's module global too, where the harness counts them
            assert sum(calls for name, _parent, calls, _seconds in trace["leaves"]
                       if name == "mechanisms.feasible_for_counts") > 0

    @pytest.mark.parametrize("mode, span, rows", [
        (("exact", "--deviation", "DEV"), "manipulation.utilities_under_deviation", 2),
        (("best-response",), "manipulation.best_response_search", 0),
    ])
    def test_traced_manipulate(self, witness_instance, tmp_path, mode, span, rows):
        # a deviation prices two rows through manipulation's exact_utility,
        # which is how perfbench counts manipulation.rows.calls
        deviation = tmp_path / "dev.json"
        deviation.write_text(json.dumps(["0", "1", "1"]))
        spans = tmp_path / "spans.json"
        mode = [str(deviation) if arg == "DEV" else arg for arg in mode]
        result = run_python(str(TRACE_ENTRY), str(spans), "q", "--", "manipulate",
                            witness_instance, "--agent", "3", "--mode", *mode)
        assert result.returncode == 0, result.stderr
        recorded = json.loads(spans.read_text())["spans"]
        assert span in {name for name, *_rest in recorded}
        assert sum(name == "engine.exact_utility" and parent >= 0
                   and recorded[parent][0].startswith("manipulation.")
                   for name, _start, _end, parent in recorded) == rows

    @pytest.mark.parametrize("argv, span", [
        (("generate", "--kind", "reduction2"), "generators.reduction2_instance"),
        (("oracle", "--kind", "count-pm"), "generators.count_perfect_matchings"),
    ], ids=["generate", "oracle"])
    def test_traced_generators(self, tmp_path, argv, span):
        # the harness wraps every onlinefair.generators function that cli
        # imports, the stubs whose bodies load on first use included
        spans = tmp_path / "spans.json"
        result = run_python(str(TRACE_ENTRY), str(spans), "q", "--", *argv,
                            "--graph-name", "k33")
        assert result.returncode == 0, result.stderr
        recorded = {name for name, *_rest in json.loads(spans.read_text())["spans"]}
        assert {span, "generators.complete_bipartite"} <= recorded

    @pytest.mark.parametrize("mechanism", ["like", "balanced-like"])
    def test_traced_sample_counts_feasible_sets(self, pair_instance, tmp_path,
                                                mechanism):
        # the sampler computes feasible sets through the engine's module
        # global, where the harness counts them; Like's, resolved before the
        # first run, too
        spans = tmp_path / "spans.json"
        result = run_python(str(TRACE_ENTRY), str(spans), "q", "--", "sample",
                            pair_instance, "--mechanism", mechanism,
                            "--samples", "100", "--seed", "1")
        assert result.returncode == 0, result.stderr
        trace = json.loads(spans.read_text())
        assert "engine.monte_carlo_estimate" in {name for name, *_rest in trace["spans"]}
        assert sum(calls for name, _parent, calls, _seconds in trace["leaves"]
                   if name == "mechanisms.feasible_for_counts") > 0
