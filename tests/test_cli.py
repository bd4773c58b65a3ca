import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from onlinefair import cli
from onlinefair.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"
TRACE_ENTRY = SRC.parent / "perfbench" / "trace_entry.py"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*argv, timeout=30):
    """Run a fresh interpreter on the package sources, under the default
    budget."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("ONLINEFAIR_BUDGET", None)
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, timeout=timeout)


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
        assert "--item is not supported for necessary queries" in err

    @pytest.mark.parametrize("query", [("exact",), ("exact", "--item", "2"),
                                       ("possible",), ("possible", "--item", "2")])
    def test_threshold_only_for_necessary(self, capsys, pair_instance, query):
        code, out, err = run_cli(capsys, "outcome", pair_instance, "--query", *query,
                                 "--mechanism", "like", "--agent", "1",
                                 "--threshold", "9/2")
        assert code == 2 and out == ""
        assert f"--threshold is not supported for {query[0]} queries" in err

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

    def test_exact_with_prefix(self, capsys, pair_instance, tmp_path):
        prefix = {"arrived": [1], "bundles": [[1], []], "probability": "1/2"}
        path = tmp_path / "prefix.json"
        path.write_text(json.dumps(prefix))
        out = run_json(capsys, "outcome", pair_instance, "--query", "exact",
                       "--mechanism", "balanced-like", "--agent", "1",
                       "--prefix", str(path))
        assert out["method"] == "online"
        assert out["value"] == "1"
        assert out["next_item_probability"] == ["0", "1"]

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

    @pytest.mark.parametrize("mode", ["best-response", "strategyproof"])
    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_non_positive_item_cap(self, capsys, witness_instance, mode, cap):
        code, _, err = run_cli(capsys, "manipulate", witness_instance, "--mode",
                               mode, "--agent", "3", "--max-items", cap)
        assert code == 2
        assert "item cap must be positive" in err

    @pytest.mark.parametrize("mode", ["exact", "best-response", "strategyproof"])
    @pytest.mark.parametrize("flags", [("--threshold", "5"), ("--strict",)])
    def test_gain_flags_only_for_necessary(self, capsys, witness_instance, tmp_path,
                                           mode, flags):
        deviation = tmp_path / "dev.json"
        deviation.write_text(json.dumps(["0", "1", "1"]))
        code, out, err = run_cli(capsys, "manipulate", witness_instance, "--mode", mode,
                                 "--agent", "3", "--deviation", str(deviation), *flags)
        assert code == 2 and out == ""
        assert "--threshold and --strict are only for --mode necessary" in err

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

    def test_invalid_budget_env(self, capsys, monkeypatch, pair_instance):
        monkeypatch.setenv("ONLINEFAIR_BUDGET", "many")
        code, _, _ = run_cli(capsys, "outcome", pair_instance, "--query",
                             "exact", "--mechanism", "balanced-like",
                             "--agent", "1")
        assert code == 2

    @pytest.mark.parametrize("mode", ["best-response", "strategyproof", "exact"])
    @pytest.mark.parametrize("budget, code", [("1", 3), ("abc", 2)])
    def test_manipulate_reads_budget(self, capsys, monkeypatch, tmp_path,
                                     witness_instance, mode, budget, code):
        deviation = tmp_path / "dev.json"
        deviation.write_text(json.dumps(["0", "1", "1"]))
        monkeypatch.setenv("ONLINEFAIR_BUDGET", budget)
        got, _, err = run_cli(capsys, "manipulate", witness_instance, "--mode",
                              mode, "--agent", "3", "--deviation", str(deviation))
        assert got == code
        assert ("of 3 (budget 1)" if code == 3 else "ONLINEFAIR_BUDGET") in err

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
        ["manipulate", "x.json", "--mode", "exact", "--max-items", "many"],
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
