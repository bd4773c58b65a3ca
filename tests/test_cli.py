import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from onlinefair.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_random_round_trip(self, capsys, tmp_path):
        payload = run_json(capsys, "generate", "--kind", "random",
                           "-n", "2", "-m", "3", "--seed", "11",
                           "--arrival", "distribution")
        path = tmp_path / "rand.json"
        path.write_text(json.dumps(payload))
        out = run_json(capsys, "outcome", str(path), "--query", "exact",
                       "--mechanism", "like", "--agent", "1")
        assert "value" in out

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

    def test_subset_sum(self, capsys):
        out = run_json(capsys, "oracle", "--kind", "subset-sum",
                       "--values", "1,2,3", "-b", "5", "-c", "2")
        assert out["answer"] is True
        out = run_json(capsys, "oracle", "--kind", "subset-sum",
                       "--values", "1,2,3", "-b", "7", "-c", "2")
        assert out["answer"] is False


class TestSample:
    def test_deterministic_output(self, capsys, pair_instance):
        a = run_cli(capsys, "sample", pair_instance, "--mechanism",
                    "balanced-like", "--samples", "500", "--seed", "9")
        b = run_cli(capsys, "sample", pair_instance, "--mechanism",
                    "balanced-like", "--samples", "500", "--seed", "9")
        assert a == b
        payload = json.loads(a[1])
        assert payload["estimates"] == [1.0, 1.0]

    def test_with_prefix(self, capsys, pair_instance, tmp_path):
        prefix = {"arrived": [1], "bundles": [[1], []]}
        path = tmp_path / "prefix.json"
        path.write_text(json.dumps(prefix))
        out = run_json(capsys, "sample", pair_instance, "--mechanism",
                       "balanced-like", "--samples", "200", "--seed", "4",
                       "--prefix", str(path))
        assert out["estimates"] == [1.0, 1.0]


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
    ])
    def test_deviation(self, capsys, witness_instance, tmp_path, deviation):
        path = tmp_path / "dev.json"
        path.write_text(json.dumps(deviation))
        code, out, err = run_cli(capsys, "manipulate", witness_instance, "--mode",
                                 "exact", "--agent", "3", "--deviation", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


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
    ("sample", "--samples", "20", "--seed", "1"),
    ("sample", "--samples", "20", "--seed", "1", "--prefix", "PREFIX"),
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
