"""Tests of the benchmark itself: its checks catch wrong answers, its span
arithmetic is right, and it refuses to run without the program's sources.

Run from the root of a checkout: python3 -m pytest perfbench -q
"""

import dataclasses
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import workloads
from run import Bench, Runner, span_totals

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench(tmp_path):
    return Bench(Runner(ROOT, tmp_path), trace=False)


def _k33_query(bench, tmp_path):
    queries = workloads.build("fixed-exact", 0, tmp_path / "inputs", bench.call)
    return next(q for q in queries if q.label == "reduction2 k33 collector")


def test_corrupted_expected_value_is_caught(bench, tmp_path):
    good = _k33_query(bench, tmp_path)
    corrupted = dataclasses.replace(
        good, label="corrupted", check=workloads._value_check(Fraction(47, 45)))
    bench.run_pass([good, corrupted], traced=False)
    assert bench.attempted == 2
    assert len(bench.failures) == 1
    assert bench.failures[0].startswith("corrupted: wrong answer: value 46/45")


def test_corrupted_oracle_answer_fails_setup(bench, tmp_path):
    def lying_call(argv):
        result = bench.call(argv)
        if argv[:3] == ["oracle", "--kind", "count-pm"]:
            result["answer"] += 1
        return result

    with pytest.raises(workloads.Mismatch, match="46/45"):
        workloads.build("fixed-exact", 0, tmp_path, lying_call)


def test_failed_exit_is_a_failure(bench, tmp_path):
    query = workloads.Query("missing file", (
        "outcome", str(tmp_path / "absent.json"), "--query", "exact",
        "--mechanism", "like", "--agent", "1"), lambda result, call: None)
    bench.run_pass([query], traced=False)
    assert bench.failures == [
        f"missing file: exit 2: error: cannot read {tmp_path / 'absent.json'}: "
        f"[Errno 2] No such file or directory: '{tmp_path / 'absent.json'}'"]


def test_self_time_subtracts_children_and_leaves():
    doc = {"spans": [["cli.main", 0.0, 10.0, -1],
                     ["manipulation.best_response_search", 1.0, 9.0, 0],
                     ["engine.exact_utility", 2.0, 5.0, 1]],
           "leaves": [["mechanisms.feasible_for_counts", 2, 7, 1.5]]}
    calls, self_s, rows = span_totals([doc])
    assert self_s["cli.main"] == 2.0
    assert self_s["manipulation.best_response_search"] == 5.0
    assert self_s["engine.exact_utility"] == 1.5
    assert calls["mechanisms.feasible_for_counts"] == 7
    assert rows == 1


def test_pass_times_queries_and_the_reference_job(bench, tmp_path):
    wall, scale, docs = bench.run_pass([_k33_query(bench, tmp_path)], traced=False)
    assert bench.failures == []
    assert 0 < wall and 0 < scale and docs == []


def test_refuses_to_run_without_sources(tmp_path):
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "decision", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout == ""
