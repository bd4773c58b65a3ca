"""Run one ``onlinefair`` CLI call with spans recorded at the layer boundaries.

Usage: python3 perfbench/trace_entry.py SPANS_FILE QUERY_ID -- CLI_ARGS...

The wrappers replace the public names each module imports from the layer
below: the engine, manipulation, generator and core functions that
``onlinefair.cli`` calls, ``exact_utility`` as ``onlinefair.manipulation``
sees it, and ``feasible_for_counts`` as ``onlinefair.engine`` sees it.  The
program itself is unchanged.  Spans stay in memory and are written to
SPANS_FILE as JSON when the call ends:

    {"query": QUERY_ID,
     "spans": [[name, start, end, parent_index], ...],
     "leaves": [[name, parent_index, calls, total_seconds], ...]}

``feasible_for_counts`` runs once per frontier state and item, millions of
times on large instances, so its calls are summed per parent span ("leaves")
instead of being kept one by one.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

ENGINE_SPANS = {
    "outcome_report": "engine.outcome_report",
    "exact_utility": "engine.exact_utility",
    "possible_item": "engine.possible_item",
    "possible_utility": "engine.possible_utility",
    "monte_carlo_estimate": "engine.monte_carlo_estimate",
    "online_utilities": "engine.online",
    "next_item_probability": "engine.online",
}
MANIPULATION_SPANS = ("best_response_search", "is_strategyproof_on_instance",
                      "utilities_under_deviation", "exact_manipulation_gain")
CORE_SPANS = {
    "instance_from_json_dict": "core.instance_from_json_dict",
    "instance_to_json_dict": "core.to_json_dict",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.leaves: dict[tuple[str, int], list] = {}
        self.stack = [-1]

    def span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
        return wrapper

    def leaf(self, name, fn):
        leaves, stack, clock = self.leaves, self.stack, time.perf_counter

        def wrapper(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                total = leaves.get((name, stack[-1]))
                if total is None:
                    leaves[(name, stack[-1])] = [1, elapsed]
                else:
                    total[0] += 1
                    total[1] += elapsed
        return wrapper

    def dump(self, path: str, query_id: str) -> None:
        with open(path, "w") as handle:
            json.dump({
                "query": query_id,
                "spans": self.spans,
                "leaves": [[name, parent, calls, total] for (name, parent), (calls, total)
                           in self.leaves.items()],
            }, handle)


def install(tracer: Tracer):
    """Wrap the layer boundaries; returns the traced ``cli.main``."""
    from onlinefair import cli, core, engine, manipulation

    for name, span in ENGINE_SPANS.items():
        setattr(cli, name, tracer.span(span, getattr(cli, name)))
    for name in MANIPULATION_SPANS:
        setattr(cli, name, tracer.span(f"manipulation.{name}", getattr(cli, name)))
    for name, span in CORE_SPANS.items():
        setattr(cli, name, tracer.span(span, getattr(cli, name)))
    for name, fn in list(vars(cli).items()):
        if inspect.isfunction(fn) and fn.__module__ == "onlinefair.generators":
            setattr(cli, name, tracer.span(f"generators.{name}", fn))
    core.OutcomeReport.to_json_dict = tracer.span(
        "core.to_json_dict", core.OutcomeReport.to_json_dict)
    manipulation.exact_utility = tracer.span("engine.exact_utility",
                                             manipulation.exact_utility)
    engine.feasible_for_counts = tracer.leaf("mechanisms.feasible_for_counts",
                                             engine.feasible_for_counts)
    return tracer.span("cli.main", cli.main)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    spans_file, query_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    traced_main = install(tracer)
    try:
        return traced_main(cli_args)
    finally:
        tracer.dump(spans_file, query_id)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
