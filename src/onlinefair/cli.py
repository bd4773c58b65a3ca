"""Command-line interface.

Subcommands: ``outcome`` (exact / necessary / possible queries), ``manipulate``
(deviation analysis), ``generate`` (gadget and random instances), ``oracle``
(brute-force graph/set answers), and ``sample`` (Monte Carlo estimates).

Conventions: agent and item indices are 1-based on the command line and in
all JSON files; rationals are "p/q" strings (floats are rejected); reports
go to standard output as deterministically ordered JSON.  Exit codes: 0 on
success, 2 for invalid input, 3 when an exact computation exceeds the
enumeration budget (override with the ONLINEFAIR_BUDGET environment
variable).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import (
    DEFAULT_ENUMERATION_BUDGET,
    AllocationState,
    BudgetExceeded,
    InputError,
    format_rational,
    instance_from_json_dict,
    instance_to_json_dict,
    json_int,
    json_list,
    parse_rational,
)
from .engine import (
    QueryContext,
    exact_utility,
    monte_carlo_estimate,
    next_item_probability,
    online_utilities,
    outcome_report,
    possible_item,
    possible_utility,
)
from .generators import (
    complete_bipartite,
    complete_minus_even_cycle,
    complete_minus_perfect_matching,
    count_perfect_matchings,
    even_cycle,
    graph_from_json_dict,
    make_subset_instance,
    min_maximal_matching_size,
    random_instance,
    reduction1_instance,
    reduction2_instance,
    reduction2_manip_instance,
    reduction3_instance,
    reduction_subset_instance,
    subset_sum_bc,
)
from .manipulation import (
    DEFAULT_SEARCH_MAX_ITEMS,
    ManipulationQuery,
    best_response_search,
    exact_manipulation_gain,
    is_strategyproof_on_instance,
    utilities_under_deviation,
)
from .mechanisms import Mechanism

NAMED_GRAPHS = {
    "k33": lambda: complete_bipartite(3, 3),
    "c4": lambda: even_cycle(4),
    "c6": lambda: even_cycle(6),
    "cube": lambda: complete_minus_perfect_matching(4),
    "k55-minus-c10": lambda: complete_minus_even_cycle(5),
}


def _budget() -> int:
    raw = os.environ.get("ONLINEFAIR_BUDGET")
    if raw is None:
        return DEFAULT_ENUMERATION_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise InputError(f"ONLINEFAIR_BUDGET must be an integer, got {raw!r}") from exc
    if value < 1:
        raise InputError("ONLINEFAIR_BUDGET must be positive")
    return value


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_instance(path: str):
    data = _load_json(path)
    if isinstance(data, dict) and "instance" in data:
        data = data["instance"]
    return instance_from_json_dict(data)


def _load_prefix(data: dict, n: int, m: int) -> tuple[tuple[int, ...], AllocationState]:
    if not isinstance(data, dict):
        raise InputError(f"a prefix must be a JSON object, got {type(data).__name__}")
    try:
        raw_arrived = data["arrived"]
        raw_bundles = data["bundles"]
    except KeyError as exc:
        raise InputError(f"missing prefix field: {exc}") from exc
    arrived = tuple(_item_index(json_int(k, "arrived item"), m)
                    for k in json_list(raw_arrived, "arrived"))
    raw_bundles = json_list(raw_bundles, "bundles")
    if len(raw_bundles) != n:
        raise InputError(f"prefix has {len(raw_bundles)} bundles for {n} agents")
    bundles = tuple(frozenset(_item_index(json_int(k, "bundle item"), m)
                              for k in json_list(bundle, "bundle"))
                    for bundle in raw_bundles)
    probability = parse_rational(data.get("probability", 1))
    return arrived, AllocationState(bundles, probability)


def _agent_index(value: int, n: int) -> int:
    if not 1 <= value <= n:
        raise InputError(f"agent {value} outside 1..{n}")
    return value - 1


def _item_index(value: int, m: int) -> int:
    if not 1 <= value <= m:
        raise InputError(f"item {value} outside 1..{m}")
    return value - 1


def _graph_from_args(args) -> "BipartiteGraph":
    if getattr(args, "graph", None):
        return graph_from_json_dict(_load_json(args.graph))
    name = getattr(args, "graph_name", None)
    if name:
        try:
            return NAMED_GRAPHS[name]()
        except KeyError as exc:
            raise InputError(
                f"unknown graph name {name!r}; pick from "
                f"{sorted(NAMED_GRAPHS)}") from exc
    raise InputError("provide --graph FILE or --graph-name NAME")


def _subset_from_args(args):
    for flag, value in (("--values", args.values), ("-b/--target", args.target),
                        ("-c/--cardinality", args.cardinality)):
        if value is None:
            raise InputError(f"--kind {args.kind} needs {flag}")
    try:
        values = [int(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise InputError(f"bad --values list: {exc}") from exc
    return make_subset_instance(values, args.target, args.cardinality)


def _context(args) -> QueryContext:
    instance = _load_instance(args.instance)
    mechanism = Mechanism.from_string(args.mechanism)
    prefix = None
    if getattr(args, "prefix", None):
        prefix = _load_prefix(_load_json(args.prefix), instance.n, instance.m)
    return QueryContext(instance, mechanism, known_prefix=prefix, budget=_budget())


# --- subcommand handlers --------------------------------------------------------


def _run_outcome(args) -> dict:
    if args.threshold is not None and args.query != "necessary":
        raise InputError(f"--threshold is not supported for {args.query} queries")
    ctx = _context(args)
    agent = _agent_index(args.agent, ctx.instance.n)
    out = {
        "query": args.query,
        "mechanism": ctx.mechanism.value,
        "agent": args.agent,
    }
    if args.query == "exact":
        if ctx.known_prefix is not None:
            if args.item is not None:
                raise InputError("--item is not supported together with --prefix")
            utilities = online_utilities(ctx)
            out["method"] = "online"
            out["expected_utility"] = [format_rational(u) for u in utilities]
            out["next_item_probability"] = [
                format_rational(p) for p in next_item_probability(ctx)]
            out["value"] = format_rational(utilities[agent])
        else:
            report = outcome_report(ctx)
            out.update(report.to_json_dict())
            if args.item is not None:
                item = _item_index(args.item, ctx.instance.m)
                out["item"] = args.item
                out["value"] = format_rational(
                    report.allocation_probability[agent][item])
            else:
                out["value"] = format_rational(report.expected_utility[agent])
    elif args.query == "necessary":
        if args.item is not None:
            raise InputError("--item is not supported for necessary queries")
        if args.threshold is None:
            raise InputError("necessary queries need --threshold p/q")
        threshold = parse_rational(args.threshold)
        value = exact_utility(ctx, agent)
        out["threshold"] = format_rational(threshold)
        out["value"] = format_rational(value)
        out["answer"] = value >= threshold
    elif args.item is not None:  # possible
        item = _item_index(args.item, ctx.instance.m)
        out["item"] = args.item
        out["answer"] = possible_item(ctx, agent, item)
    else:
        out["answer"] = possible_utility(ctx, agent)
    return out


def _run_manipulate(args) -> dict:
    if args.mode != "necessary" and (args.threshold is not None or args.strict):
        raise InputError("--threshold and --strict are only for --mode necessary")
    instance = _load_instance(args.instance)
    mechanism = Mechanism.from_string(args.mechanism)
    budget = _budget()
    out = {"mode": args.mode, "mechanism": mechanism.value}
    if args.mode == "strategyproof":
        out["answer"] = is_strategyproof_on_instance(instance, mechanism,
                                                     args.max_items, budget)
        return out
    if args.agent is None:
        raise InputError(f"--agent is required for mode {args.mode!r}")
    agent = _agent_index(args.agent, instance.n)
    out["agent"] = args.agent
    if args.mode == "best-response":
        row, gain = best_response_search(instance, mechanism, agent,
                                         args.max_items, budget)
        out["best_response_row"] = [format_rational(x) for x in row]
        out["gain"] = format_rational(gain)
        return out
    if not args.deviation:
        raise InputError(f"--deviation FILE is required for mode {args.mode!r}")
    data = _load_json(args.deviation)
    if isinstance(data, dict):
        try:
            deviation_row = data["bids"]
        except KeyError as exc:
            raise InputError(
                "deviation file must be a list of rationals or "
                "{\"bids\": [...]}") from exc
        sincere_row = data.get("sincere")
    else:
        deviation_row, sincere_row = data, None
    query = ManipulationQuery(
        instance, mechanism, agent,
        deviation=json_list(deviation_row, "deviation bids"),
        sincere=None if sincere_row is None else json_list(sincere_row, "sincere bids"),
        threshold=parse_rational("0" if args.threshold is None else args.threshold),
        budget=budget,
    )
    sincere_value, deviated_value = utilities_under_deviation(query)
    gain = deviated_value - sincere_value
    out["sincere_utility"] = format_rational(sincere_value)
    out["deviated_utility"] = format_rational(deviated_value)
    out["gain"] = format_rational(gain)
    if args.mode == "necessary":
        out["threshold"] = format_rational(query.threshold)
        out["strict"] = bool(args.strict)
        out["answer"] = gain > query.threshold if args.strict else gain >= query.threshold
    return out


def _run_generate(args) -> dict:
    kind = args.kind
    if kind == "reduction1":
        instance = reduction1_instance(_graph_from_args(args),
                                       edge_restricted=not args.full_support)
        return instance_to_json_dict(instance)
    if kind == "reduction2":
        return instance_to_json_dict(reduction2_instance(_graph_from_args(args)))
    if kind == "reduction2-manip":
        return instance_to_json_dict(
            reduction2_manip_instance(_graph_from_args(args)))
    if kind == "reduction3":
        if args.r is None:
            raise InputError("reduction3 needs -r")
        return instance_to_json_dict(
            reduction3_instance(_graph_from_args(args), args.r))
    if kind == "subset":
        subset = _subset_from_args(args)
        instance, threshold = reduction_subset_instance(subset)
        return {
            "instance": instance_to_json_dict(instance),
            "threshold": format_rational(threshold),
            "subset_exists": subset_sum_bc(subset, _budget()),
        }
    n, m, budget = args.agents, args.items, _budget()  # random
    cells = n * m + (m * m if args.arrival == "distribution" else 0)
    if n > 0 and m > 0 and cells > budget:
        raise BudgetExceeded(
            f"a random instance needs {cells} cells (budget {budget})")
    instance = random_instance(n, m, args.seed,
                               arrival=args.arrival, values=args.utility_kind)
    return instance_to_json_dict(instance)


def _run_oracle(args) -> dict:
    kind = args.kind
    if kind == "count-pm":
        return {"kind": kind,
                "answer": count_perfect_matchings(_graph_from_args(args), _budget())}
    if kind == "min-maximal":
        return {"kind": kind,
                "answer": min_maximal_matching_size(_graph_from_args(args), _budget())}
    return {"kind": kind,  # subset-sum
            "answer": subset_sum_bc(_subset_from_args(args), _budget())}


def _run_sample(args) -> dict:
    ctx = _context(args)
    result = monte_carlo_estimate(ctx, args.samples, args.seed)
    return {
        "method": "monte-carlo",
        "samples": args.samples,
        "seed": args.seed,
        "estimates": result.estimates,
        "standard_error": result.standard_error,
        "voided": result.voided,
    }


# --- parser ----------------------------------------------------------------------


def _add_graph_options(parser):
    parser.add_argument("--graph", help="bipartite graph JSON file")
    parser.add_argument("--graph-name", choices=sorted(NAMED_GRAPHS),
                        help="built-in graph instead of a file")


def _add_outcome(sub):
    outcome = sub.add_parser("outcome", help="exact / necessary / possible queries")
    outcome.add_argument("instance", help="instance JSON file")
    outcome.add_argument("--query", required=True,
                         choices=["exact", "necessary", "possible"])
    outcome.add_argument("--mechanism", required=True)
    outcome.add_argument("--agent", type=int, required=True,
                         help="agent index, 1-based")
    outcome.add_argument("--item", type=int,
                         help="item index (1-based) for per-item queries")
    outcome.add_argument("--threshold", help="rational threshold p/q")
    outcome.add_argument("--prefix",
                         help="known-prefix JSON file: {arrived, bundles}, plus an "
                         "optional probability that is never multiplied in")
    outcome.set_defaults(handler=_run_outcome)


def _add_manipulate(sub):
    manipulate = sub.add_parser("manipulate", help="deviation analysis")
    manipulate.add_argument("instance")
    manipulate.add_argument("--mode", required=True,
                            choices=["exact", "necessary", "best-response",
                                     "strategyproof"])
    manipulate.add_argument("--mechanism", default="balanced-like")
    manipulate.add_argument("--agent", type=int, help="agent index, 1-based")
    manipulate.add_argument("--deviation",
                            help="JSON file: list of rationals or {bids, sincere}")
    manipulate.add_argument("--threshold", help="rational gain threshold p/q")
    manipulate.add_argument("--strict", action="store_true",
                            help="require a strictly larger gain")
    manipulate.add_argument("--max-items", type=int,
                            default=DEFAULT_SEARCH_MAX_ITEMS,
                            help="cap on items for exhaustive search")
    manipulate.set_defaults(handler=_run_manipulate)


def _add_generate(sub):
    generate = sub.add_parser("generate", help="emit gadget or random instances")
    generate.add_argument("--kind", required=True,
                          choices=["reduction1", "reduction2", "reduction2-manip",
                                   "reduction3", "subset", "random"])
    _add_graph_options(generate)
    generate.add_argument("-r", type=int, help="token cutoff for reduction3")
    generate.add_argument("--full-support", action="store_true",
                          help="reduction1: put mass 1/M everywhere, not just edges")
    generate.add_argument("--values", help="comma-separated integers for subset")
    generate.add_argument("-b", "--target", type=int, help="subset target sum")
    generate.add_argument("-c", "--cardinality", type=int, help="subset cardinality")
    generate.add_argument("-n", "--agents", type=int, default=3)
    generate.add_argument("-m", "--items", type=int, default=4)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--arrival", choices=["order", "distribution"],
                          default="order")
    generate.add_argument("--utility-kind", choices=["binary", "rational"],
                          default="binary")
    generate.set_defaults(handler=_run_generate)


def _add_oracle(sub):
    oracle = sub.add_parser("oracle", help="brute-force graph and subset answers")
    oracle.add_argument("--kind", required=True,
                        choices=["count-pm", "min-maximal", "subset-sum"])
    _add_graph_options(oracle)
    oracle.add_argument("--values", help="comma-separated integers for subset-sum")
    oracle.add_argument("-b", "--target", type=int)
    oracle.add_argument("-c", "--cardinality", type=int)
    oracle.set_defaults(handler=_run_oracle)


def _add_sample(sub):
    sample = sub.add_parser("sample", help="Monte Carlo utility estimates")
    sample.add_argument("instance")
    sample.add_argument("--mechanism", required=True)
    sample.add_argument("--samples", type=int, required=True)
    sample.add_argument("--seed", type=int, required=True)
    sample.add_argument("--prefix", help="known-prefix JSON file")
    sample.set_defaults(handler=_run_sample)


_SUBCOMMANDS = {"outcome": _add_outcome, "manipulate": _add_manipulate,
               "generate": _add_generate, "oracle": _add_oracle, "sample": _add_sample}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The command-line parser.  When ``command`` names a subcommand, only
    that subcommand's parser is built: the first argument picks it, and
    argparse never reads the others.  The listed choices stay all five, so
    every message prints as from the full parser."""
    parser = argparse.ArgumentParser(
        prog="onlinefair",
        description="Exact outcomes and manipulation analysis for the Like "
                    "and Balanced Like online allocation mechanisms.")
    if command not in _SUBCOMMANDS:
        sub = parser.add_subparsers(dest="command", required=True)
        for add in _SUBCOMMANDS.values():
            add(sub)
        return parser
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_SUBCOMMANDS) + "}")
    _SUBCOMMANDS[command](sub)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        payload = args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
