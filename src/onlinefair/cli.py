"""Command-line interface.

Subcommands: ``outcome`` (exact / necessary / possible queries), ``manipulate``
(deviation analysis), ``generate`` (gadget and random instances), ``oracle``
(brute-force graph/set answers), and ``sample`` (Monte Carlo estimates).

Conventions: agent and item indices are 1-based on the command line and in
all JSON files; rationals are "p/q" strings (floats are rejected); reports
go to standard output as deterministically ordered JSON.  Exit codes: 0 on
success, 1 when the report cannot be written, 2 for invalid input, 3 when
an exact computation exceeds the enumeration budget (override with the
ONLINEFAIR_BUDGET environment variable).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import (
    DEFAULT_ENUMERATION_BUDGET,
    BudgetExceeded,
    InputError,
    format_rational,
    instance_from_json_dict,
    instance_to_json_dict,
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
# The ``_cli_*`` runners call the generator and manipulation names through
# the running CLI module, where perfbench/trace_entry.py wraps them.
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
    best_response_search,
    exact_manipulation_gain,
    is_strategyproof_on_instance,
    utilities_under_deviation,
)
from .mechanisms import Mechanism


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


def _index(value: int, size: int, what: str = "item") -> int:
    """The 0-based index of a 1-based agent or item."""
    if not 1 <= value <= size:
        raise InputError(f"{what} {value} outside 1..{size}")
    return value - 1


def _context(args) -> QueryContext:
    instance = _load_instance(args.instance)
    mechanism = Mechanism.from_string(args.mechanism)
    prefix = None
    if getattr(args, "prefix", None) is not None:
        prefix = _load_prefix(args.prefix, instance.m)
    return QueryContext(instance, mechanism, known_prefix=prefix, budget=_budget())


def _check_flags(args, option: str, reads: dict) -> None:
    """Refuse a flag that the chosen ``--option`` never reads, and a missing
    one that it needs.  ``reads`` gives, for each choice, the optional flags
    it reads, "!" marking the ones it needs.  A flag counts as given unless
    its value is None, or False for a switch."""
    choice = getattr(args, option)
    for flag in " ".join(reads.values()).split():
        # the dest of the long form: "-b/--target!" is args.target
        value = getattr(args, flag.strip("-!").split("--")[-1].replace("-", "_"), None)
        if flag not in reads[choice].split():
            if value is not None and value is not False:
                raise InputError(
                    f"{flag.rstrip('!')} is not supported for --{option} {choice}")
        elif flag[-1] == "!" and value is None:
            raise InputError(f"--{option} {choice} needs {flag[:-1]}")


# --- outcome ---------------------------------------------------------------------


def _run_outcome(args) -> dict:
    _check_flags(args, "query", {"exact": "--item", "necessary": "--threshold!",
                                 "possible": "--item"})
    ctx = _context(args)
    agent = _index(args.agent, ctx.instance.n, "agent")
    out = {
        "query": args.query,
        "mechanism": ctx.mechanism.value,
        "agent": args.agent,
    }
    if args.query == "exact":
        if ctx.known_prefix is not None:
            return _online_outcome(args, ctx, agent, out)
        report = outcome_report(ctx)
        out.update(report.to_json_dict())
        if args.item is not None:
            item = _index(args.item, ctx.instance.m)
            out["item"] = args.item
            out["value"] = report.allocation_probability[agent][item]
        else:
            out["value"] = report.expected_utility[agent]
    elif args.query == "necessary":
        threshold = parse_rational(args.threshold)
        value = exact_utility(ctx, agent)
        out["threshold"] = threshold
        out["value"] = value
        out["answer"] = value >= threshold
    elif args.item is not None:  # possible
        item = _index(args.item, ctx.instance.m)
        out["item"] = args.item
        out["answer"] = possible_item(ctx, agent, item)
    else:
        out["answer"] = possible_utility(ctx, agent)
    return out


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


# --- bodies loaded on first use --------------------------------------------------
# Each stub hands the body this module, the running one, which is __main__
# under ``python -m onlinefair.cli``: a body that imported ``.cli`` would
# compile this file a second time.


def _load_prefix(path: str, m: int):
    from ._cli_prefix import load_prefix
    return load_prefix(sys.modules[__name__], path, m)


def _online_outcome(args, ctx, agent: int, out: dict) -> dict:
    from ._cli_prefix import online_outcome
    return online_outcome(sys.modules[__name__], args, ctx, agent, out)


def _add_manipulate(sub):
    from ._cli_manipulate import add_manipulate
    add_manipulate(sys.modules[__name__], sub)


def _add_generate(sub):
    from ._cli_generate import add_generate
    add_generate(sys.modules[__name__], sub)


def _add_oracle(sub):
    from ._cli_generate import add_oracle
    add_oracle(sys.modules[__name__], sub)


def _add_sample(sub):
    from ._cli_sample import add_sample
    add_sample(sys.modules[__name__], sub)


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
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_SUBCOMMANDS) + "}")
    for name in [command] if command in _SUBCOMMANDS else _SUBCOMMANDS:
        _SUBCOMMANDS[name](sub)
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
    print(json.dumps(payload, indent=2, sort_keys=True, default=format_rational))
    return 0


def run() -> None:
    """The ``onlinefair`` script and ``python -m onlinefair.cli``: run
    :func:`main` on ``sys.argv[1:]``, flush stdout and stderr, and end the
    process with ``os._exit(status)``.

    ``os._exit`` skips interpreter teardown, which only frees the loaded
    modules one by one, about 10 ms of every call.  That is safe because a
    CLI call registers no atexit handler, starts no thread or child process,
    and writes only to stdout and stderr, both flushed here; input files are
    read and closed in ``with`` blocks.  An unwritable stdout (a full device,
    a closed pipe) ends in one ``error: cannot write the report`` line and
    status 1, and so does a report with nowhere to go because stdout was
    closed at start.  argparse's own exits (``--help``, usage errors) raise
    ``SystemExit`` from ``main``; its code is the status, and the same flush
    follows.  In-process callers use ``main(argv)``, which returns its
    status and never ends the process.
    """
    try:
        try:
            status = main(sys.argv[1:])
        except SystemExit as exc:
            status = exc.code
        if status == 0 and sys.stdout is None:
            raise OSError("stdout is closed")
        for stream in sys.stdout, sys.stderr:
            if stream is not None:  # None: its descriptor was closed at start
                stream.flush()
    except OSError as exc:
        status = 1
        try:
            print(f"error: cannot write the report: {exc}", file=sys.stderr,
                  flush=True)
        except OSError:
            pass
    os._exit(status)


if __name__ == "__main__":
    run()
