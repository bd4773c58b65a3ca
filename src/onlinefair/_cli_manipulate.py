"""The ``manipulate`` subcommand's parser and runner, which only a
``manipulate`` call loads.  ``cli`` is the running command-line module,
handed over by its stub; the manipulation entry points are called through
it.
"""

from .core import InputError, json_list, parse_rational

# For each mode, the optional flags it reads, "!" marking the ones it needs.
READS = {"necessary": "--threshold --strict --agent! --deviation!",
         "exact": "--agent! --deviation!", "best-response": "--agent!",
         "strategyproof": ""}


def add_manipulate(cli, sub):
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
    manipulate.set_defaults(handler=lambda args: run_manipulate(cli, args))


def run_manipulate(cli, args) -> dict:
    cli._check_flags(args, "mode", READS)
    ctx = cli._context(args)
    out = {"mode": args.mode, "mechanism": ctx.mechanism.value}
    if args.mode == "strategyproof":
        out["answer"] = cli.is_strategyproof_on_instance(ctx)
        return out
    agent = cli._index(args.agent, ctx.instance.n, "agent")
    out["agent"] = args.agent
    if args.mode == "best-response":
        row, gain = cli.best_response_search(ctx, agent)
        out["best_response_row"] = row
        out["gain"] = gain
        return out
    threshold = parse_rational("0" if args.threshold is None else args.threshold)
    data = cli._load_json(args.deviation)
    if not isinstance(data, dict):
        data = {"bids": data}
    if "bids" not in data:
        raise InputError('deviation file must be a list of rationals or {"bids": [...]}')
    sincere = data.get("sincere")
    sincere_value, deviated_value = cli.utilities_under_deviation(
        ctx, agent, json_list(data["bids"], "deviation bids"),
        None if sincere is None else json_list(sincere, "sincere bids"))
    gain = deviated_value - sincere_value
    out["sincere_utility"] = sincere_value
    out["deviated_utility"] = deviated_value
    out["gain"] = gain
    if args.mode == "necessary":
        out["threshold"] = threshold
        out["strict"] = bool(args.strict)
        out["answer"] = gain > threshold if args.strict else gain >= threshold
    return out
