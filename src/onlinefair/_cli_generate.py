"""The ``generate`` and ``oracle`` subcommands' parsers and runners, which
the first call of either loads.  ``cli`` is the running command-line module,
handed over by its stubs; every generator is called through it.
"""

from .core import BudgetExceeded, InputError
from .generators import BipartiteGraph

NAMED_GRAPHS = {
    "k33": lambda cli: cli.complete_bipartite(3, 3),
    "c4": lambda cli: cli.even_cycle(4),
    "c6": lambda cli: cli.even_cycle(6),
    "cube": lambda cli: cli.complete_minus_perfect_matching(4),
    "k55-minus-c10": lambda cli: cli.complete_minus_even_cycle(5),
}

# For each kind, the optional flags it reads, "!" marking the ones it needs.
READS = {"reduction1": "--graph --graph-name --full-support",
         "reduction2": "--graph --graph-name",
         "reduction2-manip": "--graph --graph-name",
         "reduction3": "--graph --graph-name -r!",
         "subset": "--values! -b/--target! -c/--cardinality!",
         "random": "-n/--agents -m/--items --seed --arrival --utility-kind",
         "count-pm": "--graph --graph-name", "min-maximal": "--graph --graph-name",
         "subset-sum": "--values! -b/--target! -c/--cardinality!"}


def graph_from_args(cli, args) -> BipartiteGraph:
    if args.graph is not None:
        return cli.graph_from_json_dict(cli._load_json(args.graph))
    if args.graph_name:  # argparse restricts it to the names
        return NAMED_GRAPHS[args.graph_name](cli)
    raise InputError("provide --graph FILE or --graph-name NAME")


def subset_from_args(cli, args):
    try:
        values = [int(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise InputError(f"bad --values list: {exc}") from exc
    if not values:
        raise InputError("--values lists no integers")
    return cli.make_subset_instance(values, args.target, args.cardinality)


def run_generate(cli, args) -> dict:
    cli._check_flags(args, "kind", READS)
    kind = args.kind
    if kind == "subset":
        subset = subset_from_args(cli, args)
        instance, threshold = cli.reduction_subset_instance(subset)
        return {
            "instance": cli.instance_to_json_dict(instance),
            "threshold": threshold,
            "subset_exists": cli.subset_sum_bc(subset, cli._budget()),
        }
    if kind == "random":
        n = 3 if args.agents is None else args.agents
        m = 4 if args.items is None else args.items
        budget = cli._budget()
        cells = n * m + (m * m if args.arrival == "distribution" else 0)
        if n > 0 and m > 0 and cells > budget:
            raise BudgetExceeded(
                f"a random instance needs {cells} cells (budget {budget})")
        instance = cli.random_instance(n, m, args.seed or 0,
                                       arrival=args.arrival or "order",
                                       values=args.utility_kind or "binary")
    elif kind == "reduction1":
        instance = cli.reduction1_instance(graph_from_args(cli, args),
                                           edge_restricted=not args.full_support)
    elif kind == "reduction3":
        instance = cli.reduction3_instance(graph_from_args(cli, args), args.r)
    elif kind == "reduction2":
        instance = cli.reduction2_instance(graph_from_args(cli, args))
    else:
        instance = cli.reduction2_manip_instance(graph_from_args(cli, args))
    return cli.instance_to_json_dict(instance)


def run_oracle(cli, args) -> dict:
    cli._check_flags(args, "kind", READS)
    if args.kind == "subset-sum":
        answer = cli.subset_sum_bc(subset_from_args(cli, args), cli._budget())
    elif args.kind == "count-pm":
        answer = cli.count_perfect_matchings(graph_from_args(cli, args), cli._budget())
    else:
        answer = cli.min_maximal_matching_size(graph_from_args(cli, args), cli._budget())
    return {"kind": args.kind, "answer": answer}


def add_graph_options(parser):
    graph = parser.add_mutually_exclusive_group()
    graph.add_argument("--graph", help="bipartite graph JSON file")
    graph.add_argument("--graph-name", choices=sorted(NAMED_GRAPHS),
                       help="built-in graph instead of a file")


def add_generate(cli, sub):
    generate = sub.add_parser("generate", help="emit gadget or random instances")
    generate.add_argument("--kind", required=True,
                          choices=["reduction1", "reduction2", "reduction2-manip",
                                   "reduction3", "subset", "random"])
    add_graph_options(generate)
    generate.add_argument("-r", type=int, help="token cutoff for reduction3")
    generate.add_argument("--full-support", action="store_true",
                          help="reduction1: put mass 1/M everywhere, not just edges")
    generate.add_argument("--values", help="comma-separated integers for subset")
    generate.add_argument("-b", "--target", type=int, help="subset target sum")
    generate.add_argument("-c", "--cardinality", type=int, help="subset cardinality")
    generate.add_argument("-n", "--agents", type=int, help="random: agents (default 3)")
    generate.add_argument("-m", "--items", type=int, help="random: items (default 4)")
    generate.add_argument("--seed", type=int, help="random: seed (default 0)")
    generate.add_argument("--arrival", choices=["order", "distribution"],
                          help="random: arrival model (default order)")
    generate.add_argument("--utility-kind", choices=["binary", "rational"],
                          help="random: utilities (default binary)")
    generate.set_defaults(handler=lambda args: run_generate(cli, args))


def add_oracle(cli, sub):
    oracle = sub.add_parser("oracle", help="brute-force graph and subset answers")
    oracle.add_argument("--kind", required=True,
                        choices=["count-pm", "min-maximal", "subset-sum"])
    add_graph_options(oracle)
    oracle.add_argument("--values", help="comma-separated integers for subset-sum")
    oracle.add_argument("-b", "--target", type=int)
    oracle.add_argument("-c", "--cardinality", type=int)
    oracle.set_defaults(handler=lambda args: run_oracle(cli, args))
