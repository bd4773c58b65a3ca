"""The ``sample`` subcommand's parser and runner, which only a ``sample``
call loads.  ``cli`` is the running command-line module, handed over by its
stub; the sampler is called through it.
"""


def add_sample(cli, sub):
    sample = sub.add_parser("sample", help="Monte Carlo utility estimates")
    sample.add_argument("instance")
    sample.add_argument("--mechanism", required=True)
    sample.add_argument("--samples", type=int, required=True)
    sample.add_argument("--seed", type=int, required=True)
    sample.add_argument("--prefix", help="known-prefix JSON file")
    sample.set_defaults(handler=lambda args: run_sample(cli, args))


def run_sample(cli, args) -> dict:
    ctx = cli._context(args)
    result = cli.monte_carlo_estimate(ctx, args.samples, args.seed)
    return {"method": "monte-carlo", "samples": args.samples, "seed": args.seed,
            **result._asdict()}
