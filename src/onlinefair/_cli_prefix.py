"""The known-prefix part of the command line: reading a ``--prefix`` file,
and the ``outcome --query exact --prefix`` answer.  Only a call given
``--prefix`` loads this module.  ``cli`` is the running command-line module,
handed over by its stubs; the online queries are called through it.
"""

from .core import AllocationState, InputError, json_int, json_list, parse_rational


def load_prefix(cli, path: str, m: int) -> tuple[tuple[int, ...], AllocationState]:
    """Read a prefix file, checking what only the file can show: its shape,
    and its 1-based item indices as written (in range, no item in two
    bundles).  ``core.check_prefix`` checks the rest when a query runs."""
    data = cli._load_json(path)
    if not isinstance(data, dict):
        raise InputError(f"a prefix must be a JSON object, got {type(data).__name__}")
    try:
        raw_arrived = data["arrived"]
        raw_bundles = data["bundles"]
    except KeyError as exc:
        raise InputError(f"missing prefix field: {exc}") from exc
    arrived = tuple(cli._index(json_int(k, "arrived item"), m)
                    for k in json_list(raw_arrived, "arrived"))
    bundles = [[cli._index(json_int(k, "bundle item"), m)
                for k in json_list(bundle, "bundle")]
               for bundle in json_list(raw_bundles, "bundles")]
    held = sorted(k for bundle in bundles for k in bundle)
    for k, after in zip(held, held[1:]):
        if k == after:
            raise InputError(f"the prefix bundles list item {k + 1} twice")
    probability = parse_rational(data.get("probability", 1))
    return arrived, AllocationState(tuple(map(frozenset, bundles)), probability)


def online_outcome(cli, args, ctx, agent: int, out: dict) -> dict:
    if args.item is not None:
        raise InputError("--item is not supported together with --prefix")
    # one step gives both answers: the utilities add the held values to nxt
    nxt = cli.next_item_probability(ctx)
    from ._online import online_utilities
    utilities = online_utilities(ctx, nxt)
    return {**out, "method": "online", "expected_utility": utilities,
            "next_item_probability": nxt, "value": utilities[agent]}
