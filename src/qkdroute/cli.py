"""Command-line front end.

Subcommands::

    qkdroute validate --input net.json [--m 2]
    qkdroute route    --input net.json [--delta-r 0.01] [--seed 0] ...
    qkdroute paths    --input net.json --pair 1,3 [--m 2] [--hop-limit H]
    qkdroute simulate --input net.json --routing DIR --tau 100 [--compromise 0,4]

Exit codes: 0 success, 1 validation or input failure (a malformed command
line included), 2 runtime error.
"""

from __future__ import annotations

import argparse
import operator
import sys
from pathlib import Path as FsPath
from typing import TYPE_CHECKING, NoReturn, Optional, Sequence

from . import __version__
from .model import CapacityError, RouterConfig, ValidationError, validate
from .netfile import LoadedNetwork, NetworkFormatError, load_network
from .units import as_decimal

if TYPE_CHECKING:
    from .engine import RoutingOutcome

# each command imports what it runs, when it runs: paths for validate, engine
# for paths and route, artifacts (with hashlib) for route and simulate,
# keysim (with numpy) for simulate alone

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUNTIME = 2


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("pair must look like I,J")
    try:
        i, j = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError("pair must contain two integers") from exc
    return i, j


def _parse_nodes(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected a comma-separated node list") from exc


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit as input failures."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qkdroute",
        description="Key routing over multiple node-disjoint paths",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--m", type=int, default=None,
                        help="disjoint paths per route set (overrides the file)")
    input_only = _Parser(add_help=False)
    input_only.add_argument("--input", required=True, help="network description JSON")
    with_input = _Parser(add_help=False, parents=[common, input_only])

    p_validate = sub.add_parser("validate", parents=[with_input],
                                help="check degree and connectivity requirements")

    p_route = sub.add_parser("route", parents=[common],
                             help="run the routing loop and write artifacts")
    source = p_route.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="network description JSON")
    source.add_argument("--from-manifest", default=None,
                        help="re-run a previous route from its manifest.json")
    # each --sweep value replaces the step, so the two are not given together
    step = p_route.add_mutually_exclusive_group()
    step.add_argument("--delta-r", default=None,
                      help="rate step in kbit/s (overrides the file)")
    p_route.add_argument("--r-max", type=int, default=None,
                         help="iteration budget (overrides the file)")
    p_route.add_argument("--seed", type=int, default=None,
                         help="tie-break seed (overrides the file)")
    p_route.add_argument("--hop-limit", type=int, default=None,
                         help="maximum hops per path (overrides the file)")
    p_route.add_argument("--no-strict-guard", action="store_true",
                         help="allow increments that exhaust an edge")
    p_route.add_argument("--out-dir", default="qkdroute_out",
                         help="artifact directory (default qkdroute_out)")
    step.add_argument("--sweep", default=None,
                      help="comma-separated delta-r values to run in parallel")

    p_paths = sub.add_parser("paths", parents=[with_input],
                             help="list disjoint path sets for one pair")
    p_paths.add_argument("--pair", type=_parse_pair, required=True,
                         help="node pair, e.g. 1,3")
    p_paths.add_argument("--hop-limit", type=int, default=None)

    p_sim = sub.add_parser("simulate", parents=[input_only],
                           help="simulate key delivery over a routing artifact")
    p_sim.add_argument("--routing", required=True,
                       help="routing_list.json or the directory holding it")
    p_sim.add_argument("--tau", required=True,
                       help="harvest window in seconds")
    p_sim.add_argument("--seed", type=int, default=0,
                       help="seed for the key material")
    p_sim.add_argument("--compromise", type=_parse_nodes, default=(),
                       help="comma-separated compromised node ids")
    p_sim.add_argument("--epsilon", default=None,
                       help="per-node compromise probability for the bound")
    p_sim.add_argument("--out-dir", default=None,
                       help="also write report files to this directory")
    p_sim.add_argument("--dump-keys", action="store_true",
                       help="include hex key dumps in the text report")
    return parser


def _merged_config(file_config: RouterConfig, args: argparse.Namespace,
                   scale) -> RouterConfig:
    """The one place where command-line flags override the file's router config."""
    # a command without one of these flags leaves the file's value
    updates = {key: value for key in ("m", "r_max", "seed", "hop_limit")
               if (value := getattr(args, key, None)) is not None}
    if getattr(args, "delta_r", None) is not None:
        updates["delta_r"] = scale.units_from_kbps(args.delta_r, "--delta-r")
    if getattr(args, "no_strict_guard", False):
        updates["strict_guard"] = False
    return file_config.replace(**updates)


def cmd_validate(args: argparse.Namespace) -> int:
    from .paths import find_unroutable_pairs

    graph, _, file_config = load_network(args.input)
    config = _merged_config(file_config, args, graph.scale)
    report = validate(graph, config.m)
    unroutable = find_unroutable_pairs(graph, config.m, config.hop_limit)
    print(f"nodes: {graph.node_count}, edges: {len(graph.edges)}")
    print(f"minimum degree: {report.min_degree} (need >= {config.m})")
    print(f"connected: {'yes' if report.connected else 'no'}")
    if report.degree_violations:
        print(f"degree violations: {list(report.degree_violations)}")
    else:
        print("degree violations: none")
    if unroutable:
        print(
            "remote pairs with no disjoint path set: "
            + ", ".join(f"({i}, {j})" for i, j in unroutable)
        )
    return EXIT_OK if report.ok and not unroutable else EXIT_INVALID


def _run_route(
    network: LoadedNetwork, config: RouterConfig, out_dir: str, input_path: str
) -> RoutingOutcome:
    from . import artifacts, engine

    outcome = engine.run(network.graph, network.target, config)
    artifacts.write_route_artifacts(out_dir, outcome, network.graph, network.target, config,
                                    input_path)
    return outcome


def _sweep_worker(task: tuple) -> tuple[str, int, str, int]:
    outcome = _run_route(*task)
    return task[2], outcome.iterations, outcome.stop_reason.value, outcome.final_delta


def cmd_route(args: argparse.Namespace) -> int:
    from . import artifacts

    if args.from_manifest:
        input_path, network = artifacts.read_route_manifest(args.from_manifest)
    else:
        input_path = args.input
        network = load_network(input_path)
    scale = network.graph.scale
    config = _merged_config(network.config, args, scale)

    if args.sweep is not None:
        values = [v.strip() for v in args.sweep.split(",") if v.strip()]
        if not values:
            raise ValidationError("--sweep lists no delta-r value")
        # a repeat, in any spelling, would run one step twice
        tasks, spelled = [], {}
        for value in values:
            delta_r = scale.units_from_kbps(value, "--sweep")
            if delta_r in spelled:
                first = spelled[delta_r]
                raise ValidationError(f"--sweep lists {value} more than once" if first == value
                                      else f"--sweep lists {first} and {value}, the same delta-r")
            spelled[delta_r] = value
            combo_dir = str(FsPath(args.out_dir) / f"delta_r_{value}")
            tasks.append((network, config.replace(delta_r=delta_r), combo_dir, input_path))
        # combos are independent; order of completion does not matter
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor() as pool:
            results = list(pool.map(_sweep_worker, tasks))
        for out_dir, iterations, reason, final_delta in results:
            print(
                f"{out_dir}: iterations={iterations} stop={reason} "
                f"final_delta={scale.kbps_str(final_delta)}"
            )
        return EXIT_OK

    if config.delta_r is None:
        raise ValidationError(
            "delta_r is not set; pass --delta-r or add router.delta_r_kbps to the file"
        )
    outcome = _run_route(network, config, args.out_dir, input_path)
    print(
        f"stop: {outcome.stop_reason.value} after {outcome.iterations} iterations, "
        f"final delta {scale.kbps_str(outcome.final_delta)} kbit/s"
    )
    sys.stdout.write(artifacts.render_routing_text(outcome.routing_list, scale))
    print(f"artifacts in {FsPath(args.out_dir)}")
    return EXIT_OK


def cmd_paths(args: argparse.Namespace) -> int:
    from . import engine

    graph, target, file_config = load_network(args.input)
    config = _merged_config(file_config, args, graph.scale)
    i, j = args.pair
    # the rows route ranks, each scored by its most deficient edge
    table = engine.CandidateTable(graph, (i, j), config.m, config.hop_limit)
    print(f"pair ({min(i, j)}, {max(i, j)}), M={config.m}: "
          f"{len(table.paths)} simple paths, {len(table.rows)} disjoint sets")
    if not table.rows:
        print("no disjoint path set exists for this pair")
        return EXIT_OK
    deficiency = tuple(map(operator.sub, target.cells, graph.rate_matrix().cells))
    for s, d, _ in table.scored(deficiency):
        print(f"{s}  D={graph.scale.kbps_str(d)}  hops={s.total_hops}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import artifacts, keysim

    graph, target, _ = load_network(args.input)
    routing_path = FsPath(args.routing)
    if routing_path.is_dir():
        routing_path = routing_path / "routing_list.json"
    if args.out_dir and FsPath(args.out_dir).resolve() == routing_path.parent.resolve():
        raise ValidationError(f"--out-dir {args.out_dir} would replace the route's manifest.json")
    routing = artifacts.read_routing_artifact(routing_path, graph, target)
    tau = as_decimal(args.tau, "--tau")
    # refused before anything is drawn
    keysim.check_compromise(graph, args.compromise, args.epsilon)
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    sim = keysim.simulate(graph, routing, tau, seed=args.seed)
    # every own share is an edge rate minus record rates, so it is exact
    # when these are
    rates = {graph.rate(u, v) for u, v in graph.edges}
    rates.update(record.rate for record in routing.records())
    if not all(graph.scale.bits_exact(rate, tau) for rate in rates):
        print(
            "warning: tau leaves fractional bits in some pools or relay "
            "segments; lengths are rounded down",
            file=sys.stderr,
        )
    report = keysim.assess_compromise(sim, args.compromise, epsilon=args.epsilon)
    text = artifacts.render_simulation_text(sim, report, dump_keys=args.dump_keys)
    sys.stdout.write(text)
    if args.out_dir:
        artifacts.write_simulation_artifacts(
            args.out_dir, sim, report, args.input, routing_path, text
        )
        print(f"artifacts in {FsPath(args.out_dir)}")
    if not all(key.agreed for key in sim.pair_keys.values()):
        print("endpoint keys disagree", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "route": cmd_route,
    "paths": cmd_paths,
    "simulate": cmd_simulate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (NetworkFormatError, ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
