"""Route the 6-node ring benchmark and watch the step size trade-off.

The network is a 6-cycle with one chord, every edge generating 1.0 kbit/s,
and every non-adjacent pair asking for 0.1 kbit/s.  The demand is exactly
satisfiable, so the router converges to zero deficiency; a finer rate step
just takes proportionally more iterations to get there.

Run from the repository root:

    python3 demos/route_basics.py
"""

from __future__ import annotations

from pathlib import Path

from qkdroute import RouterConfig, load_network, run
from qkdroute.artifacts import render_routing_text

NETWORKS = Path(__file__).resolve().parent.parent / "networks"


def main() -> None:
    graph, target, config = load_network(NETWORKS / "ring6_chord.json")
    print(f"network: {graph.node_count} nodes, {len(graph.edges)} edges, "
          f"{len(graph.remote_pairs())} remote pairs\n")

    for delta_kbps in ("0.01", "0.005", "0.001"):
        step = graph.scale.units_from_kbps(delta_kbps, "delta_r")
        outcome = run(graph, target, RouterConfig(m=config.m, delta_r=step,
                                                  seed=config.seed))
        print(f"delta_r = {delta_kbps} kbit/s: "
              f"{outcome.iterations} iterations, "
              f"stop = {outcome.stop_reason.value}, "
              f"final deficiency = {graph.scale.kbps_str(outcome.final_delta)}")

    # the routing list itself does not depend on the step size here, only
    # on how finely the same rates are sliced; show the coarsest run
    outcome = run(graph, target, RouterConfig(m=config.m, delta_r=10,
                                              seed=config.seed))
    print("\nrouting list (kbit/s per disjoint path set):")
    print(render_routing_text(outcome.routing_list, graph.scale), end="")

    # the effective rates follow from the routing list alone
    effective = outcome.routing_list.effective(graph)
    print("\nresidual direct rates after relaying:")
    for u, v in graph.edges:
        residual = graph.scale.kbps_str(effective[u, v])
        print(f"  edge ({u}, {v}): {residual} of "
              f"{graph.scale.kbps_str(graph.rate(u, v))}")


if __name__ == "__main__":
    main()
