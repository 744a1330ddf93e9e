"""Push a sparse 10-node mesh past its capacity and study the plateau.

The mesh's targets are deliberately infeasible, so the deficiency falls,
flattens, and the loop stops at a dead end instead of converging.  Along
the way several pairs end up served by more than one disjoint path set:
whenever the cheapest set changes as edges drain, the router opens a new
record rather than widening the old one.

Run from the repository root:

    python3 demos/capacity_plateau.py
"""

from __future__ import annotations

from pathlib import Path

from qkdroute import load_network, run

NETWORKS = Path(__file__).resolve().parent.parent / "networks"


def main() -> None:
    graph, target, config = load_network(NETWORKS / "mesh10.json")
    scale = graph.scale
    outcome = run(graph, target, config)

    print(f"stop: {outcome.stop_reason.value} after {outcome.iterations} "
          f"iterations, residual deficiency "
          f"{scale.kbps_str(outcome.final_delta)} kbit/s")

    # sample the deficiency every 25 iterations to show the plateau
    accepted = [t for t in outcome.trace if t.stop_reason is None]
    print("\ndeficiency trace (sampled):")
    for entry in accepted[::25]:
        print(f"  r={entry.r:4d}  delta={scale.kbps_str(entry.delta_after)}")
    if accepted:
        last = accepted[-1]
        print(f"  r={last.r:4d}  delta={scale.kbps_str(last.delta_after)}")

    by_pair: dict = {}
    for record in outcome.routing_list.records():
        by_pair.setdefault(record.pair, []).append(record)
    multi = {pair: recs for pair, recs in by_pair.items() if len(recs) > 1}
    print(f"\n{len(by_pair)} pairs routed, {len(multi)} of them through "
          f"several distinct path sets:")
    for pair, records in sorted(multi.items()):
        total = sum(r.rate for r in records)
        print(f"  pair {pair}: {scale.kbps_str(total)} kbit/s over "
              f"{len(records)} sets")
        for record in records:
            print(f"    {record.path_set}: {scale.kbps_str(record.rate)}")


if __name__ == "__main__":
    main()
