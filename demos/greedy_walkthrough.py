"""Follow the greedy loop decision by decision on a dense 5-node network.

Every iteration serves the worst pair: enumerate its internally disjoint
path sets, score each by how much routing the step through it would hurt
the tightest traversed pair, and take the least damaging one.  With
``trace_candidates=True`` the engine keeps the full scoring table of each
iteration, which this script prints.

Run from the repository root:

    python3 demos/greedy_walkthrough.py
"""

from __future__ import annotations

from pathlib import Path

from qkdroute import load_network, run

NETWORKS = Path(__file__).resolve().parent.parent / "networks"


def main() -> None:
    graph, target, config = load_network(NETWORKS / "dense5.json")
    scale = graph.scale
    outcome = run(graph, target, config, trace_candidates=True)

    for entry in outcome.trace:
        if entry.stop_reason is not None:
            print(f"stop: {entry.stop_reason.value}, "
                  f"final deficiency {scale.kbps_str(entry.delta_after)}")
            break
        i, j = entry.selected_pair
        print(f"iteration {entry.r}: worst pair ({i}, {j})"
              + (f" (tied among {entry.pairs_tied})" if entry.pairs_tied > 1
                 else ""))
        for path_set, deficiency in entry.candidates:
            marker = "  ->" if path_set == entry.chosen_set else "    "
            print(f"{marker} {path_set}  set deficiency "
                  f"{scale.kbps_str(deficiency)}  hops {path_set.total_hops}")
        if entry.sets_tied > 1:
            print(f"     (chosen among {entry.sets_tied} equally good sets)")
        print(f"     deficiency {scale.kbps_str(entry.delta_before)} "
              f"-> {scale.kbps_str(entry.delta_after)}\n")

    print("final routing list:")
    for record in outcome.routing_list.records():
        print(f"  {record.path_set}: {scale.kbps_str(record.rate)}")


if __name__ == "__main__":
    main()
