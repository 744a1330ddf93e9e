"""Follow the greedy loop decision by decision on a dense 5-node network.

Every iteration serves the worst pair: enumerate its internally disjoint
path sets, score each by how much routing the step through it would hurt
the tightest traversed pair, and take the least damaging one.  The trace
records each step's pair and chosen set; this script replays the steps
from the edge rates and prints the scoring table the engine ranked before
each one.

Run from the repository root:

    python3 demos/greedy_walkthrough.py
"""

from __future__ import annotations

import operator
from pathlib import Path

from qkdroute import load_network, run
from qkdroute.engine import CandidateTable
from qkdroute.model import pair_position

NETWORKS = Path(__file__).resolve().parent.parent / "networks"


def main() -> None:
    graph, target, config = load_network(NETWORKS / "dense5.json")
    scale = graph.scale
    n, step = graph.node_count, config.delta_r
    outcome = run(graph, target, config)
    # the run's state, target - effective per pair i < j, replayed step by step
    deficiency = list(map(operator.sub, target.cells, graph.rate_matrix().cells))
    # the strict guard drops the rows over an edge holding less than one step
    limits = {pair_position(u, v, n): target[u, v] - step for u, v in graph.edges}

    for entry in outcome.trace:
        if entry.stop_reason is not None:
            print(f"stop: {entry.stop_reason.value}, "
                  f"final deficiency {scale.kbps_str(entry.delta_after)}")
            break
        i, j = entry.selected_pair
        print(f"iteration {entry.r}: worst pair ({i}, {j})"
              + (f" (tied among {entry.pairs_tied})" if entry.pairs_tied > 1
                 else ""))
        table = CandidateTable(graph, (i, j), config.m, config.hop_limit)
        for path_set, score, cells in table.scored(deficiency):
            if config.strict_guard and any(deficiency[c] > limits[c] for c in cells):
                continue
            marker = "  ->" if path_set == entry.chosen_set else "    "
            print(f"{marker} {path_set}  set deficiency "
                  f"{scale.kbps_str(score)}  hops {path_set.total_hops}")
        deficiency[pair_position(i, j, n)] -= step
        for u, v in entry.chosen_set.edges:
            deficiency[pair_position(u, v, n)] += step
        if entry.sets_tied > 1:
            print(f"     (chosen among {entry.sets_tied} equally good sets)")
        print(f"     deficiency {scale.kbps_str(entry.delta_before)} "
              f"-> {scale.kbps_str(entry.delta_after)}\n")

    print("final routing list:")
    for record in outcome.routing_list.records():
        print(f"  {record.path_set}: {scale.kbps_str(record.rate)}")


if __name__ == "__main__":
    main()
