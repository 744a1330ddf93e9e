"""Deliver keys over disjoint paths and probe what corrupt relays learn.

Routes the small bipartite network (endpoints 0 and 4 joined only through
relay nodes 1, 2, 3), then simulates actual key material: per-edge pools,
hop-by-hop XOR relay, and the pair key assembled as the XOR of the path
keys.  Because each record uses two internally disjoint paths, one corrupt
relay learns nothing; it takes a corrupt interior node on every member
path to expose a record's bits.

Run from the repository root:

    python3 demos/key_relay.py
"""

from __future__ import annotations

from pathlib import Path

from qkdroute import load_network, run
from qkdroute.keysim import assess_compromise, compromise_probability_bound, simulate

NETWORKS = Path(__file__).resolve().parent.parent / "networks"
TAU = 1  # seconds of key harvesting


def main() -> None:
    graph, target, config = load_network(NETWORKS / "k23.json")
    outcome = run(graph, target, config)
    print("routing list:")
    for record in outcome.routing_list.records():
        print(f"  {record.path_set}: {graph.scale.kbps_str(record.rate)}")

    sim = simulate(graph, outcome.routing_list, TAU, seed=config.seed)
    print(f"\nkeys after {TAU}s of harvesting:")
    for pair, key in sorted(sim.pair_keys.items()):
        verdict = "endpoints agree" if key.agreed else "MISMATCH"
        print(f"  pair {pair}: {key.length} bits, {verdict}")

    for corrupt in (set(), {1}, {1, 2}, {1, 2, 3}):
        report = assess_compromise(sim, corrupt, epsilon="0.1")
        shown = sorted(corrupt) if corrupt else "none"
        print(f"\ncorrupt relays: {shown}")
        for pair, status in sorted(report.pair_status.items()):
            leaked = report.leaked_bits[pair]
            extra = f" ({leaked} bits exposed)" if leaked else ""
            print(f"  pair {pair}: {status}{extra}")

    bound = compromise_probability_bound(config.m, "0.1")
    print(f"\nwith each relay corrupt independently with probability 0.1, "
          f"a {config.m}-path record is exposed with probability <= {bound}")


if __name__ == "__main__":
    main()
