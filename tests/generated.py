"""Seeded network documents generated in the tests, for pins beyond the fixtures.

Edge rates come from ``random.Random(seed)``, 0.5 to 2.0 kbit/s in 0.1
steps, drawn in edge order, as the benchmark's grid workload draws them.
Nothing here needs networkx.
"""

from __future__ import annotations

import random


def _doc(nodes, edges, seed, delta_r_kbps):
    rates = random.Random(seed)
    return {
        "nodes": nodes,
        "edges": [{"u": u, "v": v, "rate_kbps": rates.randint(5, 20) / 10} for u, v in edges],
        "target": 0.1,
        "router": {"M": 2, "delta_r_kbps": delta_r_kbps, "seed": 0, "strict_guard": True},
    }


def grid_doc(side, seed=0, delta_r_kbps=0.001):
    """side x side grid; node row * side + col."""
    edges = []
    for row in range(side):
        for col in range(side):
            node = row * side + col
            if col + 1 < side:
                edges.append((node, node + 1))
            if row + 1 < side:
                edges.append((node, node + side))
    return _doc(side * side, edges, seed, delta_r_kbps)


def ladder_doc(k, seed=0, delta_r_kbps=0.005):
    """2 x k ladder: rails 0..k-1 and k..2k-1 joined by a rung at each column.
    A path from one end rung to the other may snake through every node."""
    edges = []
    for col in range(k):
        if col + 1 < k:
            edges += [(col, col + 1), (k + col, k + col + 1)]
        edges.append((col, k + col))
    return _doc(2 * k, edges, seed, delta_r_kbps)
