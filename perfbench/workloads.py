"""Seeded workload generators and the pre-flight check run before timing.

Every workload is a network description written from the seed, plus the
CLI flags the benchmark passes to ``simulate``.  All rates here use the
default resolution of 1 bit/s, so one rate unit is one bit per second and a
pool over ``tau`` whole seconds holds exactly ``rate * tau`` bits.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Dict, Tuple

WORKLOADS = ("grid", "ring-long", "mesh-keysim")
DEFAULT_SEED = 0
GRID_RATE_SEED = 0

# Digests of the full-size workloads at DEFAULT_SEED.  "route" covers the
# routing records and trace rows, "simulation" the per-pair rows of the
# simulation report, "keys" the pair keys of the in-process pass.
EXPECTED_DIGESTS = {
    "grid": {"route": "4955ea9166149686", "simulation": "be8253f938879f11",
             "keys": "c7abe6dc3a5c1f07"},
    "ring-long": {"route": "4352e3702fdf3c34", "simulation": "292123e475286088",
                  "keys": "483c8cdf75350d83"},
    "mesh-keysim": {"route": "cee835c39e8a3cbf", "simulation": "63bb7a07a1fe081c",
                    "keys": "925c3bec442d4105"},
}

Edge = Tuple[int, int]


@dataclass(frozen=True)
class Workload:
    """One generated input: the network document and what the checks need."""

    name: str
    seed: int
    doc: dict
    rates: Dict[Edge, int]
    m: int
    delta_r: int
    strict_guard: bool
    tau: int
    compromise: Tuple[int, ...]

    @property
    def nodes(self) -> int:
        return self.doc["nodes"]

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.doc, indent=2, default=float) + "\n")

    def simulate_flags(self) -> list:
        return [
            "--tau", str(self.tau),
            "--seed", str(self.seed),
            "--compromise", ",".join(str(n) for n in self.compromise),
        ]


def _units(kbps: object) -> int:
    units = Decimal(str(kbps)) * 1000
    if units != units.to_integral_value():
        raise ValueError(f"{kbps} kbit/s is not a whole number of bit/s")
    return int(units)


def _workload(name: str, seed: int, doc: dict, tau: int, compromise) -> Workload:
    if "resolution_bps" in doc or isinstance(doc["target"], list):
        raise ValueError("workload networks use 1 bit/s units and a scalar target")
    router = doc["router"]
    return Workload(
        name=name,
        seed=seed,
        doc=doc,
        rates={
            (min(e["u"], e["v"]), max(e["u"], e["v"])): _units(e["rate_kbps"])
            for e in doc["edges"]
        },
        m=router.get("M", 2),
        delta_r=_units(router["delta_r_kbps"]),
        strict_guard=router.get("strict_guard", True),
        tau=tau,
        compromise=tuple(sorted(compromise)),
    )


def _fixture(networks: Path, name: str) -> dict:
    return json.loads((networks / name).read_text(), parse_float=Decimal)


def grid(seed: int, side: int) -> Workload:
    """side x side grid, edge rates 0.5-2.0 kbit/s in 0.1 steps, M = 2.

    The rates come from a fixed generator, not from ``seed``: drawing them
    per seed moved the run between 262 and 583 routing records, a larger
    change in the work done than the regressions the benchmark must see.
    ``seed`` sets the router's tie-break seed, the simulation seed and the
    compromised interior nodes.
    """
    rates = random.Random(GRID_RATE_SEED)
    rng = random.Random(seed)
    edges = []
    for row in range(side):
        for col in range(side):
            node = row * side + col
            if col + 1 < side:
                edges.append((node, node + 1))
            if row + 1 < side:
                edges.append((node, node + side))
    doc = {
        "nodes": side * side,
        "edges": [
            {"u": u, "v": v, "rate_kbps": Decimal(rates.randint(5, 20)) / 10}
            for u, v in edges
        ],
        "target": Decimal("0.1"),
        "router": {"M": 2, "delta_r_kbps": Decimal("0.001"), "seed": seed,
                   "strict_guard": True},
    }
    interior = [
        row * side + col for row in range(1, side - 1) for col in range(1, side - 1)
    ]
    compromise = rng.sample(interior, min(2, len(interior)))
    return _workload("grid", seed, doc, 10, compromise)


def ring_long(seed: int, networks: Path, scale: int) -> Workload:
    """ring6_chord with rates and target scaled, stepped one unit at a time."""
    rng = random.Random(seed)
    doc = _fixture(networks, "ring6_chord.json")
    for edge in doc["edges"]:
        edge["rate_kbps"] *= scale
    doc["target"] *= scale
    doc["router"]["delta_r_kbps"] = Decimal("0.001")
    doc["router"]["seed"] = seed
    compromise = rng.sample(range(doc["nodes"]), 2)
    return _workload("ring-long", seed, doc, 10, compromise)


def mesh_keysim(seed: int, networks: Path, tau: int) -> Workload:
    """The mesh10 fixture unchanged, simulated over a long harvest window."""
    rng = random.Random(seed)
    doc = _fixture(networks, "mesh10.json")
    compromise = rng.sample(range(doc["nodes"]), 2)
    return _workload("mesh-keysim", seed, doc, tau, compromise)


def make(name: str, seed: int, networks: Path, smoke: bool = False) -> Workload:
    """Build a workload; ``smoke`` shrinks it to a few seconds of work."""
    if name == "grid":
        return grid(seed, 3 if smoke else 4)
    if name == "ring-long":
        return ring_long(seed, networks, 1 if smoke else 20)
    if name == "mesh-keysim":
        return mesh_keysim(seed, networks, 10 if smoke else 10_000)
    raise ValueError(f"unknown workload {name!r}")


def preflight(path: Path, m: int) -> Tuple[dict, list]:
    """Load and validate a written network with the program's own checks.

    Returns the input sizes and a list of problems; any problem fails the
    workload.
    """
    from qkdroute.model import validate
    from qkdroute.netfile import load_network
    from qkdroute.paths import find_unroutable_pairs

    graph, _, _ = load_network(path)
    report = validate(graph, m)
    problems = []
    if not report.connected:
        problems.append("network is disconnected")
    if report.min_degree < m:
        problems.append(f"minimum degree {report.min_degree} is below M = {m}")
    unroutable = find_unroutable_pairs(graph, m)
    if unroutable:
        problems.append(f"remote pairs without a disjoint set: {list(unroutable)}")
    sizes = {
        "nodes": graph.node_count,
        "edges": len(graph.edges),
        "remote_pairs": len(graph.remote_pairs()),
    }
    return sizes, problems
