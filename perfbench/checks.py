"""Output checks and content digests for the benchmark.

The checks recompute what the program claims from its artifacts alone, with
no help from the program's code: the conservation identity, the strict
guard, path validity and disjointness, key lengths and leak status.  The
digests hash parsed content, so fields added to an artifact later do not
change them.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
from pathlib import Path
from typing import List, Tuple

import numpy as np

from workloads import Workload

TRACE_FIELDS = (
    "pair_i", "pair_j", "chosen_set", "delta_before_kbps", "delta_after_kbps",
    "stop_reason",
)


def _digest(content: object) -> str:
    text = json.dumps(content, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def read_route(out_dir: Path) -> Tuple[dict, list]:
    """The routing list document and the trace rows of one route run."""
    doc = json.loads((out_dir / "routing_list.json").read_text())
    with open(out_dir / "trace.csv", newline="") as handle:
        rows = [[row[f] for f in TRACE_FIELDS] for row in csv.DictReader(handle)]
    return doc, rows


def route_digest(doc: dict, rows: list) -> str:
    records = [[r["pair"], r["paths"], r["rate_units"]] for r in doc["records"]]
    return _digest([records, rows])


def check_route(doc: dict, wl: Workload) -> List[str]:
    """Conservation, guard, disjointness and edge membership of a routing."""
    problems = []
    n = wl.nodes
    effective = [[0] * n for _ in range(n)]
    for (u, v), rate in wl.rates.items():
        effective[u][v] = effective[v][u] = rate
    routed = 0
    for record in doc["records"]:
        i, j = record["pair"]
        rate = record["rate_units"]
        paths = record["paths"]
        if rate <= 0 or rate % wl.delta_r:
            problems.append(f"record {i}-{j}: rate {rate} is not a positive step multiple")
        if len(paths) != wl.m:
            problems.append(f"record {i}-{j}: {len(paths)} paths, expected {wl.m}")
        for path in paths:
            if len(set(path)) != len(path) or {path[0], path[-1]} != {i, j}:
                problems.append(f"record {i}-{j}: {path} is not a simple {i}-{j} path")
            for u, v in zip(path, path[1:]):
                if (min(u, v), max(u, v)) not in wl.rates:
                    problems.append(f"record {i}-{j}: ({u}, {v}) is not an edge")
                    continue
                effective[u][v] -= rate
                effective[v][u] -= rate
        for a, b in itertools.combinations(paths, 2):
            if set(a[1:-1]) & set(b[1:-1]):
                problems.append(f"record {i}-{j}: {a} and {b} share an interior node")
        effective[i][j] += rate
        effective[j][i] += rate
        routed += rate
    if effective != doc["effective_units"]:
        problems.append("effective rates break edge rates + credits - debits")
    if wl.strict_guard and any(effective[u][v] < 0 for u, v in wl.rates):
        problems.append("an edge went negative under the strict guard")
    if routed != doc["iterations"] * wl.delta_r:
        problems.append(f"records hold {routed} units for {doc['iterations']} steps")
    return problems


def _record_leaked(paths: list, compromised: set) -> bool:
    return all(set(path[1:-1]) & compromised for path in paths)


def check_simulation(report: dict, route: dict, wl: Workload) -> List[str]:
    """Agreement, key lengths, pool sizes and leak status of a simulation."""
    problems = []
    compromised = set(wl.compromise)
    expected = {}
    for record in route["records"]:
        pair = tuple(record["pair"])
        bits = record["rate_units"] * wl.tau
        leaked = _record_leaked(record["paths"], compromised)
        total, leaked_bits, flags = expected.get(pair, (0, 0, []))
        expected[pair] = (total + bits, leaked_bits + bits * leaked, flags + [leaked])
    seen = set()
    for entry in report["pairs"]:
        pair = tuple(entry["pair"])
        seen.add(pair)
        if not entry["endpoints_agree"]:
            problems.append(f"pair {pair}: endpoint keys disagree")
        if pair not in expected:
            problems.append(f"pair {pair}: reported but never routed")
            continue
        bits, leaked_bits, flags = expected[pair]
        status = (
            "fully_leaked" if all(flags)
            else "partially_leaked" if any(flags) else "secure"
        )
        if entry["key_bits"] != bits:
            problems.append(f"pair {pair}: {entry['key_bits']} key bits, expected {bits}")
        if entry.get("status") != status or entry.get("leaked_bits") != leaked_bits:
            problems.append(f"pair {pair}: leak status disagrees with the paths")
    if seen != set(expected):
        problems.append("simulation report misses routed pairs")
    pools = {f"{u}-{v}": rate * wl.tau for (u, v), rate in wl.rates.items()}
    if report["pools"] != pools:
        problems.append("pool sizes differ from rate * tau")
    if report.get("compromised_nodes") != sorted(compromised):
        problems.append("report names other compromised nodes")
    return problems


def simulation_digest(report: dict) -> str:
    rows = [
        [p["pair"], p["key_bits"], p["endpoints_agree"], p.get("status"),
         p.get("leaked_bits")]
        for p in report["pairs"]
    ]
    return _digest([rows, report["pools"]])


def keys_digest(pair_keys: dict) -> str:
    """Digest of the pair keys an in-process simulation assembled."""
    sha = hashlib.sha256()
    for pair, key in sorted(pair_keys.items()):
        sha.update(f"{pair[0]}-{pair[1]}:{len(key.bits)}:".encode())
        sha.update(np.packbits(key.bits).tobytes())
    return sha.hexdigest()[:16]


def artifact_bytes_digest(*dirs: Path) -> str:
    """Digest of the raw bytes of every file in the given directories."""
    sha = hashlib.sha256()
    for directory in dirs:
        for path in sorted(directory.iterdir()):
            sha.update(path.name.encode())
            sha.update(path.read_bytes())
    return sha.hexdigest()[:16]
