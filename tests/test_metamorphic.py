"""Relations between runs on the fixture networks.

The goldens pin a few runs exactly; these relations catch faults in unit
scaling, rounding and comparison direction on inputs that no golden covers.
"""

from __future__ import annotations

import itertools
import json
from decimal import Decimal

import pytest

from qkdroute.artifacts import render_routing_text, render_trace_csv
from qkdroute.engine import run
from qkdroute.keysim import (
    FULLY_LEAKED,
    PARTIALLY_LEAKED,
    SECURE,
    assess_compromise,
    record_is_leaked,
    simulate,
)
from qkdroute.model import NetworkGraph, RateMatrix
from qkdroute.netfile import load_network

from conftest import NETWORKS_DIR

TAU = Decimal(42)


def scaled(network, k):
    """The network with every edge rate, target cell and the step times k."""
    graph, target, config = network
    return (
        NetworkGraph(graph.node_count, {edge: k * rate for edge, rate in graph.rates.items()},
                     graph.scale),
        RateMatrix(target.n, [k * cell for cell in target.cells]),
        config.replace(delta_r=k * config.delta_r),
    )


def choices(entry):
    """What one trace entry chose, and among how many."""
    return entry.selected_pair, entry.pairs_tied, entry.chosen_set, entry.sets_tied


@pytest.mark.parametrize("name", ["dense5", "k23", "mesh10", "ring6_chord"])
def test_rate_scaling_and_harvest_window(name):
    """Rates, targets and the step times k route the same sets in the same
    order, with the same ties, to the same stop, at k times the rates and
    the cost.  The scaled network harvested over tau / k then fills pools of
    the same lengths with the same bits, so the keys and the compromise
    report are the same."""
    loaded = load_network(NETWORKS_DIR / f"{name}.json")
    for seed in (0, 1, 4):
        network = loaded._replace(config=loaded.config.replace(seed=seed))
        out = run(*network)
        sim = simulate(network.graph, out.routing_list, TAU, seed)
        report = assess_compromise(sim, {1, 2})
        for k in (2, 3, 7):
            graph, target, config = scaled(network, k)
            big = run(graph, target, config)
            assert big.stop_reason == out.stop_reason
            assert big.iterations == out.iterations
            assert list(map(choices, big.trace)) == list(map(choices, out.trace))
            assert [(e.delta_before, e.delta_after) for e in big.trace] == [
                (k * e.delta_before, k * e.delta_after) for e in out.trace]
            assert [(r.path_set, r.rate) for r in big.routing_list.records()] == [
                (r.path_set, k * r.rate) for r in out.routing_list.records()]
            assert big.final_delta == k * out.final_delta

            window = simulate(graph, big.routing_list, TAU / k, seed)
            assert window.pool_lengths == sim.pool_lengths
            assert {pair: (key.hex(), key.length, key.agreed)
                    for pair, key in window.pair_keys.items()} == {
                pair: (key.hex(), key.length, key.agreed) for pair, key in sim.pair_keys.items()}
            assert assess_compromise(window, {1, 2}) == report


@pytest.mark.parametrize("name", ["dense5", "k23", "mesh10", "ring6_chord"])
def test_resolution_does_not_change_the_run(name, tmp_path):
    """The network written at resolution_bps 10, which divides every rate in
    the fixtures, routes as it does at 1 bit/s: the same records in kbit/s,
    stop reason and iteration count, and the same trace.csv text."""
    fine_path = NETWORKS_DIR / f"{name}.json"
    coarse_path = tmp_path / f"{name}.json"
    coarse_path.write_text(json.dumps({**json.loads(fine_path.read_text()),
                                       "resolution_bps": 10}))
    fine, coarse = map(load_network, (fine_path, coarse_path))
    assert fine.config.delta_r == 10 * coarse.config.delta_r
    seen = []
    for network in (fine, coarse):
        out = run(*network)
        scale = network.graph.scale
        seen.append((out.stop_reason, out.iterations, list(map(choices, out.trace)),
                     render_routing_text(out.routing_list, scale),
                     render_trace_csv(out, scale)))
    assert seen[1] == seen[0]


@pytest.mark.parametrize("name", ["dense5", "k23", "mesh10", "ring6_chord"])
def test_compromise_is_monotone_in_the_compromised_set(name):
    """One more compromised node leaks a superset of records: no pair leaks
    fewer bits, and no pair's status moves back toward secure."""
    network = load_network(NETWORKS_DIR / f"{name}.json")
    graph = network.graph
    out = run(*network)
    sim = simulate(graph, out.routing_list, TAU, 0)
    rank = {SECURE: 0, PARTIALLY_LEAKED: 1, FULLY_LEAKED: 2}
    nodes = range(graph.node_count)
    for size in (0, 1, 2):
        for before in map(frozenset, itertools.combinations(nodes, size)):
            report = assess_compromise(sim, before)
            leaked = {r.path_set for r in out.routing_list.records()
                      if record_is_leaked(r.path_set, before)}
            for node in set(nodes) - before:
                after = before | {node}
                grown = assess_compromise(sim, after)
                assert leaked <= {r.path_set for r in out.routing_list.records()
                                  if record_is_leaked(r.path_set, after)}, (before, node)
                assert grown.pair_status.keys() == report.pair_status.keys()
                for pair, status in report.pair_status.items():
                    assert grown.leaked_bits[pair] >= report.leaked_bits[pair], (after, pair)
                    assert rank[grown.pair_status[pair]] >= rank[status], (after, pair)
