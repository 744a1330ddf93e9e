"""Relations between runs on the fixture networks.

The goldens pin a few runs exactly; these relations catch faults in unit
scaling, rounding and comparison direction on inputs that no golden covers.
"""

from __future__ import annotations

import dataclasses
from decimal import Decimal

import pytest

from qkdroute.engine import run
from qkdroute.keysim import assess_compromise, simulate
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
        dataclasses.replace(config, delta_r=k * config.delta_r),
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
        network = loaded._replace(config=dataclasses.replace(loaded.config, seed=seed))
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
