from __future__ import annotations

import itertools
from decimal import Decimal

import numpy as np
import pytest

from qkdroute.engine import RoutingList, run
from qkdroute.keysim import (
    FULLY_LEAKED,
    PARTIALLY_LEAKED,
    SECURE,
    CapacityError,
    KeyPool,
    Segment,
    accumulate_pools,
    adversary_reconstruct,
    allocate_segments,
    assemble_pair_keys,
    assess_compromise,
    compromise_probability_bound,
    record_is_leaked,
    relay_path_key,
    simulate,
)
from qkdroute.model import RouterConfig
from qkdroute.paths import MPathSet, Path

from oracles import relay_key_forward

SET_A = MPathSet((Path((0, 1, 4)), Path((0, 2, 4))))
SET_B = MPathSet((Path((0, 1, 4)), Path((0, 3, 4))))


def single_record_setup(k23, rate=300, tau=1):
    """One routed record on the bipartite graph, with consistent leftovers."""
    graph, _ = k23
    routing = RoutingList()
    routing.add(SET_A, rate)
    effective = graph.rate_matrix()
    for path in SET_A.paths:
        for u, v in path.edges:
            effective[u, v] -= rate
            effective[v, u] -= rate
    effective[0, 4] = effective[4, 0] = rate
    return graph, routing, effective


def test_pool_lengths_and_determinism(k23):
    graph, _ = k23
    pools = accumulate_pools(graph, Decimal(2), seed=7)
    assert tuple(pools) == graph.edges
    for edge, pool in pools.items():
        assert len(pool) == 2000
        assert pool.bits.dtype == np.uint8
        assert set(np.unique(pool.bits)) <= {0, 1}
        assert not pool.bits.flags.writeable
    again = accumulate_pools(graph, Decimal(2), seed=7)
    other = accumulate_pools(graph, Decimal(2), seed=8)
    for edge in graph.edges:
        assert np.array_equal(pools[edge].bits, again[edge].bits)
    assert any(
        not np.array_equal(pools[e].bits, other[e].bits) for e in graph.edges
    )


def test_pool_rejects_bad_tau(k23):
    graph, _ = k23
    with pytest.raises(ValueError, match="tau"):
        accumulate_pools(graph, Decimal(0), seed=0)


def test_fractional_tau_floors_pool(k23):
    graph, _ = k23
    pools = accumulate_pools(graph, Decimal("0.0015"), seed=0)
    # 1000 bit/s for 1.5 ms would be 1.5 bits; pools hold whole bits
    assert all(len(pool) == 1 for pool in pools.values())


def test_bound_is_exact_decimal():
    assert compromise_probability_bound(2, "0.1") == 0.01
    assert compromise_probability_bound(2, 0.1) == 0.01
    assert compromise_probability_bound(3, "0.5") == 0.125
    assert compromise_probability_bound(1, "1") == 1.0
    with pytest.raises(ValueError):
        compromise_probability_bound(0, "0.1")
    with pytest.raises(ValueError):
        compromise_probability_bound(2, "1.5")


def test_record_is_leaked_rule():
    assert not record_is_leaked(SET_A, set())
    assert not record_is_leaked(SET_A, {1})
    assert not record_is_leaked(SET_A, {0, 4})  # endpoints are not interior
    assert record_is_leaked(SET_A, {1, 2})
    assert record_is_leaked(SET_A, {1, 2, 3})


def test_allocation_layout(k23):
    graph, routing, effective = single_record_setup(k23, rate=300)
    pools = accumulate_pools(graph, Decimal(1), seed=0)
    allocation = allocate_segments(pools, routing, effective, graph.scale,
                                   Decimal(1))
    # every edge keeps its leftover rate at the pool front
    for edge in graph.edges:
        expected = int(effective[edge[0], edge[1]])
        assert allocation.effective[edge] == Segment(0, expected)
    # relay segments start right after, one per traversed edge
    for edge in ((0, 1), (1, 4), (0, 2), (2, 4)):
        seg = allocation.relay[(SET_A, edge)]
        assert seg == Segment(700, 300)
    assert (SET_A, (0, 3)) not in allocation.relay


def test_allocation_stacks_records_in_canonical_order(k23):
    graph, _ = k23
    routing = RoutingList()
    routing.add(SET_B, 200)
    routing.add(SET_A, 300)
    effective = graph.rate_matrix()
    for path_set, rate in ((SET_A, 300), (SET_B, 200)):
        for path in path_set.paths:
            for u, v in path.edges:
                effective[u, v] -= rate
                effective[v, u] -= rate
    pools = accumulate_pools(graph, Decimal(1), seed=0)
    allocation = allocate_segments(pools, routing, effective, graph.scale,
                                   Decimal(1))
    # edge (0, 1) serves both records; SET_A sorts first so it sits first
    assert allocation.effective[(0, 1)] == Segment(0, 500)
    assert allocation.relay[(SET_A, (0, 1))] == Segment(500, 300)
    assert allocation.relay[(SET_B, (0, 1))] == Segment(800, 200)
    assert allocation.relay[(SET_B, (0, 3))] == Segment(800, 200)


def test_allocation_rejects_oversubscribed_edge(k23):
    graph, routing, effective = single_record_setup(k23)
    effective[0, 1] = effective[1, 0] = -100
    pools = accumulate_pools(graph, Decimal(1), seed=0)
    with pytest.raises(CapacityError, match="over-subscribed"):
        allocate_segments(pools, routing, effective, graph.scale, Decimal(1))


def test_allocation_rejects_exhausted_pool(k23):
    graph, routing, effective = single_record_setup(k23, rate=300)
    # shrink one pool below effective + relay demand
    pools = accumulate_pools(graph, Decimal(1), seed=0)
    short = np.zeros(800, dtype=np.uint8)
    short.flags.writeable = False
    pools[(0, 1)] = KeyPool((0, 1), short)
    with pytest.raises(CapacityError, match="exhausted"):
        allocate_segments(pools, routing, effective, graph.scale, Decimal(1))


def test_allocation_rejects_unknown_edge(k23):
    graph, routing, effective = single_record_setup(k23)
    pools = accumulate_pools(graph, Decimal(1), seed=0)
    del pools[(0, 2)]
    with pytest.raises(CapacityError, match="not an edge"):
        allocate_segments(pools, routing, effective, graph.scale, Decimal(1))


def test_relay_matches_forward_oracle(k23):
    graph, target = k23
    out = run(graph, target, RouterConfig(m=2, delta_r=100, seed=0))
    sim = simulate(graph, out.routing_list, out.effective, tau=1, seed=5)
    for record in out.routing_list.records():
        for path in record.path_set.paths:
            segments = [
                sim.allocation.relay_bits(sim.pools, record.path_set, edge)
                for edge in path.edges
            ]
            key_i, key_j, messages = relay_path_key(
                sim.pools, sim.allocation, record.path_set, path
            )
            oracle_key, oracle_messages = relay_key_forward(
                [s.tolist() for s in segments]
            )
            assert key_i.tolist() == segments[0].tolist()
            assert key_j.tolist() == oracle_key
            assert [m.tolist() for m in messages] == oracle_messages
            assert np.array_equal(key_i, key_j)


def test_endpoint_agreement_across_seeds(k23):
    graph, target = k23
    out = run(graph, target, RouterConfig(m=2, delta_r=100, seed=0))
    for seed in range(10):
        sim = simulate(graph, out.routing_list, out.effective, tau=1, seed=seed)
        for pair, key in sim.pair_keys.items():
            assert key.agreed
            expected = sum(
                graph.scale.bit_count(r.rate, Decimal(1))
                for r in out.routing_list.records()
                if r.pair == pair
            )
            assert len(key.bits) == expected


def test_multi_record_pair_key_layout(k23):
    graph, _ = k23
    routing = RoutingList()
    routing.add(SET_A, 300)
    routing.add(SET_B, 200)
    effective = graph.rate_matrix()
    for path_set, rate in ((SET_A, 300), (SET_B, 200)):
        for path in path_set.paths:
            for u, v in path.edges:
                effective[u, v] -= rate
                effective[v, u] -= rate
    effective[0, 4] = effective[4, 0] = 500
    sim = simulate(graph, routing, effective, tau=1, seed=3)
    key = sim.pair_keys[(0, 4)]
    assert key.agreed
    assert len(key.bits) == 500
    # the key is the records' XOR blocks concatenated in canonical order
    expected = np.concatenate([sim.record_block(SET_A), sim.record_block(SET_B)])
    assert np.array_equal(key.bits, expected)
    # and each block really is the XOR of its member-path first-link segments
    manual = np.bitwise_xor(
        sim.allocation.relay_bits(sim.pools, SET_A, (0, 1)),
        sim.allocation.relay_bits(sim.pools, SET_A, (0, 2)),
    )
    assert np.array_equal(sim.record_block(SET_A), manual)


def test_simulate_propagates_capacity_error(k23):
    graph, routing, effective = single_record_setup(k23)
    effective[0, 1] = effective[1, 0] = -1
    with pytest.raises(CapacityError):
        simulate(graph, routing, effective, tau=1)


def test_compromise_statuses(k23):
    graph, routing, effective = single_record_setup(k23)
    sim = simulate(graph, routing, effective, tau=1)
    assert assess_compromise(sim, set()).pair_status[(0, 4)] == SECURE
    assert assess_compromise(sim, {1}).pair_status[(0, 4)] == SECURE
    assert assess_compromise(sim, {0, 4}).pair_status[(0, 4)] == SECURE
    report = assess_compromise(sim, {1, 2}, epsilon="0.1")
    assert report.pair_status[(0, 4)] == FULLY_LEAKED
    assert report.leaked_bits[(0, 4)] == 300
    assert report.bound == 0.01
    assert assess_compromise(sim, {1}).bound is None
    assert assess_compromise(sim, {1}).leaked_bits[(0, 4)] == 0


def test_partial_leak_status(k23):
    graph, _ = k23
    routing = RoutingList()
    routing.add(SET_A, 100)
    routing.add(SET_B, 100)
    effective = graph.rate_matrix()
    for path_set in (SET_A, SET_B):
        for path in path_set.paths:
            for u, v in path.edges:
                effective[u, v] -= 100
                effective[v, u] -= 100
    sim = simulate(graph, routing, effective, tau=1)
    # {1, 2} opens SET_A but SET_B still has the clean path through 3
    report = assess_compromise(sim, {1, 2})
    assert report.pair_status[(0, 4)] == PARTIALLY_LEAKED
    assert report.leaked_bits[(0, 4)] == 100
    assert [rc.leaked for rc in report.records] == [True, False]


def test_adversary_reconstruction_exact(k23):
    graph, routing, effective = single_record_setup(k23)
    sim = simulate(graph, routing, effective, tau=1, seed=11)
    assert adversary_reconstruct(sim, SET_A, {1}) is None
    assert adversary_reconstruct(sim, SET_A, {3}) is None
    rebuilt = adversary_reconstruct(sim, SET_A, {1, 2})
    assert rebuilt is not None
    assert np.array_equal(rebuilt, sim.record_block(SET_A))
    assert np.array_equal(rebuilt, sim.pair_keys[(0, 4)].bits)


def test_every_compromise_subset_cross_checks(request):
    """assess_compromise raises if the structural rule and the constructive
    adversary ever disagree, so sweeping all subsets is a full cross-check.
    On ring6 some paths have three interior nodes, so the adversary also
    telescopes from a first corrupt relay past the first hop."""
    for fixture, delta_r in (("k23", 100), ("ring6", 10)):
        graph, target = request.getfixturevalue(fixture)
        out = run(graph, target, RouterConfig(m=2, delta_r=delta_r, seed=0))
        sim = simulate(graph, out.routing_list, out.effective, tau="0.5", seed=2)
        nodes = range(graph.node_count)
        for size in range(graph.node_count + 1):
            for subset in itertools.combinations(nodes, size):
                report = assess_compromise(sim, subset)
                for rc in report.records:
                    assert rc.leaked == record_is_leaked(rc.record.path_set, subset)


def test_longer_paths_need_only_one_corrupt_interior(ring6):
    graph, target = ring6
    out = run(graph, target, RouterConfig(m=2, delta_r=10, seed=0))
    sim = simulate(graph, out.routing_list, out.effective, tau=1, seed=0)
    # {(3, 0, 1, 4, 5), (3, 2, 5)}: corrupting 0 on one path and 2 on the
    # other opens the record even though 1 and 4 stay honest
    target_set = MPathSet((Path((3, 0, 1, 4, 5)), Path((3, 2, 5))))
    assert target_set in out.routing_list
    rebuilt = adversary_reconstruct(sim, target_set, {0, 2})
    assert rebuilt is not None
    assert np.array_equal(rebuilt, sim.record_block(target_set))
    assert adversary_reconstruct(sim, target_set, {0, 1, 4}) is None


def test_eight_bit_blocks_exhaustively_uniform(k23):
    """Patch one path's segment through all 256 values: the pair key block
    must run through all 256 values too (the mask path acts as a one-time
    pad), and both endpoints must agree every time."""
    graph, routing, effective = single_record_setup(k23, rate=100)
    tau = Decimal("0.08")  # 100 bit/s * 0.08 s = 8-bit relay segments
    base = accumulate_pools(graph, tau, seed=9)
    allocation = allocate_segments(base, routing, effective, graph.scale, tau)
    seg = allocation.relay[(SET_A, (0, 1))]
    assert seg.length == 8
    seen = set()
    for value in range(256):
        patched = dict(base)
        bits = base[(0, 1)].bits.copy()
        bits[seg.start : seg.stop] = np.unpackbits(
            np.array([value], dtype=np.uint8)
        )
        bits.flags.writeable = False
        patched[(0, 1)] = KeyPool((0, 1), bits)
        views = {}
        for path in SET_A.paths:
            key_i, key_j, _ = relay_path_key(patched, allocation, SET_A, path)
            assert np.array_equal(key_i, key_j)
            views[(SET_A, path)] = (key_i, key_j)
        key = assemble_pair_keys(routing, views)[(0, 4)]
        assert key.agreed
        seen.add(int(np.packbits(key.bits)[0]))
    assert seen == set(range(256))
