"""End-to-end acceptance gate.

Seven independent checks, each printing a single verdict line (run with
``pytest tests/test_acceptance.py -s`` to see them).  All numeric checks
are exact: the engine works in integer rate units, so there is no
tolerance anywhere.  Runtime limits are asserted where a check is meant
to stay interactive.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from decimal import Decimal
from unittest import mock

import numpy as np

from golden import (
    DENSE5_EXPECTED_TABLES,
    DENSE5_REFERENCE_SEED,
    DENSE5_REFERENCE_SETS,
    RING6_REFERENCE_RECORDS,
)
from conftest import as_array
from oracles import (
    audit_table,
    candidate_table,
    dfs_simple_paths,
    disjoint_subsets,
    per_pair,
    rates_by_pair,
    reference_audit,
)

from qkdroute import keysim
from qkdroute.artifacts import write_route_artifacts
from qkdroute.engine import (
    RoutingList,
    StopReason,
    apply_increment,
    optimal_sets,
    run,
    worst_pairs,
)
from qkdroute.keysim import (
    KeyPool,
    accumulate_pools,
    adversary_reconstruct,
    assemble_pair_keys,
    compromise_probability_bound,
    record_is_leaked,
    relay_path_key,
    simulate,
)
from qkdroute.model import NetworkGraph, RouterConfig
from qkdroute.paths import MPathSet, Path, enumerate_m_path_sets, enumerate_simple_paths


def verdict(number: int, label: str):
    """Print one pass/fail line per acceptance check, then let pytest see
    the original outcome."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nacceptance {number} ({label}): FAIL")
                raise
            print(f"\nacceptance {number} ({label}): PASS")
            return result

        return inner

    return wrap


@verdict(1, "dense 5-node golden run")
def test_acceptance_dense5_golden_run(dense5):
    graph, target = dense5
    started = time.perf_counter()
    config = RouterConfig(m=2, delta_r=100, seed=DENSE5_REFERENCE_SEED)
    out = run(graph, target, config)

    # reference trajectory: 4 iterations to zero deficiency, and all 28
    # hand-derived candidate-set deficiencies reproduced exactly
    assert out.stop_reason is StopReason.CONVERGED
    assert out.iterations == 4
    assert out.final_delta == 0
    accepted = [t for t in out.trace if t.stop_reason is None]
    assert [str(t.chosen_set) for t in accepted] == DENSE5_REFERENCE_SETS
    checked = 0
    for entry, rows in zip(accepted, reference_audit(graph, target, config, out.trace)):
        table = audit_table(rows)
        assert table == DENSE5_EXPECTED_TABLES[entry.r]
        checked += len(table)
    assert checked == 28

    # over other seeds every tie-break stays inside the permitted choices:
    # the worst pair is always (1, 3) or (0, 4), and the third iteration
    # picks one of the three minimal-hop disjoint sets of its pair
    for seed in range(20):
        alt = run(graph, target, RouterConfig(m=2, delta_r=100, seed=seed))
        effective = graph.rate_matrix()
        accepted = [t for t in alt.trace if t.stop_reason is None]
        assert len(accepted) == 4
        for entry in accepted:
            deficiency = as_array(target) - as_array(effective)
            assert entry.selected_pair in {(0, 4), (1, 3)}
            shortfall = per_pair(deficiency)
            assert entry.selected_pair in worst_pairs(shortfall, 5, max(shortfall))
            sets = enumerate_m_path_sets(
                enumerate_simple_paths(graph, *entry.selected_pair), 2
            )
            table = candidate_table(sets, graph.node_count)
            finalists = optimal_sets(table, shortfall, set())
            assert entry.chosen_set in [table.rows[k].path_set for k in finalists]
            if entry.r == 3:
                assert entry.chosen_set.total_hops == 4
            effective = apply_increment(
                effective, entry.selected_pair, entry.chosen_set, 100
            )
        assert rates_by_pair(alt.routing_list.records()) == {(1, 3): 200, (0, 4): 200}
        if alt.stop_reason is StopReason.CONVERGED:
            assert alt.final_delta == 0

    assert time.perf_counter() - started < 1.0


@verdict(2, "6-node ring iteration counts")
def test_acceptance_ring6_counts(ring6):
    graph, target = ring6
    remote = graph.remote_pairs()
    assert len(remote) == 8
    for step, expected in [(10, 80), (5, 160), (1, 800)]:
        started = time.perf_counter()
        out = run(graph, target, RouterConfig(m=2, delta_r=step, seed=0))
        assert time.perf_counter() - started < 5.0
        assert out.stop_reason is StopReason.CONVERGED
        assert out.iterations == expected
        # accounting identity: 8 pairs, each lifted from 0 to 100 units
        assert out.iterations == 8 * (100 // step)
        assert out.final_delta == 0
        for i, j in remote:
            assert out.routing_list.effective(graph)[i, j] == 100
        assert rates_by_pair(out.routing_list.records()) == {pair: 100 for pair in remote}
    # at the fixture's seed the residual direct rate of edge (0, 1) is
    # 0.4 kbit/s and the routing list matches the reference solution
    out = run(graph, target, RouterConfig(m=2, delta_r=10, seed=0))
    assert out.routing_list.effective(graph)[0, 1] == 400
    records = {str(r.path_set): r.rate for r in out.routing_list.records()}
    assert records == RING6_REFERENCE_RECORDS


@verdict(3, "10-node plateau properties")
def test_acceptance_mesh10_properties(mesh10):
    graph, target = mesh10
    config = RouterConfig(m=2, delta_r=10, seed=0)
    out = run(graph, target, config)

    # (a) the maximum deficiency never increases along the trace
    deltas = [out.trace[0].delta_before] + [
        t.delta_after for t in out.trace if t.stop_reason is None
    ]
    assert all(a >= b for a, b in zip(deltas, deltas[1:]))

    # (b) infeasible targets end in a dead end with a positive plateau
    assert out.stop_reason in (
        StopReason.DIRECT_PAIR_WORST,
        StopReason.COST_WORSENED,
        StopReason.GUARD_EXHAUSTED,
    )
    assert out.final_delta > 0

    # (c) iteration count equals total routed rate divided by the step
    total_routed = sum(r.rate for r in out.routing_list.records())
    assert out.iterations == total_routed // 10
    assert total_routed % 10 == 0

    # (d) some pair is served by several distinct disjoint-path sets, and
    # key assembly concatenates their blocks into one key
    by_pair: dict = {}
    for record in out.routing_list.records():
        by_pair.setdefault(record.pair, []).append(record)
    multi = {pair: recs for pair, recs in by_pair.items() if len(recs) >= 2}
    assert multi
    sim = simulate(graph, out.routing_list, tau="0.01", seed=0)
    for pair, recs in multi.items():
        key = sim.pair_keys[pair]
        assert key.agreed
        blocks = []  # each record's block, one byte per bit
        for r in recs:
            start, stop = sim.layout.blocks[r.path_set]
            blocks.append(np.unpackbits(sim.record_block(r.path_set), count=stop - start))
        assert np.array_equal(key.bits, np.concatenate(blocks))


def _connected(n: int, edges: list) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(x) for x in range(n)}) == 1


def _check_pair_against_oracle(graph, adjacency, i, j, check_set_oracle):
    paths = enumerate_simple_paths(graph, i, j)
    oracle = dfs_simple_paths(adjacency, i, j)
    assert {p.nodes for p in paths} == oracle
    sets = enumerate_m_path_sets(paths, 2)
    for s in sets:
        a, b = s.paths
        assert not (a.interior & b.interior)
    if check_set_oracle:
        expected = disjoint_subsets([p.nodes for p in paths], 2)
        assert {frozenset(p.nodes for p in s.paths) for s in sets} == expected


@verdict(4, "path enumeration oracle sweep")
def test_acceptance_enumeration_oracle(k23, dense5):
    # exact counts on the two reference pairs
    graph, _ = k23
    assert len(enumerate_m_path_sets(enumerate_simple_paths(graph, 0, 4), 2)) == 3
    graph, _ = dense5
    assert len(enumerate_m_path_sets(enumerate_simple_paths(graph, 1, 3), 2)) == 7

    # every connected labelled graph on up to 6 nodes, exhaustively
    rnd = random.Random(20260815)
    graphs_seen = 0
    for n in range(2, 7):
        all_edges = list(itertools.combinations(range(n), 2))
        for mask in range(1, 2 ** len(all_edges)):
            edges = [e for k, e in enumerate(all_edges) if mask >> k & 1]
            if not _connected(n, edges):
                continue
            graphs_seen += 1
            graph = NetworkGraph(n, {e: 100 for e in edges})
            adjacency = {u: set(graph.neighbors(u)) for u in range(n)}
            pairs = {(0, n - 1), tuple(sorted(rnd.sample(range(n), 2)))}
            for i, j in pairs:
                _check_pair_against_oracle(graph, adjacency, i, j, True)
    # count of connected labelled graphs on 2..6 nodes: 1+4+38+728+26704
    assert graphs_seen == 27475

    # random sample at 7 and 8 nodes
    for n in (7, 8):
        sampled = 0
        while sampled < 500:
            p = rnd.uniform(0.25, 0.45)
            all_edges = list(itertools.combinations(range(n), 2))
            edges = [e for e in all_edges if rnd.random() < p]
            if not _connected(n, edges):
                continue
            sampled += 1
            graph = NetworkGraph(n, {e: 100 for e in edges})
            adjacency = {u: set(graph.neighbors(u)) for u in range(n)}
            pairs = {(0, n - 1), tuple(sorted(rnd.sample(range(n), 2)))}
            for i, j in pairs:
                _check_pair_against_oracle(graph, adjacency, i, j, False)


@verdict(5, "key delivery endpoint agreement")
def test_acceptance_key_delivery(ring6):
    graph, target = ring6
    out = run(graph, target, RouterConfig(m=2, delta_r=10, seed=0))
    tau = Decimal(100)
    rates = rates_by_pair(out.routing_list.records())
    started = time.perf_counter()
    for seed in range(100):
        sim = simulate(graph, out.routing_list, tau, seed=seed)
        # both endpoints assembled the same bits, at the routed length
        for pair, key in sim.pair_keys.items():
            assert key.agreed
            assert len(key.bits) == rates[pair] * 100
        # segment accounting: every pool is tiled exactly by its own share
        # plus the relay segments of the records crossing the edge; pool p
        # starts at stream bit 4 * H_p, H_p the half-words of the pools before it
        origin = 0
        for edge, length in sim.pool_lengths.items():
            assert length == graph.rate(*edge) * 100
            relay = sorted(segments[edge] for segments in sim.layout.segments.values()
                           if edge in segments)
            cursor = int(out.routing_list.effective(graph)[edge]) * 100
            for start, stop in relay:
                assert start - origin == cursor
                cursor = stop - origin
            assert cursor == length
            origin += 4 * ((length + 3) // 4)
    assert time.perf_counter() - started < 5.0


@verdict(6, "compromise security")
def test_acceptance_compromise_security(k23):
    graph, target = k23
    out = run(graph, target, RouterConfig(m=2, delta_r=100, seed=0))
    sim = simulate(graph, out.routing_list, tau=1, seed=0)

    # over every subset of nodes: a record with one honest-interior path
    # resists reconstruction; a fully covered record is rebuilt exactly
    nodes = range(graph.node_count)
    for size in range(graph.node_count + 1):
        for subset in itertools.combinations(nodes, size):
            for record in out.routing_list.records():
                rebuilt = adversary_reconstruct(sim, record.path_set, subset)
                if record_is_leaked(record.path_set, subset):
                    assert rebuilt is not None
                    assert np.array_equal(
                        rebuilt, sim.record_block(record.path_set)
                    )
                else:
                    assert rebuilt is None

    # with 8-bit segments, sweep one path's segment through all 256
    # values: the pair key block covers all 256 values, i.e. the honest
    # path acts as a one-time pad over the unknown segment
    set_a = MPathSet((Path((0, 1, 4)), Path((0, 2, 4))))
    routing = RoutingList()
    routing.add(set_a, 100)
    tau = Decimal("0.08")
    base = simulate(graph, routing, tau, seed=1)
    layout = base.layout
    start, stop = layout.segments[set_a][(0, 1)]
    assert stop - start == 8
    seen = set()
    for value in range(256):
        # the segment drawn on (0, 1) is replaced by this value
        def patched(segments, generator):
            pools = accumulate_pools(segments, generator)
            pools[(0, 1)] = KeyPool(np.array([value], np.uint8), start, stop)
            return pools

        pools = patched(layout.segments[set_a], np.random.default_rng(1).bit_generator)
        for path in set_a.paths:
            key_i, key_j, _ = relay_path_key(pools, path.edges)
            assert np.array_equal(key_i, key_j)
        with mock.patch.object(keysim, "accumulate_pools", patched):
            seen.add(int(assemble_pair_keys(routing, layout, base.seed)[(0, 4)].packed[0]))
    assert seen == set(range(256))

    assert compromise_probability_bound(2, "0.1") == 0.01


@verdict(7, "byte-identical artifacts")
def test_acceptance_determinism(ring6, ring6_file, tmp_path):
    graph, target = ring6
    config = RouterConfig(m=2, delta_r=10, seed=0)
    contents = []
    for attempt in range(3):
        out = run(graph, target, config)
        files = write_route_artifacts(
            tmp_path / str(attempt), out, graph, target, config, ring6_file
        )
        contents.append({name: p.read_bytes() for name, p in files.items()})
    assert contents[0] == contents[1] == contents[2]
    assert set(contents[0]) == {
        "routing_txt", "routing_json", "effective_csv", "trace_csv", "manifest",
    }
