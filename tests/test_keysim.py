from __future__ import annotations

import functools
import itertools
import re
import tracemalloc
from collections import Counter
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdroute import keysim
from qkdroute.engine import RoutingList, run
from qkdroute.keysim import (
    FULLY_LEAKED,
    PARTIALLY_LEAKED,
    SECURE,
    CapacityError,
    KeyPool,
    Layout,
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
from qkdroute.model import NetworkGraph, RouterConfig
from qkdroute.netfile import load_network
from qkdroute.paths import MPathSet, Path

from conftest import NETWORKS_DIR
from oracles import one_shot_pools, relay_key_forward

MESH10_FILE = NETWORKS_DIR / "mesh10.json"

SET_A = MPathSet((Path((0, 1, 4)), Path((0, 2, 4))))
SET_B = MPathSet((Path((0, 1, 4)), Path((0, 3, 4))))


def single_record_setup(k23, rate=300):
    """One routed record on the bipartite graph."""
    graph, _ = k23
    routing = RoutingList()
    routing.add(SET_A, rate)
    return graph, routing


def edge_lengths(graph):
    """A 1000-bit pool on every edge, as k23's 1 kbit/s give over 1 s."""
    return dict.fromkeys(graph.edges, 1000)


def stream(seed):
    """The bit generator of the seed's stream, at its first word."""
    return np.random.default_rng(seed).bit_generator


def draw_record(sim, path_set):
    """The relay segments of one record, drawn as ``simulate`` draws them."""
    return accumulate_pools(sim.layout.segments[path_set], stream(sim.seed))


def pool_origins(lengths):
    """Pool p starts at bit 4 * H_p of the stream, where H_p is the number
    of 32-bit half-words the pools before it take."""
    origins, half_words = {}, 0
    for edge, length in lengths.items():
        origins[edge] = 4 * half_words
        half_words += (length + 3) // 4
    return origins


def in_pools(segments, lengths):
    """Stream-bit segments as bit offsets in their pools: each less its
    pool's origin as ``pool_origins`` gives it."""
    origins = pool_origins(lengths)
    return {edge: (start - origins[edge], stop - origins[edge])
            for edge, (start, stop) in segments.items()}


def unpacked(pool):
    """The bits a KeyPool holds, one byte per bit."""
    return np.unpackbits(pool.bits, count=len(pool))


def test_pool_lengths_and_determinism(k23):
    graph, routing = single_record_setup(k23, rate=300)
    sim = simulate(graph, routing, Decimal(2), seed=7)
    assert sim.pool_lengths == dict.fromkeys(graph.edges, 2000)
    pools = draw_record(sim, SET_A)
    assert set(pools) == set(SET_A.edges)
    origins = pool_origins(sim.pool_lengths)
    for edge, pool in pools.items():
        # each relaying edge draws its last 600 bits, packed 8 bits per byte
        in_pool = (pool.start - origins[edge], pool.stop - origins[edge])
        assert (*in_pool, len(pool)) == (1400, 2000, 600)
        assert pool.bits.dtype == np.uint8
        assert pool.bits.nbytes == 75
    again = simulate(graph, routing, Decimal(2), seed=7)
    other = simulate(graph, routing, Decimal(2), seed=8)
    for edge, pool in draw_record(again, SET_A).items():
        assert np.array_equal(pool.bits, pools[edge].bits)
    assert sim.pair_keys[(0, 4)].hex() == again.pair_keys[(0, 4)].hex()
    assert any(
        not np.array_equal(pool.bits, pools[edge].bits)
        for edge, pool in draw_record(other, SET_A).items()
    )
    assert sim.pair_keys[(0, 4)].hex() != other.pair_keys[(0, 4)].hex()


@functools.lru_cache(maxsize=1)
def mesh10_routed():
    graph, target, config = load_network(MESH10_FILE)
    return graph, run(graph, target, config)


def assert_drawn(pools, segments, reference, origins):
    """Each pool holds exactly its segment's bits of the reference draw of
    its edge's pool, which starts at stream bit ``origins[edge]``, packed
    from the top bit of its first byte on with zero pad bits."""
    assert list(pools) == list(segments)
    for edge, (start, stop) in segments.items():
        pool = pools[edge]
        assert (pool.start, pool.stop, len(pool)) == (start, stop, stop - start)
        offset = origins[edge]
        assert 0 <= start - offset <= stop - offset <= len(reference[edge])
        assert pool.bits.tolist() == packed(reference[edge][start - offset : stop - offset])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    tau=st.integers(1, 8000).map(lambda k: Decimal(k) / 10000),
    step_words=st.integers(1, 6) | st.just(keysim._STEP_WORDS),
)
def test_packed_pools_match_one_shot_draws(seed, tau, step_words):
    """The segments drawn for each record, and every pool drawn whole, in
    steps of any size, hold the bits of one draw per pool.  One generator
    serves every draw, as it does in ``simulate``, so each draw leaves it at
    the stream's start.  mesh10's rates give pools of 0 to 4000 bits, mostly
    not a multiple of 4 long, so most pools leave a half-word to the next
    and most segments start inside a 64-bit word."""
    graph, out = mesh10_routed()
    lengths = {edge: graph.scale.bit_count(graph.rate(*edge), tau) for edge in graph.edges}
    reference = dict(zip(graph.edges, one_shot_pools(list(lengths.values()), seed)))
    origins = pool_origins(lengths)
    layout = allocate_segments(lengths, out.routing_list, graph, tau)
    generator = stream(seed)
    with mock.patch.object(keysim, "_STEP_WORDS", step_words):
        for record in out.routing_list.records():
            segments = layout.segments[record.path_set]
            assert_drawn(accumulate_pools(segments, generator), segments, reference, origins)
        whole = {edge: (origins[edge], origins[edge] + length) for edge, length in lengths.items()}
        assert_drawn(accumulate_pools(whole, generator), whole, reference, origins)


def test_pool_starts_on_the_carried_half_word():
    """At the real step size: a pool of three 32-bit words leaves the high
    half of the second 64-bit word unread, a 0-bit pool draws nothing, and
    the pool after them, longer than one step, starts with that half-word,
    four bits into a 64-bit word.  It ends on a whole 64-bit word, so the
    pool after it starts on a fresh one.  With records routed over 1 - 0 - 3
    and 2 - 1 - 0 - 3, the segments on (0, 3) lie past the first step, and
    that pool drawn whole takes two steps that share a word."""
    step_bits = 8 * keysim._STEP_WORDS
    # one rate unit is 1 bit/s, so at tau = 0.5 s these are 9, 0,
    # step_bits + 18 and 5 bits: 3, 0, 2 * _STEP_WORDS + 5 and 2 words
    graph = NetworkGraph(4, {(0, 1): 18, (0, 2): 1, (0, 3): 2 * step_bits + 36,
                             (1, 2): 10})
    lengths = dict(zip(graph.edges, [9, 0, step_bits + 18, 5]))
    tau = Decimal("0.5")
    assert [graph.scale.bit_count(graph.rate(*e), tau) for e in graph.edges] == [*lengths.values()]
    reference = dict(zip(graph.edges, one_shot_pools(list(lengths.values()), seed=4)))

    routing = RoutingList()
    routing.add(MPathSet((Path((1, 0, 3)),)), 4)  # 2 bits a link
    routing.add(MPathSet((Path((2, 1, 0, 3)),)), 4)
    layout = allocate_segments(lengths, routing, graph, tau)
    # pool (0, 3) starts at bit 12; pool (1, 2) on a fresh word at
    # step_bits + 32
    origins = pool_origins(lengths)
    assert origins == {(0, 1): 0, (0, 2): 12, (0, 3): 12, (1, 2): step_bits + 32}
    first, second = (record.path_set for record in routing.records())
    assert layout.segments[first] == {(0, 1): (5, 7), (0, 3): (step_bits + 26, step_bits + 28)}
    assert in_pools(layout.segments[first], lengths) == {
        (0, 1): (5, 7), (0, 3): (step_bits + 14, step_bits + 16)}
    assert in_pools(layout.segments[second], lengths) == {
        (1, 2): (3, 5), (0, 1): (7, 9), (0, 3): (step_bits + 16, step_bits + 18)}
    generator = stream(4)
    for path_set in (first, second):
        segments = layout.segments[path_set]
        assert_drawn(accumulate_pools(segments, generator), segments, reference, origins)
    whole = {edge: (origins[edge], origins[edge] + length) for edge, length in lengths.items()}
    pools = accumulate_pools(whole, generator)
    assert_drawn(pools, whole, reference, origins)
    assert [pool.bits.nbytes for pool in pools.values()] == [2, 0, step_bits // 8 + 3, 1]

    # the first four bits of (0, 3) are the second word's high half
    raw = stream(4).random_raw(2)
    carried = [(int(raw[1]) >> (8 * k + 7)) & 1 for k in range(4, 8)]
    first_bits = accumulate_pools({(0, 3): (12, 16)}, stream(4))[(0, 3)]
    assert unpacked(first_bits).tolist() == carried


def packed(bits):
    """Bits given one to a byte or item, packed eight to a byte, as a list."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tolist()


SEGMENT_BITS = st.sampled_from([0, 1, 7, 8, 9]) | st.integers(0, 70)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_packed_relay_and_assembly_match_an_unpacked_oracle(data, seed):
    """Drawn segments, the relay's XORs and the pair key's assembly equal
    the same steps done one byte per bit on one draw per pool.  The records
    of pair (0, 1) take blocks of 0, 1, 7, 8, 9 or other bit counts, so
    blocks land at many bit offsets of the key; each edge's pool takes an
    own share and a tail of random length, so pools and segments start at
    many bit offsets of the stream."""
    routing = RoutingList()
    block_bits = {}
    node = 2
    for bits in data.draw(st.lists(SEGMENT_BITS, min_size=1, max_size=5)):
        paths = []
        for k in range(data.draw(st.integers(1, 2))):
            # only a second path may be the direct link, so no two sets are equal
            hops = data.draw(st.integers(2 if k == 0 else 1, 4))
            paths.append(Path((0, *range(node, node + hops - 1), 1)))
            node += hops - 1
        path_set = MPathSet(tuple(paths))
        routing.add(path_set, 1)
        block_bits[path_set] = bits
    layout = Layout({}, {}, Counter())
    in_pool = {}  # record set -> edge -> its segment's bits in the edge's pool
    lengths = {}  # each edge's pool, in the order the pools lie in the stream
    for record in routing.records():
        bits = block_bits[record.path_set]
        offset = layout.key_bits[(0, 1)]
        layout.blocks[record.path_set] = (offset, offset + bits)
        layout.key_bits[(0, 1)] += bits
        in_pool[record.path_set] = {}
        for edge in record.path_set.edges:
            if edge not in lengths:
                lengths[edge] = data.draw(st.integers(0, 20))  # the own share
            in_pool[record.path_set][edge] = (lengths[edge], lengths[edge] + bits)
            lengths[edge] += bits
    for edge in lengths:
        lengths[edge] += data.draw(st.integers(0, 12))
    origins = pool_origins(lengths)
    for path_set, segments in in_pool.items():
        layout.segments[path_set] = {
            edge: (origins[edge] + start, origins[edge] + stop)
            for edge, (start, stop) in segments.items()
        }
    pool_bits = dict(zip(lengths, one_shot_pools(list(lengths.values()), seed)))

    expected_key = []
    for record in routing.records():
        pools = accumulate_pools(layout.segments[record.path_set], stream(seed))
        path_keys = []
        for path in record.path_set.paths:
            segments = [pool_bits[edge][slice(*in_pool[record.path_set][edge])]
                        for edge in path.edges]
            for edge, bits in zip(path.edges, segments):
                assert pools[edge].bits.tolist() == packed(bits)
            oracle_key, oracle_messages = relay_key_forward([s.tolist() for s in segments])
            key_i, key_j, messages = relay_path_key(pools, path.edges)
            assert key_i.tolist() == packed(segments[0])
            assert key_j.tolist() == packed(oracle_key)
            assert [m.tolist() for m in messages] == [packed(m) for m in oracle_messages]
            path_keys.append(segments[0])
        expected_key.extend(functools.reduce(np.bitwise_xor, path_keys).tolist())

    keys = assemble_pair_keys(routing, layout, seed)
    assert list(keys) == [(0, 1)]
    key = keys[(0, 1)]
    assert key.agreed
    assert key.length == len(expected_key) == sum(block_bits.values())
    assert key.bits.tolist() == expected_key
    # the pad bits of the key's last byte are zero
    assert key.hex() == np.packbits(key.bits).tobytes().hex()
    assert key.hex() == bytes(packed(expected_key)).hex()


def test_a_drawn_pool_holds_its_segment_alone():
    """A drawn KeyPool holds one segment's bits alone, packed: six bits in
    one byte, and a segment of no bits in no byte."""
    pool = accumulate_pools({(0, 1): (7, 13)}, stream(0))[(0, 1)]
    assert len(pool) == 6
    assert pool.bits.nbytes == 1
    assert len(unpacked(pool)) == 6
    empty = accumulate_pools({(0, 1): (9, 9)}, stream(0))[(0, 1)]
    assert len(empty) == 0
    assert empty.bits.nbytes == 0


def test_pools_refused_beyond_physical_memory(k23):
    graph, _ = k23
    routing = RoutingList()
    routing.add(SET_A, 300)
    routing.add(SET_B, 200)
    # over 2 s the pair key takes 1000 bits, 125 bytes.  Relaying one
    # record holds its four segments, one joined from steps, a 2-hop path's
    # message and two fold keys, and two blocks: 10 x 75 bytes for SET_A's
    # 600-bit segments, plus 76 raw words for its longest step, 608 bytes;
    # SET_B's 400-bit ones take 10 x 50 + 8 x 51.  Refused before anything
    # is drawn
    with mock.patch.object(keysim, "_physical_memory", return_value=1482), \
            mock.patch.object(keysim, "accumulate_pools",
                              wraps=keysim.accumulate_pools) as draw:
        with pytest.raises(CapacityError, match="pair keys and relay segments of "
                                                "1483 bytes at tau 2 s exceed the 1482 bytes"):
            simulate(graph, routing, Decimal(2), seed=0)
    assert not draw.called
    with mock.patch.object(keysim, "_physical_memory", return_value=1483):
        assert simulate(graph, routing, Decimal(2), seed=0).pair_keys[(0, 4)].agreed


def test_memory_count_takes_the_longest_member_path(ring6):
    """The messages counted are those of the record's longest path: over
    1 s, 0 - 1 - 4 and 0 - 3 - 2 - 5 - 4 carry 100-bit segments of 13
    bytes on six hops, and relaying the 4-hop path holds three messages."""
    graph, _ = ring6
    routing = RoutingList()
    routing.add(MPathSet((Path((0, 1, 4)), Path((0, 3, 2, 5, 4)))), 100)
    # 13 key bytes, (6 + 4 + 4) x 13 and 14 raw words
    with mock.patch.object(keysim, "_physical_memory", return_value=306):
        with pytest.raises(CapacityError, match="of 307 bytes at tau 1 s"):
            simulate(graph, routing, 1, seed=0)
    with mock.patch.object(keysim, "_physical_memory", return_value=307):
        assert simulate(graph, routing, 1, seed=0).pair_keys[(0, 4)].agreed


def counted_bytes(graph, routing, tau):
    """The bytes that ``simulate``'s memory refusal counts."""
    with mock.patch.object(keysim, "_physical_memory", return_value=0):
        with pytest.raises(CapacityError) as refused:
            simulate(graph, routing, tau, seed=0)
    return int(re.search(r"of (\d+) bytes", str(refused.value)).group(1))


@pytest.mark.parametrize("network, tau, step_words", [
    ("mesh10", 10_000, keysim._STEP_WORDS),
    ("mesh10", 10_000, 1 << 12),
    ("k23", 10_000, keysim._STEP_WORDS),
    ("k23", 10_000, 1 << 12),
], ids=["mesh10", "mesh10-small-steps", "k23", "k23-small-steps"])
def test_memory_count_bounds_what_assembly_holds(network, tau, step_words):
    """What ``assemble_pair_keys`` allocates, from its entry to its peak,
    is no more than the refusal counts: on mesh10 over 10^4 s, with 100 kB
    segments in one step of 0.8 MB raw words or in 25 steps, and on k23,
    whose 2-hop paths leave the raw words most of what a record holds."""
    graph, target, config = load_network(NETWORKS_DIR / f"{network}.json")
    routing = run(graph, target, config).routing_list
    tau = Decimal(tau)
    layout = allocate_segments(keysim._pool_lengths(graph, tau), routing, graph, tau)
    stream(0)  # the generator's first seeding imports modules, once a process
    with mock.patch.object(keysim, "_STEP_WORDS", step_words):
        counted = counted_bytes(graph, routing, tau)
        tracemalloc.start()
        try:
            assemble_pair_keys(routing, layout, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= counted


def test_simulate_holds_the_pair_keys_and_one_record_at_a_time():
    """On mesh10 over 10^4 s the relay segments take 19.9 MB and the pair
    keys 3.1 MB.  ``simulate`` holds the keys, one record's segments and
    one step of raw words at a time: a few MiB over the keys."""
    graph, out = mesh10_routed()
    tracemalloc.start()
    try:
        sim = simulate(graph, out.routing_list, 10_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    key_bytes = sum(key.packed.nbytes for key in sim.pair_keys.values())
    assert key_bytes > 3_000_000
    assert peak < key_bytes + 6 * 2**20


def test_compromise_check_holds_no_more_than_relaying_a_record():
    """On mesh10 over 10^4 s with every node compromised, every record is
    opened, and ``assess_compromise`` compares each rebuilt block, packed,
    with the record's block in the pair key.  What it allocates from its
    entry to its peak is within what the memory refusal counts, over the
    pair keys, for relaying a record."""
    graph, out = mesh10_routed()
    tau = Decimal(10_000)
    sim = simulate(graph, out.routing_list, tau, seed=0)
    key_bytes = sum(key.packed.nbytes for key in sim.pair_keys.values())
    relay_bytes = counted_bytes(graph, out.routing_list, tau) - key_bytes
    tracemalloc.start()
    try:
        report = assess_compromise(sim, range(graph.node_count))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(report.pair_status.values()) == {FULLY_LEAKED}
    assert peak <= relay_bytes


def test_simulate_draws_each_segment_once_and_the_adversary_to_its_anchors(ring6):
    """``simulate`` draws every allocated segment once, record by record.
    ``assess_compromise`` then draws only for the records the corrupt nodes
    open, and only each member path's segments up to its first corrupt
    interior node; the block it checks against is sliced from the pair
    key."""
    graph, target = ring6
    out = run(graph, target, RouterConfig(m=2, delta_r=10, seed=0))
    records = list(out.routing_list.records())
    reaches = {}
    for corrupt in ({1, 2}, {0, 2}, {4, 2}, {3}, {0, 1, 2, 3, 4, 5}):
        drawn = []

        def counted(segments, generator):
            drawn.append(len(segments))
            return accumulate_pools(segments, generator)

        with mock.patch.object(keysim, "accumulate_pools", counted):
            sim = simulate(graph, out.routing_list, tau=1, seed=0)
            assert sum(drawn) == sum(map(len, sim.layout.segments.values()))
            assess_compromise(sim, corrupt)
        anchored = [
            sum(next(t for t, node in enumerate(path.nodes[1:-1], 1) if node in corrupt)
                for path in record.path_set.paths)
            for record in records if record_is_leaked(record.path_set, corrupt)
        ]
        assert drawn == [record.path_set.total_hops for record in records] + anchored
        reaches[frozenset(corrupt)] = anchored
    # {3} opens no record; under {2, 4} the path (3, 0, 1, 4, 5) anchors on
    # its third relay, and its set's reads stop short of its six segments
    assert reaches[frozenset({3})] == []
    assert reaches[frozenset({2, 4})] == [4, 2, 4]


def test_pool_rejects_bad_tau(k23):
    graph, routing = single_record_setup(k23)
    for tau in (0, "-1"):
        with pytest.raises(ValueError, match="tau must be positive"):
            simulate(graph, routing, tau)


def test_fractional_tau_floors_pool(k23):
    graph, routing = single_record_setup(k23)
    sim = simulate(graph, routing, "0.0015")
    # 1000 bit/s for 1.5 ms would be 1.5 bits, and 300 bit/s 0.45 bits;
    # pools and segments hold whole bits
    assert set(sim.pool_lengths.values()) == {1}
    assert in_pools(sim.layout.segments[SET_A], sim.pool_lengths)[(0, 1)] == (1, 1)
    assert sim.pair_keys[(0, 4)].length == 0


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
    graph, routing = single_record_setup(k23, rate=300)
    lengths = edge_lengths(graph)
    layout = allocate_segments(lengths, routing, graph, Decimal(1))
    # every traversed edge keeps its own share of 1000 - 300 bits at the
    # pool front; one relay segment starts right after it
    assert in_pools(layout.segments[SET_A], lengths) == dict.fromkeys(
        ((0, 1), (1, 4), (0, 2), (2, 4)), (1000 - 300, 1000))


def test_allocation_stacks_records_in_canonical_order(k23):
    graph, _ = k23
    routing = RoutingList()
    routing.add(SET_B, 200)
    routing.add(SET_A, 300)
    lengths = edge_lengths(graph)
    layout = allocate_segments(lengths, routing, graph, Decimal(1))
    # edge (0, 1) serves both records and keeps 1000 - 300 - 200 bits of its
    # own; SET_A sorts first so it sits first
    cursor = 1000 - 300 - 200
    assert in_pools(layout.segments[SET_A], lengths)[(0, 1)] == (cursor, cursor + 300)
    assert in_pools(layout.segments[SET_B], lengths)[(0, 1)] == (cursor + 300, cursor + 500)
    assert in_pools(layout.segments[SET_B], lengths)[(0, 3)] == (1000 - 200, 1000)


def test_allocation_rejects_oversubscribed_edge(k23):
    # 1100 units over 1000-unit edges leave each member edge at -100
    graph, routing = single_record_setup(k23, rate=1100)
    with pytest.raises(CapacityError, match="over-subscribed"):
        allocate_segments(edge_lengths(graph), routing, graph, Decimal(1))


def test_allocation_rejects_short_own_share(k23):
    graph, routing = single_record_setup(k23, rate=300)
    lengths = edge_lengths(graph)
    lengths[(0, 1)] = 400
    with pytest.raises(CapacityError, match="700-bit own share"):
        allocate_segments(lengths, routing, graph, Decimal(1))


def test_allocation_rejects_exhausted_pool(k23):
    graph, routing = single_record_setup(k23, rate=300)
    # shrink one pool below own share + relay demand
    lengths = edge_lengths(graph)
    lengths[(0, 1)] = 800
    with pytest.raises(CapacityError, match="exhausted"):
        allocate_segments(lengths, routing, graph, Decimal(1))


def test_allocation_rejects_unknown_edge(k23):
    graph, routing = single_record_setup(k23)
    lengths = edge_lengths(graph)
    del lengths[(0, 2)]
    with pytest.raises(CapacityError, match="not an edge"):
        allocate_segments(lengths, routing, graph, Decimal(1))


def test_relay_matches_forward_oracle(k23):
    graph, target = k23
    out = run(graph, target, RouterConfig(m=2, delta_r=100, seed=0))
    sim = simulate(graph, out.routing_list, tau=1, seed=5)
    for record in out.routing_list.records():
        pools = draw_record(sim, record.path_set)
        for path in record.path_set.paths:
            segments = [unpacked(pools[edge]) for edge in path.edges]
            key_i, key_j, messages = relay_path_key(pools, path.edges)
            oracle_key, oracle_messages = relay_key_forward(
                [s.tolist() for s in segments]
            )
            # relay_path_key returns packed bytes, pad bits zero
            assert key_i.tolist() == np.packbits(segments[0]).tolist()
            assert key_j.tolist() == np.packbits(oracle_key).tolist()
            assert [m.tolist() for m in messages] == [
                np.packbits(m).tolist() for m in oracle_messages
            ]
            assert np.array_equal(key_i, key_j)
            # a node inside the path recovers the key from the edges before
            # it, as the adversary does at its anchor
            for cut in range(1, path.hops + 1):
                prefix_i, prefix_j, _ = relay_path_key(pools, path.edges[:cut])
                assert prefix_i is pools[path.edges[0]].bits
                assert np.array_equal(prefix_j, key_i)


def test_endpoint_agreement_across_seeds(k23):
    graph, target = k23
    out = run(graph, target, RouterConfig(m=2, delta_r=100, seed=0))
    for seed in range(10):
        sim = simulate(graph, out.routing_list, tau=1, seed=seed)
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
    sim = simulate(graph, routing, tau=1, seed=3)
    key = sim.pair_keys[(0, 4)]
    assert key.agreed
    assert len(key.bits) == 500
    # the key is the records' XOR blocks concatenated in canonical order;
    # a block is realigned out of it from bit 0, its pad bits zero, though
    # SET_A's last byte in the key holds SET_B's first four bits
    assert sim.layout.blocks == {SET_A: (0, 300), SET_B: (300, 500)}
    for path_set, (start, stop) in sim.layout.blocks.items():
        assert sim.record_block(path_set).tolist() == packed(key.bits[start:stop])
    # and each block really is the XOR of its member-path first-link segments
    for path_set, (first, second) in ((SET_A, ((0, 1), (0, 2))), (SET_B, ((0, 1), (0, 3)))):
        pools = draw_record(sim, path_set)
        manual = np.bitwise_xor(unpacked(pools[first]), unpacked(pools[second]))
        assert sim.record_block(path_set).tolist() == packed(manual)


def test_simulate_propagates_capacity_error(k23):
    # 1001 units over 1000-unit edges leave each member edge at -1
    graph, routing = single_record_setup(k23, rate=1001)
    with pytest.raises(CapacityError, match="over-subscribed"):
        simulate(graph, routing, tau=1)


def test_compromise_statuses(k23):
    graph, routing = single_record_setup(k23)
    sim = simulate(graph, routing, tau=1)
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
    sim = simulate(graph, routing, tau=1)
    # {1, 2} opens SET_A but SET_B still has the clean path through 3
    report = assess_compromise(sim, {1, 2})
    assert report.pair_status[(0, 4)] == PARTIALLY_LEAKED
    assert report.leaked_bits[(0, 4)] == 100
    opened = [adversary_reconstruct(sim, r.path_set, {1, 2}) is not None
              for r in routing.records()]
    assert opened == [True, False]


def test_adversary_reconstruction_exact(k23):
    graph, routing = single_record_setup(k23)
    sim = simulate(graph, routing, tau=1, seed=11)
    assert adversary_reconstruct(sim, SET_A, {1}) is None
    assert adversary_reconstruct(sim, SET_A, {3}) is None
    rebuilt = adversary_reconstruct(sim, SET_A, {1, 2})
    assert rebuilt is not None
    assert np.array_equal(rebuilt, sim.record_block(SET_A))
    # the one record's block is its pair's whole key, packed alike
    assert np.array_equal(rebuilt, sim.pair_keys[(0, 4)].packed)


def test_every_compromise_subset_cross_checks(request):
    """assess_compromise raises if the structural rule and the constructive
    adversary ever disagree, so sweeping all subsets is a full cross-check;
    each pair's status and leaked bits must then follow from the records
    the rule opens.  On ring6 some paths have three interior nodes, so the
    adversary also telescopes from a first corrupt relay past the first hop."""
    tau = Decimal("0.5")
    for fixture, delta_r in (("k23", 100), ("ring6", 10)):
        graph, target = request.getfixturevalue(fixture)
        out = run(graph, target, RouterConfig(m=2, delta_r=delta_r, seed=0))
        sim = simulate(graph, out.routing_list, tau=tau, seed=2)
        nodes = range(graph.node_count)
        for size in range(graph.node_count + 1):
            for subset in itertools.combinations(nodes, size):
                report = assess_compromise(sim, subset)
                opened = {}
                for record in out.routing_list.records():
                    opened.setdefault(record.pair, []).append(
                        (record_is_leaked(record.path_set, subset),
                         graph.scale.bit_count(record.rate, tau))
                    )
                status = {
                    pair: FULLY_LEAKED if all(leaked for leaked, _ in records)
                    else PARTIALLY_LEAKED if any(leaked for leaked, _ in records)
                    else SECURE
                    for pair, records in opened.items()
                }
                leaked_bits = {
                    pair: sum(bits for leaked, bits in records if leaked)
                    for pair, records in opened.items()
                }
                assert report.pair_status == status
                assert report.leaked_bits == leaked_bits


def test_longer_paths_need_only_one_corrupt_interior(ring6):
    graph, target = ring6
    out = run(graph, target, RouterConfig(m=2, delta_r=10, seed=0))
    sim = simulate(graph, out.routing_list, tau=1, seed=0)
    # {(3, 0, 1, 4, 5), (3, 2, 5)}: corrupting 0 on one path and 2 on the
    # other opens the record even though 1 and 4 stay honest
    target_set = MPathSet((Path((3, 0, 1, 4, 5)), Path((3, 2, 5))))
    assert target_set in [r.path_set for r in out.routing_list.records()]
    rebuilt = adversary_reconstruct(sim, target_set, {0, 2})
    assert rebuilt is not None
    assert np.array_equal(rebuilt, sim.record_block(target_set))
    assert adversary_reconstruct(sim, target_set, {0, 1, 4}) is None


def test_eight_bit_blocks_exhaustively_uniform(k23):
    """Patch one path's segment through all 256 values: the pair key block
    must run through all 256 values too (the mask path acts as a one-time
    pad), and both endpoints must agree every time."""
    graph, routing = single_record_setup(k23, rate=100)
    tau = Decimal("0.08")  # 100 bit/s * 0.08 s = 8-bit relay segments
    sim = simulate(graph, routing, tau, seed=9)
    layout = sim.layout
    start, stop = layout.segments[SET_A][(0, 1)]
    assert stop - start == 8
    seen = set()
    for value in range(256):
        def patched(segments, generator):
            pools = accumulate_pools(segments, generator)
            pools[(0, 1)] = KeyPool(np.array([value], dtype=np.uint8), start, stop)
            return pools

        pools = patched(layout.segments[SET_A], stream(9))
        for path in SET_A.paths:
            key_i, key_j, _ = relay_path_key(pools, path.edges)
            assert np.array_equal(key_i, key_j)
        with mock.patch.object(keysim, "accumulate_pools", patched):
            key = assemble_pair_keys(routing, layout, sim.seed)[(0, 4)]
        assert key.agreed
        seen.add(int(key.packed[0]))
    assert seen == set(range(256))
