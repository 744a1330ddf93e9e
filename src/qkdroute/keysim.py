"""Bit-level simulation of key delivery over routed path sets.

Every edge accumulates a pool of secret bits for a harvest window of tau
seconds.  The front of each pool is carved into segments: first the edge's
own share, its effective rate in ``routing_list.effective(graph)``, then one
relay segment per routing record that traverses the edge, in canonical record
order.  Both endpoints of an edge hold the same pool, so they carve identical
segments without talking.

The pools are consecutive runs of one bit stream, drawn from one
``numpy.random.default_rng(seed)`` in canonical edge order: the top bit of
every byte of the generator's raw 64-bit words, lowest byte first, so four
bits per 32-bit half-word, low half first.  A pool of L bits takes the next
ceil(L / 4) half-words and skips the bits of its last one past L: pool p
starts at bit 4 * H_p of the stream, where H_p = sum over q < p of
ceil(L_q / 4).  Its bits are exactly those that ``integers(0, 2,
dtype=uint8)`` would return if called once per pool.

``allocate_segments`` is the one place that lays the stream out.  It needs
only the pool lengths, so ``simulate`` calls it once, before anything is
drawn, for a ``Layout``: each record's relay segment on each edge as
``(start, stop)`` bits of the stream, and where each record's block lies in
its pair's key.

No command reads an edge's own share, and no pool is kept.
``assemble_pair_keys`` takes the records in canonical order and has
``accumulate_pools`` draw one record's relay segments alone: the generator
jumps to each segment's first 64-bit word (``bit_generator.advance``) and the
segment is packed eight bits to a byte from its first bit on.  The relay XORs
those bytes, the record's block is written at its bit offset into its pair's
packed key, and the segments are dropped.  A segment read again is drawn
again; the compromise analysis draws only the segments that an adversary's
anchors reach, and compares each block it rebuilds, packed, with the
record's block realigned out of the pair key.

A record's key on one member path is the segment on the path's first link.
Each interior node publishes the XOR of the segments on its two adjacent
links; ``relay_path_key`` folds the messages before a node into the segment
arriving there, which gives the first-link segment at the far endpoint and
at a corrupt interior node alike.  The key block a record
contributes to its pair is the XOR of all M member-path keys, so an
eavesdropper needs a corrupt interior node on every member path to learn
anything.

``PairKey``, ``CompromiseReport`` and ``KeySimulation`` are ``units.Frozen``
values and ``KeyPool`` a plain ``__slots__`` class, so this module loads no
``dataclasses``.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from decimal import Decimal
from typing import Dict, FrozenSet, Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .engine import RoutingList
from .model import CapacityError, Edge, NetworkGraph, NodeId
from .paths import MPathSet
from .units import Frozen, as_decimal


# A step draws 8 * _STEP_WORDS bits: at most _STEP_WORDS + 1 raw 64-bit
# words, about 4 MiB, packed to 512 KiB.
_STEP_WORDS = 1 << 19
# PCG64 runs through 2**128 words, so advancing by this less k goes back k
_PERIOD = 1 << 128


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class KeyPool:
    """Stream bits ``start:stop``, which lie in one edge's shared secret-bit
    pool, drawn for one relay: the packed bytes ``bits``, first bit highest
    in ``bits[0]``, pad bits zero.  ``len`` gives the bits drawn."""

    __slots__ = ("bits", "start", "stop")

    def __init__(self, bits: np.ndarray, start: int, stop: int) -> None:
        self.bits, self.start, self.stop = bits, start, stop

    def __len__(self) -> int:
        return self.stop - self.start


class Layout(NamedTuple):
    """Where everything ``simulate`` draws and assembles lies."""

    # record set -> edge -> the (start, stop) stream bits of its relay segment
    segments: Dict[MPathSet, Dict[Edge, Tuple[int, int]]]
    # record set -> the (start, stop) bits of its block in its pair's key
    blocks: Dict[MPathSet, Tuple[int, int]]
    # routed pair -> the length of its key in bits
    key_bits: Counter[Edge]


class PairKey(Frozen):
    """Final key of one node pair and whether both endpoints computed it:
    ``packed`` holds the key bits eight to a byte, first bit highest, pad
    bits zero, and ``length`` counts them."""

    __slots__ = ("packed", "length", "agreed")

    def __init__(self, packed: np.ndarray, length: int, agreed: bool) -> None:
        self._set(packed, length, agreed)

    @property
    def bits(self) -> np.ndarray:
        """The key, one byte per bit."""
        return np.unpackbits(self.packed, count=self.length)

    def hex(self) -> str:
        """The bits packed eight to a byte, first bit highest, in hex."""
        return self.packed.tobytes().hex()


SECURE = "secure"
PARTIALLY_LEAKED = "partially_leaked"
FULLY_LEAKED = "fully_leaked"


class CompromiseReport(Frozen):
    """Which routed keys a set of corrupt nodes can reconstruct."""

    __slots__ = ("compromised", "pair_status", "leaked_bits", "bound")

    def __init__(self, compromised: FrozenSet[NodeId], pair_status: Mapping[Edge, str],
                 leaked_bits: Mapping[Edge, int], bound: Optional[float] = None) -> None:
        self._set(compromised, pair_status, leaked_bits, bound)


def record_is_leaked(path_set: MPathSet, compromised: Iterable[NodeId]) -> bool:
    """True iff every member path has at least one compromised interior node."""
    corrupt = frozenset(compromised)
    return all(path.interior & corrupt for path in path_set.paths)


def compromise_probability_bound(m: int, epsilon: object) -> float:
    """Upper bound epsilon**m on the chance a whole path set is corrupt.

    Computed in decimal so that round inputs give round outputs, e.g.
    (2, 0.1) -> 0.01 exactly.
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    return float(_epsilon(epsilon) ** m)


def _epsilon(epsilon: object) -> Decimal:
    """``epsilon`` as a Decimal; ValueError unless it lies in [0, 1]."""
    eps = as_decimal(epsilon, "epsilon")
    if not (0 <= eps <= 1):
        raise ValueError(f"epsilon must lie in [0, 1], got {eps}")
    return eps


def _pool_lengths(graph: NetworkGraph, tau: Decimal) -> Dict[Edge, int]:
    """Bits in each edge's pool, in canonical edge order; ValueError unless
    tau is positive."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return {edge: graph.scale.bit_count(graph.rate(*edge), tau) for edge in graph.edges}


def _refuse_beyond_memory(layout: Layout, tau: Decimal) -> None:
    """CapacityError when the packed pair keys plus what relaying the largest
    record holds would not fit in physical memory.  A record whose T
    segments take S bytes each, over paths of at most h hops, holds its T
    segments, a segment joined from its steps, one step of raw words (a byte
    per bit drawn, at most ``_STEP_WORDS + 1`` words) and, while one path is
    relayed, its h - 1 messages, the two keys of its fold and two blocks."""
    key_bytes = sum((bits + 7) // 8 for bits in layout.key_bits.values())
    relay_bytes = max(
        (
            (path_set.total_hops + max(path.hops for path in path_set.paths) + 4)
            * ((stop - start + 7) // 8)
            + 8 * min(_STEP_WORDS + 1, (stop - start + 14) // 8)
            for path_set, (start, stop) in layout.blocks.items()
        ),
        default=0,
    )
    memory = _physical_memory()
    if key_bytes + relay_bytes > memory:
        raise CapacityError(
            f"pair keys and relay segments of {key_bytes + relay_bytes} bytes "
            f"at tau {tau} s exceed the {memory} bytes of physical memory"
        )


def accumulate_pools(
    segments: Mapping[Edge, Tuple[int, int]],
    generator: np.random.BitGenerator,
) -> Dict[Edge, KeyPool]:
    """Draw stream bits ``start:stop`` for each edge, as ``segments`` gives
    them, from the stream's bit generator.

    ``generator`` is at the first word of the stream the module docstring
    sets out, as ``numpy.random.default_rng(seed).bit_generator`` starts,
    and is left there.  Each segment is drawn on its own, in steps of
    ``8 * _STEP_WORDS`` bits: the generator jumps to the 64-bit word that
    holds a step's first bit and draws the words the step spans, and their
    top-bit octets are sliced at that bit before they are packed.  So every
    step fills whole bytes, and a segment's bytes start with its first bit.
    A segment of no bits draws no word.  The same segments from the same
    seed always give identical key material.
    """
    pools: Dict[Edge, KeyPool] = {}
    at = 0  # the generator's word
    for edge, (start, stop) in segments.items():
        steps = []
        for first in range(start, stop, 8 * _STEP_WORDS):
            word, lead = divmod(first, 8)
            count = min(8 * _STEP_WORDS, stop - first)
            generator.advance((word - at) % _PERIOD)
            raw = generator.random_raw((lead + count + 7) // 8)
            at = word + len(raw)
            octets = raw.astype("<u8", copy=False).view(np.uint8)
            np.right_shift(octets, 7, out=octets)
            steps.append(np.packbits(octets[lead : lead + count]))
            del raw, octets  # before the next step's words are drawn
        # a segment of no bits takes no step
        bits = steps[0] if len(steps) == 1 else np.concatenate([np.empty(0, np.uint8), *steps])
        pools[edge] = KeyPool(bits, start, stop)
    generator.advance(-at % _PERIOD)
    return pools


def allocate_segments(
    lengths: Mapping[Edge, int],
    routing_list: RoutingList,
    graph: NetworkGraph,
    tau: Decimal,
) -> Layout:
    """Lay the pools, ``lengths[edge]`` bits long, out in the stream, in the
    order of ``lengths``, and carve each into its own share plus relay
    segments.

    Pool p starts at stream bit 4 * H_p, as the module docstring sets out.
    An edge's own share, its effective rate ``routing_list.effective``, sits
    at the pool front; the relay segments follow it, floor(rate * tau) bits
    each, with the records in canonical order, so all parties compute the
    same layout independently.  Returns each record's relay segment on each
    edge it uses as ``(start, stop)`` stream bits, each record's bits in its
    pair's key and each pair's key length.

    Raises:
        CapacityError: when an edge pool cannot hold its own share plus
            every relay segment routed across it, or when the edge's
            effective rate went negative (over-subscription with the guard
            disabled).
    """
    scale = graph.scale
    effective = routing_list.effective(graph)
    cursors: Dict[Edge, int] = {}  # each pool's next free stream bit
    ends: Dict[Edge, int] = {}  # the stream bit past each pool
    origin = 0
    for edge, size in lengths.items():
        rate = effective[edge]
        if rate < 0:
            raise CapacityError(
                f"edge ({edge[0]}, {edge[1]}) is over-subscribed: "
                f"effective rate {rate} is negative"
            )
        length = scale.bit_count(rate, tau)
        if length > size:
            raise CapacityError(
                f"edge ({edge[0]}, {edge[1]}) pool of {size} bits cannot "
                f"hold its {length}-bit own share"
            )
        cursors[edge] = origin + length
        ends[edge] = origin + size
        origin += 4 * ((size + 3) // 4)
    layout = Layout({}, {}, Counter())
    record_bits: Dict[int, int] = {}  # by rate, which many records share
    for record in routing_list.records():
        if record.rate not in record_bits:
            record_bits[record.rate] = scale.bit_count(record.rate, tau)
        length = record_bits[record.rate]
        offset = layout.key_bits[record.pair]
        layout.blocks[record.path_set] = (offset, offset + length)
        layout.key_bits[record.pair] += length
        segments = layout.segments[record.path_set] = {}
        for path in record.path_set.paths:
            for edge in path.edges:
                if edge not in lengths:
                    raise CapacityError(
                        f"routing record traverses ({edge[0]}, {edge[1]}), "
                        "which is not an edge of the network"
                    )
                start = cursors[edge]
                stop = cursors[edge] = start + length
                if stop > ends[edge]:
                    raise CapacityError(
                        f"edge ({edge[0]}, {edge[1]}) pool of "
                        f"{lengths[edge]} bits exhausted while allocating "
                        f"relay segments"
                    )
                segments[edge] = (start, stop)
    return layout


def relay_path_key(
    pools: Mapping[Edge, KeyPool], edges: Sequence[Edge]
) -> Tuple[np.ndarray, np.ndarray, Tuple[np.ndarray, ...]]:
    """Relay one member-path key over ``edges``, in packed bytes: the path's
    edges from its first node up to the node that recovers the key, all of
    them for the far endpoint and those up to its anchor for the adversary.

    Returns:
        The key at the first node, its first-link segment; the key that the
        last node recovers by folding the public messages into the segment
        arriving there; and the messages: ``messages[t]`` is the XOR of the
        segments on ``edges[t]`` and ``edges[t + 1]``, which the node between
        them publishes.
    """
    segments = [pools[edge].bits for edge in edges]
    messages = tuple(map(np.bitwise_xor, segments[:-1], segments[1:]))
    key = segments[-1]
    for message in reversed(messages):
        key = np.bitwise_xor(key, message)
    return segments[0], key, messages


def assemble_pair_keys(
    routing_list: RoutingList,
    layout: Layout,
    seed: int,
) -> Dict[Edge, PairKey]:
    """Relay every record, in canonical order, and write its XOR block into
    its pair's packed key, allocated up front; ``agreed`` holds when both
    endpoints' blocks match for every record of the pair."""
    lengths = layout.key_bits
    keys = {pair: np.zeros((length + 7) // 8, dtype=np.uint8) for pair, length in lengths.items()}
    agreed: Dict[Edge, bool] = {}
    generator = np.random.default_rng(seed).bit_generator
    for record in routing_list.records():
        pair = record.pair
        same = _relay_record(record.path_set, layout, generator, keys[pair])
        agreed[pair] = agreed.get(pair, True) and same
    return {pair: PairKey(keys[pair], lengths[pair], agreed[pair]) for pair in sorted(keys)}


def _relay_record(
    path_set: MPathSet,
    layout: Layout,
    generator: np.random.BitGenerator,
    key: np.ndarray,
) -> bool:
    """Draw one record's segments and relay them.  The first endpoint's
    block, the XOR of the first-link segments, is written at its bit offset
    into the pair's packed ``key``; True when the far endpoint's block, the
    XOR of the keys it recovers, is the same.  What the record holds is
    dropped on return, before the next record is drawn."""
    pools = accumulate_pools(layout.segments[path_set], generator)
    block_i: Optional[np.ndarray] = None
    block_j: Optional[np.ndarray] = None
    for path in path_set.paths:
        key_i, key_j = relay_path_key(pools, path.edges)[:2]
        block_i = key_i if block_i is None else np.bitwise_xor(block_i, key_i)
        block_j = key_j if block_j is None else np.bitwise_xor(block_j, key_j)
    _write_block(key, layout.blocks[path_set][0], block_i)
    return block_i.tobytes() == block_j.tobytes()


def _write_block(key: np.ndarray, offset: int, block: np.ndarray) -> None:
    """OR the packed ``block`` into the packed ``key`` from bit ``offset``
    on, where the key's bits are still zero."""
    first, shift = divmod(offset, 8)
    key[first : first + len(block)] |= block >> shift
    spill = key[first + 1 : first + 1 + len(block)]
    spill |= (block << (8 - shift))[: len(spill)]


def _read_block(key: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Bits ``start:stop`` of the packed ``key``, packed from bit 0 on with
    the pad bits zero: the block that ``_write_block`` wrote there."""
    first, lead = divmod(start, 8)
    size = (stop - start + 7) // 8
    block = key[first : first + size] << lead
    spill = key[first + 1 : first + 1 + size]
    block[: len(spill)] |= spill >> (8 - lead)
    block[size - 1 :] &= 0xFF << -(stop - start) % 8 & 0xFF
    return block


class KeySimulation(Frozen):
    """Everything one end-to-end key delivery simulation keeps: the layout
    and the pair keys, but no pool bits.  ``pool_lengths`` holds the bits
    in each edge's pool."""

    __slots__ = ("graph", "routing_list", "tau", "seed", "pool_lengths", "layout", "pair_keys")

    def __init__(self, graph: NetworkGraph, routing_list: RoutingList, tau: Decimal,
                 seed: int, pool_lengths: Mapping[Edge, int], layout: Layout,
                 pair_keys: Mapping[Edge, PairKey]) -> None:
        self._set(graph, routing_list, tau, seed, pool_lengths, layout, pair_keys)

    def record_block(self, path_set: MPathSet) -> np.ndarray:
        """True XOR block a record contributes to its pair key, packed eight
        bits to a byte from its first bit, pad bits zero: the bits the
        layout gives it, realigned out of the pair key."""
        key = self.pair_keys[path_set.endpoints].packed
        return _read_block(key, *self.layout.blocks[path_set])


def simulate(
    graph: NetworkGraph,
    routing_list: RoutingList,
    tau: object,
    seed: int = 0,
) -> KeySimulation:
    """Lay the segments out once, then draw, relay and assemble record by
    record, end to end.

    Raises:
        ValueError: when tau is not positive.
        CapacityError: when the segments do not fit in the pools, or when
            the packed pair keys plus the largest record's relay segments
            would not fit in physical memory; this is checked before
            anything is drawn.
    """
    tau = as_decimal(tau, "tau")
    lengths = _pool_lengths(graph, tau)
    layout = allocate_segments(lengths, routing_list, graph, tau)
    _refuse_beyond_memory(layout, tau)
    pair_keys = assemble_pair_keys(routing_list, layout, seed)
    return KeySimulation(
        graph=graph,
        routing_list=routing_list,
        tau=tau,
        seed=seed,
        pool_lengths=lengths,
        layout=layout,
        pair_keys=pair_keys,
    )


def adversary_reconstruct(
    sim: KeySimulation,
    path_set: MPathSet,
    compromised: Iterable[NodeId],
) -> Optional[np.ndarray]:
    """Rebuild a record's key block from corrupt nodes' pools and public messages.

    The adversary holds the full pools of every edge incident to a
    compromised node, plus all public relay messages.  For each member path
    it anchors on the first compromised interior node.  There it holds the
    segment of the link arriving at the anchor and the messages of the nodes
    before it, just what the far endpoint holds over the whole path, so
    ``relay_path_key`` over the path's edges up to the anchor recovers the
    first-link segment.  If some path has no compromised interior, there is
    nothing to anchor on and reconstruction fails before anything is drawn;
    otherwise only each path's segments up to its anchor are drawn.

    Returns:
        The key block, packed eight bits to a byte from its first bit, pad
        bits zero, as ``KeySimulation.record_block`` gives it; or None when
        reconstruction is impossible.
    """
    corrupt = frozenset(compromised)
    reach = []  # each path's edges up to its anchor
    for path in path_set.paths:
        anchor = next((t for t, node in enumerate(path.nodes[1:-1], 1) if node in corrupt), None)
        if anchor is None:
            return None
        reach.append(path.edges[:anchor])
    segments = sim.layout.segments[path_set]
    pools = accumulate_pools(
        {edge: segments[edge] for edges in reach for edge in edges},
        np.random.default_rng(sim.seed).bit_generator,
    )
    return functools.reduce(np.bitwise_xor, (relay_path_key(pools, edges)[1] for edges in reach))


def check_compromise(
    graph: NetworkGraph,
    compromised: Iterable[NodeId],
    epsilon: Optional[object],
) -> Tuple[FrozenSet[NodeId], Optional[Decimal]]:
    """The compromised nodes as a set and epsilon as a Decimal, or None.

    Raises:
        ValueError: when a node is not in ``graph``, or epsilon is not a
            number in [0, 1].
    """
    corrupt = frozenset(compromised)
    outside = sorted(n for n in corrupt if not 0 <= n < graph.node_count)
    if outside:
        raise ValueError(f"compromised nodes {outside} are not in the network")
    return corrupt, None if epsilon is None else _epsilon(epsilon)


def assess_compromise(
    sim: KeySimulation,
    compromised: Iterable[NodeId],
    epsilon: Optional[object] = None,
) -> CompromiseReport:
    """Classify every routed pair under a set of compromised nodes.

    The structural rule (a record leaks iff every member path has a corrupt
    interior node) is cross-checked against the constructive adversary
    reconstruction; divergence would mean the relay scheme leaks more or
    less than designed, so it raises rather than reporting.  The arguments
    are checked by ``check_compromise``.
    """
    # epsilon is checked whatever the records, though without records
    # there is no bound
    corrupt, eps = check_compromise(sim.graph, compromised, epsilon)
    leaked_by_pair: Dict[Edge, int] = {}
    status: Dict[Edge, str] = {}
    for record in sim.routing_list.records():
        leaked = record_is_leaked(record.path_set, corrupt)
        rebuilt = adversary_reconstruct(sim, record.path_set, corrupt)
        if leaked != (rebuilt is not None):
            raise AssertionError("structural leak rule disagrees with adversary reconstruction")
        # both blocks are packed with zero pad bits, so equal blocks are equal bytes
        if leaked and rebuilt.tobytes() != sim.record_block(record.path_set).tobytes():
            raise AssertionError("adversary reconstructed an incorrect block")
        pair = record.pair
        start, stop = sim.layout.blocks[record.path_set]
        leaked_by_pair[pair] = leaked_by_pair.get(pair, 0) + (stop - start if leaked else 0)
        verdict = FULLY_LEAKED if leaked else SECURE
        status[pair] = (
            verdict if status.get(pair, verdict) == verdict else PARTIALLY_LEAKED
        )
    m_values = {record.path_set.m for record in sim.routing_list.records()}
    bound = None
    if eps is not None and m_values:
        bound = compromise_probability_bound(min(m_values), eps)
    return CompromiseReport(
        compromised=corrupt,
        pair_status=status,
        leaked_bits=leaked_by_pair,
        bound=bound,
    )
