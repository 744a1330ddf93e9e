"""Bit-level simulation of key delivery over routed path sets.

Every edge accumulates a pool of secret bits for a harvest window of tau
seconds.  The front of each pool is carved into segments: first the edge's
own share, its effective rate as ``RoutingList.effective`` derives it from the
routing list, then one relay segment per routing record that traverses the
edge, in canonical record order.  Both endpoints of an
edge hold the same pool, so they carve identical segments without talking.
``allocate_segments`` maps each (record set, edge) to the ``(start, stop)``
bit offsets of that record's relay segment in the edge's pool.  It needs only
the pool lengths, so ``simulate`` lays everything out once, before anything is
drawn: the segments, the run of each pool to store, and the length of each
pair's key.

The pools are consecutive runs of one bit stream, drawn from one
``numpy.random.default_rng(seed)`` in canonical edge order: the top bit of
every byte of the generator's raw 64-bit words, lowest byte first, so four
bits per 32-bit half-word, low half first.  A pool of L bits takes the next
ceil(L / 4) half-words and skips the bits of its last one past L: pool p
starts at bit 4 * H_p of the stream, where H_p = sum over q < p of
ceil(L_q / 4).  Its bits are exactly those that ``integers(0, 2,
dtype=uint8)`` would return if called once per pool.

No command reads an edge's own share, so each pool stores only the run that
its relay segments cover, from the end of the own share to the last relay
stop.  ``accumulate_pools`` draws exactly the runs it is given: the
generator jumps to each run's first 64-bit word (``bit_generator.advance``)
and draws only the run, packed eight bits to a byte.  A segment is read as
packed bytes aligned to bit 0, the relay and the key blocks XOR those bytes,
and each record's block is written at its bit offset into its pair's packed
key.  A simulation's peak memory is thus about (relayed bits + key bits) / 8
bytes.

A record's key on one member path is the segment on the path's first link.
Each interior node publishes the XOR of the segments on its two adjacent
links; the far endpoint recovers the first-link segment by folding those
messages into the last-link segment it holds.  The key block a record
contributes to its pair is the XOR of all M member-path keys, so an
eavesdropper needs a corrupt interior node on every member path to learn
anything.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

import numpy as np

from .engine import RoutingList
from .model import CapacityError, Edge, NetworkGraph, NodeId
from .paths import MPathSet, Path
from .units import as_decimal


# 64-bit generator words drawn per step: 4 MiB of raw words, packed to
# 512 KiB.
_STEP_WORDS = 1 << 19


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _top_bits(raw: np.ndarray) -> np.ndarray:
    """The top bit of every byte of ``raw``'s 64-bit words, lowest byte
    first, packed eight to a byte; ``raw`` serves as scratch."""
    octets = raw.astype("<u8", copy=False).view(np.uint8)
    np.right_shift(octets, 7, out=octets)
    return np.packbits(octets)


@dataclass(frozen=True, eq=False)
class KeyPool:
    """The shared secret-bit pool of one edge over the harvest window.

    Of the pool's ``length`` bits only the run ``start:stop`` is stored, in
    the read-only packed bytes ``bits`` from bit ``shift`` of ``bits[0]``
    on, first bit highest.  The bytes can hold bits of the stream either
    side of the stored run.
    """

    bits: np.ndarray
    length: int
    shift: int
    start: int
    stop: int

    def __len__(self) -> int:
        return self.length

    def segment(self, start: int, stop: int) -> np.ndarray:
        """Bits ``start:stop`` of the pool in new packed bytes, from the top
        bit of the first byte on, with the last byte's pad bits zero;
        ValueError unless they lie within the stored bits, as ``bits`` can
        hold other bits of the stream."""
        if not self.start <= start <= stop <= self.stop:
            raise ValueError(
                f"bits {start}:{stop} lie outside a pool of {self.length} bits "
                f"stored at {self.start}:{self.stop}"
            )
        first, lead = divmod(start - self.start + self.shift, 8)
        covered = np.unpackbits(self.bits[first : first + (lead + stop - start + 7) // 8])
        return np.packbits(covered[lead : lead + stop - start])


class SegmentAllocation(Dict[Tuple[MPathSet, Edge], Tuple[int, int]]):
    """(record set, edge) -> the (start, stop) bit offsets of that record's
    relay segment in the edge's pool.

    ``runs`` maps every edge to the run of its pool to store, as (bit,
    words, start, stop): pool bits ``start:stop``, from the end of its own
    share to its last relay stop, begin at bit ``bit`` of the stream and
    take ``words`` raw 64-bit words.  ``key_bits`` maps every routed pair
    to the length of its key in bits.
    """

    runs: Dict[Edge, Tuple[int, int, int, int]]
    key_bits: Counter[Edge]


@dataclass(frozen=True)
class PairKey:
    """Final key of one node pair and whether both endpoints computed it."""

    packed: np.ndarray  # the key bits eight to a byte, first bit highest, pad bits zero
    length: int  # in bits
    agreed: bool

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


@dataclass(frozen=True)
class CompromiseReport:
    """Which routed keys a set of corrupt nodes can reconstruct."""

    compromised: FrozenSet[NodeId]
    pair_status: Mapping[Edge, str]
    leaked_bits: Mapping[Edge, int]
    bound: Optional[float] = None


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


def _refuse_beyond_memory(allocation: SegmentAllocation, tau: Decimal) -> None:
    """CapacityError when the stored runs, a byte per word, or they plus the
    packed pair keys would not fit in physical memory."""
    needed = sum(words for _, words, _, _ in allocation.runs.values())
    key_bytes = sum((bits + 7) // 8 for bits in allocation.key_bits.values())
    memory = _physical_memory()
    for what, extra in (("key pools", 0), ("key pools and pair keys", key_bytes)):
        if needed + extra > memory:
            raise CapacityError(
                f"{what} of {needed + extra} bytes at tau {tau} s exceed the "
                f"{memory} bytes of physical memory"
            )


def accumulate_pools(
    runs: Mapping[Edge, Tuple[int, int, int, int]],
    lengths: Mapping[Edge, int],
    seed: int,
) -> Dict[Edge, KeyPool]:
    """Draw the stored run of each edge's pool of ``lengths[edge]`` bits
    from a seeded generator.

    ``runs`` gives each run as ``SegmentAllocation.runs`` does: pool bits
    ``start:stop`` from bit ``bit`` of the stream the module docstring sets
    out, in ``words`` raw words.  Each run is drawn on its own: the
    generator jumps to the run's first 64-bit word, draws its words in
    steps of ``_STEP_WORDS`` and keeps the top bit of every byte, packed and
    read-only.  A run of no words stores no byte.  The same runs and seed
    always give identical key material.
    """
    generator = np.random.default_rng(seed).bit_generator
    origin = generator.state
    pools: Dict[Edge, KeyPool] = {}
    for edge, (bit, words, start, stop) in runs.items():
        generator.state = origin
        generator.advance(bit // 8)
        run = np.empty(words, dtype=np.uint8)
        for step in range(0, words, _STEP_WORDS):
            run[step : step + _STEP_WORDS] = _top_bits(
                generator.random_raw(min(_STEP_WORDS, words - step))
            )
        run.flags.writeable = False
        pools[edge] = KeyPool(run, lengths[edge], bit % 8, start, stop)
    return pools


def allocate_segments(
    lengths: Mapping[Edge, int],
    routing_list: RoutingList,
    graph: NetworkGraph,
    tau: Decimal,
) -> SegmentAllocation:
    """Carve every pool, ``lengths[edge]`` bits long, into its own share
    plus relay segments.

    Returns a map from (record set, edge) to the ``(start, stop)`` bit
    offsets of that record's relay segment in the edge's pool, with each
    edge's stored run in ``runs`` and each pair's key length in
    ``key_bits``.  An edge's own share, its effective rate
    ``routing_list.effective``, sits at the pool front.  Segment lengths are
    floor(rate * tau) bits.  Records are laid out in canonical order, so all
    parties compute the same offsets independently.  The pools lie in the
    stream in the order of ``lengths``.

    Raises:
        CapacityError: when an edge pool cannot hold its own share plus
            every relay segment routed across it, or when the edge's
            effective rate went negative (over-subscription with the guard
            disabled).
    """
    scale = graph.scale
    effective = routing_list.effective(graph)
    shares: Dict[Edge, int] = {}
    for edge, size in lengths.items():
        rate = int(effective[edge[0], edge[1]])
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
        shares[edge] = length
    cursors = dict(shares)
    allocation = SegmentAllocation()
    allocation.key_bits = Counter()
    for record in routing_list.records():
        length = scale.bit_count(record.rate, tau)
        allocation.key_bits[record.pair] += length
        for path in record.path_set.paths:
            for edge in path.edges:
                if edge not in lengths:
                    raise CapacityError(
                        f"routing record traverses ({edge[0]}, {edge[1]}), "
                        "which is not an edge of the network"
                    )
                start = cursors[edge]
                if start + length > lengths[edge]:
                    raise CapacityError(
                        f"edge ({edge[0]}, {edge[1]}) pool of "
                        f"{lengths[edge]} bits exhausted while allocating "
                        f"relay segments"
                    )
                stop = start + length
                allocation[record.path_set, edge] = (start, stop)
                cursors[edge] = stop
    allocation.runs = {}
    offset = 0  # the pool's first bit in the stream
    for edge, length in lengths.items():
        start, stop = shares[edge], cursors[edge]
        bit = offset + start
        words = (bit + stop - start + 7) // 8 - bit // 8 if stop > start else 0
        allocation.runs[edge] = (bit, words, start, stop)
        offset += 4 * ((length + 3) // 4)
    return allocation


def relay_path_key(
    pools: Mapping[Edge, KeyPool],
    allocation: SegmentAllocation,
    path_set: MPathSet,
    path: Path,
) -> Tuple[np.ndarray, np.ndarray, Tuple[np.ndarray, ...]]:
    """Deliver one member-path key to both endpoints, in packed bytes.

    Returns:
        The path key as known at the smaller endpoint (its first-link
        segment), the key as recovered at the larger endpoint from its
        last-link segment plus the public messages, and the messages
        themselves: ``messages[t]`` is the XOR published by the path's
        (t+1)-th node, its incoming-link segment XOR its outgoing-link
        segment (none for a direct two-node path).
    """
    segments = [
        pools[edge].segment(*allocation[path_set, edge]) for edge in path.edges
    ]
    messages = tuple(map(np.bitwise_xor, segments[:-1], segments[1:]))
    key_at_i = segments[0]
    key_at_j = segments[-1]
    for message in reversed(messages):
        key_at_j = np.bitwise_xor(key_at_j, message)
    return key_at_i, key_at_j, messages


def assemble_pair_keys(
    routing_list: RoutingList,
    pools: Mapping[Edge, KeyPool],
    allocation: SegmentAllocation,
) -> Dict[Edge, PairKey]:
    """Relay every record and concatenate its XOR blocks into each pair's key.

    Each record's block is folded independently at both endpoints, one from
    first-link segments and one from message-recovered keys, and the two
    views are compared; ``agreed`` holds when they match for every record of
    the pair.  Only the first endpoint's block is kept: it is written at its
    bit offset into the pair's packed key, allocated up front.
    """
    lengths = allocation.key_bits
    keys = {pair: np.zeros((length + 7) // 8, dtype=np.uint8) for pair, length in lengths.items()}
    written: Counter[Edge] = Counter()
    agreed: Dict[Edge, bool] = {}
    for record in routing_list.records():
        block_i: Optional[np.ndarray] = None
        block_j: Optional[np.ndarray] = None
        for path in record.path_set.paths:
            key_i, key_j, _ = relay_path_key(pools, allocation, record.path_set, path)
            block_i = key_i if block_i is None else np.bitwise_xor(block_i, key_i)
            block_j = key_j if block_j is None else np.bitwise_xor(block_j, key_j)
        pair = record.pair
        start, stop = allocation[record.path_set, record.path_set.paths[0].edges[0]]
        _write_block(keys[pair], written[pair], block_i)
        written[pair] += stop - start
        agreed[pair] = agreed.get(pair, True) and block_i.tobytes() == block_j.tobytes()
    return {pair: PairKey(keys[pair], lengths[pair], agreed[pair]) for pair in sorted(keys)}


def _write_block(key: np.ndarray, offset: int, block: np.ndarray) -> None:
    """OR the packed ``block`` into the packed ``key`` from bit ``offset``
    on, where the key's bits are still zero."""
    first, shift = divmod(offset, 8)
    key[first : first + len(block)] |= block >> shift
    spill = key[first + 1 : first + 1 + len(block)]
    spill |= (block << (8 - shift))[: len(spill)]


@dataclass(frozen=True)
class KeySimulation:
    """Everything produced by one end-to-end key delivery simulation."""

    graph: NetworkGraph
    routing_list: RoutingList
    tau: Decimal
    seed: int
    pools: Mapping[Edge, KeyPool]
    allocation: SegmentAllocation
    pair_keys: Mapping[Edge, PairKey]

    def record_block(self, path_set: MPathSet) -> np.ndarray:
        """True XOR block a record contributes to its pair key, one byte per
        bit."""
        block: Optional[np.ndarray] = None
        for path in path_set.paths:
            start, stop = self.allocation[path_set, path.edges[0]]
            seg = self.pools[path.edges[0]].segment(start, stop)
            block = seg if block is None else np.bitwise_xor(block, seg)
        assert block is not None
        return np.unpackbits(block, count=stop - start)


def simulate(
    graph: NetworkGraph,
    routing_list: RoutingList,
    tau: object,
    seed: int = 0,
) -> KeySimulation:
    """Lay the segments out once, then draw the relayed runs of the pools,
    relay and assemble, end to end.

    Raises:
        ValueError: when tau is not positive.
        CapacityError: when the segments do not fit in the pools, or when
            the stored runs, or they plus the packed pair keys, would not
            fit in physical memory; this is checked before anything is
            drawn.
    """
    tau = as_decimal(tau, "tau")
    lengths = _pool_lengths(graph, tau)
    allocation = allocate_segments(lengths, routing_list, graph, tau)
    _refuse_beyond_memory(allocation, tau)
    pools = accumulate_pools(allocation.runs, lengths, seed)
    pair_keys = assemble_pair_keys(routing_list, pools, allocation)
    return KeySimulation(
        graph=graph,
        routing_list=routing_list,
        tau=tau,
        seed=seed,
        pools=pools,
        allocation=allocation,
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
    it recovers the first-link segment by telescoping messages up to any
    compromised interior node; if some path has no compromised interior,
    there is nothing to anchor on and reconstruction fails.

    Returns:
        The key block, one byte per bit, or None when reconstruction is
        impossible.
    """
    corrupt = frozenset(compromised)
    block: Optional[np.ndarray] = None
    for path in path_set.paths:
        interior = path.nodes[1:-1]
        anchor = next((t for t, node in enumerate(interior, 1) if node in corrupt), None)
        if anchor is None:
            return None
        # segment on the link arriving at the anchor node, read from the
        # pool the adversary owns through that node
        arriving = path.edges[anchor - 1]
        start, stop = sim.allocation[path_set, arriving]
        first = sim.pools[arriving].segment(start, stop)
        _, _, messages = relay_path_key(sim.pools, sim.allocation, path_set, path)
        for m_index in range(anchor - 1):
            first = np.bitwise_xor(first, messages[m_index])
        block = first if block is None else np.bitwise_xor(block, first)
    assert block is not None
    return np.unpackbits(block, count=stop - start)


def assess_compromise(
    sim: KeySimulation,
    compromised: Iterable[NodeId],
    epsilon: Optional[object] = None,
) -> CompromiseReport:
    """Classify every routed pair under a set of compromised nodes.

    The structural rule (a record leaks iff every member path has a corrupt
    interior node) is cross-checked against the constructive adversary
    reconstruction; divergence would mean the relay scheme leaks more or
    less than designed, so it raises rather than reporting.
    """
    corrupt = frozenset(compromised)
    outside = sorted(n for n in corrupt if not 0 <= n < sim.graph.node_count)
    if outside:
        raise ValueError(f"compromised nodes {outside} are not in the network")
    # checked whatever the records, though without records there is no bound
    eps = None if epsilon is None else _epsilon(epsilon)
    leaked_by_pair: Dict[Edge, int] = {}
    status: Dict[Edge, str] = {}
    for record in sim.routing_list.records():
        leaked = record_is_leaked(record.path_set, corrupt)
        rebuilt = adversary_reconstruct(sim, record.path_set, corrupt)
        if leaked != (rebuilt is not None):
            raise AssertionError(
                "structural leak rule disagrees with adversary reconstruction"
            )
        if rebuilt is not None and not np.array_equal(
            rebuilt, sim.record_block(record.path_set)
        ):
            raise AssertionError("adversary reconstructed an incorrect block")
        pair = record.pair
        leaked_by_pair[pair] = leaked_by_pair.get(pair, 0) + (
            len(rebuilt) if leaked else 0
        )
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
