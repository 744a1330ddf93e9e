"""Bit-level simulation of key delivery over routed path sets.

Every edge accumulates a pool of secret bits for a harvest window of tau
seconds.  The front of each pool is carved into segments: first the slice the
edge keeps for its own endpoints, then one relay segment per routing record
that traverses the edge, in canonical record order.  Both endpoints of an
edge hold the same pool, so they carve identical segments without talking.

A record's key on one member path is the segment on the path's first link.
Each interior node publishes the XOR of the segments on its two adjacent
links; the far endpoint recovers the first-link segment by folding those
messages into the last-link segment it holds.  The key block a record
contributes to its pair is the XOR of all M member-path keys, so an
eavesdropper needs a corrupt interior node on every member path to learn
anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from .engine import RoutingList, RoutingRecord
from .model import Edge, NetworkGraph, NodeId, canonical_edge
from .paths import MPathSet, Path
from .units import UnitScale, as_decimal


class CapacityError(RuntimeError):
    """An edge pool is too short for the segments routed across it."""


@dataclass(frozen=True)
class KeyPool:
    """The shared secret-bit pool of one edge over the harvest window."""

    edge: Edge
    bits: np.ndarray  # uint8 values in {0, 1}, read-only

    def __len__(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class Segment:
    start: int
    length: int

    @property
    def stop(self) -> int:
        return self.start + self.length


@dataclass(frozen=True)
class SegmentAllocation:
    """Where every segment lives inside each edge pool.

    ``effective`` holds the slice each edge keeps for its own endpoints
    (always at the pool front); ``relay`` maps (record set, edge) to the
    relay segment carved for that record on that edge.
    """

    effective: Mapping[Edge, Segment]
    relay: Mapping[Tuple[MPathSet, Edge], Segment]

    def relay_bits(
        self, pools: Mapping[Edge, KeyPool], path_set: MPathSet, edge: Edge
    ) -> np.ndarray:
        seg = self.relay[(path_set, canonical_edge(*edge))]
        return pools[canonical_edge(*edge)].bits[seg.start : seg.stop]


@dataclass(frozen=True)
class PairKey:
    """Final key of one node pair and whether both endpoints computed it."""

    bits: np.ndarray
    agreed: bool


SECURE = "secure"
PARTIALLY_LEAKED = "partially_leaked"
FULLY_LEAKED = "fully_leaked"


@dataclass(frozen=True)
class RecordCompromise:
    record: RoutingRecord
    leaked: bool


@dataclass(frozen=True)
class CompromiseReport:
    """Which routed keys a set of corrupt nodes can reconstruct."""

    compromised: FrozenSet[NodeId]
    records: Tuple[RecordCompromise, ...]
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
    eps = as_decimal(epsilon, "epsilon")
    if not (0 <= eps <= 1):
        raise ValueError(f"epsilon must lie in [0, 1], got {eps}")
    return float(eps**m)


def accumulate_pools(
    graph: NetworkGraph, tau: Decimal, seed: int
) -> Dict[Edge, KeyPool]:
    """Draw each edge's pool of R_ij * tau bits from a seeded generator.

    Pools are drawn in canonical edge order so a (graph, tau, seed) triple
    always produces identical key material.
    """
    tau = as_decimal(tau, "tau")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    rng = np.random.default_rng(seed)
    pools: Dict[Edge, KeyPool] = {}
    for edge in graph.edges:
        length = graph.scale.bit_count(graph.rate(*edge), tau)
        bits = rng.integers(0, 2, size=length, dtype=np.uint8)
        bits.flags.writeable = False
        pools[edge] = KeyPool(edge, bits)
    return pools


def allocate_segments(
    pools: Mapping[Edge, KeyPool],
    routing_list: RoutingList,
    effective: np.ndarray,
    scale: UnitScale,
    tau: Decimal,
) -> SegmentAllocation:
    """Carve every pool into an effective segment plus relay segments.

    Segment lengths are floor(rate * tau) bits.  Records are laid out in
    canonical order, so all parties compute the same offsets independently.

    Raises:
        CapacityError: when an edge pool cannot hold its effective segment
            plus every relay segment routed across it, or when the edge's
            effective rate went negative (over-subscription with the guard
            disabled).
    """
    tau = as_decimal(tau, "tau")
    cursors: Dict[Edge, int] = {}
    eff: Dict[Edge, Segment] = {}
    for edge, pool in pools.items():
        rate = int(effective[edge[0], edge[1]])
        if rate < 0:
            raise CapacityError(
                f"edge ({edge[0]}, {edge[1]}) is over-subscribed: "
                f"effective rate {rate} is negative"
            )
        length = scale.bit_count(rate, tau)
        if length > len(pool):
            raise CapacityError(
                f"edge ({edge[0]}, {edge[1]}) pool of {len(pool)} bits cannot "
                f"hold its {length}-bit effective segment"
            )
        eff[edge] = Segment(0, length)
        cursors[edge] = length
    relay: Dict[Tuple[MPathSet, Edge], Segment] = {}
    for record in routing_list.records():
        length = scale.bit_count(record.rate, tau)
        for path in record.path_set.paths:
            for edge in path.edges:
                if edge not in pools:
                    raise CapacityError(
                        f"routing record traverses ({edge[0]}, {edge[1]}), "
                        "which is not an edge of the network"
                    )
                start = cursors[edge]
                if start + length > len(pools[edge]):
                    raise CapacityError(
                        f"edge ({edge[0]}, {edge[1]}) pool of "
                        f"{len(pools[edge])} bits exhausted while allocating "
                        f"relay segments"
                    )
                relay[(record.path_set, edge)] = Segment(start, length)
                cursors[edge] = start + length
    return SegmentAllocation(effective=eff, relay=relay)


def relay_path_key(
    pools: Mapping[Edge, KeyPool],
    allocation: SegmentAllocation,
    path_set: MPathSet,
    path: Path,
) -> Tuple[np.ndarray, np.ndarray, Tuple[np.ndarray, ...]]:
    """Deliver one member-path key to both endpoints.

    Returns:
        The path key as known at the smaller endpoint (its first-link
        segment), the key as recovered at the larger endpoint from its
        last-link segment plus the public messages, and the messages
        themselves: ``messages[t]`` is the XOR published by the path's
        (t+1)-th node, its incoming-link segment XOR its outgoing-link
        segment (none for a direct two-node path).
    """
    segments = [
        allocation.relay_bits(pools, path_set, edge) for edge in path.edges
    ]
    messages = tuple(
        np.bitwise_xor(segments[t - 1], segments[t])
        for t in range(1, len(segments))
    )
    key_at_i = segments[0]
    key_at_j = segments[-1]
    for message in reversed(messages):
        key_at_j = np.bitwise_xor(key_at_j, message)
    return key_at_i, key_at_j, messages


def assemble_pair_keys(
    routing_list: RoutingList,
    relayed: Mapping[Tuple[MPathSet, Path], Tuple[np.ndarray, np.ndarray]],
) -> Dict[Edge, PairKey]:
    """Concatenate per-record XOR blocks into each pair's final key.

    The two endpoint views are assembled independently (one from first-link
    segments, one from message-recovered keys) and compared; ``agreed``
    records the verdict.
    """
    by_pair: Dict[Edge, List[RoutingRecord]] = {}
    for record in routing_list.records():
        by_pair.setdefault(record.pair, []).append(record)
    keys: Dict[Edge, PairKey] = {}
    for pair, records in sorted(by_pair.items()):
        i_blocks: List[np.ndarray] = []
        j_blocks: List[np.ndarray] = []
        for record in records:
            views = [relayed[(record.path_set, p)] for p in record.path_set.paths]
            block_i = views[0][0]
            block_j = views[0][1]
            for view in views[1:]:
                block_i = np.bitwise_xor(block_i, view[0])
                block_j = np.bitwise_xor(block_j, view[1])
            i_blocks.append(block_i)
            j_blocks.append(block_j)
        bits_i = np.concatenate(i_blocks)
        bits_j = np.concatenate(j_blocks)
        keys[pair] = PairKey(bits_i, bool(np.array_equal(bits_i, bits_j)))
    return keys


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
        """True XOR block a record contributes to its pair key."""
        block: Optional[np.ndarray] = None
        for path in path_set.paths:
            seg = self.allocation.relay_bits(self.pools, path_set, path.edges[0])
            block = seg if block is None else np.bitwise_xor(block, seg)
        assert block is not None
        return block


def simulate(
    graph: NetworkGraph,
    routing_list: RoutingList,
    effective: np.ndarray,
    tau: object,
    seed: int = 0,
) -> KeySimulation:
    """Run pool accumulation, allocation, relay and assembly end to end."""
    tau_dec = as_decimal(tau, "tau")
    pools = accumulate_pools(graph, tau_dec, seed)
    allocation = allocate_segments(
        pools, routing_list, effective, graph.scale, tau_dec
    )
    relayed: Dict[Tuple[MPathSet, Path], Tuple[np.ndarray, np.ndarray]] = {}
    for record in routing_list.records():
        for path in record.path_set.paths:
            key_i, key_j, _ = relay_path_key(pools, allocation, record.path_set, path)
            relayed[(record.path_set, path)] = (key_i, key_j)
    pair_keys = assemble_pair_keys(routing_list, relayed)
    return KeySimulation(
        graph=graph,
        routing_list=routing_list,
        tau=tau_dec,
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
        The key block, or None when reconstruction is impossible.
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
        arriving_edge = path.edges[anchor - 1]
        first = sim.allocation.relay_bits(sim.pools, path_set, arriving_edge)
        _, _, messages = relay_path_key(sim.pools, sim.allocation, path_set, path)
        for m_index in range(anchor - 1):
            first = np.bitwise_xor(first, messages[m_index])
        block = first if block is None else np.bitwise_xor(block, first)
    return block


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
    records: List[RecordCompromise] = []
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
        records.append(RecordCompromise(record, leaked))
        pair = record.pair
        leaked_by_pair[pair] = leaked_by_pair.get(pair, 0) + (
            len(rebuilt) if leaked else 0
        )
        verdict = FULLY_LEAKED if leaked else SECURE
        status[pair] = (
            verdict if status.get(pair, verdict) == verdict else PARTIALLY_LEAKED
        )
    bound = None
    if epsilon is not None:
        m_values = {record.path_set.m for record in sim.routing_list.records()}
        if m_values:
            bound = compromise_probability_bound(min(m_values), epsilon)
    return CompromiseReport(
        compromised=corrupt,
        records=tuple(records),
        pair_status=status,
        leaked_bits=leaked_by_pair,
        bound=bound,
    )
