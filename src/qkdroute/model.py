"""Network topology, rate matrices and structural validation.

A network is an undirected graph whose edges carry secret-key generation
rates, plus a target rate for every node pair.  Rates are integers in the
units fixed by the graph's :class:`~qkdroute.units.UnitScale`.  Both ends of
a pair hold the same key, so a rate belongs to the unordered pair: a
:class:`RateMatrix` stores one immutable cell per pair i < j, at the pair's
``pair_position``, and reads as a symmetric matrix with a zero diagonal.
This module is the one place that lays the pairs out.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from collections import deque
from typing import Iterable, List, Mapping, NamedTuple, Optional, Tuple

from .units import Frozen, UnitScale

NodeId = int
Edge = Tuple[NodeId, NodeId]


class ValidationError(ValueError):
    """A structurally invalid network or configuration."""


class CapacityError(RuntimeError):
    """An edge pool is too short for the segments routed across it, or the
    pools are too large for the machine's memory."""


def canonical_edge(u: NodeId, v: NodeId) -> Edge:
    return (u, v) if u <= v else (v, u)


@functools.lru_cache(maxsize=4)
def _pairs(n: int) -> Tuple[Edge, ...]:
    """The node pairs i < j in row order."""
    return tuple(itertools.combinations(range(n), 2))


def pair_position(i: int, j: int, n: int) -> int:
    """Where the pair i < j sits among ``_pairs(n)``."""
    return i * (2 * n - i - 1) // 2 + j - i - 1


class RateMatrix(Frozen):
    """An immutable symmetric n x n matrix of Python ints with a zero
    diagonal, read as ``m[u, v]``.

    ``cells`` holds one value per node pair i < j in row order, the pair
    (i, j) at ``pair_position(i, j, n)``; any iterable of n(n - 1)/2 ints is
    stored as a tuple.  ``m[v, u]`` reads the cell of (u, v) and
    ``m[u, u]`` is 0.  Sums of its cells never wrap around.
    """

    __slots__ = ("n", "cells")

    def __init__(self, n: int, cells: Iterable[int]) -> None:
        cells = tuple(cells)
        if len(cells) != n * (n - 1) // 2:
            raise ValueError(f"{len(cells)} cells do not hold the pairs of {n} nodes")
        self._set(n, cells)

    def __getitem__(self, index: Tuple[int, int]) -> int:
        u, v = index
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise IndexError(f"({u}, {v}) is outside a {self.n} x {self.n} matrix")
        if u == v:
            return 0
        return self.cells[pair_position(*canonical_edge(u, v), self.n)]

    def tolist(self) -> List[List[int]]:
        """The full n x n rows, both halves and the zero diagonal."""
        rows = [[0] * self.n for _ in range(self.n)]
        for (u, v), value in zip(_pairs(self.n), self.cells):
            rows[u][v] = rows[v][u] = value
        return rows


class NetworkGraph(Frozen):
    """Undirected graph with per-edge key rates.

    ``rates`` maps canonical edges (u < v) to positive integer rate units.
    Instances are treated as immutable after construction.
    """

    __slots__ = ("node_count", "rates", "scale", "_adjacency")

    def __init__(self, node_count: int, rates: Mapping[Edge, int],
                 scale: UnitScale = UnitScale()) -> None:
        if node_count < 2:
            raise ValidationError(f"need at least 2 nodes, got {node_count}")
        clean: dict[Edge, int] = {}
        adj: dict[NodeId, list[NodeId]] = {u: [] for u in range(node_count)}
        for (u, v), rate in rates.items():
            if u == v:
                raise ValidationError(f"self-loop on node {u}")
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise ValidationError(f"edge ({u}, {v}) references an unknown node")
            key = canonical_edge(u, v)
            if key in clean:
                raise ValidationError(f"duplicate edge ({key[0]}, {key[1]})")
            if not isinstance(rate, numbers.Integral) or isinstance(rate, bool):
                raise ValidationError(f"rate for edge {key} must be an integer unit count")
            if rate <= 0:
                raise ValidationError(f"rate for edge {key} must be positive, got {rate}")
            clean[key] = int(rate)
            adj[key[0]].append(key[1])
            adj[key[1]].append(key[0])
        if not clean:
            raise ValidationError("network has no edges")
        self._set(node_count, clean, scale, {u: tuple(sorted(ws)) for u, ws in adj.items()})

    @property
    def edges(self) -> Tuple[Edge, ...]:
        return tuple(sorted(self.rates))

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return canonical_edge(u, v) in self.rates

    def rate(self, u: NodeId, v: NodeId) -> int:
        """Rate units on edge (u, v); 0 for node pairs with no direct link."""
        return self.rates.get(canonical_edge(u, v), 0)

    def neighbors(self, u: NodeId) -> Tuple[NodeId, ...]:
        return self._adjacency[u]

    def degree(self, u: NodeId) -> int:
        return len(self.neighbors(u))

    def rate_matrix(self) -> RateMatrix:
        """Symmetric matrix of edge rates, zero where no edge exists."""
        n = self.node_count
        return RateMatrix(n, (self.rates.get(pair, 0) for pair in _pairs(n)))

    def is_connected(self) -> bool:
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for w in self.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == self.node_count

    def remote_pairs(self) -> Tuple[Edge, ...]:
        """All unordered node pairs without a direct link."""
        return tuple(pair for pair in _pairs(self.node_count) if pair not in self.rates)


def uniform_target(node_count: int, units: int) -> RateMatrix:
    """Target matrix demanding the same rate for every distinct pair."""
    if units < 0:
        raise ValidationError(f"target must be non-negative, got {units}")
    return RateMatrix(node_count, [int(units)] * (node_count * (node_count - 1) // 2))


def check_target_matrix(target: RateMatrix, node_count: int) -> None:
    if target.n != node_count:
        raise ValidationError(
            f"target matrix must be {node_count}x{node_count}, got {target.n}x{target.n}"
        )
    if min(target.cells) < 0:
        raise ValidationError("target rates must be non-negative")


class ValidationReport(NamedTuple):
    """Structural fitness of a network for routing with M disjoint paths."""

    min_degree: int
    degree_violations: Tuple[NodeId, ...]
    connected: bool

    @property
    def ok(self) -> bool:
        return self.connected and not self.degree_violations


def validate(graph: NetworkGraph, m: int) -> ValidationReport:
    """Check degree and connectivity prerequisites for M-path routing.

    Every node needs degree >= m for m internally disjoint paths to pass
    through (or originate at) it.

    Args:
        graph: the network to inspect.
        m: number of disjoint paths per route set, at least 1.
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    degrees = [graph.degree(u) for u in range(graph.node_count)]
    violations = tuple(u for u, d in enumerate(degrees) if d < m)
    return ValidationReport(
        min_degree=min(degrees),
        degree_violations=violations,
        connected=graph.is_connected(),
    )


class RouterConfig(Frozen):
    """Parameters of one routing run.

    ``delta_r`` is the per-iteration rate step in integer units; it must be
    set (and positive) before a run starts.  ``r_max`` and ``hop_limit`` are
    unbounded when None.
    """

    __slots__ = ("m", "delta_r", "r_max", "seed", "hop_limit", "strict_guard")

    def __init__(self, m: int = 2, delta_r: Optional[int] = None,
                 r_max: Optional[int] = None, seed: int = 0,
                 hop_limit: Optional[int] = None, strict_guard: bool = True) -> None:
        if m < 1:
            raise ValidationError(f"m must be at least 1, got {m}")
        if delta_r is not None and delta_r <= 0:
            raise ValidationError(f"delta_r must be positive, got {delta_r}")
        if r_max is not None and r_max < 0:
            raise ValidationError(f"r_max must be non-negative, got {r_max}")
        if hop_limit is not None and hop_limit < 1:
            raise ValidationError(f"hop_limit must be at least 1, got {hop_limit}")
        if not (0 <= seed < 2**64):
            raise ValidationError("seed must fit in 64 bits")
        self._set(m, delta_r, r_max, seed, hop_limit, strict_guard)

    def replace(self, **changes: object) -> RouterConfig:
        """This config with ``changes`` made, built and checked as a new one."""
        return RouterConfig(**{**self._fields(), **changes})  # type: ignore[arg-type]
