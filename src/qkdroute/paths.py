"""Simple-path enumeration, internally disjoint path-set construction, and
the max-flow test of which pairs have such a set.

Route candidates for a node pair are sets of M simple paths that share no
interior node, so compromising the routed key requires at least one corrupt
relay on every member path.  Everything here is deterministic: paths are
oriented from the smaller endpoint and emitted in lexicographic order, which
downstream tie-breaking relies on.  Whether a pair has any such set at all is
a max-flow question (Menger's theorem), which ``find_unroutable_pairs``
answers without enumerating paths unless a hop limit asks it to confirm.

Two private kernels do the enumerating, on plain tuples: ``_node_paths``
lists the simple paths as node tuples, and ``_disjoint_rows`` yields the
disjoint sets as tuples of path indices.  Every command enumerates through
them: the engine's candidate table, which ``route`` ranks and ``paths``
lists, and the hop-limited confirmation here, which stops at the first
set.  ``enumerate_simple_paths``, ``enumerate_m_path_sets``,
``set_deficiency`` and ``PairPathCache`` wrap them in ``Path`` and
``MPathSet`` objects for the benchmark's tracer alone.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .model import Edge, NetworkGraph, NodeId, RateMatrix, canonical_edge

@dataclass(frozen=True)
class Path:
    """A simple path, stored from its smaller endpoint.

    A path and its reverse are the same object for routing purposes, so the
    constructor normalizes orientation and equality follows from ``nodes``.
    """

    nodes: Tuple[NodeId, ...]

    def __post_init__(self) -> None:
        nodes = tuple(self.nodes)
        if len(nodes) < 2:
            raise ValueError("a path needs at least two nodes")
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"path revisits a node: {nodes}")
        if nodes[0] > nodes[-1]:
            nodes = nodes[::-1]
        object.__setattr__(self, "nodes", nodes)

    @property
    def endpoints(self) -> Edge:
        return (self.nodes[0], self.nodes[-1])

    @property
    def hops(self) -> int:
        return len(self.nodes) - 1

    @cached_property
    def interior(self) -> FrozenSet[NodeId]:
        return frozenset(self.nodes[1:-1])

    @cached_property
    def edges(self) -> Tuple[Edge, ...]:
        return tuple(canonical_edge(u, v) for u, v in zip(self.nodes, self.nodes[1:]))

    def __str__(self) -> str:
        return "(" + ", ".join(str(n) for n in self.nodes) + ")"


@dataclass(frozen=True)
class MPathSet:
    """A set of internally disjoint simple paths between one node pair.

    Canonical form: members sorted lexicographically by node sequence, so
    equal sets compare and hash equal regardless of construction order.  The
    hash is computed once, from ``sort_key()``, and kept.
    """

    paths: Tuple[Path, ...]

    def __post_init__(self) -> None:
        paths = tuple(sorted(self.paths, key=lambda p: p.nodes))
        if not paths:
            raise ValueError("a path set needs at least one path")
        endpoints = paths[0].endpoints
        if any(p.endpoints != endpoints for p in paths):
            raise ValueError("all member paths must share the same endpoints")
        if len(set(paths)) != len(paths):
            raise ValueError("duplicate member path")
        for a, b in itertools.combinations(paths, 2):
            if a.interior & b.interior:
                raise ValueError(f"paths {a} and {b} share interior node(s)")
        object.__setattr__(self, "paths", paths)

    @classmethod
    def _disjoint(cls, paths: Tuple[Path, ...]) -> "MPathSet":
        """Wrap paths already sorted, same-ended and disjoint, skipping the checks."""
        path_set = object.__new__(cls)
        object.__setattr__(path_set, "paths", paths)
        return path_set

    @property
    def endpoints(self) -> Edge:
        return self.paths[0].endpoints

    @property
    def m(self) -> int:
        return len(self.paths)

    @property
    def total_hops(self) -> int:
        return sum(p.hops for p in self.paths)

    @property
    def edges(self) -> Tuple[Edge, ...]:
        return tuple(e for p in self.paths for e in p.edges)

    def sort_key(self) -> Tuple[Tuple[NodeId, ...], ...]:
        return tuple(p.nodes for p in self.paths)

    @cached_property
    def _hash(self) -> int:
        return hash(self.sort_key())

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return "{" + ", ".join(str(p) for p in self.paths) + "}"


def _check_hop_limit(hop_limit: Optional[int]) -> None:
    if hop_limit is not None and hop_limit < 1:
        raise ValueError(f"hop_limit must be at least 1, got {hop_limit}")


def _node_paths(
    graph: NetworkGraph, i: NodeId, j: NodeId, hop_limit: Optional[int]
) -> List[Tuple[NodeId, ...]]:
    """Every simple path between i and j as a node tuple from min(i, j),
    lexicographic, each of at most ``hop_limit`` hops when one is given."""
    if i == j:
        raise ValueError("path endpoints must differ")
    for node in (i, j):
        if not (0 <= node < graph.node_count):
            raise ValueError(f"node {node} is not in the graph")
    _check_hop_limit(hop_limit)
    start, goal = (i, j) if i < j else (j, i)
    # a trail never holds the goal, so it is shorter than node_count
    limit = graph.node_count if hop_limit is None else hop_limit
    neighbors = graph.neighbors
    found: List[Tuple[NodeId, ...]] = []
    visited = [False] * graph.node_count
    visited[start] = True
    trail = [start]
    # stack[t]: the neighbours of trail[t] not tried yet; a node gets one only
    # while a path through it may still take another hop
    stack = [iter(neighbors(start))]
    while stack:
        for w in stack[-1]:
            if w == goal:
                found.append((*trail, w))
            elif not visited[w] and len(trail) < limit:
                visited[w] = True
                trail.append(w)
                stack.append(iter(neighbors(w)))
                break
        else:
            stack.pop()
            visited[trail.pop()] = False
    return found


# no command calls this; perfbench/tracer.py wraps it by name
def enumerate_simple_paths(
    graph: NetworkGraph,
    i: NodeId,
    j: NodeId,
    hop_limit: Optional[int] = None,
) -> Tuple[Path, ...]:
    """The paths of ``_node_paths`` as ``Path`` objects, in its order."""
    return tuple(map(Path, _node_paths(graph, i, j, hop_limit)))


def _disjoint_rows(
    interiors: Sequence[Sequence[NodeId]], m: int
) -> Iterator[Tuple[int, ...]]:
    """Yield every size-m set of pairwise disjoint ``interiors``, as a tuple
    of increasing indices, in ``itertools.combinations`` order.

    Only disjoint prefixes are extended, so the work follows the sets found
    rather than every m-combination, and a caller that stops early stops
    the search.
    """
    # conflicts[k]: bitmask over the indices of the interiors that share a
    # node with interior k
    holders: Dict[NodeId, int] = {}
    for k, interior in enumerate(interiors):
        for v in interior:
            holders[v] = holders.get(v, 0) | (1 << k)
    conflicts = [
        reduce(or_, map(holders.__getitem__, interior), 0)
        for interior in interiors
    ]
    # each entry: a prefix and the bitmask of the later interiors disjoint
    # from every member of it; taking them lowest index first, and a longer
    # prefix before the rest of its parent's options, keeps combinations order
    stack: List[Tuple[Tuple[int, ...], int]] = [((), (1 << len(interiors)) - 1)]
    while stack:
        prefix, options = stack.pop()
        while options:
            low = options & -options
            options ^= low
            k = low.bit_length() - 1
            if len(prefix) == m - 1:
                yield prefix + (k,)
            else:
                stack.append((prefix, options))
                stack.append((prefix + (k,), options & ~conflicts[k]))
                break


# no command calls this; perfbench/tracer.py wraps it by name
def enumerate_m_path_sets(paths: Sequence[Path], m: int) -> Tuple[MPathSet, ...]:
    """All size-m subsets of ``paths`` that are pairwise internally disjoint.

    Input paths must share endpoints.  Output order is lexicographic in the
    member node sequences, which is the canonical candidate order used for
    seeded tie-breaking.
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    paths = sorted(paths, key=lambda p: p.nodes)
    if paths:
        endpoints = paths[0].endpoints
        if any(p.endpoints != endpoints for p in paths):
            raise ValueError("all paths must share the same endpoints")
        if len(set(paths)) != len(paths):
            raise ValueError("duplicate path")
    return tuple(
        MPathSet._disjoint(tuple(map(paths.__getitem__, row)))
        for row in _disjoint_rows([p.nodes[1:-1] for p in paths], m)
    )


# no command calls this; perfbench/tracer.py wraps it by name
def set_deficiency(path_set: MPathSet, deficiency: RateMatrix) -> int:
    """Worst (largest) pair deficiency over every edge of every member path."""
    return max(int(deficiency[u, v]) for u, v in path_set.edges)


# no command uses this; perfbench/tracer.py wraps its method by name
class PairPathCache:
    """A memo of path-set enumerations, keyed by node pair.  Not
    thread-safe; each caller owns its own instance."""

    def __init__(self, graph: NetworkGraph, m: int, hop_limit: Optional[int] = None):
        self._graph = graph
        self._m = m
        self._hop_limit = hop_limit
        self._sets: Dict[Edge, Tuple[MPathSet, ...]] = {}

    def m_path_sets(self, pair: Edge) -> Tuple[MPathSet, ...]:
        key = canonical_edge(*pair)
        if key not in self._sets:
            paths = enumerate_simple_paths(self._graph, *key, self._hop_limit)
            self._sets[key] = enumerate_m_path_sets(paths, self._m)
        return self._sets[key]


def find_unroutable_pairs(
    graph: NetworkGraph, m: int, hop_limit: Optional[int] = None
) -> Tuple[Edge, ...]:
    """Remote pairs for which no set of m internally disjoint paths exists.

    Each pair is decided by a unit-capacity max-flow (Menger's theorem): node
    v splits into v_in -> v_out, capacity 1 on interior nodes and m on the
    two endpoints, and every edge becomes two arcs of capacity 1.  Breadth-
    first augmenting paths stop once m units pass.  A remote pair has no
    direct link, so without a hop limit flow >= m is exactly "an m-set
    exists".  With one, flow >= m is only necessary, so each pair that
    passes is confirmed by finding one hop-bounded set, the first the
    kernels yield.
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    _check_hop_limit(hop_limit)
    n = graph.node_count
    # node v splits into vertices 2v (v_in) and 2v + 1 (v_out).  Arc 2k runs
    # along ends[k] and arc 2k + 1 is its residual twin, so arc a's twin is
    # a ^ 1 and arc 2v is node v's own v_in -> v_out.
    ends = [(2 * v, 2 * v + 1) for v in range(n)]
    for u, w in graph.edges:
        ends += [(2 * u + 1, 2 * w), (2 * w + 1, 2 * u)]
    head: list[int] = []
    arcs_from: list[list[int]] = [[] for _ in range(2 * n)]
    for k, (tail, tip) in enumerate(ends):
        arcs_from[tail].append(2 * k)
        arcs_from[tip].append(2 * k + 1)
        head += [tip, tail]
    unit_caps = [1, 0] * len(ends)
    unroutable = []
    for i, j in graph.remote_pairs():
        cap = unit_caps[:]
        cap[2 * i] = cap[2 * j] = m
        source, sink = 2 * i, 2 * j + 1
        flow = 0
        while flow < m:
            via = [-1] * (2 * n)  # the arc each vertex was first reached by
            via[source] = 0  # marks the source reached; never followed back
            queue = deque([source])
            while queue and via[sink] < 0:
                x = queue.popleft()
                for a in arcs_from[x]:
                    y = head[a]
                    if cap[a] and via[y] < 0:
                        via[y] = a
                        queue.append(y)
            if via[sink] < 0:
                break
            y = sink
            while y != source:
                a = via[y]
                cap[a] -= 1
                cap[a ^ 1] += 1
                y = head[a ^ 1]
            flow += 1
        if flow < m or (
            hop_limit is not None
            and next(_disjoint_rows([p[1:-1] for p in _node_paths(graph, i, j, hop_limit)], m),
                     None) is None
        ):
            unroutable.append((i, j))
    return tuple(unroutable)
