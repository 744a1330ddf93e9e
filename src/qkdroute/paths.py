"""Simple-path enumeration, internally disjoint path-set construction, and
the max-flow test of which pairs have such a set.

Route candidates for a node pair are sets of M simple paths that share no
interior node, so compromising the routed key requires at least one corrupt
relay on every member path.  Everything here is deterministic: paths are
oriented from the smaller endpoint and emitted in lexicographic order, which
downstream tie-breaking relies on.  Whether a pair has any such set at all is
a max-flow question (Menger's theorem), which ``find_unroutable_pairs``
answers without enumerating paths unless a hop limit asks it to confirm.

Two private kernels do the enumerating, on plain tuples: ``_goal_paths``
lists, in one depth-first search from a start node, the simple paths to
each of a set of goals as node tuples, and ``_disjoint_rows`` yields the
disjoint sets as tuples of path indices.  Every command enumerates through
them.  ``route`` searches once per source, for all of the source's remote
goals above it, and hands each pair's list to the pair's candidate table;
``paths`` and the hop-limited confirmation here, which stops at the first
set, search for one goal through ``_pair_paths``.  ``enumerate_simple_paths``,
``enumerate_m_path_sets``, ``set_deficiency`` and ``PairPathCache`` wrap
the kernels in ``Path`` and ``MPathSet`` objects for the benchmark's tracer
alone.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import reduce
from operator import attrgetter, or_
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .model import Edge, NetworkGraph, NodeId, RateMatrix, canonical_edge
from .units import Frozen


class Path(Frozen):
    """A simple path, stored from its smaller endpoint.

    A path and its reverse are the same object for routing purposes, so the
    constructor normalizes orientation and equality follows from ``nodes``.
    The interior and the edges are worked out once, with the path.
    """

    __slots__ = ("nodes", "_interior", "_edges")

    def __init__(self, nodes: Iterable[NodeId]) -> None:
        nodes = tuple(nodes)
        if len(nodes) < 2:
            raise ValueError("a path needs at least two nodes")
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"path revisits a node: {nodes}")
        if nodes[0] > nodes[-1]:
            nodes = nodes[::-1]
        edges = tuple(map(canonical_edge, nodes, nodes[1:]))
        self._set(nodes, frozenset(nodes[1:-1]), edges)

    @property
    def endpoints(self) -> Edge:
        return (self.nodes[0], self.nodes[-1])

    @property
    def hops(self) -> int:
        return len(self.nodes) - 1

    @property
    def interior(self) -> FrozenSet[NodeId]:
        return self._interior

    @property
    def edges(self) -> Tuple[Edge, ...]:
        return self._edges

    def __hash__(self) -> int:
        return hash((self.nodes,))  # Frozen's value, without building a fields dict

    def __str__(self) -> str:
        return "(" + ", ".join(map(str, self.nodes)) + ")"


_nodes = attrgetter("nodes")


class MPathSet(Frozen):
    """A set of internally disjoint simple paths between one node pair.

    Canonical form: members sorted lexicographically by node sequence, so
    equal sets compare and hash equal regardless of construction order.  The
    hash is computed once, from ``sort_key()``, and kept.
    """

    __slots__ = ("paths", "_hash")

    def __init__(self, paths: Iterable[Path]) -> None:
        paths = tuple(sorted(paths, key=_nodes))
        if not paths:
            raise ValueError("a path set needs at least one path")
        # a path is its node tuple: equal paths have equal ones
        keys = tuple(map(_nodes, paths))
        if len({(nodes[0], nodes[-1]) for nodes in keys}) > 1:
            raise ValueError("all member paths must share the same endpoints")
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate member path")
        for a, b in itertools.combinations(paths, 2):
            if a.interior & b.interior:
                raise ValueError(f"paths {a} and {b} share interior node(s)")
        self._set(paths, hash(keys))

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
        return tuple(itertools.chain.from_iterable(p.edges for p in self.paths))

    def sort_key(self) -> Tuple[Tuple[NodeId, ...], ...]:
        return tuple(map(_nodes, self.paths))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return "{" + ", ".join(str(p) for p in self.paths) + "}"


def _check_hop_limit(hop_limit: Optional[int]) -> None:
    if hop_limit is not None and hop_limit < 1:
        raise ValueError(f"hop_limit must be at least 1, got {hop_limit}")


def _goal_paths(
    graph: NetworkGraph, start: NodeId, goals: Sequence[NodeId], hop_limit: Optional[int]
) -> Dict[NodeId, List[Tuple[NodeId, ...]]]:
    """Every simple path from ``start`` to each of ``goals``, found in one
    depth-first search: by goal, node tuples from ``start``, lexicographic,
    each of at most ``hop_limit`` hops when one is given.

    A trail runs on through a goal only in a search for more than one goal,
    so a one-goal search tries exactly the trails that may end at its goal.
    """
    if start in goals:
        raise ValueError("path endpoints must differ")
    n = graph.node_count
    for node in (start, *goals):
        if not 0 <= node < n:
            raise ValueError(f"node {node} is not in the graph")
    _check_hop_limit(hop_limit)
    found: Dict[NodeId, List[Tuple[NodeId, ...]]] = {goal: [] for goal in goals}
    # ends[w]: goal w's list, None for a node that is no goal
    ends: List[Optional[List[Tuple[NodeId, ...]]]] = [None] * n
    for goal, paths in found.items():
        ends[goal] = paths
    lone = len(found) == 1
    # a trail holds each node at most once, so without a hop limit it can
    # take at most n nodes
    limit = n if hop_limit is None else hop_limit
    adjacency = [graph.neighbors(v) for v in range(n)]
    visited = [False] * n
    visited[start] = True
    trail = [start]
    # stack[t]: the neighbours of trail[t] not tried yet; a node gets one only
    # while a path through it may still take another hop
    stack = [iter(adjacency[start])]
    while stack:
        for w in stack[-1]:
            if visited[w]:
                continue
            paths = ends[w]
            if paths is not None:
                paths.append((*trail, w))
                if lone:
                    continue
            if len(trail) < limit:
                visited[w] = True
                trail.append(w)
                stack.append(iter(adjacency[w]))
                break
        else:
            stack.pop()
            visited[trail.pop()] = False
    return found


def _pair_paths(
    graph: NetworkGraph, i: NodeId, j: NodeId, hop_limit: Optional[int]
) -> List[Tuple[NodeId, ...]]:
    """The simple paths between i and j, from min(i, j): a one-goal search."""
    start, goal = (i, j) if i < j else (j, i)
    return _goal_paths(graph, start, (goal,), hop_limit)[goal]


# no command calls this; perfbench/tracer.py wraps it by name
def enumerate_simple_paths(
    graph: NetworkGraph,
    i: NodeId,
    j: NodeId,
    hop_limit: Optional[int] = None,
) -> Tuple[Path, ...]:
    """The paths of ``_pair_paths`` as ``Path`` objects, in its order."""
    return tuple(map(Path, _pair_paths(graph, i, j, hop_limit)))


def _disjoint_rows(
    interiors: Sequence[Sequence[NodeId]], m: int, n: int
) -> Iterator[Tuple[int, ...]]:
    """Yield every size-m set of pairwise disjoint ``interiors``, as a tuple
    of increasing indices, in ``itertools.combinations`` order.  Nodes are
    below ``n``.

    Only disjoint prefixes are extended, so the work follows the sets found
    rather than every m-combination, and a caller that stops early stops
    the search.
    """
    # holders[v]: bitmask over the indices of the interiors holding node v;
    # conflicts[k]: those of the interiors that share a node with interior k
    holders = [0] * n
    for k, interior in enumerate(interiors):
        bit = 1 << k
        for v in interior:
            holders[v] |= bit
    held = holders.__getitem__
    conflicts = [reduce(or_, map(held, interior), 0) for interior in interiors]
    # each entry: a prefix and the bitmask of the later interiors disjoint
    # from every member of it; taking them lowest index first, and a longer
    # prefix before the rest of its parent's options, keeps combinations order.
    # A longer prefix with no option left would yield nothing, so it is not
    # pushed.
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
                rest = options & ~conflicts[k]
                if rest:
                    stack.append((prefix, options))
                    stack.append((prefix + (k,), rest))
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
    paths = sorted(paths, key=_nodes)
    if paths:
        endpoints = paths[0].endpoints
        if any(p.endpoints != endpoints for p in paths):
            raise ValueError("all paths must share the same endpoints")
        if len(set(paths)) != len(paths):
            raise ValueError("duplicate path")
    # a node id indexes the row kernel's holders
    n = 1 + max((v for p in paths for v in p.nodes), default=0)
    return tuple(
        MPathSet(map(paths.__getitem__, row))
        for row in _disjoint_rows([p.nodes[1:-1] for p in paths], m, n)
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
            and next(_disjoint_rows([p[1:-1] for p in _pair_paths(graph, i, j, hop_limit)], m, n),
                     None) is None
        ):
            unroutable.append((i, j))
    return tuple(unroutable)
