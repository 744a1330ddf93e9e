"""Independent reference implementations the real code is checked against.

Deliberately naive and structured differently from the library: the path
oracle is a recursive depth-first search over adjacency sets, the relay
oracle walks a path node by node handing a key forward, and the pool oracle
draws each pool unpacked in a single call.  Shared bugs with the production
code would defeat the point, so nothing here imports from qkdroute.  The
unroutable-pair reference is the enumeration scan that the max-flow test
replaced, and the reference listing of ``qkdroute paths`` lists every set
with its score; both take their paths from the DFS oracle and their sets
from ``ordered_disjoint_subsets``, with the adjacency read off the graph's
``rates`` dict.  The candidate-table reference is the engine's former
builder: one row per path-set object, its masks ORed in row by row.  The
audit reference replays a run's trace on pair-keyed dicts and scores every
candidate set of each served pair from the DFS oracle's paths.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Sequence, Set, Tuple

import numpy as np


def dfs_simple_paths(
    adjacency: Dict[int, Set[int]],
    start: int,
    goal: int,
    hop_limit: int | None = None,
) -> Set[Tuple[int, ...]]:
    """Every simple path from start to goal, as an unordered set of tuples."""
    found: Set[Tuple[int, ...]] = set()

    def walk(node: int, seen: List[int]) -> None:
        if node == goal:
            found.add(tuple(seen))
            return
        if hop_limit is not None and len(seen) - 1 >= hop_limit:
            return
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                seen.append(nxt)
                walk(nxt, seen)
                seen.pop()

    walk(start, [start])
    return found


def ordered_disjoint_subsets(
    paths: Sequence[Tuple[int, ...]], m: int
) -> List[Tuple[Tuple[int, ...], ...]]:
    """Every m-combination of the sorted paths whose interiors are pairwise
    disjoint, in ``itertools.combinations`` order."""
    result: List[Tuple[Tuple[int, ...], ...]] = []
    for combo in itertools.combinations(sorted(paths), m):
        interiors = [set(p[1:-1]) for p in combo]
        if all(
            not (interiors[a] & interiors[b])
            for a in range(m)
            for b in range(a + 1, m)
        ):
            result.append(combo)
    return result


def graph_adjacency(graph) -> Dict[int, Set[int]]:
    """Each node's neighbours, read off the graph's ``rates`` dict."""
    adjacency: Dict[int, Set[int]] = {}
    for u, v in graph.rates:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    return adjacency


def combo_edges(combo: Iterable[Tuple[int, ...]]) -> List[Tuple[int, int]]:
    """The edges of node tuples, each as (smaller, larger), in path order."""
    return [(min(a, b), max(a, b)) for nodes in combo for a, b in zip(nodes, nodes[1:])]


def reference_audit(
    graph, target, config, trace: Iterable
) -> List[List[Tuple[Tuple[Tuple[int, ...], ...], int]]]:
    """The candidate table of each accepted step of a run, from its trace.

    Replays the steps from the edge rates.  Before each step, every
    internally disjoint set of ``config.m`` simple paths of the served pair
    is listed as its sorted node tuples, in combinations order, with its
    score: the largest target - effective over its edges.  Under the strict
    guard a set is left out when one of its edges holds less than delta_r.
    """
    n, step = graph.node_count, config.delta_r
    adjacency = graph_adjacency(graph)
    effective: Dict[Tuple[int, int], int] = {}
    demand: Dict[Tuple[int, int], int] = {}
    for i, j in itertools.combinations(range(n), 2):
        effective[i, j] = graph.rates.get((i, j), 0)
        demand[i, j] = target[i, j]

    # each served pair's sets with their edges, listed once
    candidates: Dict[Tuple[int, int], list] = {}
    tables = []
    for entry in trace:
        if entry.stop_reason is not None:
            break
        pair = entry.selected_pair
        if pair not in candidates:
            paths = dfs_simple_paths(adjacency, *pair, config.hop_limit)
            candidates[pair] = [
                (combo, combo_edges(combo))
                for combo in ordered_disjoint_subsets(list(paths), config.m)
            ]
        tables.append([
            (combo, max(demand[e] - effective[e] for e in used))
            for combo, used in candidates[pair]
            if not config.strict_guard or all(effective[e] >= step for e in used)
        ])
        effective[pair] += step
        for e in combo_edges(p.nodes for p in entry.chosen_set.paths):
            effective[e] -= step
    return tables


def audit_table(rows: Iterable) -> Dict[str, int]:
    """One step's ``reference_audit`` rows, each set keyed by its text as
    ``MPathSet`` prints it."""
    return {"{" + ", ".join(map(str, combo)) + "}": score for combo, score in rows}


def disjoint_subsets(
    paths: Sequence[Tuple[int, ...]], m: int
) -> Set[FrozenSet[Tuple[int, ...]]]:
    """All m-subsets of paths whose interiors are pairwise disjoint."""
    return {frozenset(combo) for combo in ordered_disjoint_subsets(paths, m)}


def reference_unroutable_pairs(
    graph, m: int, hop_limit: int | None
) -> Tuple[Tuple[int, int], ...]:
    """Remote pairs, in order, none of whose m-subsets of simple paths (at
    most hop_limit hops each) is internally disjoint."""
    adjacency = graph_adjacency(graph)
    return tuple(
        pair for pair in itertools.combinations(range(graph.node_count), 2)
        if pair not in graph.rates
        and not ordered_disjoint_subsets(list(dfs_simple_paths(adjacency, *pair, hop_limit)), m)
    )


def reference_paths_listing(graph, target, pair, m: int, hop_limit: int | None) -> str:
    """What ``qkdroute paths`` prints for a pair: its simple path and m-set
    counts, then every m-set with its worst member edge's target - rate
    and its total hops."""
    i, j = sorted(pair)
    paths = dfs_simple_paths(graph_adjacency(graph), i, j, hop_limit)
    sets = ordered_disjoint_subsets(list(paths), m)
    lines = [f"pair ({i}, {j}), M={m}: {len(paths)} simple paths, {len(sets)} disjoint sets"]
    if not sets:
        lines.append("no disjoint path set exists for this pair")
    for combo in sets:
        text = "{" + ", ".join(map(str, combo)) + "}"
        score = max(target[e] - graph.rates[e] for e in combo_edges(combo))
        hops = sum(len(nodes) - 1 for nodes in combo)
        lines.append(f"{text}  D={graph.scale.kbps_str(score)}  hops={hops}")
    return "".join(line + "\n" for line in lines)


class Candidate(NamedTuple):
    """A candidate set with its edges as positions in the per-pair list."""

    path_set: object
    cells: Tuple[int, ...]
    hops: int


class ReferenceTable:
    """A pair's candidate rows, with the bitmasks the engine's table holds:
    ``all_rows`` has a bit for every row, ``edges`` maps each edge position
    to the mask of the rows using it, ``order`` lists those positions, and
    ``hops`` holds the mask of each total hop count, fewest hops first."""

    def __init__(self, rows: Sequence[Candidate]) -> None:
        edges: Dict[int, int] = {}
        hops: Dict[int, int] = {}
        for index, row in enumerate(rows):
            bit = 1 << index
            for cell in row.cells:
                edges[cell] = edges.get(cell, 0) | bit
            hops[row.hops] = hops.get(row.hops, 0) | bit
        self.rows = tuple(rows)
        self.all_rows = (1 << len(rows)) - 1
        self.edges = edges
        self.order = list(edges)
        self.hops = tuple(hops[count] for count in sorted(hops))

    def __len__(self) -> int:
        return len(self.rows)


def candidate_table(path_sets: Sequence, node_count: int) -> ReferenceTable:
    """One row per set, in the given order; a cell is the index of an edge's
    pair among the pairs i < j in row order."""
    position = {
        pair: k for k, pair in enumerate(itertools.combinations(range(node_count), 2))
    }
    return ReferenceTable(
        [
            Candidate(s, tuple(position[edge] for edge in s.edges), s.total_hops)
            for s in path_sets
        ]
    )


def relay_key_forward(
    segments: Sequence[Sequence[int]],
) -> Tuple[List[int], List[List[int]]]:
    """Walk a path handing the first-link key forward hop by hop.

    Each relay re-encrypts the carried key with its outgoing link segment
    and publishes the XOR; the receiver peels messages off in order.
    Returns the key as the far endpoint computes it, plus the messages.
    """
    messages: List[List[int]] = []
    for t in range(1, len(segments)):
        messages.append(
            [a ^ b for a, b in zip(segments[t - 1], segments[t])]
        )
    carried = list(segments[-1])
    for message in reversed(messages):
        carried = [a ^ b for a, b in zip(carried, message)]
    return carried, messages


def per_pair(matrix) -> List[int]:
    """A symmetric matrix as the engine helpers take it: one ``int`` per pair
    i < j, row by row."""
    n = len(matrix)
    return [int(matrix[i, j]) for i, j in itertools.combinations(range(n), 2)]


def reference_worst_pairs(deficiency: np.ndarray) -> List[Tuple[int, int]]:
    """Pairs i < j whose deficiency is the largest, in row order."""
    n = deficiency.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    top = max(deficiency[pair] for pair in pairs)
    return [pair for pair in pairs if deficiency[pair] == top]


def reference_cost(target: np.ndarray, effective: np.ndarray) -> int:
    """Largest shortfall target - effective over pairs i < j."""
    n = target.shape[0]
    return max(
        int(target[i, j] - effective[i, j]) for i in range(n) for j in range(i + 1, n)
    )


def guard_ok(path_set, effective: np.ndarray, delta_r: int) -> bool:
    """Every member edge still holds at least one rate step."""
    return all(effective[u, v] >= delta_r for u, v in path_set.edges)


def reference_finalists(
    path_sets: Sequence,
    deficiency: np.ndarray,
    effective: np.ndarray,
    delta_r: int,
    strict_guard: bool,
) -> List:
    """The guard-ok sets of least worst-edge deficiency, then fewest hops, in order."""
    kept = [s for s in path_sets if not strict_guard or guard_ok(s, effective, delta_r)]
    if not kept:
        return []
    scores = [max(int(deficiency[edge]) for edge in s.edges) for s in kept]
    pool = [s for s, score in zip(kept, scores) if score == min(scores)]
    shortest = min(s.total_hops for s in pool)
    return [s for s in pool if s.total_hops == shortest]


def rates_by_pair(records: Iterable) -> Dict[Tuple[int, int], int]:
    """Total rate per node pair, summed over routing records."""
    totals: Dict[Tuple[int, int], int] = {}
    for record in records:
        totals[record.pair] = totals.get(record.pair, 0) + record.rate
    return totals


def one_shot_pools(lengths: Sequence[int], seed: int) -> List[np.ndarray]:
    """Pools of the given bit lengths, one unpacked draw each, in order."""
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 2, size=length, dtype=np.uint8) for length in lengths]
