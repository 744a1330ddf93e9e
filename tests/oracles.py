"""Independent reference implementations the real code is checked against.

Deliberately naive and structured differently from the library: the path
oracle is a recursive depth-first search over adjacency sets, the relay
oracle walks a path node by node handing a key forward, and the pool oracle
draws each pool unpacked in a single call.  Shared bugs with the production
code would defeat the point, so nothing here imports from qkdroute beyond
plain data types, with one exception: the unroutable-pair reference is the
enumeration scan that the max-flow test replaced, built on the library's
enumerators, which are themselves checked against the DFS oracle, and so is
the reference listing of ``qkdroute paths``.  The candidate-table reference
is the engine's former builder: one row per path-set object, its masks ORed
in row by row.
"""

from __future__ import annotations

import itertools
from operator import sub
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Sequence, Set, Tuple

import numpy as np

from qkdroute.model import RateMatrix
from qkdroute.paths import enumerate_m_path_sets, enumerate_simple_paths, set_deficiency


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
    return tuple(
        pair for pair in graph.remote_pairs()
        if not enumerate_m_path_sets(enumerate_simple_paths(graph, *pair, hop_limit), m)
    )


def reference_paths_listing(graph, target, pair, m: int, hop_limit: int | None) -> str:
    """What ``qkdroute paths`` prints for a pair: its simple path and m-set
    counts, then every m-set as an object with its worst member edge's
    target - rate and its total hops."""
    i, j = pair
    paths = enumerate_simple_paths(graph, i, j, hop_limit)
    sets = enumerate_m_path_sets(paths, m)
    deficiency = RateMatrix(graph.node_count, map(sub, target.cells, graph.rate_matrix().cells))
    lines = [f"pair ({min(i, j)}, {max(i, j)}), M={m}: "
             f"{len(paths)} simple paths, {len(sets)} disjoint sets"]
    if not sets:
        lines.append("no disjoint path set exists for this pair")
    for s in sets:
        score = graph.scale.kbps_str(set_deficiency(s, deficiency))
        lines.append(f"{s}  D={score}  hops={s.total_hops}")
    return "".join(line + "\n" for line in lines)


class Candidate(NamedTuple):
    """A candidate set with its edges as positions in the per-pair list."""

    path_set: object
    cells: Tuple[int, ...]
    hops: int


class ReferenceTable:
    """A pair's candidate rows, with the bitmasks the engine's table holds:
    ``edges`` pairs each edge position with the mask of the rows using it,
    and ``hops`` holds the mask of each total hop count, fewest hops first."""

    def __init__(self, rows: Sequence[Candidate]) -> None:
        edges: Dict[int, int] = {}
        hops: Dict[int, int] = {}
        for index, row in enumerate(rows):
            bit = 1 << index
            for cell in row.cells:
                edges[cell] = edges.get(cell, 0) | bit
            hops[row.hops] = hops.get(row.hops, 0) | bit
        self.rows = tuple(rows)
        self.edges = tuple(edges.items())
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
