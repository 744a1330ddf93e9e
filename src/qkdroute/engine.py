"""Greedy iterative routing of key rate over disjoint path sets.

Each iteration finds the node pair whose effective rate falls furthest short
of its target, picks the least-loaded set of M internally disjoint paths for
it, and moves one rate step delta_r from the member edges to the pair.  The
loop stops when no pair is short, when the iteration budget runs out, or when
one of the structural dead ends below is hit.

All rates are Python ``int`` units, so cost comparisons and the step
accounting are exact and never wrap around.  Randomness is confined to
tie-breaking: one draw per tie with two or more candidates, taken over the
candidates in canonical order.  Runs are bit-reproducible for a given input
and seed.

The tie-break stream is :class:`~qkdroute.tiebreak.TieBreakStream`: the seed
goes through numpy's SeedSequence into PCG64, whose XSL-RR outputs are split
into 32-bit halves, low half first, with the high half carried to the next
draw; Lemire's bounded rejection turns a half into an index below k.  That is
what ``numpy.random.default_rng(seed).integers(k)`` draws, but the stream is
ours: NEP 19 keeps PCG64 and SeedSequence stable across numpy versions, not
``Generator.integers``.  It needs no numpy, and neither does this module.

The loop's one state is the deficiency target - effective, one ``int`` per
node pair i < j at the pair's ``pair_position``, the cell layout of
:class:`~qkdroute.model.RateMatrix`: it starts as the target's cells minus
the edge rates' cells and is updated in place.  The run keeps no effective
matrix: ``routing_list.effective(graph)`` derives it.  A pair's candidates
live in a table built the first time the pair is served, from indices
alone: its simple paths as node tuples with their edge positions, and its
sets of M disjoint paths as tuples of path indices, with one bitmask of rows
per edge and per hop count, from one pass over the rows.  The paths come
from one depth-first search per source node, run when the first pair from
it is served, for every remote goal above it; each pair's list leaves the
run's cache for its table.  A row becomes an ``MPathSet`` only when it is
chosen, from one ``Path`` per path index.  The least loaded rows are found
by walking the pair's edges sorted by deficiency, from the highest level
down, dropping the rows of each level while any row is left; no row is
scored.  The strict guard is a set of short edges that only grows.
``CandidateTable.scored`` is the one place that scores rows, for the
``paths`` command.

The loop keeps the pairs tied at the top deficiency, in row order, across
a level: a step deletes the pair it served and inserts any member edge that
rises to the top, and a member edge that passes it ends the run.  Only when
the list empties does ``run`` call ``cost_delta`` and ``worst_pairs``, once
per level, for the next maximum and its pairs; it calls ``optimal_sets``
once per step.  It calls all three through this module, where the
benchmark's tracer replaces them by name to time them; the rest of the
step, the tie draws and the deficiency, level and guard updates, is inline.
Records and outcomes are ``units.Frozen`` values, so the engine loads no
``dataclasses``.
"""

from __future__ import annotations

import enum
import functools
import operator
from bisect import insort
from itertools import compress
from typing import Container, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .model import (
    Edge,
    NetworkGraph,
    NodeId,
    RateMatrix,
    RouterConfig,
    ValidationError,
    _pairs,
    check_target_matrix,
    pair_position,
)
from .paths import MPathSet, Path, _disjoint_rows, _goal_paths, _pair_paths
from .tiebreak import TieBreakStream
from .units import Frozen


# no command raises this; perfbench/tracer.py wraps apply_increment by name
class GuardViolation(RuntimeError):
    """An increment would drive an edge below one rate step."""


class StopReason(str, enum.Enum):
    CONVERGED = "converged"
    R_MAX = "r_max"
    DIRECT_PAIR_WORST = "direct_pair_worst"
    COST_WORSENED = "cost_worsened"
    NO_M_SET = "no_m_set"
    GUARD_EXHAUSTED = "guard_exhausted"


class RoutingRecord(Frozen):
    """One routed path set and the total rate assigned to it."""

    __slots__ = ("path_set", "rate")

    def __init__(self, path_set: MPathSet, rate: int) -> None:
        self._set(path_set, rate)

    @property
    def pair(self) -> Edge:
        return self.path_set.endpoints


class RoutingList:
    """Accumulated routing decisions, at most one record per canonical set."""

    def __init__(self) -> None:
        self._rates: Dict[MPathSet, int] = {}
        self._records: Optional[Tuple[RoutingRecord, ...]] = None

    def add(self, path_set: MPathSet, delta_r: int) -> None:
        self._rates[path_set] = self._rates.get(path_set, 0) + delta_r
        self._records = None

    def records(self) -> Tuple[RoutingRecord, ...]:
        """Records sorted by member node sequences, sorted once per change.

        One pair's records need not be adjacent: {(0, 1, 5), ...} sorts
        between {(0, 1, 4), ...} and {(0, 2, 4), ...}.
        """
        if self._records is None:
            ordered = sorted(self._rates.items(), key=lambda kv: kv[0].sort_key())
            self._records = tuple(RoutingRecord(s, rate) for s, rate in ordered)
        return self._records

    def effective(self, graph: NetworkGraph) -> RateMatrix:
        """Effective rates: the edge rates plus each record's pair credit
        minus its debit on every member edge."""
        n = graph.node_count
        cells = list(graph.rate_matrix().cells)
        for path_set, rate in self._rates.items():
            _move(cells, n, path_set, rate)
        return RateMatrix(n, cells)


def _move(cells: List[int], n: int, path_set: MPathSet, amount: int) -> None:
    """Credit ``amount`` to the set's pair and debit it from every member
    edge, in the per-pair ``cells`` of a RateMatrix."""
    position = _positions(n)
    cells[position[path_set.endpoints]] += amount
    for cell in map(position.__getitem__, path_set.edges):
        cells[cell] -= amount


class IterationTrace(NamedTuple):
    """One accepted increment, or the terminal event that ended the run.

    Exactly one trace entry per run carries a ``stop_reason``; it is always
    the last one.  ``delta_after`` on a ``cost_worsened`` entry is the cost
    the rejected step would have left.
    """

    r: int
    selected_pair: Optional[Edge]
    pairs_tied: int
    chosen_set: Optional[MPathSet]
    sets_tied: int
    delta_before: int
    delta_after: int
    stop_reason: Optional[StopReason] = None


class RoutingOutcome(Frozen):
    """A run's routing list and its trace, the terminal entry last."""

    __slots__ = ("routing_list", "trace")

    def __init__(self, routing_list: RoutingList, trace: Tuple[IterationTrace, ...]) -> None:
        self._set(routing_list, trace)

    @property
    def stop_reason(self) -> StopReason:
        reason = self.trace[-1].stop_reason
        assert reason is not None
        return reason

    @property
    def final_delta(self) -> int:
        return self.trace[-1].delta_before

    @property
    def iterations(self) -> int:
        return self.trace[-1].r


@functools.lru_cache(maxsize=4)
def _positions(n: int) -> Dict[Edge, int]:
    """Every pair of distinct nodes, either way round, mapped to the
    ``pair_position`` of i < j; shared, so read only."""
    positions = {}
    for i, j in _pairs(n):
        positions[i, j] = positions[j, i] = pair_position(i, j, n)
    return positions


def cost_delta(deficiency: Sequence[int]) -> int:
    """Largest shortfall target - effective over the unordered pairs.

    ``deficiency`` holds one shortfall per pair i < j, in row order.
    """
    return max(deficiency)


def worst_pairs(deficiency: Sequence[int], n: int, top: int) -> List[Edge]:
    """All unordered pairs whose deficiency is ``top``, in row order.

    ``deficiency`` is the per-pair list of ``cost_delta``, and ``top`` its
    maximum, as ``cost_delta`` returned it.
    """
    return [pair for pair, value in zip(_pairs(n), deficiency) if value == top]


class CandidateTable:
    """A pair's candidate rows, and bitmasks over the rows for ranking them.

    ``paths`` holds the pair's simple paths as node tuples, lexicographic.
    Row k, ``rows[k]``, is a set of M internally disjoint paths as
    increasing indices into ``paths``; the rows come in canonical order.
    Bit k of a mask stands for row k, and ``all_rows`` has a bit for every
    row.  ``edges`` maps each edge position that some row uses to the mask
    of the rows using it, and ``order`` lists those positions for the
    ranking to sort; ``hops`` holds the mask of the rows of each total hop
    count, fewest hops first.  Built once per pair, as the masks depend
    on no rate: one pass over the rows gives each path the mask of the rows
    holding it, and one pass over those paths ORs it into their edges.
    """

    __slots__ = ("paths", "rows", "all_rows", "edges", "order", "hops", "_position", "_built",
                 "_path_objects")

    def __init__(
        self,
        graph: NetworkGraph,
        pair: Edge,
        m: int,
        hop_limit: Optional[int] = None,
        paths: Optional[List[Tuple[NodeId, ...]]] = None,
    ) -> None:
        """``paths`` is the pair's list from ``paths._goal_paths``, when the
        caller has searched already; otherwise the table searches for it."""
        n = graph.node_count
        position = self._position = _positions(n).__getitem__
        if paths is None:
            paths = _pair_paths(graph, *pair, hop_limit)
        self.paths = paths
        rows = self.rows = list(_disjoint_rows([p[1:-1] for p in paths], m, n))
        # each path's mask of the rows holding it, ORed into its edges below;
        # a path in no row has no edge in the table
        holding = [0] * len(paths)
        # by the nodes a row's paths hold, its total hops plus m, at most m * n
        hops = [0] * (m * n + 1)
        lengths = list(map(len, paths))
        bit = 1
        for row in rows:
            count = 0
            for k in row:
                holding[k] |= bit
                count += lengths[k]
            hops[count] |= bit
            bit <<= 1
        # by edge position, the mask of the rows using the edge
        masks = [0] * (n * (n - 1) // 2)
        for held, nodes in zip(holding, paths):
            if held:
                for cell in map(position, zip(nodes, nodes[1:])):
                    masks[cell] |= held
        self.edges = dict(compress(enumerate(masks), masks))
        self.order = list(self.edges)
        self.all_rows = bit - 1
        self.hops = tuple(filter(None, hops))
        self._built: Dict[int, Tuple[MPathSet, Tuple[int, ...]]] = {}
        self._path_objects: Dict[int, Path] = {}

    # no command calls this; perfbench/tracer.py counts the ranked rows by it
    def __len__(self) -> int:
        return len(self.rows)

    def candidate(self, k: int) -> Tuple[MPathSet, Tuple[int, ...]]:
        """Row k's path set and the positions of its edges, built on first use."""
        built = self._built.get(k)
        if built is None:
            objects = self._path_objects
            for p in self.rows[k]:
                if p not in objects:
                    objects[p] = Path(self.paths[p])
            path_set = MPathSet(map(objects.__getitem__, self.rows[k]))
            built = self._built[k] = (path_set, tuple(map(self._position, path_set.edges)))
        return built

    def scored(
        self, deficiency: Sequence[int]
    ) -> Iterator[Tuple[MPathSet, int, Tuple[int, ...]]]:
        """Each row's path set, score and edge positions, in table order.  A
        row scores the largest value of the per-pair ``deficiency`` list
        over its cells."""
        for path_set, cells in map(self.candidate, range(len(self.rows))):
            yield path_set, max(map(deficiency.__getitem__, cells)), cells


def optimal_sets(
    table: CandidateTable, deficiency: Sequence[int], short: Container[int]
) -> List[int]:
    """Indices of the least-deficient rows clear of ``short`` edges, narrowed
    to minimal total hop count, in table order; empty when every row touches
    a short edge.

    A row's score is the one ``CandidateTable.scored`` gives, but no row is
    scored here: the table's edges are sorted by deficiency and walked from
    the highest down, one level of equal deficiency at a time, dropping the
    rows that use each level's edges for as long as some row is left.  The
    level that would drop every remaining row holds the least score, and
    the rows left are exactly those that score it; the walk stops there,
    having read no lower edge.  Their mask is then narrowed to the first
    hop count it meets.  A pair with one row clear of ``short`` edges skips
    the walk.

    The edges are sorted in place, in ``table.order``: a step moves few
    deficiencies, so the order the pair's last ranking left is nearly sorted
    already.  Edges of equal deficiency fall in one level, so their order
    changes no result.
    """
    edges = table.edges
    live = table.all_rows
    if short:
        for cell, rows in edges.items():
            if cell in short:
                live &= ~rows
    if not live & (live - 1):
        # no row or one row is left, so there is nothing to rank
        return [live.bit_length() - 1] if live else []
    # a short edge's rows are out of live already, so walking its edge too
    # changes no step; the lowest level always drops every row left, as
    # every row uses an edge, so a walk that runs out has nothing to drop
    level = None
    drop = 0
    order = table.order
    order.sort(key=deficiency.__getitem__, reverse=True)
    for cell in order:
        value = deficiency[cell]
        if value != level:
            rest = live & ~drop
            if not rest:
                break
            live = rest
            level = value
            drop = edges[cell]
        else:
            drop |= edges[cell]
    for rows in table.hops:
        if live & rows:
            live &= rows
            break
    finalists = []
    while live:
        low = live & -live
        finalists.append(low.bit_length() - 1)
        live ^= low
    return finalists


# no command calls this; perfbench/tracer.py wraps it by name
def apply_increment(
    effective: RateMatrix,
    pair: Edge,
    path_set: MPathSet,
    delta_r: int,
    strict_guard: bool = False,
) -> RateMatrix:
    """Move delta_r of rate from the member edges onto the pair.

    Returns the new matrix.  ``run`` applies the same step in place, to its
    per-pair deficiency list.

    Raises:
        GuardViolation: with ``strict_guard``, when any member edge holds
            less than delta_r before the decrement.
    """
    i, j = pair
    if (min(i, j), max(i, j)) != path_set.endpoints:
        raise ValueError(
            f"pair ({i}, {j}) does not match path set endpoints {path_set.endpoints}"
        )
    if delta_r < 0:
        raise ValueError(f"delta_r must be non-negative, got {delta_r}")
    if strict_guard:
        for u, v in path_set.edges:
            if effective[u, v] < delta_r:
                raise GuardViolation(f"edge ({u}, {v}) holds {effective[u, v]} < {delta_r}")
    cells = list(effective.cells)
    _move(cells, effective.n, path_set, delta_r)
    return RateMatrix(effective.n, cells)


def run(graph: NetworkGraph, target: RateMatrix, config: RouterConfig) -> RoutingOutcome:
    """Route key rate until every pair meets its target or a stop is hit.

    Args:
        graph: connected network with positive edge rates.
        target: per-pair target rates in the same units as the graph.
        config: run parameters; ``config.delta_r`` must be set.

    Returns:
        The routing list and the per-iteration trace.
    """
    check_target_matrix(target, graph.node_count)
    if config.delta_r is None:
        raise ValidationError("config.delta_r must be set")
    if not graph.is_connected():
        raise ValidationError("graph must be connected")

    n = graph.node_count
    step, m, hop_limit, r_max = config.delta_r, config.m, config.hop_limit, config.r_max
    guard = config.strict_guard
    links = graph.rates
    # one draw per tie of two or more, over the tied items in canonical order
    draw = TieBreakStream(config.seed).integers
    tables: Dict[Edge, CandidateTable] = {}
    # by source, its paths to each remote goal above it, from one search; a
    # pair's list leaves for its table when the pair is first served
    pending: Dict[NodeId, Dict[NodeId, List[Tuple[NodeId, ...]]]] = {}
    routing = RoutingList()
    add = routing.add
    trace: List[IterationTrace] = []
    log = trace.append
    # an entry from a tuple of every field, without the generated __new__
    entry = IterationTrace._make
    # target - effective, one entry per pair i < j in row order
    deficiency = list(map(operator.sub, target.cells, graph.rate_matrix().cells))
    # under the strict guard, the edges holding less than delta_r, whose
    # deficiency exceeds target - delta_r.  A step debits member edges and
    # credits only the remote pair it serves, so no edge's deficiency falls
    # and a short edge stays short: the loop only adds the newly short ones.
    positions = _positions(n)
    pair_at = _pairs(n)
    limits = {positions[edge]: target[edge] - step for edge in graph.edges}
    short = (
        {cell for cell, limit in limits.items() if deficiency[cell] > limit} if guard else set()
    )
    delta = cost_delta(deficiency)
    # the pairs at deficiency delta, in row order; rescanned when emptied
    pairs: List[Edge] = []
    r = 0

    def stop(
        reason: StopReason,
        pair: Optional[Edge] = None,
        pairs_tied: int = 0,
        chosen: Optional[MPathSet] = None,
        delta_after: Optional[int] = None,
    ) -> RoutingOutcome:
        trace.append(
            IterationTrace(
                r=r,
                selected_pair=pair,
                pairs_tied=pairs_tied,
                chosen_set=chosen,
                sets_tied=0,
                delta_before=delta,
                delta_after=delta if delta_after is None else delta_after,
                stop_reason=reason,
            )
        )
        return RoutingOutcome(routing, tuple(trace))

    while delta > 0 and (r_max is None or r < r_max):
        if not pairs:
            pairs = worst_pairs(deficiency, n, delta)
        pairs_tied = len(pairs)
        pick = 0 if pairs_tied == 1 else draw(pairs_tied)
        pair = pairs[pick]
        # pairs come canonical, as the edge rates are keyed
        if pair in links:
            # the bottleneck is a direct link; no amount of re-routing
            # helps it, so the run ends here
            return stop(StopReason.DIRECT_PAIR_WORST, pair, pairs_tied)
        table = tables.get(pair)
        if table is None:
            i, j = pair
            lists = pending.get(i)
            if lists is None:
                goals = [goal for goal in range(n) if goal > i and (i, goal) not in links]
                lists = pending[i] = _goal_paths(graph, i, goals, hop_limit)
            table = tables[pair] = CandidateTable(graph, pair, m, hop_limit, lists.pop(j))
        if not table.rows:
            return stop(StopReason.NO_M_SET, pair, pairs_tied)
        finalists = optimal_sets(table, deficiency, short)
        sets_tied = len(finalists)
        if not sets_tied:
            return stop(StopReason.GUARD_EXHAUSTED, pair, pairs_tied)
        chosen, cells = table.candidate(
            finalists[0] if sets_tied == 1 else finalists[draw(sets_tied)]
        )
        # the served pair leaves the level; the other pairs at it stay
        deficiency[positions[pair]] -= step
        del pairs[pick]
        worsened = False
        for cell in cells:
            value = deficiency[cell] = deficiency[cell] + step
            if value >= delta:
                if value > delta:
                    worsened = True
                else:
                    insort(pairs, pair_at[cell])
            if guard and value > limits[cell]:
                short.add(cell)
        if worsened:
            # the rejected step stays in deficiency: nothing reads it again
            new_delta = max(map(deficiency.__getitem__, cells))
            return stop(StopReason.COST_WORSENED, pair, pairs_tied, chosen, new_delta)
        # no pair is at delta once the level empties: find the next one
        new_delta = delta if pairs else cost_delta(deficiency)
        add(chosen, step)
        r += 1
        log(entry((r, pair, pairs_tied, chosen, sets_tied, delta, new_delta, None)))
        delta = new_delta

    return stop(StopReason.CONVERGED if delta <= 0 else StopReason.R_MAX)
