from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkdroute import engine as engine_module
from qkdroute.engine import (
    CandidateTable,
    GuardViolation,
    RoutingList,
    RoutingRecord,
    StopReason,
    apply_increment,
    cost_delta,
    optimal_sets,
    run,
    worst_pairs,
)
from qkdroute.model import (
    NetworkGraph,
    RateMatrix,
    RouterConfig,
    ValidationError,
    pair_position,
    uniform_target,
)
from qkdroute.netfile import load_network
from qkdroute.paths import (
    MPathSet,
    Path,
    enumerate_m_path_sets,
    enumerate_simple_paths,
    set_deficiency,
)
from qkdroute.tiebreak import TieBreakStream

from conftest import NETWORKS_DIR, as_array, as_rate_matrix
from golden import (
    DENSE5_EXPECTED_TABLES,
    DENSE5_REFERENCE_SEED,
    DENSE5_REFERENCE_SETS,
    RING6_REFERENCE_RECORDS,
)
from oracles import (
    audit_table,
    candidate_table,
    guard_ok,
    per_pair,
    rates_by_pair,
    reference_audit,
    reference_cost,
    reference_finalists,
    reference_worst_pairs,
)


def dense5_config(**overrides):
    base = dict(m=2, delta_r=100, seed=DENSE5_REFERENCE_SEED)
    base.update(overrides)
    return RouterConfig(**base)


def test_cost_delta(ring6):
    graph, target = ring6
    target = as_array(target)
    assert cost_delta(per_pair(target - as_array(graph.rate_matrix()))) == 100
    met = as_array(graph.rate_matrix())
    for i, j in graph.remote_pairs():
        met[i, j] = met[j, i] = 100
    assert cost_delta(per_pair(target - met)) == 0
    surplus = np.full((6, 6), 1000, dtype=np.int64)
    np.fill_diagonal(surplus, 0)
    assert cost_delta(per_pair(target - surplus)) == -900
    # two nodes have a single pair
    assert cost_delta([7]) == 7
    assert worst_pairs([7], 2, 7) == [(0, 1)]


def test_pair_position_is_row_order():
    for n in range(2, 8):
        pairs = itertools.combinations(range(n), 2)
        assert [pair_position(i, j, n) for i, j in pairs] == list(range(n * (n - 1) // 2))


def test_worst_pair_selection(dense5, monkeypatch):
    graph, target = dense5
    deficiency = as_array(target) - as_array(graph.rate_matrix())
    shortfall = per_pair(deficiency)
    assert worst_pairs(shortfall, 5, max(shortfall)) == [(0, 4), (1, 3)]
    # a run draws once per real tie, bounded by the number of tied items
    draws = []
    integers = TieBreakStream.integers
    monkeypatch.setattr(TieBreakStream, "integers",
                        lambda stream, k: draws.append(k) or integers(stream, k))

    def first_step(target, seed):
        draws.clear()
        first = run(graph, target, dense5_config(seed=seed, r_max=1)).trace[0]
        assert draws == [k for k in (first.pairs_tied, first.sets_tied) if k > 1]
        return first

    picks = set()
    for seed in range(30):
        first = first_step(target, seed)
        assert first.pairs_tied == 2
        picks.add(first.selected_pair)
    assert picks == {(0, 4), (1, 3)}

    # a unique maximizer needs no draw and is served as-is
    deficiency[0, 4] = deficiency[4, 0] = 999
    first = first_step(as_rate_matrix(deficiency + as_array(graph.rate_matrix())), 0)
    assert (first.selected_pair, first.pairs_tied) == ((0, 4), 1)


def test_select_optimal_set_filters(dense5):
    graph, target = dense5
    deficiency = as_array(target) - as_array(graph.rate_matrix())
    table = CandidateTable(graph, (1, 3), 2)
    finalists = optimal_sets(table, per_pair(deficiency), set())
    assert [str(table.candidate(k)[0]) for k in finalists] == ["{(1, 0, 3), (1, 2, 3)}"]


def random_connected_graph(draw, n):
    """A random spanning tree, which keeps the graph connected, plus chords."""
    pairs = list(itertools.combinations(range(n), 2))
    edges = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    chords = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges |= {pair for pair, keep in zip(pairs, chords) if keep}
    return NetworkGraph(n, {edge: 1 for edge in edges})


@st.composite
def table_cases(draw):
    """A connected graph, a pair, M and a hop limit or none."""
    n = draw(st.integers(3, 7))
    graph = random_connected_graph(draw, n)
    pair = draw(st.sampled_from(list(itertools.combinations(range(n), 2))))
    hop_limit = draw(st.one_of(st.none(), st.integers(1, 4)))
    return graph, pair, draw(st.integers(1, 3)), hop_limit


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(table_cases())
# the first row of (0, 3) takes three hops and the second two
@example((NetworkGraph(4, {(0, 1): 1, (0, 2): 1, (1, 2): 1, (2, 3): 1}), (0, 3), 1, None))
# each path through a relay of K{2,3} lies in two of the three rows
@example((NetworkGraph(5, dict.fromkeys([(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)], 1)),
          (0, 4), 2, None))
def test_candidate_table_matches_reference(case):
    """The table built from path indices has the rows, in order, and the edge
    and hop masks of the reference built from one path-set object per row;
    a row's set and cells are built once, on first use."""
    graph, pair, m, hop_limit = case
    table = CandidateTable(graph, pair, m, hop_limit)
    sets = enumerate_m_path_sets(enumerate_simple_paths(graph, *pair, hop_limit), m)
    reference = candidate_table(sets, graph.node_count)
    assert [tuple(table.paths[k] for k in row) for row in table.rows] == [
        s.sort_key() for s in sets
    ]
    assert dict(table.edges) == dict(reference.edges)
    assert table.hops == reference.hops
    for k, row in enumerate(reference.rows):
        path_set, cells = table.candidate(k)
        assert path_set == row.path_set and sorted(cells) == sorted(row.cells)
        assert table.candidate(k)[0] is path_set


@st.composite
def scoring_cases(draw):
    """A connected graph, a pair and M, a rate state, delta_r and guard."""
    n = draw(st.integers(4, 7))
    graph = random_connected_graph(draw, n)
    pair = draw(st.sampled_from(list(itertools.combinations(range(n), 2))))
    m = draw(st.integers(1, 3))

    def symmetric(low, high):
        # a narrow value range makes score and hop ties common
        upper = draw(st.lists(st.integers(low, high), min_size=n * n, max_size=n * n))
        mat = np.triu(np.array(upper, dtype=np.int64).reshape(n, n), k=1)
        return mat + mat.T

    effective = symmetric(-1, 8)
    target = symmetric(0, 4)
    delta_r = draw(st.integers(0, 3))
    return graph, pair, m, effective, target, delta_r, draw(st.booleans())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(scoring_cases())
# three one-path rows of (0, 3) at one score, two of them on different
# edges at the fewest hops
@example((
    NetworkGraph(6, dict.fromkeys([(0, 1), (0, 2), (0, 4), (1, 3), (2, 3), (3, 5), (4, 5)], 1)),
    (0, 3), 1, np.ones((6, 6), dtype=np.int64) - np.eye(6, dtype=np.int64),
    np.zeros((6, 6), dtype=np.int64), 0, False,
))
def test_table_scoring_matches_reference(case):
    """The level walk over the table's masks picks the reference finalists,
    in order, with the strict guard's short edges and without them."""
    graph, pair, m, effective, target, delta_r, strict_guard = case
    sets = enumerate_m_path_sets(enumerate_simple_paths(graph, *pair), m)
    deficiency = target - effective
    n = graph.node_count
    # the edges holding less than delta_r, as run keeps them
    short = {
        pair_position(u, v, n)
        for u, v in graph.edges
        if deficiency[u, v] > int(target[u, v]) - delta_r
    }
    table = CandidateTable(graph, pair, m)
    assert len(table.rows) == len(sets)
    for guard in (strict_guard, not strict_guard):
        finalists = optimal_sets(table, per_pair(deficiency), short if guard else set())
        kept = [s for s in sets if not guard or guard_ok(s, effective, delta_r)]
        if not kept:
            assert finalists == []
            continue
        expected = reference_finalists(sets, deficiency, effective, delta_r, guard)
        best = min(set_deficiency(s, deficiency) for s in kept)
        assert all(set_deficiency(s, deficiency) == best for s in expected)
        assert [table.candidate(k)[0] for k in finalists] == expected


def test_apply_increment_is_pure(dense5):
    graph, _ = dense5
    effective = graph.rate_matrix()
    s = MPathSet((Path((1, 0, 3)), Path((1, 2, 3))))
    updated = apply_increment(effective, (1, 3), s, 100)
    assert effective[1, 3] == 0 and updated[1, 3] == 100
    assert updated[3, 1] == 100
    for u, v in s.edges:
        assert updated[u, v] == effective[u, v] - 100
        assert updated[v, u] == updated[u, v]
    # untouched edges keep their rate
    assert updated[3, 4] == effective[3, 4]


def test_apply_increment_zero_is_noop(dense5):
    graph, _ = dense5
    effective = graph.rate_matrix()
    s = MPathSet((Path((1, 0, 3)), Path((1, 2, 3))))
    assert apply_increment(effective, (1, 3), s, 0) == effective


def test_apply_increment_guard(dense5):
    graph, _ = dense5
    effective = as_array(graph.rate_matrix())
    effective[0, 1] = effective[1, 0] = 40
    effective = as_rate_matrix(effective)
    s = MPathSet((Path((1, 0, 3)), Path((1, 2, 3))))
    with pytest.raises(GuardViolation):
        apply_increment(effective, (1, 3), s, 100, strict_guard=True)
    # without the guard the edge is allowed to go negative
    updated = apply_increment(effective, (1, 3), s, 100)
    assert updated[0, 1] == -60


def test_apply_increment_endpoint_mismatch(dense5):
    graph, _ = dense5
    s = MPathSet((Path((1, 0, 3)), Path((1, 2, 3))))
    with pytest.raises(ValueError, match="does not match"):
        apply_increment(graph.rate_matrix(), (0, 4), s, 100)


def test_dense5_reference_run(dense5):
    graph, target = dense5
    config = dense5_config()
    out = run(graph, target, config)
    assert out.stop_reason is StopReason.CONVERGED
    assert out.iterations == 4
    assert out.final_delta == 0
    accepted = [t for t in out.trace if t.stop_reason is None]
    assert [t.selected_pair for t in accepted] == [(1, 3), (0, 4), (1, 3), (0, 4)]
    assert [str(t.chosen_set) for t in accepted] == DENSE5_REFERENCE_SETS
    audit = reference_audit(graph, target, config, out.trace)
    assert len(audit) == len(accepted)
    for entry, rows in zip(accepted, audit):
        assert audit_table(rows) == DENSE5_EXPECTED_TABLES[entry.r]
    # per-iteration tie counts: pair tie on iterations 1 and 3
    assert [t.pairs_tied for t in accepted] == [2, 1, 2, 1]
    assert [t.sets_tied for t in accepted] == [1, 1, 3, 1]


def test_dense5_final_state(dense5):
    graph, target = dense5
    out = run(graph, target, dense5_config())
    effective = out.routing_list.effective(graph)
    expected = {
        (0, 1): 300, (0, 2): 300, (0, 3): 200, (1, 2): 300,
        (1, 4): 200, (2, 3): 300, (2, 4): 200, (3, 4): 300,
    }
    for (u, v), value in expected.items():
        assert effective[u, v] == value
    assert effective[1, 3] == 200
    assert effective[0, 4] == 200
    assert rates_by_pair(out.routing_list.records()) == {(1, 3): 200, (0, 4): 200}


def test_dense5_trajectory_envelope(dense5):
    """Every seed stays within the legal tie-break choices.

    Re-derives the argmax pair set and the optimal candidate list at each
    accepted iteration and checks the engine's choice was a member; also
    checks the accounting invariants that hold regardless of tie-breaks.
    """
    graph, target = dense5
    for seed in range(30):
        out = run(graph, target, dense5_config(seed=seed))
        effective = graph.rate_matrix()
        for entry in out.trace:
            deficiency = as_array(target) - as_array(effective)
            if entry.stop_reason is not None:
                break
            shortfall = per_pair(deficiency)
            assert entry.selected_pair in worst_pairs(shortfall, 5, max(shortfall))
            sets = enumerate_m_path_sets(
                enumerate_simple_paths(graph, *entry.selected_pair), 2
            )
            table = candidate_table(sets, graph.node_count)
            finalists = optimal_sets(table, shortfall, set())
            assert entry.chosen_set in [table.rows[k].path_set for k in finalists]
            effective = apply_increment(
                effective, entry.selected_pair, entry.chosen_set, 100
            )
            assert entry.delta_after <= entry.delta_before
        assert effective == out.routing_list.effective(graph)
        # each remote pair takes exactly two accepted increments
        assert out.iterations == 4
        assert rates_by_pair(out.routing_list.records()) == {(1, 3): 200, (0, 4): 200}
        assert out.stop_reason in (
            StopReason.CONVERGED, StopReason.DIRECT_PAIR_WORST
        )
        if out.stop_reason is StopReason.CONVERGED:
            assert out.final_delta == 0


def test_run_is_deterministic(dense5):
    graph, target = dense5
    first = run(graph, target, dense5_config())
    second = run(graph, target, dense5_config())
    assert first.routing_list.effective(graph) == second.routing_list.effective(graph)
    assert first.trace == second.trace
    assert [ (str(r.path_set), r.rate) for r in first.routing_list.records() ] == \
           [ (str(r.path_set), r.rate) for r in second.routing_list.records() ]


def test_routing_list_merges_records():
    routing = RoutingList()
    s1 = MPathSet((Path((1, 0, 3)), Path((1, 2, 3))))
    s2 = MPathSet((Path((3, 2, 1)), Path((3, 0, 1))))  # same set, reversed
    routing.add(s1, 10)
    assert routing.records() == (RoutingRecord(s1, 10),)
    routing.add(s2, 10)
    assert routing.records() == (RoutingRecord(s1, 20),)
    # sorted once per change, then served as the same tuple
    assert routing.records() is routing.records()
    assert rates_by_pair(routing.records()) == {(1, 3): 20}


def test_records_in_canonical_order(ring6):
    graph, target = ring6
    out = run(graph, target, RouterConfig(m=2, delta_r=10, seed=0))
    keys = [r.path_set.sort_key() for r in out.routing_list.records()]
    assert keys == sorted(keys)


def test_r_max_budget(ring6):
    graph, target = ring6
    out = run(graph, target, RouterConfig(m=2, delta_r=10, r_max=5, seed=0))
    assert out.iterations == 5
    assert out.stop_reason is StopReason.R_MAX
    assert out.final_delta > 0
    zero = run(graph, target, RouterConfig(m=2, delta_r=10, r_max=0, seed=0))
    assert zero.iterations == 0
    assert zero.stop_reason is StopReason.R_MAX
    assert len(zero.trace) == 1


def test_zero_target_returns_immediately(ring6):
    graph, _ = ring6
    out = run(graph, uniform_target(6, 0), RouterConfig(m=2, delta_r=10))
    assert out.iterations == 0
    assert out.stop_reason is StopReason.CONVERGED
    assert out.routing_list.effective(graph) == graph.rate_matrix()
    assert out.routing_list.records() == ()


def test_delta_r_required(ring6):
    graph, target = ring6
    with pytest.raises(ValidationError, match="delta_r"):
        run(graph, target, RouterConfig(m=2))


def test_disconnected_graph_refused():
    # a triangle and a separate edge, built directly rather than loaded
    graph = NetworkGraph(5, {(0, 1): 10, (0, 2): 10, (1, 2): 10, (3, 4): 10})
    with pytest.raises(ValidationError, match="graph must be connected"):
        run(graph, uniform_target(5, 1), RouterConfig(m=1, delta_r=1))


def test_direct_pair_worst_stop():
    # both 0-1 routes are far below target while the direct edge saturates
    graph = NetworkGraph(3, {(0, 1): 100, (0, 2): 1000, (1, 2): 1000})
    target = uniform_target(3, 500)
    out = run(graph, target, RouterConfig(m=1, delta_r=10, seed=0))
    assert out.stop_reason is StopReason.DIRECT_PAIR_WORST
    assert out.trace[-1].selected_pair is not None
    assert out.final_delta > 0


def test_no_m_set_stop():
    # chain graph: the remote pair has a single route, never two disjoint
    graph = NetworkGraph(3, {(0, 1): 1000, (1, 2): 1000})
    target = uniform_target(3, 100)
    out = run(graph, target, RouterConfig(m=2, delta_r=10, seed=0))
    assert out.stop_reason is StopReason.NO_M_SET
    assert out.trace[-1].selected_pair == (0, 2)
    assert out.iterations == 0


def test_guard_exhausted_stop():
    # relay edges too thin to give up a whole step
    graph = NetworkGraph(4, {(0, 1): 5, (1, 3): 5, (0, 2): 5, (2, 3): 5})
    target = uniform_target(4, 100)
    out = run(graph, target, RouterConfig(m=2, delta_r=10, seed=0))
    assert out.stop_reason is StopReason.GUARD_EXHAUSTED
    assert out.iterations == 0


def test_guard_lets_an_edge_give_up_its_last_step():
    # each relay edge holds exactly two steps; after the first it holds one,
    # which the guard still lets it give up
    graph = NetworkGraph(3, {(0, 1): 20, (1, 2): 20})
    target = RateMatrix(3, [0, 20, 0])
    out = run(graph, target, RouterConfig(m=1, delta_r=10, seed=0))
    assert out.stop_reason is StopReason.CONVERGED
    assert out.iterations == 2
    effective = out.routing_list.effective(graph)
    assert effective[0, 1] == effective[1, 2] == 0


def test_guard_off_stops_on_cost_instead():
    graph = NetworkGraph(4, {(0, 1): 5, (1, 3): 5, (0, 2): 5, (2, 3): 5})
    target = uniform_target(4, 100)
    out = run(
        graph, target,
        RouterConfig(m=2, delta_r=10, seed=0, strict_guard=False),
    )
    assert out.stop_reason is StopReason.COST_WORSENED
    # the rejected increment was not routed
    assert out.routing_list.effective(graph) == graph.rate_matrix()
    entry = out.trace[-1]
    assert entry.delta_after > entry.delta_before


def test_ring6_iteration_counts(ring6):
    graph, target = ring6
    for step, expected in [(10, 80), (5, 160), (1, 800)]:
        out = run(graph, target, RouterConfig(m=2, delta_r=step, seed=0))
        assert out.stop_reason is StopReason.CONVERGED
        assert out.iterations == expected
        assert out.final_delta == 0
        for i, j in graph.remote_pairs():
            assert out.routing_list.effective(graph)[i, j] == 100


def test_ring6_reference_solution(ring6):
    graph, target = ring6
    out = run(graph, target, RouterConfig(m=2, delta_r=10, seed=0))
    records = {str(r.path_set): r.rate for r in out.routing_list.records()}
    assert records == RING6_REFERENCE_RECORDS
    assert out.routing_list.effective(graph)[0, 1] == 400


def test_conservation_invariants(ring6):
    graph, target = ring6
    out = run(graph, target, RouterConfig(m=2, delta_r=10, seed=3))
    initial = graph.rate_matrix()
    consumed = {edge: 0 for edge in graph.edges}
    total_routed = 0
    for record in out.routing_list.records():
        total_routed += record.rate
        for path in record.path_set.paths:
            for edge in path.edges:
                consumed[edge] += record.rate
    effective = out.routing_list.effective(graph)
    for (u, v), used in consumed.items():
        assert effective[u, v] == initial[u, v] - used
        assert effective[u, v] >= 0
    assert total_routed == out.iterations * 10
    remote_sum = sum(int(effective[i, j]) for i, j in graph.remote_pairs())
    assert remote_sum == out.iterations * 10


def test_trace_has_single_terminal_row(ring6):
    graph, target = ring6
    out = run(graph, target, RouterConfig(m=2, delta_r=10, seed=0))
    reasons = [t.stop_reason for t in out.trace if t.stop_reason is not None]
    assert len(reasons) == 1
    assert out.trace[-1].stop_reason is StopReason.CONVERGED
    assert len(out.trace) == out.iterations + 1


def test_mesh10_plateau(mesh10):
    graph, target = mesh10
    out = run(graph, target, RouterConfig(m=2, delta_r=10, seed=0))
    assert out.stop_reason in (
        StopReason.DIRECT_PAIR_WORST,
        StopReason.COST_WORSENED,
        StopReason.GUARD_EXHAUSTED,
    )
    assert out.final_delta > 0
    deltas = [t.delta_after for t in out.trace if t.stop_reason is None]
    assert all(a >= b for a, b in zip(deltas, deltas[1:]))


@st.composite
def routing_cases(draw):
    """A connected graph with random rates and targets, and a router config
    with M up to 3 and a hop limit or none."""
    n = draw(st.integers(4, 8))
    pairs = list(itertools.combinations(range(n), 2))
    # a random spanning tree keeps the graph connected; chords add routes
    edges = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    edges |= draw(st.sets(st.sampled_from(pairs), min_size=2, max_size=2 * n))
    # edges mostly above the targets, so runs last beyond their first steps
    rates = {edge: draw(st.integers(20, 80)) for edge in sorted(edges)}
    graph = NetworkGraph(n, rates)
    upper = draw(st.lists(st.integers(0, 40), min_size=n * n, max_size=n * n))
    target = np.triu(np.array(upper, dtype=np.int64).reshape(n, n), k=1)
    config = RouterConfig(
        m=draw(st.integers(1, 3)),
        delta_r=draw(st.integers(1, 4)),
        r_max=200,
        seed=draw(st.integers(0, 2**32)),
        strict_guard=draw(st.booleans()),
        hop_limit=draw(st.one_of(st.none(), st.integers(1, 4))),
    )
    return graph, as_rate_matrix(target + target.T), config


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(routing_cases())
# the first step leaves both edges of the one route of (0, 2) empty, so
# the guard refuses the second
@example((NetworkGraph(3, {(0, 1): 10, (1, 2): 10}), RateMatrix(3, [0, 30, 0]),
          RouterConfig(m=1, delta_r=10, seed=0)))
def test_run_invariants_on_random_graphs(case):
    """Replays every accepted step against the ndarray references, and lists
    each step's guard-clear rows as the audit reference does."""
    graph, target, config = case
    step, guard = config.delta_r, config.strict_guard
    out = run(graph, target, config)
    audit = reference_audit(graph, target, config, out.trace)
    assert len(audit) == len(out.trace) - 1
    target = as_array(target)
    sets = {}
    tables = {}

    def pair_sets(pair):
        if pair not in sets:
            paths = enumerate_simple_paths(graph, *pair, config.hop_limit)
            sets[pair] = enumerate_m_path_sets(paths, config.m)
        return sets[pair]

    effective = graph.rate_matrix()
    for entry, rows in zip(out.trace, audit):
        deficiency = target - as_array(effective)
        assert entry.delta_before == reference_cost(target, effective)
        worst = reference_worst_pairs(deficiency)
        assert entry.selected_pair in worst and entry.pairs_tied == len(worst)
        pair = entry.selected_pair
        finalists = reference_finalists(pair_sets(pair), deficiency, effective, step, guard)
        assert entry.chosen_set in finalists and entry.sets_tied == len(finalists)
        if pair not in tables:
            tables[pair] = CandidateTable(graph, pair, config.m, config.hop_limit)
        assert rows == [
            (tuple(path.nodes for path in s.paths), score)
            for s, score, _ in tables[pair].scored(per_pair(deficiency))
            if not guard or guard_ok(s, effective, step)
        ]
        effective = apply_increment(effective, pair, entry.chosen_set, step, guard)
        assert entry.delta_after == reference_cost(target, effective) <= entry.delta_before
        # no edge's deficiency falls, so an edge short under the guard stays short
        after = target - as_array(effective)
        assert all(after[edge] >= deficiency[edge] for edge in graph.edges)
    final = out.routing_list.effective(graph)
    assert effective == final
    assert all(type(value) is int for value in final.cells)
    assert np.array_equal(as_array(final), as_array(final).T)
    # conservation: edge rates + pair credits - edge debits
    records = out.routing_list.records()
    expected = as_array(graph.rate_matrix())
    for record in records:
        (i, j), rate = record.pair, record.rate
        expected[i, j] += rate
        expected[j, i] += rate
        for u, v in record.path_set.edges:
            expected[u, v] -= rate
            expected[v, u] -= rate
    assert np.array_equal(as_array(final), expected)
    assert sum(record.rate for record in records) == out.iterations * step
    if guard:
        assert all(final[edge] >= 0 for edge in graph.edges)
    last = out.trace[-1]
    if last.stop_reason is StopReason.COST_WORSENED:
        assert last.delta_after > last.delta_before
    if last.stop_reason is StopReason.GUARD_EXHAUSTED:
        # every set of the pair crosses an edge holding less than delta_r
        assert not any(guard_ok(s, effective, step) for s in pair_sets(last.selected_pair))


def replay_tie_draws(graph, target, config) -> int:
    """Replays a run's tie draws from ``TieBreakStream(config.seed)``
    against the ndarray references, and counts the steps after which a
    pair joined a level that was not emptied.

    At each served pair, the next draw over the reference's worst pairs,
    in row order, gives the pair; the draw after it, over the reference
    finalists in table order, gives the chosen set.  A draw over one item
    takes nothing from the stream.
    """
    out = run(graph, target, config)
    draw = TieBreakStream(config.seed).integers
    target = as_array(target)
    effective = graph.rate_matrix()
    sets = {}
    joined = 0
    level = top = None
    for entry in out.trace:
        if entry.selected_pair is None:
            break
        deficiency = target - as_array(effective)
        worst = reference_worst_pairs(deficiency)
        assert entry.pairs_tied == len(worst)
        assert worst[draw(len(worst))] == entry.selected_pair
        if top == deficiency[worst[0]] and not set(worst) <= level:
            joined += 1
        if entry.chosen_set is None:
            break
        pair = entry.selected_pair
        if pair not in sets:
            paths = enumerate_simple_paths(graph, *pair, config.hop_limit)
            sets[pair] = enumerate_m_path_sets(paths, config.m)
        finalists = reference_finalists(
            sets[pair], deficiency, effective, config.delta_r, config.strict_guard
        )
        assert finalists[draw(len(finalists))] == entry.chosen_set
        effective = apply_increment(effective, pair, entry.chosen_set, config.delta_r)
        level, top = set(worst) - {pair}, deficiency[worst[0]]
    return joined


def test_run_searches_each_source_once_for_its_remote_goals_above_it(monkeypatch):
    """A pair's paths come from one search per source, which lists the
    paths to every node above the source that it has no link to."""
    graph, target, config = load_network(NETWORKS_DIR / "mesh10.json")
    searches = []
    original = engine_module._goal_paths

    def spy(graph, start, goals, hop_limit):
        searches.append((start, list(goals)))
        return original(graph, start, goals, hop_limit)

    monkeypatch.setattr(engine_module, "_goal_paths", spy)
    outcome = run(graph, target, config)
    served = {entry.selected_pair for entry in outcome.trace} - {None, *graph.rates}
    assert len({pair[0] for pair in served}) < len(served)
    assert sorted(searches) == [
        (i, [j for j in range(i + 1, graph.node_count) if (i, j) not in graph.rates])
        for i in sorted({pair[0] for pair in served})
    ]


@pytest.mark.parametrize("name", ["dense5", "k23", "mesh10", "ring6_chord"])
def test_tie_draws_replay_on_the_fixtures(name):
    graph, target, config = load_network(NETWORKS_DIR / f"{name}.json")
    for seed in range(3):
        replay_tie_draws(graph, target, config.replace(seed=seed))


def test_tie_draws_replay_when_an_edge_joins_the_level():
    # on the path 0-1-2-3 the remote pairs start at deficiency 10; edge
    # (0, 1) starts one step below, so serving (0, 2) or (0, 3) lifts it
    # to 10 while other pairs are still at 10.  It sorts before them all,
    # and once drawn it ends the run as a direct link.
    graph = NetworkGraph(4, {(0, 1): 100, (1, 2): 100, (2, 3): 100})
    target = RateMatrix(4, [109, 10, 10, 0, 10, 0])
    joined = [
        replay_tie_draws(graph, target, RouterConfig(m=1, delta_r=1, seed=seed))
        for seed in range(5)
    ]
    assert any(joined)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(routing_cases())
def test_tie_draws_replay_on_random_graphs(case):
    replay_tie_draws(*case)
