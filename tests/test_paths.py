from __future__ import annotations

import gc
import itertools
import random
import sys
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.connectivity import local_node_connectivity

from qkdroute import paths as paths_module
from qkdroute.model import NetworkGraph
from qkdroute.paths import (
    MPathSet,
    PairPathCache,
    Path,
    enumerate_m_path_sets,
    enumerate_simple_paths,
    find_unroutable_pairs,
    set_deficiency,
)

from conftest import as_array
from oracles import dfs_simple_paths, ordered_disjoint_subsets, reference_unroutable_pairs


def adjacency_of(graph):
    return {u: set(graph.neighbors(u)) for u in range(graph.node_count)}


def grid_graph(side):
    rates = {}
    for node in range(side * side):
        if node % side + 1 < side:
            rates[(node, node + 1)] = 100
        if node + side < side * side:
            rates[(node, node + side)] = 100
    return NetworkGraph(side * side, rates)


# two triangles sharing node 2: every degree is >= 2, yet no pair across the
# cut vertex has two internally disjoint paths
BOWTIE = NetworkGraph(5, {(0, 1): 100, (0, 2): 100, (1, 2): 100, (2, 3): 100,
                          (2, 4): 100, (3, 4): 100})


def test_path_orientation_and_equality():
    assert Path((3, 1, 0)).nodes == (0, 1, 3)
    assert Path((0, 1, 3)) == Path((3, 1, 0))
    assert Path((0, 2, 4)).endpoints == (0, 4)
    assert Path((0, 2, 4)).hops == 2
    assert Path((0, 2, 4)).interior == {2}
    assert Path((1, 0, 2, 3)).edges == ((0, 1), (0, 2), (2, 3))


def test_path_rejects_degenerate():
    with pytest.raises(ValueError):
        Path((0,))
    with pytest.raises(ValueError):
        Path((0, 1, 0))


def test_mpathset_canonical_form():
    a = MPathSet((Path((1, 2, 3)), Path((1, 0, 3))))
    b = MPathSet((Path((3, 0, 1)), Path((1, 2, 3))))
    assert a == b and hash(a) == hash(b)
    assert [p.nodes for p in a.paths] == [(1, 0, 3), (1, 2, 3)]
    assert a.endpoints == (1, 3)
    assert a.total_hops == 4
    assert str(a) == "{(1, 0, 3), (1, 2, 3)}"


def test_mpathset_rejects_overlap_and_mismatch():
    with pytest.raises(ValueError, match="interior"):
        MPathSet((Path((0, 1, 4)), Path((0, 1, 2, 4))))
    with pytest.raises(ValueError, match="endpoints"):
        MPathSet((Path((0, 1, 4)), Path((0, 1, 2))))
    with pytest.raises(ValueError, match="duplicate"):
        MPathSet((Path((0, 1, 4)), Path((4, 1, 0))))


def test_k23_enumeration(k23):
    graph, _ = k23
    paths = enumerate_simple_paths(graph, 0, 4)
    assert [p.nodes for p in paths] == [(0, 1, 4), (0, 2, 4), (0, 3, 4)]
    sets = enumerate_m_path_sets(paths, 2)
    assert len(sets) == 3
    assert enumerate_simple_paths(graph, 4, 0) == paths
    with pytest.raises(ValueError, match="duplicate"):
        enumerate_m_path_sets(paths + paths[:1], 1)


def test_dense5_enumeration(dense5):
    graph, _ = dense5
    paths = enumerate_simple_paths(graph, 1, 3)
    assert len(paths) == 9
    listed = {p.nodes for p in paths}
    for expected in [(1, 0, 3), (1, 2, 3), (1, 4, 3), (1, 0, 2, 3),
                     (1, 4, 2, 3), (1, 2, 4, 3), (1, 2, 0, 3)]:
        assert expected in listed
    sets = enumerate_m_path_sets(paths, 2)
    assert len(sets) == 7


def test_lexicographic_order(dense5):
    graph, _ = dense5
    paths = enumerate_simple_paths(graph, 1, 3)
    sequences = [p.nodes for p in paths]
    assert sequences == sorted(sequences)
    sets = enumerate_m_path_sets(paths, 2)
    keys = [s.sort_key() for s in sets]
    assert keys == sorted(keys)


def test_hop_limit(dense5):
    graph, _ = dense5
    short = enumerate_simple_paths(graph, 1, 3, hop_limit=2)
    assert [p.nodes for p in short] == [(1, 0, 3), (1, 2, 3), (1, 4, 3)]
    with pytest.raises(ValueError):
        enumerate_simple_paths(graph, 1, 3, hop_limit=0)


def test_endpoint_validation(dense5):
    graph, _ = dense5
    with pytest.raises(ValueError):
        enumerate_simple_paths(graph, 2, 2)
    with pytest.raises(ValueError):
        enumerate_simple_paths(graph, 0, 9)


def test_m1_sets_are_singletons(k23):
    graph, _ = k23
    paths = enumerate_simple_paths(graph, 0, 4)
    singles = enumerate_m_path_sets(paths, 1)
    assert len(singles) == len(paths)
    assert all(s.m == 1 for s in singles)


def test_matches_dfs_oracle_on_fixtures(dense5, ring6, mesh10):
    for graph in (dense5[0], ring6[0], mesh10[0]):
        adj = adjacency_of(graph)
        for i in range(graph.node_count):
            for j in range(i + 1, graph.node_count):
                ours = {p.nodes for p in enumerate_simple_paths(graph, i, j)}
                assert ours == dfs_simple_paths(adj, i, j)


def test_disjoint_sets_match_oracle(k23, dense5, ring6, mesh10):
    """Same sets in the same order: seeded tie-breaks index into the sequence."""
    for graph in (k23[0], dense5[0], ring6[0], mesh10[0]):
        adj = adjacency_of(graph)
        for i, j in itertools.combinations(range(graph.node_count), 2):
            paths = enumerate_simple_paths(graph, i, j)
            oracle_paths = dfs_simple_paths(adj, i, j)
            for m in (1, 2, 3):
                expected = ordered_disjoint_subsets(oracle_paths, m)
                assert [s.sort_key() for s in enumerate_m_path_sets(paths, m)] == expected


def test_random_graphs_match_oracle():
    rng = random.Random(20240)
    for trial in range(120):
        n = rng.randint(4, 8)
        edges = {}
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < 0.45:
                edges[(u, v)] = 100
        # splice disconnected attempts into one component
        graph = None
        try:
            graph = NetworkGraph(n, edges)
        except Exception:
            continue
        if not graph.is_connected():
            continue
        adj = adjacency_of(graph)
        i, j = sorted(rng.sample(range(n), 2))
        hop_limit = rng.choice([None, 2, 3])
        ours = enumerate_simple_paths(graph, i, j, hop_limit)
        oracle_paths = dfs_simple_paths(adj, i, j, hop_limit)
        assert {p.nodes for p in ours} == oracle_paths
        for m in (1, 2, 3):
            expected = ordered_disjoint_subsets(oracle_paths, m)
            assert [s.sort_key() for s in enumerate_m_path_sets(ours, m)] == expected


def test_paths_longer_than_the_recursion_limit():
    n = 1100
    assert n > sys.getrecursionlimit()
    ring = NetworkGraph(n, {(k, (k + 1) % n): 100 for k in range(n)})
    paths = enumerate_simple_paths(ring, 0, 2)
    assert [p.nodes for p in paths] == [(0, 1, 2), (0, *range(n - 1, 1, -1))]
    assert [s.sort_key() for s in enumerate_m_path_sets(paths, 2)] == [
        tuple(p.nodes for p in paths)
    ]


def test_set_deficiency_takes_worst_edge(dense5):
    graph, target = dense5
    deficiency = as_array(target) - as_array(graph.rate_matrix())
    s = MPathSet((Path((1, 0, 3)), Path((1, 2, 3))))
    assert set_deficiency(s, deficiency) == -300
    s2 = MPathSet((Path((1, 0, 3)), Path((1, 2, 4, 3))))
    assert set_deficiency(s2, deficiency) == -100


def test_pair_path_cache_consistency(dense5):
    graph, _ = dense5
    cache = PairPathCache(graph, 2)
    first = cache.m_path_sets((1, 3))
    again = cache.m_path_sets((3, 1))
    assert first is again
    assert first == enumerate_m_path_sets(enumerate_simple_paths(graph, 1, 3), 2)


def test_find_unroutable_pairs():
    graph = NetworkGraph(4, {(0, 1): 100, (1, 2): 100, (2, 3): 100, (0, 2): 100,
                             (1, 3): 100})
    assert find_unroutable_pairs(graph, 2) == ()
    # on a path graph no pair has two disjoint routes
    chain = NetworkGraph(4, {(0, 1): 100, (1, 2): 100, (2, 3): 100})
    assert find_unroutable_pairs(chain, 2) == ((0, 2), (0, 3), (1, 3))


def test_find_unroutable_pairs_refuses_hop_limit_below_one():
    # refused whether or not some pair reaches the hop-limited confirmation:
    # K4 has no remote pair, the 4-cycle two
    k4 = NetworkGraph(4, {pair: 100 for pair in itertools.combinations(range(4), 2)})
    cycle = NetworkGraph(4, {(0, 1): 100, (1, 2): 100, (2, 3): 100, (0, 3): 100})
    for graph in (k4, cycle):
        for hop_limit in (0, -1):
            with pytest.raises(ValueError, match="hop_limit must be at least 1"):
                find_unroutable_pairs(graph, 2, hop_limit)


def test_unroutable_scan_holds_one_pair_at_a_time():
    # 4x4 grid: 96 remote pairs, up to hundreds of disjoint sets each
    side = 4
    rates = {}
    for node in range(side * side):
        if node % side + 1 < side:
            rates[(node, node + 1)] = 100
        if node + side < side * side:
            rates[(node, node + side)] = 100
    graph = NetworkGraph(side * side, rates)
    tracemalloc.start()
    try:
        cache = PairPathCache(graph, 2)
        for pair in graph.remote_pairs():
            cache.m_path_sets(pair)
        gc.collect()
        every_pair, _ = tracemalloc.get_traced_memory()
        del cache
        gc.collect()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        assert find_unroutable_pairs(graph, 2) == ()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < every_pair / 4


@st.composite
def connected_graphs(draw):
    """A random spanning tree on 4-10 nodes plus up to n extra edges."""
    n = draw(st.integers(4, 10))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=n)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return NetworkGraph(n, dict.fromkeys(edges, 100))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(graph=connected_graphs(), m=st.integers(1, 3),
       hop_limit=st.none() | st.integers(1, 4))
def test_unroutable_pairs_match_enumeration(graph, m, hop_limit):
    found = find_unroutable_pairs(graph, m, hop_limit)
    assert found == reference_unroutable_pairs(graph, m, hop_limit)
    if hop_limit is None:
        # Menger: a non-adjacent pair has m disjoint paths iff no m - 1
        # interior nodes separate it
        nx_graph = nx.Graph(list(graph.rates))
        assert found == tuple(
            (i, j) for i, j in graph.remote_pairs()
            if local_node_connectivity(nx_graph, i, j) < m
        )


def _refuse_enumeration(*args, **kwargs):
    raise AssertionError("the scan enumerated paths")


def test_unroutable_scan_without_hop_limit_enumerates_nothing(monkeypatch):
    monkeypatch.setattr(paths_module, "enumerate_simple_paths", _refuse_enumeration)
    monkeypatch.setattr(paths_module, "enumerate_m_path_sets", _refuse_enumeration)
    assert find_unroutable_pairs(grid_graph(4), 2) == ()
    assert find_unroutable_pairs(BOWTIE, 2) == ((0, 3), (0, 4), (1, 3), (1, 4))


def test_hop_limited_scan_enumerates_only_pairs_that_pass_the_flow_test(monkeypatch):
    enumerated = []
    original = paths_module.enumerate_simple_paths

    def spy(graph, i, j, hop_limit=None):
        enumerated.append((i, j))
        return original(graph, i, j, hop_limit)

    monkeypatch.setattr(paths_module, "enumerate_simple_paths", spy)
    # every remote pair of the bowtie lies across the cut vertex
    assert find_unroutable_pairs(BOWTIE, 2, hop_limit=3) == ((0, 3), (0, 4), (1, 3), (1, 4))
    assert enumerated == []
    # a square 0-1-2-5 in place of the left triangle: (0, 2) and (1, 5) pass
    # the flow test and are confirmed, the six pairs across node 2 are not tried
    square = NetworkGraph(6, {(0, 1): 100, (1, 2): 100, (2, 5): 100, (0, 5): 100,
                              (2, 3): 100, (2, 4): 100, (3, 4): 100})
    assert find_unroutable_pairs(square, 2, hop_limit=2) == (
        (0, 3), (0, 4), (1, 3), (1, 4), (3, 5), (4, 5))
    assert enumerated == [(0, 2), (1, 5)]


def test_six_by_six_grid_is_routable():
    # 570 remote pairs: far beyond an enumeration scan in a test run
    assert find_unroutable_pairs(grid_graph(6), 2) == ()
