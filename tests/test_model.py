from __future__ import annotations

import itertools
import pickle
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkdroute.engine import RoutingList, RoutingOutcome, RoutingRecord, run
from qkdroute.keysim import CompromiseReport, KeyPool, KeySimulation, PairKey, simulate
from qkdroute.model import (
    NetworkGraph,
    RateMatrix,
    RouterConfig,
    ValidationError,
    check_target_matrix,
    pair_position,
    uniform_target,
    validate,
)
from qkdroute.paths import MPathSet, Path
from qkdroute.units import UnitScale

from conftest import as_array, as_rate_matrix


def test_graph_basics(ring6):
    graph, _ = ring6
    assert graph.node_count == 6
    assert graph.has_edge(0, 1) and graph.has_edge(1, 0)
    assert not graph.has_edge(0, 2)
    assert graph.rate(3, 0) == 1000
    assert graph.rate(0, 5) == 0
    assert graph.neighbors(1) == (0, 2, 4)
    assert graph.degree(2) == 3
    assert graph.is_connected()
    assert graph.remote_pairs() == (
        (0, 2), (0, 4), (0, 5), (1, 3), (1, 5), (2, 4), (3, 4), (3, 5)
    )


def test_rate_matrix_symmetry(dense5):
    graph, _ = dense5
    mat = graph.rate_matrix()
    assert all(type(value) is int for value in mat.cells)
    assert np.array_equal(as_array(mat), as_array(mat).T)
    assert mat[0, 1] == 500 and mat[2, 4] == 300
    assert mat[0, 4] == 0 and as_array(mat).diagonal().sum() == 0


def test_graph_rejects_self_loop():
    with pytest.raises(ValidationError, match="self-loop"):
        NetworkGraph(3, {(0, 0): 100, (0, 1): 100, (1, 2): 100})


def test_graph_rejects_bad_rates():
    with pytest.raises(ValidationError, match="positive"):
        NetworkGraph(2, {(0, 1): 0})
    with pytest.raises(ValidationError, match="positive"):
        NetworkGraph(2, {(0, 1): -5})


def test_graph_takes_any_integral_rate():
    graph = NetworkGraph(2, {(0, 1): np.int64(5)})
    assert graph.rates == {(0, 1): 5} and type(graph.rates[(0, 1)]) is int
    for rate in (True, 5.0):
        with pytest.raises(ValidationError, match="integer unit count"):
            NetworkGraph(2, {(0, 1): rate})


def test_graph_rejects_duplicate_edge():
    with pytest.raises(ValidationError, match="duplicate"):
        NetworkGraph(2, {(0, 1): 100, (1, 0): 100})


def test_graph_rejects_unknown_node():
    with pytest.raises(ValidationError, match="unknown node"):
        NetworkGraph(2, {(0, 5): 100})


def test_disconnected_graph_detected():
    graph = NetworkGraph(4, {(0, 1): 100, (2, 3): 100})
    assert not graph.is_connected()
    assert not validate(graph, 1).connected


def test_uniform_target():
    target = uniform_target(3, 250)
    assert target[0, 1] == 250 and target[1, 0] == 250
    assert as_array(target).diagonal().sum() == 0
    check_target_matrix(target, 3)


@st.composite
def pair_cells(draw):
    """A node count n and n(n - 1)/2 cells for it."""
    n = draw(st.integers(1, 12))
    count = n * (n - 1) // 2
    return n, draw(st.lists(st.integers(-10**20, 10**20), min_size=count, max_size=count))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(pair_cells())
# (2, 0) read at the position of (2, 0) reads the cell of (0, 3)
@example((4, [1, 2, 3, 4, 5, 6]))
def test_rate_matrix_holds_one_cell_per_pair_in_pair_position_order(case):
    n, cells = case
    mat = RateMatrix(n, cells)
    assert mat.cells == tuple(cells)
    pairs = list(itertools.combinations(range(n), 2))
    for i, j in pairs:
        assert mat[i, j] == mat[j, i] == cells[pair_position(i, j, n)]
    rows = mat.tolist()
    assert rows == [list(column) for column in zip(*rows)]
    assert [rows[i][j] for i, j in pairs] == cells
    assert all(mat[u, u] == 0 == rows[u][u] for u in range(n))
    for outside in ((n, 0), (0, n), (-1, 0)):
        with pytest.raises(IndexError):
            mat[outside]
    with pytest.raises(ValueError, match="cells do not hold"):
        RateMatrix(n, cells + [0])


def test_target_matrix_checks():
    # a RateMatrix is symmetric with a zero diagonal by construction; the
    # file reader refuses target rows that are not (see test_netfile)
    with pytest.raises(ValidationError, match="must be 3x3"):
        check_target_matrix(uniform_target(4, 100), 3)
    neg = as_array(uniform_target(3, 100))
    neg[0, 2] = neg[2, 0] = -5
    with pytest.raises(ValidationError, match="non-negative"):
        check_target_matrix(as_rate_matrix(neg), 3)


def test_validate_degree_requirements(ring6, k23):
    graph, _ = ring6
    report = validate(graph, 2)
    assert report.ok
    assert report.min_degree == 2
    assert report.degree_violations == ()

    path_graph = NetworkGraph(3, {(0, 1): 100, (1, 2): 100})
    report = validate(path_graph, 2)
    assert report.degree_violations == (0, 2)
    assert not report.ok

    k23_graph, _ = k23
    assert validate(k23_graph, 2).ok
    assert validate(k23_graph, 3).degree_violations == (1, 2, 3)


def test_validate_rejects_bad_m(ring6):
    graph, _ = ring6
    with pytest.raises(ValueError):
        validate(graph, 0)


def test_router_config_invariants():
    config = RouterConfig()
    assert config.m == 2 and config.strict_guard and config.delta_r is None
    with pytest.raises(ValidationError):
        RouterConfig(m=0)
    with pytest.raises(ValidationError):
        RouterConfig(delta_r=0)
    with pytest.raises(ValidationError):
        RouterConfig(r_max=-1)
    with pytest.raises(ValidationError):
        RouterConfig(hop_limit=0)
    with pytest.raises(ValidationError):
        RouterConfig(seed=2**64)
    RouterConfig(r_max=0, delta_r=1, hop_limit=1, seed=2**64 - 1)


def test_router_config_replace_runs_the_checks():
    config = RouterConfig(delta_r=5, seed=3, hop_limit=4)
    assert config.replace(m=3) == RouterConfig(m=3, delta_r=5, seed=3, hop_limit=4)
    assert config.replace() == config
    for change in ({"m": 0}, {"seed": -1}, {"hop_limit": 0}, {"delta_r": 0}, {"r_max": -1},
                   {"seed": 2**64}):
        with pytest.raises(ValidationError):
            config.replace(**change)
    with pytest.raises(TypeError):
        config.replace(step=1)


def test_values_compare_hash_show_and_pickle_by_their_fields():
    # as frozen dataclasses did: equal fields are equal values of one class,
    # fields cannot be assigned, and a copy is rebuilt through the checks
    config = RouterConfig(delta_r=5)
    matrices = [RateMatrix(3, [1, 2, 3]), RateMatrix(3, (1, 2, 3)), RateMatrix(3, [1, 2, 4])]
    assert matrices[0] == matrices[1] != matrices[2]
    assert hash(matrices[0]) == hash(matrices[1])
    assert matrices[0] != (3, (1, 2, 3)) and RateMatrix(1, []) != UnitScale(1)
    assert UnitScale(Decimal("0.5")) == UnitScale("0.5") != UnitScale(1)
    assert repr(config) == ("RouterConfig(m=2, delta_r=5, r_max=None, seed=0, "
                            "hop_limit=None, strict_guard=True)")
    assert repr(UnitScale(2)) == "UnitScale(resolution_bps=Decimal('2'))"
    graph = NetworkGraph(3, {(1, 0): 2, (1, 2): 1})
    assert repr(graph) == ("NetworkGraph(node_count=3, rates={(0, 1): 2, (1, 2): 1}, "
                           "scale=UnitScale(resolution_bps=Decimal('1')))")
    with pytest.raises(AttributeError):
        config.m = 0
    with pytest.raises(AttributeError):
        del config.m
    with pytest.raises(AttributeError):
        graph.extra = 1
    for value in (config, matrices[0], UnitScale(2)):
        assert pickle.loads(pickle.dumps(value)) == value
    copied = pickle.loads(pickle.dumps(graph))
    assert (copied.rates, copied.scale, copied.neighbors(1)) == (graph.rates, graph.scale, (0, 2))

    # the values of paths, engine and keysim likewise
    path = Path((2, 1, 0))
    assert path == Path([0, 1, 2]) != Path((0, 3, 2)) and path != (0, 1, 2)
    assert (path.interior, path.edges) == ({1}, ((0, 1), (1, 2)))
    path_set = MPathSet([Path((0, 3, 2)), path])
    assert path_set == MPathSet((path, Path((2, 3, 0)))) != MPathSet((path,))
    # the hashes a frozen dataclass gave them
    assert hash(path) == hash(((0, 1, 2),))
    assert hash(path_set) == hash(path_set.sort_key()) == hash(((0, 1, 2), (0, 3, 2)))
    assert repr(path) == "Path(nodes=(0, 1, 2))"
    assert repr(path_set) == "MPathSet(paths=(Path(nodes=(0, 1, 2)), Path(nodes=(0, 3, 2))))"
    record = RoutingRecord(path_set, 5)
    assert record == RoutingRecord(MPathSet([Path((0, 3, 2)), path]), 5) != RoutingRecord(
        path_set, 6)
    assert hash(record) == hash((path_set, 5)) and record.pair == (0, 2)
    assert repr(record) == f"RoutingRecord(path_set={path_set!r}, rate=5)"
    routing = RoutingList()
    outcome = RoutingOutcome(routing, ())
    # a routing list is equal only to itself
    assert outcome == RoutingOutcome(routing, ()) != RoutingOutcome(RoutingList(), ())
    assert repr(outcome) == f"RoutingOutcome(routing_list={routing!r}, trace=())"
    report = CompromiseReport(frozenset({1}), {(0, 2): "secure"}, {(0, 2): 0})
    assert report == CompromiseReport(frozenset({1}), {(0, 2): "secure"}, {(0, 2): 0}, None)
    assert report.bound is None and report != CompromiseReport(frozenset(), {}, {})
    key = PairKey(np.array([0xA0], np.uint8), 3, True)
    assert repr(key) == "PairKey(packed=array([160], dtype=uint8), length=3, agreed=True)"
    for value, field in ((path, "nodes"), (path, "_edges"), (path_set, "paths"),
                         (path_set, "_hash"), (record, "rate"), (outcome, "trace"),
                         (report, "bound"), (key, "agreed")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    for value in (path, path_set, record, report):
        assert pickle.loads(pickle.dumps(value)) == value
    # a value with a mapping field is unhashable, as a frozen dataclass was
    with pytest.raises(TypeError):
        hash(report)
    copied = pickle.loads(pickle.dumps(key))
    assert (copied.packed.tobytes(), copied.length, copied.agreed) == (b"\xa0", 3, True)
    # a simulation keeps its routing list, so it is equal only to one of the same list
    graph = NetworkGraph(4, {(0, 1): 2, (1, 2): 2, (2, 3): 2, (0, 3): 2})
    sim = simulate(graph, run(graph, uniform_target(4, 1), RouterConfig(delta_r=1)).routing_list, 4)
    assert sim == KeySimulation(*(getattr(sim, name) for name in KeySimulation.__slots__))
    assert sim.pair_keys[0, 2].length == 4
    with pytest.raises(AttributeError):
        sim.seed = 1
    # a pool is a plain record of one draw, mutable and without a __dict__
    pool = KeyPool(np.zeros(1, np.uint8), 8, 13)
    assert len(pool) == 5 and not hasattr(pool, "__dict__")
