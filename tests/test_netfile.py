from __future__ import annotations

import itertools
import json
import tempfile
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdroute.model import NetworkGraph, RouterConfig, ValidationError
from qkdroute.netfile import NetworkFormatError, load_network
from qkdroute.units import UnitScale

from conftest import as_array


def write(tmp_path, doc, name="net.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


BASE = {
    "nodes": 3,
    "edges": [
        {"u": 0, "v": 1, "rate_kbps": 0.5},
        {"u": 1, "v": 2, "rate_kbps": 0.25},
        {"u": 0, "v": 2, "rate_kbps": 1},
    ],
    "target": 0.1,
}


def test_load_minimal(tmp_path):
    graph, target, config = load_network(write(tmp_path, BASE))
    assert graph.node_count == 3
    assert graph.rate(0, 1) == 500
    assert graph.rate(1, 2) == 250
    assert graph.rate(0, 2) == 1000
    assert target[0, 1] == 100 and target[2, 2] == 0
    # router defaults apply when the section is missing
    assert config.m == 2 and config.delta_r is None and config.strict_guard


def test_load_full_router(tmp_path):
    doc = dict(BASE)
    doc["router"] = {
        "M": 3, "delta_r_kbps": 0.01, "r_max": 50, "seed": 9,
        "hop_limit": 4, "strict_guard": False,
    }
    _, _, config = load_network(write(tmp_path, doc))
    assert config == RouterConfig(
        m=3, delta_r=10, r_max=50, seed=9, hop_limit=4, strict_guard=False
    )


def test_load_matrix_target(tmp_path):
    doc = dict(BASE)
    doc["nodes"] = 2
    doc["edges"] = [{"u": 0, "v": 1, "rate_kbps": 1}]
    doc["target"] = [[0, 0.2], [0.2, 0]]
    _, target, _ = load_network(write(tmp_path, doc))
    assert target[0, 1] == 200


def test_load_fixture_files(dense5_file, ring6_file, mesh10_file):
    graph, target, config = load_network(dense5_file)
    assert graph.rate(3, 4) == 600
    assert target[1, 3] == 200
    assert config.delta_r == 100 and config.seed == 4
    graph, _, _ = load_network(ring6_file)
    assert len(graph.edges) == 7
    graph, _, _ = load_network(mesh10_file)
    assert graph.node_count == 10 and len(graph.edges) == 13


def test_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(NetworkFormatError, match="cannot parse"):
        load_network(path)


def test_schema_errors(tmp_path):
    doc = dict(BASE)
    doc["edges"] = BASE["edges"] + [{"u": 1, "v": 0, "rate_kbps": 0.5}]
    with pytest.raises(NetworkFormatError, match="duplicate"):
        load_network(write(tmp_path, doc))

    doc = dict(BASE)
    doc["edges"] = [{"u": 0, "v": 0, "rate_kbps": 0.5}] + BASE["edges"]
    with pytest.raises(NetworkFormatError, match="self-loop"):
        load_network(write(tmp_path, doc))

    doc = dict(BASE)
    doc["edges"] = [{"u": 0, "v": 1, "rate_kbps": -1}] + BASE["edges"][1:]
    with pytest.raises(NetworkFormatError, match="positive"):
        load_network(write(tmp_path, doc))

    doc = dict(BASE)
    doc["target"] = [[0, 0.1, 0.1], [0.1, 0, 0.2], [0.2, 0.1, 0]]
    with pytest.raises(NetworkFormatError, match="symmetric"):
        load_network(write(tmp_path, doc))

    doc = dict(BASE)
    doc["target"] = [[0, 0.1, 0.1], [0.1, 0.3, 0.1], [0.1, 0.1, 0]]
    with pytest.raises(NetworkFormatError, match="diagonal must be zero"):
        load_network(write(tmp_path, doc))

    doc = dict(BASE)
    doc["target"] = [[0, 0.1, -0.1], [0.1, 0, 0.1], [-0.1, 0.1, 0]]
    with pytest.raises(NetworkFormatError, match="non-negative"):
        load_network(write(tmp_path, doc))

    doc = dict(BASE)
    doc["surprise"] = 1
    with pytest.raises(NetworkFormatError, match="unknown top-level"):
        load_network(write(tmp_path, doc))

    doc = dict(BASE)
    doc["router"] = {"delta_r": 0.1}
    with pytest.raises(NetworkFormatError, match="unknown router"):
        load_network(write(tmp_path, doc))


def test_unrepresentable_rate_is_schema_error(tmp_path):
    doc = dict(BASE)
    doc["edges"] = [{"u": 0, "v": 1, "rate_kbps": 0.00001}] + BASE["edges"][1:]
    with pytest.raises(NetworkFormatError, match="not representable"):
        load_network(write(tmp_path, doc))


def test_resolution_field(tmp_path):
    doc = dict(BASE)
    doc["resolution_bps"] = 0.01
    doc["edges"] = [{"u": 0, "v": 1, "rate_kbps": 0.00001}] + BASE["edges"][1:]
    graph, _, _ = load_network(write(tmp_path, doc))
    assert graph.rate(0, 1) == 1
    assert graph.scale.resolution_bps == Decimal("0.01")


def test_disconnected_rejected_at_load(tmp_path):
    # two edges cannot connect four nodes; a triangle plus a separate edge
    # has enough edges and is refused by the connectivity search instead
    cases = (
        (4, [(0, 1), (2, 3)], "disconnected: 4 nodes cannot be connected"),
        (5, [(0, 1), (0, 2), (1, 2), (3, 4)], "graph is disconnected$"),
    )
    for nodes, edges, message in cases:
        doc = {
            "nodes": nodes,
            "edges": [{"u": u, "v": v, "rate_kbps": 1} for u, v in edges],
            "target": 0.1,
        }
        with pytest.raises(ValidationError, match=message):
            load_network(write(tmp_path, doc))


def test_node_count_beyond_the_edges_refused_before_building(tmp_path):
    # one edge connects at most two nodes; the graph is never allocated
    doc = {"nodes": 100_000, "edges": [{"u": 0, "v": 1, "rate_kbps": 1}]}
    with pytest.raises(ValidationError, match="disconnected") as refused:
        load_network(write(tmp_path, doc))
    assert "100000 nodes" in str(refused.value) and "1 edges" in str(refused.value)


@st.composite
def network_files(draw):
    """A connected network file with every rate spelled as a kbit/s string at
    a drawn resolution, and the graph, target matrix and config it holds."""
    n = draw(st.integers(2, 7))
    pairs = list(itertools.combinations(range(n), 2))
    edges = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    edges |= draw(st.sets(st.sampled_from(pairs)))
    units = st.integers(1, 10**9)
    resolution = draw(st.sampled_from(["1", "0.5", "3", "1000", "0.001"]))
    scale = UnitScale(Decimal(resolution))
    graph = NetworkGraph(n, {edge: draw(units) for edge in edges}, scale)
    if draw(st.booleans()):
        upper = np.array(draw(st.lists(units, min_size=n * n, max_size=n * n)))
        target = np.triu(upper.reshape(n, n), k=1)
        target = target + target.T
        target_doc = [[scale.kbps_str(value) for value in row] for row in target.tolist()]
    else:
        value = draw(units)
        target = np.full((n, n), value, dtype=np.int64)
        np.fill_diagonal(target, 0)
        target_doc = scale.kbps_str(value)
    config = RouterConfig(
        m=draw(st.integers(1, 4)),
        delta_r=draw(st.none() | units),
        r_max=draw(st.none() | st.integers(0, 10**6)),
        seed=draw(st.integers(0, 2**64 - 1)),
        hop_limit=draw(st.none() | st.integers(1, 8)),
        strict_guard=draw(st.booleans()),
    )
    doc = {
        "nodes": n,
        "edges": [
            {"u": u, "v": v, "rate_kbps": scale.kbps_str(graph.rate(u, v))}
            for u, v in graph.edges
        ],
        "target": target_doc,
        "router": {
            "M": config.m,
            "delta_r_kbps": None if config.delta_r is None else scale.kbps_str(config.delta_r),
            "r_max": config.r_max,
            "seed": config.seed,
            "hop_limit": config.hop_limit,
            "strict_guard": config.strict_guard,
        },
    }
    # the loader's default resolution is 1 bit/s
    if resolution != "1":
        doc["resolution_bps"] = resolution
    return doc, graph, target, config


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(network_files())
def test_round_trip_random_networks(case):
    """Rates spelled at resolutions from 0.001 to 1000 bit/s load exactly."""
    doc, graph, target, config = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.json"
        path.write_text(json.dumps(doc))
        graph2, target2, config2 = load_network(path)
    assert graph2.node_count == graph.node_count
    assert graph2.rates == graph.rates
    assert graph2.scale == graph.scale
    assert np.array_equal(as_array(target2), target)
    assert config2 == config
