from __future__ import annotations

import functools
import hashlib
import itertools
import json
import operator
import subprocess
import sys
import warnings
from unittest import mock

import pytest

from qkdroute import __version__, keysim
from qkdroute.artifacts import read_routing_artifact
from qkdroute.cli import EXIT_INVALID, EXIT_OK, EXIT_RUNTIME, main
from qkdroute.engine import RoutingList, StopReason
from qkdroute.keysim import record_is_leaked
from qkdroute.netfile import load_network

from conftest import NETWORKS_DIR
from oracles import reference_paths_listing


def write_net(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


CHAIN_DOC = {
    "nodes": 4,
    "edges": [
        {"u": 0, "v": 1, "rate_kbps": 1.0},
        {"u": 1, "v": 2, "rate_kbps": 1.0},
        {"u": 2, "v": 3, "rate_kbps": 1.0},
    ],
    "target": 0.1,
}


def test_validate_ok(ring6_file, capsys):
    assert main(["validate", "--input", str(ring6_file)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "nodes: 6, edges: 7" in out
    assert "connected: yes" in out
    assert "degree violations: none" in out


def test_validate_degree_failure(tmp_path, capsys):
    path = write_net(tmp_path, "chain.json", CHAIN_DOC)
    assert main(["validate", "--input", str(path), "--m", "2"]) == EXIT_INVALID
    out = capsys.readouterr().out
    assert "minimum degree: 1 (need >= 2)" in out
    assert "degree violations: [0, 3]" in out
    assert "remote pairs with no disjoint path set: (0, 2), (0, 3), (1, 3)" in out


def test_validate_fails_on_unroutable_pair(tmp_path, capsys):
    # two triangles sharing node 2: every degree is >= 2, yet no pair across
    # the cut vertex has two internally disjoint paths
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]
    doc = {
        "nodes": 5,
        "edges": [{"u": u, "v": v, "rate_kbps": 1.0} for u, v in edges],
        "target": 0.1,
    }
    path = write_net(tmp_path, "bowtie.json", doc)
    assert main(["validate", "--input", str(path), "--m", "2"]) == EXIT_INVALID
    out = capsys.readouterr().out
    assert "degree violations: none" in out
    assert "remote pairs with no disjoint path set: (0, 3), (0, 4), (1, 3), (1, 4)" in out


def test_validate_and_paths_honour_file_hop_limit(ring6_file, tmp_path, capsys):
    doc = json.loads(ring6_file.read_text())
    doc["router"]["hop_limit"] = 2
    path = write_net(tmp_path, "ring6_hop2.json", doc)
    assert main(["validate", "--input", str(path)]) == EXIT_INVALID
    assert ("remote pairs with no disjoint path set: (0, 4), (0, 5), (3, 4), (3, 5)"
            in capsys.readouterr().out)
    assert main(["paths", "--input", str(path), "--pair", "0,5"]) == EXIT_OK
    assert "0 disjoint sets" in capsys.readouterr().out


def test_validate_disconnected(tmp_path, capsys):
    doc = {
        "nodes": 4,
        "edges": [
            {"u": 0, "v": 1, "rate_kbps": 1.0},
            {"u": 2, "v": 3, "rate_kbps": 1.0},
        ],
        "target": 0.1,
    }
    path = write_net(tmp_path, "split.json", doc)
    assert main(["validate", "--input", str(path)]) == EXIT_INVALID
    assert "disconnected" in capsys.readouterr().err


def test_unparseable_input(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", "--input", str(path)]) == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["paths", "--input", "{net}", "--pair", "a,b"],
     "qkdroute paths: error: argument --pair: pair must contain two integers"),
    (["simulate", "--input", "{net}", "--routing", "{net}", "--tau", "1",
      "--compromise", ","],
     "qkdroute simulate: error: argument --compromise: expected a comma-separated node list"),
    (["validate"],
     "qkdroute validate: error: the following arguments are required: --input"),
    # each sweep value would replace the step, so --delta-r would go unused
    (["route", "--input", "{net}", "--delta-r", "0.5", "--sweep", "0.01", "--out-dir", "{out}"],
     "qkdroute route: error: argument --sweep: not allowed with argument --delta-r"),
], ids=["pair", "compromise", "missing-input", "delta-r-with-sweep"])
def test_usage_errors_exit_1(k23_file, tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exited:
        main([arg.format(net=k23_file, out=tmp_path / "out") for arg in argv])
    assert exited.value.code == EXIT_INVALID
    assert not (tmp_path / "out").exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: qkdroute {argv[0]} ")
    assert captured.err.endswith(f"\n{message}\n")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["validate", "--help"])
    assert exited.value.code == EXIT_OK
    assert "--input" in capsys.readouterr().out


def test_route_writes_artifacts(ring6_file, tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main([
        "route", "--input", str(ring6_file), "--out-dir", str(out_dir),
    ]) == EXIT_OK
    out = capsys.readouterr().out
    assert "stop: converged after 80 iterations" in out
    assert "final delta 0 kbit/s" in out
    assert "{(1, 0, 3), (1, 2, 3)}: 0.1" in out
    for name in ("routing_list.txt", "routing_list.json", "effective_rates.csv",
                 "trace.csv", "manifest.json"):
        assert (out_dir / name).is_file()


def test_route_requires_delta_r(tmp_path, capsys):
    doc = {
        "nodes": 4,
        "edges": [
            {"u": 0, "v": 1, "rate_kbps": 1.0},
            {"u": 1, "v": 3, "rate_kbps": 1.0},
            {"u": 0, "v": 2, "rate_kbps": 1.0},
            {"u": 2, "v": 3, "rate_kbps": 1.0},
        ],
        "target": 0.1,
    }
    path = write_net(tmp_path, "square.json", doc)
    assert main(["route", "--input", str(path),
                 "--out-dir", str(tmp_path / "o")]) == EXIT_INVALID
    assert "delta_r" in capsys.readouterr().err
    # the same file routes once the step is given on the command line
    assert main(["route", "--input", str(path), "--delta-r", "0.1",
                 "--out-dir", str(tmp_path / "o")]) == EXIT_OK
    assert main(["route", "--input", str(path), "--sweep", "0.1",
                 "--out-dir", str(tmp_path / "s")]) == EXIT_OK


def test_route_from_manifest_reproduces(k23_file, tmp_path, capsys):
    first = tmp_path / "first"
    again = tmp_path / "again"
    assert main([
        "route", "--input", str(k23_file), "--out-dir", str(first),
        "--seed", "3", "--delta-r", "0.05",
    ]) == EXIT_OK
    assert main([
        "route", "--from-manifest", str(first / "manifest.json"),
        "--out-dir", str(again),
    ]) == EXIT_OK
    capsys.readouterr()
    for name in ("routing_list.txt", "routing_list.json", "effective_rates.csv",
                 "trace.csv", "manifest.json"):
        assert (first / name).read_bytes() == (again / name).read_bytes()
    # a flag overrides the manifest's config as it overrides a file's
    assert main([
        "route", "--from-manifest", str(first / "manifest.json"),
        "--out-dir", str(tmp_path / "short"), "--r-max", "1",
    ]) == EXIT_OK
    assert json.loads((tmp_path / "short" / "routing_list.json").read_text())["iterations"] == 1


def test_route_hop_limit_and_guard_flags_reach_artifacts_and_replay(
    k23_file, tmp_path, capsys
):
    first = tmp_path / "first"
    again = tmp_path / "again"
    assert main([
        "route", "--input", str(k23_file), "--out-dir", str(first),
        "--hop-limit", "2", "--no-strict-guard",
    ]) == EXIT_OK
    routing = json.loads((first / "routing_list.json").read_text())
    config = json.loads((first / "manifest.json").read_text())["config"]
    for doc in (routing, config):
        assert doc["hop_limit"] == 2 and doc["strict_guard"] is False
    assert routing["records"]
    assert main([
        "route", "--from-manifest", str(first / "manifest.json"),
        "--out-dir", str(again),
    ]) == EXIT_OK
    capsys.readouterr()
    assert (again / "routing_list.json").read_bytes() == (first / "routing_list.json").read_bytes()


def test_route_from_manifest_replays_from_another_directory(
    k23_file, tmp_path, monkeypatch, capsys
):
    (tmp_path / "k23.json").write_text(k23_file.read_text())
    monkeypatch.chdir(tmp_path)
    assert main(["route", "--input", "k23.json", "--out-dir", "rel"]) == EXIT_OK
    first = json.loads((tmp_path / "rel" / "manifest.json").read_text())
    assert first["input"] == "../k23.json"
    sub = tmp_path / "sub"
    sub.mkdir()
    monkeypatch.chdir(sub)
    assert main([
        "route", "--from-manifest", "../rel/manifest.json", "--out-dir", "again",
    ]) == EXIT_OK
    capsys.readouterr()
    again = json.loads((sub / "again" / "manifest.json").read_text())
    assert again["input"] == "../../k23.json"
    assert again["input_sha256"] == first["input_sha256"]
    for name in ("routing_list.json", "trace.csv"):
        assert (tmp_path / "rel" / name).read_bytes() == (sub / "again" / name).read_bytes()


def test_route_from_manifest_refuses_changed_input(k23_file, tmp_path, capsys):
    net = tmp_path / "k23.json"
    net.write_text(k23_file.read_text())
    first = tmp_path / "first"
    assert main(["route", "--input", str(net), "--out-dir", str(first)]) == EXIT_OK
    doc = json.loads(net.read_text())
    doc["target"] = 2 * doc["target"]
    net.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([
        "route", "--from-manifest", str(first / "manifest.json"),
        "--out-dir", str(tmp_path / "again"),
    ]) == EXIT_INVALID
    assert "differs from the input recorded" in capsys.readouterr().err
    assert not (tmp_path / "again").exists()


def test_route_from_manifest_refuses_malformed(k23_file, tmp_path, capsys):
    route_dir = tmp_path / "route"
    sim_dir = tmp_path / "sim"
    main(["route", "--input", str(k23_file), "--out-dir", str(route_dir)])
    assert main([
        "simulate", "--input", str(k23_file), "--routing", str(route_dir),
        "--tau", "1", "--out-dir", str(sim_dir),
    ]) == EXIT_OK
    good = json.loads((route_dir / "manifest.json").read_text())
    without_input = {k: v for k, v in good.items() if k != "input"}
    without_config = {k: v for k, v in good.items() if k != "config"}
    bad_configs = [{"m": "2"}, {"m": True}, {"seed": "x"}, {"strict_guard": "no"},
                   {"delta_r_kbps": [1]}, {"resolution_bps": "banana"},
                   {"resolution_bps": "2"}, {"resolution_bps": 1}]
    manifests = [
        write_net(tmp_path, "array.json", [good]),
        write_net(tmp_path, "no_input.json", without_input),
        write_net(tmp_path, "no_config.json", without_config),
        sim_dir / "manifest.json",
        tmp_path / "missing.json",
    ] + [
        write_net(tmp_path, f"config_{k}.json", dict(good, config={**good["config"], **bad}))
        for k, bad in enumerate(bad_configs)
    ]
    capsys.readouterr()
    for manifest in manifests:
        assert main([
            "route", "--from-manifest", str(manifest),
            "--out-dir", str(tmp_path / "again"),
        ]) == EXIT_INVALID, manifest.name
        assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "again").exists()


def test_route_sweep(k23_file, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    assert main([
        "route", "--input", str(k23_file), "--out-dir", str(out_dir),
        "--sweep", "0.1,0.05",
    ]) == EXIT_OK
    out = capsys.readouterr().out
    assert "delta_r_0.1: iterations=" in out
    assert "delta_r_0.05: iterations=" in out
    for value in ("0.1", "0.05"):
        assert (out_dir / f"delta_r_{value}" / "manifest.json").is_file()
    fast = json.loads((out_dir / "delta_r_0.1" / "routing_list.json").read_text())
    slow = json.loads((out_dir / "delta_r_0.05" / "routing_list.json").read_text())
    assert slow["iterations"] == 2 * fast["iterations"]


@pytest.mark.parametrize(
    "sweep, message",
    [(",", "lists no delta-r value"), ("", "lists no delta-r value"),
     ("0.1,0.05,0.1", "lists 0.1 more than once"),
     ("0.1,0.10", "lists 0.1 and 0.10, the same delta-r"),
     ("0.1,1e-1", "lists 0.1 and 1e-1, the same delta-r")],
)
def test_route_sweep_refuses_empty_and_repeated_values(k23_file, tmp_path, capsys, sweep, message):
    # a repeated value would run one step twice, into one delta_r directory
    # when spelled alike
    out_dir = tmp_path / "sweep"
    assert main([
        "route", "--input", str(k23_file), "--out-dir", str(out_dir), "--sweep", sweep,
    ]) == EXIT_INVALID
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def grid_doc(side, rate_kbps):
    """side x side grid with one rate on every edge, so pairs and sets tie often."""
    edges = []
    for row in range(side):
        for col in range(side):
            node = row * side + col
            if col + 1 < side:
                edges.append({"u": node, "v": node + 1, "rate_kbps": rate_kbps})
            if row + 1 < side:
                edges.append({"u": node, "v": node + side, "rate_kbps": rate_kbps})
    return {
        "nodes": side * side,
        "edges": edges,
        "target": 0.1,
        "router": {"M": 2, "delta_r_kbps": 0.01, "seed": 0, "strict_guard": True},
    }


@pytest.mark.parametrize("rate_kbps, stop, routing_sha256, trace_sha256", [
    (1.0, "cost_worsened after 275 iterations",
     "578638a7799083d784741cdc034a58b6f942ef775006c57c37dfd28484d3d2cf",
     "d2c5dc2c77fdca594ff53d1a1b8d180f3c6e22ff7ab5723cbe29e2c5576db720"),
    (0.1, "guard_exhausted after 23 iterations",
     "fc73324e79a9684ff6a76a4d0c421575ee257761a65780f32483c13558bf6b3a",
     "266b78cb31b715d0d14d576df0b96ccbafca5603fa998a4aed2d8287ae4e973c"),
])
def test_route_grid_outputs_pinned(tmp_path, capsys, rate_kbps, stop,
                                   routing_sha256, trace_sha256):
    """The seeded draw sequence on a 4x4 grid, pinned byte for byte."""
    path = write_net(tmp_path, "grid.json", grid_doc(4, rate_kbps))
    out_dir = tmp_path / "out"
    assert main(["route", "--input", str(path), "--out-dir", str(out_dir)]) == EXIT_OK
    assert f"stop: {stop}" in capsys.readouterr().out
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ("routing_list.json", "trace.csv")
    }
    assert digests == {"routing_list.json": routing_sha256, "trace.csv": trace_sha256}


def test_paths_command(dense5_file, capsys):
    assert main([
        "paths", "--input", str(dense5_file), "--pair", "1,3",
    ]) == EXIT_OK
    out = capsys.readouterr().out
    assert "pair (1, 3), M=2: 9 simple paths, 7 disjoint sets" in out
    assert "{(1, 0, 3), (1, 2, 3)}  D=-0.3  hops=4" in out
    assert "{(1, 0, 2, 3), (1, 4, 3)}  D=-0.2  hops=5" in out


def test_paths_accepts_reversed_pair(dense5_file, capsys):
    assert main([
        "paths", "--input", str(dense5_file), "--pair", "3,1",
    ]) == EXIT_OK
    assert "pair (1, 3)" in capsys.readouterr().out


def test_paths_lists_what_the_reference_lists(capsys):
    # every ordered node pair of the four fixtures, direct and reversed
    # pairs included, at M from 1 to 3 and hop limits none, 3 and 4
    cases = 0
    for network in sorted(NETWORKS_DIR.glob("*.json")):
        graph, target, _ = load_network(network)
        for (i, j), m, hop_limit in itertools.product(
            itertools.permutations(range(graph.node_count), 2), (1, 2, 3), (None, 3, 4)
        ):
            argv = ["paths", "--input", str(network), "--pair", f"{i},{j}", "--m", str(m)]
            if hop_limit is not None:
                argv += ["--hop-limit", str(hop_limit)]
            assert main(argv) == EXIT_OK
            listing = reference_paths_listing(graph, target, (i, j), m, hop_limit)
            assert capsys.readouterr().out == listing
            cases += 1
    assert cases == 1440


def test_paths_reports_missing_sets(tmp_path, capsys):
    path = write_net(tmp_path, "chain.json", CHAIN_DOC)
    assert main([
        "paths", "--input", str(path), "--pair", "0,3", "--m", "2",
    ]) == EXIT_OK
    out = capsys.readouterr().out
    assert "1 simple paths, 0 disjoint sets" in out
    assert "no disjoint path set exists" in out


def test_simulate_end_to_end(k23_file, tmp_path, capsys):
    route_dir = tmp_path / "route"
    assert main([
        "route", "--input", str(k23_file), "--out-dir", str(route_dir),
    ]) == EXIT_OK
    capsys.readouterr()
    sim_dir = tmp_path / "sim"
    assert main([
        "simulate", "--input", str(k23_file), "--routing", str(route_dir),
        "--tau", "1", "--compromise", "1,2", "--epsilon", "0.1",
        "--out-dir", str(sim_dir),
    ]) == EXIT_OK
    out = capsys.readouterr().out
    assert "endpoints agree" in out
    assert "compromised nodes: [1, 2]" in out
    assert "compromise probability bound: 0.01" in out
    assert (sim_dir / "simulation_report.json").is_file()
    report = json.loads((sim_dir / "simulation_report.json").read_text())
    statuses = {tuple(e["pair"]): e["status"] for e in report["pairs"]}
    # recompute each pair's verdict from the routed records themselves
    graph, target, _ = load_network(k23_file)
    routing = read_routing_artifact(route_dir / "routing_list.json", graph, target)
    for pair in {r.pair for r in routing.records()}:
        flags = [
            record_is_leaked(r.path_set, {1, 2})
            for r in routing.records() if r.pair == pair
        ]
        if all(flags):
            assert statuses[pair] == "fully_leaked"
        elif any(flags):
            assert statuses[pair] == "partially_leaked"
        else:
            assert statuses[pair] == "secure"
    leaked = [p for p, s in statuses.items() if s == "fully_leaked"]
    assert leaked, "corrupting two of the three relays should open some route"


def test_simulate_accepts_artifact_file_path(k23_file, tmp_path, capsys):
    route_dir = tmp_path / "route"
    main(["route", "--input", str(k23_file), "--out-dir", str(route_dir)])
    capsys.readouterr()
    assert main([
        "simulate", "--input", str(k23_file),
        "--routing", str(route_dir / "routing_list.json"), "--tau", "2",
    ]) == EXIT_OK


def test_simulate_manifest_records_routing_relative_to_itself(
    k23_file, tmp_path, monkeypatch, capsys
):
    trees = [tmp_path / "absolute", tmp_path / "relative"]
    for tree in trees:
        (tree / "sub").mkdir(parents=True)
        (tree / "k23.json").write_text(k23_file.read_text())
        assert main([
            "route", "--input", str(tree / "k23.json"), "--out-dir", str(tree / "route"),
        ]) == EXIT_OK
    assert main([
        "simulate", "--input", str(trees[0] / "k23.json"),
        "--routing", str(trees[0] / "route"), "--tau", "1",
        "--out-dir", str(trees[0] / "sim"),
    ]) == EXIT_OK
    monkeypatch.chdir(trees[1] / "sub")
    assert main([
        "simulate", "--input", "../k23.json", "--routing", "../route", "--tau", "1",
        "--out-dir", "../sim",
    ]) == EXIT_OK
    capsys.readouterr()
    manifests = [(tree / "sim" / "manifest.json").read_bytes() for tree in trees]
    assert manifests[0] == manifests[1]
    recorded = json.loads(manifests[0])["routing"]
    assert (trees[0] / "sim" / recorded).resolve() == trees[0] / "route" / "routing_list.json"


@pytest.mark.parametrize("routing", ["d", "d/routing_list.json"])
def test_simulate_refuses_an_out_dir_holding_the_routing(k23_file, tmp_path, capsys, routing):
    # its manifest.json would replace the route's, which a replay reads
    route_dir = tmp_path / "d"
    assert main(["route", "--input", str(k23_file), "--out-dir", str(route_dir)]) == EXIT_OK
    manifest = (route_dir / "manifest.json").read_bytes()
    capsys.readouterr()
    # refused before the routing artifact is read
    with mock.patch("qkdroute.artifacts.read_routing_artifact",
                    side_effect=AssertionError("read before the refusal")):
        assert main([
            "simulate", "--input", str(k23_file), "--routing", str(tmp_path / routing),
            "--tau", "1", "--out-dir", f"{route_dir}/.",
        ]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert (route_dir / "manifest.json").read_bytes() == manifest
    assert not list(route_dir.glob("simulation_report.*"))
    assert main(["route", "--from-manifest", str(route_dir / "manifest.json"),
                 "--out-dir", str(tmp_path / "again")]) == EXIT_OK


def test_simulate_refuses_an_out_dir_holding_another_route(k23_file, tmp_path, capsys):
    # simulate --routing a --out-dir b would replace route b's manifest, and
    # a replay of b would then fail
    a, b = tmp_path / "a", tmp_path / "b"
    for out_dir in (a, b):
        assert main(["route", "--input", str(k23_file), "--out-dir", str(out_dir)]) == EXIT_OK
    manifest = (b / "manifest.json").read_bytes()
    capsys.readouterr()
    with mock.patch("qkdroute.artifacts.read_routing_artifact",
                    side_effect=AssertionError("read before the refusal")):
        assert main(["simulate", "--input", str(k23_file), "--routing", str(a), "--tau", "1",
                     "--out-dir", str(b)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err == (f"error: --out-dir {b} holds the manifest.json of a route run, "
                   "which simulate would replace\n")
    assert (b / "manifest.json").read_bytes() == manifest
    assert main(["route", "--from-manifest", str(b / "manifest.json"),
                 "--out-dir", str(tmp_path / "again")]) == EXIT_OK
    # a simulation may write over its own directory
    sim = tmp_path / "sim"
    for _ in range(2):
        assert main(["simulate", "--input", str(k23_file), "--routing", str(a), "--tau", "1",
                     "--out-dir", str(sim)]) == EXIT_OK


@pytest.mark.parametrize("sweep", [False, True])
def test_route_refuses_an_out_dir_holding_a_simulation(k23_file, tmp_path, capsys, sweep):
    route_dir, out = tmp_path / "route", tmp_path / "out"
    sim = out / "delta_r_0.1" if sweep else out
    assert main(["route", "--input", str(k23_file), "--out-dir", str(route_dir)]) == EXIT_OK
    assert main(["simulate", "--input", str(k23_file), "--routing", str(route_dir), "--tau", "1",
                 "--out-dir", str(sim)]) == EXIT_OK
    manifest = (sim / "manifest.json").read_bytes()
    capsys.readouterr()
    step = ["--sweep", "0.1"] if sweep else ["--delta-r", "0.1"]
    with mock.patch("qkdroute.engine.run", side_effect=AssertionError("ran before the refusal")):
        assert main(["route", "--input", str(k23_file), "--out-dir", str(out), *step]) \
            == EXIT_INVALID
    err = capsys.readouterr().err
    assert err == (f"error: --out-dir {sim} holds the manifest.json of a simulate run, "
                   "which route would replace\n")
    assert (sim / "manifest.json").read_bytes() == manifest
    assert not (sim / "routing_list.json").exists()


def test_route_refuses_an_out_dir_holding_a_foreign_manifest(k23_file, tmp_path, capsys):
    for text, message in (
        ('{"tool": "other"}', "holds the manifest.json of another program"),
        ("not json", "cannot parse manifest"),
    ):
        (tmp_path / "manifest.json").write_text(text)
        assert main(["route", "--input", str(k23_file), "--out-dir", str(tmp_path)]) \
            == EXIT_INVALID
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and message in err, err
        assert (tmp_path / "manifest.json").read_text() == text


@pytest.mark.parametrize("net_edit, rate_units, command", [
    (('"rate_kbps": 1.0', '"rate_kbps": "Infinity"'), None, ["validate"]),
    (('"rate_kbps": 1.0', '"rate_kbps": 1e30'), None, ["route", "--delta-r", "0.1"]),
    # a literal that only a decimal parser can hold
    (("{", '{"resolution_bps": 1e-999999, '), None, ["validate"]),
    (None, None, ["route", "--delta-r", "1e999999"]),
    (None, None, ["simulate", "--tau", "1e999999"]),
    (None, None, ["simulate", "--tau", "nan"]),
    (None, None, ["simulate", "--tau", "inf"]),
    (None, None, ["simulate", "--tau", "1", "--epsilon", "nan"]),
    (None, 10**30, ["simulate", "--tau", "1"]),
    # a flag merged into the file's config is checked as the config is
    (None, None, ["route", "--m", "0"]),
    (None, None, ["simulate", "--tau", "1", "--seed", "-1"]),
])
def test_out_of_range_numbers_exit_1(k23_file, tmp_path, capsys, net_edit, rate_units,
                                     command):
    """Each number is refused where it enters, with one ``error:`` line,
    before any key bit is drawn."""
    route_dir = tmp_path / "route"
    assert main(["route", "--input", str(k23_file), "--out-dir", str(route_dir)]) == EXIT_OK
    net = tmp_path / "net.json"
    net.write_text(k23_file.read_text().replace(*net_edit, 1) if net_edit
                   else k23_file.read_text())
    routing = json.loads((route_dir / "routing_list.json").read_text())
    if rate_units is not None:
        routing["records"][0]["rate_units"] = rate_units
    argv = [command[0], "--input", str(net)] + command[1:]
    if command[0] == "route":
        argv += ["--out-dir", str(tmp_path / "out")]
    if command[0] == "simulate":
        argv += ["--routing", str(write_net(tmp_path, "routing.json", routing))]
    capsys.readouterr()
    # every draw starts from a seeded generator
    with mock.patch.object(keysim.np.random, "default_rng",
                           side_effect=AssertionError("seeded before the refusal")):
        assert main(argv) == EXIT_INVALID
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err


def test_simulate_rejects_mismatched_network(k23_file, ring6_file, tmp_path,
                                             capsys):
    route_dir = tmp_path / "route"
    main(["route", "--input", str(k23_file), "--out-dir", str(route_dir)])
    capsys.readouterr()
    assert main([
        "simulate", "--input", str(ring6_file), "--routing", str(route_dir),
        "--tau", "1",
    ]) == EXIT_INVALID
    assert "5 nodes" in capsys.readouterr().err


def test_simulate_refuses_malformed_routing(k23_file, tmp_path, capsys):
    route_dir = tmp_path / "route"
    main(["route", "--input", str(k23_file), "--out-dir", str(route_dir)])
    good = json.loads((route_dir / "routing_list.json").read_text())
    no_rate = json.loads(json.dumps(good))
    del no_rate["records"][0]["rate_units"]
    bad_shape = dict(good, effective_units=good["effective_units"][:-1])
    bad_rates = [
        dict(good, records=[dict(good["records"][0], rate_units=rate)] + good["records"][1:])
        for rate in (100.7, -100, True)
    ]
    # (1, 2) is not an edge of K{2,3}
    off_edge = dict(good, records=[dict(good["records"][0], paths=[[0, 1, 2, 4], [0, 3, 4]])]
                    + good["records"][1:])
    drifted = json.loads(json.dumps(good))
    drifted["effective_units"][0][1] += 100
    drifted["effective_units"][1][0] += 100
    no_steps = {k: v for k, v in good.items() if k != "iterations"}
    bad_fields = [dict(good, m="2"), dict(good, delta_r_units=100.0),
                  dict(good, delta_r_units=0), dict(good, hop_limit="2"),
                  dict(good, strict_guard="yes"), no_steps]
    # effective_units cells that JSON reads as other than int
    false_diagonal = json.loads(json.dumps(good))
    false_diagonal["effective_units"][0][0] = False
    float_cell = json.loads(json.dumps(good))
    assert float_cell["effective_units"][0][1] == 700
    float_cell["effective_units"][0][1] = 700.0
    # two records of 2**63 - 1 units on (0, 4) add past int64 on one cell;
    # effective_units holds the sums wrapped around as int64 sums would be
    big = 2**63 - 1
    records = [
        {"pair": [0, 4], "paths": paths, "rate_units": big,
         "rate_kbps": "9223372036854775.807"}
        for paths in ([[0, 1, 4], [0, 2, 4]], [[0, 1, 4], [0, 3, 4]])
    ]
    sums = [[0] * 5 for _ in range(5)]
    for u, v in ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)):
        sums[u][v] = sums[v][u] = 1000
    for record in records:
        sums[0][4] += big
        sums[4][0] += big
        for path in record["paths"]:
            for u, v in zip(path, path[1:]):
                sums[u][v] -= big
                sums[v][u] -= big
    wrapped = [[(value + 2**63) % 2**64 - 2**63 for value in row] for row in sums]
    # unguarded, so that the records reach the comparison with effective_units
    wide = dict(good, records=records, delta_r_units=big, iterations=2,
                effective_units=wrapped, strict_guard=False)
    artifacts = [
        write_net(tmp_path, "array.json", [good]),
        write_net(tmp_path, "no_rate.json", no_rate),
        write_net(tmp_path, "bad_shape.json", bad_shape),
        write_net(tmp_path, "off_edge.json", off_edge),
        write_net(tmp_path, "drifted.json", drifted),
        write_net(tmp_path, "false_diagonal.json", false_diagonal),
        write_net(tmp_path, "float_cell.json", float_cell),
        write_net(tmp_path, "wide.json", wide),
    ] + [
        write_net(tmp_path, f"rate_{k}.json", doc) for k, doc in enumerate(bad_rates)
    ] + [
        write_net(tmp_path, f"field_{k}.json", doc) for k, doc in enumerate(bad_fields)
    ]
    messages = {
        "bad_shape.json": "effective_units holds 4 items, not 5",
        "drifted.json": "effective_units[0][1] 800 is not 700",
        "false_diagonal.json": "effective_units[0][0] False is not 0",
        "float_cell.json": "effective_units[0][1] 700.0 is not 700",
        "wide.json": f"effective_units[0][1] 1002 is not {1000 - 2 * big}",
    }
    capsys.readouterr()
    for artifact in artifacts:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([
                "simulate", "--input", str(k23_file), "--routing", str(artifact),
                "--tau", "1",
            ]) == EXIT_INVALID, artifact.name
        err = capsys.readouterr().err
        assert err.startswith("error:") and messages.get(artifact.name, "") in err, err
        assert "RuntimeWarning" not in err and "overflow" not in err
        assert [str(w.message) for w in caught] == [], artifact.name


def refuses_routing(k23_file, tmp_path, capsys, doc, message):
    """Whether ``simulate`` exits 1 on the artifact ``doc``, naming ``message``."""
    artifact = write_net(tmp_path, "edited.json", doc)
    capsys.readouterr()
    code = main(["simulate", "--input", str(k23_file), "--routing", str(artifact),
                 "--tau", "1"])
    return code == EXIT_INVALID and message in capsys.readouterr().err


def routed_k23(k23_file, tmp_path):
    main(["route", "--input", str(k23_file), "--out-dir", str(tmp_path / "route")])
    return json.loads((tmp_path / "route" / "routing_list.json").read_text())


def test_simulate_refuses_a_node_id_that_is_not_an_integer(k23_file, tmp_path, capsys):
    good = routed_k23(k23_file, tmp_path)
    assert good["records"][0]["paths"] == [[0, 1, 4], [0, 2, 4]]
    # true would read as node 1, and 2.0 would reach the rate bookkeeping
    for paths in ([[0, True, 4], [0, 2, 4]], [[0, 1, 4], [0, 2.0, 4]]):
        doc = json.loads(json.dumps(good))
        doc["records"][0]["paths"] = paths
        artifact = write_net(tmp_path, "edited.json", doc)
        capsys.readouterr()
        assert main(["simulate", "--input", str(k23_file), "--routing", str(artifact),
                     "--tau", "1"]) == EXIT_INVALID, paths
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: malformed routing artifact")
        assert "non-integer node id" in lines[0], paths


def test_route_and_simulate_derive_the_effective_rates_once_and_twice(tmp_path, capsys):
    # route derives the matrix once, for its artifact; simulate derives it
    # once to check the artifact and once for the pools' own shares
    mesh10 = str(NETWORKS_DIR / "mesh10.json")
    route_dir = str(tmp_path / "route")
    with mock.patch.object(RoutingList, "effective", autospec=True,
                           side_effect=RoutingList.effective) as effective:
        assert main(["route", "--input", mesh10, "--out-dir", route_dir]) == EXIT_OK
        assert effective.call_count == 1
        assert main(["simulate", "--input", mesh10, "--routing", route_dir, "--tau", "1",
                     "--compromise", "1,2", "--out-dir", str(tmp_path / "sim")]) == EXIT_OK
        assert effective.call_count == 3
    capsys.readouterr()


def test_simulate_refuses_a_config_that_router_config_refuses(k23_file, tmp_path, capsys):
    good = routed_k23(k23_file, tmp_path)
    graph = load_network(k23_file).graph
    # no records, cut off at r_max 0: the remote pairs stay 100 units short
    empty = dict(good, records=[], iterations=0, effective_units=graph.rate_matrix().tolist(),
                 r_max=0, stop_reason="r_max", final_delta_units=100)
    assert not refuses_routing(k23_file, tmp_path, capsys, empty, "error")
    for fields, message in (
        ({"m": 0, "hop_limit": 0}, "m must be at least 1, got 0"),
        ({"hop_limit": 0}, "hop_limit must be at least 1, got 0"),
        ({"delta_r_units": -100}, "delta_r must be positive, got -100"),
    ):
        assert refuses_routing(k23_file, tmp_path, capsys, dict(empty, **fields),
                               message), fields


def test_simulate_refuses_each_field_of_the_wrong_type(k23_file, tmp_path, capsys):
    # every field is read, so none of another JSON type goes through
    good = routed_k23(k23_file, tmp_path)
    docs = {}
    for key, value in good.items():
        docs[key] = dict(good, **{key: "x" if isinstance(value, list) else []})
    for key, value in good["records"][0].items():
        record = dict(good["records"][0], **{key: "x" if isinstance(value, list) else []})
        docs[f"records[0].{key}"] = dict(good, records=[record, *good["records"][1:]])
    assert len(docs) == 18
    for site, doc in docs.items():
        artifact = write_net(tmp_path, "edited.json", doc)
        capsys.readouterr()
        assert main(["simulate", "--input", str(k23_file), "--routing", str(artifact),
                     "--tau", "1"]) == EXIT_INVALID, site
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (site, lines)


def test_simulate_refuses_run_fields_route_never_writes(k23_file, tmp_path, capsys):
    good = routed_k23(k23_file, tmp_path)
    assert good["iterations"] == 4 and good["r_max"] is None
    assert not refuses_routing(k23_file, tmp_path, capsys, dict(good, r_max=4), "error")
    for fields, message in (
        ({"seed": "x"}, "router.seed must be an integer"),
        ({"seed": 2**64}, "seed must fit in 64 bits"),
        ({"r_max": -7}, "r_max must be non-negative, got -7"),
        ({"r_max": 3}, "iterations 4 exceed r_max 3"),
        ({"stop_reason": "nonsense"}, "'nonsense' is not a valid StopReason"),
        ({"final_delta_units": "?"}, "final_delta_units '?' is not 0"),
        ({"final_delta_units": 12345}, "final_delta_units 12345 is not 0"),
        ({"final_delta_units": -5}, "final_delta_units -5 is not 0"),
    ):
        assert refuses_routing(k23_file, tmp_path, capsys, dict(good, **fields),
                               f"malformed routing artifact {tmp_path / 'edited.json'}: "
                               f"{message}"), fields


def test_simulate_refuses_path_count_other_than_m(k23_file, tmp_path, capsys):
    good = routed_k23(k23_file, tmp_path)
    assert good["m"] == 2
    for m in (1, 3):
        assert refuses_routing(k23_file, tmp_path, capsys, dict(good, m=m),
                               f"has 2 paths, not m = {m}")


def test_simulate_refuses_negative_edge_under_strict_guard(k23_file, tmp_path, capsys):
    good = routed_k23(k23_file, tmp_path)
    # 800 more units on {(0, 1, 4), (0, 2, 4)} take its edges from 700 to
    # -100; rate_kbps, effective_units and iterations stay consistent with
    # the records
    doc = json.loads(json.dumps(good))
    assert doc["records"][0]["paths"] == [[0, 1, 4], [0, 2, 4]]
    doc["records"][0]["rate_units"] += 800
    doc["records"][0]["rate_kbps"] = "0.9"
    doc["iterations"] += 8
    effective = doc["effective_units"]
    for u, v in ((0, 1), (1, 4), (0, 2), (2, 4)):
        effective[u][v] -= 800
        effective[v][u] -= 800
    effective[0][4] += 800
    effective[4][0] += 800
    assert refuses_routing(k23_file, tmp_path, capsys, doc,
                           "edge (0, 1) is negative under the strict guard")
    # without the guard the artifact reads, and the key simulation refuses it
    # a run cut off at r_max 12, with edge (0, 1) 200 units below its target
    graph, target, _ = load_network(k23_file)
    unguarded = write_net(tmp_path, "unguarded.json",
                          dict(doc, strict_guard=False, r_max=12, stop_reason="r_max",
                               final_delta_units=200))
    routing = read_routing_artifact(unguarded, graph, target)
    assert routing.effective(graph)[0, 1] == -100
    assert main(["simulate", "--input", str(k23_file), "--routing", str(unguarded),
                 "--tau", "1"]) == EXIT_RUNTIME
    assert "over-subscribed" in capsys.readouterr().err


def test_simulate_refuses_a_repeated_path_set(k23_file, tmp_path, capsys):
    good = routed_k23(k23_file, tmp_path)
    # in steps of 50 units, the first record's 100 units split between two
    # entries of its path set would be merged into one record
    halved = dict(good, delta_r_units=50, iterations=2 * good["iterations"])
    assert not refuses_routing(k23_file, tmp_path, capsys, halved, "error")
    first = dict(good["records"][0], rate_units=50, rate_kbps="0.05")
    assert refuses_routing(k23_file, tmp_path, capsys,
                           dict(halved, records=[first, first, *good["records"][1:]]),
                           "records[0].rate_kbps '0.05' is not '0.1'")


def test_simulate_refuses_rates_off_the_iteration_count(k23_file, tmp_path, capsys):
    good = routed_k23(k23_file, tmp_path)
    for steps in (good["iterations"] - 1, good["iterations"] + 1):
        assert refuses_routing(k23_file, tmp_path, capsys, dict(good, iterations=steps),
                               f"records hold 400 units, not {steps} iterations")


def test_simulate_refuses_path_over_hop_limit(k23_file, tmp_path, capsys):
    good = routed_k23(k23_file, tmp_path)
    assert good["hop_limit"] is None
    assert not refuses_routing(k23_file, tmp_path, capsys, dict(good, hop_limit=2), "hop")
    assert refuses_routing(k23_file, tmp_path, capsys, dict(good, hop_limit=1),
                           "has a path of 2 hops, over hop_limit 1")


def test_simulate_refuses_rate_off_the_step(k23_file, tmp_path, capsys):
    good = routed_k23(k23_file, tmp_path)
    # four records of 100 units still add up to 2 steps of 200 units
    assert [record["rate_units"] for record in good["records"]] == [100] * 4
    assert refuses_routing(k23_file, tmp_path, capsys,
                           dict(good, delta_r_units=200, iterations=2),
                           "rate_units 100 is not a multiple of delta_r_units 200")


def test_simulate_refuses_pair_other_than_the_endpoints(k23_file, tmp_path, capsys):
    good = routed_k23(k23_file, tmp_path)
    assert good["records"][0]["pair"] == [0, 4]
    for pair, difference in (([2, 3], "[0] 2 is not 0"), ([4, 0], "[0] 4 is not 0"),
                             ([0], " holds 1 items, not 2"), ([0.0, 4.0], "[0] 0.0 is not 0"),
                             (None, " None is not a list")):
        doc = json.loads(json.dumps(good))
        doc["records"][0]["pair"] = pair
        assert refuses_routing(k23_file, tmp_path, capsys, doc,
                               f"records[0].pair{difference}"), pair


def test_simulate_refuses_rate_kbps_other_than_rate_units(k23_file, tmp_path, capsys):
    good = routed_k23(k23_file, tmp_path)
    assert good["records"][0]["rate_kbps"] == "0.1"
    for kbps in ("999", "0.10", 0.1, None):
        doc = json.loads(json.dumps(good))
        doc["records"][0]["rate_kbps"] = kbps
        assert refuses_routing(k23_file, tmp_path, capsys, doc,
                               f"rate_kbps {kbps!r} is not '0.1'"), kbps


def test_simulate_refuses_a_directly_linked_pair(k23_file, tmp_path, capsys):
    good = routed_k23(k23_file, tmp_path)
    # 100 units for the linked pair (0, 1) over {(0, 1), (0, 2, 4, 1)}: the
    # edge (0, 1) pays the debit and takes the credit, and effective_units
    # and iterations stay consistent with the records
    doc = json.loads(json.dumps(good))
    doc["records"].append({"pair": [0, 1], "paths": [[0, 1], [0, 2, 4, 1]],
                           "rate_units": 100, "rate_kbps": "0.1"})
    for u, v in ((0, 2), (2, 4), (1, 4)):
        doc["effective_units"][u][v] -= 100
        doc["effective_units"][v][u] -= 100
    doc["iterations"] += 1
    assert refuses_routing(k23_file, tmp_path, capsys, doc,
                           "routes [0, 1], a directly linked pair")


def test_simulate_refuses_what_route_never_writes_in_its_layout(k23_file, tmp_path, capsys):
    good = routed_k23(k23_file, tmp_path)
    first = good["records"][0]
    assert first["paths"] == [[0, 1, 4], [0, 2, 4]]
    for doc, message in (
        (dict(good, note="x"), "unexpected key 'note'"),
        (dict(good, records=[dict(first, note="x"), *good["records"][1:]]),
         "unexpected key 'note' in records[0]"),
        (dict(good, records=good["records"][::-1]), "records[0].pair[0] 2 is not 0"),
        (dict(good, records=[dict(first, paths=first["paths"][::-1]), *good["records"][1:]]),
         "records[0].paths[0][1] 2 is not 1"),
    ):
        assert refuses_routing(k23_file, tmp_path, capsys, doc, message), message


def _leaves(value, site=()):
    """The key and index path of every scalar in a JSON document."""
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _leaves(item, site + (key,))
    else:
        yield site


def test_simulate_refuses_every_in_type_edit_of_a_run(k23_file, tmp_path, capsys):
    # every leaf but the config fields route takes as given, edited within
    # its JSON type: an integer + 1, a string + "0", another stop reason
    good = routed_k23(k23_file, tmp_path)
    reasons = [reason.value for reason in StopReason]
    sites = [site for site in _leaves(good)
             if site[0] not in {"seed", "strict_guard", "r_max", "hop_limit"}]
    assert len(sites) == 73
    for site in sites:
        doc = json.loads(json.dumps(good))
        parent = functools.reduce(operator.getitem, site[:-1], doc)
        value = parent[site[-1]]
        if site == ("stop_reason",):
            parent[site[-1]] = reasons[(reasons.index(value) + 1) % len(reasons)]
        else:
            assert isinstance(value, str) or type(value) is int, site
            parent[site[-1]] = value + ("0" if isinstance(value, str) else 1)
        artifact = write_net(tmp_path, "edited.json", doc)
        capsys.readouterr()
        assert main(["simulate", "--input", str(k23_file), "--routing", str(artifact),
                     "--tau", "1"]) == EXIT_INVALID, site
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (site, lines)


@pytest.mark.parametrize("network, flags, fields, refused", [
    # k23 converges after 4 iterations, with no pair short
    ("k23", [], {"stop_reason": "r_max"}, True),
    ("k23", [], {"stop_reason": "r_max", "r_max": 4}, True),
    ("k23", [], {"stop_reason": "cost_worsened"}, True),
    ("k23", [], {"stop_reason": "no_m_set"}, True),
    # cut off after 2 iterations, with the remote pairs (0, 4) and (1, 3)
    # 100 units short
    ("k23", ["--r-max", "2"], {}, False),
    ("k23", ["--r-max", "2"], {"stop_reason": "converged"}, True),
    ("k23", ["--r-max", "2"], {"r_max": None}, True),
    ("k23", ["--r-max", "2"], {"r_max": 3}, True),
    ("k23", ["--r-max", "2"], {"stop_reason": "direct_pair_worst"}, True),
    ("k23", ["--r-max", "2"], {"stop_reason": "no_m_set"}, True),
    ("k23", ["--r-max", "2"], {"stop_reason": "cost_worsened"}, False),
    ("k23", ["--r-max", "2"], {"stop_reason": "guard_exhausted"}, False),
    # at M = 3, no pair but (0, 4) has a disjoint path set
    ("k23", ["--m", "3"], {}, False),
    # dense5 at seed 0 stops on direct_pair_worst after 4 iterations, with
    # only the linked pairs (0, 1) and (1, 4) 100 units short
    ("dense5", ["--seed", "0"], {}, False),
    ("dense5", ["--seed", "0"], {"stop_reason": "cost_worsened"}, True),
    ("dense5", ["--seed", "0"], {"stop_reason": "guard_exhausted"}, True),
    ("dense5", ["--seed", "0"], {"stop_reason": "no_m_set"}, True),
])
def test_simulate_checks_the_stop_reason_against_the_final_state(
    tmp_path, capsys, network, flags, fields, refused
):
    net = NETWORKS_DIR / f"{network}.json"
    assert main(["route", "--input", str(net), *flags,
                 "--out-dir", str(tmp_path / "route")]) == EXIT_OK
    doc = json.loads((tmp_path / "route" / "routing_list.json").read_text())
    if network == "dense5":
        assert doc["stop_reason"] == "direct_pair_worst"
    doc.update(fields)
    artifact = write_net(tmp_path, "edited.json", doc)
    capsys.readouterr()
    code = main(["simulate", "--input", str(net), "--routing", str(artifact), "--tau", "1"])
    lines = capsys.readouterr().err.splitlines()
    if refused:
        assert code == EXIT_INVALID and len(lines) == 1, lines
        assert f"stop_reason '{doc['stop_reason']}' does not fit a run that ends" in lines[0]
    else:
        assert code == EXIT_OK, lines


def test_simulate_refuses_a_routing_of_another_target(k23_file, tmp_path, capsys):
    good = routed_k23(k23_file, tmp_path)
    # the same edges, but every pair wants 0.2 kbit/s: the four routed pairs
    # end 100 units short, not on target
    text = k23_file.read_text()
    assert text.count('"target": 0.1') == 1
    net = tmp_path / "k23_more.json"
    net.write_text(text.replace('"target": 0.1', '"target": 0.2'))
    artifact = write_net(tmp_path, "routing.json", good)
    capsys.readouterr()
    assert main(["simulate", "--input", str(net), "--routing", str(artifact),
                 "--tau", "1"]) == EXIT_INVALID
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].endswith("final_delta_units 0 is not 100"), lines


def test_simulate_refuses_pools_beyond_physical_memory(k23_file, tmp_path, capsys):
    route_dir = tmp_path / "route"
    main(["route", "--input", str(k23_file), "--out-dir", str(route_dir)])
    capsys.readouterr()
    # four records of 100 units, each over two 2-hop paths: at tau = 1e15 s
    # the four pair keys take 1.25e16 bytes each.  Relaying one record holds
    # ten times that, its four segments, a joined one, a message, two fold
    # keys and two blocks, plus one step of raw words
    assert main(["simulate", "--input", str(k23_file), "--routing", str(route_dir),
                 "--out-dir", str(tmp_path / "sim"), "--tau", "1e15"]) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert "pair keys and relay segments of 175000000004194312 bytes" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "sim").exists()


def test_simulate_refuses_pools_and_pair_keys_beyond_physical_memory(
    k23_file, tmp_path, capsys
):
    route_dir = tmp_path / "route"
    main(["route", "--input", str(k23_file), "--out-dir", str(route_dir)])
    capsys.readouterr()
    simulate = ["simulate", "--input", str(k23_file), "--routing", str(route_dir),
                "--tau", "1"]
    # at tau = 1 s: four pairs' 100-bit keys at 13 bytes each, and what
    # relaying the largest record, not all four, holds: its four 100-bit
    # segments, a joined one, a message, two fold keys and two blocks, at 13
    # bytes each, plus 14 raw words
    with mock.patch.object(keysim, "_physical_memory", return_value=293), \
            mock.patch.object(keysim, "accumulate_pools",
                              wraps=keysim.accumulate_pools) as draw:
        assert main(simulate) == EXIT_RUNTIME
    assert not draw.called
    captured = capsys.readouterr()
    assert captured.err == ("error: pair keys and relay segments of 294 bytes at tau 1 s "
                            "exceed the 293 bytes of physical memory\n")
    assert captured.out == ""
    with mock.patch.object(keysim, "_physical_memory", return_value=294):
        assert main(simulate) == EXIT_OK


@pytest.mark.parametrize("flags, refusal", [
    (["--epsilon", "7"], "error: epsilon must lie in [0, 1], got 7\n"),
    (["--compromise", "99"], "error: compromised nodes [99] are not in the network\n"),
])
def test_simulate_refuses_compromise_arguments_before_drawing(k23_file, tmp_path, capsys,
                                                              flags, refusal):
    route_dir = tmp_path / "route"
    main(["route", "--input", str(k23_file), "--out-dir", str(route_dir)])
    capsys.readouterr()
    with mock.patch.object(keysim, "accumulate_pools",
                           side_effect=AssertionError("drawn before the refusal")):
        assert main(["simulate", "--input", str(k23_file), "--routing", str(route_dir),
                     "--tau", "1", *flags]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err == refusal
    assert captured.out == ""


def test_simulate_refuses_unknown_compromised_node(k23_file, tmp_path, capsys):
    route_dir = tmp_path / "route"
    main(["route", "--input", str(k23_file), "--out-dir", str(route_dir)])
    capsys.readouterr()
    for nodes in ("0,99", "-1", "5"):
        assert main([
            "simulate", "--input", str(k23_file), "--routing", str(route_dir),
            "--tau", "1", f"--compromise={nodes}",
        ]) == EXIT_INVALID, nodes
        captured = capsys.readouterr()
        assert "not in the network" in captured.err
        assert "compromised nodes:" not in captured.out


def test_simulate_warns_on_fractional_bits(k23_file, tmp_path, capsys):
    route_dir = tmp_path / "route"
    main(["route", "--input", str(k23_file), "--out-dir", str(route_dir)])
    capsys.readouterr()
    simulate = ["simulate", "--input", str(k23_file), "--routing", str(route_dir)]
    assert main(simulate + ["--tau", "0.0005"]) == EXIT_OK
    assert "fractional bits" in capsys.readouterr().err
    assert main(simulate + ["--tau", "1"]) == EXIT_OK
    assert capsys.readouterr().err == ""
    # every pool holds exactly 5 bits, but each record's 0.1 kbit/s gives
    # 0.5 bit, which floors to none
    assert main(simulate + ["--tau", "0.005"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ("warning: tau leaves fractional bits in some pools or "
                            "relay segments; lengths are rounded down\n")
    assert "warning" not in captured.out
    assert "(0, 4): 0 bits" in captured.out


def test_simulate_refuses_non_positive_tau_without_warning(k23_file, tmp_path, capsys):
    route_dir = tmp_path / "route"
    main(["route", "--input", str(k23_file), "--out-dir", str(route_dir)])
    capsys.readouterr()
    for tau in ("-0.0005", "0"):
        assert main(["simulate", "--input", str(k23_file), "--routing", str(route_dir),
                     f"--tau={tau}"]) == EXIT_INVALID, tau
        assert capsys.readouterr().err == f"error: tau must be positive, got {tau}\n"


def test_simulate_checks_epsilon_without_records(k23_file, tmp_path, capsys):
    # a zero target routes no record, so there is no bound to report, yet a
    # bad --epsilon is refused as it is with records
    net = write_net(tmp_path, "k23.json", {**json.loads(k23_file.read_text()), "target": 0})
    route_dir = tmp_path / "route"
    assert main(["route", "--input", str(net), "--out-dir", str(route_dir)]) == EXIT_OK
    assert json.loads((route_dir / "routing_list.json").read_text())["records"] == []
    capsys.readouterr()
    simulate = ["simulate", "--input", str(net), "--routing", str(route_dir), "--tau", "1"]
    for epsilon, refusal in (("7", "must lie in [0, 1]"), ("nan", "must be finite"),
                             ("abc", "is not a number")):
        assert main(simulate + ["--epsilon", epsilon]) == EXIT_INVALID, epsilon
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: epsilon {refusal}"), captured.err
        assert captured.out == ""
    assert main(simulate + ["--epsilon", "0.1"]) == EXIT_OK


def test_simulate_key_dump(k23_file, tmp_path, capsys):
    route_dir = tmp_path / "route"
    main(["route", "--input", str(k23_file), "--out-dir", str(route_dir)])
    capsys.readouterr()
    assert main([
        "simulate", "--input", str(k23_file), "--routing", str(route_dir),
        "--tau", "1", "--dump-keys",
    ]) == EXIT_OK
    assert "key hex:" in capsys.readouterr().out


def test_simulate_never_unpacks_pair_keys(k23_file, tmp_path, capsys):
    """The report, the text and the key dump read each pair key's packed
    bytes and bit length; unpacking it would hold a byte per key bit."""
    route_dir = tmp_path / "route"
    main(["route", "--input", str(k23_file), "--out-dir", str(route_dir)])
    capsys.readouterr()

    def unpacked(key):
        raise AssertionError("a pair key was unpacked")

    with mock.patch.object(keysim.PairKey, "bits", property(unpacked)):
        assert main([
            "simulate", "--input", str(k23_file), "--routing", str(route_dir),
            "--tau", "1", "--dump-keys", "--out-dir", str(tmp_path / "sim"),
        ]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("key hex:") == 4
    assert "pair (0, 4): 100 bits, endpoints agree" in out
    report = json.loads((tmp_path / "sim" / "simulation_report.json").read_text())
    assert [pair["key_bits"] for pair in report["pairs"]] == [100] * 4


@pytest.mark.parametrize("network, tau, key_lines, keys_sha256", [
    # the 5M-bit pool of edge (0, 1) is longer than one 2**22-bit draw
    ("mesh10_file", "1000", 32,
     "96e8afcba1c8c45928409d987fb6c39e2c394284c6f82dc06ab6b3c7f5488dfc"),
    # 1003-bit pools: draws drop leftover bits between pools, and relay
    # segments start mid-byte
    ("ring6_file", "1.003", 8,
     "5663f73045d701b30bac61c9ddbd44474f1aec0f14226bc9aad758fe0438affe"),
])
def test_simulate_key_bytes_pinned(request, tmp_path, capsys, network, tau,
                                   key_lines, keys_sha256):
    """The key bytes ``--dump-keys`` prints, pinned byte for byte."""
    path = request.getfixturevalue(network)
    route_dir = tmp_path / "route"
    assert main(["route", "--input", str(path), "--out-dir", str(route_dir)]) == EXIT_OK
    capsys.readouterr()
    assert main([
        "simulate", "--input", str(path), "--routing", str(route_dir),
        "--tau", tau, "--dump-keys",
    ]) == EXIT_OK
    lines = [line for line in capsys.readouterr().out.splitlines() if "key hex:" in line]
    assert len(lines) == key_lines
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    assert digest == keys_sha256


def test_module_entry_point(ring6_file):
    proc = subprocess.run(
        [sys.executable, "-m", "qkdroute", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == __version__
    proc = subprocess.run(
        [sys.executable, "-m", "qkdroute", "validate", "--input",
         str(ring6_file)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "connected: yes" in proc.stdout
