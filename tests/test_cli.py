from __future__ import annotations

import json
import subprocess
import sys

from qkdroute import __version__
from qkdroute.artifacts import read_routing_artifact
from qkdroute.cli import EXIT_INVALID, EXIT_OK, main
from qkdroute.keysim import record_is_leaked


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
    manifests = [
        write_net(tmp_path, "array.json", [good]),
        write_net(tmp_path, "no_input.json", without_input),
        write_net(tmp_path, "no_config.json", without_config),
        sim_dir / "manifest.json",
        tmp_path / "missing.json",
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
    routing, _, _ = read_routing_artifact(route_dir / "routing_list.json")
    for pair in routing.pairs():
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
    artifacts = [
        write_net(tmp_path, "array.json", [good]),
        write_net(tmp_path, "no_rate.json", no_rate),
        write_net(tmp_path, "bad_shape.json", bad_shape),
    ]
    capsys.readouterr()
    for artifact in artifacts:
        assert main([
            "simulate", "--input", str(k23_file), "--routing", str(artifact),
            "--tau", "1",
        ]) == EXIT_INVALID, artifact.name
        assert "error:" in capsys.readouterr().err


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
    assert main([
        "simulate", "--input", str(k23_file), "--routing", str(route_dir),
        "--tau", "0.0005",
    ]) == EXIT_OK
    assert "fractional bits" in capsys.readouterr().err


def test_simulate_key_dump(k23_file, tmp_path, capsys):
    route_dir = tmp_path / "route"
    main(["route", "--input", str(k23_file), "--out-dir", str(route_dir)])
    capsys.readouterr()
    assert main([
        "simulate", "--input", str(k23_file), "--routing", str(route_dir),
        "--tau", "1", "--dump-keys",
    ]) == EXIT_OK
    assert "key hex:" in capsys.readouterr().out


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
