from __future__ import annotations

import csv
import hashlib
import itertools
import json

import pytest

from qkdroute.artifacts import (
    MANIFEST_FORMAT,
    ROUTING_FORMAT,
    read_routing_artifact,
    render_matrix_csv,
    render_routing_text,
    render_simulation_text,
    render_trace_csv,
    routing_to_dict,
    simulation_report_dict,
    write_route_artifacts,
    write_simulation_artifacts,
)
from qkdroute.cli import EXIT_OK, main
from qkdroute.engine import IterationTrace, RoutingList, RoutingOutcome, StopReason, run
from qkdroute.keysim import assess_compromise, simulate
from qkdroute.model import NetworkGraph, RateMatrix, RouterConfig
from qkdroute.netfile import NetworkFormatError, load_network

from conftest import NETWORKS_DIR


def dense5_outcome(dense5):
    graph, target = dense5
    config = RouterConfig(m=2, delta_r=100, seed=4)
    return graph, config, run(graph, target, config)


def test_routing_text_render(dense5):
    graph, _, outcome = dense5_outcome(dense5)
    text = render_routing_text(outcome.routing_list, graph.scale)
    lines = text.splitlines()
    assert text.endswith("\n")
    assert lines == [
        "{(0, 1, 4), (0, 3, 4)}: 0.1",
        "{(0, 2, 4), (0, 3, 4)}: 0.1",
        "{(1, 0, 3), (1, 2, 3)}: 0.1",
        "{(1, 2, 3), (1, 4, 3)}: 0.1",
    ]
    assert render_routing_text(RoutingList(), graph.scale) == ""


def test_routing_json_round_trip(dense5, dense5_file, tmp_path):
    graph, config, outcome = dense5_outcome(dense5)
    files = write_route_artifacts(tmp_path, outcome, graph, dense5[1], config, dense5_file)
    routing = read_routing_artifact(files["routing_json"], graph, dense5[1])
    doc = json.loads(files["routing_json"].read_text())
    assert doc["format"] == ROUTING_FORMAT
    assert doc["seed"] == 4
    assert doc["m"] == 2
    assert doc["stop_reason"] == "converged"
    assert routing.effective(graph) == outcome.routing_list.effective(graph)
    original = [(str(r.path_set), r.rate) for r in outcome.routing_list.records()]
    loaded = [(str(r.path_set), r.rate) for r in routing.records()]
    assert original == loaded


def test_read_rejects_wrong_format(dense5, tmp_path):
    graph, target = dense5
    bogus = tmp_path / "other.json"
    bogus.write_text(json.dumps({"format": "something/9"}))
    with pytest.raises(NetworkFormatError, match="not a routing artifact"):
        read_routing_artifact(bogus, graph, target)
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    with pytest.raises(NetworkFormatError, match="cannot parse"):
        read_routing_artifact(broken, graph, target)
    with pytest.raises(NetworkFormatError):
        read_routing_artifact(tmp_path / "missing.json", graph, target)


def test_matrix_csv_full_precision(dense5):
    graph, _, outcome = dense5_outcome(dense5)
    effective = outcome.routing_list.effective(graph)
    text = render_matrix_csv(effective.tolist(), graph.scale)
    rows = list(csv.reader(text.splitlines()))
    assert rows[0] == ["node", "0", "1", "2", "3", "4"]
    assert len(rows) == 6
    for i in range(5):
        assert rows[i + 1][0] == str(i)
        for j in range(5):
            # cell holds the exact kbit/s rendering of the integer rate
            assert rows[i + 1][j + 1] == graph.scale.kbps_str(int(effective[i, j]))
    assert rows[1][1] == "0"
    assert rows[2][4] == "0.2"  # routed pair (1, 3) reached its target


# each IterationTrace field and the trace.csv columns that carry it
TRACE_COLUMNS = {
    "r": ("r",),
    "selected_pair": ("pair_i", "pair_j"),
    "pairs_tied": ("pairs_tied",),
    "chosen_set": ("chosen_set",),
    "sets_tied": ("sets_tied",),
    "delta_before": ("delta_before_kbps",),
    "delta_after": ("delta_after_kbps",),
    "stop_reason": ("stop_reason",),
}


def test_trace_csv_layout(dense5):
    graph, _, outcome = dense5_outcome(dense5)
    text = render_trace_csv(outcome, graph.scale)
    rows = list(csv.reader(text.splitlines()))
    assert rows[0][:4] == ["r", "pair_i", "pair_j", "pairs_tied"]
    # four accepted iterations plus one terminal row
    assert len(rows) == 6
    first = rows[1]
    assert first[0] == "1"
    assert (first[1], first[2]) == ("1", "3")
    assert first[4] == "(1, 0, 3)|(1, 2, 3)"
    assert first[6] == "0.2" and first[7] == "0.2"
    assert first[8] == ""
    assert rows[4][6] == "0.1" and rows[4][7] == "0"
    terminal = rows[5]
    assert terminal[8] == "converged"
    assert terminal[6] == "0" and terminal[7] == "0"

    # every row carries every field of its entry, so no trace field goes
    # unrecorded.  The runs end in each stop reason and route records at
    # M = 1 and M = 3; mesh10's cost_worsened row also carries a pair and a set
    assert tuple(TRACE_COLUMNS) == IterationTrace._fields

    def routed(name, **changes):
        graph, target, config = load_network(NETWORKS_DIR / f"{name}.json")
        return graph, run(graph, target, config.replace(**changes))

    cycle = NetworkGraph(4, {(0, 1): 5, (1, 3): 5, (0, 2): 5, (2, 3): 5})
    runs = [
        (graph, outcome),
        routed("mesh10"),
        routed("mesh10", r_max=7),
        routed("dense5", seed=2),
        routed("k23", m=3),
        (cycle, run(cycle, RateMatrix(4, [100] * 6), RouterConfig(m=2, delta_r=10, seed=0))),
        routed("dense5", m=1),
        routed("dense5", m=3),
    ]
    assert {outcome.stop_reason for _, outcome in runs} == set(StopReason)
    assert all(outcome.iterations for _, outcome in runs[-2:])
    for graph, outcome in runs:
        kbps = graph.scale.kbps_str
        rows = list(csv.reader(render_trace_csv(outcome, graph.scale).splitlines()))
        assert rows[0] == [column for columns in TRACE_COLUMNS.values() for column in columns]
        assert len(rows) == len(outcome.trace) + 1
        for row, entry in zip(rows[1:], outcome.trace):
            pair, chosen, reason = entry.selected_pair, entry.chosen_set, entry.stop_reason
            assert row == [
                str(entry.r),
                *(("", "") if pair is None else map(str, pair)),
                str(entry.pairs_tied),
                "" if chosen is None else "|".join(map(str, chosen.paths)),
                str(entry.sets_tied),
                kbps(entry.delta_before),
                kbps(entry.delta_after),
                "" if reason is None else reason.value,
            ]


def test_route_artifacts_byte_identical(dense5, dense5_file, tmp_path):
    graph, target = dense5
    config = RouterConfig(m=2, delta_r=100, seed=4)
    contents = []
    for label in ("a", "b", "c"):
        outcome = run(graph, target, config)
        files = write_route_artifacts(
            tmp_path / label, outcome, graph, target, config, dense5_file
        )
        contents.append({name: p.read_bytes() for name, p in files.items()})
    assert contents[0] == contents[1] == contents[2]
    assert set(contents[0]) == {
        "routing_txt", "routing_json", "effective_csv", "trace_csv", "manifest",
    }


def test_manifest_contents(dense5, dense5_file, tmp_path):
    graph, config, outcome = dense5_outcome(dense5)
    files = write_route_artifacts(tmp_path, outcome, graph, dense5[1], config, dense5_file)
    manifest = json.loads(files["manifest"].read_text())
    assert manifest["format"] == MANIFEST_FORMAT
    assert manifest["command"] == "route"
    expected_sha = hashlib.sha256(dense5_file.read_bytes()).hexdigest()
    assert manifest["input_sha256"] == expected_sha
    assert manifest["config"]["delta_r_kbps"] == "0.1"
    assert manifest["config"]["seed"] == 4
    assert manifest["artifacts"] == {
        "routing_txt": "routing_list.txt", "routing_json": "routing_list.json",
        "effective_csv": "effective_rates.csv", "trace_csv": "trace.csv",
    }
    assert {name: path.name for name, path in files.items()} == {
        **manifest["artifacts"], "manifest": "manifest.json"}
    # reproducible artifacts carry no clock readings
    assert "time" not in json.dumps(manifest).lower()


def test_routing_dict_effective_is_lossless(dense5):
    graph, config, outcome = dense5_outcome(dense5)
    doc = routing_to_dict(outcome.routing_list, graph, config, outcome.iterations,
                          outcome.stop_reason, dense5[1])
    assert doc["effective_units"] == outcome.routing_list.effective(graph).tolist()
    assert doc["final_delta_units"] == outcome.final_delta == 0
    for entry in doc["records"]:
        assert entry["rate_units"] == 100
        assert entry["rate_kbps"] == "0.1"


def test_artifact_final_shortfall_is_the_loop_cost():
    # the artifact derives its shortfall from the routing list; the loop's
    # cost is the terminal entry's delta_before, which a rejected
    # cost_worsened step leaves out, as the routing list does
    assert RoutingOutcome.__slots__ == ("routing_list", "trace")
    stops = set()
    for name in ("dense5", "k23", "mesh10", "ring6_chord"):
        graph, target, file_config = load_network(NETWORKS_DIR / f"{name}.json")
        for seed, guard, m in itertools.product((0, 1, 2), (True, False), (1, 2, 3)):
            config = file_config.replace(seed=seed, strict_guard=guard, m=m)
            out = run(graph, target, config)
            doc = routing_to_dict(out.routing_list, graph, config, out.iterations,
                                  out.stop_reason, target)
            last = out.trace[-1]
            assert doc["final_delta_units"] == out.final_delta == last.delta_before, name
            assert doc["iterations"] == out.iterations == last.r == len(out.trace) - 1
            if last.stop_reason is StopReason.COST_WORSENED:
                assert last.delta_after > last.delta_before
            stops.add(last.stop_reason)
    assert StopReason.COST_WORSENED in stops


def test_simulation_report(k23):
    graph, target = k23
    outcome = run(graph, target, RouterConfig(m=2, delta_r=100, seed=0))
    sim = simulate(graph, outcome.routing_list, tau=1, seed=0)
    report = assess_compromise(sim, {1, 2}, epsilon="0.1")
    doc = simulation_report_dict(sim, report)
    assert doc["format"] == "qkdroute.simulation/1"
    assert doc["tau_seconds"] == "1"
    assert doc["compromised_nodes"] == [1, 2]
    assert doc["compromise_probability_bound"] == 0.01
    statuses = {tuple(e["pair"]): e["status"] for e in doc["pairs"]}
    assert set(statuses) == set(sim.pair_keys)
    for entry in doc["pairs"]:
        assert entry["endpoints_agree"] is True
    text = render_simulation_text(sim, report)
    assert "compromised nodes: [1, 2]" in text
    assert "compromise probability bound: 0.01" in text
    bare = render_simulation_text(sim, assess_compromise(sim, ()))
    assert "compromised nodes: none" in bare and "bound" not in bare


def test_simulation_text_key_dump(k23):
    graph, target = k23
    outcome = run(graph, target, RouterConfig(m=2, delta_r=100, seed=0))
    sim = simulate(graph, outcome.routing_list, tau=1, seed=0)
    text = render_simulation_text(sim, assess_compromise(sim, ()), dump_keys=True)
    dumps = [line for line in text.splitlines() if "key hex:" in line]
    assert len(dumps) == len(sim.pair_keys)
    hex_value = dumps[0].split("key hex:")[1].strip()
    assert len(hex_value) == 2 * ((100 + 7) // 8)  # 100-bit key packs to 13 bytes
    int(hex_value, 16)


def test_write_simulation_artifacts(k23, k23_file, tmp_path):
    graph, target = k23
    config = RouterConfig(m=2, delta_r=100, seed=0)
    outcome = run(graph, target, config)
    route_files = write_route_artifacts(
        tmp_path / "route", outcome, graph, target, config, k23_file
    )
    sim = simulate(graph, outcome.routing_list, tau=1, seed=0)
    report = assess_compromise(sim, ())
    text = render_simulation_text(sim, report, dump_keys=True)
    sim_files = write_simulation_artifacts(
        tmp_path / "sim", sim, report, k23_file, route_files["routing_json"], text
    )
    manifest = json.loads(sim_files["manifest"].read_text())
    assert manifest["command"] == "simulate"
    assert manifest["artifacts"] == {
        "report_json": "simulation_report.json", "report_txt": "simulation_report.txt",
    }
    assert {name: path.name for name, path in sim_files.items()} == {
        **manifest["artifacts"], "manifest": "manifest.json"}
    routing_sha = hashlib.sha256(
        route_files["routing_json"].read_bytes()
    ).hexdigest()
    assert manifest["routing_sha256"] == routing_sha
    doc = json.loads(sim_files["report_json"].read_text())
    assert doc["pools"]["0-1"] == sim.pool_lengths[(0, 1)]
    # the text report holds the rendered text as given, key dumps included
    assert sim_files["report_txt"].read_text() == text
    # repeated simulation writes byte-identical reports
    sim2 = simulate(graph, outcome.routing_list, tau=1, seed=0)
    report2 = assess_compromise(sim2, ())
    again = write_simulation_artifacts(
        tmp_path / "sim2", sim2, report2, k23_file, route_files["routing_json"],
        render_simulation_text(sim2, report2, dump_keys=True),
    )
    assert (
        sim_files["report_json"].read_bytes() == again["report_json"].read_bytes()
    )
    assert sim_files["report_txt"].read_bytes() == again["report_txt"].read_bytes()



def test_every_routing_artifact_reads_back_as_written(tmp_path, capsys):
    # route writes every stop reason but guard_exhausted here; what the
    # reader returns renders to the file's bytes again
    variants = ([], ["--no-strict-guard"], ["--r-max", "3"], ["--hop-limit", "3"],
                ["--delta-r", "0.05"])
    stops = set()
    for network in ("dense5", "k23", "mesh10", "ring6_chord"):
        net = NETWORKS_DIR / f"{network}.json"
        graph, target, _ = load_network(net)
        for m, seed, flags in itertools.product((1, 2, 3), (0, 1, 2), variants):
            out = tmp_path / f"{network}-{m}-{seed}{'-'.join(['', *flags])}"
            assert main(["route", "--input", str(net), "--m", str(m), "--seed", str(seed),
                         *flags, "--out-dir", str(out)]) == EXIT_OK
            text = (out / "routing_list.json").read_text()
            doc = json.loads(text)
            routing = read_routing_artifact(out / "routing_list.json", graph, target)
            config = RouterConfig(**{key: doc[key] for key in
                                     ("m", "r_max", "seed", "hop_limit", "strict_guard")},
                                  delta_r=doc["delta_r_units"])
            render = routing_to_dict(routing, graph, config, doc["iterations"],
                                     StopReason(doc["stop_reason"]), target)
            assert json.dumps(render, indent=2, sort_keys=True) + "\n" == text, out.name
            stops.add(doc["stop_reason"])
    capsys.readouterr()
    assert stops == {reason.value for reason in StopReason} - {"guard_exhausted"}
