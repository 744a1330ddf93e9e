"""File artifacts for routing runs and key simulations.

All writers are deterministic: same inputs and seed produce byte-identical
files.  Nothing here embeds timestamps or environment details, which keeps
artifacts reproducible from their manifest alone.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path as FsPath
from typing import Dict, Optional, Tuple, Union

import numpy as np

from . import __version__
from .engine import RoutingList, RoutingOutcome
from .keysim import CompromiseReport, KeySimulation
from .model import NetworkGraph, RouterConfig
from .netfile import NetworkFormatError
from .paths import MPathSet, Path
from .units import UnitScale

ROUTING_FORMAT = "qkdroute.routing/1"
MANIFEST_FORMAT = "qkdroute.manifest/1"
# the route manifest's config fields that a replay reads back
_ROUTE_CONFIG_KEYS = {"m", "delta_r_kbps", "r_max", "seed", "hop_limit", "strict_guard"}


def render_routing_text(
    routing_list: RoutingList, scale: UnitScale
) -> str:
    """Human-readable routing list, one ``{set}: rate`` line per record."""
    lines = [
        f"{record.path_set}: {scale.kbps_str(record.rate)}"
        for record in routing_list.records()
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def routing_to_dict(
    outcome: RoutingOutcome, graph: NetworkGraph, config: RouterConfig
) -> dict:
    scale = graph.scale
    return {
        "format": ROUTING_FORMAT,
        "resolution_bps": str(scale.resolution_bps),
        "m": config.m,
        "delta_r_units": config.delta_r,
        "seed": config.seed,
        "r_max": config.r_max,
        "hop_limit": config.hop_limit,
        "strict_guard": config.strict_guard,
        "nodes": graph.node_count,
        "iterations": outcome.iterations,
        "final_delta_units": outcome.final_delta,
        "stop_reason": outcome.stop_reason.value,
        "records": [
            {
                "pair": list(record.pair),
                "paths": [list(p.nodes) for p in record.path_set.paths],
                "rate_units": record.rate,
                "rate_kbps": scale.kbps_str(record.rate),
            }
            for record in outcome.routing_list.records()
        ],
        "effective_units": outcome.effective.tolist(),
    }


def read_routing_artifact(
    path: Union[str, FsPath],
) -> Tuple[RoutingList, np.ndarray, dict]:
    """Load a routing JSON artifact back into library types."""
    try:
        doc = json.loads(FsPath(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise NetworkFormatError(f"cannot parse routing artifact {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != ROUTING_FORMAT:
        raise NetworkFormatError(f"{path} is not a routing artifact")
    try:
        routing = RoutingList()
        for entry in doc["records"]:
            path_set = MPathSet(tuple(Path(tuple(nodes)) for nodes in entry["paths"]))
            routing.add(path_set, int(entry["rate_units"]))
        nodes = doc["nodes"]
        effective = np.asarray(doc["effective_units"], dtype=np.int64)
    except (KeyError, TypeError, ValueError) as exc:
        raise NetworkFormatError(f"malformed routing artifact {path}: {exc!r}") from exc
    if effective.shape != (nodes, nodes):
        raise NetworkFormatError(f"{path}: effective_units is not {nodes} x {nodes}")
    return routing, effective, doc


def render_matrix_csv(matrix: np.ndarray, scale: UnitScale) -> str:
    """Symmetric matrix as CSV in kbit/s, full precision, node index headers."""
    n = matrix.shape[0]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["node"] + [str(j) for j in range(n)])
    for i in range(n):
        writer.writerow([str(i)] + [scale.kbps_str(int(matrix[i, j])) for j in range(n)])
    return out.getvalue()


def render_trace_csv(outcome: RoutingOutcome, scale: UnitScale) -> str:
    """One row per accepted iteration plus the terminal event."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        [
            "r",
            "pair_i",
            "pair_j",
            "pairs_tied",
            "chosen_set",
            "sets_tied",
            "delta_before_kbps",
            "delta_after_kbps",
            "stop_reason",
        ]
    )
    for entry in outcome.trace:
        pair = entry.selected_pair
        chosen = (
            "|".join(str(p) for p in entry.chosen_set.paths)
            if entry.chosen_set is not None
            else ""
        )
        writer.writerow(
            [
              entry.r,
              "" if pair is None else pair[0],
              "" if pair is None else pair[1],
              entry.pairs_tied,
              chosen,
              entry.sets_tied,
              scale.kbps_str(entry.delta_before),
              scale.kbps_str(entry.delta_after),
              entry.stop_reason.value if entry.stop_reason else "",
            ]
        )
    return out.getvalue()


def _sha256(path: FsPath) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(
    out: FsPath,
    files: Dict[str, FsPath],
    command: str,
    input_path: Union[str, FsPath],
    **fields: object,
) -> None:
    """Write ``manifest.json`` listing ``files`` and add it to ``files``."""
    manifest = {
        "format": MANIFEST_FORMAT,
        "tool": "qkdroute",
        "version": __version__,
        "command": command,
        "input": str(input_path),
        "input_sha256": _sha256(FsPath(input_path)),
        "artifacts": {name: path.name for name, path in files.items()},
        **fields,
    }
    files["manifest"] = out / "manifest.json"
    files["manifest"].write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_route_manifest(path: Union[str, FsPath]) -> dict:
    """Load a route manifest, refusing a malformed one or a changed input."""
    try:
        manifest = json.loads(FsPath(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise NetworkFormatError(f"cannot parse manifest {path}: {exc}") from exc
    if (
        not isinstance(manifest, dict)
        or manifest.get("format") != MANIFEST_FORMAT
        or manifest.get("command") != "route"
        or not isinstance(manifest.get("input"), str)
        or not isinstance(manifest.get("config"), dict)
        or not _ROUTE_CONFIG_KEYS <= manifest["config"].keys()
    ):
        raise NetworkFormatError(f"{path} is not a route manifest")
    input_path = FsPath(manifest["input"])
    if not input_path.is_file() or _sha256(input_path) != manifest.get("input_sha256"):
        raise NetworkFormatError(
            f"{input_path} is missing or differs from the input recorded in {path}"
        )
    return manifest


def write_route_artifacts(
    out_dir: Union[str, FsPath],
    outcome: RoutingOutcome,
    graph: NetworkGraph,
    config: RouterConfig,
    input_path: Union[str, FsPath],
) -> Dict[str, FsPath]:
    """Write routing list (text + JSON), matrix CSV, trace CSV and manifest.

    Returns:
        Mapping of artifact name to written path.
    """
    out = FsPath(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scale = graph.scale
    files = {
        "routing_txt": out / "routing_list.txt",
        "routing_json": out / "routing_list.json",
        "effective_csv": out / "effective_rates.csv",
        "trace_csv": out / "trace.csv",
    }
    files["routing_txt"].write_text(render_routing_text(outcome.routing_list, scale))
    files["routing_json"].write_text(
        json.dumps(routing_to_dict(outcome, graph, config), indent=2, sort_keys=True)
        + "\n"
    )
    files["effective_csv"].write_text(render_matrix_csv(outcome.effective, scale))
    files["trace_csv"].write_text(render_trace_csv(outcome, scale))

    _write_manifest(
        out, files, "route", input_path,
        config={
            "m": config.m,
            "delta_r_kbps": None
            if config.delta_r is None
            else scale.kbps_str(config.delta_r),
            "r_max": config.r_max,
            "seed": config.seed,
            "hop_limit": config.hop_limit,
            "strict_guard": config.strict_guard,
            "resolution_bps": str(scale.resolution_bps),
        },
    )
    return files


def simulation_report_dict(
    sim: KeySimulation,
    report: Optional[CompromiseReport],
) -> dict:
    scale = sim.graph.scale
    pairs = []
    for pair, key in sorted(sim.pair_keys.items()):
        entry: dict = {
            "pair": list(pair),
            "key_bits": int(len(key.bits)),
            "endpoints_agree": key.agreed,
        }
        if report is not None:
            entry["status"] = report.pair_status[pair]
            entry["leaked_bits"] = report.leaked_bits[pair]
        pairs.append(entry)
    doc: dict = {
        "format": "qkdroute.simulation/1",
        "tau_seconds": str(sim.tau),
        "seed": sim.seed,
        "pools": {
            f"{u}-{v}": int(len(pool)) for (u, v), pool in sorted(sim.pools.items())
        },
        "pairs": pairs,
    }
    if report is not None:
        doc["compromised_nodes"] = sorted(report.compromised)
        if report.bound is not None:
            doc["compromise_probability_bound"] = report.bound
    return doc


def render_simulation_text(
    sim: KeySimulation,
    report: Optional[CompromiseReport],
    dump_keys: bool = False,
) -> str:
    lines = [f"key simulation: tau={sim.tau}s seed={sim.seed}"]
    for pair, key in sorted(sim.pair_keys.items()):
        verdict = "agree" if key.agreed else "MISMATCH"
        line = f"pair ({pair[0]}, {pair[1]}): {len(key.bits)} bits, endpoints {verdict}"
        if report is not None:
            line += f", {report.pair_status[pair]}"
            if report.leaked_bits[pair]:
                line += f" ({report.leaked_bits[pair]} bits leaked)"
        lines.append(line)
        if dump_keys:
            packed = np.packbits(key.bits)
            lines.append(f"  key hex: {packed.tobytes().hex()}")
    if report is not None:
        lines.append(f"compromised nodes: {sorted(report.compromised) or 'none'}")
        if report.bound is not None:
            lines.append(f"compromise probability bound: {report.bound}")
    return "\n".join(lines) + "\n"


def write_simulation_artifacts(
    out_dir: Union[str, FsPath],
    sim: KeySimulation,
    report: Optional[CompromiseReport],
    input_path: Union[str, FsPath],
    routing_path: Union[str, FsPath],
    dump_keys: bool = False,
) -> Dict[str, FsPath]:
    out = FsPath(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {
        "report_json": out / "simulation_report.json",
        "report_txt": out / "simulation_report.txt",
    }
    files["report_json"].write_text(
        json.dumps(simulation_report_dict(sim, report), indent=2, sort_keys=True) + "\n"
    )
    files["report_txt"].write_text(render_simulation_text(sim, report, dump_keys))
    _write_manifest(
        out, files, "simulate", input_path,
        routing=str(routing_path),
        routing_sha256=_sha256(FsPath(routing_path)),
        config={"tau_seconds": str(sim.tau), "seed": sim.seed},
    )
    return files
