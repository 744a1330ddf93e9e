"""File artifacts for routing runs and key simulations.

All writers are deterministic: same inputs and seed produce byte-identical
files.  Nothing here embeds timestamps or environment details, which keeps
artifacts reproducible from their manifest alone.
"""

from __future__ import annotations

import functools
import hashlib
import json
import operator
import os
from pathlib import Path as FsPath
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from . import __version__
from .engine import RoutingList, RoutingOutcome, StopReason, worst_pairs
from .model import NetworkGraph, RateMatrix, RouterConfig, _pairs
from .netfile import LoadedNetwork, NetworkFormatError, load_network, parse_router
# netfile's one JSON file read, error boundary and integer rule
from .netfile import _format_errors, _int_field, _is_int, _read_json
from .paths import MPathSet, Path, find_unroutable_pairs
from .units import MAX_UNITS, UnitScale

if TYPE_CHECKING:
    # keysim loads numpy, which only the simulation writers need
    from .keysim import CompromiseReport, KeySimulation

ROUTING_FORMAT = "qkdroute.routing/1"
MANIFEST_FORMAT = "qkdroute.manifest/1"
# the config fields both route artifacts record, named as in RouterConfig
_CONFIG_FIELDS = ("m", "r_max", "seed", "hop_limit", "strict_guard")


def _config_fields(config: RouterConfig) -> dict:
    return {key: getattr(config, key) for key in _CONFIG_FIELDS}


def _parse_config(fields: dict, scale: UnitScale) -> RouterConfig:
    """Read recorded config fields as a netfile ``router`` object, whose ``m`` is ``M``."""
    return parse_router({("M" if key == "m" else key): value
                         for key, value in fields.items()}, scale)


def render_routing_text(
    routing_list: RoutingList, scale: UnitScale
) -> str:
    """Human-readable routing list, one ``{set}: rate`` line per record."""
    lines = [
        f"{record.path_set}: {scale.kbps_str(record.rate)}"
        for record in routing_list.records()
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def routing_to_dict(routing: RoutingList, graph: NetworkGraph, config: RouterConfig,
                    iterations: int, stop_reason: StopReason, target: RateMatrix) -> dict:
    """A run as its routing JSON artifact; the one rendering of every field."""
    effective = routing.effective(graph)
    return {
        "format": ROUTING_FORMAT,
        "resolution_bps": str(graph.scale.resolution_bps),
        **_config_fields(config),
        "delta_r_units": config.delta_r,
        "nodes": graph.node_count,
        "iterations": iterations,
        "final_delta_units": max(map(operator.sub, target.cells, effective.cells)),
        "stop_reason": stop_reason.value,
        "records": [
            {
                "pair": list(record.pair),
                "paths": [list(p.nodes) for p in record.path_set.paths],
                "rate_units": record.rate,
                "rate_kbps": graph.scale.kbps_str(record.rate),
            }
            for record in routing.records()
        ],
        "effective_units": effective.tolist(),
    }


# JSON text tells apart what Python equality does not: true and 1, 700.0 and 700
_json_text = functools.partial(json.dumps, sort_keys=True)


def _first_difference(found: object, derived: object, site: str = "") -> str:
    """Name the first place where two JSON values of different JSON text differ."""
    if isinstance(found, dict) and isinstance(derived, dict):
        extra = sorted(found.keys() ^ derived.keys())
        if extra:
            kind = "unexpected" if extra[0] in found else "missing"
            return f"{kind} key {extra[0]!r}" + (f" in {site}" if site else "")
        members = [(f"{site}.{key}" if site else key, found[key], derived[key])
                   for key in sorted(found)]
    elif isinstance(found, list) and isinstance(derived, list):
        members = [(f"{site}[{k}]", *values) for k, values in enumerate(zip(found, derived))]
    else:
        # a scalar as itself, a container by its kind
        found, derived = ({dict: "an object", list: "a list"}.get(type(v)) or repr(v)
                          for v in (found, derived))
        return f"{site} {found} is not {derived}"
    for where, a, b in members:
        if _json_text(a) != _json_text(b):
            return _first_difference(a, b, where)
    return f"{site} holds {len(found)} items, not {len(derived)}"


def read_routing_artifact(
    path: Union[str, FsPath], graph: NetworkGraph, target: RateMatrix
) -> RoutingList:
    """Load a routing JSON artifact, check it against ``graph`` and
    ``target`` and return its routing list.

    Reads what ``route`` chose: the config, ``delta_r_units``,
    ``iterations``, ``stop_reason`` and each record's ``paths`` and
    ``rate_units``.  Every other field must be what ``route`` writes for
    it: ``routing_to_dict`` renders the run from those, with
    ``final_delta_units`` the largest shortfall of ``target``, and the
    first field that differs is named.  The chosen fields keep their own
    rules: integer node ids; ``m`` paths, within a set ``hop_limit``, for
    a pair with no direct link; rates that are positive multiples of
    ``delta_r_units`` up to ``MAX_UNITS``, on network edges, adding up to
    ``iterations`` steps, no more than a set ``r_max``; no negative edge
    under ``strict_guard``; and a ``stop_reason`` that fits the final state.
    """
    doc = _read_json(path, "routing artifact ")
    if not isinstance(doc, dict) or doc.get("format") != ROUTING_FORMAT:
        raise NetworkFormatError(f"{path} is not a routing artifact")
    n = graph.node_count
    if doc.get("nodes") != n:
        raise NetworkFormatError(
            f"routing artifact is for {doc.get('nodes')} nodes, network has {n}"
        )
    with _format_errors(f"malformed routing artifact {path}: "):
        config = _parse_config({key: doc[key] for key in _CONFIG_FIELDS}, graph.scale)
        config = config.replace(delta_r=_int_field(doc["delta_r_units"], "delta_r_units"))
        m, step, hop_limit = config.m, config.delta_r, config.hop_limit
        steps = _int_field(doc["iterations"], "iterations")
        if config.r_max is not None and steps > config.r_max:
            raise ValueError(f"iterations {steps} exceed r_max {config.r_max}")
        stop_reason = StopReason(doc["stop_reason"])
        routing = RoutingList()
        for entry in doc["records"]:
            if not all(_is_int(node) for nodes in entry["paths"] for node in nodes):
                raise ValueError(f"record paths {entry['paths']!r} hold a non-integer node id")
            path_set = MPathSet(tuple(Path(tuple(nodes)) for nodes in entry["paths"]))
            if path_set.m != m:
                raise ValueError(f"record {path_set} has {path_set.m} paths, not m = {m}")
            pair = list(path_set.endpoints)
            if graph.has_edge(*pair):
                raise ValueError(f"record {path_set} routes {pair}, a directly linked pair")
            longest = max(p.hops for p in path_set.paths)
            if hop_limit is not None and longest > hop_limit:
                raise ValueError(
                    f"record {path_set} has a path of {longest} hops, over hop_limit {hop_limit}"
                )
            rate = entry["rate_units"]
            if not _is_int(rate) or not 0 < rate <= MAX_UNITS:
                raise ValueError(f"rate_units {rate!r} is not an integer from 1 to {MAX_UNITS}")
            if rate % step:
                raise ValueError(f"rate_units {rate} is not a multiple of delta_r_units {step}")
            for u, v in path_set.edges:
                if not graph.has_edge(u, v):
                    raise ValueError(f"edge ({u}, {v}) is not in the network")
            routing.add(path_set, rate)
        derived = routing_to_dict(routing, graph, config, steps, stop_reason, target)
        effective, final = derived["effective_units"], derived["final_delta_units"]
        negative = [(u, v) for u, v in graph.edges if effective[u][v] < 0]
        if config.strict_guard and negative:
            raise ValueError(f"edge {negative[0]} is negative under the strict guard")
        routed = sum(record.rate for record in routing.records())
        if routed != steps * step:
            raise ValueError(f"records hold {routed} units, not {steps} iterations "
                             f"of {step} units")
        if _json_text(doc) != _json_text(derived):
            raise ValueError(_first_difference(doc, derived))
        # what each stop reason says of the pairs left at the final shortfall
        deficiency = [want - effective[i][j] for (i, j), want in zip(_pairs(n), target.cells)]
        worst = worst_pairs(deficiency, n, final)
        linked = [graph.has_edge(*pair) for pair in worst]
        fits = {
            StopReason.CONVERGED: lambda: True,
            StopReason.R_MAX: lambda: steps == config.r_max,
            StopReason.DIRECT_PAIR_WORST: lambda: any(linked),
            StopReason.NO_M_SET: lambda: not set(worst).isdisjoint(
                find_unroutable_pairs(graph, m, hop_limit)),
            StopReason.COST_WORSENED: lambda: not all(linked),
            StopReason.GUARD_EXHAUSTED: lambda: not all(linked),
        }[stop_reason]
        if (stop_reason is StopReason.CONVERGED) != (final <= 0) or not fits():
            raise ValueError(f"stop_reason {stop_reason.value!r} does not fit a run that "
                             f"ends {final} units short after {steps} iterations")
    return routing


def render_matrix_csv(rows: list[list[int]], scale: UnitScale) -> str:
    """Matrix rows, such as ``effective_units``, as kbit/s CSV, full precision, node headers."""
    lines = [",".join(["node", *map(str, range(len(rows)))])]
    lines += [",".join([str(i), *map(scale.kbps_str, row)]) for i, row in enumerate(rows)]
    return "\n".join(lines) + "\n"


_TRACE_HEADER = ("r,pair_i,pair_j,pairs_tied,chosen_set,sets_tied,"
                 "delta_before_kbps,delta_after_kbps,stop_reason\n")


def render_trace_csv(outcome: RoutingOutcome, scale: UnitScale) -> str:
    """One row per accepted iteration plus the terminal event.

    Only the set cell is quoted.  Its text, the paths joined by ``|``,
    always holds ``", "``, since a path has at least two nodes, and never a
    ``"``, so it is quoted and never escaped.  Ints, kbit/s values and stop
    reasons never need quoting.  The terminal row leaves empty what its
    event lacks: the pair, the set or the stop reason.
    """
    # long runs repeat few values and sets, so each is formatted once per call
    kbps = functools.cache(scale.kbps_str)

    @functools.cache
    def set_cell(path_set: MPathSet) -> str:
        return '"' + "|".join(map(str, path_set.paths)) + '"'

    return _TRACE_HEADER + "".join(
        f"{r},{'' if pair is None else pair[0]},{'' if pair is None else pair[1]},"
        f"{pairs_tied},{'' if chosen is None else set_cell(chosen)},{sets_tied},"
        f"{kbps(before)},{kbps(after)},{'' if reason is None else reason.value}\n"
        for r, pair, pairs_tied, chosen, sets_tied, before, after, reason in outcome.trace
    )


def _sha256(path: FsPath) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_artifacts(
    out_dir: Union[str, FsPath],
    texts: Dict[str, Tuple[str, Union[str, dict]]],
    command: str,
    input_path: Union[str, FsPath],
    routing_path: Optional[Union[str, FsPath]] = None,
    **fields: object,
) -> Dict[str, FsPath]:
    """The one writer of an artifact directory: each of ``texts``, a file
    name and its text or JSON document by artifact name, then
    ``manifest.json`` listing them.  Returns every written path by name.

    ``input`` and ``routing`` are recorded relative to ``out_dir``, so the
    manifest reads the same, and replays, from any working directory.
    """
    out = FsPath(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def relative(path: Union[str, FsPath]) -> str:
        return os.path.relpath(os.path.abspath(path), os.path.abspath(out))

    if routing_path is not None:
        fields["routing"] = relative(routing_path)
        fields["routing_sha256"] = _sha256(FsPath(routing_path))
    texts["manifest"] = ("manifest.json", {
        "format": MANIFEST_FORMAT,
        "tool": "qkdroute",
        "version": __version__,
        "command": command,
        "input": relative(input_path),
        "input_sha256": _sha256(FsPath(input_path)),
        "artifacts": {name: file_name for name, (file_name, _) in texts.items()},
        **fields,
    })
    for file_name, text in texts.values():
        (out / file_name).write_text(text if isinstance(text, str)
                                     else json.dumps(text, indent=2, sort_keys=True) + "\n")
    return {name: out / file_name for name, (file_name, _) in texts.items()}


def read_route_manifest(path: Union[str, FsPath]) -> Tuple[str, LoadedNetwork]:
    """Load the input a route manifest names, under the manifest's config.

    A relative ``input`` is resolved against the manifest's directory.
    Refuses a malformed manifest, a changed input and a config ``parse_router`` refuses.
    """
    manifest = _read_json(path, "manifest ")
    if (
        not isinstance(manifest, dict)
        or manifest.get("format") != MANIFEST_FORMAT
        or manifest.get("command") != "route"
        or not isinstance(manifest.get("input"), str)
        or not isinstance(manifest.get("config"), dict)
        or not {*_CONFIG_FIELDS, "delta_r_kbps"} <= manifest["config"].keys()
    ):
        raise NetworkFormatError(f"{path} is not a route manifest")
    input_path = os.path.normpath(
        os.path.join(os.path.dirname(os.path.abspath(path)), manifest["input"])
    )
    recorded = manifest.get("input_sha256")
    if not FsPath(input_path).is_file() or _sha256(FsPath(input_path)) != recorded:
        raise NetworkFormatError(
            f"{input_path} is missing or differs from the input recorded in {path}"
        )
    network = load_network(input_path)
    scale = network.graph.scale
    # resolution_bps must be the input's, as the writer records it; the rest
    # is a router object
    with _format_errors(f"{path}: "):
        fields = dict(manifest["config"])
        resolution, expected = fields.pop("resolution_bps", None), str(scale.resolution_bps)
        if resolution != expected:
            raise ValueError(f"config.resolution_bps {resolution!r} is not the input's "
                             f"{expected!r}")
        config = _parse_config(fields, scale)
    return input_path, network._replace(config=config)


def write_route_artifacts(
    out_dir: Union[str, FsPath],
    outcome: RoutingOutcome,
    graph: NetworkGraph,
    target: RateMatrix,
    config: RouterConfig,
    input_path: Union[str, FsPath],
) -> Dict[str, FsPath]:
    """Write routing list (text + JSON), matrix CSV, trace CSV and manifest;
    return each written path by artifact name."""
    scale = graph.scale
    doc = routing_to_dict(outcome.routing_list, graph, config, outcome.iterations,
                          outcome.stop_reason, target)
    return _write_artifacts(out_dir, {
        "routing_txt": ("routing_list.txt", render_routing_text(outcome.routing_list, scale)),
        "routing_json": ("routing_list.json", doc),
        "effective_csv": ("effective_rates.csv",
                          render_matrix_csv(doc["effective_units"], scale)),
        "trace_csv": ("trace.csv", render_trace_csv(outcome, scale)),
    }, "route", input_path, config={
        **_config_fields(config),
        "delta_r_kbps": scale.kbps_str(config.delta_r),
        "resolution_bps": str(scale.resolution_bps),
    })


def simulation_report_dict(sim: KeySimulation, report: CompromiseReport) -> dict:
    doc: dict = {
        "format": "qkdroute.simulation/1",
        "tau_seconds": str(sim.tau),
        "seed": sim.seed,
        "pools": {f"{u}-{v}": bits for (u, v), bits in sorted(sim.pool_lengths.items())},
        "pairs": [
            {
                "pair": list(pair),
                "key_bits": key.length,
                "endpoints_agree": key.agreed,
                "status": report.pair_status[pair],
                "leaked_bits": report.leaked_bits[pair],
            }
            for pair, key in sorted(sim.pair_keys.items())
        ],
        "compromised_nodes": sorted(report.compromised),
    }
    if report.bound is not None:
        doc["compromise_probability_bound"] = report.bound
    return doc


def render_simulation_text(
    sim: KeySimulation,
    report: CompromiseReport,
    dump_keys: bool = False,
) -> str:
    lines = [f"key simulation: tau={sim.tau}s seed={sim.seed}"]
    for pair, key in sorted(sim.pair_keys.items()):
        verdict = "agree" if key.agreed else "MISMATCH"
        line = (f"pair ({pair[0]}, {pair[1]}): {key.length} bits, "
                f"endpoints {verdict}, {report.pair_status[pair]}")
        if report.leaked_bits[pair]:
            line += f" ({report.leaked_bits[pair]} bits leaked)"
        lines.append(line)
        if dump_keys:
            lines.append(f"  key hex: {key.hex()}")
    lines.append(f"compromised nodes: {sorted(report.compromised) or 'none'}")
    if report.bound is not None:
        lines.append(f"compromise probability bound: {report.bound}")
    return "\n".join(lines) + "\n"


def write_simulation_artifacts(
    out_dir: Union[str, FsPath],
    sim: KeySimulation,
    report: CompromiseReport,
    input_path: Union[str, FsPath],
    routing_path: Union[str, FsPath],
    report_text: str,
) -> Dict[str, FsPath]:
    """Write the JSON report, ``report_text`` as the text report, and a manifest."""
    return _write_artifacts(out_dir, {
        "report_json": ("simulation_report.json", simulation_report_dict(sim, report)),
        "report_txt": ("simulation_report.txt", report_text),
    }, "simulate", input_path, routing_path,
        config={"tau_seconds": str(sim.tau), "seed": sim.seed})
