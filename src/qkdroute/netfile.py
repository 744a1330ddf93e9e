"""The one reader of JSON files and of router config: network files, routing
artifacts and route manifests are read by ``_read_json`` and checked inside
``_format_errors``, and their router config by ``parse_router``.

A network description file is JSON::

    {
      "nodes": 6,
      "edges": [{"u": 0, "v": 1, "rate_kbps": 1.0}, ...],
      "target": 0.1,                  # scalar or full NxN matrix, kbit/s
      "router": {"M": 2, "delta_r_kbps": 0.01, "r_max": null,
                 "seed": 0, "hop_limit": null, "strict_guard": true},
      "resolution_bps": 1             # optional rate quantum, bit/s
    }

Numbers are parsed as decimals so fractional kbit/s values convert to
integer units exactly or are rejected, never silently rounded.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from decimal import Decimal
from pathlib import Path
from typing import Iterator, NamedTuple, Optional, Union

from .model import (
    NetworkGraph,
    RateMatrix,
    RouterConfig,
    ValidationError,
    _pairs,
    check_target_matrix,
    uniform_target,
)
from .units import UnitScale


class NetworkFormatError(ValueError):
    """Malformed network description file."""


class LoadedNetwork(NamedTuple):
    graph: NetworkGraph
    target: RateMatrix
    config: RouterConfig


_ROUTER_KEYS = {"M", "delta_r_kbps", "r_max", "seed", "hop_limit", "strict_guard"}
_TOP_KEYS = {"nodes", "edges", "target", "router", "resolution_bps"}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise NetworkFormatError(message)


@contextmanager
def _format_errors(prefix: str = "") -> Iterator[None]:
    """Re-raise a LookupError, TypeError or ValueError inside the block (a
    NetworkFormatError included) as a NetworkFormatError led by ``prefix``."""
    try:
        yield
    except (LookupError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise NetworkFormatError(prefix + detail) from exc


def _read_json(path: Union[str, Path], kind: str = "",
               parse_float: Optional[type] = None) -> object:
    """The one read of a JSON input file; ``kind`` leads its path in the error."""
    try:
        return json.loads(Path(path).read_text(), parse_float=parse_float)
    except (OSError, json.JSONDecodeError) as exc:
        raise NetworkFormatError(f"cannot parse {kind}{path}: {exc}") from exc


def _is_int(value: object) -> bool:
    """Whether a JSON value is an integer; JSON ``true`` is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_field(raw: object, name: str, allow_none: bool = False) -> Optional[int]:
    if raw is None and allow_none:
        return None
    _require(_is_int(raw), f"{name} must be an integer")
    return int(raw)  # type: ignore[arg-type]


def load_network(path: Union[str, Path]) -> LoadedNetwork:
    """Parse and validate a network description file.

    Returns:
        The graph, the target matrix in integer units, and the router
        configuration (``delta_r`` stays None when the file omits it).

    Raises:
        NetworkFormatError: on malformed JSON or schema violations
            (self-loops, duplicate edges, non-positive, unrepresentable or
            out-of-range rates, explicit targets that are asymmetric or
            have a non-zero diagonal, unknown keys).
        ValidationError: when the graph is disconnected.
    """
    raw = _read_json(path, parse_float=Decimal)

    with _format_errors():
        _require(isinstance(raw, dict), "top level must be a JSON object")
        unknown = set(raw) - _TOP_KEYS
        _require(not unknown, f"unknown top-level keys: {sorted(unknown)}")
        node_count = _int_field(raw.get("nodes"), "nodes")
        scale = UnitScale(raw.get("resolution_bps", 1))
        edges_raw = raw.get("edges")
        _require(isinstance(edges_raw, list) and edges_raw, "edges must be a non-empty list")
        rates: dict[tuple[int, int], int] = {}
        for idx, entry in enumerate(edges_raw):
            _require(isinstance(entry, dict), f"edges[{idx}] must be an object")
            _require(
                set(entry) == {"u", "v", "rate_kbps"},
                f"edges[{idx}] must have exactly the keys u, v, rate_kbps",
            )
            u = _int_field(entry["u"], f"edges[{idx}].u")
            v = _int_field(entry["v"], f"edges[{idx}].v")
            units = scale.units_from_kbps(entry["rate_kbps"], f"edges[{idx}].rate_kbps")
            # the model cannot see a duplicate once it is merged into this dict;
            # self-loops and non-positive rates are left to the model's checks
            key = (min(u, v), max(u, v))
            _require(key not in rates, f"duplicate edge ({u}, {v})")
            rates[key] = units
    # a connected graph needs at least nodes - 1 edges; checked before the
    # graph allocates one adjacency entry per declared node
    if node_count > len(rates) + 1:
        raise ValidationError(
            f"{path}: graph is disconnected: {node_count} nodes cannot be "
            f"connected by {len(rates)} edges"
        )
    with _format_errors():
        graph = NetworkGraph(node_count=node_count, rates=rates, scale=scale)
    if not graph.is_connected():
        raise ValidationError(f"{path}: graph is disconnected")
    with _format_errors():
        target = _parse_target(raw.get("target", 0), node_count, scale)
        config = parse_router(raw.get("router", {}), scale)
    return LoadedNetwork(graph, target, config)


def _parse_target(raw: object, node_count: int, scale: UnitScale) -> RateMatrix:
    if isinstance(raw, list):
        _require(
            len(raw) == node_count and all(isinstance(row, list) for row in raw),
            f"target matrix must be {node_count}x{node_count}",
        )
        rows = []
        for i, row in enumerate(raw):
            _require(len(row) == node_count, f"target row {i} has wrong length")
            rows.append([scale.units_from_kbps(cell, f"target[{i}][{j}]")
                         for j, cell in enumerate(row)])
        # a RateMatrix holds one cell per pair, so these rules are checked here
        _require(rows == [list(col) for col in zip(*rows)], "target matrix must be symmetric")
        _require(not any(rows[u][u] for u in range(node_count)),
                 "target matrix diagonal must be zero")
        mat = RateMatrix(node_count, (rows[i][j] for i, j in _pairs(node_count)))
        check_target_matrix(mat, node_count)
        return mat
    return uniform_target(node_count, scale.units_from_kbps(raw, "target"))


def parse_router(raw: object, scale: UnitScale) -> RouterConfig:
    """Parse a ``router`` object; the one reader of router-config JSON."""
    with _format_errors():
        _require(isinstance(raw, dict), "router must be an object")
        unknown = set(raw) - _ROUTER_KEYS
        _require(not unknown, f"unknown router keys: {sorted(unknown)}")
        delta_r = None
        if raw.get("delta_r_kbps") is not None:
            delta_r = scale.units_from_kbps(raw["delta_r_kbps"], "router.delta_r_kbps")
        strict_guard = raw.get("strict_guard", True)
        _require(isinstance(strict_guard, bool), "router.strict_guard must be a boolean")
        return RouterConfig(
            m=_int_field(raw.get("M", 2), "router.M"),
            delta_r=delta_r,
            r_max=_int_field(raw.get("r_max"), "router.r_max", allow_none=True),
            seed=_int_field(raw.get("seed", 0), "router.seed"),
            hop_limit=_int_field(raw.get("hop_limit"), "router.hop_limit", allow_none=True),
            strict_guard=strict_guard,
        )
