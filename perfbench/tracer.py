"""Spans and counters around calls into qkdroute, installed from outside.

The program has no tracing of its own.  :class:`Tracer` replaces public
functions of ``netfile``, ``paths``, ``engine``, ``keysim`` and
``artifacts`` with wrappers while it is installed, in every qkdroute module
that holds a reference to them, and restores the originals afterwards.
Each wrapped call records a span (name, start, end, parent) in memory; the
spans are summarised, and written out, only after the traced pass ends.
The private ``engine._guard_ok`` is not wrapped: its time stays in the
self time of ``engine.run``.
"""

from __future__ import annotations

import gzip
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional


def _count_simple(tr, parent, args, result):
    tr.counts["paths.simple_paths"] += len(result)


def _count_msets(tr, parent, args, result):
    paths, m = args[0], args[1]
    tr.counts["paths.mset_combos"] += math.comb(len(paths), m)
    tr.counts["paths.msets"] += len(result)


def _count_cache(tr, parent, args, result):
    if parent == "engine.run":
        tr.counts["engine.sets_offered"] += len(result)


def _count_optimal(tr, parent, args, result):
    tr.counts["engine.candidates_scored"] += len(args[0])
    tr.counts["engine.finalists"] += len(result)


def _count_run(tr, parent, args, result):
    tr.counts["engine.iterations"] += result.iterations


def _count_pools(tr, parent, args, result):
    for pool in result.values():
        tr.counts["keysim.pool_bits"] += len(pool)
        tr.counts["keysim.pool_bytes"] += pool.bits.nbytes


def _count_keys(tr, parent, args, result):
    tr.counts["keysim.key_bits"] += sum(len(key.bits) for key in result.values())
    tr.pair_keys = result


def _count_route_files(tr, parent, args, result):
    tr.counts["artifacts.route_bytes"] += sum(p.stat().st_size for p in result.values())


def _targets() -> list:
    from qkdroute import artifacts, engine, keysim, netfile, paths

    return [
        (netfile, "load_network", None),
        (paths, "enumerate_simple_paths", _count_simple),
        (paths, "enumerate_m_path_sets", _count_msets),
        (paths.PairPathCache, "m_path_sets", _count_cache),
        (paths, "find_unroutable_pairs", None),
        (paths, "set_deficiency", None),
        (engine, "run", _count_run),
        (engine, "worst_pairs", None),
        (engine, "optimal_sets", _count_optimal),
        (engine, "apply_increment", None),
        (engine, "cost_delta", None),
        (keysim, "simulate", None),
        (keysim, "accumulate_pools", _count_pools),
        (keysim, "allocate_segments", None),
        (keysim, "relay_path_key", None),
        (keysim, "assemble_pair_keys", _count_keys),
        (keysim, "assess_compromise", None),
        (keysim, "adversary_reconstruct", None),
        (artifacts, "read_routing_artifact", None),
        (artifacts, "write_route_artifacts", _count_route_files),
        (artifacts, "write_simulation_artifacts", None),
    ]


def _span_name(owner, attr: str) -> str:
    module = owner.__module__ if isinstance(owner, type) else owner.__name__
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Records spans and counters for one traced pass."""

    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent index or -1]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.pair_keys: Optional[dict] = None
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        """A span around code in the benchmark itself, e.g. one CLI command."""
        record = [name, 0, 0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        spans, stack, clock, calls = self.spans, self._stack, time.perf_counter_ns, self.counts
        key = "calls:" + name

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, 0, 0, parent]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            calls[key] += 1
            if count is not None:
                count(self, spans[parent][0] if parent >= 0 else None, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Replace the target functions everywhere in qkdroute while active."""
        undo = []
        try:
            for owner, attr, count in _targets():
                original = getattr(owner, attr)
                wrapper = self._wrap(_span_name(owner, attr), original, count)
                if isinstance(owner, type):
                    undo.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith("qkdroute"):
                        continue
                    for name, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, name, original))
                            setattr(module, name, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def times(self) -> Dict[str, Dict[str, float]]:
        """Inclusive and self seconds per span name.

        A span's self time is its duration minus the durations of its
        direct children, which are nested inside it.
        """
        children = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        total: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, children):
            total[name] += (end - start) / 1e9
            own[name] += (end - start - child) / 1e9
        return {"total": dict(total), "self": dict(own)}

    def write_spans(self, path: Path) -> None:
        """Spans as gzipped CSV, times in ns from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index,name,start_ns,end_ns,parent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{index},{name},{start - origin},{end - origin},{parent}\n")


def layer_metrics(times: Dict[str, Dict[str, float]], counts: Counter) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by benchmark metric name."""
    total, own = times["total"], times["self"]

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def calls(name: str) -> int:
        return counts.get("calls:" + name, 0)

    combos = counts["paths.mset_combos"]
    iterations = counts["engine.iterations"]
    return {
        "netfile.load_s": t("netfile.load_network"),
        "paths.simple_s": t("paths.enumerate_simple_paths"),
        "paths.simple_paths": counts["paths.simple_paths"],
        "paths.mset_s": t("paths.enumerate_m_path_sets"),
        "paths.mset_combos": combos,
        "paths.msets": counts["paths.msets"],
        "paths.mset_yield": counts["paths.msets"] / combos if combos else 0.0,
        "paths.pairs_enumerated": calls("paths.enumerate_m_path_sets"),
        "paths.cache_hits": calls("paths.m_path_sets") - calls("paths.enumerate_m_path_sets"),
        "paths.unroutable_scan_s": t("paths.find_unroutable_pairs"),
        "engine.run_s": t("engine.run"),
        "engine.self_s": own.get("engine.run", 0.0),
        "engine.iterations": iterations,
        "engine.us_per_iter": t("engine.run") / iterations * 1e6 if iterations else 0.0,
        "engine.worst_pairs_s": t("engine.worst_pairs"),
        "engine.cost_delta_s": t("engine.cost_delta"),
        "engine.increment_s": t("engine.apply_increment"),
        "engine.score_s": t("engine.optimal_sets"),
        "engine.candidates_scored": counts["engine.candidates_scored"],
        "engine.guard_rejections": counts["engine.sets_offered"]
        - counts["engine.candidates_scored"],
        "engine.finalists": counts["engine.finalists"],
        "artifacts.route_write_s": t("artifacts.write_route_artifacts"),
        "artifacts.route_bytes": counts["artifacts.route_bytes"],
        "artifacts.read_s": t("artifacts.read_routing_artifact"),
        "artifacts.sim_write_s": t("artifacts.write_simulation_artifacts"),
        "keysim.pools_s": t("keysim.accumulate_pools"),
        "keysim.pool_bits": counts["keysim.pool_bits"],
        "keysim.pool_bytes": counts["keysim.pool_bytes"],
        "keysim.allocate_s": t("keysim.allocate_segments"),
        "keysim.relay_s": t("keysim.relay_path_key"),
        "keysim.relay_calls": calls("keysim.relay_path_key"),
        "keysim.assemble_s": t("keysim.assemble_pair_keys"),
        "keysim.key_bits": counts["keysim.key_bits"],
        "keysim.assess_s": t("keysim.assess_compromise"),
        "keysim.reconstruct_calls": calls("keysim.adversary_reconstruct"),
        "cli.self_s": sum(v for k, v in own.items() if k.startswith("cli.")),
    }


LAYERS = ("cli", "netfile", "paths", "engine", "keysim", "artifacts")


def layer_self_times(times: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Self seconds summed over the spans of each layer."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, seconds in times["self"].items():
        out[name.split(".", 1)[0]] += seconds
    return out
