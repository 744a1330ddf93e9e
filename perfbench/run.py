"""Benchmark for the qkdroute CLI: seeded workloads, end-to-end and per layer.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload grid --seed 0 --seconds 35 --trace 0

``--trace 0`` runs the ``qkdroute validate``, ``route`` and ``simulate``
commands as child processes, one at a time, and reports their wall times
and peak memory.  ``--trace 1`` runs the same three commands in this
process, alternating untraced passes with passes traced by
:mod:`tracer`, and reports per-layer times and counts.  Either way every
output is checked, a human-readable report is printed, the run record is
written under ``.perfbench/`` and the last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--smoke`` shrinks every workload to a few seconds of work.  See
``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

END_TO_END = {
    "setup_s": "s",
    "validate_s": "s",
    "route_s": "s",
    "simulate_s": "s",
    "route_rss_mb": "MB",
    "simulate_rss_mb": "MB",
}
# fresh interpreters timed per cycle, so setup_s has enough samples
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170
SETUP_CODE = (
    "import sys, qkdroute.cli\n"
    "from qkdroute.netfile import load_network\n"
    "load_network(sys.argv[1])\n"
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("us_per_iter"):
        return "us"
    if name.endswith("_yield"):
        return "ratio"
    return "count"


class Tally:
    """Commands attempted and failed, with the reason for every failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def command(self, label: str, problems: List[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return not problems


class Outputs:
    """Paths of one workload's input and outputs inside the scratch dir."""

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp
        self.network = tmp / "network.json"
        self.route = tmp / "route"
        self.sim = tmp / "sim"

    def clear(self) -> None:
        """Remove the previous pass's outputs so nothing stale is checked."""
        shutil.rmtree(self.route, ignore_errors=True)
        shutil.rmtree(self.sim, ignore_errors=True)

    def argv(self, wl: workloads.Workload) -> Dict[str, List[str]]:
        net = str(self.network)
        return {
            "validate": ["validate", "--input", net],
            "route": ["route", "--input", net, "--out-dir", str(self.route)],
            "simulate": ["simulate", "--input", net, "--routing", str(self.route),
                         "--out-dir", str(self.sim)] + wl.simulate_flags(),
        }


class Digests:
    """Content digests that must repeat on every pass of one seed."""

    def __init__(self, expected: Optional[dict]) -> None:
        self.expected = expected
        self.seen: Dict[str, str] = {}

    def check(self, kind: str, value: str) -> List[str]:
        first = self.seen.setdefault(kind, value)
        if value != first:
            return [f"{kind} digest {value} differs from {first} earlier in this run"]
        want = self.expected and self.expected.get(kind)
        if want and value != want:
            return [f"{kind} digest {value} differs from the recorded {want}"]
        return []


def check_outputs(out: Outputs, wl, digests: Digests, sizes: dict) -> Dict[str, List[str]]:
    """Check the route and simulate artifacts of one pass."""
    found: Dict[str, List[str]] = {"route": [], "simulate": []}
    try:
        doc, rows = checks.read_route(out.route)
    except (OSError, ValueError, KeyError) as exc:
        found["route"].append(f"unreadable artifacts: {exc}")
        found["simulate"].append("no routing to check against")
        return found
    found["route"] += checks.check_route(doc, wl)
    found["route"] += digests.check("route", checks.route_digest(doc, rows))
    sizes.update(iterations=doc["iterations"], records=len(doc["records"]),
                 stop_reason=doc["stop_reason"])
    try:
        report = json.loads((out.sim / "simulation_report.json").read_text())
    except (OSError, ValueError) as exc:
        found["simulate"].append(f"unreadable report: {exc}")
        return found
    found["simulate"] += checks.check_simulation(report, doc, wl)
    found["simulate"] += digests.check("simulation", checks.simulation_digest(report))
    found["simulate"] += digests.check(
        "artifact_bytes", checks.artifact_bytes_digest(out.route, out.sim)
    )
    sizes["pool_bits"] = sum(report["pools"].values())
    return found


def run_child(argv: List[str], env: dict, log: Path) -> tuple:
    """Run one child to completion; return (exit code, seconds, peak RSS MB)."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=log.parent)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return proc.returncode, seconds, usage.ru_maxrss / 1024


def _exit_problems(code: int, log: Path) -> List[str]:
    if code == 0:
        return []
    tail = log.with_suffix(".err").read_text(errors="replace").strip()[-300:]
    return [f"exit code {code}: {tail}"]


def _validate_problems(stdout: str) -> List[str]:
    if "connected: yes" not in stdout or "remote pairs with no" in stdout:
        return ["validate reported an unroutable network"]
    return []


def _keep_going(started: float, last: float, seconds: float) -> bool:
    """Start another cycle only if it should end within the time budget."""
    return time.perf_counter() - started + last <= seconds


def cli_run(wl, out: Outputs, seconds: float, tally: Tally, digests: Digests,
            sizes: dict) -> Dict[str, List[float]]:
    """Closed loop, one client: each child is waited for before the next."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    py = sys.executable
    argv = out.argv(wl)
    samples: Dict[str, List[float]] = {name: [] for name in END_TO_END}
    started = time.perf_counter()
    last = 0.0
    while not samples["route_s"] or _keep_going(started, last, seconds):
        cycle = time.perf_counter()
        for _ in range(SETUP_PROBES):
            log = out.tmp / "setup"
            code, took, _ = run_child([py, "-c", SETUP_CODE, str(out.network)], env, log)
            if tally.command("setup", _exit_problems(code, log)):
                samples["setup_s"].append(took)
        log = out.tmp / "validate"
        code, took, _ = run_child([py, "-m", "qkdroute"] + argv["validate"], env, log)
        problems = _exit_problems(code, log) or _validate_problems(
            log.with_suffix(".out").read_text())
        if tally.command("validate", problems):
            samples["validate_s"].append(took)
        out.clear()
        log = out.tmp / "route"
        route_code, route_s, route_rss = run_child([py, "-m", "qkdroute"] + argv["route"], env, log)
        route_problems = _exit_problems(route_code, log)
        log = out.tmp / "simulate"
        sim_code, sim_s, sim_rss = run_child([py, "-m", "qkdroute"] + argv["simulate"], env, log)
        sim_problems = _exit_problems(sim_code, log)
        found = check_outputs(out, wl, digests, sizes)
        if tally.command("route", route_problems + found["route"]):
            samples["route_s"].append(route_s)
            samples["route_rss_mb"].append(route_rss)
        if tally.command("simulate", sim_problems + found["simulate"]):
            samples["simulate_s"].append(sim_s)
            samples["simulate_rss_mb"].append(sim_rss)
        if not samples["route_s"]:
            break  # the program fails on this input; timing it again tells nothing
        last = time.perf_counter() - cycle
    return samples


def _in_process_pass(argv: Dict[str, List[str]], out: Outputs, tracer=None) -> tuple:
    """Run validate, route and simulate through ``cli.main`` in this process."""
    from qkdroute import cli

    codes = {}
    stdout = {}
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    out.clear()
    started = time.perf_counter()
    for command in ("validate", "route", "simulate"):
        buffer = io.StringIO()
        with span(f"cli.{command}"), contextlib.redirect_stdout(buffer), \
                contextlib.redirect_stderr(io.StringIO()):
            codes[command] = cli.main(argv[command])
        stdout[command] = buffer.getvalue()
    return time.perf_counter() - started, codes, stdout


def traced_run(wl, out: Outputs, seconds: float, tally: Tally, digests: Digests,
               sizes: dict, spans_path: Path) -> tuple:
    """Alternate untraced and traced in-process passes; return layer samples."""
    import tracer as tracing

    argv = out.argv(wl)
    untraced: List[float] = []
    traced: List[float] = []
    layer_samples: Dict[str, List[float]] = {}
    self_samples: Dict[str, List[float]] = {}
    counters = None
    last_tracer = None  # its spans are written out when the run ends
    started = time.perf_counter()
    last = 0.0
    while not traced or _keep_going(started, last, seconds):
        cycle = time.perf_counter()
        for tr in (None, tracing.Tracer()):
            if tr is None:
                took, codes, stdout = _in_process_pass(argv, out)
            else:
                with tr.installed():
                    took, codes, stdout = _in_process_pass(argv, out, tr)
            found = check_outputs(out, wl, digests, sizes)
            problems = {
                "validate": _validate_problems(stdout["validate"]),
                "route": found["route"],
                "simulate": found["simulate"],
            }
            if tr is not None:
                problems["simulate"] += digests.check("keys", checks.keys_digest(tr.pair_keys))
                counts = {k: v for k, v in tr.counts.items() if not k.startswith("calls:")}
                if counters is not None and counts != counters:
                    problems["route"].append("traced counters differ between passes")
                counters = counts
            ok = True
            for command, found_here in problems.items():
                exit_problems = [] if codes[command] == 0 else [f"exit code {codes[command]}"]
                ok &= tally.command(f"in-process {command}", exit_problems + found_here)
            if not ok:
                return untraced, traced, layer_samples, self_samples
            if tr is None:
                untraced.append(took)
                continue
            traced.append(took)
            times = tr.times()
            for name, value in tracing.layer_metrics(times, tr.counts).items():
                layer_samples.setdefault(name, []).append(value)
            for name, value in tracing.layer_self_times(times).items():
                self_samples.setdefault(name, []).append(value)
            last_tracer = tr
        last = time.perf_counter() - cycle
    last_tracer.write_spans(spans_path)
    return untraced, traced, layer_samples, self_samples


def summarise(values: List[float]) -> dict:
    """Median, sample count and the highest percentile with >= 10 samples above it."""
    summary = {"value": statistics.median(values), "samples": len(values)}
    for pct in (99, 95, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            summary[f"p{pct}"] = cuts[pct - 1]
            break
    return summary


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def print_table(title: str, metrics: Dict[str, dict]) -> None:
    print(title)
    for name, m in metrics.items():
        extra = "".join(f" {k}={m[k]:.6g}" for k in m if k.startswith("p"))
        print(f"  {name:<26} {m['unit']:<6} {m['value']:>14.6g}  n={m['samples']}{extra}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measuring time; at least one full cycle always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-size workloads for a quick self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qkdroute" / "__init__.py").is_file():
        print(f"error: no qkdroute sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    wl = workloads.make(args.workload, args.seed, ROOT / "networks", smoke=args.smoke)
    expected = None
    if args.seed == workloads.DEFAULT_SEED and not args.smoke:
        expected = workloads.EXPECTED_DIGESTS[args.workload]
    tally = Tally()
    digests = Digests(expected)
    WORK.mkdir(exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    tmp = Path(tempfile.mkdtemp(prefix=tag + "-", dir=WORK))
    try:
        out = Outputs(tmp)
        wl.write(out.network)
        sizes, problems = workloads.preflight(out.network, wl.m)
        if problems:
            for problem in problems:
                print(f"error: pre-flight check failed: {problem}", file=sys.stderr)
            return 1
        sizes.update(m=wl.m, delta_r_units=wl.delta_r, tau_s=wl.tau,
                     compromise=list(wl.compromise))
        metrics: Dict[str, dict] = {}
        layer_self = None
        if args.trace:
            untraced, traced, layers, selfs = traced_run(
                wl, out, args.seconds, tally, digests, sizes,
                WORK / f"spans-{wl.name}{'-smoke' if args.smoke else ''}.csv.gz")
            if traced and untraced:
                for name, values in layers.items():
                    metrics[name] = {"unit": layer_unit(name), **summarise(values)}
                metrics["trace.overhead_s"] = {
                    "unit": "s", "samples": len(traced),
                    "value": statistics.median(traced) - statistics.median(untraced),
                }
                layer_self = {k: statistics.median(v) for k, v in selfs.items()}
                sizes["in_process_untraced_s"] = statistics.median(untraced)
                sizes["in_process_traced_s"] = statistics.median(traced)
        else:
            samples = cli_run(wl, out, args.seconds, tally, digests, sizes)
            for name, unit in END_TO_END.items():
                if samples[name]:
                    metrics[name] = {"unit": unit, **summarise(samples[name])}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    fail_ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    correct = tally.failed == 0 and tally.attempted > 0
    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": git_commit(), "load_model": "closed loop, 1 client, 1 command at a time",
        "input": sizes, "digests": digests.seen, "metrics": metrics,
        "fail_ratio": {"unit": "ratio", "value": fail_ratio, "samples": tally.attempted},
        "layer_self_s": layer_self, "problems": tally.problems,
    }
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"qkdroute benchmark: {tag}  commit {record['commit']}  nproc {record['nproc']}  "
          f"python {record['python']}  numpy {record['numpy']}")
    print("input: " + json.dumps(sizes))
    print_table("metrics (median over the run):", {
        **metrics, "fail_ratio": record["fail_ratio"]})
    if layer_self:
        print("self time by layer: " + ", ".join(
            f"{k} {v:.4f} s" for k, v in sorted(layer_self.items(), key=lambda kv: -kv[1])))
    print("digests: " + json.dumps(digests.seen))
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
