"""Byte pins on generated networks larger than the fixtures, and outputs that
do not depend on the interpreter's hash seed.

The fixtures have at most 9 rows for one pair and no path longer than 15
hops.  The 4x4 grid's pair (5, 10) has 133 rows at M = 2, and the 2x10
ladder has paths of 19 hops.  Each digest was recorded from the code as it
stood when the pin was added; a pin that has to change is a behaviour
change.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qkdroute
from qkdroute.cli import EXIT_INVALID, EXIT_OK, main
from qkdroute.engine import CandidateTable
from qkdroute.netfile import load_network

from conftest import NETWORKS_DIR
from generated import grid_doc, ladder_doc


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("pair, m, header, stdout_sha256", [
    ("5,10", 2, "pair (5, 10), M=2: 82 simple paths, 133 disjoint sets",
     "73135ea0c6e0eb6c25c5a74d7e89211c25e7c0267d8d60b9ee80370d93f63981"),
    ("5,10", 3, "pair (5, 10), M=3: 82 simple paths, 28 disjoint sets",
     "92363ed31df3afa04a4c337d5b3faf8a5be468e8fa28045252674592047d3c8a"),
    ("1,4", 3, "pair (1, 4), M=3: 98 simple paths, 28 disjoint sets",
     "5988646529c23286ba71099412bee2103856398e1b7cbdf547e5954178b55c10"),
])
def test_paths_stdout_pinned_on_the_grid(tmp_path, capsys, pair, m, header, stdout_sha256):
    """The pair with the most rows at M = 2, and two of the pairs with the most
    at M = 3."""
    path = _write(tmp_path, "grid.json", grid_doc(4))
    assert main(["paths", "--input", str(path), "--pair", pair, "--m", str(m)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == header
    assert _sha256(out.encode()) == stdout_sha256


def test_route_ladder_outputs_pinned(tmp_path, capsys):
    path = _write(tmp_path, "ladder.json", ladder_doc(10))
    # one end of the top rail to the other, snaking through every node
    assert max(map(len, CandidateTable(load_network(path).graph, (0, 9), 2).paths)) == 20
    out_dir = tmp_path / "out"
    assert main(["route", "--input", str(path), "--out-dir", str(out_dir)]) == EXIT_OK
    assert "stop: cost_worsened after 269 iterations" in capsys.readouterr().out
    digests = {name: _sha256((out_dir / name).read_bytes())
               for name in ("routing_list.json", "trace.csv")}
    assert digests == {
        "routing_list.json": "a37b0f580ad614141fac06e817070d3bc79c5b6c5973baaa8759f2391105e391",
        "trace.csv": "016c3a802ad680671237d6118dbb000091413bddb75417a977ae915181a13434",
    }


@pytest.mark.parametrize("hop_limit, code, stdout_sha256", [
    (6, EXIT_INVALID, "4873de1606e71d1d41a05975fafa2b735ad4e9d7ec99cfdcc5e352487fadbd36"),
    (10, EXIT_INVALID, "813d5307763b3dae40dea710222c7124a418c388b61cded3fea92e644e8ba818"),
    (12, EXIT_OK, "d2313569c78dd7065a41b8abd62fcb8e53e8cbc70529dc6315216d2fa1c5aa7a"),
])
def test_validate_stdout_pinned_on_the_ladder(tmp_path, capsys, hop_limit, code, stdout_sha256):
    doc = ladder_doc(10)
    doc["router"]["hop_limit"] = hop_limit
    path = _write(tmp_path, "ladder.json", doc)
    assert main(["validate", "--input", str(path)]) == code
    assert _sha256(capsys.readouterr().out.encode()) == stdout_sha256


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """route and simulate, each in a child interpreter under two hash seeds,
    write the same files and print the same text, key dumps included."""
    source = str(Path(qkdroute.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    network = str(NETWORKS_DIR / "mesh10.json")
    seen = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONHASHSEED=hash_seed)
        out = tmp_path / f"hash_seed_{hash_seed}"
        stdout = []
        for argv in (
            ["route", "--input", network, "--out-dir", str(out / "route")],
            ["simulate", "--input", network, "--routing", str(out / "route"), "--tau", "10",
             "--compromise", "3,5", "--dump-keys", "--out-dir", str(out / "sim")],
        ):
            done = subprocess.run([sys.executable, "-m", "qkdroute", *argv], env=env,
                                  capture_output=True)
            assert done.returncode == 0, done.stderr
            stdout.append(done.stdout.replace(str(out).encode(), b"OUT"))
        seen.append((_tree(out), stdout))
    assert seen[0][0].keys() == {
        "route/manifest.json", "route/routing_list.txt", "route/routing_list.json",
        "route/effective_rates.csv", "route/trace.csv",
        "sim/manifest.json", "sim/simulation_report.json", "sim/simulation_report.txt",
    }
    assert seen[0] == seen[1]
