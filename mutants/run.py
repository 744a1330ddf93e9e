"""Apply each catalogued mutant to a copy of ``src/`` and run its tests.

Usage, from anywhere in a source checkout::

    python mutants/run.py            # every mutant in catalogue.py
    python mutants/run.py flow       # only mutants whose name contains "flow"

Each mutant gets a fresh copy of ``src/`` in a temporary directory, with its
one snippet replaced, and pytest runs only that mutant's test ids against
the copy.  A mutant is killed when a test fails or the mutated package no
longer imports.  The report lists survivors and the total time; the exit
status is 1 when any mutant survived or could not be tried.  Standard
library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from catalogue import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
# pytest's exit codes: 1 some test failed, 2 collection (here: import) failed
KILLED = {1, 2}


def try_mutant(mutant, workdir: Path) -> str:
    """Run one mutant's tests against a mutated copy; return its verdict."""
    src = workdir / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    target = src / mutant.file
    text = target.read_text()
    if text.count(mutant.snippet) != 1:
        return "not applied: the snippet does not occur exactly once"
    target.write_text(text.replace(mutant.snippet, mutant.replacement))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *mutant.tests],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    if done.returncode in KILLED:
        return "killed"
    if done.returncode == 0:
        return "SURVIVED"
    return f"not tried: pytest exit {done.returncode}\n{done.stdout[-2000:]}"


def main(argv: list) -> int:
    chosen = [m for m in MUTANTS if not argv or any(word in m.name for word in argv)]
    started = time.perf_counter()
    bad = []
    for mutant in chosen:
        with tempfile.TemporaryDirectory(prefix="mutant-") as workdir:
            verdict = try_mutant(mutant, Path(workdir))
        print(f"{verdict.splitlines()[0]:>10}  {mutant.name}", flush=True)
        if verdict != "killed":
            bad.append((mutant.name, verdict))
    print(f"{len(chosen) - len(bad)} of {len(chosen)} mutants killed "
          f"in {time.perf_counter() - started:.1f} s")
    for name, verdict in bad:
        print(f"- {name}: {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
