"""Mutants of the package source that the tests must kill.

Each entry names a file under ``src/``, an exact source snippet that occurs
once in it, the snippet's replacement, and the test node ids (run from the
repository root) of which at least one must fail once the replacement is
made.  ``tests/test_tooling.py`` checks that every snippet still occurs
exactly once, so code that moves takes its catalogue entry with it.
``python mutants/run.py`` applies them one at a time.

Not catalogued: dropping the rollback of the rejected step on
``cost_worsened`` in ``engine.run``.  The run returns right after it, and the
outcome is derived from the routing list, not from the rolled-back
deficiency, so no test can tell the mutant from the original.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: Tuple[str, ...]


FLOW_TESTS = (
    "tests/test_paths.py::test_find_unroutable_pairs",
    "tests/test_paths.py::test_unroutable_pairs_match_enumeration",
    "tests/test_paths.py::test_unroutable_scan_without_hop_limit_enumerates_nothing",
    "tests/test_cli.py::test_validate_degree_failure",
    "tests/test_cli.py::test_validate_fails_on_unroutable_pair",
    "tests/test_cli.py::test_validate_and_paths_honour_file_hop_limit",
)

MUTANTS = (
    # the max-flow routability test
    Mutant(
        "flow: interior nodes carry m units, not 1",
        "qkdroute/paths.py",
        "cap[2 * i] = cap[2 * j] = m",
        "cap[0:2 * n:2] = [m] * n",
        FLOW_TESTS,
    ),
    Mutant(
        "flow: endpoints capped at 1",
        "qkdroute/paths.py",
        "cap[2 * i] = cap[2 * j] = m",
        "cap[2 * i] = cap[2 * j] = 1",
        FLOW_TESTS,
    ),
    Mutant(
        "flow: one augmentation fewer",
        "qkdroute/paths.py",
        "flow = 0\n",
        "flow = 1\n",
        FLOW_TESTS,
    ),
    Mutant(
        "flow: hop-limited confirmation skipped",
        "qkdroute/paths.py",
        "hop_limit is not None\n            and not enumerate_m_path_sets(",
        "False\n            and not enumerate_m_path_sets(",
        FLOW_TESTS,
    ),
    # the path enumerators
    Mutant(
        "enumeration: disjoint sets in reversed order",
        "qkdroute/paths.py",
        "return tuple(sets)",
        "return tuple(reversed(sets))",
        (
            "tests/test_paths.py::test_disjoint_sets_match_oracle",
            "tests/test_paths.py::test_random_graphs_match_oracle",
        ),
    ),
    # the routing loop
    Mutant(
        "guard: an edge holding exactly delta_r counts as short (<=)",
        "qkdroute/engine.py",
        "if deficiency[cell] > limit}",
        "if deficiency[cell] >= limit}",
        ("tests/test_engine.py::test_table_scoring_matches_reference",),
    ),
    Mutant(
        "finalists: hop narrowing dropped",
        "qkdroute/engine.py",
        "return [c for c in pool if c.hops == shortest]",
        "return pool",
        ("tests/test_engine.py::test_table_scoring_matches_reference",),
    ),
    Mutant(
        "audit: candidate deficiencies taken after the step",
        "qkdroute/engine.py",
        """        audit = (
            tuple(
                (c.path_set, max(map(deficiency.__getitem__, c.cells)))
                for c in candidates
            )
            if trace_candidates
            else None
        )
        # under the strict guard, every candidate already passed the guard
        pair_cell = pair[0] * n + pair[1]
        _shift(deficiency, pair_cell, chosen.cells, step)
""",
        """        pair_cell = pair[0] * n + pair[1]
        _shift(deficiency, pair_cell, chosen.cells, step)
        audit = (
            tuple(
                (c.path_set, max(map(deficiency.__getitem__, c.cells)))
                for c in candidates
            )
            if trace_candidates
            else None
        )
""",
        ("tests/test_acceptance.py::test_acceptance_dense5_golden_run",),
    ),
)
