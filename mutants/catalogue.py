"""Mutants of the package source that the tests must kill.

Each entry names a file under ``src/``, an exact source snippet that occurs
once in it, the snippet's replacement, and the test node ids (run from the
repository root) of which at least one must fail once the replacement is
made.  ``tests/test_tooling.py`` checks that every snippet still occurs
exactly once, so code that moves takes its catalogue entry with it.
``python mutants/run.py`` applies them one at a time.
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

POOL_TESTS = (
    "tests/test_keysim.py::test_packed_pools_match_one_shot_draws",
    "tests/test_keysim.py::test_pool_starts_on_the_carried_half_word",
)

MEMORY_TESTS = (
    "tests/test_keysim.py::test_pools_refused_beyond_physical_memory",
    "tests/test_cli.py::test_simulate_refuses_pools_and_pair_keys_beyond_physical_memory",
)

PACKED_TESTS = (
    "tests/test_keysim.py::test_packed_relay_and_assembly_match_an_unpacked_oracle",
    *POOL_TESTS,
)

MUTANTS = (
    # the path model
    Mutant(
        "path: hashed as its node tuple, not as its one field",
        "qkdroute/paths.py",
        "return hash((self.nodes,))",
        "return hash(self.nodes)",
        ("tests/test_model.py::test_values_compare_hash_show_and_pickle_by_their_fields",),
    ),
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
        "hop_limit is not None\n            and next(",
        "False\n            and next(",
        FLOW_TESTS,
    ),
    Mutant(
        "flow: a hop-bounded set found but not heeded",
        "qkdroute/paths.py",
        "None) is None",
        "None) is False",
        FLOW_TESTS,
    ),
    Mutant(
        "flow: a hop limit below 1 let through",
        "qkdroute/paths.py",
        "    _check_hop_limit(hop_limit)\n    n = graph.node_count",
        "    n = graph.node_count",
        ("tests/test_paths.py::test_find_unroutable_pairs_refuses_hop_limit_below_one",),
    ),
    # the path enumerators
    Mutant(
        "enumeration: a prefix's other options taken before its extension",
        "qkdroute/paths.py",
        "stack.append((prefix, options))\n"
        "                    stack.append((prefix + (k,), rest))",
        "stack.append((prefix + (k,), rest))\n"
        "                    stack.append((prefix, options))",
        (
            "tests/test_paths.py::test_disjoint_sets_match_oracle",
            "tests/test_paths.py::test_random_graphs_match_oracle",
        ),
    ),
    Mutant(
        "enumeration: a path of hop_limit hops cut, not kept",
        "qkdroute/paths.py",
        "if len(trail) < limit:",
        "if len(trail) < limit - 1:",
        (
            "tests/test_paths.py::test_hop_limit",
            "tests/test_paths.py::test_random_graphs_match_oracle",
        ),
    ),
    # one search per source, its lists handed to the tables
    Mutant(
        "search: one list shared by every goal",
        "qkdroute/paths.py",
        "= {goal: [] for goal in goals}",
        "= dict.fromkeys(goals, [])",
        ("tests/test_paths.py::test_one_search_lists_each_goals_paths",),
    ),
    Mutant(
        "search: goals listed below the source too",
        "qkdroute/engine.py",
        "if goal > i and (i, goal) not in links]",
        "if goal != i and (i, goal) not in links]",
        ("tests/test_engine.py::test_run_searches_each_source_once_for_its_remote_goals_above_it",),
    ),
    Mutant(
        "search: a source's first pending list handed to whichever of its pairs is served",
        "qkdroute/engine.py",
        "lists.pop(j)",
        "lists.pop(next(iter(lists)))",
        ("tests/test_engine.py::test_dense5_reference_run",
         "tests/test_cli.py::test_route_grid_outputs_pinned"),
    ),
    # the candidate table built from path indices
    Mutant(
        "table: rows in reversed order",
        "qkdroute/engine.py",
        "for p in paths], m, n))",
        "for p in paths], m, n))[::-1]",
        ("tests/test_engine.py::test_candidate_table_matches_reference",),
    ),
    Mutant(
        "table: hop masks most hops first, not fewest hops first",
        "qkdroute/engine.py",
        "self.hops = tuple(filter(None, hops))",
        "self.hops = tuple(filter(None, hops[::-1]))",
        ("tests/test_engine.py::test_candidate_table_matches_reference",),
    ),
    Mutant(
        "table: a path's mask holds only the last row using it",
        "qkdroute/engine.py",
        "holding[k] |= bit",
        "holding[k] = bit",
        ("tests/test_engine.py::test_candidate_table_matches_reference",),
    ),
    # the routing loop
    Mutant(
        "guard: an edge holding exactly delta_r counts as short (<=)",
        "qkdroute/engine.py",
        "if guard and value > limits[cell]:",
        "if guard and value >= limits[cell]:",
        ("tests/test_engine.py::test_guard_lets_an_edge_give_up_its_last_step",),
    ),
    Mutant(
        "guard: a newly short edge is not added to short after a step",
        "qkdroute/engine.py",
        "                short.add(cell)\n",
        "                pass\n",
        ("tests/test_engine.py::test_run_invariants_on_random_graphs",),
    ),
    Mutant(
        "guard: edges short from the start are not marked",
        "qkdroute/engine.py",
        "if deficiency[cell] > limit} if guard else set()",
        "if False} if guard else set()",
        ("tests/test_engine.py::test_guard_exhausted_stop",),
    ),
    Mutant(
        "finalists: hop narrowing dropped",
        "qkdroute/engine.py",
        """    for rows in table.hops:
        if live & rows:
            live &= rows
            break
""",
        "",
        ("tests/test_engine.py::test_table_scoring_matches_reference",),
    ),
    Mutant(
        "finalists: narrowed to the last hop mask the rows meet, not the first",
        "qkdroute/engine.py",
        "for rows in table.hops:",
        "for rows in reversed(table.hops):",
        ("tests/test_engine.py::test_table_scoring_matches_reference",),
    ),
    Mutant(
        "finalists: one edge stripped at a time instead of one deficiency level",
        "qkdroute/engine.py",
        "drop |= edges[cell]",
        "drop = edges[cell]",
        ("tests/test_engine.py::test_table_scoring_matches_reference",),
    ),
    Mutant(
        "finalists: the one-row exit taken before the short-edge filter",
        "qkdroute/engine.py",
        "    live = table.all_rows\n    if short:\n",
        "    live = table.all_rows\n"
        "    if not live & (live - 1):\n"
        "        return [live.bit_length() - 1] if live else []\n"
        "    if short:\n",
        ("tests/test_engine.py::test_guard_exhausted_stop",),
    ),
    Mutant(
        "finalists: bits read highest first",
        "qkdroute/engine.py",
        "low = live & -live",
        "low = 1 << (live.bit_length() - 1)",
        ("tests/test_engine.py::test_table_scoring_matches_reference",),
    ),
    Mutant(
        "loop: the direct-link test read from the guard's limits, not the edge rates",
        "qkdroute/engine.py",
        "if pair in links:",
        "if pair in limits:",
        ("tests/test_engine.py::test_direct_pair_worst_stop",),
    ),
    # the tied worst pairs, kept across a deficiency level
    Mutant(
        "level: a pair joining the level appended, not inserted in row order",
        "qkdroute/engine.py",
        "insort(pairs, pair_at[cell])",
        "pairs.append(pair_at[cell])",
        ("tests/test_engine.py::test_tie_draws_replay_when_an_edge_joins_the_level",),
    ),
    Mutant(
        "level: the served pair left among the tied pairs",
        "qkdroute/engine.py",
        "        del pairs[pick]\n",
        "",
        ("tests/test_engine.py::test_dense5_reference_run",
         "tests/test_engine.py::test_tie_draws_replay_on_the_fixtures"),
    ),
    Mutant(
        "level: the pairs not rescanned when the level empties",
        "qkdroute/engine.py",
        "if not pairs:",
        "if not r:",
        ("tests/test_engine.py::test_dense5_reference_run",
         "tests/test_engine.py::test_tie_draws_replay_on_the_fixtures"),
    ),
    Mutant(
        "loop: sets_tied recorded as 1 on a real draw",
        "qkdroute/engine.py",
        "log(entry((r, pair, pairs_tied, chosen, sets_tied,",
        "log(entry((r, pair, pairs_tied, chosen, 1,",
        ("tests/test_engine.py::test_dense5_reference_run",),
    ),
    # the one row score, which the walkthrough demo and the paths command share
    *(
        Mutant(f"score: a row scored by its least loaded edge, seen by {who}",
               "qkdroute/engine.py",
               "yield path_set, max(map(deficiency.__getitem__, cells)), cells",
               "yield path_set, min(map(deficiency.__getitem__, cells)), cells",
               (test,))
        for who, test in (
            ("the walkthrough demo", "tests/test_tooling.py::test_demo_runs"),
            ("paths", "tests/test_cli.py::test_paths_command"),
        )
    ),
    Mutant(
        "records: the sorted records kept after a change",
        "qkdroute/engine.py",
        "        self._rates[path_set] = self._rates.get(path_set, 0) + delta_r\n        self._records = None\n",
        "        self._rates[path_set] = self._rates.get(path_set, 0) + delta_r\n",
        ("tests/test_engine.py::test_routing_list_merges_records",),
    ),
    # a run's derived fields, read from its terminal trace entry
    Mutant(
        "outcome: the final shortfall read from the rejected step",
        "qkdroute/engine.py",
        "return self.trace[-1].delta_before",
        "return self.trace[-1].delta_after",
        ("tests/test_artifacts.py::test_artifact_final_shortfall_is_the_loop_cost",),
    ),
    Mutant(
        "outcome: iterations counted as the trace's length",
        "qkdroute/engine.py",
        "return self.trace[-1].r",
        "return len(self.trace)",
        ("tests/test_engine.py::test_dense5_reference_run",
         "tests/test_artifacts.py::test_artifact_final_shortfall_is_the_loop_cost"),
    ),
    # the key pools
    Mutant(
        "pools: little-endian packing",
        "qkdroute/keysim.py",
        "np.packbits(octets[lead : lead + count])",
        'np.packbits(octets[lead : lead + count], bitorder="little")',
        POOL_TESTS,
    ),
    Mutant(
        "pools: the low bit of each byte instead of the top bit",
        "qkdroute/keysim.py",
        "np.right_shift(octets, 7, out=octets)",
        "np.bitwise_and(octets, 1, out=octets)",
        POOL_TESTS,
    ),
    Mutant(
        "pools: a segment's octets not sliced at its first bit",
        "qkdroute/keysim.py",
        "np.packbits(octets[lead : lead + count])",
        "np.packbits(octets[:count])",
        PACKED_TESTS,
    ),
    Mutant(
        "pools: a segment's octets sliced one bit late",
        "qkdroute/keysim.py",
        "np.packbits(octets[lead : lead + count])",
        "np.packbits(octets[lead + 1 : lead + 1 + count])",
        PACKED_TESTS,
    ),
    Mutant(
        "pools: a segment's pad bits not cleared (they keep the next stream bits)",
        "qkdroute/keysim.py",
        "np.packbits(octets[lead : lead + count])",
        "np.packbits(octets[lead : lead + 8 * ((count + 7) // 8)])",
        PACKED_TESTS,
    ),
    Mutant(
        "pools: a segment drawn from one bit late",
        "qkdroute/keysim.py",
        "range(start, stop, 8 * _STEP_WORDS)",
        "range(start + 1, stop + 1, 8 * _STEP_WORDS)",
        PACKED_TESTS,
    ),
    Mutant(
        "pools: the next pool starts right after the last bit, not its half-word",
        "qkdroute/keysim.py",
        "origin += 4 * ((size + 3) // 4)",
        "origin += size",
        POOL_TESTS,
    ),
    Mutant(
        "pools: a step one 64-bit word short when it ends mid-word",
        "qkdroute/keysim.py",
        "generator.random_raw((lead + count + 7) // 8)",
        "generator.random_raw((lead + count) // 8)",
        POOL_TESTS,
    ),
    Mutant(
        "pools: a jump made from the stream's start, not from the generator's word",
        "qkdroute/keysim.py",
        "generator.advance((word - at) % _PERIOD)",
        "generator.advance(word % _PERIOD)",
        POOL_TESTS,
    ),
    Mutant(
        "pools: the generator's word not moved past the words drawn",
        "qkdroute/keysim.py",
        "at = word + len(raw)",
        "at = word",
        POOL_TESTS,
    ),
    Mutant(
        "pools: the generator not rewound to the stream's start after a draw",
        "qkdroute/keysim.py",
        "    generator.advance(-at % _PERIOD)\n",
        "",
        POOL_TESTS,
    ),
    Mutant(
        "memory: check off by one byte",
        "qkdroute/keysim.py",
        "if key_bytes + relay_bytes > memory:",
        "if key_bytes + relay_bytes >= memory:",
        ("tests/test_keysim.py::test_pools_refused_beyond_physical_memory",),
    ),
    Mutant(
        "memory: pair keys counted at a byte per bit",
        "qkdroute/keysim.py",
        "sum((bits + 7) // 8 for bits in layout.key_bits.values())",
        "sum(layout.key_bits.values())",
        MEMORY_TESTS,
    ),
    Mutant(
        "memory: the relay of every record counted, not of the largest",
        "qkdroute/keysim.py",
        "relay_bytes = max(",
        "relay_bytes = sum(",
        MEMORY_TESTS,
    ),
    Mutant(
        "memory: one segment counted per record, not one per hop",
        "qkdroute/keysim.py",
        "(path_set.total_hops + max(",
        "(1 + max(",
        MEMORY_TESTS,
    ),
    Mutant(
        "memory: the messages of the shortest member path counted, not the longest",
        "qkdroute/keysim.py",
        "max(path.hops for path in path_set.paths)",
        "min(path.hops for path in path_set.paths)",
        ("tests/test_keysim.py::test_memory_count_takes_the_longest_member_path",),
    ),
    Mutant(
        "memory: the joined segment, fold keys and blocks not counted",
        "qkdroute/keysim.py",
        "max(path.hops for path in path_set.paths) + 4)",
        "max(path.hops for path in path_set.paths) - 1)",
        MEMORY_TESTS,
    ),
    Mutant(
        "memory: one of the joined segment, fold keys and blocks not counted",
        "qkdroute/keysim.py",
        "max(path.hops for path in path_set.paths) + 4)",
        "max(path.hops for path in path_set.paths) + 3)",
        MEMORY_TESTS,
    ),
    Mutant(
        "memory: the raw words of a step not counted",
        "qkdroute/keysim.py",
        "            + 8 * min(_STEP_WORDS + 1, (stop - start + 14) // 8)\n",
        "",
        MEMORY_TESTS,
    ),
    Mutant(
        "memory: a step's raw words counted at a byte per word",
        "qkdroute/keysim.py",
        "8 * min(_STEP_WORDS + 1, (stop - start + 14) // 8)",
        "min(_STEP_WORDS + 1, (stop - start + 14) // 8)",
        MEMORY_TESTS,
    ),
    Mutant(
        "memory: a step's raw words not capped at one step",
        "qkdroute/keysim.py",
        "min(_STEP_WORDS + 1, (stop - start + 14) // 8)",
        "(stop - start + 14) // 8",
        ("tests/test_cli.py::test_simulate_refuses_pools_beyond_physical_memory",),
    ),
    Mutant(
        "memory: a step's raw words counted without its lead bits",
        "qkdroute/keysim.py",
        "(stop - start + 14) // 8)",
        "(stop - start + 7) // 8)",
        MEMORY_TESTS,
    ),
    Mutant(
        "memory: the last step's raw words kept while the next is drawn",
        "qkdroute/keysim.py",
        "            del raw, octets  # before the next step's words are drawn\n",
        "",
        ("tests/test_keysim.py::test_memory_count_bounds_what_assembly_holds",),
    ),
    Mutant(
        "memory: a record's segments and blocks kept while the next is drawn",
        "qkdroute/keysim.py",
        "    return block_i.tobytes() == block_j.tobytes()\n",
        "    _relay_record.held = pools, block_i, block_j\n"
        "    return block_i.tobytes() == block_j.tobytes()\n",
        ("tests/test_keysim.py::test_memory_count_bounds_what_assembly_holds",),
    ),
    # the packed pair keys
    Mutant(
        "keys: a pair's key sized by its last record alone",
        "qkdroute/keysim.py",
        "layout.key_bits[record.pair] += length",
        "layout.key_bits[record.pair] = length",
        ("tests/test_keysim.py::test_multi_record_pair_key_layout",),
    ),
    Mutant(
        "keys: every record's block placed at the start of its pair's key",
        "qkdroute/keysim.py",
        "layout.blocks[record.path_set] = (offset, offset + length)",
        "layout.blocks[record.path_set] = (0, length)",
        ("tests/test_keysim.py::test_multi_record_pair_key_layout",),
    ),
    Mutant(
        "keys: a block written at the pair's byte offset, not its bit offset",
        "qkdroute/keysim.py",
        "first, shift = divmod(offset, 8)",
        "first, shift = offset // 8, 0",
        ("tests/test_keysim.py::test_packed_relay_and_assembly_match_an_unpacked_oracle",),
    ),
    Mutant(
        "keys: a record's block read from the pair key at its byte, not its bit",
        "qkdroute/keysim.py",
        "first, lead = divmod(start, 8)",
        "first, lead = start // 8, 0",
        ("tests/test_keysim.py::test_multi_record_pair_key_layout",),
    ),
    Mutant(
        "keys: a record's block realigned with the next byte's bits one off",
        "qkdroute/keysim.py",
        "spill >> (8 - lead)",
        "spill >> (9 - lead)",
        ("tests/test_keysim.py::test_multi_record_pair_key_layout",),
    ),
    Mutant(
        "keys: a record's block read with the next block's bits in its pad",
        "qkdroute/keysim.py",
        "    block[size - 1 :] &= 0xFF << -(stop - start) % 8 & 0xFF\n",
        "",
        (
            "tests/test_keysim.py::test_multi_record_pair_key_layout",
            "tests/test_keysim.py::test_every_compromise_subset_cross_checks",
        ),
    ),
    Mutant(
        "trace: an accepted step's set cell written unquoted",
        "qkdroute/artifacts.py",
        """'"' + "|".join(map(str, path_set.paths)) + '"'""",
        """"|".join(map(str, path_set.paths))""",
        ("tests/test_artifacts.py::test_trace_csv_layout",),
    ),
    Mutant(
        "trace: a terminal row with no pair writes None",
        "qkdroute/artifacts.py",
        "'' if pair is None else pair[0]",
        "None if pair is None else pair[0]",
        ("tests/test_artifacts.py::test_trace_csv_layout",),
    ),
    Mutant(
        "matrix: the header lists one node too few",
        "qkdroute/artifacts.py",
        "range(len(rows))",
        "range(len(rows) - 1)",
        ("tests/test_artifacts.py::test_matrix_csv_full_precision",),
    ),
    Mutant(
        "keys: the simulation report unpacks each pair key",
        "qkdroute/artifacts.py",
        '"key_bits": key.length,',
        '"key_bits": len(key.bits),',
        ("tests/test_cli.py::test_simulate_never_unpacks_pair_keys",),
    ),
    # the relay segments and the compromise analysis
    Mutant(
        "allocation: the cursor is not advanced",
        "qkdroute/keysim.py",
        "stop = cursors[edge] = start + length",
        "stop = start + length",
        (
            "tests/test_keysim.py::test_allocation_stacks_records_in_canonical_order",
            "tests/test_acceptance.py::test_acceptance_key_delivery",
        ),
    ),
    Mutant(
        "allocation: a relay segment one bit short",
        "qkdroute/keysim.py",
        "segments[edge] = (start, stop)",
        "segments[edge] = (start, stop - 1)",
        (
            "tests/test_keysim.py::test_allocation_layout",
            "tests/test_keysim.py::test_endpoint_agreement_across_seeds",
        ),
    ),
    Mutant(
        "allocation: a segment placed at its pool offset, without its pool's origin",
        "qkdroute/keysim.py",
        "cursors[edge] = origin + length",
        "cursors[edge] = length",
        PACKED_TESTS,
    ),
    # the one relay fold, which the far endpoint and the adversary share
    *(
        Mutant(f"relay: one message fewer folded, seen by {who}", "qkdroute/keysim.py",
               "for message in reversed(messages):", "for message in messages[1:]:",
               (test,))
        for who, test in (
            ("assembly", "tests/test_keysim.py::test_endpoint_agreement_across_seeds"),
            ("the adversary", "tests/test_keysim.py::test_every_compromise_subset_cross_checks"),
        )
    ),
    Mutant(
        "adversary: a path's segments drawn one link past its anchor",
        "qkdroute/keysim.py",
        "reach.append(path.edges[:anchor])",
        "reach.append(path.edges[: anchor + 1])",
        ("tests/test_keysim.py::"
         "test_simulate_draws_each_segment_once_and_the_adversary_to_its_anchors",),
    ),
    Mutant(
        "compromise: epsilon checked only when there are records",
        "qkdroute/keysim.py",
        "return corrupt, None if epsilon is None else _epsilon(epsilon)",
        "return corrupt, epsilon",
        ("tests/test_cli.py::test_simulate_checks_epsilon_without_records",),
    ),
    Mutant(
        "leak rule: any member path instead of all",
        "qkdroute/keysim.py",
        "return all(path.interior & corrupt for path in path_set.paths)",
        "return any(path.interior & corrupt for path in path_set.paths)",
        (
            "tests/test_keysim.py::test_record_is_leaked_rule",
            "tests/test_keysim.py::test_every_compromise_subset_cross_checks",
        ),
    ),
    # the command line
    Mutant(
        "cli: a repeated --sweep value runs twice into one directory",
        "qkdroute/cli.py",
        "if delta_r in spelled:",
        "if False:",
        ("tests/test_cli.py::test_route_sweep_refuses_empty_and_repeated_values",),
    ),
    Mutant(
        "cli: --sweep repeats compared as text, so 0.1,0.10 runs one step twice",
        "qkdroute/cli.py",
        "if delta_r in spelled:",
        "if value in spelled.values():",
        ("tests/test_cli.py::test_route_sweep_refuses_empty_and_repeated_values",),
    ),
    Mutant(
        "out-dir: a manifest that another command wrote replaced",
        "qkdroute/artifacts.py",
        "if writer != command:",
        "if False:",
        ("tests/test_cli.py::test_simulate_refuses_an_out_dir_holding_the_routing",
         "tests/test_cli.py::test_simulate_refuses_an_out_dir_holding_another_route",
         "tests/test_cli.py::test_route_refuses_an_out_dir_holding_a_simulation"),
    ),
    Mutant(
        "manifest: the last artifact left out of its artifacts map",
        "qkdroute/artifacts.py",
        '"artifacts": {name: file_name for name, (file_name, _) in texts.items()},',
        '"artifacts": {name: file_name for name, (file_name, _) in list(texts.items())[:-1]},',
        (
            "tests/test_artifacts.py::test_manifest_contents",
            "tests/test_artifacts.py::test_write_simulation_artifacts",
        ),
    ),
    Mutant(
        "json: a document's keys written in insertion order",
        "qkdroute/artifacts.py",
        "for key, item in sorted(value.items())",
        "for key, item in value.items()",
        ("tests/test_artifacts.py::test_json_document_is_the_standard_indented_layout",),
    ),
    Mutant(
        "json: a bool written as an int",
        "qkdroute/artifacts.py",
        "    if kind is int:\n",
        "    if isinstance(value, int):\n",
        ("tests/test_artifacts.py::test_json_document_is_the_standard_indented_layout",),
    ),
    Mutant(
        "cli: --delta-r outside the group that excludes --sweep",
        "qkdroute/cli.py",
        'step.add_argument("--delta-r",',
        'p_route.add_argument("--delta-r",',
        ("tests/test_cli.py::test_usage_errors_exit_1",),
    ),
    Mutant(
        "manifest: resolution_bps not compared with the input's",
        "qkdroute/artifacts.py",
        "if resolution != expected:",
        "if False:",
        (
            "tests/test_cli.py::test_route_from_manifest_refuses_malformed",
            "tests/test_fuzz.py::test_broken_inputs_exit_1_with_an_error_line",
        ),
    ),
    Mutant(
        "cli: the compromise arguments checked only after the draws",
        "qkdroute/cli.py",
        "    keysim.check_compromise(graph, args.compromise, args.epsilon)\n",
        "",
        ("tests/test_cli.py::test_simulate_refuses_compromise_arguments_before_drawing",),
    ),
    Mutant(
        "cli: a negative --seed left to numpy, after the artifact read and the layout",
        "qkdroute/cli.py",
        "if args.seed < 0:",
        "if False:",
        ("tests/test_cli.py::test_out_of_range_numbers_exit_1",),
    ),
    Mutant(
        "cli: the fractional-bits warning ignores record rates",
        "qkdroute/cli.py",
        "    rates.update(record.rate for record in routing.records())\n",
        "",
        ("tests/test_cli.py::test_simulate_warns_on_fractional_bits",),
    ),
    Mutant(
        "cli: simulate takes --m and ignores it",
        "qkdroute/cli.py",
        'sub.add_parser("simulate", parents=[input_only],',
        'sub.add_parser("simulate", parents=[with_input],',
        ("tests/test_tooling.py::test_every_accepted_flag_is_read",),
    ),
    # the network file's error boundary
    Mutant(
        "netfile: _format_errors translates nothing",
        "qkdroute/netfile.py",
        "except (LookupError, TypeError, ValueError) as exc:",
        "except () as exc:",
        (
            "tests/test_netfile.py::test_schema_errors",
            "tests/test_netfile.py::test_unrepresentable_rate_is_schema_error",
        ),
    ),
    Mutant(
        "netfile: _format_errors drops its prefix",
        "qkdroute/netfile.py",
        "raise NetworkFormatError(prefix + detail) from exc",
        "raise NetworkFormatError(detail) from exc",
        ("tests/test_cli.py::test_simulate_refuses_run_fields_route_never_writes",),
    ),
    # the target rules a RateMatrix cannot hold, checked where a file is read
    Mutant(
        "netfile: an asymmetric target read as its upper half",
        "qkdroute/netfile.py",
        "_require(rows == [list(col) for col in zip(*rows)],",
        "_require(True,",
        ("tests/test_netfile.py::test_schema_errors",),
    ),
    Mutant(
        "netfile: a target's non-zero diagonal dropped",
        "qkdroute/netfile.py",
        "_require(not any(rows[u][u] for u in range(node_count)),",
        "_require(True,",
        ("tests/test_netfile.py::test_schema_errors",),
    ),
    # one cell per node pair
    Mutant(
        "matrix: m[v, u] read at the position of (v, u), not (u, v)",
        "qkdroute/model.py",
        "pair_position(*canonical_edge(u, v), self.n)",
        "pair_position(u, v, self.n)",
        ("tests/test_model.py::"
         "test_rate_matrix_holds_one_cell_per_pair_in_pair_position_order",),
    ),
    Mutant(
        "artifact: delta_r_units set without RouterConfig's range check",
        "qkdroute/artifacts.py",
        "config = config.replace(delta_r=",
        'object.__setattr__(config, "delta_r", ',
        ("tests/test_cli.py::test_simulate_refuses_a_config_that_router_config_refuses",),
    ),
    # a config built by replace is checked as a new one
    Mutant(
        "config: replace builds the copy without RouterConfig's checks",
        "qkdroute/model.py",
        "return RouterConfig(**{**self._fields(), **changes})",
        "return (lambda new: new._set(*{**self._fields(), **changes}.values()) or new)"
        "(object.__new__(RouterConfig))",
        ("tests/test_model.py::test_router_config_replace_runs_the_checks",),
    ),
    # exact unit conversion
    Mutant(
        "units: whole bits rounded half-even, not down",
        "qkdroute/units.py",
        "rounding=ROUND_FLOOR",
        'rounding="ROUND_HALF_EVEN"',
        ("tests/test_units.py::test_bit_count_floors",),
    ),
    Mutant(
        "units: a rate off the resolution truncated, not refused",
        "qkdroute/units.py",
        "if units != units.to_integral_value():",
        "if False:",
        ("tests/test_units.py::test_unrepresentable_rate_rejected",),
    ),
    Mutant(
        "units: only positive unit counts held to int64",
        "qkdroute/units.py",
        "if abs(units) > MAX_UNITS:",
        "if units > MAX_UNITS:",
        ("tests/test_units.py::test_unit_counts_must_fit_int64",),
    ),
    # the tie-break stream's bounded draw
    Mutant(
        "tie-break: a draw at the Lemire threshold rejected",
        "qkdroute/tiebreak.py",
        "while scaled & _MASK32 < threshold:",
        "while scaled & _MASK32 <= threshold:",
        ("tests/test_fuzz.py::test_tie_break_stream_rejects_only_below_the_lemire_threshold",),
    ),
    # the run fields of a routing artifact, read like the rest
    *(
        Mutant(f"artifact: {what}", "qkdroute/artifacts.py", snippet, replacement,
               ("tests/test_cli.py::test_simulate_refuses_each_field_of_the_wrong_type",
                "tests/test_cli.py::test_simulate_refuses_run_fields_route_never_writes"))
        for what, snippet, replacement in (
            ("seed not read", "{key: doc[key] for key in _CONFIG_FIELDS}",
             '{key: doc[key] for key in _CONFIG_FIELDS if key != "seed"}'),
            ("r_max not read", "{key: doc[key] for key in _CONFIG_FIELDS}",
             '{key: doc[key] for key in _CONFIG_FIELDS if key != "r_max"}'),
            ("iterations over r_max accepted",
             "if config.r_max is not None and steps > config.r_max:", "if False:"),
            ("unknown stop reason accepted", 'stop_reason = StopReason(doc["stop_reason"])',
             'stop_reason = doc["stop_reason"]'),
        )
    ),
    # every derived field of a routing artifact, compared once with its render
    Mutant(
        "artifact: the render never compared",
        "qkdroute/artifacts.py",
        "if _json_text(doc) != _json_text(derived):",
        "if False:",
        ("tests/test_cli.py::test_simulate_refuses_run_fields_route_never_writes",),
    ),
    Mutant(
        "artifact: the render compared by Python equality, where true is 1",
        "qkdroute/artifacts.py",
        "if _json_text(doc) != _json_text(derived):",
        "if doc != derived:",
        ("tests/test_cli.py::test_simulate_refuses_malformed_routing",),
    ),
    Mutant(
        "artifact: the final shortfall derived as the least one",
        "qkdroute/artifacts.py",
        '"final_delta_units": max(map(operator.sub, target.cells, effective.cells)),',
        '"final_delta_units": min(map(operator.sub, target.cells, effective.cells)),',
        ("tests/test_artifacts.py::test_artifact_final_shortfall_is_the_loop_cost",
         "tests/test_cli.py::test_simulate_refuses_a_config_that_router_config_refuses"),
    ),
    # each stop reason's rule on the final state, dropped
    *(
        Mutant(f"stop rule dropped: {what}", "qkdroute/artifacts.py", snippet, replacement,
               ("tests/test_cli.py::test_simulate_checks_the_stop_reason_against_the_final_state",))
        for what, snippet, replacement in (
            ("converged if and only if no pair is short",
             "(stop_reason is StopReason.CONVERGED) != (final <= 0) or ", ""),
            ("r_max", "StopReason.R_MAX: lambda: steps == config.r_max,",
             "StopReason.R_MAX: lambda: True,"),
            ("direct_pair_worst", "StopReason.DIRECT_PAIR_WORST: lambda: any(linked),",
             "StopReason.DIRECT_PAIR_WORST: lambda: True,"),
            ("no_m_set", "StopReason.NO_M_SET: lambda: not set(worst).isdisjoint(",
             "StopReason.NO_M_SET: lambda: True or set(worst).isdisjoint("),
            ("cost_worsened", "StopReason.COST_WORSENED: lambda: not all(linked),",
             "StopReason.COST_WORSENED: lambda: True,"),
            ("guard_exhausted", "StopReason.GUARD_EXHAUSTED: lambda: not all(linked),",
             "StopReason.GUARD_EXHAUSTED: lambda: True,"),
        )
    ),
    # the routing artifact's refusals, each replaced by a test that never holds
    *(
        Mutant(f"artifact refusal removed: {what}", "qkdroute/artifacts.py",
               snippet, "if False:", (f"tests/test_cli.py::{test}",))
        for what, snippet, test in (
            ("node id not an integer",
             'if not all(_is_int(node) for nodes in entry["paths"] for node in nodes):',
             "test_simulate_refuses_a_node_id_that_is_not_an_integer"),
            ("path count other than m", "if path_set.m != m:",
             "test_simulate_refuses_path_count_other_than_m"),
            ("directly linked pair", "if graph.has_edge(*pair):",
             "test_simulate_refuses_a_directly_linked_pair"),
            ("path over the hop limit", "if hop_limit is not None and longest > hop_limit:",
             "test_simulate_refuses_path_over_hop_limit"),
            ("rate off the step", "if rate % step:",
             "test_simulate_refuses_rate_off_the_step"),
            ("negative edge under the strict guard", "if config.strict_guard and negative:",
             "test_simulate_refuses_negative_edge_under_strict_guard"),
            ("rates off the iteration count", "if routed != steps * step:",
             "test_simulate_refuses_rates_off_the_iteration_count"),
        )
    ),
)
