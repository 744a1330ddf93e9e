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
        "                stack.append((prefix + (k,), options & ~conflicts[k]))",
        "stack.append((prefix + (k,), options & ~conflicts[k]))\n"
        "                stack.append((prefix, options))",
        (
            "tests/test_paths.py::test_disjoint_sets_match_oracle",
            "tests/test_paths.py::test_random_graphs_match_oracle",
        ),
    ),
    Mutant(
        "enumeration: a path of hop_limit hops cut, not kept",
        "qkdroute/paths.py",
        "elif not visited[w] and len(trail) < limit:",
        "elif not visited[w] and len(trail) < limit - 1:",
        (
            "tests/test_paths.py::test_hop_limit",
            "tests/test_paths.py::test_random_graphs_match_oracle",
        ),
    ),
    # the candidate table built from path indices
    Mutant(
        "table: rows in reversed order",
        "qkdroute/engine.py",
        "self.rows = list(_disjoint_rows([p[1:-1] for p in paths], m))",
        "self.rows = list(_disjoint_rows([p[1:-1] for p in paths], m))[::-1]",
        ("tests/test_engine.py::test_candidate_table_matches_reference",),
    ),
    Mutant(
        "table: hop masks in the order first met, not fewest hops first",
        "qkdroute/engine.py",
        "self.hops = tuple(hops[count] for count in sorted(hops))",
        "self.hops = tuple(hops.values())",
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
        "if deficiency[cell] > limits[cell])",
        "if deficiency[cell] >= limits[cell])",
        ("tests/test_engine.py::test_run_invariants_on_random_graphs",),
    ),
    Mutant(
        "guard: a newly short edge is not added to short after a step",
        "qkdroute/engine.py",
        "        if guard:\n            short.update(",
        "        if False:\n            short.update(",
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
        "levels[value] = levels.get(value, 0) | rows",
        "levels[value, cell] = rows",
        ("tests/test_engine.py::test_table_scoring_matches_reference",),
    ),
    Mutant(
        "finalists: bits read highest first",
        "qkdroute/engine.py",
        "low = live & -live",
        "low = 1 << (live.bit_length() - 1)",
        ("tests/test_engine.py::test_table_scoring_matches_reference",),
    ),
    Mutant(
        "audit: candidate deficiencies taken after the step",
        "qkdroute/engine.py",
        """        audit = (
            tuple(
                (path_set, score)
                for path_set, score, row_cells in table.scored(deficiency)
                if short.isdisjoint(row_cells)
            )
            if trace_candidates
            else None
        )
        deficiency[positions[pair]] -= step
        for cell in cells:
            deficiency[cell] += step
""",
        """        deficiency[positions[pair]] -= step
        for cell in cells:
            deficiency[cell] += step
        audit = (
            tuple(
                (path_set, score)
                for path_set, score, row_cells in table.scored(deficiency)
                if short.isdisjoint(row_cells)
            )
            if trace_candidates
            else None
        )
""",
        ("tests/test_acceptance.py::test_acceptance_dense5_golden_run",),
    ),
    # the one row score, which the audit and the paths command share
    *(
        Mutant(f"score: a row scored by its least loaded edge, seen by {who}",
               "qkdroute/engine.py",
               "yield path_set, max(map(deficiency.__getitem__, cells)), cells",
               "yield path_set, min(map(deficiency.__getitem__, cells)), cells",
               (test,))
        for who, test in (
            ("the audit", "tests/test_acceptance.py::test_acceptance_dense5_golden_run"),
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
        "range(origins[edge] + start, end, 8 * _STEP_WORDS)",
        "range(origins[edge] + start + 1, end + 1, 8 * _STEP_WORDS)",
        PACKED_TESTS,
    ),
    Mutant(
        "pools: the next pool starts right after the last bit, not its half-word",
        "qkdroute/keysim.py",
        "origin += 4 * ((length + 3) // 4)",
        "origin += length",
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
        "sum((bits + 7) // 8 for bits in allocation.key_bits.values())",
        "sum(allocation.key_bits.values())",
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
        "allocation.key_bits[record.pair] += length",
        "allocation.key_bits[record.pair] = length",
        ("tests/test_keysim.py::test_multi_record_pair_key_layout",),
    ),
    Mutant(
        "keys: every record's block placed at the start of its pair's key",
        "qkdroute/keysim.py",
        "allocation.blocks[record.path_set] = (offset, offset + length)",
        "allocation.blocks[record.path_set] = (0, length)",
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
        "cursors[edge] = stop",
        "cursors[edge] = start",
        (
            "tests/test_keysim.py::test_allocation_stacks_records_in_canonical_order",
            "tests/test_acceptance.py::test_acceptance_key_delivery",
        ),
    ),
    Mutant(
        "allocation: a relay segment one bit short",
        "qkdroute/keysim.py",
        "allocation[record.path_set, edge] = (start, stop)",
        "allocation[record.path_set, edge] = (start, stop - 1)",
        (
            "tests/test_keysim.py::test_allocation_layout",
            "tests/test_keysim.py::test_endpoint_agreement_across_seeds",
        ),
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
        "if repeated:",
        "if False:",
        ("tests/test_cli.py::test_route_sweep_refuses_empty_and_repeated_values",),
    ),
    Mutant(
        "cli: the compromise arguments checked only after the draws",
        "qkdroute/cli.py",
        "    keysim.check_compromise(graph, args.compromise, args.epsilon)\n",
        "",
        ("tests/test_cli.py::test_simulate_refuses_compromise_arguments_before_drawing",),
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
        "except (TypeError, ValueError) as exc:",
        "except () as exc:",
        (
            "tests/test_netfile.py::test_schema_errors",
            "tests/test_netfile.py::test_unrepresentable_rate_is_schema_error",
        ),
    ),
    # the routing artifact's refusals, each replaced by a test that never holds
    *(
        Mutant(f"artifact refusal removed: {what}", "qkdroute/artifacts.py",
               snippet, "if False:", (f"tests/test_cli.py::{test}",))
        for what, snippet, test in (
            ("path set listed twice", "if path_set in listed:",
             "test_simulate_refuses_a_repeated_path_set"),
            ("path count other than m", "if path_set.m != m:",
             "test_simulate_refuses_path_count_other_than_m"),
            ("pair other than the endpoints",
             'if entry["pair"] != pair or not all(map(_is_int, entry["pair"])):',
             "test_simulate_refuses_pair_other_than_the_endpoints"),
            ("directly linked pair", "if graph.has_edge(*pair):",
             "test_simulate_refuses_a_directly_linked_pair"),
            ("path over the hop limit", "if hop_limit is not None and longest > hop_limit:",
             "test_simulate_refuses_path_over_hop_limit"),
            ("rate off the step", "if rate % step:",
             "test_simulate_refuses_rate_off_the_step"),
            ("rate_kbps other than rate_units", 'if entry["rate_kbps"] != kbps:',
             "test_simulate_refuses_rate_kbps_other_than_rate_units"),
            ("effective_units off its records",
             "if effective != routing.effective(graph).tolist():",
             "test_simulate_refuses_malformed_routing"),
            ("negative edge under the strict guard", "if effective[u][v] < 0:",
             "test_simulate_refuses_negative_edge_under_strict_guard"),
            ("rates off the iteration count", "if routed != steps * step:",
             "test_simulate_refuses_rates_off_the_iteration_count"),
        )
    ),
)
