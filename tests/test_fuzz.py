"""Fuzzed inputs: a broken network file, route manifest or routing artifact
makes the command exit 1 with one ``error:`` line, and raises nothing.  A
broken network file makes ``load_network`` itself raise a NetworkFormatError,
or a ValidationError for a disconnected graph, never a bare ValueError or
TypeError.  And the pure-Python tie-break stream draws what numpy's
``Generator.integers`` draws, on any seed."""

from __future__ import annotations

import io
import itertools
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdroute.cli import EXIT_INVALID, EXIT_OK, main
from qkdroute.model import ValidationError
from qkdroute.netfile import NetworkFormatError, load_network
from qkdroute.tiebreak import TieBreakStream

from conftest import NETWORKS_DIR

# a literal no float holds; the network reader parses it as a Decimal
HUGE = "1e999999"
# values put in place of a field; HUGE is spliced into the JSON text
INSERTED = [float("nan"), float("inf"), float("-inf"), HUGE, 10**30]

# Per document:
#   unread: keys no reader looks at, so any edit of them is still valid;
#   optional: keys a reader may do without;
#   any_int: keys for which every integer is valid (seed, step budget, hop
#     limit, M), plus the network's node count, which stays small so the
#     reader is never asked for a large allocation.
DOCS = {
    "network": {
        "unread": set(),
        "optional": {"target", "router", "M", "delta_r_kbps", "r_max", "seed",
                     "hop_limit", "strict_guard"},
        "any_int": {"nodes", "M", "r_max", "seed", "hop_limit"},
    },
    "manifest": {
        "unread": {"tool", "version", "artifacts"},
        "optional": set(),
        "any_int": {"m", "r_max", "seed", "hop_limit"},
    },
    "routing": {
        "unread": set(),
        "optional": set(),
        "any_int": {"hop_limit", "r_max"},
    },
}


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """The k23 network, and the manifest and routing artifact it routes to."""
    root = tmp_path_factory.mktemp("fuzz")
    net = root / "k23.json"
    net.write_text((NETWORKS_DIR / "k23.json").read_text())
    with redirect_stdout(io.StringIO()):
        assert main(["route", "--input", str(net), "--out-dir", str(root / "route")]) == EXIT_OK
    docs = {
        "network": json.loads(net.read_text()),
        "manifest": json.loads((root / "route" / "manifest.json").read_text()),
        "routing": json.loads((root / "route" / "routing_list.json").read_text()),
    }
    return root, docs


def _sites(doc, prefix=()):
    """Every key and index path into a JSON document, containers included."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _sites(value, prefix + (key,))


def _mutations(kind, doc):
    """Every (site, edit) that a reader of ``kind`` must refuse."""
    rules = DOCS[kind]
    out = []
    for site in _sites(doc):
        if rules["unread"].intersection(site):
            continue
        leaf = site[-1]
        if isinstance(leaf, str) and leaf not in rules["optional"]:
            out.append((site, "drop"))
        out.append((site, "swap"))
        out.extend(
            (site, value) for value in INSERTED
            if not (value == 10**30 and leaf in rules["any_int"])
        )
    return out


def _apply(doc, site, edit):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for part in site[:-1]:
        parent = parent[part]
    if edit == "drop":
        del parent[site[-1]]
    elif edit == "swap":
        # a container of the other kind stands in for any value
        parent[site[-1]] = [] if isinstance(parent[site[-1]], dict) else {}
    else:
        parent[site[-1]] = edit
    return json.dumps(doc).replace(json.dumps(HUGE), HUGE)


@st.composite
def broken_inputs(draw, docs):
    kind = draw(st.sampled_from(sorted(DOCS)))
    site, edit = draw(st.sampled_from(_mutations(kind, docs[kind])))
    return kind, site, edit


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_broken_inputs_exit_1_with_an_error_line(originals, data):
    root, docs = originals
    kind, site, edit = data.draw(broken_inputs(docs))
    text = _apply(docs[kind], site, edit)
    net = root / "k23.json"
    if kind == "network":
        broken = root / "broken_net.json"
        argv = ["validate", "--input", str(broken)]
    elif kind == "manifest":
        # beside the original, so a relative input still resolves
        broken = root / "route" / "broken_manifest.json"
        argv = ["route", "--from-manifest", str(broken), "--out-dir", str(root / "again")]
    else:
        broken = root / "broken_routing.json"
        argv = ["simulate", "--input", str(net), "--routing", str(broken), "--tau", "1"]
    broken.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code == EXIT_INVALID, (kind, site, edit, out.getvalue())
    assert len(lines) == 1 and lines[0].startswith("error:"), (kind, site, edit, lines)
    assert not (root / "again").exists()
    if kind == "network":
        # cli.main catches any ValueError, so only a direct call shows a leak
        with pytest.raises((TypeError, ValueError)) as raised:
            load_network(broken)
        error = raised.value
        assert type(error) is NetworkFormatError or (
            type(error) is ValidationError and "disconnected" in str(error)
        ), (site, edit, repr(error))


# bounds that draw nothing (1), reject often (2**31 + 1), or rarely (2, 3, 2**32 - 1)
TIE_BOUNDS = (1, 2, 3, 2**31 + 1, 2**32 - 1)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    drawn=st.lists(st.integers(1, 2**32 - 1), min_size=300, max_size=300),
)
def test_tie_break_stream_matches_numpy(seed, drawn):
    # the bounds alternate between drawn ones and TIE_BOUNDS, so a carried
    # high half-word is read under every kind of bound
    bounds = [k for pair in zip(drawn, itertools.cycle(TIE_BOUNDS)) for k in pair]
    oracle = np.random.default_rng(seed)
    stream = TieBreakStream(seed)
    assert [stream.integers(k) for k in bounds] == [int(oracle.integers(k)) for k in bounds]


class _FedStream(TieBreakStream):
    """A stream whose 32-bit draws are the given words, in turn."""

    __slots__ = ("_words",)

    def __init__(self, words) -> None:
        super().__init__(0)
        self._words = iter(words)

    def _next32(self) -> int:
        return next(self._words)


@pytest.mark.parametrize("words, k, drawn", [
    # 3 * 0xAAAAAAAB = 2 * 2**32 + 1: the low word 1 is 2**32 % 3, so it is kept
    ((0xAAAAAAAB, 7), 3, 2),
    # the low word 0 is under the threshold: rejected, the next word is used
    ((0, 0xAAAAAAAB), 3, 2),
    # k = 2**31 + 1: the threshold 2**31 - 1 is the low word of 2**32 - 1
    ((2**32 - 1, 7), 2**31 + 1, 2**31),
    ((0, 2**32 - 1), 2**31 + 1, 2**31),
])
def test_tie_break_stream_rejects_only_below_the_lemire_threshold(words, k, drawn):
    # a draw whose low word equals 2**32 % k is kept, as numpy keeps it; a
    # seed that reaches that case is one in 2**32 draws, so the words are fed
    assert _FedStream(words).integers(k) == drawn


@pytest.mark.parametrize("seed, k", [(0, 0), (0, 2**32), (-1, 1), (2**64, 1)])
def test_tie_break_stream_refuses_bounds_out_of_range(seed, k):
    # numpy draws k >= 2**32 another way; RouterConfig takes 64-bit seeds
    with pytest.raises(ValueError, match="must be from"):
        TieBreakStream(seed).integers(k)
