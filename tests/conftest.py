from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np
import pytest

from qkdroute import NetworkGraph, uniform_target
from qkdroute.model import RateMatrix

NETWORKS_DIR = Path(__file__).resolve().parent.parent / "networks"

# dense 5-node benchmark: targets 0.2 kbit/s, heterogeneous edge rates
DENSE5_RATES = {
    (0, 1): 500, (0, 2): 400, (0, 3): 500, (1, 2): 500,
    (1, 4): 400, (2, 3): 500, (2, 4): 300, (3, 4): 600,
}

# complete bipartite K{2,3}: nodes 0 and 4 joined through relays 1, 2, 3
K23_RATES = {
    (0, 1): 1000, (0, 2): 1000, (0, 3): 1000,
    (1, 4): 1000, (2, 4): 1000, (3, 4): 1000,
}

# 6-cycle 0-1-4-5-2-3-0 plus chord 1-2, uniform 1.0 kbit/s edges
RING6_RATES = {
    (0, 1): 1000, (0, 3): 1000, (1, 2): 1000, (1, 4): 1000,
    (2, 3): 1000, (2, 5): 1000, (4, 5): 1000,
}

# sparse 10-node mesh with heterogeneous rates and an infeasible target
MESH10_RATES = {
    (0, 1): 5000, (0, 2): 4200, (0, 3): 3600, (1, 5): 2800,
    (2, 4): 1600, (3, 5): 3000, (3, 6): 1200, (4, 7): 2400,
    (4, 8): 2000, (5, 8): 1800, (6, 9): 1400, (7, 9): 2600,
    (8, 9): 3200,
}


def as_rate_matrix(rows) -> RateMatrix:
    """The RateMatrix of square rows, given as lists or as an ndarray; the
    rows must be symmetric with a zero diagonal, as a RateMatrix reads."""
    rows = np.asarray(rows)
    assert np.array_equal(rows, rows.T) and not rows.diagonal().any()
    n = len(rows)
    return RateMatrix(n, [int(rows[i, j]) for i, j in itertools.combinations(range(n), 2)])


def as_array(matrix: RateMatrix) -> np.ndarray:
    """A RateMatrix as a fresh int array."""
    return np.array(matrix.tolist())


@pytest.fixture
def dense5():
    return NetworkGraph(5, dict(DENSE5_RATES)), uniform_target(5, 200)


@pytest.fixture
def k23():
    return NetworkGraph(5, dict(K23_RATES)), uniform_target(5, 100)


@pytest.fixture
def ring6():
    return NetworkGraph(6, dict(RING6_RATES)), uniform_target(6, 100)


@pytest.fixture
def mesh10():
    return NetworkGraph(10, dict(MESH10_RATES)), uniform_target(10, 1000)


@pytest.fixture
def dense5_file():
    return NETWORKS_DIR / "dense5.json"


@pytest.fixture
def k23_file():
    return NETWORKS_DIR / "k23.json"


@pytest.fixture
def ring6_file():
    return NETWORKS_DIR / "ring6_chord.json"


@pytest.fixture
def mesh10_file():
    return NETWORKS_DIR / "mesh10.json"
