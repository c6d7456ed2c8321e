"""Golden witnesses: every witness the matching module prints, pinned by hash.

For each graph the digest covers the canonical fractional matching and its
half cycles, the optimal transversal, the maximum matching's edges and the
fractional perfect matching partition (or the error it raises).  The graphs
are every labeled graph on n <= 6 vertices and a fixed-seed sample with
7 <= n <= 13.  Rewrite the stored digests, only after a deliberate change
of witness, with

    PYTHONPATH=src python tests/test_witness_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from specmatch import (
    Graph,
    GraphError,
    fpm_partition,
    fractional_transversal,
    matching_number,
    optimal_fractional_matching,
    to_graph6,
)
from specmatch.graphs import pairs_colex
from specmatch.matching import _odd_cycles
from specmatch.verify import _graph_from_mask

GOLDEN = Path(__file__).parent / "golden" / "witnesses.json"
RANDOM_SEED = 20261018
RANDOM_PER_ORDER = 200
LABELED_ORDERS = range(7)
RANDOM_ORDERS = range(7, 14)


def random_sample(n: int) -> list[Graph]:
    rng = random.Random(RANDOM_SEED * 100 + n)
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    out = []
    for _ in range(RANDOM_PER_ORDER):
        p = rng.uniform(0.05, 0.95)
        out.append(Graph(n, [e for e in pairs if rng.random() < p]))
    return out


def witness_lines(g: Graph) -> str:
    fm = optimal_fractional_matching(g)
    try:
        fpm = fpm_partition(g, fm).to_text()
    except GraphError as exc:
        fpm = f"error: {exc}\n"
    return (
        f"graph {to_graph6(g)}\n"
        + fm.to_text()
        + f"cycles {_odd_cycles(fm._rows(fm.n)[1])}\n"
        + fractional_transversal(g).to_text()
        + f"matching {matching_number(g).edges}\n"
        + fpm
    )


def digests() -> dict[str, str]:
    sets = {
        f"labeled n={n}": [_graph_from_mask(n, mask, pairs_colex(n)) for mask in range(1 << n * (n - 1) // 2)]
        for n in LABELED_ORDERS
    }
    sets.update({f"random n={n}": random_sample(n) for n in RANDOM_ORDERS})
    return {key: hashlib.sha256("".join(map(witness_lines, gs)).encode()).hexdigest() for key, gs in sets.items()}


@pytest.fixture(scope="module")
def current():
    return digests()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key", [f"labeled n={n}" for n in LABELED_ORDERS] + [f"random n={n}" for n in RANDOM_ORDERS])
def test_witnesses_match_golden(current, golden, key):
    assert current[key] == golden[key]


def test_golden_covers_every_set(current, golden):
    assert sorted(current) == sorted(golden)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
