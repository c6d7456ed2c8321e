"""Golden maximum matchings on graphs where the blossom search contracts a lot.

`tests/golden/witnesses.json` pins `matching_number(g).edges` only on small
graphs, where few nested blossoms occur.  This module pins the edges, by
hash, on families that force many and nested contractions: fixed-seed
random graphs with 14 <= n <= 60, sparse (mean degree 2.5 to 5, where
the most augmenting searches contract) and dense, theta(n) =
K_1 v (K_{n-3} u 2K_1) for n <= 60, odd cliques with pendant paths, and
chains and rings of odd cycles whose contractions nest.  The structured
families are also taken under fixed-seed vertex shuffles, since the search
order follows the labels.  The edges are what
the CLI prints for `beta --witness`.  The same families are checked against
networkx.  Rewrite the stored digests, only after a deliberate change of
witness, with

    PYTHONPATH=src python tests/test_matching_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import networkx as nx
import pytest

from specmatch import Graph, matching_number, to_graph6

GOLDEN = Path(__file__).parent / "golden" / "matchings.json"
SEED = 20261018
RANDOM_ORDERS = range(14, 61)
SPARSE_DEGREES = (2.5, 3.5, 5)  # mean degree; most contractions per graph
SPARSE_PER_ORDER = 15
DENSITIES = (0.2, 0.5, 0.85)
DENSE_PER_ORDER = 3


def shuffled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def random_family(name: str, density, per_order: int) -> list[Graph]:
    rng = random.Random(f"{SEED} {name}")
    out = []
    for n in RANDOM_ORDERS:
        p = density(n)
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        out += [Graph(n, [e for e in pairs if rng.random() < p]) for _ in range(per_order)]
    return out


def theta(n: int) -> Graph:
    """K_1 v (K_{n-3} u 2K_1): hub 0, clique 1..n-3, pendants n-2 and n-1."""
    clique = [(i, j) for j in range(2, n - 2) for i in range(1, j)]
    return Graph(n, [(0, v) for v in range(1, n)] + clique)


def clique_with_paths(k: int, lengths: tuple[int, ...]) -> Graph:
    """K_k with a pendant path of each given length, hung from clique
    vertices 0, 1, 2, ... in turn."""
    edges = [(i, j) for j in range(1, k) for i in range(j)]
    n = k
    for a, length in enumerate(lengths):
        prev = a % k
        for _ in range(length):
            edges.append((prev, n))
            prev, n = n, n + 1
    return Graph(n, edges)


def cycle_chain(lengths: tuple[int, ...], ring: bool, bridge: int) -> Graph:
    """Odd cycles of the given lengths in a row, each tied from its middle
    vertex to the next one's first vertex by a path of `bridge` edges (0: the
    two share that vertex).  With `ring` the last is tied back to the first,
    so that the contracted cycles form an odd cycle again and blossoms nest."""
    edges: list[tuple[int, int]] = []
    n = 0

    def fresh() -> int:
        nonlocal n
        n += 1
        return n - 1

    def tie(a: int, b: int) -> None:
        for _ in range(bridge - 1):
            c = fresh()
            edges.append((a, c))
            a = c
        edges.append((a, b))

    first = tail = None
    for i, length in enumerate(lengths):
        head = tail if bridge == 0 and tail is not None else fresh()
        if bridge and tail is not None:
            tie(tail, head)
        first = head if first is None else first
        closing = ring and bridge == 0 and i == len(lengths) - 1
        vs = [head] + [first if closing and j == length // 2 else fresh() for j in range(1, length)]
        edges += [(vs[j], vs[(j + 1) % length]) for j in range(length)]
        tail = vs[length // 2]
    if ring and bridge:
        tie(tail, first)
    return Graph(n, edges)


def shuffles(name: str, base: list[Graph], copies: int = 2) -> list[Graph]:
    rng = random.Random(f"{SEED} {name}")
    return [shuffled(g, rng) for _ in range(copies) for g in base]


def families() -> dict[str, list[Graph]]:
    out = {}
    for d in SPARSE_DEGREES:
        out[f"random degree={d}"] = random_family(f"random degree={d}", lambda n: d / (n - 1), SPARSE_PER_ORDER)
    for p in DENSITIES:
        out[f"random p={p}"] = random_family(f"random p={p}", lambda n: p, DENSE_PER_ORDER)
    out["theta"] = [theta(n) for n in range(3, 61)]
    out["theta shuffled"] = shuffles("theta", out["theta"])
    cliques = [
        clique_with_paths(k, lengths)
        for k in (3, 5, 7, 9, 13, 21)
        for lengths in ((1,), (2,), (3,), (1, 1), (2, 3), (1, 2, 4), (4, 4, 4, 4))
    ]
    out["odd cliques with pendant paths"] = cliques + shuffles("cliques", cliques)
    chains = [
        cycle_chain(lengths, ring, bridge)
        for lengths in ((3, 3), (3, 5, 3), (5, 5, 5), (3, 3, 3, 3, 3), (7, 3, 5, 3, 7), (3,) * 9)
        for ring in (False, True)
        for bridge in (0, 1, 2)
    ]
    out["odd-cycle chains"] = chains + shuffles("chains", chains)
    return out


def digest(gs: list[Graph]) -> str:
    text = "".join(f"{to_graph6(g)} {matching_number(g).edges}\n" for g in gs)
    return hashlib.sha256(text.encode()).hexdigest()


FAMILIES = families()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key", list(FAMILIES))
def test_matchings_match_golden(golden, key):
    assert digest(FAMILIES[key]) == golden[key]


def test_golden_covers_every_family(golden):
    assert sorted(FAMILIES) == sorted(golden)


@pytest.mark.parametrize("key", list(FAMILIES))
def test_against_networkx(key):
    for g in FAMILIES[key]:
        res = matching_number(g)
        covered = [v for e in res.edges for v in e]
        assert len(covered) == len(set(covered)) == 2 * res.size
        assert all(g.has_edge(u, v) for u, v in res.edges)
        g_nx = nx.Graph()
        g_nx.add_nodes_from(range(g.n))
        g_nx.add_edges_from(g.edges())
        assert res.size == len(nx.max_weight_matching(g_nx, maxcardinality=True)), to_graph6(g)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({key: digest(gs) for key, gs in FAMILIES.items()}, indent=1, sort_keys=True) + "\n")
