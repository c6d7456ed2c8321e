from __future__ import annotations

import os
import random
from pathlib import Path

import hypothesis
import hypothesis.strategies as st
import pytest

from specmatch import Graph

hypothesis.settings.register_profile(
    "ci", deadline=None, derandomize=True, max_examples=60
)
hypothesis.settings.load_profile("ci")


@st.composite
def graphs(draw, min_n=0, max_n=8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if not pairs:
        return Graph(n)
    picks = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    return Graph(n, picks)


def src_env() -> dict[str, str]:
    """The environment for a subprocess that imports specmatch: this
    checkout's src first on PYTHONPATH, so the suite runs without an
    install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]))
    return env


def isomorphic(g: Graph, h: Graph) -> bool:
    """networkx's isomorphism test on two specmatch graphs."""
    import networkx as nx

    def to_nx(x: Graph) -> nx.Graph:
        out = nx.Graph(list(x.edges()))
        out.add_nodes_from(range(x.n))
        return out

    return nx.is_isomorphic(to_nx(g), to_nx(h))


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(i, j) for j in range(1, n) for i in range(j) if rng.random() < p]
    return Graph(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float) -> Graph:
    # random spanning tree plus random extra edges
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a = order[rng.randrange(i)]
        b = order[i]
        edges.add((min(a, b), max(a, b)))
    for j in range(1, n):
        for i in range(j):
            if rng.random() < p:
                edges.add((i, j))
    return Graph(n, sorted(edges))


@pytest.fixture
def rng():
    return random.Random(20240817)
