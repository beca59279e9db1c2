import numpy as np
import pytest

from respecting_cuts.generators import gen_connected_graph
from respecting_cuts.graph import Graph, build_graph
from respecting_cuts.tree import build_rooted_tree


def make_fixture(n, edges, tree_ids, root=0):
    graph = build_graph(n, edges)
    tree = build_rooted_tree(graph, tree_ids, root)
    return graph, tree


@pytest.fixture
def f1():
    """Triangle; tree is the path 0-1-2 rooted at 0."""
    return make_fixture(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)], {0, 1})


@pytest.fixture
def f2():
    """Star rooted at 0 with leaves 1,2,3 plus the extra edge (1,2)."""
    return make_fixture(
        4, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1)], {0, 1, 2}
    )


@pytest.fixture
def f3():
    """Path 0-1-2-3 rooted at 0 plus the chord (0,3)."""
    return make_fixture(
        4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)], {0, 1, 2}
    )


@pytest.fixture
def f4():
    """Tree 0-1 with 1-2 and 1-3, plus the extra edge (2,3)."""
    return make_fixture(
        4, [(0, 1, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)], {0, 1, 2}
    )


@pytest.fixture
def f5():
    """Tree 0-1-2 and 0-3, plus the extra edge (2,3)."""
    return make_fixture(
        4, [(0, 1, 1), (1, 2, 1), (0, 3, 1), (2, 3, 1)], {0, 1, 2}
    )


@pytest.fixture
def multigraph():
    """Weighted 60-vertex multigraph with 40 parallel edges, each listed
    with its endpoints reversed."""
    base = gen_connected_graph(60, 150, seed=4)
    rng = np.random.default_rng(5)
    dup = rng.integers(0, base.m, size=40)
    u = np.concatenate([base.edge_u, base.edge_v[dup]])
    v = np.concatenate([base.edge_v, base.edge_u[dup]])
    return Graph.from_arrays(60, u, v, rng.integers(1, 50, size=u.size))
