import re
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respecting_cuts.errors import GraphInputError, QueryError, TreeStructureError
from respecting_cuts.generators import (
    STRATEGIES,
    gen_connected_graph,
    gen_query_set,
    gen_spanning_tree,
)
from respecting_cuts.graph import build_graph
from respecting_cuts.selfcheck import run_selfcheck


def bfs_distances(graph, root):
    nbrs = [[] for _ in range(graph.n)]
    for a, b in zip(graph.edge_u.tolist(), graph.edge_v.tolist()):
        nbrs[a].append(b)
        nbrs[b].append(a)
    dist = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in nbrs[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def test_gen_connected_graph_basic():
    g = gen_connected_graph(10, 20, seed=5)
    assert g.n == 10
    assert g.m == 20
    assert np.all(g.edge_weight == 1)
    assert len(bfs_distances(g, 0)) == 10


def test_gen_connected_graph_deterministic():
    a = gen_connected_graph(30, 80, seed=123)
    b = gen_connected_graph(30, 80, seed=123)
    assert np.array_equal(a.edge_u, b.edge_u)
    assert np.array_equal(a.edge_v, b.edge_v)
    c = gen_connected_graph(30, 80, seed=124)
    same = np.array_equal(a.edge_u, c.edge_u) and np.array_equal(
        a.edge_v, c.edge_v
    )
    assert not same


def test_gen_connected_graph_tree_case():
    g = gen_connected_graph(8, 7, seed=0)
    assert g.m == 7
    assert len(bfs_distances(g, 0)) == 8


def test_gen_connected_graph_single_vertex():
    g = gen_connected_graph(1, 0, seed=0)
    assert g.n == 1
    assert g.m == 0


def test_gen_connected_graph_rejects_sparse():
    with pytest.raises(ValueError):
        gen_connected_graph(5, 3, seed=0)
    with pytest.raises(ValueError):
        gen_connected_graph(1, 2, seed=0)


def test_spanning_tree_strategies_cover_tree_graph():
    g = build_graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    for strategy in STRATEGIES:
        t = gen_spanning_tree(g, 0, seed=9, strategy=strategy)
        assert t.tree_edge_ids.tolist() == [0, 1, 2, 3]


def test_bfs_tree_depth_equals_distance():
    g = gen_connected_graph(40, 100, seed=11)
    t = gen_spanning_tree(g, 3, seed=0, strategy="bfs")
    dist = bfs_distances(g, 3)
    for v in range(40):
        assert t.depth_of(v) == dist[v]


def test_deterministic_strategies_ignore_seed():
    g = gen_connected_graph(25, 60, seed=2)
    for strategy in ("bfs", "dfs"):
        a = gen_spanning_tree(g, 0, seed=1, strategy=strategy)
        b = gen_spanning_tree(g, 0, seed=999, strategy=strategy)
        assert a.tree_edge_ids.tolist() == b.tree_edge_ids.tolist()


def test_uniform_tree_same_seed_same_tree():
    g = gen_connected_graph(25, 60, seed=2)
    a = gen_spanning_tree(g, 0, seed=42, strategy="uniform")
    b = gen_spanning_tree(g, 0, seed=42, strategy="uniform")
    assert a.tree_edge_ids.tolist() == b.tree_edge_ids.tolist()


def test_uniform_tree_distribution_on_triangle():
    # The triangle has exactly three spanning trees; each should appear
    # with frequency near 1/3.
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    counts = Counter()
    trials = 600
    for seed in range(trials):
        t = gen_spanning_tree(g, 0, seed=seed, strategy="uniform")
        counts[tuple(t.tree_edge_ids.tolist())] += 1
    assert len(counts) == 3
    for count in counts.values():
        assert 0.23 * trials < count < 0.44 * trials


@pytest.mark.parametrize(
    "n, target_m", [(10.7, 20), (10, 20.2), (10.0, 20), (True, 0), ("10", 20)]
)
def test_gen_connected_graph_rejects_coerced_sizes(n, target_m):
    with pytest.raises(GraphInputError, match="is not an integer"):
        gen_connected_graph(n, target_m, seed=0)


def test_gen_connected_graph_accepts_numpy_sizes():
    g = gen_connected_graph(np.int64(10), np.int32(20), seed=5)
    assert (g.n, g.m) == (10, 20)
    assert type(g.n) is int


def test_spanning_tree_rejects_bad_inputs():
    g = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        gen_spanning_tree(g, 0, seed=0, strategy="prim")
    with pytest.raises(ValueError):
        gen_spanning_tree(g, 5, seed=0, strategy="bfs")
    for root in (1.7, 1.0, True, "1"):
        for strategy in STRATEGIES:
            with pytest.raises(TreeStructureError, match=f"root: vertex {root!r} "):
                gen_spanning_tree(g, root, seed=0, strategy=strategy)
    assert gen_spanning_tree(g, np.int64(1), seed=0, strategy="dfs").root == 1
    disconnected = build_graph(4, [(0, 1), (2, 3)])
    for strategy in STRATEGIES:
        with pytest.raises(GraphInputError, match="vertex 2 unreachable from 0"):
            gen_spanning_tree(disconnected, 0, seed=0, strategy=strategy)


def test_gen_query_set():
    g = gen_connected_graph(12, 20, seed=3)
    t = gen_spanning_tree(g, 4, seed=3, strategy="bfs")
    members = gen_query_set(t, 5, seed=8)
    assert len(members) == 5
    assert len(set(members)) == 5
    assert 4 not in members
    assert members == gen_query_set(t, 5, seed=8)
    with pytest.raises(QueryError):
        gen_query_set(t, 0, seed=0)
    with pytest.raises(QueryError):
        gen_query_set(t, 12, seed=0)
    for k in (2.9, 5.0, True, "5"):
        with pytest.raises(QueryError, match="is not an integer"):
            gen_query_set(t, k, seed=8)
    assert gen_query_set(t, np.int64(5), seed=8) == members


def test_every_seeded_draw_takes_one_seed_rule():
    g = gen_connected_graph(12, 20, seed=3)
    t = gen_spanning_tree(g, 4, seed=3, strategy="bfs")
    draws = [
        lambda seed: gen_connected_graph(12, 20, seed).edge_v.tolist(),
        lambda seed: gen_spanning_tree(g, 4, seed, "uniform").tree_edge_ids.tolist(),
        lambda seed: gen_query_set(t, 5, seed),
        lambda seed: run_selfcheck(n_max=4, trials=2, seed=seed),
    ]
    for seed in (True, 1.0, -1, "1"):
        shown = f"^seed {re.escape(repr(seed))} is not a non-negative integer$"
        for draw in draws:
            with pytest.raises(ValueError, match=shown):
                draw(seed)
    for draw in draws:
        assert draw(np.int64(3)) == draw(3)
        draw(2**70)


@given(
    n=st.integers(2, 20),
    extra=st.integers(0, 15),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_generated_graphs_are_valid(n, extra, seed):
    g = gen_connected_graph(n, n - 1 + extra, seed)
    assert g.m == n - 1 + extra
    assert len(bfs_distances(g, 0)) == n
    assert int(g.edge_weight.sum()) == g.m


@given(
    n=st.integers(2, 14),
    seed=st.integers(0, 2**31),
    strategy=st.sampled_from(STRATEGIES),
)
@settings(max_examples=60, deadline=None)
def test_spanning_trees_span(n, seed, strategy):
    g = gen_connected_graph(n, min(n + 5, n * (n - 1) // 2), seed)
    root = seed % n
    t = gen_spanning_tree(g, root, seed, strategy)
    assert len(t.tree_edge_ids) == n - 1
    assert all(t.depth_of(v) >= 0 for v in range(n))


def test_query_set_draws_are_pinned():
    # Draws recorded before the candidate pool became a numpy range, as
    # (n, m, graph seed, root, strategy) -> {(draw seed, k): members}.
    pinned = {
        (12, 20, 3, 4, "bfs"): {
            (0, 1): [10],
            (8, 5): [1, 2, 6, 9, 10],
            (3, 7): [0, 1, 5, 8, 9, 10, 11],
            (2**40, 11): [0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11],
        },
        (50, 120, 1, 0, "uniform"): {
            (0, 1): [42],
            (8, 5): [9, 12, 16, 33, 48],
            (3, 7): [4, 9, 11, 35, 39, 43, 47],
            (2**40, 11): [8, 15, 16, 22, 27, 29, 34, 35, 36, 44, 45],
        },
        (300, 900, 2, 17, "dfs"): {
            (0, 1): [255],
            (8, 5): [53, 70, 97, 213, 295],
            (3, 7): [26, 53, 54, 71, 238, 239, 260],
            (2**40, 11): [47, 93, 105, 111, 131, 183, 184, 206, 233, 267, 293],
        },
    }
    for (n, m, seed, root, strategy), draws in pinned.items():
        tree = gen_spanning_tree(gen_connected_graph(n, m, seed), root, seed, strategy)
        for (draw_seed, k), members in draws.items():
            assert sorted(gen_query_set(tree, k, draw_seed)) == members
