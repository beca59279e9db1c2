import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respecting_cuts.errors import (
    EdgeWeightError,
    EndpointRangeError,
    GraphInputError,
    QueryError,
    SelfLoopError,
)
from respecting_cuts.gamma import all_subtree_cut_sizes, cut_size_via_tree
from respecting_cuts.generators import gen_spanning_tree
from respecting_cuts.graph import (
    MAX_TOTAL_WEIGHT,
    Graph,
    build_graph,
    cut_edge_set,
    cut_size_direct,
)


def test_basic_construction():
    g = build_graph(3, [(0, 1, 1), (1, 2, 4), (0, 2, 1)])
    assert g.n == 3
    assert g.m == 3
    assert (g.edge_u[1], g.edge_v[1], g.edge_weight[1]) == (1, 2, 4)
    assert list(g.iter_edges()) == [(0, 1, 1), (1, 2, 4), (0, 2, 1)]


def test_parallel_edges_allowed():
    g = build_graph(2, [(0, 1, 1), (0, 1, 1), (1, 0, 2)])
    assert g.m == 3
    assert cut_size_direct(g, {0}) == 4


def test_single_vertex_graph():
    g = build_graph(1, [])
    assert g.n == 1
    assert g.m == 0


def test_rejects_out_of_range_endpoint():
    with pytest.raises(EndpointRangeError) as exc:
        build_graph(3, [(0, 1, 1), (1, 3, 1)])
    assert exc.value.edge_index == 1


def test_rejects_self_loop():
    with pytest.raises(SelfLoopError) as exc:
        build_graph(3, [(0, 1, 1), (2, 2, 1)])
    assert exc.value.edge_index == 1


def test_rejects_zero_weight():
    with pytest.raises(EdgeWeightError) as exc:
        build_graph(3, [(0, 1, 0)])
    assert exc.value.edge_index == 0


@pytest.mark.parametrize(
    "edges, error, index",
    [
        ([(0, 1, 1.7)], EdgeWeightError, 0),
        ([(0, 1, 2.0)], EdgeWeightError, 0),
        ([(0.9, 1)], EndpointRangeError, 0),
        ([(0, 1), (1, 2.0)], EndpointRangeError, 1),
        ([(0, 1, True)], EdgeWeightError, 0),
        ([(0, 1, 2), (1, 2, True)], EdgeWeightError, 1),
        ([(0, 1), (True, 2)], EndpointRangeError, 1),
        ([("0", 1)], EndpointRangeError, 0),
        ([(0, 1, 2**70)], EdgeWeightError, 0),
    ],
)
def test_rejects_coerced_fields(edges, error, index):
    with pytest.raises(error) as exc:
        build_graph(3, edges)
    assert exc.value.edge_index == index


def test_from_arrays_rejects_coerced_arrays():
    with pytest.raises(EndpointRangeError):
        Graph.from_arrays(3, np.array([0.0, 1.0]), [1, 2], [1, 1])
    with pytest.raises(EdgeWeightError):
        Graph.from_arrays(3, [0, 1], [1, 2], np.array([True, True]))
    empty = np.asarray([])
    g = Graph.from_arrays(1, empty, empty, empty)
    assert (g.n, g.m) == (1, 0)


def test_total_weight_bound():
    half = MAX_TOTAL_WEIGHT // 2
    with pytest.raises(EdgeWeightError):
        build_graph(3, [(0, 1, 2**62), (1, 2, 2**62), (0, 2, 2**62)])
    with pytest.raises(EdgeWeightError):
        build_graph(3, [(0, 1, half), (1, 2, half - 1), (0, 2, 1)])
    # 3 * (2**62 - 1) wraps past 2**63 in a plain int64 sum.
    with pytest.raises(EdgeWeightError):
        build_graph(3, [(0, 1, 2**62 - 1), (1, 2, 2**62 - 1), (0, 2, 2**62 - 1)])
    g = build_graph(3, [(0, 1, half), (1, 2, half - 2), (0, 2, 1)])
    for strategy in ("bfs", "dfs"):
        t = gen_spanning_tree(g, 0, 0, strategy)
        sizes = all_subtree_cut_sizes(g, t)
        for v, size in sizes.items():
            assert size == cut_size_direct(g, t.subtree_members(v))
        for inside in ({0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}):
            size, _ = cut_size_via_tree(g, t, inside)
            assert size == cut_size_direct(g, inside)


def test_rejects_empty_vertex_count():
    with pytest.raises(ValueError):
        build_graph(0, [])


@pytest.mark.parametrize("n", [2.7, 3.0, np.float64(3), True, np.True_, "3", None])
def test_rejects_coerced_vertex_count(n):
    with pytest.raises(GraphInputError, match="vertex count"):
        build_graph(n, [(0, 1)])


def test_accepts_numpy_vertex_count():
    for n in (np.int32(3), np.int64(3), np.uint16(3)):
        g = build_graph(n, [(0, 1), (1, 2)])
        assert g.n == 3 and type(g.n) is int


def test_cut_edge_set_triangle(f1):
    g, _ = f1
    assert cut_edge_set(g, {1, 2}) == {0, 2}
    assert cut_edge_set(g, {0}) == {0, 2}
    assert cut_edge_set(g, set()) == set()
    assert cut_edge_set(g, {0, 1, 2}) == set()


def test_cut_size_examples(f1):
    g, _ = f1
    assert cut_size_direct(g, {1}) == 2
    assert cut_size_direct(g, {1, 2}) == 2


def test_cut_rejects_bad_vertex(f1):
    g, _ = f1
    with pytest.raises(QueryError):
        cut_edge_set(g, {0, 5})
    for bad in (1.5, 1.0, True, "1", None):
        with pytest.raises(QueryError, match="is not an integer"):
            cut_size_direct(g, [0, bad])
    assert cut_size_direct(g, np.array([1, 2])) == cut_size_direct(g, {1, 2})


def test_arrays_are_frozen(f1):
    g, _ = f1
    with pytest.raises(ValueError):
        g.edge_u[0] = 5


def test_from_arrays_matches_build_graph():
    a = build_graph(4, [(0, 1, 2), (2, 3, 1)])
    b = Graph.from_arrays(4, [0, 2], [1, 3], [2, 1])
    assert list(a.iter_edges()) == list(b.iter_edges())


@st.composite
def small_graph(draw):
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, 12))
    edges = []
    for _ in range(m):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u == v:
            v = (v + 1) % n
        w = draw(st.integers(1, 9))
        edges.append((u, v, w))
    return n, edges


@given(small_graph(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_cut_size_invariant_under_edge_order(params, rnd):
    n, edges = params
    g = build_graph(n, edges)
    shuffled = list(edges)
    rnd.shuffle(shuffled)
    h = build_graph(n, shuffled)
    for bits in range(1 << n):
        members = {v for v in range(n) if bits >> v & 1}
        assert cut_size_direct(g, members) == cut_size_direct(h, members)


@given(small_graph())
@settings(max_examples=80, deadline=None)
def test_cut_of_complement_is_same(params):
    n, edges = params
    g = build_graph(n, edges)
    for bits in range(1 << n):
        members = {v for v in range(n) if bits >> v & 1}
        other = set(range(n)) - members
        assert cut_edge_set(g, members) == cut_edge_set(g, other)


def test_cut_matches_handcount_exhaustive():
    # Complete graph on 4 vertices: a cut of a j-subset has j*(4-j) edges.
    edges = [(u, v, 1) for u, v in itertools.combinations(range(4), 2)]
    g = build_graph(4, edges)
    for bits in range(1 << 4):
        members = {v for v in range(4) if bits >> v & 1}
        j = len(members)
        assert cut_size_direct(g, members) == j * (4 - j)


def test_adjacency_sorted():
    g = build_graph(3, [(2, 0, 1), (0, 1, 1), (1, 0, 1)])
    offsets, nbrs, eids = g.adjacency
    assert not any(a.flags.writeable for a in g.adjacency)
    assert offsets.tolist() == [0, 3, 5, 6]
    at_0 = slice(offsets[0], offsets[1])
    assert list(zip(nbrs[at_0].tolist(), eids[at_0].tolist())) == [
        (1, 1),
        (1, 2),
        (2, 0),
    ]
