import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respecting_cuts import cli, selfcheck
from respecting_cuts.errors import (
    EdgeWeightError,
    EndpointRangeError,
    GraphInputError,
    QueryError,
    SelfLoopError,
)
from respecting_cuts.gamma import all_subtree_cut_sizes, cut_size_via_tree
from respecting_cuts.generators import gen_connected_graph, gen_spanning_tree
from respecting_cuts.graph import (
    MAX_TOTAL_WEIGHT,
    Graph,
    _index_dtype,
    _one_pass,
    build_graph,
    cut_edge_set,
    cut_size_direct,
)
from respecting_cuts.oracle import oracle_k_wise_gamma, xor_of_subtrees


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
        # Neither (u, v) nor (u, v, weight); no field is dropped.
        ([(0, 1), (0,)], GraphInputError, 1),
        ([5], GraphInputError, 0),
        ([(0, 1), (1, 2), (0, 1, 1, 7)], GraphInputError, 2),
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
    assert Graph.from_arrays(1, [], [], []).m == 0


@pytest.mark.parametrize(
    "u,v,w,field",
    [
        ([[0, 1]], [[1, 2]], [[1, 1]], "edge_u"),
        (0, 1, 1, "edge_u"),
        ([0, 1], 2, [1], "edge_v"),
        (np.array([[0], [1]]), [1, 2], [[1, 1]], "edge_u"),
        ([0, 1], np.array([[1], [2]]), [1, 1], "edge_v"),
        ([[0], [1, 2]], [1, 2], [1, 1], "edge_u"),
        ([0, 1], [1, [2]], [1, 1], "edge_v"),
        ([0, 1], [1, 2], [[1, 1]], "edge_weight"),
        ([0, 1], [1, 2], np.ones((2, 1), dtype=np.int64), "edge_weight"),
    ],
)
def test_from_arrays_rejects_fields_that_are_not_one_dimensional(u, v, w, field):
    with pytest.raises(GraphInputError, match=f"^{field} must be one-dimensional"):
        Graph.from_arrays(3, u, v, w)


def test_from_arrays_length_mismatch_is_a_graph_input_error():
    with pytest.raises(GraphInputError, match="differ in length"):
        Graph.from_arrays(3, [0, 1], [1, 2], [1])


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


def test_index_dtype_boundary():
    # No instance reaches 2**31 vertices or edges, so the rule is tested
    # as a function of the vertex count n and the edge count m.
    top = 2**31 - 1
    assert _index_dtype(top, top) is np.int32
    assert _index_dtype(top + 1, 1) is np.int64
    assert _index_dtype(1, top + 1) is np.int64
    assert _index_dtype(1, 0) is np.int32


def test_one_pass_boundary():
    # The largest key, (n * n << shift) - 1, fits in 64 bits exactly when
    # n * n << shift <= 2**64; the rule is tested as a function of n and
    # the arc id width shift.
    assert _one_pass(2**16, 32)
    assert not _one_pass(2**16 + 1, 32)
    assert not _one_pass(2**16, 33)
    assert _one_pass(2**32, 0)
    assert not _one_pass(2**32 + 1, 0)
    # n=1e6 with m=5e6 (1e7 arcs, 24-bit ids) still sorts in one pass.
    assert _one_pass(10**6, (10**7 - 1).bit_length())


# Bytes per arc the CSR build may hold at its peak (tracemalloc, n=2e4,
# m=1e5, numpy 2.4).  The in-place packed sort peaks at 17.1: int32
# endpoints, uint64 keys and one half-length digit, then the int64 order
# beside two int32 gathers.  Sorting into a copy of the keys read 20.8,
# and the argsort with its tie repair 32.8.
CSR_PEAK_BYTES_PER_ARC = 20


def test_adjacency_peak_memory():
    graph = gen_connected_graph(20_000, 100_000, seed=0)
    tracemalloc.start()
    try:
        graph.adjacency
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= CSR_PEAK_BYTES_PER_ARC * 2 * graph.m


def test_graph_keeps_no_list_tables(multigraph):
    # The edge arrays are the graph's one copy of its edges; each reader
    # that walks edges one by one takes its own lists per call.
    graph = multigraph
    tree = gen_spanning_tree(graph, 7, 11, "dfs")
    cut_edge_set(graph, {1, 2, 3})
    cut_size_direct(graph, {1, 2, 3})
    oracle_k_wise_gamma(graph, tree, [1, 2])
    xor_of_subtrees(tree, [1, 2])
    list(graph.iter_edges())
    selfcheck._fail(selfcheck.SweepReport(), graph, tree)
    cli._tree_ids_from_pairs(graph, f"{graph.edge_u[0]},{graph.edge_v[0]}")
    held = [
        part
        for value in vars(graph).values()
        for part in (value if isinstance(value, tuple) else (value,))
    ]
    assert not [part for part in held if isinstance(part, list)]
