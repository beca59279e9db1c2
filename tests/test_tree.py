import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respecting_cuts.errors import QueryError, TreeStructureError
from respecting_cuts.generators import gen_connected_graph, gen_spanning_tree
from respecting_cuts.graph import build_graph, cut_edge_set
from respecting_cuts.oracle import xor_of_subtrees
from respecting_cuts.tree import build_rooted_tree


def test_path_tree_tables(f1):
    _, t = f1
    assert t.root == 0
    assert [t.depth_of(v) for v in range(3)] == [0, 1, 2]
    assert t.parent.tolist() == [-1, 0, 1]
    assert t.parent_edge.tolist() == [-1, 0, 1]
    assert t.root_path(2) == [0, 1, 2]
    assert t.root_path(0) == [0]
    # Discovery indices strictly increase along the path.
    assert t.euler_in.tolist() == [0, 1, 2]
    assert t.euler_out.tolist() == [2, 2, 2]


def test_tables_are_read_only_int32(f2):
    g, t = f2
    for name in (
        "parent", "parent_edge", "depth", "euler_in", "euler_out", "order",
        "edge_euler_in",
    ):
        table = getattr(t, name)
        assert table.dtype == np.int32, name
        assert not table.flags.writeable, name
    assert t.edge_euler_in.shape == (2, g.m)


def test_subtree_members(f1):
    _, t = f1
    assert t.subtree_members(0) == {0, 1, 2}
    assert t.subtree_members(1) == {1, 2}
    assert t.subtree_members(2) == {2}


def test_tree_queries_reject_coerced_vertices(f1):
    _, t = f1
    for query in (
        lambda: t.subtree_members(1.0),
        lambda: t.root_path(True),
        lambda: t.parent_edge_of("2"),
        lambda: t.decompose_cut_as_xor_basis({1.5}),
    ):
        with pytest.raises(QueryError, match="is not an integer"):
            query()
    assert t.subtree_members(np.int64(1)) == {1, 2}


def _independent(tree, u, v):
    return not (tree.is_descendant(u, v) or tree.is_descendant(v, u))


def test_descendant_and_independent(f1, f2):
    _, t1 = f1
    assert t1.is_descendant(2, 1)
    assert not t1.is_descendant(1, 2)
    assert t1.is_descendant(1, 1)
    assert not _independent(t1, 1, 2)
    assert not _independent(t1, 1, 1)
    _, t2 = f2
    assert _independent(t2, 1, 2)
    assert _independent(t2, 1, 3)


def test_children_sorted(f2):
    _, t = f2
    assert t.children[0] == [1, 2, 3]
    assert t.children[1] == []
    assert t.children is t.children  # built once, then kept


def test_parent_edge_of_root_rejected(f1):
    _, t = f1
    with pytest.raises(QueryError):
        t.parent_edge_of(0)
    assert t.parent_edge_of(2) == 1


def test_wrong_edge_count_rejected(f1):
    g, _ = f1
    with pytest.raises(TreeStructureError):
        build_rooted_tree(g, {0, 1, 2}, 0)
    with pytest.raises(TreeStructureError):
        build_rooted_tree(g, {0}, 0)


def test_nonspanning_edges_rejected():
    # Two parallel edges cover only two of three vertices.
    g = build_graph(3, [(0, 1, 1), (0, 1, 1), (1, 2, 1)])
    with pytest.raises(TreeStructureError) as exc:
        build_rooted_tree(g, {0, 1}, 0)
    assert "unreachable" in str(exc.value)


def test_bad_root_rejected(f1):
    g, _ = f1
    with pytest.raises(TreeStructureError):
        build_rooted_tree(g, {0, 1}, 3)
    # Roots and tree edge ids are checked, not converted.
    for tree_ids, root, shown in (
        ({0, 1}, 0.0, "root: vertex 0.0 "),
        ({0, 1}, True, "root: vertex True "),
        ({0, 1}, "0", "root: vertex '0' "),
        ([0.9, True], 0.5, "root: vertex 0.5 "),
        ([0.9, True], 0, "tree edge id 0.9 "),
        ([0, True], 0, "tree edge id True "),
        ([0, 1.0], 0, "tree edge id 1.0 "),
        (["0", 1], 0, "tree edge id '0' "),
    ):
        with pytest.raises(TreeStructureError, match=re.escape(shown)):
            build_rooted_tree(g, tree_ids, root)
    t = build_rooted_tree(g, np.array([1, 0]), np.int64(2))
    assert t.root == 2 and type(t.root) is int
    assert t.tree_edge_ids == {0, 1}
    assert all(type(e) is int for e in t.tree_edge_ids)


def test_decompose_examples(f1):
    _, t = f1
    assert t.decompose_cut_as_xor_basis({1}) == ({1, 2}, False)
    assert t.decompose_cut_as_xor_basis({0}) == ({1}, True)
    assert t.decompose_cut_as_xor_basis({1, 2}) == ({1}, False)


def test_decompose_rejects_improper_sets(f1):
    _, t = f1
    with pytest.raises(QueryError):
        t.decompose_cut_as_xor_basis(set())
    with pytest.raises(QueryError):
        t.decompose_cut_as_xor_basis({0, 1, 2})


def test_root_at_other_end():
    g = build_graph(3, [(0, 1, 1), (1, 2, 1)])
    t = build_rooted_tree(g, {0, 1}, 2)
    assert t.root_path(0) == [2, 1, 0]
    assert [t.depth_of(v) for v in range(3)] == [2, 1, 0]


def test_single_vertex_tree():
    g = build_graph(1, [])
    t = build_rooted_tree(g, set(), 0)
    assert t.subtree_members(0) == {0}
    assert t.root_path(0) == [0]


@st.composite
def tree_instance(draw):
    n = draw(st.integers(2, 12))
    m = draw(st.integers(n - 1, n + 6))
    seed = draw(st.integers(0, 2**32 - 1))
    strategy = draw(st.sampled_from(["bfs", "dfs", "uniform"]))
    root = draw(st.integers(0, n - 1))
    graph = gen_connected_graph(n, m, seed)
    tree = gen_spanning_tree(graph, root, seed + 1, strategy)
    return graph, tree


@given(tree_instance())
@settings(max_examples=60, deadline=None)
def test_euler_intervals_match_membership(inst):
    _, tree = inst
    n = tree.graph.n
    for v in range(n):
        members = tree.subtree_members(v)
        for u in range(n):
            assert tree.is_descendant(u, v) == (u in members)


@given(tree_instance())
@settings(max_examples=60, deadline=None)
def test_tree_table_invariants(inst):
    _, tree = inst
    n = tree.graph.n
    assert tree.depth_of(tree.root) == 0
    for v in range(n):
        path = tree.root_path(v)
        assert len(path) == tree.depth_of(v) + 1
        assert path[0] == tree.root
        assert path[-1] == v
        for child in tree.children[v]:
            assert tree.depth_of(child) == tree.depth_of(v) + 1
        assert tree.children[v] == sorted(tree.children[v])
    # Subtree sizes add up across the parent relation.
    sizes = {v: len(tree.subtree_members(v)) for v in range(n)}
    for v in range(n):
        assert sizes[v] == 1 + sum(sizes[c] for c in tree.children[v])


@given(tree_instance(), st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_decompose_round_trip(inst, salt):
    graph, tree = inst
    n = graph.n
    bits = 1 + salt % ((1 << n) - 2) if n > 1 else 0
    members = {v for v in range(n) if bits >> v & 1}
    if not 0 < len(members) < n:
        return
    basis, complemented = tree.decompose_cut_as_xor_basis(members)
    back = xor_of_subtrees(tree, basis)
    expected = set(range(n)) - members if complemented else members
    assert back == expected
    assert complemented == (tree.root in members)
    crossing = cut_edge_set(graph, members) & tree.tree_edge_ids
    assert crossing == {tree.parent_edge_of(v) for v in basis}


def _tree_digest(tree):
    tables = [sorted(tree.tree_edge_ids)]
    for name in ("parent", "parent_edge", "depth", "euler_in", "euler_out", "order"):
        tables.append(getattr(tree, name).tolist())
    tables.append(tree.children)
    return hashlib.sha256(json.dumps(tables).encode()).hexdigest()[:16]


# Digests of every tree table, recorded before the tree and the traversals
# moved onto the shared CSR incidence and preorder.
PINNED_TREES = {
    "g30-bfs": "a481bbc6fe1d4b91",
    "g30-dfs": "5f5143139274e38f",
    "g30-uniform": "f0a4c90f96e867d7",
    "g200-bfs": "e5a978349ed1ce55",
    "g200-dfs": "8ca0dbd58920dfb2",
    "g200-uniform": "079d4ad13bbe651d",
    "g1000-bfs": "6fa1045e525deefa",
    "g1000-dfs": "9c1490f554f43fdb",
    "g1000-uniform": "377446774ad26ede",
    "multi-bfs": "8924f4e85bd763e9",
    "multi-dfs": "0fad0ab7563ccd99",
    "multi-uniform": "3b54236357a9a0c9",
}


def test_trees_are_pinned(multigraph):
    graphs = {
        "g30": gen_connected_graph(30, 80, seed=1),
        "g200": gen_connected_graph(200, 600, seed=2),
        "g1000": gen_connected_graph(1000, 3000, seed=3),
        "multi": multigraph,
    }
    digests = {
        f"{name}-{strategy}": _tree_digest(gen_spanning_tree(g, 7, 11, strategy))
        for name, g in graphs.items()
        for strategy in ("bfs", "dfs", "uniform")
    }
    assert digests == PINNED_TREES


def test_deep_dfs_tree():
    # Depth close to n: the shared preorder must not recurse.
    n = 20_000
    tree = gen_spanning_tree(gen_connected_graph(n, 5 * n, seed=0), 0, 0, "dfs")
    assert tree.depth.max() > n // 2
    assert tree.euler_in[tree.order].tolist() == list(range(n))
    size = tree.euler_out - tree.euler_in + 1
    assert size[tree.root] == n
    kids = np.zeros(n, dtype=np.int64)
    np.add.at(kids, tree.parent[tree.order[1:]], size[tree.order[1:]])
    assert np.array_equal(size, kids + 1)
