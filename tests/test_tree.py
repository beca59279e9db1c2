import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respecting_cuts.errors import QueryError, TreeStructureError
from respecting_cuts.gamma import (
    all_subtree_cut_sizes,
    k_respecting_cut_size,
    pairwise_gamma,
)
from respecting_cuts import tree as tree_mod
from respecting_cuts.generators import (
    STRATEGIES,
    gen_connected_graph,
    gen_spanning_tree,
)
from respecting_cuts.graph import _preorder, build_graph, cut_edge_set, cut_size_direct
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
    # A repeated id is refused, not folded into a smaller set.
    for tree_ids in ([0, 0, 1], [1, 0, 1], [2, np.int64(2)]):
        with pytest.raises(TreeStructureError, match="edge id [012] is repeated"):
            build_rooted_tree(g, tree_ids, 0)


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
    # Whatever the ids came as, the tree keeps one sorted read-only array.
    for tree_ids in (
        {1, 0},
        [1, 0],
        (e for e in (1, 0)),
        np.array([1, 0], dtype=np.uint8),
        np.array([1, 0], dtype=np.int64),
    ):
        t = build_rooted_tree(g, tree_ids, 0)
        assert t.tree_edge_ids.tolist() == [0, 1]
        assert not t.tree_edge_ids.flags.writeable
        assert t.tree_edge_ids.dtype == t.parent_edge.dtype


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
    crossing = cut_edge_set(graph, members) & set(tree.tree_edge_ids.tolist())
    assert crossing == {tree.parent_edge_of(v) for v in basis}


def _tree_digest(tree):
    tables = [tree.tree_edge_ids.tolist()]
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


def test_deep_dfs_tree(deep_dfs_tree):
    # Depth close to n: the shared preorder must not recurse.
    tree = deep_dfs_tree
    n = tree.n
    assert tree.depth.max() > n // 2
    assert tree.euler_in[tree.order].tolist() == list(range(n))
    size = tree.euler_out - tree.euler_in + 1
    assert size[tree.root] == n
    kids = np.zeros(n, dtype=np.int64)
    np.add.at(kids, tree.parent[tree.order[1:]], size[tree.order[1:]])
    assert np.array_equal(size, kids + 1)


def test_tree_keeps_no_list_tables(multigraph):
    # Every table lives once, as numpy; child lists are the one exception,
    # and only once they are asked for.
    tree = gen_spanning_tree(multigraph, 7, 11, "dfs")
    all_subtree_cut_sizes(multigraph, tree)
    pairwise_gamma(multigraph, tree, 1, 2)
    k_respecting_cut_size(multigraph, tree, [1, 2, 3, 4, 5])
    tree.decompose_cut_as_xor_basis({1, 2, 3})

    def lists():
        return [name for name, value in vars(tree).items() if isinstance(value, list)]

    assert lists() == []
    tree.children
    assert lists() == ["_children"]


@pytest.mark.parametrize(
    "n, edges, tree_ids, root, message",
    [
        # n - 1 edges holding a cycle through the root.
        (5, [(0, 2), (2, 4), (4, 0), (1, 3)], [0, 1, 2, 3], 0,
         "tree edges do not span the graph: vertex 1 is unreachable from root 0"),
        # Three parallel edges at the root: every edge is reached, two
        # vertices are not.
        (4, [(0, 1), (1, 0), (0, 1), (2, 3)], [0, 1, 2], 0,
         "tree edges do not span the graph: vertex 2 is unreachable from root 0"),
        (4, [(0, 1), (1, 0), (0, 1), (2, 3)], [0, 1, 2], 1,
         "tree edges do not span the graph: vertex 2 is unreachable from root 1"),
        # A cycle away from the root.
        (5, [(2, 3), (3, 4), (4, 2), (0, 1)], [0, 1, 2, 3], 0,
         "tree edges do not span the graph: vertex 2 is unreachable from root 0"),
        (5, [(0, 1), (1, 2), (2, 0), (3, 4)], [0, 1, 2, 3], 3,
         "tree edges do not span the graph: vertex 0 is unreachable from root 3"),
        # A root, or another vertex, without tree edges.
        (4, [(0, 1), (1, 2), (2, 0), (0, 1)], [0, 1, 2], 3,
         "tree edges do not span the graph: vertex 0 is unreachable from root 3"),
        (4, [(0, 1), (1, 2), (2, 0), (0, 1)], [0, 1, 2], 2,
         "tree edges do not span the graph: vertex 3 is unreachable from root 2"),
        # One and two vertices.
        (1, [], [0], 0, "a spanning tree of 1 vertices needs 0 distinct edges, got 1"),
        (2, [(0, 1), (1, 0)], [], 0,
         "a spanning tree of 2 vertices needs 1 distinct edges, got 0"),
        (2, [(0, 1), (1, 0)], [0, 1], 1,
         "a spanning tree of 2 vertices needs 1 distinct edges, got 2"),
        (2, [(0, 1), (1, 0)], [2], 1, "tree edge id 2 out of range for 2 edges"),
        (2, [(0, 1), (1, 0)], [-1], 1, "tree edge id -1 out of range for 2 edges"),
        # The smallest offending id is named, whatever the input order.
        (4, [(0, 1), (1, 2), (2, 3)], [2**70, 0, 1], 0,
         "tree edge id 1180591620717411303424 out of range for 3 edges"),
        (4, [(0, 1), (1, 2), (2, 3)], [9, -5, 1], 0,
         "tree edge id -5 out of range for 3 edges"),
        (4, [(0, 1), (1, 2), (2, 3)], [2, 1, 2, 1], 0, "tree edge id 1 is repeated"),
    ],
)
def test_nonspanning_messages_are_pinned(n, edges, tree_ids, root, message):
    graph = build_graph(n, edges)
    with pytest.raises(TreeStructureError, match=f"^{re.escape(message)}$"):
        build_rooted_tree(graph, tree_ids, root)


def test_deep_nonspanning_names_an_unreached_vertex(deep_dfs_tree):
    # Cut the deep tree's longest path at a quarter of its depth and
    # spend the freed edge on a cycle among the vertices still reached.
    graph, root = deep_dfs_tree.graph, deep_dfs_tree.root
    depth = deep_dfs_tree.depth
    tin, tout = deep_dfs_tree.euler_in, deep_dfs_tree.euler_out
    assert int(depth.max()) > graph.n // 2
    path = deep_dfs_tree.root_path(int(np.argmax(depth)))
    x = path[len(path) // 4]
    cut_off = (tin[x] <= tin) & (tin <= tout[x])
    ids = deep_dfs_tree.tree_edge_ids.tolist()
    ids.remove(int(deep_dfs_tree.parent_edge[x]))
    u, v = graph.edge_u.tolist(), graph.edge_v.tolist()
    used = set(ids)
    extra = next(
        e for e in range(graph.m)
        if e not in used and not cut_off[u[e]] and not cut_off[v[e]]
    )
    ids.append(extra)
    nbrs = [[] for _ in range(graph.n)]
    for e in ids:
        nbrs[u[e]].append(v[e])
        nbrs[v[e]].append(u[e])
    seen = {root}
    queue = [root]
    for a in queue:
        for b in nbrs[a]:
            if b not in seen:
                seen.add(b)
                queue.append(b)
    missing = min(set(range(graph.n)) - seen)
    assert cut_off[missing]
    message = (
        f"tree edges do not span the graph: vertex {missing} "
        f"is unreachable from root {root}"
    )
    with pytest.raises(TreeStructureError, match=f"^{re.escape(message)}$"):
        build_rooted_tree(graph, ids, root)


def _lexsorted_csr(n, u, v, ids):
    src = np.concatenate((u, v))
    dst = np.concatenate((v, u))
    eid = np.concatenate((ids, ids))
    by = np.lexsort((eid, dst, src))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return offsets, dst[by], eid[by]


def _reference_tables(graph, tree_ids, root):
    """Every tree table from a lexsorted CSR of the tree edges, the
    depth-first _preorder over it and one loop each for depth and size."""
    n = graph.n
    ids = np.array(sorted(tree_ids), dtype=np.int64)
    csr = _lexsorted_csr(n, graph.edge_u[ids], graph.edge_v[ids], ids)
    parent, parent_edge, order = _preorder(csr, root)
    depth = [0] * n
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    tin = [0] * n
    for i, v in enumerate(order):
        tin[v] = i
    return {
        "parent": parent,
        "parent_edge": parent_edge,
        "depth": depth,
        "euler_in": tin,
        "euler_out": [tin[v] + size[v] - 1 for v in range(n)],
        "order": order,
    }


def _star_and_path():
    rng = np.random.default_rng(9)
    star = [(0, leaf) for leaf in range(1, 40)] + [(3, 0), (5, 9), (9, 5)]
    path = [(i, i + 1) for i in range(59)] + [(12, 11), (0, 59), (30, 34)]
    graphs = []
    for n, edges in ((40, star), (60, path)):
        edges = [edges[i] for i in rng.permutation(len(edges))]
        graphs.append(build_graph(n, edges))
    return graphs


def test_tables_match_reference(multigraph, deep_dfs_tree):
    star, path = _star_and_path()
    cases = [
        (build_graph(1, []), [], 0),
        (build_graph(2, [(1, 0), (0, 1)]), [1], 0),
        (build_graph(2, [(1, 0), (0, 1)]), [0], 1),
        (deep_dfs_tree.graph, deep_dfs_tree.tree_edge_ids, deep_dfs_tree.root),
    ]
    for graph in (multigraph, star, path, gen_connected_graph(300, 700, seed=12)):
        for strategy in STRATEGIES:
            for root in (0, graph.n // 2, graph.n - 1):
                tree = gen_spanning_tree(graph, root, root + 1, strategy)
                cases.append((graph, tree.tree_edge_ids, root))
    for graph, tree_ids, root in cases:
        tree = build_rooted_tree(graph, tree_ids, root)
        for name, expected in _reference_tables(graph, tree_ids, root).items():
            assert getattr(tree, name).tolist() == expected, (graph.n, root, name)
        offsets, nbrs, eids = graph.adjacency
        expected = _lexsorted_csr(
            graph.n, graph.edge_u, graph.edge_v, np.arange(graph.m)
        )
        assert offsets.tolist() == expected[0].tolist()
        assert nbrs.tolist() == expected[1].tolist()
        assert eids.tolist() == expected[2].tolist()
        assert nbrs.dtype == eids.dtype == np.int32


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_subtree_cut_crosses_lca_chunks(monkeypatch, multigraph, chunk):
    # Chunks far smaller than the edge count, so every edge past the
    # first chunk must still reach the counters.
    monkeypatch.setattr(tree_mod, "_LCA_CHUNK", chunk)
    graphs = (multigraph, gen_connected_graph(40, 120, seed=8))
    for graph in graphs:
        for strategy in STRATEGIES:
            tree = gen_spanning_tree(graph, 5, 6, strategy)
            assert tree.subtree_cut.tolist() == [
                cut_size_direct(graph, tree.subtree_members(v)) for v in range(graph.n)
            ]
