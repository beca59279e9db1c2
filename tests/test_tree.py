import hashlib
import itertools
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
from respecting_cuts import generators
from respecting_cuts import graph as graph_mod
from respecting_cuts import tree as tree_mod
from respecting_cuts.generators import (
    STRATEGIES,
    gen_connected_graph,
    gen_spanning_tree,
)
from respecting_cuts.graph import _preorder, build_graph, cut_edge_set, cut_size_direct
from respecting_cuts.oracle import xor_of_subtrees
from respecting_cuts.tree import build_rooted_tree


def _descends(tree, u, v):
    """Whether u lies in the subtree of v (u == v counts), by the Euler
    interval test."""
    tin = tree.euler_in
    return bool(tin[v] <= tin[u] <= tree.euler_out[v])


def _root_path(tree, v):
    """The vertices from the root down to v: those whose Euler intervals
    hold v, in preorder."""
    at = tree.euler_in[v]
    above = tree.order[: at + 1]
    return above[tree.euler_out[above] >= at].tolist()


def _child_lists(tree):
    """The child table as one ascending list per vertex."""
    offsets, kids = tree._child_table
    return [kids[a:b].tolist() for a, b in itertools.pairwise(offsets.tolist())]


def test_path_tree_tables(f1):
    _, t = f1
    assert t.root == 0
    assert t.depth.tolist() == [0, 1, 2]
    assert t.parent.tolist() == [-1, 0, 1]
    assert t.parent_edge.tolist() == [-1, 0, 1]
    assert _root_path(t, 2) == [0, 1, 2]
    assert _root_path(t, 0) == [0]
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
    for table in t._child_table:
        assert table.dtype == np.int32
        assert not table.flags.writeable


def test_subtree_members(f1):
    _, t = f1
    assert t.subtree_members(0) == {0, 1, 2}
    assert t.subtree_members(1) == {1, 2}
    assert t.subtree_members(2) == {2}


def test_tree_queries_reject_coerced_vertices(f1):
    _, t = f1
    for query in (
        lambda: t.subtree_members(1.0),
        lambda: t.parent_edge_of("2"),
        lambda: t.decompose_cut_as_xor_basis({1.5}),
    ):
        with pytest.raises(QueryError, match="is not an integer"):
            query()
    assert t.subtree_members(np.int64(1)) == {1, 2}


def _independent(tree, u, v):
    return not (_descends(tree, u, v) or _descends(tree, v, u))


def test_descendant_and_independent(f1, f2):
    _, t1 = f1
    assert _descends(t1, 2, 1)
    assert not _descends(t1, 1, 2)
    assert _descends(t1, 1, 1)
    assert not _independent(t1, 1, 2)
    assert not _independent(t1, 1, 1)
    _, t2 = f2
    assert _independent(t2, 1, 2)
    assert _independent(t2, 1, 3)


def test_children_sorted(f2):
    _, t = f2
    offsets, kids = t._child_table
    assert offsets.tolist() == [0, 3, 3, 3, 3]
    assert kids.tolist() == [1, 2, 3]


def test_child_table_comes_with_the_tree(f2):
    g, t = f2
    # The Euler tour fills the child table; the edge indices and the
    # subtree cuts wait for first use.
    offsets, kids = t._child_table
    assert t._edge_euler_in is None and t._subtree_cut is None
    # Their own arrays, not views of the parent tables.
    for table in (t.parent, t.parent_edge):
        assert not np.shares_memory(offsets, table)
        assert not np.shares_memory(kids, table)
    all_subtree_cut_sizes(g, t)
    assert t._edge_euler_in is None  # the delta pass builds no edge table


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
    assert _root_path(t, 0) == [2, 1, 0]
    assert t.depth.tolist() == [2, 1, 0]
    assert _child_lists(t) == [[], [0], [1]]


def test_single_vertex_tree():
    g = build_graph(1, [])
    t = build_rooted_tree(g, set(), 0)
    assert t.subtree_members(0) == {0}
    assert _root_path(t, 0) == [0]
    assert _child_lists(t) == [[]]


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
            assert _descends(tree, u, v) == (u in members)


@given(tree_instance())
@settings(max_examples=60, deadline=None)
def test_tree_table_invariants(inst):
    _, tree = inst
    n = tree.graph.n
    depth, parent = tree.depth.tolist(), tree.parent.tolist()
    children = _child_lists(tree)
    assert depth[tree.root] == 0
    for v in range(n):
        path = _root_path(tree, v)
        assert len(path) == depth[v] + 1
        assert path[0] == tree.root
        assert path[-1] == v
        assert [parent[c] for c in path[1:]] == path[:-1]
        for child in children[v]:
            assert depth[child] == depth[v] + 1
            assert parent[child] == v
        assert children[v] == sorted(children[v])
    # Subtree sizes add up across the parent relation.
    sizes = {v: len(tree.subtree_members(v)) for v in range(n)}
    for v in range(n):
        assert sizes[v] == 1 + sum(sizes[c] for c in children[v])


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


def _mask_decompose(tree, members):
    """The basis by the n-long mask formula: every non-root vertex whose
    membership differs from its parent's."""
    mask = np.zeros(tree.n, dtype=bool)
    mask[list(members)] = True
    crossing = mask != mask[tree.parent]
    crossing[tree.root] = False
    return set(np.flatnonzero(crossing).tolist()), tree.root in members


def _hub_trees():
    """Trees on 45 vertices where vertex 1 has 39 children: 1 hangs
    below 0 with the leaves 2..40, and 0 starts the path 41..44.  Rooted
    at 0, at the last vertex and at the leaf 17, where 0 is a child of 1."""
    edges = [(0, 1)] + [(1, leaf) for leaf in range(2, 41)]
    edges += [(0, 41), (41, 42), (42, 43), (43, 44)]
    graph = build_graph(45, edges + [(2, 3), (40, 44), (5, 42)])
    return [build_rooted_tree(graph, range(44), root) for root in (0, 44, 17)]


def test_decompose_matches_the_mask_formula(deep_dfs_tree):
    rng = np.random.default_rng(23)
    trees = _hub_trees()
    assert all(len(_child_lists(tree)[1]) == 39 for tree in trees)
    graph = gen_connected_graph(300, 700, seed=12)
    trees += [gen_spanning_tree(graph, 299, 5, strategy) for strategy in STRATEGIES]
    trees.append(deep_dfs_tree)
    for tree in trees:
        n, root = tree.n, tree.root
        everything = set(range(n))
        sets = [
            {1},  # a member with 39 children on the hub trees
            {1, 7, 30},
            {root},
            {root, 1},
            {root, n - 1},  # the root's parent -1 reads mask[n - 1]
            {root, n - 2},
            {n - 1},
            everything - {root},
            everything - {n - 1},
            everything - {1},
        ]
        for size in (1, 2, 3, 14, n // 2, n - 2, n - 1):
            for _ in range(4):
                sets.append(set(rng.choice(n, size=size, replace=False).tolist()))
        sets += [set(_root_path(tree, v)) for v in (n - 1, int(np.argmax(tree.depth)))]
        for members in sets:
            if not 0 < len(members) < n:
                continue
            basis, complemented = tree.decompose_cut_as_xor_basis(members)
            assert (basis, complemented) == _mask_decompose(tree, members), (
                n, root, sorted(members)
            )
            assert all(type(v) is int for v in basis)


def _tree_digest(tree):
    tables = [tree.tree_edge_ids.tolist()]
    for name in ("parent", "parent_edge", "depth", "euler_in", "euler_out", "order"):
        tables.append(getattr(tree, name).tolist())
    tables.append(_child_lists(tree))
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


def _pinned_digests(multigraph, strategies):
    graphs = {
        "g30": gen_connected_graph(30, 80, seed=1),
        "g200": gen_connected_graph(200, 600, seed=2),
        "g1000": gen_connected_graph(1000, 3000, seed=3),
        "multi": multigraph,
    }
    return {
        f"{name}-{strategy}": _tree_digest(gen_spanning_tree(g, 7, 11, strategy))
        for name, g in graphs.items()
        for strategy in strategies
    }


def test_trees_are_pinned(multigraph):
    assert _pinned_digests(multigraph, ("bfs", "dfs", "uniform")) == PINNED_TREES


# 0 sends every BFS level through the vectorised step; 6001 exceeds the
# 2m arcs of the largest pinned graph, so every level takes the scalar step.
@pytest.mark.parametrize("thin_level", [0, 6001])
def test_both_bfs_steps_give_the_pinned_trees(monkeypatch, multigraph, thin_level):
    monkeypatch.setattr(generators, "_THIN_LEVEL", thin_level)
    digests = _pinned_digests(multigraph, ("bfs", "uniform"))
    assert digests == {key: PINNED_TREES[key] for key in digests}


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
    # Every table lives once, as numpy, whatever queries fill.
    tree = gen_spanning_tree(multigraph, 7, 11, "dfs")

    def lists():
        return [name for name, value in vars(tree).items() if isinstance(value, list)]

    for query in (
        lambda: all_subtree_cut_sizes(multigraph, tree),
        lambda: pairwise_gamma(multigraph, tree, 1, 2),
        lambda: k_respecting_cut_size(multigraph, tree, [1, 2, 3, 4, 5]),
        lambda: tree.decompose_cut_as_xor_basis({1, 2, 3}),
    ):
        query()
        assert lists() == []


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


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint64])
def test_edge_id_arrays_are_checked_as_lists_are(dtype):
    graph = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    high = -5 if np.dtype(dtype).kind == "i" else 2**63 + 5
    for ids, message in (
        (np.array([1, 0, 2], dtype=dtype).astype(bool),
         "tree edge id np.True_ is not an integer"),
        (np.array([3, 1, 3, 1], dtype=dtype), "tree edge id 1 is repeated"),
        (np.array([9, 9], dtype=dtype), "tree edge id 9 is repeated"),
        (np.array([0, 9], dtype=dtype),
         "a spanning tree of 4 vertices needs 3 distinct edges, got 2"),
        (np.array([0, 1, 2, 3], dtype=dtype),
         "a spanning tree of 4 vertices needs 3 distinct edges, got 4"),
        (np.array([9, high, 1], dtype=dtype),
         f"tree edge id {min(9, high)} out of range for 4 edges"),
    ):
        for given_ids in (ids, list(ids)):
            with pytest.raises(TreeStructureError, match=f"^{re.escape(message)}$"):
                build_rooted_tree(graph, given_ids, 0)
    ids = np.array([2, 0, 1], dtype=dtype)
    tree = build_rooted_tree(graph, ids, 3)
    assert ids.tolist() == [2, 0, 1]
    assert tree.tree_edge_ids.tolist() == [0, 1, 2]
    assert _tree_digest(tree) == _tree_digest(build_rooted_tree(graph, [2, 0, 1], 3))


def test_deep_nonspanning_names_an_unreached_vertex(deep_dfs_tree):
    # Cut the deep tree's longest path at a quarter of its depth and
    # spend the freed edge on a cycle among the vertices still reached.
    graph, root = deep_dfs_tree.graph, deep_dfs_tree.root
    depth = deep_dfs_tree.depth
    tin, tout = deep_dfs_tree.euler_in, deep_dfs_tree.euler_out
    assert int(depth.max()) > graph.n // 2
    path = _root_path(deep_dfs_tree, int(np.argmax(depth)))
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
    depth-first _preorder over it and one loop each for depth, size and
    the child lists."""
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
    children = [[] for _ in range(n)]
    for v in order[1:]:
        children[parent[v]].append(v)
    return {
        "parent": parent,
        "parent_edge": parent_edge,
        "depth": depth,
        "euler_in": tin,
        "euler_out": [tin[v] + size[v] - 1 for v in range(n)],
        "order": order,
        "children": children,
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


def _check_tables_match_reference(multigraph, deep_dfs_tree, one_pass):
    """The CSR and every tree table against the lexsort reference, with
    the arcs of the graphs below and of their spanning trees sorted in
    one pass or in two, as one_pass says."""
    star, path = _star_and_path()
    graphs = (multigraph, star, path, gen_connected_graph(300, 700, seed=12))
    for graph in graphs:
        for arcs in (2 * graph.n - 2, 2 * graph.m):
            assert graph_mod._one_pass(graph.n, (arcs - 1).bit_length()) == one_pass
    cases = [
        (build_graph(1, []), [], 0),
        (build_graph(2, [(1, 0), (0, 1)]), [1], 0),
        (build_graph(2, [(1, 0), (0, 1)]), [0], 1),
        (deep_dfs_tree.graph, deep_dfs_tree.tree_edge_ids, deep_dfs_tree.root),
    ]
    for graph in graphs:
        for strategy in STRATEGIES:
            for root in (0, graph.n // 2, graph.n - 1):
                tree = gen_spanning_tree(graph, root, root + 1, strategy)
                cases.append((graph, tree.tree_edge_ids, root))
    for graph, tree_ids, root in cases:
        tree = build_rooted_tree(graph, tree_ids, root)
        for name, expected in _reference_tables(graph, tree_ids, root).items():
            if name == "children":
                actual = _child_lists(tree)
            else:
                actual = getattr(tree, name).tolist()
            assert actual == expected, (graph.n, root, name)
        offsets, nbrs, eids = graph.adjacency
        expected = _lexsorted_csr(
            graph.n, graph.edge_u, graph.edge_v, np.arange(graph.m)
        )
        assert offsets.tolist() == expected[0].tolist()
        assert nbrs.tolist() == expected[1].tolist()
        assert eids.tolist() == expected[2].tolist()
        assert nbrs.dtype == eids.dtype == np.int32


def test_tables_match_reference(multigraph, deep_dfs_tree):
    _check_tables_match_reference(multigraph, deep_dfs_tree, one_pass=True)


def test_two_pass_arc_sort_matches_reference(monkeypatch, multigraph, deep_dfs_tree):
    # 16 key bits send every arc sort of the checked graphs and their
    # trees through two passes.
    monkeypatch.setattr(graph_mod, "_KEY_BITS", 16)
    _check_tables_match_reference(multigraph, deep_dfs_tree, one_pass=False)


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
