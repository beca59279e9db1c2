"""Rooted spanning tree with constant-time ancestry tests.

Every table comes from one Euler tour of the tree edges (Tarjan and
Vishkin), built with numpy alone and no per-vertex loop.  The edges'
arcs are sorted by (source, destination) as the graph's CSR is, and the
tour leaves each vertex by the arc after the one it came in on.  Its
positions come from list ranking by pointer jumping (Wyllie), in
ceil(log2 2n) rounds.  An arc that comes before its twin on the tour
leads from parent to child, and the tour walks the child's subtree
between the two, which gives parent, parent edge and subtree size.  The
preorder visits children in ascending vertex order: a child's
discovery index exceeds its parent's by one plus the sizes of its
smaller siblings, and prefix sums of those gaps along the tour give
every discovery index, and the depth likewise; the finish index is
discovery + size - 1.  Discovery intervals give O(1) subtree
membership: u lies in the subtree of v exactly when
euler_in(v) <= euler_in(u) <= euler_out(v), and the subtree of v is the
preorder slice between them.  The down arcs, in sorted order, list
every non-root vertex by (parent, vertex): the tree's child table.  The
subtree cut sizes, which one lowest-common-ancestor pass over the edges
fills, are built on first use.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import QueryError, TreeStructureError
from .graph import (
    Graph,
    _arc_order,
    _index_dtype,
    _is_integer,
    _preorder,
    checked_vertex,
    checked_vertex_set,
)


class RootedSpanningTree:
    """A spanning tree of a Graph, rooted at a chosen vertex.

    Public tables, read-only numpy arrays of int32 (int64 when n or m
    outgrows int32), with ascending vertex id as the index:

    * ``parent`` / ``parent_edge``: parent vertex and connecting edge id,
      -1 at the root
    * ``depth``: edge distance from the root
    * ``euler_in`` / ``euler_out``: position in the preorder and largest
      position inside the subtree; the preorder visits children in
      ascending vertex order
    * ``order``: the depth-first preorder itself
    * ``edge_euler_in``: discovery indices of every graph edge's two
      endpoints (indexed by edge id), built on first use
    * ``subtree_cut``: int64 cut size of the subtree of every vertex (0
      at the root), built on first use

    plus ``tree_edge_ids``, the n-1 edge ids forming the tree in
    ascending order: a read-only array of the tables' dtype, and the
    tree's only record of its edges.

    The root and the tree edge ids must be integers (Python or numpy,
    not bools); anything else is refused with TreeStructureError rather
    than converted, and so is a repeated edge id.  Instances never change
    after construction, apart from filling ``edge_euler_in`` and
    ``subtree_cut`` once.
    """

    def __init__(self, graph: Graph, tree_edge_ids: Iterable[int], root: int):
        n, m = graph.n, graph.m
        root = _checked_root(graph, root)
        # Every table holds vertex or edge ids below max(n, m).
        dtype = _index_dtype(n, m)
        ids = _frozen(_checked_edge_ids(tree_edge_ids, n, m), dtype)
        parent, parent_edge, depth, tin, tout, order, offsets, kids = _euler_tables(
            graph, ids, root, dtype
        )

        self.graph = graph
        self.root = root
        self.tree_edge_ids = ids
        self.parent = _frozen(parent, dtype)
        self.parent_edge = _frozen(parent_edge, dtype)
        self.depth = _frozen(depth, dtype)
        self.euler_in = _frozen(tin, dtype)
        self.euler_out = _frozen(tout, dtype)
        self.order = _frozen(order, dtype)
        # (offsets, kids): kids holds the non-root vertices sorted by
        # (parent, vertex), so the children of v are
        # kids[offsets[v]:offsets[v + 1]], ascending.
        self._child_table = (_frozen(offsets, dtype), _frozen(kids, dtype))
        # Filled by edge_euler_in and subtree_cut.  Assigned here, not by a
        # cached_property, so that the attribute layout of every instance
        # stays the one CPython reads fastest.
        self._edge_euler_in: np.ndarray | None = None
        self._subtree_cut: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def edge_euler_in(self) -> np.ndarray:
        """Shape (2, m): row 0 holds euler_in of every edge's first
        endpoint, row 1 of its second.  Built on first use, then kept."""
        if self._edge_euler_in is None:
            tin = self.euler_in
            ends = np.stack((tin[self.graph.edge_u], tin[self.graph.edge_v]))
            ends.setflags(write=False)
            self._edge_euler_in = ends
        return self._edge_euler_in

    @property
    def subtree_cut(self) -> np.ndarray:
        """Shape (n,), int64: the cut size of the subtree of every vertex,
        0 at the root.  Built on first use, then kept.

        Each edge adds its weight at both endpoints and removes twice its
        weight at their lowest common ancestor (for a tree edge, its parent
        endpoint).  Summed over the subtree of v, the preorder slice
        [euler_in(v), euler_out(v)], those counters leave exactly the
        weight of the edges with one endpoint inside it; with S their
        prefix sums in preorder, that is S[euler_out(v) + 1] - S[euler_in(v)].
        """
        if self._subtree_cut is None:
            graph = self.graph
            diff = np.zeros(graph.n, dtype=np.int64)
            up = _ancestor_table(self)
            u, v, w = graph.edge_u, graph.edge_v, graph.edge_weight
            np.add.at(diff, u, w)
            np.add.at(diff, v, w)
            for lo in range(0, graph.m, _LCA_CHUNK):
                hi = lo + _LCA_CHUNK
                lca = _lca_batch(self, up, u[lo:hi], v[lo:hi])
                np.subtract.at(diff, lca, 2 * w[lo:hi])
            prefix = np.zeros(graph.n + 1, dtype=np.int64)
            np.cumsum(diff[self.order], out=prefix[1:])
            cut = prefix[self.euler_out + 1] - prefix[self.euler_in]
            self._subtree_cut = _frozen(cut, np.int64)
        return self._subtree_cut

    def parent_edge_of(self, v: int) -> int:
        """Edge id connecting v to its parent; the root has none."""
        v = checked_vertex(self.graph, v)
        if v == self.root:
            raise QueryError("the root has no parent edge")
        return int(self.parent_edge[v])

    def subtree_members(self, v: int) -> set[int]:
        """v together with every descendant: the preorder slice from
        euler_in(v) to euler_out(v)."""
        v = checked_vertex(self.graph, v)
        return set(self.order[self.euler_in[v] : self.euler_out[v] + 1].tolist())

    def decompose_cut_as_xor_basis(
        self, members: Iterable[int]
    ) -> tuple[set[int], bool]:
        """Express a cut through the basis of subtree cuts.

        For a proper nonempty vertex set A, returns (S, complemented) where
        S holds every non-root vertex whose parent edge crosses A, and
        complemented records whether the root sits inside A.  The symmetric
        difference of the subtrees of S equals A itself when complemented
        is False and the complement of A otherwise.

        S is the members whose parent lies outside A together with the
        children of members that lie outside A, so the work grows with A
        and its children, not with n.
        """
        inside = checked_vertex_set(self.graph, members)
        if not 0 < len(inside) < self.graph.n:
            raise QueryError(
                "vertex set must be a proper nonempty subset of the vertices"
            )
        at = np.fromiter(inside, dtype=np.int64, count=len(inside))
        mask = np.zeros(self.graph.n, dtype=bool)
        mask[at] = True
        up = self.parent[at]
        top = at[(up >= 0) & ~mask[up]]  # the root's parent -1 is no vertex
        offsets, kids = self._child_table
        lo = offsets[at]
        count = offsets[at + 1] - lo
        # Each member's slice of kids, concatenated.
        start = np.repeat(lo - (np.cumsum(count) - count), count)
        below = kids[start + np.arange(len(start))]
        below = below[~mask[below]]
        return set(np.concatenate((top, below)).tolist()), (self.root in inside)


def _euler_tables(
    graph: Graph, ids: np.ndarray, root: int, dtype: type[np.signedinteger]
) -> tuple[np.ndarray, ...]:
    """The tables parent, parent_edge, depth, euler_in, euler_out and
    order, and the child table's offsets and kids, as arrays of dtype, of
    the tree that the edges ids form rooted at root, from one Euler tour
    of their arcs.  Raises TreeStructureError, naming the smallest
    unreachable vertex, unless the edges span the graph."""
    n = graph.n
    ends = np.stack((graph.edge_u[ids], graph.edge_v[ids]), axis=1, dtype=dtype)
    ends = ends.ravel()
    arcs = len(ends)
    idx = _index_dtype(2 * arcs)  # tour ranks stay below 2 * arcs
    offsets, order = _arc_order(n, ends)
    order = order.astype(idx)
    at = np.empty(arcs, dtype=idx)
    at[order] = np.arange(arcs, dtype=idx)
    twin = at[order ^ 1]  # the same edge's reverse arc
    src, dst = ends[order], ends[order ^ 1]
    # The tour leaves dst by the arc after twin around dst, cyclically.
    succ = twin + 1
    wrap = succ == offsets[dst + 1]
    succ[wrap] = offsets[dst[wrap]]
    pos = _tour_positions(offsets, succ, root)
    if pos is None:
        _, _, reached = _preorder((offsets, dst, order >> 1), root)
        unseen = np.ones(n, dtype=bool)
        unseen[reached] = False
        missing = int(np.argmax(unseen))
        raise TreeStructureError(
            f"tree edges do not span the graph: vertex {missing} is "
            f"unreachable from root {root}"
        )

    # The tour enters each child by a down arc, before its twin leaves it,
    # and walks the child's subtree in between.
    down = np.flatnonzero(pos < pos[twin])
    child, back = dst[down], twin[down]
    parent = np.full(n, -1, dtype=dtype)
    parent[child] = src[down]
    parent_edge = np.full(n, -1, dtype=dtype)
    parent_edge[child] = ids[order[down] >> 1]
    size = np.full(n, n, dtype=dtype)
    size[child] = (pos[back] - pos[down] + 1) >> 1
    # Down arcs sit in CSR order, so child is the child table: the non-root
    # vertices by (parent, vertex).  Count 0 of its offsets is the root's.
    kid_offsets = np.cumsum(np.bincount(parent + 1, minlength=n + 1)) - 1
    # A child's preorder index exceeds its parent's by one plus the sizes
    # of its smaller siblings, which sit before it in child: a segmented
    # exclusive sum.
    span = size[child]
    before = np.cumsum(span) - span
    gap = before - before[kid_offsets[src[down]]] + 1
    # In tour order a down arc adds its child's gap and the twin takes it
    # back, so the running sum at a down arc adds up the gaps along the
    # child's root path: its preorder index.  Steps of one give its depth
    # the same way.
    walk = np.empty(arcs, dtype=idx)
    tin = np.zeros(n, dtype=dtype)
    walk[pos[down]] = gap
    walk[pos[back]] = -gap
    tin[child] = np.cumsum(walk)[pos[down]]
    depth = np.zeros(n, dtype=dtype)
    walk[pos[down]] = 1
    walk[pos[back]] = -1
    depth[child] = np.cumsum(walk)[pos[down]]
    order = np.empty(n, dtype=dtype)
    order[tin] = np.arange(n, dtype=dtype)
    return parent, parent_edge, depth, tin, tin + size - 1, order, kid_offsets, child


def _checked_edge_ids(tree_edge_ids: Iterable[int], n: int, m: int) -> np.ndarray:
    """The tree edge ids as a sorted int64 array.

    Refuses with TreeStructureError, in this order: the first entry that
    is not an integer (Python or numpy, not a bool), the smallest
    repeated id, a count other than n - 1, and the smallest id outside
    [0, m).  A one-dimensional integer array is sorted as it is; anything
    else is listed first, so that each entry's type can be checked.
    """
    ids = tree_edge_ids
    if not (isinstance(ids, np.ndarray) and ids.ndim == 1 and ids.dtype.kind in "iu"):
        listed = list(tree_edge_ids)
        try:
            ids = np.array(listed) if listed else np.zeros(0, dtype=np.int64)
        except ValueError:  # numpy refuses ragged nestings of sequences
            ids = np.array(listed, dtype=object)
        # np.array reads bools mixed with ints as ints.
        if ids.dtype.kind not in "iu" or ids.ndim != 1 or {bool, np.bool_} & set(
            map(type, listed)
        ):
            for eid in listed:
                if not _is_integer(eid):
                    raise TreeStructureError(f"tree edge id {eid!r} is not an integer")
            ids = np.array(listed, dtype=object)  # integers beyond int64
    ids = np.sort(ids)
    repeated = ids[1:] == ids[:-1]
    if repeated.any():
        raise TreeStructureError(
            f"tree edge id {int(ids[np.argmax(repeated)])} is repeated"
        )
    if len(ids) != n - 1:
        raise TreeStructureError(
            f"a spanning tree of {n} vertices needs {n - 1} distinct "
            f"edges, got {len(ids)}"
        )
    outside = (ids < 0) | (ids >= m)
    if outside.any():
        raise TreeStructureError(
            f"tree edge id {int(ids[np.argmax(outside)])} out of range for {m} edges"
        )
    return ids.astype(np.int64)


def _tour_positions(
    offsets: np.ndarray, succ: np.ndarray, root: int
) -> np.ndarray | None:
    """Position of every arc on the Euler tour from the root's first arc,
    given the arcs' CSR offsets and successors; None unless the n - 1
    edges form a spanning tree.  They do exactly when every vertex has an
    arc and the tour covers every arc: one face over all arcs and all n
    vertices leaves genus 0 by Euler's formula, so the edges connect.
    On None, the caller names an unreachable vertex by the package's
    depth-first ``_preorder`` over the same sorted arcs.

    The tour is cut before it returns to the first arc and ranked by
    pointer jumping (Wyllie) in ceil(log2 len(succ)) rounds; arcs off it
    get meaningless positions.
    """
    arcs = len(succ)
    if not arcs:  # a single vertex
        return succ
    if (offsets[1:] == offsets[:-1]).any():
        return None
    first = int(offsets[root])
    last = int(np.flatnonzero(succ == first)[0])
    succ = succ.copy()
    succ[last] = last
    rank = np.ones(arcs, dtype=succ.dtype)  # arcs left to the end
    rank[last] = 0
    for _ in range((arcs - 1).bit_length()):
        rank += rank[succ]
        succ = succ[succ]
    return arcs - 1 - rank if rank[first] == arcs - 1 else None


def _ancestor_table(tree: RootedSpanningTree) -> np.ndarray:
    """Binary-lifting table; row j holds the 2^j-th ancestor (root fixed).
    No lift is longer than the tree's height, so the rows stop there."""
    levels = max(1, int(tree.depth.max()).bit_length())
    up = np.empty((levels, tree.n), dtype=tree.parent.dtype)
    up[0] = tree.parent
    up[0][tree.root] = tree.root
    for j in range(1, levels):
        up[j] = up[j - 1][up[j - 1]]
    return up


def _lca_batch(
    tree: RootedSpanningTree, up: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Lowest common ancestors for endpoint arrays, fully vectorized.

    Only the endpoint discovered first moves.  Its ancestors are all
    discovered no later than the other endpoint's index t, so their
    intervals hold t exactly when euler_out reaches t.  It lifts, rows
    from the top down, while its 2^j-th ancestor misses t, then takes one
    parent step unless its own interval already holds t.
    """
    tin, tout = tree.euler_in, tree.euler_out
    ta, tb = tin[a], tin[b]
    x = np.where(ta <= tb, a, b)
    t = np.maximum(ta, tb)
    for j in range(up.shape[0] - 1, -1, -1):
        anc = up[j][x]
        x = np.where(tout[anc] < t, anc, x)
    return np.where(tout[x] < t, up[0][x], x)


# Edges per batched LCA call: bounds the edge-length temporaries of
# _lca_batch to a few hundred kilobytes each.
_LCA_CHUNK = 1 << 16


def _frozen(values, dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _checked_root(graph: Graph, root) -> int:
    """A root vertex id as a plain int, checked as query vertices are."""
    try:
        return checked_vertex(graph, root)
    except QueryError as exc:
        raise TreeStructureError(f"root: {exc}") from None


def build_rooted_tree(
    graph: Graph, tree_edge_ids: Iterable[int], root: int
) -> RootedSpanningTree:
    """Validate the edge id set and build the rooted tree tables."""
    return RootedSpanningTree(graph, tree_edge_ids, root)
