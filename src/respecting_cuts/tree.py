"""Rooted spanning tree with constant-time ancestry tests.

Every table comes from one depth-first preorder of the tree edges, run
by the graph module's traversal (the one the ``dfs`` strategy runs on
the whole graph): discovery index = preorder position, one forward pass
for depth, one reversed pass for subtree sizes, and finish index =
discovery + size - 1.  Discovery intervals give O(1) subtree membership:
u lies in the subtree of v exactly when
euler_in(v) <= euler_in(u) <= euler_out(v), and the subtree of v is the
preorder slice between them.  Child lists, which no query reads, are
built from the same preorder on first use.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import QueryError, TreeStructureError
from .graph import (
    Graph,
    _incidence,
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

    plus ``children``, child lists each sorted ascending and built on
    first use, and ``tree_edge_ids``, the frozenset of the n-1 edge ids
    forming the tree.

    The root and the tree edge ids must be integers (Python or numpy,
    not bools); anything else is refused with TreeStructureError rather
    than converted.  Instances never change after construction, apart
    from filling ``edge_euler_in`` and ``children`` once.
    """

    def __init__(self, graph: Graph, tree_edge_ids: Iterable[int], root: int):
        n, m = graph.n, graph.m
        root = _checked_root(graph, root)
        listed = list(tree_edge_ids)
        for eid in listed:
            if type(eid) is not int and not _is_integer(eid):
                raise TreeStructureError(
                    f"tree edge id {eid!r} is not an integer"
                )
        ids = sorted(set(map(int, listed)))
        if len(ids) != n - 1:
            raise TreeStructureError(
                f"a spanning tree of {n} vertices needs {n - 1} distinct "
                f"edges, got {len(ids)}"
            )
        for eid in ids:
            if not 0 <= eid < m:
                raise TreeStructureError(
                    f"tree edge id {eid} out of range for {m} edges"
                )

        edges = np.array(ids, dtype=np.int64)
        parent, parent_edge, order = _preorder(
            _incidence(n, graph.edge_u[edges], graph.edge_v[edges], edges), root
        )
        if len(order) != n:
            missing = min(set(range(n)).difference(order))
            raise TreeStructureError(
                f"tree edges do not span the graph: vertex {missing} is "
                f"unreachable from root {root}"
            )
        depth = [0] * n
        for v in order[1:]:
            depth[v] = depth[parent[v]] + 1
        size = [1] * n
        for v in reversed(order[1:]):
            size[parent[v]] += size[v]
        tin = np.empty(n, dtype=np.int64)
        tin[order] = np.arange(n)

        self.graph = graph
        self.root = root
        self.tree_edge_ids = frozenset(ids)
        # Every table holds vertex or edge ids below max(n, m); int32 halves
        # what they cost whenever those fit.
        dtype = np.int32 if max(n, m) <= np.iinfo(np.int32).max else np.int64
        self.parent = _frozen(parent, dtype)
        self.parent_edge = _frozen(parent_edge, dtype)
        self.depth = _frozen(depth, dtype)
        self.euler_in = _frozen(tin, dtype)
        self.euler_out = _frozen(tin + np.array(size) - 1, dtype)
        self.order = _frozen(order, dtype)
        # Plain-list twins for the per-scalar ancestry tests of queries;
        # numpy scalar indexing is an order of magnitude slower than list
        # indexing.
        self._depth = depth
        self._tin = tin.tolist()
        self._tout = self.euler_out.tolist()
        # Filled by edge_euler_in and children.  Assigned here, not by a
        # cached_property, so that the attribute layout of every instance
        # stays the one CPython reads fastest.
        self._edge_euler_in: np.ndarray | None = None
        self._children: list[list[int]] | None = None

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
    def children(self) -> list[list[int]]:
        """Child lists indexed by vertex, each sorted ascending (the
        preorder visits children in ascending order).  Built on first
        use, then kept."""
        if self._children is None:
            children: list[list[int]] = [[] for _ in range(self.n)]
            parent = self.parent.tolist()
            for v in self.order[1:].tolist():
                children[parent[v]].append(v)
            self._children = children
        return self._children

    def is_descendant(self, u: int, v: int) -> bool:
        """True when u lies in the subtree of v (u == v counts).

        Both arguments must be valid vertex ids.
        """
        t = self._tin
        return t[v] <= t[u] <= self._tout[v]

    def depth_of(self, v: int) -> int:
        """Edge distance from the root; depth_of(root) == 0."""
        return self._depth[v]

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
        return set(self.order[self._tin[v] : self._tout[v] + 1].tolist())

    def root_path(self, v: int) -> list[int]:
        """Vertices from the root down to v inclusive; length depth(v)+1."""
        v = checked_vertex(self.graph, v)
        parent = self.parent
        path = []
        while v != -1:
            path.append(v)
            v = int(parent[v])
        path.reverse()
        return path

    def decompose_cut_as_xor_basis(
        self, members: Iterable[int]
    ) -> tuple[set[int], bool]:
        """Express a cut through the basis of subtree cuts.

        For a proper nonempty vertex set A, returns (S, complemented) where
        S holds every non-root vertex whose parent edge crosses A, and
        complemented records whether the root sits inside A.  The symmetric
        difference of the subtrees of S equals A itself when complemented
        is False and the complement of A otherwise.
        """
        inside = checked_vertex_set(self.graph, members)
        if not 0 < len(inside) < self.graph.n:
            raise QueryError(
                "vertex set must be a proper nonempty subset of the vertices"
            )
        mask = np.zeros(self.graph.n, dtype=bool)
        mask[np.fromiter(inside, dtype=np.int64, count=len(inside))] = True
        crossing = mask != mask[self.parent]
        crossing[self.root] = False
        return set(np.flatnonzero(crossing).tolist()), (self.root in inside)


def _frozen(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
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
