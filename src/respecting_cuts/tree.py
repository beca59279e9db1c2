"""Rooted spanning tree with constant-time ancestry tests.

One depth-first traversal from the root fills the parent, parent-edge,
depth and discovery/finish tables.  Discovery intervals give O(1)
subtree membership: u lies in the subtree of v exactly when
euler_in(v) <= euler_in(u) <= euler_out(v).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import QueryError, TreeStructureError
from .graph import Graph, checked_vertex, checked_vertex_set


class RootedSpanningTree:
    """A spanning tree of a Graph, rooted at a chosen vertex.

    Public tables (ascending vertex id as the index):

    * ``parent`` / ``parent_edge``: parent vertex and connecting edge id,
      -1 at the root
    * ``depth``: edge distance from the root
    * ``euler_in`` / ``euler_out``: discovery index and largest discovery
      index inside the subtree, from one depth-first traversal that visits
      children in ascending vertex order
    * ``children``: child lists, each sorted ascending
    * ``order``: the depth-first preorder itself
    * ``tree_edge_ids``: frozenset of the n-1 edge ids forming the tree

    Instances never mutate after construction.
    """

    def __init__(self, graph: Graph, tree_edge_ids: Iterable[int], root: int):
        n = graph.n
        root = int(root)
        if not 0 <= root < n:
            raise TreeStructureError(
                f"root {root} out of range for {n} vertices"
            )
        ids = sorted({int(e) for e in tree_edge_ids})
        if len(ids) != n - 1:
            raise TreeStructureError(
                f"a spanning tree of {n} vertices needs {n - 1} distinct "
                f"edges, got {len(ids)}"
            )
        for eid in ids:
            if not 0 <= eid < graph.m:
                raise TreeStructureError(
                    f"tree edge id {eid} out of range for {graph.m} edges"
                )

        us, vs, _ = graph._edge_lists
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for eid in ids:
            a, b = us[eid], vs[eid]
            adj[a].append((b, eid))
            adj[b].append((a, eid))
        for lst in adj:
            lst.sort()

        parent = [-1] * n
        parent_edge = [-1] * n
        depth = [0] * n
        tin = [0] * n
        tout = [0] * n
        children: list[list[int]] = [[] for _ in range(n)]
        order = [root]
        visited = [False] * n
        visited[root] = True
        cursor = [0] * n
        stack = [root]
        clock = 1
        while stack:
            v = stack[-1]
            advanced = False
            while cursor[v] < len(adj[v]):
                w, eid = adj[v][cursor[v]]
                cursor[v] += 1
                if visited[w]:
                    continue
                visited[w] = True
                parent[w] = v
                parent_edge[w] = eid
                depth[w] = depth[v] + 1
                children[v].append(w)
                tin[w] = clock
                clock += 1
                order.append(w)
                stack.append(w)
                advanced = True
                break
            if not advanced:
                tout[v] = clock - 1
                stack.pop()
        if clock != n:
            missing = visited.index(False)
            raise TreeStructureError(
                f"tree edges do not span the graph: vertex {missing} is "
                f"unreachable from root {root}"
            )

        edge_child = [-1] * graph.m
        for v in range(n):
            if v != root:
                edge_child[parent_edge[v]] = v

        self.graph = graph
        self.root = root
        self.tree_edge_ids = frozenset(ids)
        self.children = children
        self.parent = np.array(parent, dtype=np.int64)
        self.parent_edge = np.array(parent_edge, dtype=np.int64)
        self.depth = np.array(depth, dtype=np.int64)
        self.euler_in = np.array(tin, dtype=np.int64)
        self.euler_out = np.array(tout, dtype=np.int64)
        self.order = np.array(order, dtype=np.int64)
        for arr in (
            self.parent,
            self.parent_edge,
            self.depth,
            self.euler_in,
            self.euler_out,
            self.order,
        ):
            arr.setflags(write=False)
        # Plain-list twins for scalar-heavy paths; numpy scalar indexing is
        # an order of magnitude slower than list indexing.
        self._parent = parent
        self._parent_edge = parent_edge
        self._depth = depth
        self._tin = tin
        self._tout = tout
        self._order = order
        self._edge_child = edge_child

    @property
    def n(self) -> int:
        return self.graph.n

    def is_descendant(self, u: int, v: int) -> bool:
        """True when u lies in the subtree of v (u == v counts).

        Both arguments must be valid vertex ids.
        """
        t = self._tin
        return t[v] <= t[u] <= self._tout[v]

    def is_independent(self, u: int, v: int) -> bool:
        """True when the subtrees of u and v are disjoint.

        Never true for u == v.  Both arguments must be valid vertex ids.
        """
        return not (self.is_descendant(u, v) or self.is_descendant(v, u))

    def depth_of(self, v: int) -> int:
        """Edge distance from the root; depth_of(root) == 0."""
        return self._depth[v]

    def parent_edge_of(self, v: int) -> int:
        """Edge id connecting v to its parent; the root has none."""
        v = checked_vertex(self.graph, v)
        if v == self.root:
            raise QueryError("the root has no parent edge")
        return self._parent_edge[v]

    def subtree_members(self, v: int) -> set[int]:
        """v together with every descendant, walking the child lists."""
        v = checked_vertex(self.graph, v)
        out: set[int] = set()
        stack = [v]
        while stack:
            x = stack.pop()
            out.add(x)
            stack.extend(self.children[x])
        return out

    def root_path(self, v: int) -> list[int]:
        """Vertices from the root down to v inclusive; length depth(v)+1."""
        v = checked_vertex(self.graph, v)
        path = []
        while v != -1:
            path.append(v)
            v = self._parent[v]
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
        par = self._parent
        basis = set()
        for eid in self.tree_edge_ids:
            c = self._edge_child[eid]
            if (c in inside) != (par[c] in inside):
                basis.add(c)
        return basis, (self.root in inside)


def build_rooted_tree(
    graph: Graph, tree_edge_ids: Iterable[int], root: int
) -> RootedSpanningTree:
    """Validate the edge id set and build the rooted tree tables."""
    return RootedSpanningTree(graph, tree_edge_ids, root)
