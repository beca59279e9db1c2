"""Reference answers straight from the cut definition.

An edge is in the cut of a vertex set A when exactly one endpoint lies
in A.  Everything here works on the benchmark's own edge arrays and the
parent array of the tree under test; it never calls the gamma module.
Subtree membership comes from a preorder this module computes itself.
"""

from __future__ import annotations

import numpy as np


class TreeMismatch(ValueError):
    """The tree under test is not a spanning tree of the edge arrays."""


class Reference:
    def __init__(self, n, u, v, w, parent, parent_edge, root):
        self.n = int(n)
        self.u = np.asarray(u, dtype=np.int64)
        self.v = np.asarray(v, dtype=np.int64)
        self.w = np.asarray(w, dtype=np.int64)
        self.root = int(root)
        self.parent = np.asarray(parent, dtype=np.int64)
        self._check_tree(np.asarray(parent_edge, dtype=np.int64))
        self.tin, self.tout, self.depth = self._preorder()

    def _check_tree(self, parent_edge: np.ndarray) -> None:
        kids = np.flatnonzero(np.arange(self.n) != self.root)
        pe = parent_edge[kids]
        if self.parent[self.root] != -1 or (pe < 0).any() or (pe >= self.u.size).any():
            raise TreeMismatch("parent edges out of range")
        a, b, p = self.u[pe], self.v[pe], self.parent[kids]
        if not (((a == kids) & (b == p)) | ((b == kids) & (a == p))).all():
            raise TreeMismatch("a parent edge does not join a vertex to its parent")

    def _preorder(self):
        n = self.n
        kids = np.flatnonzero(np.arange(n) != self.root)
        by_parent = kids[np.argsort(self.parent[kids], kind="stable")]
        starts = np.searchsorted(self.parent[by_parent], np.arange(n + 1))
        starts = starts.tolist()
        flat = by_parent.tolist()
        tin = [-1] * n
        depth = [0] * n
        order = []
        stack = [self.root]
        while stack:
            x = stack.pop()
            tin[x] = len(order)
            order.append(x)
            dx = depth[x] + 1
            for c in flat[starts[x] : starts[x + 1]]:
                depth[c] = dx
                stack.append(c)
        if len(order) != n:
            raise TreeMismatch("parent array does not reach every vertex from the root")
        size = [1] * n
        par = self.parent.tolist()
        for x in reversed(order):
            if x != self.root:
                size[par[x]] += size[x]
        tin_a = np.array(tin, dtype=np.int64)
        tout_a = tin_a + np.array(size, dtype=np.int64) - 1
        return tin_a, tout_a, np.array(depth, dtype=np.int64)

    def cut(self, side: np.ndarray) -> int:
        """Weight of edges with exactly one endpoint where side is True."""
        return int(self.w[side[self.u] != side[self.v]].sum())

    def subtree(self, x: int) -> np.ndarray:
        return (self.tin >= self.tin[x]) & (self.tin <= self.tout[x])

    def xor_of_subtrees(self, members) -> np.ndarray:
        """Vertices lying in an odd number of the members' subtrees."""
        mem = np.asarray(list(members), dtype=np.int64)
        diff = np.zeros(self.n + 1, dtype=np.int64)
        np.add.at(diff, self.tin[mem], 1)
        np.add.at(diff, self.tout[mem] + 1, -1)
        parity = np.cumsum(diff[: self.n]) & 1
        return parity[self.tin].astype(bool)

    def delta(self, x: int) -> int:
        return self.cut(self.subtree(x))

    def pair(self, x: int, y: int) -> int:
        """Weight of edges crossing both subtree cuts."""
        sx, sy = self.subtree(x), self.subtree(y)
        both = (sx[self.u] != sx[self.v]) & (sy[self.u] != sy[self.v])
        return int(self.w[both].sum())

    def k_respecting(self, members) -> int:
        """Cut whose crossing tree edges are the members' parent edges."""
        return self.cut(self.xor_of_subtrees(members))

    def vertex_set(self, members) -> tuple[int, frozenset[int]]:
        """Cut size of a vertex set and its basis: the non-root vertices
        whose parent edge crosses the cut."""
        side = np.zeros(self.n, dtype=bool)
        side[np.asarray(list(members), dtype=np.int64)] = True
        crossing = side != side[np.maximum(self.parent, 0)]
        crossing[self.root] = False
        return self.cut(side), frozenset(np.flatnonzero(crossing).tolist())
