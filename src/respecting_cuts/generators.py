"""Seeded random graphs, spanning trees and query sets.

All randomness flows through numpy's PCG64 behind SeedSequence, a named
generator with documented, platform-independent streams.  Distinct
purposes (tree edges, extra edges, walks, query sampling) draw from
split child streams, so outputs are reproducible for a given seed.
Every seed, selfcheck's included, goes through ``seed_sequence``, which
refuses anything but a non-negative integer rather than convert it.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphInputError, QueryError
from .graph import Graph, _is_integer, _preorder
from .tree import RootedSpanningTree, _checked_root, build_rooted_tree

STRATEGIES = ("bfs", "dfs", "uniform")


def seed_sequence(seed) -> np.random.SeedSequence:
    """The SeedSequence of a seed: a Python or numpy integer of at least 0.
    A bool, float, string or negative seed raises ValueError naming it."""
    if not (_is_integer(seed) and seed >= 0):
        raise ValueError(f"seed {seed!r} is not a non-negative integer")
    return np.random.SeedSequence(int(seed))


def _generator(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed_seq))


class _IntDraws:
    """Buffered uniform draws from range(upper); one rng call per 8192 draws."""

    def __init__(self, rng: np.random.Generator, upper: int):
        self._rng = rng
        self._upper = upper
        self._buf: list[int] = []
        self._pos = 0

    def take(self) -> int:
        if self._pos >= len(self._buf):
            self._buf = self._rng.integers(0, self._upper, size=8192).tolist()
            self._pos = 0
        val = self._buf[self._pos]
        self._pos += 1
        return val


def _wilson_complete(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Uniform random spanning tree of the complete graph on n vertices.

    Loop-erased random walk toward the already-built tree; erasure happens
    implicitly by overwriting the successor pointer on revisits.
    """
    if n <= 1:
        return []
    succ = [0] * n
    in_tree = [False] * n
    in_tree[0] = True
    draws = _IntDraws(rng, n - 1)
    for start in range(1, n):
        u = start
        while not in_tree[u]:
            r = draws.take()
            v = r if r < u else r + 1
            succ[u] = v
            u = v
        u = start
        while not in_tree[u]:
            in_tree[u] = True
            u = succ[u]
    return [(v, succ[v]) for v in range(1, n)]


def gen_connected_graph(n: int, target_m: int, seed: int) -> Graph:
    """Connected weight-1 multigraph with exactly target_m edges.

    A uniform spanning tree over the complete graph comes first, then
    target_m - (n - 1) uniformly random non-loop edges on top (parallel
    edges allowed).  Tree edges occupy ids 0..n-2 in child order.  An n
    or target_m that is not an integer raises GraphInputError.
    """
    for name, value in (("n", n), ("target_m", target_m)):
        if not _is_integer(value):
            raise GraphInputError(f"{name} {value!r} is not an integer")
    n, target_m = int(n), int(target_m)
    if n < 1:
        raise ValueError("a graph needs at least one vertex")
    if target_m < n - 1:
        raise ValueError(
            f"target_m={target_m} cannot connect {n} vertices "
            f"(needs at least {n - 1})"
        )
    if n == 1 and target_m > 0:
        raise ValueError("no non-loop edges exist on a single vertex")
    tree_ss, extra_ss = seed_sequence(seed).spawn(2)
    tree_edges = _wilson_complete(n, _generator(tree_ss))
    us = [a for a, _ in tree_edges]
    vs = [b for _, b in tree_edges]
    extra = target_m - (n - 1)
    if extra:
        rng = _generator(extra_ss)
        eu = rng.integers(0, n, size=extra)
        ev = rng.integers(0, n, size=extra)
        collide = eu == ev
        while collide.any():
            ev[collide] = rng.integers(0, n, size=int(collide.sum()))
            collide = eu == ev
        us.extend(eu.tolist())
        vs.extend(ev.tolist())
    return Graph.from_arrays(n, us, vs, [1] * target_m)


def _bfs_tree_ids(graph: Graph, root: int) -> tuple[set[int], list[int]]:
    offsets, nbrs, eids = map(memoryview, graph.adjacency)
    seen = [False] * graph.n
    seen[root] = True
    queue = [root]
    ids: set[int] = set()
    for v in queue:  # the loop also visits what it appends
        for i in range(offsets[v], offsets[v + 1]):
            w = nbrs[i]
            if not seen[w]:
                seen[w] = True
                ids.add(eids[i])
                queue.append(w)
    return ids, queue


def _dfs_tree_ids(graph: Graph, root: int) -> tuple[set[int], list[int]]:
    _, parent_edge, order = _preorder(graph.adjacency, root)
    return {parent_edge[v] for v in order[1:]}, order


def _wilson_tree_ids(
    graph: Graph, root: int, rng: np.random.Generator
) -> set[int]:
    """Uniform spanning tree of the graph itself, walking incident edges."""
    offsets, nbrs, eids = map(memoryview, graph.adjacency)
    n = graph.n
    in_tree = [False] * n
    in_tree[root] = True
    succ_edge = [-1] * n
    succ_vertex = [root] * n
    floats = _IntDraws(rng, 1 << 30)
    scale = float(1 << 30)
    for start in range(n):
        u = start
        while not in_tree[u]:
            lo = offsets[u]
            i = lo + int((offsets[u + 1] - lo) * (floats.take() / scale))
            succ_vertex[u] = nbrs[i]
            succ_edge[u] = eids[i]
            u = nbrs[i]
        u = start
        while not in_tree[u]:
            in_tree[u] = True
            u = succ_vertex[u]
    return {succ_edge[v] for v in range(n) if v != root}


def gen_spanning_tree(
    graph: Graph, root: int, seed: int, strategy: str = "uniform"
) -> RootedSpanningTree:
    """Spanning tree of a connected graph, rooted at root.

    Strategies: "bfs" and "dfs" traverse deterministically with
    neighbours in the ascending (vertex, edge id) order of the CSR
    ``graph.adjacency`` and ignore the seed; "uniform" runs a loop-erased
    random walk over the same incidence, uniform over all spanning trees.
    A root that is not an integer vertex id raises TreeStructureError.
    """
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}, expected one of {STRATEGIES}"
        )
    root = _checked_root(graph, root)
    traverse = _dfs_tree_ids if strategy == "dfs" else _bfs_tree_ids
    ids, reached = traverse(graph, root)
    if len(reached) != graph.n:
        missing = min(set(range(graph.n)).difference(reached))
        raise GraphInputError(
            f"graph is disconnected: vertex {missing} unreachable from {root}"
        )
    if strategy == "uniform":  # the walk would never end on a disconnected graph
        rng = _generator(seed_sequence(seed))
        ids = _wilson_tree_ids(graph, root, rng)
    return build_rooted_tree(graph, ids, root)


def gen_query_set(tree: RootedSpanningTree, k: int, seed: int) -> set[int]:
    """k distinct non-root vertices, uniform without replacement.  A k
    that is not an integer raises QueryError."""
    if not _is_integer(k):
        raise QueryError(f"query size {k!r} is not an integer")
    k = int(k)
    n = tree.graph.n
    if not 1 <= k <= n - 1:
        raise QueryError(
            f"query size {k} out of range, need 1 <= k <= {n - 1}"
        )
    rng = _generator(seed_sequence(seed))
    pool = np.delete(np.arange(n, dtype=np.int64), tree.root)
    picks = rng.choice(pool, size=k, replace=False)
    return {int(v) for v in picks}
