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
from .graph import Graph, _index_dtype, _is_integer, _preorder
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


# A BFS level with fewer arcs than this takes the scalar step.  A
# vectorised level costs a fixed 40-50 microseconds of numpy calls, what
# the scalar step spends on about 300 arcs (n=1e5, levels of 16 and 64
# vertices).  Vectorised, a 1e5-vertex path, two arcs a level, took 2-3 s.
_THIN_LEVEL = 256


def _bfs_tree_ids(graph: Graph, root: int) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first traversal from root over the CSR incidence, taking
    each vertex's entries in stored order.  Returns the parent edge ids
    of the vertices reached after the root and the vertices reached, both
    in visiting order and as arrays of the incidence's dtype.

    Level-synchronous (Beamer, Asanovic and Patterson, SC 2012): a level
    gathers every arc of its frontier, in queue order and then CSR order,
    drops the arcs into vertices already seen and keeps, for each new
    vertex, the first arc that reaches it.  That is the arc, and the queue
    position, that a one-vertex-at-a-time FIFO loop gives it.  A level
    with fewer than _THIN_LEVEL arcs runs that loop instead.
    """
    offsets, nbrs, eids = graph.adjacency
    n = graph.n
    arc = _index_dtype(len(nbrs))  # arc positions
    degree = np.diff(offsets)
    seen = np.zeros(n, dtype=bool)
    seen[root] = True
    queue = np.empty(n, dtype=nbrs.dtype)
    queue[0] = root
    edge = np.empty(n, dtype=eids.dtype)  # the edge that reached queue[j]
    # owner[w]: the first arc, by its place in the level's gather, that
    # reaches w.  Written only for vertices that are then seen, so the
    # initial value is still there for any vertex a later level reaches.
    owner = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    off, nb, ed, dg = map(memoryview, (offsets, nbrs, eids, degree))
    sn, qu, out = map(memoryview, (seen, queue, edge))
    thin = _THIN_LEVEL
    head, tail = 0, 1  # the frontier is queue[head:tail]
    arcs = dg[root]  # arcs leaving the frontier
    while head < tail:
        level, reach = tail, 0
        if arcs < thin:
            for v in qu[head:level]:
                for i in range(off[v], off[v + 1]):
                    w = nb[i]
                    if not sn[w]:
                        sn[w] = True
                        out[tail] = ed[i]
                        qu[tail] = w
                        tail += 1
                        reach += dg[w]
        else:
            frontier = queue[head:level]
            count = degree[frontier]
            # Arc positions in queue order, then CSR order.
            skip = (offsets[frontier] - (np.cumsum(count) - count)).astype(arc)
            gather = np.arange(arcs, dtype=arc)
            gather += np.repeat(skip, count)
            fresh = np.flatnonzero(~seen[nbrs[gather]])
            w = nbrs[gather[fresh]]
            np.minimum.at(owner, w, fresh)
            first = fresh == owner[w]
            new = w[first]
            tail += len(new)
            queue[level:tail] = new
            edge[level:tail] = eids[gather[fresh[first]]]
            seen[new] = True
            reach = int(degree[new].sum())
        head, arcs = level, reach
    return edge[1:tail], queue[:tail]


def _dfs_tree_ids(graph: Graph, root: int) -> tuple[np.ndarray, np.ndarray]:
    """The parent edge ids of the vertices the depth-first ``_preorder``
    reaches after the root and the vertices it reaches, both in preorder
    and as arrays of the incidence's dtype."""
    _, parent_edge, order = _preorder(graph.adjacency, root)
    dtype = graph.adjacency[2].dtype
    order = np.array(order, dtype=dtype)
    return np.array(parent_edge, dtype=dtype)[order[1:]], order


def _wilson_tree_ids(
    graph: Graph, root: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform spanning tree of the graph itself, walking incident edges.
    Returns its edge ids by ascending child vertex, as an array of the
    incidence's dtype."""
    dtype = graph.adjacency[2].dtype
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
    return np.delete(np.array(succ_edge, dtype=dtype), root)


def gen_spanning_tree(
    graph: Graph, root: int, seed: int, strategy: str = "uniform"
) -> RootedSpanningTree:
    """Spanning tree of a connected graph, rooted at root.

    Strategies: "bfs" and "dfs" traverse deterministically with
    neighbours in the ascending (vertex, edge id) order of the CSR
    ``graph.adjacency`` and ignore the seed; "uniform" runs a loop-erased
    random walk over the same incidence, uniform over all spanning trees.
    "bfs" runs level by level in numpy, with a scalar step for levels of
    few arcs, and "uniform" runs the same BFS first to check that the
    graph is connected.  At n=1e5, m=5e5 (one random graph, best of 9,
    2 cores) the CSR takes 0.036-0.044 s, the BFS 0.027-0.036 s and the
    tree tables 0.052-0.076 s; the "dfs" traversal and the walk stay
    Python loops.
    A disconnected graph raises GraphInputError naming its smallest
    vertex unreachable from root, and a root that is not an integer
    vertex id raises TreeStructureError.
    """
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}, expected one of {STRATEGIES}"
        )
    root = _checked_root(graph, root)
    traverse = _dfs_tree_ids if strategy == "dfs" else _bfs_tree_ids
    ids, reached = traverse(graph, root)
    if len(reached) != graph.n:
        unseen = np.ones(graph.n, dtype=bool)
        unseen[reached] = False
        missing = int(np.argmax(unseen))
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
