"""Undirected weighted multigraph plus definition-level cut computations.

The two cut functions here deliberately walk the edge list one edge at a
time.  They are the ground truth the fast query engine is checked against,
so they stay close to the definition of a cut and share nothing with the
vectorized paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DEFAULT_MAX_K,
    EdgeWeightError,
    EndpointRangeError,
    GraphInputError,
    QueryError,
    SelfLoopError,
)

# Total edge weight must stay below this.  Every subtree cut and pairwise
# value is then below 2**62, and the signed counters of the one-pass subtree
# cut computation (at most twice the total in magnitude) fit in int64.
MAX_TOTAL_WEIGHT = 2**62
_INT64 = np.iinfo(np.int64)


def _is_integer(x) -> bool:
    """A Python or numpy integer; bools count as not integers."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, (bool, np.bool_))


def _int64_column(
    values, what: str, error: type[GraphInputError]
) -> np.ndarray:
    """One edge field as an int64 array.  An entry that is not an integer
    (a float, a bool, a string) or does not fit in int64 is rejected,
    naming its edge, because converting it would change the graph."""
    column = np.array(values).reshape(-1)
    exact = column.dtype.kind == "i"
    if exact and isinstance(values, (list, tuple)):
        # np.asarray reads bools mixed with ints as ints.
        exact = not {bool, np.bool_} & set(map(type, values))
    if column.size and not exact:
        for i, x in enumerate(np.asarray(values, dtype=object).reshape(-1)):
            if not (_is_integer(x) and _INT64.min <= x <= _INT64.max):
                raise error(
                    f"edge {i} has {what} {x!r}, which is not an int64 integer",
                    edge_index=i,
                )
    return column.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected multigraph with integer edge weights >= 1.

    Edge ids are dense 0-based positions into the endpoint arrays and
    preserve construction order.  Parallel edges are allowed, self-loops
    are not.  Instances never mutate after construction, so concurrent
    readers are safe.
    """

    n: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_weight: np.ndarray

    @classmethod
    def from_arrays(cls, n, edge_u, edge_v, edge_weight) -> "Graph":
        """Validate and adopt endpoint/weight arrays (copies them)."""
        if not _is_integer(n):
            raise GraphInputError(f"vertex count {n!r} is not an integer")
        if n < 1:
            raise ValueError("a graph needs at least one vertex")
        n = int(n)
        u = _int64_column(edge_u, "endpoint", EndpointRangeError)
        v = _int64_column(edge_v, "endpoint", EndpointRangeError)
        w = _int64_column(edge_weight, "weight", EdgeWeightError)
        if not (u.shape == v.shape == w.shape):
            raise ValueError("endpoint and weight arrays differ in length")
        bad = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        if bad.any():
            i = int(np.argmax(bad))
            raise EndpointRangeError(
                f"edge {i} has endpoint outside [0, {n}): ({int(u[i])}, {int(v[i])})",
                edge_index=i,
            )
        loops = u == v
        if loops.any():
            i = int(np.argmax(loops))
            raise SelfLoopError(
                f"edge {i} is a self-loop at vertex {int(u[i])}", edge_index=i
            )
        light = w < 1
        if light.any():
            i = int(np.argmax(light))
            raise EdgeWeightError(
                f"edge {i} has weight {int(w[i])}, weights must be >= 1",
                edge_index=i,
            )
        # Exact in Python ints without an object-dtype sum: both halves of
        # each weight (>= 1 here) are below 2**32, so their int64 sums
        # cannot wrap for fewer than 2**31 edges.
        total = (int((w >> 31).sum()) << 31) + int((w & (2**31 - 1)).sum())
        if total >= MAX_TOTAL_WEIGHT:
            raise EdgeWeightError(
                f"total edge weight {total} must stay below 2**62 so that "
                "cut sums fit in int64"
            )
        u.setflags(write=False)
        v.setflags(write=False)
        w.setflags(write=False)
        return cls(n=n, edge_u=u, edge_v=v, edge_weight=w)

    @property
    def m(self) -> int:
        return int(self.edge_u.shape[0])

    def iter_edges(self) -> Iterator[tuple[int, int, int]]:
        us, vs, ws = self._edge_lists
        return iter(zip(us, vs, ws))

    @cached_property
    def _edge_lists(self) -> tuple[list[int], list[int], list[int]]:
        return (
            self.edge_u.tolist(),
            self.edge_v.tolist(),
            self.edge_weight.tolist(),
        )

    @cached_property
    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Incidence of every vertex as a CSR triple (offsets, neighbours,
        edge ids): the edges at v are positions offsets[v]:offsets[v + 1],
        sorted by (neighbour, edge id)."""
        csr = _incidence(self.n, self.edge_u, self.edge_v, np.arange(self.m))
        for arr in csr:
            arr.setflags(write=False)
        return csr


def _incidence(
    n: int, u: np.ndarray, v: np.ndarray, edge_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR incidence of the edges edge_ids with endpoints u, v on n
    vertices; each edge appears at both endpoints, and the entries of a
    vertex are sorted by (neighbour, edge id)."""
    src = np.concatenate((u, v))
    dst = np.concatenate((v, u))
    ids = np.concatenate((edge_ids, edge_ids))
    by_vertex = np.lexsort((ids, dst, src))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return offsets, dst[by_vertex], ids[by_vertex]


def _preorder(
    incidence: tuple[np.ndarray, np.ndarray, np.ndarray], root: int
) -> tuple[list[int], list[int], list[int]]:
    """Iterative depth-first traversal from root over a CSR incidence,
    taking each vertex's entries in stored order.  Returns the lists
    (parent, parent edge, preorder) over the vertices reached; parent and
    parent edge are -1 at the root and at every vertex not reached."""
    offsets, nbrs, eids = map(memoryview, incidence)
    n = len(offsets) - 1
    parent = [-1] * n
    parent_edge = [-1] * n
    seen = [False] * n
    seen[root] = True
    order = [root]
    cursor = offsets.tolist()[:-1]
    v = root  # the parent links are the traversal stack
    while v != -1:
        i = cursor[v]
        end = offsets[v + 1]
        while i < end and seen[nbrs[i]]:
            i += 1
        if i == end:
            v = parent[v]
            continue
        cursor[v] = i + 1
        w = nbrs[i]
        seen[w] = True
        parent[w] = v
        parent_edge[w] = eids[i]
        order.append(w)
        v = w
    return parent, parent_edge, order


def build_graph(n: int, edge_list: Iterable[Sequence[int]]) -> Graph:
    """Build a Graph from (u, v) pairs or (u, v, weight) triples.

    Edge ids follow the order of edge_list and omitted weights default
    to one.  Rejects non-integer or out-of-range endpoints, self-loops,
    non-integer weights and weights below one, naming the offending edge
    index, and a total weight of MAX_TOTAL_WEIGHT or more.
    """
    us: list[int] = []
    vs: list[int] = []
    ws: list[int] = []
    for edge in edge_list:
        us.append(edge[0])
        vs.append(edge[1])
        ws.append(edge[2] if len(edge) > 2 else 1)
    return Graph.from_arrays(n, us, vs, ws)


def checked_vertex(graph: Graph, v) -> int:
    """A vertex id of the graph as a plain int.

    Accepts Python and numpy integers in [0, n).  Anything else, a bool,
    a float or a string included, is refused rather than converted,
    because converting it could answer for a different vertex.
    """
    if not _is_integer(v):
        raise QueryError(f"vertex {v!r} is not an integer vertex id")
    if not 0 <= v < graph.n:
        raise QueryError(f"vertex {v} out of range for {graph.n} vertices")
    return int(v)


def checked_limit(max_k) -> int:
    """A query size limit as a plain int; None means DEFAULT_MAX_K.

    Accepts Python and numpy integers and refuses anything else, as
    checked_vertex does, because converting it would move the limit.
    """
    if max_k is None:
        return DEFAULT_MAX_K
    if not _is_integer(max_k):
        raise QueryError(f"size limit {max_k!r} is not an integer")
    return int(max_k)


def checked_vertex_set(graph: Graph, members: Iterable[int]) -> set[int]:
    """Members as a set of checked vertex ids."""
    n = graph.n
    # Plain in-range ints pass as they are; every other value goes through
    # checked_vertex.  Vertex sets can hold most of a large graph.
    return {
        x if type(x) is int and 0 <= x < n else checked_vertex(graph, x)
        for x in members
    }


def cut_edge_set(graph: Graph, members: Iterable[int]) -> set[int]:
    """Ids of edges with exactly one endpoint inside the vertex set."""
    inside = checked_vertex_set(graph, members)
    us, vs, _ = graph._edge_lists
    return {
        eid
        for eid, (a, b) in enumerate(zip(us, vs))
        if (a in inside) != (b in inside)
    }


def cut_size_direct(graph: Graph, members: Iterable[int]) -> int:
    """Total weight of the cut induced by the vertex set.

    Sums weights over cut_edge_set, edge by edge.
    """
    ws = graph._edge_lists[2]
    return sum(ws[eid] for eid in cut_edge_set(graph, members))
