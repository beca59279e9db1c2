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
_INT32_MAX = int(np.iinfo(np.int32).max)


def _is_integer(x) -> bool:
    """A Python or numpy integer; bools count as not integers."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, (bool, np.bool_))


def _int64_column(
    field: str, values, what: str, error: type[GraphInputError]
) -> np.ndarray:
    """One edge field as an int64 array.  A field that is not
    one-dimensional is rejected, naming the field, and so is an entry
    that is not an integer (a float, a bool, a string) or does not fit in
    int64, naming its edge: flattening or converting would change the
    graph."""
    try:
        column = np.array(values)
    except ValueError:  # numpy refuses ragged nestings of sequences
        raise GraphInputError(f"{field} must be one-dimensional, not ragged") from None
    if column.ndim != 1:
        raise GraphInputError(
            f"{field} must be one-dimensional, got shape {column.shape}"
        )
    exact = column.dtype.kind == "i"
    if exact and isinstance(values, (list, tuple)):
        # np.asarray reads bools mixed with ints as ints.
        exact = not {bool, np.bool_} & set(map(type, values))
    if column.size and not exact:
        for i, x in enumerate(np.asarray(values, dtype=object)):
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
        u = _int64_column("edge_u", edge_u, "endpoint", EndpointRangeError)
        v = _int64_column("edge_v", edge_v, "endpoint", EndpointRangeError)
        w = _int64_column("edge_weight", edge_weight, "weight", EdgeWeightError)
        if not (u.shape == v.shape == w.shape):
            raise GraphInputError("endpoint and weight arrays differ in length")
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
        return zip(
            self.edge_u.tolist(), self.edge_v.tolist(), self.edge_weight.tolist()
        )

    @cached_property
    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Incidence of every vertex as a CSR triple (offsets, neighbours,
        edge ids): the edges at v are positions offsets[v]:offsets[v + 1],
        sorted by (neighbour, edge id), as one in-place sort of the edges'
        arcs by packed keys leaves them (see _arc_order).  Offsets are
        int64; neighbours and edge ids are int32 while n and m fit in it
        (see _index_dtype).  At n=1e5, m=5e5 the build peaks at 16.9 MB
        under tracemalloc, about 17 bytes an arc."""
        csr = _incidence(self.n, self.edge_u, self.edge_v)
        for arr in csr:
            arr.setflags(write=False)
        return csr


def _index_dtype(*bounds: int) -> type[np.signedinteger]:
    """The dtype of an index array whose entries stay below every bound:
    int32 while each bound fits in it, which halves what the array
    costs, int64 otherwise."""
    return np.int32 if max(bounds, default=0) <= _INT32_MAX else np.int64


# Bits of the sort keys of _arc_order (see _one_pass).
_KEY_BITS = 64


def _one_pass(n: int, shift: int) -> bool:
    """Whether _arc_order sorts the arcs on n vertices in one pass, with
    shift the bit width of their ids: whether every key
    (source * n + destination) << shift | arc id, below n * n << shift,
    fits in _KEY_BITS bits."""
    return n * n << shift <= 1 << _KEY_BITS


def _sorted_ids(key: np.ndarray, shift: int) -> np.ndarray:
    """Sort the uint64 keys in place and return the ids in their low
    shift bits, in key order, as an int64 view of the same array."""
    key.sort()
    key &= (1 << shift) - 1
    return key.view(np.int64)


def _arc_order(n: int, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort the arcs of the edges whose endpoints ``ends`` interleaves
    (u0, v0, u1, v1, ...): arc j runs from ends[j] to ends[j ^ 1], so it
    belongs to edge j >> 1.  Returns the CSR offsets of the arcs by
    source on n vertices and the arc ids sorted by (source, destination,
    arc id); within one source that is (neighbour, edge id) order.

    Each arc's key packs its (source, destination) digit above its id,
    so one in-place sort of the keys leaves parallel edges in id order.
    When source * n + destination does not fit beside the id, the digit
    is the destination, and a second sort by source, packed above each
    arc's place in the first order, keeps that order among equal sources
    (least significant digit first)."""
    arcs = len(ends)
    # Counted before the keys exist: bincount casts ends to int64.
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=n), out=offsets[1:])
    shift = max(arcs - 1, 0).bit_length()  # bits of an arc id
    scale = n if _one_pass(n, shift) else 0  # the source's weight in the digit
    key = np.arange(arcs, dtype=np.uint64)
    # Arc 2e + col runs from pairs[e, col] to pairs[e, 1 - col].
    pairs, keys = ends.reshape(-1, 2), key.reshape(-1, 2)
    digit = np.empty(len(pairs), dtype=np.uint64)
    for col in (0, 1):
        src, dst = pairs[:, col], pairs[:, 1 - col]
        np.multiply(src, scale, out=digit, dtype=np.uint64, casting="unsafe")
        np.add(digit, dst, out=digit, dtype=np.uint64, casting="unsafe")
        digit <<= shift
        keys[:, col] |= digit
    order = _sorted_ids(key, shift)
    if not scale:  # by source, above each arc's place in the first order
        key = np.arange(arcs, dtype=np.uint64)
        key |= np.left_shift(ends[order], shift, dtype=np.uint64, casting="unsafe")
        order = order[_sorted_ids(key, shift)]
    return offsets, order


def _incidence(
    n: int, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR incidence (offsets, neighbours, edge ids) of the edges with
    endpoints u, v on n vertices, edge ids being positions in u and v;
    each edge appears at both endpoints, and the entries of a vertex are
    sorted by (neighbour, edge id)."""
    dtype = _index_dtype(n, len(u))
    ends = np.stack((u, v), axis=1, dtype=dtype).ravel()
    offsets, order = _arc_order(n, ends)
    order ^= 1  # each arc's twin, which starts where the arc ends
    nbrs = ends[order]
    del ends
    order >>= 1  # the twins' edges are the arcs' edges
    return offsets, nbrs, order.astype(dtype)


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
    to one.  Rejects edges that are not sequences of two or three
    fields, non-integer or out-of-range endpoints, self-loops,
    non-integer weights and weights below one, naming the offending edge
    index, and a total weight of MAX_TOTAL_WEIGHT or more.
    """
    us: list[int] = []
    vs: list[int] = []
    ws: list[int] = []
    for i, edge in enumerate(edge_list):
        try:
            fields = len(edge)
        except TypeError:  # not a sequence at all
            fields = 0
        if fields not in (2, 3):
            raise GraphInputError(
                f"edge {i} is {edge!r}, not (u, v) or (u, v, weight)",
                edge_index=i,
            )
        us.append(edge[0])
        vs.append(edge[1])
        ws.append(edge[2] if fields == 3 else 1)
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

    Refuses anything but a Python or numpy integer of at least 1: a
    converted limit would move, and one below 1 would refuse every query.
    """
    if max_k is None:
        return DEFAULT_MAX_K
    if not (_is_integer(max_k) and max_k >= 1):
        raise QueryError(f"size limit {max_k!r} is not an integer of at least 1")
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


def checked_query_set(graph: Graph, members: Iterable[int], root: int) -> list[int]:
    """Members as a sorted list of distinct, checked, non-root vertex ids.

    A repeated member is refused, not folded, because the subtree of a
    vertex taken twice cancels out of a symmetric difference.
    """
    listed = list(members)
    distinct = checked_vertex_set(graph, listed)
    if len(distinct) != len(listed):
        raise QueryError("duplicate vertices in query set")
    if root in distinct:
        raise QueryError(f"root {root} cannot appear in a query set")
    return sorted(distinct)


def cut_edge_set(graph: Graph, members: Iterable[int]) -> set[int]:
    """Ids of edges with exactly one endpoint inside the vertex set."""
    inside = checked_vertex_set(graph, members)
    us, vs = graph.edge_u.tolist(), graph.edge_v.tolist()
    return {
        eid
        for eid, (a, b) in enumerate(zip(us, vs))
        if (a in inside) != (b in inside)
    }


def cut_size_direct(graph: Graph, members: Iterable[int]) -> int:
    """Total weight of the cut induced by the vertex set.

    Sums weights over cut_edge_set, edge by edge.
    """
    ws = graph.edge_weight.tolist()
    return sum(ws[eid] for eid in cut_edge_set(graph, members))
