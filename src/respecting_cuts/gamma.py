"""Fast cut-size engine over subtree cuts.

The size of any cut that crosses a rooted spanning tree in exactly k
edges expands, by inclusion-exclusion, into an alternating sum of
intersection sizes of subtree cuts.  Three facts make that sum cheap:

* the intersection size of two subtree cuts falls out of one O(m) pass
  over the edges: an edge counts exactly when it crosses both cuts,
  whether the two subtrees nest or are disjoint;
* for three or more subtrees, the ancestor structure of the query set
  collapses the intersection either to zero or to a single pairwise
  value (the four-way classification below), so the whole sum folds
  into k single values and C(k, 2) signed pairwise values (the pair
  identity in ``k_respecting_cut_size``);
* every subtree cut size itself comes from difference counters summed
  over the subtree, which is one slice of the depth-first preorder, so
  one prefix sum over the preorder gives them all.

Every ancestry test rides on the tree's discovery intervals: the pair
and single values read them through the discovery indices of every
edge's endpoints (``_crossing``), and the lowest-common-ancestor pass
of the subtree cut sizes lifts one endpoint of each edge against them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import KLimitExceeded, QueryError
from .graph import Graph, checked_limit, checked_vertex_set
from .tree import RootedSpanningTree


class CaseTag(enum.Enum):
    """Outcome of classifying a query set by ancestor structure."""

    BASE_SINGLE = "BASE_SINGLE"
    BASE_PAIR = "BASE_PAIR"
    CASE1_ALL_INDEPENDENT = "CASE1_ALL_INDEPENDENT"
    CASE2_CHAIN = "CASE2_CHAIN"
    CASE3_BRANCHING_UNDER_ANCESTOR = "CASE3_BRANCHING_UNDER_ANCESTOR"
    CASE4_ELIMINABLE = "CASE4_ELIMINABLE"


@dataclass(frozen=True)
class GammaCase:
    """Classification of a query set.

    ``pair`` carries the (deepest, shallowest) witness for CASE2_CHAIN;
    ``eliminated`` carries the removable vertex for CASE4_ELIMINABLE.
    """

    tag: CaseTag
    pair: tuple[int, int] | None = None
    eliminated: int | None = None


def _validated_members(
    tree: RootedSpanningTree, members: Iterable[int]
) -> list[int]:
    mlist = list(members)
    mset = checked_vertex_set(tree.graph, mlist)
    if len(mset) != len(mlist):
        raise QueryError("duplicate vertices in query set")
    if not mset:
        raise QueryError("query set must be nonempty")
    if tree.root in mset:
        raise QueryError(f"root {tree.root} cannot appear in a query set")
    return sorted(mset)


def _classify(tree: RootedSpanningTree, mem: list[int]) -> GammaCase:
    """Classify a validated, sorted, duplicate-free query set."""
    k = len(mem)
    if k == 1:
        return GammaCase(CaseTag.BASE_SINGLE)
    if k == 2:
        return GammaCase(CaseTag.BASE_PAIR)
    desc = tree.is_descendant
    depth = tree._depth
    participants: set[int] = set()
    for i in range(k):
        x = mem[i]
        for j in range(i + 1, k):
            y = mem[j]
            if desc(x, y) or desc(y, x):
                participants.add(x)
                participants.add(y)
    if not participants:
        return GammaCase(CaseTag.CASE1_ALL_INDEPENDENT)
    by_depth = sorted(mem, key=lambda v: (depth[v], v))
    head = by_depth[0]
    if all(desc(y, head) for y in by_depth[1:]):
        # Everything sits under one member.  A chain means each member
        # inside the previous one; distinct members at equal depth fail.
        chain = True
        prev = by_depth[0]
        for y in by_depth[1:]:
            if not desc(y, prev):
                chain = False
                break
            prev = y
        if chain:
            return GammaCase(
                CaseTag.CASE2_CHAIN, pair=(by_depth[-1], by_depth[0])
            )
        return GammaCase(CaseTag.CASE3_BRANCHING_UNDER_ANCESTOR)
    # No member dominates all others: the shallowest member of any
    # comparable pair can be dropped without changing the intersection.
    a = min(participants, key=lambda v: (depth[v], v))
    return GammaCase(CaseTag.CASE4_ELIMINABLE, eliminated=a)


def classify_gamma_case(
    tree: RootedSpanningTree, members: Iterable[int]
) -> GammaCase:
    """Classify a query set of non-root vertices by ancestor structure.

    Sets of size one and two are the base cases; for size three and up
    the four cases are: all members pairwise independent (value 0), a
    chain under the ancestor order (value = pairwise value of deepest
    and shallowest), branching strictly under a common member (value 0),
    and otherwise an eliminable shallowest member whose removal keeps
    the intersection unchanged.
    """
    return _classify(tree, _validated_members(tree, members))


def _crossing(tree: RootedSpanningTree, v: int) -> np.ndarray:
    """Mask of the edges in the subtree cut of v: exactly one endpoint's
    discovery index lies in [euler_in(v), euler_out(v)].

    Every single and pairwise value reads the edges through this mask
    alone; an edge lies in both of two subtree cuts exactly when it
    crosses each, whether the subtrees nest or are disjoint.
    """
    tin = tree.edge_euler_in
    inside = (tin >= tree._tin[v]) & (tin <= tree._tout[v])
    return inside[0] ^ inside[1]


def pairwise_gamma(
    graph: Graph, tree: RootedSpanningTree, x: int, y: int
) -> int:
    """Intersection size of the subtree cuts of two distinct non-root
    vertices, as a weight sum."""
    return GammaTable(graph, tree).pair(x, y)


def _ancestor_table(tree: RootedSpanningTree) -> np.ndarray:
    """Binary-lifting table; row j holds the 2^j-th ancestor (root fixed).
    No lift is longer than the tree's height, so the rows stop there."""
    levels = max(1, int(tree.depth.max()).bit_length())
    up = np.empty((levels, tree.graph.n), dtype=tree.parent.dtype)
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


def all_subtree_cut_sizes(
    graph: Graph, tree: RootedSpanningTree
) -> dict[int, int]:
    """Cut size of every subtree, keyed by its non-root top vertex, in
    ascending vertex order.

    Each edge adds its weight at both endpoints and removes twice its
    weight at their lowest common ancestor; summing those counters over
    the subtree of v leaves exactly the weight of edges with one endpoint
    inside it.  Tree edges follow the same rule (their lowest common
    ancestor is the parent endpoint), so one uniform pass covers the
    whole edge list.  The subtree of v is the preorder slice
    [euler_in(v), euler_out(v)], so with S the prefix sums of the
    counters in preorder, its cut size is S[euler_out(v) + 1] -
    S[euler_in(v)].
    """
    _check_tree_graph(graph, tree)
    n = graph.n
    diff = np.zeros(n, dtype=np.int64)
    up = _ancestor_table(tree)
    u, v, w = graph.edge_u, graph.edge_v, graph.edge_weight
    np.add.at(diff, u, w)
    np.add.at(diff, v, w)
    for lo in range(0, graph.m, _LCA_CHUNK):
        hi = lo + _LCA_CHUNK
        lca = _lca_batch(tree, up, u[lo:hi], v[lo:hi])
        np.subtract.at(diff, lca, 2 * w[lo:hi])
    prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(diff[tree.order], out=prefix[1:])
    sizes = dict(
        enumerate((prefix[tree.euler_out + 1] - prefix[tree.euler_in]).tolist())
    )
    del sizes[tree.root]
    return sizes


class GammaTable:
    """Lazy per-(graph, tree) cache of subtree cut sizes and pairwise
    intersection sizes.

    Entries are symmetric and filled on demand by one vectorized O(m)
    pass over ``_crossing`` masks each.  A table answers only for the
    graph and tree it was built for; the query functions refuse any other.
    """

    def __init__(self, graph: Graph, tree: RootedSpanningTree):
        _check_tree_graph(graph, tree)
        self.graph = graph
        self.tree = tree
        self._singles: dict[int, int] = {}
        self._pairs: dict[tuple[int, int], int] = {}

    def single(self, v: int) -> int:
        """Cut size of the subtree of v."""
        (v,) = _validated_members(self.tree, (v,))
        return self._single(v)

    def pair(self, x: int, y: int) -> int:
        """Intersection size of the subtree cuts of x and y."""
        x, y = _validated_members(self.tree, (x, y))
        return self._pair(x, y)

    # The lookups below take vertices already validated by the caller.

    def _single(self, v: int) -> int:
        val = self._singles.get(v)
        if val is None:
            val = self._weight(_crossing(self.tree, v))
            self._singles[v] = val
        return val

    def _pair(self, x: int, y: int) -> int:
        key = (x, y) if x < y else (y, x)
        val = self._pairs.get(key)
        if val is None:
            tree = self.tree
            val = self._weight(_crossing(tree, x) & _crossing(tree, y))
            self._pairs[key] = val
        return val

    def _weight(self, edges: np.ndarray) -> int:
        return int(self.graph.edge_weight[edges].sum())


def _check_tree_graph(graph: Graph, tree: RootedSpanningTree) -> None:
    if tree.graph is not graph:
        raise QueryError("tree was built for a different graph")


def _own_table(
    graph: Graph, tree: RootedSpanningTree, table: GammaTable | None
) -> GammaTable:
    if table is None:
        return GammaTable(graph, tree)
    if table.graph is not graph or table.tree is not tree:
        raise QueryError("table was built for a different graph or tree")
    return table


def k_wise_gamma(
    graph: Graph,
    tree: RootedSpanningTree,
    members: Iterable[int],
    table: GammaTable | None = None,
) -> int:
    """Intersection size of the subtree cuts of all members.

    Follows the classification: an eliminable set drops its witness and
    is classified again, base cases read the single or pairwise value,
    the chain case reads its witness pair, and the independent and
    branching cases are zero.
    """
    mem = _validated_members(tree, members)
    tab = _own_table(graph, tree, table)
    while True:
        case = _classify(tree, mem)
        tag = case.tag
        if tag is CaseTag.CASE4_ELIMINABLE:
            mem.remove(case.eliminated)
        elif tag is CaseTag.BASE_SINGLE:
            return tab._single(mem[0])
        elif tag is CaseTag.BASE_PAIR:
            return tab._pair(mem[0], mem[1])
        elif tag is CaseTag.CASE2_CHAIN:
            return tab._pair(*case.pair)
        else:
            return 0


def k_respecting_cut_size(
    graph: Graph,
    tree: RootedSpanningTree,
    members: Iterable[int],
    table: GammaTable | None = None,
    max_k: int | None = None,
) -> int:
    """Size of the unique cut whose crossing tree edges are exactly the
    parent edges of the members.

    The alternating sum over all subsets of the members folds into the
    pair identity |cut| = sum_v delta(v) - 2 sum_{x<y} (-1)^t(x,y)
    gamma(x, y), where t(x, y) counts the other members strictly inside
    the tree path x..y, its lowest common ancestor excluded.  A query
    reads k single and C(k, 2) pairwise values, in exact integers.
    """
    mem = _validated_members(tree, members)
    limit = checked_limit(max_k)
    if len(mem) > limit:
        raise KLimitExceeded(len(mem), limit)
    tab = _own_table(graph, tree, table)
    desc = tree.is_descendant
    # Bit j of above[i] is set when mem[j] is mem[i] or an ancestor of it,
    # so above[i] ^ above[j] marks the members on the path from i to j.
    above = [sum(1 << j for j, z in enumerate(mem) if desc(x, z)) for x in mem]
    total = sum(tab._single(v) for v in mem)
    for i in range(len(mem)):
        for j in range(i + 1, len(mem)):
            inside = (above[i] ^ above[j]) & ~((1 << i) | (1 << j))
            value = 2 * tab._pair(mem[i], mem[j])
            total += value if inside.bit_count() % 2 else -value
    if total < 0:
        raise ArithmeticError(f"pair identity gave a negative cut {total}")
    return total


def cut_size_via_tree(
    graph: Graph,
    tree: RootedSpanningTree,
    members: Iterable[int],
    table: GammaTable | None = None,
    max_k: int | None = None,
) -> tuple[int, frozenset[int]]:
    """Cut size of a vertex set, computed through the tree decomposition.

    Decomposes the cut into its subtree basis, then evaluates the pair
    identity.  Returns (size, basis).  Raises KLimitExceeded, naming the
    offending k, when the basis outgrows the limit.
    """
    basis, _complemented = tree.decompose_cut_as_xor_basis(members)
    size = k_respecting_cut_size(
        graph, tree, basis, table=table, max_k=max_k
    )
    return size, frozenset(basis)
