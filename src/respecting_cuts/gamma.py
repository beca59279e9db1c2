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
* every single value, a subtree cut size, is one entry of the tree's
  ``subtree_cut`` table, which one lowest-common-ancestor pass and one
  prefix sum over the depth-first preorder fill once per tree.

Every ancestry test rides on the tree's discovery intervals: the pair
values read them through the discovery indices of every edge's
endpoints (``_crossing``), the lowest-common-ancestor pass behind
``subtree_cut`` lifts one endpoint of each edge against them, and a
query set reads them once, into the ancestor bitmasks of ``_above``.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Iterable

import numpy as np

from .errors import KLimitExceeded, QueryError
from .graph import Graph, checked_limit, checked_query_set
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
    mem = checked_query_set(tree.graph, members, tree.root)
    if not mem:
        raise QueryError("query set must be nonempty")
    return mem


def _above(tree: RootedSpanningTree, mem: list[int]) -> list[int]:
    """Ancestry of a query set as bitmasks: bit j of above[i] is set when
    mem[j] is mem[i] or an ancestor of it.  The members' discovery
    intervals are read in one gather."""
    tin = tree.euler_in[mem].tolist()
    tout = tree.euler_out[mem].tolist()
    js = range(len(mem))
    return [sum(1 << j for j in js if tin[j] <= t <= tout[j]) for t in tin]


def _classify(tree: RootedSpanningTree, mem: list[int]) -> GammaCase:
    """Classify a validated, sorted, duplicate-free query set."""
    k = len(mem)
    if k == 1:
        return GammaCase(CaseTag.BASE_SINGLE)
    if k == 2:
        return GammaCase(CaseTag.BASE_PAIR)
    above = _above(tree, mem)
    # A member's rank counts itself and its ancestors in the set, so the
    # ranks sum to k plus the number of nested pairs.
    ranks = [a.bit_count() for a in above]
    nested = sum(ranks) - k
    if nested == 0:
        return GammaCase(CaseTag.CASE1_ALL_INDEPENDENT)
    if nested == k * (k - 1) // 2:
        pair = (mem[ranks.index(k)], mem[ranks.index(1)])
        return GammaCase(CaseTag.CASE2_CHAIN, pair=pair)
    if reduce(operator.and_, above):
        return GammaCase(CaseTag.CASE3_BRANCHING_UNDER_ANCESTOR)
    # No member dominates all others: the shallowest member of any nested
    # pair can be dropped without changing the intersection.  It is the
    # ancestor in its pair, so only members above another one compete.
    ancestors = reduce(operator.or_, (a ^ (1 << i) for i, a in enumerate(above)))
    tops = [v for j, v in enumerate(mem) if ancestors >> j & 1]
    depth = tree.depth
    a = min(tops, key=lambda v: (depth[v], v))
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

    Every pairwise value reads the edges through this mask alone; an edge
    lies in both of two subtree cuts exactly when it crosses each,
    whether the subtrees nest or are disjoint.
    """
    tin = tree.edge_euler_in
    inside = (tin >= tree.euler_in[v]) & (tin <= tree.euler_out[v])
    return inside[0] ^ inside[1]


def pairwise_gamma(
    graph: Graph, tree: RootedSpanningTree, x: int, y: int
) -> int:
    """Intersection size of the subtree cuts of two distinct non-root
    vertices, as a weight sum."""
    return GammaTable(graph, tree).pair(x, y)


def all_subtree_cut_sizes(
    graph: Graph, tree: RootedSpanningTree
) -> dict[int, int]:
    """Cut size of every subtree, keyed by its non-root top vertex, in
    ascending vertex order: the tree's ``subtree_cut`` table."""
    _check_tree_graph(graph, tree)
    sizes = dict(enumerate(tree.subtree_cut.tolist()))
    del sizes[tree.root]
    return sizes


class GammaTable:
    """Lazy per-(graph, tree) cache of pairwise intersection sizes.

    Pair entries are symmetric and filled on demand by one vectorized
    O(m) pass over ``_crossing`` masks each; single values live in the
    tree's ``subtree_cut`` table.  A table answers only for the graph and
    tree it was built for; the query functions refuse any other.
    """

    def __init__(self, graph: Graph, tree: RootedSpanningTree):
        _check_tree_graph(graph, tree)
        self.graph = graph
        self.tree = tree
        self._pairs: dict[tuple[int, int], int] = {}

    def pair(self, x: int, y: int) -> int:
        """Intersection size of the subtree cuts of x and y."""
        x, y = _validated_members(self.tree, (x, y))
        return self._pair(x, y)

    def _pair(self, x: int, y: int) -> int:  # x, y validated by the caller
        key = (x, y) if x < y else (y, x)
        val = self._pairs.get(key)
        if val is None:
            both = _crossing(self.tree, x) & _crossing(self.tree, y)
            val = int(self.graph.edge_weight[both].sum())
            self._pairs[key] = val
        return val


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
            return int(tree.subtree_cut[mem[0]])
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
    reads its k singles from the tree's ``subtree_cut`` table in one
    gather and C(k, 2) pairwise values, and sums them in exact integers.
    """
    mem = _validated_members(tree, members)
    limit = checked_limit(max_k)
    if len(mem) > limit:
        raise KLimitExceeded(len(mem), limit)
    tab = _own_table(graph, tree, table)
    # above[i] ^ above[j] marks the members on the path from i to j.
    above = _above(tree, mem)
    # Summed as Python ints: k singles, each below 2^62, may pass int64.
    total = sum(tree.subtree_cut[mem].tolist())
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
