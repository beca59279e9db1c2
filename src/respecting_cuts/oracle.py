"""Definition-level reference computations over the cut set algebra.

Everything here favors the literal definition over speed: sets are
materialized, edges are classified one by one, and no code is shared
with the vectorized query engine beyond the graph module's input checks.
Query sets pass the engine's ``checked_query_set``, so both refuse the
same sets with the same messages: a repeated member is never folded.
Subtrees come from a breadth-first search over the tree's edge ids and
root alone, never from the tree's tables (parent, preorder, discovery
intervals, child lists), so a fault in those tables cannot reach both
sides of a comparison.  Tests use these as ground truth.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

from .errors import KLimitExceeded, QueryError, UniverseMismatchError
from .graph import Graph, _is_integer, checked_limit, checked_query_set, cut_edge_set
from .tree import RootedSpanningTree


def symmetric_difference(sets: Iterable[set], universe: int | None = None) -> set:
    """Elements appearing in an odd number of the given sets.

    All sets must live over one universe; when ``universe`` is given as a
    size, members are checked against range(universe).
    """
    counts: Counter = Counter()
    for s in sets:
        counts.update(s)
    if universe is not None:
        for x in counts:
            if not (_is_integer(x) and 0 <= x < universe):
                raise UniverseMismatchError(
                    f"element {x!r} outside the declared universe of size {universe}"
                )
    return {x for x, c in counts.items() if c % 2}


def xor_size_by_inclusion_exclusion(
    sets: list[set],
    weight: Mapping | None = None,
    max_k: int | None = None,
) -> int:
    """Weighted size of the symmetric difference, via the alternating sum
    over all nonempty subset intersections.

    Computes sum over nonempty J of (-1)^(|J|-1) * 2^(|J|-1) * |intersection
    of sets[j] for j in J|, where |.| sums ``weight`` (default weight 1).
    Enumerates the 2^k - 1 bitmasks directly, so k is capped.
    """
    k = len(sets)
    if k < 1:
        raise QueryError("need at least one set")
    limit = checked_limit(max_k)
    if k > limit:
        raise KLimitExceeded(k, limit)
    total = 0
    for bits in range(1, 1 << k):
        inter: set | None = None
        for j in range(k):
            if bits >> j & 1:
                inter = set(sets[j]) if inter is None else inter & sets[j]
        assert inter is not None
        size = (
            len(inter) if weight is None else sum(weight[x] for x in inter)
        )
        level = bits.bit_count()
        term = (1 << (level - 1)) * size
        total += term if level % 2 else -term
    return total


def _subtrees(tree: RootedSpanningTree, members: Iterable[int]) -> list[set[int]]:
    """Vertex set of each member's subtree, in the order given.

    The subtree of v != root is every vertex that a search from the root
    over the tree edges cannot reach once v is removed.
    """
    graph = tree.graph
    us, vs = graph.edge_u.tolist(), graph.edge_v.tolist()
    nbrs: list[list[int]] = [[] for _ in range(graph.n)]
    for eid in tree.tree_edge_ids.tolist():
        nbrs[us[eid]].append(vs[eid])
        nbrs[vs[eid]].append(us[eid])
    everything = set(range(graph.n))
    out = []
    for v in members:
        seen = {tree.root, v}
        queue = [tree.root]
        for x in queue:
            for y in nbrs[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        seen.discard(v)
        out.append(everything - seen)
    return out


def xor_of_subtrees(tree: RootedSpanningTree, members: Iterable[int]) -> set[int]:
    """Symmetric difference of the subtree vertex sets of the members."""
    mem = checked_query_set(tree.graph, members, tree.root)
    return symmetric_difference(_subtrees(tree, mem))


def oracle_k_wise_gamma(
    graph: Graph, tree: RootedSpanningTree, members: Iterable[int]
) -> int:
    """Weight of edges lying in every member's subtree cut.

    Classifies each edge against each materialized subtree set: the edge
    belongs to a subtree's cut exactly when one endpoint is inside and the
    other outside.
    """
    mem = checked_query_set(tree.graph, members, tree.root)
    if not mem:
        raise QueryError("query set must be nonempty")
    subs = _subtrees(tree, mem)
    total = 0
    for u, v, w in graph.iter_edges():
        if all((u in s) != (v in s) for s in subs):
            total += w
    return total


def check_cut_space_identity(
    graph: Graph, tree: RootedSpanningTree, members: Iterable[int]
) -> bool:
    """Does the cut of the subtree symmetric difference equal the symmetric
    difference of the subtree cuts?

    Both sides are computed set-theoretically from the definitions.
    """
    mem = checked_query_set(tree.graph, members, tree.root)
    lhs = cut_edge_set(graph, xor_of_subtrees(tree, mem))
    rhs = symmetric_difference(
        [cut_edge_set(graph, sub) for sub in _subtrees(tree, mem)]
    )
    return lhs == rhs
