"""Randomized and exhaustive verification sweeps.

Every sweep pits the fast query engine against the definition-level
reference computations on seeded corpora and reports counts plus the
first counterexample, serialized fully so a failure can be replayed.

Instances come from one seeded master stream through ``_draw_graph``,
``_draw_tree`` and ``_draw_query``.  The order of the master draws is
part of each acceptance corpus: reordering, adding or dropping one
silently changes what every gate checks.

Every engine call that takes a size limit passes ``graph.n`` as
``max_k``: the limit guards users against slow queries, and the checker
must reach every set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .gamma import (
    CaseTag,
    GammaTable,
    classify_gamma_case,
    cut_size_via_tree,
    k_respecting_cut_size,
    k_wise_gamma,
    pairwise_gamma,
)
from .generators import STRATEGIES, gen_connected_graph, gen_query_set, gen_spanning_tree
from .generators import _generator, seed_sequence
from .graph import Graph, cut_edge_set, cut_size_direct
from .oracle import check_cut_space_identity, oracle_k_wise_gamma, xor_of_subtrees
from .tree import RootedSpanningTree


@dataclass
class SweepReport:
    """Outcome of one verification sweep."""

    graphs: int = 0
    comparisons: int = 0
    mismatches: int = 0
    case_counts: dict[str, int] = field(default_factory=dict)
    counterexample: dict | None = None

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


def _master(seed: int) -> np.random.Generator:
    return _generator(seed_sequence(seed))


def _next_seed(master: np.random.Generator) -> int:
    return int(master.integers(0, 2**63))


def _draw_graph(master, n_lo: int, n_hi: int, m_max=None, weighted=False) -> Graph:
    """Connected graph with n in [n_lo, n_hi] and m in [n - 1, m_max]
    (2n by default); weighted graphs get fresh uniform weights in [1, 10]."""
    n = int(master.integers(n_lo, n_hi + 1))
    m = int(master.integers(n - 1, (2 * n if m_max is None else m_max) + 1))
    graph = gen_connected_graph(n, m, _next_seed(master))
    if weighted:
        w = master.integers(1, 11, size=m)
        graph = Graph.from_arrays(n, graph.edge_u, graph.edge_v, w)
    return graph


def _draw_tree(master, graph: Graph, strategy: str) -> RootedSpanningTree:
    root = int(master.integers(0, graph.n))
    return gen_spanning_tree(graph, root, _next_seed(master), strategy)


def _draw_query(master, tree: RootedSpanningTree, k_max: int) -> set[int]:
    """Between one and k_max distinct non-root vertices."""
    k = int(master.integers(1, k_max + 1))
    return gen_query_set(tree, k, _next_seed(master))


def _fail(rep, graph, tree, **payload) -> SweepReport:
    """Count a mismatch and keep a replayable description of its instance."""
    rep.mismatches += 1
    rep.counterexample = {
        "n": graph.n,
        "edges": [[u, v, w] for u, v, w in graph.iter_edges()],
        "root": tree.root,
        "tree_edges": tree.tree_edge_ids.tolist(),
        **payload,
    }
    return rep


def _compare(rep, graph, tree, actual, expected, **payload) -> SweepReport | None:
    """Count one comparison of a value against its reference.  Like every
    check below, returns rep once it records a mismatch, else None."""
    rep.comparisons += 1
    if actual == expected:
        return None
    return _fail(rep, graph, tree, **payload, expected=expected, actual=actual)


def _check_cut_sizes(rep, graph, tree, table, masks) -> SweepReport | None:
    """Tree-route cut size against the direct cut size of each vertex set,
    given as a bitmask over the vertices."""
    for bits in masks:
        members = {v for v in range(graph.n) if bits >> v & 1}
        expected = cut_size_direct(graph, members)
        actual, basis = cut_size_via_tree(
            graph, tree, members, table=table, max_k=graph.n
        )
        if _compare(
            rep,
            graph,
            tree,
            actual,
            expected,
            vertex_set=sorted(members),
            basis=sorted(basis),
            kind="cut_size_via_tree vs cut_size_direct",
        ):
            return rep
    return None


def _check_dichotomy(rep, graph, tree, table, members: set[int]) -> SweepReport | None:
    """Count the set's case; for two or more members, the k-wise value is
    zero or equals one of the pairwise values over the set."""
    tag = classify_gamma_case(tree, members).tag.value
    rep.case_counts[tag] = rep.case_counts.get(tag, 0) + 1
    if len(members) < 2:
        return None
    value = k_wise_gamma(graph, tree, members, table=table)
    rep.comparisons += 1
    if value == 0:
        return None
    pairs = itertools.combinations(sorted(members), 2)
    pair_values = {table.pair(x, y) for x, y in pairs}
    if value in pair_values:
        return None
    return _fail(
        rep,
        graph,
        tree,
        set=sorted(members),
        actual=value,
        pairwise=sorted(pair_values),
        kind="k-wise value neither zero nor any pairwise value",
    )


def _check_identity(rep, graph, tree, members: set[int]) -> SweepReport | None:
    """The cut of the subtree symmetric difference equals the symmetric
    difference of the subtree cuts."""
    rep.comparisons += 1
    if check_cut_space_identity(graph, tree, members):
        return None
    return _fail(rep, graph, tree, set=sorted(members), kind="cut space identity")


def exhaustive_cut_sweep(
    num_graphs: int = 200,
    n_lo: int = 3,
    n_hi: int = 8,
    m_max: int = 14,
    seed: int = 0,
    weighted: bool = False,
    strategies: tuple[str, ...] = ("bfs", "uniform"),
) -> SweepReport:
    """Tree-route cut size against the direct cut size for every proper
    nonempty vertex set of every seeded graph."""
    master = _master(seed)
    rep = SweepReport()
    for _ in range(num_graphs):
        graph = _draw_graph(master, n_lo, n_hi, m_max, weighted)
        rep.graphs += 1
        for strategy in strategies:
            tree = _draw_tree(master, graph, strategy)
            masks = range(1, (1 << graph.n) - 1)
            if _check_cut_sizes(rep, graph, tree, GammaTable(graph, tree), masks):
                return rep
    return rep


def random_set_sweep(
    trials: int = 10_000,
    n_max: int = 200,
    k_max: int = 8,
    seed: int = 0,
    weighted: bool = False,
) -> SweepReport:
    """Random (graph, tree, query set) instances.

    Checks, per instance: the alternating-sum cut size against the direct
    cut size of the materialized subtree symmetric difference, and (for
    sets of two or more) that the k-wise value is zero or equals one of
    the pairwise values over the set.
    """
    master = _master(seed)
    rep = SweepReport()
    for trial in range(trials):
        graph = _draw_graph(master, 3, n_max, weighted=weighted)
        tree = _draw_tree(master, graph, STRATEGIES[trial % len(STRATEGIES)])
        members = _draw_query(master, tree, min(k_max, graph.n - 1))
        table = GammaTable(graph, tree)
        rep.graphs += 1

        size = k_respecting_cut_size(
            graph, tree, members, table=table, max_k=graph.n
        )
        expected = cut_size_direct(graph, xor_of_subtrees(tree, members))
        kind = "k_respecting_cut_size vs direct cut of xor"
        if _compare(
            rep, graph, tree, size, expected, set=sorted(members), kind=kind
        ) or _check_dichotomy(rep, graph, tree, table, members):
            return rep
    return rep


_CASE_TAGS = (
    CaseTag.CASE1_ALL_INDEPENDENT,
    CaseTag.CASE2_CHAIN,
    CaseTag.CASE3_BRANCHING_UNDER_ANCESTOR,
    CaseTag.CASE4_ELIMINABLE,
)


def _case_query_candidates(
    tree: RootedSpanningTree, master: np.random.Generator, k_cap: int = 8
) -> list[set[int]]:
    """Query sets biased toward each classification outcome.

    Random sets, root-path samples (chains), a branching vertex with one
    pick per child subtree, root-child siblings (independent), and a
    parent-child pair plus an outside vertex (eliminable).
    """
    n = tree.graph.n
    root = tree.root
    non_root = [v for v in range(n) if v != root]
    out: list[set[int]] = []
    if len(non_root) < 3:
        return out

    def sample(pool: list[int], k: int) -> set[int]:
        idx = master.choice(len(pool), size=k, replace=False)
        return {pool[int(i)] for i in idx}

    for _ in range(3):
        k = int(master.integers(3, min(k_cap, len(non_root)) + 1))
        out.append(sample(non_root, k))

    deepest = max(non_root, key=lambda v: (tree.depth_of(v), v))
    path = tree.root_path(deepest)[1:]
    if len(path) >= 3:
        k = int(master.integers(3, min(k_cap, len(path)) + 1))
        out.append(sample(path, k))

    root_kids = tree.children[root]
    if len(root_kids) >= 3:
        out.append(sample(root_kids, 3))

    branching = [
        v
        for v in non_root
        if len(tree.children[v]) >= 2
    ]
    if branching:
        v = branching[int(master.integers(0, len(branching)))]
        kids = tree.children[v]
        picks = master.choice(len(kids), size=2, replace=False)
        chosen = {v}
        for i in picks:
            members = sorted(tree.subtree_members(kids[int(i)]))
            chosen.add(members[int(master.integers(0, len(members)))])
        out.append(chosen)

    internal = [v for v in non_root if tree.children[v]]
    if internal:
        v = internal[int(master.integers(0, len(internal)))]
        kids = tree.children[v]
        child = kids[int(master.integers(0, len(kids)))]
        outside = [u for u in non_root if not tree.is_descendant(u, v)]
        if outside:
            u = outside[int(master.integers(0, len(outside)))]
            out.append({v, child, u})
    return out


def case_soundness_sweep(
    per_case: int = 1000,
    seed: int = 0,
    n_lo: int = 6,
    n_hi: int = 36,
    max_graphs: int = 20_000,
) -> SweepReport:
    """Per-case oracle checks until every case has per_case instances.

    Tree shapes are biased (breadth-first trees run shallow, depth-first
    trees run deep, uniform trees sit in between) and query sets are
    drawn both at random and by targeted construction, so all four cases
    appear.  Each classified set is checked against the definition-level
    oracle according to its case.
    """
    master = _master(seed)
    rep = SweepReport()
    counts = rep.case_counts = {tag.value: 0 for tag in _CASE_TAGS}
    while (
        any(counts[tag.value] < per_case for tag in _CASE_TAGS)
        and rep.graphs < max_graphs
    ):
        graph = _draw_graph(master, n_lo, n_hi)
        tree = _draw_tree(master, graph, STRATEGIES[rep.graphs % len(STRATEGIES)])
        rep.graphs += 1
        for members in _case_query_candidates(tree, master):
            if len(members) < 3:
                continue
            case = classify_gamma_case(tree, members)
            tag = case.tag
            if tag not in _CASE_TAGS or counts[tag.value] >= per_case:
                continue
            value = oracle_k_wise_gamma(graph, tree, members)
            if tag in (
                CaseTag.CASE1_ALL_INDEPENDENT,
                CaseTag.CASE3_BRANCHING_UNDER_ANCESTOR,
            ):
                expected = 0
            elif tag is CaseTag.CASE2_CHAIN:
                assert case.pair is not None
                expected = pairwise_gamma(graph, tree, *case.pair)
            else:
                assert case.eliminated is not None
                expected = oracle_k_wise_gamma(
                    graph, tree, members - {case.eliminated}
                )
            counts[tag.value] += 1
            if _compare(
                rep,
                graph,
                tree,
                value,
                expected,
                set=sorted(members),
                case=tag.value,
                kind="per-case oracle check",
            ):
                return rep
    return rep


def cut_space_identity_sweep(
    trials: int = 500, n_max: int = 12, seed: int = 0
) -> SweepReport:
    """The cut of a subtree symmetric difference must equal the symmetric
    difference of the subtree cuts, on random instances."""
    master = _master(seed)
    rep = SweepReport()
    for trial in range(trials):
        graph = _draw_graph(master, 2, n_max)
        tree = _draw_tree(master, graph, STRATEGIES[trial % len(STRATEGIES)])
        members = _draw_query(master, tree, graph.n - 1)
        rep.graphs += 1
        if _check_identity(rep, graph, tree, members):
            return rep
    return rep


def two_respecting_sweep(
    trials: int = 300, n_max: int = 40, k_max: int = 8, seed: int = 0
) -> SweepReport:
    """The paper's closed form, read literally from definition-level cuts.

    Per instance, with S(v) the subtree of v: delta(v) is the cut size of
    S(v), C2(x, y) the 2-respecting cut size of S(x) xor S(y), and t(x, y)
    counts the other members z whose subtree holds exactly one of x and
    y.  Then sum_v delta(v) - sum_{x<y} (-1)^t(x,y) (delta(x) + delta(y)
    - C2(x, y)) must equal both the direct cut size of the members' xor
    of subtrees and k_respecting_cut_size.  Every term comes from
    materialized subtrees, so no tree table is read.  Trees cycle through
    the strategies and every second graph is weighted.
    """
    master = _master(seed)
    rep = SweepReport()
    for trial in range(trials):
        graph = _draw_graph(master, 3, n_max, weighted=trial % 2 == 1)
        tree = _draw_tree(master, graph, STRATEGIES[trial % len(STRATEGIES)])
        members = sorted(_draw_query(master, tree, min(k_max, graph.n - 1)))
        rep.graphs += 1

        sub = {v: xor_of_subtrees(tree, [v]) for v in members}
        delta = {v: cut_size_direct(graph, sub[v]) for v in members}
        closed_form = sum(delta.values())
        for x, y in itertools.combinations(members, 2):
            c2 = cut_size_direct(graph, sub[x] ^ sub[y])
            t = sum((x in sub[z]) != (y in sub[z]) for z in members if z not in (x, y))
            closed_form -= (-1) ** t * (delta[x] + delta[y] - c2)

        expected = cut_size_direct(graph, xor_of_subtrees(tree, members))
        engine = k_respecting_cut_size(graph, tree, members, None, graph.n)
        for actual, reference, kind in (
            (closed_form, expected, "closed form vs direct cut of xor"),
            (engine, closed_form, "k_respecting_cut_size vs closed form"),
        ):
            if _compare(rep, graph, tree, actual, reference, set=members, kind=kind):
                return rep
    return rep


def tree_edge_structure_sweep(
    num_graphs: int = 60,
    n_lo: int = 3,
    n_hi: int = 8,
    m_max: int = 14,
    seed: int = 0,
    random_sets: int = 5,
) -> SweepReport:
    """Structural facts about crossing tree edges, plus decomposition
    round-trips.

    Per graph and tree: the cut of every subtree crosses exactly the
    subtree top's parent edge among tree edges; the cut of a subtree
    symmetric difference crosses exactly the members' parent edges; and
    every proper nonempty vertex set decomposes and rematerializes to
    itself or its complement, exhaustively.
    """
    master = _master(seed)
    rep = SweepReport()
    for gi in range(num_graphs):
        graph = _draw_graph(master, n_lo, n_hi, m_max)
        tree = _draw_tree(master, graph, STRATEGIES[gi % len(STRATEGIES)])
        rep.graphs += 1
        n = graph.n
        tree_ids = set(tree.tree_edge_ids.tolist())
        non_root = [v for v in range(n) if v != tree.root]

        for v in non_root:
            crossing = cut_edge_set(graph, tree.subtree_members(v)) & tree_ids
            rep.comparisons += 1
            if crossing != {tree.parent_edge_of(v)}:
                return _fail(rep, graph, tree, vertex=v, kind="subtree cut tree edges")

        for _ in range(random_sets):
            members = _draw_query(master, tree, n - 1)
            crossing = cut_edge_set(graph, xor_of_subtrees(tree, members)) & tree_ids
            rep.comparisons += 1
            if crossing != {tree.parent_edge_of(v) for v in members}:
                kind = "xor cut tree edges"
                return _fail(rep, graph, tree, set=sorted(members), kind=kind)

        everything = set(range(n))
        for bits in range(1, (1 << n) - 1):
            members = {v for v in range(n) if bits >> v & 1}
            basis, complemented = tree.decompose_cut_as_xor_basis(members)
            target = everything - members if complemented else members
            rep.comparisons += 1
            if xor_of_subtrees(tree, basis) != target:
                return _fail(
                    rep,
                    graph,
                    tree,
                    vertex_set=sorted(members),
                    basis=sorted(basis),
                    complemented=complemented,
                    kind="decompose round-trip",
                )
    return rep


def run_selfcheck(n_max: int = 8, trials: int = 200, seed: int = 7) -> SweepReport:
    """Combined randomized check behind the command line.

    Per trial: one seeded connected graph, one spanning tree (strategies
    cycled), cut equivalence on every proper nonempty vertex set (all of
    them when the graph is small, a sample otherwise), one engine vs
    oracle comparison on a random query set, the dichotomy check, and
    the cut space identity.  Raises ValueError for fewer than one trial,
    which would check nothing, for an n_max below the three vertices
    every drawn graph has or above the 63 that an int64 vertex bitmask
    holds, and for a seed that is not a non-negative integer.
    """
    if trials < 1:
        raise ValueError(f"selfcheck needs at least 1 trial, got {trials}")
    if n_max < 3:
        raise ValueError(f"selfcheck needs n of at least 3, got {n_max}")
    if n_max > 63:  # vertex sets are drawn as int64 bitmasks
        raise ValueError(f"selfcheck takes n of at most 63, got {n_max}")
    master = _master(seed)
    rep = SweepReport()
    for trial in range(trials):
        graph = _draw_graph(master, 3, n_max)
        tree = _draw_tree(master, graph, STRATEGIES[trial % len(STRATEGIES)])
        table = GammaTable(graph, tree)
        rep.graphs += 1
        n = graph.n
        if n <= 8:
            masks = range(1, (1 << n) - 1)
        else:
            masks = [int(master.integers(1, (1 << n) - 1)) for _ in range(48)]
        if _check_cut_sizes(rep, graph, tree, table, masks):
            return rep

        members = _draw_query(master, tree, n - 1)
        value = k_wise_gamma(graph, tree, members, table=table)
        expected = oracle_k_wise_gamma(graph, tree, members)
        kind = "k_wise_gamma vs oracle"
        if (
            _compare(rep, graph, tree, value, expected, set=sorted(members), kind=kind)
            or _check_dichotomy(rep, graph, tree, table, members)
            or _check_identity(rep, graph, tree, members)
        ):
            return rep
    return rep
