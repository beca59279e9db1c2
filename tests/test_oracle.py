import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respecting_cuts.errors import (
    KLimitExceeded,
    QueryError,
    UniverseMismatchError,
)
from respecting_cuts.gamma import k_wise_gamma
from respecting_cuts.generators import gen_connected_graph, gen_spanning_tree, gen_query_set
from respecting_cuts.graph import Graph, cut_size_direct
from respecting_cuts.oracle import (
    check_cut_space_identity,
    oracle_k_wise_gamma,
    symmetric_difference,
    xor_of_subtrees,
    xor_size_by_inclusion_exclusion,
)
from respecting_cuts.tree import RootedSpanningTree


def test_symmetric_difference_examples():
    a = {0, 1, 2}
    assert symmetric_difference([a, a]) == set()
    assert symmetric_difference([{0, 1}, {2}]) == {0, 1, 2}
    assert symmetric_difference([a]) == a
    assert symmetric_difference([]) == set()


def test_symmetric_difference_universe_check():
    with pytest.raises(UniverseMismatchError):
        symmetric_difference([{0, 9}], universe=5)
    assert symmetric_difference([{0, 4}], universe=5) == {0, 4}
    with pytest.raises(UniverseMismatchError, match="element True"):
        symmetric_difference([{True}], universe=5)
    assert symmetric_difference([{np.int64(1)}], universe=5) == {1}


@given(st.lists(st.sets(st.integers(0, 12)), min_size=0, max_size=7))
def test_symmetric_difference_is_fold_of_xor(sets):
    folded = set()
    for s in sets:
        folded ^= s
    assert symmetric_difference(sets) == folded


@given(
    st.lists(st.sets(st.integers(0, 12)), min_size=2, max_size=6),
    st.randoms(use_true_random=False),
)
def test_symmetric_difference_order_invariant(sets, rnd):
    shuffled = list(sets)
    rnd.shuffle(shuffled)
    assert symmetric_difference(sets) == symmetric_difference(shuffled)


def test_xor_size_examples():
    a = {0, 1, 2}
    assert xor_size_by_inclusion_exclusion([a]) == 3
    assert xor_size_by_inclusion_exclusion([a, a]) == 0
    assert xor_size_by_inclusion_exclusion([a, a, a, a]) == 0
    assert xor_size_by_inclusion_exclusion([{0, 1}, {2}]) == 3


def test_xor_size_rejects_empty_and_oversized():
    with pytest.raises(QueryError):
        xor_size_by_inclusion_exclusion([])
    sets = [{i} for i in range(5)]
    with pytest.raises(KLimitExceeded) as exc:
        xor_size_by_inclusion_exclusion(sets, max_k=4)
    assert exc.value.k == 5
    assert exc.value.limit == 4
    assert xor_size_by_inclusion_exclusion(sets, max_k=5) == 5
    assert xor_size_by_inclusion_exclusion(sets, max_k=np.int64(5)) == 5
    for bad in ("5", 5.5, True):
        with pytest.raises(QueryError, match=f"limit {re.escape(repr(bad))} is"):
            xor_size_by_inclusion_exclusion(sets, max_k=bad)


def test_xor_size_exhaustive_tiny():
    # Every pair and triple of subsets of a 4-element universe.
    subsets = [
        {x for x in range(4) if bits >> x & 1} for bits in range(16)
    ]
    for a, b in itertools.product(subsets, repeat=2):
        assert xor_size_by_inclusion_exclusion([a, b]) == len(a ^ b)
    for a, b, c in itertools.product(subsets[:8], repeat=3):
        assert xor_size_by_inclusion_exclusion([a, b, c]) == len(a ^ b ^ c)


@given(
    st.lists(st.sets(st.integers(0, 15)), min_size=1, max_size=8),
    st.dictionaries(st.integers(0, 15), st.integers(1, 10)),
)
@settings(max_examples=150)
def test_xor_size_matches_direct(sets, weights):
    weight = {x: weights.get(x, 1) for x in range(16)}
    direct = sum(weight[x] for x in symmetric_difference(sets))
    assert xor_size_by_inclusion_exclusion(sets, weight=weight) == direct


def test_oracle_gamma_fixture_values(f1, f2, f3, f4, f5):
    g1, t1 = f1
    assert oracle_k_wise_gamma(g1, t1, {1, 2}) == 1
    g2, t2 = f2
    assert oracle_k_wise_gamma(g2, t2, {1, 2}) == 1
    assert oracle_k_wise_gamma(g2, t2, {1, 3}) == 0
    assert oracle_k_wise_gamma(g2, t2, {1, 2, 3}) == 0
    g3, t3 = f3
    assert oracle_k_wise_gamma(g3, t3, {1, 2, 3}) == 1
    g4, t4 = f4
    assert oracle_k_wise_gamma(g4, t4, {1, 2, 3}) == 0
    g5, t5 = f5
    assert oracle_k_wise_gamma(g5, t5, {1, 2, 3}) == 1


def test_oracle_gamma_rejects_root_and_empty(f1):
    g, t = f1
    with pytest.raises(QueryError):
        oracle_k_wise_gamma(g, t, {0, 1})
    with pytest.raises(QueryError):
        oracle_k_wise_gamma(g, t, set())


@pytest.mark.parametrize("members", [[1.7, 2], [1.0, 2], [True], ["1"], [3], [-1]])
def test_oracle_does_not_coerce_vertices(f1, members):
    g, t = f1
    with pytest.raises(QueryError):
        oracle_k_wise_gamma(g, t, members)
    with pytest.raises(QueryError):
        xor_of_subtrees(t, members)
    with pytest.raises(QueryError):
        check_cut_space_identity(g, t, members)


# Bad query sets on the triangle f1 (root 0, three vertices), each with
# the message the engine and the oracle both give.
BAD_QUERY_SETS = [
    ([1, 1], "duplicate vertices in query set"),
    ([0, 1], "root 0 cannot appear in a query set"),
    ([1.5], "vertex 1.5 is not an integer vertex id"),
    ([True], "vertex True is not an integer vertex id"),
    (["1"], "vertex '1' is not an integer vertex id"),
    ([3], "vertex 3 out of range for 3 vertices"),
    ([], "query set must be nonempty"),
]


def test_engine_and_oracle_refuse_the_same_query_sets(f1):
    g, t = f1
    for members, message in BAD_QUERY_SETS:
        refusals = []
        for query in (k_wise_gamma, oracle_k_wise_gamma):
            with pytest.raises(QueryError) as exc:
                query(g, t, members)
            refusals.append((type(exc.value), str(exc.value)))
        assert refusals == [(QueryError, message)] * 2, members
        if not members:
            continue  # a symmetric difference of no subtrees is empty
        with pytest.raises(QueryError, match=f"^{re.escape(message)}$"):
            xor_of_subtrees(t, members)
        with pytest.raises(QueryError, match=f"^{re.escape(message)}$"):
            check_cut_space_identity(g, t, members)
    assert xor_of_subtrees(t, []) == set()
    assert check_cut_space_identity(g, t, [])


def test_oracle_accepts_numpy_vertices(f1):
    g, t = f1
    assert oracle_k_wise_gamma(g, t, np.array([1, 2])) == 1
    assert xor_of_subtrees(t, [np.int32(1)]) == {1, 2}


def test_xor_of_subtrees(f1):
    _, t = f1
    assert xor_of_subtrees(t, {1, 2}) == {1}
    assert xor_of_subtrees(t, {1}) == {1, 2}
    assert xor_of_subtrees(t, set()) == set()


def test_identity_on_fixtures(f1, f2, f3, f4, f5):
    for g, t in (f1, f2, f3, f4, f5):
        non_root = [v for v in range(g.n) if v != t.root]
        for k in range(1, len(non_root) + 1):
            for combo in itertools.combinations(non_root, k):
                assert check_cut_space_identity(g, t, combo)


@given(
    st.integers(2, 10),
    st.integers(0, 8),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["bfs", "dfs", "uniform"]),
)
@settings(max_examples=60, deadline=None)
def test_identity_on_random_instances(n, extra, seed, strategy):
    graph = gen_connected_graph(n, n - 1 + extra, seed)
    tree = gen_spanning_tree(graph, seed % n, seed + 1, strategy)
    k = 1 + seed % (n - 1) if n > 1 else 1
    members = gen_query_set(tree, k, seed + 2)
    assert check_cut_space_identity(graph, tree, members)


def _refused(name):
    def read(self):
        raise AssertionError(f"the oracle read tree.{name}")

    return property(read)


# A tree whose tables, child table and subtree walk all raise when looked
# up; properties on the class win over the instance's own attributes.
_TablesHidden = type(
    "_TablesHidden",
    (RootedSpanningTree,),
    {
        name: _refused(name)
        for name in (
            "_child_table", "subtree_members", "parent", "parent_edge", "depth",
            "euler_in", "euler_out", "order", "edge_euler_in", "subtree_cut",
            "_edge_euler_in", "_subtree_cut",
        )
    },
)


@pytest.mark.parametrize("strategy", ["bfs", "dfs", "uniform"])
def test_oracle_reads_no_tree_table(strategy):
    base = gen_connected_graph(11, 26, seed=5)
    weights = np.random.default_rng(6).integers(1, 9, size=base.m)
    graph = Graph.from_arrays(base.n, base.edge_u, base.edge_v, weights)
    tree = gen_spanning_tree(graph, 2, 3, strategy)
    n, root = graph.n, tree.root
    tin, tout = tree.euler_in.tolist(), tree.euler_out.tolist()
    sub = {v: {u for u in range(n) if tin[v] <= tin[u] <= tout[v]} for v in range(n)}
    tree.__class__ = _TablesHidden
    with pytest.raises(AssertionError):
        tree._child_table
    non_root = [v for v in range(n) if v != root]
    for v in non_root:
        assert xor_of_subtrees(tree, [v]) == sub[v]
        assert oracle_k_wise_gamma(graph, tree, [v]) == cut_size_direct(graph, sub[v])
    for x, y in itertools.combinations(non_root, 2):
        both = cut_size_direct(graph, sub[x] ^ sub[y])
        twice = cut_size_direct(graph, sub[x]) + cut_size_direct(graph, sub[y]) - both
        assert 2 * oracle_k_wise_gamma(graph, tree, [x, y]) == twice
        assert xor_of_subtrees(tree, [x, y]) == sub[x] ^ sub[y]
    for members in ([1, 3, 4], non_root[:5], non_root):
        members = [v for v in members if v != root]
        assert check_cut_space_identity(graph, tree, members)
