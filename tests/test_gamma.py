import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respecting_cuts.errors import KLimitExceeded, QueryError
from respecting_cuts.gamma import (
    CaseTag,
    GammaTable,
    _ancestor_table,
    _lca_batch,
    all_subtree_cut_sizes,
    classify_gamma_case,
    cut_size_via_tree,
    k_respecting_cut_size,
    k_wise_gamma,
    pairwise_gamma,
)
from respecting_cuts.generators import (
    gen_connected_graph,
    gen_query_set,
    gen_spanning_tree,
)
from respecting_cuts.graph import Graph, build_graph, cut_size_direct
from respecting_cuts.oracle import oracle_k_wise_gamma, xor_of_subtrees


def test_all_subtree_cut_sizes_fixtures(f1, f2, f3, f4, f5):
    g, t = f1
    assert all_subtree_cut_sizes(g, t) == {1: 2, 2: 2}
    g, t = f2
    assert all_subtree_cut_sizes(g, t) == {1: 2, 2: 2, 3: 1}
    g, t = f3
    assert all_subtree_cut_sizes(g, t) == {1: 2, 2: 2, 3: 2}
    g, t = f4
    assert all_subtree_cut_sizes(g, t) == {1: 1, 2: 2, 3: 2}
    g, t = f5
    assert all_subtree_cut_sizes(g, t) == {1: 2, 2: 2, 3: 2}


def test_all_subtree_cut_sizes_tree_only():
    # With no extra edges each subtree cut is just the parent edge weight.
    g = build_graph(4, [(0, 1, 3), (1, 2, 5), (1, 3, 2)])
    t = gen_spanning_tree(g, 0, 0, "bfs")
    assert all_subtree_cut_sizes(g, t) == {1: 3, 2: 5, 3: 2}


def test_pairwise_gamma_fixtures(f1, f2):
    g, t = f1
    assert pairwise_gamma(g, t, 1, 2) == 1
    assert pairwise_gamma(g, t, 2, 1) == 1
    g, t = f2
    assert pairwise_gamma(g, t, 1, 2) == 1
    assert pairwise_gamma(g, t, 1, 3) == 0
    assert pairwise_gamma(g, t, 2, 3) == 0


def test_pairwise_gamma_rejects_bad_queries(f1):
    g, t = f1
    with pytest.raises(QueryError):
        pairwise_gamma(g, t, 1, 1)
    with pytest.raises(QueryError):
        pairwise_gamma(g, t, 0, 1)
    with pytest.raises(QueryError):
        pairwise_gamma(g, t, 1, 7)


@pytest.mark.parametrize(
    "query, named",
    [
        (lambda g, t: k_respecting_cut_size(g, t, [1.9, 2]), "1.9"),
        (lambda g, t: k_respecting_cut_size(g, t, [True, 2]), "True"),
        (lambda g, t: pairwise_gamma(g, t, 1.5, 2), "1.5"),
        (lambda g, t: classify_gamma_case(t, ["1", 2, 3]), "'1'"),
        (lambda g, t: k_wise_gamma(g, t, [np.float64(3.0), 1]), "3.0"),
    ],
    ids=["cut-float", "cut-bool", "pair-float", "classify-str", "kwise-np-float"],
)
def test_query_vertices_are_not_coerced(f2, query, named):
    g, t = f2
    with pytest.raises(QueryError, match="is not an integer") as exc:
        query(g, t)
    assert named in str(exc.value)


def test_query_vertices_accept_numpy_integers(f2):
    g, t = f2
    members = np.array([1, 2], dtype=np.int32)
    assert k_respecting_cut_size(g, t, members) == k_respecting_cut_size(g, t, [1, 2])
    assert pairwise_gamma(g, t, np.int64(1), np.uint8(2)) == pairwise_gamma(g, t, 1, 2)


def test_classify_base_cases(f1):
    _, t = f1
    assert classify_gamma_case(t, {1}).tag is CaseTag.BASE_SINGLE
    assert classify_gamma_case(t, {1, 2}).tag is CaseTag.BASE_PAIR


def test_classify_four_cases(f2, f3, f4, f5):
    _, t2 = f2
    assert classify_gamma_case(t2, {1, 2, 3}).tag is CaseTag.CASE1_ALL_INDEPENDENT
    _, t3 = f3
    case = classify_gamma_case(t3, {1, 2, 3})
    assert case.tag is CaseTag.CASE2_CHAIN
    assert case.pair == (3, 1)
    _, t4 = f4
    assert (
        classify_gamma_case(t4, {1, 2, 3}).tag
        is CaseTag.CASE3_BRANCHING_UNDER_ANCESTOR
    )
    _, t5 = f5
    case = classify_gamma_case(t5, {1, 2, 3})
    assert case.tag is CaseTag.CASE4_ELIMINABLE
    assert case.eliminated == 1


def test_classify_rejects_duplicates_and_root(f2):
    _, t = f2
    with pytest.raises(QueryError):
        classify_gamma_case(t, [1, 1, 2])
    with pytest.raises(QueryError):
        classify_gamma_case(t, {0, 1, 2})
    with pytest.raises(QueryError):
        classify_gamma_case(t, [])


def test_classify_order_invariant(f5):
    _, t = f5
    assert classify_gamma_case(t, [1, 2, 3]) == classify_gamma_case(t, [3, 1, 2])


def test_k_wise_gamma_fixtures(f2, f3, f4, f5):
    g, t = f2
    assert k_wise_gamma(g, t, {1, 2, 3}) == 0
    g, t = f3
    assert k_wise_gamma(g, t, {1, 2, 3}) == 1
    g, t = f4
    assert k_wise_gamma(g, t, {1, 2, 3}) == 0
    g, t = f5
    assert k_wise_gamma(g, t, {1, 2, 3}) == 1


def test_k_respecting_cut_size_fixtures(f1, f2):
    g, t = f1
    assert k_respecting_cut_size(g, t, {1, 2}) == 2
    assert k_respecting_cut_size(g, t, {1}) == 2
    g, t = f2
    # 5 - 2*(1+0+0) + 4*0
    assert k_respecting_cut_size(g, t, {1, 2, 3}) == 3


def test_k_respecting_limit(f2):
    g, t = f2
    with pytest.raises(KLimitExceeded) as exc:
        k_respecting_cut_size(g, t, {1, 2, 3}, max_k=2)
    assert exc.value.k == 3
    assert exc.value.limit == 2
    assert k_respecting_cut_size(g, t, {1, 2, 3}, max_k=3) == 3
    assert k_respecting_cut_size(g, t, {1, 2, 3}, max_k=np.int64(3)) == 3
    for bad in ("3", 2.9, 3.0, True):
        with pytest.raises(QueryError, match=f"limit {re.escape(repr(bad))} is"):
            k_respecting_cut_size(g, t, {1, 2, 3}, max_k=bad)


def test_cut_size_via_tree_fixtures(f1):
    g, t = f1
    assert cut_size_via_tree(g, t, {1}) == (2, frozenset({1, 2}))
    assert cut_size_via_tree(g, t, {0}) == (2, frozenset({1}))
    with pytest.raises(KLimitExceeded):
        cut_size_via_tree(g, t, {1}, max_k=1)
    assert cut_size_via_tree(g, t, {1}, max_k=np.int32(2))[0] == 2
    for bad in ("2", 2.9, True):
        with pytest.raises(QueryError, match=f"limit {re.escape(repr(bad))} is"):
            cut_size_via_tree(g, t, {1}, max_k=bad)


def test_gamma_table_caches_consistently(f3):
    g, t = f3
    table = GammaTable(g, t)
    for x, y in itertools.combinations([1, 2, 3], 2):
        table.pair(x, y)
    assert len(table._pairs) == 3
    for x, y in itertools.combinations([1, 2, 3], 2):
        assert table.pair(x, y) == pairwise_gamma(g, t, x, y)
        assert table.pair(y, x) == table.pair(x, y)
    sizes = all_subtree_cut_sizes(g, t)
    for v in (1, 2, 3):
        assert table.single(v) == sizes[v]
    # A warm cache validates as a cold one does.
    for bad in (
        lambda: table.pair(1.0, 2),
        lambda: table.pair(True, 2),
        lambda: table.pair(2, "1"),
        lambda: table.single(1.0),
        lambda: table.single(True),
    ):
        with pytest.raises(QueryError, match="is not an integer"):
            bad()
    with pytest.raises(QueryError, match="duplicate"):
        table.pair(2, 2)
    with pytest.raises(QueryError, match="root"):
        table.single(0)
    assert table.pair(np.int64(1), np.int64(2)) == pairwise_gamma(g, t, 1, 2)


def test_table_refuses_a_foreign_graph_or_tree():
    g = gen_connected_graph(8, 14, 0)
    t1 = gen_spanning_tree(g, 0, 0, "bfs")
    t2 = gen_spanning_tree(g, 0, 0, "dfs")
    foreign = GammaTable(g, t2)
    assert k_respecting_cut_size(g, t1, {1, 2}) == 5
    with pytest.raises(QueryError):
        k_respecting_cut_size(g, t1, {1, 2}, table=foreign)
    with pytest.raises(QueryError):
        k_wise_gamma(g, t1, {1, 2}, table=foreign)
    with pytest.raises(QueryError):
        cut_size_via_tree(g, t1, {1, 2}, table=foreign)
    same_shape = Graph.from_arrays(g.n, g.edge_u, g.edge_v, g.edge_weight)
    with pytest.raises(QueryError):
        k_respecting_cut_size(same_shape, t1, {1, 2}, table=GammaTable(g, t1))
    with pytest.raises(QueryError):
        GammaTable(same_shape, t1)
    # Bare calls refuse a tree built on another graph as well.
    other = gen_connected_graph(8, 14, 1)
    with pytest.raises(QueryError):
        pairwise_gamma(other, t1, 1, 2)
    with pytest.raises(QueryError):
        all_subtree_cut_sizes(other, t1)
    with pytest.raises(QueryError):
        all_subtree_cut_sizes(same_shape, t1)


def test_edge_endpoint_indices_are_built_once_per_tree(f2):
    g, t = f2
    all_subtree_cut_sizes(g, t)
    # the delta pass needs neither the edge indices nor the child lists
    assert t._edge_euler_in is None and t._children is None
    ends = t.edge_euler_in
    assert not ends.flags.writeable
    assert np.array_equal(ends, [t.euler_in[g.edge_u], t.euler_in[g.edge_v]])
    pairwise_gamma(g, t, 1, 2)
    GammaTable(g, t).single(3)
    assert t.edge_euler_in is ends


def test_negative_total_raises(f1):
    # A consistent table never yields a negative total; a corrupted cache
    # entry must raise even when asserts are stripped.
    g, t = f1
    table = GammaTable(g, t)
    table._pairs[(1, 2)] = 100
    with pytest.raises(ArithmeticError):
        k_respecting_cut_size(g, t, {1, 2}, table=table)


def test_pair_identity_matches_literal_subset_sum():
    # The alternating sum over every subset, spelled out here as the
    # reference the pair identity must reproduce.
    rng = np.random.default_rng(20221024)
    for trial in range(300):
        n = int(rng.integers(3, 20))
        m = int(rng.integers(n - 1, 3 * n))
        base = gen_connected_graph(n, m, int(rng.integers(2**31)))
        weights = rng.integers(1, 20, size=m)
        graph = Graph.from_arrays(n, base.edge_u, base.edge_v, weights)
        strategy = ("bfs", "dfs", "uniform")[trial % 3]
        root = int(rng.integers(n))
        seed = int(rng.integers(2**31))
        tree = gen_spanning_tree(graph, root, seed, strategy)
        k = int(rng.integers(1, min(12, n - 1) + 1))
        members = sorted(gen_query_set(tree, k, int(rng.integers(2**31))))

        table = GammaTable(graph, tree)
        size = k_respecting_cut_size(graph, tree, members, table=table)
        assert len(table._singles) <= k
        assert len(table._pairs) <= k * (k - 1) // 2

        literal = 0
        for level in range(1, k + 1):
            sign = 1 if level % 2 else -1
            for combo in itertools.combinations(members, level):
                value = k_wise_gamma(graph, tree, combo, table=table)
                literal += sign * (1 << (level - 1)) * value
        assert size == literal
        assert size == cut_size_direct(graph, xor_of_subtrees(tree, members))


def test_single_and_pair_values_match_the_oracle_exhaustively():
    rng = np.random.default_rng(7)
    nested = disjoint = 0
    for trial in range(30):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(n - 1, 3 * n))
        base = gen_connected_graph(n, m, int(rng.integers(2**31)))
        weights = rng.integers(1, 20, size=m)
        graph = Graph.from_arrays(n, base.edge_u, base.edge_v, weights)
        strategy = ("bfs", "dfs", "uniform")[trial % 3]
        root = int(rng.integers(n))
        tree = gen_spanning_tree(graph, root, int(rng.integers(2**31)), strategy)
        table = GammaTable(graph, tree)
        sizes = all_subtree_cut_sizes(graph, tree)
        others = [v for v in range(n) if v != root]
        for v in others:
            expected = oracle_k_wise_gamma(graph, tree, {v})
            assert table.single(v) == sizes[v] == expected
        for x, y in itertools.combinations(others, 2):
            expected = oracle_k_wise_gamma(graph, tree, {x, y})
            assert pairwise_gamma(graph, tree, x, y) == expected
            assert table.pair(y, x) == expected
            if _independent(tree, x, y):
                disjoint += 1
            else:
                nested += 1
    assert nested and disjoint


def _independent(tree, u, v):
    return not (tree.is_descendant(u, v) or tree.is_descendant(v, u))


@st.composite
def query_instance(draw, n_max=12):
    n = draw(st.integers(3, n_max))
    m = draw(st.integers(n - 1, n + 8))
    seed = draw(st.integers(0, 2**32 - 1))
    strategy = draw(st.sampled_from(["bfs", "dfs", "uniform"]))
    root = draw(st.integers(0, n - 1))
    graph = gen_connected_graph(n, m, seed)
    tree = gen_spanning_tree(graph, root, seed + 1, strategy)
    k = draw(st.integers(1, n - 1))
    members = gen_query_set(tree, k, seed + 2)
    return graph, tree, members


@given(query_instance())
@settings(max_examples=120, deadline=None)
def test_k_wise_matches_oracle(inst):
    graph, tree, members = inst
    assert k_wise_gamma(graph, tree, members) == oracle_k_wise_gamma(
        graph, tree, members
    )


@given(query_instance())
@settings(max_examples=80, deadline=None)
def test_equation_matches_oracle_substitution(inst):
    # Recompute the alternating sum with the oracle in place of the
    # engine; the totals must agree.
    graph, tree, members = inst
    mem = sorted(members)
    total = 0
    for level in range(1, len(mem) + 1):
        level_sum = sum(
            oracle_k_wise_gamma(graph, tree, combo)
            for combo in itertools.combinations(mem, level)
        )
        coeff = 1 << (level - 1)
        total += coeff * level_sum if level % 2 else -coeff * level_sum
    assert total == k_respecting_cut_size(graph, tree, members)


@given(query_instance())
@settings(max_examples=80, deadline=None)
def test_equation_matches_materialized_cut(inst):
    graph, tree, members = inst
    size = k_respecting_cut_size(graph, tree, members)
    materialized = xor_of_subtrees(tree, members)
    assert size == cut_size_direct(graph, materialized)


@given(query_instance())
@settings(max_examples=80, deadline=None)
def test_k_wise_dichotomy(inst):
    graph, tree, members = inst
    if len(members) < 2:
        return
    value = k_wise_gamma(graph, tree, members)
    if value == 0:
        return
    pair_values = {
        pairwise_gamma(graph, tree, x, y)
        for x, y in itertools.combinations(sorted(members), 2)
    }
    assert value in pair_values


@given(query_instance())
@settings(max_examples=100, deadline=None)
def test_case_witness_invariants(inst):
    graph, tree, members = inst
    case = classify_gamma_case(tree, members)
    mem = sorted(members)
    if case.tag is CaseTag.CASE2_CHAIN:
        deep, shallow = case.pair
        assert {deep, shallow} <= set(mem)
        assert tree.depth_of(deep) >= tree.depth_of(shallow)
        assert tree.is_descendant(deep, shallow)
        assert k_wise_gamma(graph, tree, members) == pairwise_gamma(
            graph, tree, deep, shallow
        )
    elif case.tag is CaseTag.CASE4_ELIMINABLE:
        a = case.eliminated
        assert a in mem
        # The eliminated vertex sits in a dependent pair but does not
        # dominate the whole set.
        assert any(
            not _independent(tree, a, v) for v in mem if v != a
        )
        assert not all(tree.is_descendant(v, a) for v in mem if v != a)
        rest = [v for v in mem if v != a]
        assert k_wise_gamma(graph, tree, members) == k_wise_gamma(
            graph, tree, rest
        )
    elif case.tag is CaseTag.CASE1_ALL_INDEPENDENT:
        for x, y in itertools.combinations(mem, 2):
            assert _independent(tree, x, y)
        assert k_wise_gamma(graph, tree, members) == 0
    elif case.tag is CaseTag.CASE3_BRANCHING_UNDER_ANCESTOR:
        assert k_wise_gamma(graph, tree, members) == 0


@given(query_instance())
@settings(max_examples=60, deadline=None)
def test_member_order_does_not_matter(inst):
    graph, tree, members = inst
    mem = sorted(members)
    reversed_order = list(reversed(mem))
    assert k_respecting_cut_size(graph, tree, mem) == k_respecting_cut_size(
        graph, tree, reversed_order
    )
    assert k_wise_gamma(graph, tree, mem) == k_wise_gamma(
        graph, tree, reversed_order
    )


@given(query_instance(n_max=9))
@settings(max_examples=60, deadline=None)
def test_single_values_match_direct_cuts(inst):
    graph, tree, _ = inst
    sizes = all_subtree_cut_sizes(graph, tree)
    for v, size in sizes.items():
        assert size == cut_size_direct(graph, tree.subtree_members(v))


def test_cut_size_via_tree_exhaustive_small():
    graph = gen_connected_graph(6, 10, 42)
    for root in (0, 3):
        tree = gen_spanning_tree(graph, root, 7, "uniform")
        for bits in range(1, 2**6 - 1):
            inside = {v for v in range(6) if bits >> v & 1}
            size, basis = cut_size_via_tree(graph, tree, inside)
            assert size == cut_size_direct(graph, inside)
            assert basis == frozenset(
                v
                for v in range(6)
                if v != root
                and ((v in inside) != (tree.parent[v] in inside))
            )


def _naive_lca(parent, a, b):
    seen = set()
    while a != -1:
        seen.add(a)
        a = parent[a]
    while b not in seen:
        b = parent[b]
    return b


def test_lca_lifts_against_euler_intervals(multigraph):
    deep = gen_spanning_tree(gen_connected_graph(20_000, 100_000, seed=0), 0, 0, "dfs")
    sample = np.random.default_rng(3).choice(deep.graph.m, size=300, replace=False)
    cases = [
        (gen_spanning_tree(multigraph, 7, 11, strategy), np.arange(multigraph.m))
        for strategy in ("bfs", "dfs", "uniform")
    ]
    cases.append((deep, sample))
    for tree, eids in cases:
        up = _ancestor_table(tree)
        assert up.shape[0] == max(1, int(tree.depth.max()).bit_length())
        u, v = tree.graph.edge_u[eids], tree.graph.edge_v[eids]
        parent = tree.parent.tolist()
        expected = [_naive_lca(parent, a, b) for a, b in zip(u.tolist(), v.tolist())]
        assert _lca_batch(tree, up, u, v).tolist() == expected
    # No edges at all, and two parallel edges between two vertices.
    one = build_graph(1, [])
    assert all_subtree_cut_sizes(one, gen_spanning_tree(one, 0, 0, "bfs")) == {}
    two = build_graph(2, [(0, 1, 3), (1, 0, 4)])
    assert all_subtree_cut_sizes(two, gen_spanning_tree(two, 0, 0, "bfs")) == {1: 7}
    assert all_subtree_cut_sizes(two, gen_spanning_tree(two, 1, 0, "dfs")) == {0: 7}
