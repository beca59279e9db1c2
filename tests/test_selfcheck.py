import json

from respecting_cuts import selfcheck
from respecting_cuts.gamma import cut_size_via_tree, k_respecting_cut_size
from respecting_cuts.graph import build_graph, cut_size_direct
from respecting_cuts.selfcheck import (
    SweepReport,
    case_soundness_sweep,
    cut_space_identity_sweep,
    exhaustive_cut_sweep,
    random_set_sweep,
    run_selfcheck,
    tree_edge_structure_sweep,
    two_respecting_sweep,
)
from respecting_cuts.tree import build_rooted_tree

# The pinned (graphs, comparisons, mismatches, case_counts) below fix each
# sweep's seeded corpus: a changed number means the instances changed.


def summary(report: SweepReport) -> tuple:
    return report.graphs, report.comparisons, report.mismatches, report.case_counts


def test_report_ok_flag():
    assert SweepReport(mismatches=0).ok
    assert not SweepReport(mismatches=3).ok


def test_exhaustive_cut_sweep_small():
    report = exhaustive_cut_sweep(num_graphs=12, n_lo=3, n_hi=6, m_max=9, seed=1)
    assert report.ok
    assert report.graphs == 12
    # 12 graphs, two tree strategies each, every proper nonempty side.
    assert report.comparisons >= 12 * 2 * (2**3 - 2)
    assert report.counterexample is None
    assert summary(report) == (12, 592, 0, {})


def test_exhaustive_cut_sweep_weighted():
    report = exhaustive_cut_sweep(
        num_graphs=8, n_lo=3, n_hi=6, m_max=9, seed=2, weighted=True
    )
    assert report.ok
    assert summary(report) == (8, 576, 0, {})


def test_random_set_sweep_small():
    report = random_set_sweep(trials=150, n_max=24, k_max=6, seed=3)
    assert report.ok
    assert report.comparisons >= 150
    assert sum(report.case_counts.values()) >= 1
    cases = {
        "BASE_SINGLE": 30,
        "BASE_PAIR": 34,
        "CASE1_ALL_INDEPENDENT": 10,
        "CASE2_CHAIN": 9,
        "CASE3_BRANCHING_UNDER_ANCESTOR": 17,
        "CASE4_ELIMINABLE": 50,
    }
    assert summary(report) == (150, 270, 0, cases)


def test_random_set_sweep_weighted():
    report = random_set_sweep(trials=100, n_max=24, k_max=6, seed=4, weighted=True)
    assert report.ok
    cases = {
        "BASE_SINGLE": 15,
        "BASE_PAIR": 27,
        "CASE1_ALL_INDEPENDENT": 5,
        "CASE2_CHAIN": 7,
        "CASE3_BRANCHING_UNDER_ANCESTOR": 20,
        "CASE4_ELIMINABLE": 26,
    }
    assert summary(report) == (100, 185, 0, cases)


def test_case_soundness_sweep_small():
    report = case_soundness_sweep(per_case=25, seed=5, n_lo=6, n_hi=20)
    assert report.ok
    tags = (
        "CASE1_ALL_INDEPENDENT",
        "CASE2_CHAIN",
        "CASE3_BRANCHING_UNDER_ANCESTOR",
        "CASE4_ELIMINABLE",
    )
    for tag in tags:
        assert report.case_counts[tag] >= 25, report.case_counts
    assert summary(report) == (46, 100, 0, dict.fromkeys(tags, 25))


def test_cut_space_identity_sweep_small():
    report = cut_space_identity_sweep(trials=40, n_max=10, seed=6)
    assert report.ok
    assert report.comparisons == 40
    assert summary(report) == (40, 40, 0, {})


def test_tree_edge_structure_sweep_small():
    report = tree_edge_structure_sweep(num_graphs=10, n_lo=3, n_hi=6, seed=7)
    assert report.ok
    assert summary(report) == (10, 427, 0, {})


def test_two_respecting_sweep_small(monkeypatch):
    report = two_respecting_sweep(trials=60, n_max=30, k_max=8, seed=8)
    assert report.ok
    assert summary(report) == (60, 120, 0, {})
    # The closed form holds on its own; an engine off by one then fails
    # the second comparison of the first instance.
    monkeypatch.setattr(
        selfcheck, "k_respecting_cut_size", lambda *args: k_respecting_cut_size(*args) + 1
    )
    report = two_respecting_sweep(trials=60, n_max=30, k_max=8, seed=8)
    assert (report.graphs, report.comparisons, report.mismatches) == (1, 2, 1)
    assert report.counterexample["kind"] == "k_respecting_cut_size vs closed form"


def test_run_selfcheck_small():
    report = run_selfcheck(n_max=6, trials=40, seed=7)
    assert report.ok
    assert report.comparisons > 40
    cases = {
        "BASE_SINGLE": 11,
        "BASE_PAIR": 13,
        "CASE2_CHAIN": 5,
        "CASE3_BRANCHING_UNDER_ANCESTOR": 3,
        "CASE4_ELIMINABLE": 8,
    }
    assert summary(report) == (40, 1365, 0, cases)


def test_counterexample_payload_is_replayable(monkeypatch):
    # An engine that is off by one fails the very first comparison; the
    # sweep must stop there and describe the instance fully enough to
    # rebuild it from the JSON alone.
    def off_by_one(graph, tree, members, **kwargs):
        size, basis = cut_size_via_tree(graph, tree, members, **kwargs)
        return size + 1, basis

    monkeypatch.setattr(selfcheck, "cut_size_via_tree", off_by_one)
    report = exhaustive_cut_sweep(num_graphs=12, n_lo=3, n_hi=6, m_max=9, seed=1)
    assert (report.graphs, report.comparisons, report.mismatches) == (1, 1, 1)

    payload = json.loads(json.dumps(report.counterexample))
    assert payload["kind"] == "cut_size_via_tree vs cut_size_direct"
    graph = build_graph(payload["n"], payload["edges"])
    tree = build_rooted_tree(graph, payload["tree_edges"], payload["root"])
    assert len(payload["tree_edges"]) == graph.n - 1
    members = payload["vertex_set"]
    assert cut_size_direct(graph, members) == payload["expected"]
    assert payload["actual"] == payload["expected"] + 1
    size, basis = cut_size_via_tree(graph, tree, members)
    assert (size, sorted(basis)) == (payload["expected"], payload["basis"])
