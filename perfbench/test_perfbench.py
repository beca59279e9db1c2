"""Toy-size tests of the benchmark itself: every workload runs, every
metric is printed with its unit, and a wrong answer is caught."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from perfbench import run, tracing, workloads
from perfbench.reference import Reference
from respecting_cuts import cli, gamma, generators
from respecting_cuts.graph import Graph, cut_size_direct

TOY = {
    "cli-cold-1e5": lambda: workloads.CliCold(60, 240, delta_sample=8),
    "point-queries-1e5": lambda: workloads.PointQueries(60, 240, queries=12, delta_sample=8),
    "shared-k-2e4": lambda: workloads.SharedK(
        60, 240, queries=10, pool=8, k_low=3, k_high=5, delta_sample=8
    ),
}

BENCHMARK_JSON = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")


@pytest.fixture(autouse=True)
def _scratch_out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))


def test_toy_workloads_cover_every_default_workload():
    assert set(TOY) == set(workloads.default_workloads())


@pytest.mark.parametrize("name", sorted(TOY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_runs_and_prints_every_metric(name, trace, capsys):
    result = run.run_one(TOY[name](), seed=3, seconds=0.01, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    printed = capsys.readouterr().out
    for metric, unit in units.items():
        assert any(metric in line and line.endswith(unit) for line in printed.splitlines())
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_all_metrics_nonzero_where_the_layer_runs():
    result = run.run_one(TOY["point-queries-1e5"](), seed=4, seconds=0.01, trace=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("graph.adjacency_s", "tree.build_s", "gamma.delta_s", "gamma.pair_ms_p50",
                 "gamma.kcut_ms_p50", "tree.decompose_ms_p50", "gamma.subsets"):
        assert m[name] > 0, name
    assert m["cli.main_s"] == 0.0


def _off_by_one(fn):
    def corrupt(*args, **kwargs):
        return fn(*args, **kwargs) + 1
    return corrupt


def _corrupt_delta(graph, tree):
    return {v: size + 1 for v, size in gamma.all_subtree_cut_sizes(graph, tree).items()}


CORRUPTIONS = {
    "cli-cold-1e5": (cli, "all_subtree_cut_sizes", _corrupt_delta),
    "point-queries-1e5": (gamma, "pairwise_gamma", _off_by_one(gamma.pairwise_gamma)),
    "shared-k-2e4": (gamma, "k_respecting_cut_size", _off_by_one(gamma.k_respecting_cut_size)),
}


@pytest.mark.parametrize("name", sorted(TOY))
def test_corrupted_answer_is_counted_and_replayable(name, monkeypatch, tmp_path, capsys):
    owner, attr, bad = CORRUPTIONS[name]
    monkeypatch.setattr(owner, attr, bad)
    result = run.run_one(TOY[name](), seed=5, seconds=0.01, trace=False)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert "(failed_ratio 0)" not in capsys.readouterr().out
    payloads = sorted((tmp_path / "failures").iterdir())
    assert payloads
    first = json.loads(payloads[0].read_text())
    assert first["workload"] == name and first["seed"] == 5
    assert run.replay(str(payloads[0])) == 1
    monkeypatch.undo()
    assert run.replay(str(payloads[0])) == 0


def test_tracing_restores_every_patched_name():
    before = [owner.__dict__[attr] for owner, attr, _ in tracing.PATCH_TARGETS]
    original = gamma.pairwise_gamma
    tr = tracing.Tracer()
    with tr.patched():
        assert gamma.pairwise_gamma is not original
    after = [owner.__dict__[attr] for owner, attr, _ in tracing.PATCH_TARGETS]
    assert all(a is b for a, b in zip(before, after))


def test_tracing_skips_names_the_package_no_longer_has(monkeypatch):
    monkeypatch.setattr(
        tracing, "PATCH_TARGETS", tracing.PATCH_TARGETS + ((gamma, "no_such_name", "x"),)
    )
    tr = tracing.Tracer()
    with tr.patched():
        pass
    assert not hasattr(gamma, "no_such_name")


def test_layer_times_self_time_and_nested_names():
    spans = [
        tracing.Span("session", 0.0, 10.0, -1),
        tracing.Span("graph.build", 1.0, 4.0, 0),
        tracing.Span("graph.build", 2.0, 3.0, 1),
        tracing.Span("gamma.pair", 5.0, 6.0, 0),
    ]
    lt = tracing.layer_times(spans)
    assert lt.total == {"graph.build": 3.0, "gamma.pair": 1.0}
    assert lt.self_time["graph.build"] == pytest.approx(3.0)
    assert lt.calls["graph.build"] == [3.0, 1.0]


def test_reference_matches_the_definition_level_cut():
    n, m = 40, 160
    u, v, w = workloads.edge_arrays(n, m, seed=9)
    graph = Graph.from_arrays(n, u, v, w)
    tree = generators.gen_spanning_tree(graph, 0, 9, "uniform")
    ref = Reference(n, u, v, w, tree.parent, tree.parent_edge, 0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        members = rng.choice(np.arange(1, n), size=3, replace=False).tolist()
        side = ref.xor_of_subtrees(members)
        assert ref.k_respecting(members) == cut_size_direct(graph, np.flatnonzero(side).tolist())
        size, basis = ref.vertex_set(members)
        assert size == cut_size_direct(graph, members)
        assert basis == frozenset(tree.decompose_cut_as_xor_basis(members)[0])


def test_benchmark_json_matches_the_harness():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.default_workloads())
    assert {e["name"]: e["unit"] for e in spec["end_to_end"]} == run.END_TO_END
    assert {e["name"]: e["unit"] for e in spec["per_layer"]} == run.PER_LAYER
