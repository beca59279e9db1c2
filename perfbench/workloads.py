"""The benchmark's workloads over the respecting_cuts package.

Each workload turns a seed into inputs before any timing starts, then
runs passes as a closed loop: one caller, and each call into the package
starts when the previous one returns.  Calls go through module
attributes (``gamma.pairwise_gamma``, ``cli.main``, ...) so a traced run
can wrap them without editing the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from respecting_cuts import cli, gamma, generators
from respecting_cuts import graph as graph_mod

from .reference import Reference

ROOT = 0
WEIGHT_MAX = 10


def edge_arrays(n: int, m: int, seed: int):
    """Connected multigraph: a random recursive tree plus uniform extra
    edges, shuffled together, with weights 1..WEIGHT_MAX.  No self-loops."""
    rng = np.random.default_rng([seed, n, m])
    perm = rng.permutation(n)
    attach = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    extra = m - (n - 1)
    eu = rng.integers(0, n, size=extra)
    ev = (eu + rng.integers(1, n, size=extra)) % n
    u = np.concatenate([perm[1:], eu])
    v = np.concatenate([perm[attach], ev])
    order = rng.permutation(m)
    w = rng.integers(1, WEIGHT_MAX + 1, size=m)
    return u[order], v[order], w


def _distinct(rng: np.random.Generator, pool: np.ndarray, k: int) -> tuple[int, ...]:
    return tuple(sorted(rng.choice(pool, size=k, replace=False).tolist()))


@dataclass
class Inputs:
    seed: int
    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    # (kind, args): ("delta", v) for sampled subtree cut sizes, then the
    # query stream: ("pair", (x, y)), ("kcut", members), ("vset", members).
    queries: list[tuple]
    graph_file: str | None = None


@dataclass
class Built:
    graph: object
    tree: object
    setup_s: float
    delta_s: float
    answers: dict[int, object]


@dataclass
class Pass:
    session_s: float
    latencies: list[float]
    answers: dict[int, object]
    # The pass's own setup; None when the command line built the tree.
    built: Built | None = None


class Workload:
    """Base: build the graph and tree from edge arrays, then time
    all_subtree_cut_sizes; subclasses add the query stream."""

    name = ""
    why = ""
    strategy = "bfs"

    def __init__(self, n: int, m: int, delta_sample: int = 64):
        self.n = n
        self.m = m
        self.delta_sample = delta_sample

    def sizes(self) -> dict:
        return {"n": self.n, "m": self.m, "delta_sample": self.delta_sample}

    def _stream(self, seed: int) -> list[tuple]:
        return []

    def make_inputs(self, seed: int, out_dir: str) -> Inputs:
        u, v, w = edge_arrays(self.n, self.m, seed)
        rng = np.random.default_rng([seed, 7])
        sample = rng.choice(
            np.arange(1, self.n), size=min(self.delta_sample, self.n - 1), replace=False
        )
        queries = [("delta", int(x)) for x in sorted(sample.tolist())]
        queries += self._stream(seed)
        return Inputs(seed, self.n, u, v, w, queries)

    def setup(self, inp: Inputs) -> Built:
        t0 = time.perf_counter()
        graph = graph_mod.Graph.from_arrays(inp.n, inp.u, inp.v, inp.w)
        tree = generators.gen_spanning_tree(graph, ROOT, inp.seed, self.strategy)
        t1 = time.perf_counter()
        sizes = gamma.all_subtree_cut_sizes(graph, tree)
        t2 = time.perf_counter()
        answers = {
            i: sizes.get(q[1]) for i, q in enumerate(inp.queries) if q[0] == "delta"
        }
        return Built(graph, tree, t1 - t0, t2 - t1, answers)

    def setup_reps(self, trace: bool) -> int:
        """Setup-only repetitions, interleaved with the first passes."""
        return 0

    def run_pass(self, inp: Inputs) -> Pass:
        t0 = time.perf_counter()
        built = self.setup(inp)
        latencies, answers = self._run_stream(inp, built)
        session = time.perf_counter() - t0
        answers.update(built.answers)
        return Pass(session, latencies, answers, built)

    def _run_stream(self, inp: Inputs, built: Built):
        graph, tree = built.graph, built.tree
        table = self._table(graph, tree)
        latencies = []
        answers: dict[int, object] = {}
        for i, (kind, args) in enumerate(inp.queries):
            if kind == "delta":
                continue
            t = time.perf_counter()
            try:
                if kind == "pair":
                    ans = gamma.pairwise_gamma(graph, tree, args[0], args[1])
                elif kind == "kcut":
                    ans = gamma.k_respecting_cut_size(graph, tree, args, table=table)
                else:
                    size, basis = gamma.cut_size_via_tree(graph, tree, args)
                    ans = (size, frozenset(basis))
            except Exception as exc:  # recorded and counted as failed
                ans = exc
            latencies.append(time.perf_counter() - t)
            answers[i] = ans
        return latencies, answers

    def _table(self, graph, tree):
        return None

    def expected(self, ref: Reference, query: tuple):
        kind, args = query
        if kind == "delta":
            return ref.delta(args)
        if kind == "pair":
            return ref.pair(*args)
        if kind == "kcut":
            return ref.k_respecting(args)
        if kind == "vset":
            return ref.vertex_set(args)
        if kind == "delta_count":
            return args
        raise ValueError(f"unknown query kind {kind!r}")

    def work_counts(self, inp: Inputs, ref: Reference) -> dict[str, int]:
        """Per-pass work implied by the inputs, computed without the package."""
        subsets = lookups = 0
        pairs = set()
        for kind, args in inp.queries:
            if kind == "kcut":
                mem = tuple(args)
            elif kind == "vset":
                mem = tuple(sorted(ref.vertex_set(args)[1]))
            else:
                continue
            k = len(mem)
            subsets += (1 << k) - 1
            lookups += k * (k - 1) // 2
            pairs.update((mem[a], mem[b]) for a in range(k) for b in range(a + 1, k))
        return {
            "graph.edges": int(ref.u.size),
            "tree.depth_max": int(ref.depth.max()),
            "gamma.subsets": subsets,
            "gamma.pair_lookups": lookups,
            "gamma.pairs_distinct": len(pairs),
        }

    def cleanup(self, inp: Inputs) -> None:
        pass


class CliCold(Workload):
    name = "cli-cold-1e5"
    why = (
        "one in-process 'delta' command per call at n=1e5, m=5e5: parsing and "
        "setup dominate, query work does not show"
    )
    strategy = "bfs"

    def setup_reps(self, trace: bool) -> int:
        # The reference needs the tree once; untraced runs also time setup
        # here, because each command-line call hides it inside cli.main.
        return 1 if trace else 3

    def make_inputs(self, seed: int, out_dir: str) -> Inputs:
        inp = super().make_inputs(seed, out_dir)
        inp.queries.append(("delta_count", self.n - 1))
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{self.name}-{seed}.txt")
        lines = [f"{self.n} {self.m}"]
        lines += [
            f"{a} {b} {c}"
            for a, b, c in zip(inp.u.tolist(), inp.v.tolist(), inp.w.tolist())
        ]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
            fh.write("\n")
        inp.graph_file = path
        return inp

    def run_pass(self, inp: Inputs) -> Pass:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["delta", "--graph", inp.graph_file])
        session = time.perf_counter() - t0
        answers: dict[int, object] = {}
        try:
            if rc != 0:
                raise RuntimeError(f"cli.main exited with {rc}")
            delta = json.loads(out.getvalue())["delta"]
        except (RuntimeError, ValueError, KeyError, TypeError) as exc:
            delta = None
            err = exc
        for i, (kind, args) in enumerate(inp.queries):
            if delta is None:
                answers[i] = err
            elif kind == "delta":
                answers[i] = delta.get(str(args))
            elif kind == "delta_count":
                answers[i] = len(delta)
        # The command builds its own tree; the reference uses the setup
        # tree, which the same deterministic traversal produced.
        return Pass(session, [session], answers)

    def cleanup(self, inp: Inputs) -> None:
        if inp.graph_file and os.path.exists(inp.graph_file):
            os.remove(inp.graph_file)


class PointQueries(Workload):
    name = "point-queries-1e5"
    why = (
        "independent pair, k=3..4 and vertex-set queries at n=1e5, m=5e5 on a "
        "uniform tree: per-query edge scans dominate, nothing is shared"
    )
    strategy = "uniform"

    def __init__(self, n: int, m: int, queries: int = 120, delta_sample: int = 64):
        super().__init__(n, m, delta_sample)
        self.queries = queries

    def sizes(self) -> dict:
        return {**super().sizes(), "queries": self.queries}

    def _stream(self, seed: int) -> list[tuple]:
        rng = np.random.default_rng([seed, 11])
        pool = np.arange(1, self.n)
        rotation = [("pair", 2), ("kcut", 3), ("vset", 1), ("pair", 2), ("kcut", 4), ("vset", 2)]
        out = []
        for i in range(self.queries):
            kind, k = rotation[i % len(rotation)]
            out.append((kind, _distinct(rng, pool, k)))
        return out


class SharedK(Workload):
    name = "shared-k-2e4"
    why = (
        "k=10..14 cut queries from a 32-vertex pool through one GammaTable on a "
        "deep DFS tree at n=2e4, m=1e5: subset classification and the cache dominate"
    )
    strategy = "dfs"

    def __init__(
        self, n: int, m: int, queries: int = 100, pool: int = 32,
        k_low: int = 10, k_high: int = 14, delta_sample: int = 64,
    ):
        super().__init__(n, m, delta_sample)
        self.queries = queries
        self.pool = pool
        self.k_low = k_low
        self.k_high = k_high

    def sizes(self) -> dict:
        return {
            **super().sizes(), "queries": self.queries, "pool": self.pool,
            "k_low": self.k_low, "k_high": self.k_high,
        }

    def _stream(self, seed: int) -> list[tuple]:
        rng = np.random.default_rng([seed, 13])
        pool = np.sort(rng.choice(np.arange(1, self.n), size=self.pool, replace=False))
        span = self.k_high - self.k_low + 1
        # k cycles through k_low..k_high so every seed does the same
        # number of subset evaluations.
        return [("kcut", _distinct(rng, pool, self.k_low + i % span)) for i in range(self.queries)]

    def _table(self, graph, tree):
        return gamma.GammaTable(graph, tree)


def default_workloads() -> dict[str, Workload]:
    return {
        wl.name: wl
        for wl in (
            CliCold(100_000, 500_000),
            PointQueries(100_000, 500_000),
            SharedK(20_000, 100_000),
        )
    }
