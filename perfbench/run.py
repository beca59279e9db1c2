#!/usr/bin/env python3
"""Benchmark for the respecting_cuts package, run from the repository root.

    python3 perfbench/run.py --workload point-queries-1e5 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40
    python3 perfbench/run.py --replay perfbench/out/failures/<payload>.json

One workload per process.  Inputs come from --seed and are generated
before timing; passes then run in a closed loop for about --seconds.
Every answer is checked afterwards against perfbench/reference.py.  The
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  A traced run alternates untraced and traced
passes so the tracing overhead is measured in the same process.

The summary lines above the JSON give the sample counts, failed_ratio
(failed / attempted, carried in the JSON by those two keys because a
metric must never read 0) and, for untraced runs, delta_s and
query_p90_ms, which are too noisy on a shared machine for a bound.  A
per-layer time reads 0 on a workload that never calls that layer.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")
OUT_DIR = os.path.join(HERE, "out")

END_TO_END = {
    "session_s": "s",
    "setup_s": "s",
    "query_p50_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Printed by untraced runs but left out of END_TO_END: on a shared 2-core
# machine their spread over ten seeds exceeded the largest bound allowed.
INFO = {
    "delta_s": "s",
    "query_p90_ms": "ms",
}

PER_LAYER = {
    "cli.main_s": "s",
    "cli.self_s": "s",
    "graph.build_s": "s",
    "graph.adjacency_s": "s",
    "generators.spanning_tree_self_s": "s",
    "tree.build_s": "s",
    "gamma.delta_s": "s",
    "gamma.pair_ms_p50": "ms",
    "gamma.pair_ms_p90": "ms",
    "gamma.kcut_ms_p50": "ms",
    "gamma.kcut_ms_p90": "ms",
    "tree.decompose_ms_p50": "ms",
    "trace.overhead_s": "s",
    "graph.edges": "count",
    "tree.depth_max": "count",
    "gamma.subsets": "count",
    "gamma.pair_lookups": "count",
    "gamma.pairs_distinct": "count",
}

MIN_SETUP_SAMPLES = 3


def _import_package() -> None:
    """Put the checkout's own sources first on the path; refuse to run
    without them rather than pick up some other installed copy."""
    if not os.path.isfile(os.path.join(SRC, "respecting_cuts", "__init__.py")):
        sys.exit(f"error: no respecting_cuts sources under {SRC}")
    sys.path[:0] = [SRC, CHECKOUT]


_import_package()

from perfbench import tracing, workloads  # noqa: E402
from perfbench.reference import Reference, TreeMismatch  # noqa: E402


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Run:
    """Every sample one invocation of the benchmark collects."""

    def __init__(self, wl: workloads.Workload, inp: workloads.Inputs):
        self.wl = wl
        self.inp = inp
        self.setup_s: list[float] = []
        self.delta_s: list[float] = []
        self.untraced: list[workloads.Pass] = []
        self.traced: list[workloads.Pass] = []
        self.tracers: list[tracing.Tracer] = []
        # (answers, parent, parent_edge) for every answer set produced
        self.answer_sets: list[tuple[dict, object, object]] = []
        self.setup_tree = None

    def _record(self, built: workloads.Built, timed: bool) -> tuple:
        """Keep the tree the answers refer to and, from untraced work, the
        setup and delta samples."""
        tree = built.tree
        self.setup_tree = (tree.parent, tree.parent_edge)
        if timed:
            self.setup_s.append(built.setup_s)
            self.delta_s.append(built.delta_s)
        return self.setup_tree

    def _setup(self) -> None:
        gc.collect()
        built = self.wl.setup(self.inp)
        self.answer_sets.append((built.answers, *self._record(built, True)))

    def _pass(self, traced: bool) -> float:
        gc.collect()
        t0 = time.perf_counter()
        if traced:
            tr = tracing.Tracer()
            with tr.patched(), tr.span("session"):
                p = self.wl.run_pass(self.inp)
            self.traced.append(p)
            self.tracers.append(tr)
        else:
            p = self.wl.run_pass(self.inp)
            self.untraced.append(p)
        tree = self.setup_tree if p.built is None else self._record(p.built, not traced)
        p.built = None
        self.answer_sets.append((p.answers, *tree))
        return time.perf_counter() - t0

    def measure(self, seconds: float, trace: bool) -> None:
        deadline = time.perf_counter() + seconds
        reps = self.wl.setup_reps(trace)
        durations = []
        while True:
            # Setup-only repetitions interleave with the first passes, so
            # both kinds of sample see the same stretch of machine time.
            if reps:
                self._setup()
                reps -= 1
            durations.append(self._pass(trace and len(self.traced) < len(self.untraced)))
            short = reps or not self.untraced or (trace and not self.traced)
            if not short and time.perf_counter() + statistics.median(durations) > deadline:
                break
        while not trace and len(self.setup_s) < MIN_SETUP_SAMPLES:
            self._setup()

    def check(self) -> tuple[int, list[dict]]:
        """Compare every answer with the reference; return (attempted, failures)."""
        refs: dict[bytes, Reference | TreeMismatch] = {}
        expected: dict[tuple[bytes, int], object] = {}
        attempted = 0
        failures = []
        inp = self.inp
        for answers, parent, parent_edge in self.answer_sets:
            key = parent.tobytes()
            if key not in refs:
                try:
                    refs[key] = Reference(inp.n, inp.u, inp.v, inp.w, parent, parent_edge, workloads.ROOT)
                except TreeMismatch as exc:
                    refs[key] = exc
            ref = refs[key]
            for qi, got in answers.items():
                attempted += 1
                if isinstance(ref, TreeMismatch):
                    exp = f"tree mismatch: {ref}"
                else:
                    if (key, qi) not in expected:
                        expected[key, qi] = self.wl.expected(ref, inp.queries[qi])
                    exp = expected[key, qi]
                if isinstance(got, Exception) or got != exp:
                    failures.append({"query_index": qi, "expected": exp, "got": got})
        return attempted, failures

    def reference(self) -> Reference:
        parent, parent_edge = self.setup_tree
        inp = self.inp
        return Reference(inp.n, inp.u, inp.v, inp.w, parent, parent_edge, workloads.ROOT)

    def end_to_end(self) -> dict[str, float]:
        lat = [x for p in self.untraced for x in p.latencies]
        return {
            "session_s": statistics.median(p.session_s for p in self.untraced),
            "setup_s": statistics.median(self.setup_s),
            "delta_s": statistics.median(self.delta_s),
            "query_p50_ms": percentile(lat, 0.5) * 1e3,
            "query_p90_ms": percentile(lat, 0.9) * 1e3,
            "queries_per_s": len(lat) / sum(lat),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> dict[str, float]:
        per_pass = []
        calls: dict[str, list[float]] = {}
        for tr in self.tracers:
            lt = tracing.layer_times(tr.spans)
            per_pass.append(lt)
            for name, secs in lt.calls.items():
                calls.setdefault(name, []).extend(secs)

        def total(name):
            return statistics.median(lt.total.get(name, 0.0) for lt in per_pass)

        def self_time(name):
            return statistics.median(lt.self_time.get(name, 0.0) for lt in per_pass)

        def call_ms(name, q):
            secs = calls.get(name)
            return percentile(secs, q) * 1e3 if secs else 0.0

        traced = statistics.median(p.session_s for p in self.traced)
        untraced = statistics.median(p.session_s for p in self.untraced)
        out = {
            "cli.main_s": total("cli.main"),
            "cli.self_s": self_time("cli.main"),
            "graph.build_s": total("graph.build"),
            "graph.adjacency_s": total("graph.adjacency"),
            "generators.spanning_tree_self_s": self_time("generators.spanning_tree"),
            "tree.build_s": total("tree.build"),
            "gamma.delta_s": total("gamma.delta"),
            "gamma.pair_ms_p50": call_ms("gamma.pair", 0.5),
            "gamma.pair_ms_p90": call_ms("gamma.pair", 0.9),
            "gamma.kcut_ms_p50": call_ms("gamma.kcut", 0.5),
            "gamma.kcut_ms_p90": call_ms("gamma.kcut", 0.9),
            "tree.decompose_ms_p50": call_ms("tree.decompose", 0.5),
            "trace.overhead_s": traced - untraced,
        }
        out.update(self.wl.work_counts(self.inp, self.reference()))
        return out


def _payload_value(x):
    if isinstance(x, Exception):
        return f"{type(x).__name__}: {x}"
    if isinstance(x, (tuple, list)):
        return [_payload_value(y) for y in x]
    if isinstance(x, frozenset):
        return sorted(x)
    return x


def write_failures(wl, inp, failures) -> list[str]:
    """One replayable JSON payload per failing query."""
    paths = []
    seen = set()
    fail_dir = os.path.join(OUT_DIR, "failures")
    for f in failures:
        qi = f["query_index"]
        if qi in seen:
            continue
        seen.add(qi)
        os.makedirs(fail_dir, exist_ok=True)
        path = os.path.join(fail_dir, f"{wl.name}-seed{inp.seed}-q{qi}.json")
        payload = {
            "workload": wl.name,
            "seed": inp.seed,
            "sizes": wl.sizes(),
            "query_index": qi,
            "query": _payload_value(inp.queries[qi]),
            "expected": _payload_value(f["expected"]),
            "got": _payload_value(f["got"]),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
        paths.append(path)
    return paths


def run_one(wl, seed: int, seconds: float, trace: bool) -> dict:
    inp = wl.make_inputs(seed, OUT_DIR)
    try:
        run = Run(wl, inp)
        run.measure(seconds, trace)
        attempted, failures = run.check()
        if trace:
            metrics = run.per_layer()
            units = PER_LAYER
            info = {}
            os.makedirs(OUT_DIR, exist_ok=True)
            with open(os.path.join(OUT_DIR, f"trace-{wl.name}-seed{seed}.json"), "w") as fh:
                json.dump([tr.as_json() for tr in run.tracers], fh)
        else:
            metrics = run.end_to_end()
            units = END_TO_END
            info = INFO
    finally:
        wl.cleanup(inp)
    written = write_failures(wl, inp, failures)
    queries = sum(len(p.latencies) for p in run.untraced)
    print(
        f"# {wl.name} seed={seed} trace={int(trace)}: {len(run.untraced)} untraced "
        f"and {len(run.traced)} traced passes, {queries} timed queries, "
        f"{len(run.setup_s)} setups; failed {len(failures)}/{attempted} "
        f"(failed_ratio {len(failures) / attempted:.6g})"
    )
    for path in written:
        print(f"# replay: python3 perfbench/run.py --replay {os.path.relpath(path, CHECKOUT)}")
    for name, unit in {**units, **info}.items():
        print(f"#   {name:34s} {metrics[name]:>14.6f} {unit}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, so peak memory is its own."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.default_workloads():
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        result["correct"] &= one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        for metric, value in one["metrics"].items():
            result["metrics"][f"{name}/{metric}"] = value
    return result


def replay(path: str) -> int:
    """Re-run one failing query from its payload; print both answers."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    by_name = {wl.name: type(wl) for wl in workloads.default_workloads().values()}
    wl = by_name[payload["workload"]](**payload["sizes"])
    inp = wl.make_inputs(payload["seed"], OUT_DIR)
    try:
        qi = payload["query_index"]
        if _payload_value(inp.queries[qi]) != payload["query"]:
            raise ValueError("payload query does not match the regenerated inputs")
        run = Run(wl, inp)
        if wl.setup_reps(False):
            run._setup()
        run._pass(False)
        got = run.answer_sets[-1][0][qi]
        expected = wl.expected(run.reference(), inp.queries[qi])
    finally:
        wl.cleanup(inp)
    match = not isinstance(got, Exception) and got == expected
    print(json.dumps({
        "workload": wl.name, "seed": inp.seed, "query": payload["query"],
        "program": _payload_value(got), "reference": _payload_value(expected),
        "match": match,
    }))
    return 0 if match else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.default_workloads(), "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", help="failure payload written by an earlier run")
    args = parser.parse_args(argv)
    if args.replay:
        return replay(args.replay)
    if not args.workload:
        parser.error("--workload is required")
    trace = bool(args.trace)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, trace)
    else:
        wl = workloads.default_workloads()[args.workload]
        result = run_one(wl, args.seed, args.seconds, trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
