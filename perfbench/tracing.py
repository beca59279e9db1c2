"""In-memory spans around calls into the respecting_cuts package.

A traced run swaps module-level names (and a few class attributes) for
wrappers that record one span per call: name, start, end and the index
of the enclosing span.  The package itself is not edited; every name is
restored when the patch context exits.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from respecting_cuts import cli, gamma, generators
from respecting_cuts import graph as graph_mod
from respecting_cuts import tree as tree_mod

# (owner, attribute, span name).  The cli and generators entries are the
# names cli.main and gen_spanning_tree look up at call time; the others
# are the entry points the benchmark itself calls.
PATCH_TARGETS = (
    (cli, "main", "cli.main"),
    (cli, "build_graph", "graph.build"),
    (cli, "gen_spanning_tree", "generators.spanning_tree"),
    (cli, "all_subtree_cut_sizes", "gamma.delta"),
    (graph_mod.Graph, "from_arrays", "graph.build"),
    (graph_mod.Graph, "adjacency", "graph.adjacency"),
    (generators, "gen_spanning_tree", "generators.spanning_tree"),
    (generators, "build_rooted_tree", "tree.build"),
    (tree_mod.RootedSpanningTree, "decompose_cut_as_xor_basis", "tree.decompose"),
    (gamma, "all_subtree_cut_sizes", "gamma.delta"),
    (gamma, "pairwise_gamma", "gamma.pair"),
    (gamma, "k_respecting_cut_size", "gamma.kcut"),
    (gamma, "cut_size_via_tree", "gamma.cut_via_tree"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans in call order; single-threaded use only."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _wrapped_attr(self, owner, raw, attr: str, name: str):
        if isinstance(raw, classmethod):
            return classmethod(self.wrap(raw.__func__, name))
        if isinstance(raw, functools.cached_property):
            prop = functools.cached_property(self.wrap(raw.func, name))
            prop.__set_name__(owner, attr)
            return prop
        if isinstance(raw, property):
            return property(self.wrap(raw.fget, name))
        return self.wrap(raw, name)

    @contextlib.contextmanager
    def patched(self) -> Iterator["Tracer"]:
        """Route every PATCH_TARGETS name through a span while inside.

        A name the package no longer defines is skipped, and its layer
        then reads zero, so a later refactor does not break traced runs.
        """
        saved = []
        try:
            for owner, attr, name in PATCH_TARGETS:
                raw = owner.__dict__.get(attr)
                if raw is None:
                    continue
                saved.append((owner, attr, raw))
                setattr(owner, attr, self._wrapped_attr(owner, raw, attr, name))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def as_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for s in self.spans
        ]


@dataclass
class LayerTimes:
    """Per-name totals over one group of spans.

    ``total`` sums the outermost span of each name (a name nested inside
    itself, as graph.build is under the command line, counts once);
    ``self_time`` sums each span minus its direct children; ``calls``
    holds each span's duration.
    """

    total: dict[str, float]
    self_time: dict[str, float]
    calls: dict[str, list[float]]


def layer_times(spans: list[Span]) -> LayerTimes:
    """Totals over every span but the first, which encloses the rest."""
    members = range(1, len(spans))
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, list[float]] = {}
    child_sum: dict[int, float] = {}
    for i in members:
        p = spans[i].parent
        child_sum[p] = child_sum.get(p, 0.0) + spans[i].seconds
    for i in members:
        s = spans[i]
        calls.setdefault(s.name, []).append(s.seconds)
        self_time[s.name] = self_time.get(s.name, 0.0) + s.seconds - child_sum.get(i, 0.0)
        p = s.parent
        nested = False
        while p >= 0:
            if spans[p].name == s.name:
                nested = True
                break
            p = spans[p].parent
        if not nested:
            total[s.name] = total.get(s.name, 0.0) + s.seconds
    return LayerTimes(total, self_time, calls)
