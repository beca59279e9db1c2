"""Command line interface: edge-list files in, one JSON object per result.

Exit codes: 0 on success, 1 when a verification run finds a mismatch,
2 on any input problem.  Output bytes are identical for identical
inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from collections import deque
from itertools import chain

import numpy as np

from .errors import (
    GraphInputError,
    KLimitExceeded,
    QueryError,
    TreeStructureError,
)
from .gamma import (
    CaseTag,
    all_subtree_cut_sizes,
    classify_gamma_case,
    cut_size_via_tree,
    k_respecting_cut_size,
    k_wise_gamma,
    pairwise_gamma,
)
from .generators import STRATEGIES, gen_spanning_tree
from .graph import Graph, build_graph, checked_limit
from .selfcheck import run_selfcheck
from .tree import build_rooted_tree

MAX_K_ENV = "RESPECTING_CUTS_MAX_K"


def _emit(obj) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def _max_k_from_env() -> int | None:
    raw = os.environ.get(MAX_K_ENV)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{MAX_K_ENV} must be an integer, got {raw!r}")
    try:
        return checked_limit(value)
    except QueryError as exc:
        raise QueryError(f"{MAX_K_ENV}: {exc}") from None


def _parse_graph_file(path: str) -> Graph:
    """Read the edge-list format: first significant line "n m", then m
    lines "u v [w]" with weight defaulting to 1.  '#' starts a comment.

    A plain ASCII file of int64 decimals is read in one ``np.loadtxt``
    call; any other file goes to the line loop, which accepts the same
    files and is the one source of error messages."""
    graph = _parse_plain(path)
    if graph is None:
        graph = _parse_lines(path)
    return graph


def _parse_plain(path: str) -> Graph | None:
    """The numpy path of ``_parse_graph_file``, or None when the file is
    anything but an ASCII header "n m" and m rows of two or three int64
    decimals each.

    The ASCII decoding is a guard, not a convenience: on some characters
    beyond the Basic Multilingual Plane numpy 2.4's loadtxt sometimes
    ends the process with a segmentation fault instead of raising, so no
    other text may reach it.  Warnings count as refusals, so an older
    numpy that would convert "1.0" to 1 with a deprecation warning
    refuses it instead."""
    try:
        with open(path, encoding="ascii") as fh:
            fields: list[str] = []
            while not fields:
                line = fh.readline()
                if not line:
                    return None
                fields = line.split("#", 1)[0].split()
            if len(fields) != 2:
                return None
            n, m = int(fields[0]), int(fields[1])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(fh, dtype=np.int64, comments="#", ndmin=2)
    except (ValueError, Warning):  # UnicodeDecodeError is a ValueError
        return None
    rows, cols = table.shape
    if rows != m or cols not in (2, 3):
        return None
    w = table[:, 2] if cols == 3 else np.ones(rows, dtype=np.int64)
    return Graph.from_arrays(n, table[:, 0], table[:, 1], w)


def _parse_lines(path: str) -> Graph:
    """The line loop of ``_parse_graph_file``, for every file the numpy
    path refuses.

    Lines are read one at a time straight into endpoint and weight
    lists, so the file's text and split fields are never all held at
    once.  A malformed edge line is reported only after the header and
    the edge count check out."""
    header = None
    us: list[int] = []
    vs: list[int] = []
    ws: list[int] = []
    found = 0
    bad = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split("#", 1)[0].split()
            if not fields:
                continue
            if header is None:
                header = (lineno, fields)
                continue
            found += 1
            if bad is not None:
                continue
            if len(fields) not in (2, 3):
                bad = f"{path}:{lineno}: edge line must be 'u v' or 'u v w'"
                continue
            try:
                u, v = int(fields[0]), int(fields[1])
                w = int(fields[2]) if len(fields) == 3 else 1
            except ValueError:
                bad = f"{path}:{lineno}: edge fields must be integers"
                continue
            us.append(u)
            vs.append(v)
            ws.append(w)
    if header is None:
        raise ValueError(f"{path}: no content lines")
    lineno, fields = header
    if len(fields) != 2:
        raise ValueError(f"{path}:{lineno}: header must be two integers 'n m'")
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise ValueError(f"{path}:{lineno}: header must be integers")
    if found != m:
        raise ValueError(f"{path}: header declares {m} edges, found {found}")
    if bad is not None:
        raise ValueError(bad)
    return build_graph(n, zip(us, vs, ws))


def _parse_int_list(text: str) -> list[int]:
    parts = [p for p in text.replace(",", " ").split() if p]
    if not parts:
        raise ValueError("empty id list")
    return [int(p) for p in parts]


def _read_id_argument(arg: str) -> list[int]:
    """An inline comma list, or @file holding whitespace/comma separated ids."""
    if arg.startswith("@"):
        with open(arg[1:], encoding="utf-8") as fh:
            return _parse_int_list(fh.read())
    return _parse_int_list(arg)


def _tree_ids_from_pairs(graph: Graph, text: str) -> list[int]:
    """Map 'u,v;u,v;...' endpoint pairs to edge ids, consuming parallel
    edges lowest id first."""
    by_pair: dict[tuple[int, int], deque[int]] = {}
    us, vs = graph.edge_u.tolist(), graph.edge_v.tolist()
    for eid in range(graph.m):
        key = (us[eid], vs[eid]) if us[eid] < vs[eid] else (vs[eid], us[eid])
        by_pair.setdefault(key, deque()).append(eid)
    ids: list[int] = []
    tokens = [t for t in text.replace("\n", ";").split(";") if t.strip()]
    for token in tokens:
        pair = _parse_int_list(token)
        if len(pair) != 2:
            raise ValueError(f"tree edge {token!r} must be a 'u,v' pair")
        a, b = pair
        key = (a, b) if a < b else (b, a)
        pool = by_pair.get(key)
        if not pool:
            raise ValueError(
                f"tree edge ({a},{b}) not available in the graph"
            )
        ids.append(pool.popleft())
    return ids


def _resolve_tree(graph: Graph, selector: str, root: int, seed: int):
    if selector in STRATEGIES:
        return gen_spanning_tree(graph, root, seed, selector)
    text = selector
    if selector.startswith("@"):
        with open(selector[1:], encoding="utf-8") as fh:
            text = fh.read()
    return build_rooted_tree(graph, _tree_ids_from_pairs(graph, text), root)


def _case_label(tag: CaseTag) -> str:
    name = tag.name
    return name.split("_", 1)[0] if name.startswith("CASE") else name


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", required=True, help="edge-list file")
    parser.add_argument(
        "--tree",
        default="bfs",
        help="bfs|dfs|uniform, an inline 'u,v;u,v;...' edge list, or @file",
    )
    parser.add_argument("--root", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="respecting-cuts",
        description="Cut sizes through a rooted spanning tree's subtree algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("delta", help="cut size of every subtree")
    _add_common(p)

    p = sub.add_parser("gamma", help="cut intersection size of a query set")
    _add_common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pair", help="two vertices 'x,y'")
    group.add_argument("--set", dest="members", help="vertices 'v1,v2,...'")

    p = sub.add_parser("cutsize", help="cut size via the tree decomposition")
    _add_common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--respect", help="non-root vertices whose parent edges cross"
    )
    group.add_argument(
        "--vertex-set", help="inline 'v1,v2,...' or @file with the cut side"
    )

    p = sub.add_parser("decompose", help="cut to subtree basis")
    _add_common(p)
    p.add_argument(
        "--vertex-set", required=True, help="inline 'v1,v2,...' or @file"
    )

    p = sub.add_parser("selfcheck", help="engine vs reference on random instances")
    p.add_argument("--n", type=int, default=8, help="largest graph size")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=7)

    return parser


def _cmd_delta(args, max_k) -> int:
    graph = _parse_graph_file(args.graph)
    tree = _resolve_tree(graph, args.tree, args.root, args.seed)
    sizes = all_subtree_cut_sizes(graph, tree)
    # The line _emit would print, in one format: json.dumps takes about
    # twice as long over 1e5 sizes.
    line = '{"delta":{' + ",".join(['"%d":%d'] * len(sizes)) + "}}"
    print(line % tuple(chain.from_iterable(sizes.items())))
    return 0


def _cmd_gamma(args, max_k) -> int:
    graph = _parse_graph_file(args.graph)
    tree = _resolve_tree(graph, args.tree, args.root, args.seed)
    if args.pair is not None:
        pair = _parse_int_list(args.pair)
        if len(pair) != 2:
            raise ValueError("--pair needs exactly two vertices")
        value = pairwise_gamma(graph, tree, pair[0], pair[1])
        _emit({"gamma": value, "case": CaseTag.BASE_PAIR.name})
        return 0
    members = _read_id_argument(args.members)
    k, limit = len(set(members)), checked_limit(max_k)
    if k > limit:
        raise KLimitExceeded(k, limit)
    case = classify_gamma_case(tree, members)
    value = k_wise_gamma(graph, tree, members)
    _emit({"gamma": value, "case": _case_label(case.tag)})
    return 0


def _cmd_cutsize(args, max_k) -> int:
    graph = _parse_graph_file(args.graph)
    tree = _resolve_tree(graph, args.tree, args.root, args.seed)
    if args.respect is not None:
        members = _read_id_argument(args.respect)
        size = k_respecting_cut_size(graph, tree, members, max_k=max_k)
        _emit({"size": size, "k": len(set(members))})
        return 0
    vertex_set = _read_id_argument(args.vertex_set)
    size, basis = cut_size_via_tree(graph, tree, vertex_set, max_k=max_k)
    _emit({"size": size, "k": len(basis)})
    return 0


def _cmd_decompose(args, max_k) -> int:
    graph = _parse_graph_file(args.graph)
    tree = _resolve_tree(graph, args.tree, args.root, args.seed)
    members = _read_id_argument(args.vertex_set)
    basis, complemented = tree.decompose_cut_as_xor_basis(members)
    _emit(
        {
            "basis": sorted(basis),
            "complemented": complemented,
            "k": len(basis),
        }
    )
    return 0


def _cmd_selfcheck(args, max_k) -> int:
    report = run_selfcheck(n_max=args.n, trials=args.trials, seed=args.seed)
    summary = {
        "trials": args.trials,
        "n_max": args.n,
        "seed": args.seed,
        "graphs": report.graphs,
        "comparisons": report.comparisons,
        "mismatches": report.mismatches,
        "cases": {k: report.case_counts[k] for k in sorted(report.case_counts)},
    }
    _emit(summary)
    if report.counterexample is not None:
        _emit({"counterexample": report.counterexample})
        return 1
    return 0


_COMMANDS = {
    "delta": _cmd_delta,
    "gamma": _cmd_gamma,
    "cutsize": _cmd_cutsize,
    "decompose": _cmd_decompose,
    "selfcheck": _cmd_selfcheck,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        max_k = _max_k_from_env()
        return _COMMANDS[args.command](args, max_k)
    except (
        GraphInputError,
        TreeStructureError,
        QueryError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
