#!/usr/bin/env python3
"""How often each classification case shows up, by tree strategy and set size.

Breadth-first trees run shallow and push query sets toward independence,
depth-first trees run deep and produce chains. Useful for sanity-checking
that the harness exercises every branch.

Usage:
    python3 scripts/case_frequencies.py --trials 2000 --n 60
"""

import argparse
from collections import Counter

import numpy as np

from respecting_cuts.gamma import classify_gamma_case
from respecting_cuts.generators import (
    STRATEGIES,
    gen_connected_graph,
    gen_query_set,
    gen_spanning_tree,
    seed_sequence,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=2000)
    parser.add_argument("--n", type=int, default=60)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    master = np.random.Generator(np.random.PCG64(seed_sequence(args.seed)))
    for strategy in STRATEGIES:
        counts = Counter()
        for _ in range(args.trials):
            n = int(master.integers(max(args.k + 2, 6), args.n + 1))
            m = int(master.integers(n - 1, 2 * n))
            graph = gen_connected_graph(n, m, int(master.integers(2**62)))
            tree = gen_spanning_tree(
                graph, 0, int(master.integers(2**62)), strategy
            )
            k = int(master.integers(3, args.k + 1))
            members = gen_query_set(tree, k, int(master.integers(2**62)))
            counts[classify_gamma_case(tree, members).tag.name] += 1
        print(f"{strategy}:")
        total = sum(counts.values())
        for tag, count in counts.most_common():
            print(f"  {tag:34s} {count:6d}  {count / total:6.1%}")


if __name__ == "__main__":
    main()
