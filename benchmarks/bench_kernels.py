#!/usr/bin/env python3
"""Benchmark the compiled subset-DP kernels against the pure-Python fallback.

Each ``cutwidth_table`` and ``path_congestion_table`` row also times the
pure-Python search (``cutwidth_search``, ``path_congestion_search``) on
the same graph, in the ``search`` column, so the rows show where the
search overtakes each backend's fill; the solvers switch to it on the pure
backend by ``kernels.SEARCH_MIN_VERTICES`` and
``kernels.SEARCH_MAX_DENSITY``.  ``--density`` sets the share of vertex
pairs joined (by default a third), so runs at a few densities show the
crossover in both n and density.  Without the compiled kernels the
``compiled`` column is left empty.

Usage, from a checkout (``src`` on the import path, as for the tests):
  PYTHONPATH=src python benchmarks/bench_kernels.py                 # quick sizes
  PYTHONPATH=src python benchmarks/bench_kernels.py --full          # up to the solver limits
  PYTHONPATH=src python benchmarks/bench_kernels.py --density 0.7   # denser graphs
"""

import argparse
import random
import timeit

from linewidth.graphs import Graph, _adjacency_masks
from linewidth.kernels import BACKEND, backends

KERNELS = (
    "treewidth_table",
    "vertex_separation_table",
    "cutwidth_table",
    "path_congestion_table",
    "tree_congestion_table",
)

REPEATS = 3  # calls per row; the fastest is printed


def random_masks(n: int, seed: int, density: float | None = None) -> list[int]:
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    m = max(n, len(pairs) // 3) if density is None else round(density * len(pairs))
    edges = rng.sample(pairs, m)
    return _adjacency_masks(Graph(n, edges), range(1, n + 1))


def time_call(fn, masks) -> float:
    """The best of REPEATS calls, so one slow call does not set a row."""
    return min(timeit.repeat(lambda: fn(masks), number=1, repeat=REPEATS))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--full", action="store_true", help="run the larger sizes")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--density", type=float, help="share of vertex pairs joined, 0 to 1 (default: a third)"
    )
    args = parser.parse_args()
    if args.density is not None and not 0 <= args.density <= 1:
        parser.error("--density must lie between 0 and 1")

    impls = backends()
    pure_impl = impls["pure-python"]
    compiled = impls.get("compiled")
    print(f"selected backend: {BACKEND}; available: {', '.join(impls)}")
    searches = {
        "cutwidth_table": pure_impl.cutwidth_search,
        "path_congestion_table": pure_impl.path_congestion_search,
    }

    sizes = {
        "treewidth_table": [10, 12, 14] + ([16, 18, 20] if args.full else []),
        "vertex_separation_table": [12, 14, 16] + ([18, 20] if args.full else []),
        "cutwidth_table": [8, 10, 11, 12, 13, 14, 16] + ([18, 20] if args.full else []),
        "path_congestion_table": [8, 10, 11, 12, 13, 14, 16] + ([18, 20] if args.full else []),
        "tree_congestion_table": [10, 12, 14] + ([16] if args.full else []),
    }
    header = (
        f"{'kernel':<26} {'n':>3} {'pure (s)':>10} {'compiled (s)':>13} {'speedup':>8}"
        f" {'search (s)':>11}"
    )
    print(header)
    print("-" * len(header))
    for name in KERNELS:
        for n in sizes[name]:
            masks = random_masks(n, args.seed, args.density)
            pure = time_call(getattr(pure_impl, name), masks)
            row = f"{name:<26} {n:>3} {pure:>10.4f}"
            if compiled is None:
                row += f" {'-':>13} {'-':>8}"
            else:
                comp = time_call(getattr(compiled, name), masks)
                speedup = pure / comp if comp > 0 else float("inf")
                row += f" {comp:>13.4f} {speedup:>7.1f}x"
            if name in searches:
                row += f" {time_call(searches[name], masks):>11.4f}"
            print(row)


if __name__ == "__main__":
    main()
