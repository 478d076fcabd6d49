"""Treewidth and pathwidth of line graphs via tree and path congestion.

The package computes exact values (subset-DP solvers, and a first-fit
tree search that replays the tree-congestion witness), every constructive
decomposition transformation between a graph and its line graph,
closed-form degree bounds with their sharpness families, and
exact-rational verification of the bound constants' optimization steps.
"""

from linewidth.graphs import (
    DomainError,
    FormatError,
    Graph,
    SolverLimitError,
    degree_stats,
    line_graph,
    minimal_dense_subgraph,
)
from linewidth.kernels import BACKEND as KERNEL_BACKEND

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "FormatError",
    "Graph",
    "KERNEL_BACKEND",
    "SolverLimitError",
    "degree_stats",
    "line_graph",
    "minimal_dense_subgraph",
    "__version__",
]
