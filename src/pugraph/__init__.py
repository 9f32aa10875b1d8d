"""Positive-unlabeled node classification with structure-aware losses.

The engine trains a small from-scratch GCN under four loss functions (naive
all-unlabeled-negative, nnPU, Dist-PU, and a distance-aware PU loss over a
BFS partition of the unlabeled nodes), optionally combined with a structural
regularizer that aligns representation similarity with the graph.
"""

__version__ = "0.1.0"
