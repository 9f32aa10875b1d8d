"""Positive-unlabeled node classification with structure-aware losses.

The engine trains a small from-scratch GCN under four loss functions (naive
all-unlabeled-negative, nnPU, Dist-PU, and a distance-aware PU loss over a
BFS partition of the unlabeled nodes), optionally combined with a structural
regularizer that aligns representation similarity with the graph.
"""

__version__ = "0.1.0"

from .data import (PreparedDataset, PUDataset, build_dataset, make_pu_split,
                   prepare_dataset)
from .evaluate import macro_f1, run_grid, run_sweep, score
from .graph import (DistancePartition, Graph, NormalizedAdjacency, build_graph,
                    generate_sbm, multi_source_bfs, normalize_adjacency,
                    partition_unlabeled)
from .losses import (LossConfig, LossValue, combined_objective,
                     distance_aware_loss, distpu_loss, naive_loss, nnpu_loss,
                     structural_regularizer)
from .nn import (ForwardCache, ParamStore, gcn_backward, gcn_forward,
                 init_params, load_checkpoint, save_checkpoint)
from .train import Adam, NegativeSampler, TrainConfig, train

__all__ = [
    "__version__",
    "PreparedDataset", "PUDataset", "build_dataset", "make_pu_split", "prepare_dataset",
    "macro_f1", "run_grid", "run_sweep", "score",
    "DistancePartition", "Graph", "NormalizedAdjacency", "build_graph",
    "generate_sbm", "multi_source_bfs", "normalize_adjacency",
    "partition_unlabeled",
    "LossConfig", "LossValue", "combined_objective", "distance_aware_loss",
    "distpu_loss", "naive_loss", "nnpu_loss", "structural_regularizer",
    "ForwardCache", "ParamStore", "gcn_backward", "gcn_forward",
    "init_params", "load_checkpoint", "save_checkpoint",
    "Adam", "NegativeSampler", "TrainConfig", "train",
]
