"""Random-search selection of sparse sub-networks in overparameterized nets.

The workflow: initialize a parent network, sample a population of binary
sparsity masks, score each masked (still untrained) sub-network on fresh
validation batches, keep the fittest mask, train it with momentum SGD, and
compare against a randomly drawn mask at the same sparsity.
"""

from .data import (Dataset, SplitSpec, batches, load_cifar10_binary, load_idx,
                   sample_batch, split, synthetic_blobs)
from .network import (LayerSpec, Network, SgdState, conv2d,
                      default_conv_spec, default_dense_spec, dense, evaluate,
                      flatten_layer, forward, init_network, loss_and_grads,
                      relu_layer, sgd_step)
from .numerics import RngStream, Tensor, he_normal, softmax_cross_entropy
from .pipeline import RunRecord, Splits, TrainConfig, run_cell, sweep
from .search import (Candidate, SearchConfig, SearchResult, fitness,
                     next_generation, run_search, select_best)
from .sparsity import (MaskSet, realized_sparsity, reduce_network, sample_mask,
                       sample_structured)

__version__ = "0.1.0"

__all__ = [
    "Candidate", "Dataset", "LayerSpec", "MaskSet", "Network", "RngStream",
    "RunRecord", "SearchConfig", "SearchResult", "SgdState", "SplitSpec",
    "Splits", "Tensor", "TrainConfig", "batches",
    "conv2d", "default_conv_spec", "default_dense_spec", "dense",
    "evaluate", "fitness", "flatten_layer", "forward", "he_normal",
    "init_network", "load_cifar10_binary", "load_idx", "loss_and_grads",
    "next_generation", "realized_sparsity", "reduce_network", "relu_layer",
    "run_cell", "run_search", "sample_batch", "sample_mask", "sample_structured",
    "select_best", "sgd_step",
    "softmax_cross_entropy", "split", "sweep", "synthetic_blobs",
]
