"""Random-search selection of sparse sub-networks in overparameterized nets.

The workflow: initialize a parent network, sample a population of binary
sparsity masks, score each masked (still untrained) sub-network on fresh
validation batches, keep the fittest mask, train it with momentum SGD, and
compare against a randomly drawn mask at the same sparsity.
"""

from .data import (Dataset, SplitSpec, Splits, batches, load_cifar10_binary,
                   load_idx, sample_batch, split, synthetic_blobs)
from .network import (LayerSpec, Network, SgdState, conv2d,
                      default_conv_spec, default_dense_spec, dense, evaluate,
                      flatten_layer, forward, init_network, loss_and_grads,
                      relu_layer, sgd_step)
from .numerics import RngStream, Tensor, he_normal, softmax_cross_entropy
from .pipeline import RunRecord, TrainConfig, run_cell, sweep
from .search import Candidate, SearchConfig, SearchResult, fitness, run_search
from .sparsity import (MaskSet, realized_sparsity, reduce_network, sample_mask,
                       sample_structured)

__version__ = "0.1.0"
