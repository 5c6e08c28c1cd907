import pytest

from weedout import RngStream, synthetic_blobs
from weedout.data import SplitSpec, split
from weedout.network import conv2d, dense, flatten_layer, relu_layer


@pytest.fixture
def rng():
    return RngStream(1234)


@pytest.fixture
def small_dense_spec():
    return [dense(8), relu_layer(), dense(6), relu_layer(), dense(3)]


@pytest.fixture
def small_conv_spec():
    return [conv2d(3, 3), relu_layer(), conv2d(4, 3), relu_layer(),
            flatten_layer(), dense(8), relu_layer(), dense(3)]


@pytest.fixture(scope="session")
def blob_splits():
    """Small oracle task shared by search/pipeline tests."""
    ds = synthetic_blobs(num_classes=10, per_class=100, dim=16, spread=0.35, seed=0)
    return split(ds, SplitSpec(0.6, 0.2, 0.2, seed=1))
