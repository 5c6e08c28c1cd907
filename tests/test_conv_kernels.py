"""Property tests for the blocked im2col convolution kernels and the backward pass.

The kernels are checked against a direct reference that visits every output
position and contracts its window with ``einsum`` (``helpers.reference_forward``
and ``reference_backward``). Block sizes are shrunk so that small batches
cover a single example, exactly one block and several blocks with a ragged
last one. The whole-network checks compare the reduced network with the
masked parent's reference pass, with the pruned parent and with central
finite differences of the reference loss.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
from weedout import network
from weedout.network import (conv2d, dense, flatten_layer, init_network,
                             loss_and_grads, masked_network, relu_layer)
from weedout.numerics import RngStream
from weedout.sparsity import reduce_network, sample_mask

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
NETWORK_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True,
                            database=None)
# Rounding in float64 sums of a few hundred O(1) terms stays below 1e-12;
# an indexing error moves entries by O(1).
ATOL = 1e-10
FD_EPS = 1e-5


@st.composite
def conv_cases(draw):
    """A conv layer's operands, a block size and a batch size.

    ``batch`` is one example, exactly one block, or two full blocks plus a
    ragged one-example block; ``block_bytes`` is never a multiple of one
    example's patch bytes, so the kernel must round down.
    """
    k = draw(st.integers(1, 4))
    stride = draw(st.integers(1, 3))
    c_in = draw(st.integers(1, 5))
    c_out = draw(st.integers(1, 5))
    oh, ow = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    h = (oh - 1) * stride + k + draw(st.integers(0, stride - 1))
    w = (ow - 1) * stride + k + draw(st.integers(0, stride - 1))
    per_block = draw(st.integers(2, 4))
    batch = draw(st.sampled_from([1, per_block, 2 * per_block + 1]))
    example_bytes = oh * ow * k * k * c_in * 8
    block_bytes = per_block * example_bytes + draw(st.integers(0, example_bytes - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(batch, h, w, c_in))
    weight = rng.normal(size=(k, k, c_in, c_out))
    bias = rng.normal(size=c_out)
    dout = rng.normal(size=(batch, oh, ow, c_out))
    return x, weight, bias, stride, dout, block_bytes, math.ceil(batch / per_block)


class TestConvKernels:
    @PROPERTY
    @given(conv_cases())
    def test_forward_matches_reference(self, case):
        x, w, b, stride, _, block_bytes, n_blocks = case
        with mock.patch.object(network, "_BLOCK_BYTES", block_bytes):
            assert len(list(network._patch_blocks(x, *w.shape[:2], stride))) == n_blocks
            out = network._conv_forward(x, w, b, stride)
        np.testing.assert_allclose(out, helpers.reference_forward(x, w, b, stride), rtol=0, atol=ATOL)

    @PROPERTY
    @given(conv_cases())
    def test_backward_matches_reference(self, case):
        x, w, _, stride, dout, block_bytes, _ = case
        with mock.patch.object(network, "_BLOCK_BYTES", block_bytes):
            dw, db, dx = network._conv_backward(x, w, stride, dout)
            dw_only, db_only, no_dx = network._conv_backward(x, w, stride, dout,
                                                             input_grad=False)
        ref_dw, ref_db, ref_dx = helpers.reference_backward(x, w, stride, dout)
        np.testing.assert_allclose(dw, ref_dw, rtol=0, atol=ATOL)
        np.testing.assert_allclose(db, ref_db, rtol=0, atol=ATOL)
        np.testing.assert_allclose(dx, ref_dx, rtol=0, atol=ATOL)
        assert no_dx is None
        np.testing.assert_array_equal(dw_only, dw)
        np.testing.assert_array_equal(db_only, db)


@st.composite
def masked_conv_nets(draw):
    """A two-conv network with drawn kernels, strides and a non-square input."""
    c_in = draw(st.integers(1, 2))
    k1, k2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    s1, s2 = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    spec = [conv2d(draw(st.integers(2, 4)), k1, stride=s1), relu_layer(),
            conv2d(draw(st.integers(2, 4)), k2, stride=s2), relu_layer(),
            flatten_layer(), dense(draw(st.integers(2, 5))), relu_layer(),
            dense(3)]
    dims = []
    for _ in range(2):
        size = draw(st.integers(1, 3))
        size = (size - 1) * s2 + k2 + draw(st.integers(0, s2 - 1))
        dims.append((size - 1) * s1 + k1 + draw(st.integers(0, s1 - 1)))
    shape = (dims[0], dims[1], c_in)
    seed = draw(st.integers(0, 2**31 - 1))
    eta = draw(st.floats(0.0, 0.6))
    return spec, shape, seed, eta


def nonzero_biases(net, rng):
    """Give every bias a random value.

    With the initial zero biases a layer whose inputs are all dead feeds an
    exact zero into the next relu: a kink, at which ``kink_distance`` reads 0
    and the instance is drawn again. Nonzero biases make such draws rare and
    cover gradients through nonzero biases too.
    """
    for p in net.params:
        if p is not None:
            p.bias[:] = rng.split(str(p.bias.size)).normal(p.bias.shape)


class TestMaskedReducedFiniteDifferences:
    @NETWORK_PROPERTY
    @given(masked_conv_nets())
    def test_masked_equals_reduced_equals_finite_differences(self, case):
        spec, shape, seed, eta = case
        rng = RngStream(seed)
        net = init_network(spec, shape, seed=seed)
        nonzero_biases(net, rng.split("bias"))
        mask = sample_mask(spec, None, eta, "structured", rng.split("mask"))
        x = rng.split("x").normal((4,) + shape)
        y = np.asarray(rng.split("y").integers(0, 3, size=4))
        assume(helpers.kink_distance(net, mask, x) > 10 * FD_EPS)

        loss_p, grads_p = loss_and_grads(masked_network(net, mask), x, y)
        loss_r, grads_r = loss_and_grads(reduce_network(net, mask), x, y)
        assert abs(loss_p - loss_r) < 1e-9
        assert abs(helpers.reference_loss(net, mask, x, y) - loss_r) < 1e-9
        assert helpers.reduced_logit_gap(net, mask, x) < 1e-9
        sliced = helpers.slice_parent_gradients(net, mask, grads_p)
        assert helpers.gradients_close(sliced, grads_r, atol=1e-9)
        assert helpers.masked_incident_zero(net, mask, grads_p)
        numeric = helpers.numeric_gradients(net, mask, x, y, eps=FD_EPS)
        assert helpers.max_rel_error(grads_r, helpers.slice_parent_gradients(
            net, mask, numeric)) < 1e-6


def kink_free_instance(spec, shape, mask_for, seed):
    """Network, mask and batch whose relu inputs stay clear of the kink."""
    for attempt in range(20):
        rng = RngStream(seed).split(f"attempt{attempt}")
        net = init_network(spec, shape, seed=rng.spawn_seed())
        nonzero_biases(net, rng.split("bias"))
        mask = mask_for(rng.split("mask"))
        x = rng.split("x").normal((5,) + shape)
        y = np.asarray(rng.split("y").integers(0, 3, size=5))
        if helpers.kink_distance(net, mask, x) > 10 * FD_EPS:
            return net, mask, x, y
    raise AssertionError("no kink-free instance in 20 draws")


CONV_FIRST = ([conv2d(3, 3, stride=2), relu_layer(), conv2d(4, 2), relu_layer(),
               flatten_layer(), dense(5), relu_layer(), dense(3)],
              (9, 8, 2))
DENSE_FIRST = ([dense(6), relu_layer(), dense(5), relu_layer(), dense(3)],
               (7,))


class TestFirstLayerInputGradient:
    """The first layer's input gradient is skipped; every parameter gradient holds."""

    @pytest.mark.parametrize("spec, shape", [CONV_FIRST, DENSE_FIRST],
                             ids=["conv_first", "dense_first"])
    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "unstructured"])
    def test_gradients_match_finite_differences(self, spec, shape, masked):
        def mask_for(rng):
            return sample_mask(spec, shape, 0.5, "unstructured", rng) if masked else None

        net, mask, x, y = kink_free_instance(spec, shape, mask_for, seed=7)
        _, grads = loss_and_grads(masked_network(net, mask), x, y)
        numeric = helpers.numeric_gradients(net, mask, x, y, eps=FD_EPS)
        if masked:  # a masked-off weight has no effect, so no numeric gradient
            for i, m in mask.masks.items():
                assert (~m).any() and np.all(numeric[i].weight[~m] == 0.0)
                grads[i].weight *= m  # as sgd_step's weight_masks does
        assert helpers.max_rel_error(grads, numeric) < 1e-6

    def test_conv_first_layer_skips_input_gradient(self, monkeypatch):
        spec, shape = CONV_FIRST
        net = init_network(spec, shape, seed=3)
        x = RngStream(4).normal((3,) + shape)
        y = np.array([0, 1, 2])
        calls = []
        real = network._conv_backward

        def spy(x, w, stride, dout, input_grad=True, pool=None):
            result = real(x, w, stride, dout, input_grad, pool)
            calls.append((x.shape, input_grad, result[2] is None))
            return result

        monkeypatch.setattr(network, "_conv_backward", spy)
        loss_and_grads(net, x, y)
        # Backward runs from the last layer: conv2 first, then conv1.
        assert calls == [((3, 4, 3, 3), True, False), ((3,) + shape, False, True)]
