import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import helpers
from weedout import network, pipeline, search, synthetic_blobs
from weedout.errors import (MaskMismatchError, ShapeMismatchError,
                            SpecValidationError)
from weedout.network import (LayerParams, SgdState, activation_block_rows, conv2d,
                             default_conv_spec, default_dense_spec, dense, evaluate,
                             flatten_layer, forward, init_network,
                             layer_output_shapes, loss_and_grads,
                             maskable_indices, parent_checksum, relu_layer,
                             sgd_step)
from weedout.numerics import RngStream
from weedout.pipeline import Splits, TrainConfig, _train, run_cell
from weedout.search import SearchConfig, run_search
from weedout.sparsity import (MaskSet, resample_mask, sample_mask, sample_structured,
                              sub_network)
from weedout.data import Dataset


def params_equal(a, b):
    for pa, pb in zip(a.params, b.params):
        if (pa is None) != (pb is None):
            return False
        if pa is not None:
            if not (np.array_equal(pa.weight, pb.weight)
                    and np.array_equal(pa.bias, pb.bias)):
                return False
    return True


def traced_peak(compute) -> int:
    """Peak traced bytes that ``compute()`` allocates above what it starts with."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        compute()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestSpecValidation:
    def test_shapes_walk(self, small_conv_spec):
        shapes = layer_output_shapes(small_conv_spec, (10, 10, 1))
        assert shapes[0] == (8, 8, 3)
        assert shapes[2] == (6, 6, 4)
        assert shapes[4] == (6 * 6 * 4,)
        assert shapes[-1] == (3,)

    def test_dense_on_image_requires_flatten(self):
        spec = [dense(4), relu_layer(), dense(2)]
        with pytest.raises(SpecValidationError):
            layer_output_shapes(spec, (5, 5, 1))

    def test_kernel_too_large(self):
        spec = [conv2d(2, 7), flatten_layer(), dense(2)]
        with pytest.raises(SpecValidationError):
            layer_output_shapes(spec, (5, 5, 1))

    def test_final_layer_must_be_dense(self):
        spec = [conv2d(2, 3)]
        with pytest.raises(SpecValidationError):
            layer_output_shapes(spec, (5, 5, 1))

    def test_empty_and_bad_width(self):
        with pytest.raises(SpecValidationError):
            layer_output_shapes([], (3,))
        with pytest.raises(SpecValidationError):
            layer_output_shapes([dense(0)], (3,))


class TestInitNetwork:
    def test_deterministic(self, small_dense_spec):
        a = init_network(small_dense_spec, (5,), seed=9)
        b = init_network(small_dense_spec, (5,), seed=9)
        assert params_equal(a, b)
        assert parent_checksum(a) == parent_checksum(b)

    def test_different_seeds_differ(self, small_dense_spec):
        a = init_network(small_dense_spec, (5,), seed=1)
        b = init_network(small_dense_spec, (5,), seed=2)
        assert not params_equal(a, b)

    def test_he_sigma_on_dense_layer(self):
        spec = [dense(40), relu_layer(), dense(3)]
        net = init_network(spec, (50,), seed=3)
        w = net.params[0].weight
        assert w.shape == (50, 40)
        assert abs(w.std() - 0.2) < 0.02

    def test_biases_zero(self, small_conv_spec):
        net = init_network(small_conv_spec, (10, 10, 1), seed=4)
        for p in net.params:
            if p is not None:
                assert np.all(p.bias == 0.0)

    def test_parent_checksum_is_sha256_of_every_parameter_in_order(self, small_conv_spec):
        net = init_network(small_conv_spec, (10, 10, 1), seed=4)
        blob = b"".join(p.weight.tobytes() + p.bias.tobytes()
                        for p in net.params if p is not None)
        assert parent_checksum(net) == hashlib.sha256(blob).hexdigest()
        # a weight held in another memory order hashes as its C-order bytes
        net.params[0] = LayerParams(np.asfortranarray(net.params[0].weight),
                                    net.params[0].bias)
        assert not net.params[0].weight.flags.c_contiguous
        assert parent_checksum(net) == hashlib.sha256(blob).hexdigest()

    def test_inconsistent_spec_rejected(self):
        with pytest.raises(SpecValidationError):
            init_network([conv2d(2, 3), dense(2)], (5, 5, 1), seed=0)


class TestForward:
    def test_all_ones_mask_equals_unmasked(self, small_conv_spec, rng):
        net = init_network(small_conv_spec, (10, 10, 1), seed=5)
        x = rng.normal((4, 10, 10, 1))
        ones = resample_mask(small_conv_spec, None, "structured", 0.0, 0)
        np.testing.assert_array_equal(forward(net, ones, x), forward(net, None, x))

    def test_zero_mask_blocks_signal(self, small_dense_spec, rng):
        # biases are zero at init, so a fully deactivated layer kills the logits
        net = init_network(small_dense_spec, (5,), seed=6)
        masks = {i: np.ones(small_dense_spec[i].width)
                 for i in maskable_indices(small_dense_spec)}
        masks[0] = np.zeros(small_dense_spec[0].width)
        mask = MaskSet("structured", masks)
        logits = forward(net, mask, rng.normal((7, 5)))
        np.testing.assert_array_equal(logits, np.zeros((7, 3)))

    def test_masked_node_equals_hand_reduced_network(self, rng):
        """4-unit hidden layer with node 1 hidden == 3-unit network built by hand."""
        spec = [dense(4), relu_layer(), dense(3)]
        net = init_network(spec, (5,), seed=7)
        mask = MaskSet("structured", {0: np.array([1.0, 0.0, 1.0, 1.0])})
        x = rng.normal((6, 5))
        keep = [0, 2, 3]
        w0, b0 = net.params[0].weight, net.params[0].bias
        w2, b2 = net.params[2].weight, net.params[2].bias
        hand = np.maximum(x @ w0[:, keep] + b0[keep], 0.0) @ w2[keep, :] + b2
        np.testing.assert_allclose(forward(net, mask, x), hand, atol=1e-12)

    def test_batch_shape_mismatch(self, small_dense_spec, rng):
        net = init_network(small_dense_spec, (5,), seed=8)
        with pytest.raises(ShapeMismatchError):
            forward(net, None, rng.normal((4, 6)))

    def test_mask_congruence_errors(self, small_dense_spec, rng):
        net = init_network(small_dense_spec, (5,), seed=8)
        x = rng.normal((2, 5))
        with pytest.raises(MaskMismatchError):
            forward(net, MaskSet("structured", {0: np.ones(8)}), x)  # missing layer 2
        with pytest.raises(MaskMismatchError):
            forward(net, MaskSet("structured", {0: np.ones(7), 2: np.ones(6)}), x)
        with pytest.raises(MaskMismatchError):
            forward(net, MaskSet("structured", {0: np.full(8, 0.5), 2: np.ones(6)}), x)


class TestGradients:
    def test_dense_gradients_match_finite_differences(self, small_dense_spec, rng):
        net = init_network(small_dense_spec, (5,), seed=11)
        x = rng.normal((5, 5))
        y = np.array([0, 1, 2, 0, 1])
        _, grads = loss_and_grads(net, None, x, y)
        numeric = helpers.numeric_gradients(net, None, x, y)
        assert helpers.max_rel_error(grads, numeric) < 1e-6

    def test_conv_gradients_match_finite_differences(self, rng):
        spec = [conv2d(2, 3), relu_layer(), flatten_layer(),
                dense(5), relu_layer(), dense(3)]
        net = init_network(spec, (6, 6, 1), seed=12)
        x = rng.normal((3, 6, 6, 1))
        y = np.array([0, 2, 1])
        _, grads = loss_and_grads(net, None, x, y)
        numeric = helpers.numeric_gradients(net, None, x, y)
        assert helpers.max_rel_error(grads, numeric) < 1e-6

    def test_masked_gradients_match_finite_differences(self, small_dense_spec, rng):
        net = init_network(small_dense_spec, (5,), seed=13)
        mask = sample_structured(small_dense_spec, 0.4, rng.split("m"))
        x = rng.normal((5, 5))
        y = np.array([2, 1, 0, 2, 1])
        _, grads = loss_and_grads(net, mask, x, y)
        numeric = helpers.numeric_gradients(net, mask, x, y)
        assert helpers.max_rel_error(grads, numeric) < 1e-6

    def test_all_ones_mask_grads_equal_unmasked(self, small_dense_spec, rng):
        net = init_network(small_dense_spec, (5,), seed=14)
        x = rng.normal((4, 5))
        y = np.array([0, 1, 2, 0])
        ones = resample_mask(small_dense_spec, None, "structured", 0.0, 0)
        _, masked = loss_and_grads(net, ones, x, y)
        _, plain = loss_and_grads(net, None, x, y)
        assert helpers.gradients_close(masked, plain, atol=0.0)

    def test_masked_incident_gradients_exactly_zero(self, small_conv_spec, rng):
        net = init_network(small_conv_spec, (10, 10, 1), seed=15)
        mask = sample_structured(small_conv_spec, 0.5, rng.split("m"))
        x = rng.normal((4, 10, 10, 1))
        y = np.array([0, 1, 2, 0])
        _, grads = loss_and_grads(net, mask, x, y)
        assert helpers.masked_incident_zero(net, mask, grads)


class TestSgd:
    def make_one_param_net(self, w0):
        spec = [dense(1)]
        net = init_network(spec, (1,), seed=0)
        net.params[0].weight[:] = w0
        net.params[0].bias[:] = 0.0
        return net

    def test_zero_grads_leave_network_unchanged(self, small_dense_spec):
        net = init_network(small_dense_spec, (5,), seed=16)
        before = net.copy()
        grads = [LayerParams(np.zeros_like(p.weight), np.zeros_like(p.bias))
                 if p is not None else None for p in net.params]
        sgd_step(net, grads, lr=0.1, momentum=0.9, state=SgdState.zeros(net))
        assert params_equal(net, before)

    def test_momentum_zero_is_plain_gradient_descent(self, small_dense_spec, rng):
        net = init_network(small_dense_spec, (5,), seed=17)
        expected = net.copy()
        grads = [LayerParams(rng.split(f"g{i}").normal(p.weight.shape),
                             rng.split(f"b{i}").normal(p.bias.shape))
                 if p is not None else None for i, p in enumerate(net.params)]
        sgd_step(net, grads, lr=0.05, momentum=0.0, state=SgdState.zeros(net))
        for p, g in zip(expected.params, grads):
            if p is not None:
                p.weight -= 0.05 * g.weight
                p.bias -= 0.05 * g.bias
        assert params_equal(net, expected)

    def test_quadratic_recurrence(self):
        # loss w^2, grad 2w, lr 0.1 -> w_k = 0.8^k
        net = self.make_one_param_net(1.0)
        state = SgdState.zeros(net)
        for k in range(1, 11):
            g = [LayerParams(2.0 * net.params[0].weight.copy(),
                             np.zeros_like(net.params[0].bias))]
            sgd_step(net, g, lr=0.1, momentum=0.0, state=state)
            assert abs(net.params[0].weight[0, 0] - 0.8 ** k) < 1e-12

    def test_invalid_lr_and_momentum(self, small_dense_spec):
        net = init_network(small_dense_spec, (5,), seed=18)
        grads = [LayerParams(np.zeros_like(p.weight), np.zeros_like(p.bias))
                 if p is not None else None for p in net.params]
        with pytest.raises(ValueError):
            sgd_step(net, grads, lr=0.0, momentum=0.0, state=SgdState.zeros(net))
        with pytest.raises(ValueError):
            sgd_step(net, grads, lr=0.1, momentum=1.0, state=SgdState.zeros(net))

    def test_masked_parameters_never_updated(self, small_dense_spec, rng):
        """Deactivated nodes' incident weights keep their init values while training."""
        net = init_network(small_dense_spec, (5,), seed=19)
        init_params = net.copy()
        mask = sample_structured(small_dense_spec, 0.5, rng.split("m"))
        state = SgdState.zeros(net)
        x = rng.normal((16, 5))
        y = rng.integers(0, 3, size=16)
        for _ in range(5):
            _, grads = loss_and_grads(net, mask, x, np.asarray(y))
            sgd_step(net, grads, lr=0.05, momentum=0.9, state=state)
        sel = helpers.active_selectors(net.spec, net.input_shape, mask)
        for i, p in enumerate(net.params):
            if p is None:
                continue
            in_sel, out_sel = sel[i]
            np.testing.assert_array_equal(p.weight[~in_sel],
                                          init_params.params[i].weight[~in_sel])
            np.testing.assert_array_equal(p.weight[:, ~out_sel],
                                          init_params.params[i].weight[:, ~out_sel])


class TestEvaluate:
    def test_constructed_labels_give_accuracy_one(self, small_dense_spec, rng):
        net = init_network(small_dense_spec, (5,), seed=20)
        x = rng.normal((50, 5))
        labels = forward(net, None, x).argmax(axis=1)
        ds = Dataset(x, labels, num_classes=3)
        res = evaluate(net, None, ds)
        assert res.accuracy == 1.0

    def test_balanced_random_labels_near_chance(self):
        spec = [dense(16), relu_layer(), dense(10)]
        net = init_network(spec, (8,), seed=21)
        rng = RngStream(77)
        n = 2000
        x = rng.normal((n, 8))
        y = np.asarray(rng.integers(0, 10, size=n))
        ds = Dataset(x, y, num_classes=10)
        res = evaluate(net, None, ds)
        sigma = math.sqrt(0.1 * 0.9 / n)
        assert abs(res.accuracy - 0.1) <= 3 * sigma + 1e-12

    def test_deterministic(self, small_dense_spec, rng):
        net = init_network(small_dense_spec, (5,), seed=22)
        ds = Dataset(rng.normal((37, 5)), np.asarray(rng.integers(0, 3, size=37)), 3)
        a = evaluate(net, None, ds)
        b = evaluate(net, None, ds)
        assert a == b

    def test_empty_dataset_unconstructible(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 3)


class TestActivationMemory:
    def test_relu_never_writes_into_the_callers_inputs(self):
        """A relu right after flatten reads a view of the batch, and a float
        dataset's slices are views of its inputs: the relu must not write there."""
        ds = synthetic_blobs(num_classes=3, per_class=40, dim=6, spread=0.35, seed=5)
        before = ds.inputs.tobytes()
        assert (ds.inputs < 0).any()  # a relu written into them would change them
        net = init_network([flatten_layer(), relu_layer(), dense(3)],
                           (6,), seed=0)
        x, y = ds.take(slice(0, 40))
        steps = {
            "evaluate": lambda: evaluate(net, None, ds),
            "loss_and_grads": lambda: loss_and_grads(net, None, x, y),
            "_train": lambda: _train(net, MaskSet("unstructured", {}),
                                     TrainConfig(epochs=1, batch_size=16),
                                     Splits(ds, ds, ds), RngStream(0), "run"),
        }
        for name, step in steps.items():
            step()
            assert ds.inputs.tobytes() == before, name

    def test_evaluate_peak_stays_within_one_training_step(self):
        """Forwarded in training-batch blocks, evaluation holds no more traced
        memory than one forward and backward pass at that batch."""
        spec = [conv2d(8, 3), relu_layer(), conv2d(16, 3), relu_layer(),
                flatten_layer(), dense(32), relu_layer(), dense(10)]
        shape, batch = (16, 16, 3), 32
        rng = RngStream(8)
        net = init_network(spec, shape, seed=1)
        mask = sample_mask(spec, shape, 0.5, "unstructured", rng.split("mask"))
        x = rng.split("x").normal((512,) + shape)
        y = np.asarray(rng.split("y").integers(0, 10, size=512))
        ds = Dataset(x, y, 10)
        eval_peak = traced_peak(lambda: evaluate(net, mask, ds, block_rows=batch))
        step_peak = traced_peak(
            lambda: network._forward_backward(net, mask, x[:batch], y[:batch]))
        assert eval_peak <= step_peak

    def test_block_rows_fill_2mb_or_match_the_largest_weight(self):
        """Hand-computed: the desk net's widest activation is 64 floats, so 2 MB
        holds 4,096 rows; the MNIST conv net reduced at eta 0.6 has a 7488x51
        dense weight on its widest activation of 7,488 (51 rows, rounded down
        to 48), and the CIFAR-shaped parent a 25088x128 one on 25,088."""
        desk = init_network(default_dense_spec(10), (16,), seed=0)
        mnist = init_network(default_conv_spec(10), (28, 28, 1), seed=0)
        reduced, _ = sub_network(mnist, resample_mask(mnist.spec, None, "structured", 0.6, 0))
        cifar = init_network(default_conv_spec(10), (32, 32, 3), seed=0)
        assert reduced.params[5].weight.shape == (7488, 51)
        assert [activation_block_rows(n) for n in (desk, reduced, cifar)] == [4096, 48, 128]

    def test_blocked_search_peak_is_within_three_quarters_of_one_block(self, monkeypatch):
        """A structured conv_default search on 28x28 images at batch 128, eta
        0.6, scores in blocks of 48, 48 and 32 rows: it holds well under the
        activations of one 128-row block."""
        net = init_network(default_conv_spec(10), (28, 28, 1), seed=0)
        rng = RngStream(9)
        val = Dataset(rng.split("x").normal((128, 28, 28, 1)),
                      np.asarray(rng.split("y").integers(0, 10, size=128)), 10)
        cfg = SearchConfig(population_size=2, generations=1, validation_batch_size=128)

        def one_search():
            run_search(net, cfg, 0.6, val, RngStream(1))

        blocked_peak = traced_peak(one_search)
        monkeypatch.setattr(search, "activation_block_rows", lambda net: 1 << 30)
        assert blocked_peak <= 0.75 * traced_peak(one_search)

    def test_desk_search_forwards_each_candidate_once(self, monkeypatch):
        """The desk net's 4,096-row blocks keep a 256-row batch one forward."""
        real_fitness, real_forward = search.fitness, network._forward_pass
        scored, forwarded = [], []

        def fitness_spy(*args):
            scored.append(args[1])
            return real_fitness(*args)

        def forward_spy(net, mask, x, keep_inputs, pool=None):
            forwarded.append(len(x))
            return real_forward(net, mask, x, keep_inputs, pool)

        monkeypatch.setattr(search, "fitness", fitness_spy)
        monkeypatch.setattr(network, "_forward_pass", forward_spy)
        ds = synthetic_blobs(num_classes=10, per_class=40, dim=16, spread=0.35, seed=0)
        net = init_network(default_dense_spec(10), (16,), seed=4)
        cfg = SearchConfig(population_size=20, generations=3, validation_batch_size=256)
        run_search(net, cfg, 0.6, ds, RngStream(2))
        assert len(scored) == 60  # every candidate is distinct at eta 0.6
        assert forwarded == [256] * 60

    def test_later_training_steps_peak_no_higher_than_the_first(self, monkeypatch):
        """A step's gradients are dropped once the update has applied them, so
        the next step's forward and backward run without them: on an
        unstructured conv_default cell every step's traced peak stays within
        1 MiB of the first step's, where a kept gradient would add its 28x28
        net's weights (18.9 MB)."""
        rng = RngStream(11)
        ds = Dataset(rng.split("x").normal((96, 28, 28, 1)),
                     np.asarray(rng.split("y").integers(0, 10, size=96)), 10)
        real_forward_backward, peaks = pipeline._forward_backward, []

        def forward_backward_spy(*args):
            tracemalloc.reset_peak()
            out = real_forward_backward(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return out

        monkeypatch.setattr(pipeline, "_forward_backward", forward_backward_spy)
        tracemalloc.start()
        try:
            run_cell(default_conv_spec(10), (28, 28, 1), "random_baseline", 0.6, 0,
                     SearchConfig(mask_mode="unstructured"),
                     TrainConfig(epochs=1, batch_size=32), Splits(ds, ds, ds))
        finally:
            tracemalloc.stop()
        assert len(peaks) == 3
        assert max(peaks) - peaks[0] <= 1 << 20

    def test_dense_weight_gradients_run_after_the_conv_backward(self, monkeypatch):
        """A dense layer's weight gradient is taken once the backward pass has
        left the conv layers below it, whose gradients are freed by then."""
        spec = [conv2d(4, 3), relu_layer(), conv2d(5, 2, stride=2), relu_layer(),
                flatten_layer(), dense(6), relu_layer(), dense(3)]
        shape, batch = (9, 8, 2), 13
        rng = RngStream(3)
        net = init_network(spec, shape, seed=4)
        x = rng.split("x").normal((batch,) + shape)
        y = np.asarray(rng.split("y").integers(0, 3, size=batch))
        dense_shapes = {net.params[i].weight.shape for i in (5, 7)}
        real_gemm, real_conv_backward, calls = network._gemm, network._conv_backward, []

        def gemm_spy(a, b, pool=None):
            out = real_gemm(a, b, pool)
            weight_grad = a.shape[1] == batch and out.shape in dense_shapes
            calls.append("dense dw" if weight_grad else "gemm")
            return out

        def conv_backward_spy(*args, **kwargs):
            calls.append("conv backward")
            return real_conv_backward(*args, **kwargs)

        monkeypatch.setattr(network, "_gemm", gemm_spy)
        monkeypatch.setattr(network, "_conv_backward", conv_backward_spy)
        network._forward_backward(net, None, x, y)
        last_conv = max(k for k, call in enumerate(calls) if call == "conv backward")
        dense_dw = [k for k, call in enumerate(calls) if call == "dense dw"]
        assert calls.count("conv backward") == 2 and len(dense_dw) == 2
        assert min(dense_dw) > last_conv
