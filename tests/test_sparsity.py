import numpy as np
import pytest

from weedout.data import Dataset, batches
from weedout.errors import InfeasibleSparsityError, UnsupportedModeError
from weedout.network import (SgdState, _forward_backward, conv2d, dense,
                             evaluate, flatten_layer, forward, init_network,
                             loss_and_grads, masked_network, mean_loss,
                             parent_checksum, relu_layer, sgd_step)
from weedout.numerics import RngStream, round_half_up
from weedout.pipeline import Splits, TrainConfig, _train
from weedout.search import fitness
from weedout.sparsity import (MaskSet, active_parameter_count, realized_sparsity,
                              reduce_network, resample_mask, sample_mask,
                              sub_network)

import helpers

WIDTHS = (10, 16, 32, 128)


def widths_spec():
    spec = []
    for w in WIDTHS:
        spec.append(dense(w))
        spec.append(relu_layer())
    spec.append(dense(3))
    return spec


class TestStructuredSampling:
    def test_eta_zero_all_ones(self, rng):
        mask = sample_mask(widths_spec(), None, 0.0, "structured", rng)
        for m in mask.masks.values():
            assert np.all(m == 1.0)

    @pytest.mark.parametrize("eta", [0.2, 0.4, 0.6, 0.8])
    def test_exact_zero_counts(self, eta, rng):
        spec = widths_spec()
        for trial in range(25):
            mask = sample_mask(spec, None, eta, "structured", rng)
            for i, m in mask.masks.items():
                width = spec[i].width
                assert int((m == 0.0).sum()) == round_half_up(eta * width)

    def test_width_10_eta_08_has_8_zeros(self, rng):
        spec = [dense(10), relu_layer(), dense(3)]
        mask = sample_mask(spec, None, 0.8, "structured", rng)
        assert int((mask.masks[0] == 0.0).sum()) == 8
        assert int(mask.masks[0].sum()) == 2

    def test_half_counts_round_up(self, rng):
        spec = [dense(10), relu_layer(), dense(3)]
        mask = sample_mask(spec, None, 0.25, "structured", rng)  # 2.5 -> 3
        assert int((mask.masks[0] == 0.0).sum()) == 3

    def test_masking_frequency_roughly_uniform(self):
        # quick check; the acceptance suite runs the full 10^4-sample version
        spec = [dense(10), relu_layer(), dense(3)]
        rng = RngStream(5)
        trials = 2000
        off_counts = np.zeros(10)
        for _ in range(trials):
            off_counts += sample_mask(spec, None, 0.2, "structured", rng).masks[0] == 0.0
        freq = off_counts / trials
        assert np.all(np.abs(freq - 0.2) < 0.03)

    def test_reconstructible_from_recorded_seed(self, rng):
        spec = widths_spec()
        mask = sample_mask(spec, None, 0.6, "structured", rng)
        again = resample_mask(spec, None, "structured", 0.6, mask.sample_seed)
        for i in mask.masks:
            np.testing.assert_array_equal(mask.masks[i], again.masks[i])

    def test_same_rng_state_same_mask(self):
        spec = widths_spec()
        a = sample_mask(spec, None, 0.4, "structured", RngStream(3).split("m"))
        b = sample_mask(spec, None, 0.4, "structured", RngStream(3).split("m"))
        for i in a.masks:
            np.testing.assert_array_equal(a.masks[i], b.masks[i])

    def test_infeasible_layer_named(self, rng):
        spec = [dense(1), relu_layer(), dense(3)]
        with pytest.raises(InfeasibleSparsityError, match="layer 0"):
            sample_mask(spec, None, 0.5, "structured", rng)

    def test_eta_out_of_range(self, rng):
        with pytest.raises(ValueError):
            sample_mask(widths_spec(), None, 1.0, "structured", rng)
        with pytest.raises(ValueError):
            sample_mask(widths_spec(), None, -0.1, "structured", rng)


class TestUnstructuredSampling:
    def test_exact_weight_zero_counts(self, rng):
        spec = [dense(10), relu_layer(), dense(3)]
        mask = sample_mask(spec, (10,), 0.4, "unstructured", rng)
        assert mask.masks[0].shape == (10, 10)
        assert int((mask.masks[0] == 0.0).sum()) == 40

    def test_eta_zero_all_ones(self, rng):
        mask = sample_mask(widths_spec(), (7,), 0.0, "unstructured", rng)
        for m in mask.masks.values():
            assert np.all(m == 1.0)

    def test_deterministic(self):
        spec = widths_spec()
        a = sample_mask(spec, (7,), 0.3, "unstructured", RngStream(9).split("u"))
        b = sample_mask(spec, (7,), 0.3, "unstructured", RngStream(9).split("u"))
        for i in a.masks:
            np.testing.assert_array_equal(a.masks[i], b.masks[i])

    def test_conv_weight_shape(self, small_conv_spec, rng):
        mask = sample_mask(small_conv_spec, (10, 10, 1), 0.2, "unstructured", rng)
        assert mask.masks[0].shape == (3, 3, 1, 3)
        assert mask.masks[2].shape == (3, 3, 3, 4)


class TestModeDispatch:
    @pytest.mark.parametrize("mode", ["magnitude", "global", "nonuniform"])
    def test_unknown_mode_rejected(self, rng, mode):
        with pytest.raises(ValueError):
            sample_mask(widths_spec(), None, 0.2, mode, rng)


class TestRealizedSparsity:
    def test_all_ones_is_zero(self):
        ones = resample_mask(widths_spec(), None, "structured", 0.0, 0)
        assert realized_sparsity(ones) == 0.0

    def test_structured_ratio_matches_counts(self, rng):
        widths = (128, 16, 32)
        spec = []
        for w in widths:
            spec.append(dense(w))
            spec.append(relu_layer())
        spec.append(dense(3))
        mask = sample_mask(spec, None, 0.6, "structured", rng)
        expected = sum(round_half_up(0.6 * w) for w in widths) / sum(widths)
        assert realized_sparsity(mask) == pytest.approx(expected, abs=1e-12)

    def test_unstructured_exact_when_integral(self, rng):
        spec = [dense(10), relu_layer(), dense(3)]
        mask = sample_mask(spec, (10,), 0.2, "unstructured", rng)
        assert realized_sparsity(mask) == 0.2

    def test_per_layer_view(self, rng):
        spec = widths_spec()
        mask = sample_mask(spec, None, 0.8, "structured", rng)
        for i, m in mask.masks.items():
            width = spec[i].width
            assert (~m).mean() == round_half_up(0.8 * width) / width


class TestReduceNetwork:
    def test_all_ones_mask_reduces_to_parent(self, small_conv_spec, rng):
        net = init_network(small_conv_spec, (10, 10, 1), seed=1)
        ones = resample_mask(small_conv_spec, None, "structured", 0.0, 0)
        red = reduce_network(net, ones)
        assert active_parameter_count(red) == active_parameter_count(net)
        x = rng.normal((3, 10, 10, 1))
        np.testing.assert_array_equal(forward(red, None, x), forward(net, None, x))

    def test_dense_drop_one_node_matches_slices(self, rng):
        spec = [dense(4), relu_layer(), dense(3)]
        net = init_network(spec, (5,), seed=2)
        mask = MaskSet("structured", {0: np.array([1.0, 0.0, 1.0, 1.0])})
        red = reduce_network(net, mask)
        keep = [0, 2, 3]
        np.testing.assert_array_equal(red.params[0].weight,
                                      net.params[0].weight[:, keep])
        np.testing.assert_array_equal(red.params[2].weight,
                                      net.params[2].weight[keep, :])
        x = rng.normal((6, 5))
        np.testing.assert_allclose(forward(net, mask, x), forward(red, None, x),
                                   atol=1e-12)

    @pytest.mark.parametrize("eta", [0.2, 0.5])
    def test_oracle_equivalence_random_masks(self, eta, small_conv_spec):
        rng = RngStream(31)
        net = init_network(small_conv_spec, (10, 10, 1), seed=3)
        for trial in range(5):
            mask = sample_mask(small_conv_spec, None, eta, "structured",
                               rng.split(f"m{trial}"))
            red = reduce_network(net, mask)
            x = rng.split(f"x{trial}").normal((20, 10, 10, 1))
            assert helpers.reduced_logit_gap(net, mask, x) < 1e-9
            pruned = forward(net, mask, x)
            assert np.abs(pruned - forward(red, None, x)).max() < 1e-9

    def test_reduced_gradients_match_sliced_parent(self, small_conv_spec, rng):
        net = init_network(small_conv_spec, (10, 10, 1), seed=4)
        mask = sample_mask(small_conv_spec, None, 0.5, "structured", rng.split("m"))
        red = reduce_network(net, mask)
        x = rng.normal((6, 10, 10, 1))
        y = np.array([0, 1, 2, 0, 1, 2])
        loss_m, grads_m = loss_and_grads(masked_network(net, mask), x, y)
        loss_r, grads_r = loss_and_grads(red, x, y)
        assert abs(loss_m - loss_r) < 1e-9
        sliced = helpers.slice_parent_gradients(net, mask, grads_m)
        assert helpers.gradients_close(sliced, grads_r, atol=1e-9)

    def test_unstructured_mask_unsupported(self, rng):
        spec = [dense(10), relu_layer(), dense(3)]
        net = init_network(spec, (10,), seed=5)
        mask = sample_mask(spec, (10,), 0.3, "unstructured", rng)
        with pytest.raises(UnsupportedModeError):
            reduce_network(net, mask)

    def test_active_parameter_count_non_increasing_in_eta(self):
        spec = widths_spec()
        net = init_network(spec, (7,), seed=6)
        counts = []
        for eta in (0.0, 0.2, 0.4, 0.6, 0.8):
            mask = sample_mask(spec, None, eta, "structured", RngStream(8).split("m"))
            counts.append(active_parameter_count(sub_network(net, mask)))
        assert counts == sorted(counts, reverse=True)
        assert counts[0] == active_parameter_count(net)


class TestSubNetwork:
    """Scoring and training the reduced network reproduce the masked parent."""

    SPEC = [conv2d(4, 3, stride=2), relu_layer(), conv2d(5, 2), relu_layer(),
            flatten_layer(), dense(6), relu_layer(), dense(3)]
    SHAPE = (9, 9, 2)

    def splits(self):
        rng = RngStream(41)
        x = rng.split("x").normal((112,) + self.SHAPE)
        y = (x[:, :4, :4, 0].sum(axis=(1, 2)) > 0).astype(int) \
            + (x[:, 5:, 5:, 1].sum(axis=(1, 2)) > 0)
        part = lambda lo, hi: Dataset(x[lo:hi], y[lo:hi], 3)
        return Splits(part(0, 64), part(64, 80), part(80, 112))

    def test_training_matches_masked_parent(self):
        splits = self.splits()
        cfg = TrainConfig(epochs=4, batch_size=16, lr=0.05, momentum=0.9)
        net = init_network(self.SPEC, self.SHAPE, seed=9)
        mask = sample_mask(self.SPEC, None, 0.4, "structured", RngStream(5))
        before = parent_checksum(net)
        rows, _ = _train(sub_network(net, mask), cfg, splits, RngStream(7), "oracle")
        assert parent_checksum(net) == before  # the reduced copy was trained

        oracle = net.copy()
        state = SgdState.zeros(oracle)
        for epoch, row in enumerate(rows, start=1):
            loss_sum, correct = 0.0, 0
            for x, y in batches(splits.train, cfg.batch_size,
                                RngStream(7).split(f"epoch{epoch}")):
                loss, grads, logits = _forward_backward(masked_network(oracle, mask), x, y)
                sgd_step(oracle, grads, cfg.lr, cfg.momentum, state)
                loss_sum += loss * len(y)
                correct += int((logits.argmax(axis=1) == y).sum())
            test = evaluate(masked_network(oracle, mask), splits.test)
            assert abs(row.train_loss - loss_sum / len(splits.train)) < 1e-9
            assert abs(row.test_loss - test.mean_loss) < 1e-9
            assert row.train_accuracy == correct / len(splits.train)
            assert row.test_accuracy == test.accuracy

    @pytest.mark.parametrize("eta", [0.2, 0.6])
    def test_fitness_matches_masked_parent(self, eta):
        splits = self.splits()
        net = init_network(self.SPEC, self.SHAPE, seed=10)
        x, y = splits.validation.take(slice(None))
        rng = RngStream(12)
        for trial in range(4):
            mask = sample_mask(self.SPEC, None, eta, "structured", rng.split(f"m{trial}"))
            score = fitness(net, mask, (x, y))
            assert abs(score + mean_loss(masked_network(net, mask), x, y)) < 1e-12

    def test_unstructured_mask_keeps_parent(self, rng):
        """An unstructured sub-network is a copy of the parent with the mask
        multiplied into its weights and kept on its layers; it shares no array
        with the parent, which keeps its own."""
        net = init_network(self.SPEC, self.SHAPE, seed=11)
        before = parent_checksum(net)
        mask = sample_mask(self.SPEC, self.SHAPE, 0.5, "unstructured", rng)
        run_net = sub_network(net, mask)
        assert parent_checksum(net) == before
        for i, (p, q) in enumerate(zip(net.params, run_net.params)):
            if p is not None:
                w = p.weight * mask.masks[i] if i in mask.masks else p.weight
                assert q.weight.tobytes() == w.tobytes()
                assert q.bias.tobytes() == p.bias.tobytes()
                assert not np.shares_memory(q.weight, p.weight)
                assert not np.shares_memory(q.bias, p.bias)
                if i in mask.masks:
                    assert np.array_equal(q.weight_mask, mask.masks[i])
                else:
                    assert q.weight_mask is None

    @pytest.mark.parametrize("mode", ["structured", "unstructured"])
    def test_sub_networks_of_one_parent_train_independently(self, mode):
        """Two sub-networks of one parent, trained in turn, each give the rows
        of the same sub-network of a fresh parent, and the parent is unchanged."""
        splits = self.splits()
        cfg = TrainConfig(epochs=2, batch_size=16, lr=0.05, momentum=0.9)
        parent = init_network(self.SPEC, self.SHAPE, seed=12)
        before = parent_checksum(parent)
        for k in range(2):
            mask = sample_mask(self.SPEC, self.SHAPE, 0.4, mode, RngStream(13).split(f"m{k}"))
            rows, _ = _train(sub_network(parent, mask), cfg, splits, RngStream(7), "shared")
            fresh = init_network(self.SPEC, self.SHAPE, seed=12)
            expected, _ = _train(sub_network(fresh, mask), cfg, splits, RngStream(7), "fresh")
            assert rows == expected
            assert parent_checksum(parent) == before
