import math

import numpy as np
import pytest

from weedout.numerics import (RngStream, he_normal, round_half_up,
                              softmax_cross_entropy)


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(42).normal((3,))
        b = RngStream(42).normal((3,))
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(RngStream(1).normal((4,)), RngStream(2).normal((4,)))

    def test_split_does_not_consume_parent_state(self):
        r1 = RngStream(5)
        first = r1.normal((3,))
        r1.split("child")  # deriving a child must not advance the parent
        second = r1.normal((3,))
        r2 = RngStream(5)
        np.testing.assert_array_equal(first, r2.normal((3,)))
        np.testing.assert_array_equal(second, r2.normal((3,)))

    def test_children_reproducible_and_independent(self):
        a = RngStream(7).split("x").normal((4,))
        b = RngStream(7).split("x").normal((4,))
        c = RngStream(7).split("y").normal((4,))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_label_paths_do_not_collide(self):
        # ("a", "b") must not hash like ("a/b")
        nested = RngStream(3).split("a").split("b").normal((4,))
        flat = RngStream(3).split("a/b").normal((4,))
        assert not np.array_equal(nested, flat)

    def test_spawn_seed_deterministic(self):
        assert RngStream(11).spawn_seed() == RngStream(11).spawn_seed()

    def test_choice_without_replacement(self):
        idx = RngStream(0).choice_without_replacement(10, 6)
        assert len(set(idx.tolist())) == 6
        assert all(0 <= i < 10 for i in idx)

    def test_seed_range_validated(self):
        # checked at construction, before any generator exists
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(2**64)


class TestLazyGenerator:
    """A stream builds its Philox generator on the first draw, never before."""

    @pytest.fixture
    def built(self, monkeypatch):
        real, keys = np.random.Philox, []

        def counting_philox(*args, **kw):
            keys.append(kw.get("key"))
            return real(*args, **kw)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        return keys

    def test_split_only_builds_nothing(self, built):
        root = RngStream(7)
        root.split("structured").split("layer0")
        root.split("search").split("masks")
        assert repr(root.split("a")) == "RngStream(seed=7, path='a')"
        assert built == []

    def test_first_draw_builds_once(self, built):
        stream = RngStream(7).split("x")
        stream.normal((2,))
        stream.uniform((2,))
        assert len(built) == 1

    @pytest.mark.parametrize("draw,eager_draw", [
        (lambda s: s.spawn_seed(),
         lambda g: int(g.integers(0, 2**64, dtype=np.uint64))),
        (lambda s: s.normal((3, 4), loc=1.0, scale=2.0),
         lambda g: g.normal(loc=1.0, scale=2.0, size=(3, 4))),
        (lambda s: s.uniform((5,), low=-1.0, high=3.0),
         lambda g: g.uniform(low=-1.0, high=3.0, size=(5,))),
        (lambda s: s.integers(0, 9, size=6), lambda g: g.integers(0, 9, size=6)),
        (lambda s: s.permutation(11), lambda g: g.permutation(11)),
        (lambda s: s.choice_without_replacement(20, 7),
         lambda g: g.choice(20, size=7, replace=False)),
    ], ids=["spawn_seed", "normal", "uniform", "integers", "permutation",
            "choice_without_replacement"])
    def test_draws_equal_an_eagerly_built_generator(self, draw, eager_draw):
        stream = RngStream(2**63 + 5).split("a").split(3)
        key = np.frombuffer(stream._derive_key(), dtype=np.uint64)
        eager = np.random.Generator(np.random.Philox(key=key))
        for _ in range(2):  # the second draw continues the same generator
            got, want = draw(stream), eager_draw(eager)
            np.testing.assert_array_equal(got, want)
            assert np.asarray(got).dtype == np.asarray(want).dtype


class TestRoundHalfUp:
    @pytest.mark.parametrize("x,expected", [
        (2.5, 3), (3.5, 4), (2.4, 2), (2.6, 3), (0.0, 0), (-0.5, 0), (9.6, 10),
    ])
    def test_values(self, x, expected):
        assert round_half_up(x) == expected


class TestHeNormal:
    def test_sigma_formula_fan_in_2(self):
        draws = he_normal(2, (10**6,), RngStream(42))
        assert abs(draws.std() - 1.0) < 0.01

    def test_sigma_fan_in_50(self):
        draws = he_normal(50, (50, 10), RngStream(7))
        assert draws.shape == (50, 10)
        assert abs(draws.std() - math.sqrt(2 / 50)) < 0.02
        # the population value itself
        assert math.sqrt(2 / 50) == 0.2

    def test_fixed_seed_repeatable(self):
        a = he_normal(4, (3,), RngStream(42))
        b = he_normal(4, (3,), RngStream(42))
        np.testing.assert_array_equal(a, b)

    def test_zero_fan_in_rejected(self):
        with pytest.raises(ValueError):
            he_normal(0, (3,), RngStream(0))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            he_normal(2, (0, 3), RngStream(0))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_is_log_num_classes(self):
        logits = np.zeros((4, 10))
        loss, grad = softmax_cross_entropy(logits, np.array([0, 3, 5, 9]))
        assert abs(loss - math.log(10)) < 1e-12
        assert grad.shape == (4, 10)

    def test_confident_correct_logits_loss_vanishes(self):
        logits = np.full((2, 5), -1000.0)
        logits[0, 2] = 1000.0
        logits[1, 4] = 1000.0
        loss, _ = softmax_cross_entropy(logits, np.array([2, 4]))
        assert loss < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = RngStream(13)
        logits = rng.normal((5, 7))
        labels = np.array([0, 2, 6, 3, 1])
        _, grad = softmax_cross_entropy(logits, labels)
        eps = 1e-5
        numeric = np.zeros_like(logits)
        for i in range(5):
            for j in range(7):
                up = logits.copy()
                up[i, j] += eps
                down = logits.copy()
                down[i, j] -= eps
                lu, _ = softmax_cross_entropy(up, labels)
                ld, _ = softmax_cross_entropy(down, labels)
                numeric[i, j] = (lu - ld) / (2 * eps)
        denom = max(np.abs(grad).max(), np.abs(numeric).max())
        assert np.abs(grad - numeric).max() / denom < 1e-6

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([-1, 0]))

    def test_non_integer_labels_rejected(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("n,c", [(1, 2), (7, 3), (256, 10), (33, 100)])
    def test_loss_only_equals_the_full_loss_bit_for_bit(self, n, c):
        rng = RngStream(21).split(f"{n}x{c}")
        logits = rng.normal((n, c), scale=5.0)
        labels = np.asarray(rng.integers(0, c, size=n))
        loss, grad = softmax_cross_entropy(logits, labels)
        assert softmax_cross_entropy(logits, labels, with_grad=False) == (loss, None)
        # the loss the full log-probability matrix gives
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        assert loss == float(-log_probs[np.arange(n), labels].mean())
        assert grad.tobytes() == ((np.exp(log_probs) - np.eye(c)[labels]) / n).tobytes()

    def test_loss_only_rejects_nan_logits(self):
        bad = np.zeros((2, 3))
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match="logits"):
            softmax_cross_entropy(bad, np.array([0, 1]), with_grad=False)

    def test_non_finite_logits_rejected(self):
        bad = np.zeros((2, 3))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            softmax_cross_entropy(bad, np.array([0, 1]))
