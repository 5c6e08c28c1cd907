"""MaskSet construction, mask/network congruence, and pinned mask bytes."""

import hashlib

import numpy as np
import pytest

from weedout.data import Dataset
from weedout.errors import MaskMismatchError, UnsupportedModeError
from weedout.network import (default_conv_spec, default_dense_spec, evaluate,
                             forward, init_network, loss_and_grads,
                             masked_network, parent_checksum)
from weedout.numerics import RngStream
from weedout.search import Candidate, _mask_key
from weedout.sparsity import MaskSet, reduce_network, sample_mask, sub_network

CASES = {"dense": (default_dense_spec(), (16,)),
         "conv28": (default_conv_spec(), (28, 28, 1)),
         "conv32": (default_conv_spec(), (32, 32, 3))}

# sha256 over one sample_mask draw per eta (0, 0.3, 0.6, 0.8) from a fixed
# stream, hashing each mask's mode, eta, seed, and every layer's index, shape
# and packed bits; and parent_checksum(init_network(spec, shape, 3)).
GOLDEN = {
    ("dense", "structured"): "5810f3442d82d17683002fc02ca601cb10486fcf0f333b9d6a4514edbb699a4c",
    ("dense", "unstructured"): "4e7e6bc034357bd4212bf076b3f6c287f60fa69041b12745a1b9a1c07a808f2e",
    ("dense", "parent"): "7c3b5acebdaa1de6eda1a875878caeda93c2f42c3e2e82d402e3e38888f6f704",
    ("conv28", "structured"): "cddaf796cef4177424eacf67d62b6d0a68cedaa7a713b26d7e3563b658b8d823",
    ("conv28", "unstructured"): "9a3c2b05f55e7ff0bdd6be9e3889583587720485d7ba778a3a033a29d19602d1",
    ("conv28", "parent"): "924ca4497bde1007782101eaf5e0dcf4f5511c10caced88a2146363cdd76e96f",
    ("conv32", "structured"): "378068ee731a1e7d8c00b0bd3acc53f821093d47050bf552a5784adbedd0ce10",
    ("conv32", "unstructured"): "21c5e5c568eef8c68badf98bd4d02a09aa5f7afc69222bf2d10b7513823391d0",
    ("conv32", "parent"): "cecb7b4ec7e90086c7de76dab1f0ccae6f8c1e496e1e0ca487efd1bdd9c02a14",
}


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("mode", ["structured", "unstructured"])
def test_sampled_mask_bytes_are_pinned(name, mode):
    spec, shape = CASES[name]
    h = hashlib.sha256()
    rng = RngStream(7).split(name).split(mode)
    for eta in (0.0, 0.3, 0.6, 0.8):
        mask = sample_mask(spec, shape, eta, mode, rng)
        h.update(f"{mask.mode} {mask.eta} {mask.sample_seed}".encode())
        for i, m in sorted(mask.masks.items()):
            h.update(f"{i} {m.shape}".encode())
            h.update(np.packbits(m != 0).tobytes())
    assert h.hexdigest() == GOLDEN[(name, mode)]


@pytest.mark.parametrize("name", CASES)
def test_parent_bytes_are_pinned(name):
    spec, shape = CASES[name]
    assert parent_checksum(init_network(spec, shape, 3)) == GOLDEN[(name, "parent")]


class TestMaskSetConstruction:
    @pytest.mark.parametrize("mode", ["magnitude", "global", ""])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(UnsupportedModeError, match="mask mode"):
            MaskSet(mode, {0: np.ones(4, dtype=bool)})

    @pytest.mark.parametrize("entries", [[1.0, 0.5, 0.0], [2, 1, 0], [1.0, np.nan, 0.0],
                                         [-1.0, 0.0, 1.0]])
    def test_non_binary_entries_rejected(self, entries):
        with pytest.raises(MaskMismatchError, match="layer 3"):
            MaskSet("structured", {3: np.array(entries)})

    def test_float_zero_one_mask_becomes_bool(self):
        mask = MaskSet("unstructured", {0: np.array([[1.0, 0.0], [0.0, 1.0]])})
        assert mask.masks[0].dtype == bool
        np.testing.assert_array_equal(mask.masks[0], [[True, False], [False, True]])

    @pytest.mark.parametrize("mode", ["structured", "unstructured"])
    def test_masks_and_candidates_compare_and_hash_by_identity(self, mode):
        spec, shape = CASES["conv28"]
        a = sample_mask(spec, shape, 0.6, mode, RngStream(3))
        b = sample_mask(spec, shape, 0.6, mode, RngStream(3))  # same values
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert {a, b, a} == {a, b}
        assert _mask_key(a) == _mask_key(b)
        first, second = Candidate(a, 0, 0), Candidate(a, 0, 0)
        assert first == first and first != second
        assert len({first, second, first}) == 2

    @pytest.mark.parametrize("mode", ["structured", "unstructured"])
    def test_sampled_masks_are_bool(self, mode):
        spec, shape = CASES["conv28"]
        mask = sample_mask(spec, shape, 0.6, mode, RngStream(3))
        assert all(m.dtype == bool for m in mask.masks.values())


class TestCongruence:
    """Every masked entry point rejects a mask that does not fit the network."""

    SPEC = default_dense_spec(3, hidden=(6, 5))
    SHAPE = (4,)

    def bad_masks(self):
        ones = np.ones
        return {
            "wrong keys": MaskSet("structured", {0: ones(6)}),
            "structured shape": MaskSet("structured", {0: ones(6), 2: ones(4)}),
            "unstructured shape": MaskSet("unstructured",
                                          {0: ones((4, 6)), 2: ones((5, 6))}),
        }

    def entry_points(self):
        x = RngStream(1).normal((3,) + self.SHAPE)
        y = np.array([0, 1, 2])
        return {
            "forward": lambda net, mask: forward(net, mask, x),
            # no pass takes a mask: these run it through the one place that applies it
            "loss_and_grads": lambda net, mask: loss_and_grads(masked_network(net, mask), x, y),
            "evaluate": lambda net, mask: evaluate(sub_network(net, mask), Dataset(x, y, 3)),
            "reduce_network": reduce_network,
        }

    @pytest.mark.parametrize("case", ["wrong keys", "structured shape",
                                      "unstructured shape"])
    @pytest.mark.parametrize("entry", ["forward", "loss_and_grads", "evaluate",
                                       "reduce_network"])
    def test_mismatch_raises(self, entry, case):
        net = init_network(self.SPEC, self.SHAPE, 0)
        with pytest.raises(MaskMismatchError):
            self.entry_points()[entry](net, self.bad_masks()[case])
