import numpy as np
import pytest

from helpers import encode_cifar10_records, write_idx_images, write_idx_labels
from weedout.data import (Dataset, SplitSpec, batches, load_cifar10_binary,
                          load_idx, sample_batch, split, synthetic_blobs)
from weedout.errors import FormatError
from weedout.network import (conv2d, default_dense_spec, dense, evaluate,
                             flatten_layer, init_network, relu_layer)
from weedout.numerics import RngStream
from weedout.pipeline import TrainConfig, run_cell
from weedout.search import SearchConfig


def make_idx_pair(tmp_path, n=10, rows=28, cols=28, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(n, rows, cols), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n, dtype=np.uint8)
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    write_idx_images(img_path, images)
    write_idx_labels(lbl_path, labels)
    return img_path, lbl_path, images, labels


class TestIdx:
    def test_round_trip(self, tmp_path):
        img, lbl, images, labels = make_idx_pair(tmp_path)
        ds = load_idx(img, lbl, num_classes=10)
        assert ds.inputs.shape == (10, 28, 28, 1)
        x, y = ds.take(slice(None))
        np.testing.assert_array_equal(y, labels)
        np.testing.assert_allclose(x[..., 0] * 255.0, images, atol=1e-9)

    def test_pixel_scaling(self, tmp_path):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        images[0, 0, 0] = 255
        write_idx_images(tmp_path / "i", images)
        write_idx_labels(tmp_path / "l", np.array([3], dtype=np.uint8))
        ds = load_idx(tmp_path / "i", tmp_path / "l", num_classes=10)
        assert ds.inputs.dtype == np.uint8
        x, _ = ds.take([0])
        assert x.dtype == np.float64
        assert x[0, 0, 0, 0] == 1.0
        assert x[0, 1, 1, 0] == 0.0

    def test_canonical_test_set_size(self, tmp_path):
        img, lbl, _, _ = make_idx_pair(tmp_path, n=10000)
        ds = load_idx(img, lbl, num_classes=10)
        assert len(ds) == 10000
        assert ds.input_shape == (28, 28, 1)

    def test_bad_magic_rejected(self, tmp_path):
        img, lbl, _, _ = make_idx_pair(tmp_path)
        raw = bytearray(img.read_bytes())
        raw[3] = 0x05
        img.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load_idx(img, lbl)

    def test_truncated_rejected(self, tmp_path):
        img, lbl, _, _ = make_idx_pair(tmp_path)
        img.write_bytes(img.read_bytes()[:40])
        with pytest.raises(FormatError):
            load_idx(img, lbl)

    def test_count_mismatch_rejected(self, tmp_path):
        img, _, _, _ = make_idx_pair(tmp_path)
        write_idx_labels(tmp_path / "short", np.zeros(7, dtype=np.uint8))
        with pytest.raises(FormatError, match="labels"):
            load_idx(img, tmp_path / "short")


class TestCifar10:
    def make_batch(self, tmp_path, n=5, seed=0):
        rng = np.random.default_rng(seed)
        records = np.empty((n, 3073), dtype=np.uint8)
        records[:, 0] = rng.integers(0, 10, size=n)
        records[:, 1:] = rng.integers(0, 256, size=(n, 3072))
        path = tmp_path / "batch.bin"
        path.write_bytes(records.tobytes())
        return path, records

    def test_shapes_and_labels(self, tmp_path):
        path, records = self.make_batch(tmp_path)
        ds = load_cifar10_binary(path)
        assert ds.inputs.shape == (5, 32, 32, 3)
        np.testing.assert_array_equal(ds.labels, records[:, 0])

    def test_label_byte_nine_is_class_nine(self, tmp_path):
        records = np.zeros((1, 3073), dtype=np.uint8)
        records[0, 0] = 9
        path = tmp_path / "b.bin"
        path.write_bytes(records.tobytes())
        assert load_cifar10_binary(path).labels[0] == 9

    def test_channel_major_decode(self, tmp_path):
        # R plane 10, G plane 20, B plane 30 -> every pixel (10, 20, 30)
        record = np.zeros(3073, dtype=np.uint8)
        record[1:1025] = 10
        record[1025:2049] = 20
        record[2049:] = 30
        path = tmp_path / "b.bin"
        path.write_bytes(record.tobytes())
        x, _ = load_cifar10_binary(path).take([0])
        np.testing.assert_allclose(x[0, 0, 0], [10 / 255, 20 / 255, 30 / 255])

    def test_record_round_trip(self, tmp_path):
        path, records = self.make_batch(tmp_path, n=7, seed=3)
        x, y = load_cifar10_binary(path).take(slice(None))
        assert encode_cifar10_records(x, y) == records.tobytes()

    def test_standard_batch_size(self, tmp_path):
        path, _ = self.make_batch(tmp_path, n=10000, seed=1)
        assert len(load_cifar10_binary(path)) == 10000

    def test_stray_bytes_rejected(self, tmp_path):
        path, records = self.make_batch(tmp_path)
        path.write_bytes(records.tobytes() + b"\x00")
        with pytest.raises(FormatError, match="3073"):
            load_cifar10_binary(path)

    def test_multiple_files_concatenate(self, tmp_path):
        p1, r1 = self.make_batch(tmp_path, n=3, seed=1)
        p2 = tmp_path / "b2.bin"
        p2.write_bytes(r1.tobytes())
        ds = load_cifar10_binary([p1, p2])
        assert len(ds) == 6


class TestPixels:
    """Image pixels stay uint8 until a batch is taken; the floats it gives
    match converting the whole file first, bit for bit."""

    def read(self, tmp_path, kind):
        """(the file as loaded, the whole file converted to float64 up front)."""
        if kind == "idx":
            img, lbl, images, labels = make_idx_pair(tmp_path, n=60, rows=8, cols=8, seed=7)
            loaded = load_idx(img, lbl, num_classes=10)
            images = images[..., None]
        else:
            records = np.random.default_rng(7).integers(0, 256, size=(60, 3073),
                                                        dtype=np.uint8)
            records[:, 0] %= 10
            (tmp_path / "batch.bin").write_bytes(records.tobytes())
            loaded = load_cifar10_binary(tmp_path / "batch.bin")
            images = records[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
            labels = records[:, 0]
        full = Dataset(images / 255.0, labels, 10)
        assert loaded.inputs.dtype == np.uint8 and full.inputs.dtype == np.float64
        return loaded, full

    @pytest.mark.parametrize("kind", ["idx", "cifar10"])
    def test_split_equals_full_conversion(self, tmp_path, kind):
        loaded, full = self.read(tmp_path, kind)
        spec = SplitSpec(30, 10, 15, seed=3)
        parts, expected = split(loaded, spec), split(full, spec)
        assert len(loaded) - sum(len(getattr(parts, name)) for name in
                                 ("train", "validation", "test")) == 5
        for name in ("train", "validation", "test"):
            got, want = getattr(parts, name), getattr(expected, name)
            assert got.inputs.dtype == np.uint8
            x, y = got.take(slice(None))
            x_want, y_want = want.take(slice(None))
            assert x.dtype == np.float64 and x.shape == x_want.shape
            assert x.tobytes() == x_want.tobytes()
            np.testing.assert_array_equal(y, y_want)
        assert ([x.tobytes() + y.tobytes() for x, y in batches(parts.train, 16, RngStream(3))]
                == [x.tobytes() + y.tobytes()
                    for x, y in batches(expected.train, 16, RngStream(3))])

    @pytest.mark.parametrize("kind", ["idx", "cifar10"])
    def test_loaders_equal_full_conversion(self, tmp_path, kind):
        """batches, sample_batch and evaluate read the same bytes from a
        loaded file as from the file converted up front."""
        loaded, full = self.read(tmp_path, kind)

        def outputs(ds):
            net = init_network([conv2d(2, 3, stride=2), relu_layer(), flatten_layer(),
                                dense(10)], ds.input_shape, seed=0)
            rows = [ds.take(slice(None)), *batches(ds, 16, RngStream(1)),
                    sample_batch(ds, 8, RngStream(2))]
            return ([x.tobytes() + y.tobytes() for x, y in rows],
                    evaluate(net, None, ds, batch_size=25))

        assert outputs(loaded) == outputs(full)

    def test_label_out_of_range_rejected(self, tmp_path):
        img, _, _, _ = make_idx_pair(tmp_path, n=3)
        write_idx_labels(tmp_path / "bad", np.array([1, 12, 3], dtype=np.uint8))
        with pytest.raises(ValueError, match="labels must lie"):
            load_idx(img, tmp_path / "bad", num_classes=10)


class TestBlobs:
    def test_balanced_and_sized(self):
        ds = synthetic_blobs(10, 100, 16, 0.35, seed=4)
        assert len(ds) == 1000
        np.testing.assert_array_equal(np.bincount(ds.labels, minlength=10), [100] * 10)

    def test_deterministic(self):
        a = synthetic_blobs(5, 20, 8, 0.5, seed=9)
        b = synthetic_blobs(5, 20, 8, 0.5, seed=9)
        for x, y in zip(a.take(slice(None)), b.take(slice(None))):
            np.testing.assert_array_equal(x, y)

    def test_tiny_spread_trains_to_perfect_accuracy(self):
        ds = synthetic_blobs(4, 40, 8, 0.01, seed=2)
        splits = split(ds, SplitSpec(0.5, 0.25, 0.25, seed=0))
        rec = run_cell(default_dense_spec(4), (8,), "random_baseline", 0.0, 0,
                       SearchConfig(),
                       TrainConfig(epochs=10, batch_size=16, lr=0.1), splits)
        assert rec.final_row().test_accuracy == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_blobs(10, 10, 4, 0.5, seed=0)  # dim < num_classes
        with pytest.raises(ValueError):
            synthetic_blobs(10, 10, 16, 0.0, seed=0)


def identifiable_dataset(n=100):
    inputs = np.arange(n, dtype=np.float64)[:, None] * np.ones((1, 3))
    labels = np.arange(n) % 4
    return Dataset(inputs, labels, num_classes=4)


class TestSplit:
    def test_fraction_sizes(self):
        ds = identifiable_dataset(1000)
        res = split(ds, SplitSpec(0.8, 0.1, 0.1, seed=0))
        assert (len(res.train), len(res.validation), len(res.test)) == (800, 100, 100)

    def test_disjoint_and_exhaustive(self):
        ds = identifiable_dataset(100)
        res = split(ds, SplitSpec(0.6, 0.2, 0.2, seed=1))
        ids = [set(part.take(slice(None))[0][:, 0].astype(int).tolist())
               for part in (res.train, res.validation, res.test)]
        assert ids[0] | ids[1] | ids[2] == set(range(100))
        assert not (ids[0] & ids[1] or ids[0] & ids[2] or ids[1] & ids[2])

    def test_counts_mode_discards_remainder(self):
        ds = identifiable_dataset(100)
        res = split(ds, SplitSpec(50, 10, 0, seed=2))
        assert (len(res.train), len(res.validation)) == (50, 10)
        assert res.test is None
        assert len(ds) - len(res.train) - len(res.validation) == 40

    def test_deterministic(self):
        ds = identifiable_dataset(60)
        a = split(ds, SplitSpec(0.5, 0.25, 0.25, seed=7))
        b = split(ds, SplitSpec(0.5, 0.25, 0.25, seed=7))
        np.testing.assert_array_equal(a.train.take(slice(None))[0],
                                      b.train.take(slice(None))[0])

    def test_infeasible_rejected(self):
        ds = identifiable_dataset(10)
        with pytest.raises(ValueError):
            split(ds, SplitSpec(8, 3, 0, seed=0))
        with pytest.raises(ValueError):
            split(ds, SplitSpec(0.8, 0.3, 0.1, seed=0))
        with pytest.raises(ValueError):
            split(ds, SplitSpec(0.8, 0.1, 0, seed=0))  # mixed kinds

    def test_parts_keep_every_class_count(self):
        ds = identifiable_dataset(80)
        res = split(ds, SplitSpec(0.5, 0.25, 0.25, seed=3))
        counts = [np.bincount(part.labels, minlength=4)
                  for part in (res.train, res.validation, res.test)]
        assert counts[0].sum() == 40
        np.testing.assert_array_equal(sum(counts), np.bincount(ds.labels))


class TestBatches:
    def test_partial_final_batch(self):
        ds = identifiable_dataset(10)
        sizes = [len(y) for _, y in batches(ds, 3, RngStream(0))]
        assert sizes == [3, 3, 3, 1]

    def test_every_index_once_per_epoch(self):
        ds = identifiable_dataset(50)
        seen = []
        for x, _ in batches(ds, 7, RngStream(1)):
            seen.extend(x[:, 0].astype(int).tolist())
        assert sorted(seen) == list(range(50))

    def test_fixed_rng_fixed_order(self):
        ds = identifiable_dataset(20)
        a = [x[:, 0].tolist() for x, _ in batches(ds, 6, RngStream(2).split("e"))]
        b = [x[:, 0].tolist() for x, _ in batches(ds, 6, RngStream(2).split("e"))]
        assert a == b

    def test_empty_epoch_rejected(self):
        ds = identifiable_dataset(4)
        with pytest.raises(ValueError):
            list(batches(ds, 0, RngStream(0)))

    def test_sample_batch(self):
        ds = identifiable_dataset(30)
        x1, y1 = sample_batch(ds, 8, RngStream(3).split("v"))
        x2, y2 = sample_batch(ds, 8, RngStream(3).split("v"))
        np.testing.assert_array_equal(x1, x2)
        assert len(set(x1[:, 0].astype(int).tolist())) == 8  # without replacement
        with pytest.raises(ValueError):
            sample_batch(ds, 31, RngStream(0))
