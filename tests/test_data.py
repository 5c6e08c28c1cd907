import struct

import numpy as np
import pytest

from weedout.data import (Dataset, SplitSpec, batches, encode_cifar10_records,
                          load_cifar10_binary, load_dataset, load_idx,
                          read_cifar10_binary, read_idx, sample_batch,
                          save_dataset, split, synthetic_blobs,
                          write_idx_images, write_idx_labels)
from weedout.errors import FormatError
from weedout.network import default_dense_spec
from weedout.numerics import RngStream
from weedout.pipeline import Splits, TrainConfig, dense_run


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
        np.testing.assert_array_equal(ds.labels, labels)
        np.testing.assert_allclose(ds.inputs[..., 0] * 255.0, images, atol=1e-9)

    def test_pixel_scaling(self, tmp_path):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        images[0, 0, 0] = 255
        write_idx_images(tmp_path / "i", images)
        write_idx_labels(tmp_path / "l", np.array([3], dtype=np.uint8))
        ds = load_idx(tmp_path / "i", tmp_path / "l", num_classes=10)
        assert ds.inputs[0, 0, 0, 0] == 1.0
        assert ds.inputs[0, 1, 1, 0] == 0.0

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
        ds = load_cifar10_binary(path)
        np.testing.assert_allclose(ds.inputs[0, 0, 0], [10 / 255, 20 / 255, 30 / 255])

    def test_record_round_trip(self, tmp_path):
        path, records = self.make_batch(tmp_path, n=7, seed=3)
        ds = load_cifar10_binary(path)
        assert encode_cifar10_records(ds.inputs, ds.labels) == records.tobytes()

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
    """Images stay uint8 until a split picks its examples; the floats match
    converting the whole file first, bit for bit."""

    def read(self, tmp_path, kind):
        """(uint8 pixels as read, the whole file converted the old way)."""
        rng = np.random.default_rng(7)
        if kind == "idx":
            img, lbl, images, labels = make_idx_pair(tmp_path, n=60, seed=7)
            full = Dataset(images[..., None] / 255.0, labels, 10, "idx:images.idx")
            return read_idx(img, lbl, num_classes=10), full
        records = rng.integers(0, 256, size=(60, 3073), dtype=np.uint8)
        records[:, 0] %= 10
        path = tmp_path / "batch.bin"
        path.write_bytes(records.tobytes())
        planes = records[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
        full = Dataset(planes / 255.0, records[:, 0], 10, "cifar10:1 file(s)")
        return read_cifar10_binary(path), full

    @pytest.mark.parametrize("kind", ["idx", "cifar10"])
    def test_split_equals_full_conversion(self, tmp_path, kind):
        pixels, full = self.read(tmp_path, kind)
        assert pixels.pixels.dtype == np.uint8
        spec = SplitSpec(30, 10, 15, seed=3)
        parts, expected = split(pixels, spec), split(full, spec)
        assert parts.discarded == expected.discarded == 5
        for name in ("train", "validation", "test"):
            got, want = getattr(parts, name), getattr(expected, name)
            assert got.inputs.dtype == np.float64
            assert got.inputs.shape == want.inputs.shape
            assert got.inputs.tobytes() == want.inputs.tobytes()
            np.testing.assert_array_equal(got.labels, want.labels)
            assert got.provenance == want.provenance

    @pytest.mark.parametrize("kind", ["idx", "cifar10"])
    def test_loaders_equal_full_conversion(self, tmp_path, kind):
        pixels, full = self.read(tmp_path, kind)
        load = load_idx if kind == "idx" else load_cifar10_binary
        args = ((tmp_path / "images.idx", tmp_path / "labels.idx", 10)
                if kind == "idx" else (tmp_path / "batch.bin",))
        loaded = load(*args)
        assert loaded.inputs.tobytes() == full.inputs.tobytes()
        np.testing.assert_array_equal(loaded.labels, full.labels)

    def test_label_out_of_range_rejected(self, tmp_path):
        img, _, _, _ = make_idx_pair(tmp_path, n=3)
        write_idx_labels(tmp_path / "bad", np.array([1, 12, 3], dtype=np.uint8))
        with pytest.raises(ValueError, match="labels must lie"):
            read_idx(img, tmp_path / "bad", num_classes=10)


class TestBlobs:
    def test_balanced_and_sized(self):
        ds = synthetic_blobs(10, 100, 16, 0.35, seed=4)
        assert len(ds) == 1000
        np.testing.assert_array_equal(ds.class_counts(), [100] * 10)

    def test_deterministic(self):
        a = synthetic_blobs(5, 20, 8, 0.5, seed=9)
        b = synthetic_blobs(5, 20, 8, 0.5, seed=9)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_tiny_spread_trains_to_perfect_accuracy(self):
        ds = synthetic_blobs(4, 40, 8, 0.01, seed=2)
        result = split(ds, SplitSpec(0.5, 0.25, 0.25, seed=0))
        splits = Splits(result.train, result.validation, result.test)
        rec = dense_run(default_dense_spec(4), (8,),
                        TrainConfig(epochs=10, batch_size=16, lr=0.1),
                        splits, seed=0)
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
        assert res.discarded == 0

    def test_disjoint_and_exhaustive(self):
        ds = identifiable_dataset(100)
        res = split(ds, SplitSpec(0.6, 0.2, 0.2, seed=1))
        ids = [set(part.inputs[:, 0].astype(int).tolist())
               for part in (res.train, res.validation, res.test)]
        assert ids[0] | ids[1] | ids[2] == set(range(100))
        assert not (ids[0] & ids[1] or ids[0] & ids[2] or ids[1] & ids[2])

    def test_counts_mode_discards_remainder(self):
        ds = identifiable_dataset(100)
        res = split(ds, SplitSpec(50, 10, 0, seed=2))
        assert (len(res.train), len(res.validation)) == (50, 10)
        assert res.test is None
        assert res.discarded == 40

    def test_deterministic(self):
        ds = identifiable_dataset(60)
        a = split(ds, SplitSpec(0.5, 0.25, 0.25, seed=7))
        b = split(ds, SplitSpec(0.5, 0.25, 0.25, seed=7))
        np.testing.assert_array_equal(a.train.inputs, b.train.inputs)

    def test_infeasible_rejected(self):
        ds = identifiable_dataset(10)
        with pytest.raises(ValueError):
            split(ds, SplitSpec(8, 3, 0, seed=0))
        with pytest.raises(ValueError):
            split(ds, SplitSpec(0.8, 0.3, 0.1, seed=0))
        with pytest.raises(ValueError):
            split(ds, SplitSpec(0.8, 0.1, 0, seed=0))  # mixed kinds

    def test_class_counts_reported(self):
        ds = identifiable_dataset(80)
        res = split(ds, SplitSpec(0.5, 0.25, 0.25, seed=3))
        counts = res.class_counts()
        assert set(counts) == {"train", "validation", "test"}
        assert sum(counts["train"]) == 40


class TestBatches:
    def test_partial_final_batch(self):
        ds = identifiable_dataset(10)
        sizes = [len(y) for _, y in batches(ds, 3, RngStream(0))]
        assert sizes == [3, 3, 3, 1]

    def test_drop_last(self):
        ds = identifiable_dataset(10)
        sizes = [len(y) for _, y in batches(ds, 3, RngStream(0), drop_last=True)]
        assert sizes == [3, 3, 3]

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
            list(batches(ds, 5, RngStream(0), drop_last=True))
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


class TestContainer:
    def test_round_trip(self, tmp_path):
        ds = synthetic_blobs(3, 10, 4, 0.3, seed=5)
        path = tmp_path / "blobs.wdst"
        save_dataset(path, ds)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.inputs, ds.inputs)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.num_classes == ds.num_classes
        assert back.provenance == ds.provenance

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.wdst"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            load_dataset(path)

    def test_bad_version(self, tmp_path):
        ds = synthetic_blobs(2, 4, 2, 0.3, seed=5)
        path = tmp_path / "x.wdst"
        save_dataset(path, ds)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_dataset(path)

    def test_truncation_detected(self, tmp_path):
        ds = synthetic_blobs(2, 4, 2, 0.3, seed=5)
        path = tmp_path / "x.wdst"
        save_dataset(path, ds)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            load_dataset(path)
