"""A cell's kernel threads: the same bytes for every thread count.

Kernels cut their work by shape alone, into conv blocks of examples, dense
row or column chunks and flat pieces of element-wise passes, and a
``KernelPool`` only picks the thread that runs each piece. So every result
must be byte-identical at 1, 2 and 3 threads. Block, chunk and piece sizes
are patched so that pieces are fewer than the threads, exactly as many, or
more with a ragged last one.
"""

import inspect
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import write_idx_images, write_idx_labels
from weedout import network, pipeline, search
from weedout.cli import main
from weedout.data import Dataset, batches
from weedout.network import (KernelPool, LayerParams, SgdState, conv2d, dense,
                             flatten_layer, init_network, relu_layer, sgd_step)
from weedout.numerics import RngStream
from weedout.pipeline import Splits, TrainConfig, run_label
from weedout.search import SearchConfig
from weedout.sparsity import sample_mask

SPEC = [conv2d(3, 3), relu_layer(), conv2d(4, 2, stride=2), relu_layer(),
        flatten_layer(), dense(6), relu_layer(), dense(3)]
SHAPE = (9, 8, 2)


@contextmanager
def pools():
    """Thread count -> kernel pool; one thread means no pool."""
    with KernelPool(2) as two, KernelPool(3) as three:
        yield {1: None, 2: two, 3: three}


def as_bytes(value):
    """Every array in a nested result, as bytes, for exact comparison."""
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, network.LayerParams):
        return as_bytes((value.weight, value.bias))
    if isinstance(value, (list, tuple)):
        return [as_bytes(v) for v in value]
    return value


def same_for_every_thread_count(compute):
    with pools() as by_threads:
        results = {t: as_bytes(compute(pool)) for t, pool in by_threads.items()}
    assert results[2] == results[1]
    assert results[3] == results[1]
    return results[1]


@pytest.fixture
def small_pieces(monkeypatch):
    """Conv blocks of two examples (rounded down from the byte budget), dense
    chunks of six rows or, for GEMMs of six rows or fewer, two columns, and
    element-wise pieces of seven elements, so a batch of a few examples has
    many pieces of every kind."""
    monkeypatch.setattr(network, "_BLOCK_BYTES", 2 * 5 * 4 * 9 * 2 * 8 + 100)
    monkeypatch.setattr(network, "_CHUNK_ROWS", 6)
    monkeypatch.setattr(network, "_CHUNK_COLS", 2)
    monkeypatch.setattr(network, "_CHUNK_MACS", 1)
    monkeypatch.setattr(network, "_COL_CHUNK_MACS", 1)
    monkeypatch.setattr(network, "_PIECE_SIZE", 7)


class TestKernelPool:
    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("count", [1, 2, 3, 7])
    def test_runs_every_piece_once_in_concurrent_contiguous_runs(self, threads, count):
        runs = min(threads, count)
        barrier = threading.Barrier(runs, timeout=10)
        started = threading.local()
        calls = []

        def piece(k):
            if not getattr(started, "run", False):
                started.run = True
                barrier.wait()  # breaks unless every run is under way at once
            calls.append((k, threading.get_ident()))

        with KernelPool(threads) as pool:
            network.run_pieces(pool, piece, count)
        assert sorted(k for k, _ in calls) == list(range(count))
        owners = [t for _, t in sorted(calls)]
        assert len(set(owners)) == runs
        # contiguous: each thread's pieces form one unbroken run
        assert sum(a != b for a, b in zip(owners, owners[1:])) == runs - 1
        assert owners[0] == threading.get_ident()  # the caller takes the first run

    def test_a_failing_piece_raises_after_every_run_ends(self):
        done = []

        def piece(k):
            if k == 4:
                raise ArithmeticError("piece 4")
            done.append(k)

        with KernelPool(2) as pool, pytest.raises(ArithmeticError, match="piece 4"):
            pool.run(piece, 6)
        assert sorted(done) == [0, 1, 2, 3]  # the caller's run ended first

    def test_more_threads_than_cores_with_fast_switching(self, small_pieces):
        """Pieces write disjoint outputs, so no update may be lost even when
        five threads switch every microsecond."""
        rng = np.random.default_rng(1)
        x, w = rng.normal(size=(13, 7, 6, 2)), rng.normal(size=(3, 3, 2, 4))
        dout = rng.normal(size=(13, 5, 4, 4))
        expected = as_bytes(network._conv_backward(x, w, 1, dout))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with KernelPool(5) as pool:
                for _ in range(20):
                    assert as_bytes(network._conv_backward(x, w, 1, dout, True,
                                                           pool)) == expected
        finally:
            sys.setswitchinterval(interval)


class TestKernels:
    @pytest.mark.parametrize("n_blocks,batch", [(1, 2), (2, 4), (3, 6), (7, 13)],
                             ids=["one_block", "two_blocks", "three_blocks",
                                  "seven_ragged"])
    def test_conv_kernels_identical_for_every_thread_count(self, small_pieces,
                                                           n_blocks, batch):
        rng = np.random.default_rng(batch)
        x = rng.normal(size=(batch, 7, 6, 2))
        w = rng.normal(size=(3, 3, 2, 4))
        b = rng.normal(size=4)
        dout = rng.normal(size=(batch, 5, 4, 4))
        assert len(network._patch_blocks(x, 3, 3, 1)) == n_blocks
        out = same_for_every_thread_count(
            lambda pool: network._conv_forward(x, w, b, 1, pool))
        assert out == as_bytes(network._conv_forward(x, w, b, 1))
        same_for_every_thread_count(
            lambda pool: network._conv_backward(x, w, 1, dout, True, pool))
        same_for_every_thread_count(
            lambda pool: network._conv_backward(x, w, 1, dout, False, pool))

    @pytest.mark.parametrize("rows", [3, 4, 8, 13])
    def test_dense_chunks_identical_for_every_thread_count(self, small_pieces, rows):
        rng = np.random.default_rng(rows)
        a, b = rng.normal(size=(rows, 5)), rng.normal(size=(5, 3))
        product = same_for_every_thread_count(lambda pool: network._gemm(a, b, pool))
        np.testing.assert_allclose(np.frombuffer(product).reshape(rows, 3), a @ b,
                                   rtol=0, atol=1e-12)
        # a transposed operand, as in a dense layer's weight gradient
        same_for_every_thread_count(lambda pool: network._gemm(a.T, a, pool))
        # short and wide, with a transposed right operand, as in ``dh @ w.T``
        c = rng.normal(size=(9, 5))
        wide = same_for_every_thread_count(lambda pool: network._gemm(a, c.T, pool))
        np.testing.assert_allclose(np.frombuffer(wide).reshape(rows, 9), a @ c.T,
                                   rtol=0, atol=1e-12)

    def test_desk_scale_gemms_stay_one_call(self, monkeypatch):
        """The desk dense net's GEMMs (batch 512 at most) are never cut."""
        def refuse(*args):
            raise AssertionError("a desk-scale GEMM was cut into chunks")

        monkeypatch.setattr(network, "run_pieces", refuse)
        rng = np.random.default_rng(0)
        for k, n in ((16, 64), (64, 32), (32, 10)):
            a, w = rng.normal(size=(512, k)), rng.normal(size=(k, n))
            network._gemm(a, w)
            network._gemm(a.T, rng.normal(size=(512, n)))
            network._gemm(rng.normal(size=(512, n)), w.T)

    def test_conv_net_cuts_only_the_large_weight_gradient(self, monkeypatch):
        """At batch 128 on 32x32x3, the GEMMs with the 25088x128 weight are
        cut: ``h @ w`` into two 64-column chunks, ``dh @ w.T`` into 2048-column
        chunks and ``h_in.T @ dh`` into 512-row chunks, and a 500-example
        evaluation's ``h @ w`` into two 256-row chunks. The 128x10 logits
        layer's GEMMs stay one call."""
        counts = []
        monkeypatch.setattr(network, "run_pieces",
                            lambda pool, piece, count: counts.append(count))
        h, w, dh = np.zeros((128, 25088)), np.zeros((25088, 128)), np.zeros((128, 128))
        network._gemm(h, w)
        network._gemm(dh, w.T)
        network._gemm(h.T, dh)
        network._gemm(np.zeros((500, 25088)), w)
        w2, dh2 = np.zeros((128, 10)), np.zeros((128, 10))
        network._gemm(dh, w2)
        network._gemm(dh2, w2.T)
        network._gemm(dh.T, dh2)
        assert counts == [2, 13, 49, 2]

    def test_sgd_step_identical_for_every_thread_count(self):
        """A weight of the fewest element-wise pieces a pool takes is updated
        piece by piece on it; two steps make the momentum term count."""
        net = init_network([dense(1024), relu_layer(), dense(3)],
                           (1100,), seed=1)
        assert net.params[0].weight.size > network._MIN_PIECES * network._PIECE_SIZE
        rng = np.random.default_rng(4)
        grads = [None if p is None else
                 LayerParams(rng.normal(size=p.weight.shape), rng.normal(size=p.bias.shape))
                 for p in net.params]

        def two_steps(pool):
            trained, state = net.copy(), SgdState.zeros(net)
            for _ in range(2):
                sgd_step(trained, grads, 0.1, 0.9, state, pool)
            return trained.params, state.velocities

        same_for_every_thread_count(two_steps)

    def test_pass_of_few_pieces_stays_one_call_on_a_pool(self, monkeypatch):
        """Below _MIN_PIECES pieces an element-wise pass is one plain call even
        with a pool: the update of a structured MNIST cell's 7488x51 weight."""
        def refuse(*args):
            raise AssertionError("a pass of few pieces ran on the pool")

        monkeypatch.setattr(network, "run_pieces", refuse)
        net = init_network([dense(51), relu_layer(), dense(10)],
                           (7488,), seed=1)
        assert net.params[0].weight.size > network._PIECE_SIZE
        grads = [None if p is None else LayerParams(np.ones_like(p.weight), p.bias)
                 for p in net.params]
        with KernelPool(2) as pool:
            sgd_step(net, grads, 0.1, 0.9, SgdState.zeros(net), pool)

    def test_desk_step_without_a_pool_runs_no_pieces(self, monkeypatch):
        """With no pool, a desk-scale training step makes no piece calls:
        every GEMM and element-wise pass is one plain call."""
        def refuse(*args):
            raise AssertionError("a desk-scale step ran kernel pieces")

        monkeypatch.setattr(network, "run_pieces", refuse)
        for mode in (None, "unstructured"):
            spec, shape = network.default_dense_spec(10), (16,)
            rng = RngStream(6)
            net = init_network(spec, shape, seed=0)
            mask = None if mode is None else sample_mask(spec, shape, 0.6, mode,
                                                         rng.split("mask"))
            x = rng.split("x").normal((512,) + shape)
            y = np.asarray(rng.split("y").integers(0, 10, size=512))
            _, grads, _ = network._forward_backward(net, mask, x, y)
            sgd_step(net, grads, 0.1, 0.9, SgdState.zeros(net))


def instance(mode, batch=13):
    rng = RngStream(11)
    net = init_network(SPEC, SHAPE, seed=3)
    mask = None if mode is None else sample_mask(SPEC, SHAPE, 0.5, mode,
                                                 rng.split("mask"))
    x = rng.split("x").normal((batch,) + SHAPE)
    y = np.asarray(rng.split("y").integers(0, 3, size=batch))
    return net, mask, x, y


@pytest.mark.parametrize("mode", [None, "structured", "unstructured"])
class TestPasses:
    def test_forward_backward_identical_for_every_thread_count(self, small_pieces, mode):
        net, mask, x, y = instance(mode)
        same_for_every_thread_count(
            lambda pool: network._forward_backward(net, mask, x, y, pool))

    def test_evaluate_identical_for_every_thread_count(self, small_pieces, mode):
        net, mask, x, y = instance(mode)
        dataset = Dataset(x, y, 3)
        result = same_for_every_thread_count(
            lambda pool: network.evaluate(net, mask, dataset, 5, pool))
        assert result == list(network.evaluate(net, mask, dataset, 5))


@pytest.mark.parametrize("threads", [1, 2])
def test_evaluate_in_training_batch_blocks_keeps_its_result(small_pieces, monkeypatch,
                                                           threads):
    """300 examples in one loss chunk, forwarded as blocks of 128, 128 and 44
    rows, give the same result as one 300-row forward, with or without a pool."""
    net, mask, x, y = instance("unstructured", batch=300)
    dataset = Dataset(x, y, 3)
    whole = network.evaluate(net, mask, dataset)
    real_forward, rows = network._forward_pass, []

    def forward_spy(net, mask, x, keep_inputs, pool=None):
        rows.append(len(x))
        return real_forward(net, mask, x, keep_inputs, pool)

    monkeypatch.setattr(network, "_forward_pass", forward_spy)
    with network.kernel_pool(threads) as pool:
        blocked = network.evaluate(net, mask, dataset, pool=pool, block_rows=128)
    assert rows == [128, 128, 44]
    assert blocked == whole


@pytest.mark.parametrize("mode", ["structured", "unstructured"])
def test_training_identical_for_every_thread_count(small_pieces, mode):
    net, mask, x, y = instance(mode, batch=40)
    splits = Splits(Dataset(x[:24], y[:24], 3), Dataset(x[24:32], y[24:32], 3),
                    Dataset(x[32:], y[32:], 3))
    cfg = TrainConfig(epochs=2, batch_size=8, lr=0.05)
    outputs = []
    with pools() as by_threads:
        for pool in by_threads.values():
            trained = net.copy()
            rows, _, active = pipeline._train(trained, mask, cfg, splits,
                                              RngStream(5).split("train"), "cell", pool)
            # an unstructured mask trains the parent in place
            outputs.append((rows, active, as_bytes(trained.params)))
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


@pytest.mark.parametrize("threads", [1, 2])
def test_masked_update_equals_masking_the_gradient_first(monkeypatch, threads):
    """Weight masks given to sgd_step zero the gradient inside the update, to
    the bytes of masking it first and stepping without them; a weight masked
    beforehand keeps its signed zero. On a pool the update runs in pieces."""
    monkeypatch.setattr(network, "_PIECE_SIZE", 7)
    monkeypatch.setattr(network, "_MIN_PIECES", 2)
    spec, shape = [dense(8), relu_layer(), dense(3)], (5,)
    rng = RngStream(9)
    net = init_network(spec, shape, seed=2)
    mask = sample_mask(spec, shape, 0.5, "unstructured", rng.split("mask"))
    for i, m in mask.masks.items():
        net.params[i].weight *= m
    steps = [[None if p is None else
              LayerParams(rng.split(f"w{s}/{i}").normal(p.weight.shape),
                          rng.split(f"b{s}/{i}").normal(p.bias.shape))
              for i, p in enumerate(net.params)] for s in range(3)]

    reference, state = net.copy(), SgdState.zeros(net)
    for grads in steps:
        masked = [g if g is None or i not in mask.masks else
                  LayerParams(g.weight * mask.masks[i], g.bias) for i, g in enumerate(grads)]
        sgd_step(reference, masked, 0.1, 0.9, state)

    real_run_pieces, piece_calls = network.run_pieces, []

    def run_pieces_spy(pool, piece, count):
        piece_calls.append(pool is not None and count > 1)
        return real_run_pieces(pool, piece, count)

    monkeypatch.setattr(network, "run_pieces", run_pieces_spy)
    with network.kernel_pool(threads) as pool:
        stepped, stepped_state = net.copy(), SgdState.zeros(net)
        for grads in steps:
            fresh = [g if g is None else LayerParams(g.weight.copy(), g.bias.copy())
                     for g in grads]
            sgd_step(stepped, fresh, 0.1, 0.9, stepped_state, pool, mask.masks)
    assert any(piece_calls) == (threads == 2)
    assert as_bytes(stepped.params) == as_bytes(reference.params)
    assert as_bytes(stepped_state.velocities) == as_bytes(state.velocities)
    for i, m in mask.masks.items():
        assert stepped.params[i].weight[~m].tobytes() == net.params[i].weight[~m].tobytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_unstructured_training_runs_unmasked_passes_on_premasked_weights(
        small_pieces, monkeypatch, threads):
    """``_train`` multiplies an unstructured mask into the weights once and
    masks only the update, to the rows of masked passes with an unmasked
    update; no pass it runs receives the mask."""
    net, mask, x, y = instance("unstructured", batch=40)
    splits = Splits(Dataset(x[:24], y[:24], 3), Dataset(x[24:32], y[24:32], 3),
                    Dataset(x[32:], y[32:], 3))
    cfg = TrainConfig(epochs=2, batch_size=8, lr=0.05)

    reference, state, expected = net.copy(), SgdState.zeros(net), []
    for epoch in (1, 2):
        seen, correct, loss_sum = 0, 0, 0.0
        for xb, yb in batches(splits.train, cfg.batch_size,
                              RngStream(5).split("train").split(f"epoch{epoch}")):
            loss, grads, logits = network._forward_backward(reference, mask, xb, yb)
            sgd_step(reference, grads, cfg.lr, cfg.momentum, state)
            seen += len(yb)
            loss_sum += loss * len(yb)
            correct += int((logits.argmax(axis=1) == yb).sum())
        test = network.evaluate(reference, mask, splits.test)
        expected.append(pipeline.EpochRow(epoch, correct / seen, loss_sum / seen,
                                          test.accuracy, test.mean_loss))

    real_forward, masks_seen = network._forward_pass, []

    def forward_spy(net, mask, x, keep_inputs, pool=None):
        masks_seen.append(mask)
        return real_forward(net, mask, x, keep_inputs, pool)

    monkeypatch.setattr(network, "_forward_pass", forward_spy)
    trained = net.copy()
    with network.kernel_pool(threads) as pool:
        rows, _, _ = pipeline._train(trained, mask, cfg, splits,
                                     RngStream(5).split("train"), "cell", pool)
    assert rows == expected
    assert masks_seen and all(m is None for m in masks_seen)
    for i, p in enumerate(trained.params):
        if p is None:
            continue
        assert p.bias.tobytes() == reference.params[i].bias.tobytes()
        m = mask.masks.get(i, np.ones(p.weight.shape, dtype=bool))
        assert p.weight[m].tobytes() == reference.params[i].weight[m].tobytes()
        assert not p.weight[~m].any()


def blobs_config(tmp_path, etas, arms=("weedout", "random_baseline")):
    raw = {
        "schema_version": 1,
        "dataset": {"kind": "blobs", "num_classes": 4, "per_class": 30,
                    "dim": 12, "spread": 0.3, "seed": 0},
        "search": {"population_size": 6, "generations": 2,
                   "validation_batch_size": 16, "etas": etas},
        "train": {"epochs": 2, "batch_size": 16},
        "arms": list(arms),
        "seeds": [0],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return path


def conv_config(tmp_path):
    """A one-cell unstructured random-mask sweep on small IDX images."""
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 10, size=96)
    images = (rng.random((96, 10, 10)) * 80 + labels[:, None, None] * 16).astype(np.uint8)
    paths = {}
    for part, rows in (("train", slice(0, 64)), ("test", slice(64, 96))):
        paths[f"{part}_images"] = str(tmp_path / f"{part}-images.idx")
        paths[f"{part}_labels"] = str(tmp_path / f"{part}-labels.idx")
        write_idx_images(paths[f"{part}_images"], images[rows])
        write_idx_labels(paths[f"{part}_labels"], labels[rows])
    raw = {
        "schema_version": 1,
        "dataset": {"kind": "mnist", **paths},
        "splits": {"train": 48, "validation": 16, "seed": 0},
        "architecture": [{"kind": "conv2d", "width": 4, "kernel_size": 3},
                         {"kind": "relu"},
                         {"kind": "conv2d", "width": 6, "kernel_size": 3, "stride": 2},
                         {"kind": "relu"}, {"kind": "flatten"},
                         {"kind": "dense", "width": 16}, {"kind": "relu"},
                         {"kind": "dense", "width": 10}],
        "search": {"etas": [0.5], "mask_mode": "unstructured",
                   "validation_batch_size": 16},
        "train": {"epochs": 2, "batch_size": 16},
        "arms": ["random_baseline"],
        "seeds": [0],
    }
    path = tmp_path / "conv.json"
    path.write_text(json.dumps(raw))
    return path


def run_cli(capsys, config, out, parallel):
    code = main(["run", "--config", str(config), "--out", str(out),
                 "--parallel", str(parallel)])
    return code, capsys.readouterr().out.replace(str(out), "<out>")


def cell_files(out):
    """Every cell file; manifests without wall times and the output path."""
    files = {}
    for path in sorted(out.glob("*/*")):
        blob = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(blob)
            manifest.pop("wall_clock")
            manifest["effective_config"].pop("out_dir")
            blob = json.dumps(manifest, sort_keys=True).encode()
        files[f"{path.parent.name}/{path.name}"] = blob
    return files


def test_conv_cell_outputs_identical_at_one_and_two_threads(tmp_path, capsys,
                                                            monkeypatch):
    """Small cuts make the cell's conv blocks, row and column GEMM chunks and
    element-wise pieces all run on its pool at two threads: GEMMs of batch
    rows (16) are cut by columns, taller ones by rows."""
    for name, value in (("_BLOCK_BYTES", 4096), ("_CHUNK_ROWS", 20), ("_CHUNK_MACS", 1),
                        ("_CHUNK_COLS", 4), ("_COL_CHUNK_MACS", 1),
                        ("_PIECE_SIZE", 64), ("_MIN_PIECES", 2)):
        monkeypatch.setattr(network, name, value)
    pools_made = []
    real_pool, real_run_pieces = network.KernelPool, network.run_pieces

    def recording_pool(threads):
        pools_made.append(threads)
        return real_pool(threads)

    pooled = set()

    def run_pieces_spy(pool, piece, count):
        if pool is not None:
            by_rows = inspect.getclosurevars(piece).nonlocals.get("by_rows")
            pooled.add({True: "row chunks", False: "column chunks"}.get(
                by_rows, piece.__qualname__))
        real_run_pieces(pool, piece, count)

    monkeypatch.setattr(network, "KernelPool", recording_pool)
    monkeypatch.setattr(network, "run_pieces", run_pieces_spy)
    config = conv_config(tmp_path)
    runs = {}
    for parallel in (1, 2):
        out = tmp_path / f"p{parallel}"
        code, stdout = run_cli(capsys, config, out, parallel)
        assert code == 0, stdout
        runs[parallel] = (stdout, cell_files(out))
    assert pooled == {"row chunks", "column chunks", "_elementwise.<locals>.piece",
                      "_conv_forward.<locals>.forward_block",
                      "_conv_backward.<locals>.backward_block"}
    stdout, files = runs[1]
    assert "[completed] random_baseline_0.5_0" in stdout
    assert sorted(files) == [f"{run_label('random_baseline', 0.5, 0)}/{name}"
                             for name in ("manifest.json", "metrics.csv")]
    assert runs[2] == runs[1]
    assert pools_made == [2]  # the lone cell trained on both threads


def test_fitness_scoring_never_receives_a_kernel_pool(monkeypatch):
    real_fitness, real_forward = search.fitness, network._forward_pass
    scoring = threading.local()
    calls = []

    def fitness_spy(net, mask, batch, *args):
        scoring.on = True
        try:
            return real_fitness(net, mask, batch, *args)
        finally:
            scoring.on = False

    def forward_spy(net, mask, x, keep_inputs, pool=None):
        calls.append((getattr(scoring, "on", False), pool))
        return real_forward(net, mask, x, keep_inputs, pool)

    monkeypatch.setattr(search, "fitness", fitness_spy)
    monkeypatch.setattr(network, "_forward_pass", forward_spy)
    rng = RngStream(2)
    images = rng.split("x").normal((48,) + SHAPE)
    labels = np.asarray(rng.split("y").integers(0, 3, size=48))
    splits = Splits(*(Dataset(images[s], labels[s], 3)
                      for s in (slice(0, 16), slice(16, 32), slice(32, 48))))
    record = pipeline.run_cell(
        SPEC, SHAPE, "weedout", 0.5, 0,
        SearchConfig(population_size=4, generations=2, validation_batch_size=8),
        TrainConfig(epochs=1, batch_size=8, lr=0.05), splits, parallel=2)
    assert record.fitness_evaluations == 8
    scored = [pool for in_fitness, pool in calls if in_fitness]
    trained = [pool for in_fitness, pool in calls if not in_fitness]
    assert len(scored) == 8 and all(pool is None for pool in scored)
    assert trained and all(isinstance(pool, KernelPool) and pool.threads == 2
                           for pool in trained)


@pytest.mark.parametrize("etas,arms,parallel,executors", [
    ([0.3], ["weedout"], 1, 0),
    ([0.3, 0.6], ["weedout", "random_baseline"], 1, 0),
    # four cells on two forked workers, one thread each
    ([0.3, 0.6], ["weedout", "random_baseline"], 2, 0),
    # a lone cell runs on the caller plus one pool thread: a weedout cell
    # scores its search and trains on the same pool
    ([0.3], ["weedout"], 2, 1),
    ([0.3], ["random_baseline"], 2, 1),
])
def test_only_cells_with_two_threads_create_an_executor(tmp_path, capsys, monkeypatch,
                                                        etas, arms, parallel,
                                                        executors):
    created = []

    class SpyExecutor(ThreadPoolExecutor):
        def __init__(self, max_workers, **kw):
            if not executors:
                # raises in forked workers too, where it fails the cell
                raise RuntimeError("a one-thread cell created a kernel executor")
            created.append(max_workers)
            super().__init__(max_workers, **kw)

    monkeypatch.setattr(network, "ThreadPoolExecutor", SpyExecutor)
    code, stdout = run_cli(capsys, blobs_config(tmp_path, etas, arms),
                           tmp_path / "out", parallel)
    assert code == 0, stdout
    assert stdout.count("[completed]") == len(etas) * len(arms)
    assert created == [1] * executors
