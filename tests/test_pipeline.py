import json
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from weedout import pipeline
from weedout.errors import DivergenceError
from weedout.network import default_dense_spec, init_network, parent_checksum
from weedout.pipeline import (ARMS, EpochRow, TrainConfig, cell_state,
                              read_run_record, run_cell, run_label, sweep,
                              sweep_cells, write_failure, write_run_record)
from weedout.search import HistoryRow, SearchConfig
from weedout.numerics import RngStream
from weedout.sparsity import (MASK_MODES, active_parameter_count, sample_mask,
                              sub_network)

SRC = Path(__file__).resolve().parents[1] / "src"
SPEC = default_dense_spec(10)
SHAPE = (16,)


def metrics_csv_bytes(record):
    return pipeline._rows_csv(EpochRow, record.epoch_rows)


def search_csv_bytes(history):
    return pipeline._rows_csv(HistoryRow, history)


def small_search(**kw):
    defaults = dict(population_size=8, generations=2, validation_batch_size=32)
    defaults.update(kw)
    return SearchConfig(**defaults)


def small_train(**kw):
    defaults = dict(epochs=3, batch_size=32, lr=0.05, momentum=0.9)
    defaults.update(kw)
    return TrainConfig(**defaults)


def run(arm, eta, seed, splits, search=None, train=None, **kw):
    return run_cell(SPEC, SHAPE, arm, eta, seed, search or small_search(),
                    train or small_train(), splits, **kw)


def dense_training(seed, splits, train=None):
    """Train the seed's whole parent, no mask and no search."""
    net = init_network(SPEC, SHAPE, seed)
    rows, _ = pipeline._train(net, {}, train or small_train(), splits,
                              RngStream(seed).split("train"), "dense")
    return rows, active_parameter_count(net)


class TestSingleRuns:
    def test_rerun_is_bit_identical(self, blob_splits):
        a = run("weedout", 0.4, 3, blob_splits)
        b = run("weedout", 0.4, 3, blob_splits)
        assert metrics_csv_bytes(a) == metrics_csv_bytes(b)
        assert search_csv_bytes(a.search_history) == search_csv_bytes(b.search_history)
        assert a.parent_checksum == b.parent_checksum
        assert a.mask["sample_seed"] == b.mask["sample_seed"]

    def test_epochs_contiguous_from_one(self, blob_splits):
        rec = run("weedout", 0.4, 1, blob_splits)
        assert [r.epoch for r in rec.epoch_rows] == [1, 2, 3]
        for r in rec.epoch_rows:
            assert 0.0 <= r.train_accuracy <= 1.0
            if r.test_accuracy is not None:
                assert 0.0 <= r.test_accuracy <= 1.0

    def test_eta_zero_weedout_equals_dense_training(self, blob_splits):
        """All-ones masks make the search a no-op: training matches dense training."""
        w = run("weedout", 0.0, 2, blob_splits)
        rows, active = dense_training(2, blob_splits)
        assert w.epoch_rows == rows
        assert w.active_parameters == active

    def test_eta_zero_baseline_equals_dense_arm(self, blob_splits):
        b = run("random_baseline", 0.0, 2, blob_splits)
        rows, active = dense_training(2, blob_splits)
        assert b.epoch_rows == rows
        assert b.active_parameters == active
        assert b.parent_checksum == parent_checksum(init_network(SPEC, SHAPE, 2))

    @pytest.mark.parametrize("mode", MASK_MODES)
    def test_eta_zero_arms_train_the_fully_connected_parent(self, blob_splits, mode):
        """At eta 0 both arms take the all-ones mask, so they train the seed's
        whole parent to the same bytes: the paper's fully connected reference."""
        search = small_search(mask_mode=mode)
        w = run("weedout", 0.0, 2, blob_splits, search=search)
        b = run("random_baseline", 0.0, 2, blob_splits, search=search)
        assert metrics_csv_bytes(w) == metrics_csv_bytes(b)
        assert w.parent_checksum == b.parent_checksum
        parent = init_network(SPEC, SHAPE, 2)
        assert w.parent_checksum == parent_checksum(parent)
        assert w.mask["realized_sparsity"] == b.mask["realized_sparsity"] == 0.0
        assert w.active_parameters == b.active_parameters == \
            active_parameter_count(parent, None)

    def test_fitness_evaluation_budgets(self, blob_splits):
        w = run("weedout", 0.4, 4, blob_splits)
        b = run("random_baseline", 0.4, 4, blob_splits)
        assert w.fitness_evaluations == 8 * 2
        assert len(w.search_history) == 16
        assert b.fitness_evaluations == 0
        assert b.search_history is None

    @pytest.mark.parametrize("parallel", [1, 2])
    @pytest.mark.parametrize("mode", MASK_MODES)
    @pytest.mark.parametrize("arm", ARMS)
    def test_parent_is_freed_before_training(self, monkeypatch, blob_splits, arm,
                                             mode, parallel):
        """A cell trains its mask's sub-network, and nothing refers to the
        seed's parent once training starts, so the parent's weights are freed."""
        parents, alive = [], []
        real_parent_for, real_train = pipeline._parent_for, pipeline._train

        def parent_for(*args):
            parents.append(weakref.ref(net := real_parent_for(*args)))
            return net

        def train(*args):
            alive.append(parents[-1]() is not None)
            return real_train(*args)

        monkeypatch.setattr(pipeline, "_parent_for", parent_for)
        monkeypatch.setattr(pipeline, "_train", train)
        run(arm, 0.4, 3, blob_splits, search=small_search(mask_mode=mode),
            parallel=parallel)
        assert alive == [False]

    @pytest.mark.parametrize("mode,hand_count", [
        # 16 inputs, widths 64 and 32 keep 38 and 19 units, then 10 logits
        ("structured", 16 * 38 + 38 + 38 * 19 + 19 + 19 * 10 + 10),
        # 614 of 1,024 and 1,229 of 2,048 weights, all 320 logits weights, 106 biases
        ("unstructured", 614 + 1229 + 320 + 106),
    ])
    def test_active_parameters_counted_on_the_sub_network(self, blob_splits, mode,
                                                          hand_count):
        rec = run("random_baseline", 0.4, 3, blob_splits,
                  search=small_search(mask_mode=mode))
        mask = sample_mask(SPEC, SHAPE, 0.4, mode, RngStream(3).split("baseline-mask"))
        weight_masks = mask.masks if mode == "unstructured" else {}
        sub = sub_network(init_network(SPEC, SHAPE, 3), mask)
        assert active_parameter_count(sub, weight_masks) == hand_count
        assert rec.active_parameters == hand_count

    def test_arms_share_parent_and_parameter_count(self, blob_splits):
        w = run("weedout", 0.8, 5, blob_splits)
        b = run("random_baseline", 0.8, 5, blob_splits)
        assert w.parent_checksum == b.parent_checksum
        assert w.active_parameters == b.active_parameters

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergence_aborts_with_diagnostic(self, blob_splits):
        with pytest.raises(DivergenceError, match="epoch"):
            run("weedout", 0.4, 7, blob_splits, train=small_train(lr=1e150))

    def test_wall_clock_phases_recorded(self, blob_splits):
        rec = run("weedout", 0.4, 8, blob_splits)
        assert set(rec.wall_clock) == {"init", "weedout_phase", "training_phase",
                                       "evaluation"}
        assert all(v >= 0 for v in rec.wall_clock.values())

    def test_eval_every(self, blob_splits):
        rec = run("random_baseline", 0.2, 9, blob_splits,
                  train=small_train(epochs=5, eval_every=2))
        evaluated = [r.epoch for r in rec.epoch_rows if r.test_accuracy is not None]
        assert evaluated == [2, 4, 5]  # every 2nd epoch plus the final one

    def test_unknown_arm_rejected(self, blob_splits):
        with pytest.raises(ValueError, match="unknown arm"):
            run("probe", 0.4, 0, blob_splits)

    @pytest.mark.parametrize("arm", ARMS)
    def test_what_only_the_arm_decides(self, blob_splits, arm):
        """The search record belongs to weedout alone; both arms keep the
        cell's eta and the search's mask mode."""
        rec = run(arm, 0.4, 10, blob_splits,
                  search=small_search(mask_mode="unstructured"))
        searched = arm == "weedout"
        assert (rec.search_history is not None) == searched
        assert (rec.fitness_evaluations == 8 * 2) == searched
        assert rec.eta == 0.4
        assert rec.run_id == run_label(arm, 0.4, 10)
        assert rec.mask["mode"] == "unstructured"
        assert rec.mask["realized_sparsity"] == pytest.approx(0.4, abs=1e-3)
        if not searched:
            assert rec.wall_clock["weedout_phase"] == 0.0


class TestPersistence:
    def test_write_read_round_trip(self, tmp_path, blob_splits):
        rec = run("weedout", 0.4, 1, blob_splits)
        cell = tmp_path / rec.run_id
        write_run_record(rec, cell, effective_config={"x": 1})
        state = cell_state(cell)
        assert state.status == "completed" and state.reason is None
        back = read_run_record(cell, state.manifest)
        assert metrics_csv_bytes(back) == metrics_csv_bytes(rec)
        assert search_csv_bytes(back.search_history) == search_csv_bytes(rec.search_history)
        assert back.parent_checksum == rec.parent_checksum
        assert back.mask == rec.mask

    def test_cell_file_formats_are_pinned(self, tmp_path, blob_splits):
        """The CSV headers and manifest keys come from the dataclasses' field
        names, so renaming a field would rename a column or a key."""
        rec = run("weedout", 0.4, 1, blob_splits)
        write_run_record(rec, tmp_path / "done")
        write_failure(tmp_path / "failed", "weedout", 0.4, 1, "RuntimeError: boom")
        heads = {name: (tmp_path / "done" / name).read_text().split("\n")[0]
                 for name in ("metrics.csv", "search.csv")}
        assert heads == {
            "metrics.csv": "epoch,train_accuracy,train_loss,test_accuracy,test_loss",
            "search.csv": "generation,candidate_id,birth_generation,fitness,is_elite"}
        done, failed = (json.loads((tmp_path / cell / "manifest.json").read_text())
                        for cell in ("done", "failed"))
        identity = {"schema_version", "run_id", "arm", "eta", "seed", "status", "error",
                    "files", "effective_config"}
        assert set(failed) == identity
        assert set(done) == identity | {"mask", "active_parameters", "parent_checksum",
                                        "fitness_evaluations", "wall_clock"}
        assert set(done["mask"]) == {"mode", "eta", "sample_seed", "per_layer",
                                     "realized_sparsity"}
        assert done["mask"]["per_layer"] == {"0": {"zeros": 26, "size": 64},
                                             "2": {"zeros": 13, "size": 32}}

    def test_corrupt_metrics_detected(self, tmp_path, blob_splits):
        rec = run("random_baseline", 0.2, 1, blob_splits)
        cell = tmp_path / rec.run_id
        write_run_record(rec, cell)
        blob = (cell / "metrics.csv").read_bytes()
        (cell / "metrics.csv").write_bytes(blob.replace(b"0", b"1", 1))
        state = cell_state(cell)
        assert state.status == "corrupt" and state.manifest is None
        assert state.reason.startswith("ChecksumError: ")


class TestSweep:
    def test_factorial_cells(self):
        cells = sweep_cells([0, 0.2], ["weedout", "random_baseline"], [0, 1])
        assert cells == [("weedout", 0.0, 0), ("weedout", 0.0, 1),
                         ("random_baseline", 0.0, 0), ("random_baseline", 0.0, 1),
                         ("weedout", 0.2, 0), ("weedout", 0.2, 1),
                         ("random_baseline", 0.2, 0), ("random_baseline", 0.2, 1)]
        assert all(type(eta) is float for _, eta, _ in cells)

    def test_sweep_runs_and_resumes(self, tmp_path, blob_splits):
        out = tmp_path / "sweep"
        args = (SPEC, SHAPE, [0.0, 0.4], ["weedout", "random_baseline"], [0],
                small_search(), small_train(), blob_splits, out)
        first = sweep(*args)
        assert [r.status for r in first] == ["completed"] * 4
        stamps = {r.cell_dir: (r.cell_dir / "metrics.csv").stat().st_mtime_ns
                  for r in first}
        contents = {r.cell_dir: (r.cell_dir / "metrics.csv").read_bytes()
                    for r in first}
        time.sleep(0.01)
        second = sweep(*args)
        assert [r.status for r in second] == ["cached"] * 4
        for r in second:
            assert (r.cell_dir / "metrics.csv").stat().st_mtime_ns == stamps[r.cell_dir]
            assert (r.cell_dir / "metrics.csv").read_bytes() == contents[r.cell_dir]

    def test_cached_rerun_hashes_each_listed_file_once(self, tmp_path, blob_splits,
                                                       monkeypatch):
        out = tmp_path / "sweep"
        args = (SPEC, SHAPE, [0.4], ["weedout", "random_baseline"], [0, 1],
                small_search(), small_train(), blob_splits, out)
        sweep(*args)
        listed = sorted(digest for path in out.glob("*/manifest.json")
                        for digest in json.loads(path.read_text())["files"].values())
        assert len(listed) == 6  # metrics.csv per cell, search.csv per weedout cell
        hashed = []
        real_sha256 = pipeline._sha256

        def sha256_spy(data):
            hashed.append(real_sha256(data))
            return hashed[-1]

        monkeypatch.setattr(pipeline, "_sha256", sha256_spy)
        assert [r.status for r in sweep(*args)] == ["cached"] * 4
        assert sorted(hashed) == listed

    def test_single_cell_sweep_equals_direct_run(self, tmp_path, blob_splits):
        out = tmp_path / "sweep"
        results = sweep(SPEC, SHAPE, [0.4], ["weedout"], [3], small_search(),
                        small_train(), blob_splits, out)
        direct = run("weedout", 0.4, 3, blob_splits)
        assert metrics_csv_bytes(results[0].record) == metrics_csv_bytes(direct)

    def test_failed_cells_recorded_and_sweep_continues(self, tmp_path, blob_splits):
        # validation batch larger than the validation split fails the weedout arm only
        bad_search = small_search(validation_batch_size=10**6)
        out = tmp_path / "sweep"
        results = sweep(SPEC, SHAPE, [0.4], ["weedout", "random_baseline"], [0, 1],
                        bad_search, small_train(), blob_splits, out)
        by_arm = {}
        for r in results:
            by_arm.setdefault(r.arm, []).append(r.status)
        assert by_arm["weedout"] == ["failed", "failed"]
        assert by_arm["random_baseline"] == ["completed", "completed"]
        failed_dir = out / run_label("weedout", 0.4, 0)
        assert cell_state(failed_dir).status == "failed"
        import json
        manifest = json.loads((failed_dir / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "without replacement" in manifest["error"]

    def test_resume_recomputes_failed_cells(self, tmp_path, blob_splits):
        out = tmp_path / "sweep"
        bad = small_search(validation_batch_size=10**6)
        sweep(SPEC, SHAPE, [0.4], ["weedout"], [0], bad, small_train(),
              blob_splits, out)
        results = sweep(SPEC, SHAPE, [0.4], ["weedout"], [0], small_search(),
                        small_train(), blob_splits, out)
        assert results[0].status == "completed"
        assert cell_state(results[0].cell_dir).status == "completed"


class TestAtomicWrites:
    """Cell files are renamed into place, the manifest last: a write that
    stops part way leaves no manifest, and resume recomputes the cell."""

    @staticmethod
    def cell_bytes(cell):
        files = {}
        for path in sorted(cell.iterdir()):
            blob = path.read_bytes()
            if path.name == "manifest.json":
                manifest = json.loads(blob)
                manifest.pop("wall_clock")
                blob = json.dumps(manifest, sort_keys=True).encode()
            files[path.name] = blob
        return files

    @pytest.mark.parametrize("before", ["empty", "completed"])
    def test_write_stopped_after_metrics_leaves_no_manifest(self, tmp_path, blob_splits,
                                                            monkeypatch, before):
        args = (SPEC, SHAPE, [0.4], ["weedout"], [0], small_search(), small_train(),
                blob_splits)
        clean = sweep(*args, tmp_path / "clean")[0].cell_dir
        out = tmp_path / "sweep"
        cell = out / run_label("weedout", 0.4, 0)
        if before == "completed":
            sweep(*args, out)
            (cell / "manifest.json").unlink()  # so the sweep writes the cell again
        replace = os.replace

        def stop_after_metrics(src, dst):
            if Path(dst).name != "metrics.csv":
                raise OSError("no space left on device")
            replace(src, dst)

        monkeypatch.setattr(pipeline.os, "replace", stop_after_metrics)
        with pytest.raises(OSError, match="no space"):
            sweep(*args, out)
        monkeypatch.undo()
        names = sorted(p.name for p in cell.iterdir())
        # no manifest and no temporary file; an old search.csv may stay
        assert names == (["metrics.csv"] if before == "empty"
                         else ["metrics.csv", "search.csv"])
        assert cell_state(cell).status == "corrupt"

        results = sweep(*args, out)
        assert results[0].status == "completed"
        assert self.cell_bytes(cell) == self.cell_bytes(clean)

    def test_failure_manifest_replaces_whole(self, tmp_path):
        cell = tmp_path / "cell"
        write_failure(cell, "weedout", 0.4, 0, "RuntimeError: first")
        write_failure(cell, "weedout", 0.4, 0, "RuntimeError: second")
        assert sorted(p.name for p in cell.iterdir()) == ["manifest.json"]
        assert json.loads((cell / "manifest.json").read_text())["error"] == \
            "RuntimeError: second"


def in_one_blas_thread(code: str) -> list[str]:
    """What ``code`` prints, split into words, run in a child process on one
    BLAS thread: a multi-threaded BLAS splits a GEMM's rows by its size."""
    one_thread = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}
    env = dict(os.environ, PYTHONPATH=str(SRC), **one_thread)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


class TestEvaluationBlocks:
    def test_blocks_of_any_training_batch_keep_one_pass_bits(self):
        """Row blocks need not be a multiple of 16: blocks are cut down to
        whole BLAS tiles, and a short tail joins the block before it, so on
        one BLAS thread every logit equals one pass. 129 rows in blocks of 128
        run as one block; 500 rows in blocks of 50 as 48-row blocks and a
        20-row tail."""
        code = """if True:
            from weedout import network
            from weedout.numerics import RngStream
            nets = [(network.default_dense_spec(10), (16,)),
                    (network.default_conv_spec(10), (28, 28, 1)),
                    (network.default_conv_spec(10), (32, 32, 3))]
            real_forward = network._forward_pass
            for spec, shape in nets:
                net = network.init_network(spec, shape, seed=0)
                for n, rows in ((129, 128), (500, 50)):
                    x = RngStream(n).split("x").normal((n,) + shape)
                    blocks = []

                    def forward_spy(*args):
                        blocks.append(real_forward(*args))
                        return blocks[-1]

                    network._forward_pass = forward_spy
                    blocked = network._blocked_logits(net, lambda a, b: x[a:b], n,
                                                      block_rows=rows)
                    network._forward_pass = real_forward
                    whole = real_forward(net, None, x, False)[0]
                    print(blocked.tobytes() == whole.tobytes(),
                          [len(b[0]) for b in blocks] == ([129] if n == 129
                                                           else [48] * 10 + [20]))
        """
        assert in_one_blas_thread(code) == ["True", "True"] * 6

    def test_desk_evaluation_in_one_pass_equals_training_batch_blocks(self):
        """``evaluate`` sizes its blocks from the network: the desk net's
        4,096-row blocks forward a 512-example chunk in one pass, with the
        result of the 128-row blocks of a cell's training batch."""
        code = """if True:
            import numpy as np
            from weedout import network
            from weedout.data import Dataset
            from weedout.numerics import RngStream
            net = network.init_network(network.default_dense_spec(10), (16,), seed=0)
            rng = RngStream(5)
            ds = Dataset(rng.split("x").normal((512, 16)),
                         np.asarray(rng.split("y").integers(0, 10, size=512)), 10)
            real_forward, rows = network._forward_pass, []

            def forward_spy(net, mask, x, keep_inputs, pool=None):
                rows.append(len(x))
                return real_forward(net, mask, x, keep_inputs, pool)

            network._forward_pass = forward_spy
            one_pass = network.evaluate(net, ds)
            network.activation_block_rows = lambda net: 128
            print(rows == [512], one_pass == network.evaluate(net, ds),
                  rows == [512, 128, 128, 128, 128])
        """
        assert in_one_blas_thread(code) == ["True", "True", "True"]
