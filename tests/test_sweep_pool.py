"""Sweep cells in worker processes: fixed output order, failures, resume.

``--parallel N`` gives up to N pending cells a forked worker each and the
rest of N to candidate threads inside a cell. Whatever the split, the cell
files and the progress lines must be byte-identical to a one-process sweep.
"""

import json
import os
import pickle
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import weedout
from weedout import pipeline
from weedout.cli import main
from weedout.data import Dataset
from weedout.pipeline import run_label

SRC = Path(weedout.__file__).resolve().parents[1]
ETAS = [0.3, 0.6]
ARMS = ["weedout", "random_baseline"]


def raw_config(etas=ETAS, arms=ARMS):
    return {
        "schema_version": 1,
        "dataset": {"kind": "blobs", "num_classes": 4, "per_class": 30,
                    "dim": 12, "spread": 0.3, "seed": 0},
        "search": {"population_size": 6, "generations": 2,
                   "validation_batch_size": 16, "etas": etas},
        "train": {"epochs": 2, "batch_size": 16},
        "arms": arms,
        "seeds": [0],
    }


def write_config(tmp_path, **kw) -> Path:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw_config(**kw)))
    return path


def run_cli(capsys, config, out, parallel):
    """Exit code, stdout with the output directory masked, stderr."""
    code = main(["run", "--config", str(config), "--out", str(out),
                 "--parallel", str(parallel)])
    captured = capsys.readouterr()
    return code, captured.out.replace(str(out), "<out>"), captured.err


def cell_files(out: Path) -> dict[str, bytes]:
    """Every cell file; manifests without wall times and the output path."""
    files = {}
    for path in sorted(out.glob("*/*")):
        blob = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(blob)
            manifest.pop("wall_clock", None)
            manifest["effective_config"].pop("out_dir")
            blob = json.dumps(manifest, sort_keys=True).encode()
        files[f"{path.parent.name}/{path.name}"] = blob
    return files


def test_outputs_identical_for_every_parallel(tmp_path, capsys):
    config = write_config(tmp_path)
    runs = {}
    for parallel in (1, 2, 4):
        out = tmp_path / f"p{parallel}"
        code, stdout, _ = run_cli(capsys, config, out, parallel)
        assert code == 0
        runs[parallel] = (stdout, cell_files(out))
    stdout, files = runs[1]
    assert stdout.count("[completed]") == 4
    assert len(files) == 4 * 2 + 2  # metrics + manifest each, search for weedout
    assert runs[2] == runs[1]
    assert runs[4] == runs[1]


def test_resumed_sweep_identical_for_every_parallel(tmp_path, capsys):
    config = write_config(tmp_path)
    reference = tmp_path / "reference"
    assert run_cli(capsys, config, reference, 1)[0] == 0
    expected = cell_files(reference)
    outputs = {}
    for parallel in (1, 2, 4):
        out = tmp_path / f"p{parallel}"
        shutil.copytree(reference, out)
        for eta in ETAS:  # the weedout cells, so pool workers also run threads
            shutil.rmtree(out / run_label("weedout", eta, 0))
        code, stdout, _ = run_cli(capsys, config, out, parallel)
        assert code == 0
        assert cell_files(out) == expected
        outputs[parallel] = stdout
    assert outputs[1].count("[   cached]") == 2
    assert outputs[1].count("[completed]") == 2
    assert outputs[2] == outputs[1]
    assert outputs[4] == outputs[1]


@pytest.mark.parametrize("etas,parallel,workers,threads", [
    ([0.3], 1, None, 1),
    ([0.3], 2, None, 2),
    ([0.3, 0.6], 1, None, 1),
    ([0.3, 0.6], 4, 2, 2),
    ([0.3, 0.45, 0.6], 2, 2, 1),
])
def test_workers_go_to_cells_first(tmp_path, capsys, monkeypatch, etas,
                                   parallel, workers, threads):
    """Workers for pending cells, the rest as candidate threads per cell."""
    pools = []

    class RecordingPool(pipeline.ProcessPoolExecutor):
        def __init__(self, max_workers, **kw):
            pools.append(max_workers)
            super().__init__(max_workers, **kw)

    real_search = pipeline.run_search

    def checked_search(net, cfg, eta, d_validation, rng, pool=None):
        # runs in the workers too: a wrong count fails the cell; one
        # thread is no pool
        got = None if pool is None else pool.threads
        if got != (None if threads == 1 else threads):
            raise RuntimeError(f"scored on a pool of {got} threads, expected {threads}")
        return real_search(net, cfg, eta, d_validation, rng, pool)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(pipeline, "run_search", checked_search)
    config = write_config(tmp_path, etas=etas, arms=["weedout"])
    code, stdout, _ = run_cli(capsys, config, tmp_path / "out", parallel)
    assert code == 0, stdout
    assert stdout.count("[completed]") == len(etas)
    assert pools == ([] if workers is None else [workers])


def test_splits_are_never_pickled(tmp_path, capsys, monkeypatch):
    def refuse(self):
        raise TypeError("a Dataset was pickled")

    monkeypatch.setattr(Dataset, "__reduce__", refuse)
    with pytest.raises(TypeError, match="pickled"):
        pickle.dumps(Dataset([[0.0]], [0], 1))
    code, stdout, _ = run_cli(capsys, write_config(tmp_path), tmp_path / "out", 2)
    assert code == 0
    assert stdout.count("[completed]") == 4


@pytest.mark.parametrize("parallel", [1, 2])
def test_any_exception_gives_a_failure_manifest(tmp_path, capsys, monkeypatch,
                                                parallel):
    real = pipeline.run_cell

    def flaky(spec, input_shape, arm, eta, *args, **kw):
        if (arm, eta) == ("random_baseline", 0.6):
            raise RuntimeError("boom")
        return real(spec, input_shape, arm, eta, *args, **kw)

    monkeypatch.setattr(pipeline, "run_cell", flaky)
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, write_config(tmp_path), out, parallel)
    assert code == 1
    assert "Traceback" not in stdout + err
    assert "[FAIL] random_baseline_0.6_0: RuntimeError: boom" in stdout
    assert "1 failed" in stdout
    for arm in ARMS:
        for eta in ETAS:
            manifest = json.loads(
                (out / run_label(arm, eta, 0) / "manifest.json").read_text())
            failed = (arm, eta) == ("random_baseline", 0.6)
            assert manifest["status"] == ("failed" if failed else "completed")
            if failed:
                assert manifest["error"] == "RuntimeError: boom"


@pytest.mark.parametrize("parallel", [0, -1])
def test_parallel_below_one_exits_two(tmp_path, capsys, parallel):
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, write_config(tmp_path), out, parallel)
    assert code == 2
    assert "invalid config" in err and "--parallel" in err
    assert not out.exists()


DYING_WORKER = textwrap.dedent("""
    import os
    import sys

    from weedout import pipeline
    from weedout.cli import main

    parent = os.getpid()
    real = pipeline.run_cell

    def dying(spec, input_shape, arm, *args, **kw):
        if arm == "random_baseline" and os.getpid() != parent:
            os._exit(3)
        return real(spec, input_shape, arm, *args, **kw)

    pipeline.run_cell = dying
    sys.exit(main(sys.argv[1:]))
""")


def test_dead_worker_ends_sweep_cleanly_and_resume_recomputes(tmp_path, capsys):
    """Only a pool worker can die without taking the sweep with it, so this
    case runs at ``--parallel 2``; it runs in a subprocess that can time out."""
    config = write_config(tmp_path)
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", DYING_WORKER, "run", "--config", str(config),
         "--out", str(out), "--parallel", "2"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "worker process died" in proc.stderr
    for eta in ETAS:
        assert not (out / run_label("random_baseline", eta, 0) / "manifest.json").exists()
    for manifest in out.glob("*/manifest.json"):
        assert json.loads(manifest.read_text())["status"] == "completed"

    code, stdout, _ = run_cli(capsys, config, out, 2)
    assert code == 0
    assert "0 failed" in stdout
    reference = tmp_path / "reference"
    assert run_cli(capsys, config, reference, 1)[0] == 0
    assert cell_files(out) == cell_files(reference)
