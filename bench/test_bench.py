"""Tests of the benchmark itself: inputs, exact counts, tracing and refusal.

Run from the repository root::

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import trace_layers  # noqa: E402
import workloads  # noqa: E402

# Counts that depend only on shapes and call sequences, never on timing.
EXACT = ("numerics.rng_streams", "numerics.softmax_xent.calls",
         "network.forward.gmac", "network.useful_mac_ratio",
         "network.conv_forward.calls", "network.conv_forward.gflop",
         "network.conv_backward.calls", "network.conv_backward.gflop",
         "network.check_mask.calls", "sparsity.sample_mask.calls",
         "sparsity.reduce_network.calls", "search.fitness.calls",
         "pipeline.cell.n", "pipeline.cells.computed", "pipeline.cells.cached",
         "pipeline.cells.failed", "data.resident_mb", "trace.absent_targets")


def tiny(name: str, **search) -> workloads.Workload:
    """A workload shrunk to seconds, keeping its dataset kind and arms."""
    wl = workloads.WORKLOADS[name]
    config = json.loads(json.dumps(wl.config))
    config["search"].update({"validation_batch_size": 16, **search})
    config["train"].update(epochs=1, batch_size=16, eval_every=1)
    return dataclasses.replace(wl, config=config, files=(96, 32), train_size=48,
                               splits={"train": 48, "validation": 48})


@pytest.mark.parametrize("name", ["conv_search_mnist", "conv_train_cifar"])
def test_inputs_repeat_for_a_seed_and_load(tmp_path, name):
    from weedout.cli import build_experiment, parse_config

    wl = tiny(name)
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d, seed in zip(dirs, (3, 3, 4)):
        d.mkdir()
        workloads.make_inputs(wl, seed, d)
    files = sorted(p.name for p in dirs[0].iterdir())
    same = [(dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes() for f in files]
    other = [(dirs[0] / f).read_bytes() == (dirs[2] / f).read_bytes() for f in files]
    assert all(same) and not all(other)
    cfg = parse_config(workloads.sweep_config(wl, 3, dirs[0]))
    _, input_shape, splits, _, _ = build_experiment(cfg)
    assert input_shape == wl.input_shape
    assert len(splits.train) == 48 and len(splits.test) == 32
    assert sorted(set(splits.test.labels.tolist())) == list(range(10))


def test_exact_counts_repeat_across_runs(tmp_path):
    wl = tiny("conv_search_mnist", population_size=4, generations=2)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.sweep_config(wl, 0, tmp_path)))
    untraced = run.iterate(wl, config, tmp_path / "u", tmp_path, traced=False,
                           reread=True, deadline=time.monotonic() + 120)
    results = []
    for k in range(2):
        traced = run.iterate(wl, config, tmp_path / f"t{k}", tmp_path, traced=True,
                             reread=True, deadline=time.monotonic() + 120)
        assert traced.digest == untraced.digest  # tracing changes no output
        results.append(run.per_layer(untraced, traced, tmp_path))
    first, second = results
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    assert first["search.fitness.calls"] == 8
    assert first["network.conv_forward.calls"] > 0
    assert first["network.conv_backward.calls"] > 0
    assert 0 < first["network.useful_mac_ratio"] < 1
    assert first["trace.absent_targets"] == 0
    assert set(first) == set(run.PER_LAYER)


def test_forward_macs_match_the_reduced_network():
    from weedout import RngStream, init_network, reduce_network, sample_structured
    from weedout.network import default_conv_spec

    spec = default_conv_spec(10)
    net = init_network(spec, (12, 12, 3), seed=0)
    mask = sample_structured(spec, 0.6, RngStream(1))
    x = np.zeros((5, 12, 12, 3))
    useful, computed = trace_layers.forward_macs((net, mask, x), {}, None)
    r_useful, r_computed = trace_layers.forward_macs(
        (reduce_network(net, mask), None, x), {}, None)
    assert useful == r_useful == r_computed
    assert computed > useful


def test_steal_correction_is_exact_without_steal():
    assert run.held(5.0, 0.0) == 1.0
    # one busy thread loses all the steal, two busy threads half of it
    wall, steal = 10.0, 2.0
    assert wall * run.held(wall - steal, steal) == wall - steal
    assert wall * run.held(2 * (wall - steal / 2), steal) == wall - steal / 2
    assert run.held(0.0, 1.0) == 1.0
    assert run.steal_s() >= 0.0


def test_self_time_subtracts_the_union_of_children():
    assert trace_layers.covered((0.0, 10.0), [(1.0, 4.0), (2.0, 5.0), (8.0, 12.0)]) == 6.0
    spans = [[1, None, "a", 0.0, 10.0, 1, 9.0, None],
             [2, 1, "b", 1.0, 4.0, 1, 3.0, 7],
             [3, 1, "b", 2.0, 5.0, 2, 1.0, 5]]
    summary = trace_layers.summarize(spans)
    assert summary["a"]["self_s"] == 6.0
    assert summary["b"]["calls"] == 2 and summary["b"]["work"] == 12
    assert summary["b"]["wall_s"] - summary["b"]["cpu_s"] == 2.0


def test_missing_target_is_reported_absent():
    code = ("import trace_layers as t, weedout.search as s\n"
            "t.TARGETS['gone.layer'] = ('search:no_such_function', 'nomodule:f')\n"
            "before = s.run_search\n"
            "tracer = t.Tracer()\n"
            "tracer.install()\n"
            "print(tracer.absent, s.run_search is not before)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH, env=run.child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "['search:no_such_function', 'nomodule:f'] True"


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", f"{BENCH.name}/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload",
                           "desk_sweep", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
