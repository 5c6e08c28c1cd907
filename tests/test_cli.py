import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import weedout
from weedout import pipeline
from weedout.cli import main
from weedout.config import build_experiment, canonical_json, load_config, parse_config
from weedout.errors import ConfigError
from weedout.network import default_dense_spec, init_network
from weedout.numerics import round_half_up
from weedout.pipeline import (EpochRow, RunRecord, TrainConfig, run_label,
                              write_failure, write_run_record)
from weedout.report import (AggregateRow, _mean_ci, arm_differences, load_records,
                            pooled_ci_half_width, write_report)
from weedout.search import SearchConfig
from weedout.sparsity import active_parameter_count

T_975_DF4 = 2.7764451051977987  # Student-t, two-sided 95%, n=5


def minimal_raw(**overrides):
    raw = {
        "schema_version": 1,
        "dataset": {"kind": "blobs", "num_classes": 4, "per_class": 30,
                    "dim": 12, "spread": 0.3, "seed": 0},
        "search": {"population_size": 6, "generations": 2,
                   "validation_batch_size": 16, "etas": [0.3]},
        "train": {"epochs": 2, "batch_size": 16},
        "arms": ["weedout"],
        "seeds": [0],
        "out_dir": "sweep",
    }
    raw.update(overrides)
    return raw


def replace_metrics(data):
    """Damage that replaces metrics.csv with ``data`` under a valid checksum."""
    def damage(manifest, cell):
        (cell / "metrics.csv").write_bytes(data)
        digest = hashlib.sha256(data).hexdigest()
        return dict(manifest, files=dict(manifest["files"], **{"metrics.csv": digest}))
    return damage


class TestParseConfig:
    def test_defaults_applied(self):
        cfg = parse_config({"schema_version": 1,
                            "dataset": {"kind": "blobs"}, "out_dir": "x"})
        assert cfg["search"]["population_size"] == 100
        assert cfg["search"]["generations"] == 5
        assert cfg["train"]["epochs"] == 20
        assert cfg["search"]["etas"] == [0.0, 0.2, 0.4, 0.6, 0.8]
        assert cfg["arms"] == ["weedout", "random_baseline"]
        assert cfg["seeds"] == [0, 1, 2, 3, 4]

    def test_empty_sections_build_the_dataclass_defaults(self):
        """``search`` and ``train`` take their defaults from the dataclasses."""
        cfg = parse_config({"schema_version": 1, "dataset": {"kind": "blobs"},
                            "search": {}, "train": {}, "out_dir": "x"})
        *_, search_cfg, train_cfg = build_experiment(cfg)
        assert search_cfg == SearchConfig()
        assert train_cfg == TrainConfig()

    def test_unknown_keys_rejected_everywhere(self):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_raw(typo=1, search={"poulation_size": 5,
                                                     "strategy": "random_search"}))
        text = "\n".join(err.value.problems)
        assert "typo: unknown key" in text
        assert "search.poulation_size: unknown key" in text
        assert "search.strategy: unknown key" in text

    def test_eta_one_rejected(self):
        with pytest.raises(ConfigError, match="etas"):
            parse_config(minimal_raw(search={"etas": [1.0]}))

    def test_schema_version_enforced(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(minimal_raw(schema_version=2))

    def test_bad_arm_and_seeds(self):
        with pytest.raises(ConfigError, match="arms"):
            parse_config(minimal_raw(arms=["weedout", "magnitude"]))
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(minimal_raw(seeds=[-1]))

    @pytest.mark.parametrize("seeds,bad", [([-5, 7], [-5]), ([2**64], [2**64])],
                             ids=["negative", "2_pow_64"])
    def test_seed_outside_64_bits_rejected(self, seeds, bad):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_raw(seeds=seeds))
        assert err.value.problems == [f"seeds: {bad} out of [0, 2**64)"]
        assert parse_config(minimal_raw(seeds=[0, 2**64 - 1]))["seeds"] == [0, 2**64 - 1]

    def test_unknown_preset_and_layer_kind(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_config(minimal_raw(architecture="resnet"))
        with pytest.raises(ConfigError, match="kind"):
            parse_config(minimal_raw(architecture=[{"kind": "pool"}]))

    @pytest.mark.parametrize("arch,problem", [
        ([], "architecture: expected preset name or non-empty list of layers"),
        ([{"kind": "dense", "width": "wide"}], "architecture[0].width: expected int"),
        ([{"kind": "conv2d", "width": 4, "kernel_size": None}],
         "architecture[0].kernel_size: expected int"),
    ])
    def test_malformed_layer_lists_rejected(self, arch, problem):
        with pytest.raises(ConfigError, match=re.escape(problem)):
            parse_config(minimal_raw(architecture=arch))

    def test_problems_accumulate(self):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_raw(schema_version=9,
                                     train={"epochs": 0, "lr": -1}))
        assert len(err.value.problems) >= 3


class TestCmdRun:
    def run_cli(self, tmp_path, raw, *extra):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        return main(["run", "--config", str(cfg_path), *extra])

    def test_etas_sharing_a_cell_directory_exit_two(self, tmp_path, capsys):
        """Cell names keep 6 significant digits of eta: two etas that agree in
        them would write one directory, so the config is refused before any
        output exists."""
        raw = minimal_raw(out_dir=str(tmp_path / "sweep"), arms=["random_baseline"])
        raw["search"]["etas"] = [0.1234567, 0.1234568]
        assert self.run_cli(tmp_path, raw) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "invalid config:", "  - search.etas: 0.1234567 and 0.1234568 would share "
                               "one cell directory per arm and seed"]
        assert not (tmp_path / "sweep").exists()

    def test_minimal_run_creates_one_record(self, tmp_path, capsys):
        raw = minimal_raw(out_dir=str(tmp_path / "sweep"))
        assert self.run_cli(tmp_path, raw) == 0
        cell = tmp_path / "sweep" / run_label("weedout", 0.3, 0)
        assert (cell / "metrics.csv").exists()
        assert (cell / "search.csv").exists()
        assert (cell / "manifest.json").exists()

    def test_rerun_exits_zero_without_recompute(self, tmp_path, capsys):
        raw = minimal_raw(out_dir=str(tmp_path / "sweep"))
        assert self.run_cli(tmp_path, raw) == 0
        cell = tmp_path / "sweep" / run_label("weedout", 0.3, 0)
        stamp = (cell / "metrics.csv").stat().st_mtime_ns
        assert self.run_cli(tmp_path, raw) == 0
        assert (cell / "metrics.csv").stat().st_mtime_ns == stamp
        assert "cached" in capsys.readouterr().out

    @pytest.mark.parametrize("file, reason", [("metrics.csv", "ChecksumError"),
                                              ("manifest.json", "JSONDecodeError")])
    def test_corrupt_cell_is_named_and_recomputed(self, tmp_path, capsys, file, reason):
        raw = minimal_raw(out_dir=str(tmp_path / "sweep"), seeds=[0, 1])
        assert self.run_cli(tmp_path, raw) == 0
        clean = capsys.readouterr().out
        cell = tmp_path / "sweep" / run_label("weedout", 0.3, 1)
        files = {p.name: p.read_bytes() for p in cell.iterdir() if p.name != "manifest.json"}
        (cell / file).write_bytes(b"corrupt")
        assert self.run_cli(tmp_path, raw) == 0
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith(f"[recompute] weedout_0.3_1: {reason}")
        assert captured.out == clean.replace("[completed] weedout_0.3_0",
                                             "[   cached] weedout_0.3_0") \
            .replace("2 computed, 0 cached", "1 computed, 1 cached")
        assert {p.name: p.read_bytes() for p in cell.iterdir()
                if p.name != "manifest.json"} == files

    def test_interrupted_cell_is_named_and_recomputed(self, tmp_path, capsys):
        raw = minimal_raw(out_dir=str(tmp_path / "sweep"), seeds=[0, 1])
        assert self.run_cli(tmp_path, raw) == 0
        clean = capsys.readouterr().out
        cell = tmp_path / "sweep" / run_label("weedout", 0.3, 1)
        files = {p.name: p.read_bytes() for p in cell.iterdir() if p.name != "manifest.json"}
        (cell / "manifest.json").unlink()  # a write stopped before its manifest
        assert self.run_cli(tmp_path, raw) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "[recompute] weedout_0.3_1: interrupted write: metrics.csv, search.csv "
            "but no manifest"]
        assert captured.out == clean.replace("[completed] weedout_0.3_0",
                                             "[   cached] weedout_0.3_0") \
            .replace("2 computed, 0 cached", "1 computed, 1 cached")
        assert {p.name: p.read_bytes() for p in cell.iterdir()
                if p.name != "manifest.json"} == files
        assert (cell / "manifest.json").exists()

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        raw = minimal_raw(search={"etas": [1.0]})
        assert self.run_cli(tmp_path, raw) == 2
        assert "etas" in capsys.readouterr().err

    def test_effective_config_round_trip(self, tmp_path):
        raw = minimal_raw(out_dir=str(tmp_path / "sweep"))
        self.run_cli(tmp_path, raw)
        sweep_cfg = (tmp_path / "sweep" / "config.json").read_text()
        manifest = json.loads(
            (tmp_path / "sweep" / run_label("weedout", 0.3, 0) / "manifest.json")
            .read_text())
        assert canonical_json(manifest["effective_config"]) == sweep_cfg

    def test_env_var_reroots_relative_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WEEDOUT_RUNS_DIR", str(tmp_path / "root"))
        assert self.run_cli(tmp_path, minimal_raw(out_dir="inner")) == 0
        assert (tmp_path / "root" / "inner" / run_label("weedout", 0.3, 0)).exists()

    def test_out_flag_overrides(self, tmp_path):
        raw = minimal_raw(out_dir=str(tmp_path / "ignored"))
        assert self.run_cli(tmp_path, raw, "--out", str(tmp_path / "flag")) == 0
        assert (tmp_path / "flag" / run_label("weedout", 0.3, 0)).exists()
        assert not (tmp_path / "ignored").exists()

    def test_run_never_imports_scipy(self, tmp_path):
        """scipy serves only ``report``; ``run`` starts without it."""
        raw = minimal_raw(out_dir=str(tmp_path / "sweep"),
                          search={"population_size": 6, "generations": 2,
                                  "validation_batch_size": 16, "etas": [0.3, 0.6]})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        script = ("import sys\n"
                  "from weedout.cli import main\n"
                  "code = main(sys.argv[1:])\n"
                  "print('scipy modules:', sorted(m for m in sys.modules\n"
                  "      if m == 'scipy' or m.startswith('scipy.')))\n"
                  "sys.exit(code)\n")
        src = Path(weedout.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", script, "run", "--config", str(cfg_path),
             "--parallel", "2"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.returncode == 0, proc.stderr
        assert "2 computed" in proc.stdout
        assert "scipy modules: []" in proc.stdout

    @pytest.mark.parametrize("search,field", [
        ({"population_size": 1}, "search.population_size"),
        ({"generations": "many"}, "search.generations"),
        ({"early_stop_tol": 0.1}, "search.early_stop_tol: unknown key"),
    ], ids=["population_below_two", "generations_not_an_integer", "removed_key"])
    def test_bad_search_field_exits_two_before_any_cell(self, tmp_path, capsys, search,
                                                        field):
        raw = minimal_raw(out_dir=str(tmp_path / "sweep"),
                          search={"etas": [0.3], **search})
        assert self.run_cli(tmp_path, raw) == 2
        captured = capsys.readouterr()
        assert "invalid config:" in captured.err and field in captured.err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("overrides,problem", [
        ({"arms": ["dense"]},
         "arms: unknown arm 'dense'; available ('weedout', 'random_baseline')"),
        ({"independent_parents": False}, "independent_parents: unknown key"),
    ], ids=["dense_arm", "independent_parents"])
    def test_removed_arm_and_option_exit_two_before_any_cell(self, tmp_path, capsys,
                                                             overrides, problem):
        raw = minimal_raw(out_dir=str(tmp_path / "sweep"), **overrides)
        assert self.run_cli(tmp_path, raw) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["invalid config:", f"  - {problem}"]
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("overrides,problems", [
        ({"search": {"etas": [0.5, 0.3, 0.5]}}, ["search.etas: 0.5 appears more than once"]),
        ({"search": {"etas": [0, 0.0]}}, ["search.etas: 0.0 appears more than once"]),
        ({"arms": ["weedout", "random_baseline", "weedout"]},
         ["arms: 'weedout' appears more than once"]),
        ({"seeds": [0, 1, 0, 2, 1, 0]},
         ["seeds: 0 appears more than once", "seeds: 1 appears more than once"]),
    ], ids=["etas", "eta_int_and_float", "arms", "seeds"])
    def test_repeated_value_exits_two_before_any_cell(self, tmp_path, capsys, overrides,
                                                      problems):
        """A repeated eta, arm or seed would compute its cells more than once."""
        raw = minimal_raw(out_dir=str(tmp_path / "sweep"), **overrides)
        assert self.run_cli(tmp_path, raw, "--parallel", "2") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == \
            ["invalid config:"] + [f"  - {problem}" for problem in problems]
        assert not (tmp_path / "sweep").exists()

    def test_out_naming_a_file_exits_two_before_any_cell(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("a file")
        assert self.run_cli(tmp_path, minimal_raw(), "--out", str(taken)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"cannot write {taken}: File exists"]
        assert taken.read_text() == "a file"

    @pytest.mark.parametrize("seeds,bad", [
        ([-5, 7], "[-5]"),
        ([2**64], f"[{2**64}]"),
    ], ids=["negative", "config_seed_2_pow_64"])
    def test_seed_out_of_range_exits_two_before_any_cell(self, tmp_path, capsys, seeds,
                                                         bad):
        raw = minimal_raw(out_dir=str(tmp_path / "sweep"), seeds=seeds)
        assert self.run_cli(tmp_path, raw) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "invalid config:", f"  - seeds: {bad} out of [0, 2**64)"]
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("flag", [["--seed-offset", "1"], ["--no-resume"]],
                             ids=["seed_offset", "no_resume"])
    def test_removed_flag_exits_two_before_any_cell(self, tmp_path, capsys, flag):
        raw = minimal_raw(out_dir=str(tmp_path / "sweep"))
        with pytest.raises(SystemExit) as exc:
            self.run_cli(tmp_path, raw, *flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_custom_architecture_masks_every_hidden_layer(self, tmp_path, capsys):
        """An explicit layer list needs no per-layer flag: each parameterized
        layer but the last is masked, and the logits layer never is."""
        arch = [{"kind": "dense", "width": 8}, {"kind": "relu"},
                {"kind": "dense", "width": 4}]
        raw = minimal_raw(out_dir=str(tmp_path / "sweep"), architecture=arch,
                          arms=["weedout", "random_baseline"])
        assert self.run_cli(tmp_path, raw) == 0
        for arm in ("weedout", "random_baseline"):
            manifest = json.loads((tmp_path / "sweep" / run_label(arm, 0.3, 0)
                                   / "manifest.json").read_text())
            assert manifest["mask"]["per_layer"] == {"0": {"zeros": 2, "size": 8}}

    def test_architecture_naming_maskable_exits_two_before_any_cell(self, tmp_path,
                                                                     capsys):
        arch = [{"kind": "dense", "width": 8}, {"kind": "relu"},
                {"kind": "dense", "width": 4, "maskable": False}]
        raw = minimal_raw(out_dir=str(tmp_path / "sweep"), architecture=arch)
        assert self.run_cli(tmp_path, raw) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "invalid config:", "  - architecture[2].maskable: unknown key"]
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("overrides,problem", [
        ({"search": {"etas": [math.nan]}}, "search.etas[0]: must be finite, got nan"),
        ({"train": {"lr": math.inf}}, "train.lr: must be finite, got inf"),
        ({"train": {"momentum": math.nan}}, "train.momentum: must be finite, got nan"),
    ], ids=["etas_nan", "lr_infinity", "momentum_nan"])
    def test_non_finite_number_exits_two_before_any_cell(self, tmp_path, capsys,
                                                         overrides, problem):
        """Python's JSON reader takes NaN and Infinity, and NaN fails no comparison."""
        raw = minimal_raw(out_dir=str(tmp_path / "sweep"), **overrides)
        assert self.run_cli(tmp_path, raw) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["invalid config:", f"  - {problem}"]
        assert not (tmp_path / "sweep").exists()

    def test_changed_config_exits_two_and_leaves_the_sweep(self, tmp_path, capsys):
        """Resuming with other settings would report cells computed under the old."""
        sweep = tmp_path / "sweep"
        raw = minimal_raw(out_dir=str(sweep), train={"epochs": 1, "batch_size": 16})
        assert self.run_cli(tmp_path, raw) == 0
        written = {p: p.read_bytes() for p in sweep.rglob("*") if p.is_file()}
        capsys.readouterr()
        raw["train"]["epochs"] = 5
        raw["search"]["generations"] = 3
        raw["search"]["etas"] = [0.3, 0.6]
        assert self.run_cli(tmp_path, raw) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "invalid config:", f"  - search.generations: 3 here, 2 in {sweep}",
            f"  - train.epochs: 5 here, 1 in {sweep}"]
        assert {p: p.read_bytes() for p in sweep.rglob("*") if p.is_file()} == written

    def test_grown_copied_or_older_sweep_resumes(self, tmp_path, capsys):
        """Other etas, arms, seeds or out_dir, and keys only an older config.json
        names, leave the finished cells valid."""
        raw = minimal_raw(out_dir=str(tmp_path / "sweep"))
        assert self.run_cli(tmp_path, raw) == 0
        shutil.copytree(tmp_path / "sweep", tmp_path / "copy")
        old = json.loads((tmp_path / "copy" / "config.json").read_text())
        old["independent_parents"] = False
        old["search"]["early_stop_tol"] = 0.0
        (tmp_path / "copy" / "config.json").write_text(canonical_json(old))
        grown = dict(raw, arms=["weedout", "random_baseline"], seeds=[0, 1],
                     search=dict(raw["search"], etas=[0.3, 0.6]))
        capsys.readouterr()
        assert self.run_cli(tmp_path, grown, "--out", str(tmp_path / "copy")) == 0
        assert "7 computed, 1 cached" in capsys.readouterr().out

    @pytest.mark.parametrize("damage, reason", [
        (lambda m, d: {"status": "completed", "files": {}},
         "ValueError: manifest.json: run_id, arm, eta, seed missing or malformed"),
        (lambda m, d: {k: v for k, v in m.items() if k != "run_id"},
         "ValueError: manifest.json: run_id missing or malformed"),
        (lambda m, d: dict(m, files=[]), "ValueError: manifest.json: files missing"),
        (lambda m, d: {"status": "failed", "files": {}}, "ValueError: manifest.json: run_id"),
        (lambda m, d: dict(m, files={"search.csv": m["files"]["search.csv"]}),
         "ValueError: manifest.json lists no metrics.csv"),
        (replace_metrics(b"epoch\nx\n"), "ValueError: invalid literal for int()"),
        (replace_metrics(b"epoch,train_accuracy,train_loss,test_accuracy,test_loss\n"),
         "ValueError: metrics.csv has no rows"),
        (lambda m, d: {k: v for k, v in m.items()
                       if k not in ("mask", "parent_checksum", "active_parameters",
                                    "wall_clock", "fitness_evaluations")},
         "KeyError: 'mask'"),
        (lambda m, d: {k: v for k, v in m.items() if k != "fitness_evaluations"},
         "KeyError: 'fitness_evaluations'"),
        (lambda m, d: dict(m, mask={}), "KeyError: 'mode'"),
        (lambda m, d: dict(m, mask=dict(m["mask"], per_layer={"0": {}})),
         "KeyError: 'zeros'"),
    ], ids=["bare_completed", "no_run_id", "files_a_list", "bare_failed",
            "completed_without_metrics", "unparseable_record", "record_without_rows",
            "completed_without_mask",
            "completed_without_fitness_evaluations", "empty_mask", "empty_layer_entry"])
    def test_malformed_manifest_is_corrupt(self, tmp_path, capsys, damage, reason):
        """run recomputes the cell, report excludes it and inspect exits 1."""
        raw = minimal_raw(out_dir=str(tmp_path / "sweep"))
        assert self.run_cli(tmp_path, raw) == 0
        cell = tmp_path / "sweep" / run_label("weedout", 0.3, 0)
        files = {p.name: p.read_bytes() for p in cell.iterdir()}
        manifest = json.loads(files["manifest.json"])
        (cell / "manifest.json").write_text(json.dumps(damage(manifest, cell)))
        capsys.readouterr()
        assert main(["inspect", str(cell)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"corrupt: {reason}")
        assert main(["report", str(tmp_path / "sweep")]) == 2
        assert f"[excluded] weedout_0.3_0: corrupt: {reason}" in capsys.readouterr().err
        assert self.run_cli(tmp_path, raw) == 0
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"[recompute] weedout_0.3_0: {reason}")
        assert {p.name: p.read_bytes() for p in cell.iterdir()
                if p.name != "manifest.json"} == \
            {k: v for k, v in files.items() if k != "manifest.json"}

    @pytest.mark.parametrize("section,overrides", [
        ("dataset", lambda d: {"dataset": {"kind": "mnist", **{
            key: str(d / "absent") for key in ("train_images", "train_labels",
                                               "test_images", "test_labels")}}}),
        ("dataset", lambda d: {"dataset": {"kind": "blobs", "num_classes": 10, "dim": 4}}),
        ("splits", lambda d: {"splits": {"train": 0.5, "validation": 0.2, "test": 0.2}}),
    ], ids=["missing_mnist_file", "blobs_dim_below_classes", "fractions_not_summing_to_1"])
    def test_data_errors_exit_two(self, tmp_path, capsys, section, overrides):
        raw = minimal_raw(out_dir=str(tmp_path / "sweep"), **overrides(tmp_path))
        assert self.run_cli(tmp_path, raw) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and lines[0] == "invalid config:"
        assert len(lines) == 2 and lines[1].startswith(f"  - {section}: ")
        assert not (tmp_path / "sweep").exists()

    def test_validation_batch_too_large_exits_two(self, tmp_path, capsys):
        raw = minimal_raw(search={"etas": [0.3], "validation_batch_size": 10**6})
        assert self.run_cli(tmp_path, raw) == 2
        assert "validation_batch_size" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["global", "nonuniform"])
    def test_unimplemented_mask_mode_exits_two(self, tmp_path, capsys, mode):
        raw = minimal_raw(out_dir=str(tmp_path / "sweep"),
                          search={"etas": [0.3], "mask_mode": mode})
        assert self.run_cli(tmp_path, raw) == 2
        captured = capsys.readouterr()
        assert "search.mask_mode" in captured.err and repr(mode) in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "sweep").exists()

    def test_unstructured_sweep_end_to_end(self, tmp_path):
        """Unstructured masks in both sparse arms: exact zero counts, the
        parent's masked path, identical output at every thread count."""
        etas = [0.3, 0.6]
        raw = minimal_raw(arms=["weedout", "random_baseline"], seeds=[0, 1],
                          search={"population_size": 6, "generations": 2,
                                  "validation_batch_size": 16, "etas": etas,
                                  "mask_mode": "unstructured"})
        outputs = {}
        for parallel in (1, 2):
            out = tmp_path / f"p{parallel}"
            assert self.run_cli(tmp_path, raw, "--out", str(out),
                                "--parallel", str(parallel)) == 0
            outputs[parallel] = out
        total = active_parameter_count(init_network(default_dense_spec(4), (12,), 0), None)
        cells = sorted(p.name for p in outputs[1].iterdir() if p.is_dir())
        assert cells == sorted(run_label(arm, eta, seed)
                               for arm in ("weedout", "random_baseline")
                               for eta in etas for seed in (0, 1))
        for name in cells:
            manifests = [json.loads((outputs[p] / name / "manifest.json").read_text())
                         for p in (1, 2)]
            m = manifests[0]
            assert m["status"] == "completed"
            assert m["mask"]["mode"] == "unstructured"
            zeros = 0
            for entry in m["mask"]["per_layer"].values():
                assert entry["zeros"] == round_half_up(m["eta"] * entry["size"])
                zeros += entry["zeros"]
            # the masked parent keeps every node: only masked weights drop out
            assert m["active_parameters"] == total - zeros
            for manifest in manifests:  # timings and out_dir differ by design
                del manifest["wall_clock"], manifest["effective_config"]
            assert manifests[0] == manifests[1]
            for file in ("metrics.csv", "search.csv"):
                a, b = (outputs[p] / name / file for p in (1, 2))
                assert a.exists() == (m["arm"] == "weedout" or file == "metrics.csv")
                if a.exists():
                    assert a.read_bytes() == b.read_bytes()


def fabricate_sweep(tmp_path, arm_values, epochs=3):
    """Write synthetic completed cells; arm_values maps (arm, eta) -> final accs."""
    sweep_dir = tmp_path / "sweep"
    for (arm, eta), finals in arm_values.items():
        for seed, final_acc in enumerate(finals):
            rows = []
            for epoch in range(1, epochs + 1):
                frac = epoch / epochs
                rows.append(EpochRow(epoch=epoch,
                                     train_accuracy=final_acc * frac,
                                     train_loss=1.0 - final_acc * frac,
                                     test_accuracy=final_acc * frac,
                                     test_loss=1.0 - final_acc * frac))
            rec = RunRecord(run_id=run_label(arm, eta, seed), arm=arm, eta=eta,
                            seed=seed, epoch_rows=rows)
            write_run_record(rec, sweep_dir / rec.run_id, {"fabricated": True})
    return sweep_dir


class TestAggregation:
    def test_mean_and_ci_match_first_principles(self, tmp_path):
        finals = [0.9, 0.92, 0.88, 0.91, 0.89]
        sweep_dir = fabricate_sweep(tmp_path, {("random_baseline", 0.2): finals})
        records, _ = load_records(sweep_dir)
        rows = [r for r in write_report(records, tmp_path / "report")[0] if r.epoch == 3]
        assert len(rows) == 1
        row = rows[0]
        mean = sum(finals) / 5
        sd = math.sqrt(sum((x - mean) ** 2 for x in finals) / 4)
        ci = T_975_DF4 * sd / math.sqrt(5)
        assert row.mean_test_accuracy == pytest.approx(mean, abs=1e-12)
        assert row.ci95_test_accuracy == pytest.approx(ci, abs=1e-12)
        assert row.n_runs == 5

    def test_identical_values_give_zero_ci(self, tmp_path):
        sweep_dir = fabricate_sweep(tmp_path, {("weedout", 0.4): [0.8] * 5})
        records, _ = load_records(sweep_dir)
        row = [r for r in write_report(records, tmp_path / "report")[0] if r.epoch == 3][0]
        assert row.ci95_test_accuracy == 0.0

    def test_single_run_has_no_ci(self, tmp_path):
        sweep_dir = fabricate_sweep(tmp_path, {("weedout", 0.4): [0.8]})
        records, _ = load_records(sweep_dir)
        row = [r for r in write_report(records, tmp_path / "report")[0] if r.epoch == 3][0]
        assert row.ci95_test_accuracy is None
        assert row.n_runs == 1

    def test_pooled_ci_formula(self):
        a = [0.5, 0.6, 0.7]
        b = [0.55, 0.65]
        n1, n2 = 3, 2
        sp2 = ((n1 - 1) * np.var(a, ddof=1) + (n2 - 1) * np.var(b, ddof=1)) / 3
        from scipy import stats
        expected = stats.t.ppf(0.975, 3) * math.sqrt(sp2) * math.sqrt(1 / 3 + 1 / 2)
        assert pooled_ci_half_width(a, b) == pytest.approx(expected, abs=1e-12)

    def test_ci_half_widths_equal_scipy_stats(self):
        """The report's t quantile is exactly ``scipy.stats.t.ppf``."""
        from scipy import stats
        rng = np.random.default_rng(0)
        for n in range(2, 40):
            values = rng.uniform(0.5, 1.0, size=n).tolist()
            expected = float(stats.t.ppf(0.975, n - 1)
                             * np.std(values, ddof=1) / math.sqrt(n))
            assert _mean_ci(values)[1] == expected
            a, b = values[:n // 2 + 1], values[n // 2 - 1:]
            n1, n2 = len(a), len(b)
            sp2 = ((n1 - 1) * np.var(a, ddof=1)
                   + (n2 - 1) * np.var(b, ddof=1)) / (n1 + n2 - 2)
            expected = float(stats.t.ppf(0.975, n1 + n2 - 2)
                             * math.sqrt(sp2) * math.sqrt(1 / n1 + 1 / n2))
            assert pooled_ci_half_width(a, b) == expected

    def test_arm_difference_verdicts(self, tmp_path):
        sweep_dir = fabricate_sweep(tmp_path, {
            ("weedout", 0.2): [0.90, 0.91, 0.89, 0.90, 0.91],
            ("random_baseline", 0.2): [0.89, 0.91, 0.90, 0.90, 0.90],
            ("weedout", 0.4): [0.99, 0.99, 0.99, 0.99, 0.99],
            ("random_baseline", 0.4): [0.50, 0.50, 0.51, 0.50, 0.50],
        })
        records, _ = load_records(sweep_dir)
        diffs = {d.eta: d for d in arm_differences(records)}
        assert not diffs[0.2].significant
        assert "consistent" in diffs[0.2].verdict
        assert diffs[0.4].significant
        assert "FLAG" in diffs[0.4].verdict and "advantage" in diffs[0.4].verdict

    def test_zero_variance_arms_are_not_flagged(self, tmp_path, capsys):
        """Two seeds whose accuracies repeat exactly in each arm: the pooled
        half-width is 0, so no difference can be tested, let alone flagged."""
        sweep_dir = fabricate_sweep(tmp_path, {
            ("weedout", 0.3): [27 / 36, 27 / 36],
            ("random_baseline", 0.3): [28 / 36, 28 / 36],
        })
        assert main(["report", str(sweep_dir)]) == 0
        out = capsys.readouterr().out
        assert "FLAG" not in out and "zero variance" in out
        records, _ = load_records(sweep_dir)
        [d] = arm_differences(records)
        assert d.pooled_ci95 == 0.0 and d.difference != 0.0
        assert not d.significant
        assert d.verdict == "no test possible: both arms have zero variance"


class TestCmdReport:
    def test_report_writes_tables(self, tmp_path, capsys):
        sweep_dir = fabricate_sweep(tmp_path, {
            ("weedout", 0.2): [0.9, 0.91, 0.89],
            ("random_baseline", 0.2): [0.9, 0.9, 0.9],
        })
        assert main(["report", str(sweep_dir)]) == 0
        out = capsys.readouterr().out
        assert "weedout - baseline" in out
        report = sweep_dir / "report"
        agg = (report / "aggregate.csv").read_text().splitlines()
        assert agg[0] == ("arm,eta,epoch,mean_train_accuracy,ci95_train_accuracy,"
                          "mean_test_accuracy,ci95_test_accuracy,n_runs")
        assert (report / "arm_difference.csv").exists()
        plot = (report / "plot_long.csv").read_text().splitlines()
        assert plot[0] == "arm,eta,epoch,metric,mean,ci95,n_runs"
        assert len(plot) > 1

    def test_search_spread_matches_numpy_over_search_csv(self, tmp_path, capsys):
        import csv

        sweep_dir = tmp_path / "sweep"
        raw = minimal_raw(out_dir=str(sweep_dir), seeds=[0, 1],
                          arms=["weedout", "random_baseline"],
                          search={"population_size": 6, "generations": 3,
                                  "validation_batch_size": 16, "etas": [0.0, 0.5]})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert main(["report", str(sweep_dir)]) == 0
        assert "wrote search_spread:" in capsys.readouterr().out
        populations = {}
        for eta in (0.0, 0.5):
            for seed in (0, 1):
                path = sweep_dir / run_label("weedout", eta, seed) / "search.csv"
                with open(path, newline="") as f:
                    for row in csv.DictReader(f):
                        populations.setdefault((eta, int(row["generation"])), []) \
                            .append(float(row["fitness"]))
        with open(sweep_dir / "report" / "search_spread.csv", newline="") as f:
            spread = list(csv.DictReader(f))
        assert list(spread[0]) == ["arm", "eta", "generation", "best", "median",
                                   "std", "n"]
        assert [(r["arm"], float(r["eta"]), int(r["generation"])) for r in spread] == \
            [("weedout", eta, gen) for eta, gen in sorted(populations)]
        for row in spread:
            values = np.array(populations[(float(row["eta"]), int(row["generation"]))])
            seeds = values.reshape(2, 6)  # seed 0's candidates, then seed 1's
            assert int(row["n"]) == 12
            assert float(row["best"]) == values.max()
            assert float(row["median"]) == np.median(values)
            pooled_std = math.sqrt(seeds.var(axis=1).mean())
            assert float(row["std"]) == pytest.approx(pooled_std, rel=1e-9, abs=1e-15)
            if float(row["eta"]) == 0.0:
                assert row["std"] == "0.0"
                assert len(set(seeds[0])) == len(set(seeds[1])) == 1
                assert seeds[0, 0] != seeds[1, 0]  # seeds differ; std is within one
            else:
                assert float(row["std"]) > 0.0

    def test_excluded_cells_are_named_and_tables_keep_their_bytes(self, tmp_path,
                                                                 capsys):
        raw = minimal_raw(out_dir=str(tmp_path / "sweep"), seeds=[0, 1, 2],
                          arms=["weedout", "random_baseline"])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path)]) == 0
        sweep_dir = tmp_path / "sweep"
        (sweep_dir / run_label("weedout", 0.3, 1) / "search.csv").unlink()
        write_failure(sweep_dir / run_label("random_baseline", 0.3, 2),
                      "random_baseline", 0.3, 2, "RuntimeError: boom")
        capsys.readouterr()
        assert main(["report", str(sweep_dir)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "[excluded] random_baseline_0.3_2: failed: RuntimeError: boom",
            f"[excluded] weedout_0.3_1: corrupt: FileNotFoundError: [Errno 2] "
            f"No such file or directory: "
            f"'{sweep_dir / run_label('weedout', 0.3, 1) / 'search.csv'}'"]
        # the tables are those of the sweep without the two excluded cells
        kept = tmp_path / "kept"
        kept.mkdir()
        for cell in sweep_dir.glob("*_0.3_*"):
            if cell.name not in ("weedout_0.3_1", "random_baseline_0.3_2"):
                shutil.copytree(cell, kept / cell.name)
        assert main(["report", str(kept)]) == 0
        assert capsys.readouterr().err == ""
        for name in ("aggregate.csv", "arm_difference.csv", "plot_long.csv",
                     "search_spread.csv"):
            assert (sweep_dir / "report" / name).read_bytes() == \
                (kept / "report" / name).read_bytes()

    def test_missing_cell_directory_is_named_absent(self, tmp_path, capsys):
        raw = minimal_raw(out_dir=str(tmp_path / "sweep"), seeds=[0, 1],
                          arms=["weedout", "random_baseline"])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path)]) == 0
        sweep_dir = tmp_path / "sweep"
        shutil.rmtree(sweep_dir / run_label("random_baseline", 0.3, 1))
        capsys.readouterr()
        assert main(["report", str(sweep_dir)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "[excluded] random_baseline_0.3_1: absent: no files"]

    def test_table_stopped_part_way_leaves_no_file(self, tmp_path, monkeypatch):
        """A table is written whole or not at all: an error in its second row
        leaves neither the table nor a temporary file."""
        sweep_dir = fabricate_sweep(tmp_path, {("weedout", 0.2): [0.9, 0.8]})
        records, _ = load_records(sweep_dir)
        values = []

        def fmt_then_fail(value):
            values.append(value)
            if len(values) > len(fields(AggregateRow)):  # the second aggregate row
                raise RuntimeError("stopped")
            return fmt(value)

        fmt = pipeline._fmt
        monkeypatch.setattr(pipeline, "_fmt", fmt_then_fail)
        with pytest.raises(RuntimeError, match="stopped"):
            write_report(records, tmp_path / "report")
        assert list((tmp_path / "report").iterdir()) == []

    def test_out_naming_a_file_exits_two(self, tmp_path, capsys):
        sweep_dir = fabricate_sweep(tmp_path, {("weedout", 0.2): [0.9]})
        taken = tmp_path / "taken"
        taken.write_text("a file")
        assert main(["report", str(sweep_dir), "--out", str(taken)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"cannot write {taken}: File exists"]
        assert taken.read_text() == "a file"

    def test_table_path_taken_by_a_directory_exits_two(self, tmp_path, capsys):
        """The error names the table, not its temporary file, and leaves none."""
        sweep_dir = fabricate_sweep(tmp_path, {("weedout", 0.2): [0.9]})
        (sweep_dir / "report" / "aggregate.csv").mkdir(parents=True)
        assert main(["report", str(sweep_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"cannot write {sweep_dir / 'report' / 'aggregate.csv'}: Is a directory"]
        assert [p.name for p in (sweep_dir / "report").iterdir()] == ["aggregate.csv"]

    def test_sweep_with_a_dense_arm_reports_the_two_arms(self, tmp_path, capsys):
        """A sweep written when ``dense`` was an arm: its config lists it and
        it holds dense cells. report reads only the two arms and names none of
        their cells absent."""
        arms = {("weedout", 0.0): [0.9, 0.8], ("random_baseline", 0.0): [0.9, 0.8]}
        sweep_dir = fabricate_sweep(tmp_path, arms)
        old = dict(parse_config(minimal_raw(seeds=[0, 1])),
                   arms=["weedout", "random_baseline", "dense"],
                   independent_parents=False)
        old["search"]["etas"] = [0.0]
        (sweep_dir / "config.json").write_text(canonical_json(old))
        assert main(["report", str(sweep_dir), "--out", str(tmp_path / "two_arms")]) == 0
        fabricate_sweep(tmp_path, {("dense", 0.0): [0.5, 0.4]})
        capsys.readouterr()
        assert main(["report", str(sweep_dir)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "aggregated 4 runs;" in captured.out
        aggregate = (sweep_dir / "report" / "aggregate.csv").read_bytes()
        assert {line.split(b",")[0] for line in aggregate.splitlines()[1:]} == \
            {b"weedout", b"random_baseline"}
        for name in ("aggregate.csv", "arm_difference.csv", "plot_long.csv",
                     "search_spread.csv"):
            assert (sweep_dir / "report" / name).read_bytes() == \
                (tmp_path / "two_arms" / name).read_bytes()

    def test_empty_sweep_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(["report", str(empty)]) == 2
        assert main(["report", str(tmp_path / "missing")]) == 2


class TestCmdInspect:
    def make_run(self, tmp_path, arm="weedout"):
        cfg = minimal_raw(out_dir=str(tmp_path / "sweep"),
                          arms=[arm], search={"population_size": 6,
                                              "generations": 2,
                                              "validation_batch_size": 16,
                                              "etas": [0.3]})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 0
        return tmp_path / "sweep" / run_label(arm, 0.3, 0)

    def test_weedout_run_shows_generations(self, tmp_path, capsys):
        run_dir = self.make_run(tmp_path)
        capsys.readouterr()
        assert main(["inspect", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "generation 1" in out and "generation 2" in out
        assert "realized sparsity" in out

    def test_baseline_shows_no_search(self, tmp_path, capsys):
        run_dir = self.make_run(tmp_path, arm="random_baseline")
        capsys.readouterr()
        assert main(["inspect", str(run_dir)]) == 0
        assert "search   : none" in capsys.readouterr().out

    def test_corrupt_metrics_exits_one(self, tmp_path, capsys):
        run_dir = self.make_run(tmp_path)
        blob = (run_dir / "metrics.csv").read_bytes()
        (run_dir / "metrics.csv").write_bytes(blob + b"x")
        assert main(["inspect", str(run_dir)]) == 1
        assert "checksum" in capsys.readouterr().err

    def test_missing_manifest_exits_two(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path)]) == 2

    def test_layers_listed_in_index_order(self, tmp_path, capsys):
        """Six hidden dense layers put maskable layers at 0, 2, ..., 10; layer
        10 comes last, where a sort of the manifest's string keys would put
        it second."""
        hidden = [{"kind": "dense", "width": 8}, {"kind": "relu"}] * 6
        cfg = minimal_raw(out_dir=str(tmp_path / "sweep"), arms=["random_baseline"],
                          architecture=hidden + [{"kind": "dense", "width": 4}])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        run_dir = tmp_path / "sweep" / run_label("random_baseline", 0.3, 0)
        assert main(["inspect", str(run_dir)]) == 0
        layers = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("  layer ")]
        assert layers == [f"  layer {i}: 2/8 off (0.2500)" for i in range(0, 12, 2)]

    @pytest.mark.parametrize("damage, reason", [
        (lambda d: (d / "manifest.json").write_bytes(
            (d / "manifest.json").read_bytes()[:40]), "JSONDecodeError"),
        (lambda d: (d / "search.csv").unlink(), "FileNotFoundError"),
    ], ids=["truncated_manifest", "deleted_search_csv"])
    def test_corrupt_cell_exits_one_without_traceback(self, tmp_path, capsys,
                                                      damage, reason):
        run_dir = self.make_run(tmp_path)
        damage(run_dir)
        capsys.readouterr()
        assert main(["inspect", str(run_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"corrupt: {reason}: ")


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(p)
