import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weedout
from weedout.cli import (_mean_ci, aggregate_records, arm_differences,
                         canonical_json, load_config, main, parse_config,
                         pooled_ci_half_width)
from weedout.errors import ConfigError
from weedout.network import default_dense_spec, init_network
from weedout.numerics import round_half_up
from weedout.pipeline import EpochRow, RunRecord, run_label, write_run_record

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


class TestParseConfig:
    def test_defaults_applied(self):
        cfg = parse_config({"schema_version": 1,
                            "dataset": {"kind": "blobs"}, "out_dir": "x"})
        assert cfg.search["population_size"] == 100
        assert cfg.search["generations"] == 5
        assert cfg.train["epochs"] == 20
        assert cfg.etas == [0.0, 0.2, 0.4, 0.6, 0.8]
        assert cfg.arms == ["weedout", "random_baseline"]
        assert cfg.seeds == [0, 1, 2, 3, 4]

    def test_unknown_keys_rejected_everywhere(self):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_raw(typo=1, search={"poulation_size": 5}))
        text = "\n".join(err.value.problems)
        assert "typo: unknown key" in text
        assert "search.poulation_size: unknown key" in text

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

    def test_unknown_preset_and_layer_kind(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_config(minimal_raw(architecture="resnet"))
        with pytest.raises(ConfigError, match="kind"):
            parse_config(minimal_raw(architecture=[{"kind": "pool"}]))

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

    def test_seed_offset(self, tmp_path):
        raw = minimal_raw(out_dir=str(tmp_path / "sweep"))
        assert self.run_cli(tmp_path, raw, "--seed-offset", "5") == 0
        assert (tmp_path / "sweep" / run_label("weedout", 0.3, 5)).exists()

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
        total = init_network(default_dense_spec(4), (12,), 0).parameter_count()
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
        from weedout.pipeline import read_run_record
        records = [read_run_record(d) for d in sorted(sweep_dir.iterdir())]
        rows = [r for r in aggregate_records(records) if r.epoch == 3]
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
        from weedout.pipeline import read_run_record
        records = [read_run_record(d) for d in sorted(sweep_dir.iterdir())]
        row = [r for r in aggregate_records(records) if r.epoch == 3][0]
        assert row.ci95_test_accuracy == 0.0

    def test_single_run_has_no_ci(self, tmp_path):
        sweep_dir = fabricate_sweep(tmp_path, {("weedout", 0.4): [0.8]})
        from weedout.pipeline import read_run_record
        records = [read_run_record(d) for d in sorted(sweep_dir.iterdir())]
        row = [r for r in aggregate_records(records) if r.epoch == 3][0]
        assert row.ci95_test_accuracy is None
        assert row.n_runs == 1

    def test_dense_rows_under_eta_zero(self, tmp_path):
        sweep_dir = fabricate_sweep(tmp_path, {("dense", 0.0): [0.9, 0.9]})
        from weedout.pipeline import read_run_record
        records = [read_run_record(d) for d in sorted(sweep_dir.iterdir())]
        assert all(r.eta == 0.0 for r in aggregate_records(records)
                   if r.arm == "dense")

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
        from weedout.pipeline import read_run_record
        records = [read_run_record(d) for d in sorted(sweep_dir.iterdir())]
        diffs = {d.eta: d for d in arm_differences(records)}
        assert not diffs[0.2].significant
        assert "consistent" in diffs[0.2].verdict
        assert diffs[0.4].significant
        assert "FLAG" in diffs[0.4].verdict and "advantage" in diffs[0.4].verdict


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
        eta = 0.0 if arm == "dense" else 0.3
        return tmp_path / "sweep" / run_label(arm, eta, 0)

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


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(p)
