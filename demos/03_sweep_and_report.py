#!/usr/bin/env python3
"""Searched masks vs random masks across sparsity levels, post training.

Runs the two-arm sweep (selection-phase winner vs one random mask at the same
sparsity), trains every cell, then aggregates multi-seed means with 95%
confidence intervals. The interesting outcome is a null result: after SGD
training, searched masks do not beat random ones at equal sparsity.
"""

import tempfile
from pathlib import Path

from weedout import SearchConfig, TrainConfig, synthetic_blobs
from weedout.data import SplitSpec, split
from weedout.network import default_dense_spec
from weedout.pipeline import sweep
from weedout.report import write_report

ds = synthetic_blobs(num_classes=10, per_class=200, dim=16, spread=0.35, seed=0)
splits = split(ds, SplitSpec(0.7, 0.15, 0.15, seed=0))

spec = default_dense_spec(10)
search_cfg = SearchConfig(population_size=50, generations=5, validation_batch_size=256)
train_cfg = TrainConfig(epochs=15, batch_size=128, lr=0.05, momentum=0.9)

etas = [0.0, 0.4, 0.8]
seeds = [0, 1, 2]
out_dir = Path(tempfile.mkdtemp(prefix="weedout_demo_")) / "sweep"
print(f"running {len(etas) * 2 * len(seeds)} cells "
      f"(etas {etas}, 2 arms, {len(seeds)} seeds) -> {out_dir}")

results = sweep(spec, (16,), etas, ["weedout", "random_baseline"], seeds,
                search_cfg, train_cfg, splits, out_dir)
records = [r.record for r in results]

agg, diffs, _ = write_report(records, out_dir.parent / "report")
final_epoch = max(r.epoch for r in agg)
print(f"\nfinal-epoch ({final_epoch}) test accuracy, mean over {len(seeds)} seeds:")
print(f"{'arm':<16} {'eta':>5} {'mean':>8} {'ci95':>8}")
for row in sorted(agg, key=lambda r: (r.eta, r.arm)):
    if row.epoch == final_epoch:
        print(f"{row.arm:<16} {row.eta:>5g} {row.mean_test_accuracy:>8.4f} "
              f"{row.ci95_test_accuracy:>8.4f}")

print("\nsearch effect (weedout - random baseline):")
for d in diffs:
    print(f"  eta={d.eta:g}: {d.difference:+.4f} "
          f"(pooled 95% CI half-width {d.pooled_ci95:.4f}) -> {d.verdict}")

print(f"\nper-cell CSVs and manifests are under {out_dir}, "
      f"report tables under {out_dir.parent / 'report'}")
print("the same experiment is available as a config file through the CLI: "
      "see README.md")
