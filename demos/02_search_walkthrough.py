#!/usr/bin/env python3
"""One selection phase, generation by generation.

Scores a population of random sparse sub-networks on fresh validation
batches before any training, carrying the best mask forward each generation.
The per-generation tables show the pre-training fitness signal the selection
acts on.
"""

from weedout import RngStream, SearchConfig, init_network, run_search, synthetic_blobs
from weedout.data import SplitSpec, split
from weedout.network import default_dense_spec
from weedout.sparsity import realized_sparsity

ds = synthetic_blobs(num_classes=10, per_class=200, dim=16, spread=0.35, seed=0)
splits = split(ds, SplitSpec(0.7, 0.15, 0.15, seed=0))
print(f"blob task: {len(splits.train)} train / {len(splits.validation)} validation "
      f"/ {len(splits.test)} test")

spec = default_dense_spec(10)
net = init_network(spec, (16,), seed=1)

cfg = SearchConfig(population_size=60, generations=5, validation_batch_size=256)
result = run_search(net, cfg, 0.6, splits.validation, RngStream(1).split("search"))

print(f"\npopulation {cfg.population_size}, {cfg.generations} generations, "
      f"{len(result.history)} fitness evaluations (no weight updates)\n")
print(f"{'gen':>4} {'best':>10} {'mean':>10} {'worst':>10}  elite")
by_gen = {}
for row in result.history:
    by_gen.setdefault(row.generation, []).append(row)
for gen, rows in sorted(by_gen.items()):
    fits = [r.fitness for r in rows]
    elite = [r.candidate_id for r in rows if r.is_elite]
    label = f"#{elite[0]}" if elite else "-"
    print(f"{gen:>4} {max(fits):>10.5f} {sum(fits) / len(fits):>10.5f} "
          f"{min(fits):>10.5f}  {label}")

best = result.best
# the winner's fitness is its row in the last generation
fitness = next(r.fitness for r in by_gen[cfg.generations]
               if r.candidate_id == best.candidate_id)
print(f"\nwinner: candidate #{best.candidate_id} "
      f"(born generation {best.birth_generation}, fitness {fitness:.5f}, "
      f"realized sparsity {realized_sparsity(best.mask):.3f})")
print("the winner's mask would now go to SGD training; see demo 03 for the "
      "full comparison against random masks")
