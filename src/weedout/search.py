"""Population-based selection of sparse sub-networks before any training.

One generation: draw a fresh validation batch, score every candidate mask on
that same batch (fitness = negative mean cross-entropy of the masked,
untrained parent; a structured mask is scored on its reduced network), keep
the fittest, and refill the rest of the population with new random masks.
No weight updates happen here; the only signal is the initialization
quality of each mask.

Candidates with identical masks are scored once per generation: the first
of them is scored and the rest take its fitness, which is the same bits
scoring them would give on the same batch. At eta 0 every candidate is the
all-ones mask, so a generation costs one fitness evaluation. The history
still holds one row per candidate, and a manifest's ``fitness_evaluations``
counts those rows.

A cell's kernel pool (see ``network.KernelPool``), when it has one, scores
the distinct candidates here, each thread a contiguous run of them; the
same pool then runs the kernel pieces of training and evaluation. Scoring
passes no pool to the kernels, so a pool never waits on itself.

A thread holds one candidate's forward at a time, run on row blocks of the
validation batch that ``network.activation_block_rows`` sizes from the
candidate's network (48 rows for the structured conv net on 28x28 images at
eta 0.6, 4,096 for the desk-scale dense net). On one BLAS thread, one loss
over the joined logits keeps the bits of a whole-batch pass; an unstructured
mask is multiplied into the weights once per candidate, not per block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, sample_batch
from .errors import check_member, check_number
from .network import KernelPool, Network, mean_loss, run_pieces
from .numerics import RngStream
from .sparsity import MASK_MODES, MaskSet, sample_mask, sub_network


@dataclass(frozen=True, eq=False)
class Candidate:
    """One population member: a mask and its identity; ``==`` and ``hash``
    go by identity, as for its :class:`MaskSet`."""

    mask: MaskSet
    candidate_id: int
    birth_generation: int


@dataclass(frozen=True)
class SearchConfig:
    """How a search runs; the sparsity ratio eta is a per-cell argument."""

    population_size: int = 100
    generations: int = 5
    validation_batch_size: int = 256
    mask_mode: str = "structured"

    def problems(self) -> list[str]:
        """One ``"field: reason"`` line per invalid field; empty if valid."""
        return (check_number("population_size", self.population_size, int, 2)
                + check_number("generations", self.generations, int, 1)
                + check_number("validation_batch_size", self.validation_batch_size, int, 1)
                + check_member("mask_mode", self.mask_mode, MASK_MODES))


@dataclass(frozen=True)
class HistoryRow:
    generation: int
    candidate_id: int
    birth_generation: int
    fitness: float
    is_elite: bool


@dataclass(frozen=True)
class SearchResult:
    best: Candidate
    history: list[HistoryRow]


def fitness(net: Network, mask: MaskSet, validation_batch) -> float:
    """Score a mask: negative mean cost on the given validation batch.

    The parent's weights are used untouched; this is a pre-training signal.
    The mask's sub-network (a structured mask's reduced network) is scored,
    its forward on ``network.mean_loss``'s row blocks.
    """
    x, y = validation_batch
    if len(y) == 0:
        raise ValueError("validation batch is empty")
    return -mean_loss(sub_network(net, mask), x, y)


def _mask_key(mask: MaskSet) -> tuple:
    """Exact identity of a binary mask: its mode and each layer's packed bits."""
    return (mask.mode,) + tuple((i, m.shape, np.packbits(m).tobytes())
                                for i, m in sorted(mask.masks.items()))


def _evaluate_population(net: Network, population: list[Candidate], batch,
                         pool: KernelPool | None) -> list[float]:
    """Each candidate's score on ``batch``, scoring each distinct mask once."""
    first: dict[tuple, int] = {}
    owner = [first.setdefault(_mask_key(c.mask), k) for k, c in enumerate(population)]
    distinct = list(first.values())
    scores = [0.0] * len(population)

    def score(j: int) -> None:
        scores[distinct[j]] = fitness(net, population[distinct[j]].mask, batch)

    run_pieces(pool, score, len(distinct))
    return [scores[k] for k in owner]


def run_search(net: Network, cfg: SearchConfig, eta: float, d_validation: Dataset,
               rng: RngStream, pool: KernelPool | None = None) -> SearchResult:
    """Run ``cfg.generations`` generations at sparsity ``eta``; the winner is
    the last generation's fittest candidate, ties going to the lowest id.

    Each generation draws a fresh validation batch and scores all candidates
    on that same batch, so within-generation comparisons are fair. The
    fittest stays as the elite, first in the next generation, and fresh
    random candidates with new ids fill the rest: the population is in
    ascending id order, so the first maximal score is the lowest id's.
    Candidate evaluations are pure, so the cell's ``pool``, if any, may score
    them on its threads without changing any value; a candidate's kernels get
    no pool. A sweep hands its workers to cells first, so a cell gets the
    threads left over: all of them when it is the only cell to compute.
    """
    if problems := cfg.problems():
        raise ValueError("; ".join(problems))
    if len(d_validation) == 0:
        raise ValueError("validation split is empty")
    rng_masks = rng.split("masks")
    rng_batches = rng.split("batches")
    population: list[Candidate] = []
    history: list[HistoryRow] = []
    for gen in range(1, cfg.generations + 1):
        next_id = population[-1].candidate_id + 1 if population else 0
        population = [best] if population else []  # the elite keeps its place
        population += [Candidate(sample_mask(net.spec, net.input_shape, eta,
                                             cfg.mask_mode, rng_masks), next_id + j, gen)
                       for j in range(cfg.population_size - len(population))]
        batch = sample_batch(d_validation, cfg.validation_batch_size,
                             rng_batches.split(f"gen{gen}"))
        scores = _evaluate_population(net, population, batch, pool)
        history += [HistoryRow(gen, c.candidate_id, c.birth_generation, s,
                               c.birth_generation < gen)
                    for c, s in zip(population, scores)]
        best = population[scores.index(max(scores))]
    return SearchResult(best, history)
