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
all-ones mask, so a generation costs one fitness evaluation. The search
still counts every candidate in ``SearchResult.evaluations`` (a manifest's
``fitness_evaluations``).

A cell's kernel pool (see ``network.KernelPool``), when it has one, scores
the distinct candidates here, each thread a contiguous run of them; the
same pool then runs the kernel pieces of training and evaluation. Scoring
passes no pool to the kernels, so a pool never waits on itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, sample_batch
from .errors import EvaluationIncompleteError, check_member, check_number
from .network import KernelPool, Network, mean_loss, run_pieces
from .numerics import RngStream
from .sparsity import MASK_MODES, MaskSet, sample_mask, sub_network


@dataclass(eq=False)
class Candidate:
    """One population member: a mask, its identity, and its latest score;
    ``==`` and ``hash`` go by identity, as for its :class:`MaskSet`."""

    mask: MaskSet
    candidate_id: int
    birth_generation: int
    fitness: float | None = None


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


@dataclass
class SearchResult:
    best: Candidate
    history: list[HistoryRow] = field(default_factory=list)
    evaluations: int = 0


def fitness(net: Network, cand: Candidate, validation_batch) -> float:
    """Score a candidate: negative mean cost on the given validation batch.

    The parent's weights are used untouched; this is a pre-training signal.
    A structured candidate is scored on its reduced network. The value is
    stored on the candidate.
    """
    x, y = validation_batch
    if len(y) == 0:
        raise ValueError("validation batch is empty")
    cand.fitness = -mean_loss(*sub_network(net, cand.mask), x, y)
    return cand.fitness


def select_best(population: list[Candidate]) -> Candidate:
    """Maximal-fitness candidate; ties break toward the lowest candidate_id."""
    for c in population:
        if c.fitness is None:
            raise EvaluationIncompleteError(
                f"candidate {c.candidate_id} has no fitness value")
    return max(population, key=lambda c: (c.fitness, -c.candidate_id))


def next_generation(population: list[Candidate], best: Candidate,
                    spec, eta: float, rng: RngStream, *,
                    mask_mode: str = "structured",
                    input_shape=None) -> list[Candidate]:
    """Elite plus population_size - 1 fresh random candidates.

    The elite keeps its mask and identity but its fitness is cleared: every
    generation re-scores all members on that generation's fresh batch.
    """
    next_gen = max(c.birth_generation for c in population) + 1
    next_id = max(c.candidate_id for c in population) + 1
    out = [Candidate(mask=best.mask, candidate_id=best.candidate_id,
                     birth_generation=best.birth_generation, fitness=None)]
    for j in range(len(population) - 1):
        mask = sample_mask(spec, input_shape, eta, mask_mode, rng)
        out.append(Candidate(mask=mask, candidate_id=next_id + j,
                             birth_generation=next_gen))
    return out


def _mask_key(mask: MaskSet) -> tuple:
    """Exact identity of a binary mask: its mode and each layer's packed bits."""
    return (mask.mode,) + tuple((i, m.shape, np.packbits(m).tobytes())
                                for i, m in sorted(mask.masks.items()))


def _evaluate_population(net: Network, population: list[Candidate],
                         batch, pool: KernelPool | None) -> None:
    """Score every candidate on ``batch``, each distinct mask once."""
    keys = [_mask_key(c.mask) for c in population]
    first: dict[tuple, Candidate] = {}
    for key, c in zip(keys, population):
        first.setdefault(key, c)
    distinct = list(first.values())
    run_pieces(pool, lambda k: fitness(net, distinct[k], batch), len(distinct))
    for key, c in zip(keys, population):
        c.fitness = first[key].fitness


def run_search(net: Network, cfg: SearchConfig, eta: float, d_validation: Dataset,
               rng: RngStream, pool: KernelPool | None = None) -> SearchResult:
    """Run ``cfg.generations`` generations at sparsity ``eta``; the winner is
    the last generation's fittest candidate (see :func:`select_best`).

    Each generation draws a fresh validation batch and scores all candidates
    on that same batch, so within-generation comparisons are fair.
    Candidates with identical masks are scored once per generation, and
    ``evaluations`` still counts every candidate. Candidate evaluations are
    pure, so the cell's ``pool``, if any, may score them on its threads
    without changing any value; a candidate's kernels get no pool. A sweep
    hands its workers to cells first, so a cell gets the threads left over:
    all of them when it is the only cell to compute.
    """
    if problems := cfg.problems():
        raise ValueError("; ".join(problems))
    if len(d_validation) == 0:
        raise ValueError("validation split is empty")
    rng_masks = rng.split("masks")
    rng_batches = rng.split("batches")
    population = [
        Candidate(mask=sample_mask(net.spec, net.input_shape, eta,
                                   cfg.mask_mode, rng_masks),
                  candidate_id=i, birth_generation=1)
        for i in range(cfg.population_size)
    ]
    result = SearchResult(best=population[0])
    for gen in range(1, cfg.generations + 1):
        batch = sample_batch(d_validation, cfg.validation_batch_size,
                             rng_batches.split(f"gen{gen}"))
        _evaluate_population(net, population, batch, pool)
        for c in population:
            result.history.append(HistoryRow(
                generation=gen, candidate_id=c.candidate_id,
                birth_generation=c.birth_generation, fitness=c.fitness,
                is_elite=c.birth_generation < gen))
        result.evaluations += len(population)
        result.best = select_best(population)
        if gen < cfg.generations:
            population = next_generation(population, result.best, net.spec, eta,
                                         rng_masks, mask_mode=cfg.mask_mode,
                                         input_shape=net.input_shape)
    return result
