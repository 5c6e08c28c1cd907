"""Population-based selection of sparse sub-networks before any training.

One generation: draw a fresh validation batch, score every candidate mask on
that same batch (fitness = negative mean cross-entropy of the masked,
untrained parent; a structured mask is scored on its reduced network), keep
the fittest, and refill the rest of the population with new random masks.
No weight updates happen here; the only signal is the initialization
quality of each mask.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from .data import Dataset, sample_batch
from .errors import EvaluationIncompleteError
from .network import Network, mean_loss
from .numerics import RngStream
from .sparsity import MaskSet, sample_mask, sub_network

STRATEGIES = ("random_search",)
WINNER_SCOPES = ("final_generation", "all_generations")


@dataclass
class Candidate:
    """One population member: a mask, its identity, and its latest score."""

    mask: MaskSet
    candidate_id: int
    birth_generation: int
    fitness: float | None = None


@dataclass(frozen=True)
class SearchConfig:
    eta: float
    population_size: int = 100
    generations: int = 5
    validation_batch_size: int = 256
    strategy: str = "random_search"
    mask_mode: str = "structured"
    winner_scope: str = "final_generation"
    # optional convergence stop: end early once the per-generation best
    # improves by less than `early_stop_tol` for `early_stop_patience`
    # consecutive generations (off by default).
    early_stop_tol: float | None = None
    early_stop_patience: int = 2

    def validate(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.validation_batch_size < 1:
            raise ValueError("validation_batch_size must be >= 1")
        if not 0.0 <= self.eta < 1.0:
            raise ValueError(f"eta must lie in [0, 1), got {self.eta}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; available: {STRATEGIES}")
        if self.winner_scope not in WINNER_SCOPES:
            raise ValueError(f"unknown winner_scope {self.winner_scope!r}")
        if self.early_stop_tol is not None and self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")


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
    generations_run: int = 0
    evaluations: int = 0

    def best_fitness_per_generation(self) -> list[tuple[int, float]]:
        out: dict[int, float] = {}
        for row in self.history:
            if row.generation not in out or row.fitness > out[row.generation]:
                out[row.generation] = row.fitness
        return sorted(out.items())


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


def _evaluate_population(net: Network, population: list[Candidate],
                         batch, parallel: int) -> None:
    if parallel > 1:
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            list(pool.map(lambda c: fitness(net, c, batch), population))
    else:
        for c in population:
            fitness(net, c, batch)


def _random_search_replacement(population, best, spec, eta, rng, *,
                               mask_mode, input_shape):
    return next_generation(population, best, spec, eta, rng,
                           mask_mode=mask_mode, input_shape=input_shape)


# Replacement rule per strategy; further heuristics (binary tournament, ...)
# plug in here without touching the generation loop.
REPLACEMENT_RULES = {"random_search": _random_search_replacement}


def run_search(net: Network, cfg: SearchConfig, d_validation: Dataset,
               rng: RngStream, parallel: int = 1) -> SearchResult:
    """Run the full selection phase and return the winning candidate.

    Each generation draws a fresh validation batch and scores all candidates
    on that same batch, so within-generation comparisons are fair. Candidate
    evaluations are pure and may run on ``parallel`` threads without changing
    any value. A sweep hands its workers to cells first, so a cell gets the
    threads left over: all of them when it is the only cell to compute.
    """
    cfg.validate()
    if len(d_validation) == 0:
        raise ValueError("validation split is empty")
    replace_population = REPLACEMENT_RULES[cfg.strategy]
    rng_masks = rng.split("masks")
    rng_batches = rng.split("batches")
    population = [
        Candidate(mask=sample_mask(net.spec, net.input_shape, cfg.eta,
                                   cfg.mask_mode, rng_masks),
                  candidate_id=i, birth_generation=1)
        for i in range(cfg.population_size)
    ]
    result = SearchResult(best=population[0])
    best_overall: Candidate | None = None
    best_gen: Candidate | None = None
    prev_best_fitness: float | None = None
    stale = 0
    for gen in range(1, cfg.generations + 1):
        batch = sample_batch(d_validation, cfg.validation_batch_size,
                             rng_batches.split(f"gen{gen}"))
        _evaluate_population(net, population, batch, parallel)
        for c in population:
            result.history.append(HistoryRow(
                generation=gen, candidate_id=c.candidate_id,
                birth_generation=c.birth_generation, fitness=c.fitness,
                is_elite=c.birth_generation < gen))
        result.evaluations += len(population)
        result.generations_run = gen
        best_gen = select_best(population)
        if best_overall is None or best_gen.fitness > best_overall.fitness:
            best_overall = replace(best_gen)
        if cfg.early_stop_tol is not None:
            if prev_best_fitness is not None and \
                    best_gen.fitness - prev_best_fitness < cfg.early_stop_tol:
                stale += 1
            else:
                stale = 0
            prev_best_fitness = max(best_gen.fitness, prev_best_fitness) \
                if prev_best_fitness is not None else best_gen.fitness
            if stale >= cfg.early_stop_patience:
                break
        if gen < cfg.generations:
            population = replace_population(population, best_gen, net.spec, cfg.eta,
                                            rng_masks, mask_mode=cfg.mask_mode,
                                            input_shape=net.input_shape)
    result.best = best_gen if cfg.winner_scope == "final_generation" else best_overall
    return result
