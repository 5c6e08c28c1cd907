import math

import numpy as np
import pytest

from weedout.data import sample_batch
from weedout.errors import EvaluationIncompleteError
from weedout.network import KernelPool, init_network, mean_loss
from weedout.numerics import RngStream
from weedout.search import (Candidate, SearchConfig, _evaluate_population,
                            fitness, next_generation, run_search, select_best)
from weedout.sparsity import all_ones_mask, sample_structured

from weedout.network import default_dense_spec


@pytest.fixture
def net16():
    return init_network(default_dense_spec(10), (16,), seed=4)


def make_population(spec, eta, m, rng):
    return [Candidate(mask=sample_structured(spec, eta, rng), candidate_id=i,
                      birth_generation=1) for i in range(m)]


class TestFitness:
    def test_uniform_logits_give_minus_log_k(self, net16, blob_splits, rng):
        for p in net16.params:
            if p is not None:
                p.weight[:] = 0.0  # zero weights + zero biases -> uniform logits
        cand = Candidate(mask=all_ones_mask(net16.spec), candidate_id=0,
                         birth_generation=1)
        batch = sample_batch(blob_splits.validation, 64, rng)
        value = fitness(net16, cand, batch)
        assert abs(value - (-math.log(10))) < 1e-9
        assert cand.fitness == value

    def test_all_ones_mask_equals_dense_loss(self, net16, blob_splits, rng):
        batch = sample_batch(blob_splits.validation, 64, rng)
        cand = Candidate(mask=all_ones_mask(net16.spec), candidate_id=0,
                         birth_generation=1)
        assert fitness(net16, cand, batch) == -mean_loss(net16, None, *batch)

    def test_empty_batch_rejected(self, net16):
        with pytest.raises(ValueError):
            fitness(net16, Candidate(all_ones_mask(net16.spec), 0, 1),
                    (np.zeros((0, 16)), np.zeros(0, dtype=int)))

    def test_serial_equals_parallel(self, net16, blob_splits, rng):
        batch = sample_batch(blob_splits.validation, 64, rng.split("b"))
        pop_serial = make_population(net16.spec, 0.4, 12, RngStream(5).split("m"))
        pop_parallel = make_population(net16.spec, 0.4, 12, RngStream(5).split("m"))
        _evaluate_population(net16, pop_serial, batch, None)
        with KernelPool(4) as pool:
            _evaluate_population(net16, pop_parallel, batch, pool)
        assert [c.fitness for c in pop_serial] == [c.fitness for c in pop_parallel]


class TestSelectBest:
    def _pop(self, fitnesses):
        return [Candidate(mask=None, candidate_id=i, birth_generation=1, fitness=f)
                for i, f in enumerate(fitnesses)]

    def test_argmax(self):
        assert select_best(self._pop([-1.2, -0.5, -3.0])).candidate_id == 1

    def test_ties_break_to_lowest_id(self):
        assert select_best(self._pop([-1.0, -1.0, -1.0])).candidate_id == 0

    def test_shift_invariance(self):
        base = [-2.0, -0.7, -1.4]
        shifted = [f + 5.0 for f in base]
        assert select_best(self._pop(base)).candidate_id == \
            select_best(self._pop(shifted)).candidate_id

    def test_incomplete_evaluation_rejected(self):
        pop = self._pop([-1.0, -2.0])
        pop[1].fitness = None
        with pytest.raises(EvaluationIncompleteError):
            select_best(pop)


class TestNextGeneration:
    def test_elite_plus_fresh(self, net16):
        rng = RngStream(6).split("m")
        pop = make_population(net16.spec, 0.4, 2, rng)
        for i, c in enumerate(pop):
            c.fitness = -float(i + 1)
        best = select_best(pop)
        out = next_generation(pop, best, net16.spec, 0.4, rng)
        assert len(out) == 2
        assert out[0].candidate_id == best.candidate_id
        assert out[0].fitness is None  # re-scored on the next fresh batch
        assert out[1].candidate_id == 2
        assert out[1].birth_generation == 2

    def test_elite_mask_bit_identical(self, net16):
        rng = RngStream(7).split("m")
        pop = make_population(net16.spec, 0.6, 5, rng)
        for i, c in enumerate(pop):
            c.fitness = float(-i)
        best = select_best(pop)
        out = next_generation(pop, best, net16.spec, 0.6, rng)
        for i in best.mask.masks:
            np.testing.assert_array_equal(out[0].mask.masks[i], best.mask.masks[i])

    def test_fresh_masks_reproducible(self, net16):
        def build():
            rng = RngStream(8).split("m")
            pop = make_population(net16.spec, 0.4, 4, rng)
            for i, c in enumerate(pop):
                c.fitness = float(-i)
            return next_generation(pop, select_best(pop), net16.spec, 0.4, rng)

        a, b = build(), build()
        for ca, cb in zip(a, b):
            for i in ca.mask.masks:
                np.testing.assert_array_equal(ca.mask.masks[i], cb.mask.masks[i])


class TestRunSearch:
    def cfg(self, **kw):
        defaults = dict(eta=0.4, population_size=10, generations=3,
                        validation_batch_size=32)
        defaults.update(kw)
        return SearchConfig(**defaults)

    def test_budget_and_history_shape(self, net16, blob_splits):
        res = run_search(net16, self.cfg(), blob_splits.validation,
                         RngStream(1).split("s"))
        assert res.evaluations == 30
        assert res.generations_run == 3
        assert len(res.history) == 30
        for gen in (1, 2, 3):
            assert sum(1 for h in res.history if h.generation == gen) == 10

    def test_single_generation_is_plain_argmax(self, net16, blob_splits):
        res = run_search(net16, self.cfg(generations=1), blob_splits.validation,
                         RngStream(2).split("s"))
        assert res.evaluations == 10
        best_fit = max(h.fitness for h in res.history)
        assert res.best.fitness == best_fit

    def test_within_generation_winner_attains_max(self, net16, blob_splits):
        res = run_search(net16, self.cfg(), blob_splits.validation,
                         RngStream(3).split("s"))
        final = [h for h in res.history if h.generation == res.generations_run]
        assert res.best.fitness == max(h.fitness for h in final)

    def test_elitism_carries_winner_id_forward(self, net16, blob_splits):
        res = run_search(net16, self.cfg(), blob_splits.validation,
                         RngStream(4).split("s"))
        by_gen = {}
        for h in res.history:
            by_gen.setdefault(h.generation, []).append(h)
        for gen in (1, 2):
            winner = max(by_gen[gen], key=lambda h: (h.fitness, -h.candidate_id))
            nxt = {h.candidate_id: h for h in by_gen[gen + 1]}
            assert winner.candidate_id in nxt
            assert nxt[winner.candidate_id].is_elite
            fresh = [h for h in by_gen[gen + 1] if not h.is_elite]
            assert len(fresh) == 9

    def test_deterministic_across_reruns_and_threads(self, net16, blob_splits):
        a = run_search(net16, self.cfg(), blob_splits.validation,
                       RngStream(5).split("s"), parallel=1)
        b = run_search(net16, self.cfg(), blob_splits.validation,
                       RngStream(5).split("s"), parallel=4)
        assert [h.fitness for h in a.history] == [h.fitness for h in b.history]
        assert a.best.candidate_id == b.best.candidate_id

    def test_winner_scope_all_generations(self, net16, blob_splits):
        final_scope = run_search(net16, self.cfg(), blob_splits.validation,
                                 RngStream(6).split("s"))
        all_scope = run_search(net16, self.cfg(winner_scope="all_generations"),
                               blob_splits.validation, RngStream(6).split("s"))
        assert all_scope.best.fitness == max(h.fitness for h in all_scope.history)
        final_gen = [h for h in final_scope.history
                     if h.generation == final_scope.generations_run]
        assert final_scope.best.fitness == max(h.fitness for h in final_gen)

    def test_early_stop(self, net16, blob_splits):
        cfg = self.cfg(generations=6, early_stop_tol=10.0, early_stop_patience=1)
        res = run_search(net16, cfg, blob_splits.validation, RngStream(7).split("s"))
        assert res.generations_run == 2
        assert res.evaluations == 20

    def test_config_validation(self, net16, blob_splits):
        with pytest.raises(ValueError):
            run_search(net16, self.cfg(population_size=1), blob_splits.validation,
                       RngStream(8))
        with pytest.raises(ValueError):
            run_search(net16, self.cfg(strategy="binary_tournament"),
                       blob_splits.validation, RngStream(8))
        with pytest.raises(ValueError):
            run_search(net16, self.cfg(winner_scope="best_ever"),
                       blob_splits.validation, RngStream(8))
