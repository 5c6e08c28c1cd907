import math

import numpy as np
import pytest

from weedout import search
from weedout.data import Dataset, sample_batch
from weedout.errors import EvaluationIncompleteError
from weedout.network import (KernelPool, conv2d, dense, flatten_layer, init_network,
                             mean_loss, relu_layer)
from weedout.numerics import RngStream
from weedout.search import (Candidate, SearchConfig, _evaluate_population,
                            fitness, next_generation, run_search, select_best)
from weedout.sparsity import resample_mask, sample_structured

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
        ones = resample_mask(net16.spec, None, "structured", 0.0, 0)
        cand = Candidate(mask=ones, candidate_id=0, birth_generation=1)
        batch = sample_batch(blob_splits.validation, 64, rng)
        value = fitness(net16, cand, batch)
        assert abs(value - (-math.log(10))) < 1e-9
        assert cand.fitness == value

    def test_all_ones_mask_equals_dense_loss(self, net16, blob_splits, rng):
        batch = sample_batch(blob_splits.validation, 64, rng)
        ones = resample_mask(net16.spec, None, "structured", 0.0, 0)
        cand = Candidate(mask=ones, candidate_id=0, birth_generation=1)
        assert fitness(net16, cand, batch) == -mean_loss(net16, None, *batch)

    def test_empty_batch_rejected(self, net16):
        ones = resample_mask(net16.spec, None, "structured", 0.0, 0)
        with pytest.raises(ValueError):
            fitness(net16, Candidate(ones, 0, 1),
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
        defaults = dict(population_size=10, generations=3, validation_batch_size=32)
        defaults.update(kw)
        return SearchConfig(**defaults)

    def test_budget_and_history_shape(self, net16, blob_splits):
        res = run_search(net16, self.cfg(), 0.4, blob_splits.validation,
                         RngStream(1).split("s"))
        assert res.evaluations == 30
        assert len(res.history) == 30
        for gen in (1, 2, 3):
            assert sum(1 for h in res.history if h.generation == gen) == 10

    def test_single_generation_is_plain_argmax(self, net16, blob_splits):
        res = run_search(net16, self.cfg(generations=1), 0.4, blob_splits.validation,
                         RngStream(2).split("s"))
        assert res.evaluations == 10
        best_fit = max(h.fitness for h in res.history)
        assert res.best.fitness == best_fit

    def test_within_generation_winner_attains_max(self, net16, blob_splits):
        res = run_search(net16, self.cfg(), 0.4, blob_splits.validation,
                         RngStream(3).split("s"))
        final = [h for h in res.history if h.generation == 3]
        assert res.best.fitness == max(h.fitness for h in final)

    def test_elitism_carries_winner_id_forward(self, net16, blob_splits):
        res = run_search(net16, self.cfg(), 0.4, blob_splits.validation,
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
        a = run_search(net16, self.cfg(), 0.4, blob_splits.validation,
                       RngStream(5).split("s"), pool=None)
        with KernelPool(4) as pool:
            b = run_search(net16, self.cfg(), 0.4, blob_splits.validation,
                           RngStream(5).split("s"), pool=pool)
        assert [h.fitness for h in a.history] == [h.fitness for h in b.history]
        assert a.best.candidate_id == b.best.candidate_id

    def test_config_validation(self, net16, blob_splits):
        with pytest.raises(ValueError):
            run_search(net16, self.cfg(population_size=1), 0.4, blob_splits.validation,
                       RngStream(8))
        with pytest.raises(ValueError):
            run_search(net16, self.cfg(mask_mode="diagonal"), 0.4,
                       blob_splits.validation, RngStream(8))


class TestScoreEachMaskOnce:
    """Identical masks in a generation are scored once; every row keeps its value."""

    @pytest.fixture
    def spy(self, monkeypatch):
        real, scored = search.fitness, []

        def counting_fitness(net, cand, batch):
            scored.append(cand.candidate_id)
            return real(net, cand, batch)

        monkeypatch.setattr(search, "fitness", counting_fitness)
        return scored

    @pytest.fixture
    def recorded(self, monkeypatch):
        """Each generation's batch and (candidate_id, mask) list, as scored."""
        real, generations = search._evaluate_population, []

        def recording(net, population, batch, pool):
            generations.append((batch, [(c.candidate_id, c.mask) for c in population]))
            return real(net, population, batch, pool)

        monkeypatch.setattr(search, "_evaluate_population", recording)
        return generations

    def test_eta_zero_structured_scores_once_per_generation(self, net16, blob_splits,
                                                             spy):
        cfg = SearchConfig(population_size=100, generations=5, validation_batch_size=64)
        res = run_search(net16, cfg, 0.0, blob_splits.validation, RngStream(1).split("s"))
        assert len(spy) == 5
        assert res.evaluations == 500 and len(res.history) == 500
        for gen in range(1, 6):
            values = {h.fitness for h in res.history if h.generation == gen}
            assert len(values) == 1

    def test_eta_zero_unstructured_conv_scores_once_per_generation(self, spy):
        spec = [conv2d(3, 3), relu_layer(), conv2d(4, 3), relu_layer(),
                flatten_layer(), dense(8), relu_layer(), dense(3, maskable=False)]
        shape = (7, 7, 2)
        net = init_network(spec, shape, seed=3)
        rng = RngStream(4)
        val = Dataset(rng.split("x").normal((24,) + shape),
                      np.asarray(rng.split("y").integers(0, 3, size=24)), 3)
        cfg = SearchConfig(population_size=6, generations=3, validation_batch_size=8,
                           mask_mode="unstructured")
        res = run_search(net, cfg, 0.0, val, RngStream(5).split("s"))
        assert len(spy) == 3
        assert res.evaluations == 18

    def test_desk_search_scores_every_distinct_candidate(self, net16, blob_splits, spy):
        cfg = SearchConfig(population_size=100, generations=5, validation_batch_size=64)
        res = run_search(net16, cfg, 0.6, blob_splits.validation, RngStream(2).split("s"))
        assert len(spy) == 500
        assert res.evaluations == 500

    @pytest.mark.parametrize("eta,mode", [(0.0, "structured"), (0.5, "structured"),
                                          (0.5, "unstructured")])
    def test_every_row_is_the_candidates_own_fitness(self, blob_splits, spy, recorded,
                                                     eta, mode):
        # widths 4 and 3 at eta 0.5 allow 6 x 3 = 18 node masks, so 20
        # candidates must repeat some
        net = init_network([dense(4), relu_layer(), dense(3), relu_layer(),
                            dense(10, maskable=False)], (16,), seed=6)
        cfg = SearchConfig(population_size=20, generations=3, validation_batch_size=32,
                           mask_mode=mode)
        res = run_search(net, cfg, eta, blob_splits.validation, RngStream(7).split("s"))
        assert len(recorded) == 3
        distinct = 0
        for gen, (batch, members) in enumerate(recorded, start=1):
            rows = {h.candidate_id: h.fitness for h in res.history if h.generation == gen}
            assert sorted(rows) == sorted(cid for cid, _ in members)
            keys = set()
            for cid, mask in members:
                keys.add(search._mask_key(mask))
                # the unpatched fitness, imported before the spy went in
                assert rows[cid] == fitness(net, Candidate(mask, cid, 1), batch)
            distinct += len(keys)
        assert len(spy) == distinct
        if mode == "structured":
            assert distinct < res.evaluations

    def test_mask_key_tells_masks_apart(self, net16):
        rng = RngStream(9)
        a = sample_structured(net16.spec, 0.5, rng)
        b = sample_structured(net16.spec, 0.5, rng)
        assert search._mask_key(a) != search._mask_key(b)
        assert search._mask_key(a) == search._mask_key(
            type(a)(a.mode, {i: m.copy() for i, m in a.masks.items()}, a.eta, 0))
        flat = type(a)("unstructured", {i: m.copy() for i, m in a.masks.items()})
        assert search._mask_key(a) != search._mask_key(flat)
