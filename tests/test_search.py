import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weedout import network, search, sparsity
from weedout.data import Dataset, sample_batch
from weedout.network import (KernelPool, conv2d, dense, flatten_layer, init_network,
                             kernel_pool, mean_loss, relu_layer)
from weedout.numerics import RngStream
from weedout.search import (Candidate, SearchConfig, _evaluate_population,
                            fitness, run_search)
from weedout.sparsity import resample_mask, sample_mask

from weedout.network import default_dense_spec

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def net16():
    return init_network(default_dense_spec(10), (16,), seed=4)


@pytest.fixture
def recorded(monkeypatch):
    """Each generation's batch, candidates and their mask keys, as scored."""
    real, generations = search._evaluate_population, []

    def recording(net, population, batch, *args):
        keys = [search._mask_key(c.mask) for c in population]
        generations.append((batch, list(population), keys))
        return real(net, population, batch, *args)

    monkeypatch.setattr(search, "_evaluate_population", recording)
    return generations


def search_with_scores(monkeypatch, net, splits, scores):
    """run_search with ``scores[g]`` as generation g + 1's candidate scores."""
    given = iter(scores)
    monkeypatch.setattr(search, "_evaluate_population",
                        lambda net, population, batch, *args: list(next(given)))
    cfg = SearchConfig(population_size=len(scores[0]), generations=len(scores),
                       validation_batch_size=32)
    return run_search(net, cfg, 0.4, splits.validation, RngStream(6).split("s"))


def make_population(spec, eta, m, rng):
    return [Candidate(mask=sample_mask(spec, None, eta, "structured", rng), candidate_id=i,
                      birth_generation=1) for i in range(m)]


class TestFitness:
    def test_uniform_logits_give_minus_log_k(self, net16, blob_splits, rng):
        for p in net16.params:
            if p is not None:
                p.weight[:] = 0.0  # zero weights + zero biases -> uniform logits
        ones = resample_mask(net16.spec, None, "structured", 0.0, 0)
        batch = sample_batch(blob_splits.validation, 64, rng)
        assert abs(fitness(net16, ones, batch) - (-math.log(10))) < 1e-9

    def test_all_ones_mask_equals_dense_loss(self, net16, blob_splits, rng):
        batch = sample_batch(blob_splits.validation, 64, rng)
        ones = resample_mask(net16.spec, None, "structured", 0.0, 0)
        assert fitness(net16, ones, batch) == -mean_loss(net16, *batch)

    def test_empty_batch_rejected(self, net16):
        ones = resample_mask(net16.spec, None, "structured", 0.0, 0)
        with pytest.raises(ValueError):
            fitness(net16, ones, (np.zeros((0, 16)), np.zeros(0, dtype=int)))

    def test_serial_equals_parallel(self, net16, blob_splits, rng):
        batch = sample_batch(blob_splits.validation, 64, rng.split("b"))
        population = make_population(net16.spec, 0.4, 12, RngStream(5).split("m"))
        serial = _evaluate_population(net16, population, batch, None)
        with KernelPool(4) as pool:
            parallel = _evaluate_population(net16, population, batch, pool)
        assert serial == parallel
        assert serial == [fitness(net16, c.mask, batch) for c in population]


class TestBlockedScores:
    """Scores forwarded in row blocks keep the bits of one whole-batch pass.
    ``_blocked_logits`` sizes the blocks from the network it runs; the tests
    pin them through its ``block_rows``."""

    @pytest.mark.parametrize("mode", ["structured", "unstructured"])
    @pytest.mark.parametrize("threads", [1, 2])
    # 32-row blocks with a short last one, or a 1-row tail joining the block before
    @pytest.mark.parametrize("rows,blocks", [(88, [32, 32, 24]), (97, [32, 32, 33])])
    def test_blocked_scores_equal_one_block(self, monkeypatch, mode, threads, rows, blocks):
        spec = [conv2d(3, 3), relu_layer(), conv2d(4, 2, stride=2), relu_layer(),
                flatten_layer(), dense(6), relu_layer(), dense(3)]
        shape = (9, 8, 2)
        net = init_network(spec, shape, seed=2)
        rng = RngStream(3)
        batch = (rng.split("x").normal((rows,) + shape),
                 np.asarray(rng.split("y").integers(0, 3, size=rows)))
        population = [Candidate(sample_mask(spec, shape, 0.5, mode, rng.split(f"m{k}")), k, 1)
                      for k in range(6)]
        real_blocked_logits = network._blocked_logits

        def scores_in_blocks_of(block_rows, pool=None):
            monkeypatch.setattr(network, "_blocked_logits",
                                lambda net, rows, n, pool=None: real_blocked_logits(
                                    net, rows, n, block_rows=block_rows, pool=pool))
            return _evaluate_population(net, population, batch, pool)

        whole = scores_in_blocks_of(rows)
        real_forward, real_masked_network = network._forward_pass, sparsity.masked_network
        forwarded, masked = [], []

        def forward_spy(net, mask, x, keep_inputs, pool=None):
            forwarded.append(len(x))
            return real_forward(net, mask, x, keep_inputs, pool)

        def masked_network_spy(net, mask):
            masked.append(mask.mode)
            return real_masked_network(net, mask)

        monkeypatch.setattr(network, "_forward_pass", forward_spy)
        monkeypatch.setattr(sparsity, "masked_network", masked_network_spy)
        with kernel_pool(threads) as pool:
            blocked = scores_in_blocks_of(32, pool)
        assert np.array(blocked).tobytes() == np.array(whole).tobytes()
        assert sorted(forwarded) == sorted(blocks * 6)
        # an unstructured mask goes into the weights once per candidate, not
        # once per block
        assert masked == (["unstructured"] * 6 if mode == "unstructured" else [])

    def test_search_blocks_keep_every_logit_on_the_28x28_conv_net(self):
        """BLAS tiles make a GEMM row's bits depend on where a block starts; on
        one BLAS thread, as the benchmark runs, the rule's 48-row blocks
        reproduce every logit of one 128-row pass. A multi-threaded BLAS
        splits a GEMM's rows among its threads by the GEMM's size, so the
        check runs in a child process with one BLAS thread."""
        code = """if True:
            import numpy as np
            from weedout import network
            from weedout.numerics import RngStream
            from weedout.sparsity import resample_mask, sub_network
            net = network.init_network(network.default_conv_spec(10), (28, 28, 1), seed=0)
            for k in range(3):
                mask = resample_mask(net.spec, None, "structured", 0.6, k)
                reduced = sub_network(net, mask)
                x = np.maximum(RngStream(k).normal((128, 28, 28, 1)), 0.0)
                rows = network.activation_block_rows(reduced)
                blocks = [network._forward_pass(reduced, None, x[b:b + rows], False)[0]
                          for b in range(0, 128, rows)]
                whole = network._forward_pass(reduced, None, x, False)[0]
                print(rows, np.concatenate(blocks).tobytes() == whole.tobytes())
        """
        one_thread = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS")}
        env = dict(os.environ, PYTHONPATH=str(SRC), **one_thread)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["48", "True"] * 3


class TestSelectBest:
    """The winner is the last generation's argmax, ties going to the lowest id."""

    def test_argmax(self, net16, blob_splits, monkeypatch):
        res = search_with_scores(monkeypatch, net16, blob_splits, [[-1.2, -0.5, -3.0]])
        assert res.best.candidate_id == 1
        assert [h.fitness for h in res.history] == [-1.2, -0.5, -3.0]
        # a fresh candidate beats the elite in the last generation
        res = search_with_scores(monkeypatch, net16, blob_splits,
                                 [[-2.0, -1.0, -3.0], [-0.5, -0.4, -0.6]])
        assert res.best.candidate_id == 3

    def test_ties_break_to_lowest_id(self, net16, blob_splits, monkeypatch):
        for mode in ("structured", "unstructured"):
            # at eta 0 every candidate is the all-ones mask and scores the same
            cfg = SearchConfig(population_size=5, generations=3, validation_batch_size=32,
                               mask_mode=mode)
            res = run_search(net16, cfg, 0.0, blob_splits.validation,
                             RngStream(3).split("s"))
            assert res.best.candidate_id == 0
            assert len({h.fitness for h in res.history if h.generation == 3}) == 1
        res = search_with_scores(monkeypatch, net16, blob_splits, [[-1.0, -1.0, -1.0]])
        assert res.best.candidate_id == 0
        # the elite, first in its generation, keeps a tie with a fresh id
        res = search_with_scores(monkeypatch, net16, blob_splits,
                                 [[-2.0, -1.0, -3.0], [-0.5, -0.5, -0.6]])
        assert res.best.candidate_id == 1

    def test_shift_invariance(self, net16, blob_splits, monkeypatch):
        base = [[-2.0, -0.7, -1.4], [-1.1, -0.9, -1.0]]
        shifted = [[f + 5.0 for f in gen] for gen in base]
        assert search_with_scores(monkeypatch, net16, blob_splits, base).best.candidate_id \
            == search_with_scores(monkeypatch, net16, blob_splits, shifted).best.candidate_id


class TestNextGeneration:
    def test_elite_plus_fresh(self, net16, blob_splits, monkeypatch):
        res = search_with_scores(monkeypatch, net16, blob_splits,
                                 [[-1.0, -2.0], [-5.0, -6.0]])
        rows = [(h.generation, h.candidate_id, h.birth_generation, h.fitness, h.is_elite)
                for h in res.history]
        # the elite is re-scored on generation 2's batch, not given its old score
        assert rows == [(1, 0, 1, -1.0, False), (1, 1, 1, -2.0, False),
                        (2, 0, 1, -5.0, True), (2, 2, 2, -6.0, False)]

    def test_elite_mask_bit_identical(self, net16, blob_splits, recorded):
        cfg = SearchConfig(population_size=6, generations=4, validation_batch_size=32)
        res = run_search(net16, cfg, 0.6, blob_splits.validation, RngStream(7).split("s"))
        for gen, (_, population, keys) in enumerate(recorded, start=1):
            scores = [h.fitness for h in res.history if h.generation == gen]
            k = max(range(6), key=lambda k: (scores[k], -population[k].candidate_id))
            if gen == 4:
                assert res.best is population[k]
                continue
            _, following, following_keys = recorded[gen]
            assert following[0] is population[k]  # so the same mask object
            assert following_keys[0] == keys[k]  # with the same bits
            assert [c.candidate_id for c in following[1:]] == \
                list(range(6 + 5 * (gen - 1), 6 + 5 * gen))

    def test_fresh_masks_reproducible(self, net16, blob_splits, recorded):
        """The initial m masks, then m - 1 per generation, from the masks stream."""
        for mode in ("structured", "unstructured"):
            recorded.clear()
            cfg = SearchConfig(population_size=4, generations=3, validation_batch_size=32,
                               mask_mode=mode)
            run_search(net16, cfg, 0.4, blob_splits.validation, RngStream(8).split("s"))
            stream = RngStream(8).split("s").split("masks")
            for gen, (_, population, _) in enumerate(recorded, start=1):
                fresh = population if gen == 1 else population[1:]
                for c in fresh:
                    expected = sample_mask(net16.spec, net16.input_shape, 0.4, mode,
                                           stream)
                    assert c.birth_generation == gen
                    assert search._mask_key(c.mask) == search._mask_key(expected)


class TestRunSearch:
    def cfg(self, **kw):
        defaults = dict(population_size=10, generations=3, validation_batch_size=32)
        defaults.update(kw)
        return SearchConfig(**defaults)

    def test_budget_and_history_shape(self, net16, blob_splits):
        res = run_search(net16, self.cfg(), 0.4, blob_splits.validation,
                         RngStream(1).split("s"))
        assert len(res.history) == 30
        for gen in (1, 2, 3):
            assert sum(1 for h in res.history if h.generation == gen) == 10

    def test_single_generation_is_plain_argmax(self, net16, blob_splits):
        res = run_search(net16, self.cfg(generations=1), 0.4, blob_splits.validation,
                         RngStream(2).split("s"))
        best = next(h for h in res.history if h.candidate_id == res.best.candidate_id)
        assert best.fitness == max(h.fitness for h in res.history)

    def test_within_generation_winner_attains_max(self, net16, blob_splits):
        res = run_search(net16, self.cfg(), 0.4, blob_splits.validation,
                         RngStream(3).split("s"))
        final = {h.candidate_id: h.fitness for h in res.history if h.generation == 3}
        assert final[res.best.candidate_id] == max(final.values())

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

    @pytest.mark.parametrize("mode", ["structured", "unstructured"])
    def test_deterministic_across_reruns_and_threads(self, net16, blob_splits, mode):
        a = run_search(net16, self.cfg(mask_mode=mode), 0.4, blob_splits.validation,
                       RngStream(5).split("s"), pool=None)
        with KernelPool(4) as pool:
            b = run_search(net16, self.cfg(mask_mode=mode), 0.4, blob_splits.validation,
                           RngStream(5).split("s"), pool=pool)
        assert a.history == b.history
        assert a.best.candidate_id == b.best.candidate_id
        assert search._mask_key(a.best.mask) == search._mask_key(b.best.mask)

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

        def counting_fitness(net, mask, batch, *args):
            scored.append(mask)
            return real(net, mask, batch, *args)

        monkeypatch.setattr(search, "fitness", counting_fitness)
        return scored

    def test_eta_zero_structured_scores_once_per_generation(self, net16, blob_splits,
                                                             spy):
        cfg = SearchConfig(population_size=100, generations=5, validation_batch_size=64)
        res = run_search(net16, cfg, 0.0, blob_splits.validation, RngStream(1).split("s"))
        assert len(spy) == 5
        assert len(res.history) == 500
        for gen in range(1, 6):
            values = {h.fitness for h in res.history if h.generation == gen}
            assert len(values) == 1

    def test_eta_zero_unstructured_conv_scores_once_per_generation(self, spy):
        spec = [conv2d(3, 3), relu_layer(), conv2d(4, 3), relu_layer(),
                flatten_layer(), dense(8), relu_layer(), dense(3)]
        shape = (7, 7, 2)
        net = init_network(spec, shape, seed=3)
        rng = RngStream(4)
        val = Dataset(rng.split("x").normal((24,) + shape),
                      np.asarray(rng.split("y").integers(0, 3, size=24)), 3)
        cfg = SearchConfig(population_size=6, generations=3, validation_batch_size=8,
                           mask_mode="unstructured")
        res = run_search(net, cfg, 0.0, val, RngStream(5).split("s"))
        assert len(spy) == 3
        assert len(res.history) == 18

    def test_desk_search_scores_every_distinct_candidate(self, net16, blob_splits, spy):
        cfg = SearchConfig(population_size=100, generations=5, validation_batch_size=64)
        res = run_search(net16, cfg, 0.6, blob_splits.validation, RngStream(2).split("s"))
        assert len(spy) == 500
        assert len(res.history) == 500

    @pytest.mark.parametrize("eta,mode", [(0.0, "structured"), (0.5, "structured"),
                                          (0.5, "unstructured")])
    def test_every_row_is_the_candidates_own_fitness(self, blob_splits, spy, recorded,
                                                     eta, mode):
        # widths 4 and 3 at eta 0.5 allow 6 x 3 = 18 node masks, so 20
        # candidates must repeat some
        net = init_network([dense(4), relu_layer(), dense(3), relu_layer(),
                            dense(10)], (16,), seed=6)
        cfg = SearchConfig(population_size=20, generations=3, validation_batch_size=32,
                           mask_mode=mode)
        res = run_search(net, cfg, eta, blob_splits.validation, RngStream(7).split("s"))
        assert len(recorded) == 3
        distinct = 0
        for gen, (batch, members, _) in enumerate(recorded, start=1):
            rows = {h.candidate_id: h.fitness for h in res.history if h.generation == gen}
            assert sorted(rows) == sorted(c.candidate_id for c in members)
            keys = set()
            for c in members:
                keys.add(search._mask_key(c.mask))
                # the unpatched fitness, imported before the spy went in
                assert rows[c.candidate_id] == fitness(net, c.mask, batch)
            distinct += len(keys)
        assert len(spy) == distinct
        if mode == "structured":
            assert distinct < len(res.history)

    def test_mask_key_tells_masks_apart(self, net16):
        rng = RngStream(9)
        a = sample_mask(net16.spec, None, 0.5, "structured", rng)
        b = sample_mask(net16.spec, None, 0.5, "structured", rng)
        assert search._mask_key(a) != search._mask_key(b)
        assert search._mask_key(a) == search._mask_key(
            type(a)(a.mode, {i: m.copy() for i, m in a.masks.items()}, a.eta, 0))
        flat = type(a)("unstructured", {i: m.copy() for i, m in a.masks.items()})
        assert search._mask_key(a) != search._mask_key(flat)
