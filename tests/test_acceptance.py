"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with output visible:  pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

import helpers
from weedout import network, search
from weedout.cli import main
from weedout.data import (load_cifar10_binary, load_idx, sample_batch,
                          split, synthetic_blobs, SplitSpec)
from weedout.errors import FormatError
from weedout.network import (conv2d, default_dense_spec, dense, flatten_layer,
                             init_network, loss_and_grads, maskable_indices,
                             masked_network, relu_layer)
from weedout.numerics import RngStream, round_half_up
from weedout.pipeline import TrainConfig, sweep
from weedout.report import arm_differences, write_report
from weedout.search import SearchConfig, run_search
from weedout.sparsity import reduce_network, resample_mask, sample_mask


def report(num, name, ok, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name} {detail}"


DENSE_SPEC = [dense(12), relu_layer(), dense(10), relu_layer(),
              dense(3)]
CONV_SPEC = [conv2d(4, 3), relu_layer(), conv2d(6, 3), relu_layer(),
             flatten_layer(), dense(10), relu_layer(), dense(3)]
DENSE_SHAPE = (9,)
CONV_SHAPE = (8, 8, 1)


@pytest.fixture(scope="module")
def desk_splits():
    """Desk-scale oracle task; validation split holds 300 >= 256 examples."""
    ds = synthetic_blobs(10, 200, 16, 0.35, seed=0)
    return split(ds, SplitSpec(0.7, 0.15, 0.15, seed=0))


@pytest.fixture(scope="module")
def desk_sweep(tmp_path_factory, desk_splits):
    """The desk-scale experiment: 5 etas x 2 arms x 5 seeds, 20 epochs."""
    out = tmp_path_factory.mktemp("desk") / "sweep"
    splits = desk_splits
    spec = default_dense_spec(10)
    search_cfg = SearchConfig(population_size=100, generations=5,
                              validation_batch_size=256)
    train_cfg = TrainConfig(epochs=20, batch_size=128, lr=0.05, momentum=0.9)
    t0 = time.perf_counter()
    results = sweep(spec, (16,), [0.0, 0.2, 0.4, 0.6, 0.8],
                    ["weedout", "random_baseline"], [0, 1, 2, 3, 4],
                    search_cfg, train_cfg, splits, out)
    elapsed = time.perf_counter() - t0
    assert all(r.status == "completed" for r in results)
    return out, [r.record for r in results], elapsed


def oracle_instance(spec, shape, eta, r):
    """A parent, a structured mask at ``eta`` and a labelled batch of 4."""
    net = init_network(spec, shape, seed=r.spawn_seed())
    mask = sample_mask(spec, None, eta, "structured", r.split("mask"))
    x = r.split("x").normal((4,) + shape)
    y = np.asarray(r.split("y").integers(0, 3, size=4))
    return net, mask, x, y


def test_criterion_1_mask_equivalence_oracle():
    """Reduced network == the masked parent's reference pass, and the pruned
    parent's gradients == the reduced network's, 100+ random triples."""
    t0 = time.perf_counter()
    rng = RngStream(100)
    worst_logit = worst_loss = worst_grad = 0.0
    triples = 0
    incident_ok = True
    for spec, shape in ((DENSE_SPEC, DENSE_SHAPE), (CONV_SPEC, CONV_SHAPE)):
        for eta in (0.2, 0.4, 0.6, 0.8):
            for trial in range(13):
                r = rng.split(f"{len(shape)}d/{eta}/{trial}")
                net, mask, x, y = oracle_instance(spec, shape, eta, r)
                red = reduce_network(net, mask)
                worst_logit = max(worst_logit, helpers.reduced_logit_gap(net, mask, x))

                loss_p, grads_p = loss_and_grads(masked_network(net, mask), x, y)
                loss_r, grads_r = loss_and_grads(red, x, y)
                worst_loss = max(worst_loss, abs(loss_p - loss_r),
                                 abs(helpers.reference_loss(net, mask, x, y) - loss_r))

                sliced = helpers.slice_parent_gradients(net, mask, grads_p)
                for a, b in zip(sliced, grads_r):
                    if a is None:
                        continue
                    worst_grad = max(worst_grad,
                                     float(np.abs(a.weight - b.weight).max()),
                                     float(np.abs(a.bias - b.bias).max()))
                incident_ok &= helpers.masked_incident_zero(net, mask, grads_p)
                triples += 1
    elapsed = time.perf_counter() - t0
    ok = (triples >= 100 and worst_logit < 1e-9 and worst_loss < 1e-9
          and worst_grad < 1e-9 and incident_ok and elapsed < 60)
    report(1, "mask-equivalence oracle", ok,
           f"{triples} triples, max logit diff {worst_logit:.2e}, "
           f"max grad diff {worst_grad:.2e}, incident zeros {incident_ok}, "
           f"{elapsed:.1f}s")


@pytest.mark.parametrize("kernel, spec, shape", [
    ("_conv_forward", CONV_SPEC, CONV_SHAPE), ("_gemm", DENSE_SPEC, DENSE_SHAPE)])
def test_criterion_1_oracle_catches_a_kernel_fault(monkeypatch, kernel, spec, shape):
    """A kernel whose outputs are off by one part in a million moves the
    reduced network's logits away from the reference pass, which shares no
    kernel with it."""
    net, mask, x, _ = oracle_instance(spec, shape, 0.4, RngStream(101))
    real = getattr(network, kernel)
    monkeypatch.setattr(network, kernel, lambda *args: real(*args) * (1 + 1e-6))
    assert helpers.reduced_logit_gap(net, mask, x) > 1e-9


def test_criterion_2_gradient_checks():
    """Backprop vs central finite differences of the reference loss, on the
    parent and on the reduced network of a masked parent.

    Instances whose active pre-activations sit within 10*eps of a relu kink
    are redrawn: a central difference straddling the kink measures the slope
    change, not the gradient, so such points cannot certify anything. The
    differences are taken of the masked parent's reference loss, in which a
    dead node's output is multiplied by zero, and projected onto the reduced
    network's coordinates.
    """
    eps = 1e-5
    rng = RngStream(200)
    worst = 0.0
    instances = 0
    redraws = 0
    for spec, shape, n_cases in ((DENSE_SPEC, DENSE_SHAPE, 12),
                                 (CONV_SPEC, CONV_SHAPE, 8)):
        for trial in range(n_cases):
            for attempt in range(20):
                r = rng.split(f"{len(shape)}d/{trial}/{attempt}")
                net = init_network(spec, shape, seed=r.spawn_seed())
                mask = None if trial % 2 == 0 else \
                    sample_mask(spec, None, 0.4, "structured", r.split("mask"))
                x = r.split("x").normal((4,) + shape)
                y = np.asarray(r.split("y").integers(0, 3, size=4))
                if helpers.kink_distance(net, mask, x) > 10 * eps:
                    break
                redraws += 1
            numeric = helpers.numeric_gradients(net, mask, x, y, eps=eps)
            if mask is None:
                _, analytic = loss_and_grads(net, x, y)
            else:
                _, analytic = loss_and_grads(reduce_network(net, mask), x, y)
                numeric = helpers.slice_parent_gradients(net, mask, numeric)
            worst = max(worst, helpers.max_rel_error(analytic, numeric))
            instances += 1
    ok = instances >= 20 and worst < 1e-6
    report(2, "gradient checks vs finite differences", ok,
           f"{instances} instances ({redraws} kink redraws), "
           f"max relative error {worst:.2e}")


def test_criterion_3_sparsity_exactness():
    """Exact per-layer zero counts and uniform per-node masking frequency."""
    widths = (10, 16, 32, 128)
    spec = []
    for w in widths:
        spec.append(dense(w))
        spec.append(relu_layer())
    spec.append(dense(3))
    layer_idx = maskable_indices(spec)

    counts_ok = True
    freq_ok = True
    ratio_ok = True
    n_freq = 10**4
    for eta in (0.0, 0.2, 0.4, 0.6, 0.8):
        rng = RngStream(int(eta * 10)).split("masks")
        off_totals = {i: np.zeros(spec[i].width) for i in layer_idx}
        for trial in range(n_freq):
            mask = sample_mask(spec, None, eta, "structured", rng)
            for i in layer_idx:
                m = mask.masks[i]
                if trial < 1000:  # the stated count-verification sample
                    counts_ok &= int((m == 0.0).sum()) == \
                        round_half_up(eta * spec[i].width)
                off_totals[i] += m == 0.0
        for i in layer_idx:
            width = spec[i].width
            target = round_half_up(eta * width) / width
            # exact-count sampling pins the ratio to within rounding of eta
            ratio_ok &= abs(target - eta) <= 0.5 / width + 1e-12
            freq_ok &= bool(np.all(np.abs(off_totals[i] / n_freq - target) <= 0.02))

    # the width-10 case where round(eta*width)/width == eta exactly
    rng = RngStream(3).split("w10")
    spec10 = [dense(10), relu_layer(), dense(3)]
    off = np.zeros(10)
    for _ in range(n_freq):
        off += sample_mask(spec10, None, 0.2, "structured", rng).masks[0] == 0.0
    literal_ok = bool(np.all(np.abs(off / n_freq - 0.2) <= 0.02))

    ok = counts_ok and freq_ok and ratio_ok and literal_ok
    report(3, "sparsity exactness and uniformity", ok,
           f"counts exact {counts_ok}, frequency within 0.02 {freq_ok}, "
           f"width-10 literal case {literal_ok}")


def test_criterion_4_search_protocol(desk_splits, monkeypatch):
    """m=100, G=5: budget 500, per-generation argmax, bit-identical elite."""
    spec = default_dense_spec(10)
    net = init_network(spec, (16,), seed=11)
    populations = []  # each generation's candidates and their mask bits, as scored
    real = search._evaluate_population

    def recording(net, population, batch, *args):
        keys = [search._mask_key(c.mask) for c in population]
        populations.append((list(population), keys))
        return real(net, population, batch, *args)

    monkeypatch.setattr(search, "_evaluate_population", recording)
    cfg = SearchConfig(population_size=100, generations=5, validation_batch_size=256)
    res = run_search(net, cfg, 0.4, desk_splits.validation, RngStream(11).split("s"))
    budget_ok = len(res.history) == 500 and len(populations) == 5

    argmax_ok = elite_ok = True
    by_gen = {}
    for h in res.history:
        by_gen.setdefault(h.generation, []).append(h)
    for gen, rows in by_gen.items():
        argmax_ok &= len(rows) == 100
    for gen in (1, 2, 3, 4, 5):
        winner = max(by_gen[gen], key=lambda h: (h.fitness, -h.candidate_id))
        argmax_ok &= all(winner.fitness >= h.fitness for h in by_gen[gen])
        if gen == 5:
            argmax_ok &= res.best.candidate_id == winner.candidate_id
            continue
        nxt = {h.candidate_id: h for h in by_gen[gen + 1]}
        argmax_ok &= winner.candidate_id in nxt and nxt[winner.candidate_id].is_elite
        # elite mask carries over bit-identically
        (population, keys), (following, following_keys) = populations[gen - 1:gen + 1]
        k = [c.candidate_id for c in population].index(winner.candidate_id)
        elite_ok &= following[0].mask is population[k].mask
        elite_ok &= following_keys[0] == keys[k]

    # uniform-logit candidate scores exactly -ln(num_classes)
    zero_net = init_network(spec, (16,), seed=13)
    for p in zero_net.params:
        if p is not None:
            p.weight[:] = 0.0
    batch = sample_batch(desk_splits.validation, 256, RngStream(12).split("b"))
    value = search.fitness(zero_net, resample_mask(spec, None, "structured", 0.0, 0),
                           batch)
    uniform_ok = abs(value - (-math.log(10))) < 1e-9

    ok = budget_ok and argmax_ok and elite_ok and uniform_ok
    report(4, "search protocol (m=100, G=5)", ok,
           f"budget {len(res.history)}, argmax {argmax_ok}, elite {elite_ok}, "
           f"uniform fitness {value:.9f}")


def test_criterion_5_determinism(tmp_path, blob_splits):
    """Identical sweep config at different thread counts: byte-identical CSVs."""
    spec = default_dense_spec(10)
    search_cfg = SearchConfig(population_size=20, generations=3,
                              validation_batch_size=128)
    train_cfg = TrainConfig(epochs=4, batch_size=64, lr=0.05, momentum=0.9)
    args = (spec, (16,), [0.4], ["weedout", "random_baseline"], [0, 1],
            search_cfg, train_cfg, blob_splits)
    a = sweep(*args, tmp_path / "a", parallel=1)
    b = sweep(*args, tmp_path / "b", parallel=4)
    identical = True
    for ra, rb in zip(a, b):
        for name in ("metrics.csv", "search.csv"):
            fa, fb = ra.cell_dir / name, rb.cell_dir / name
            if fa.exists() != fb.exists():
                identical = False
            elif fa.exists():
                identical &= fa.read_bytes() == fb.read_bytes()
    report(5, "byte-identical sweeps across thread counts", identical,
           f"{len(a)} cells compared at parallel=1 vs parallel=4")


def test_criterion_6_monotone_degradation(desk_sweep, tmp_path):
    """Mean final test accuracy non-increasing in eta, up to CI overlap."""
    _, records, elapsed = desk_sweep
    agg, _, _ = write_report(records, tmp_path)
    final_epoch = max(r.epoch for r in agg)
    ok = True
    detail = []
    for arm in ("weedout", "random_baseline"):
        rows = sorted([r for r in agg if r.epoch == final_epoch and r.arm == arm],
                      key=lambda r: r.eta)
        assert [r.eta for r in rows] == [0.0, 0.2, 0.4, 0.6, 0.8]
        assert all(r.n_runs == 5 for r in rows)
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                lhs = rows[i].mean_test_accuracy + rows[i].ci95_test_accuracy
                rhs = rows[j].mean_test_accuracy - rows[j].ci95_test_accuracy
                if lhs < rhs:
                    ok = False
                    detail.append(f"{arm}: eta {rows[i].eta} vs {rows[j].eta}")
        detail.append(f"{arm}: " + " ".join(
            f"{r.eta:g}->{r.mean_test_accuracy:.3f}" for r in rows))
    ok &= elapsed < 1800
    report(6, "monotone degradation with sparsity", ok,
           f"sweep {elapsed:.0f}s; " + "; ".join(detail))


def test_criterion_7_null_result(desk_sweep, capsys):
    """No significant weedout advantage at any eta; the report prints the test."""
    out_dir, records, _ = desk_sweep
    diffs = {d.eta: d for d in arm_differences(records)}
    checked = []
    flagged = []
    for eta in (0.2, 0.4, 0.6, 0.8):
        assert eta in diffs, f"missing arm comparison at eta={eta}"
        d = diffs[eta]
        checked.append(f"{eta:g}:{d.difference:+.4f}(ci {d.pooled_ci95:.4f})")
        if d.significant:
            # flagged, not failed: the verdict must carry the diagnostic
            assert "FLAG" in d.verdict, f"significant diff lacks flag at eta={eta}"
            flagged.append(eta)
    assert main(["report", str(out_dir)]) == 0
    printed = capsys.readouterr().out
    for eta in (0.2, 0.4, 0.6, 0.8):
        assert f"eta={eta:g}:" in printed, f"report does not print the eta={eta} test"
    detail = "within pooled CI at every eta" if not flagged else \
        f"significant difference flagged at eta {flagged}"
    report(7, "null result: weedout vs random baseline", True,
           detail + "; " + " ".join(checked))


def test_criterion_8_fitness_pretraining_argmax(desk_splits):
    """On one fixed batch, the selected candidate's fitness tops the population."""
    spec = default_dense_spec(10)
    net = init_network(spec, (16,), seed=21)
    cfg = SearchConfig(population_size=50, generations=1, validation_batch_size=256)
    res = run_search(net, cfg, 0.6, desk_splits.validation, RngStream(21).split("s"))
    fits = {h.candidate_id: h.fitness for h in res.history}
    best = fits[res.best.candidate_id]
    spread = best - min(fits.values())
    ok = len(fits) == 50 and all(best >= f for f in fits.values()) and spread > 0
    report(8, "pre-training fitness argmax", ok,
           f"population 50, best {best:.4f}, spread {spread:.4f}")


def test_criterion_9_data_ingestion(tmp_path):
    """IDX and CIFAR-10 loaders: byte-exact fixtures and corrupt rejection."""
    gen = np.random.default_rng(9)
    images = gen.integers(0, 256, size=(20, 28, 28), dtype=np.uint8)
    labels = gen.integers(0, 10, size=20, dtype=np.uint8)
    helpers.write_idx_images(tmp_path / "img.idx", images)
    helpers.write_idx_labels(tmp_path / "lbl.idx", labels)
    raw = (tmp_path / "img.idx").read_bytes()
    idx_ok = raw[:4] == b"\x00\x00\x08\x03"  # images magic
    lbl_raw = (tmp_path / "lbl.idx").read_bytes()
    idx_ok &= lbl_raw[:4] == b"\x00\x00\x08\x01"  # labels magic
    ds = load_idx(tmp_path / "img.idx", tmp_path / "lbl.idx", num_classes=10)
    x, y = ds.take(slice(None))
    idx_ok &= x.shape == (20, 28, 28, 1)
    idx_ok &= bool((y >= 0).all() and (y <= 9).all())
    idx_ok &= bool(np.array_equal(np.rint(x[..., 0] * 255), images))

    for corrupt in (raw[:1] + b"\x01" + raw[2:], raw[:40]):
        (tmp_path / "bad.idx").write_bytes(corrupt)
        try:
            load_idx(tmp_path / "bad.idx", tmp_path / "lbl.idx")
            idx_ok = False
        except FormatError:
            pass

    records = np.empty((6, 3073), dtype=np.uint8)
    records[:, 0] = np.arange(6)
    records[:, 1:] = gen.integers(0, 256, size=(6, 3072))
    (tmp_path / "cifar.bin").write_bytes(records.tobytes())
    cds = load_cifar10_binary(tmp_path / "cifar.bin")
    cifar_ok = cds.inputs.shape == (6, 32, 32, 3)
    cifar_ok &= bool(np.array_equal(cds.labels, np.arange(6)))
    (tmp_path / "cifar_bad.bin").write_bytes(records.tobytes() + b"\x00\x01")
    try:
        load_cifar10_binary(tmp_path / "cifar_bad.bin")
        cifar_ok = False
    except FormatError:
        pass

    ok = idx_ok and cifar_ok
    report(9, "binary format ingestion", ok,
           f"idx {idx_ok}, cifar10 {cifar_ok}")
