"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single [acceptance] line so a full run reads as a
checklist; every tolerance and runtime budget is pinned in the assert.
The longer checks replay the frozen experiment configs under configs/.
"""

import random
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
from conftest import decrypt_raw, multiply

from secureftl.datasets import synth_two_view
from secureftl.encoding import decode_raw, encode
from secureftl.experiments import (
    _make_engine,
    _train_and_eval,
    build_split,
    load_config,
    run_experiment,
)
from secureftl.nets import init_network
from secureftl.paillier import Ciphertext, ciphertext_wire_size, keygen
from secureftl.plain import PartyRows, TrainingConfig, full_loss, plaintext_gradients, train_plain
from secureftl.protocol import audit_training, predict_encrypted, train_encrypted
from secureftl.transport import (
    DIR_SOURCE_TO_TARGET,
    DIR_TARGET_TO_SOURCE,
    measure_cost,
)
from secureftl.trcv import (
    CandidateResult,
    FoldReport,
    make_folds,
    run_trcv,
    self_learning_safeguard,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _report(label: str, ok: bool, detail: str):
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def _read_timing_rows(out_dir: Path) -> list[dict]:
    lines = (out_dir / "timings.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_01_homomorphic_property_suite():
    sk = keygen(512, random.Random(0))
    pk = sk.public
    n = pk.modulus
    rng = random.Random(1)
    started = time.perf_counter()
    for case in range(1000):
        # every case also roundtrips one float through the fixed-point codec
        value = rng.uniform(-1e6, 1e6)
        assert abs(decode_raw(encode(value, 40), 40) - value) <= 2.0 ** -41
        branch = case % 10
        if branch < 4:
            r1 = rng.randrange(-(1 << 500), 1 << 500)
            r2 = rng.randrange(-(1 << 500), 1 << 500)
            total = pk.encrypt_raw(r1, 40, rng) + pk.encrypt_raw(r2, 40, rng)
            assert decrypt_raw(sk, total) == r1 + r2
        elif branch < 7:
            r = rng.randrange(-(1 << 440), 1 << 440)
            # A float exponent holds 53 bits of a 60-bit k, and encodes
            # exactly at 0 fraction bits.
            k = float(rng.randrange(-(1 << 60), 1 << 60))
            assert decrypt_raw(sk, multiply(pk.encrypt_raw(r, 40, rng), k, 0)) == int(k) * r
        elif branch < 9:
            r1, r2 = rng.randrange(n), rng.randrange(n)
            c1 = Ciphertext(pk.encrypt_residue(r1, rng), 0, pk)
            c2 = Ciphertext(pk.encrypt_residue(r2, rng), 0, pk)
            assert sk.decrypt_residue((c1 + c2).value) == (r1 + r2) % n
        else:
            r, k = rng.randrange(n), float(rng.randrange(n))
            ct = Ciphertext(pk.encrypt_residue(r, rng), 0, pk)
            assert sk.decrypt_residue(multiply(ct, k, 0).value) == int(k) * r % n
    elapsed = time.perf_counter() - started
    _report("01 homomorphic-property-suite", elapsed < 30.0,
            f"1000 cases exact, roundtrip <= 2^-41, {elapsed:.1f}s < 30s")


def test_02_gradients_match_finite_differences():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    worst = 0.0
    for idx in range(100):
        d = int(rng.integers(2, 9))
        layers = int(rng.integers(1, 3))
        dims_a = [int(rng.integers(2, 7))] + \
            ([int(rng.integers(2, 7))] if layers == 2 else []) + [d]
        dims_b = [int(rng.integers(2, 7))] + \
            ([int(rng.integers(2, 7))] if layers == 2 else []) + [d]
        n_c = int(rng.integers(2, 17))
        n_ab = int(rng.integers(2, 17))
        net_a = init_network(dims_a, seed=idx)
        net_b = init_network(dims_b, seed=idx + 500)
        x_a = rng.normal(size=(n_c + n_ab, dims_a[0]))
        x_b = rng.normal(size=(n_c + n_ab, dims_b[0]))
        labels_a = rng.choice([-1, 1], size=n_c + n_ab)
        rows_a = PartyRows(x_a, np.arange(n_c), np.arange(n_c, n_c + n_ab), labels_a)
        rows_b = PartyRows(x_b, np.arange(n_c), np.arange(n_c, n_c + n_ab))
        cfg = TrainingConfig(
            gamma=float(rng.uniform(0.01, 0.2)),
            weight_decay=float(rng.uniform(0.0, 0.02)),
            alignment="inner" if idx % 2 else "distance",
            loss_mode="taylor" if idx % 4 < 2 else "exact")
        grads_a, grads_b, _ = plaintext_gradients(net_a, rows_a, net_b, rows_b, cfg)

        for net, other, grads, as_source in ((net_a, net_b, grads_a, True),
                                             (net_b, net_a, grads_b, False)):
            def loss_at(flat):
                probe = net.copy()
                probe.set_flat(flat)
                if as_source:
                    return full_loss(probe, rows_a, other, rows_b, cfg)
                return full_loss(other, rows_a, probe, rows_b, cfg)

            flat = net.get_flat()
            packed = np.concatenate([np.concatenate([g.weights.ravel(), g.bias])
                                     for g in grads])
            eps = 1e-6
            numeric = np.zeros_like(flat)
            for i in range(len(flat)):
                probe = flat.copy()
                probe[i] += eps
                hi = loss_at(probe)
                probe[i] -= 2 * eps
                numeric[i] = (hi - loss_at(probe)) / (2 * eps)
            rel = np.linalg.norm(packed - numeric) / max(np.linalg.norm(numeric), 1e-12)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    _report("02 finite-difference-gradients", worst <= 1e-4 and elapsed < 120.0,
            f"100 instances, worst rel err {worst:.2e} <= 1e-4, {elapsed:.1f}s < 2min")


def test_03_encrypted_matches_plaintext_run():
    started = time.perf_counter()
    split = synth_two_view(n=40, d_source=5, d_target=4, noise=0.05, margin=0.3,
                           n_overlap=8, n_labeled=8, n_eval=8, seed=7)
    cfg_step = TrainingConfig(learning_rate=0.5, max_iterations=1, tolerance=0.0,
                              gamma=0.05, weight_decay=0.005, loss_mode="taylor")

    def trajectory(step):
        net_a = init_network([5, 4], seed=1)
        net_b = init_network([4, 4], seed=2)
        losses, params = [], []
        for _ in range(10):
            losses.extend(step(net_a, net_b))
            params.append(np.concatenate([net_a.get_flat(), net_b.get_flat()]))
        return losses, params

    loss_p, traj_p = trajectory(
        lambda a, b: train_plain(split, a, b, cfg_step).loss_history)
    loss_e, traj_e = trajectory(
        lambda a, b: train_encrypted(split, a, b, cfg_step, key_bits=512,
                                     frac_bits=40, seed=3).result.loss_history)
    loss_gap = max(abs(p - e) for p, e in zip(loss_p, loss_e))
    param_gap = max(float(np.max(np.abs(p - e)))
                    for p, e in zip(traj_p, traj_e))

    # the same ten iterations as one uninterrupted protocol run
    cfg_full = replace(cfg_step, max_iterations=10)
    net_a = init_network([5, 4], seed=1)
    net_b = init_network([4, 4], seed=2)
    full = train_encrypted(split, net_a, net_b, cfg_full, key_bits=512,
                           frac_bits=40, seed=3)
    full_loss_gap = max(abs(p - e) for p, e
                        in zip(loss_p, full.result.loss_history))
    full_param_gap = float(np.max(np.abs(
        np.concatenate([net_a.get_flat(), net_b.get_flat()]) - traj_p[-1])))
    elapsed = time.perf_counter() - started
    ok = (len(loss_e) == len(full.result.loss_history) == 10
          and max(loss_gap, full_loss_gap) <= 1e-5
          and max(param_gap, full_param_gap) <= 1e-5
          and elapsed < 300.0)
    _report("03 encrypted-equals-plaintext", ok,
            f"10 iterations, loss gap {max(loss_gap, full_loss_gap):.1e}, "
            f"param gap {max(param_gap, full_param_gap):.1e} <= 1e-5, "
            f"{elapsed:.0f}s < 5min")


def test_04_quadratic_loss_tracks_exact(tmp_path):
    started = time.perf_counter()
    cfg = load_config(str(CONFIGS / "taylor_vs_exact.cfg"))
    assert (cfg.n, cfg.n_overlap, cfg.gamma, cfg.weight_decay, cfg.seeds) == \
        (500, 250, 0.05, 0.005, 3)
    result = run_experiment(replace(cfg, out_dir=str(tmp_path)))
    decayed = all(float(row["final_loss"]) < float(row["initial_loss"])
                  for row in result.rows)
    gap = result.metrics["f1_gap"]
    elapsed = time.perf_counter() - started
    _report("04 quadratic-loss-fidelity", decayed and gap <= 0.02 and elapsed < 600.0,
            f"both modes decay over 3 seeds, F1 gap {gap:.4f} <= 0.02, "
            f"{elapsed:.0f}s < 10min")


def test_05_transfer_beats_self_learning(tmp_path):
    cfg = load_config(str(CONFIGS / "ftl_vs_self.cfg"))
    assert cfg.n_labeled == 100 and cfg.seeds == 5
    result = run_experiment(replace(cfg, out_dir=str(tmp_path)))
    f1_100 = result.metrics["f1_ftl_taylor"]
    margin = f1_100 - result.metrics["f1_self_lr"]

    bigger = replace(cfg, n_labeled=200)
    scores = []
    for s in range(cfg.seeds):
        split = build_split(bigger, cfg.seed + s)
        _, score = _train_and_eval(bigger, split, cfg.seed + s, _make_engine(bigger),
                                   loss_mode="taylor")
        scores.append(score)
    f1_200 = sum(scores) / len(scores)
    ok = margin >= 0.03 and f1_200 >= f1_100
    _report("05 transfer-beats-self-learning", ok,
            f"F1 {f1_100:.3f} vs LR {result.metrics['f1_self_lr']:.3f} "
            f"(margin {margin:.3f} >= 0.03), 200 labels {f1_200:.3f} >= {f1_100:.3f}")


def test_06_more_overlap_helps(tmp_path):
    cfg = load_config(str(CONFIGS / "overlap_sweep.cfg"))
    assert cfg.sweep == (25, 100, 250) and cfg.seeds == 5
    result = run_experiment(replace(cfg, out_dir=str(tmp_path)))
    scores = [result.metrics[f"f1_overlap_{n}"] for n in cfg.sweep]
    monotone = all(b >= a - 0.01 for a, b in zip(scores, scores[1:]))
    _report("06 overlap-improves-f1", monotone,
            "5-seed means " + " <= ".join(f"{s:.3f}" for s in scores)
            + " (within 0.01)")


def test_07_component_bytes_match_formula():
    ct_bytes = ciphertext_wire_size(512)
    cfg = TrainingConfig(learning_rate=0.2, max_iterations=1, tolerance=0.0,
                         gamma=0.05, weight_decay=0.005, loss_mode="taylor")
    checked = []
    for d in (4, 8):
        for n_c in (8, 32):
            split = synth_two_view(n=80, d_source=5, d_target=4, noise=0.05,
                                   margin=0.3, n_overlap=8, n_labeled=n_c,
                                   n_eval=8, seed=11)
            run = train_encrypted(split, init_network([5, d], seed=1),
                                  init_network([4, d], seed=2), cfg,
                                  key_bits=512, frac_bits=40, seed=5)
            want = n_c * (d * d + d) * ct_bytes
            got = (measure_cost(run.transcript, DIR_SOURCE_TO_TARGET),
                   measure_cost(run.transcript, DIR_TARGET_TO_SOURCE))
            checked.append(want == got[0] == got[1])
    # the published wide-representation figure: 64 units under 1024-bit keys
    width = keygen(1024, random.Random(0)).public.value_width
    formula_d64 = (64 * 64 + 64) * width
    ok = all(checked) and formula_d64 == 1_064_960
    _report("07 component-byte-cost", ok,
            f"4/4 measured = n(d^2+d)x{ct_bytes}B exactly; "
            f"d=64 formula {formula_d64} bytes/sample (~1MB)")


def test_08_runtime_scaling_shapes(tmp_path):
    started = time.perf_counter()
    cfg = load_config(str(CONFIGS / "scaling_sweep.cfg"))
    assert cfg.dim_sweep == (2, 4, 8, 16) and len(cfg.sweep) == 4
    run_experiment(replace(cfg, out_dir=str(tmp_path)))
    rows = _read_timing_rows(tmp_path)
    by_axis = {axis: [(int(r["value"]), float(r["seconds_per_iteration"]))
                      for r in rows if r["axis"] == axis]
               for axis in ("overlap", "dim")}
    x, y = (np.array(v) for v in zip(*sorted(by_axis["overlap"])))
    fit = np.polyval(np.polyfit(x, y, 1), x)
    r_squared = 1.0 - np.sum((y - fit) ** 2) / np.sum((y - y.mean()) ** 2)
    _, dim_y = (np.array(v) for v in zip(*sorted(by_axis["dim"])))
    accelerating = bool(np.all(np.diff(dim_y, 2) > 0))
    elapsed = time.perf_counter() - started
    ok = r_squared >= 0.95 and accelerating and elapsed < 900.0
    _report("08 scaling-shapes", ok,
            f"overlap R^2 {r_squared:.4f} >= 0.95, dim second diffs "
            f"{np.round(np.diff(dim_y, 2), 3).tolist()} > 0, {elapsed:.0f}s < 15min")


def test_09_transfer_cv_mechanics(tmp_path):
    for n, k in ((10, 2), (17, 3), (40, 5), (33, 4)):
        make_folds(np.arange(n), k, seed=n).validate(np.arange(n))
    assert FoldReport([CandidateResult(0, [0.5, 1.0])], 0).mean == 0.75

    cfg = load_config(str(CONFIGS / "trcv_vs_cv.cfg"))
    assert cfg.sweep == (2, 3, 4, 5)
    result = run_experiment(replace(cfg, out_dir=str(tmp_path)))
    trcv_scores = [result.metrics[f"trcv_k{k}"] for k in cfg.sweep]
    separable_perfect = all(s >= 1.0 - 1e-9 for s in trcv_scores)

    # negative-transfer drill: shuffle the source labels outside the small
    # genuinely-labeled pool and count how often the safeguard rejects transfer
    drill_cfg = TrainingConfig(learning_rate=0.5, max_iterations=15,
                               tolerance=0.0, gamma=0.05, weight_decay=0.001,
                               loss_mode="taylor")
    fired = 0
    for seed in range(20):
        split = synth_two_view(n=60, d_source=4, d_target=3, noise=0.05,
                               margin=0.4, n_overlap=24, n_labeled=16,
                               n_eval=12, seed=seed)
        labels = split.labels_source.copy()
        outside = ~np.isin(split.ids_source, split.labeled_ids)
        labels[outside] = np.random.default_rng(seed + 1000).permutation(labels[outside])
        shuffled = replace(split, labels_source=labels)
        report = run_trcv(shuffled, [drill_cfg], k=2, dims_source=[4, 3],
                          dims_target=[3, 3], seed=seed, pretrain_epochs=5)
        x_c = shuffled.x_target[shuffled.target_rows(shuffled.labeled_ids)]
        y_c = shuffled.labels_for(shuffled.labeled_ids)
        decision = self_learning_safeguard(x_c, y_c, report.mean, seed=seed)
        fired += not decision.transfer
    ok = separable_perfect and fired >= 10
    _report("09 transfer-cv-mechanics", ok,
            f"fold invariants hold, separable TrCV means "
            f"{[round(s, 3) for s in trcv_scores]} = 1.0, "
            f"safeguard fired {fired}/20 >= 10")


def test_10_transcript_audit(small_split):
    cfg = TrainingConfig(learning_rate=0.1, max_iterations=3, tolerance=0.0,
                         gamma=0.1, weight_decay=0.01, loss_mode="taylor")
    train = train_encrypted(small_split, init_network([3, 2], seed=4),
                            init_network([2, 2], seed=5), cfg, seed=0)
    train_report = audit_training(train.transcript, train.source, train.target)

    predict = predict_encrypted(small_split, init_network([3, 2], seed=4),
                                init_network([2, 2], seed=5),
                                small_split.eval_ids, seed=1)
    predict_report = audit_training(predict.transcript, predict.server,
                                    predict.requester)
    ok = (train_report.ok and predict_report.ok
          and train_report.blob_sections_checked > 0
          and train_report.masks_checked > 0
          and train_report.ciphertext_frames > 0
          and predict_report.label_frames >= 1)
    issues = train_report.issues + predict_report.issues
    _report("10 transcript-audit", ok,
            f"{train_report.blob_sections_checked} blob sections = mask+applied, "
            f"{train_report.masks_checked + predict_report.masks_checked} masks distinct, "
            f"{predict_report.label_frames} label frame(s); issues: {issues or 'none'}")
