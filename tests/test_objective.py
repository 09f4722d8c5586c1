
import numpy as np
import pytest
from hypothesis import given, strategies as st

from secureftl.nets import init_network
from secureftl.plain import (
    LOG2,
    PartyRows,
    TrainingConfig,
    alignment_spec,
    full_loss,
    label_prototype,
    logistic_dloss_dphi,
    logistic_loss1,
    plaintext_gradients,
    predict_phi,
    taylor_dloss_dphi,
    taylor_loss1,
    threshold_labels,
    transfer_terms,
)

# frozen: log(2) - 1/2 + 1/8 and log(1 + e^-1), computed by hand
TAYLOR_AT_1 = 0.3181471805599453
EXACT_AT_1 = 0.3132616875182228


def test_loss_known_values():
    assert taylor_loss1(1, 1.0) == pytest.approx(TAYLOR_AT_1, abs=1e-15)
    assert logistic_loss1(1, 1.0) == pytest.approx(EXACT_AT_1, abs=1e-15)
    # frozen: log(2) + 1/4 + 1/32
    assert taylor_loss1(-1, 0.5) == pytest.approx(0.9743971805599453, abs=1e-15)
    assert taylor_loss1(1, 0.0) == pytest.approx(LOG2, abs=1e-15)


def test_dloss_known_values():
    assert taylor_dloss_dphi(1, 1.0) == pytest.approx(-0.25)
    assert taylor_dloss_dphi(-1, 0.5) == pytest.approx(0.625)
    assert taylor_dloss_dphi(1, 0.0) == pytest.approx(-0.5)
    # frozen: -sigmoid(-1)
    assert logistic_dloss_dphi(1, 1.0) == pytest.approx(-0.2689414213699951)


@given(st.floats(min_value=-1.0, max_value=1.0),
       st.sampled_from([-1, 1]))
def test_taylor_error_bound(phi, y):
    # second-order expansion around 0: |remainder| <= |phi|^3 / 12 on [-1, 1]
    err = abs(taylor_loss1(y, phi) - logistic_loss1(y, phi))
    assert err <= abs(phi) ** 3 / 12 + 1e-12


@given(st.floats(min_value=-3.0, max_value=3.0),
       st.sampled_from([-1, 1]))
def test_taylor_gradient_consistent(phi, y):
    eps = 1e-6
    numeric = (taylor_loss1(y, phi + eps) - taylor_loss1(y, phi - eps)) / (2 * eps)
    assert taylor_dloss_dphi(y, phi) == pytest.approx(numeric, abs=1e-6)


def test_losses_are_vectorised():
    y = np.array([1, -1, 1])
    phi = np.array([0.2, -0.3, 0.0])
    out = taylor_loss1(y, phi)
    assert out.shape == (3,)
    assert out[2] == pytest.approx(LOG2)


def test_label_prototype():
    u = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]])
    labels = np.array([1, 1, -1, -1])
    expected = (u[0] + u[1] - u[2] - u[3]) / 4
    assert np.allclose(label_prototype(u, labels), expected)


def test_predict_phi_and_threshold():
    prototype = np.array([1.0, -2.0])
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
    phi = predict_phi(prototype, rows)
    assert np.allclose(phi, [1.0, -2.0, 0.0])
    assert np.array_equal(threshold_labels(phi), [1, -1, 1])  # ties go positive


def test_alignment_specs():
    inner = alignment_spec("inner")
    assert inner.kappa == -1 and not inner.has_own_terms
    dist = alignment_spec("distance")
    assert dist.kappa == -2 and dist.has_own_terms
    with pytest.raises(ValueError):
        alignment_spec("cosine")


def test_alignment_row_loss():
    u_a = np.array([[1.0, 2.0]])
    u_b = np.array([[3.0, 1.0]])
    inner = alignment_spec("inner")
    assert inner.row_loss(u_a, u_b)[0] == pytest.approx(-5.0)
    dist = alignment_spec("distance")
    # kappa u_a.u_b + |u_a|^2 + |u_b|^2 = |u_a - u_b|^2
    assert dist.row_loss(u_a, u_b)[0] == pytest.approx(5.0)


def test_objective_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(loss_mode="cubic")
    with pytest.raises(ValueError):
        TrainingConfig(alignment="cosine")


def _brute_force_loss(u_source, labels_source, u_target_c, labels_c,
                      u_source_ab, u_target_ab, norm_a, norm_b, cfg):
    proto = np.zeros(u_source.shape[1])
    for u, y in zip(u_source, labels_source):
        proto += y * u
    proto /= len(u_source)
    pred = 0.0
    for u, y in zip(u_target_c, labels_c):
        phi = float(proto @ u)
        pred += LOG2 - 0.5 * y * phi + 0.125 * (y * phi) ** 2
    spec = alignment_spec(cfg.alignment)
    align = 0.0
    for ua, ub in zip(u_source_ab, u_target_ab):
        align += spec.kappa * float(ua @ ub)
        if spec.has_own_terms:
            align += float(ua @ ua) + float(ub @ ub)
    return pred + cfg.gamma * align + 0.5 * cfg.weight_decay * (norm_a + norm_b)


@pytest.mark.parametrize("alignment", ["inner", "distance"])
def test_transfer_terms_against_brute_force(alignment):
    rng = np.random.default_rng(0)
    d = 3
    u_source = rng.uniform(0, 1, size=(6, d))
    labels_source = rng.choice([-1, 1], size=6)
    u_target_c = rng.uniform(0, 1, size=(4, d))
    labels_c = labels_source[:4]
    u_source_ab = u_source[2:5]
    u_target_ab = rng.uniform(0, 1, size=(3, d))
    cfg = TrainingConfig(gamma=0.07, weight_decay=0.01, alignment=alignment)
    terms = transfer_terms(u_source, labels_source, u_target_c, labels_c,
                           u_source_ab, u_target_ab, 1.5, 2.5, cfg)
    expected = _brute_force_loss(u_source, labels_source, u_target_c, labels_c,
                                 u_source_ab, u_target_ab, 1.5, 2.5, cfg)
    assert terms.loss == pytest.approx(expected, rel=1e-12)


def _fd_check(net, flat_to_loss, grads, rel_tol):
    flat = net.get_flat()
    packed = np.concatenate([np.concatenate([g.weights.ravel(), g.bias])
                             for g in grads])
    eps = 1e-6
    numeric = np.zeros_like(flat)
    for i in range(len(flat)):
        probe = flat.copy()
        probe[i] += eps
        hi = flat_to_loss(probe)
        probe[i] -= 2 * eps
        lo = flat_to_loss(probe)
        numeric[i] = (hi - lo) / (2 * eps)
    scale = np.maximum(np.abs(numeric), 1e-8)
    assert np.max(np.abs(packed - numeric) / scale) < rel_tol


@pytest.mark.parametrize("alignment", ["inner", "distance"])
def test_plaintext_gradients_match_finite_differences(alignment):
    rng = np.random.default_rng(1)
    net_a = init_network([4, 3], seed=0)
    net_b = init_network([3, 3], seed=1)
    x_a = rng.normal(size=(5, 4))
    x_b = rng.normal(size=(4, 3))
    labels_a = rng.choice([-1, 1], size=5)
    rows_a = PartyRows(x_a, np.array([0, 1]), np.array([2, 3]), labels_a)
    rows_b = PartyRows(x_b, np.array([0, 1]), np.array([2, 3]))
    cfg = TrainingConfig(gamma=0.05, weight_decay=0.01, alignment=alignment)
    grads_a, grads_b, _ = plaintext_gradients(net_a, rows_a, net_b, rows_b, cfg)

    def loss_with_a(flat):
        probe = net_a.copy()
        probe.set_flat(flat)
        return full_loss(probe, rows_a, net_b, rows_b, cfg)

    def loss_with_b(flat):
        probe = net_b.copy()
        probe.set_flat(flat)
        return full_loss(net_a, rows_a, probe, rows_b, cfg)

    _fd_check(net_a, loss_with_a, grads_a, 1e-4)
    _fd_check(net_b, loss_with_b, grads_b, 1e-4)
