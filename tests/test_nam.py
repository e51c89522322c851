import json
from typing import Optional

import numpy as np
import pytest

from survshape import nam
from survshape.errors import DataError, NumericError, TrainingDivergedError
from survshape.nam import (
    NamConfig,
    NamModel,
    TargetBatch,
    feature_contribution,
    init_model,
    load_model,
    loss_and_gradient,
    loss_only,
    predict_log_risk,
    save_model,
    shape_curve,
    train,
)
from survshape.synthetic import finite_difference_gradient, oracle_psi_star


def small_config(variant="base", seed=0, **kw):
    defaults = dict(hidden_sizes=(8, 4), activation="relu", learning_rate=1e-3,
                    epochs=50, seed=seed, variant=variant)
    defaults.update(kw)
    return NamConfig(**defaults)


def random_batch(rng, n, m, s_plus_1=3):
    return TargetBatch(
        x=rng.uniform(-1, 1, size=(n, m)),
        log_ratios=rng.normal(size=(n, s_plus_1)),
        widths=rng.uniform(0.2, 1.5, size=s_plus_1),
        weights=rng.uniform(0.1, 1.0, size=n),
    )


def randomize_params(model, rng):
    """Move parameters off their symmetric init, keeping heads off the L1 kink."""
    for p in model.param_arrays():
        p += 0.1 * rng.standard_normal(p.shape)
    if model.beta is not None:
        model.beta[...] = rng.uniform(0.5, 1.5, model.m) * rng.choice([-1, 1], model.m)
    if model.alpha is not None:
        model.alpha[...] = rng.uniform(0.2, 0.9, model.m)
        model.omega[...] = rng.normal(size=model.m)


def reference_loss(model: NamModel, x, phi, tau, v, lam: float = 0.0, mu: float = 0.0):
    """The penalized loss from the full (n, s+1) target matrix phi.

    This is the formula TargetBatch's per-row statistics replace, kept as
    the oracle for them.
    """
    resid = phi - predict_log_risk(model, x)[:, None]
    loss = float(np.einsum("i,ij,j->", v, resid * resid, tau))
    if model.variant == "lasso":
        loss += lam * float(np.abs(model.beta).sum())
    elif model.variant == "shortcut":
        loss += lam * float(np.abs(model.alpha).sum())
        if mu > 0.0:
            loss += mu * sum(float(np.sum(a * a))
                             for a in model.layer_weights + model.layer_biases)
    return loss


def reference_train(model: NamModel, targets: TargetBatch, config: Optional[NamConfig] = None,
                    lam: float = 0.0, mu: float = 0.0):
    """Reference Adam loop: a separate loss_only pass after every epoch's update.

    This is train as it was before full-batch epochs took their trace
    loss from the next gradient pass, kept as the oracle for that loop.

    Deterministic for fixed seeds. The trace holds the full-batch loss
    after each epoch, starting with the initial loss. If the last epoch is
    not the best one seen, the best parameters are restored, so the final
    loss never exceeds the initial loss. Raises TrainingDivergedError when
    the loss stops being finite.
    """
    if targets.n == 0:
        raise DataError("cannot train on an empty target batch")
    cfg = config if config is not None else model.config
    model = model.copy()
    params = model.param_arrays()
    moment1 = [np.zeros_like(p) for p in params]
    moment2 = [np.zeros_like(p) for p in params]
    b1, b2, eps = 0.9, 0.999, 1e-8
    lr = cfg.learning_rate
    batch_rng = np.random.default_rng(cfg.seed + 1)

    trace = [loss_only(model, targets, lam, mu)]
    if not np.isfinite(trace[0]):
        raise TrainingDivergedError("initial loss is not finite", trace)
    best_loss = trace[0]
    best_params = [p.copy() for p in params]

    step = 0
    for epoch in range(cfg.epochs):
        if cfg.batch is None or cfg.batch >= targets.n:
            batches = [targets]
        else:
            order = batch_rng.permutation(targets.n)
            batches = [nam._rows(targets, order[i:i + cfg.batch])
                       for i in range(0, targets.n, cfg.batch)]
        try:
            for batch in batches:
                _, grads = loss_and_gradient(model, batch, lam, mu)
                step += 1
                scale1 = 1.0 - b1 ** step
                scale2 = 1.0 - b2 ** step
                for p, grad, m1, m2 in zip(params, grads, moment1, moment2):
                    m1 *= b1
                    m1 += (1.0 - b1) * grad
                    m2 *= b2
                    m2 += (1.0 - b2) * grad * grad
                    p -= lr * (m1 / scale1) / (np.sqrt(m2 / scale2) + eps)
                if model.alpha is not None:
                    np.clip(model.alpha, 0.0, 1.0, out=model.alpha)
            epoch_loss = loss_only(model, targets, lam, mu)
        except NumericError as exc:
            raise TrainingDivergedError(
                f"training diverged at epoch {epoch}: {exc}", trace) from exc
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(
                f"training diverged at epoch {epoch}", trace)
        trace.append(epoch_loss)
        if epoch_loss < best_loss:
            best_loss = epoch_loss
            best_params = [p.copy() for p in params]

    if trace[-1] > best_loss:
        for p, best in zip(params, best_params):
            p[...] = best
        trace.append(best_loss)
    return model, trace


class TestConfig:
    @pytest.mark.parametrize("kwargs, message", [
        (dict(hidden_sizes=(2.9,)), "hidden_sizes must be a nonempty list of positive ints"),
        (dict(hidden_sizes=(4, True)), "hidden_sizes must be a nonempty list of positive ints"),
        (dict(hidden_sizes=("8",)), "hidden_sizes must be a nonempty list of positive ints"),
        (dict(epochs=2.5), "epochs must be an int, got 2.5"),
        (dict(epochs="100"), "epochs must be an int, got '100'"),
        (dict(batch=True), "batch must be an int, got True"),
        (dict(batch=64.0), "batch must be an int, got 64.0"),
        (dict(seed="1"), "seed must be an int, got '1'"),
        (dict(learning_rate="0.1"), "learning_rate must be a real number, got '0.1'"),
        (dict(learning_rate=True), "learning_rate must be a real number, got True"),
    ])
    def test_rejects_non_int_fields(self, kwargs, message):
        with pytest.raises(DataError) as err:
            NamConfig(**kwargs)
        assert str(err.value) == message

    def test_keeps_int_fields(self):
        cfg = NamConfig(hidden_sizes=[np.int64(4), 2], epochs=np.int32(3), batch=None)
        assert cfg.hidden_sizes == (4, 2) and cfg.epochs == 3 and cfg.batch is None
        assert all(type(v) is int for v in cfg.hidden_sizes + (cfg.epochs, cfg.seed))
        assert NamConfig(batch=np.int64(16)).batch == 16
        assert type(NamConfig(learning_rate=np.float32(0.5)).learning_rate) is float


class TestInitAndForward:
    def test_same_seed_identical(self):
        a = init_model(3, small_config(seed=11))
        b = init_model(3, small_config(seed=11))
        assert np.array_equal(a.flatten(), b.flatten())

    def test_subnet_count(self):
        model = init_model(3, small_config())
        assert model.m == 3
        assert len(model.layer_weights) == 3  # two hidden + output
        assert model.layer_weights[0].shape == (3, 1, 8)

    def test_fresh_model_finite(self):
        model = init_model(4, small_config())
        x = np.array([[0.3, -1.0, 2.0, 0.0]])
        assert np.all(np.isfinite(predict_log_risk(model, x)))
        for k in range(4):
            assert np.all(np.isfinite(feature_contribution(model, k, x[:, k])))

    def test_head_initial_values(self):
        lasso = init_model(2, small_config("lasso"))
        assert np.array_equal(lasso.beta, [1.0, 1.0])
        shortcut = init_model(2, small_config("shortcut"))
        assert np.array_equal(shortcut.alpha, [0.5, 0.5])
        assert np.array_equal(shortcut.omega, [0.0, 0.0])
        assert shortcut.bias[0] == 0.0

    def test_zeroed_output_layer_gives_zero(self):
        model = init_model(2, small_config())
        model.layer_weights[-1][...] = 0.0
        model.layer_biases[-1][...] = 0.0
        assert predict_log_risk(model, np.array([[0.7, -0.4]]))[0] == 0.0

    def test_shortcut_pure_linear_path(self):
        model = init_model(3, small_config("shortcut"))
        model.alpha[...] = 0.0
        model.omega[...] = 2.5
        x = np.array([0.1, -0.2, 0.3])
        log_risk = predict_log_risk(model, x[None, :])[0]
        assert log_risk == pytest.approx(2.5 * x.sum() + model.bias[0])

    def test_additivity_single_coordinate(self):
        # Moving x_j moves the log-risk by feature j's contribution change alone.
        rng = np.random.default_rng(3)
        for variant in ("base", "lasso", "shortcut"):
            model = init_model(4, small_config(variant))
            randomize_params(model, rng)
            x = rng.uniform(-1, 1, 4)
            base = predict_log_risk(model, x[None, :])[0]
            for j in range(4):
                x2 = x.copy()
                x2[j] += 0.5
                moved = predict_log_risk(model, x2[None, :])[0] - base
                change = (feature_contribution(model, j, x2[j])[0]
                          - feature_contribution(model, j, x[j])[0])
                assert moved == pytest.approx(change, abs=1e-12)

    def test_dimension_mismatch(self):
        model = init_model(3, small_config())
        with pytest.raises(DataError):
            predict_log_risk(model, np.array([[1.0, 2.0]]))

    @pytest.mark.parametrize("variant", ["base", "lasso", "shortcut"])
    def test_log_risk_recomputable_from_g(self, variant):
        rng = np.random.default_rng(17)
        model = init_model(3, small_config(variant))
        randomize_params(model, rng)
        # The log-risk is the sum of the per-feature contributions plus the bias.
        x = rng.uniform(-1, 1, (6, 3))
        expected = sum(feature_contribution(model, k, x[:, k]) for k in range(3))
        expected = expected + model.bias[0]
        assert np.allclose(predict_log_risk(model, x), expected, rtol=0, atol=1e-12)


def unblocked_log_risk(model: NamModel, x):
    """predict_log_risk as one forward pass over all rows: the oracle for its row blocks."""
    return nam._combine(model, nam._subnet_forward(model, x)[0], x)


class TestBlockedLogRisk:
    """predict_log_risk runs the network in row blocks and keeps every float."""

    @pytest.mark.parametrize("variant", ["base", "lasso", "shortcut"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_bitwise_equal_to_one_pass(self, variant, activation):
        rng = np.random.default_rng(5)
        model = init_model(3, small_config(variant, hidden_sizes=(64, 32),
                                           activation=activation))
        randomize_params(model, rng)
        for n in (1, 2, 255, 256, 257, 511, 512, 513, 700):
            x = rng.normal(size=(n, 3))
            assert predict_log_risk(model, x).tobytes() == unblocked_log_risk(model, x).tobytes()

    def test_zero_rows_give_an_empty_vector(self):
        model = init_model(3, small_config())
        assert predict_log_risk(model, np.empty((0, 3))).shape == (0,)


# The activation derivatives as the reference passes below took them, each
# as a fresh array (tanh's through a second temporary).
REFERENCE_ACTIVATIONS = {"relu": (nam._relu, lambda a: a > 0.0),
                         "tanh": (nam._tanh, lambda a: 1.0 - a ** 2)}


def _reference_subnet_forward(model: NamModel, x: np.ndarray, keep_cache: bool = False,
                              k: Optional[int] = None):
    """Run the subnetworks on x (n, m); returns g (m, n) and the backprop cache.

    The cache lists each layer's input: x as (m, n, 1) for the first layer,
    then each hidden layer's activation output, from which the backward
    pass takes the activation derivative. With k given, only subnetwork k
    runs, on x of shape (n, 1), and g is (1, n).
    """
    act, _ = REFERENCE_ACTIVATIONS[model.config.activation]
    nets = slice(None) if k is None else slice(k, k + 1)
    a = x.T[:, :, None]  # (m, n, 1)
    inputs = []
    last = len(model.layer_weights) - 1
    for l, (w, b) in enumerate(zip(model.layer_weights, model.layer_biases)):
        if keep_cache:
            inputs.append(a)
        # The first layer has fan-in 1: its matmul is a broadcast product.
        z = (a * w[nets] if l == 0 else np.matmul(a, w[nets])) + b[nets, None, :]
        a = act(z) if l < last else z
    g = a[:, :, 0]  # (m, n)
    return g, inputs


def _reference_penalized_loss(model: NamModel, targets: TargetBatch, lam: float, mu: float,
                              keep_cache: bool = False):
    """Forward pass and the penalized loss; returns (loss, g, log_risk, cache).

    The smooth part is sum_i v_i sum_j (phi_ij - log_risk_i)^2 * tau_j,
    computed from the batch's statistics as
    sum_i v_i [(log_risk_i T - b_i)^2 / T + c_i] (see TargetBatch).
    The lasso variant adds lam * sum|beta|, the shortcut variant
    lam * sum|alpha| + mu * ||subnet parameters||^2.
    """
    if lam < 0 or mu < 0:
        raise DataError("regularization strengths must be nonnegative")
    x, v = targets.x, targets.weights
    if x.shape[1] != model.m:
        raise DataError(f"expected {model.m} features, got {x.shape[1]}")
    g, cache = _reference_subnet_forward(model, x, keep_cache)
    log_risk = nam._combine(model, g, x)
    e = log_risk * targets.T - targets.b
    loss = float((v @ (e * e)) / targets.T + v @ targets.c)
    if model.variant == "lasso":
        loss += lam * float(np.abs(model.beta).sum())
    elif model.variant == "shortcut":
        loss += lam * float(np.abs(model.alpha).sum())
        if mu > 0.0:
            layers = nam._subnet_params(model)
            loss += mu * float(layers @ layers)
    return loss, g, log_risk, cache


def _reference_backward(model: NamModel, targets: TargetBatch, lam: float, mu: float,
                        g: np.ndarray, log_risk: np.ndarray, inputs, out: np.ndarray) -> np.ndarray:
    """Analytic gradients of _penalized_loss from its forward pass (keep_cache=True).

    At the |.| kink the subgradient 0 is used. The gradient is written into
    the flat vector out, in param_arrays() order, and out is returned.
    """
    x, v = targets.x, targets.weights
    _, act_grad = REFERENCE_ACTIVATIONS[model.config.activation]

    # d loss / d log_risk
    u = 2.0 * v * (log_risk * targets.T - targets.b)

    m, n = g.shape
    d_bias = np.array([u.sum()])
    if model.variant == "base":
        dg = np.broadcast_to(u, (m, n))
        head_grads = []
    elif model.variant == "lasso":
        dg = model.beta[:, None] * u[None, :]
        d_beta = g @ u + lam * np.sign(model.beta)
        head_grads = [d_beta]
    else:
        dg = model.alpha[:, None] * u[None, :]
        d_alpha = (g - model.omega[:, None] * x.T) @ u + lam * np.sign(model.alpha)
        d_omega = ((1.0 - model.alpha)[:, None] * x.T) @ u
        head_grads = [d_alpha, d_omega]

    # Backpropagate dg through the stacked subnetworks.
    layer_grads: list[np.ndarray] = []
    delta = dg[:, :, None]
    for l in range(len(model.layer_weights) - 1, -1, -1):
        w = model.layer_weights[l]
        dw = np.matmul(inputs[l].transpose(0, 2, 1), delta)
        db = delta.sum(axis=1)
        layer_grads.append(db)
        layer_grads.append(dw)
        if l > 0:
            delta = np.matmul(delta, w.transpose(0, 2, 1))
            delta *= act_grad(inputs[l])
    layer_grads.reverse()  # now [dW0, db0, dW1, db1, ...]

    np.concatenate([grad.ravel() for grad in layer_grads + [d_bias] + head_grads], out=out)
    if model.variant == "shortcut" and mu > 0.0:
        layers = nam._subnet_params(model)
        out[:layers.size] += 2.0 * mu * layers
    return out


def reference_loss_and_gradient(model: NamModel, targets: TargetBatch,
                                lam: float = 0.0, mu: float = 0.0):
    """(loss, flat gradient, forward-only loss) from passes that allocate every array afresh.

    The three functions above are the forward pass, loss and backward pass
    as they were before the passes wrote into their own buffers, kept
    verbatim (but for their names and these derivatives) as the oracle for
    the in-place passes.
    """
    loss, g, log_risk, inputs = _reference_penalized_loss(model, targets, lam, mu,
                                                          keep_cache=True)
    grad = _reference_backward(model, targets, lam, mu, g, log_risk, inputs,
                               np.empty_like(model.flatten()))
    return loss, grad, _reference_penalized_loss(model, targets, lam, mu)[0]


class TestInPlacePasses:
    """The passes reuse their buffers and keep every float of the reference passes."""

    @pytest.mark.parametrize("variant", ["base", "lasso", "shortcut"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("hidden", [(64, 32), (8, 4), (16,)])
    def test_bitwise_equal_to_reference(self, variant, activation, hidden):
        rng = np.random.default_rng(41)
        model = init_model(3, small_config(variant, hidden_sizes=hidden,
                                           activation=activation))
        randomize_params(model, rng)
        lam, mu = 0.3, 0.05
        for n in (1, 2, 64, 257, 700):
            targets = random_batch(rng, n, 3)
            x_before = targets.x.tobytes()
            half = nam._rows(targets, rng.permutation(n)[:(n + 1) // 2])
            for batch in (targets, half):
                loss, grad, forward_only = reference_loss_and_gradient(model, batch, lam, mu)
                got_loss, got_grads = loss_and_gradient(model, batch, lam, mu)
                assert got_loss == loss
                got = np.concatenate([g.ravel() for g in got_grads])
                assert got.tobytes() == grad.tobytes()  # bit for bit, signed zeros too
                assert loss_only(model, batch, lam, mu) == forward_only
            # The cache's first entry is a view of x; the backward pass only reads it.
            assert targets.x.tobytes() == x_before


class TestLossAndGradient:
    def test_perfect_fit_zero_loss(self):
        model = init_model(2, small_config())
        model.layer_weights[-1][...] = 0.0
        model.layer_biases[-1][...] = 0.0
        targets = TargetBatch(np.zeros((4, 2)), np.zeros((4, 3)),
                              np.ones(3), np.ones(4))
        loss, _ = loss_and_gradient(model, targets)
        assert loss == 0.0

    def test_single_cell_hand_value(self):
        # one example, one interval, weight 1, width 2, target 3, output 1
        model = init_model(1, small_config())
        model.layer_weights[-1][...] = 0.0
        model.layer_biases[-1][...] = 0.0
        model.bias[0] = 1.0
        targets = TargetBatch(np.zeros((1, 1)), np.full((1, 1), 3.0),
                              np.array([2.0]), np.ones(1))
        loss, _ = loss_and_gradient(model, targets)
        assert loss == pytest.approx((3.0 - 1.0) ** 2 * 2.0)

    def test_nonfinite_inputs_raise(self):
        with pytest.raises(NumericError):
            TargetBatch(np.array([[np.nan]]), np.ones((1, 2)), np.ones(2), np.ones(1))

    def test_needs_a_positive_weight(self):
        x, phi, tau = np.zeros((3, 1)), np.ones((3, 2)), np.ones(2)
        for weights in (np.zeros(3), np.zeros(0)):
            with pytest.raises(DataError, match="no weight is positive"):
                TargetBatch(x[:len(weights)], phi[:len(weights)], tau, weights)
        # Row slices of a checked batch are not checked again, zero weights or not.
        targets = TargetBatch(x, phi, tau, np.array([0.0, 0.0, 1.0]))
        assert nam._rows(targets, slice(0, 2)).weights.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("variant", ["base", "lasso", "shortcut"])
    def test_gradient_matches_finite_differences(self, variant):
        for seed in range(3):
            rng = np.random.default_rng(100 + seed)
            m = int(rng.integers(1, 5))
            model = init_model(m, small_config(variant, seed=seed))
            randomize_params(model, rng)
            targets = random_batch(rng, n=6, m=m)
            lam = 0.3 if variant != "base" else 0.0
            mu = 0.05 if variant == "shortcut" else 0.0
            _, grads = loss_and_gradient(model, targets, lam, mu)
            analytic = np.concatenate([g.ravel() for g in grads])

            probe = model.copy()

            def flat_loss(vec):
                probe.set_flat(vec)
                return loss_only(probe, targets, lam, mu)

            numeric = finite_difference_gradient(flat_loss, model.flatten(), h=1e-6)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-2)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-4

    def test_smooth_loss_nonnegative(self):
        # quadratic in the outputs: never below zero for lam = mu = 0
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            model = init_model(2, small_config(seed=seed))
            randomize_params(model, rng)
            loss, _ = loss_and_gradient(model, random_batch(rng, 7, 2))
            assert loss >= 0.0

    def test_gradient_order_matches_param_arrays(self):
        rng = np.random.default_rng(5)
        model = init_model(2, small_config("shortcut"))
        randomize_params(model, rng)
        targets = random_batch(rng, 5, 2)
        _, grads = loss_and_gradient(model, targets, 0.1, 0.01)
        params = model.param_arrays()
        assert len(grads) == len(params)
        for g, p in zip(grads, params):
            assert g.shape == p.shape


class TestSufficientStatistics:
    @pytest.mark.parametrize("variant", ["base", "lasso", "shortcut"])
    @pytest.mark.parametrize("s_plus_1", [1, 5])
    def test_loss_matches_matrix_formula(self, variant, s_plus_1):
        rng = np.random.default_rng(41)
        n, m = 11, 3
        x = rng.uniform(-1, 1, (n, m))
        phi = rng.normal(size=(n, s_plus_1))
        tau = rng.uniform(0.2, 1.5, s_plus_1)
        v = rng.uniform(0.1, 1.0, n)
        v[[2, 7]] = 0.0
        targets = TargetBatch(x, phi, tau, v)
        model = init_model(m, small_config(variant))
        randomize_params(model, rng)
        for idx in (slice(None), np.array([7, 0, 4, 2]), np.array([5])):
            got = loss_only(model, nam._rows(targets, idx), 0.3, 0.05)
            expected = reference_loss(model, x[idx], phi[idx], tau, v[idx], 0.3, 0.05)
            assert got == pytest.approx(expected, rel=1e-12, abs=0)

    def test_bias_gradient_vanishes_at_weighted_mean(self):
        # With a zero output layer the log-risk is the bias for every row, and
        # the loss is smallest at bias = sum_i v_i b_i / (T sum_i v_i).
        rng = np.random.default_rng(43)
        targets = random_batch(rng, 8, 2, s_plus_1=5)
        model = init_model(2, small_config())
        model.layer_weights[-1][...] = 0.0
        model.layer_biases[-1][...] = 0.0
        model.bias[0] = (targets.weights @ targets.b) / (targets.T * targets.weights.sum())
        _, grads = loss_and_gradient(model, targets)
        assert abs(grads[-1][0]) <= 1e-13 * float(targets.weights @ np.abs(targets.b))

    def test_batch_keeps_only_row_statistics(self):
        rng = np.random.default_rng(42)
        phi = rng.normal(size=(6, 4))
        tau = rng.uniform(0.2, 1.5, 4)
        targets = TargetBatch(rng.uniform(-1, 1, (6, 2)), phi, tau, np.ones(6))
        assert set(vars(targets)) == {"x", "weights", "b", "T", "c"}
        assert targets.b.shape == targets.c.shape == (6,)
        assert targets.b / targets.T == pytest.approx(oracle_psi_star(phi, tau), rel=1e-12)
        floor = ((phi - oracle_psi_star(phi, tau)[:, None]) ** 2) @ tau
        assert targets.c == pytest.approx(floor, rel=1e-12)


class TestTrain:
    def test_constant_target_convergence(self):
        rng = np.random.default_rng(0)
        c = 1.7
        targets = TargetBatch(rng.uniform(-1, 1, (12, 1)), np.full((12, 4), c),
                              np.ones(4), np.ones(12))
        cfg = small_config(epochs=800, learning_rate=5e-2)
        model, trace = train(init_model(1, cfg), targets, cfg)
        fitted = predict_log_risk(model, targets.x)
        assert np.max(np.abs(fitted - c)) < 0.01
        assert all(np.isfinite(trace))
        assert trace[-1] <= trace[0]

    def test_weight_scaling_leaves_argmin(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (10, 2))
        phi = rng.normal(size=(10, 3))
        tau = np.array([1.0, 0.5, 0.2])
        cfg = small_config(epochs=600, learning_rate=2e-2)
        t1 = TargetBatch(x, phi, tau, np.full(10, 0.5))
        t2 = TargetBatch(x, phi, tau, np.full(10, 1.0))
        m1, _ = train(init_model(2, cfg), t1, cfg)
        m2, _ = train(init_model(2, cfg), t2, cfg)
        assert np.max(np.abs(predict_log_risk(m1, x) - predict_log_risk(m2, x))) < 0.01

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        targets = random_batch(rng, 8, 2)
        cfg = small_config(epochs=40)
        m1, tr1 = train(init_model(2, cfg), targets, cfg)
        m2, tr2 = train(init_model(2, cfg), targets, cfg)
        assert np.array_equal(m1.flatten(), m2.flatten())
        assert tr1 == tr2

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_raises_with_trace(self):
        rng = np.random.default_rng(3)
        targets = random_batch(rng, 6, 1)
        cfg = small_config(epochs=20)
        model = init_model(1, cfg)
        model.layer_weights[0][...] = 1e300  # overflow on the first forward pass
        model.layer_weights[-1][...] = 1e300
        with pytest.raises(TrainingDivergedError) as err:
            train(model, targets, cfg)
        assert isinstance(err.value.trace, list)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_minibatch_overflow_raises_with_only_the_initial_loss(self):
        # The first Adam step moves every parameter by about 1e300, so the
        # second mini-batch's loss is not finite.
        rng = np.random.default_rng(3)
        targets = random_batch(rng, 20, 2)
        cfg = small_config(epochs=5, learning_rate=1e300, batch=8)
        model = init_model(2, cfg)
        initial = loss_only(model, targets)
        with pytest.raises(TrainingDivergedError) as err:
            train(model, targets, cfg)
        assert str(err.value) == "training diverged at epoch 0: loss is not finite"
        assert err.value.trace == [initial]

    def test_minibatch_mode_runs(self):
        rng = np.random.default_rng(4)
        targets = random_batch(rng, 10, 2)
        cfg = small_config(epochs=30, batch=4)
        model, trace = train(init_model(2, cfg), targets, cfg)
        assert len(trace) >= 31

    def test_trained_to_per_example_minimizer(self):
        rng = np.random.default_rng(5)
        n = 15
        x = np.sort(rng.uniform(-1, 1, n)).reshape(-1, 1)
        phi = np.sin(2.0 * x) + rng.normal(scale=0.01, size=(n, 3))
        tau = np.array([0.5, 1.0, 0.25])
        targets = TargetBatch(x, phi, tau, np.ones(n))
        star = oracle_psi_star(phi, tau)
        cfg = small_config(hidden_sizes=(32, 16), epochs=3000, learning_rate=1e-2)
        model, _ = train(init_model(1, cfg), targets, cfg)
        rmse = float(np.sqrt(np.mean((predict_log_risk(model, x) - star) ** 2)))
        assert rmse < 0.05

    def test_lasso_sparsity_direction(self):
        rng = np.random.default_rng(6)
        n = 30
        x = rng.uniform(-1, 1, (n, 3))
        # Only feature 0 drives the targets.
        phi = np.tile((2.0 * x[:, 0])[:, None], (1, 2))
        tau = np.ones(2)
        targets = TargetBatch(x, phi, tau, np.ones(n))
        counts = []
        for lam in (0.1, 1.0, 10.0, 100.0):
            cfg = small_config("lasso", epochs=1500, learning_rate=1e-2)
            model, _ = train(init_model(3, cfg), targets, cfg, lam=lam)
            counts.append(int(np.sum(np.abs(model.beta) < 1e-2)))
        assert counts == sorted(counts)


def count_calls(monkeypatch, name):
    """Wrap survshape.nam.<name> so each call is counted; returns the count list."""
    calls = []
    original = getattr(nam, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(nam, name, counted)
    return calls


class TestFusedTrainingLoop:
    """train against reference_train, the loop with one loss_only pass per epoch."""

    @pytest.mark.parametrize("variant, activation, lam, mu, batch", [
        ("base", "relu", 0.0, 0.0, None),
        ("base", "tanh", 0.0, 0.0, 9),
        ("lasso", "relu", 0.3, 0.0, None),
        ("lasso", "tanh", 0.3, 0.0, 12),
        ("shortcut", "relu", 0.2, 0.05, 9),
        ("shortcut", "tanh", 0.2, 0.05, None),
        ("shortcut", "relu", 0.0, 0.0, None),
        ("shortcut", "tanh", 0.1, 0.01, 4),  # mini-batches
        ("lasso", "relu", 0.3, 0.0, 4),
        ("shortcut", "relu", 0.2, 0.05, 3),
        ("base", "tanh", 0.0, 0.0, 5),  # the last batch holds 4 rows
        ("base", "relu", 0.0, 0.0, 1),
    ])
    def test_matches_reference_bit_for_bit(self, variant, activation, lam, mu, batch):
        rng = np.random.default_rng(31)
        targets = random_batch(rng, 9, 3)
        cfg = small_config(variant, activation=activation, epochs=40,
                           learning_rate=1e-2, batch=batch)
        model = init_model(3, cfg)
        got, trace = train(model, targets, cfg, lam, mu)
        expected, expected_trace = reference_train(model, targets, cfg, lam, mu)
        assert got.flatten().tobytes() == expected.flatten().tobytes()
        assert trace == expected_trace
        assert len(trace) in (41, 42)

    @pytest.mark.parametrize("batch", [None, 4])
    def test_input_model_unchanged(self, batch):
        rng = np.random.default_rng(32)
        targets = random_batch(rng, 9, 3)
        cfg = small_config("shortcut", epochs=10, learning_rate=1e-2, batch=batch)
        model = init_model(3, cfg)
        before = model.flatten()
        trained, _ = train(model, targets, cfg, 0.1, 0.01)
        assert model.flatten().tobytes() == before.tobytes()
        assert trained.flatten().tobytes() != before.tobytes()

    def test_gradient_fills_out(self):
        rng = np.random.default_rng(33)
        model = init_model(2, small_config("lasso"))
        randomize_params(model, rng)
        targets = random_batch(rng, 5, 2)
        out = np.full(model.flatten().size, np.nan)
        _, grads = loss_and_gradient(model, targets, 0.1, 0.0, out=out)
        _, fresh = loss_and_gradient(model, targets, 0.1, 0.0)
        assert all(np.shares_memory(g, out) for g in grads)
        assert out.tobytes() == np.concatenate([g.ravel() for g in fresh]).tobytes()

    def test_trained_model_copies_and_round_trips_exactly(self, tmp_path):
        rng = np.random.default_rng(34)
        targets = random_batch(rng, 9, 3)
        cfg = small_config("shortcut", epochs=15, learning_rate=1e-2, batch=4)
        model, _ = train(init_model(3, cfg), targets, cfg, 0.1, 0.01)
        flat = model.flatten()
        # The fields are views of one vector, laid out in param_arrays() order.
        assert flat.tobytes() == np.concatenate(
            [p.ravel() for p in model.param_arrays()]).tobytes()

        twin = model.copy()
        assert twin.flatten().tobytes() == flat.tobytes()
        for mine in model.param_arrays() + [model.flatten()]:
            for theirs in twin.param_arrays():
                assert not np.shares_memory(mine, theirs)
        twin.alpha[0] = 0.0
        twin.layer_weights[0][...] = 7.0
        assert model.flatten().tobytes() == flat.tobytes()

        blank = init_model(3, cfg)
        blank.set_flat(flat)
        assert blank.flatten().tobytes() == flat.tobytes()
        assert blank.alpha.tobytes() == model.alpha.tobytes()
        with pytest.raises(DataError):
            blank.set_flat(flat[:-1])

        save_model(model, tmp_path / "nam.json")
        loaded = load_model(tmp_path / "nam.json")
        assert loaded.flatten().tobytes() == flat.tobytes()

    def test_restored_best_loss_matches_reference(self):
        # A learning rate this large overshoots, so the last epoch is not the
        # best and the restored best loss is appended to the trace.
        rng = np.random.default_rng(12)
        targets = random_batch(rng, 8, 2)
        cfg = small_config(epochs=25, learning_rate=0.2)
        model = init_model(2, cfg)
        got, trace = train(model, targets, cfg)
        expected, expected_trace = reference_train(model, targets, cfg)
        assert len(trace) == 27 and trace[-2] > trace[-1] == min(trace)
        assert got.flatten().tobytes() == expected.flatten().tobytes()
        assert trace == expected_trace

    def test_one_forward_pass_per_full_batch_epoch(self, monkeypatch):
        rng = np.random.default_rng(13)
        targets = random_batch(rng, 7, 2)
        epochs = 12
        cfg = small_config("lasso", epochs=epochs)
        forward = count_calls(monkeypatch, "_penalized_loss")
        trace_passes = count_calls(monkeypatch, "loss_only")
        _, trace = train(init_model(2, cfg), targets, cfg, lam=0.1)
        assert len(forward) == epochs + 1
        assert len(trace_passes) <= 1
        assert len(trace) >= epochs + 1

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nonfinite_initial_loss_same_error(self, monkeypatch):
        rng = np.random.default_rng(3)
        targets = random_batch(rng, 6, 1)
        cfg = small_config(epochs=20)
        model = init_model(1, cfg)
        model.layer_weights[0][...] = 1e300
        model.layer_weights[-1][...] = 1e300
        with pytest.raises(TrainingDivergedError) as expected:
            reference_train(model, targets, cfg)
        backward = count_calls(monkeypatch, "_backward")
        with pytest.raises(TrainingDivergedError) as got:
            train(model, targets, cfg)
        assert str(got.value) == str(expected.value) == "initial loss is not finite"
        assert len(got.value.trace) == 1 and not np.isfinite(got.value.trace[0])
        assert repr(got.value.trace) == repr(expected.value.trace)
        assert backward == []

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("variant, learning_rate, epoch", [
        ("base", 1e55, 0),
        ("shortcut", 1e44, 1),
    ])
    def test_divergence_mid_training_same_error(self, monkeypatch, variant,
                                                learning_rate, epoch):
        rng = np.random.default_rng(3)
        targets = random_batch(rng, 6, 2)
        cfg = small_config(variant, epochs=30, learning_rate=learning_rate)
        model = init_model(2, cfg)
        with pytest.raises(TrainingDivergedError) as expected:
            reference_train(model, targets, cfg)
        backward = count_calls(monkeypatch, "_backward")
        with pytest.raises(TrainingDivergedError) as got:
            train(model, targets, cfg)
        assert str(got.value) == str(expected.value) == f"training diverged at epoch {epoch}"
        assert got.value.trace == expected.value.trace
        assert len(got.value.trace) == epoch + 1
        # One backward pass per update; none on the non-finite loss.
        assert len(backward) == epoch + 1


class TestShapeCurve:
    def test_centering_mean_zero(self):
        rng = np.random.default_rng(7)
        model = init_model(2, small_config())
        randomize_params(model, rng)
        reference = rng.uniform(-1, 1, 40)
        curve = shape_curve(model, 0, np.linspace(-1, 1, 21), reference)
        recentered = shape_curve(model, 0, np.sort(reference), reference)
        assert float(np.mean(recentered.values)) == pytest.approx(0.0, abs=1e-10)

    def test_lasso_zero_coefficient_flat(self):
        model = init_model(2, small_config("lasso"))
        model.beta[0] = 0.0
        curve = shape_curve(model, 0, np.linspace(-1, 1, 11), np.zeros(3))
        assert np.allclose(curve.values, 0.0)

    def test_shortcut_alpha_zero_is_linear(self):
        rng = np.random.default_rng(8)
        model = init_model(2, small_config("shortcut"))
        randomize_params(model, rng)
        model.alpha[1] = 0.0
        model.omega[1] = 1.3
        xs = np.linspace(-2, 2, 9)
        curve = shape_curve(model, 1, xs, xs)
        slopes = np.diff(curve.values) / np.diff(xs)
        assert np.allclose(slopes, 1.3, atol=1e-12)

    def test_empty_reference_flagged(self):
        model = init_model(1, small_config())
        for reference in ([], None):
            with pytest.raises(DataError, match="reference"):
                shape_curve(model, 0, np.linspace(0, 1, 5), reference)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        model = init_model(3, small_config("shortcut", seed=4),
                           feature_names=("a", "b", "c"))
        randomize_params(model, rng)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.flatten(), model.flatten())
        assert loaded.feature_names == ("a", "b", "c")
        assert loaded.config == model.config
        x = rng.uniform(-1, 1, (5, 3))
        assert np.array_equal(predict_log_risk(loaded, x), predict_log_risk(model, x))

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("variant", ["base", "lasso", "shortcut"])
    def test_roundtrip_is_exact_for_every_variant(self, variant, activation, tmp_path):
        rng = np.random.default_rng(19)
        cfg = small_config(variant, seed=2, activation=activation, batch=16)
        model = init_model(2, cfg, feature_names=("age", "cell=a&b, c"))
        randomize_params(model, rng)
        save_model(model, tmp_path / "model.json")
        payload = json.loads((tmp_path / "model.json").read_text())
        assert payload["version"] == 2 and payload["features"] == 2
        assert len(payload["params"]) == model.flatten().size == nam._param_count(2, cfg)
        loaded = load_model(tmp_path / "model.json")
        assert loaded.flatten().tobytes() == model.flatten().tobytes()
        assert loaded.config == model.config
        assert loaded.feature_names == model.feature_names
        nameless = init_model(3, cfg)
        save_model(nameless, tmp_path / "model.json")
        assert load_model(tmp_path / "model.json").feature_names is None

    def test_param_count_is_checked_before_the_model_is_built(self, tmp_path):
        model = init_model(2, small_config())
        save_model(model, tmp_path / "model.json")
        payload = json.loads((tmp_path / "model.json").read_text())
        # Building this model would take terabytes.
        payload["config"]["hidden_sizes"] = [10 ** 6, 10 ** 6]
        (tmp_path / "model.json").write_text(json.dumps(payload))
        need = nam._param_count(2, NamConfig(hidden_sizes=(10 ** 6, 10 ** 6)))
        with pytest.raises(DataError, match=f"has {model.flatten().size} values; "
                                             f"2 features with this config need {need}$"):
            load_model(tmp_path / "model.json")

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(DataError):
            load_model(path)
