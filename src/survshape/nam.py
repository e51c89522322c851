"""Additive surrogate network: one small subnetwork per feature.

The model computes per-feature contributions g_k(x_k) and combines them
into an additive log-risk. Three variants exist:

  base      log_risk = sum_k g_k(x_k) + bias
  lasso     log_risk = sum_k beta_k * g_k(x_k) + bias, L1 penalty on beta
  shortcut  log_risk = sum_k [alpha_k * g_k(x_k) + (1 - alpha_k) * omega_k * x_k] + bias,
            L1 penalty on alpha plus an L2 penalty on the subnetwork parameters

Training minimizes the interval-weighted squared distance between the
log-ratio targets and the log-risk, which is convex in the network
outputs. It needs the (n, s+1) target matrix only through three numbers
per row, which TargetBatch keeps in place of the matrix, so every epoch
and mini-batch runs on O(n) arrays. Everything is plain numpy and fully
deterministic for a fixed seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, asdict, dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (DataError, NumericError, TrainingDivergedError, _array, _atomic_open,
                     _config, _field, _integer, _read_json, _real)

# Each variant's mixing heads, in parameter order, with their initial values.
VARIANT_HEADS = {"base": {}, "lasso": {"beta": 1.0}, "shortcut": {"alpha": 0.5, "omega": 0.0}}
VARIANTS = tuple(VARIANT_HEADS)
FORMAT_VERSION = 2  # of the model file; save_model writes it, load_model reads only it
# Rows per block when predict_log_risk runs the network.
_LOG_RISK_BLOCK_ROWS = 256


def _relu(z):
    return np.maximum(z, 0.0, out=z)


def _tanh(z):
    return np.tanh(z, out=z)


def _relu_grad(a):
    return a > 0.0


def _tanh_grad(a):
    d = np.square(a)
    return np.subtract(1.0, d, out=d)


# name -> (activation applied in place to a fresh pre-activation,
#          derivative taken from the activation's output)
ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "relu": (_relu, _relu_grad),
    "tanh": (_tanh, _tanh_grad),
}


# The JSON types load_model accepts for each key of the model file's config block.
_CONFIG_KINDS = {"hidden_sizes": list, "activation": str, "learning_rate": (int, float),
                 "epochs": int, "batch": (int, type(None)), "seed": int, "variant": str}


@dataclass(frozen=True)
class NamConfig:
    """Architecture and optimizer settings shared by all subnetworks."""

    hidden_sizes: tuple[int, ...] = (64, 32)
    activation: str = "relu"
    learning_rate: float = 1e-3
    epochs: int = 2000
    batch: Optional[int] = None  # None = full batch
    seed: int = 0
    variant: str = "base"

    def __post_init__(self):
        try:
            hidden = tuple(_integer(h, "hidden_sizes") for h in self.hidden_sizes)
        except DataError:
            hidden = ()
        if len(hidden) == 0 or any(h < 1 for h in hidden):
            raise DataError("hidden_sizes must be a nonempty list of positive ints")
        object.__setattr__(self, "hidden_sizes", hidden)
        for name in ("epochs", "batch", "seed"):
            value = _integer(getattr(self, name), name, optional=name == "batch")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "learning_rate", _real(self.learning_rate, "learning_rate"))
        if self.activation not in ACTIVATIONS:
            raise DataError(f"unknown activation {self.activation!r}")
        if not self.learning_rate > 0:
            raise DataError("learning_rate must be positive")
        if self.epochs < 1:
            raise DataError("epochs must be >= 1")
        if self.batch is not None and self.batch < 1:
            raise DataError("batch must be a positive int or None")
        if self.variant not in VARIANTS:
            raise DataError(f"unknown variant {self.variant!r}")


@dataclass(frozen=True)
class TargetBatch:
    """Training targets for the additive surrogate, as per-row sufficient statistics.

    Built from x (n, m), the log-ratio targets phi (n, s+1) with
    phi_ij = log H_j(x_i) - log H_0j (epsilon-floored), the interval
    widths tau (s+1,) and kernel weights v (n,), nonnegative and not all 0. For any r,
    sum_j tau_j (phi_ij - r)^2 = (r T - b_i)^2 / T + c_i, so the fit loss
    needs phi only through these, and the matrix is dropped once checked:

    b : (n,) b_i = sum_j tau_j phi_ij
    T : float, sum_j tau_j
    c : (n,) the floor c_i = sum_j tau_j (phi_ij - b_i / T)^2, row i's
        loss at its minimizer r = b_i / T, which no surrogate can remove
    """

    x: np.ndarray
    log_ratios: InitVar[np.ndarray]
    widths: InitVar[np.ndarray]
    weights: np.ndarray
    b: np.ndarray = field(init=False)
    T: float = field(init=False)
    c: np.ndarray = field(init=False)

    def __post_init__(self, log_ratios, widths):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        lr = np.atleast_2d(np.asarray(log_ratios, dtype=float))
        w = np.asarray(widths, dtype=float)
        v = np.asarray(self.weights, dtype=float)
        if lr.shape[0] != x.shape[0]:
            raise DataError("log_ratios must have one row per input row")
        if lr.shape[1] != len(w):
            raise DataError("log_ratios columns must match the number of interval widths")
        if v.shape != (x.shape[0],):
            raise DataError("need one weight per input row")
        for arr, name in ((x, "x"), (lr, "log_ratios"), (w, "widths"), (v, "weights")):
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"non-finite values in {name}")
        if np.any(v < 0):
            raise DataError("weights must be nonnegative")
        if not np.any(v > 0):
            raise DataError("no weight is positive, so no row would be fitted")
        if np.any(w <= 0):
            raise DataError("interval widths must be positive")
        b = lr @ w
        total = float(w.sum())
        spread = lr - (b / total)[:, None]
        np.square(spread, out=spread)
        # Frozen: the fields are set through __dict__, as _rows does.
        self.__dict__.update(x=x, weights=v, b=b, T=total, c=spread @ w)

    @property
    def n(self) -> int:
        return self.x.shape[0]


def _rows(targets: TargetBatch, idx) -> TargetBatch:
    """Rows idx of a batch that has been validated, taken without validating them again."""
    batch = object.__new__(TargetBatch)
    batch.__dict__.update(x=targets.x[idx], weights=targets.weights[idx],
                          b=targets.b[idx], T=targets.T, c=targets.c[idx])
    return batch


@dataclass(frozen=True)
class ShapeCurve:
    """A sampled, centered shape function for one feature."""

    feature: int
    xs: np.ndarray
    values: np.ndarray


class NamModel:
    """Stacked per-feature subnetworks plus the variant mixing heads, over one vector.

    The model is built around theta, a contiguous float64 vector laid out
    by _layout(m, config); theta=None gives a vector of zeros. Every field
    is a view of it: layer_weights[l] of shape (m, fan_in, fan_out) and
    layer_biases[l] of shape (m, fan_out), so one batched matmul runs all m
    subnetworks at once, then the intercept bias (1,) and the variant's
    heads from VARIANT_HEADS, (m,) each; a head the variant lacks is None.
    Writing through a field writes the vector, so training updates all
    parameters in a handful of whole-vector operations. Write the arrays in
    place; rebinding a field would detach it from the vector.
    """

    beta: Optional[np.ndarray] = None
    alpha: Optional[np.ndarray] = None
    omega: Optional[np.ndarray] = None

    def __init__(self, config: NamConfig, m: int, theta: Optional[np.ndarray] = None,
                 feature_names: Optional[Sequence[str]] = None):
        if m < 1:
            raise DataError("need at least one feature")
        names = None if feature_names is None else tuple(feature_names)
        if names is not None and (len(names) != m or not all(isinstance(n, str) for n in names)):
            raise DataError(f"feature_names must be {m} strings")
        self.config = config
        self.m = m
        self.feature_names = names
        self._theta = np.zeros(_param_count(m, config)) if theta is None else theta
        views = self.param_arrays()
        depth = len(config.hidden_sizes) + 1
        self.layer_weights = views[0:2 * depth:2]
        self.layer_biases = views[1:2 * depth:2]
        self.bias = views[2 * depth]
        for name, view in zip(VARIANT_HEADS[config.variant], views[2 * depth + 1:]):
            setattr(self, name, view)

    @property
    def variant(self) -> str:
        return self.config.variant

    def param_arrays(self) -> list[np.ndarray]:
        """All trainable arrays in _layout order, as writable views of the flat vector."""
        return self._views(self._theta)

    def _views(self, vec: np.ndarray) -> list[np.ndarray]:
        """Consecutive slices of vec shaped by _layout, as views."""
        views, offset = [], 0
        for shape in _layout(self.m, self.config):
            size = math.prod(shape)
            views.append(vec[offset:offset + size].reshape(shape))
            offset += size
        return views

    def flatten(self) -> np.ndarray:
        return self._theta.copy()

    def set_flat(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=float)
        if vec.shape != self._theta.shape:
            raise DataError("flat parameter vector has the wrong length")
        self._theta[...] = vec

    def copy(self) -> "NamModel":
        """A copy sharing no memory with this model."""
        return NamModel(self.config, self.m, self._theta.copy(), self.feature_names)


def _layout(m: int, config: NamConfig) -> list[tuple[int, ...]]:
    """The shapes of the arrays in a model's flat vector, in order.

    Each layer's weights (m, fan_in, fan_out) and biases (m, fan_out), the
    intercept (1,), then one (m,) array per head of the variant.
    """
    sizes = (1,) + config.hidden_sizes + (1,)
    shapes = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        shapes += [(m, fan_in, fan_out), (m, fan_out)]
    return shapes + [(1,)] + [(m,)] * len(VARIANT_HEADS[config.variant])


def _param_count(m: int, config: NamConfig) -> int:
    """The flatten() length of a model of m features, computed without building it."""
    return sum(math.prod(shape) for shape in _layout(m, config))


def init_model(m: int, config: NamConfig,
               feature_names: Optional[Sequence[str]] = None) -> NamModel:
    """Fresh model with symmetric scaled-uniform weights, seeded by config.seed.

    The layers' weights are drawn from default_rng(config.seed) in layer
    order; biases and the intercept start at 0 and the heads at their
    VARIANT_HEADS values (beta = 1, alpha = 0.5, omega = 0).
    """
    model = NamModel(config, m, feature_names=feature_names)
    rng = np.random.default_rng(config.seed)
    for w in model.layer_weights:
        limit = np.sqrt(6.0 / (w.shape[1] + w.shape[2]))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    for name, value in VARIANT_HEADS[config.variant].items():
        getattr(model, name)[...] = value
    return model


def _subnet_forward(model: NamModel, x: np.ndarray, keep_cache: bool = False,
                    k: Optional[int] = None):
    """Run the subnetworks on x (n, m); returns g (m, n) and the backprop cache.

    The cache lists each layer's input: x as (m, n, 1) for the first layer,
    a view of x, then each hidden layer's activation output, which
    _backward consumes. Biases and activations are applied in place. With k
    given, only subnetwork k runs, on x of shape (n, 1), and g is (1, n).
    """
    act, _ = ACTIVATIONS[model.config.activation]
    nets = slice(None) if k is None else slice(k, k + 1)
    a = x.T[:, :, None]  # (m, n, 1)
    inputs = []
    last = len(model.layer_weights) - 1
    for l, (w, b) in enumerate(zip(model.layer_weights, model.layer_biases)):
        if keep_cache:
            inputs.append(a)
        # The first layer has fan-in 1: its matmul is a broadcast product.
        z = a * w[nets] if l == 0 else np.matmul(a, w[nets])
        z += b[nets, None, :]
        a = act(z) if l < last else z
    g = a[:, :, 0]  # (m, n)
    return g, inputs


def _combine(model: NamModel, g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Additive log-risk for the variant; g is (m, n), x is (n, m)."""
    if model.variant == "base":
        total = g.sum(axis=0)
    elif model.variant == "lasso":
        total = model.beta @ g
    else:
        linear = (1.0 - model.alpha) * model.omega
        total = model.alpha @ g + x @ linear
    return total + model.bias[0]


def predict_log_risk(model: NamModel, x) -> np.ndarray:
    """Additive log-risk for a batch of rows; usable as a risk score.

    The network runs on blocks that start every _LOG_RISK_BLOCK_ROWS rows,
    so only one block's activations are held. A last block of one row joins
    the block before it, as a one-row matmul takes another BLAS path; each
    row then gets the floats of one unblocked pass.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.m:
        raise DataError(f"expected {model.m} features, got {x.shape[1]}")
    n = x.shape[0]
    out = np.empty(n)
    start = 0
    while start < n:
        stop = n if n - start <= _LOG_RISK_BLOCK_ROWS + 1 else start + _LOG_RISK_BLOCK_ROWS
        rows = x[start:stop]
        out[start:stop] = _combine(model, _subnet_forward(model, rows)[0], rows)
        start = stop
    return out


def _subnet_params(model: NamModel) -> np.ndarray:
    """The subnetworks' weights and biases: the leading slice of the flat vector."""
    return model._theta[:sum(p.size for p in model.layer_weights + model.layer_biases)]


def _penalized_loss(model: NamModel, targets: TargetBatch, lam: float, mu: float,
                    keep_cache: bool = False):
    """Forward pass and the penalized loss; returns (loss, g, log_risk, cache).

    The smooth part is sum_i v_i sum_j (phi_ij - log_risk_i)^2 * tau_j,
    computed from the batch's statistics as
    sum_i v_i [(log_risk_i T - b_i)^2 / T + c_i] (see TargetBatch).
    The lasso variant adds lam * sum|beta|, the shortcut variant
    lam * sum|alpha| + mu * ||subnet parameters||^2.
    Without keep_cache, g and the cache are None and the log-risk comes
    from predict_log_risk's row blocks, with the floats of one pass.
    """
    if lam < 0 or mu < 0:
        raise DataError("regularization strengths must be nonnegative")
    x, v = targets.x, targets.weights
    if x.shape[1] != model.m:
        raise DataError(f"expected {model.m} features, got {x.shape[1]}")
    g, cache = _subnet_forward(model, x, True) if keep_cache else (None, None)
    log_risk = predict_log_risk(model, x) if g is None else _combine(model, g, x)
    e = log_risk * targets.T - targets.b
    loss = float((v @ (e * e)) / targets.T + v @ targets.c)
    if model.variant == "lasso":
        loss += lam * float(np.abs(model.beta).sum())
    elif model.variant == "shortcut":
        loss += lam * float(np.abs(model.alpha).sum())
        if mu > 0.0:
            layers = _subnet_params(model)
            loss += mu * float(layers @ layers)
    return loss, g, log_risk, cache


def _backward(model: NamModel, targets: TargetBatch, lam: float, mu: float,
              g: np.ndarray, log_risk: np.ndarray, inputs, out: np.ndarray) -> np.ndarray:
    """Analytic gradients of _penalized_loss from its forward pass (keep_cache=True).

    At the |.| kink the subgradient 0 is used. The gradient is written into
    the flat vector out, in param_arrays() order, and out is returned. The
    cache is consumed: each entry leaves the list once used, and a hidden
    activation's buffer, once its derivative is taken, holds the next delta.
    """
    x, v = targets.x, targets.weights
    _, act_grad = ACTIVATIONS[model.config.activation]

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
    for w in reversed(model.layer_weights):
        a = inputs.pop()  # this layer's input
        layer_grads += [delta.sum(axis=1), np.matmul(a.transpose(0, 2, 1), delta)]
        if inputs:  # a is a hidden activation: take its derivative, then reuse it
            grad = act_grad(a)
            delta = np.matmul(delta, w.transpose(0, 2, 1), out=a)
            delta *= grad
            del grad  # before the next layer's derivative is taken
    layer_grads.reverse()  # now [dW0, db0, dW1, db1, ...]

    np.concatenate([grad.ravel() for grad in layer_grads + [d_bias] + head_grads], out=out)
    if model.variant == "shortcut" and mu > 0.0:
        layers = _subnet_params(model)
        out[:layers.size] += 2.0 * mu * layers
    return out


def loss_and_gradient(model: NamModel, targets: TargetBatch,
                      lam: float = 0.0, mu: float = 0.0, out: Optional[np.ndarray] = None):
    """Exact loss (see _penalized_loss) and analytic gradients for every trainable array.

    At the |.| kink the subgradient 0 is used. Gradients come back in
    param_arrays() order, as views of one flat vector: out when given (it
    must have model.flatten()'s shape), a new one otherwise. A non-finite
    loss raises NumericError before any gradient is taken.
    """
    loss, g, log_risk, inputs = _penalized_loss(model, targets, lam, mu, keep_cache=True)
    if not np.isfinite(loss):
        raise NumericError("loss is not finite")
    if out is None:
        out = np.empty_like(model._theta)
    return loss, model._views(_backward(model, targets, lam, mu, g, log_risk, inputs, out))


def loss_only(model: NamModel, targets: TargetBatch,
              lam: float = 0.0, mu: float = 0.0) -> float:
    """The loss of _penalized_loss alone: no backprop cache, no gradients."""
    return _penalized_loss(model, targets, lam, mu)[0]


def _adam_step(model: NamModel, grad: np.ndarray, state: np.ndarray, step: int,
               lr: float) -> None:
    """One in-place Adam update of the model's flat parameter vector (step counts from 1).

    state is (4, P): the two moments, then two scratch rows. Per element,
    m1 = b1*m1 + (1-b1)*g, m2 = b2*m2 + ((1-b2)*g)*g and
    theta -= (lr*(m1/scale1)) / (sqrt(m2/scale2) + eps), each a whole-vector
    operation; alpha is then clipped to [0, 1] through its view.
    """
    b1, b2, eps = 0.9, 0.999, 1e-8
    scale1 = 1.0 - b1 ** step
    scale2 = 1.0 - b2 ** step
    moment1, moment2, num, den = state
    moment1 *= b1
    np.multiply(grad, 1.0 - b1, out=num)
    moment1 += num
    moment2 *= b2
    np.multiply(grad, 1.0 - b2, out=num)
    num *= grad
    moment2 += num
    np.divide(moment1, scale1, out=num)
    num *= lr
    np.divide(moment2, scale2, out=den)
    np.sqrt(den, out=den)
    den += eps
    num /= den
    model._theta -= num
    if model.alpha is not None:
        np.clip(model.alpha, 0.0, 1.0, out=model.alpha)


@np.errstate(over="ignore", invalid="ignore")  # every loss is checked for finiteness
def train(model: NamModel, targets: TargetBatch, config: Optional[NamConfig] = None,
          lam: float = 0.0, mu: float = 0.0):
    """Adam optimization for config.epochs; returns (trained model, loss trace).

    Deterministic for fixed seeds. Every step takes its gradient from
    loss_and_gradient into one flat vector and updates the flat parameter
    vector with _adam_step; mini-batches are row slices of targets. The
    trace holds the full-batch loss after each epoch, starting with the
    initial loss. In full-batch mode each entry but the last is the loss
    that loss_and_gradient returns for the next epoch's gradient, so the
    network runs once per epoch; only the entry after the last update
    (and, with mini-batches, every entry) takes a separate loss_only pass.
    If the last epoch is not the best one seen, the best parameters are
    restored, so the final loss never exceeds the initial loss. Raises
    TrainingDivergedError when the loss stops being finite, before any
    gradient is taken from it. The input model is left unchanged.
    """
    cfg = config if config is not None else model.config
    model = model.copy()
    theta = model._theta
    grad = np.empty_like(theta)
    state = np.zeros((4, theta.size))
    lr = cfg.learning_rate
    full_batch = cfg.batch is None or cfg.batch >= targets.n
    batch_rng = np.random.default_rng(cfg.seed + 1)

    def full_batch_pass() -> float:
        """The full-batch loss, with its gradient in grad when the loss is finite."""
        try:
            return loss_and_gradient(model, targets, lam, mu, out=grad)[0]
        except NumericError:
            return loss_only(model, targets, lam, mu)  # the non-finite value, for the trace

    loss = full_batch_pass() if full_batch else loss_only(model, targets, lam, mu)
    trace = [loss]
    if not np.isfinite(loss):
        raise TrainingDivergedError("initial loss is not finite", trace)
    best_loss = loss
    best_theta = theta.copy()

    step = 0
    for epoch in range(cfg.epochs):
        try:
            if full_batch:
                step += 1
                _adam_step(model, grad, state, step, lr)
                if epoch + 1 < cfg.epochs:
                    loss = full_batch_pass()
                else:
                    loss = loss_only(model, targets, lam, mu)
            else:
                order = batch_rng.permutation(targets.n)
                for i in range(0, targets.n, cfg.batch):
                    loss_and_gradient(model, _rows(targets, order[i:i + cfg.batch]),
                                      lam, mu, out=grad)
                    step += 1
                    _adam_step(model, grad, state, step, lr)
                loss = loss_only(model, targets, lam, mu)
        except NumericError as exc:
            raise TrainingDivergedError(
                f"training diverged at epoch {epoch}: {exc}", trace) from exc
        if not np.isfinite(loss):
            raise TrainingDivergedError(
                f"training diverged at epoch {epoch}", trace)
        trace.append(loss)
        if loss < best_loss:
            best_loss = loss
            np.copyto(best_theta, theta)

    if trace[-1] > best_loss:
        theta[...] = best_theta
        trace.append(best_loss)
    return model, trace


def feature_contribution(model: NamModel, k: int, xs) -> np.ndarray:
    """Uncentered contribution of feature k at the given coordinate values."""
    xs = np.asarray(xs, dtype=float).ravel()
    g = _subnet_forward(model, xs[:, None], k=k)[0][0]
    if model.variant == "lasso":
        return model.beta[k] * g
    if model.variant == "shortcut":
        return model.alpha[k] * g + (1.0 - model.alpha[k]) * model.omega[k] * xs
    return g


def shape_curve(model: NamModel, k: int, grid, reference) -> ShapeCurve:
    """Sampled contribution curve for feature k, centered over reference values.

    The curve is shifted so its mean over the reference coordinates is 0;
    a missing or empty reference raises DataError.
    """
    if not 0 <= k < model.m:
        raise DataError(f"feature index {k} out of range")
    xs = np.asarray(grid, dtype=float).ravel()
    if np.any(np.diff(xs) < 0):
        raise DataError("curve grid must be sorted")
    if reference is None or np.size(reference) == 0:
        raise DataError("shape curves need reference values to center on")
    values = feature_contribution(model, k, xs)
    offset = float(np.mean(feature_contribution(model, k, reference)))
    return ShapeCurve(k, xs, values - offset)


def save_model(model: NamModel, path) -> None:
    """Write a versioned JSON checkpoint: config, feature names and count, model.flatten()."""
    payload = {
        "format": "survshape-nam",
        "version": FORMAT_VERSION,
        "config": asdict(model.config),  # fields in declaration order
        "feature_names": None if model.feature_names is None else list(model.feature_names),
        "features": model.m,
        "params": model.flatten().tolist(),
    }
    with _atomic_open(path) as fh:
        fh.write(json.dumps(payload))


def load_model(path) -> NamModel:
    """Read a checkpoint written by save_model; the model is built on its params vector.

    An unreadable file, invalid JSON, another version, a missing or ill-typed
    key, an unknown config key, a config NamConfig rejects and params other
    than the finite numbers the config and feature count need raise DataError.
    """
    payload = _read_json(path, "model")
    if not isinstance(payload, dict) or payload.get("format") != "survshape-nam":
        raise DataError(f"{path}: not a survshape model checkpoint")
    if payload.get("version") != FORMAT_VERSION:
        raise DataError(f"{path}: model file version {payload.get('version')!r} is not "
                        f"supported (this release reads version {FORMAT_VERSION}); "
                        "rerun explain")
    where = f"{path}: model file"
    blob = _field(payload, "config", dict, where)
    names = _field(payload, "feature_names", (list, type(None)), where)
    m = _field(payload, "features", int, where)
    params = _array(payload, "params", "if", where)
    if not np.all(np.isfinite(params)):
        raise DataError(f"{where}'s 'params' holds a non-finite value")
    settings = _config(blob, _CONFIG_KINDS, "model", path, where)
    try:
        cfg = NamConfig(**settings)
        need = _param_count(m, cfg)  # checked first, so nothing is built from a bad count
        if params.size != need:
            raise DataError(f"model file's 'params' has {params.size} values; "
                            f"{m} features with this config need {need}")
        return NamModel(cfg, m, params, names)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
