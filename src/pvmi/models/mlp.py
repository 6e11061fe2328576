"""Two-hidden-layer ReLU network trained with full-batch Adam.

The net maps a standardized input through two ReLU layers into a single
linear output and is trained on the mean squared error with a fixed number
of full-batch Adam steps (learning rate 1e-3, beta1 0.9, beta2 0.999,
eps 1e-8). Weights are drawn from seeded He-style Gaussians so a given
(seed, data) pair always trains to the same parameters.

A fit allocates its arrays once, in a :class:`_Workspace`: one flat buffer
each for the parameters, the gradients, the two Adam moments and two
scratch vectors, with a view per parameter array, and the activation and
ReLU-mask buffers of the training rows (the deltas reuse the activation
buffers). Every step writes into them in place. The operations and their operand order are those of the textbook
update, so an in-place step gives the bits of one that allocates:

* forward: ``z = x @ w + b`` per layer (``matmul(..., out=)``, then the
  bias), ``a = maximum(z, 0)`` and the mask ``a > 0``;
* backward: ``dout = (2/n) * err``; ``dw = a.T @ d``, ``db = d.sum(axis=0)``;
  ``da2 = dout * w3.T``, a broadcast product where the textbook has the
  outer product ``dout @ w3.T`` (the two differ only in the sign of a zero,
  and every reader of the deltas sums from +0.0); ``dz = da * mask``;
* Adam, over the flat buffers: ``m = b1*m + (1-b1)*g``,
  ``v = b2*v + ((1-b2)*g)*g``, ``p = p - lr*m_hat / (sqrt(v_hat) + eps)``.

``loss_and_grads`` runs the same gradient code on a fresh workspace and is
exposed separately so the gradients can be audited against finite
differences.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import check
from .scaling import FeatureScaler

_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8

PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")


def _views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """One view of ``flat`` per parameter array, in ``PARAM_NAMES`` order."""
    views, start = {}, 0
    for name in PARAM_NAMES:
        size = math.prod(shapes[name])
        views[name] = flat[start:start + size].reshape(shapes[name])
        start += size
    return views


def init_params(seed: int, n_in: int, hidden: tuple[int, int]) -> dict[str, np.ndarray]:
    """He-style Gaussian weights, zero biases, from a seeded generator."""
    h1, h2 = hidden
    rng = np.random.default_rng(seed)
    return {
        "w1": rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_in, h1)),
        "b1": np.zeros(h1),
        "w2": rng.normal(0.0, np.sqrt(2.0 / h1), size=(h1, h2)),
        "b2": np.zeros(h2),
        "w3": rng.normal(0.0, np.sqrt(1.0 / h2), size=(h2, 1)),
        "b3": np.zeros(1),
    }


def forward(params: dict[str, np.ndarray], xs: np.ndarray) -> np.ndarray:
    z1 = xs @ params["w1"] + params["b1"]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ params["w2"] + params["b2"]
    a2 = np.maximum(z2, 0.0)
    return (a2 @ params["w3"]).ravel() + params["b3"][0]


class _Workspace:
    """Every array a fit on ``n`` rows writes, allocated once. The deltas
    overwrite the activations once those have been used."""

    def __init__(self, params: dict[str, np.ndarray], n: int):
        shapes = {name: params[name].shape for name in PARAM_NAMES}
        self.flat = np.concatenate([params[name].ravel() for name in PARAM_NAMES])
        self.grad_flat, self.m, self.v, self.tmp, self.den = np.zeros((5, self.flat.size))
        self.params = _views(self.flat, shapes)
        self.grads = _views(self.grad_flat, shapes)
        h1, h2 = shapes["w2"]
        self.a1, self.mask1 = np.empty((n, h1)), np.empty((n, h1), dtype=bool)
        self.a2, self.mask2 = np.empty((n, h2)), np.empty((n, h2), dtype=bool)
        self.out = np.empty((n, 1))

    def gradients(self, xs: np.ndarray, y: np.ndarray) -> float:
        """Fill ``grads`` with the gradient of the mean squared error at
        ``params``, and return that error."""
        p, g, a1, a2, out = self.params, self.grads, self.a1, self.a2, self.out
        np.matmul(xs, p["w1"], out=a1)
        a1 += p["b1"]
        np.maximum(a1, 0.0, out=a1)
        np.greater(a1, 0.0, out=self.mask1)
        np.matmul(a1, p["w2"], out=a2)
        a2 += p["b2"]
        np.maximum(a2, 0.0, out=a2)
        np.greater(a2, 0.0, out=self.mask2)
        np.matmul(a2, p["w3"], out=out)
        err = out[:, 0]
        err += p["b3"][0]
        err -= y
        n = xs.shape[0]
        loss = float(err @ err / n)

        dout = np.multiply(2.0 / n, out, out=out)
        np.matmul(a2.T, dout, out=g["w3"])
        np.sum(dout, axis=0, out=g["b3"])
        d2 = np.multiply(dout, p["w3"].T, out=a2)
        d2 *= self.mask2
        np.matmul(a1.T, d2, out=g["w2"])
        np.sum(d2, axis=0, out=g["b2"])
        d1 = np.matmul(d2, p["w2"].T, out=a1)
        d1 *= self.mask1
        np.matmul(xs.T, d1, out=g["w1"])
        np.sum(d1, axis=0, out=g["b1"])
        return loss

    def adam_step(self, step: int, learning_rate: float) -> None:
        """One Adam update of every parameter from ``grads``."""
        g, m, v, tmp, den = self.grad_flat, self.m, self.v, self.tmp, self.den
        m *= _BETA1
        m += np.multiply(1.0 - _BETA1, g, out=tmp)
        v *= _BETA2
        np.multiply(1.0 - _BETA2, g, out=tmp)
        tmp *= g
        v += tmp
        np.divide(v, 1.0 - _BETA2 ** step, out=den)  # v_hat
        np.sqrt(den, out=den)
        den += _ADAM_EPS
        np.divide(m, 1.0 - _BETA1 ** step, out=tmp)  # m_hat
        tmp *= learning_rate
        tmp /= den
        self.flat -= tmp


def loss_and_grads(params, xs, y):
    """Mean squared error and its gradient for every parameter array."""
    ws = _Workspace(params, xs.shape[0])
    return ws.gradients(xs, y), ws.grads


class MLPRegressor:
    family = "mlp"

    def __init__(self, scaler: FeatureScaler, params: dict[str, np.ndarray],
                 target_mean: float, hidden: tuple[int, int]):
        self.scaler = scaler
        self.params = params
        self.target_mean = float(target_mean)
        self.hidden = tuple(hidden)

    @classmethod
    def fit(cls, inputs: np.ndarray, targets: np.ndarray,
            hidden: tuple[int, int] = (100, 50),
            learning_rate: float = 1e-3,
            iterations: int = 1000,
            seed: int = 0) -> "MLPRegressor":
        hidden = check("hidden", hidden, (int, int))
        learning_rate = check("learning_rate", learning_rate, float)
        iterations, seed = check("iterations", iterations, int, 1), check("seed", seed, int, 0)
        if min(hidden) < 1:
            raise ValueError(f"hidden must be two positive widths, got {hidden}")
        if not 0.0 < learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {learning_rate}")
        scaler = FeatureScaler.fit(inputs)
        xs = scaler.transform(inputs)
        y_mean = targets.mean()
        yc = targets - y_mean

        ws = _Workspace(init_params(seed, xs.shape[1], hidden), xs.shape[0])
        for step in range(1, iterations + 1):
            ws.gradients(xs, yc)
            ws.adam_step(step, learning_rate)
        return cls(scaler, ws.params, y_mean, hidden)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """The network's forecast of each query row; a NaN or infinite entry
        raises ``DataError``."""
        return forward(self.params, self.scaler.transform_queries(x)) + self.target_mean
