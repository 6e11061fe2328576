"""Two-hidden-layer ReLU network trained with full-batch Adam.

The net maps a standardized input through two ReLU layers into a single
linear output and is trained on the mean squared error with a fixed number
of full-batch Adam steps (learning rate 1e-3, beta1 0.9, beta2 0.999,
eps 1e-8). Weights are drawn from seeded He-style Gaussians so a given
(seed, data) pair always trains to the same parameters.

A fit trains in float32 and returns its parameters as float64; ``predict``
(through :func:`forward`) runs in float64 on them.

A fit allocates its arrays once, in a :class:`_Workspace` of one dtype. Its
flat parameter buffer holds each layer's bias folded into the layer's
weight matrix as a last row, ``[w1; b1]``, ``[w2; b2]`` and ``[w3; b3]``,
with a named view of every weight and bias; the gradients and the two Adam
moments have flat buffers of the same layout. The inputs and both
activation buffers carry a trailing column of ones, so each bias add is
part of a matmul and each bias gradient part of its weight gradient. The
pre-activations and the deltas share a plain buffer per layer, so every
matmul reads and writes arrays laid out as an allocating loop's would be
(BLAS may round a strided operand differently). Every step writes in place:

* forward: ``z = [a_prev, 1] @ [w; b]``, ``a = maximum(z, 0)`` and the mask
  ``z > 0`` per hidden layer; the residual is ``[a2, 1] @ [w3; b3] - y``;
* backward: ``dout = (2/n) * err``; ``[dw; db] = [a_prev, 1].T @ d`` per
  layer; ``da2 = dout * w3.T``, a broadcast product where the textbook has
  the outer product ``dout @ w3.T`` (the two differ only in the sign of a
  zero, and every reader of the deltas sums from +0.0); ``dz = da * mask``;
* Adam, over the flat buffers: ``m = b1*m + (1-b1)*g``,
  ``v = b2*v + ((1-b2)*g)*g``, and, with the bias corrections taken out of
  the arrays, ``p = p - (lr/(1-b1^t)) * m / (sqrt(v) * (1/sqrt(1-b2^t)) + eps)``.

A fit does not compute the loss. ``loss_and_grads`` runs the same
workspace code in float64 and returns the loss and every gradient, so the
gradients can be audited against finite differences.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import check
from .scaling import FeatureScaler

_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8

PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")


def _folded(flat: np.ndarray, n_in: int, hidden: tuple[int, int]):
    """The blocks ``[w1; b1]``, ``[w2; b2]``, ``[w3; b3]`` of ``flat``, and a
    view of each weight and bias by name, in ``PARAM_NAMES`` order."""
    h1, h2 = hidden
    blocks, named, start = [], {}, 0
    for layer, (rows, cols) in enumerate(((n_in + 1, h1), (h1 + 1, h2), (h2 + 1, 1)), 1):
        block = flat[start:start + rows * cols].reshape(rows, cols)
        named[f"w{layer}"], named[f"b{layer}"] = block[:-1], block[-1]
        blocks.append(block)
        start += rows * cols
    return blocks, named


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


def _with_ones(n: int, cols: int, dtype) -> np.ndarray:
    """An (n, cols + 1) buffer whose last column is ones."""
    buf = np.empty((n, cols + 1), dtype)
    buf[:, -1] = 1.0
    return buf


class _Workspace:
    """Every array a fit on the rows ``xs`` writes, allocated once in
    ``dtype``. The deltas overwrite the pre-activations once those have
    been used."""

    def __init__(self, params: dict[str, np.ndarray], xs: np.ndarray, dtype):
        n, n_in = xs.shape
        hidden = h1, h2 = params["w2"].shape
        size = (n_in + 1) * h1 + (h1 + 1) * h2 + h2 + 1
        self.flat, self.grad_flat, self.m, self.v, self.tmp, self.den = np.zeros((6, size), dtype)
        self.blocks, self.params = _folded(self.flat, n_in, hidden)
        self.grad_blocks, self.grads = _folded(self.grad_flat, n_in, hidden)
        for name in PARAM_NAMES:
            self.params[name][...] = params[name]
        self.xs = _with_ones(n, n_in, dtype)
        self.xs[:, :-1] = xs
        self.z1, self.a1 = np.empty((n, h1), dtype), _with_ones(n, h1, dtype)
        self.z2, self.a2 = np.empty((n, h2), dtype), _with_ones(n, h2, dtype)
        self.mask1, self.mask2 = np.empty((n, h1), bool), np.empty((n, h2), bool)
        self.out = np.empty((n, 1), dtype)

    def residuals(self, y: np.ndarray) -> np.ndarray:
        """Run the forward pass at ``params`` and return the residuals
        against ``y``, a view that :meth:`backward` overwrites."""
        w1, w2, w3 = self.blocks
        z1 = np.matmul(self.xs, w1, out=self.z1)
        np.maximum(z1, 0.0, out=self.a1[:, :-1])
        np.greater(z1, 0.0, out=self.mask1)
        z2 = np.matmul(self.a1, w2, out=self.z2)
        np.maximum(z2, 0.0, out=self.a2[:, :-1])
        np.greater(z2, 0.0, out=self.mask2)
        np.matmul(self.a2, w3, out=self.out)
        err = self.out[:, 0]
        err -= y
        return err

    def backward(self) -> None:
        """Fill ``grads`` with the gradient of the mean squared error from
        the residuals :meth:`residuals` left."""
        _, w2, w3 = self.blocks
        g1, g2, g3 = self.grad_blocks
        dout = np.multiply(2.0 / self.out.shape[0], self.out, out=self.out)
        np.matmul(self.a2.T, dout, out=g3)
        d2 = np.multiply(dout, w3[:-1].T, out=self.z2)
        d2 *= self.mask2
        np.matmul(self.a1.T, d2, out=g2)
        d1 = np.matmul(d2, w2[:-1].T, out=self.z1)
        d1 *= self.mask1
        np.matmul(self.xs.T, d1, out=g1)

    def adam_step(self, step: int, learning_rate: float) -> None:
        """One Adam update of every parameter from ``grads``."""
        g, m, v, tmp, den = self.grad_flat, self.m, self.v, self.tmp, self.den
        m *= _BETA1
        m += np.multiply(1.0 - _BETA1, g, out=tmp)
        v *= _BETA2
        np.multiply(1.0 - _BETA2, g, out=tmp)
        tmp *= g
        v += tmp
        np.sqrt(v, out=den)
        den *= 1.0 / math.sqrt(1.0 - _BETA2 ** step)
        den += _ADAM_EPS
        np.multiply(m, learning_rate / (1.0 - _BETA1 ** step), out=tmp)
        tmp /= den
        self.flat -= tmp


def loss_and_grads(params, xs, y):
    """Mean squared error and its gradient for every parameter array, in
    float64."""
    ws = _Workspace(params, xs, np.float64)
    err = ws.residuals(y)
    loss = float(err @ err / xs.shape[0])
    ws.backward()
    return loss, ws.grads


class MLPRegressor:
    family = "mlp"

    def __init__(self, scaler: FeatureScaler, params: dict[str, np.ndarray],
                 target_mean: float, hidden: tuple[int, int]):
        self.scaler = scaler
        self.params = params
        self.target_mean = float(target_mean)
        self.hidden = tuple(hidden)

    @staticmethod
    def hyperparameters(hidden: tuple[int, int] = (100, 50), learning_rate: float = 1e-3,
                        iterations: int = 1000) -> dict:
        """The hyperparameters, checked: two positive layer widths, a positive
        learning rate and at least one Adam step."""
        hidden = check("hidden", hidden, (int, int))
        if min(hidden) < 1:
            raise ValueError(f"hidden must be two positive widths, got {hidden}")
        learning_rate = check("learning_rate", learning_rate, float)
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive and finite, got {learning_rate}")
        return {"hidden": hidden, "learning_rate": learning_rate,
                "iterations": check("iterations", iterations, int, 1)}

    @classmethod
    def fit(cls, inputs: np.ndarray, targets: np.ndarray, *, seed: int = 0,
            **hyperparameters) -> "MLPRegressor":
        hidden, learning_rate, iterations = cls.hyperparameters(**hyperparameters).values()
        seed = check("seed", seed, int, 0)
        scaler = FeatureScaler.fit(inputs)
        n_in = inputs.shape[1]
        y_mean = targets.mean()
        yc = (targets - y_mean).astype(np.float32)

        ws = _Workspace(init_params(seed, n_in, hidden), scaler.transform(inputs), np.float32)
        for step in range(1, iterations + 1):
            ws.residuals(yc)
            ws.backward()
            ws.adam_step(step, learning_rate)
        _, params = _folded(ws.flat.astype(np.float64), n_in, hidden)
        return cls(scaler, params, y_mean, hidden)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """The network's forecast of each query row; a NaN or infinite entry
        raises ``DataError``."""
        return forward(self.params, self.scaler.transform_queries(x)) + self.target_mean
