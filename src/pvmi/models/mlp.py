"""Two-hidden-layer ReLU network trained with full-batch Adam.

The net maps a standardized input through two ReLU layers into a single
linear output and is trained on the mean squared error with a fixed number
of full-batch Adam steps (learning rate 1e-3, beta1 0.9, beta2 0.999,
eps 1e-8). Weights are drawn from seeded He-style Gaussians so a given
(seed, data) pair always trains to the same parameters.

``loss_and_grads`` computes the analytic backpropagation gradients and is
exposed separately so they can be audited against finite differences.
"""

from __future__ import annotations

import numpy as np

from .scaling import FeatureScaler

_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8

PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")


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


def loss_and_grads(params, xs, y):
    """Mean squared error and its gradient for every parameter array."""
    n = xs.shape[0]
    z1 = xs @ params["w1"] + params["b1"]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ params["w2"] + params["b2"]
    a2 = np.maximum(z2, 0.0)
    out = (a2 @ params["w3"]).ravel() + params["b3"][0]

    err = out - y
    loss = float(err @ err / n)

    dout = (2.0 / n) * err[:, None]
    dw3 = a2.T @ dout
    db3 = dout.sum(axis=0)
    da2 = dout @ params["w3"].T
    dz2 = da2 * (z2 > 0.0)
    dw2 = a1.T @ dz2
    db2 = dz2.sum(axis=0)
    da1 = dz2 @ params["w2"].T
    dz1 = da1 * (z1 > 0.0)
    dw1 = xs.T @ dz1
    db1 = dz1.sum(axis=0)
    grads = {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2, "w3": dw3, "b3": db3}
    return loss, grads


class MLPRegressor:
    family = "mlp"

    def __init__(self, scaler: FeatureScaler, params: dict[str, np.ndarray],
                 target_mean: float, hidden: tuple[int, int]):
        self.scaler = scaler
        self.params = params
        self.target_mean = float(target_mean)
        self.hidden = tuple(int(h) for h in hidden)

    @classmethod
    def fit(cls, inputs: np.ndarray, targets: np.ndarray,
            hidden: tuple[int, int] = (100, 50),
            learning_rate: float = 1e-3,
            iterations: int = 1000,
            seed: int = 0) -> "MLPRegressor":
        hidden = tuple(int(h) for h in hidden)
        learning_rate, iterations = float(learning_rate), int(iterations)
        if len(hidden) != 2 or min(hidden) < 1:
            raise ValueError(f"hidden must be two positive widths, got {hidden}")
        if iterations < 1 or learning_rate <= 0:
            raise ValueError("iterations must be >= 1 and learning_rate positive")
        scaler = FeatureScaler.fit(inputs)
        xs = scaler.transform(inputs)
        y_mean = targets.mean()
        yc = targets - y_mean

        params = init_params(seed, xs.shape[1], hidden)
        m = {k: np.zeros_like(v) for k, v in params.items()}
        v = {k: np.zeros_like(p) for k, p in params.items()}
        for step in range(1, iterations + 1):
            _, grads = loss_and_grads(params, xs, yc)
            for key in PARAM_NAMES:
                g = grads[key]
                m[key] = _BETA1 * m[key] + (1.0 - _BETA1) * g
                v[key] = _BETA2 * v[key] + (1.0 - _BETA2) * g * g
                m_hat = m[key] / (1.0 - _BETA1 ** step)
                v_hat = v[key] / (1.0 - _BETA2 ** step)
                params[key] = params[key] - learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
        return cls(scaler, params, y_mean, hidden)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return forward(self.params, self.scaler.transform(np.atleast_2d(x))) + self.target_mean
