"""Logistic-regression reference model sharing the networks' fit loop.

The point of this module is comparability, not novelty: the baseline is
trained by the same fit loop as the spline networks (``training._fit``: the
same input checks, Adam update and ``diverged`` stop), on the same
preprocessed features, so score differences between the two model families
cannot be blamed on optimizer details.
"""

from dataclasses import dataclass

import numpy as np

from .network import _entry, _read_checkpoint, _write_checkpoint, sigmoid
from .training import TrainConfig, _bce_terms, _fit

__all__ = [
    "LogisticModel",
    "train_logistic",
    "logistic_predict",
    "logistic_probabilities",
    "save_logistic",
    "load_logistic",
]

_CHECKPOINT_KIND = "logistic-model"


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float

    @property
    def n_features(self) -> int:
        return self.weights.size


def train_logistic(
    dataset, learning_rate: float = TrainConfig.learning_rate, steps: int = TrainConfig.steps
):
    """Fit a logistic model with full-batch Adam from a zero start.

    ``dataset`` is anything with ``.features`` (n, d) and ``.labels`` (n,).
    Returns ``(model, loss_history, seconds)``; the zero start makes the fit
    deterministic.  It runs the networks' fit loop, so the same inputs are
    refused and a non-finite step stops it with ``diverged: step N``.
    """
    d = np.shape(dataset.features)[-1]

    def loss_and_grad(params, x, y):
        z = x @ params[:d] + params[d]
        residual = (sigmoid(z) - y) / x.shape[0]
        return np.mean(_bce_terms(z, y)), np.concatenate([x.T @ residual, [residual.sum()]])

    cfg = TrainConfig(learning_rate=learning_rate, steps=steps)
    params, history, seconds = _fit(dataset, np.zeros(d + 1), loss_and_grad, cfg)
    return LogisticModel(weights=params[:d].copy(), bias=float(params[d])), history, seconds


def logistic_predict(model: LogisticModel, x) -> float:
    """Default probability for one sample: a batch of one."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.n_features,):
        raise ValueError(
            f"dimension-mismatch: expected {model.n_features} features, got shape {x.shape}"
        )
    return float(logistic_probabilities(model, x[None, :])[0])


def logistic_probabilities(model: LogisticModel, features) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.n_features:
        raise ValueError(
            f"dimension-mismatch: expected (n, {model.n_features}), got {features.shape}"
        )
    return sigmoid(features @ model.weights + model.bias)


def save_logistic(model: LogisticModel, path) -> None:
    _write_checkpoint(path, _CHECKPOINT_KIND, {"weights": model.weights.tolist(), "bias": model.bias})


def load_logistic(path) -> LogisticModel:
    payload = _read_checkpoint(path, _CHECKPOINT_KIND, "logistic")
    weights = _entry(payload, path, "weights", float, many=True)
    return LogisticModel(weights=weights, bias=_entry(payload, path, "bias", float))
