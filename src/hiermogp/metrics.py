"""Regression evaluation: normalised mean squared error and negative log
predictive density."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def nmse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean squared error normalised by the spread of the test targets.

    Predicting the test mean everywhere scores exactly 1.
    """
    y_true = np.asarray(y_true, float).ravel()
    y_pred = np.asarray(y_pred, float).ravel()
    if y_true.size != y_pred.size:
        raise ValueError(f"length mismatch: {y_true.size} vs {y_pred.size}")
    if y_true.size < 2:
        raise ValueError("nmse needs at least two test points")
    denom = np.mean((y_true - y_true.mean()) ** 2)
    if denom == 0.0:
        raise ValueError("nmse is undefined for constant test targets")
    return float(np.mean((y_true - y_pred) ** 2) / denom)


def nlpd(y_true: np.ndarray, mean: np.ndarray, variance: np.ndarray) -> float:
    """Average Gaussian negative log density of the targets under the
    predictive moments."""
    y_true = np.asarray(y_true, float).ravel()
    mean = np.asarray(mean, float).ravel()
    variance = np.asarray(variance, float).ravel()
    if not (y_true.size == mean.size == variance.size):
        raise ValueError("y_true, mean and variance must have equal lengths")
    if np.any(variance <= 0.0):
        raise ValueError("predictive variances must be strictly positive")
    return float(
        0.5 * np.mean((y_true - mean) ** 2 / variance + np.log(variance) + np.log(2.0 * np.pi))
    )


@dataclass
class EvalReport:
    """Pooled scores plus a per-output breakdown.

    Pooled values are the headline numbers; per-output entries use their own
    test means for normalisation and may be NaN when an output has too few
    or constant test targets.
    """

    nmse: float
    nlpd: float
    n_test: int
    per_output: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "nmse": self.nmse,
            "nlpd": self.nlpd,
            "n_test": self.n_test,
            "per_output": [
                {"output": d, "nmse": a, "nlpd": b} for d, a, b in self.per_output
            ],
        }


def evaluate(y_true, mean, variance, output_index) -> EvalReport:
    """Score predictions pooled over all test points and per output."""
    y_true = np.asarray(y_true, float).ravel()
    mean = np.asarray(mean, float).ravel()
    variance = np.asarray(variance, float).ravel()
    output_index = np.asarray(output_index, int).ravel()
    if not (y_true.size == mean.size == variance.size == output_index.size):
        raise ValueError("all inputs must have equal lengths")
    report = EvalReport(
        nmse=nmse(y_true, mean),
        nlpd=nlpd(y_true, mean, variance),
        n_test=int(y_true.size),
        per_output=[],
    )
    # the outputs present, ascending; not np.unique, whose first 1-D call in a
    # process imports numpy.ma (11-18 ms)
    for d in sorted(set(output_index.tolist())):
        sel = output_index == d
        try:
            d_nmse = nmse(y_true[sel], mean[sel])
        except ValueError:
            d_nmse = float("nan")
        d_nlpd = nlpd(y_true[sel], mean[sel], variance[sel])
        report.per_output.append((d, d_nmse, d_nlpd))
    return report
