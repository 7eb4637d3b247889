"""Immutable result records returned by the estimators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EstimatorReport:
    """Point estimate with a Monte-Carlo standard error."""

    estimate: float
    std_error: float
    n_paths: int
    master_seed: int


@dataclass(frozen=True)
class ConditionalLossReport(EstimatorReport):
    """Quotient estimate of a conditional loss: e1_hat / e2_hat.

    per-path numerator terms A_i and denominator terms B_i are retained so
    callers can reuse or re-weight them; std_error is the delta-method error
    of the quotient; denominator_z = |e2_hat| / its std error, at least 5.
    """

    e1_hat: float
    e2_hat: float
    a_terms: np.ndarray
    b_terms: np.ndarray
    acceptance_fraction: float
    denominator_z: float


@dataclass(frozen=True)
class GradientReport(EstimatorReport):
    """Gradient estimate; variance is the per-path (single-sample) variance.

    mode is 'sum-over-k' or 'random-k' for the branch estimator and
    'score-function' for the likelihood-ratio baseline.  branch_stats holds
    the mean absolute branch gap |C+ - C-| as a coupling diagnostic (None
    for the baseline).  A gradient of a functional with (N, m) values
    carries (m,) arrays in estimate, std_error and variance.
    """

    variance: float
    mode: str
    branch_stats: float | None
