"""Correlation statistics: vectorized Pearson and Fisher-z inference.

Pearson's correlation between a leakage model and measured power is the
paper's side-channel distinguisher (citing Bruneau et al. for its
optimality under Gaussian noise).  Significance testing uses the Fisher
z-transform: ``atanh(r)`` is approximately normal with standard error
``1/sqrt(N-3)`` under the null of zero correlation.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import norm


def normalize_budgets(budgets, n_traces: int) -> np.ndarray:
    """Validate a strictly-increasing budget list against a campaign size."""
    array = np.asarray(list(budgets), dtype=np.int64)
    if array.ndim != 1 or array.size == 0:
        raise ValueError("budgets must be a non-empty 1-D sequence")
    if array[0] <= 0 or array[-1] > n_traces:
        raise ValueError(
            f"budgets must lie in [1, {n_traces}], got {array[0]}..{array[-1]}"
        )
    if np.any(np.diff(array) <= 0):
        raise ValueError("budgets must be strictly increasing")
    return array


def pearson_corr(models: np.ndarray, traces: np.ndarray) -> np.ndarray:
    """Correlation of each model column with each trace sample.

    ``models``: ``[n_traces]`` or ``[n_traces, n_models]``;
    ``traces``: ``[n_traces, n_samples]``.
    Returns ``[n_models, n_samples]`` (or ``[n_samples]`` for a single
    model).  Zero-variance models or samples yield correlation 0.
    """
    single = models.ndim == 1
    m = models.reshape(models.shape[0], -1).astype(np.float64)
    t = traces.astype(np.float64)
    if m.shape[0] != t.shape[0]:
        raise ValueError(f"trace count mismatch: {m.shape[0]} vs {t.shape[0]}")
    mc = m - m.mean(axis=0, keepdims=True)
    tc = t - t.mean(axis=0, keepdims=True)
    m_norm = np.sqrt((mc**2).sum(axis=0))
    t_norm = np.sqrt((tc**2).sum(axis=0))
    denominator = np.outer(m_norm, t_norm)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = (mc.T @ tc) / denominator
    corr = np.nan_to_num(corr, nan=0.0, posinf=0.0, neginf=0.0)
    corr = np.clip(corr, -1.0, 1.0)
    return corr[0] if single else corr


def significance_threshold(n_traces: int, confidence: float = 0.995) -> float:
    """|r| above which a correlation is nonzero at the given confidence.

    Two-sided test via the Fisher z-transform (the paper's Table-2
    criterion uses confidence > 99.5%).
    """
    if n_traces <= 3:
        return 1.0
    alpha = 1.0 - confidence
    z_crit = norm.ppf(1.0 - alpha / 2.0)
    return float(np.tanh(z_crit / np.sqrt(n_traces - 3)))


def correlation_significant(
    r: float | np.ndarray, n_traces: int, confidence: float = 0.995
) -> bool | np.ndarray:
    """Is the correlation distinguishable from zero at this confidence?"""
    threshold = significance_threshold(n_traces, confidence)
    result = np.abs(r) > threshold
    return bool(result) if np.isscalar(r) else result


def fisher_confidence(r: float, n_traces: int) -> float:
    """Confidence (two-sided) that the true correlation is nonzero."""
    if n_traces <= 3:
        return 0.0
    z = np.arctanh(np.clip(abs(r), 0.0, 0.999999)) * np.sqrt(n_traces - 3)
    return float(1.0 - 2.0 * norm.sf(z))


def fisher_difference_confidence(r1: float, r2: float, n_traces: int) -> float:
    """Confidence that correlation ``r1`` exceeds ``r2``.

    Uses the Fisher z-difference with an independence approximation (the
    two correlations share the same traces, which makes this slightly
    conservative for positively-correlated competitors).
    """
    if n_traces <= 3:
        return 0.0
    z1 = np.arctanh(np.clip(r1, -0.999999, 0.999999))
    z2 = np.arctanh(np.clip(r2, -0.999999, 0.999999))
    z = (z1 - z2) * np.sqrt((n_traces - 3) / 2.0)
    return float(norm.cdf(z))
