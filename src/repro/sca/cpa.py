"""Correlation Power Analysis: the attack engine of Section 5.

A CPA attack correlates, for every key guess, a model of an intermediate
value's leakage against every trace sample; the guess whose model best
fits the measurements reveals the key byte.  The engine is fully
vectorized: the model is one ``[n_traces, n_guesses]`` matrix (see
:mod:`repro.sca.models`) and one matrix product evaluates all guesses
at all samples.  A streamed campaign folds the same attack chunk by
chunk through :class:`repro.campaigns.accumulators.CpaAccumulator`.

:func:`cpa_attack_curve` is the prefix-incremental form: one pass over
a campaign yields the attack outcome at *every* requested trace budget
(cumulative cross-moment tapes plus a cheap per-budget finish), which is
what makes fine-grained success curves and margin-vs-budget plots cost
one attack instead of one attack per budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.sca.distinguish import best_vs_second_confidence
from repro.sca.stats import normalize_budgets, pearson_corr


@dataclass
class CpaResult:
    """Outcome of a CPA over a guess space.

    The correlations are never modified after construction, so the
    per-guess peaks every ranking read starts from are computed once.
    """

    correlations: np.ndarray  # [n_guesses, n_samples]
    guesses: np.ndarray  # the guess values, aligned with rows
    n_traces: int

    @cached_property
    def peak_per_guess(self) -> np.ndarray:
        return np.max(np.abs(self.correlations), axis=1)

    @property
    def best_guess(self) -> int:
        return int(self.guesses[int(np.argmax(self.peak_per_guess))])

    @property
    def best_corr(self) -> float:
        return float(np.max(self.peak_per_guess))

    @property
    def best_sample(self) -> int:
        row = int(np.argmax(self.peak_per_guess))
        return int(np.argmax(np.abs(self.correlations[row])))

    def rank_of(self, true_key: int) -> int:
        """0 = the true key is the best guess."""
        order = np.argsort(-self.peak_per_guess)
        position = np.nonzero(self.guesses[order] == true_key)[0]
        return int(position[0]) if position.size else len(self.guesses)

    def margin_confidence(self) -> float:
        """Confidence that the best guess beats the runner-up (Fig. 4)."""
        peaks = np.sort(self.peak_per_guess)[::-1]
        if len(peaks) < 2:
            return 1.0
        return best_vs_second_confidence(peaks[0], peaks[1], self.n_traces)

    def timecourse(self, guess: int) -> np.ndarray:
        """Correlation-vs-time series of one guess (Figure 3 style)."""
        row = int(np.nonzero(self.guesses == guess)[0][0])
        return self.correlations[row]


def _models_matrix(models: np.ndarray, guess_array: np.ndarray, n_traces: int) -> np.ndarray:
    """The validated ``float64[n_traces, n_guesses]`` model matrix.

    Column ``g`` is the model under guess ``guess_array[g]``; build it
    with one gather (:func:`repro.sca.models.hw_sbox_matrix`,
    :func:`repro.sca.models.hd_stores_matrix`).  Attack harnesses that
    resample one campaign build it once and permute its rows.
    """
    if not isinstance(models, np.ndarray):
        raise TypeError(
            "a CPA model is a [n_traces, n_guesses] matrix, "
            f"got {type(models).__name__}"
        )
    models = np.asarray(models, dtype=np.float64)
    if models.shape != (n_traces, guess_array.size):
        raise ValueError(
            f"model matrix has shape {models.shape}, expected "
            f"({n_traces}, {guess_array.size})"
        )
    return models


def cpa_attack(
    traces: np.ndarray,
    models: np.ndarray,
    guesses: Sequence[int] = tuple(range(256)),
) -> CpaResult:
    """Run a CPA of the ``[n_traces, n_guesses]`` model matrix against
    every trace sample."""
    guess_array = np.asarray(list(guesses))
    models = _models_matrix(models, guess_array, traces.shape[0])
    correlations = pearson_corr(models, traces)
    return CpaResult(correlations=correlations, guesses=guess_array, n_traces=traces.shape[0])


@dataclass
class CpaCurve:
    """CPA outcomes at every prefix budget of one campaign.

    ``peak_per_guess[b, g]`` is the max-over-samples absolute
    correlation of guess ``g`` using the first ``budgets[b]`` traces —
    everything a success-rate or margin evaluation needs.  A full
    :class:`CpaResult` at each budget is the streamed
    :class:`~repro.campaigns.accumulators.CpaBudgetSnapshots`' job.
    """

    budgets: np.ndarray  # [n_budgets]
    guesses: np.ndarray  # [n_guesses]
    peak_per_guess: np.ndarray  # [n_budgets, n_guesses]
    n_samples: int

    @property
    def best_guesses(self) -> np.ndarray:
        """The winning guess at each budget."""
        return self.guesses[np.argmax(self.peak_per_guess, axis=1)]

    def ranks_of(self, true_key: int) -> np.ndarray:
        """Rank of the true key at each budget (0 = best guess)."""
        order = np.argsort(-self.peak_per_guess, axis=1)
        ranks = np.empty(self.budgets.size, dtype=np.int64)
        for i in range(self.budgets.size):
            position = np.nonzero(self.guesses[order[i]] == true_key)[0]
            ranks[i] = int(position[0]) if position.size else self.guesses.size
        return ranks

    def margin_confidences(self) -> np.ndarray:
        """Best-vs-second distinguishing confidence at each budget."""
        out = np.empty(self.budgets.size)
        for i, budget in enumerate(self.budgets):
            peaks = np.sort(self.peak_per_guess[i])[::-1]
            out[i] = (
                1.0
                if peaks.size < 2
                else best_vs_second_confidence(peaks[0], peaks[1], int(budget))
            )
        return out

    def peaks_of(self, guess: int) -> np.ndarray:
        """One guess's peak |r| as a function of the trace budget."""
        column = int(np.nonzero(self.guesses == guess)[0][0])
        return self.peak_per_guess[:, column]


def cpa_attack_curve(
    traces: np.ndarray,
    models: np.ndarray,
    budgets: Sequence[int],
    guesses: Sequence[int] = tuple(range(256)),
    dtype=np.float64,
) -> CpaCurve:
    """Run a CPA at every prefix budget in one pass over the traces.

    Equivalent to ``cpa_attack(traces[:b], ...)`` for each budget ``b``
    (correlations within ~1e-12, identical best guesses), but the work
    is one cumulative cross-moment accumulation over ``max(budgets)``
    traces plus a cheap finish per budget, instead of a from-scratch
    attack per budget.

    ``dtype=np.float32`` accumulates and finishes in single precision —
    the high-throughput mode for resampled success curves, where peak
    correlations stay accurate to ~1e-4 (globally centered data keeps
    the raw-moment cancellation harmless even in float32).
    """
    dtype = np.dtype(dtype)
    guess_array = np.asarray(list(guesses))
    budget_array = normalize_budgets(budgets, traces.shape[0])
    models = _models_matrix(models, guess_array, traces.shape[0])
    x = (models - models[: budget_array[-1]].mean(axis=0, keepdims=True)).astype(
        dtype, copy=False
    )
    y = np.asarray(traces, dtype=np.float64)
    y = (y - y[: budget_array[-1]].mean(axis=0, keepdims=True)).astype(
        dtype, copy=False
    )
    n_guesses, n_samples = x.shape[1], y.shape[1]
    sum_x = np.zeros(n_guesses, dtype=dtype)
    sum_y = np.zeros(n_samples, dtype=dtype)
    sq_x = np.zeros(n_guesses, dtype=dtype)
    sq_y = np.zeros(n_samples, dtype=dtype)
    comoment = np.zeros((n_guesses, n_samples), dtype=dtype)
    scratch = np.empty((n_guesses, n_samples), dtype=dtype)
    peaks = np.empty((budget_array.size, n_guesses))
    previous = 0
    for i, budget in enumerate(budget_array):
        xs, ys = x[previous:budget], y[previous:budget]
        sum_x += xs.sum(axis=0)
        sum_y += ys.sum(axis=0)
        sq_x += (xs * xs).sum(axis=0)
        sq_y += (ys * ys).sum(axis=0)
        comoment += xs.T @ ys
        previous = int(budget)
        n = previous
        var_x = np.clip(sq_x - sum_x**2 / n, 0.0, None)
        var_y = np.clip(sq_y - sum_y**2 / n, 0.0, None)
        # Fused finish in one reused scratch buffer: peak |r| per
        # guess without materializing the correlation matrix —
        # r^2 = cov^2 / (var_x * var_y), maxed over samples before
        # the square root.  Zero variances divide by +inf, which
        # lands the same 0 the reference's nan_to_num produces.
        np.outer(sum_x, sum_y, out=scratch)
        scratch *= dtype.type(-1.0 / n)
        scratch += comoment
        np.square(scratch, out=scratch)
        scratch /= np.where(var_y > 0, var_y, np.inf)[None, :]
        best = scratch.max(axis=1)
        best /= np.where(var_x > 0, var_x, np.inf)
        peaks[i] = np.sqrt(np.clip(best, 0.0, 1.0, out=best))
    return CpaCurve(
        budgets=budget_array,
        guesses=guess_array,
        peak_per_guess=peaks,
        n_samples=n_samples,
    )


def cpa_timecourse(traces: np.ndarray, model: np.ndarray) -> np.ndarray:
    """Correlation of a single model against every sample (one curve)."""
    return pearson_corr(np.asarray(model, dtype=np.float64), traces)
