"""Background-activity power: the second core and the webserver.

The other core executes an unrelated instruction mix; its switching
power adds to the shared supply-rail measurement.  A first-order
autoregressive process with tunable amplitude captures the two relevant
statistics: broadband power with short-range correlation (consecutive
samples share pipeline state) and no correlation whatsoever with the
victim's data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BackgroundWorkload:
    """AR(1) supply-rail noise from co-running activity."""

    #: standard deviation of the added power, in leakage units
    amplitude: float = 20.0
    #: one-sample autocorrelation (pipeline state persistence)
    correlation: float = 0.6
    #: mean activity offset (full-load baseline draw)
    mean_power: float = 30.0

    def sample(self, n_traces: int, n_samples: int, rng: np.random.Generator) -> np.ndarray:
        """Draw the background power for a campaign: [n_traces, n_samples]."""
        # Imported here: only campaigns with background activity need
        # scipy.signal, and it adds about 0.1 s to every cold start.
        from scipy.signal import lfilter

        rho = self.correlation
        innovation_sigma = self.amplitude * np.sqrt(max(1.0 - rho * rho, 1e-9))
        noise = rng.normal(0.0, innovation_sigma, size=(n_traces, n_samples))
        noise[:, 0] = rng.normal(0.0, self.amplitude, size=n_traces)
        # out[:, s] = rho * out[:, s - 1] + noise[:, s], with out[:, 0] = noise[:, 0]
        return lfilter([1.0], [1.0, -rho], noise, axis=1) + self.mean_power


def apache_full_load() -> BackgroundWorkload:
    """Both cores saturated by Apache + HTTPerf at 1000 req/s (paper).

    The amplitude is calibrated jointly with the victim's leakage
    profile so that the paper's operational result holds: the matched
    consecutive-store model still succeeds from 100 averaged traces
    while the correlation visibly drops versus bare metal.
    """
    return BackgroundWorkload(amplitude=6.0, correlation=0.7, mean_power=40.0)


def idle_desktop() -> BackgroundWorkload:
    """An idle Linux desktop: light background services only."""
    return BackgroundWorkload(amplitude=2.5, correlation=0.5, mean_power=8.0)
