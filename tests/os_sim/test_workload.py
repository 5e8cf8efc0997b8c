"""Background workload noise process."""

import numpy as np
import pytest

from repro.os_sim.workload import BackgroundWorkload, apache_full_load, idle_desktop


class TestAr1Process:
    def sample(self, workload, n_traces=200, n_samples=400, seed=0):
        return workload.sample(n_traces, n_samples, np.random.default_rng(seed))

    def test_shape(self):
        out = self.sample(BackgroundWorkload(), 10, 50)
        assert out.shape == (10, 50)

    def test_mean_level(self):
        workload = BackgroundWorkload(amplitude=5.0, mean_power=30.0)
        out = self.sample(workload)
        assert np.mean(out) == pytest.approx(30.0, abs=1.0)

    def test_amplitude_sets_std(self):
        workload = BackgroundWorkload(amplitude=12.0, correlation=0.6, mean_power=0.0)
        out = self.sample(workload, 500, 500)
        assert np.std(out) == pytest.approx(12.0, rel=0.1)

    def test_autocorrelation(self):
        workload = BackgroundWorkload(amplitude=10.0, correlation=0.8, mean_power=0.0)
        out = self.sample(workload, 100, 800)
        x = out[:, :-1].ravel()
        y = out[:, 1:].ravel()
        rho = np.corrcoef(x, y)[0, 1]
        assert rho == pytest.approx(0.8, abs=0.05)

    def test_zero_correlation_is_white(self):
        workload = BackgroundWorkload(amplitude=10.0, correlation=0.0, mean_power=0.0)
        out = self.sample(workload, 100, 800)
        rho = np.corrcoef(out[:, :-1].ravel(), out[:, 1:].ravel())[0, 1]
        assert abs(rho) < 0.05

    def test_presets_ordering(self):
        assert apache_full_load().amplitude > idle_desktop().amplitude


def _loop_reference(workload, n_traces, n_samples, rng):
    """The AR(1) recurrence as an explicit loop over samples, same draw order."""
    rho = workload.correlation
    innovation_sigma = workload.amplitude * np.sqrt(max(1.0 - rho * rho, 1e-9))
    noise = rng.normal(0.0, innovation_sigma, size=(n_traces, n_samples))
    out = np.empty_like(noise)
    out[:, 0] = rng.normal(0.0, workload.amplitude, size=n_traces)
    for s in range(1, n_samples):
        out[:, s] = rho * out[:, s - 1] + noise[:, s]
    return out + workload.mean_power


@pytest.mark.parametrize(
    "workload",
    [apache_full_load(), idle_desktop(), BackgroundWorkload(correlation=0.0)],
    ids=["apache", "idle", "white"],
)
def test_filtered_sample_is_the_loop_byte_for_byte(workload):
    got = workload.sample(100, 700, np.random.default_rng(11))
    want = _loop_reference(workload, 100, 700, np.random.default_rng(11))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
