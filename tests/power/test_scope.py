"""Oscilloscope model: noise, averaging, quantization, jitter, kernel."""

import numpy as np
import pytest
from scipy.signal import lfilter

from repro.power.scope import Oscilloscope, ScopeConfig, fir_filter, gaussian_table


def flat_power(n_traces=200, n_samples=64, level=10.0):
    return np.full((n_traces, n_samples), level)


class TestNoiseAndAveraging:
    def test_averaging_divides_noise(self):
        base = ScopeConfig(noise_sigma=8.0, kernel=(1.0,), quantize_bits=None, n_averages=1)
        avg16 = ScopeConfig(noise_sigma=8.0, kernel=(1.0,), quantize_bits=None, n_averages=16)
        power = flat_power()
        noisy = Oscilloscope(base, seed=1).capture(power)
        averaged = Oscilloscope(avg16, seed=1).capture(power)
        ratio = np.std(noisy - 10.0) / np.std(averaged - 10.0)
        assert ratio == pytest.approx(4.0, rel=0.15)

    def test_zero_noise_preserves_signal(self):
        config = ScopeConfig(noise_sigma=0.0, kernel=(1.0,), quantize_bits=None)
        power = flat_power(10, 16, 3.0)
        assert np.allclose(Oscilloscope(config).capture(power), 3.0)

    def test_capture_is_seed_deterministic(self):
        config = ScopeConfig()
        power = flat_power()
        a = Oscilloscope(config, seed=7).capture(power)
        b = Oscilloscope(config, seed=7).capture(power)
        assert np.array_equal(a, b)

    def test_extra_noise_added(self):
        config = ScopeConfig(noise_sigma=0.0, kernel=(1.0,), quantize_bits=None)
        power = flat_power(10, 16, 0.0)
        extra = np.ones_like(power)
        out = Oscilloscope(config).capture(power, extra_noise=extra)
        assert np.allclose(out, 1.0)


class TestKernel:
    def test_kernel_smears_forward_only(self):
        config = ScopeConfig(noise_sigma=0.0, kernel=(1.0, 0.5), quantize_bits=None)
        power = np.zeros((1, 8))
        power[0, 3] = 2.0
        out = Oscilloscope(config).capture(power)[0]
        assert out[3] == pytest.approx(2.0)
        assert out[4] == pytest.approx(1.0)
        assert out[2] == pytest.approx(0.0)

    def test_identity_kernel_is_noop(self):
        config = ScopeConfig(noise_sigma=0.0, kernel=(1.0,), quantize_bits=None)
        power = np.random.default_rng(0).normal(size=(5, 32))
        assert np.allclose(Oscilloscope(config).capture(power), power, atol=1e-6)


class TestQuantization:
    def test_quantization_grid(self):
        config = ScopeConfig(noise_sigma=0.0, kernel=(1.0,), quantize_bits=4, adc_range=16.0)
        power = np.linspace(0, 10, 50).reshape(1, -1)
        out = Oscilloscope(config).capture(power)[0]
        lsb = 16.0 / 16
        assert np.allclose(out / lsb, np.round(out / lsb), atol=1e-5)

    def test_autorange_uses_observed_spread(self):
        config = ScopeConfig(noise_sigma=0.0, kernel=(1.0,), quantize_bits=8)
        power = np.zeros((1, 10))
        power[0, 5] = 100.0
        out = Oscilloscope(config).capture(power)[0]
        assert out[5] == pytest.approx(100.0, rel=0.01)

    def test_8bit_quantization_error_bounded(self):
        config = ScopeConfig(noise_sigma=0.0, kernel=(1.0,), quantize_bits=8, adc_range=256.0)
        rng = np.random.default_rng(3)
        power = rng.uniform(0, 200, size=(20, 40))
        out = Oscilloscope(config).capture(power)
        assert np.max(np.abs(out - power)) <= 0.5  # half an LSB


class TestJitter:
    def test_jitter_rolls_traces(self):
        config = ScopeConfig(
            noise_sigma=0.0, kernel=(1.0,), quantize_bits=None, jitter_samples=2
        )
        power = np.zeros((50, 32))
        power[:, 16] = 1.0
        out = Oscilloscope(config, seed=11).capture(power)
        peaks = np.argmax(out, axis=1)
        assert set(peaks) <= {14, 15, 16, 17, 18}
        assert len(set(peaks)) > 1

    def test_jitter_rolls_traces_float32(self):
        config = ScopeConfig(
            noise_sigma=0.0,
            kernel=(1.0,),
            quantize_bits=None,
            jitter_samples=2,
            precision="float32",
        )
        power = np.zeros((50, 32))
        power[:, 16] = 1.0
        out = Oscilloscope(config, seed=11).capture(power)
        peaks = np.argmax(out, axis=1)
        assert set(peaks) <= {14, 15, 16, 17, 18}
        assert len(set(peaks)) > 1


def _reference_exact_capture(config: ScopeConfig, seed: int, power: np.ndarray) -> np.ndarray:
    """The seed implementation of the float64 chain, verbatim."""
    rng = np.random.default_rng(seed)
    traces = np.asarray(power, dtype=np.float64)
    kernel = np.asarray(config.kernel, dtype=np.float64)
    if kernel.size > 1:
        traces = lfilter(kernel, [1.0], traces, axis=1)
    if config.jitter_samples > 0:
        shifts = rng.integers(
            -config.jitter_samples, config.jitter_samples + 1, size=traces.shape[0]
        )
        traces = np.stack([np.roll(row, int(s)) for row, s in zip(traces, shifts)])
    traces = traces + rng.normal(
        0.0, config.noise_sigma / np.sqrt(config.n_averages), size=traces.shape
    )
    if config.quantize_bits is None:
        return traces.astype(np.float32)
    full_scale = config.adc_range
    if full_scale is None:
        spread = float(np.max(traces) - np.min(traces))
        full_scale = spread if spread > 0 else 1.0
    lsb = full_scale / (2**config.quantize_bits)
    return (np.round(traces / lsb) * lsb).astype(np.float32)


def _per_row_fir(kernel: np.ndarray, traces: np.ndarray) -> np.ndarray:
    """The reference: one causal ``np.convolve`` per trace."""
    n_samples = traces.shape[1]
    return np.stack([np.convolve(kernel, row)[:n_samples] for row in traces])


class TestFirFilter:
    """``fir_filter`` gives the per-row convolution's bytes."""

    @pytest.mark.parametrize("n_taps", (2, 3, 4, 7, 11, 12, 16))
    @pytest.mark.parametrize("n_samples", ("short", "kernel_plus_one", "wide"))
    def test_byte_identical_to_per_row_convolve(self, n_taps, n_samples):
        rng = np.random.default_rng(n_taps)
        kernel = rng.normal(size=n_taps)
        width = {"short": max(1, n_taps - 1), "kernel_plus_one": n_taps + 1, "wide": 480}
        traces = rng.normal(scale=40.0, size=(23, width[n_samples]))
        traces[0] = -0.0  # signed zeros must come out as the reference's
        traces[5, ::3] = 0.0
        expected = _per_row_fir(kernel, traces)
        actual = fir_filter(kernel, traces)
        assert actual.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("scale", (1e-6, 1.0, 3e7))
    def test_scope_kernel_on_power_like_rows(self, scale):
        kernel = np.asarray(ScopeConfig().kernel, dtype=np.float64)
        rng = np.random.default_rng(11)
        power = rng.integers(0, 60, size=(100, 2712)).astype(np.float64) * scale
        power += rng.normal(size=power.shape)
        expected = lfilter(kernel, [1.0], power, axis=1)
        np.testing.assert_array_equal(fir_filter(kernel, power), _per_row_fir(kernel, power))
        assert fir_filter(kernel, power).tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_single_row(self):
        kernel = np.asarray(ScopeConfig().kernel, dtype=np.float64)
        row = np.random.default_rng(12).normal(size=(1, 50))
        assert fir_filter(kernel, row).tobytes() == _per_row_fir(kernel, row).tobytes()


class TestExactModeRegression:
    """``"float64-exact"`` must stay byte-identical to the seed chain."""

    @pytest.mark.parametrize("jitter", (0, 3))
    @pytest.mark.parametrize("adc_range", (None, 250.0))
    def test_byte_identical_to_seed_chain(self, jitter, adc_range):
        config = ScopeConfig(noise_sigma=5.0, jitter_samples=jitter, adc_range=adc_range)
        rng = np.random.default_rng(42)
        power = rng.integers(0, 60, size=(120, 77)).astype(np.float64)
        new = Oscilloscope(config, seed=9).capture(power)
        reference = _reference_exact_capture(config, 9, power)
        np.testing.assert_array_equal(new, reference)

    def test_unquantized_byte_identical(self):
        config = ScopeConfig(noise_sigma=2.0, quantize_bits=None)
        power = np.random.default_rng(1).normal(size=(40, 33))
        new = Oscilloscope(config, seed=3).capture(power)
        np.testing.assert_array_equal(new, _reference_exact_capture(config, 3, power))


class TestFloat32Chain:
    def test_rejects_unknown_precision(self):
        with pytest.raises(ValueError):
            Oscilloscope(ScopeConfig(precision="float16"))

    def test_gaussian_table_statistics(self):
        table = gaussian_table()
        assert table.dtype == np.float32
        assert float(table.mean()) == pytest.approx(0.0, abs=1e-6)
        assert float((table.astype(np.float64) ** 2).mean()) == pytest.approx(1.0, rel=1e-6)
        # symmetric tails, clipped at the 2^-16 quantile (~4.3 sigma)
        assert float(table.max()) == pytest.approx(-float(table.min()), rel=1e-6)
        assert 4.0 < float(table.max()) < 4.5

    def test_noise_statistics_match_config(self):
        config = ScopeConfig(
            noise_sigma=8.0, kernel=(1.0,), quantize_bits=None, n_averages=4,
            precision="float32",
        )
        out = Oscilloscope(config, seed=1).capture(np.zeros((1500, 512)))
        assert float(out.mean()) == pytest.approx(0.0, abs=0.05)
        assert float(out.std()) == pytest.approx(4.0, rel=0.02)

    def test_deterministic_per_seed(self):
        config = ScopeConfig(precision="float32")
        power = np.random.default_rng(0).normal(10, 3, size=(30, 64))
        a = Oscilloscope(config, seed=7).capture(power)
        b = Oscilloscope(config, seed=7).capture(power)
        c = Oscilloscope(config, seed=8).capture(power)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_chain_matches_float64_without_noise(self):
        """Conv + quantize in float32 agree with float64 to < 1/1000 LSB."""
        power = np.random.default_rng(3).integers(0, 60, size=(80, 90)).astype(float)
        kwargs = dict(noise_sigma=0.0, quantize_bits=8, adc_range=260.0)
        exact = Oscilloscope(ScopeConfig(**kwargs), seed=5).capture(power)
        fast = Oscilloscope(
            ScopeConfig(precision="float32", **kwargs), seed=5
        ).capture(power)
        lsb = 260.0 / 256
        assert np.abs(exact - fast).max() <= 1e-3 * lsb

    @pytest.mark.parametrize("split", (1, 13, 64, 119))
    def test_counter_stream_is_chunking_invariant(self, split):
        """Any split of a campaign reproduces the monolithic noise."""
        config = ScopeConfig(
            noise_sigma=5.0, jitter_samples=2, precision="float32", adc_range=400.0
        )
        power = np.random.default_rng(0).integers(0, 50, size=(120, 65)).astype(float)
        whole = Oscilloscope(config, seed=33).capture(power)
        head = Oscilloscope(config, seed=33).capture(power[:split], trace_offset=0)
        tail = Oscilloscope(config, seed=33).capture(power[split:], trace_offset=split)
        np.testing.assert_array_equal(np.concatenate([head, tail]), whole)

    def test_self_calibration_matches_helper(self):
        """Monolithic auto-range resolves via the same deterministic rule
        the streaming engine applies before chunking."""
        config = ScopeConfig(noise_sigma=5.0, precision="float32")
        power = np.random.default_rng(2).integers(0, 40, size=(300, 50)).astype(float)
        scope = Oscilloscope(config, seed=5)
        scope.capture(power)
        helper = Oscilloscope(config, seed=5).calibrate_full_scale(
            power[: config.calibration_traces]
        )
        assert scope.last_full_scale == helper

    def test_pinned_full_scale_overrides_autorange(self):
        config = ScopeConfig(noise_sigma=1.0, precision="float32")
        power = np.random.default_rng(2).normal(20, 4, size=(60, 40))
        scope = Oscilloscope(config, seed=5)
        out = scope.capture(power, full_scale=512.0)
        assert scope.last_full_scale == 512.0
        lsb = 512.0 / 256
        np.testing.assert_allclose(out / lsb, np.rint(out / lsb), atol=1e-4)

    def test_extra_noise_added_float32(self):
        config = ScopeConfig(
            noise_sigma=0.0, kernel=(1.0,), quantize_bits=None, precision="float32"
        )
        power = np.zeros((10, 16))
        out = Oscilloscope(config).capture(power, extra_noise=np.ones_like(power))
        assert np.allclose(out, 1.0)
