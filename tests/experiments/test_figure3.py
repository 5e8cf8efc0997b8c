"""Figure-3 experiment: bare-metal CPA timecourse (reduced traces)."""

import numpy as np
import pytest

from repro.experiments.figure3 import run_figure3


@pytest.fixture(scope="module")
def result():
    return run_figure3(n_traces=1500)


class TestReproduction:
    def test_all_shape_checks_pass(self, result):
        assert result.matches_paper, result.checks

    def test_correct_key_recovered(self, result):
        assert result.cpa.rank_of(result.true_key_byte) == 0

    def test_segments_cover_the_round(self, result):
        assert set(result.segments) == {"ARK", "SB", "ShR", "MC"}
        for lo, hi in result.segments.values():
            assert 0 <= lo < hi

    def test_leakage_in_every_primitive(self, result):
        for name in ("SB", "ShR", "MC"):
            assert result.segment_peak(name) > 0.05, name

    def test_timecourse_length_matches_traces(self, result):
        assert result.timecourse.shape == (result.trace_set.n_samples,)

    def test_peak_correlation_in_papers_regime(self, result):
        peak = float(np.max(np.abs(result.timecourse)))
        assert 0.05 < peak < 0.5

    def test_render_has_plot_and_checks(self, result):
        text = result.render()
        assert "Figure 3" in text
        assert "per-primitive peaks" in text
        assert "[x]" in text


class TestWrongKeyControl:
    def test_wrong_guess_correlates_less(self, result):
        true_curve = np.max(np.abs(result.timecourse))
        wrong = (result.true_key_byte + 1) % 256
        wrong_curve = np.max(np.abs(result.cpa.timecourse(wrong)))
        assert true_curve > 1.5 * wrong_curve


class TestFloat32Precision:
    @pytest.fixture(scope="class")
    def fast(self):
        return run_figure3(n_traces=1500, precision="float32")

    def test_recovers_key(self, fast):
        assert fast.cpa.rank_of(fast.true_key_byte) == 0

    def test_peak_in_papers_regime(self, fast):
        assert 0.03 < fast.segment_peak("SB") < 0.4
