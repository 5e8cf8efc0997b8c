"""The sweep engine: reference equivalence, dedup, jobs determinism."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.backends import fork_available
from repro.campaigns.engine import (
    StreamingCampaign,
    clear_schedule_cache,
    schedule_cache_info,
    schedule_compiles,
)
from repro.sca.cpa import cpa_attack
from repro.sca.snr import partition_snr
from repro.sca.ttest import welch_ttest
from repro.sweeps.campaign import SweepCampaign
from repro.sweeps.grids import sweep_ablations_spec
from repro.sweeps.metrics import T_SPLIT
from repro.sweeps.spec import SweepSpec
from repro.uarch.presets import PRESET_ORDER


class TestPresetSweepMatchesReference:
    """Acceptance: the degenerate 5-preset grid within 1e-10 of two-pass."""

    @pytest.fixture(scope="class")
    def campaign(self):
        return SweepCampaign(
            sweep_ablations_spec(), n_traces=240, budgets=(120, 240), seed=0xA11
        )

    @pytest.fixture(scope="class")
    def result(self, campaign):
        return campaign.run()

    def test_covers_the_five_presets(self, result):
        assert [p.name for p in result.points] == list(PRESET_ORDER)
        assert result.baseline is not None
        assert result.baseline.name == "cortex-a7"

    def test_metrics_match_two_pass_reference(self, campaign, result):
        workload = campaign.workload
        program = workload.build_program()
        inputs = workload.build_inputs(campaign.n_traces, campaign.seed)
        models = workload.model_matrix(inputs, 0, campaign.n_traces)
        labels = models[:, workload.true_key].astype(np.int64)
        low, high = T_SPLIT
        for point_result in result.points:
            engine = StreamingCampaign(
                program,
                config=point_result.point.config,
                profile=campaign.profile,
                scope=point_result.point.resolve_scope(campaign.base_scope),
                entry=workload.entry,
                seed=campaign.seed,
            )
            # float64 like the accumulators promote to (welch_ttest
            # keeps its input dtype; the fold's contract is float64)
            traces = engine.acquire(inputs).traces.astype(np.float64)
            for entry in point_result.metrics.per_budget:
                b = entry.budget
                cpa = cpa_attack(traces[:b], models[:b])
                assert entry.cpa_rank == cpa.rank_of(workload.true_key)
                assert entry.cpa_margin == pytest.approx(
                    cpa.margin_confidence(), abs=1e-10
                )
                assert entry.peak_corr == pytest.approx(
                    float(np.max(np.abs(cpa.timecourse(workload.true_key)))),
                    abs=1e-10,
                )
                prefix_labels = labels[:b]
                ttest = welch_ttest(
                    traces[:b][prefix_labels <= low],
                    traces[:b][prefix_labels >= high],
                )
                assert entry.max_t == pytest.approx(ttest.max_abs_t, abs=1e-10)
                snr = partition_snr(traces[:b], prefix_labels)
                assert entry.peak_snr == pytest.approx(snr.peak_snr, abs=1e-10)

    def test_report_ranks_and_links_baseline(self, result):
        text = result.render()
        assert "leakiest first" in text
        assert "cortex-a7 *" in text
        data = result.to_json()
        assert data["baseline"] == "cortex-a7"
        assert len(data["points"]) == 5
        assert set(data["ranking"]) == set(PRESET_ORDER)


class TestScheduleDedup:
    def test_16_point_grid_compiles_each_pipeline_once(self):
        clear_schedule_cache()
        spec = SweepSpec.from_grid(
            "dedup",
            {
                "dual_issue": (True, False),
                "lsu_remanence": (True, False),
                "scope.noise_sigma": (6.0, 12.0),
                "scope.n_averages": (1, 16),
            },
        )
        assert spec.n_points == 16
        result = SweepCampaign(spec, n_traces=64, seed=0xDE9).run()
        # Four structural pipelines; the 4x scope variants share them.
        assert result.compile_stats == (4, 16)
        _programs, entries = schedule_cache_info()
        assert entries == 4
        assert "cache deduplicated 12" in result.render()

    def test_renamed_variant_shares_the_baseline_schedule(self):
        clear_schedule_cache()
        spec = SweepSpec.from_grid("noise", {"scope.noise_sigma": (6.0, 9.0, 15.0)})
        result = SweepCampaign(spec, n_traces=48, seed=0xDEA).run()
        assert result.compile_stats == (1, 3)

    def test_repeated_sweep_recompiles_nothing(self):
        clear_schedule_cache()
        spec = SweepSpec.from_grid("repeat", {"dual_issue": (True, False)})
        first = SweepCampaign(spec, n_traces=48, seed=0xDEB).run()
        assert first.compile_stats == (2, 2)
        # Same program content, fresh Program object: nothing recompiles,
        # whatever the seed, and the report still counts the grid's
        # distinct schedules, as a cold run does.
        for seed in (0xDEB, 0xDEC):
            before = schedule_compiles()
            again = SweepCampaign(spec, n_traces=48, seed=seed).run()
            assert schedule_compiles() - before == 0
            assert again.compile_stats == (2, 2)
        assert "compiled schedules: 2 for 2 points" in again.render()
        assert schedule_cache_info()[1] == 2

    def test_forked_sweep_reports_the_structural_bound(self):
        from repro.backends.pools import fork_available

        if not fork_available():
            pytest.skip("fork start method unavailable")
        spec = SweepSpec.from_grid("forked", {"dual_issue": (True, False)})
        SweepCampaign(spec, n_traces=48, seed=0xDED).run()
        # Workers compile in caches the parent cannot see, so the
        # report falls back to the distinct (config, scope) pairs.
        forked = SweepCampaign(spec, n_traces=48, seed=0xDED, jobs=2, backend="fork").run()
        assert forked.compile_stats == (2, 2)


class TestJobsDeterminism:
    @pytest.mark.parametrize("chunk_size", (None, 64))
    def test_point_results_independent_of_worker_count(self, chunk_size):
        spec = SweepSpec.from_grid(
            "jobs", {"dual_issue": (True, False), "lsu_remanence": (True, False)}
        )

        def run(jobs):
            return SweepCampaign(
                spec,
                n_traces=160,
                budgets=(80, 160),
                chunk_size=chunk_size,
                jobs=jobs,
                seed=0x10B5,
            ).run()

        serial = run(1)
        parallel = run(3)
        assert [p.name for p in serial.points] == [p.name for p in parallel.points]
        for left, right in zip(serial.points, parallel.points):
            assert left.metrics.per_budget == right.metrics.per_budget
            assert left.is_baseline == right.is_baseline


class TestChunkedSweep:
    def test_float32_chunked_matches_float32_monolithic(self):
        # The counter-based capture chain makes chunking a no-op, so
        # the folded metrics agree with the monolithic fold to
        # accumulator precision.
        spec = SweepSpec.from_grid("f32", {"dual_issue": (True, False)})

        def run(chunk_size):
            return SweepCampaign(
                spec,
                n_traces=160,
                budgets=(80, 160),
                chunk_size=chunk_size,
                seed=0xF32,
                precision="float32",
            ).run()

        monolithic = run(None)
        chunked = run(48)
        for left, right in zip(monolithic.points, chunked.points):
            for el, er in zip(left.metrics.per_budget, right.metrics.per_budget):
                assert el.cpa_margin == pytest.approx(er.cpa_margin, abs=1e-7)
                assert el.max_t == pytest.approx(er.max_t, rel=1e-6)
                assert el.peak_snr == pytest.approx(er.peak_snr, rel=1e-6)
                assert el.cpa_rank == er.cpa_rank


class TestSweepCheckpointResume:
    """A sweep killed mid-grid resumes with only the missing points."""

    KW = dict(n_traces=96, budgets=(48, 96), seed=0xC41)

    def test_crashed_sweep_resumes_bit_identical(self, tmp_path, monkeypatch):
        clean = SweepCampaign(sweep_ablations_spec(), **self.KW).run()

        original = SweepCampaign._run_point
        calls = {"n": 0}

        def crashing(self, point, program, inputs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("synthetic mid-sweep crash")
            return original(self, point, program, inputs)

        # jobs=1 -> one-point batches: the first two points commit
        # before the third one crashes the sweep.
        monkeypatch.setattr(SweepCampaign, "_run_point", crashing)
        with pytest.raises(RuntimeError, match="mid-sweep"):
            SweepCampaign(sweep_ablations_spec(), **self.KW).run(
                checkpoint=str(tmp_path / "ckpt")
            )

        resumed_calls = {"n": 0}

        def counting(self, point, program, inputs):
            resumed_calls["n"] += 1
            return original(self, point, program, inputs)

        monkeypatch.setattr(SweepCampaign, "_run_point", counting)
        result = SweepCampaign(sweep_ablations_spec(), **self.KW).run(
            checkpoint=str(tmp_path / "ckpt"), resume=True
        )
        # 5 preset points, 2 checkpointed: only 3 re-execute.
        assert resumed_calls["n"] == 3
        assert [p.name for p in result.points] == [p.name for p in clean.points]
        for ours, theirs in zip(result.points, clean.points):
            assert ours.metrics.to_json() == theirs.metrics.to_json()
        assert result.render()

    def test_resume_against_a_different_grid_is_refused(self, tmp_path):
        from repro.campaigns.checkpoint import CheckpointMismatch

        SweepCampaign(sweep_ablations_spec(), **self.KW).run(
            checkpoint=str(tmp_path / "ckpt")
        )
        with pytest.raises(CheckpointMismatch):
            SweepCampaign(
                sweep_ablations_spec(), n_traces=96, budgets=(48, 96), seed=0xC42
            ).run(checkpoint=str(tmp_path / "ckpt"), resume=True)


class TestPresetAblationsRebase:
    def test_run_preset_ablations_delegates_to_the_sweep(self):
        from repro.experiments.ablations import run_preset_ablations

        result = run_preset_ablations(n_traces=96, seed=0xAB)
        assert [p.name for p in result.points] == list(PRESET_ORDER)
        assert result.compile_stats[1] == 5


def _without_seconds(record):
    """``record`` with wall time stripped, as the CI JSON comparisons do."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))
    try:
        from json_equal_modulo_seconds import stable
    finally:
        sys.path.pop(0)
    return stable(record)


@pytest.mark.parametrize("precision", [None, "float32"])
class TestOneFoldPath:
    """Every point runs one fold; its layout never moves a byte."""

    SPEC = SweepSpec.from_grid("layouts", {"dual_issue": (True, False)})

    def run(self, precision, **knobs):
        result = SweepCampaign(
            self.SPEC,
            n_traces=150,
            budgets=(60, 150),
            seed=0xF01D,
            precision=precision,
            **knobs,
        ).run()
        return _without_seconds(result.to_json())

    def test_unchunked_equals_single_chunk(self, precision):
        monolithic = self.run(precision)
        assert self.run(precision, chunk_size=150) == monolithic

    @pytest.mark.skipif(not fork_available(), reason="fork unavailable")
    def test_chunked_fork_fanout_equals_chunked_serial(self, precision):
        chunked = self.run(precision, chunk_size=40)
        assert self.run(precision, chunk_size=40, backend="fork", jobs=2) == chunked
