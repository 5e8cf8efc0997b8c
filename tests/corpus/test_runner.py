"""The batch runner: isolation, store round-trips, resume, equivalence."""

import dataclasses

import pytest

from repro.backends import fork_available
from repro.corpus.manifest import GridEntry, Manifest
from repro.corpus.runner import (
    CorpusCampaign,
    WorkloadCapabilityError,
)
from repro.corpus.workloads import ENGINE_CAPABILITIES, workload

TINY = Manifest(name="tiny", workloads=("present-round", "memcpy"), budgets=(48,))


def tiny_campaign(tmp_path, **knobs):
    knobs.setdefault("store", str(tmp_path / "store"))
    return CorpusCampaign(TINY, **knobs)


class TestEndToEnd:
    def test_all_cells_complete(self, tmp_path):
        result = tiny_campaign(tmp_path).run()
        assert result.failed == 0
        assert len(result.cells) == 2
        assert result.store_misses == 2 and result.store_hits == 0
        for cell_result in result.cells:
            assert cell_result.metrics.final.budget == 48
            assert cell_result.n_traces == 48
            assert cell_result.key is not None

    def test_rerun_is_fully_store_served(self, tmp_path):
        tiny_campaign(tmp_path).run()
        again = tiny_campaign(tmp_path).run()
        assert again.store_hits == 2 and again.store_misses == 0
        assert all(cell.cached for cell in again.cells)

    def test_store_served_metrics_match_the_run(self, tmp_path):
        first = tiny_campaign(tmp_path).run()
        again = tiny_campaign(tmp_path).run()
        for a, b in zip(first.cells, again.cells):
            assert a.metrics.to_json() == b.metrics.to_json()

    def test_force_re_executes(self, tmp_path):
        tiny_campaign(tmp_path).run()
        forced = tiny_campaign(tmp_path, force=True).run()
        assert forced.store_hits == 0 and forced.store_misses == 2

    def test_no_store_runs_without_persistence(self, tmp_path):
        result = tiny_campaign(tmp_path, store=None).run()
        assert result.failed == 0
        assert result.store_dir is None
        assert not (tmp_path / "store").exists()

    def test_global_trace_override_wins_over_budgets(self, tmp_path):
        result = tiny_campaign(tmp_path, n_traces=32).run()
        assert all(cell.n_traces == 32 for cell in result.cells)

    def test_ranking_is_leakiest_first(self, tmp_path):
        result = tiny_campaign(tmp_path).run()
        ranked = result.ranked()
        ts = [cell.metrics.final.max_t for cell in ranked]
        assert ts == sorted(ts, reverse=True)

    def test_render_and_json_surface(self, tmp_path):
        result = tiny_campaign(tmp_path).run()
        text = result.render()
        assert "leakiest first" in text and "2 ok" in text
        record = result.to_json()
        assert record["manifest"] == "tiny"
        assert record["store"]["misses"] == 2
        assert len(record["ranking"]) == 2
        assert result.matches_paper is None
        assert set(result.artifacts()) == {"max_t", "peak_snr", "cpa_margin"}


class TestIsolation:
    def test_poisoned_config_fails_only_its_cells(self, tmp_path):
        manifest = Manifest(
            name="poison",
            workloads=("memcpy",),
            configs=(
                GridEntry("ok"),
                GridEntry("bad", overrides=(("no_such_field", 1),)),
            ),
            budgets=(32,),
        )
        result = CorpusCampaign(manifest, store=None).run()
        assert len(result.cells) == 2
        ok = [cell for cell in result.cells if cell.ok]
        bad = [cell for cell in result.cells if not cell.ok]
        assert len(ok) == 1 and len(bad) == 1
        assert "no_such_field" in bad[0].error
        assert result.to_json()["errors"] == {bad[0].cell.name: bad[0].error}

    def test_unknown_workload_fails_only_its_cells(self, tmp_path):
        manifest = Manifest(
            name="m", workloads=("memcpy", "no-such"), budgets=(32,)
        )
        result = CorpusCampaign(manifest, store=None).run()
        assert result.failed == 1
        assert "no-such" in result.to_json()["errors"]["no-such/baseline/default/n32"]

    def test_poisoned_scope_fails_only_its_cells(self, tmp_path):
        manifest = Manifest(
            name="m",
            workloads=("memcpy",),
            scopes=(
                GridEntry("ok"),
                GridEntry("bad", overrides=(("not_a_scope_field", 2),)),
            ),
            budgets=(32,),
        )
        result = CorpusCampaign(manifest, store=None).run()
        assert result.failed == 1

    def test_errors_are_never_stored(self, tmp_path):
        manifest = Manifest(name="m", workloads=("no-such",), budgets=(32,))
        store_dir = tmp_path / "store"
        CorpusCampaign(manifest, store=str(store_dir)).run()
        assert list(store_dir.glob("*.json")) == []


class TestCapabilityNegotiation:
    def test_restricted_workload_rejects_engine_knobs(self, tmp_path):
        from repro.corpus.workloads import _REGISTRY, register_workload

        base = workload("memcpy")
        restricted = dataclasses.replace(
            base, name="memcpy-restricted", capabilities=frozenset()
        )
        register_workload(restricted)
        try:
            manifest = Manifest(
                name="m", workloads=("memcpy-restricted",), budgets=(32,)
            )
            result = CorpusCampaign(manifest, store=None, chunk_size=16).run()
            assert result.failed == 1
            assert "chunk_size" in result.cells[0].error
        finally:
            _REGISTRY.pop("memcpy-restricted", None)

    def test_negotiation_error_names_every_knob(self):
        error = WorkloadCapabilityError("w", ("chunk_size", "retries"))
        assert "chunk_size" in str(error) and "retries" in str(error)

    def test_full_capability_workloads_accept_all_knobs(self, tmp_path):
        campaign = tiny_campaign(
            tmp_path, chunk_size=16, backend="serial", retries=0
        )
        assert campaign._requested_knobs() == ("chunk_size", "backend", "retries")
        for name in TINY.workloads:
            campaign._negotiate(workload(name))  # must not raise

    def test_engine_capability_constant_matches_negotiable_knobs(self):
        from repro.corpus.runner import _KNOB_CAPABILITIES

        assert set(_KNOB_CAPABILITIES.values()) == ENGINE_CAPABILITIES


class TestEquivalence:
    def test_chunked_equals_monolithic_on_float32(self, tmp_path):
        # The float32 chain's noise is counter-addressed by absolute
        # trace position, so chunking cannot change the realization
        # (float64-exact draws serially; there chunk_size is part of
        # the result identity and lives in the job key instead).
        mono = tiny_campaign(tmp_path, store=None, precision="float32").run()
        chunked = tiny_campaign(
            tmp_path, store=None, precision="float32", chunk_size=16
        ).run()
        for a, b in zip(mono.cells, chunked.cells):
            fa, fb = a.metrics.final, b.metrics.final
            assert fa.cpa_rank == fb.cpa_rank
            # Same traces; the fold's online accumulators combine in a
            # different order (1 update vs 3), so scores agree to ulps.
            assert fa.max_t == pytest.approx(fb.max_t, rel=1e-9)
            assert fa.cpa_margin == pytest.approx(fb.cpa_margin, rel=1e-9)
            assert fa.peak_snr == pytest.approx(fb.peak_snr, rel=1e-9)

    @pytest.mark.skipif(not fork_available(), reason="fork unavailable")
    def test_fork_fold_equals_serial_fold(self, tmp_path):
        serial = tiny_campaign(tmp_path, store=None, chunk_size=16).run()
        forked = tiny_campaign(
            tmp_path, store=None, chunk_size=16, backend="fork", jobs=2
        ).run()
        for a, b in zip(serial.cells, forked.cells):
            assert a.metrics.to_json() == b.metrics.to_json()

    def test_store_key_identical_across_execution_layouts(self, tmp_path):
        mono = tiny_campaign(tmp_path).run()
        parallel = tiny_campaign(
            tmp_path, store=str(tmp_path / "store"), backend="fork", jobs=2
        ).run()
        # Same result identity -> the parallel rerun is a pure hit.
        assert parallel.store_hits == 2
        assert [c.key for c in mono.cells] == [c.key for c in parallel.cells]


class TestCheckpointResume:
    def test_resume_skips_completed_cells(self, tmp_path, monkeypatch):
        checkpoint = str(tmp_path / "ckpt")
        first = tiny_campaign(tmp_path, store=None)
        first.run(checkpoint=checkpoint)

        second = tiny_campaign(tmp_path, store=None)

        def boom(cell, backend):
            raise AssertionError("resume must not re-run completed cells")

        monkeypatch.setattr(second, "_run_cell", boom)
        resumed = second.run(checkpoint=checkpoint, resume=True)
        assert resumed.failed == 0
        assert resumed.resumed == (0, 1)
        assert len(resumed.cells) == 2

    def test_fingerprint_excludes_execution_layout(self, tmp_path):
        cells = TINY.expand()
        a = CorpusCampaign(TINY, store=None, jobs=1)
        b = CorpusCampaign(TINY, store=None, jobs=4, backend="fork")
        assert a._fingerprint(cells) == b._fingerprint(cells)

    def test_fingerprint_covers_result_knobs(self, tmp_path):
        cells = TINY.expand()
        a = CorpusCampaign(TINY, store=None)
        b = CorpusCampaign(TINY, store=None, n_traces=64)
        c = CorpusCampaign(TINY, store=None, seed=99)
        assert a._fingerprint(cells) != b._fingerprint(cells)
        assert a._fingerprint(cells) != c._fingerprint(cells)


class TestValidation:
    def test_reduce_is_not_a_corpus_knob(self):
        with pytest.raises(TypeError, match="reduce"):
            CorpusCampaign(TINY, store=None, reduce="worker")
