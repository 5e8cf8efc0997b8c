"""Attack leakage models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaigns.accumulators import CpaAccumulator, CpaBudgetSnapshots
from repro.crypto.aes import sub_bytes_out_round1
from repro.crypto.sbox import SBOX
from repro.sca.cpa import cpa_attack, cpa_attack_curve
from repro.sca.models import (
    hd_consecutive_stores_model,
    hd_stores_matrix,
    hd_value_model,
    hw_sbox_matrix,
    hw_sbox_model,
    hw_value_model,
)


class TestHwSboxModel:
    def test_matches_direct_computation(self):
        pts = np.array([[0x12] + [0] * 15, [0xA5] + [0] * 15], dtype=np.uint8)
        model = hw_sbox_model(pts, 0, 0x3C)
        expected = [int(SBOX[0x12 ^ 0x3C]).bit_count(), int(SBOX[0xA5 ^ 0x3C]).bit_count()]
        assert list(model) == expected

    def test_range_is_byte_hw(self):
        rng = np.random.default_rng(0)
        pts = rng.integers(0, 256, size=(500, 16), dtype=np.uint8)
        model = hw_sbox_model(pts, 3, 0x11)
        assert model.min() >= 0 and model.max() <= 8

    def test_guess_changes_model(self):
        rng = np.random.default_rng(1)
        pts = rng.integers(0, 256, size=(100, 16), dtype=np.uint8)
        assert not np.array_equal(hw_sbox_model(pts, 0, 0), hw_sbox_model(pts, 0, 1))


class TestHdStoresModel:
    def test_matches_direct_computation(self):
        pts = np.array([[0x10, 0x20] + [0] * 14], dtype=np.uint8)
        model = hd_consecutive_stores_model(pts, 0, (0xAA, 0xBB))
        sb0 = SBOX[0x10 ^ 0xAA]
        sb1 = SBOX[0x20 ^ 0xBB]
        assert model[0] == (sb0 ^ sb1).bit_count()

    def test_depends_on_both_key_bytes(self):
        rng = np.random.default_rng(2)
        pts = rng.integers(0, 256, size=(200, 16), dtype=np.uint8)
        base = hd_consecutive_stores_model(pts, 0, (1, 2))
        assert not np.array_equal(base, hd_consecutive_stores_model(pts, 0, (1, 3)))
        assert not np.array_equal(base, hd_consecutive_stores_model(pts, 0, (9, 2)))


class TestSubBytesHelper:
    def test_flat_and_indexed_forms_agree(self):
        rng = np.random.default_rng(3)
        pts = rng.integers(0, 256, size=(50, 16), dtype=np.uint8)
        flat = sub_bytes_out_round1(pts[:, 4], 0x77)
        indexed = sub_bytes_out_round1(pts, 0x77, byte_index=4)
        assert np.array_equal(flat, indexed)

    def test_missing_byte_index_rejected(self):
        pts = np.zeros((3, 16), dtype=np.uint8)
        with pytest.raises(ValueError):
            sub_bytes_out_round1(pts, 0)


class TestGenericModels:
    def test_hw_value_model(self):
        assert list(hw_value_model(np.array([0, 0xFF, 0xFFFFFFFF]))) == [0, 8, 32]

    def test_hd_value_model(self):
        values = hd_value_model(np.array([0xF0]), np.array([0x0F]))
        assert list(values) == [8]


class TestModelMatrices:
    """The one-gather builders equal the per-guess reference stack, byte for byte."""

    @settings(max_examples=30, deadline=None)
    @given(
        n_traces=st.integers(min_value=1, max_value=120),
        byte_index=st.integers(min_value=0, max_value=14),
        known=st.integers(min_value=0, max_value=255),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_hd_stores_matrix_is_the_reference_stack(self, n_traces, byte_index, known, seed):
        pts = np.random.default_rng(seed).integers(0, 256, size=(n_traces, 16), dtype=np.uint8)
        stacked = np.stack(
            [hd_consecutive_stores_model(pts, byte_index, (known, g)) for g in range(256)],
            axis=1,
        )
        gathered = hd_stores_matrix(pts, byte_index, known)
        assert gathered.dtype == stacked.dtype and gathered.shape == stacked.shape
        assert gathered.tobytes() == stacked.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        n_traces=st.integers(min_value=1, max_value=120),
        byte_index=st.integers(min_value=0, max_value=15),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_hw_sbox_matrix_is_the_reference_stack(self, n_traces, byte_index, seed):
        pts = np.random.default_rng(seed).integers(0, 256, size=(n_traces, 16), dtype=np.uint8)
        stacked = np.stack(
            [hw_sbox_model(pts, byte_index, g) for g in range(256)], axis=1
        )
        gathered = hw_sbox_matrix(pts, byte_index)
        assert gathered.dtype == stacked.dtype and gathered.shape == stacked.shape
        assert gathered.tobytes() == stacked.tobytes()


class TestCallableModelsRejected:
    """A model is a matrix or a ClassModel; a per-guess callable is a TypeError."""

    @pytest.fixture
    def campaign(self):
        rng = np.random.default_rng(4)
        pts = rng.integers(0, 256, size=(40, 16), dtype=np.uint8)
        return pts, rng.normal(size=(40, 3))

    def test_cpa_attack(self, campaign):
        pts, traces = campaign
        with pytest.raises(TypeError):
            cpa_attack(traces, lambda g: hw_sbox_model(pts, 0, g))

    def test_cpa_attack_curve(self, campaign):
        pts, traces = campaign
        with pytest.raises(TypeError):
            cpa_attack_curve(traces, lambda g: hw_sbox_model(pts, 0, g), [20, 40])

    def test_cpa_accumulator_update(self, campaign):
        pts, traces = campaign
        with pytest.raises(TypeError):
            CpaAccumulator().update(traces, lambda g: hw_sbox_model(pts, 0, g))

    def test_budget_snapshots_update(self, campaign):
        pts, traces = campaign
        with pytest.raises(TypeError):
            CpaBudgetSnapshots([20, 40]).update(traces, lambda g: hw_sbox_model(pts, 0, g))
