"""Leakage models used by the paper's attacks and characterizations.

Two families:

* the *microarchitecture-unaware* model of Figure 3 — the Hamming weight
  of a SubBytes output byte (the classical DPA-book model);
* the *microarchitecture-aware* model of Figure 4 — the Hamming distance
  between two **consecutively stored** SubBytes output bytes, which maps
  onto the LSU store-path byte-lane buffer this repository models as
  ``align_store``.

An attack takes a model in one of two forms: a ``[n_traces,
n_guesses]`` float64 matrix (column ``g`` is the model under guess
``g``), or a :class:`ClassModel`.  Figure 3's model depends on a trace
only through one plaintext byte, so it is also offered as a
:class:`ClassModel` — per-trace class labels plus a ``[guess, class]``
table — which lets a streamed CPA fold per-class trace sums instead of
per-guess co-moments (see
:class:`repro.campaigns.accumulators.CpaAccumulator`).  The per-guess
functions (:func:`hw_sbox_model`, :func:`hd_consecutive_stores_model`)
are the one-column references the matrix builders are checked against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.crypto.aes import sub_bytes_out_round1
from repro.power.hamming import hamming_distance, hamming_weight


@dataclass(frozen=True, eq=False)
class ClassModel:
    """A leakage model that sees each trace only through a class label.

    ``labels`` holds one class in ``[0, C)`` per trace and ``table`` is
    ``[n_guesses, C]``: the model of trace ``i`` under guess ``g`` is
    ``table[g, labels[i]]``.  Slicing selects traces: ``model[lo:hi]``
    is the model of that trace range.
    """

    labels: np.ndarray
    table: np.ndarray

    def __getitem__(self, rows) -> "ClassModel":
        return ClassModel(self.labels[rows], self.table)


@functools.cache
def hw_sbox_table() -> np.ndarray:
    """The shared read-only ``uint8[256 guesses, 256 bytes]`` table of
    ``HW(SBOX[byte ^ guess])``."""
    values = np.arange(256, dtype=np.uint8)
    table = np.stack(
        [hamming_weight(sub_bytes_out_round1(values, guess)) for guess in range(256)]
    )
    table.setflags(write=False)
    return table


def _state_byte(plaintexts: np.ndarray, byte_index: int | None) -> np.ndarray:
    """The attacked byte per trace, as :func:`sub_bytes_out_round1` reads it."""
    pt = np.asarray(plaintexts, dtype=np.uint8)
    return pt[:, byte_index] if pt.ndim == 2 else pt


def hw_sbox_class_model(plaintexts: np.ndarray, byte_index: int | None) -> ClassModel:
    """Figure 3's model as a :class:`ClassModel` over the plaintext byte;
    ``table[g][labels]`` equals ``hw_sbox_model(plaintexts, byte_index, g)``."""
    return ClassModel(_state_byte(plaintexts, byte_index), hw_sbox_table())


def hw_sbox_matrix(plaintexts: np.ndarray, byte_index: int | None) -> np.ndarray:
    """``[n_traces, 256]`` float64: column ``g`` is ``hw_sbox_model(..., g)``."""
    return hw_sbox_table().T[_state_byte(plaintexts, byte_index)].astype(np.float64)


@functools.cache
def _sbox_xor_table() -> np.ndarray:
    """The shared read-only ``uint8[256 bytes, 256 guesses]`` table of
    ``SBOX[byte ^ guess]``."""
    values = np.arange(256, dtype=np.uint8)
    table = np.stack(
        [sub_bytes_out_round1(values, guess) for guess in range(256)], axis=1
    )
    table.setflags(write=False)
    return table


def hd_stores_matrix(
    plaintexts: np.ndarray, byte_index: int, known_key_byte: int
) -> np.ndarray:
    """Figure 4's chained model as one ``[n_traces, 256]`` float64 gather.

    Byte ``byte_index`` is known; column ``g`` is
    ``hd_consecutive_stores_model(plaintexts, byte_index, (known_key_byte, g))``.
    """
    pt = np.asarray(plaintexts, dtype=np.uint8)
    known = sub_bytes_out_round1(pt, known_key_byte, byte_index)
    guessed = _sbox_xor_table()[pt[:, byte_index + 1]]
    return np.bitwise_count(guessed ^ known[:, None]).astype(np.float64)


def hw_sbox_model(plaintexts: np.ndarray, byte_index: int, key_guess: int) -> np.ndarray:
    """HW(SBOX[pt[byte] ^ guess]) per trace (Figure 3's model)."""
    sbox_out = sub_bytes_out_round1(plaintexts, key_guess, byte_index)
    return hamming_weight(sbox_out).astype(np.float64)


def hd_consecutive_stores_model(
    plaintexts: np.ndarray,
    byte_index: int,
    key_guess_pair: tuple[int, int],
) -> np.ndarray:
    """HD between SubBytes outputs of bytes ``i`` and ``i+1`` (Figure 4).

    The model needs both key bytes; ``key_guess_pair`` carries the guess
    for ``byte_index`` and ``byte_index + 1``.  Attacks either search the
    joint 16-bit space or chain: recover one byte with the HW model,
    then extend byte by byte with this model.
    """
    guess_i, guess_next = key_guess_pair
    sbox_i = sub_bytes_out_round1(plaintexts, guess_i, byte_index)
    sbox_next = sub_bytes_out_round1(plaintexts, guess_next, byte_index + 1)
    return hamming_distance(sbox_i, sbox_next).astype(np.float64)


def hw_value_model(values: np.ndarray) -> np.ndarray:
    """HW of arbitrary known intermediates (characterization helper)."""
    return hamming_weight(np.asarray(values, dtype=np.uint32)).astype(np.float64)


def hd_value_model(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """HD of two arbitrary known intermediates (characterization helper)."""
    return hamming_distance(
        np.asarray(a, dtype=np.uint32), np.asarray(b, dtype=np.uint32)
    ).astype(np.float64)
