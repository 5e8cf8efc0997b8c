"""The ``ValueTable``: per-dynamic-instruction data-flow values for a batch.

This is the interface between the functional executors and the power
model.  For ``n_dyn`` dynamic instructions and ``n_traces`` independent
runs (each with different random inputs), the table stores one
``uint32[n_dyn, n_traces]`` array per :class:`ValueKind`.

Two sources implement :class:`ValueSource`: the dense :class:`ValueTable`,
filled from the scalar executor's per-trace ``InstrRecord`` lists (the
reference the trace tape is tested against), and the tape's packed
matrix (:class:`repro.isa.vtrace.PackedValues`), which every acquisition
uses.  Both require the control flow to be input-independent (the same
dynamic path in every trace), which holds for constant-time code such as
the benchmark kernels and the table-based AES, and is asserted.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.isa.semantics import InstrRecord


class ValueKind(enum.Enum):
    """Which intermediate value of an instruction a component observes."""

    OP1 = "op1"
    OP2 = "op2"
    OP3 = "op3"
    SHIFTED = "shifted"
    RESULT = "result"
    STORE_DATA = "store_data"
    ADDR = "addr"
    BASE = "base"
    OFFSET = "offset"
    MEM_WORD = "mem_word"
    SUB_WORD = "sub_word"

    def __str__(self) -> str:
        return self.value


class ValueSource:
    """Interface the power synthesizer reads values through.

    ``values(dyn_index, kind)`` returns the ``uint32[n_traces]`` array of
    that intermediate, or ``None`` when the instruction does not produce
    it (treated as all-zeros by consumers).
    """

    n_traces: int
    n_dyn: int

    def values(self, dyn_index: int, kind: ValueKind):  # pragma: no cover - interface
        raise NotImplementedError


class ValueTable(ValueSource):
    """Dense ``[n_dyn, n_traces]`` uint32 arrays, one per value kind.

    Built from per-trace scalar runs, it is the reference for small
    programs and tests; acquisitions use the tape's packed matrix.
    """

    def __init__(self, arrays: dict[ValueKind, np.ndarray]):
        if not arrays:
            raise ValueError("empty value table")
        shapes = {a.shape for a in arrays.values()}
        if len(shapes) != 1:
            raise ValueError(f"inconsistent array shapes: {shapes}")
        self.arrays = {kind: np.ascontiguousarray(a, dtype=np.uint32) for kind, a in arrays.items()}
        self.n_dyn, self.n_traces = next(iter(self.arrays.values())).shape

    def values(self, dyn_index: int, kind: ValueKind) -> np.ndarray:
        """Value of ``kind`` for dynamic instruction ``dyn_index``: [n_traces]."""
        return self.arrays[kind][dyn_index]

    @classmethod
    def from_records(cls, per_trace_records: list[list[InstrRecord]]) -> "ValueTable":
        """Build from the scalar executor's per-trace record lists."""
        if not per_trace_records:
            raise ValueError("no traces")
        n_traces = len(per_trace_records)
        n_dyn = len(per_trace_records[0])
        paths = {tuple(r.instr.index for r in records) for records in per_trace_records}
        if len(paths) != 1:
            raise ValueError(
                "traces took different control-flow paths; the power model "
                "requires input-independent control flow"
            )
        arrays = {
            kind: np.zeros((n_dyn, n_traces), dtype=np.uint32) for kind in ValueKind
        }
        for t, records in enumerate(per_trace_records):
            for d, record in enumerate(records):
                for kind in ValueKind:
                    arrays[kind][d, t] = getattr(record, kind.value) & 0xFFFFFFFF
        return cls(arrays)
