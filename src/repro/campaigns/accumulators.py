"""Online sufficient-statistics accumulators for streaming campaigns.

The two-pass references (:func:`repro.sca.stats.pearson_corr`,
:func:`repro.sca.cpa.cpa_attack`) read a whole ``[n_traces,
n_samples]`` trace matrix.  The accumulators in this module fold
fixed-size trace chunks into running sufficient statistics instead, so
a campaign of arbitrary size runs in memory proportional to one chunk;
every trace-driven scenario folds through them, via the chunk folds of
:mod:`repro.campaigns.reduction`:

* :class:`OnlineMeanVar` — Welford/Chan mean and variance, vectorized
  over sample columns, with batched updates and pairwise ``merge`` (the
  parallel-combine form of Chan et al.);
* :class:`OnlineCorrAccumulator` — Pearson correlation of every model
  column against every trace sample, kept as centered co-moments so the
  result matches :func:`repro.sca.stats.pearson_corr` to ~1e-13;
* :class:`OnlineSnrAccumulator` — per-class mean/variance partitions
  reproducing :func:`repro.sca.snr.partition_snr`;
* :class:`OnlineTTestAccumulator` — two-group Welford reproducing
  :func:`repro.sca.ttest.welch_ttest`;
* :class:`CpaAccumulator` — folds chunks into a full
  :class:`repro.sca.cpa.CpaResult`.  A model is one of two forms: a
  ``[k, n_guesses]`` matrix, folded as per-guess co-moments, or a
  :class:`repro.sca.models.ClassModel` (a model that sees each trace
  only through a class label, like Figure 3's HW(SBOX[pt ^ guess])),
  folded as :class:`PartitionSums` — per-class trace sums.

The accumulators use the *centered* (co-moment) update rather than raw
sum/sum-of-squares, which is what keeps the streamed results numerically
matched to the two-pass reference implementations: raw power sums lose
roughly ``log10(n * mean^2 / variance)`` digits to cancellation, the
Chan form does not.  :class:`PartitionSums` is the one exception: its
class sums are exact on quantized traces, and only its trace variance
is a raw power sum, which keeps it within 1e-10 of the two-pass CPA for
DC offsets up to a few hundred noise sigmas (``docs/performance.md``,
"Partition-sum CPA").

Every finishing method (``correlations``, ``result``) is a *snapshot*:
it reads the sufficient statistics without consuming them, so a caller
can interleave updates and snapshots to obtain the statistic at every
prefix of a stream — that is the engine behind the chunk-aligned
:class:`CpaBudgetSnapshots` and the budget snapshots of
:class:`~repro.campaigns.reduction.ColumnCorrFold`.

Every accumulator additionally exposes a compact ``state()`` /
``from_state()`` serialization (plain dicts of numpy arrays and
scalars) so a worker process can ship *sufficient statistics* back to
the parent instead of raw traces (``docs/backends.md``, "Where a
chunk folds").  Merging a ``from_state`` round-trip of a
single-chunk accumulator is bit-identical to updating with that chunk
directly (the combine runs on exactly the chunk moments ``update``
would compute), which is what makes worker-side reduction byte-equal
to the serial fold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.sca.snr import SnrResult
from repro.sca.ttest import TVLA_THRESHOLD, TTestResult

if TYPE_CHECKING:
    from repro.sca.models import ClassModel


def _array(value, copy: bool, dtype=None) -> np.ndarray | None:
    """``value`` as an array, copied unless ``copy=False`` (``None`` stays)."""
    if value is None:
        return None
    value = np.asarray(value, dtype=dtype)
    return value.copy() if copy else value


class OnlineMeanVar:
    """Running mean/variance over axis 0, one scalar pair per column.

    Accepts whole chunks (``update``) and sibling accumulators
    (``merge``), both via Chan's parallel combination of centered second
    moments.  Feeding one chunk of everything reproduces the two-pass
    ``mean``/``var`` results exactly.
    """

    def __init__(self) -> None:
        self.n = 0
        self.mean: np.ndarray | None = None
        self._m2: np.ndarray | None = None

    def update(self, chunk: np.ndarray) -> None:
        """Fold ``chunk`` (``[k, ...]``, any column shape) into the stats."""
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.shape[0] == 0:
            return
        k = chunk.shape[0]
        chunk_mean = chunk.mean(axis=0)
        chunk_m2 = ((chunk - chunk_mean) ** 2).sum(axis=0)
        self._combine(k, chunk_mean, chunk_m2)

    def merge(self, other: "OnlineMeanVar", copy: bool = True) -> None:
        """Fold another accumulator (e.g. from a worker process) in.

        ``copy=False`` may take over ``other``'s arrays: for an ``other``
        that is dropped right after.
        """
        if other.n == 0 or other.mean is None or other._m2 is None:
            return
        self._combine(other.n, _array(other.mean, copy), _array(other._m2, copy))

    def _combine(self, k: int, mean: np.ndarray, m2: np.ndarray) -> None:
        if self.n == 0:
            self.n = k
            self.mean = mean
            self._m2 = m2
            return
        assert self.mean is not None and self._m2 is not None
        n_total = self.n + k
        delta = mean - self.mean
        self._m2 += m2 + delta**2 * (self.n * k / n_total)
        self.mean += delta * (k / n_total)
        self.n = n_total

    def state(self, copy: bool = True) -> dict:
        """The sufficient statistics as a compact, picklable dict
        (``copy=False`` shares the arrays, for an accumulator that is
        dropped right after)."""
        return {
            "n": int(self.n),
            "mean": _array(self.mean, copy),
            "m2": _array(self._m2, copy),
        }

    @classmethod
    def from_state(cls, state: dict, copy: bool = True) -> "OnlineMeanVar":
        """Rebuild from :meth:`state` (``copy=False`` adopts its arrays)."""
        acc = cls()
        acc.n = int(state["n"])
        acc.mean = _array(state["mean"], copy, np.float64)
        acc._m2 = _array(state["m2"], copy, np.float64)
        return acc

    def clone(self) -> "OnlineMeanVar":
        return self.from_state(self.state())

    def var(self, ddof: int = 0) -> np.ndarray:
        """Variance per column (population by default, like ``np.var``)."""
        if self.mean is None or self._m2 is None or self.n <= ddof:
            raise ValueError("not enough observations accumulated")
        return self._m2 / (self.n - ddof)

    @property
    def sum_sq_dev(self) -> np.ndarray:
        """The centered second moment ``sum((x - mean)^2)``."""
        if self._m2 is None:
            raise ValueError("no observations accumulated")
        return self._m2


class OnlineCorrAccumulator:
    """Streaming Pearson correlation of model columns vs trace samples.

    Maintains means, centered second moments and the centered
    co-moment matrix ``C = sum((x - mean_x)^T (y - mean_y))`` via Chan
    updates; :meth:`correlations` finishes with exactly the same
    division/clipping discipline as :func:`repro.sca.stats.pearson_corr`
    so a single-chunk stream is bit-identical and a multi-chunk stream
    matches to ~1e-13.
    """

    def __init__(self) -> None:
        self.n = 0
        self._single: bool | None = None
        self._mean_x: np.ndarray | None = None  # [n_models]
        self._mean_y: np.ndarray | None = None  # [n_samples]
        self._m2_x: np.ndarray | None = None
        self._m2_y: np.ndarray | None = None
        self._comoment: np.ndarray | None = None  # [n_models, n_samples]

    def update(self, models: np.ndarray, traces: np.ndarray) -> None:
        """Fold one chunk: ``models [k]``/``[k, m]``, ``traces [k, s]``."""
        models = np.asarray(models)
        if self._single is None:
            self._single = models.ndim == 1
        # C order fixes the summation order of the column means below.
        x = models.reshape(models.shape[0], -1).astype(np.float64, order="C")
        y = np.asarray(traces, dtype=np.float64)
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"trace count mismatch: {x.shape[0]} vs {y.shape[0]}")
        if x.shape[0] == 0:
            return
        k = x.shape[0]
        mean_x = x.mean(axis=0)
        mean_y = y.mean(axis=0)
        xc = x - mean_x
        yc = y - mean_y
        m2_x = (xc**2).sum(axis=0)
        m2_y = (yc**2).sum(axis=0)
        comoment = xc.T @ yc
        if self.n == 0:
            self.n = k
            self._mean_x, self._mean_y = mean_x, mean_y
            self._m2_x, self._m2_y = m2_x, m2_y
            self._comoment = comoment
            return
        assert self._mean_x is not None and self._mean_y is not None
        assert self._m2_x is not None and self._m2_y is not None
        assert self._comoment is not None
        if mean_x.shape != self._mean_x.shape or mean_y.shape != self._mean_y.shape:
            raise ValueError("chunk model/sample width changed between updates")
        n_total = self.n + k
        weight = self.n * k / n_total
        delta_x = mean_x - self._mean_x
        delta_y = mean_y - self._mean_y
        self._comoment += comoment + np.outer(delta_x, delta_y) * weight
        self._m2_x += m2_x + delta_x**2 * weight
        self._m2_y += m2_y + delta_y**2 * weight
        self._mean_x += delta_x * (k / n_total)
        self._mean_y += delta_y * (k / n_total)
        self.n = n_total

    def merge(self, other: "OnlineCorrAccumulator", copy: bool = True) -> None:
        """Fold a sibling accumulator (parallel worker) into this one.

        ``copy=False`` may take over ``other``'s arrays: for an ``other``
        that is dropped right after.
        """
        if other.n == 0:
            return
        if self.n == 0:
            self.n = other.n
            self._single = other._single
            for key in self._STATE_ARRAYS:
                setattr(self, f"_{key}", _array(getattr(other, f"_{key}"), copy))
            return
        assert other._mean_x is not None and other._mean_y is not None
        assert other._m2_x is not None and other._m2_y is not None
        assert other._comoment is not None
        n_total = self.n + other.n
        weight = self.n * other.n / n_total
        delta_x = other._mean_x - self._mean_x
        delta_y = other._mean_y - self._mean_y
        self._comoment += other._comoment + np.outer(delta_x, delta_y) * weight
        self._m2_x += other._m2_x + delta_x**2 * weight
        self._m2_y += other._m2_y + delta_y**2 * weight
        self._mean_x += delta_x * (other.n / n_total)
        self._mean_y += delta_y * (other.n / n_total)
        self.n = n_total

    _STATE_ARRAYS = ("mean_x", "mean_y", "m2_x", "m2_y", "comoment")

    def state(self, copy: bool = True) -> dict:
        """The sufficient statistics as a compact, picklable dict
        (``copy=False`` shares the arrays, for an accumulator that is
        dropped right after)."""
        record: dict = {"n": int(self.n), "single": self._single}
        for key in self._STATE_ARRAYS:
            record[key] = _array(getattr(self, f"_{key}"), copy)
        return record

    @classmethod
    def from_state(cls, state: dict, copy: bool = True) -> "OnlineCorrAccumulator":
        """Rebuild from :meth:`state` (``copy=False`` adopts its arrays)."""
        acc = cls()
        acc.n = int(state["n"])
        acc._single = state["single"]
        for key in cls._STATE_ARRAYS:
            setattr(acc, f"_{key}", _array(state[key], copy, np.float64))
        return acc

    def clone(self) -> "OnlineCorrAccumulator":
        return self.from_state(self.state())

    def correlations(self) -> np.ndarray:
        """``[n_models, n_samples]`` (or ``[n_samples]`` for 1-D models)."""
        if self.n == 0 or self._comoment is None:
            raise ValueError("no chunks accumulated")
        assert self._m2_x is not None and self._m2_y is not None
        denominator = np.outer(np.sqrt(self._m2_x), np.sqrt(self._m2_y))
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = self._comoment / denominator
        corr = np.nan_to_num(corr, nan=0.0, posinf=0.0, neginf=0.0)
        corr = np.clip(corr, -1.0, 1.0)
        return corr[0] if self._single else corr

    #: ``correlations`` reads the moments without consuming them; the
    #: alias documents that prefix-snapshot callers rely on it.
    snapshot = correlations


class OnlineSnrAccumulator:
    """Streaming SNR/NICV partitioned by an integer intermediate.

    Chunks arrive as ``(traces, labels)`` pairs; the accumulator keeps
    one :class:`OnlineMeanVar` per observed class plus a global one, and
    :meth:`result` reproduces :func:`repro.sca.snr.partition_snr`.
    """

    def __init__(self) -> None:
        self._classes: dict[int, OnlineMeanVar] = {}
        self._total = OnlineMeanVar()

    def update(self, traces: np.ndarray, labels: np.ndarray) -> None:
        traces = np.asarray(traces, dtype=np.float64)
        labels = np.asarray(labels)
        if labels.shape[0] != traces.shape[0]:
            raise ValueError("labels must have one entry per trace")
        self._total.update(traces)
        for value in np.unique(labels):
            rows = traces[labels == value]
            self._classes.setdefault(int(value), OnlineMeanVar()).update(rows)

    def merge(self, other: "OnlineSnrAccumulator") -> None:
        self._total.merge(other._total)
        for value, acc in other._classes.items():
            self._classes.setdefault(value, OnlineMeanVar()).merge(acc)

    def state(self) -> dict:
        """The sufficient statistics as a compact, picklable dict."""
        return {
            "classes": {value: acc.state() for value, acc in self._classes.items()},
            "total": self._total.state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "OnlineSnrAccumulator":
        acc = cls()
        acc._classes = {
            int(value): OnlineMeanVar.from_state(sub)
            for value, sub in state["classes"].items()
        }
        acc._total = OnlineMeanVar.from_state(state["total"])
        return acc

    def clone(self) -> "OnlineSnrAccumulator":
        return self.from_state(self.state())

    def result(self, min_class_size: int = 2) -> SnrResult:
        """Finish into an :class:`SnrResult` (same math as partition_snr)."""
        usable = [
            acc
            for _value, acc in sorted(self._classes.items())
            if acc.n >= min_class_size
        ]
        if len(usable) < 2:
            raise ValueError("need at least two usable classes for SNR")
        means = np.stack([acc.mean for acc in usable])
        variances = np.stack([acc.var() for acc in usable])
        weights = np.asarray([acc.n for acc in usable], dtype=np.float64)
        weights /= weights.sum()
        grand_mean = (weights[:, None] * means).sum(axis=0)
        signal = (weights[:, None] * (means - grand_mean) ** 2).sum(axis=0)
        noise = (weights[:, None] * variances).sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            snr = signal / noise
        snr = np.nan_to_num(snr, nan=0.0, posinf=0.0)
        total_var = self._total.var()
        with np.errstate(divide="ignore", invalid="ignore"):
            nicv = signal / total_var
        nicv = np.clip(np.nan_to_num(nicv, nan=0.0, posinf=0.0), 0.0, 1.0)
        return SnrResult(snr=snr, nicv=nicv, n_classes=len(usable))

    snapshot = result


class OnlineTTestAccumulator:
    """Streaming Welch t-test between two trace populations (TVLA)."""

    def __init__(self, threshold: float = TVLA_THRESHOLD) -> None:
        self.threshold = threshold
        self.group_a = OnlineMeanVar()
        self.group_b = OnlineMeanVar()

    def update_a(self, traces: np.ndarray) -> None:
        self.group_a.update(traces)

    def update_b(self, traces: np.ndarray) -> None:
        self.group_b.update(traces)

    def merge(self, other: "OnlineTTestAccumulator") -> None:
        self.group_a.merge(other.group_a)
        self.group_b.merge(other.group_b)

    def state(self) -> dict:
        """The sufficient statistics as a compact, picklable dict."""
        return {
            "threshold": float(self.threshold),
            "a": self.group_a.state(),
            "b": self.group_b.state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "OnlineTTestAccumulator":
        acc = cls(threshold=float(state["threshold"]))
        acc.group_a = OnlineMeanVar.from_state(state["a"])
        acc.group_b = OnlineMeanVar.from_state(state["b"])
        return acc

    def clone(self) -> "OnlineTTestAccumulator":
        return self.from_state(self.state())

    def result(self) -> TTestResult:
        """Finish into a :class:`TTestResult` (same math as welch_ttest)."""
        n_a, n_b = self.group_a.n, self.group_b.n
        if n_a < 2 or n_b < 2:
            raise ValueError("each group needs at least two traces")
        mean_a = self.group_a.mean
        mean_b = self.group_b.mean
        var_a = self.group_a.var(ddof=1)
        var_b = self.group_b.var(ddof=1)
        denom = np.sqrt(var_a / n_a + var_b / n_b)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (mean_a - mean_b) / denom
        t = np.nan_to_num(t, nan=0.0, posinf=0.0, neginf=0.0)
        return TTestResult(t_values=t, threshold=self.threshold)

    snapshot = result


#: :attr:`CpaAccumulator.kind` of the per-guess co-moment statistics
#: (a model matrix; also every state written without a kind).
COMOMENT = "comoment"
#: :attr:`CpaAccumulator.kind` of the per-class trace sums folded for a
#: :class:`repro.sca.models.ClassModel`.
PARTITION = "partition"


class StatisticKindMismatch(ValueError):
    """Co-moment and partition-sum CPA statistics were combined."""


@dataclass(eq=False)
class PartitionSums:
    """Sufficient statistics of a CPA whose model is a class table.

    For a :class:`~repro.sca.models.ClassModel` the model of trace ``i``
    under guess ``g`` is ``table[g, label_i]``, so every correlation is a
    function of the per-class trace sums ``[C, S]``, the class counts
    and the trace column sums ``Σy`` and ``Σy²`` — all plain sums, whose
    merge is addition.  On traces quantized to a grid (every capture
    chain here) the float64 class sums, counts and ``Σy`` are exact, so
    they are bitwise independent of chunking and order; ``Σy²`` is not,
    so byte identity across workers still rests on in-order merging.
    """

    table: np.ndarray  # [n_guesses, C], the model's
    counts: np.ndarray  # [C] int64
    class_sums: np.ndarray  # [C, S] float64
    sum_y: np.ndarray  # [S]
    sum_y2: np.ndarray  # [S]

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def of_chunk(cls, model: "ClassModel", traces: np.ndarray) -> "PartitionSums":
        """The statistics of one chunk under ``model``."""
        labels = np.asarray(model.labels, dtype=np.intp)
        traces = np.asarray(traces)
        if labels.shape[0] != traces.shape[0]:
            raise ValueError(f"trace count mismatch: {labels.shape[0]} vs {traces.shape[0]}")
        n_classes = model.table.shape[1]
        if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
            raise ValueError(f"class labels must lie in [0, {n_classes})")
        counts = np.bincount(labels, minlength=n_classes)
        # Sum each class's rows (in trace order), widening to float64.
        order = np.argsort(labels, kind="stable")
        ends = np.cumsum(counts)
        class_sums = np.zeros((n_classes, traces.shape[1]))
        for label in np.flatnonzero(counts):
            rows = order[ends[label] - counts[label] : ends[label]]
            np.add.reduce(traces[rows], axis=0, dtype=np.float64, out=class_sums[label])
        return cls(
            model.table,
            counts,
            class_sums,
            class_sums.sum(axis=0),
            np.einsum("ij,ij->j", traces, traces, dtype=np.float64),
        )

    def merge(self, other: "PartitionSums") -> None:
        if other.table is not self.table and not np.array_equal(other.table, self.table):
            raise ValueError("cannot merge partition sums over different model tables")
        if other.class_sums.shape != self.class_sums.shape:
            raise ValueError("chunk sample width changed between updates")
        self.counts += other.counts
        self.class_sums += other.class_sums
        self.sum_y += other.sum_y
        self.sum_y2 += other.sum_y2

    def state(self, copy: bool = True) -> dict:
        return {key: _array(value, copy) for key, value in vars(self).items()}

    @classmethod
    def from_state(cls, state: dict, copy: bool = True) -> "PartitionSums":
        return cls(**{key: _array(value, copy) for key, value in state.items()})

    def correlations(self, guesses: np.ndarray) -> np.ndarray:
        """``[n_guesses, n_samples]`` Pearson correlations.

        One centred product over the observed classes: the model table
        centred per guess on its trace-weighted mean, against the class
        sums centred on the trace mean.  Division and clipping follow
        :meth:`OnlineCorrAccumulator.correlations`.
        """
        present = np.flatnonzero(self.counts)
        n = self.n
        counts = self.counts[present].astype(np.float64)
        x = self.table[np.ix_(guesses, present)].astype(np.float64)
        x -= (x @ counts / n)[:, None]
        mean_y = self.sum_y / n
        y = self.class_sums[present] - np.outer(counts, mean_y)
        comoment = x @ y
        m2_x = x**2 @ counts
        m2_y = self.sum_y2 - self.sum_y * mean_y
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = comoment / np.outer(np.sqrt(m2_x), np.sqrt(m2_y))
        corr = np.nan_to_num(corr, nan=0.0, posinf=0.0, neginf=0.0)
        return np.clip(corr, -1.0, 1.0)


def _kind_of(stats: "OnlineCorrAccumulator | PartitionSums") -> str:
    return PARTITION if isinstance(stats, PartitionSums) else COMOMENT


def _model_input(model, guesses: np.ndarray, n_traces: int):
    """A chunk's CPA model, checked: a ``ClassModel`` as is, or a
    ``[k, n_guesses]`` matrix as float64.  Either slices by trace range."""
    from repro.sca.models import ClassModel

    if isinstance(model, ClassModel):
        return model
    if not isinstance(model, np.ndarray):
        raise TypeError(
            "a CPA model is a ClassModel or a [n_traces, n_guesses] matrix, "
            f"got {type(model).__name__}"
        )
    if model.shape != (n_traces, guesses.size):
        raise ValueError(
            f"model matrix has shape {model.shape}, expected ({n_traces}, {guesses.size})"
        )
    return np.asarray(model, dtype=np.float64)


def _chunk_statistics(traces: np.ndarray, model) -> "OnlineCorrAccumulator | PartitionSums":
    """One chunk's CPA statistics: partition sums for a ``ClassModel``,
    else the co-moments of a ``[k, n_guesses]`` model matrix."""
    if isinstance(model, np.ndarray):
        stats = OnlineCorrAccumulator()
        stats.update(model, traces)
        return stats
    return PartitionSums.of_chunk(model, traces)


class CpaAccumulator:
    """Folds trace chunks into a full :class:`repro.sca.cpa.CpaResult`.

    Each chunk arrives with its own model (built from that chunk's
    plaintexts), mirroring the :func:`repro.sca.cpa.cpa_attack`
    signature per chunk.

    The statistics take one of two kinds, fixed by the first chunk:
    a :class:`~repro.sca.models.ClassModel` folds :class:`PartitionSums`
    (``kind == PARTITION``); a ``[k, n_guesses]`` model matrix folds
    per-guess co-moments (``kind == COMOMENT``).  Combining the two
    kinds raises :class:`StatisticKindMismatch`; any other model raises
    :class:`TypeError`.
    """

    def __init__(self, guesses: Sequence[int] = tuple(range(256))) -> None:
        self.guesses = np.asarray(list(guesses))
        self._stats: OnlineCorrAccumulator | PartitionSums | None = None

    def __setstate__(self, attrs: dict) -> None:
        # Pickles from before the partition kind hold a bare co-moment
        # fold under ``_corr``.
        if "_corr" in attrs:
            attrs = {"guesses": attrs["guesses"], "_stats": attrs["_corr"]}
        self.__dict__.update(attrs)

    @property
    def kind(self) -> str | None:
        """``PARTITION``, ``COMOMENT``, or ``None`` before any data."""
        return None if self._stats is None else _kind_of(self._stats)

    @property
    def n_traces(self) -> int:
        return 0 if self._stats is None else self._stats.n

    def update(self, traces: np.ndarray, model) -> None:
        """Fold one chunk under its ``ClassModel`` or ``[k, n_guesses]`` matrix."""
        model = _model_input(model, self.guesses, traces.shape[0])
        self._absorb(_chunk_statistics(traces, model))

    def _absorb(self, stats: "OnlineCorrAccumulator | PartitionSums") -> None:
        """Combine one chunk's statistics, exactly as ``merge`` would."""
        if self._stats is None:
            self._stats = stats
        elif type(stats) is not type(self._stats):
            raise StatisticKindMismatch(
                f"cannot combine {self.kind} CPA statistics with {_kind_of(stats)} ones"
            )
        else:
            self._stats.merge(stats)

    def require_kind(self, kind: str) -> "CpaAccumulator":
        """``self``, if empty or of ``kind``; else :class:`StatisticKindMismatch`."""
        if self.kind not in (None, kind):
            raise StatisticKindMismatch(
                f"expected {kind} CPA statistics, found {self.kind} ones"
            )
        return self

    def merge(self, other: "CpaAccumulator", copy: bool = True) -> None:
        """Fold a sibling accumulator in.  ``copy=False`` may take over
        ``other``'s arrays: for an ``other`` that is dropped right after."""
        if not np.array_equal(self.guesses, other.guesses):
            raise ValueError("cannot merge CPA accumulators over different guesses")
        stats = other._stats
        if stats is None:
            return
        if self._stats is None and copy:
            stats = type(stats).from_state(stats.state(copy=False))  # never alias other
        self._absorb(stats)

    def state(self, copy: bool = True) -> dict:
        """The sufficient statistics as a compact, picklable dict
        (``copy=False`` shares the arrays, for an accumulator that is
        dropped right after)."""
        record: dict = {"guesses": _array(self.guesses, copy), "kind": self.kind}
        if self._stats is not None:
            record["stats"] = self._stats.state(copy)
        return record

    @classmethod
    def from_state(cls, state: dict, copy: bool = True) -> "CpaAccumulator":
        """Rebuild from :meth:`state` (``copy=False`` adopts its arrays)."""
        acc = cls(guesses=np.asarray(state["guesses"]))
        if "kind" not in state:
            # Written before the partition kind: co-moments under "corr".
            acc._stats = OnlineCorrAccumulator.from_state(state["corr"], copy)
        elif state["kind"] == PARTITION:
            acc._stats = PartitionSums.from_state(state["stats"], copy)
        elif state["kind"] == COMOMENT:
            acc._stats = OnlineCorrAccumulator.from_state(state["stats"], copy)
        elif state["kind"] is not None:
            raise ValueError(f"unknown CPA statistic kind {state['kind']!r}")
        return acc

    def clone(self) -> "CpaAccumulator":
        return self.from_state(self.state())

    def result(self):
        """Snapshot the folded state as a :class:`repro.sca.cpa.CpaResult`.

        Non-destructive: further ``update`` calls continue from the same
        sufficient statistics, so interleaving updates and ``result``
        snapshots yields the attack outcome at every stream prefix.
        """
        from repro.sca.cpa import CpaResult

        if self.n_traces == 0:
            raise ValueError("no chunks accumulated")
        if isinstance(self._stats, PartitionSums):
            correlations = self._stats.correlations(self.guesses)
        else:
            correlations = np.atleast_2d(self._stats.correlations())
        return CpaResult(
            correlations=correlations, guesses=self.guesses, n_traces=self.n_traces
        )

    snapshot = result


class BudgetSplitter:
    """Walks a chunk stream, splitting chunks at trace-budget boundaries.

    Feed it each chunk's length; it yields ``(low, high, budget)``
    sub-ranges covering the chunk in order, where ``budget`` names the
    trace budget the sub-range *completes* (snapshot after folding it)
    or ``None`` for the remainder past the last boundary in the chunk.
    """

    def __init__(self, budgets: Sequence[int], start: int = 0):
        budget_array = np.asarray(list(budgets), dtype=np.int64)
        if budget_array.size == 0 or np.any(budget_array <= 0):
            raise ValueError("budgets must be positive")
        if np.any(np.diff(budget_array) <= 0):
            raise ValueError("budgets must be strictly increasing")
        self.budgets = budget_array
        self._base = int(start)
        self._reached = int(np.searchsorted(self.budgets, self._base, side="right"))

    def split(self, chunk_len: int):
        low = 0
        while self._reached < self.budgets.size:
            boundary = int(self.budgets[self._reached]) - self._base
            if boundary > chunk_len:
                break
            yield low, boundary, int(self.budgets[self._reached])
            low = boundary
            self._reached += 1
        if low < chunk_len:
            yield low, chunk_len, None
        self._base += chunk_len


class CpaBudgetSnapshots:
    """A streaming CPA that snapshots a full result at each trace budget.

    Chunks arrive exactly as for :class:`CpaAccumulator`; whenever the
    accumulated trace count crosses a requested budget the update is
    split at the boundary and the attack state is snapshotted, so one
    pass over a (chunked, possibly budget-misaligned) campaign yields
    ``cpa_attack``-equivalent results at every budget — plus, via
    :meth:`result`, the full-campaign result of everything folded.

    In *deferred* mode (``defer=True``) the snapshots are not taken:
    each budget-split sub-range is folded into its own fresh
    :class:`CpaAccumulator` and appended to an ordered parts list.  A
    worker process can therefore fold its chunk at ``start=<chunk lo>``
    and ship only the parts; the parent merges them in stream order into
    a non-deferred instance, which replays exactly the combine sequence
    the serial fold would have run — bit for bit, because each part
    carries precisely the sub-range moments ``update`` computes.
    """

    def __init__(
        self,
        budgets: Sequence[int],
        guesses: Sequence[int] = tuple(range(256)),
        *,
        start: int = 0,
        defer: bool = False,
    ):
        self._splitter = BudgetSplitter(budgets, start=start)
        self.budgets = self._splitter.budgets
        self.guesses = np.asarray(list(guesses))
        self.start = int(start)
        self._defer = bool(defer)
        self._accumulator = CpaAccumulator(self.guesses)
        self._parts: list[tuple[int | None, CpaAccumulator]] = []
        self.results: list = []

    @property
    def n_traces(self) -> int:
        if self._defer:
            return sum(part.n_traces for _budget, part in self._parts)
        return self._accumulator.n_traces

    @property
    def end(self) -> int:
        """One past the last stream position folded (``start`` + length)."""
        return self._splitter._base

    def update(self, traces: np.ndarray, model) -> None:
        """Fold one chunk, snapshotting at every budget it crosses."""
        model = _model_input(model, self.guesses, traces.shape[0])
        for low, high, budget in self._splitter.split(traces.shape[0]):
            stats = _chunk_statistics(traces[low:high], model[low:high])
            if self._defer:
                part = CpaAccumulator(self.guesses)
                part._absorb(stats)
                self._parts.append((budget, part))
            else:
                self._accumulator._absorb(stats)
                if budget is not None:
                    self.results.append(self._accumulator.result())

    def merge(self, other: "CpaBudgetSnapshots", copy: bool = True) -> None:
        """Fold a *deferred* sibling in, in stream order.

        ``other`` must start exactly where this instance ends so the
        budget boundaries stay chunk-aligned; the parts replay the same
        per-sub-range combines the serial fold runs, keeping the merged
        snapshots byte-identical to serial streaming.  ``copy=False``
        may take over ``other``'s arrays: for an ``other`` that is
        dropped right after.
        """
        if not other._defer:
            raise ValueError("can only merge deferred (worker-side) snapshot parts")
        if not np.array_equal(self.budgets, other.budgets):
            raise ValueError("cannot merge snapshots over different budgets")
        if not np.array_equal(self.guesses, other.guesses):
            raise ValueError("cannot merge snapshots over different guesses")
        if other.start != self.end:
            raise ValueError(
                f"non-contiguous merge: have traces up to {self.end}, "
                f"parts start at {other.start}"
            )
        if self._defer:
            self._parts.extend(other._parts)
        else:
            for budget, part in other._parts:
                self._accumulator.merge(part, copy)
                if budget is not None:
                    self.results.append(self._accumulator.result())
        self._splitter._base = other._splitter._base
        self._splitter._reached = other._splitter._reached

    def state(self, copy: bool = True) -> dict:
        """The sufficient statistics as a compact, picklable dict
        (``copy=False`` shares the arrays, for an accumulator that is
        dropped right after)."""
        record: dict = {
            "budgets": _array(self.budgets, copy),
            "guesses": _array(self.guesses, copy),
            "start": self.start,
            "end": self.end,
            "defer": self._defer,
        }
        if self._defer:
            record["parts"] = [
                (budget, part.state(copy)) for budget, part in self._parts
            ]
        else:
            record["accumulator"] = self._accumulator.state(copy)
            record["results"] = [
                (_array(snap.correlations, copy), snap.n_traces) for snap in self.results
            ]
        return record

    @classmethod
    def from_state(cls, state: dict, copy: bool = True) -> "CpaBudgetSnapshots":
        """Rebuild from :meth:`state` (``copy=False`` adopts its arrays)."""
        from repro.sca.cpa import CpaResult

        acc = cls(
            state["budgets"],
            state["guesses"],
            start=int(state["start"]),
            defer=bool(state["defer"]),
        )
        acc._splitter._base = int(state["end"])
        acc._splitter._reached = int(
            np.searchsorted(acc.budgets, acc._splitter._base, side="right")
        )
        if acc._defer:
            acc._parts = [
                (None if budget is None else int(budget), CpaAccumulator.from_state(sub, copy))
                for budget, sub in state["parts"]
            ]
        else:
            acc._accumulator = CpaAccumulator.from_state(state["accumulator"], copy)
            acc.results = [
                CpaResult(
                    correlations=_array(correlations, copy),
                    guesses=acc.guesses,
                    n_traces=int(n_traces),
                )
                for correlations, n_traces in state["results"]
            ]
        return acc

    def clone(self) -> "CpaBudgetSnapshots":
        return self.from_state(self.state())

    def require_kind(self, kind: str) -> "CpaBudgetSnapshots":
        """``self``, if every folded part is empty or of ``kind``."""
        self._accumulator.require_kind(kind)
        for _budget, part in self._parts:
            part.require_kind(kind)
        return self

    def result(self):
        """The full-campaign :class:`CpaResult` over everything folded
        (the stream keeps accumulating past the last budget)."""
        if self._defer:
            raise ValueError("deferred snapshot parts have no finished result")
        return self._accumulator.result()
