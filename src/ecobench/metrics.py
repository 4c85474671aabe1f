"""Confusion matrices and the recall/precision/accuracy/F-score measure set."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import freeze_arrays


@dataclass(frozen=True)
class ConfusionMatrix:
    """c x c count matrix; rows are actual classes, columns predicted classes."""

    counts: np.ndarray

    def __post_init__(self):
        freeze_arrays(self, np.int64, "counts")
        counts = self.counts
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1] or counts.shape[0] < 1:
            raise ValueError(f"counts must be a square matrix, got shape {counts.shape}")
        if np.any(counts < 0):
            raise ValueError("confusion matrix entries must be nonnegative")

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class BinaryAggregates:
    """Positive/negative outcome counts: true/false positives and negatives.

    Components may be fractional when they come from a normalized multiclass
    reduction; they only need to be nonnegative with a positive sum.
    """

    tp: float
    fp: float
    tn: float
    fn: float

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            object.__setattr__(self, name, float(getattr(self, name)))
        vals = (self.tp, self.fp, self.tn, self.fn)
        if any(v < 0 for v in vals):
            raise ValueError(f"aggregate components must be nonnegative, got {vals}")
        if sum(vals) <= 0:
            raise ValueError("aggregate components must not all be zero")

    @property
    def total(self) -> float:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MeasureSet:
    """Recall/sensitivity, precision, accuracy and F-score, each in [0, 1]."""

    recall: float
    precision: float
    accuracy: float
    f_score: float

    def __post_init__(self):
        for name in ("recall", "precision", "accuracy", "f_score"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


def confusion_matrix(actual, predicted, n_classes: int) -> ConfusionMatrix:
    """Count (actual, predicted) label pairs into a c x c matrix."""
    a = np.asarray(actual, dtype=np.int64)
    p = np.asarray(predicted, dtype=np.int64)
    if a.shape != p.shape or a.ndim != 1 or a.size < 1:
        raise ValueError(
            f"actual and predicted must be equal-length nonempty vectors, got {a.shape} vs {p.shape}"
        )
    for name, v in (("actual", a), ("predicted", p)):
        if v.min() < 0 or v.max() >= n_classes:
            raise ValueError(f"{name} labels must lie in [0, {n_classes}), got range "
                             f"[{v.min()}, {v.max()}]")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (a, p), 1)
    return ConfusionMatrix(counts)


def one_vs_rest(cm: ConfusionMatrix, class_index: int) -> BinaryAggregates:
    """Binary reduction treating one class as positive and the rest as negative."""
    c = cm.n_classes
    if not 0 <= class_index < c:
        raise ValueError(f"class_index must be in [0, {c}), got {class_index}")
    k = class_index
    counts = cm.counts
    tp = float(counts[k, k])
    fn = float(counts[k, :].sum() - counts[k, k])
    fp = float(counts[:, k].sum() - counts[k, k])
    tn = float(counts.sum()) - tp - fn - fp
    return BinaryAggregates(tp=tp, fp=fp, tn=tn, fn=fn)


def macro_aggregate(cm: ConfusionMatrix) -> BinaryAggregates:
    """Mean of the per-class one-vs-rest counts, normalized by the grand total.

    The four components of the result sum to 1, which keeps the binary measure
    formulas directly applicable to multiclass matrices.

    Summed over the classes, the true positives are the trace, the false
    positives and the false negatives each every off-diagonal count, and the
    true negatives the rest of c copies of the total. These are exact integers,
    so the closed form equals the per-class sum to the bit.
    """
    total = cm.total
    if total == 0:
        raise ValueError("cannot aggregate an empty confusion matrix")
    c = cm.n_classes
    trace = int(np.trace(cm.counts))
    scale = 1.0 / (c * total)
    off = (total - trace) * scale
    return BinaryAggregates(tp=trace * scale, fp=off, tn=((c - 2) * total + trace) * scale,
                            fn=off)


def measures(agg: BinaryAggregates) -> MeasureSet:
    """Compute recall, precision, accuracy and F-score from aggregate counts.

    Zero-denominator conventions: precision is 0 when tp+fp is 0, recall is 0
    when tp+fn is 0, and the F-score is 0 when precision+recall is 0.
    """
    if agg.total <= 0:
        raise ValueError("aggregates must have a positive total")
    recall = agg.tp / (agg.tp + agg.fn) if agg.tp + agg.fn > 0 else 0.0
    precision = agg.tp / (agg.tp + agg.fp) if agg.tp + agg.fp > 0 else 0.0
    accuracy = (agg.tp + agg.tn) / agg.total
    f_score = (
        2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    )
    return MeasureSet(recall=recall, precision=precision, accuracy=accuracy, f_score=f_score)
