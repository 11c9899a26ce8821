"""Binary classification metrics: rank AUC, MCC, and threshold selection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingleClass


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def _check_two_classes(labels: np.ndarray) -> None:
    if labels.min() == labels.max():
        raise SingleClass("need both classes present")


def compute_auc(scores, labels) -> float:
    """Rank-based (Mann-Whitney) AUC; ties contribute 1/2."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    _check_two_classes(labels)
    n = scores.shape[0]
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    end = np.cumsum(counts)     # tie group k fills sorted places end[k]-counts[k]..end[k]-1
    ranks = ((end - counts + 1 + end) / 2.0)[inverse]  # 1-based average rank
    n_pos = int((labels == 1).sum())
    n_neg = n - n_pos
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def compute_mcc(c: ConfusionCounts) -> float:
    """Matthews correlation; 0 when any marginal is empty."""
    denom = (c.tp + c.fp) * (c.tp + c.fn) * (c.tn + c.fp) * (c.tn + c.fn)
    if denom == 0:
        return 0.0
    return (c.tp * c.tn - c.fp * c.fn) / math.sqrt(denom)


def confusion_at(scores, labels, threshold: float) -> ConfusionCounts:
    """Counts when predicting positive at score >= threshold."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pred = scores >= threshold
    pos = labels == 1
    return ConfusionCounts(
        tp=int(np.sum(pred & pos)),
        fp=int(np.sum(pred & ~pos)),
        tn=int(np.sum(~pred & ~pos)),
        fn=int(np.sum(~pred & pos)),
    )


def best_mcc_threshold(scores, labels) -> tuple[float, ConfusionCounts]:
    """Exhaustive sweep over decision thresholds, maximizing MCC.

    Candidate thresholds are midpoints between consecutive distinct sorted
    scores plus -inf/+inf; ties on MCC resolve to the lowest threshold.  The
    counts at every candidate come from one sort per class: a left
    ``searchsorted`` counts the scores below a threshold, which is
    ``scores >= t`` also where a midpoint rounds onto a score.  MCC is
    :func:`compute_mcc`'s arithmetic on exact integer counts.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    _check_two_classes(labels)
    distinct = np.unique(scores)
    candidates = np.concatenate(([-math.inf], (distinct[:-1] + distinct[1:]) / 2.0,
                                 [math.inf]))
    pos = labels == 1
    # the product of the four marginals stays under n^4 / 16, so int64 is
    # exact while n^4 < 2^63; past that, Python ints
    exact = np.int64 if scores.shape[0] ** 4 < 2 ** 63 else object
    tp, fp = (np.asarray(len(s) - np.searchsorted(np.sort(s), candidates, side="left"),
                         dtype=exact) for s in (scores[pos], scores[~pos]))
    fn, tn = int(pos.sum()) - tp, int((~pos).sum()) - fp
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = np.zeros(candidates.shape[0])
    live = denom != 0
    mcc[live] = (tp * tn - fp * fn)[live] / np.sqrt(denom[live].astype(float))
    best = int(np.argmax(mcc))
    return float(candidates[best]), ConfusionCounts(
        tp=int(tp[best]), fp=int(fp[best]), tn=int(tn[best]), fn=int(fn[best]))


def sensitivity_specificity(c: ConfusionCounts) -> tuple[float, float]:
    sens = c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0
    spec = c.tn / (c.tn + c.fp) if c.tn + c.fp else 0.0
    return sens, spec


def likelihood_ratios(sensitivity: float, specificity: float) -> tuple[float, float]:
    """Diagnostic likelihood ratios; +inf at the degenerate boundaries."""
    lr_plus = sensitivity / (1.0 - specificity) if specificity < 1.0 else math.inf
    lr_minus = (1.0 - sensitivity) / specificity if specificity > 0.0 else math.inf
    return lr_plus, lr_minus
