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
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(n)
    i = 0
    while i < n:
        j = i
        while j < n and scores[order[j]] == scores[order[i]]:
            j += 1
        ranks[order[i:j]] = (i + 1 + j) / 2.0  # 1-based average rank
        i = j
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
    scores plus -inf/+inf; ties on MCC resolve to the lowest threshold.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    _check_two_classes(labels)
    distinct = np.unique(scores)
    candidates = [-math.inf]
    candidates.extend((distinct[:-1] + distinct[1:]) / 2.0)
    candidates.append(math.inf)
    best_t = candidates[0]
    best_c = confusion_at(scores, labels, best_t)
    best_mcc = compute_mcc(best_c)
    for t in candidates[1:]:
        c = confusion_at(scores, labels, t)
        mcc = compute_mcc(c)
        if mcc > best_mcc:
            best_t, best_c, best_mcc = t, c, mcc
    return float(best_t), best_c


def sensitivity_specificity(c: ConfusionCounts) -> tuple[float, float]:
    sens = c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0
    spec = c.tn / (c.tn + c.fp) if c.tn + c.fp else 0.0
    return sens, spec


def likelihood_ratios(sensitivity: float, specificity: float) -> tuple[float, float]:
    """Diagnostic likelihood ratios; +inf at the degenerate boundaries."""
    lr_plus = sensitivity / (1.0 - specificity) if specificity < 1.0 else math.inf
    lr_minus = (1.0 - sensitivity) / specificity if specificity > 0.0 else math.inf
    return lr_plus, lr_minus
