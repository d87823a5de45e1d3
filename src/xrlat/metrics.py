"""Multi-label evaluation: macro/micro AUC, macro/micro F1, and precision@k.

Macro metrics average per-code values (AUC skips codes whose test column is
single-class and reports the skip count; F1 counts such codes as 0). Micro
metrics pool true/false positives and negatives over every (instance, code)
cell. P@k averages the precision of each document's k highest-scoring codes,
ties broken toward lower code indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import DataError


@dataclass
class PredictionSet:
    scores: np.ndarray  # (N, L) float
    gold: np.ndarray  # (N, L) binary
    decision_threshold: float = 0.5

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.gold = np.asarray(self.gold)
        if self.scores.shape != self.gold.shape:
            raise DataError(
                f"scores {self.scores.shape} and gold {self.gold.shape} shapes differ"
            )
        if not np.all(np.isfinite(self.scores)):
            raise DataError("scores must be finite")


def auc(scores, labels) -> float:
    """Rank-based (Mann-Whitney) AUC with half credit for ties.

    Raises DataError when labels are single-class, where AUC is undefined.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC is undefined for single-class labels")
    # 1-based average rank of each tie group: its last rank minus half its width
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]
    rank_sum = ranks[labels].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _confusion(pred: PredictionSet):
    yhat = pred.scores >= pred.decision_threshold
    y = pred.gold.astype(bool)
    tp = (yhat & y).sum(axis=0).astype(np.int64)
    fp = (yhat & ~y).sum(axis=0).astype(np.int64)
    fn = (~yhat & y).sum(axis=0).astype(np.int64)
    return tp, fp, fn


def micro_f1(pred: PredictionSet):
    """(F1, precision, recall) pooled over every (instance, code) cell.

    F1 comes straight from the integer counts (2TP / (2TP + FP + FN)) so the
    value is the exactly-rounded rational, not a chain of float divisions.
    """
    tp, fp, fn = (int(x.sum()) for x in _confusion(pred))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
    return f1, precision, recall


def macro_f1(pred: PredictionSet) -> float:
    """Unweighted mean of per-code F1 over all codes; empty codes count as 0."""
    tp, fp, fn = _confusion(pred)
    denom = 2 * tp + fp + fn
    per_code = np.where(denom > 0, 2 * tp / np.where(denom > 0, denom, 1), 0.0)
    return float(per_code.mean())


def evaluable_codes(gold) -> np.ndarray:
    """Indices of the codes with both classes present among the (N, L) gold rows."""
    n_pos = np.asarray(gold).astype(bool).sum(axis=0)
    return np.flatnonzero((n_pos > 0) & (n_pos < len(gold)))


def macro_micro_auc(pred: PredictionSet):
    """(macro AUC, micro AUC, skipped-code count).

    Macro averages per-code AUC over codes with both classes present; micro is
    the AUC of all N*L cells flattened. Raises if nothing is evaluable.
    """
    l = pred.scores.shape[1]
    evaluable = evaluable_codes(pred.gold)
    if evaluable.size == 0:
        raise DataError("macro AUC: no code has both classes present")
    values = [auc(pred.scores[:, j], pred.gold[:, j]) for j in evaluable]
    micro = auc(pred.scores.reshape(-1), pred.gold.reshape(-1))
    return float(np.mean(values)), micro, l - evaluable.size


def top_codes(scores, k: int) -> np.ndarray:
    """Indices of the k highest scores along the last axis, highest first.

    Ties go to the lower code index (a stable sort of the negated scores).
    """
    return np.argsort(-np.asarray(scores), axis=-1, kind="stable")[..., :k]


def precision_at_k(pred: PredictionSet, k: int) -> float:
    """Mean over instances of (gold hits among the k top-scored codes) / k."""
    n, l = pred.scores.shape
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    if k > l:
        raise DataError(f"k={k} exceeds the number of codes {l}")
    hits = int(np.take_along_axis(pred.gold, top_codes(pred.scores, k), axis=1).sum())
    # integer accumulation, single division: the exact rational value rounded once
    return hits / (n * k) if n else 0.0


P_AT_K = (5, 8, 15)  # MetricsReport's p5, p8 and p15


def check_defined(gold, codes_from: str, docs_from: str) -> None:
    """Raise DataError unless the report is defined for the (N, L) gold matrix.

    p@k needs k codes for every k in P_AT_K, and macro AUC needs a code with
    both classes present. ``codes_from`` and ``docs_from`` name the inputs the
    code set and the documents came from; each error names the one at fault.
    """
    n_labels = np.shape(gold)[1]
    k = max(P_AT_K)
    if n_labels < k:
        raise DataError(f"{codes_from}: {n_labels} codes, but the report's p@{k} needs {k}")
    if evaluable_codes(gold).size == 0:
        raise DataError(f"{docs_from}: no code has both classes present among the "
                        f"documents, so macro AUC is undefined")


@dataclass
class MetricsReport:
    macro_auc: float
    micro_auc: float
    macro_f1: float
    micro_f1: float
    p5: float
    p8: float
    p15: float
    macro_auc_skipped: int

    def to_text(self) -> str:
        lines = [
            f"macro_auc\t{self.macro_auc:.4f}",
            f"micro_auc\t{self.micro_auc:.4f}",
            f"macro_f1\t{self.macro_f1:.4f}",
            f"micro_f1\t{self.micro_f1:.4f}",
            f"p@5\t{self.p5:.4f}",
            f"p@8\t{self.p8:.4f}",
            f"p@15\t{self.p15:.4f}",
            f"macro_auc_skipped\t{self.macro_auc_skipped}",
        ]
        return "\n".join(lines) + "\n"


def compute_metrics(scores, gold, decision_threshold: float = 0.5) -> MetricsReport:
    pred = PredictionSet(scores, gold, decision_threshold)
    mac_auc, mic_auc, skipped = macro_micro_auc(pred)
    mic_f1, _, _ = micro_f1(pred)
    p5, p8, p15 = (precision_at_k(pred, k) for k in P_AT_K)
    return MetricsReport(
        macro_auc=mac_auc,
        micro_auc=mic_auc,
        macro_f1=macro_f1(pred),
        micro_f1=mic_f1,
        p5=p5,
        p8=p8,
        p15=p15,
        macro_auc_skipped=skipped,
    )
