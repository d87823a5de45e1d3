"""Multi-label losses over per-label probabilities: BCE and asymmetric loss.

Both losses average over the unmasked labels of an instance, so the loss
scale stays stable as mask sizes vary across hierarchy levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .util import DataError

P_CLAMP = 1e-12


@dataclass(frozen=True)
class LossConfig:
    kind: str = "bce"  # "bce" | "asl"
    gamma_pos: float = 1.0
    gamma_neg: float = 4.0
    margin: float = 0.05

    def __post_init__(self):
        if self.kind not in ("bce", "asl"):
            raise DataError(f"unknown loss kind {self.kind!r}")
        for name in ("gamma_pos", "gamma_neg"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise DataError(f"{name} must be finite and >= 0, got {getattr(self, name)!r}")
        if not 0.0 <= self.margin < 1.0:
            raise DataError(f"margin must be in [0, 1), got {self.margin!r}")


def _asl_terms(p, y, cfg: LossConfig):
    """(mean loss, d mean loss / dp) for ASL on already-selected labels.

    Positive term (1-p)^g+ * log p; negative term uses the margin-shifted
    probability p_m = max(p - margin, 0): p_m^g- * log(1 - p_m). The
    convention 0^0 = 1 makes (g+=0, g-=0, margin=0) coincide with BCE.
    """
    pc = np.clip(p, P_CLAMP, 1.0 - P_CLAMP)
    n = p.size
    gp, gn, m = cfg.gamma_pos, cfg.gamma_neg, cfg.margin

    one_minus = 1.0 - pc
    pos_focus = np.power(one_minus, gp)  # 0^0 -> 1 under numpy
    log_p = np.log(pc)
    pos_term = pos_focus * log_p

    pm = np.maximum(pc - m, 0.0)
    neg_focus = np.power(pm, gn)
    log_1pm = np.log1p(-pm)
    neg_term = neg_focus * log_1pm

    loss = -np.mean(y * pos_term + (1.0 - y) * neg_term)

    # d(-pos_term)/dp = gp (1-p)^(gp-1) log p - (1-p)^gp / p
    if gp == 0.0:
        dpos = -1.0 / pc
    else:
        dpos = gp * np.power(one_minus, gp - 1.0) * log_p - pos_focus / pc
    # d(-neg_term)/dp = -(gn pm^(gn-1) log(1-pm) - pm^gn/(1-pm)); zero where pm == 0
    active = pm > 0.0
    if gn == 0.0:
        dneg = np.where(active, 1.0 / (1.0 - pm), 0.0)
    else:
        pm_safe = np.where(active, pm, 1.0)
        dneg = np.where(
            active,
            -(gn * np.power(pm_safe, gn - 1.0) * log_1pm - neg_focus / (1.0 - pm)),
            0.0,
        )
    dp = (y * dpos + (1.0 - y) * dneg) / n
    return loss, dp


def _bce_terms(p, y):
    pc = np.clip(p, P_CLAMP, 1.0 - P_CLAMP)
    n = p.size
    loss = -np.mean(y * np.log(pc) + (1.0 - y) * np.log1p(-pc))
    dp = (-y / pc + (1.0 - y) / (1.0 - pc)) / n
    return loss, dp


def loss_and_grad(p_active: np.ndarray, y_active: np.ndarray, cfg: LossConfig):
    """Loss value and exact gradient w.r.t. the active probabilities.

    Operates on the already-unmasked label subset; the mean runs over that
    subset.
    """
    if p_active.size == 0:
        raise DataError("no unmasked labels to compute a loss over")
    y_active = np.asarray(y_active, dtype=np.float64)
    if cfg.kind == "bce":
        return _bce_terms(p_active, y_active)
    return _asl_terms(p_active, y_active, cfg)
