"""The multi-label loss over per-label probabilities: the asymmetric loss (ASL), whose
default (gamma_pos, gamma_neg, margin) = (0, 0, 0) is BCE.

The loss averages over the unmasked labels of an instance, so the loss scale stays
stable as mask sizes vary across hierarchy levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import DataError

P_CLAMP = 1e-12


@dataclass(frozen=True)
class LossConfig:
    """ASL's focusing exponents and negative margin; TrainConfig checks their ranges."""

    gamma_pos: float = 0.0
    gamma_neg: float = 0.0
    margin: float = 0.0


def loss_and_grad(p_active: np.ndarray, y_active: np.ndarray, cfg: LossConfig, n: int):
    """(terms, dL/dp) for some of an instance's n unmasked labels, where the instance
    loss L is -mean of all n labels' terms.

    A label's term is (1-p)^g+ * log p if it is gold, and otherwise uses the
    margin-shifted probability p_m = max(p - margin, 0): p_m^g- * log(1 - p_m). The
    convention 0^0 = 1 makes (g+=0, g-=0, margin=0) BCE, bit for bit on 0/1 gold.
    dL/dp is divided by n, so the labels may come in parts (the head's tiles): each
    part's terms and gradient are those of the whole, and L is -mean of the parts'
    terms concatenated in order.
    """
    if p_active.size == 0:
        raise DataError("no unmasked labels to compute a loss over")
    y = np.asarray(y_active, dtype=np.float64)
    pc = np.clip(p_active, P_CLAMP, 1.0 - P_CLAMP)
    gp, gn, m = cfg.gamma_pos, cfg.gamma_neg, cfg.margin

    one_minus = 1.0 - pc
    pos_focus = np.power(one_minus, gp)  # 0^0 -> 1 under numpy
    log_p = np.log(pc)
    pos_term = pos_focus * log_p

    pm = np.maximum(pc - m, 0.0)
    neg_focus = np.power(pm, gn)
    log_1pm = np.log1p(-pm)
    neg_term = neg_focus * log_1pm

    terms = y * pos_term + (1.0 - y) * neg_term

    # d(-pos_term)/dp = gp (1-p)^(gp-1) log p - (1-p)^gp / p; finite at gp = 0 as 1-p >= P_CLAMP
    dpos = gp * np.power(one_minus, gp - 1.0) * log_p - pos_focus / pc
    # d(-neg_term)/dp = -(gn pm^(gn-1) log(1-pm) - pm^gn/(1-pm)); zero where pm == 0
    active = pm > 0.0
    if gn == 0.0:  # with a margin pm can be subnormal, where power(pm, -1) overflows
        dneg = np.where(active, 1.0 / (1.0 - pm), 0.0)
    else:
        pm_safe = np.where(active, pm, 1.0)
        dneg = np.where(
            active,
            -(gn * np.power(pm_safe, gn - 1.0) * log_1pm - neg_focus / (1.0 - pm)),
            0.0,
        )
    dp = (y * dpos + (1.0 - y) * dneg) / n
    return terms, dp
