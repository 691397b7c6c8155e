"""Multi-task and domain-adversarial losses and their output-space gradients.

Three losses drive training:

* senone cross-entropy over adult frames only (mean of -log p[label] over
  the n adult frames in the batch);
* binary domain loss: per frame, -log of the probability the discriminator
  assigns to the frame's true domain (2-column output: adult, child);
* senone-aware domain loss: the per-frame senone posterior row alpha from
  the frozen adult model weights a cross-entropy against the true-domain
  half of a joint 2K-way (domain x senone) softmax. Alpha is a constant:
  no gradient flows through it.

The combined objective is E = ce_sum/n - dom_sum/N: the adapter minimizes E
(so it maximizes the domain loss) while the discriminator maximizes E.

Each loss returns the gradient with respect to the probability rows it was
fed; chaining through Network.backward converts that to logit gradients.
Log arguments are clamped at 1e-12.

Column convention for joint discriminator outputs: columns [0, K) are
(adult, senone k), columns [K, 2K) are (child, senone k). With K = 1 this
is exactly the binary layout (adult, child).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import PROB_FLOOR, ShapeError


def _check_indicator(indicator: np.ndarray) -> np.ndarray:
    indicator = np.asarray(indicator)
    if not ((indicator == 0) | (indicator == 1)).all():
        raise ValueError("domain indicator values must be 0 (adult) or 1 (child)")
    return indicator.astype(np.float64)


@dataclass
class BatchLossTerms:
    n_adult: int
    n_total: int
    senone_ce_sum: float
    domain_loss_sum: float

    @property
    def objective(self) -> float:
        return self.senone_ce_sum / self.n_adult - self.domain_loss_sum / self.n_total

    @property
    def senone_ce_mean(self) -> float:
        return self.senone_ce_sum / self.n_adult

    @property
    def domain_loss_mean(self) -> float:
        return self.domain_loss_sum / self.n_total


def senone_ce_loss(posteriors: np.ndarray, labels: np.ndarray,
                   mask: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean -log p[label] over masked (adult) frames, plus gradient rows.

    Returns (loss, d loss / d posteriors); gradient rows outside the mask
    are zero. Raises on an empty mask: the objective divides by n.
    """
    posteriors = np.asarray(posteriors, dtype=np.float64)
    labels = np.asarray(labels)
    mask = np.asarray(mask, dtype=bool)
    n = int(mask.sum())
    if n == 0:
        raise ValueError("senone CE needs at least one adult frame (n = 0)")
    rows = np.flatnonzero(mask)
    lab = labels[rows].astype(np.intp)
    if (lab < 0).any() or (lab >= posteriors.shape[1]).any():
        raise ValueError("senone label out of range")
    p = np.maximum(posteriors[rows, lab], PROB_FLOOR)
    loss = float(-np.log(p).sum() / n)
    grad = np.zeros_like(posteriors)
    grad[rows, lab] = -1.0 / (n * p)
    return loss, grad


def binary_domain_loss(disc_out: np.ndarray,
                       indicator: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Per-frame -log P(true domain | f), its mean, and d(mean)/d disc_out."""
    disc_out = np.asarray(disc_out, dtype=np.float64)
    if disc_out.ndim != 2 or disc_out.shape[1] != 2:
        raise ShapeError("binary domain loss expects a 2-column posterior matrix")
    ind = _check_indicator(indicator)
    cols = ind.astype(np.intp)  # 0 = adult column, 1 = child column
    rows = np.arange(disc_out.shape[0])
    p = np.maximum(disc_out[rows, cols], PROB_FLOOR)
    per_frame = -np.log(p)
    grad = np.zeros_like(disc_out)
    grad[rows, cols] = -1.0 / (disc_out.shape[0] * p)
    return per_frame, float(per_frame.sum() / disc_out.shape[0]), grad


def senone_aware_domain_loss(disc_out: np.ndarray, indicator: np.ndarray,
                             alpha: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Alpha-weighted cross-entropy against the true-domain half of the
    joint (domain x senone) softmax. Alpha rows are constants.

    Returns (per-frame loss, mean, d(mean)/d disc_out).
    """
    disc_out = np.asarray(disc_out, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    if disc_out.ndim != 2 or disc_out.shape[1] % 2 != 0:
        raise ShapeError("joint discriminator output must have 2K columns")
    K = disc_out.shape[1] // 2
    if alpha.shape != (disc_out.shape[0], K):
        raise ShapeError(
            f"alpha shape {alpha.shape} incompatible with 2K={disc_out.shape[1]} output")
    ind = _check_indicator(indicator)
    N = disc_out.shape[0]
    # each frame's true-domain block of K columns, as (N, 2, K)[row, domain]
    rows, cols = np.arange(N), ind.astype(np.intp)
    p = np.maximum(disc_out.reshape(N, 2, K)[rows, cols], PROB_FLOOR)
    per_frame = -(alpha * np.log(p)).sum(axis=1)
    grad = np.zeros_like(disc_out)
    grad.reshape(N, 2, K)[rows, cols] = -alpha / (N * p)
    return per_frame, float(per_frame.sum() / N), grad


def multitask_objective(senone_ce_sum: float, n_adult: int,
                        domain_loss_sum: float, n_total: int) -> BatchLossTerms:
    """E = (1/n) sum senone CE - (1/N) sum domain loss."""
    if n_adult < 1:
        raise ValueError("objective undefined with zero adult frames")
    if n_total < n_adult:
        raise ValueError("total frame count below adult frame count")
    return BatchLossTerms(n_adult=n_adult, n_total=n_total,
                          senone_ce_sum=float(senone_ce_sum),
                          domain_loss_sum=float(domain_loss_sum))
