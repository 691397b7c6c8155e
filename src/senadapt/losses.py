"""Multi-task and domain-adversarial losses and their gradients.

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

Two unchecked kernels do the arithmetic, one per target shape. The training
loops call them once per batch: they check their whole input once per run
and form integer rows, labels and domain columns once per batch.

* ce_kernel(y, rows, cols): one target per row, for the acoustic model,
  both assessment heads and the binary discriminator (over every row). It
  returns the gradient with respect to the softmax logits, for
  Network.backward(..., from_logits=True): per row s = g*y_l, y*(0.0 - s)
  off the target and y_l*(g - s) on it, bit for bit the chained result.
* senone_aware_domain_kernel(y, cols, alpha): K targets per row, so its
  chained row sum fixes the bits; it returns the probability gradient.

The public senone_ce_loss, binary_domain_loss and senone_aware_domain_loss
check their arguments (shapes, labels in range, a 0/1 domain indicator) and
return the gradient with respect to the probability rows they were fed;
chaining it through Network.backward's softmax Jacobian gives the logit
gradient. binary_domain_loss is the joint kernel at K = 1 with alpha = 1.

Log arguments are clamped at 1e-12.

Column convention for joint discriminator outputs: columns [0, K) are
(adult, senone k), columns [K, 2K) are (child, senone k). With K = 1 this
is exactly the binary layout (adult, child).
"""

from __future__ import annotations

import numpy as np

from .nn import PROB_FLOOR, ShapeError


def _check_indicator(indicator: np.ndarray) -> np.ndarray:
    """Domain column per row (0 adult, 1 child) of a 0/1 indicator."""
    indicator = np.asarray(indicator)
    if not ((indicator == 0) | (indicator == 1)).all():
        raise ValueError("domain indicator values must be 0 (adult) or 1 (child)")
    return indicator.astype(np.intp)


def _target_terms(y: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each target probability p = y[rows, cols], floored at PROB_FLOOR, and
    d(-sum log p / n)/dp."""
    p = np.maximum(y[rows, cols], PROB_FLOOR)
    return p, -1.0 / (n * p)


def _one_target_logit_grad(y: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                           g: np.ndarray) -> np.ndarray:
    """dLoss/dz of the softmax layer y = softmax(z) when dLoss/dy is g at
    (rows, cols) and 0 elsewhere: per row s = g*y_l, y*(0.0 - s) off the
    target, y_l*(g - s) on it. These are the bits of the chained path
    (the probability gradient through Network.backward's softmax
    Jacobian): its row sum adds only zeros to g*y_l, and 0.0 - s, unlike
    -s, gives +0.0 on a row without a target, as 0.0 - 0.0 does there."""
    yl = y[rows, cols]
    s = np.zeros(len(y))
    s[rows] = g * yl
    gz = y * (0.0 - s)[:, None]
    gz[rows, cols] = yl * (g - s[rows])
    return gz


def ce_kernel(y: np.ndarray, rows: np.ndarray,
              cols: np.ndarray) -> tuple[float, np.ndarray]:
    """Unchecked cross-entropy of a softmax output y against one target
    column per given row: the mean -log y[rows, cols] and its gradient with
    respect to the softmax logits (for Network.backward(...,
    from_logits=True)). rows are distinct and non-empty, cols in range."""
    n = len(rows)
    p, g = _target_terms(y, rows, cols, n)
    return float(-np.log(p).sum() / n), _one_target_logit_grad(y, rows, cols, g)


def senone_aware_domain_kernel(y: np.ndarray, cols: np.ndarray,
                               alpha: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Unchecked senone-aware domain loss of a 2K-column joint output y
    against each row's domain column: (per-frame loss, mean, d(mean)/dy).
    The gradient stays in probability space: it has K targets per row."""
    N, K = y.shape[0], y.shape[1] // 2
    # each frame's true-domain block of K columns, as (N, 2, K)[row, domain]
    rows = np.arange(N)
    p = np.maximum(y.reshape(N, 2, K)[rows, cols], PROB_FLOOR)
    per_frame = -(alpha * np.log(p)).sum(axis=1)
    grad = np.zeros_like(y)
    grad.reshape(N, 2, K)[rows, cols] = -alpha / (N * p)
    return per_frame, float(per_frame.sum() / N), grad


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
    p, g = _target_terms(posteriors, rows, lab, n)
    grad = np.zeros_like(posteriors)
    grad[rows, lab] = g
    return float(-np.log(p).sum() / n), grad


def binary_domain_loss(disc_out: np.ndarray,
                       indicator: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Per-frame -log P(true domain | f), its mean, and d(mean)/d disc_out:
    the senone-aware domain loss with one senone class and alpha = 1."""
    disc_out = np.asarray(disc_out, dtype=np.float64)
    if disc_out.ndim != 2 or disc_out.shape[1] != 2:
        raise ShapeError("binary domain loss expects a 2-column posterior matrix")
    return senone_aware_domain_kernel(disc_out, _check_indicator(indicator),
                                      np.ones((len(disc_out), 1)))


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
    return senone_aware_domain_kernel(disc_out, _check_indicator(indicator), alpha)
