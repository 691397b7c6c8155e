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

Two unchecked kernels do the arithmetic for training, one per target
shape. The training loops call them once per batch: they check their whole
input once per run and form integer rows, labels and domain columns once
per batch. Each returns the loss gradient with respect to the softmax
logits, for Network.backward(..., from_logits=True), in closed form:

* ce_kernel(y, rows, cols): one target per row, for the acoustic model and
  both assessment heads; (y - one-hot) / n on the given rows, 0 elsewhere.
* senone_aware_domain_kernel(y, cols, alpha): K alpha-weighted targets per
  row, for the discriminator in both modes (binary is K = 1, alpha = 1);
  (y * sum(alpha) - alpha on the true-domain block) / N.

The public senone_ce_loss, binary_domain_loss and senone_aware_domain_loss
check their arguments (shapes, labels in range, a 0/1 domain indicator) and
return the gradient with respect to the probability rows they were fed: the
reference path, which Network.backward's softmax Jacobian chains to the
kernels' gradient, up to rounding, where every target is at least 1e-12.
binary_domain_loss is the senone-aware loss at K = 1 with alpha = 1.

Loss values clamp their log arguments at 1e-12; the kernels' gradients do
not read the clamp, so a target whose probability has saturated to 0 still
gets its full push back.

Column convention for joint discriminator outputs: columns [0, K) are
(adult, senone k), columns [K, 2K) are (child, senone k). With K = 1 this
is exactly the binary layout (adult, child).
"""

from __future__ import annotations

import numpy as np

from .nn import ShapeError

# floor for the log arguments of loss values; no training gradient reads it
PROB_FLOOR = 1e-12


def _check_indicator(indicator: np.ndarray) -> np.ndarray:
    """Domain column per row (0 adult, 1 child) of a 0/1 indicator."""
    indicator = np.asarray(indicator)
    if not ((indicator == 0) | (indicator == 1)).all():
        raise ValueError("domain indicator values must be 0 (adult) or 1 (child)")
    return indicator.astype(np.intp)


def ce_kernel(y: np.ndarray, rows: np.ndarray,
              cols: np.ndarray) -> tuple[float, np.ndarray]:
    """Unchecked cross-entropy of a softmax output y against one target
    column per given row: the mean -log y[rows, cols] and its gradient with
    respect to the softmax logits, (y - one-hot) / n on the given rows and
    +0.0 elsewhere. rows are distinct and non-empty, cols in range."""
    n = len(rows)
    grad = np.zeros_like(y)
    grad[rows] = y[rows]
    grad[rows, cols] -= 1.0
    grad /= n
    return float(-np.log(np.maximum(y[rows, cols], PROB_FLOOR)).sum() / n), grad


def senone_aware_domain_kernel(y: np.ndarray, cols: np.ndarray,
                               alpha: np.ndarray) -> tuple[float, np.ndarray]:
    """Unchecked senone-aware domain loss of a 2K-column joint output y
    against each row's domain column: the mean and its gradient with respect
    to the softmax logits, (y * sum(alpha) - alpha on the true-domain block)
    / N. At K = 1 with alpha = 1 this is the binary domain loss."""
    N, K = y.shape[0], y.shape[1] // 2
    block = (np.arange(N), cols)  # true-domain block, as (N, 2, K)[row, domain]
    p = np.maximum(y.reshape(N, 2, K)[block], PROB_FLOOR)
    per_frame = -(alpha * np.log(p)).sum(axis=1)
    grad = y * alpha.sum(axis=1, keepdims=True)
    grad.reshape(N, 2, K)[block] -= alpha
    grad /= N
    return float(per_frame.sum() / N), grad


def _domain_loss(y: np.ndarray, cols: np.ndarray,
                 alpha: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """The public domain losses' arithmetic: the kernel's per-frame loss and
    mean, and d(mean)/dy in place of its logit gradient."""
    N, K = y.shape[0], y.shape[1] // 2
    block = (np.arange(N), cols)
    p = np.maximum(y.reshape(N, 2, K)[block], PROB_FLOOR)
    per_frame = -(alpha * np.log(p)).sum(axis=1)
    grad = np.zeros_like(y)
    grad.reshape(N, 2, K)[block] = -alpha / (N * p)
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
    p = np.maximum(posteriors[rows, lab], PROB_FLOOR)
    grad = np.zeros_like(posteriors)
    grad[rows, lab] = -1.0 / (n * p)
    return float(-np.log(p).sum() / n), grad


def binary_domain_loss(disc_out: np.ndarray,
                       indicator: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Per-frame -log P(true domain | f), its mean, and d(mean)/d disc_out:
    the senone-aware domain loss with one senone class and alpha = 1."""
    disc_out = np.asarray(disc_out, dtype=np.float64)
    if disc_out.ndim != 2 or disc_out.shape[1] != 2:
        raise ShapeError("binary domain loss expects a 2-column posterior matrix")
    return _domain_loss(disc_out, _check_indicator(indicator), np.ones((len(disc_out), 1)))


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
    return _domain_loss(disc_out, _check_indicator(indicator), alpha)
