"""Senone-aware adversarial multi-task training for unsupervised
child-to-adult feature adaptation, with its binary-adversary baseline and a
synthetic two-domain evaluation harness."""

__version__ = "0.2.0"

from . import evaluate, losses, models, nn, synthdata, training  # noqa: F401
