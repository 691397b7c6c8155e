"""Evaluation metrics and line-delimited metric reports.

Frame-level senone error rate stands in for phone error rate (no decoder
here). Reduction arithmetic matches the usual reporting conventions:
relative reduction is 100*(baseline - improved)/baseline, absolute
reduction is the plain difference in points.

Assessment MSE is computed on argmax-decoded integer levels, the same
decision rule as the accuracy metric.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .models import (AdaptationNetwork, AdultAcousticModel, AssessmentNetwork,
                     DomainDiscriminator, marginal_domain_probs)
from .synthdata import SyntheticCorpus


def senone_error_rate(predictions: np.ndarray, truth: np.ndarray) -> float:
    """Percentage of frames whose argmax senone differs from the truth."""
    predictions = np.asarray(predictions)
    truth = np.asarray(truth)
    if predictions.shape != truth.shape:
        raise ValueError("prediction/truth length mismatch")
    if predictions.size == 0:
        raise ValueError("empty input")
    return 100.0 * float((predictions != truth).mean())


def relative_reduction(baseline: float, improved: float) -> float:
    """100*(baseline - improved)/baseline."""
    if baseline <= 0:
        raise ValueError("relative reduction needs a positive baseline")
    return 100.0 * (baseline - improved) / baseline


def absolute_reduction(baseline: float, improved: float) -> float:
    return baseline - improved


def domain_confusion(disc: DomainDiscriminator, adapter: AdaptationNetwork | None,
                     corpus: SyntheticCorpus) -> tuple[float, float]:
    """Held-out discriminator domain accuracy and mean confidence on
    (optionally adapted) features; joint outputs are marginalized first."""
    doms = np.unique(corpus.domain_labels)
    if doms.size < 2:
        raise ValueError("domain confusion needs frames from both domains")
    feats = corpus.frames if adapter is None else adapter.apply(corpus.frames)
    probs = marginal_domain_probs(disc.net.forward(feats).output)
    pred = probs.argmax(axis=1)
    acc = float((pred == corpus.domain_labels).mean())
    confidence = float(probs.max(axis=1).mean())
    return acc, confidence


def assessment_metrics(net: AssessmentNetwork, features: np.ndarray,
                       pron: np.ndarray, flu: np.ndarray) -> dict[str, float]:
    """Accuracy (%) and MSE per head on argmax-decoded integer levels 1..5."""
    if len(features) == 0:
        raise ValueError("empty assessment corpus")
    pred_p, pred_f = net.predict_levels(features)
    return {
        "pron.accuracy": 100.0 * float((pred_p == pron).mean()),
        "pron.mse": float(((pred_p - pron) ** 2).mean()),
        "flu.accuracy": 100.0 * float((pred_f == flu).mean()),
        "flu.mse": float(((pred_f - flu) ** 2).mean()),
    }


def child_senone_error(am: AdultAcousticModel, corpus: SyntheticCorpus,
                       adapter: AdaptationNetwork | None = None) -> float:
    """Frame error of the frozen model on test-split child frames, optionally
    adapted."""
    sub = corpus.subset("test", "child")
    feats = sub.frames if adapter is None else adapter.apply(sub.frames)
    pred = am.posteriors(feats).argmax(axis=1)
    return senone_error_rate(pred, sub.senone_labels)


# ---------------------------------------------------------------------------
# report container


@dataclass
class MetricsReport:
    fingerprint: str
    seed: int
    metrics: dict[str, float] = field(default_factory=dict)

    def set(self, name: str, value: float) -> None:
        value = float(value)
        if not np.isfinite(value):
            raise ValueError(f"metric {name!r} is not finite")
        self.metrics[name] = value


def config_fingerprint(config_text: str, seed: int) -> str:
    """Hash of the config text, the seed and the package version."""
    h = hashlib.sha256()
    h.update(config_text.encode("utf-8"))
    h.update(f"|seed={seed}|v={__version__}".encode())
    return h.hexdigest()[:16]


def write_report(report: MetricsReport, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"# fingerprint\t{report.fingerprint}\n")
        fh.write(f"# seed\t{report.seed}\n")
        fh.write("# mse decoded from argmax integer levels\n")
        for name in sorted(report.metrics):
            fh.write(f"{name}\t{report.metrics[name]!r}\n")


def read_report(path) -> MetricsReport:
    """A report as write_report writes it: one fingerprint and one seed
    header line, other comment lines, and one finite value per metric."""
    header, metrics = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            comment = line.startswith("#")
            parts = (line[1:].strip() if comment else line).split("\t")
            if not line or comment and parts[0] not in ("fingerprint", "seed"):
                continue
            fields = header if comment else metrics
            if len(parts) != 2 or parts[0] in fields:
                raise ValueError(f"malformed or repeated report line {lineno}: {raw!r}")
            fields[parts[0]] = parts[1]
    if header.keys() != {"fingerprint", "seed"}:
        raise ValueError("report is missing its fingerprint/seed header")
    report = MetricsReport(fingerprint=header["fingerprint"], seed=int(header["seed"]))
    for name, value in metrics.items():
        report.set(name, value)
    return report
