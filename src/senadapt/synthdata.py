"""Synthetic two-domain, senone-labeled corpora.

Adult frames for senone k are drawn from an isotropic Gaussian at a class
mean mu_k; child frames for the same senone are drawn at mu_k plus a
per-senone shift along a fixed random unit direction. A heterogeneous shift
profile (some senones barely shifted, others strongly) reproduces the
phoneme-dependent adult/child mismatch the adaptation method targets.

Child senone labels are ground truth for evaluation only. Training code
receives a TrainingView, which carries senone labels for adult frames and
nothing for child frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .nn import FormatError, pack_container, unpack_container

SPLIT_TRAIN, SPLIT_DEV, SPLIT_TEST = 0, 1, 2
SPLIT_NAMES = {"train": SPLIT_TRAIN, "dev": SPLIT_DEV, "test": SPLIT_TEST}

DEFAULT_SHIFT_PROFILE = (0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 4.0, 4.0, 5.0, 5.0)

# fewest rows of an assessment corpus; the generator and the run config check it
MIN_ASSESS_N = 50
# the level scale of the assessment corpus: levels run 1..ASSESS_LEVELS
ASSESS_LEVELS = 5


class SettingError(ValueError):
    """A setting out of its bound. name is the setting's field in its config
    dataclass; label, if given, is what the message calls it."""

    def __init__(self, what: str, name: str, bound: str, value, label: str = ""):
        super().__init__(f"{what}: {label or name} must be {bound}, got {value}")
        self.name, self.bound, self.value = name, bound, value


def check_settings(what: str, *rows) -> None:
    """SettingError for the first row (name, value, bound, holds[, label]) that fails."""
    for name, value, bound, holds, *label in rows:
        if not holds:
            raise SettingError(what, name, bound, value, *label)


@dataclass
class GeneratorConfig:
    K: int = 10
    dim: int = 20
    n_adult: int = 2000
    n_child: int = 2000
    shift_profile: tuple = DEFAULT_SHIFT_PROFILE  # in units of within_class_std
    within_class_std: float = 1.0
    # blend between one global shift direction (1.0) and fully senone-specific
    # directions (0.0); a shared component is what a global transform can undo
    shift_coherence: float = 0.6
    # class means sit at class_separation * std from the origin
    class_separation: float = 3.5
    seed: int = 0
    split_fractions: tuple = (0.7, 0.15, 0.15)

    def validate(self) -> None:
        K, shifts, fracs = self.K, self.shift_profile, self.split_fractions
        check_settings(
            "generator", ("K", K, ">= 2", K >= 2), ("dim", self.dim, ">= 1", self.dim >= 1),
            ("shift_profile", shifts, f"{K} values in [0, inf)",
             len(shifts) == K and all(0 <= s < np.inf for s in shifts)),
            ("within_class_std", self.within_class_std, "in (0, inf)",
             0 < self.within_class_std < np.inf),
            *((name, n, "in [K, 2**63)", K <= n < 2**63)
              for name, n in (("n_adult", self.n_adult), ("n_child", self.n_child))),
            ("shift_coherence", self.shift_coherence, "in [0, 1]",
             0 <= self.shift_coherence <= 1),
            ("class_separation", self.class_separation, "in (0, inf)",
             0 < self.class_separation < np.inf),
            ("split_fractions", fracs, "three values in [0, 1] summing to 1",
             len(fracs) == 3 and abs(sum(fracs) - 1.0) <= 1e-9 and all(0 <= f <= 1 for f in fracs)))
        for n in (self.n_adult, self.n_child):
            sizes = np.zeros(3, dtype=np.int64)
            for count in _balanced_class_counts(n, K):
                sizes += [len(range(count)[part]) for part in _split_slices(count, fracs)]
            if not sizes.all():
                raise SettingError("generator", "split_fractions",
                                   "fractions that give every split frames of each domain", fracs)


@dataclass
class TrainingView:
    """What training is allowed to see: features, domains, adult labels only."""
    frames: np.ndarray
    domain_labels: np.ndarray           # 0 adult, 1 child
    adult_senone_labels: np.ndarray     # label for adult rows, -1 for child rows

    @property
    def adult_mask(self) -> np.ndarray:
        return self.domain_labels == 0


@dataclass
class SyntheticCorpus:
    K: int
    dim: int
    frames: np.ndarray          # (N, dim) float64
    senone_labels: np.ndarray   # (N,) int32, 0..K-1; hidden truth for child rows
    domain_labels: np.ndarray   # (N,) uint8, 0 adult / 1 child
    split_tags: np.ndarray      # (N,) uint8

    def subset(self, split: str, domain: str | None = None) -> "SyntheticCorpus":
        sel = self.split_tags == SPLIT_NAMES[split]
        if domain is not None:
            sel &= self.domain_labels == (0 if domain == "adult" else 1)
        return SyntheticCorpus(self.K, self.dim, self.frames[sel],
                               self.senone_labels[sel], self.domain_labels[sel],
                               self.split_tags[sel])

    def training_view(self, split: str = "train") -> TrainingView:
        sub = self.subset(split)
        labels = sub.senone_labels.astype(np.int64).copy()
        labels[sub.domain_labels == 1] = -1
        return TrainingView(frames=sub.frames, domain_labels=sub.domain_labels,
                            adult_senone_labels=labels)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SyntheticCorpus)
                and self.K == other.K and self.dim == other.dim
                and np.array_equal(self.frames, other.frames)
                and np.array_equal(self.senone_labels, other.senone_labels)
                and np.array_equal(self.domain_labels, other.domain_labels)
                and np.array_equal(self.split_tags, other.split_tags))


def _balanced_class_counts(n: int, K: int) -> np.ndarray:
    counts = np.full(K, n // K, dtype=np.int64)
    counts[: n % K] += 1
    return counts


def _split_slices(n: int, fractions) -> tuple[slice, slice, slice]:
    """The train, dev and test slices of one shuffled (domain, senone) group
    of n frames: train and dev rounded from their fractions, test the rest."""
    n_tr = int(round(fractions[0] * n))
    n_dev = int(round(fractions[1] * n))
    return slice(None, n_tr), slice(n_tr, n_tr + n_dev), slice(n_tr + n_dev, None)


def generate_corpus(cfg: GeneratorConfig) -> SyntheticCorpus:
    """Two-domain Gaussian corpus, deterministic given cfg.seed."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    sigma = cfg.within_class_std

    # class means on distinct random unit directions
    dirs = rng.standard_normal((cfg.K, cfg.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means = cfg.class_separation * sigma * dirs

    # fixed per-senone unit shift directions for the child domain: a shared
    # global direction blended with senone-specific ones per shift_coherence
    global_dir = rng.standard_normal(cfg.dim)
    global_dir /= np.linalg.norm(global_dir)
    local_dirs = rng.standard_normal((cfg.K, cfg.dim))
    local_dirs /= np.linalg.norm(local_dirs, axis=1, keepdims=True)
    shift_dirs = (cfg.shift_coherence * global_dir[None, :]
                  + (1.0 - cfg.shift_coherence) * local_dirs)
    shift_dirs /= np.linalg.norm(shift_dirs, axis=1, keepdims=True)

    frames, senones, domains = [], [], []
    for domain, n in ((0, cfg.n_adult), (1, cfg.n_child)):
        counts = _balanced_class_counts(n, cfg.K)
        for k in range(cfg.K):
            center = means[k]
            if domain == 1:
                center = center + cfg.shift_profile[k] * sigma * shift_dirs[k]
            frames.append(center + sigma * rng.standard_normal((counts[k], cfg.dim)))
            senones.append(np.full(counts[k], k, dtype=np.int32))
            domains.append(np.full(counts[k], domain, dtype=np.uint8))
    frames = np.concatenate(frames)
    senones = np.concatenate(senones)
    domains = np.concatenate(domains)

    # disjoint splits, stratified per (domain, senone)
    tags = np.empty(len(frames), dtype=np.uint8)
    for d in (0, 1):
        for k in range(cfg.K):
            idx = np.flatnonzero((domains == d) & (senones == k))
            idx = rng.permutation(idx)
            for tag, part in zip((SPLIT_TRAIN, SPLIT_DEV, SPLIT_TEST),
                                 _split_slices(len(idx), cfg.split_fractions)):
                tags[idx[part]] = tag

    if not np.isfinite(frames).all():
        raise ValueError("generated frames hold NaN or Inf: the generator settings "
                         "overflow float64")
    order = rng.permutation(len(frames))
    return SyntheticCorpus(cfg.K, cfg.dim, frames[order], senones[order],
                           domains[order], tags[order])


def generate_assessment_corpus(n: int, seed: int):
    """Correlated (pronunciation, fluency) level pairs with 30-dim features.

    A latent proficiency z is uniform over 1..5; pronunciation equals z and
    fluency is z plus noise in {-1, 0, +1} with probabilities 0.15/0.7/0.15,
    clamped to 1..5. Features are a per-level Gaussian mean plus unit noise.

    Returns (features, pron_levels, flu_levels).
    """
    if n < MIN_ASSESS_N:
        raise ValueError(f"assessment corpus needs n >= {MIN_ASSESS_N}")
    rng = np.random.default_rng(seed)
    level_means = 3.0 * rng.standard_normal((ASSESS_LEVELS, 30))
    z = rng.integers(1, ASSESS_LEVELS + 1, size=n)
    pron = z.copy()
    jitter = rng.choice([-1, 0, 1], size=n, p=[0.15, 0.7, 0.15])
    flu = np.clip(z + jitter, 1, ASSESS_LEVELS)
    feats = level_means[z - 1] + rng.standard_normal((n, 30))
    return feats, pron.astype(np.int64), flu.astype(np.int64)


# ---------------------------------------------------------------------------
# corpus files: K and dim in the manifest, then frames f64, senone labels u32,
# domain labels u8 and split tags u8. The loader checks the values too. The
# assessment corpus has no file: eval generates it from its config.


def save_corpus(corpus: SyntheticCorpus, path) -> None:
    Path(path).write_bytes(pack_container("corpus", {"K": corpus.K, "dim": corpus.dim}, {
        "frames": corpus.frames.astype("<f8"),
        "senone_labels": corpus.senone_labels.astype("<u4"),
        "domain_labels": corpus.domain_labels.astype("u1"),
        "split_tags": corpus.split_tags.astype("u1")}))


def load_corpus(path) -> SyntheticCorpus:
    m, a = unpack_container(Path(path).read_bytes(), "corpus")
    try:
        K, dim, n = int(m["K"]), int(m["dim"]), len(a["frames"])
    except (KeyError, ValueError) as e:
        raise FormatError(f"malformed corpus manifest: {e!r}") from e
    layout = {"frames": ("<f8", (n, dim)), "senone_labels": ("<u4", (n,)),
              "domain_labels": ("|u1", (n,)), "split_tags": ("|u1", (n,))}
    if {k: (v.dtype.str, v.shape) for k, v in a.items()} != layout:
        raise FormatError("corpus arrays disagree with the manifest")
    frames, senones, domains, splits = (a["frames"], a["senone_labels"],
                                        a["domain_labels"], a["split_tags"])
    if not np.isfinite(frames).all():
        raise FormatError("corpus frames hold NaN or Inf")
    if (senones >= K).any():
        raise FormatError(f"corpus senone label outside [0, {K})")
    if (domains > 1).any() or (splits > SPLIT_TEST).any():
        raise FormatError("corpus domain label outside {0, 1} or split tag outside {0, 1, 2}")
    if not np.bincount(2 * splits + domains, minlength=6).all():
        raise FormatError("a corpus split lacks adult or child frames")
    return SyntheticCorpus(K, dim, frames, senones.astype(np.int32), domains, splits)


def parse_flat_config(text: str) -> dict[str, str]:
    """key=value lines; '#' starts a comment; blank lines ignored; a key
    set twice is an error."""
    out, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        k, _, v = line.partition("=")
        k = k.strip()
        if k in out:
            raise ValueError(f"key {k!r} set twice, on lines {lines[k]} and {lineno}")
        out[k], lines[k] = v.strip(), lineno
    return out
