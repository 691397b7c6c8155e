"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of the senadapt modules from outside the
package: nothing under src/ changes. Each wrapped call records one span
(name, start, end, parent). Names are patched where callers look them up,
so `senadapt.training.sgd_step` is wrapped as well as `senadapt.nn.sgd_step`,
because training binds it by name at import. After the traced repetition the
wrappers are removed and the spans are reduced to the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import time
import weakref

import numpy as np

ROLES = ("am", "adapter", "disc", "assess")
BATCH_GRADS = tuple(f"{mode}.{scheme}" for mode in ("bat", "sat")
                    for scheme in ("gradient_reversal", "alternating"))
STAGES = ("gen", "pretrain", "adapt_bat", "adapt_sat", "eval")

# per-layer metric family -> span-name prefix; each family reports p50, p99
# and its call count
_US_FAMILIES = (
    [(f"nn.forward_us.{r}", f"nn.forward.{r}") for r in ROLES]
    + [(f"nn.backward_us.{r}", f"nn.backward.{r}") for r in ROLES]
    + [("nn.sgd_step_us", "nn.sgd_step."),
       ("losses.senone_ce_us", "losses.senone_ce"),
       ("losses.binary_domain_us", "losses.binary_domain"),
       ("losses.senone_aware_domain_us", "losses.senone_aware_domain")]
    + [(f"training.batch_grads_us.{b}", f"training.batch_grads.{b}")
       for b in BATCH_GRADS]
)
# total seconds per traced repetition
_TOTAL_S = (("training.pretrain_s", "training.pretrain"),
            ("training.adapt_bat_s", "training.adapt.bat"),
            ("training.adapt_sat_s", "training.adapt.sat"),
            ("training.ref_disc_s", "training.ref_disc"),
            ("training.assess_s", "training.assess"))
# median milliseconds per call
_CALL_MS = (("synthdata.generate_ms", "synthdata.generate"),
            ("synthdata.save_corpus_ms", "synthdata.save_corpus"),
            ("synthdata.load_corpus_ms", "synthdata.load_corpus"),
            ("models.save_bundle_ms", "models.save_bundle"),
            ("models.load_bundle_ms", "models.load_bundle"),
            ("evaluate.child_error_ms", "evaluate.child_error"),
            ("evaluate.domain_confusion_ms", "evaluate.domain_confusion"))


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for fam, _ in _US_FAMILIES:
        out += [(f"{fam}.p50", "us", "lower"), (f"{fam}.p99", "us", "lower"),
                (f"{fam}.calls", "count", "lower")]
    out += [("training.batch_grads_self_us.p50", "us", "lower"),
            ("training.batch_grads_self_us.p99", "us", "lower"),
            ("nn.forward_calls", "count", "lower"),
            ("nn.gflop_computed", "GFLOP", "lower"),
            ("nn.gflops_achieved", "GFLOP/s", "higher")]
    out += [(name, "s", "lower") for name, _ in _TOTAL_S]
    out += [("models.am_forward_per_batch_grads.bat", "ratio", "lower"),
            ("models.am_forward_per_batch_grads.sat", "ratio", "lower"),
            ("training.adapter_backward_per_adapter_step", "ratio", "lower"),
            ("training.disc_backward_per_disc_step", "ratio", "lower")]
    out += [(name, "ms", "lower") for name, _ in _CALL_MS]
    out += [("cli.startup_s", "s", "lower")]
    out += [(f"cli.stage_s.{st}", "s", "lower") for st in STAGES]
    out += [(f"evaluate.child_err_pct.{arm}", "%", "lower") for arm in ("dnn", "bat", "sat")]
    out += [("trace.overhead_ratio", "ratio", "lower")]
    return out


def _arg(args, kwargs, pos: int, key: str):
    return kwargs[key] if key in kwargs else args[pos]


class Tracer:
    """Records spans around wrapped calls; `install` patches, `restore` undoes."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        # Network or ParameterStore -> "am" | "adapter" | "disc" | "assess"
        self.roles: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.flop = 0.0

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name) -> None:
        """Replace owner.attr by a spanned call; `name` is a string or a
        function of (args, kwargs) returning one."""
        orig = getattr(owner, attr)
        namer = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(orig)
        def spanned(*args, **kwargs):
            idx = self._open(namer(args, kwargs))
            try:
                return orig(*args, **kwargs)
            finally:
                self._close(idx)

        self._patch(owner, attr, spanned)

    def _tag_after(self, owner, attr: str, tag) -> None:
        """Call tag(result, args) after owner.attr; records no span."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def tagged(*args, **kwargs):
            result = orig(*args, **kwargs)
            tag(result, args)
            return result

        self._patch(owner, attr, tagged)

    def _set_role(self, net, role: str) -> None:
        self.roles[net] = role
        self.roles[net.store] = role

    def install(self, sa) -> None:
        """Wrap the public entry points of every senadapt module."""
        nn, losses, models = sa.nn, sa.losses, sa.models
        synthdata, training, evaluate = sa.synthdata, sa.training, sa.evaluate

        # roles of the networks, tagged where the model wrappers build or
        # load them (load_adapter and load_discriminator bypass __init__)
        self._tag_after(models.AdultAcousticModel, "__init__",
                        lambda _, a: self._set_role(a[0].net, "am"))
        self._tag_after(models.AdaptationNetwork, "__init__",
                        lambda _, a: self._set_role(a[0].g, "adapter"))
        self._tag_after(models.DomainDiscriminator, "__init__",
                        lambda _, a: self._set_role(a[0].net, "disc"))
        self._tag_after(models.AssessmentNetwork, "__init__", lambda _, a: [
            self._set_role(n, "assess")
            for n in (a[0].trunk, a[0].head_pron, a[0].head_flu)])
        self._tag_after(models, "load_adapter",
                        lambda r, _: self._set_role(r.g, "adapter"))
        self._tag_after(models, "load_discriminator",
                        lambda r, _: self._set_role(r.net, "disc"))

        def net_call(kind):
            def namer(args, kwargs):
                net = args[0]
                rows = np.shape(_arg(args, kwargs, 2, "upstream") if kind == "backward"
                                else _arg(args, kwargs, 1, "x"))[0]
                # flop from the layer shapes: a forward is one matmul per layer;
                # a backward always forms the input gradient and, unless the
                # store is frozen, the weight gradient too
                per_mac = 2 if kind == "forward" or net.store.frozen else 4
                self.flop += per_mac * rows * sum(s.in_dim * s.out_dim for s in net.layers)
                return f"nn.{kind}.{self.roles.get(net, 'other')}"
            return namer

        self.wrap(nn.Network, "forward", net_call("forward"))
        self.wrap(nn.Network, "backward", net_call("backward"))
        step_name = lambda a, k: f"nn.sgd_step.{self.roles.get(a[0], 'other')}"
        self.wrap(nn, "sgd_step", step_name)
        self.wrap(training, "sgd_step", step_name)

        self.wrap(losses, "senone_ce_loss", "losses.senone_ce")
        self.wrap(losses, "binary_domain_loss", "losses.binary_domain")
        self.wrap(losses, "senone_aware_domain_loss", "losses.senone_aware_domain")

        self.wrap(models.AdultAcousticModel, "posteriors", "models.am_posteriors")
        self.wrap(models, "save_bundle", "models.save_bundle")
        self.wrap(models, "load_bundle", "models.load_bundle")

        self.wrap(synthdata, "generate_corpus", "synthdata.generate")
        self.wrap(synthdata, "save_corpus", "synthdata.save_corpus")
        self.wrap(synthdata, "load_corpus", "synthdata.load_corpus")

        def train_name(args, kwargs):
            return f"training.adapt.{_arg(args, kwargs, 4, 'cfg').mode}"

        def grads_name(args, kwargs):
            cfg = _arg(args, kwargs, 6, "cfg")
            return f"training.batch_grads.{cfg.mode}.{cfg.update_scheme}"

        self.wrap(training, "pretrain_adult_am", "training.pretrain")
        self.wrap(training, "adversarial_train", train_name)
        self.wrap(training, "adversarial_batch_grads", grads_name)
        self.wrap(training, "train_discriminator_only", "training.ref_disc")
        self.wrap(training, "train_assessment_network", "training.assess")

        self.wrap(evaluate, "child_senone_error", "evaluate.child_error")
        self.wrap(evaluate, "domain_confusion", "evaluate.domain_confusion")

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------

    def metrics(self, startup_s: float, overhead_ratio: float) -> dict[str, float]:
        """Reduce the recorded spans to the per-layer metrics. A family with
        no calls on this workload reads 0."""
        names, parents = self.names, np.array(self.parents, dtype=np.int64)
        dur = np.array(self.ends) - np.array(self.starts)
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])

        by_name: dict[str, list[int]] = {}
        for i, n in enumerate(self.names):
            by_name.setdefault(n, []).append(i)

        def select(prefix: str) -> np.ndarray:
            mask = np.zeros(len(dur), bool)
            for n, idx in by_name.items():
                if n.startswith(prefix):
                    mask[idx] = True
            return mask

        def pct(values: np.ndarray, q: float) -> float:
            return float(np.percentile(values, q)) if values.size else 0.0

        out = {}
        for fam, prefix in _US_FAMILIES:
            us = dur[select(prefix)] * 1e6
            out[f"{fam}.p50"], out[f"{fam}.p99"] = pct(us, 50), pct(us, 99)
            out[f"{fam}.calls"] = float(us.size)
        grads = select("training.batch_grads.")
        self_us = (dur[grads] - child[grads]) * 1e6
        out["training.batch_grads_self_us.p50"] = pct(self_us, 50)
        out["training.batch_grads_self_us.p99"] = pct(self_us, 99)
        nn_busy = dur[select("nn.forward.") | select("nn.backward.")].sum()
        out["nn.forward_calls"] = float(select("nn.forward.").sum())
        out["nn.gflop_computed"] = self.flop / 1e9
        out["nn.gflops_achieved"] = self.flop / 1e9 / nn_busy if nn_busy > 0 else 0.0
        for name, prefix in _TOTAL_S:
            out[name] = float(dur[select(prefix)].sum())

        def enclosing(idx: int, prefix: str) -> int:
            idx = parents[idx]
            while idx >= 0 and not names[idx].startswith(prefix):
                idx = parents[idx]
            return idx

        def count_under(span_prefix: str, under_prefix: str) -> int:
            return sum(enclosing(i, under_prefix) >= 0
                       for i in np.flatnonzero(select(span_prefix)))

        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0

        for mode in ("bat", "sat"):
            under = f"training.batch_grads.{mode}."
            out[f"models.am_forward_per_batch_grads.{mode}"] = ratio(
                count_under("nn.forward.am", under), int(select(under).sum()))
        out["training.adapter_backward_per_adapter_step"] = ratio(
            count_under("nn.backward.adapter", "training.adapt."),
            count_under("nn.sgd_step.adapter", "training.adapt."))
        out["training.disc_backward_per_disc_step"] = ratio(
            count_under("nn.backward.disc", "training.adapt."),
            count_under("nn.sgd_step.disc", "training.adapt."))
        for name, prefix in _CALL_MS:
            out[name] = pct(dur[select(prefix)] * 1e3, 50)
        out["cli.startup_s"] = startup_s
        for st in STAGES:
            out[f"cli.stage_s.{st}"] = float(dur[select(f"cli.stage.{st}")].sum())
        out["trace.overhead_ratio"] = overhead_ratio
        return out
