"""Per-module spans for the traced run, and the per-layer metrics built on them.

`Tracer.installed()` wraps the public functions of the `sasv` modules for the
length of a `with` block, in every `sasv` module that holds a reference to
them, and restores the originals on exit. Each call becomes a span: name,
the span that caused it, start and end, the phase of the run it fell in,
and a few facts about its arguments. Spans stay in memory; the metrics are
computed from them when the run ends. No file under `src/` is touched.

Phases are ("setup", k), ("round", k) and ("probe", 0). A total is taken
per phase and its median reported, from rounds if the layer ran in a round,
else from set-ups, else from the probe: a small `train` set-up and round,
traced after the timed rounds so that a layer the workload never calls
still reports a measured figure.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time

import numpy as np

LAYERS = ("bn", "h1", "act1", "h2", "act2", "h3", "act3", "proj", "head")
MICRO_REPS = 1000
_KIND_ORDER = ("round", "setup", "probe")


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "phase", "info")

    def __init__(self, span_id, name, parent, start, phase):
        self.id, self.name, self.parent = span_id, name, parent
        self.start, self.end, self.phase, self.info = start, None, phase, None

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9


def _score_info(args, kwargs, out):
    protocol = args[1]
    return {"mode": args[0].mode.value, "trials": len(protocol),
            "unique": len({t.test_id for t in protocol.trials})}


def _train_info(args, kwargs, out):
    cfg = args[5] if len(args) > 5 else kwargs["cfg"]
    return {"epochs": cfg.epochs, "best": out.best_epoch}


def _forward_info(args, kwargs, out):
    tape = args[2] if len(args) > 2 else kwargs.get("tape")
    return {"training": tape is not None}


# (module, attribute, class or None, function of (args, kwargs, result) -> info)
TARGETS = [
    ("synthgen", "generate", None, None),
    ("synthgen", "write_dataset", None, None),
    ("core", "save_embeddings", None, None),
    ("core", "load_embeddings", None, lambda a, k, out: {"rows": len(out)}),
    ("core", "load_protocol", None, None),
    ("model", "assemble_batch", "IntegrationModel", None),
    ("model", "spoof_scores", "IntegrationModel", _forward_info),
    ("model", "score_protocol", None, _score_info),
    ("neuralnet", "backward", "GradientTape", None),
    ("loss", "one_class_softmax", None, None),
    ("training", "train", None, _train_info),
    ("training", "adam_step", None, None),
    ("checkpoint", "save_checkpoint", None, None),
    ("checkpoint", "load_checkpoint", None, None),
    ("metrics", "sasv_report", None, None),
    ("metrics", "export_scores", None, None),
    ("metrics", "load_scores", None, None),
    ("baselines", "scores_for", "CmScoreSource", None),
    ("baselines", "sv_scores_for", None, None),
    ("baselines", "fit_cascade", None, None),
    ("baselines", "fit_logreg", None, None),
    ("baselines", "cascade_scores", None, None),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = None  # spans are recorded only while a phase is set
        self._stack: list[int] = []

    def _wrap(self, name, fn, info):
        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            span = Span(len(self.spans), name,
                        self._stack[-1] if self._stack else None,
                        time.perf_counter_ns(), self.phase)
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                self._stack.pop()
            if info is not None:
                span.info = info(args, kwargs, out)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "sasv" or key.startswith("sasv.")]
        undo = []
        try:
            for mod_name, attr, cls_name, info in TARGETS:
                mod = sys.modules[f"sasv.{mod_name}"]
                name = f"{mod_name}.{attr}"
                if cls_name is not None:
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[attr]
                    setattr(cls, attr, self._wrap(name, orig, info))
                    undo.append((cls, attr, orig))
                    continue
                orig = getattr(mod, attr)
                traced = self._wrap(name, orig, info)
                for holder in modules:
                    if getattr(holder, attr, None) is orig:
                        setattr(holder, attr, traced)
                        undo.append((holder, attr, orig))
            yield self
        finally:
            for holder, attr, orig in reversed(undo):
                setattr(holder, attr, orig)

    # ---- metrics -----------------------------------------------------------

    def _select(self, name, where=None):
        return [s for s in self.spans if s.name == name
                and (where is None or where(s, self.spans))]

    def _group(self, spans):
        """Spans of the first phase kind (round, setup, probe) that has any,
        and the phases of that kind seen in the run."""
        for kind in _KIND_ORDER:
            chosen = [s for s in spans if s.phase[0] == kind]
            if chosen:
                phases = sorted({s.phase for s in self.spans if s.phase[0] == kind})
                return chosen, phases
        return [], []

    def total(self, name, where=None, value=None) -> float:
        """Median over phases of the per-phase sum of `value` (default: seconds)."""
        spans, phases = self._group(self._select(name, where))
        if not spans:
            raise KeyError(f"no {name} span in the traced run")
        value = value or (lambda s: s.seconds)
        sums = {p: 0.0 for p in phases}
        for s in spans:
            sums[s.phase] += value(s)
        return statistics.median(sums.values())

    def count(self, name, where=None) -> float:
        return self.total(name, where, value=lambda s: 1.0)

    def ratio(self, name, num, den, where=None) -> float:
        spans, _ = self._group(self._select(name, where))
        if not spans:
            raise KeyError(f"no {name} span in the traced run")
        return sum(num(s) for s in spans) / sum(den(s) for s in spans)

    def per_call_us(self, name, where=None) -> list[float]:
        spans, _ = self._group(self._select(name, where))
        return [s.seconds * 1e6 for s in spans]

    def epoch_seconds(self) -> list[float]:
        """Epoch k of a training ends when its dev report returns; epoch 1
        starts when the training set has been assembled."""
        trains, _ = self._group(self._select("training.train"))
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = []
        for t in trains:
            kids = sorted(children.get(t.id, []), key=lambda s: s.start)
            marks = [next(s.end for s in kids if s.name == "model.assemble_batch")]
            marks += [s.end for s in kids if s.name == "metrics.sasv_report"]
            out.extend((b - a) * 1e-9 for a, b in zip(marks, marks[1:]))
        return out


def _child_of(parent_name):
    def where(span, spans):
        return span.parent is not None and spans[span.parent].name == parent_name
    return where


def _mode_is(*modes):
    return lambda span, spans: span.info["mode"] in modes


def _training_forward(flag):
    return lambda span, spans: span.info["training"] is flag


def percentiles(prefix: str, samples_us: list[float]) -> dict[str, float]:
    """Median and 99th percentile (nearest rank); the latter needs at least
    ten samples beyond it, so at least 1000 samples."""
    if len(samples_us) < 1000:
        raise ValueError(f"{prefix}: {len(samples_us)} samples, p99 needs 1000")
    ordered = sorted(samples_us)
    return {f"{prefix}.p50": statistics.median(ordered),
            f"{prefix}.p99": ordered[-(len(ordered) // 100) - 1]}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    t = tracer
    train_child = _child_of("training.train")
    m = {
        "synthgen.generate_s": t.total("synthgen.generate"),
        "synthgen.write_s": t.total("synthgen.write_dataset"),
        "core.save_embeddings_s": t.total("core.save_embeddings"),
        "core.load_embeddings_s": t.total("core.load_embeddings"),
        "core.load_embeddings_rows_per_s": t.ratio(
            "core.load_embeddings", lambda s: s.info["rows"], lambda s: s.seconds),
        "core.load_protocol_s": t.total("core.load_protocol"),
        "model.assemble_batch_s": t.total("model.assemble_batch"),
        "model.spoof_scores_s": t.total("model.spoof_scores", _training_forward(False)),
        "model.score_protocol.concat_s": t.total(
            "model.score_protocol", _mode_is("concat", "cm_only")),
        "model.score_protocol.enroll_s": t.total(
            "model.score_protocol", _mode_is("concat_plus_enroll")),
        "model.trials_scored": t.total(
            "model.score_protocol", value=lambda s: float(s.info["trials"])),
        "model.unique_test_ratio": t.ratio(
            "model.score_protocol", lambda s: s.info["unique"], lambda s: s.info["trials"]),
        "training.epoch_s": statistics.median(t.epoch_seconds()),
        "training.forward_s": t.total("model.spoof_scores", _training_forward(True)),
        "training.backward_s": t.total("neuralnet.backward"),
        "training.dev_rescore_s": (t.total("model.score_protocol", train_child)
                                   + t.total("metrics.sasv_report", train_child)),
        "training.steps": t.count("training.adam_step", train_child),
        "training.useful_epoch_ratio": t.ratio(
            "training.train", lambda s: s.info["best"], lambda s: s.info["epochs"]),
        "checkpoint.save_s": t.total("checkpoint.save_checkpoint"),
        "checkpoint.load_s": t.total("checkpoint.load_checkpoint"),
        "metrics.sasv_report_s": t.total("metrics.sasv_report"),
        "metrics.export_scores_s": t.total("metrics.export_scores"),
        "metrics.load_scores_s": t.total("metrics.load_scores"),
        "baselines.cm_scores_s": t.total("baselines.scores_for"),
        "baselines.cm_forward_calls": t.count(
            "model.spoof_scores", _child_of("baselines.scores_for")),
        "baselines.sv_scores_for_s": t.total("baselines.sv_scores_for"),
        "baselines.fit_cascade_s": t.total("baselines.fit_cascade"),
        "baselines.fit_cascade_candidates": t.count(
            "baselines.cascade_scores", _child_of("baselines.fit_cascade")),
        "baselines.fit_logreg_s": t.total("baselines.fit_logreg"),
    }
    m.update(percentiles("loss.one_class_softmax_us",
                         t.per_call_us("loss.one_class_softmax")))
    m.update(percentiles("training.adam_step_us",
                         t.per_call_us("training.adam_step", train_child)))
    return m


class _Recorder:
    """Takes the place of a GradientTape to keep one layer's forward cache."""

    cache = None

    def push(self, layer, cache):
        self.cache = cache


def _timed_us(fn, reps: int) -> list[float]:
    out = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        fn()
        out.append((time.perf_counter_ns() - start) * 1e-3)
    return out


def _activations(layers, x, training: bool):
    """The input of every layer for input x, in eval or training mode."""
    inputs = []
    for layer in layers:
        inputs.append(x)
        x = layer.forward(x, _Recorder() if training else None)
    return inputs


def microbench(model, forward_rows: int, forward_training: bool,
               backward_rows: int, seed: int, reps: int = MICRO_REPS) -> dict[str, float]:
    """Forward and backward microseconds per call of each layer of `model`
    at pinned batch shapes, with seeded inputs."""
    rng = np.random.default_rng(seed)
    layers = [getattr(model, name) for name in LAYERS]
    fwd_in = _activations(layers, rng.standard_normal((forward_rows, model.input_dim)),
                          forward_training)
    bwd_in = _activations(layers, rng.standard_normal((backward_rows, model.input_dim)),
                          True)
    out = {}
    for name, layer, xf, xb in zip(LAYERS, layers, fwd_in, bwd_in):
        tape = _Recorder() if forward_training else None
        out.update(percentiles(f"neuralnet.{name}.forward_us",
                               _timed_us(lambda: layer.forward(xf, tape), reps)))
        rec = _Recorder()
        gy = rng.standard_normal(layer.forward(xb, rec).shape)
        out.update(percentiles(f"neuralnet.{name}.backward_us",
                               _timed_us(lambda: layer.backward(rec.cache, gy), reps)))
    return out
