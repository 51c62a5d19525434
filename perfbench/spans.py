"""In-memory span tracer that instruments the stbcid package from the outside.

Each wrapper is installed where its caller looks the name up: a module
attribute (``stbcid.dataset.receive`` is patched, not
``stbcid.signal_model.receive``, because ``dataset`` imports ``receive`` by
name), or an instance attribute on each CNN2 layer and its ``Network``.
``Instrumented`` restores every module attribute on exit; instance wrappers
die with the model objects they were put on. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import math
import os
import time

from stbcid import baseline_corr, classifier, dataset, evaluation

# Names of the 14 layers of ``classifier.build_cnn2()``, in stack order.
CNN2_LAYERS = (
    "pad1", "conv1", "relu1", "drop1", "pad2", "conv2", "relu2", "drop2",
    "flatten", "dense1", "relu3", "drop3", "dense2", "softmax",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "meta")

    def __init__(self, name, start, parent, meta):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.meta = meta

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, **self.meta}


class Tracer:
    """Spans (name, start, end, parent index, meta) kept in a list until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, **meta) -> Span:
        span = Span(name, 0.0, self._stack[-1] if self._stack else -1, meta)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = span.end = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        """Trace ``fn``; ``before(args, kwargs)`` gives meta, ``after(result, meta)`` adds to it.

        ``after`` runs once the span is closed, so its cost is not charged to ``fn``.
        """
        def traced(*args, **kwargs):
            span = self.open(name, **(before(args, kwargs) if before else {}))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after:
                after(result, span.meta)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the part its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.seconds
        return [s.seconds - c for s, c in zip(self.spans, child)]


def _batch(args, kwargs):
    return {"batch": int(args[0].shape[0])}


def _train_flag(args, kwargs):
    return {"train": bool(kwargs.get("train", args[1] if len(args) > 1 else False))}


def _loss_finite(result, meta):
    meta["finite"] = math.isfinite(result[0])


def _file_bytes(path_arg):
    def before(args, kwargs):
        return {"path": os.fspath(args[path_arg])}

    def after(result, meta):
        meta["bytes"] = os.path.getsize(meta.pop("path"))

    return before, after


def _epochs_run(result, meta):
    meta["epochs"] = result[1].epochs_run


def _threshold(result, meta):
    meta["threshold"] = result.threshold


# (module, attribute, span name[, before, after]). Signal-model functions are
# patched in each module that imported them by name.
_SERIALIZE = _file_bytes(1)
_DESERIALIZE = _file_bytes(0)
PATCHES = (
    (dataset, "generate_dataset", "dataset.generate_dataset"),
    (dataset, "synthesize_burst", "dataset.synthesize_burst"),
    (dataset, "window_frames", "dataset.window_frames"),
    (dataset, "to_iq", "dataset.to_iq"),
    (dataset, "serialize_frames", "dataset.serialize_frames", *_SERIALIZE),
    (dataset, "deserialize_frames", "dataset.deserialize_frames", *_DESERIALIZE),
    (dataset, "assign_burst_ids", "dataset.assign_burst_ids"),
    (dataset, "split_train_val", "dataset.split_train_val"),
    (dataset, "write_manifest", "dataset.write_manifest"),
    (dataset, "read_manifest", "dataset.read_manifest"),
    (dataset, "encode", "signal_model.encode"),
    (dataset, "receive", "signal_model.receive"),
    (baseline_corr, "encode", "signal_model.encode"),
    (baseline_corr, "receive", "signal_model.receive"),
    (baseline_corr, "calibrate_threshold", "baseline_corr.calibrate_threshold", None, _threshold),
    (baseline_corr, "synth_sequence", "baseline_corr.synth_sequence"),
    (baseline_corr, "correlation_feature", "baseline_corr.correlation_feature"),
    (baseline_corr, "classify_corr", "baseline_corr.classify_corr"),
    (classifier, "train", "classifier.train", None, _epochs_run),
    (classifier, "save_checkpoint", "classifier.save_checkpoint"),
    (classifier, "predict_batch", "classifier.predict_batch"),
    (classifier, "adam_step", "tensor_nn.adam_step"),
    (evaluation, "accuracy_vs_snr", "evaluation.accuracy_vs_snr"),
    (evaluation, "write_accuracy_csv", "evaluation.write_accuracy_csv"),
    (evaluation, "render_accuracy_svg", "evaluation.render_accuracy_svg"),
    (evaluation, "write_confusion_csv", "evaluation.write_confusion_csv"),
    (evaluation, "render_confusion_svg", "evaluation.render_confusion_svg"),
    (evaluation, "write_loss_csv", "evaluation.write_loss_csv"),
    (evaluation, "render_loss_svg", "evaluation.render_loss_svg"),
)


class Instrumented:
    """Context manager: patch every traced name, then put the originals back."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = []

    def __enter__(self):
        t = self.tracer
        for module, attr, name, *hooks in PATCHES:
            self._patch(module, attr, t.wrap(name, getattr(module, attr), *hooks))
        # Models are born inside the commands; instrument each one as it appears.
        for attr in ("initialize", "load_checkpoint"):
            self._patch(classifier, attr, t.wrap(
                f"classifier.{attr}", getattr(classifier, attr),
                after=lambda model, meta: self._instrument_model(model)))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _patch(self, module, attr, fn):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, fn)

    def _instrument_model(self, model) -> None:
        t = self.tracer
        net = model.net
        kinds = tuple(layer.spec.kind for layer in net.layers)
        if kinds != tuple(ls.kind for ls in classifier.build_cnn2().layers):
            raise RuntimeError(f"not a CNN2 stack: {kinds}")
        for name, layer in zip(CNN2_LAYERS, net.layers):
            layer.forward = self._layer_forward(name, layer.forward)
            layer.backward = t.wrap(f"tensor_nn.{name}.bwd", layer.backward, _batch)
        net.forward = t.wrap("tensor_nn.network.forward", net.forward, _train_flag)
        net.loss_and_grads = t.wrap("tensor_nn.network.loss_and_grads", net.loss_and_grads,
                                    _batch, _loss_finite)

    def _layer_forward(self, name, forward):
        train_span = self.tracer.wrap(f"tensor_nn.{name}.fwd", forward, _batch)
        infer_span = self.tracer.wrap(f"tensor_nn.{name}.infer_fwd", forward, _batch)

        def traced(x, train=False, rng=None, sign_trace=None):
            fn = train_span if train else infer_span
            return fn(x, train=train, rng=rng, sign_trace=sign_trace)

        return traced
