"""Per-layer metrics from the spans of a traced run, plus computed CNN2 counts.

Every metric is labelled ``measured`` (a time or rate from spans), ``counted``
(a number of calls or steps seen in spans, or a result value, which repeats
exactly for a seed), or ``computed`` (derived from the CNN2 layer shapes
alone).

A pass is one run of the workload's timed commands. ``.calls`` metrics,
``dataset.to_iq_ms``, ``signal_model.receive_ms``, ``signal_model.encode_ms``,
``evaluation.write_outputs_ms`` and ``<layer>.self_ms`` are totals per pass
(median over passes); every other ``_ms``/``_us`` metric is the median
inclusive time of one call. ``dataset.deserialize.calls_per_command``
counts the dataset loads of one ``train`` command, and
``evaluation.accuracy_vs_snr_ms`` is that of the CNN ``eval`` command (the
baseline's is in ``cli.eval_corr_ms``). ``<layer>.self_ms`` sums the self time (span
minus its traced children) of every span of that layer; for ``cli`` that is
the command time no traced function covers. Span times are as measured,
not scaled by the reference kernel. run.py adds ``process.minor_faults`` and
``process.sys_ms`` (page faults and kernel time of an untraced pass, from
getrusage) and ``trace.overhead_ms``/``_pct`` (median traced minus median
untraced pass, both scaled by the reference kernel).
"""

from __future__ import annotations

import statistics

import numpy as np

from spans import CNN2_LAYERS
from stbcid import classifier, tensor_nn

TRAIN_BATCH = 128  # fwd_ms/bwd_ms are at the training batch size
INFER_BATCH = 256  # infer_fwd_ms is at predict_batch's batch size
LAYERS = ("tensor_nn", "classifier", "dataset", "signal_model", "baseline_corr",
          "evaluation", "cli")


def _snr_key(snr: float) -> str:
    return f"snr{snr:g}"


PAPER_SNRS = tuple(float(s) for s in range(-20, 21, 2))


def metric_specs() -> list[tuple[str, str, str, str]]:
    """(name, unit, better, kind) for every per-layer metric, in report order."""
    specs = []
    for name in CNN2_LAYERS:
        specs.append((f"tensor_nn.{name}.fwd_ms", "ms", "lower", "measured"))
        if name != "softmax":  # softmax backward is fused into the loss gradient
            specs.append((f"tensor_nn.{name}.bwd_ms", "ms", "lower", "measured"))
        specs.append((f"tensor_nn.{name}.infer_fwd_ms", "ms", "lower", "measured"))
    specs += [
        ("tensor_nn.adam_step_ms", "ms", "lower", "measured"),
        ("tensor_nn.step_gflop", "GFLOP", "lower", "computed"),  # 0 without a training step
        ("tensor_nn.conv2.im2col_mb", "MB", "lower", "computed"),  # at the largest batch seen
        ("tensor_nn.conv2.fwd_gflop_per_s", "GFLOP/s", "higher", "measured"),
        ("classifier.train_step_ms.p50", "ms", "lower", "measured"),
        ("classifier.train_step_ms.p90", "ms", "lower", "measured"),
        ("classifier.steps", "count", "lower", "counted"),
        ("classifier.nonfinite_steps", "count", "lower", "counted"),
        ("classifier.val_pass_ms", "ms", "lower", "measured"),
        ("classifier.predict_batch_ms.p50", "ms", "lower", "measured"),
        ("classifier.save_checkpoint_ms", "ms", "lower", "measured"),
        ("classifier.load_checkpoint_ms", "ms", "lower", "measured"),
        ("dataset.generate_dataset_ms", "ms", "lower", "measured"),
        ("dataset.synthesize_burst_us", "us", "lower", "measured"),
        ("dataset.to_iq.calls", "count", "lower", "counted"),
        ("dataset.to_iq_ms", "ms", "lower", "measured"),
        ("dataset.serialize_mb_per_s", "MB/s", "higher", "measured"),
        ("dataset.deserialize_mb_per_s", "MB/s", "higher", "measured"),
        ("dataset.split_train_val_ms", "ms", "lower", "measured"),
        ("dataset.deserialize.calls_per_command", "count", "lower", "counted"),
        ("signal_model.receive.calls", "count", "lower", "counted"),
        ("signal_model.receive_ms", "ms", "lower", "measured"),
        ("signal_model.encode_ms", "ms", "lower", "measured"),
        ("baseline_corr.calibrate_threshold_ms", "ms", "lower", "measured"),
        ("baseline_corr.synth_sequence_us", "us", "lower", "measured"),
        ("baseline_corr.correlation_feature_us", "us", "lower", "measured"),
        ("baseline_corr.threshold", "1", "higher", "counted"),
        ("evaluation.accuracy_vs_snr_ms", "ms", "lower", "measured"),
        ("evaluation.write_outputs_ms", "ms", "lower", "measured"),
    ]
    specs += [(f"evaluation.val_acc.{_snr_key(s)}", "ratio", "higher", "counted")
              for s in PAPER_SNRS]
    specs += [(f"evaluation.corr_acc.{_snr_key(s)}", "ratio", "higher", "counted")
              for s in PAPER_SNRS]
    specs += [
        ("cli.generate_ms", "ms", "lower", "measured"),
        ("cli.train_ms", "ms", "lower", "measured"),
        ("cli.eval_ms", "ms", "lower", "measured"),
        ("cli.eval_corr_ms", "ms", "lower", "measured"),
        ("cli.nonzero_exits", "count", "lower", "counted"),
    ]
    specs += [(f"{layer}.self_ms", "ms", "lower", "measured") for layer in LAYERS]
    specs += [
        ("process.minor_faults", "count", "lower", "measured"),
        ("process.sys_ms", "ms", "lower", "measured"),
        ("trace.overhead_ms", "ms", "lower", "measured"),
        ("trace.overhead_pct", "%", "lower", "measured"),
    ]
    return specs


def _gemm_macs(batch: int) -> dict[str, int]:
    """Multiply-accumulates of each CNN2 conv/dense forward GEMM at ``batch``."""
    spec = classifier.build_cnn2()
    macs = {}
    shape = spec.input_shape
    for name, ls in zip(CNN2_LAYERS, spec.layers):
        out = tensor_nn.trace_shapes([ls], shape)[0]
        if ls.kind == "conv2d":
            kh, kw = ls.kernel
            macs[name] = batch * int(np.prod(out)) * shape[0] * kh * kw
        elif ls.kind == "dense":
            macs[name] = batch * ls.units * shape[0]
        shape = out
    return macs


def conv2_im2col_bytes(batch: int, itemsize: int = 4) -> int:
    """Bytes of the conv2 patch matrix: B*OH*OW rows of C*kh*kw float32 values."""
    spec = classifier.build_cnn2()
    shapes = tensor_nn.trace_shapes(spec.layers, spec.input_shape)
    i = CNN2_LAYERS.index("conv2")
    c = shapes[i - 1][0]
    _, oh, ow = shapes[i]
    kh, kw = spec.layers[i].kernel
    return batch * oh * ow * c * kh * kw * itemsize


def step_flops(batch: int = TRAIN_BATCH) -> int:
    """Nominal GEMM FLOPs of one training step: forward, input grad and weight grad."""
    return 3 * 2 * sum(_gemm_macs(batch).values())


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10)[8]


def per_layer_metrics(tracer, accuracy: dict) -> dict:
    """Every per-layer metric that spans give, as {name: value}. ``accuracy`` maps
    ``val_acc``/``corr_acc`` to {snr_db: accuracy} from the workload's eval output."""
    spans = tracer.spans
    self_s = tracer.self_seconds()
    passes = [i for i, s in enumerate(spans) if s.name == "pass"]
    top = {}  # span index -> index of its enclosing pass, and of its cli command
    cmd_of = {}
    for i, s in enumerate(spans):
        if s.name == "pass":
            top[i] = i
        elif s.parent >= 0:
            top[i] = top[s.parent]
            cmd_of[i] = i if s.name.startswith("cli.") else cmd_of.get(s.parent, -1)

    by_name, children = {}, {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
        children.setdefault(s.parent, []).append(s)

    def named(name, **where):
        return [spans[i] for i in by_name.get(name, ())
                if all(spans[i].meta.get(k) == v for k, v in where.items())]

    def call_ms(name, **where):
        return _median([s.seconds * 1e3 for s in named(name, **where)])

    def call_us(name):
        return _median([s.seconds * 1e6 for s in named(name)])

    def per_pass(name, value):
        totals = {p: 0.0 for p in passes}
        for i in by_name.get(name, ()):
            totals[top[i]] += value(spans[i])
        return _median(list(totals.values()))

    def pass_ms(name):
        return per_pass(name, lambda s: s.seconds * 1e3)

    def pass_calls(name):
        return per_pass(name, lambda s: 1)

    def rate_mb(name):
        done = named(name)
        seconds = sum(s.seconds for s in done)
        return sum(s.meta["bytes"] for s in done) / 1e6 / seconds if seconds else 0.0

    m = {}
    for name in CNN2_LAYERS:
        m[f"tensor_nn.{name}.fwd_ms"] = call_ms(f"tensor_nn.{name}.fwd", batch=TRAIN_BATCH)
        if name != "softmax":
            m[f"tensor_nn.{name}.bwd_ms"] = call_ms(f"tensor_nn.{name}.bwd", batch=TRAIN_BATCH)
        m[f"tensor_nn.{name}.infer_fwd_ms"] = call_ms(
            f"tensor_nn.{name}.infer_fwd", batch=INFER_BATCH)
    m["tensor_nn.adam_step_ms"] = call_ms("tensor_nn.adam_step")
    trained = bool(by_name.get("tensor_nn.network.loss_and_grads"))
    m["tensor_nn.step_gflop"] = step_flops() / 1e9 if trained else 0.0
    conv2_batches = [s.meta["batch"] for s in named("tensor_nn.conv2.fwd")
                     + named("tensor_nn.conv2.infer_fwd")]
    m["tensor_nn.conv2.im2col_mb"] = (
        conv2_im2col_bytes(max(conv2_batches)) / 1e6 if conv2_batches else 0.0)
    conv2_ms = m["tensor_nn.conv2.fwd_ms"]
    m["tensor_nn.conv2.fwd_gflop_per_s"] = (
        2 * _gemm_macs(TRAIN_BATCH)["conv2"] / 1e9 / (conv2_ms / 1e3) if conv2_ms else 0.0)

    # A training step is one loss_and_grads and the adam_step after it.
    steps, val_pass, step_counts = [], [], []
    for t in by_name.get("classifier.train", ()):
        run = spans[t]
        kids = children.get(t, [])
        grads = [s for s in kids if s.name == "tensor_nn.network.loss_and_grads"]
        adams = [s for s in kids if s.name == "tensor_nn.adam_step"]
        steps += [(g.seconds + a.seconds) * 1e3 for g, a in zip(grads, adams)
                  if g.meta["batch"] == TRAIN_BATCH]
        step_counts.append(len(grads))
        evals = [s.seconds for s in kids
                 if s.name == "tensor_nn.network.forward" and not s.meta["train"]]
        val_pass.append(sum(evals) * 1e3 / max(run.meta.get("epochs", 1), 1))
    m["classifier.train_step_ms.p50"] = _median(steps)
    m["classifier.train_step_ms.p90"] = _p90(steps)
    m["classifier.steps"] = _median(step_counts)
    m["classifier.nonfinite_steps"] = sum(
        1 for s in named("tensor_nn.network.loss_and_grads") if not s.meta["finite"])
    m["classifier.val_pass_ms"] = _median(val_pass)
    m["classifier.predict_batch_ms.p50"] = call_ms("classifier.predict_batch")
    m["classifier.save_checkpoint_ms"] = call_ms("classifier.save_checkpoint")
    m["classifier.load_checkpoint_ms"] = call_ms("classifier.load_checkpoint")

    m["dataset.generate_dataset_ms"] = call_ms("dataset.generate_dataset")
    m["dataset.synthesize_burst_us"] = call_us("dataset.synthesize_burst")
    m["dataset.to_iq.calls"] = pass_calls("dataset.to_iq")
    m["dataset.to_iq_ms"] = pass_ms("dataset.to_iq")
    m["dataset.serialize_mb_per_s"] = rate_mb("dataset.serialize_frames")
    m["dataset.deserialize_mb_per_s"] = rate_mb("dataset.deserialize_frames")
    m["dataset.split_train_val_ms"] = call_ms("dataset.split_train_val")
    loads = {i: 0 for i in by_name.get("cli.train", ())}
    for i in by_name.get("dataset.deserialize_frames", ()):
        if cmd_of.get(i) in loads:
            loads[cmd_of[i]] += 1
    m["dataset.deserialize.calls_per_command"] = _median(list(loads.values()))

    m["signal_model.receive.calls"] = pass_calls("signal_model.receive")
    m["signal_model.receive_ms"] = pass_ms("signal_model.receive")
    m["signal_model.encode_ms"] = pass_ms("signal_model.encode")

    m["baseline_corr.calibrate_threshold_ms"] = call_ms("baseline_corr.calibrate_threshold")
    m["baseline_corr.synth_sequence_us"] = call_us("baseline_corr.synth_sequence")
    m["baseline_corr.correlation_feature_us"] = call_us("baseline_corr.correlation_feature")
    thresholds = [s.meta["threshold"] for s in named("baseline_corr.calibrate_threshold")]
    m["baseline_corr.threshold"] = thresholds[-1] if thresholds else 0.0

    m["evaluation.accuracy_vs_snr_ms"] = _median([
        spans[i].seconds * 1e3 for i in by_name.get("evaluation.accuracy_vs_snr", ())
        if spans[cmd_of[i]].name == "cli.eval"])
    writes = {p: 0.0 for p in passes}
    for i, s in enumerate(spans):
        if s.name.startswith(("evaluation.write_", "evaluation.render_")):
            writes[top[i]] += s.seconds * 1e3
    m["evaluation.write_outputs_ms"] = _median(list(writes.values()))
    for kind in ("val_acc", "corr_acc"):
        curve = accuracy.get(kind, {})
        for snr in PAPER_SNRS:
            m[f"evaluation.{kind}.{_snr_key(snr)}"] = curve.get(snr, 0.0)

    for cmd in ("generate", "train", "eval", "eval_corr"):
        m[f"cli.{cmd}_ms"] = call_ms(f"cli.{cmd}")
    m["cli.nonzero_exits"] = sum(1 for s in spans
                                 if s.name.startswith("cli.") and s.meta.get("rc", 0) != 0)

    for layer in LAYERS:
        totals = {p: 0.0 for p in passes}
        for i, s in enumerate(spans):
            if s.name.split(".", 1)[0] == layer:
                totals[top[i]] += self_s[i] * 1e3
        m[f"{layer}.self_ms"] = _median(list(totals.values()))
    return m
