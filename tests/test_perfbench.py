"""The benchmark's tracer patches stbcid names from outside: every one it patches must exist.

A removal that drops a traced name (say the ``encode``/``receive`` imports that
``dataset`` keeps for tracing) fails here, not only in a traced benchmark run.
"""

import importlib.util
import pathlib

import numpy as np

from stbcid import classifier

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = _spans()
    names = [(module, attr) for module, attr, *_ in spans.PATCHES]
    names += [(classifier, "initialize"), (classifier, "load_checkpoint")]
    missing = [f"{m.__name__}.{attr}" for m, attr in names if not callable(getattr(m, attr, None))]
    assert not missing, f"perfbench/spans.py patches names stbcid lacks: {missing}"


def test_instrumentation_restores_every_name():
    spans = _spans()
    before = {(m, attr): getattr(m, attr) for m, attr, *_ in spans.PATCHES}
    with spans.Instrumented(spans.Tracer()):
        assert all(getattr(m, attr) is not fn for (m, attr), fn in before.items())
    assert all(getattr(m, attr) is fn for (m, attr), fn in before.items())


def test_layer_spans_recorded():
    # one training step and one inference block through an instrumented CNN2:
    # a layer signature the wrappers no longer fit fails here
    spans = _spans()
    tracer = spans.Tracer()
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((4, 2, 128)).astype(np.float32)
    onehot = np.eye(2, dtype=np.float32)[[0, 1, 1, 0]]
    with spans.Instrumented(tracer):
        model = classifier.initialize(classifier.build_cnn2(), seed=0)
        model.net.loss_and_grads(frames[:, None], onehot, rng=rng)
        classifier.predict_batch(model, frames)
    recorded = {s.name for s in tracer.spans}
    expected = {f"tensor_nn.{name}.{kind}" for name in spans.CNN2_LAYERS
                for kind in ("fwd", "infer_fwd")}
    expected |= {f"tensor_nn.{name}.bwd" for name in spans.CNN2_LAYERS[1:-1]}  # conv1..dense2
    assert expected <= recorded, sorted(expected - recorded)
