"""The benchmark's tracer patches stbcid names from outside: every one it patches must exist.

A removal that drops a traced name (say the ``encode``/``receive`` imports that
``dataset`` keeps for tracing) fails here, not only in a traced benchmark run.
So does a library change that breaks a workload's commands or output checks.
"""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

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


@pytest.mark.parametrize("name", ["train", "infer", "baseline"])
def test_tiny_workload_passes_its_checks(name, tmp_path, monkeypatch):
    path = SPANS.with_name("workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)

    workload = workloads.WORKLOADS[name](seed=1, tiny=True)
    workload.setup(str(tmp_path / name))
    results = [workloads.run_cli(cmd.argv) for cmd in workload.commands()]
    assert [r.rc for r in results] == [0] * len(results), [r.stderr for r in results]
    assert workload.check(results) == []
