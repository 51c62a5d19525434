"""The benchmark's tracer patches stbcid names from outside: every one it patches must exist.

A removal that drops a traced name (say the ``encode``/``receive`` imports that
``dataset`` keeps for tracing) fails here, not only in a traced benchmark run.
"""

import importlib.util
import pathlib

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
