"""The benchmark's tracer still finds every function it wraps by name."""

import importlib.util
from pathlib import Path

from qsigns import pochhammer
from qsigns.series import Series

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_traced_name():
    tracing = load_tracing()
    originals = {(owner, attr): vars(owner)[attr] for _, owner, attr, _ in tracing.TRACED}
    with tracing.Tracer() as tracer:
        pochhammer(1, 1, 40).power(-3).invert()
        assert Series.power is not originals[Series, "power"]
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, attr
    assert tracer.calls["series.power"] == 1
    assert tracer.calls["series.invert"] == 1
    assert tracer.metrics()["kernels.sparse_calls"] >= 1
