"""The benchmark's tracer still finds every function it wraps by name."""

import importlib.util
from pathlib import Path

from qsigns import eta_quotient, pochhammer
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


def test_tracer_counts_every_pass_of_a_power_in_one_kernel_call():
    """The census shape (q^2;q^2)^5/(q^7;q^7) plans a J(q^2) seed, two passes of
    (q^2;q^2) and one division: one mul_sparse call makes both passes."""
    tracing = load_tracing()
    with tracing.Tracer() as tracer:
        eta_quotient("2^5 7^-1", 2000)
    assert tracer.calls["kernels.mul_sparse"] == 1
    assert tracer.calls["kernels.div_sparse"] == 1
    assert tracer.metrics()["kernels.sparse_calls"] == 2


def test_tracer_counts_a_power_raised_by_passes():
    """(q;q)^5 at T = 1000 is four passes of (q;q) onto the base, one mul_sparse call."""
    tracing = load_tracing()
    with tracing.Tracer() as tracer:
        pochhammer(1, 1, 1000).power(5)
    assert tracer.calls["kernels.mul_sparse"] == 1
