"""Spans around the qsigns layers, installed from outside the package.

Entering a `Tracer` context wraps public functions at run time.  A
module-level function is rebound wherever a qsigns module holds it: the
objects behind ``qsigns.cli.eta_quotient`` and ``qsigns.dissect.eta_quotient``
are one function, so both names go through one wrapper.  Series methods and
``EtaQuotientSpec.parse`` are wrapped on their class.  Nothing under
``src/`` changes, and leaving the context puts every original back.

Each call is a span.  Its duration goes to its function's inclusive time
(outermost call only, so a function calling itself is not counted twice)
and its self time, the duration minus the spans beneath it, goes to its
layer.  The self times of all layers therefore add up to the time of the
root spans, which the benchmark opens around each job.
"""

from __future__ import annotations

import bisect
import functools
import sys
import time
from collections import Counter

from qsigns import _backend, cli, dissect, products, signs
from qsigns.products import EtaQuotientSpec
from qsigns.series import Series


def _sparse(t, args, result, dur):
    exps, n = args[1], args[3]
    t.counts["kernels.sparse_updates"] += n * bisect.bisect_left(exps, n)


def _mul_dense(t, args, result, dur):
    xs, ys, n = args
    t.counts["kernels.dense_updates"] += sum(min(len(ys), n - i) for i in range(min(len(xs), n)))


def _invert_dense(t, args, result, dur):
    xs, n = args
    t.counts["kernels.dense_updates"] += sum(min(k, len(xs) - 1) for k in range(1, n))


def _coeff_bits(t, args, result, dur):
    bits = max(map(abs, result.coefficients)).bit_length()
    t.counts["series.max_coeff_bits"] = max(t.counts["series.max_coeff_bits"], bits)


def _expanded(t, args, result, dur):
    t.counts["products.coeffs_out"] += len(result)


def _verified(t, args, result, dur):
    _, pattern, horizon = args
    t.counts["signs.coeffs_scanned"] += horizon - max(0, pattern.onset + 1) + 1


def _detected(t, args, result, dur):
    t.counts["signs.coeffs_scanned"] += args[2] + 1


def _censused(t, args, result, dur):
    t.counts["signs.coeffs_scanned"] += args[1] * args[2]


def _probed(t, args, result, dur):
    t.counts["dissect.probe_hits"] += 1


def _assembled(t, args, result, dur):
    # reassemblies made by the probe count apart from those the caller asked for
    if t.active["dissect.quintuple_components"]:
        t.counts["dissect.probe_reassemblies"] += 1
    else:
        t.times["dissect.assemble_s"] += dur


# (layer, owner, attribute, hook): the public functions that other layers
# or the benchmark call; calls inside one layer need no span of their own
TRACED = [
    ("cli", cli, "main", None),
    ("products", EtaQuotientSpec, "parse", None),
    ("products", products, "eta_quotient", _expanded),
    *[("products", products, name, None) for name in (
        "pochhammer", "quintuple_product", "theta_alt_squares", "theta_triangular",
        "theta_squares", "theta_weighted", "borwein_a", "borwein_b", "borwein_c3",
        "lambert_cubic", "theta_threevar",
    )],
    ("kernels", _backend, "mul_sparse", _sparse),
    ("kernels", _backend, "div_sparse", _sparse),
    ("kernels", _backend, "mul_dense", _mul_dense),
    ("kernels", _backend, "invert_dense", _invert_dense),
    ("series", Series, "__mul__", _coeff_bits),
    ("series", Series, "invert", _coeff_bits),
    ("series", Series, "power", _coeff_bits),
    *[("series", Series, name, None) for name in (
        "__add__", "__sub__", "__neg__", "shift", "dilate", "slice",
    )],
    ("dissect", dissect, "quintuple_components", _probed),
    ("dissect", dissect, "assemble", _assembled),
    *[("dissect", dissect, name, None) for name in (
        "qq_components", "three_dissection_qq",
        "three_dissection_qq3", "ramanujan5",
    )],
    ("signs", signs, "verify_pattern", _verified),
    ("signs", signs, "detect_pattern", _detected),
    ("signs", signs, "sign_census", _censused),
    *[("signs", signs, name, None) for name in (
        "predict_quotient_pattern", "pattern_catalog", "corpus", "vanishing_predicate",
    )],
]

# name -> unit of every per-layer metric, in the order they are printed
PER_LAYER = {
    "kernels.sparse_calls": "count",
    "kernels.sparse_updates": "count",
    "kernels.sparse_s": "s",
    "kernels.sparse_ns_per_update": "ns",
    "kernels.dense_calls": "count",
    "kernels.dense_updates": "count",
    "kernels.dense_s": "s",
    "series.mul_s": "s",
    "series.invert_s": "s",
    "series.power_s": "s",
    "series.self_s": "s",
    "series.max_coeff_bits": "bits",
    "products.expand_calls": "count",
    "products.expand_s": "s",
    "products.self_s": "s",
    "products.coeffs_out": "count",
    "dissect.probe_s": "s",
    "dissect.probe_reassemblies": "count",
    "dissect.probe_hit_ratio": "ratio",
    "dissect.assemble_s": "s",
    "dissect.self_s": "s",
    "signs.scan_s": "s",
    "signs.coeffs_scanned": "count",
    "signs.self_s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "bench.self_s": "s",
    "bench.ref_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}

# computed counts: they must repeat exactly whenever the same jobs run again
COUNTS = [name for name, unit in PER_LAYER.items() if unit in ("count", "bytes", "bits")]

LAYERS = ("cli", "products", "kernels", "series", "dissect", "signs", "bench")


class Tracer:
    """Span bookkeeping for one pass; a context manager that installs the wrappers."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.active: Counter = Counter()
        self.calls: Counter = Counter()
        self.incl: Counter = Counter()
        self.selfs: Counter = Counter()
        self.times: Counter = Counter()
        self.counts: Counter = Counter()
        self._undo: list[tuple] = []

    def __enter__(self) -> "Tracer":
        mods = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "qsigns"]
        for layer, owner, attr, hook in TRACED:
            key = f"{layer}.{attr}"
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(layer, key, raw.__func__, hook))
                else:
                    wrapped = self._wrap(layer, key, raw, hook)
                self._rebind(owner, attr, wrapped)
            else:
                fn = getattr(owner, attr)
                wrapped = self._wrap(layer, key, fn, hook)
                for mod in mods:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._rebind(mod, name, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _rebind(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap(self, layer: str, key: str, fn, hook):
        stack, active = self.stack, self.active
        now = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            active[key] += 1
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = now() - t0
                stack.pop()
                active[key] -= 1
                self.calls[key] += 1
                self.selfs[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if not active[key]:
                    self.incl[key] += dur
            if hook is not None:
                hook(self, args, result, dur)
            return result

        return traced

    def job(self, fn, *args):
        """Run one job inside a root span of the benchmark's own layer."""
        return self._wrap("bench", "bench.job", fn, None)(*args)

    def metrics(self) -> dict[str, float]:
        """Per-layer values of this pass, except the trace.* wall times and bench.ref_s."""
        calls, incl, counts = self.calls, self.incl, self.counts
        sparse_updates = counts["kernels.sparse_updates"]
        sparse_s = incl["kernels.mul_sparse"] + incl["kernels.div_sparse"]
        reassemblies = counts["dissect.probe_reassemblies"]
        out = {
            "kernels.sparse_calls": calls["kernels.mul_sparse"] + calls["kernels.div_sparse"],
            "kernels.sparse_updates": sparse_updates,
            "kernels.sparse_s": sparse_s,
            "kernels.sparse_ns_per_update": 1e9 * sparse_s / sparse_updates if sparse_updates else 0.0,
            "kernels.dense_calls": calls["kernels.mul_dense"] + calls["kernels.invert_dense"],
            "kernels.dense_updates": counts["kernels.dense_updates"],
            "kernels.dense_s": incl["kernels.mul_dense"] + incl["kernels.invert_dense"],
            "series.mul_s": incl["series.__mul__"],
            "series.invert_s": incl["series.invert"],
            "series.power_s": incl["series.power"],
            "series.max_coeff_bits": counts["series.max_coeff_bits"],
            "products.expand_calls": calls["products.eta_quotient"],
            "products.expand_s": incl["products.eta_quotient"],
            "products.coeffs_out": counts["products.coeffs_out"],
            "dissect.probe_s": incl["dissect.quintuple_components"],
            "dissect.probe_reassemblies": reassemblies,
            "dissect.probe_hit_ratio": counts["dissect.probe_hits"] / reassemblies if reassemblies else 0.0,
            "dissect.assemble_s": self.times["dissect.assemble_s"],
            "signs.scan_s": sum(incl[f"signs.{f}"] for f in ("verify_pattern", "detect_pattern", "sign_census")),
            "signs.coeffs_scanned": counts["signs.coeffs_scanned"],
            "cli.report_bytes": counts["cli.report_bytes"],
        }
        for layer in LAYERS:
            if layer != "kernels":
                out[f"{layer}.self_s"] = self.selfs[layer]
        return out
