"""Per-layer spans for the traced benchmark run.

:class:`Tracer` wraps, from outside the package, every public function and
public method of the layer modules, the dataclass validators
(``__post_init__``, reported as ``<Class>.validate``) and the numpy.linalg
eigensolvers when the package calls them.  Each call records a span: name,
start, end, the enclosing span and the operation it belongs to.  Spans are
kept in flat arrays while the run lasts and written out when it ends.

A span's self time is its duration minus the part of it covered by its
direct children; a layer's self time is the sum over the spans it owns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from array import array
from pathlib import Path

import numpy as np

PACKAGE = "tpc"
LAYERS = ("funcspec", "blackbox", "qmat", "discrim", "attacks", "cli")
KERNELS = ("eigh", "eigvalsh")

# Functions whose calls and self time are reported per operation.
CALLS_AND_SELF = (
    "funcspec.parse_function_file",
    "blackbox.output_family",
    "qmat.DensityState.validate",
    "qmat.inv_sqrt_on_support",
    "discrim.Povm.validate",
    "discrim.optimize_povm",
    "discrim.povm_success",
    "discrim.helstrom",
    "discrim.square_root_measurement",
    "discrim.certify_optimal",
    "discrim.honest_probability",
)
SELF_ONLY = (
    "funcspec.enumerate_valid_3x3",
    "funcspec.canonicalize_3x3",
    "attacks.sweep_all_3x3",
    "attacks.attack_deterministic_3x3",
    "attacks.attack_nondet_two_sided",
    "attacks.attack_nondet_one_sided",
    "attacks.attack_oblivious_transfer",
    "attacks.verify_counterexample",
    "cli.main",
    "cli.render_report_document",
)
CALLS_ONLY = ("funcspec.FunctionSpec.prob", "kernel.eigh", "kernel.eigvalsh")
VALIDATORS = ("qmat.DensityState.validate", "discrim.Povm.validate")


def per_layer_metrics() -> list[tuple[str, str]]:
    """Name and unit of every metric :func:`layer_metrics` reports."""
    out = [(f"{layer}.self_ms_per_op", "ms/op") for layer in LAYERS + ("kernel",)]
    for name in CALLS_AND_SELF:
        out += [(f"{name}.calls_per_op", "calls/op"), (f"{name}.self_ms_per_op", "ms/op")]
    out += [(f"{name}.self_ms_per_op", "ms/op") for name in SELF_ONLY]
    out += [(f"{name}.calls_per_op", "calls/op") for name in CALLS_ONLY]
    out += [
        ("kernel.eig_d3_per_op", "count/op"),
        ("discrim.optimize_povm.sweeps_per_call", "sweeps/call"),
        ("discrim.optimize_povm.certify_per_call", "calls/call"),
        ("qmat.validation_share", "ratio"),
        ("trace_overhead_frac", "ratio"),
    ]
    return out


class Tracer:
    """Install with ``with Tracer() as t:``; everything is restored on exit.

    Set :attr:`op` to the index of the operation about to run, so that its
    spans carry it.
    """

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op_of = array("q")
        self.start = array("q")
        self.end = array("q")
        self.eig_d3 = 0          # sum of d^3 over matrices handed to the eigensolvers
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- wrapping -------------------------------------------------------

    def _span(self, label: str, fn):
        idx = self._index.setdefault(label, len(self.names))
        if idx == len(self.names):
            self.names.append(label)
        stack, name, parent, op_of, start, end = (
            self._stack, self.name, self.parent, self.op_of, self.start, self.end
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name)
            name.append(idx)
            parent.append(stack[-1] if stack else -1)
            op_of.append(self.op)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def _kernel(self, label: str, fn):
        traced = self._span(label, fn)
        prefix = PACKAGE + "."

        @functools.wraps(fn)
        def kernel(a, *args, **kwargs):
            if not sys._getframe(1).f_globals.get("__name__", "").startswith(prefix):
                return fn(a, *args, **kwargs)
            shape = getattr(a, "shape", ())
            if len(shape) >= 2:
                self.eig_d3 += math.prod(shape[:-2]) * shape[-1] ** 3
            return traced(a, *args, **kwargs)

        return kernel

    def _set(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._span(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not inspect.isfunction(fn):
                            continue
                        if meth == "__post_init__":
                            label = f"{layer}.{attr}.validate"
                        elif meth.startswith("_"):
                            continue
                        else:
                            label = f"{layer}.{attr}.{meth}"
                        self._set(obj, meth, self._span(label, fn))
        # Rebind every module-level name that refers to a wrapped function,
        # including names brought in with ``from .x import f``.
        for modname, mod in list(sys.modules.items()):
            if modname == PACKAGE or modname.startswith(PACKAGE + "."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._set(mod, attr, wrappers[obj])
        linalg = importlib.import_module("numpy.linalg")
        for kname in KERNELS:
            self._set(linalg, kname, self._kernel(f"kernel.{kname}", getattr(linalg, kname)))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            target, attr, old = self._patches.pop()
            setattr(target, attr, old)

    # --- output ---------------------------------------------------------

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Name index, parent, start and end of every span, as numpy views."""
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
        )

    def write(self, path: Path) -> None:
        """Write every span to a compressed ``.npz``; span ``i`` is row ``i``
        and ``parent`` is -1 for a span with no traced caller."""
        name, parent, start, end = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, parent=parent,
            op=np.frombuffer(self.op_of, dtype=np.int64), start_ns=start, end_ns=end,
        )


def self_times(parent, start, end) -> array:
    """Each span's duration minus the union of its direct children's
    intervals, clipped to the span.

    Spans must come in order of start time, as the tracer records them, so
    each parent meets its children in start order and one pass suffices.
    """
    n = len(parent)
    own = array("q", (end[sid] - start[sid] for sid in range(n)))
    reach = array("q", start)  # end of the children's union seen so far
    for sid in range(n):
        p = parent[sid]
        if p < 0:
            continue
        c0, c1 = max(start[sid], reach[p]), min(end[sid], end[p])
        if c1 > c0:
            own[p] -= c1 - c0
            reach[p] = c1
    return own


def layer_metrics(tracer: Tracer, ops: int, traced_ns: int, overhead: float) -> dict[str, float]:
    """Per-operation metrics over ``ops`` traced operations that took
    ``traced_ns`` of wall time; ``overhead`` is traced over untraced wall
    time minus one."""
    name, parent, start, end = tracer.arrays()
    own = np.frombuffer(self_times(tracer.parent, tracer.start, tracer.end), dtype=np.int64)
    index = {label: i for i, label in enumerate(tracer.names)}
    calls = np.bincount(name, minlength=len(index))
    self_ns = np.bincount(name, weights=own, minlength=len(index))

    def is_(label: str) -> np.ndarray:
        return name == index.get(label, -1)

    def per_op(label: str, counts: np.ndarray) -> float:
        return float(counts[index[label]]) / ops if label in index else 0.0

    values: dict[str, float] = {}
    for layer in LAYERS + ("kernel",):
        mine = [i for label, i in index.items() if label.startswith(layer + ".")]
        values[f"{layer}.self_ms_per_op"] = float(self_ns[mine].sum()) / 1e6 / ops
    for label in CALLS_AND_SELF + SELF_ONLY + CALLS_ONLY:
        values[f"{label}.calls_per_op"] = per_op(label, calls)
        values[f"{label}.self_ms_per_op"] = per_op(label, self_ns) / 1e6
    under_optimize = np.zeros(len(name), dtype=bool)
    has_parent = parent >= 0
    under_optimize[has_parent] = name[parent[has_parent]] == index.get("discrim.optimize_povm", -1)
    optimize_calls = int(np.count_nonzero(is_("discrim.optimize_povm")))
    for metric, child in (("sweeps", "qmat.inv_sqrt_on_support"), ("certify", "discrim.certify_optimal")):
        hits = int(np.count_nonzero(under_optimize & is_(child)))
        values[f"discrim.optimize_povm.{metric}_per_call"] = hits / optimize_calls if optimize_calls else 0.0
    validating = np.zeros(len(name), dtype=bool)
    for label in VALIDATORS:
        validating |= is_(label)
    values["kernel.eig_d3_per_op"] = tracer.eig_d3 / ops
    values["qmat.validation_share"] = float((end - start)[validating].sum()) / traced_ns
    values["trace_overhead_frac"] = overhead
    return {metric: values[metric] for metric, _ in per_layer_metrics()}
