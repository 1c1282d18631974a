"""Spans and counters recorded around nclaplace's public functions.

The package itself is not changed: ``instrument`` replaces each traced
function in every ``nclaplace`` module namespace that binds it, so calls from
other modules and calls inside the defining module both pass through the
wrapper; ``Tracer.restore`` puts the originals back.  Spans stay in memory
(name, start, end, parent span, operation id) until the run writes them out.
"""

from __future__ import annotations

import collections
import functools
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

#: apply_laplacian call sites, named by the role the call plays in a solve
APPLY_ROLES = {
    "block_decompose": "block_probes",
    "_full_residual": "residual_check",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, collections.Counter] = {}
        self.op = -1
        self._stack: list[int] = []
        self._current = collections.Counter()
        self._patched: list[tuple] = []

    def begin_op(self, op: int) -> None:
        self.op = op
        self._current = self.counts.setdefault(op, collections.Counter())

    def add(self, name: str, value=1) -> None:
        self._current[name] += value

    def peak(self, name: str, value: float) -> None:
        self._current[name] = max(self._current.get(name, 0.0), value)

    def _enter(self, name: str) -> Span:
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def spanned(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._current[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def apply_spanned(self, fn):
        """apply_laplacian, with the span named after its calling function."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            role = APPLY_ROLES.get(sys._getframe(1).f_code.co_name, "other")
            span = self._enter(f"nc_laplacian.apply_laplacian.{role}")
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span)

        return wrapper

    def patch(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nclaplace" or mod_name.startswith("nclaplace.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _dense_bytes(tracer, matrix):
    # computed, not measured: one complex128 N x N array per quantized function
    tracer.add("quantization.dense_bytes", 16 * matrix.shape[0] ** 2)


def _dump_bytes(tracer, paths):
    tracer.add("quantization.dump_coordinate_matrices.bytes", sum(Path(p).stat().st_size for p in paths))


def _blocks(tracer, blocks):
    tracer.add("nc_laplacian.block_decompose.blocks", len(blocks))
    tracer.add("nc_laplacian.eig_work", sum(b.dim**3 for b in blocks))


def _superoperator(tracer, sup):
    tracer.add("nc_laplacian.eig_work", sup.shape[0] ** 3)


def _report(tracer, report):
    worst = max(report.residuals, default=0.0) / report.solver_tolerance
    tracer.peak("nc_laplacian.residual_margin", worst)


#: (module, function, span name, hook on the return value)
#
# The end-to-end metric each layer is expected to move:
# - surface: op_s on classical, nothing on revolution;
# - quantization: coordinate_matrices, quantize and dense_bytes move setup_s
#   and peak_rss_mb on revolution; axiom_defects and dump_coordinate_matrices
#   move op_s on classical;
# - nc_laplacian: build_gamma, gamma_inverse, block_decompose and spectrum's
#   self time (the eigensolve) move op_s and peak_rss_mb on revolution;
#   assemble_dense_superoperator moves op_s on triaxial_dense;
#   apply_laplacian, split by caller (block probes, residual check), moves
#   op_s on revolution and triaxial_dense;
# - reference_oracle (the CLI's own oracle, inside the operation): op_s on
#   revolution;
# - cli (argument handling, the trace command's quadrature, report writing):
#   op_s on classical.
# Sizes named *_computed are derived from shapes (16 bytes per complex128
# entry, dim^3 per eigensolve), not measured.
SPANS = (
    ("surface", "surface_area", "surface.surface_area", None),
    ("quantization", "coordinate_matrices", "quantization.coordinate_matrices", None),
    ("quantization", "quantize", "quantization.quantize", _dense_bytes),
    ("quantization", "axiom_defects", "quantization.axiom_defects", None),
    ("quantization", "dump_coordinate_matrices", "quantization.dump_coordinate_matrices", _dump_bytes),
    ("nc_laplacian", "build_operator_set", "nc_laplacian.build_operator_set", None),
    ("nc_laplacian", "build_gamma", "nc_laplacian.build_gamma", None),
    ("nc_laplacian", "gamma_inverse", "nc_laplacian.gamma_inverse", None),
    ("nc_laplacian", "block_decompose", "nc_laplacian.block_decompose", _blocks),
    ("nc_laplacian", "assemble_dense_superoperator", "nc_laplacian.assemble_dense_superoperator", _superoperator),
    ("nc_laplacian", "spectrum", "nc_laplacian.spectrum", _report),
    ("reference_oracle", "revolution_spectrum", "reference_oracle.revolution_spectrum", None),
    ("cli", "main", "cli.main", None),
)

#: scalar hot paths: a call count only, a span per call would cost more than the call
COUNTS = (("surface", "metric_sqrt_det", "surface.metric_sqrt_det.calls"),)


def instrument(tracer: Tracer) -> Tracer:
    import importlib

    mod = lambda name: importlib.import_module(f"nclaplace.{name}")
    for module, fname, span_name, hook in SPANS:
        original = getattr(mod(module), fname)
        tracer.patch(original, tracer.spanned(span_name, original, hook))
    for module, fname, count_name in COUNTS:
        original = getattr(mod(module), fname)
        tracer.patch(original, tracer.counted(count_name, original))
    original = mod("nc_laplacian").apply_laplacian
    tracer.patch(original, tracer.apply_spanned(original))
    return tracer


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out
