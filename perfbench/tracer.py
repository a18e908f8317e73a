"""Per-layer tracing: timing wrappers installed on dynsamp from outside.

Every traced function is replaced, in every module that holds a binding to
it, by a wrapper that records a span (op id, parent span, name, start, end).
Self time is a span's duration minus the durations of the wrapped calls it
made.  Spans stay in memory and are written once, when the run ends.

Layers are the package modules plus ``linalg``: the numpy.linalg svd /
lstsq / pinv calls the modules make (numpy's own internal calls bypass the
``numpy.linalg`` attribute and are not counted).
"""

import functools
import gzip
import sys
import time
import tracemalloc
from array import array

LAYERS = {
    "spectral": ("dft", "idft", "subsample", "shift"),
    "filters": ("evolve", "Filter.at"),
    "systems": ("plain_family", "smin_family", "build_plain", "build_plain_at",
                "build_extended", "build_extended_at", "u_row"),
    "recon": ("forward", "SampleSet", "reconstruct_plain", "reconstruct_extended"),
    "stability": ("empirical_pinv_norm", "bound_beta1", "bound_beta2", "bound_beta3",
                  "lower_bound_stablow", "noise_trial", "stability_report"),
    "sis": ("build_sis_system", "periodize_phi", "choose_n", "sis_reconstruct",
            "sis_forward"),
    "cli": ("run",),
    "linalg": ("svd", "lstsq", "pinv"),
}
# sis_forward is reported per generator route: the dense B-spline synthesis
# and the band-limited frequency route scale differently.
SIS_FORWARD_KINDS = ("bspline", "sinc")


def span_names():
    names = []
    for layer, funcs in LAYERS.items():
        for fn in funcs:
            if (layer, fn) == ("sis", "sis_forward"):
                names.extend(f"sis.sis_forward.{k}" for k in SIS_FORWARD_KINDS)
            else:
                names.append(f"{layer}.{fn}")
    return names


def metric_units():
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for span in span_names():
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_ms"] = "ms"
    return dict(units, **{"recon.packets": "count", "stability.grid_points": "count",
                          "sis.sis_forward.peak_mb": "MB", "trace.overhead_pct": "%"})


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _packets_plain(args, kwargs):
    return _arg(args, kwargs, 0, "samples").L // _arg(args, kwargs, 2, "m")


def _packets_extended(args, kwargs):
    m, n = _arg(args, kwargs, 2, "m"), _arg(args, kwargs, 3, "n")
    return _arg(args, kwargs, 0, "samples").L // (m * n)


class Tracer:
    """Collects spans and per-name totals while installed."""

    def __init__(self):
        # One row per span, stored column-wise to keep memory small.
        self.span_op = array("l")
        self.span_parent = array("l")          # -1 for a top-level span
        self.span_name = array("H")            # index into self.names
        self.span_start = array("d")
        self.span_end = array("d")
        self.names = span_names()
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.calls = {}
        self.self_s = {}
        self.counts = {"recon.packets": 0, "stability.grid_points": 0}
        self.peak_mb = 0.0
        self.op = 0
        self._stack = []           # [span index, time spent in wrapped children]
        self._undo = []
        self._band_cache = {}

    # -- installation -----------------------------------------------------

    def install(self):
        import numpy as np

        import dynsamp
        mods = {name: sys.modules[f"dynsamp.{name}"]
                for name in LAYERS if name != "linalg"}
        hooks = {
            "recon.reconstruct_plain": self._count("recon.packets", _packets_plain),
            "recon.reconstruct_extended": self._count("recon.packets", _packets_extended),
            "stability.empirical_pinv_norm": self._count(
                "stability.grid_points", lambda a, k: _arg(a, k, 4, "grid")),
            "stability.bound_beta1": self._count("stability.grid_points", self._band_points),
            "stability.bound_beta2": self._count("stability.grid_points", self._band_points),
        }
        for layer, funcs in LAYERS.items():
            for fn in funcs:
                name = f"{layer}.{fn}"
                if layer == "linalg":
                    self._patch(np.linalg, fn, self._wrap(name, getattr(np.linalg, fn)))
                elif fn == "SampleSet":
                    cls = mods[layer].SampleSet
                    self._patch(cls, "__init__", self._wrap(name, cls.__init__))
                elif "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(mods[layer], cls_name)
                    self._patch(cls, meth, self._wrap(name, getattr(cls, meth)))
                else:
                    orig = getattr(mods[layer], fn)
                    if name == "sis.sis_forward":
                        wrapper = self._wrap_sis_forward(orig)
                    else:
                        wrapper = self._wrap(name, orig, hooks.get(name))
                    self._patch_bindings(orig, wrapper, dynsamp)

    def uninstall(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def _patch(self, obj, attr, wrapper):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, wrapper)

    def _patch_bindings(self, orig, wrapper, package):
        # Modules import names directly (recon: evolve; stability: forward,
        # reconstruct_extended; cli: forward, ...), so every binding that
        # callers look up must be replaced, not only the defining one.
        prefix = package.__name__ + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package.__name__ or mod_name.startswith(prefix)):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patch(mod, attr, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, hook)
        return wrapper

    def _wrap_sis_forward(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            kind = _arg(args, kwargs, 1, "gen").kind
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            tracemalloc.reset_peak()
            try:
                return self._call(f"sis.sis_forward.{kind}", fn, args, kwargs, None)
            finally:
                self.peak_mb = max(self.peak_mb, tracemalloc.get_traced_memory()[1] / 2**20)
                if started:
                    tracemalloc.stop()
        return wrapper

    def _call(self, name, fn, args, kwargs, hook):
        stack = self._stack
        index = len(self.span_op)
        self.span_op.append(self.op)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_name.append(self._name_id[name])
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [index, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][1] += dur
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]
            self.span_start[index] = t0
            self.span_end[index] = t1
            if hook is not None:
                hook(args, kwargs)

    def _count(self, key, amount):
        def hook(args, kwargs):
            self.counts[key] += amount(args, kwargs)
        return hook

    def _band_points(self, args, kwargs):
        # bound_beta1/2 scan the guard band of guard_band_points(n, grid).
        from dynsamp import stability
        m, n = _arg(args, kwargs, 1, "m"), _arg(args, kwargs, 2, "n")
        grid = _arg(args, kwargs, 3, "grid") or max(720, 16 * m * n)
        if (n, grid) not in self._band_cache:
            self._band_cache[(n, grid)] = len(stability.guard_band_points(n, grid))
        return self._band_cache[(n, grid)]

    # -- results ----------------------------------------------------------

    def metrics(self, ops, overhead_pct):
        """Per-op calls and self time for every span name, plus the counters."""
        out = {}
        for span in self.names:
            out[f"{span}.calls"] = self.calls.get(span, 0) / ops
            out[f"{span}.self_ms"] = self.self_s.get(span, 0.0) * 1e3 / ops
        for key, count in self.counts.items():
            out[key] = count / ops
        out["sis.sis_forward.peak_mb"] = self.peak_mb
        out["trace.overhead_pct"] = overhead_pct
        return out

    def write_spans(self, path):
        """Gzipped TSV, times in microseconds from the first span's start."""
        base = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tspan\tparent\tname\tstart_us\tend_us\n")
            for i, row in enumerate(zip(self.span_op, self.span_parent, self.span_name,
                                        self.span_start, self.span_end)):
                op, parent, name, t0, t1 = row
                fh.write(f"{op}\t{i}\t{parent}\t{self.names[name]}\t"
                         f"{(t0 - base) * 1e6:.1f}\t{(t1 - base) * 1e6:.1f}\n")
