"""Span tracer for the benchmark's traced pass.

For the length of one run, :class:`Tracer` wraps

* every public function that a ``maxreg_lab`` module binds, both in the
  module that defines it and wherever another module imported it by name
  (``problems`` binds ``solve_linear_duhamel``, ``bochner_mixed_norm``
  and ``run_picard`` itself, so those names are wrapped there too);
* the public methods of ``SpectralField``, on the class;
* the ``numpy.fft`` and ``scipy.fft`` transform entry points, and any
  module attribute of the package bound to one of them.

Each wrapped call is a span. Calls, total time and self time (total time
minus the time of the spans it called) are aggregated per span name in
memory. A transform is counted once, at the outermost entry point, even
if that entry point calls another one. Nothing inside ``src/`` is
changed on disk; :meth:`Tracer.uninstall` puts every attribute back.

The tracer assumes one thread: the benchmark's workloads run with
``threads`` 1, and a span entered from another thread raises.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from pathlib import Path
from types import ModuleType
from typing import Any, Callable

# Transform entry points. A 1-D transform runs along one axis (the time
# axis of a trajectory in this package); an n-D one over the spatial axes.
FFT_TIME = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")
FFT_SPACE = (
    "fft2", "ifft2", "fftn", "ifftn", "rfft2", "irfft2", "rfftn", "irfftn",
    "hfft2", "ihfft2", "hfftn", "ihfftn",
)

# Spans through which the CLI and the harness hand work to the layers;
# the spans they call directly are the run's top-level spans.
ENTRY_SPANS = ("cli.main", "harness.run_experiment")

NORM_SPANS = ("norms.bochner_mixed_norm",)
MAP_SPANS = ("problems.ns_rhs_map", "problems.nlhe_rhs_map")

# fft.<kind>.<field> metrics; "bytes" (input plus output) is computed.
_FFT_FIELDS = {"space": ("calls", "s", "points", "bytes"), "time": ("calls", "s", "points")}

# <span>.<field> metrics: calls, total time "s" or self time "self_s".
_SPAN_METRICS = [
    ("spectral.to_physical", ("calls", "self_s")),
    ("spectral.from_physical", ("calls", "self_s")),
    ("spectral.heat_semigroup_apply", ("calls", "self_s")),
    ("norms.bochner_mixed_norm", ("calls", "self_s")),
    ("norms.spatial_lq_norm", ("calls", "self_s")),
    ("norms.heat_extension", ("calls", "s")),
    ("norms.besov_heat_norm", ("calls", "s")),
    ("maxreg.solve_linear_duhamel", ("calls", "self_s")),
    ("maxreg.de_simon_multiplier_solve", ("calls", "self_s")),
    ("picard.run_picard", ("calls", "s", "self_s")),
    ("picard.estimate_lipschitz_M", ("s",)),
    ("problems.ns_rhs_map", ("calls", "self_s")),
    ("problems.max_node_divergence", ("calls", "s")),
    ("problems.measured_lipschitz_M", ("s",)),
    ("problems.two_route_solutions", ("s",)),
    ("problems.uniqueness_bootstrap", ("s", "self_s")),
    ("harness.load_config", ("s",)),
    ("harness.synthetic_forcing_ensemble", ("s",)),
    ("harness.write_results", ("s",)),
    ("cli.main", ("self_s",)),
]

# Metrics read from results or derived from counts.
_OTHER_METRICS = {
    "picard.iterations": "count",
    "picard.converged_ratio": "ratio",
    "picard.norm_evals_per_iteration": "ratio",
    "picard.map_evals_per_iteration": "ratio",
    "problems.bootstrap.segments": "count",
    "harness.write_results.bytes": "B",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}

_UNITS = {"calls": "count", "s": "s", "self_s": "s", "points": "count", "bytes": "B"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced pass reports, with its unit."""
    units = {f"fft.{kind}.{f}": _UNITS[f] for kind, fields in _FFT_FIELDS.items() for f in fields}
    units.update({f"{span}.{f}": _UNITS[f] for span, fields in _SPAN_METRICS for f in fields})
    units.update(_OTHER_METRICS)
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Aggregated spans over the package's public functions and the FFTs."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # span -> [calls, total_s, self_s]
        self.fft = {kind: [0, 0.0, 0, 0] for kind in _FFT_FIELDS}  # calls, s, points, bytes
        self.counters = {
            "picard.runs": 0,
            "picard.converged": 0,
            "picard.iterations": 0,
            "picard.norm_evals": 0,
            "picard.map_evals": 0,
            "problems.bootstrap.segments": 0,
            "harness.write_results.bytes": 0,
        }
        self.top_level_s = 0.0
        self._stack: list[list] = []  # open spans: [name, child_s]
        self._fft_depth = 0
        self._patches: list[tuple[Any, str, Any]] = []
        self._thread: int | None = None
        self._hooks = {  # span -> (called on entry, called with the result and entry value)
            "picard.run_picard": (self._picard_enter, self._picard_leave),
            "problems.uniqueness_bootstrap": (None, self._bootstrap_leave),
            "harness.write_results": (None, self._write_leave),
        }

    # -- spans ---------------------------------------------------------

    def _check_thread(self) -> None:
        if threading.get_ident() != self._thread:
            raise RuntimeError("the tracer supports single-threaded runs only")

    def _close(self, name: str, dt: float, child_s: float) -> None:
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stats[0] += 1
        stats[1] += dt
        stats[2] += dt - child_s
        if self._stack:
            parent = self._stack[-1]
            parent[1] += dt
            if parent[0] in ENTRY_SPANS and name not in ENTRY_SPANS:
                self.top_level_s += dt

    def _span(self, name: str, fn: Callable) -> Callable:
        enter, leave = self._hooks.get(name, (None, None))

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._check_thread()
            token = enter() if enter else None
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self._close(name, dt, frame[1])
            if leave:
                leave(result, token)
            return result

        return span

    def _transform(self, name: str, kind: str, fn: Callable) -> Callable:
        acc = self.fft[kind]

        @functools.wraps(fn)
        def transform(a, *args, **kwargs):
            if self._fft_depth:
                return fn(a, *args, **kwargs)
            self._check_thread()
            self._fft_depth += 1
            t0 = time.perf_counter()
            try:
                out = fn(a, *args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._fft_depth -= 1
            self._close(name, dt, 0.0)
            acc[0] += 1
            acc[1] += dt
            acc[2] += int(getattr(a, "size", 0))
            acc[3] += int(getattr(a, "nbytes", 0)) + int(out.nbytes)
            return out

        return transform

    # -- hooks that read results -----------------------------------------

    def _calls(self, names: tuple[str, ...]) -> int:
        return sum(self.stats.get(n, (0,))[0] for n in names)

    def _picard_enter(self) -> tuple[int, int]:
        return self._calls(NORM_SPANS), self._calls(MAP_SPANS)

    def _picard_leave(self, result: Any, token: tuple[int, int]) -> None:
        _, cert = result
        c = self.counters
        c["picard.runs"] += 1
        c["picard.converged"] += int(bool(cert.converged))
        c["picard.iterations"] += int(cert.iterations)
        c["picard.norm_evals"] += self._calls(NORM_SPANS) - token[0]
        c["picard.map_evals"] += self._calls(MAP_SPANS) - token[1]

    def _bootstrap_leave(self, report: Any, _token: None) -> None:
        self.counters["problems.bootstrap.segments"] += len(report.segments)

    def _write_leave(self, paths: list, _token: None) -> None:
        self.counters["harness.write_results.bytes"] += sum(Path(p).stat().st_size for p in paths)

    # -- install / uninstall ---------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, package: ModuleType, modules: list[ModuleType]) -> None:
        """Wrap the package's public functions, SpectralField and the FFTs."""
        import numpy.fft
        import scipy.fft

        if self._patches:
            raise RuntimeError("tracer is already installed")
        self._thread = threading.get_ident()
        transforms: dict[int, Callable] = {}
        for lib, mod in (("numpy", numpy.fft), ("scipy", scipy.fft)):
            for kind, names in (("time", FFT_TIME), ("space", FFT_SPACE)):
                for name in names:
                    fn = getattr(mod, name, None)
                    if fn is None:
                        continue
                    wrapped = self._transform(f"fft.{lib}.{name}", kind, fn)
                    transforms[id(fn)] = wrapped
                    self._patch(mod, name, wrapped)
        spans: dict[int, Callable] = {}
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if id(obj) in transforms:
                    self._patch(mod, attr, transforms[id(obj)])
                elif inspect.isfunction(obj) and obj.__module__.startswith(package.__name__ + "."):
                    if id(obj) not in spans:
                        layer = obj.__module__.rsplit(".", 1)[-1]
                        spans[id(obj)] = self._span(f"{layer}.{obj.__name__}", obj)
                    self._patch(mod, attr, spans[id(obj)])
        cls = package.spectral.SpectralField
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"spectral.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                self._patch(cls, attr, type(obj)(self._span(name, obj.__func__)))
            elif inspect.isfunction(obj):
                self._patch(cls, attr, self._span(name, obj))

    def uninstall(self) -> None:
        """Put back every attribute :meth:`install` replaced."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def unrestored(self) -> list[str]:
        """Patched attributes that do not hold their original value."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if vars(owner).get(attr) is not original
        ]

    @property
    def patched(self) -> int:
        return len(self._patches)

    # -- results ---------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the run; ``wall_s`` is its traced wall time.

        ``trace.overhead_ratio`` needs an untraced run and is left to the
        caller.
        """
        out: dict[str, float] = {}
        for kind, fields in _FFT_FIELDS.items():
            for i, f in enumerate(fields):
                out[f"fft.{kind}.{f}"] = self.fft[kind][i]
        index = {"calls": 0, "s": 1, "self_s": 2}
        for span, fields in _SPAN_METRICS:
            stats = self.stats.get(span, [0, 0.0, 0.0])
            for f in fields:
                out[f"{span}.{f}"] = stats[index[f]]
        c = self.counters
        out["picard.iterations"] = c["picard.iterations"]
        out["picard.converged_ratio"] = _ratio(c["picard.converged"], c["picard.runs"])
        out["picard.norm_evals_per_iteration"] = _ratio(c["picard.norm_evals"], c["picard.iterations"])
        out["picard.map_evals_per_iteration"] = _ratio(c["picard.map_evals"], c["picard.iterations"])
        out["problems.bootstrap.segments"] = c["problems.bootstrap.segments"]
        out["harness.write_results.bytes"] = c["harness.write_results.bytes"]
        out["trace.coverage"] = _ratio(self.top_level_s, wall_s)
        return out

    def table(self) -> dict[str, dict[str, float]]:
        """Calls, total and self time of every span that ran."""
        return {
            name: {"calls": s[0], "s": s[1], "self_s": s[2]}
            for name, s in sorted(self.stats.items())
        }
