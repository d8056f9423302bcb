"""Per-layer spans and work counters for eps_planner, recorded from outside.

The package binds names with ``from .x import f``, so one function is
reachable through every module that imported it; wrapping
``eps_planner.losses.aggregate`` alone would miss the calls that
``trainer`` and ``sensitivity`` make. ``Tracer.install`` therefore
replaces every binding of a traced function in every loaded
``eps_planner`` module by one timing wrapper, and ``uninstall`` puts the
originals back. Callers outside the package must call through the module
attribute (``chooser.plan``) for their calls to be seen.

Traced functions are the public functions of each layer module, plus
``model.validate_dataset`` (counted in the ``data`` layer) and scipy's
``cho_factor`` (the ``linalg`` layer, counted per calling module). Every
traced call opens a span; a span's self time is its duration minus that
of the spans opened inside it.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import scipy.linalg

# module -> layer; each public function defined in the module is traced
LAYER_MODULES = {
    "eps_planner.data": "data",
    "eps_planner.losses": "losses",
    "eps_planner.perturbation": "perturbation",
    "eps_planner.trainer": "trainer",
    "eps_planner.sensitivity": "sensitivity",
    "eps_planner.chooser": "chooser",
    "eps_planner.experiments": "experiments",
    "eps_planner.cli": "cli",
}
# functions defined outside the layer modules, with the layer they count in
EXTRA_FUNCTIONS = {("eps_planner.model", "validate_dataset"): "data"}
LAYERS = tuple(LAYER_MODULES.values()) + ("linalg",)


@dataclass
class _Span:
    key: str
    child_s: float = 0.0
    aggregate_calls: int = 0


@dataclass
class FunctionStats:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class Trace:
    """What one traced stretch of work did: per-function time and counters."""

    functions: dict = field(default_factory=lambda: defaultdict(FunctionStats))
    # deterministic work counters, keyed by metric name
    counts: dict = field(default_factory=lambda: defaultdict(int))
    # computed (not measured) work of losses.aggregate
    aggregate_flop: float = 0.0
    aggregate_bytes: float = 0.0
    # data.load_dataset by format: [rows, inclusive seconds, self seconds]
    loads: dict = field(default_factory=lambda: defaultdict(lambda: [0, 0.0, 0.0]))

    def stats(self, key: str) -> FunctionStats:
        return self.functions.get(key, FunctionStats())

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for k, s in self.functions.items() if k.split(".")[0] == layer)

    def work_counts(self) -> dict:
        """The deterministic counters: equal for equal work."""
        counts = {}
        for key in ("losses.aggregate", "trainer.train", "trainer.utility",
                    "perturbation.materialize", "sensitivity.assemble_w",
                    "sensitivity.dtheta_deps", "sensitivity.utility_slope", "chooser.plan"):
            counts[f"{key}.calls"] = self.stats(key).calls
        for key in ("trainer.newton_steps", "trainer.backtracks", "trainer.sgd_steps",
                    "linalg.cho_factor.calls.trainer", "linalg.cho_factor.calls.sensitivity",
                    "experiments.trainings"):
            counts[key] = self.counts.get(key, 0)
        counts["losses.aggregate.gflop_computed"] = self.aggregate_flop / 1e9
        counts["losses.aggregate.gb_computed"] = self.aggregate_bytes / 1e9
        return counts

    def self_times(self) -> dict:
        """Self times in seconds, and the rates derived from them."""
        t = {}
        for key in ("losses.aggregate", "trainer.train", "trainer.utility",
                    "perturbation.materialize", "linalg.cho_factor", "sensitivity.assemble_w",
                    "sensitivity.dtheta_deps", "sensitivity.utility_slope", "chooser.plan",
                    "data.validate_dataset", "cli.run_cli"):
            t[f"{key}.self_s"] = self.stats(key).self_s
        agg = self.stats("losses.aggregate")
        t["losses.aggregate.ms_per_call"] = 1e3 * agg.self_s / agg.calls if agg.calls else 0.0
        for fmt in ("csv", "sparse_text"):
            rows, total_s, self_s = self.loads.get(fmt, (0, 0.0, 0.0))
            t[f"data.load_dataset.self_s.{fmt}"] = self_s
            t[f"data.load_dataset.rows_per_s.{fmt}"] = rows / total_s if total_s else 0.0
        for layer in LAYERS:
            t[f"{layer}.self_s"] = self.layer_self_s(layer)
        t["trace.layers_self_s"] = sum(self.layer_self_s(layer) for layer in LAYERS)
        return t


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("gflop_computed"):
        return "GFLOP"
    if name.endswith("gb_computed"):
        return "GB"
    if name.endswith("ms_per_call"):
        return "ms"
    if ".rows_per_s." in name:
        return "rows/s"
    if name.endswith("_s") or ".self_s." in name:
        return "s"
    if name == "trace.overhead_frac":
        return "ratio"
    return "count"


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def aggregate_work(n: int, p: int) -> tuple[float, float]:
    """Flops and bytes of one aggregate call, computed from array sizes.

    Flops: margins X @ theta (2np), gradient X^T v (2np), scaling X by
    the curvatures (np) and the Hessian product (2np^2). Bytes: six
    passes over an n x p float64 array (margins, gradient, scaled copy
    read and write, both Hessian operands) and three over p x p. Cache
    reuse is ignored, so these are computed, not measured, bytes.
    """
    return 2.0 * n * p * p + 5.0 * n * p, 8.0 * (6.0 * n * p + 3.0 * p * p)


class Tracer:
    """Installs timing wrappers into the loaded eps_planner modules.

    Use as a context manager; every span recorded while installed goes
    into ``self.trace``. Not thread-safe: one benchmark client only.
    """

    def __init__(self):
        self.trace = Trace()
        self._stack: list[_Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict = {}

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- installation --------------------------------------------------
    def _targets(self) -> dict:
        """id(original function) -> (original, key)."""
        targets = {}
        for modname, layer in LAYER_MODULES.items():
            mod = sys.modules[modname]
            for name, value in vars(mod).items():
                if (
                    callable(value)
                    and getattr(value, "__module__", None) == modname
                    and not name.startswith("_")
                    and not isinstance(value, type)
                ):
                    targets[id(value)] = (value, f"{layer}.{name}")
        for (modname, name), layer in EXTRA_FUNCTIONS.items():
            value = getattr(sys.modules[modname], name)
            targets[id(value)] = (value, f"{layer}.{name}")
        return targets

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        self._originals = {i: fn for i, (fn, _) in targets.items()}
        wrappers = {}
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is scipy.linalg.cho_factor:
                    site = mod.__name__.rsplit(".", 1)[-1]
                    self._patch(mod, name, self._wrap(value, "linalg.cho_factor", site))
                elif id(value) in targets and targets[id(value)][0] is value:
                    fn, key = targets[id(value)]
                    if id(fn) not in wrappers:
                        wrappers[id(fn)] = self._wrap(fn, key)
                    self._patch(mod, name, wrappers[id(fn)])

    def missed_bindings(self) -> list[str]:
        """Bindings in the loaded eps_planner modules that still reach a
        traced function unwrapped; empty while installed."""
        return [
            f"{mod.__name__}.{name}"
            for mod in _package_modules()
            for name, value in vars(mod).items()
            if value is scipy.linalg.cho_factor or self._originals.get(id(value)) is value
        ]

    def _patch(self, mod, name, wrapper) -> None:
        self._patched.append((mod, name, getattr(mod, name)))
        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            mod, name, original = self._patched.pop()
            setattr(mod, name, original)

    # -- recording ------------------------------------------------------
    def _wrap(self, fn, key, site=None):
        stack = self._stack
        trace = self.trace
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = _Span(key)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stats = trace.functions[key]
                stats.calls += 1
                stats.self_s += elapsed - span.child_s
                if stack:
                    stack[-1].child_s += elapsed
            self._count(key, site, span, elapsed, args, kwargs, result)
            return result

        return wrapper

    def _enclosing(self, key: str):
        for span in reversed(self._stack):
            if span.key == key:
                return span
        return None

    def _count(self, key, site, span, elapsed, args, kwargs, result) -> None:
        counts = self.trace.counts
        if key == "linalg.cho_factor":
            counts[f"linalg.cho_factor.calls.{site}"] += 1
        elif key == "losses.aggregate":
            d = _arg(args, kwargs, 2, "d")
            flop, nbytes = aggregate_work(d.n, d.p)
            self.trace.aggregate_flop += flop
            self.trace.aggregate_bytes += nbytes
            train_span = self._enclosing("trainer.train")
            if train_span is not None:
                train_span.aggregate_calls += 1
        elif key == "trainer.train":
            if result.solver_mode == "exact":
                counts["trainer.newton_steps"] += result.iterations_used
                # one aggregate per accepted or rejected candidate, plus the
                # start point and the final gradient check
                counts["trainer.backtracks"] += (
                    span.aggregate_calls - result.iterations_used - 2
                )
            else:
                counts["trainer.sgd_steps"] += result.iterations_used
            if any(s.key.startswith("experiments.") for s in self._stack):
                counts["experiments.trainings"] += 1
        elif key == "data.load_dataset":
            fmt = _arg(args, kwargs, 1, "format", "csv")
            entry = self.trace.loads[fmt]
            entry[0] += result.n
            entry[1] += elapsed
            entry[2] += elapsed - span.child_s


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "eps_planner" or name.startswith("eps_planner."))
    ]

