"""Per-layer spans for the traced benchmark run, recorded from outside ``src/``.

Each wchip function of interest is replaced, for the duration of the traced
phase, at the module attribute its caller looks it up through: ``maximize``
calls ``wchip.optimize.herald_objective``, ``propagate`` calls
``wchip.circuit.build_transform``, the CLI calls ``wchip.cli.run_tomography``
and so on.  One function wrapped at several lookup points feeds one metric.
A span's self time is its duration minus the spans of the traced calls it
made, kept on a stack of child-time accumulators.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (module the caller looks the name up in, attribute, "<layer>.<function>")
WRAP_POINTS = (
    ("wchip.optimize", "maximize", "optimize.maximize"),
    ("wchip.optimize", "sweep", "optimize.sweep"),
    ("wchip.optimize", "herald_objective", "optimize.herald_objective"),
    ("wchip.optimize", "minimize", "optimize.minimize"),
    ("wchip.optimize", "canonical_w_circuit", "circuit.canonical_w_circuit"),
    ("wchip.optimize", "build_transform", "circuit.build_transform"),
    ("wchip.optimize", "apply_mode_transform", "fock.apply_mode_transform"),
    ("wchip.optimize", "herald", "herald.herald"),
    ("wchip.circuit", "build_transform", "circuit.build_transform"),
    ("wchip.circuit", "coupler_transform", "elements.coupler_transform"),
    ("wchip.circuit", "adddrop_transform", "elements.adddrop_transform"),
    ("wchip.circuit", "apply_mode_transform", "fock.apply_mode_transform"),
    ("wchip.cli", "main", "cli.main"),
    ("wchip.cli", "maximize", "optimize.maximize"),
    ("wchip.cli", "sweep", "optimize.sweep"),
    ("wchip.cli", "canonical_w_circuit", "circuit.canonical_w_circuit"),
    ("wchip.cli", "propagate", "circuit.propagate"),
    ("wchip.cli", "herald", "herald.herald"),
    ("wchip.cli", "w_fidelity", "herald.w_fidelity"),
    ("wchip.cli", "coincidence_distribution", "herald.coincidence_distribution"),
    ("wchip.cli", "run_tomography", "tomography.run_tomography"),
    ("wchip.cli", "discriminate", "tomography.discriminate"),
    ("wchip.tomography", "reduce_to_channels", "fock.reduce_to_channels"),
    ("wchip.tomography", "trace_distance", "density.trace_distance"),
)

FUNCTIONS = tuple(dict.fromkeys(name for _, _, name in WRAP_POINTS))

# Functions each workload must call; every other traced function must show
# exactly zero calls there, so a moved call site fails the self-check.
WORKS_IN = {
    "design": {
        "optimize.maximize",
        "optimize.herald_objective",
        "optimize.minimize",
        "circuit.canonical_w_circuit",
        "circuit.build_transform",
        "elements.coupler_transform",
        "elements.adddrop_transform",
        "fock.apply_mode_transform",
        "herald.herald",
    },
    "robustness": {
        "optimize.sweep",
        "circuit.canonical_w_circuit",
        "circuit.build_transform",
        "elements.coupler_transform",
        "elements.adddrop_transform",
        "fock.apply_mode_transform",
    },
    "characterize": {
        "cli.main",
        "circuit.canonical_w_circuit",
        "circuit.propagate",
        "circuit.build_transform",
        "elements.coupler_transform",
        "elements.adddrop_transform",
        "fock.apply_mode_transform",
        "fock.reduce_to_channels",
        "herald.herald",
        "herald.w_fidelity",
        "herald.coincidence_distribution",
        "tomography.run_tomography",
        "tomography.discriminate",
        "density.trace_distance",
    },
}


def _count_terms(counters: dict, args: tuple, result) -> None:
    counters["terms_in"] += len(args[0])
    counters["terms_out"] += len(result)


def _count_kept(counters: dict, args: tuple, result) -> None:
    counters["scanned"] += len(args[0])
    if result.heralded_state is not None:
        counters["kept"] += len(result.heralded_state)


def _count_shots(counters: dict, args: tuple, result) -> None:
    counters["shots"] += result.shots or 0


_COUNTERS = {
    "fock.apply_mode_transform": (_count_terms, ("terms_in", "terms_out")),
    "herald.herald": (_count_kept, ("scanned", "kept")),
    "tomography.run_tomography": (_count_shots, ("shots",)),
}


class Tracer:
    """Installs the wrappers, accumulates per-function totals, restores."""

    def __init__(self):
        self.calls = dict.fromkeys(FUNCTIONS, 0)
        self.total_s = dict.fromkeys(FUNCTIONS, 0.0)
        self.self_s = dict.fromkeys(FUNCTIONS, 0.0)
        self.counters = {
            name: dict.fromkeys(keys, 0) for name, (_, keys) in _COUNTERS.items()
        }
        self._stack: list[float] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def remove(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        stack = self._stack
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        count, _ = _COUNTERS.get(name, (None, ()))
        counters = self.counters.get(name)

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                children = stack.pop()
                calls[name] += 1
                total_s[name] += span
                self_s[name] += span - children
                if stack:
                    stack[-1] += span
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def self_check(self, workload: str) -> list[str]:
        """Call-count violations of :data:`WORKS_IN` for one workload."""
        expected = WORKS_IN[workload]
        problems = []
        for name in FUNCTIONS:
            n = self.calls[name]
            if name in expected and n == 0:
                problems.append(f"{name} has 0 calls on {workload}, expected > 0")
            elif name not in expected and n != 0:
                problems.append(f"{name} has {n} calls on {workload}, expected 0")
        return problems

    def layer_metrics(self, items: int) -> dict[str, tuple[float, str]]:
        """Per-layer values per workload item, keyed by metric name."""
        out: dict[str, tuple[float, str]] = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = (self.calls[name] / items, "count")
            out[f"{name}.self_s"] = (self.self_s[name] / items, "s")
        amt = self.counters["fock.apply_mode_transform"]
        out["fock.apply_mode_transform.terms_in"] = (amt["terms_in"] / items, "count")
        out["fock.apply_mode_transform.terms_out"] = (amt["terms_out"] / items, "count")
        kept = self.counters["herald.herald"]
        frac = kept["kept"] / kept["scanned"] if kept["scanned"] else 0.0
        out["herald.herald.kept_frac"] = (frac, "ratio")
        shots = self.counters["tomography.run_tomography"]["shots"]
        out["tomography.run_tomography.shots"] = (shots / items, "count")
        out["optimize.minimize.total_s"] = (self.total_s["optimize.minimize"] / items, "s")
        return out
