"""Table-driven span tracer for hetmec's layers.

The tracer wraps the functions named in ``TRACED`` from outside the library:
every module of the ``hetmec`` package that binds one of those function
objects (``hetmec.coverage.ul_coverage`` as well as the copy imported into
``hetmec.latency``) gets the wrapper, and ``uninstall`` puts the originals
back.  A name the library no longer has is skipped, and a layer none of whose
names resolve is reported as absent, so the benchmark keeps running when a
module is deleted.

A span is recorded only where control crosses into a layer from another layer
(or from the benchmark), so a layer's internal calls to its own wrapped
functions add no spans.  Spans stay in memory as ``[name, start, end,
parent]`` lists; self time is a span's duration minus its children's.
"""
from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from collections import Counter

# The functions through which other layers (or the benchmark) enter each
# layer, as module.function; the module is the layer.  Helpers only a layer
# itself calls are left out: they could never open a span, only add cost.
TRACED = (
    "config.parse_config",
    "config.params_from_raw",
    "config.default_params",
    "config.raw_from_params",
    "association.association_report",
    "association.coupled_probs",
    "association.decoupled_probs",
    "association.mean_load",
    "association.serving_distance_pdf",
    "association.distance_pdf_slope",
    "quadrature.integrate_semi_infinite",
    "coverage.ul_coverage",
    "coverage.dl_coverage",
    "latency.average_breakdown",
    "latency.case_latency",
    "latency.scheme_cases",
    "sweeps.run_sweep",
    "sweeps.sweep_csv",
    "montecarlo.empirical_association",
    "montecarlo.empirical_coverage",
    "montecarlo.empirical_mean_load",
    "montecarlo._mean_loads_by_rule",
    "validate.run_validation",
    "cli.main",
)

LAYERS = (
    "config", "association", "quadrature", "coverage", "latency",
    "sweeps", "montecarlo", "validate", "cli",
)

PACKAGE = "hetmec"


def _coverage_fields(params) -> tuple:
    # Every scenario field a coverage value reads: both tiers' densities and
    # powers shape the serving-distance law, the user power and the noise set
    # the SINR, and the path-loss exponent fixes the interference factor.
    return (
        params.macro.density, params.macro.tx_power,
        params.small.density, params.small.tx_power,
        params.user_tx_power, params.noise_power, params.pathloss_exponent,
    )


def _coverage_key(name: str, bound: inspect.BoundArguments) -> tuple:
    parts = [name]
    for arg, value in bound.arguments.items():
        if arg == "params":
            value = _coverage_fields(value)
        elif arg == "policy" and name == "coverage.dl_coverage":
            continue  # the downlink rule is max-power under both policies
        parts.append((arg, value))
    return tuple(parts)


def _is_unbounded(result, exc) -> bool:
    if exc is not None:
        return type(exc).__name__ == "QueueUnstable"
    total = getattr(result, "total", result)
    return isinstance(total, float) and math.isinf(total)


# Entries whose arguments or results feed a count; every latency entry does too.
HOOKED = frozenset((
    "coverage.ul_coverage", "coverage.dl_coverage", "quadrature.integrate_semi_infinite",
    "sweeps.run_sweep", "sweeps.sweep_csv", "montecarlo.empirical_association",
    "montecarlo.empirical_mean_load", "montecarlo._mean_loads_by_rule",
    "montecarlo.empirical_coverage", "validate.run_validation",
))


class Tracer:
    """Wraps the ``TRACED`` functions and keeps spans and counts in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.stack: list[tuple[int, str]] = []  # (span index, layer) of open spans
        self.scope_keys: set = set()
        self.missing: list[str] = []
        self._wrappers: dict[int, tuple] = {}  # id(function) -> (function, wrapper)
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def resolve(self) -> None:
        """Look every table entry up and build its wrapper; record what is missing."""
        for entry in TRACED:
            module_name, func_name = entry.split(".", 1)
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.missing.append(entry)
                continue
            func = getattr(module, func_name, None)
            if not callable(func):
                self.missing.append(entry)
                continue
            self._wrappers[id(func)] = (func, self._wrap(entry, func))

    @property
    def absent_layers(self) -> list[str]:
        present = set(self.layer_of)
        return [layer for layer in LAYERS if layer not in present]

    def install(self) -> None:
        """Replace every binding of a resolved function in the package's modules."""
        if not self._wrappers:
            self.resolve()
        modules = [
            module for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                found = self._wrappers.get(id(value))
                if found is not None and found[0] is value:
                    setattr(module, attr, found[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, func in reversed(self._patches):
            setattr(module, attr, func)
        self._patches.clear()

    def _wrap(self, entry: str, func):
        index = len(self.names)
        self.names.append(entry)
        layer = entry.split(".", 1)[0]
        self.layer_of.append(layer)
        spans, stack, counts = self.spans, self.stack, self.counts
        calls_key = f"{layer}.calls"
        signature = inspect.signature(func)
        count = self._count if entry in HOOKED or layer == "latency" else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                return func(*args, **kwargs)
            span = [index, clock(), 0.0, stack[-1][0] if stack else -1]
            stack.append((len(spans), layer))
            spans.append(span)
            result = exc = None
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span[2] = clock()
                stack.pop()
                counts[calls_key] += 1
                if count is not None:
                    count(entry, signature, args, kwargs, result, exc, span[2] - span[1])

        wrapper.__wrapped__ = func
        return wrapper

    def _count(self, entry, signature, args, kwargs, result, exc, duration) -> None:
        """Counts taken at a layer boundary from the call's arguments and result."""
        counts = self.counts
        if entry in ("coverage.ul_coverage", "coverage.dl_coverage"):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.scope_keys.add(_coverage_key(entry, bound))
        elif entry == "quadrature.integrate_semi_infinite" and exc is None:
            counts["quadrature.evals"] += int(getattr(result, "evaluations", 0))
        elif entry.startswith("latency.") and _is_unbounded(result, exc):
            counts["latency.unbounded"] += 1
        elif entry == "sweeps.run_sweep":
            spec = signature.bind(*args, **kwargs).arguments["spec"]
            counts["sweeps.points"] += len(spec.values) * len(spec.variants)
        elif entry == "sweeps.sweep_csv":
            counts["sweeps.csv_s"] += duration
        elif entry == "montecarlo.empirical_association":
            counts["montecarlo.association_s"] += duration
        elif entry in ("montecarlo.empirical_mean_load", "montecarlo._mean_loads_by_rule"):
            counts["montecarlo.load_s"] += duration
        elif entry == "montecarlo.empirical_coverage":
            bound = signature.bind(*args, **kwargs).arguments
            counts[f"montecarlo.coverage_{bound['link'].value}_s"] += duration
            counts["montecarlo.coverage_trials"] += int(bound["trials"])
        elif entry == "validate.run_validation" and exc is None:
            counts["validate.rows"] += len(result.rows)
            worst = max((abs(row.z_score) for row in result.rows), default=0.0)
            counts["validate.max_abs_z"] = max(counts["validate.max_abs_z"], worst)

    # -- measurement ------------------------------------------------------

    def new_scope(self) -> None:
        """Close the current dedupe scope: its distinct coverage keys count once."""
        self.counts["coverage.distinct"] += len(self.scope_keys)
        self.scope_keys = set()

    def reset(self) -> None:
        self.scope_keys = set()
        self.spans.clear()
        self.counts.clear()
        self.stack.clear()

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer: span durations minus their children's."""
        spans, layer_of = self.spans, self.layer_of
        out = dict.fromkeys((f"{layer}.self_s" for layer in LAYERS), 0.0)
        for name, start, end, parent in spans:
            duration = end - start
            out[f"{layer_of[name]}.self_s"] += duration
            if parent >= 0:
                out[f"{layer_of[spans[parent][0]]}.self_s"] -= duration
        return out

    def write_spans(self, path: str, passes: list[list[list]]) -> None:
        """Write spans kept from each pass as CSV: pass,span,name,start_s,end_s,parent."""
        names = self.names
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("pass,span,name,start_s,end_s,parent\n")
            for index, spans in enumerate(passes):
                for i, (name, start, end, parent) in enumerate(spans):
                    handle.write(f"{index},{i},{names[name]},{start!r},{end!r},{parent}\n")
