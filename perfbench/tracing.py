"""Per-layer spans recorded from outside the program.

The tracer replaces every public function and public method of the traced
``scfosim`` modules with a wrapper that records one span per call: name,
start, end, parent span and, for the functions listed in ``ITEMS``, the
number of samples in or out.  Modules also hold name-bound copies of
functions from other modules (``chain.eval_tones`` is ``signal.eval_tones``),
so the wrapper is installed on every module attribute that is bound to an
original, not only on the defining module.  Leaving the ``with`` block
restores every original binding.

Spans stay in memory; ``summarize`` turns them into per-name totals, where a
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass

LAYERS = ("signal", "frontend", "rational", "resampler", "polyphase", "mixer", "correlator",
          "chain", "scenarios")

# Functions reported one by one, each with every statistic in STATS.
TRACKED = (
    "signal.eval_tones",
    "signal.ToneBankSignal.eval",
    "frontend.quantize_array",
    "rational.phase_run",
    "resampler.design_bank",
    "resampler.Resampler.process",
    "polyphase.demux_resample",
    "mixer.ssb_shift",
    "correlator.correlate",
    "correlator.CorrelationAccumulator.add",
    "chain.run_dual_chain",
)
STATS = {  # statistic -> (unit, better)
    "self_s": ("s", "lower"),
    "total_s": ("s", "lower"),
    "calls": ("count", "lower"),
    "items": ("count", "lower"),
    "msps": ("Msample/s", "higher"),
}
SCENARIOS = ("requant-loss", "scfo-off-control", "zone1-vs-zone2-alias", "relaxed-antialias",
             "zone2-shift", "offset-plan")

# Samples in or out of each tracked function, taken from its arguments and
# return value.  ``args[0]`` is ``self`` for methods.
ITEMS = {
    "signal.eval_tones": lambda args, kwargs, out: len(out),
    "signal.ToneBankSignal.eval": lambda args, kwargs, out: getattr(out, "size", 1),
    "frontend.quantize_array": lambda args, kwargs, out: len(out),
    "rational.phase_run": lambda args, kwargs, out: len(out[0]),
    "resampler.design_bank": lambda args, kwargs, out: out.table.size,
    "resampler.Resampler.process": lambda args, kwargs, out: len(out),
    "polyphase.demux_resample": lambda args, kwargs, out: len(out.data),
    "mixer.ssb_shift": lambda args, kwargs, out: len(out.data),
    "correlator.correlate": lambda args, kwargs, out: out.n_samples,
    "correlator.CorrelationAccumulator.add": lambda args, kwargs, out: len(args[1]),
    "chain.run_dual_chain": lambda args, kwargs, out: out.n_samples,
}

# Spans of these functions are named after their first argument as well,
# so each scenario gets its own total.
SUFFIX = {
    "scenarios.run_scenario": lambda args, kwargs: args[0] if args else kwargs["name"],
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a top-level call
    items: int = 0


def _own_callables(module):
    """Public functions of ``module`` and public methods of its classes."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, type):
            for name, member in vars(obj).items():
                if not name.startswith("_") and inspect.isfunction(member):
                    yield obj, name, member
        elif callable(obj):
            yield None, attr, obj


class Tracer:
    """Context manager that traces the given ``scfosim`` layers.

    ``layers`` maps a short layer name (``"signal"``) to its module.  Every
    loaded ``scfosim`` module has its bindings of the traced functions
    replaced while the tracer is active.
    """

    def __init__(self, layers: dict, clock=time.perf_counter):
        self.layers = dict(layers)
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        count = ITEMS.get(name)
        suffix = SUFFIX.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name if suffix is None else f"{name}.{suffix(args, kwargs)}", 0.0, 0.0,
                        stack[-1] if stack else -1)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if count is not None:
                span.items = int(count(args, kwargs, out))
            return out

        return traced

    def __enter__(self):
        if self._restore:
            raise RuntimeError("tracer is already installed")
        wrappers = {}  # id(original) -> (original, wrapper)
        for short, module in self.layers.items():
            for cls, attr, fn in _own_callables(module):
                qual = f"{short}.{cls.__qualname__}.{attr}" if cls is not None else f"{short}.{attr}"
                wrapper = self._wrap(qual, fn)
                if cls is not None:
                    self._restore.append((cls, attr, fn))
                    setattr(cls, attr, wrapper)
                else:
                    wrappers[id(fn)] = (fn, wrapper)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "scfosim" or n.startswith("scfosim."))]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    def write(self, path) -> None:
        """Write the spans as one JSON list of [name, start, end, parent, items]."""
        with open(path, "w") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.items] for s in self.spans], fh)


@dataclass
class LayerStats:
    calls: int = 0
    items: int = 0
    self_s: float = 0.0
    total_s: float = 0.0

    @property
    def msps(self) -> float:
        return self.items / self.total_s / 1e6 if self.total_s > 0 else 0.0


def summarize(spans: list[Span]) -> dict[str, LayerStats]:
    """Per-name calls, items, self time and total time.

    Self time is the span's duration minus the summed durations of its direct
    children.  Total time counts only the outermost span of a name, so a
    function that reaches itself again is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    stats: dict[str, LayerStats] = {}
    for i, span in enumerate(spans):
        st = stats.setdefault(span.name, LayerStats())
        duration = span.end - span.start
        st.calls += 1
        st.items += span.items
        st.self_s += duration - child_time[i]
        parent = span.parent
        while parent >= 0 and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent < 0:
            st.total_s += duration
    return stats


def per_layer_spec() -> list[dict]:
    """Every per-layer metric the traced run reports, in order."""
    spec = [{"name": f"{fn}.{stat}", "unit": unit, "better": better}
            for fn in TRACKED for stat, (unit, better) in STATS.items()]
    spec += [{"name": f"scenarios.run_scenario.{name}.total_s", "unit": "s", "better": "lower"}
             for name in SCENARIOS]
    spec += [{"name": f"{layer}.self_s", "unit": "s", "better": "lower"} for layer in LAYERS]
    spec += [{"name": "run.cpu_s", "unit": "s", "better": "lower"},
             {"name": "run.trace_overhead_s", "unit": "s", "better": "lower"}]
    return spec


def layer_metrics(stats: dict[str, LayerStats]) -> dict[str, float]:
    """Values of the per-layer metrics that come from spans; 0 where nothing ran."""
    out = {}
    for fn in TRACKED:
        st = stats.get(fn, LayerStats())
        for stat in STATS:
            out[f"{fn}.{stat}"] = getattr(st, stat)
    for name in SCENARIOS:
        out[f"scenarios.run_scenario.{name}.total_s"] = stats.get(
            f"scenarios.run_scenario.{name}", LayerStats()).total_s
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(st.self_s for fn, st in stats.items() if fn.startswith(layer + "."))
    return out
