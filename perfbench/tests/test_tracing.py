import importlib
import sys

import numpy as np
import pytest

import tracing
from tracing import Span, Tracer, summarize

from scfosim import chain, frontend, signal


def test_self_time_subtracts_direct_children():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("b", 5.0, 7.0, 0),
    ]
    stats = summarize(spans)
    assert stats["a"].self_s == pytest.approx(10.0 - 3.0 - 2.0)
    assert stats["b"].self_s == pytest.approx((3.0 - 1.0) + 2.0)
    assert stats["c"].self_s == pytest.approx(1.0)
    assert stats["b"].calls == 2
    assert stats["a"].total_s == pytest.approx(10.0)
    assert stats["b"].total_s == pytest.approx(5.0)


def test_recursive_span_counts_once_in_total():
    spans = [Span("f", 0.0, 8.0, -1, 10), Span("g", 1.0, 7.0, 0), Span("f", 2.0, 5.0, 1, 4)]
    stats = summarize(spans)
    assert stats["f"].total_s == pytest.approx(8.0)
    assert stats["f"].self_s == pytest.approx(2.0 + 3.0)
    assert stats["f"].items == 14
    assert stats["f"].msps == pytest.approx(14 / 8.0 / 1e6)


def _bindings():
    """Every attribute of every loaded scfosim module and of its classes."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "scfosim" or name.startswith("scfosim.")):
            continue
        for attr, obj in vars(module).items():
            seen[(name, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == name:
                for member, value in vars(obj).items():
                    seen[(name, attr, member)] = value
    return seen


def _layers():
    return {name: importlib.import_module(f"scfosim.{name}") for name in tracing.LAYERS}


def test_wrappers_reach_name_bound_copies_and_are_removed():
    tracer = Tracer(_layers())
    before = _bindings()
    original = signal.eval_tones
    assert chain.eval_tones is original
    with tracer:
        assert chain.eval_tones is not original
        assert chain.eval_tones is signal.eval_tones
        assert chain.eval_tones.__wrapped__ is original
        out = chain.eval_tones(np.ones(2), np.array([1.0, 2.0]), np.zeros(2), np.linspace(0, 1, 50))
    assert len(out) == 50
    assert [(s.name, s.items) for s in tracer.spans] == [("signal.eval_tones", 50)]
    assert _bindings().keys() == before.keys()
    changed = [key for key, obj in _bindings().items() if obj is not before[key]]
    assert changed == []


def test_methods_and_nesting_are_traced():
    sig = signal.synth_signal(3, 4, (1e3, 4e5))
    tracer = Tracer(_layers(), clock=iter(range(1000)).__next__)
    with tracer:
        stream = frontend.sample(sig, 1_000_000, 300)
    assert len(stream) == 300
    stats = summarize(tracer.spans)
    evals = stats["signal.ToneBankSignal.eval"]
    assert evals.calls == 1 and evals.items == 300
    outer = stats["frontend.sample"]
    # the clock ticks once per reading: sample 0-5, grid_times 1-2, eval 3-4
    assert [s.name for s in tracer.spans] == [
        "frontend.sample", "frontend.grid_times", "signal.ToneBankSignal.eval"]
    assert (outer.total_s, outer.self_s, evals.self_s) == (5, 3, 1)
    assert signal.ToneBankSignal.eval is vars(signal.ToneBankSignal)["eval"]
    assert not hasattr(signal.ToneBankSignal.eval, "__wrapped__")


def test_span_closes_when_the_call_raises():
    tracer = Tracer(_layers())
    with pytest.raises(ValueError):
        with tracer:
            signal.synth_signal(1, 0, (0.0, 1.0))
    assert [s.name for s in tracer.spans] == ["signal.synth_signal"]
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert signal.synth_signal.__module__ == "scfosim.signal"
    assert not hasattr(signal.synth_signal, "__wrapped__")


def test_layer_metrics_cover_the_spec():
    names = {m["name"] for m in tracing.per_layer_spec()}
    from_spans = set(tracing.layer_metrics({}))
    assert from_spans | {"run.cpu_s", "run.trace_overhead_s"} == names
