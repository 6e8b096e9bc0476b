"""Per-layer spans recorded from outside the engine.

`traced(tracer)` replaces the public functions that `dbnet.semantics` calls
into (its module attributes) with wrappers that record one span per call:
name, start, end and the index of the enclosing span. Every attribute is put
back in `finally`, so the engine is untouched once the block exits. Cache
hits are counted by peeking at the instance's public cache accessors before
delegating, and interner hits by a subclass of `InstanceInterner`.

A span's self time is its duration minus the time covered by its direct
children; calls are strictly nested (one thread), so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from collections import Counter, defaultdict
from time import perf_counter

from dbnet import semantics

#: `dbnet.semantics` attribute -> span name (layer.function).
WRAPPED = {
    "enumerate_bindings": "semantics.enumerate_bindings",
    "fire": "semantics.fire",
    "align_view_places": "semantics.align_view_places",
    "state_key": "semantics.state_key",
    "firing_record": "semantics.firing_record",
    "check_compliance": "persistence.check_compliance",
    "answers": "query.answers",
    "apply_raw": "datalogic.apply_raw",
    "fresh_value": "datatypes.fresh_value",
}


class Tracer:
    """Spans kept in memory, with per-name self time and call counts.

    Spans live in flat arrays rather than one tuple per span, so that
    hundreds of thousands of them add no work to the garbage collector.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.top_s = 0.0  # time covered by spans that have no parent
        self._open: list[int] = []
        self._child_s: list[float] = []

    def __len__(self) -> int:
        return len(self._start)

    def call(self, name: str, fn, *args, **kwargs):
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._open[-1] if self._open else -1)
        self._start.append(0.0)
        self._end.append(0.0)
        self._open.append(index)
        self._child_s.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self._start[index] = start
            self._end[index] = end
            duration = end - start
            self.self_s[name] += duration - self._child_s.pop()
            self.calls[name] += 1
            if self._child_s:
                self._child_s[-1] += duration
            else:
                self.top_s += duration

    def write_csv(self, path) -> None:
        """One line per span, in call order: id, name, start and end in
        microseconds from the first span, and the parent's id (-1 for a
        top-level span)."""
        origin = self._start[0] if self._start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_us,end_us,parent\n")
            for i, (name_id, start, end, parent) in enumerate(zip(self._name, self._start, self._end, self._parent)):
                fh.write(f"{i},{self.names[name_id]},{(start - origin) * 1e6:.3f},{(end - origin) * 1e6:.3f},{parent}\n")


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return wrapper


def _wrap_compliance(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def check_compliance(layer, instance):
        if instance.cached_compliance(layer.cache_token) is not None:
            tracer.counts[name + ".hits"] += 1
        return tracer.call(name, fn, layer, instance)

    return check_compliance


def _wrap_answers(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def answers(named, instance, **kwargs):
        if instance.cached_answers(named.cache_token) is not None:
            tracer.counts[name + ".hits"] += 1
        return tracer.call(name, fn, named, instance, **kwargs)

    return answers


def _wrap_bindings(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def enumerate_bindings(*args, **kwargs):
        out = tracer.call(name, fn, *args, **kwargs)
        tracer.counts[name + ".bindings"] += len(out)
        return out

    return enumerate_bindings


_SPECIAL = {
    "check_compliance": _wrap_compliance,
    "answers": _wrap_answers,
    "enumerate_bindings": _wrap_bindings,
}


def _interner_class(tracer: Tracer, base: type):
    class CountingInterner(base):
        def __call__(self, instance):
            result = tracer.call("semantics.intern", super().__call__, instance)
            if result is not instance:
                tracer.counts["semantics.intern.hits"] += 1
            return result

    return CountingInterner


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route `dbnet.semantics`' calls into each layer through `tracer`."""
    originals = {attr: getattr(semantics, attr) for attr in (*WRAPPED, "InstanceInterner")}
    try:
        for attr, name in WRAPPED.items():
            setattr(semantics, attr, _SPECIAL.get(attr, _wrap)(tracer, name, originals[attr]))
        semantics.InstanceInterner = _interner_class(tracer, originals["InstanceInterner"])
        yield tracer
    finally:
        for attr, fn in originals.items():
            setattr(semantics, attr, fn)
