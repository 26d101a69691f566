"""Run one heckeq command with per-module timing, from outside the package.

Usage: ``python bench/tracer.py <heckeq arguments>`` with ``src`` on
PYTHONPATH.  The command's own output goes to stdout unchanged.  The
last line of stderr is ``TRACE_MARKER`` followed by one JSON object:
per-module self time, per-function calls, inclusive time and repeated
arguments, ``cache_info()`` of the package's functools caches, the
largest word-basis support and coefficient size seen, and the spans.

Every public function (``__all__``, and the public functions of
``cli``) is wrapped once and the wrapper is bound in place of the
original in every ``heckeq`` namespace that holds it, because the
modules import each other's functions by name.  The arithmetic methods
of ``LaurentPoly`` and ``HeckeElement`` run millions of times, so they
are only counted and timed: they add to their module's self time inside
the enclosing span instead of recording a span per call.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from fractions import Fraction

TRACE_MARKER = "HECKEQ_TRACE "
MAX_SPANS = 200_000
MODULES = ("laurent", "diagrams", "invariant", "symgroup", "hecke_oracle", "traces", "suq", "cli")
HOT_METHODS = {
    "laurent": ("LaurentPoly", {
        "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
        "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul", "__pow__": "pow",
        "divide_exact": "divide_exact", "evaluate": "evaluate", "__str__": "str",
    }),
    "hecke_oracle": ("HeckeElement", {
        "__add__": "add", "__sub__": "sub", "__neg__": "neg",
        "__mul__": "mul", "times_generator": "times_generator",
    }),
}


class Recorder:
    """Exclusive-time accounting over a stack of active calls."""

    def __init__(self, hecke_element_type):
        self.clock = time.perf_counter
        self.t0 = self.clock()
        self.stack: list[list] = []  # [layer, start, child_time, span index]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.inclusive_s: dict[str, float] = {}
        self.repeats: dict[str, int] = {}
        self.spans: list[list] = []
        self.dropped_spans = 0
        self.peak_support = 0
        self.max_coeff_bits = 0
        self.hecke_element = hecke_element_type

    def _enter(self, layer: str, span_name: str | None) -> list:
        index = -1
        if span_name is not None:
            if len(self.spans) < MAX_SPANS:
                parent = self.stack[-1][3] if self.stack else -1
                index = len(self.spans)
                self.spans.append([span_name, parent, 0.0, 0.0])
            else:
                self.dropped_spans += 1
        frame = [layer, self.clock(), 0.0, index]
        self.stack.append(frame)
        if index >= 0:
            self.spans[index][2] = frame[1] - self.t0
        return frame

    def _exit(self, frame: list) -> float:
        end = self.clock()
        self.stack.pop()
        duration = end - frame[1]
        layer = frame[0]
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - frame[2]
        if self.stack:
            self.stack[-1][2] += duration
        if frame[3] >= 0:
            self.spans[frame[3]][3] = end - self.t0
        return duration

    def observe(self, value, coeff_bits: bool) -> None:
        if isinstance(value, self.hecke_element):
            coeffs = value.coeffs
            if len(coeffs) > self.peak_support:
                self.peak_support = len(coeffs)
            if coeff_bits:
                for c in coeffs.values():
                    self._bits(c)
        elif coeff_bits and isinstance(value, Fraction):
            self._bits(value)

    def _bits(self, c: Fraction) -> None:
        bits = max(c.numerator.bit_length(), c.denominator.bit_length())
        if bits > self.max_coeff_bits:
            self.max_coeff_bits = bits

    def span_wrapper(self, layer: str, name: str, func):
        key = f"{layer}.{name}"
        self.calls[key] = self.inclusive_s[key] = self.repeats[key] = 0
        seen: set = set()
        active = 0
        oracle = layer == "hecke_oracle"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            nonlocal active
            self.calls[key] += 1
            try:
                arg_key = (args, tuple(sorted(kwargs.items())))
                if arg_key in seen:
                    self.repeats[key] += 1
                else:
                    seen.add(arg_key)
            except TypeError:  # unhashable arguments are never repeats
                pass
            active += 1
            frame = self._enter(layer, key)
            try:
                result = func(*args, **kwargs)
            finally:
                duration = self._exit(frame)
                active -= 1
                if not active:  # count recursion once, at the outermost call
                    self.inclusive_s[key] += duration
            if oracle:
                self.observe(result, coeff_bits=True)
            return result

        return wrapper

    def hot_wrapper(self, layer: str, name: str, func):
        key = f"{layer}.{name}"
        self.calls.setdefault(key, 0)
        self.inclusive_s.setdefault(key, 0.0)
        oracle = layer == "hecke_oracle"
        # products are few and large, generator steps many and small
        bits = oracle and name == "mul"
        calls, inclusive = self.calls, self.inclusive_s

        def wrapper(*args, **kwargs):
            calls[key] += 1
            frame = self._enter(layer, None)
            try:
                result = func(*args, **kwargs)
            finally:
                inclusive[key] += self._exit(frame)
            if oracle:
                self.observe(result, coeff_bits=bits)
            return result

        functools.update_wrapper(wrapper, func)
        return wrapper


def install(recorder: Recorder, modules: dict[str, types.ModuleType]) -> None:
    """Wrap the public functions and hot methods, and bind the wrappers everywhere."""
    wrapped: dict[int, object] = {}
    for layer, module in modules.items():
        names = getattr(module, "__all__", None)
        if names is None:
            names = [n for n in vars(module) if not n.startswith("_")]
        for name in names:
            obj = getattr(module, name)
            if not isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper)):
                continue
            if obj.__module__ != module.__name__ or id(obj) in wrapped:
                continue
            wrapped[id(obj)] = recorder.span_wrapper(layer, name, obj)
    for layer, (cls_name, methods) in HOT_METHODS.items():
        cls = getattr(modules[layer], cls_name)
        for attr, name in methods.items():
            setattr(cls, attr, recorder.hot_wrapper(layer, name, vars(cls)[attr]))
    for module in list(sys.modules.values()):
        if module is None or not (module.__name__ == "heckeq" or module.__name__.startswith("heckeq.")):
            continue
        for attr, value in list(vars(module).items()):
            replacement = wrapped.get(id(value))
            if replacement is not None:
                setattr(module, attr, replacement)


def report(recorder: Recorder, modules: dict[str, types.ModuleType], import_s: float) -> dict:
    """The trace document; `cache_info()` is read from the original caches, private ones too."""
    caches = {}
    for layer, module in modules.items():
        for name, value in vars(module).items():
            if not isinstance(value, functools._lru_cache_wrapper):
                value = getattr(value, "__wrapped__", None)  # one of our wrappers
            if isinstance(value, functools._lru_cache_wrapper) and value.__module__ == module.__name__:
                hits, misses, _, size = value.cache_info()
                if hits or misses:
                    caches[f"{layer}.{name}"] = {"hits": hits, "misses": misses, "size": size}
    called = [key for key, n in recorder.calls.items() if n]
    return {
        "import_s": import_s,
        "self_s": recorder.self_s,
        "calls": {key: recorder.calls[key] for key in called},
        "inclusive_s": {key: recorder.inclusive_s[key] for key in called},
        "repeats": {key: recorder.repeats.get(key, 0) for key in called},  # hot methods have none
        "caches": caches,
        "peak_support": recorder.peak_support,
        "max_coeff_bits": recorder.max_coeff_bits,
        "spans": recorder.spans,
        "dropped_spans": recorder.dropped_spans,
    }


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    import heckeq.cli  # noqa: F401 - the import cost is measured here

    import_s = time.perf_counter() - start
    modules = {name: sys.modules[f"heckeq.{name}"] for name in MODULES}
    recorder = Recorder(modules["hecke_oracle"].HeckeElement)
    install(recorder, modules)
    try:
        code = modules["cli"].main(argv)  # the wrapper: the root span
    finally:
        sys.stdout.flush()
        doc = report(recorder, modules, import_s)
        sys.stderr.write("\n" + TRACE_MARKER + json.dumps(doc, separators=(",", ":")) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
