"""Span tracing of the diracdelta package from outside its source.

The tracer replaces module globals and class attributes of the package with
timing wrappers while it is installed, and puts the originals back when it is
uninstalled. Nothing in `src/` knows about it. Each wrapped call is a span;
spans nest on one stack, so a span's self time is its duration minus the
durations of the spans it called. Spans are aggregated in memory per name as
(inclusive seconds, self seconds, calls, work count) and read out per phase
with `Tracer.reset`.

A target that a later version of the package no longer has is skipped and
listed in `Tracer.missing`; its metrics then read zero instead of the
benchmark failing.
"""
from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter


def _conv_macs(args, result):
    # result is (H, W, OC) accumulators of an (H, W, IC) map
    return result.size * args[0].channels


def _result_size(args, result):
    return result.size


def _packed_bytes(args, result):
    return len(result.packed)


# (module, owner class or None, attribute, span name, kind, work counter)
# A function is patched in the module that calls it, because callers bind
# imported names at import time.
TARGETS = (
    ("diracdelta.net", None, "compile_steps", "net.compile_steps", "function", None),
    ("diracdelta.net", None, "conv1x1_ref", "ops.conv1x1", "function", _conv_macs),
    ("diracdelta.net", None, "maxpool2x2", "ops.pool", "function", None),
    ("diracdelta.net", None, "shift", "ops.shift", "function", None),
    ("diracdelta.net", None, "concat_shuffle", "ops.concat_shuffle", "function", None),
    ("diracdelta.net", None, "channel_split", "ops.channel_split", "function", None),
    ("diracdelta.net", None, "global_avgpool", "ops.head", "function", None),
    ("diracdelta.net", None, "quantize_uniform", "ops.head", "function", None),
    ("diracdelta.net", None, "fc_bit_serial", "ops.head", "function", None),
    ("diracdelta.bundle", None, "build_threshold_table", "quant.table_build", "function", None),
    ("diracdelta.quant", "ThresholdTable", "apply", "quant.apply", "method", _result_size),
    ("diracdelta.tensor", "FeatureMap", "from_array", "tensor.from_array", "classmethod",
     _packed_bytes),
    ("diracdelta.tensor", "FeatureMap", "to_array", "tensor.to_array", "method", None),
    ("diracdelta.accel.subgraph", None, "run_subgraph", "subgraph.run", "function", None),
    ("diracdelta.accel.subgraph", None, "pool_pass", "subgraph.pool_pass", "function", None),
    ("diracdelta.accel.subgraph", None, "shift_pass", "subgraph.shift_pass", "function", None),
    ("diracdelta.accel.subgraph", None, "_loader_stage", "subgraph.stage", "generator", None),
    ("diracdelta.accel.subgraph", None, "_conv_stage", "subgraph.conv_stage", "generator", None),
    ("diracdelta.accel.subgraph", None, "_conversion_stage", "subgraph.stage", "generator",
     None),
    ("diracdelta.accel.subgraph", None, "_pool_stage", "subgraph.stage", "generator", None),
    ("diracdelta.accel.subgraph", None, "_shift_stage", "subgraph.stage", "generator", None),
    ("diracdelta.accel.subgraph", None, "_store_stage", "subgraph.stage", "generator", None),
    ("diracdelta.accel.subgraph", None, "shuffle_writeback", "units.shuffle_writeback",
     "function", None),
    ("diracdelta.accel.units", "PoolLane", "feed_row", "units.pool_lane", "method", None),
    ("diracdelta.accel.units", "ShiftLane", "feed_row", "units.shift_lane", "method", None),
    ("diracdelta.accel.units", "ShiftLane", "finish", "units.shift_lane", "method", None),
    ("diracdelta.accel.subgraph", None, "run_network", "fifo.run", "function", None),
    ("diracdelta.accel.fifo", "FifoChannel", "__init__", "fifo.channel", "register", None),
)


# What each kind of target must still be for its wrapper to fit.
_KIND_CHECKS = {
    "function": callable,
    "method": inspect.isfunction,
    "classmethod": lambda obj: isinstance(obj, classmethod),
    "generator": inspect.isgeneratorfunction,
    "register": inspect.isfunction,
}


def _lookup(module_name, cls_name, attr):
    """(owner, original) of a target; original is None when the package lacks it."""
    try:
        owner = importlib.import_module(module_name)
    except ModuleNotFoundError:
        return None, None
    if cls_name is None:
        return owner, getattr(owner, attr, None)
    owner = getattr(owner, cls_name, None)
    return owner, (vars(owner).get(attr) if isinstance(owner, type) else None)


class Tracer:
    """Installs timing wrappers on the package and aggregates their spans."""

    def __init__(self):
        self.totals = {}
        self.missing = []
        self._stack = []
        self._channels = []
        self._patches = []
        for module_name, cls_name, attr, span, kind, count in TARGETS:
            owner, original = _lookup(module_name, cls_name, attr)
            if not _KIND_CHECKS[kind](original):
                self.missing.append(f"{module_name}.{cls_name + '.' if cls_name else ''}{attr}")
                continue
            replacement = self._replacement(original, span, kind, count)
            self._patches.append((owner, attr, original, replacement))

    def _replacement(self, original, span, kind, count):
        if kind == "classmethod":
            return classmethod(self.wrap(span, original.__func__, count))
        if kind == "generator":
            return self._wrap_generator(span, original)
        if kind == "register":
            channels = self._channels

            @functools.wraps(original)
            def init(channel, *args, **kwargs):
                original(channel, *args, **kwargs)
                channels.append(channel)
            return init
        return self.wrap(span, original, count)

    def wrap(self, name, fn, count=None):
        """Return `fn` wrapped so that each call records one span `name`."""
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            node = [0.0]  # seconds spent in child spans
            stack.append(node)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                entry = self.totals.get(name)
                if entry is None:
                    entry = self.totals[name] = [0.0, 0.0, 0, 0]
                entry[0] += dt
                entry[1] += dt - node[0]
                entry[2] += 1
            if count is not None:
                entry[3] += count(args, result)
            return result
        return traced

    def _wrap_generator(self, name, genfn):
        """Time every resume of a pipeline stage, not the time it sits blocked."""
        @functools.wraps(genfn)
        def traced(*args, **kwargs):
            resume = self.wrap(name, genfn(*args, **kwargs).send)
            value = None
            while True:
                try:
                    effect = resume(value)
                except StopIteration:
                    return
                value = yield effect
        return traced

    def install(self) -> None:
        for owner, attr, _original, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _replacement in self._patches:
            setattr(owner, attr, original)

    def reset(self) -> dict:
        """Return the spans recorded since the last reset and start afresh.

        FIFO transfers are read from the channels created in the phase, as
        the count of the `fifo.channel` entry.
        """
        if self._channels:
            entry = self.totals.setdefault("fifo.channel", [0.0, 0.0, 0, 0])
            entry[3] += sum(ch.put_count for ch in self._channels)
            self._channels.clear()
        totals, self.totals = self.totals, {}
        return totals
