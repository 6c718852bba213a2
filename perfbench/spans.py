"""Span tracing of fiberae's layers from outside the package.

`Tracer.install()` replaces each traced public function with a wrapper in
every loaded ``fiberae`` module that binds it, so calls made inside the
package (``likelihood.propagate`` inside ``build_oracle``, ``nets.forward``
inside ``autoencoder.decode``) are caught as well as calls from the CLI.
The ``ThreadPoolExecutor`` that fiberae modules bind is replaced the same
way, so work run on a pool thread is recorded as a ``task`` span named and
parented after the span that submitted it.

Spans stay in memory until `Tracer.dump`; `job_metrics` derives the
per-layer figures of one job from them.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from time import perf_counter

import numpy as np


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _nbytes(*arrays) -> int:
    return int(sum(np.asarray(a).nbytes for a in arrays))


# Counters run after the traced call returns, on its arguments and result.
# A segment update is one sample taken through one segment.  Channel bytes
# are computed from the sizes of the arrays a call takes and returns (and
# the tape it records or reads), not measured.


def _tape_nbytes(tape) -> int:
    return sum(v.nbytes for v in vars(tape).values() if isinstance(v, np.ndarray))


def _count_propagate(args, kwargs, result):
    # the noise is drawn inside the call: one complex double per update
    x = _arg(args, kwargs, 0, "x")
    updates = int(np.size(x)) * _arg(args, kwargs, 1, "params").segments
    return {"updates": updates, "bytes": _nbytes(x, result) + 16 * updates}


def _count_propagate_tape(args, kwargs, result):
    x = _arg(args, kwargs, 0, "x")
    noise = _arg(args, kwargs, 1, "noise")
    out, tape = result
    return {
        "updates": int(np.size(x)) * noise.shape[0],
        "bytes": _nbytes(x, noise, out) + _tape_nbytes(tape),
    }


def _count_backprop(args, kwargs, result):
    tape = _arg(args, kwargs, 0, "tape")
    g = _arg(args, kwargs, 1, "grad_output")
    updates = int(np.size(result)) * tape.params.segments
    return {"updates": updates, "bytes": _tape_nbytes(tape) + _nbytes(g, result)}


def _count_draw_noise(args, kwargs, result):
    return {"bytes": _nbytes(result)}


def _count_rows(pos: int, name: str):
    def count(args, kwargs, result):
        return {"rows": int(np.atleast_2d(_arg(args, kwargs, pos, name)).shape[0])}

    return count


def _count_floor_hits(args, kwargs, result):
    return {"floor_hits": int(result[2])}


def _count_oracle(args, kwargs, result):
    max_side = getattr(sys.modules.get("fiberae.likelihood"), "MAX_GRID_SIDE", None)
    shapes = [d.grid.shape for d in result.densities]
    return {
        "cells": int(sum(a * b for a, b in shapes)),
        "clipped": sum(1 for s in shapes if max_side is not None and max(s) >= max_side),
    }


def _count_sweep(args, kwargs, result):
    threads = kwargs["threads"] if "threads" in kwargs else (args[8] if len(args) > 8 else 1)
    return {"threads": int(threads)}


# (module, function, counter); a function missing from its module is skipped
TRACED = [
    ("channel", "draw_noise", _count_draw_noise),
    ("channel", "propagate", _count_propagate),
    ("channel", "propagate_tape", _count_propagate_tape),
    ("channel", "backprop_channel", _count_backprop),
    ("nets", "forward", _count_rows(1, "x")),
    ("nets", "backward", _count_rows(2, "grad_output")),
    ("nets", "adam_step", None),
    ("autoencoder", "train", None),
    ("autoencoder", "batch_loss_and_grads", _count_floor_hits),
    ("autoencoder", "decode", None),
    ("autoencoder", "detect", None),
    ("autoencoder", "load_checkpoint", None),
    ("autoencoder", "save_checkpoint", None),
    ("likelihood", "build_oracle", _count_oracle),
    ("likelihood", "ml_detect", None),
    ("likelihood", "mutual_information", None),
    ("evaluation", "sweep", _count_sweep),
    ("evaluation", "ser", None),
    ("evaluation", "air", None),
    ("evaluation", "decision_regions", None),
    ("cli", "main", None),
]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    run: str
    kind: str  # "call" of a traced function, or "task" run on a pool thread
    counts: dict


class Tracer:
    """Records spans of the traced fiberae functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, kind, parent, fn, args, kwargs, counter):
        with self._lock:
            sid = next(self._ids)
        stack = self._stack()
        stack.append((sid, name))
        counts = {}
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            if counter is not None:
                try:
                    counts = counter(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError) as exc:
                    # an internal shape the counter reads has changed: report
                    # no counts rather than failing the traced call
                    counts = {"counter_error": f"{type(exc).__name__}: {exc}"}
            return result
        finally:
            end = perf_counter()
            stack.pop()
            span = Span(sid, name, start, end, parent, threading.get_ident(), self.run, kind, counts)
            with self._lock:
                self.spans.append(span)

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][0] if stack else None
            return self._record(name, "call", parent, fn, args, kwargs, counter)

        return traced

    def _pool_class(self):
        tracer = self

        class TracedThreadPoolExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent, name = stack[-1] if stack else (None, "pool")

                def task(*a, **k):
                    return tracer._record(name, "task", parent, fn, a, k, None)

                return super().submit(task, *args, **kwargs)

        return TracedThreadPoolExecutor

    def install(self) -> None:
        """Wrap every traced function wherever a fiberae module binds it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        replacements = {id(ThreadPoolExecutor): (ThreadPoolExecutor, self._pool_class())}
        for mod_name, fn_name, counter in TRACED:
            fn = getattr(sys.modules.get(f"fiberae.{mod_name}"), fn_name, None)
            if fn is not None:
                replacements[id(fn)] = (fn, self._wrap(f"{mod_name}.{fn_name}", fn, counter))
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "fiberae"]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# per-layer figures of one job


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _clipped(spans, lo: float, hi: float):
    return [(max(s.start, lo), min(s.end, hi)) for s in spans if s.end > lo and s.start < hi]


def job_metrics(spans: list[Span], start: float, end: float) -> dict[str, float]:
    """Per-layer figures of one job from its spans and its wall-time window.

    busy_s sums the durations of a function's calls.  self_s sums, over its
    calls and the pool tasks it submitted, each span's duration minus the
    union of its children's intervals, so a parent waiting on pool threads
    is not charged for their work.
    """
    children = defaultdict(list)
    by_name = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
        by_name[s.name].append(s)

    def busy(name):
        return sum(s.end - s.start for s in by_name[name] if s.kind == "call")

    def self_time(name):
        return sum(
            (s.end - s.start) - _covered(_clipped(children[s.id], s.start, s.end))
            for s in by_name[name]
        )

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in by_name[name])

    channel_fns = ("draw_noise", "propagate", "propagate_tape", "backprop_channel")
    updates = sum(total(f"channel.{f}", "updates") for f in channel_fns)
    channel_busy = sum(busy(f"channel.{f}") for f in channel_fns)
    channel_bytes = sum(total(f"channel.{f}", "bytes") for f in channel_fns)

    # parallel efficiency: time each thread spent on a sweep's children,
    # over the thread-seconds the sweep had (threads x its wall time)
    work = capacity = 0.0
    for sweep in by_name["evaluation.sweep"]:
        per_thread = defaultdict(list)
        for c in children[sweep.id]:
            per_thread[c.thread].append(c)
        work += sum(_covered(_clipped(cs, sweep.start, sweep.end)) for cs in per_thread.values())
        capacity += sweep.counts.get("threads", 1) * (sweep.end - sweep.start)

    out = {f"channel.{f}.busy_s": busy(f"channel.{f}") for f in channel_fns}
    out.update({
        "channel.segment_updates": updates,
        "channel.ns_per_segment_update": 1e9 * channel_busy / updates if updates else 0.0,
        "channel.bytes_per_segment_update": channel_bytes / updates if updates else 0.0,
        "nets.forward.busy_s": busy("nets.forward"),
        "nets.forward.rows": total("nets.forward", "rows"),
        "nets.backward.busy_s": busy("nets.backward"),
        "nets.backward.rows": total("nets.backward", "rows"),
        "nets.adam_step.busy_s": busy("nets.adam_step"),
        "nets.adam_step.calls": len(by_name["nets.adam_step"]),
        "autoencoder.train.self_s": self_time("autoencoder.train"),
        "autoencoder.batch_loss_and_grads.self_s": self_time("autoencoder.batch_loss_and_grads"),
        "autoencoder.batch_loss_and_grads.floor_hits": total("autoencoder.batch_loss_and_grads", "floor_hits"),
        "autoencoder.decode.busy_s": busy("autoencoder.decode"),
        "autoencoder.detect.busy_s": busy("autoencoder.detect"),
        "autoencoder.load_checkpoint.busy_s": busy("autoencoder.load_checkpoint"),
        "autoencoder.save_checkpoint.busy_s": busy("autoencoder.save_checkpoint"),
        "likelihood.build_oracle.busy_s": busy("likelihood.build_oracle"),
        "likelihood.build_oracle.self_s": self_time("likelihood.build_oracle"),
        "likelihood.kde_grid_cells": total("likelihood.build_oracle", "cells"),
        "likelihood.kde_grids_clipped": total("likelihood.build_oracle", "clipped"),
        "likelihood.ml_detect.self_s": self_time("likelihood.ml_detect"),
        "likelihood.mutual_information.self_s": self_time("likelihood.mutual_information"),
        "evaluation.sweep.parallel_efficiency": work / capacity if capacity else 0.0,
        "evaluation.ser.self_s": self_time("evaluation.ser"),
        "evaluation.air.self_s": self_time("evaluation.air"),
        "evaluation.decision_regions.self_s": self_time("evaluation.decision_regions"),
        "cli.main.self_s": self_time("cli.main"),
        "trace.coverage": _covered(_clipped(spans, start, end)) / (end - start),
    })
    return out


def step_times_ms(spans: list[Span]) -> list[float]:
    """Durations of the training steps (batch_loss_and_grads calls) in ms."""
    return [1e3 * (s.end - s.start) for s in spans if s.name == "autoencoder.batch_loss_and_grads"]
