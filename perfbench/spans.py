"""Span wrappers that time calls into the simulator's layers from outside.

The benchmark never edits the program.  Instead, :class:`SpanRecorder` wraps
the methods of the classes each layer owns (class attributes are swapped
for timing wrappers before the cluster is built, and swapped back by
:meth:`SpanRecorder.uninstall`).  Every wrapped call is a span; a layer's
*self* time is the duration of its spans minus the part covered by nested
spans, so time spent in the fabric while the coordinator is sending is the
fabric's, not the coordinator's.  Garbage-collector pauses (``gc.callbacks``)
are treated as child spans of whatever span was running, and reported as
their own ``gc`` row.

Spans are aggregated per wrapped function, not stored one by one: a run
makes millions of them.  Only the phase marks (build, load, run, collect)
are kept individually.  Time outside every span is ``unattributed``; by
construction the layer self times, the GC pauses and ``unattributed`` add up
to the wall time since :meth:`SpanRecorder.start`.
"""

from __future__ import annotations

import enum
import functools
import gc
import inspect
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["SpanRecorder", "FunctionStats"]

ROOT = -1


class FunctionStats:
    """Aggregated spans of one wrapped function."""

    __slots__ = ("name", "layer", "calls", "entries", "self_s", "total_s")

    def __init__(self, name: str, layer: int) -> None:
        self.name = name
        self.layer = layer
        #: Every call of the function.
        self.calls = 0
        #: Calls made from outside the function's layer (calls *into* it).
        self.entries = 0
        self.self_s = 0.0
        #: Duration including nested spans.
        self.total_s = 0.0


def _wrappable(cls: type) -> bool:
    """Classes whose methods can be swapped safely.

    Enums, tuples (``NamedTuple`` records), exceptions and typing
    protocols are data or declarations, not layer code.
    """
    if getattr(cls, "_is_protocol", False):
        return False
    return not issubclass(cls, (enum.Enum, tuple, BaseException))


class SpanRecorder:
    """Per-layer self time of wrapped calls, plus collector pauses.

    ``clock`` is injectable so the self-time arithmetic can be tested with
    a scripted clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.layers: List[str] = []
        self._layer_index: Dict[str, int] = {}
        self.functions: List[FunctionStats] = []
        # Parallel stacks (layer, covered child time, start): no container
        # is allocated per call, so tracing perturbs the collector less.
        self._layers_stack: List[int] = [ROOT]
        self._child_stack: List[float] = [0.0]
        self._start_stack: List[float] = [0.0]
        self._saved: List[Tuple[type, str, object]] = []
        self.gc_pause_s = 0.0
        self.gc_collections = [0, 0, 0]
        self._gc_started = 0.0
        self._gc_installed = False
        self.marks: List[Tuple[str, float, Dict[str, float]]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def layer_id(self, layer: str) -> int:
        if layer not in self._layer_index:
            self._layer_index[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_index[layer]

    def wrap_class(
        self,
        cls: type,
        layer: str,
        *,
        only: Optional[Iterable[str]] = None,
        skip: Iterable[str] = (),
        observe: Optional[Dict[str, Callable[[tuple, object], None]]] = None,
    ) -> None:
        """Swap the methods ``cls`` defines for timing wrappers.

        Methods named in ``only`` (default: every function the class body
        defines, ``__init__`` included, other dunders excluded) are wrapped
        unless named in ``skip``.  ``observe`` maps a method name to a hook
        called with ``(args, result)`` after each call.
        """
        if not _wrappable(cls):
            return
        layer_idx = self.layer_id(layer)
        names = list(only) if only is not None else [
            name
            for name in vars(cls)
            if name == "__init__" or not (name.startswith("__") and name.endswith("__"))
        ]
        skipped = set(skip)
        hooks = observe or {}
        for name in names:
            if name in skipped:
                continue
            raw = vars(cls).get(name)
            if isinstance(raw, staticmethod):
                wrapped: object = staticmethod(
                    self._wrap(raw.__func__, f"{cls.__name__}.{name}", layer_idx, hooks.get(name))
                )
            elif isinstance(raw, classmethod):
                wrapped = classmethod(
                    self._wrap(raw.__func__, f"{cls.__name__}.{name}", layer_idx, hooks.get(name))
                )
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, f"{cls.__name__}.{name}", layer_idx, hooks.get(name))
            else:
                continue
            self._saved.append((cls, name, raw))
            setattr(cls, name, wrapped)

    def wrap_module(self, module, layer: str, *, skip_classes: Iterable[type] = ()) -> None:
        """Wrap every class defined in ``module`` (not the ones it imports)."""
        skipped = set(skip_classes)
        for value in list(vars(module).values()):
            if (
                inspect.isclass(value)
                and value.__module__ == module.__name__
                and value not in skipped
            ):
                self.wrap_class(value, layer)

    def uninstall(self) -> None:
        """Restore every swapped class attribute (and drop the GC hook)."""
        while self._saved:
            cls, name, raw = self._saved.pop()
            setattr(cls, name, raw)
        if self._gc_installed:
            gc.callbacks.remove(self._on_gc)
            self._gc_installed = False

    def _wrap(self, fn, name: str, layer: int, hook) -> Callable:
        stats = FunctionStats(name, layer)
        self.functions.append(stats)
        clock = self.clock
        layers, children, starts = self._layers_stack, self._child_stack, self._start_stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent_layer = layers[-1]
            layers.append(layer)
            children.append(0.0)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            finally:
                elapsed = clock() - start
                layers.pop()
                starts.pop()
                covered = children.pop()
                stats.calls += 1
                stats.self_s += elapsed - covered
                stats.total_s += elapsed
                if parent_layer != layer:
                    stats.entries += 1
                children[-1] += elapsed

        return wrapper

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open the root span and start listening to the collector.

        Spans closed before the start (objects built ahead of the timed
        region) are forgotten, so the totals partition the time since now.
        """
        for stats in self.functions:
            stats.calls = stats.entries = 0
            stats.self_s = stats.total_s = 0.0
        self._start_stack[0] = self.clock()
        self._child_stack[0] = 0.0
        if not self._gc_installed:
            gc.callbacks.append(self._on_gc)
            self._gc_installed = True

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_started = self.clock()
            return
        pause = self.clock() - self._gc_started
        self.gc_pause_s += pause
        self.gc_collections[info["generation"]] += 1
        # The pause happened inside whichever span is running: cover it so
        # that span's self time excludes it.
        self._child_stack[-1] += pause

    def layer_self(self, now: Optional[float] = None) -> Dict[str, float]:
        """Self seconds per layer so far, open spans included.

        An open span's partial self time (now minus its start, minus what
        its closed children covered, minus its open child's elapsed time)
        is credited to its layer, so a mark taken mid-call still partitions
        the elapsed time exactly.
        """
        if now is None:
            now = self.clock()
        totals = {layer: 0.0 for layer in self.layers}
        for stats in self.functions:
            totals[self.layers[stats.layer]] += stats.self_s
        starts = self._start_stack
        depth_count = len(starts)
        for depth in range(1, depth_count):
            open_child = now - starts[depth + 1] if depth + 1 < depth_count else 0.0
            partial = now - starts[depth] - self._child_stack[depth] - open_child
            totals[self.layers[self._layers_stack[depth]]] += partial
        totals["gc"] = self.gc_pause_s
        # Wall time outside every span and every collector pause.  An open
        # top-level span has not yet been added to the root's covered time.
        covered = self._child_stack[0]
        if depth_count > 1:
            covered += now - starts[1]
        totals["unattributed"] = now - starts[0] - covered
        return totals

    def mark(self, phase: str) -> None:
        """Record the end of a phase: wall time and per-layer self so far."""
        now = self.clock()
        self.marks.append((phase, now - self._start_stack[0], self.layer_self(now)))

    def phase_table(self) -> List[Tuple[str, float, Dict[str, float]]]:
        """Per-phase ``(name, wall_s, self_s by layer)`` from the marks."""
        rows = []
        previous_wall = 0.0
        previous: Dict[str, float] = {}
        for phase, wall, totals in self.marks:
            delta = {
                layer: value - previous.get(layer, 0.0) for layer, value in totals.items()
            }
            rows.append((phase, wall - previous_wall, delta))
            previous_wall, previous = wall, totals
        return rows

    def function(self, name: str) -> FunctionStats:
        """Aggregated stats of one wrapped function (summed over wrappers)."""
        merged = FunctionStats(name, -1)
        for stats in self.functions:
            if stats.name == name:
                merged.layer = stats.layer
                merged.calls += stats.calls
                merged.entries += stats.entries
                merged.self_s += stats.self_s
                merged.total_s += stats.total_s
        return merged

    def layer_entries(self) -> Dict[str, int]:
        """Calls into each layer from outside it."""
        totals = {layer: 0 for layer in self.layers}
        for stats in self.functions:
            totals[self.layers[stats.layer]] += stats.entries
        return totals

    def class_self(self, class_name: str) -> float:
        """Self seconds of every wrapped method of one class."""
        prefix = class_name + "."
        return sum(s.self_s for s in self.functions if s.name.startswith(prefix))
