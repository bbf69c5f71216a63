"""Outside-in layer trace of the join service.

:class:`LayerTracer` wraps public entry points of the program from the
benchmark's own code -- nothing inside ``src/`` is instrumented.  Each
wrapper is installed at every name a caller looks up: a module-level
function is replaced in every loaded ``repro`` module whose globals bind
it (``from .distributions import hypergeom_pmf`` makes a second binding),
and a method is replaced on the class that defines it.  :meth:`uninstall`
puts every original object back.

A *span* records its layer, start, end and the span that caused it (the
enclosing span on the same thread).  A call into a layer from inside the
same layer is not a new span, so a layer's span count is the number of
calls into it from outside.  Self time is a span's duration minus the
time its child spans cover.  *Counters* only count calls (and, through a
hook, what a call did).

Only one request is in flight at a time (one closed-loop client), so a
span with no parent on its thread belongs to the request being served.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: modules whose public functions and class methods form the models layer
MODEL_MODULES = (
    "repro.models.distributions",
    "repro.models.generating",
    "repro.models.kernels",
)

#: (layer, module, attribute path) of every spanned entry point
SPANNED: Tuple[Tuple[str, str, str], ...] = (
    ("store.fingerprint", "repro.service.store", "corpus_fingerprint"),
    ("store.read", "repro.service.shards", "ShardedStatisticsStore.warm_start_for"),
    ("store.read", "repro.service.shards", "ShardedStatisticsStore.curves_for"),
    ("store.read", "repro.service.shards", "ShardedStatisticsStore.task_record"),
    ("store.read", "repro.service.shards", "ShardedStatisticsStore.side_parameters"),
    ("store.write", "repro.service.shards", "ShardedStatisticsStore.save"),
    ("store.write", "repro.service.shards", "ShardedStatisticsStore.record_curves"),
    ("store.write", "repro.service.shards", "ShardedStatisticsStore.record_run"),
    ("optimizer", "repro.optimizer.optimizer", "JoinOptimizer.__init__"),
    ("optimizer", "repro.optimizer.optimizer", "JoinOptimizer.optimize"),
    ("estimation", "repro.estimation.online", "estimate_side"),
    ("estimation", "repro.estimation.online", "estimate_overlap"),
    ("adaptive", "repro.optimizer.adaptive", "AdaptiveJoinExecutor.run"),
    ("joins.idjn", "repro.joins.idjn", "IndependentJoin.run"),
    ("joins.oijn", "repro.joins.oijn", "OuterInnerJoin.run"),
    ("joins.zgjn", "repro.joins.zgjn", "ZigZagJoin.run"),
    ("extraction", "repro.extraction.snowball", "SnowballExtractor.extract"),
    ("planner", "repro.planner.planner", "MultiwayPlanner.optimize"),
    ("multiway", "repro.multiway.executor", "MultiwayIndependentJoin.run"),
    ("observability", "repro.observability.events", "FlightRecorder.record"),
    ("observability", "repro.observability.slo", "SLOTracker.observe"),
    ("observability", "repro.observability.metrics", "MetricsRegistry.merge"),
)

#: (counter, module, attribute path) of every counted-only entry point
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("store.fsyncs", "os", "fsync"),
    ("textdb.searches", "repro.textdb.database", "TextDatabase.search"),
    ("optimizer.curve_builds", "repro.optimizer.engine", "PlanEvaluationEngine.curve"),
)


@dataclass
class Span:
    layer: str
    start: float
    parent: Optional["Span"]
    end: float = 0.0
    #: summed duration of the direct child spans
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class _Patch:
    owner: Any
    name: str
    original: Any
    #: True when ``original`` sat in ``owner.__dict__`` (else inherited)
    own: bool


@dataclass
class LayerTracer:
    """Installs layer wrappers, records spans and counters."""

    clock: Callable[[], float] = time.perf_counter
    spans: List[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _patches: List[_Patch] = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    #: per executor object: documents reported by its latest run() call
    #: (executors are resumable, so reports are cumulative per object)
    documents: Dict[Tuple[str, int], int] = field(default_factory=dict)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point (once per tracer)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, module, path in SPANNED:
            self._wrap(module, path, self._spanned(layer, _HOOKS.get(path)))
        for module_name in MODEL_MODULES:
            for path in public_entry_points(module_name):
                self._wrap(module_name, path, self._spanned("models"))
        for counter, module, path in COUNTED:
            self._wrap(module, path, self._counted(counter, _HOOKS.get(path)))

    def uninstall(self) -> None:
        """Restore every wrapped attribute to its original object."""
        while self._patches:
            patch = self._patches.pop()
            if patch.own:
                setattr(patch.owner, patch.name, patch.original)
            else:
                delattr(patch.owner, patch.name)

    def _wrap(self, module_name: str, path: str, make: Callable) -> None:
        module = importlib.import_module(module_name)
        if "." not in path:
            original = getattr(module, path)
            wrapper = make(original)
            # Every module that bound the function by name calls it
            # through its own globals: replace each binding.
            for name, loaded in list(sys.modules.items()):
                if loaded is not module and not name.startswith("repro"):
                    continue
                namespace = getattr(loaded, "__dict__", {})
                for attr, value in list(namespace.items()):
                    if value is original:
                        self._patches.append(_Patch(loaded, attr, value, True))
                        setattr(loaded, attr, wrapper)
            return
        class_name, attr = path.split(".")
        cls = getattr(module, class_name)
        raw = inspect.getattr_static(cls, attr)
        own = attr in cls.__dict__
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._patches.append(_Patch(cls, attr, raw, own))
        setattr(cls, attr, wrapped)

    # -- wrappers -----------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _spanned(self, layer: str, hook: Optional["_Hook"] = None):
        tracer = self

        def make(function: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                stack = tracer._stack()
                if stack and stack[-1].layer == layer:
                    return function(*args, **kwargs)
                state = hook.before(args) if hook is not None else None
                span = Span(layer, 0.0, stack[-1] if stack else None)
                stack.append(span)
                span.start = tracer.clock()
                try:
                    result = function(*args, **kwargs)
                finally:
                    span.end = tracer.clock()
                    stack.pop()
                    if span.parent is not None:
                        span.parent.child_s += span.duration
                    tracer.spans.append(span)
                if hook is not None:
                    hook.after(tracer, args, state, result)
                return result

            return functools.update_wrapper(wrapper, function)

        return make

    def _counted(self, counter: str, hook: Optional["_Hook"] = None):
        tracer = self

        def make(function: Callable) -> Callable:
            # Here a hook's ``before`` decides whether the call counts.
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if hook is not None and not hook.before(args):
                    return function(*args, **kwargs)
                tracer.counts[counter] += 1
                return function(*args, **kwargs)

            return functools.update_wrapper(wrapper, function)

        return make

    # -- reading ------------------------------------------------------------

    def take(self) -> Tuple[List[Span], Counter, Dict[Tuple[str, int], int]]:
        """Hand over and reset everything recorded since the last take."""
        spans, counts, documents = self.spans, self.counts, self.documents
        self.spans, self.counts, self.documents = [], Counter(), {}
        return spans, counts, documents


class _Hook:
    """Per-entry-point extra accounting: ``before`` state, ``after`` count."""

    def before(self, args: Tuple[Any, ...]) -> Any:
        return None

    def after(
        self, tracer: LayerTracer, args: Tuple[Any, ...], state: Any, result: Any
    ) -> None:
        pass


class _Pruning(_Hook):
    """JoinOptimizer.optimize: plans pruned out of plans considered."""

    def before(self, args):
        return args[0].pruning.plans_pruned

    def after(self, tracer, args, state, result):
        tracer.counts["optimizer.plans"] += len(args[1])
        tracer.counts["optimizer.plans_pruned"] += (
            args[0].pruning.plans_pruned - state
        )


class _PlannerTallies(_Hook):
    """MultiwayPlanner.optimize: subplans pruned out of subplans seen."""

    def after(self, tracer, args, state, result):
        tallies = result.tallies
        tracer.counts["planner.subplans"] += tallies.subplans_total
        tracer.counts["planner.subplans_pruned"] += tallies.subplans_pruned_bound


class _Documents(_Hook):
    """Executor run(): the documents its cumulative report has processed."""

    def __init__(self, kind: str) -> None:
        self.kind = kind

    def after(self, tracer, args, state, result):
        processed = result.report.documents_processed
        tracer.documents[(self.kind, id(args[0]))] = sum(processed.values())


class _CurveBuild(_Hook):
    """PlanEvaluationEngine.curve: count only calls that build a curve."""

    def before(self, args):
        return args[0].cached_curve(args[1]) is None


_HOOKS: Dict[str, _Hook] = {
    "JoinOptimizer.optimize": _Pruning(),
    "MultiwayPlanner.optimize": _PlannerTallies(),
    "IndependentJoin.run": _Documents("joins"),
    "OuterInnerJoin.run": _Documents("joins"),
    "ZigZagJoin.run": _Documents("joins"),
    "MultiwayIndependentJoin.run": _Documents("multiway"),
    "PlanEvaluationEngine.curve": _CurveBuild(),
}


def public_entry_points(module_name: str) -> List[str]:
    """Public functions and public methods of classes defined in a module."""
    module = importlib.import_module(module_name)
    paths: List[str] = []
    for name, value in vars(module).items():
        if name.startswith("_") or getattr(value, "__module__", None) != module_name:
            continue
        if inspect.isclass(value):
            for attr, member in vars(value).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)) or inspect.isfunction(member):
                    paths.append(f"{name}.{attr}")
        elif callable(value):
            paths.append(name)
    return paths
