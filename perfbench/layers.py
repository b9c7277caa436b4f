"""Span tracing from outside the program, and per-layer self time.

:class:`SpanTracer` is a :class:`repro.obs.tracing.Tracer` installed as the
process-wide tracer, so the program's own spans (``setup.network``,
``kernel.run``, ``group.run``, ``cache.get``/``cache.put``,
``chunk.flush``) land in it.  :func:`install_layer_spans` adds the
benchmark's spans by wrapping the public call into each layer.  Spans are
kept in memory with nanosecond bounds and their parent, and exported only
when the run ends.

A span's self time is its duration minus the time its direct children
cover.  The process runs one thread, so children nest inside their parent
and never overlap, and the self times of all spans under the root add up
to the root's duration exactly.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

from repro.obs.tracing import SpanRecord, Tracer

#: Layer of each span name (by prefix); anything else is the engine's.
LAYER_OF_PREFIX = (
    ("core.", "core"),
    ("traffic.", "traffic"),
    ("routing.", "routing"),
    ("sim.", "sim"),
    ("setup.network", "sim"),
    ("kernel.run", "sim"),
    ("group.run", "sim"),
)
LAYERS = ("core", "traffic", "routing", "sim", "exec")
ROOT = "workload"


def layer_of(name: str) -> str:
    for prefix, layer in LAYER_OF_PREFIX:
        if name.startswith(prefix):
            return layer
    return "exec"


class _Span:
    __slots__ = ("_tracer", "name", "index", "args")

    def __init__(self, tracer: "SpanTracer", name: str, args: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args
        self.index = -1

    def __enter__(self) -> "_Span":
        self.index = self._tracer._open(self.name, self.args)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.args["error"] = exc_type.__name__
        self._tracer._close(self.index)


class SpanTracer(Tracer):
    """A repro.obs tracer that keeps every span in memory (ns, with parent)."""

    def __init__(self) -> None:
        super().__init__()
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.args: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    def span(self, name: str, **attrs: Any) -> _Span:
        return _Span(self, name, attrs)

    def _open(self, name: str, args: Dict[str, Any]) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.args.append(args)
        self.ends.append(-1)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        if self._stack and self._stack[-1] == index:
            self._stack.pop()
        else:  # pragma: no cover - spans close in LIFO order in one thread
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    def records(self) -> List[SpanRecord]:
        """Completed spans as :class:`SpanRecord` (for Chrome-trace export)."""
        depth: List[int] = []
        out = []
        for i, name in enumerate(self.names):
            parent = self.parents[i]
            depth.append(0 if parent < 0 else depth[parent] + 1)
            if self.ends[i] < 0:
                continue
            out.append(
                SpanRecord(
                    name=name,
                    ts_us=(self.starts[i] - self._epoch_ns) // 1000,
                    dur_us=(self.ends[i] - self.starts[i]) // 1000,
                    pid=self._pid,
                    tid=0,
                    depth=depth[i],
                    args=dict(self.args[i]),
                )
            )
        return out


def self_times(
    names: List[str], starts: List[int], ends: List[int], parents: List[int]
) -> List[int]:
    """Per-span self time: duration minus the duration of direct children."""
    self_ns = [end - start for start, end in zip(starts, ends)]
    for i, parent in enumerate(parents):
        if parent >= 0:
            self_ns[parent] -= ends[i] - starts[i]
    return self_ns


def layer_self_seconds(tracer: SpanTracer) -> Dict[str, float]:
    """Self time per layer, in seconds, over every completed span."""
    own = self_times(tracer.names, tracer.starts, tracer.ends, tracer.parents)
    totals = {layer: 0 for layer in LAYERS}
    for name, value in zip(tracer.names, own):
        totals[layer_of(name)] += value
    return {layer: ns / 1e9 for layer, ns in totals.items()}


def span_totals(tracer: SpanTracer) -> Dict[str, Dict[str, float]]:
    """Count and inclusive seconds per span name."""
    totals: Dict[str, Dict[str, float]] = {}
    for name, start, end in zip(tracer.names, tracer.starts, tracer.ends):
        entry = totals.setdefault(name, {"count": 0, "s": 0.0})
        entry["count"] += 1
        entry["s"] += (end - start) / 1e9
    return totals


# ---------------------------------------------------------------------- #
# Wrapping the public call into each layer
# ---------------------------------------------------------------------- #
def _wrap(function: Callable, name: str, tracer: SpanTracer,
          on_result: Optional[Callable[[Any, Dict[str, Any]], None]] = None) -> Callable:
    def wrapped(*args, **kwargs):
        with tracer.span(name) as record:
            result = function(*args, **kwargs)
            if on_result is not None:
                on_result(result, record.args)
            return result

    wrapped.__wrapped__ = function
    wrapped.__name__ = getattr(function, "__name__", name)
    return wrapped


def _patch(owner: Any, attribute: str, name: str, tracer: SpanTracer, on_result=None) -> None:
    setattr(owner, attribute, _wrap(getattr(owner, attribute), name, tracer, on_result))


def _all_subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


def _optimizer_classes() -> List[type]:
    """Every registered optimizer class that defines its own ``search``."""
    from repro.core.optimizers import SubsetOptimizer

    return [cls for cls in _all_subclasses(SubsetOptimizer) if "search" in vars(cls)]


def _record_evaluations(result: Any, args: Dict[str, Any]) -> None:
    args["evaluations"] = int(getattr(result, "evaluations", 0))


def _record_design_hit(result: Any, args: Dict[str, Any]) -> None:
    args["hit"] = result is not None


def _record_sim(result: Any, args: Dict[str, Any]) -> None:
    results = result if isinstance(result, list) else [result]
    cycles = hops = 0
    for item in results:
        stats = item.stats
        cycles += item.warmup_cycles + item.measurement_cycles + item.drain_cycles_used
        hops += stats.horizontal_link_traversals + stats.vertical_link_traversals
    args["cycles"] = cycles
    args["flit_hops"] = hops


def install_layer_spans(tracer: SpanTracer) -> None:
    """Wrap the public calls into each layer with the benchmark's spans."""
    import repro.analysis.runner as runner
    import repro.core.pipeline as pipeline
    import repro.exec.batch as batch
    import repro.sim.backends.batched as batched
    from repro.core.objectives import ObjectiveEvaluator
    from repro.exec.cache import DiskDesignCache
    from repro.routing.base import ElevatorSelectionPolicy
    from repro.service.store import SqliteDesignCache
    from repro.sim.engine import Simulator

    for module in (runner, pipeline):
        _patch(module, "optimize_elevator_subsets", "core.design", tracer)
    _patch(ObjectiveEvaluator, "__init__", "core.precompute", tracer)
    for cls in _optimizer_classes():
        _patch(cls, "search", "core.search", tracer, _record_evaluations)
    for module in (batch, runner):
        _patch(module, "build_network", "sim.network_build", tracer)
        _patch(module, "build_packet_source", "traffic.source_build", tracer)
    _patch(Simulator, "run", "sim.kernel", tracer, _record_sim)
    _patch(batched, "run_replica_group", "sim.kernel", tracer, _record_sim)
    _patch(ElevatorSelectionPolicy, "select_elevator", "routing.select", tracer)
    for cls in (DiskDesignCache, SqliteDesignCache):
        _patch(cls, "get", "cache.design_get", tracer, _record_design_hit)
        _patch(cls, "put", "cache.design_put", tracer)


def install_first_call_hook(workload: str, on_first: Callable[[], None]) -> None:
    """Call ``on_first`` once, at the first kernel call (first search for
    ``offline_design``): the end of set-up."""
    fired = []

    def hook(function: Callable) -> Callable:
        def wrapped(*args, **kwargs):
            if not fired:
                fired.append(True)
                on_first()
            return function(*args, **kwargs)

        wrapped.__wrapped__ = function
        return wrapped

    if workload == "offline_design":
        for cls in _optimizer_classes():
            cls.search = hook(cls.search)
        return
    import repro.sim.backends.batched as batched
    from repro.sim.engine import Simulator

    Simulator.run = hook(Simulator.run)
    batched.run_replica_group = hook(batched.run_replica_group)


def layer_metrics(tracer: SpanTracer, wall_s: float) -> Dict[str, float]:
    """Per-layer counts and times of one traced workload run."""
    totals = span_totals(tracer)
    own = layer_self_seconds(tracer)

    def count(name: str) -> int:
        return int(totals.get(name, {}).get("count", 0))

    def seconds(*names: str) -> float:
        return sum(totals.get(name, {}).get("s", 0.0) for name in names)

    def arg_sum(name: str, key: str) -> float:
        return sum(
            args.get(key, 0) for span_name, args in zip(tracer.names, tracer.args)
            if span_name == name
        )

    gets = [a for n, a in zip(tracer.names, tracer.args) if n in ("cache.get", "cache.design_get")]
    hits = sum(1 for a in gets if a.get("hit"))
    designs = count("core.design")
    evaluations = arg_sum("core.search", "evaluations")
    search_s = seconds("core.search")
    kernel_s = seconds("sim.kernel")
    flit_hops = arg_sum("sim.kernel", "flit_hops")
    return {
        "core.designs_run": designs,
        "core.design_s": seconds("core.design"),
        "core.precompute_calls": count("core.precompute"),
        "core.precompute_s": seconds("core.precompute"),
        "core.precompute_per_design": count("core.precompute") / designs if designs else 0.0,
        "core.search_s": search_s,
        "core.evaluations": evaluations,
        "core.evaluations_per_s": evaluations / search_s if search_s > 0 else 0.0,
        "core.self_s": own["core"],
        "traffic.source_builds": count("traffic.source_build"),
        "traffic.source_build_s": seconds("traffic.source_build"),
        "traffic.self_s": own["traffic"],
        "routing.selections": count("routing.select"),
        "routing.select_s": seconds("routing.select"),
        "routing.self_s": own["routing"],
        "sim.network_builds": count("sim.network_build"),
        "sim.network_build_s": seconds("sim.network_build"),
        "sim.kernel_calls": count("sim.kernel"),
        "sim.kernel_s": kernel_s,
        "sim.kernel_share": kernel_s / wall_s if wall_s > 0 else 0.0,
        "sim.cycles": arg_sum("sim.kernel", "cycles"),
        "sim.flit_hops": flit_hops,
        "sim.flit_hops_per_s": flit_hops / kernel_s if kernel_s > 0 else 0.0,
        "sim.self_s": own["sim"],
        "exec.cache_gets": len(gets),
        "exec.cache_get_s": seconds("cache.get", "cache.design_get"),
        "exec.cache_puts": count("cache.put") + count("cache.design_put"),
        "exec.cache_put_s": seconds("cache.put", "cache.design_put"),
        "exec.cache_hit_ratio": hits / len(gets) if gets else 0.0,
        "exec.self_s": own["exec"],
    }
