"""Outside-in tracing: wrappers around the simulator's public entry points.

Nothing in ``src/`` knows it is being traced.  :class:`Tracer` replaces
public functions and methods of the ``repro`` modules with wrappers
(through a :class:`Patcher`, which puts the originals back) and records:

* **spans** -- a wrapper that times its call is a span: name, start,
  duration, and the span it ran inside.  Self time is the duration
  minus the time its child spans cover.  ``Simulator.run`` is the root
  span; every callback handed to ``Simulator.schedule``/``schedule_at``/
  ``call_every`` (and every completion callback handed to a pool or
  flow) becomes a span owned by the module and class that defined the
  callback, so periodic work lands on DRM, IPS, services and
  speculation rather than on the engine's recurrence closure;
* **counts** -- calls of each wrapped entry point, plus a size where the
  layer's work depends on one (entries per water-fill, flows per fill).

Two installs exist because counting wrappers on hot accessors
(``free_map_slots``, ``DataNode.committed_mb``) would distort the very
self times the spans measure: ``install(counting=False)`` sets only the
span and callback-owner wrappers (the timing passes), and
``install(counting=True)`` adds every counter (the counting passes,
whose counts are deterministic).

An entry point that no longer exists is recorded in :attr:`missing`
and its metrics read 0; the trace never crashes on it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

_ABSENT = object()

#: layers that tile the traced ``Simulator.run`` wall, in report order
LAYERS = ("engine", "pool", "vm", "net", "mr", "hdfs", "core", "svc", "other")

#: module prefix -> layer; first match wins (``repro.interactive.sla`` is
#: the IPS's sensor, so it sits with the controllers)
_MODULE_LAYERS = (
    ("repro.sim.engine", "engine"),
    ("repro.sim.pool", "pool"),
    ("repro.virt.vm", "vm"),
    ("repro.cluster.machine", "vm"),
    ("repro.sim.network", "net"),
    ("repro.mapreduce", "mr"),
    ("repro.hdfs", "hdfs"),
    ("repro.core", "core"),
    ("repro.interactive.sla", "core"),
    ("repro.interactive", "svc"),
)


def layer_of(module: str) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class Patcher:
    """Sets attributes and remembers the originals for :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, vars(owner).get(name, _ABSENT)))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, old in reversed(self._saved):
            if old is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, old)
        self._saved.clear()


def _owner_of(callback) -> Tuple[str, str]:
    """``(module, owner)`` of a callback: the defining module and the
    first component of its qualified name (the class for methods and
    closures defined in methods)."""
    func = getattr(callback, "__func__", callback)
    func = getattr(func, "func", func)  # functools.partial
    module = getattr(func, "__module__", None) or "unknown"
    qualname = getattr(func, "__qualname__", None) or type(callback).__name__
    return module, qualname.split(".", 1)[0]


class Tracer:
    """Spans and counters gathered through outside-in wrappers."""

    def __init__(self) -> None:
        self.patcher = Patcher()
        self.missing: List[str] = []
        self.reset()

    # ------------------------------------------------------------------
    # per-pass state
    # ------------------------------------------------------------------
    def reset(self) -> None:
        #: key -> [calls, self seconds, summed size]
        self.acc: Dict[str, list] = {}
        #: layer -> self seconds inside Simulator.run
        self.layer_self: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        #: span name id -> (key, layer)
        self.names: List[Tuple[str, str]] = []
        self._name_ids: Dict[str, int] = {}
        #: (name id, start, duration, parent span index or -1)
        self.spans: List[Optional[tuple]] = []
        self._stack: List[list] = []
        self._run_depth = 0
        #: wall seconds inside Simulator.run, timed outside the root span
        self.run_wall = 0.0
        self._owners: Dict[object, Tuple[str, str]] = {}

    def _slot(self, key: str) -> list:
        slot = self.acc.get(key)
        if slot is None:
            slot = self.acc[key] = [0, 0.0, 0]
        return slot

    def calls(self, key: str) -> int:
        return self.acc.get(key, (0, 0.0, 0))[0]

    def self_s(self, key: str) -> float:
        return self.acc.get(key, (0, 0.0, 0))[1]

    def size(self, key: str) -> int:
        return self.acc.get(key, (0, 0.0, 0))[2]

    # ------------------------------------------------------------------
    # wrapper factories
    # ------------------------------------------------------------------
    def _timed(self, key: str, layer: str, fn: Callable,
               size: Optional[Callable] = None) -> Callable:
        tracer = self

        def span(*args, **kwargs):
            slot = tracer._slot(key)
            if size is not None:
                slot[2] += size(args, kwargs)
            stack = tracer._stack
            spans = tracer.spans
            parent = stack[-1][1] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                own = duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                slot[0] += 1
                slot[1] += own
                if tracer._run_depth:
                    tracer.layer_self[layer] += own
                name_id = tracer._name_ids.get(key)
                if name_id is None:
                    name_id = tracer._name_ids[key] = len(tracer.names)
                    tracer.names.append((key, layer))
                spans[index] = (name_id, start, duration, parent)

        return span

    def _counted(self, key: str, fn: Callable,
                 pred: Optional[Callable] = None) -> Callable:
        tracer = self
        if pred is None:
            def counted(*args, **kwargs):
                tracer._slot(key)[0] += 1
                return fn(*args, **kwargs)
        else:
            def counted(*args, **kwargs):
                if pred(args):
                    tracer._slot(key)[0] += 1
                return fn(*args, **kwargs)
        return counted

    def own(self, callback, kind: str):
        """Wrap ``callback`` in a span keyed by its owner module/class."""
        if callback is None or getattr(callback, "_perfbench_owned", False):
            return callback
        func = getattr(callback, "__func__", callback)
        cache_key = getattr(func, "__code__", func)
        owner = self._owners.get(cache_key)
        if owner is None:
            owner = self._owners[cache_key] = _owner_of(callback)
        module, cls = owner
        wrapped = self._timed(f"{kind}:{module}:{cls}", layer_of(module), callback)
        wrapped._perfbench_owned = True
        return wrapped

    # ------------------------------------------------------------------
    # installing hooks
    # ------------------------------------------------------------------
    def _resolve(self, module_name: str, path: str):
        """``(owner, attr, raw)`` for ``module.path`` or None if gone."""
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            owner = None
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None) if owner is not None else None
        if owner is None or attr not in vars(owner):
            self.missing.append(f"{module_name}.{path}")
            return None
        return owner, attr, vars(owner)[attr]

    def hook(self, module_name: str, path: str, key: str, *,
             layer: Optional[str] = None, arg: Optional[Tuple[str, str]] = None,
             size: Optional[Callable] = None,
             pred: Optional[Callable] = None) -> None:
        """Wrap ``module.path``: a span when ``layer`` is given, else a
        counter; ``arg=(param, kind)`` hands that callback parameter to
        :meth:`own` first.  Methods, properties, classmethods and module
        functions (also where other ``repro`` modules imported them by
        name) are handled."""
        found = self._resolve(module_name, path)
        if found is None:
            return
        owner, attr, raw = found
        if isinstance(raw, property):
            fn = raw.fget
        elif isinstance(raw, classmethod):
            fn = raw.__func__
        else:
            fn = raw
        if arg is not None:
            param, kind = arg
            params = list(inspect.signature(fn).parameters)
            if param not in params:
                self.missing.append(f"{module_name}.{path}({param})")
                return
            fn = self._owning(fn, params.index(param), param, kind)
        if layer is not None:
            new = self._timed(key, layer, fn, size)
        else:
            new = self._counted(key, fn, pred)
        functools.update_wrapper(new, fn)
        if isinstance(raw, property):
            new = property(new, raw.fset, raw.fdel, raw.__doc__)
        elif isinstance(raw, classmethod):
            new = classmethod(new)
        self.patcher.set(owner, attr, new)
        if inspect.ismodule(owner):
            for name, module in list(sys.modules.items()):
                if (name.startswith("repro.") and module is not owner
                        and vars(module).get(attr) is raw):
                    self.patcher.set(module, attr, new)

    def _owning(self, fn: Callable, position: int, param: str, kind: str):
        own = self.own

        def owning(*args, **kwargs):
            if len(args) > position:
                args = (*args[:position], own(args[position], kind),
                        *args[position + 1:])
            elif param in kwargs:
                kwargs[param] = own(kwargs[param], kind)
            return fn(*args, **kwargs)

        return owning

    def install(self, counting: bool) -> None:
        """Install the span hooks, plus every counter when ``counting``."""
        self.missing = []
        hook = self.hook
        engine = "repro.sim.engine"
        hook(engine, "Simulator.run", "engine.run", layer="engine")
        root = vars(sys.modules[engine].Simulator).get("run")
        if root is not None:
            sim_cls = sys.modules[engine].Simulator
            tracer = self

            def run(*args, **kwargs):
                tracer._run_depth += 1
                start = perf_counter()
                try:
                    return root(*args, **kwargs)
                finally:
                    tracer.run_wall += perf_counter() - start
                    tracer._run_depth -= 1

            self.patcher.set(sim_cls, "run", run)
        hook(engine, "Simulator.schedule", "engine.schedule_call",
             arg=("callback", "ev"))
        hook(engine, "Simulator.schedule_at", "engine.schedule_at_call",
             arg=("callback", "ev"))
        hook(engine, "Simulator.call_every", "engine.call_every_call",
             arg=("callback", "ev"))
        hook("repro.sim.pool", "waterfill", "pool.waterfill", layer="pool",
             size=lambda a, k: len(a[1]) if len(a) > 1 else len(k["weights"]))
        hook("repro.sim.network", "maxmin_fill", "net.fill", layer="net",
             size=lambda a, k: len(a[0]) if a else len(k["flows"]))
        hook("repro.cluster.machine", "ExecutionContext.refresh_entries",
             "vm.refresh", layer="vm")
        hook("repro.virt.vm", "VirtualMachine.refresh_entries",
             "vm.refresh", layer="vm")
        hook("repro.cluster.machine", "ExecutionContext.run_cpu", "ctx.work",
             arg=("on_complete", "done"))
        hook("repro.cluster.machine", "ExecutionContext.run_disk", "ctx.work",
             arg=("on_complete", "done"))
        hook("repro.sim.network", "NetworkFabric.start_flow", "net.start",
             arg=("on_complete", "done"))
        hook("repro.hdfs.namenode", "NameNode.choose_targets", "nn.place",
             layer="hdfs")
        hook("repro.hdfs.filesystem", "HDFS.preload_file", "hdfs.preload",
             layer="hdfs")
        for shape in ("native", "virtual", "hybrid"):
            hook("repro.cluster.cluster", f"Cluster.{shape}", "setup.cluster",
                 layer="other")
        hook("repro.mapreduce.cluster", "MapReduceCluster.__init__",
             "setup.mr", layer="other")
        if not counting:
            return
        hook(engine, "Event.__init__", "engine.scheduled")
        hook(engine, "Event.cancel", "engine.cancelled",
             pred=lambda a: not a[0].cancelled)
        pool = "repro.sim.pool"
        hook(pool, "ResourcePool.add", "pool.add")
        hook(pool, "ResourcePool.remove", "pool.remove")
        hook(pool, "ResourcePool.begin_batch", "pool.batch")
        for setter in ("set_cap", "set_weight", "set_efficiency"):
            hook(pool, f"PoolEntry.{setter}", "pool.entry_update")
        hook("repro.virt.vm", "VirtualMachine.update_requested_cap", "vm.cap_update")
        hook("repro.virt.vm", "VirtualMachine.update_requested_caps", "vm.cap_update")
        hook("repro.sim.network", "NetworkFabric.cancel_flow", "net.cancel")
        hook("repro.sim.network", "NetworkFabric.begin_batch", "net.batch")
        tracker = "repro.mapreduce.tracker"
        hook(tracker, "TaskTracker.assign", "jt.assign")
        hook(tracker, "TaskTracker.free_map_slots", "jt.probe")
        hook(tracker, "TaskTracker.free_reduce_slots", "jt.probe")
        hook("repro.hdfs.namenode", "NameNode.replica_holders", "jt.replica_lookup")
        hook("repro.hdfs.datanode", "DataNode.committed_mb", "nn.dn_read")
        hook("repro.hdfs.datanode", "DataNode.read_block", "hdfs.read")
        hook("repro.hdfs.filesystem", "HDFS.create_file", "hdfs.write")
        hook("repro.core.drm", "LocalResourceManager.sample", "drm.sample")
        hook("repro.core.drm", "LocalResourceManager.refresh_models", "drm.refresh")
        hook("repro.core.placement", "PhaseOneScheduler.place_batch", "sched.place")
        hook("repro.interactive.service", "solve_closed_loop_latency", "svc.solve")

    def uninstall(self) -> None:
        self.patcher.restore()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def owner_totals(self, kind: str, module: str, *classes: str) -> Tuple[int, float]:
        """Calls and self seconds of ``kind`` callbacks owned by ``classes``."""
        calls, own = 0, 0.0
        for cls in classes:
            slot = self.acc.get(f"{kind}:{module}:{cls}")
            if slot is not None:
                calls += slot[0]
                own += slot[1]
        return calls, own

    def module_self(self) -> Dict[str, float]:
        """Self seconds per span key (for the report)."""
        return {key: slot[1] for key, slot in self.acc.items() if slot[1] > 0.0}

    def chrome_trace(self) -> dict:
        """The recorded spans as a Chrome trace-event document."""
        if not self.spans:
            return {"traceEvents": []}
        origin = min(s[1] for s in self.spans if s is not None)
        events = []
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name_id, start, duration, parent = span
            name, layer = self.names[name_id]
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) * 1e6, "dur": duration * 1e6,
                "args": {"span": index, "parent": parent, "layer": layer},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
