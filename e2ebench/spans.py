"""Per-layer span timing, installed from outside the program.

The tracer wraps the public entry points of each pipeline layer by
module attribute: every ``repro.*`` module (and class) that binds the
original function gets the wrapper, so both ``from x import f`` callers
and lazy ``from .x import f`` imports inside functions are covered
without touching ``src/``.  Wrappers keep only a stack of open spans and
running sums — no per-call records — so even per-task hooks such as the
trace writer's ``write_task`` stay cheap.

A span's *self time* is its duration minus the time its direct child
spans cover; each layer's self time is summed over its spans.  Since
every covered instant belongs to exactly one innermost span, the layer
self times add up to the total time of the outermost spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

#: (module, attribute, layer).  ``Class.method`` attributes are patched on
#: the class; ``TaskGraph.columns`` is a property and is wrapped as one.
TARGETS = [
    ("repro.patterns.library", "best_pattern", "patterns"),
    ("repro.patterns.library", "shipped_pattern", "patterns"),
    ("repro.patterns.gcrm", "gcrm_search", "patterns"),
    ("repro.patterns.g2dbc", "g2dbc", "patterns"),
    ("repro.patterns.sbc", "sbc", "patterns"),
    ("repro.dla.lu", "build_lu_graph", "dla"),
    ("repro.dla.cholesky", "build_cholesky_graph", "dla"),
    ("repro.runtime.graph", "TaskGraph.columns", "graph"),
    ("repro.runtime.simplan", "get_plan", "simplan"),
    ("repro.runtime.simplan", "build_plan", "simplan"),
    ("repro.runtime.simulator", "simulate", "simulator.python"),
    ("repro.runtime.faults", "simulate_with_faults", "faults"),
    ("repro.runtime.resize", "simulate_with_resize", "resize"),
    ("repro.cost.exact", "count_lu_messages", "exact"),
    ("repro.cost.exact", "count_cholesky_messages", "exact"),
    ("repro.runtime.analysis", "makespan_bounds", "analysis"),
    ("repro.cost.schedbounds", "schedule_lower_bounds", "schedbounds"),
    ("repro.runtime.trace", "ExecutionTrace.summary", "stats"),
    ("repro.runtime.stats", "comm_breakdown", "stats"),
    ("repro.runtime.tracefmt", "ChromeTraceWriter.write_task", "tracefmt"),
    ("repro.runtime.tracefmt", "ChromeTraceWriter.write_msg", "tracefmt"),
    ("repro.runtime.tracefmt", "ChromeTraceWriter.write_fault", "tracefmt"),
    ("repro.runtime.tracefmt", "ChromeTraceWriter.write_resize", "tracefmt"),
    ("repro.runtime.tracefmt", "ChromeTraceWriter.flush", "tracefmt"),
    ("repro.runtime.tracefmt", "ChromeTraceWriter.close", "tracefmt"),
    ("repro.experiments.campaign", "run_campaign", "campaign"),
    ("repro.experiments.campaign", "_eval_cell", "campaign"),
]


class Tracer:
    """Stack-based span accounting over the wrapped entry points."""

    def __init__(self) -> None:
        self.self_s = defaultdict(float)   #: layer -> summed self time
        self.calls = Counter()             #: attribute -> calls
        self.outer_calls = Counter()       #: layer -> calls not nested in it
        self.top_s = 0.0                   #: summed outermost span time
        self.cell_s = []                   #: per-campaign-cell durations
        self.outer_sims = []               #: traces of outermost simulate calls
        self.loop_tasks = 0                #: tasks run by a simulator loop
        self.built_tasks = 0               #: tasks built by dla builders
        self.resize_nested_sims = 0        #: simulate calls inside a resize
        self.writers = []                  #: closed trace writers
        self._stack = []                   #: open frames [child_s, dispatched]
        self._depth = Counter()            #: layer -> open spans
        self._patches = []                 #: (owner, attribute, original)

    # ------------------------------------------------------------------
    def wrap(self, fn, layer: str, attr: str):
        """Return ``fn`` wrapped in a span of ``layer``.

        The wrapper is on per-task paths (``write_task``,
        ``TaskGraph.columns``), so it does only constant work.
        """
        stack, depth = self._stack, self._depth
        self_s, calls, outer = self.self_s, self.calls, self.outer_calls
        clock = time.perf_counter
        dispatches = layer in ("faults", "resize")
        after = {"simulate": self._after_simulate,
                 "build_lu_graph": self._after_build,
                 "build_cholesky_graph": self._after_build,
                 "_eval_cell": self._after_cell,
                 "ChromeTraceWriter.close": self._after_close}.get(attr)
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0, False]
            stack.append(frame)
            depth[layer] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                depth[layer] -= 1
                self_s[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                    if dispatches:
                        stack[-1][1] = True
                else:
                    tracer.top_s += dur
            calls[attr] += 1
            if not depth[layer]:
                outer[layer] += 1
            if after is not None:
                after(args, result, dur, frame)
            return result

        return span

    def _after_simulate(self, args, trace, dur, frame) -> None:
        depth = self._depth
        if depth["resize"]:
            self.resize_nested_sims += 1
        if not frame[1]:  # ran its own loop, not faults/resize
            self.loop_tasks += trace.n_tasks
        if not (depth["simulator.python"] or depth["resize"]
                or depth["faults"]):
            self.outer_sims.append(trace)

    def _after_build(self, args, result, dur, frame) -> None:
        self.built_tasks += len(result[0])

    def _after_cell(self, args, result, dur, frame) -> None:
        self.cell_s.append(dur)

    def _after_close(self, args, result, dur, frame) -> None:
        self.writers.append(args[0])

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every binding of each target inside the ``repro`` package."""
        for modname, attr, layer in TARGETS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                if isinstance(original, property):
                    wrapped = property(self.wrap(original.fget, layer, attr))
                else:
                    wrapped = self.wrap(original, layer, attr)
                self._patch(cls, meth, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, layer, attr)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name != "repro" and not name.startswith("repro."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
        # the compiled kernel is reached through the backend selector the
        # simulator imported; wrap the runner it hands out
        sim = importlib.import_module("repro.runtime.simulator")
        select = sim.select_backend

        def traced_select():
            name, runner = select()
            if runner is None:
                return name, None
            return name, self.wrap(runner, "simulator.compiled", "runner")

        self._patch(sim, "select_backend", traced_select)

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, owner.__dict__[key]
                              if isinstance(owner, type) else getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)
