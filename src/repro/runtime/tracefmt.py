"""Execution trace export: Chrome tracing JSON and text Gantt.

``to_chrome_trace`` emits the ``chrome://tracing`` / Perfetto event
format so a simulated schedule can be inspected interactively —
the same workflow StarPU users apply to real traces (Section II-C's
runtime does exactly this with FxT/ViTE).  Besides the per-task "X"
slices, v2 traces also carry counter ("C") events: per-node running
tasks, cumulative bytes sent per node, and — when the trace was
produced by the contention network model — the number of flows in
flight on the shared bisection link.

:class:`ChromeTraceWriter` streams the same timeline during a run.  It
buffers raw record fields and formats a flushed batch with one
``%``-template per event kind (task slice, message slice, bytes-sent
counter), naming the batch's tasks with one gather per graph column;
the bytes equal one ``json.dumps`` per event, which the frozen writer
in ``tests/runtime/chrome_reference.py`` pins.  Fault and resize
events, rare and possibly holding ``inf``, still go through
``json.dumps``.
"""

from __future__ import annotations

import heapq
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from .graph import KIND_NAMES, TaskGraph
from .trace import ExecutionTrace, MsgRecord, TaskRecord, TraceWriter

__all__ = ["to_chrome_trace", "save_chrome_trace", "text_gantt", "assign_lanes",
           "ChromeTraceWriter"]

#: pid used for the synthetic "network" process that carries link counters
NETWORK_PID = 1 << 20


def _take_lane(heap: List[tuple], start: float, end: float) -> int:
    """Online lane packing: reuse the earliest-freed lane of ``heap``
    (``(free_time, lane)`` entries, one per lane) if it is free by
    ``start``, else open a new one; the lane is then busy until ``end``."""
    if heap and heap[0][0] <= start + 1e-15:
        lane = heap[0][1]
        heapq.heapreplace(heap, (end, lane))
    else:
        lane = len(heap)
        heapq.heappush(heap, (end, lane))
    return lane


def assign_lanes(records) -> Dict[int, int]:
    """Pack task records into per-node worker lanes.

    Uses a per-node min-heap of ``(free_time, lane)`` — a record reuses
    the earliest-freed lane when that lane is free by its start time,
    otherwise opens a new lane.  Greedy-by-start with earliest-free
    reuse is optimal, so the lane count per node equals the peak task
    concurrency on that node and never exceeds ``cores_per_node``.

    Returns ``{tid: lane}``.
    """
    lanes: Dict[int, int] = {}
    free_heap: Dict[int, List[tuple]] = {}
    for rec in sorted(records, key=lambda r: (r.start, r.end, r.tid)):
        lanes[rec.tid] = _take_lane(free_heap.setdefault(rec.node, []),
                                    rec.start, rec.end)
    return lanes


def to_chrome_trace(trace: ExecutionTrace, graph: Optional[TaskGraph] = None) -> List[dict]:
    """Convert task records into Chrome-tracing "complete" (X) events.

    Requires the trace to have been produced with ``record_tasks=True``.
    Each node becomes a process; workers are packed into threads with
    :func:`assign_lanes` (heap-based, so lane count equals the node's
    peak concurrency).  Counter events add per-node running-task and
    cumulative-bytes-sent series, plus an in-flight-flows series for
    the contention model's shared link.
    """
    if trace.task_records is None:
        raise ValueError("trace has no task records; simulate with record_tasks=True")

    events: List[dict] = []
    lanes = assign_lanes(trace.task_records)
    seen_nodes = set()
    for rec in trace.task_records:
        seen_nodes.add(rec.node)
        name = f"task {rec.tid}"
        if graph is not None:
            name = graph.task_label(rec.tid)
        events.append({
            "name": name,
            "cat": "task",
            "ph": "X",
            "ts": rec.start * 1e6,   # microseconds
            "dur": (rec.end - rec.start) * 1e6,
            "pid": rec.node,
            "tid": lanes[rec.tid],
        })
    for node in seen_nodes:
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": node,
            "args": {"name": f"node {node}"},
        })
    events.extend(_counter_events(trace))
    events.extend(_fault_events(trace))
    events.extend(_resize_events(trace))
    events.extend(_bound_events(trace))
    return events


def _bound_events(trace: ExecutionTrace) -> List[dict]:
    """Counter ("C") series for the distance-from-optimal layer.

    Present only when the trace carries
    :class:`~repro.cost.schedbounds.ScheduleBounds`: a flat
    ``optimality_ratio`` series spanning the run (one sample at t=0 and
    one at the makespan, so Perfetto draws the level against the task
    slices) on the synthetic network process.
    """
    if trace.sched_bounds is None:
        return []
    ratio = trace.optimality_ratio
    if ratio == float("inf"):
        return []
    events = [
        {"name": "optimality_ratio", "ph": "C", "ts": t * 1e6,
         "pid": NETWORK_PID, "args": {"ratio": ratio}}
        for t in (0.0, trace.makespan)
    ]
    if not trace.msg_records:
        # _counter_events only names the network process when message
        # records exist
        events.append({"name": "process_name", "ph": "M", "pid": NETWORK_PID,
                       "args": {"name": f"network ({trace.network})"}})
    return events


def _fault_events(trace: ExecutionTrace) -> List[dict]:
    """Instant ("i") events for every fault incident of a degraded run.

    Node-scoped incidents (failures, aborts, re-homings, losses,
    retries) land on the node's process; cluster-wide incidents (link
    degradation windows) land on the synthetic network process.
    """
    if trace.fault_stats is None:
        return []
    events: List[dict] = []
    for ev in trace.fault_stats.events:
        node_scoped = ev.node >= 0
        events.append({
            "name": f"fault:{ev.kind}",
            "cat": "fault",
            "ph": "i",
            "s": "p" if node_scoped else "g",
            "ts": ev.time * 1e6,
            "pid": ev.node if node_scoped else NETWORK_PID,
            "tid": 0,
            "args": {"detail": ev.detail},
        })
    if any(e.node < 0 for e in trace.fault_stats.events) and not trace.msg_records:
        events.append({"name": "process_name", "ph": "M", "pid": NETWORK_PID,
                       "args": {"name": f"network ({trace.network})"}})
    return events


def _resize_events(trace: ExecutionTrace) -> List[dict]:
    """Migration lane of an elastic-resize run.

    One duration ("X") slice on the network process spanning the
    migration phase (drain end → resumed phase start), bracketed by
    instant events at the requested resize time and the migration end.
    """
    rs = trace.resize_stats
    if rs is None:
        return []
    events: List[dict] = [
        {"name": f"resize:{rs.P_src}→{rs.P_dst}", "cat": "resize",
         "ph": "i", "s": "g", "ts": rs.time * 1e6,
         "pid": NETWORK_PID, "tid": 0,
         "args": {"tiles_moved": rs.tiles_moved,
                  "tiles_saved": rs.tiles_saved}},
        {"name": f"migration {rs.P_src}→{rs.P_dst}", "cat": "resize",
         "ph": "X", "ts": rs.drain_s * 1e6,
         "dur": rs.migration_s * 1e6,
         "pid": NETWORK_PID, "tid": 0,
         "args": {"tiles_moved": rs.tiles_moved,
                  "bytes_moved": rs.bytes_moved,
                  "breakeven": rs.breakeven
                  if math.isfinite(rs.breakeven) else "inf"}},
    ]
    if not trace.msg_records:
        events.append({"name": "process_name", "ph": "M", "pid": NETWORK_PID,
                       "args": {"name": f"network ({trace.network})"}})
    return events


def _counter_events(trace: ExecutionTrace) -> List[dict]:
    """Counter ("C") series derived from task and message records."""
    events: List[dict] = []
    # per-node running-task counters
    deltas: Dict[int, List[tuple]] = {}
    for rec in trace.task_records or ():
        deltas.setdefault(rec.node, []).extend(
            [(rec.start, +1), (rec.end, -1)])
    for node, evts in deltas.items():
        evts.sort()
        running = 0
        last_t = None
        for t, d in evts:
            running += d
            if last_t == t:
                events[-1]["args"]["tasks"] = running
            else:
                events.append({"name": "running_tasks", "ph": "C",
                               "ts": t * 1e6, "pid": node,
                               "args": {"tasks": running}})
            last_t = t
    if trace.msg_records:
        # cumulative bytes sent per node (stamped at message start)
        cum: Dict[int, float] = {}
        for m in sorted(trace.msg_records, key=lambda m: (m.start, m.src)):
            cum[m.src] = cum.get(m.src, 0.0) + m.nbytes
            events.append({"name": "bytes_sent_total", "ph": "C",
                           "ts": m.start * 1e6, "pid": m.src,
                           "args": {"bytes": cum[m.src]}})
        # flows in flight on the shared fabric
        flow_evts: List[tuple] = []
        for m in trace.msg_records:
            flow_evts.extend([(m.start, +1), (m.end, -1)])
        flow_evts.sort()
        in_flight = 0
        for t, d in flow_evts:
            in_flight += d
            events.append({"name": "msgs_in_flight", "ph": "C",
                           "ts": t * 1e6, "pid": NETWORK_PID,
                           "args": {"msgs": in_flight}})
        rpn = getattr(trace.cluster, "ranks_per_node", 1)
        if rpn > 1:
            # two-level traffic split: cumulative bytes per level,
            # classified by the src/dst node mapping of the topology;
            # emitted only for hierarchical runs so flat Chrome traces
            # are unchanged
            cum_level = {"bytes_inter_total": 0.0, "bytes_intra_total": 0.0}
            for m in sorted(trace.msg_records, key=lambda m: (m.start, m.src)):
                level = ("bytes_inter_total" if m.src // rpn != m.dst // rpn
                         else "bytes_intra_total")
                cum_level[level] += m.nbytes
                events.append({"name": level, "ph": "C",
                               "ts": m.start * 1e6, "pid": NETWORK_PID,
                               "args": {"bytes": cum_level[level]}})
        events.append({"name": "process_name", "ph": "M", "pid": NETWORK_PID,
                       "args": {"name": f"network ({trace.network})"}})
    return events


def save_chrome_trace(trace: ExecutionTrace, path: Union[str, Path],
                      graph: Optional[TaskGraph] = None) -> None:
    """Write the Chrome-tracing JSON file."""
    Path(path).write_text(json.dumps({"traceEvents": to_chrome_trace(trace, graph)}))


#: event kinds in the :class:`ChromeTraceWriter` buffer
_TASK, _MSG, _SENT, _JSON = range(4)

#: one ``%``-template per buffered kind; ``json.dumps`` field order and
#: separators, floats filled in with ``float.__repr__`` (what
#: ``json.dumps`` prints for finite floats) and ``→`` escaped as
#: ``json.dumps`` escapes it
_TASK_T = ('{"name": "%s", "cat": "task", "ph": "X", "ts": %s, "dur": %s, '
           '"pid": %d, "tid": %d}')
_MSG_T = ('{"name": "d%%dv%%d %%d\\u2192%%d", "cat": "msg", "ph": "X", '
          '"ts": %%s, "dur": %%s, "pid": %d, "tid": %%d}' % NETWORK_PID)
_SENT_T = ('{"name": "bytes_sent_total", "ph": "C", "ts": %s, "pid": %d, '
           '"args": {"bytes": %s}}')


class ChromeTraceWriter(TraceWriter):
    """Streaming Chrome-tracing JSON sink with bounded memory.

    Pass an instance as ``simulate(..., trace_writer=w)`` and every
    task/message record is buffered as raw fields the moment the
    simulator produces it, and formatted and flushed to ``path`` every
    ``buffer_events`` events — peak recording memory is the buffer, no
    matter how many million tasks run, where the list-accumulating
    ``record_tasks=True`` path grows with the task count.

    Worker lanes are assigned *online*: each node keeps a min-heap of
    ``(free_time, lane)`` and a record reuses the earliest-freed lane
    that is free by its start time.  Task records stream in dispatch
    order (non-decreasing start), so this reproduces the offline
    :func:`assign_lanes` packing; message records may arrive with
    out-of-order starts (NIC serialization can push a send's wire time
    past a later event's), for which the greedy rule still guarantees
    lanes never overlap — it just may open an extra lane.

    The output is a valid ``{"traceEvents": [...]}`` document once
    :meth:`close` runs (writers are context managers; ``close`` is
    idempotent).  ``events_written`` and ``flushes`` expose progress for
    tests and progress meters.
    """

    def __init__(self, path: Union[str, Path],
                 graph: Optional[TaskGraph] = None,
                 buffer_events: int = 4096) -> None:
        if buffer_events < 1:
            raise ValueError("buffer_events must be >= 1")
        self.path = Path(path)
        self.graph = graph
        self.buffer_events = int(buffer_events)
        self.events_written = 0
        self.flushes = 0
        self._buf: List[tuple] = []
        self._first = True
        self._saw_msgs = False
        #: per-node task lane heaps (their keys are the nodes seen) and
        #: the message lane heap of the network process
        self._task_lanes: Dict[int, List[tuple]] = {}
        self._msg_lanes: List[tuple] = []
        self._cum_bytes: Dict[int, float] = {}
        self._fh = open(self.path, "w")
        self._fh.write('{"traceEvents": [')

    # ------------------------------------------------------------------
    def _push(self, event: tuple) -> None:
        self._buf.append(event)
        self.events_written += 1
        if len(self._buf) >= self.buffer_events:
            self.flush()

    def _emit(self, event: dict) -> None:
        self._push((_JSON, json.dumps(event)))

    def _task_names(self, tids: List[int]) -> List[str]:
        """Event names of a batch of tasks, one gather per column."""
        if self.graph is None:
            return ["task %d" % tid for tid in tids]
        cols = self.graph.columns
        idx = np.asarray(tids, dtype=np.int64)
        return ["%s(%d,%d;k=%d)@%d" % (KIND_NAMES[kind], i, j, k, node)
                for kind, i, j, k, node in zip(
                    cols.kind[idx].tolist(), cols.i[idx].tolist(),
                    cols.j[idx].tolist(), cols.k[idx].tolist(),
                    cols.node[idx].tolist())]

    # ------------------------------------------------------------------
    def write_task(self, rec: TaskRecord) -> None:
        tid, node, start, end = rec
        lane = _take_lane(self._task_lanes.setdefault(node, []), start, end)
        self._push((_TASK, tid, start, end, node, lane))

    def write_msg(self, rec: MsgRecord) -> None:
        data, version, src, dst, start, end, nbytes = rec
        self._saw_msgs = True
        cum = self._cum_bytes.get(src, 0.0) + nbytes
        self._cum_bytes[src] = cum
        self._push((_MSG, data, version, src, dst, start, end,
                    _take_lane(self._msg_lanes, start, end)))
        self._push((_SENT, start, src, cum))

    def write_fault(self, event) -> None:
        node_scoped = event.node >= 0
        if not node_scoped:
            self._saw_msgs = True  # ensure the network process gets named
        self._emit({
            "name": f"fault:{event.kind}", "cat": "fault", "ph": "i",
            "s": "p" if node_scoped else "g",
            "ts": event.time * 1e6,
            "pid": event.node if node_scoped else NETWORK_PID,
            "tid": 0, "args": {"detail": event.detail},
        })

    def write_resize(self, stats) -> None:
        self._saw_msgs = True  # migration lives on the network process
        self._emit({
            "name": f"resize:{stats.P_src}→{stats.P_dst}", "cat": "resize",
            "ph": "i", "s": "g", "ts": stats.time * 1e6,
            "pid": NETWORK_PID, "tid": 0,
            "args": {"tiles_moved": stats.tiles_moved,
                     "tiles_saved": stats.tiles_saved},
        })
        self._emit({
            "name": f"migration {stats.P_src}→{stats.P_dst}", "cat": "resize",
            "ph": "X", "ts": stats.drain_s * 1e6,
            "dur": stats.migration_s * 1e6,
            "pid": NETWORK_PID, "tid": 0,
            "args": {"tiles_moved": stats.tiles_moved,
                     "bytes_moved": stats.bytes_moved,
                     "breakeven": stats.breakeven
                     if math.isfinite(stats.breakeven) else "inf"},
        })

    # ------------------------------------------------------------------
    def flush(self) -> None:
        buf = self._buf
        if not buf:
            return
        names = iter(self._task_names([ev[1] for ev in buf
                                       if ev[0] == _TASK]))
        fr = float.__repr__
        parts = []
        for ev in buf:
            kind = ev[0]
            if kind == _TASK:
                _, _, start, end, pid, lane = ev
                parts.append(_TASK_T % (next(names), fr(start * 1e6),
                                        fr((end - start) * 1e6), pid, lane))
            elif kind == _MSG:
                _, data, version, src, dst, start, end, lane = ev
                parts.append(_MSG_T % (data, version, src, dst,
                                       fr(start * 1e6),
                                       fr((end - start) * 1e6), lane))
            elif kind == _SENT:
                _, start, src, cum = ev
                parts.append(_SENT_T % (fr(start * 1e6), src, fr(cum)))
            else:
                parts.append(ev[1])
        chunk = ",".join(parts)
        self._fh.write(chunk if self._first else "," + chunk)
        self._first = False
        buf.clear()
        self._fh.flush()
        self.flushes += 1

    def close(self) -> None:
        if self._fh.closed:
            return
        for node in sorted(self._task_lanes):
            self._emit({"name": "process_name", "ph": "M", "pid": node,
                        "args": {"name": f"node {node}"}})
        if self._saw_msgs:
            self._emit({"name": "process_name", "ph": "M", "pid": NETWORK_PID,
                        "args": {"name": "network"}})
        self.flush()
        self._fh.write("]}")
        self._fh.close()


def text_gantt(trace: ExecutionTrace, width: int = 80) -> str:
    """Per-node activity bars: one row per node, ``#`` where at least
    one worker is busy."""
    if trace.task_records is None:
        raise ValueError("trace has no task records; simulate with record_tasks=True")
    if trace.makespan <= 0:
        return "(empty trace)"
    nodes = sorted({r.node for r in trace.task_records})
    rows = []
    for node in nodes:
        busy = [False] * width
        for rec in trace.task_records:
            if rec.node != node:
                continue
            lo = int(rec.start / trace.makespan * width)
            hi = max(lo + 1, int(rec.end / trace.makespan * width))
            for i in range(lo, min(hi, width)):
                busy[i] = True
        rows.append(f"node {node:>3} |" + "".join("#" if b else "." for b in busy))
    header = f"{'':>9}0{' ' * (width - 10)}{trace.makespan:.4g}s"
    return "\n".join(rows + [header])
