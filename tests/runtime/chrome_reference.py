"""Frozen pre-template Chrome-trace writer — the writer's reference spec.

Before task and message events were formatted from buffered raw fields
with one ``%``-template per event kind,
:class:`~repro.runtime.tracefmt.ChromeTraceWriter` built one dict and
one ``json.dumps`` per event, and named each task through
``graph.task_label``.  This module keeps that writer verbatim.

Users:

* ``tests/runtime/test_writer_oracle.py`` feeds the same record stream
  to this writer and to the shipped one and asserts the two files are
  byte-identical (and that the progress counters agree).

This module is test-only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

import heapq
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.runtime.graph import TaskGraph
from repro.runtime.trace import MsgRecord, TaskRecord, TraceWriter
from repro.runtime.tracefmt import NETWORK_PID

__all__ = ["ChromeTraceWriter"]


class ChromeTraceWriter(TraceWriter):
    """Streaming Chrome-tracing JSON sink with bounded memory.

    Pass an instance as ``simulate(..., trace_writer=w)`` and every
    task/message record is serialized the moment the simulator produces
    it, buffered as an encoded string, and flushed to ``path`` every
    ``buffer_events`` records — peak recording memory is the buffer, no
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
        self._buf: List[str] = []
        self._first = True
        self._seen_pids: set = set()
        self._saw_msgs = False
        self._lane_heap: Dict[int, List[tuple]] = {}
        self._lane_count: Dict[int, int] = {}
        self._cum_bytes: Dict[int, float] = {}
        self._fh = open(self.path, "w")
        self._fh.write('{"traceEvents": [')

    # ------------------------------------------------------------------
    def _lane(self, pid: int, start: float, end: float) -> int:
        heap = self._lane_heap.setdefault(pid, [])
        if heap and heap[0][0] <= start + 1e-15:
            _, lane = heapq.heappop(heap)
        else:
            lane = self._lane_count.get(pid, 0)
            self._lane_count[pid] = lane + 1
        heapq.heappush(heap, (end, lane))
        return lane

    def _emit(self, event: dict) -> None:
        self._buf.append(json.dumps(event))
        self.events_written += 1
        if len(self._buf) >= self.buffer_events:
            self.flush()

    # ------------------------------------------------------------------
    def write_task(self, rec: TaskRecord) -> None:
        self._seen_pids.add(rec.node)
        name = (self.graph.task_label(rec.tid) if self.graph is not None
                else f"task {rec.tid}")
        self._emit({
            "name": name, "cat": "task", "ph": "X",
            "ts": rec.start * 1e6, "dur": (rec.end - rec.start) * 1e6,
            "pid": rec.node, "tid": self._lane(rec.node, rec.start, rec.end),
        })

    def write_msg(self, rec: MsgRecord) -> None:
        self._saw_msgs = True
        cum = self._cum_bytes.get(rec.src, 0.0) + rec.nbytes
        self._cum_bytes[rec.src] = cum
        self._emit({
            "name": f"d{rec.data}v{rec.version} {rec.src}→{rec.dst}",
            "cat": "msg", "ph": "X",
            "ts": rec.start * 1e6, "dur": (rec.end - rec.start) * 1e6,
            "pid": NETWORK_PID,
            "tid": self._lane(NETWORK_PID, rec.start, rec.end),
        })
        self._emit({"name": "bytes_sent_total", "ph": "C",
                    "ts": rec.start * 1e6, "pid": rec.src,
                    "args": {"bytes": cum}})

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
        if not self._buf:
            return
        chunk = ",".join(self._buf)
        self._fh.write(chunk if self._first else "," + chunk)
        self._first = False
        self._buf.clear()
        self._fh.flush()
        self.flushes += 1

    def close(self) -> None:
        if self._fh.closed:
            return
        for node in sorted(self._seen_pids):
            self._emit({"name": "process_name", "ph": "M", "pid": node,
                        "args": {"name": f"node {node}"}})
        if self._saw_msgs:
            self._emit({"name": "process_name", "ph": "M", "pid": NETWORK_PID,
                        "args": {"name": "network"}})
        self.flush()
        self._fh.write("]}")
        self._fh.close()

