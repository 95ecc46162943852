"""Frozen pre-refactor object stack — the executable reference spec.

Before the columnar refactor, :class:`~repro.runtime.graph.TaskGraph`
stored one frozen :class:`~repro.runtime.graph.Task` dataclass per
kernel call and a ``producer`` dict keyed on ``(data, version)``
tuples, and the simulator walked those objects.  This module preserves
both verbatim:

* :class:`ObjectTaskGraph` with the per-tile-submit reference builders
  :func:`build_lu_graph_reference` and
  :func:`build_cholesky_graph_reference`;
* :func:`simulate_reference`, the object-walking event loop.  It
  resolves producers through ``graph.producer``, builds its dependency
  tables with per-task Python loops and keys every message on its
  ``(data, version)`` tuple.  It accepts anything exposing the legacy
  graph API (``tasks``, ``producer``, ``total_flops``) — an
  :class:`ObjectTaskGraph` or a columnar
  :class:`~repro.runtime.graph.TaskGraph` through its view accessors.

Users:

* ``tests/runtime/test_columnar_equivalence.py`` asserts the
  vectorized builders emit task-for-task identical graphs;
* ``tests/runtime/test_reference_oracle.py`` asserts
  :func:`repro.runtime.simulator.simulate` reproduces
  :func:`simulate_reference` byte for byte;
* ``benchmarks/bench_graph.py`` and ``benchmarks/bench_sim_scale.py``
  time the columnar pipeline against this object path live.

This module is test-only: nothing under ``src/`` imports it.  It is a
frozen spec, not a second implementation to evolve.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.runtime.cluster import ClusterSpec
from repro.runtime.graph import DataRef, Task, TaskKind
from repro.runtime.network import (
    EVENT_MSG_ARRIVE,
    EVENT_NET_INTERNAL,
    EVENT_TASK_DONE,
    NetworkModel,
    make_network,
)
from repro.runtime.simulator import SimulationError
from repro.runtime.trace import ExecutionTrace, TaskRecord

__all__ = [
    "ObjectTaskGraph",
    "build_lu_graph_reference",
    "build_cholesky_graph_reference",
    "simulate_reference",
]

_TASK_DONE = EVENT_TASK_DONE
_MSG_ARRIVE = EVENT_MSG_ARRIVE
_NET_INTERNAL = EVENT_NET_INTERNAL


class ObjectTaskGraph:
    """The pre-refactor array-of-objects DAG (one ``Task`` per submit)."""

    def __init__(self, n_data: int, nnodes: int):
        self.n_data = n_data
        self.nnodes = nnodes
        self.tasks: List[Task] = []
        #: producer task id of each written (data, version)
        self.producer: Dict[DataRef, int] = {}
        self._version: List[int] = [0] * n_data
        self.total_flops = 0.0

    def version(self, data: int) -> int:
        return self._version[data]

    def current(self, data: int) -> DataRef:
        return (data, self._version[data])

    def submit(self, kind, i, j, k, node, flops, reads, write_data) -> Task:
        new_version = self._version[write_data] + 1
        task = Task(tid=len(self.tasks), kind=kind, i=i, j=j, k=k, node=node,
                    flops=flops, reads=reads, write=(write_data, new_version))
        self.tasks.append(task)
        self._version[write_data] = new_version
        self.producer[(write_data, new_version)] = task.tid
        self.total_flops += flops
        return task

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)


def build_lu_graph_reference(dist, tile_size: int) -> Tuple[ObjectTaskGraph, np.ndarray]:
    """The pre-refactor per-tile-submit LU builder, kept verbatim."""
    from repro.dla.kernels import flops_gemm, flops_getrf, flops_trsm

    if dist.symmetric:
        raise ValueError("LU requires a non-symmetric distribution")
    n = dist.n_tiles
    own = dist.owners
    graph = ObjectTaskGraph(n_data=n * n, nnodes=dist.nnodes)
    b = tile_size
    f_getrf, f_trsm, f_gemm = flops_getrf(b), flops_trsm(b), flops_gemm(b)

    def d(i: int, j: int) -> int:
        return i * n + j

    for k in range(n):
        dk = d(k, k)
        graph.submit(TaskKind.GETRF, k, k, k, int(own[k, k]), f_getrf,
                     (graph.current(dk),), dk)
        diag_ref = graph.current(dk)
        for i in range(k + 1, n):
            dik = d(i, k)
            graph.submit(TaskKind.TRSM, i, k, k, int(own[i, k]), f_trsm,
                         (graph.current(dik), diag_ref), dik)
        for j in range(k + 1, n):
            dkj = d(k, j)
            graph.submit(TaskKind.TRSM, k, j, k, int(own[k, j]), f_trsm,
                         (graph.current(dkj), diag_ref), dkj)
        col_refs = [graph.current(d(i, k)) for i in range(k + 1, n)]
        row_refs = [graph.current(d(k, j)) for j in range(k + 1, n)]
        for ii, i in enumerate(range(k + 1, n)):
            for jj, j in enumerate(range(k + 1, n)):
                dij = d(i, j)
                graph.submit(TaskKind.GEMM, i, j, k, int(own[i, j]), f_gemm,
                             (graph.current(dij), col_refs[ii], row_refs[jj]), dij)
    data_home = own.reshape(-1).astype(np.int64)
    return graph, data_home


def build_cholesky_graph_reference(dist, tile_size: int) -> Tuple[ObjectTaskGraph, np.ndarray]:
    """The pre-refactor per-tile-submit Cholesky builder, kept verbatim."""
    from repro.dla.kernels import flops_gemm, flops_potrf, flops_syrk, flops_trsm

    if not dist.symmetric:
        raise ValueError("Cholesky requires a symmetric distribution")
    n = dist.n_tiles
    own = dist.owners
    graph = ObjectTaskGraph(n_data=n * n, nnodes=dist.nnodes)
    b = tile_size
    f_potrf, f_trsm, f_syrk, f_gemm = (
        flops_potrf(b), flops_trsm(b), flops_syrk(b), flops_gemm(b))

    def d(i: int, j: int) -> int:
        return i * n + j

    for k in range(n):
        dk = d(k, k)
        graph.submit(TaskKind.POTRF, k, k, k, int(own[k, k]), f_potrf,
                     (graph.current(dk),), dk)
        diag_ref = graph.current(dk)
        for i in range(k + 1, n):
            dik = d(i, k)
            graph.submit(TaskKind.TRSM, i, k, k, int(own[i, k]), f_trsm,
                         (graph.current(dik), diag_ref), dik)
        panel_refs = {i: graph.current(d(i, k)) for i in range(k + 1, n)}
        for i in range(k + 1, n):
            dii = d(i, i)
            graph.submit(TaskKind.SYRK, i, i, k, int(own[i, i]), f_syrk,
                         (graph.current(dii), panel_refs[i]), dii)
            for j in range(k + 1, i):
                dij = d(i, j)
                graph.submit(TaskKind.GEMM, i, j, k, int(own[i, j]), f_gemm,
                             (graph.current(dij), panel_refs[i], panel_refs[j]), dij)
    data_home = own.reshape(-1).astype(np.int64)
    return graph, data_home


def simulate_reference(
    graph,
    cluster: ClusterSpec,
    data_home: Optional[np.ndarray] = None,
    record_tasks: bool = False,
    network: Union[str, NetworkModel, None] = None,
) -> ExecutionTrace:
    """Simulate the distributed execution of ``graph`` on ``cluster``.

    Parameters
    ----------
    graph:
        The task DAG (tasks carry their executing node).
    cluster:
        Machine model; ``cluster.nnodes`` must cover every node id
        used in the graph.
    data_home:
        ``data_home[d]`` is the node initially holding version 0 of
        datum ``d``.  Required only if some task reads a version-0
        datum from a different node (never the case under
        owner-computes with our builders, but supported).
    record_tasks:
        Keep per-task start/end times and per-message records
        (memory-heavy for large graphs).
    network:
        Communication model: ``None``/``"nic"`` (legacy, sender-side
        serialization only), ``"contention"``, or a bound-able
        :class:`~repro.runtime.network.NetworkModel` instance.
    """
    model = make_network(network)
    tasks = graph.tasks
    n_tasks = len(tasks)
    if n_tasks == 0:
        zeros_f = np.zeros(cluster.nnodes)
        zeros_i = np.zeros(cluster.nnodes, dtype=np.int64)
        return ExecutionTrace(
            cluster=cluster, makespan=0.0, total_flops=0.0, n_tasks=0,
            n_messages=0, bytes_sent=0.0,
            busy_time=zeros_f, sent_messages=zeros_i,
            network=model.name, recv_messages=zeros_i.copy(),
        )
    max_node = max(t.node for t in tasks)
    if max_node >= cluster.nnodes:
        raise SimulationError(
            f"graph uses node {max_node} but cluster has {cluster.nnodes} nodes"
        )

    # ------------------------------------------------------------------
    # Preprocessing: prerequisites, message plan
    # ------------------------------------------------------------------
    pending = np.zeros(n_tasks, dtype=np.int64)
    local_dependents: List[List[int]] = [[] for _ in range(n_tasks)]
    msg_waiters: Dict[Tuple[DataRef, int], List[int]] = {}
    # messages to push when a producer completes: producer tid -> [(ref, dst)]
    push_plan: Dict[int, List[Tuple[DataRef, int]]] = {}
    # messages needed at t=0 (remote version-0 reads): [(ref, src, dst)]
    initial_msgs: List[Tuple[DataRef, int, int]] = []
    planned_msgs: set = set()

    for t in tasks:
        n = t.node
        for ref in t.reads:
            ptid = graph.producer.get(ref)
            if ptid is not None:
                if tasks[ptid].node == n:
                    pending[t.tid] += 1
                    local_dependents[ptid].append(t.tid)
                else:
                    pending[t.tid] += 1
                    msg_waiters.setdefault((ref, n), []).append(t.tid)
                    if (ref, n) not in planned_msgs:
                        planned_msgs.add((ref, n))
                        push_plan.setdefault(ptid, []).append((ref, n))
            else:
                # version-0 datum: resident at its home node
                if data_home is None:
                    home = n  # assume local (owner-computes invariant)
                else:
                    home = int(data_home[ref[0]])
                if home != n:
                    pending[t.tid] += 1
                    msg_waiters.setdefault((ref, n), []).append(t.tid)
                    if (ref, n) not in planned_msgs:
                        planned_msgs.add((ref, n))
                        initial_msgs.append((ref, home, n))

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    idle = np.full(cluster.nnodes, cluster.cores_per_node, dtype=np.int64)
    ready: List[List[tuple]] = [[] for _ in range(cluster.nnodes)]
    busy = np.zeros(cluster.nnodes)
    done = np.zeros(n_tasks, dtype=bool)
    completion = np.zeros(n_tasks) if record_tasks else None
    records: Optional[List[TaskRecord]] = [] if record_tasks else None

    events: List[tuple] = []
    seq = 0

    def push_event(time: float, etype: int, payload) -> None:
        nonlocal seq
        seq += 1
        heapq.heappush(events, (time, seq, etype, payload))

    model.bind(cluster, push_event, record=record_tasks)

    def start_task(tid: int, t: float) -> None:
        task = tasks[tid]
        dur = cluster.task_time(task.flops, task.node)
        busy[task.node] += dur
        push_event(t + dur, _TASK_DONE, tid)
        if records is not None:
            records.append(TaskRecord(tid=tid, node=task.node, start=t, end=t + dur))

    policy = cluster.scheduler
    enqueue_seq = 0

    # fork-join mode: a global barrier between iterations (Section II-C's
    # synchronized-MPI strawman).  remaining[k] counts unfinished tasks
    # of iteration k; data-ready tasks of a future iteration wait in
    # deferred[k] until the gate advances past k.
    fj = cluster.fork_join
    remaining: Dict[int, int] = {}
    deferred: Dict[int, List[int]] = {}
    if fj:
        for t in tasks:
            remaining[t.k] = remaining.get(t.k, 0) + 1
    iterations = sorted(remaining) if fj else []
    gate_idx = 0

    def gate() -> int:
        return iterations[gate_idx] if gate_idx < len(iterations) else (1 << 62)

    def enqueue(tid: int) -> int:
        """Push a ready task onto its node's scheduling queue.

        ``priority`` mimics StarPU's critical-path-friendly ordering
        (earlier iteration, then panel kernels first); ``fifo``/``lifo``
        are the naive baselines for the scheduler ablation.
        """
        nonlocal enqueue_seq
        task = tasks[tid]
        enqueue_seq += 1
        if policy == "priority":
            key = (task.k, int(task.kind), tid)
        elif policy == "fifo":
            key = (enqueue_seq, 0, tid)
        else:  # lifo
            key = (-enqueue_seq, 0, tid)
        heapq.heappush(ready[task.node], key)
        return task.node

    def make_ready(tid: int) -> Optional[int]:
        """Route a data-ready task: defer it behind the iteration gate
        in fork-join mode, enqueue it otherwise."""
        if fj and tasks[tid].k > gate():
            deferred.setdefault(tasks[tid].k, []).append(tid)
            return None
        return enqueue(tid)

    def dispatch(n: int, t: float) -> None:
        """Start queued tasks (best priority first) on idle workers."""
        while idle[n] > 0 and ready[n]:
            _, _, tid = heapq.heappop(ready[n])
            idle[n] -= 1
            start_task(tid, t)

    def deliver(ref: DataRef, dst: int, t: float) -> None:
        """A message arrived: wake its waiting consumers."""
        woken = set()
        for dep in msg_waiters.get((ref, dst), ()):
            pending[dep] -= 1
            if pending[dep] == 0:
                n = make_ready(dep)
                if n is not None:
                    woken.add(n)
        for n in woken:
            dispatch(n, t)

    # seed: initial messages and dependency-free tasks
    for ref, src, dst in initial_msgs:
        model.send(ref, src, dst, 0.0)
    touched = set()
    for t in tasks:
        if pending[t.tid] == 0:
            n = make_ready(t.tid)
            if n is not None:
                touched.add(n)
    for n in touched:
        dispatch(n, 0.0)

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    now = 0.0
    completed = 0
    while events:
        now, _, etype, payload = heapq.heappop(events)
        if etype == _TASK_DONE:
            tid = payload
            done[tid] = True
            completed += 1
            task = tasks[tid]
            if completion is not None:
                completion[tid] = now
            # push produced version to remote consumers
            dests = push_plan.get(tid, ())
            if dests:
                model.multicast(task.node, dests, now)
            # wake local dependents, then refill the freed worker
            woken = {task.node}
            for dep in local_dependents[tid]:
                pending[dep] -= 1
                if pending[dep] == 0:
                    n = make_ready(dep)
                    if n is not None:
                        woken.add(n)
            if fj:
                remaining[task.k] -= 1
                while gate_idx < len(iterations) and remaining[iterations[gate_idx]] == 0:
                    gate_idx += 1
                    if gate_idx < len(iterations):
                        for tid2 in deferred.pop(iterations[gate_idx], ()):  # noqa: B007
                            woken.add(enqueue(tid2))
            idle[task.node] += 1
            for n in woken:
                dispatch(n, now)
        elif etype == _MSG_ARRIVE:
            ref, dst = payload
            deliver(ref, dst, now)
        else:  # network-internal event (contention-model flow bookkeeping)
            for ref, dst in model.on_internal(payload, now):
                deliver(ref, dst, now)

    if completed != n_tasks:
        stuck = int(np.sum(~done))
        raise SimulationError(
            f"deadlock: {stuck} of {n_tasks} tasks never ran "
            f"(first stuck: {tasks[int(np.flatnonzero(~done)[0])]})"
        )

    net_stats = model.stats()
    return ExecutionTrace(
        cluster=cluster,
        makespan=now,
        total_flops=graph.total_flops,
        n_tasks=n_tasks,
        n_messages=model.n_messages,
        bytes_sent=float(model.n_messages) * cluster.tile_bytes,
        busy_time=busy,
        sent_messages=net_stats.msgs_sent,
        task_records=records,
        completion_times=completion,
        network=model.name,
        recv_messages=net_stats.msgs_recv,
        net_stats=net_stats,
        msg_records=model.msg_records,
    )
