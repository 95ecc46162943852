"""Vectorized simulation plan: the dependency/message tables as arrays.

The simulator needs four derived tables before its event loop can run:
per-task prerequisite counts, the CSR table of *local* dependents, the
inter-node message plan (which unique ``(data version, destination)``
pairs must travel, who sends them, who waits on them), and the packed
priority keys.  This module computes them as pure NumPy arrays — a
:class:`SimPlan` — with **no Python loop over tasks, reads or
messages**, and with one grouping per table.  Each read is classified
once by its source node (its producer's, or its datum's home):

* ``pending`` — one ``bincount`` of the local and message reads;
* ``ld_indptr``/``ld_tasks`` — one stable argsort of the local reads
  by producer;
* ``msg_*`` and ``w_indptr``/``w_tasks`` — one stable argsort of the
  message reads by ``(data, version, dst)`` code.  A run of equal codes
  is one message; its rank is the *uid*, its first entry the first read
  in flat order, and the sorted reads are the consumers a delivery
  wakes, in read order;
* ``push_indptr``/``push_uids`` (uids each producer pushes, in
  first-occurrence order) and ``init_uids`` — small sorts of the uids.

These orders replicate, entry for entry, those of the original
dict-based plan, so event schedules — and therefore golden traces — are
byte-identical no matter which backend consumes the plan.

Plans depend only on the graph and the ``data_home`` vector (durations
and node counts come from the cluster at simulation time), so they are
cached per graph generation and reused across network models, fault
plans and repeated ``simulate`` calls on the same graph — a campaign
cell that simulates baseline + degraded runs builds its plan once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional
from weakref import WeakKeyDictionary

import numpy as np

from .graph import TaskGraph

__all__ = ["SimPlan", "build_plan", "get_plan"]


@dataclass
class SimPlan:
    """Array-form simulation tables for one graph (+ data placement).

    All arrays are int64 unless noted.  ``n_msgs`` uids cover both
    producer-pushed messages (``msg_producer >= 0``) and version-0
    fetches from ``data_home`` (``msg_producer == -1``); the uid spaces
    are disjoint because a data version either has a producer or not.
    """

    n_tasks: int
    #: stride of the (data, version) encoding: ``max(read_version) + 1``
    M: int
    #: executing node per task (shared reference to the graph column)
    node: np.ndarray
    #: per-task prerequisite count (reads satisfied by a later event)
    pending: np.ndarray
    #: CSR: local dependents of each producer, read-scan order
    ld_indptr: np.ndarray
    ld_tasks: np.ndarray
    #: packed priority keys ``k << 40 | kind << 32 | tid``
    keys: np.ndarray
    # -- message plan, indexed by uid -----------------------------------
    n_msgs: int
    msg_data: np.ndarray      #: datum carried by each uid
    msg_version: np.ndarray   #: version carried by each uid
    msg_dst: np.ndarray       #: destination node of each uid
    msg_src: np.ndarray       #: producer's node, or home node (init uids)
    msg_producer: np.ndarray  #: producing tid, -1 for version-0 fetches
    #: CSR: consumers woken when uid is delivered, read-scan order
    w_indptr: np.ndarray
    w_tasks: np.ndarray
    #: CSR: uids pushed when task completes, first-occurrence order
    push_indptr: np.ndarray
    push_uids: np.ndarray
    #: version-0 uids sent at t=0, first-occurrence order
    init_uids: np.ndarray

    @property
    def nbytes(self) -> int:
        """Total footprint of the plan arrays (for memory accounting)."""
        return sum(
            a.nbytes for a in (
                self.pending, self.ld_indptr, self.ld_tasks, self.keys,
                self.msg_data, self.msg_version, self.msg_dst, self.msg_src,
                self.msg_producer, self.w_indptr, self.w_tasks,
                self.push_indptr, self.push_uids, self.init_uids))


def _csr(values: np.ndarray, groups: np.ndarray, n_groups: int):
    """Group ``values`` by small-int ``groups`` (stable): indptr + flat."""
    order = np.argsort(groups, kind="stable")
    indptr = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(np.bincount(groups, minlength=n_groups), out=indptr[1:])
    return indptr, values[order]


def build_plan(graph: TaskGraph,
               data_home: Optional[np.ndarray] = None) -> SimPlan:
    """Derive the :class:`SimPlan` of ``graph`` in vectorized passes."""
    cols = graph.columns
    n_tasks = cols.n_tasks
    node_a = cols.node
    rt = graph.read_task          # consumer tid per flat read
    rp = graph.read_producer      # producer tid per flat read, -1 if none
    rd = cols.read_data
    rv = cols.read_version
    rnode = node_a[rt]            # consumer node per flat read

    # source node per read: the producer's node (rp == -1 picks the
    # appended -1), or the home of a version-0 read (its reader's node
    # when homes are unknown: version 0 is then free)
    src = np.append(node_a, -1)[rp]
    is_local = src == rnode
    v0 = rp < 0
    src[v0] = rnode[v0] if data_home is None else \
        np.asarray(data_home, dtype=np.int64)[rd[v0]]
    mask = src != rnode           # remote reads and version-0 fetches
    pending = np.bincount(rt[is_local | mask], minlength=n_tasks)
    ld_indptr, ld_tasks = _csr(rt[is_local], rp[is_local], n_tasks)
    keys = ((cols.k << 40) | (cols.kind.astype(np.int64) << 32)
            | np.arange(n_tasks, dtype=np.int64))

    # message plan: uids number the unique (data, version, dst) codes of
    # the message reads in code order.  The stable argsort of the codes
    # is the only grouping: a run's first entry is the uid's first read
    # in flat order, and the sorted reads are its waiters in read order.
    M = int(rv.max()) + 1 if rv.size else 1
    N = int(node_a.max()) + 1 if node_a.size else 1
    sel = np.flatnonzero(mask)
    codes = (rd[sel] * M + rv[sel]) * N + rnode[sel]
    del v0, mask, rnode
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    sel = sel[order]              # flat read index, grouped by uid
    heads = np.flatnonzero(np.diff(codes, prepend=-1) != 0)
    uniq = codes[heads]
    n_msgs = int(uniq.size)
    msg_dst = uniq % N
    msg_version = uniq // N % M
    msg_data = uniq // N // M
    first = sel[heads]            # flat index of each uid's first read
    msg_producer = rp[first]
    msg_src = src[first]
    remote = msg_producer >= 0
    w_indptr = np.append(heads, sel.size)
    w_tasks = rt[sel]

    # push plan: remote uids in global first-occurrence order, stably
    # grouped by producer — the exact per-producer push order of the old
    # ``planned_msgs`` dict fill
    r_uids = np.flatnonzero(remote)
    r_first = r_uids[np.argsort(first[r_uids], kind="stable")]
    push_indptr, push_uids = _csr(r_first, msg_producer[r_first], n_tasks)

    # version-0 fetches at t=0, first-occurrence order
    i_uids = np.flatnonzero(~remote)
    init_uids = i_uids[np.argsort(first[i_uids], kind="stable")]

    return SimPlan(
        n_tasks=n_tasks, M=M, node=node_a, pending=pending,
        ld_indptr=ld_indptr, ld_tasks=ld_tasks, keys=keys,
        n_msgs=n_msgs, msg_data=msg_data, msg_version=msg_version,
        msg_dst=msg_dst, msg_src=msg_src, msg_producer=msg_producer,
        w_indptr=w_indptr, w_tasks=w_tasks,
        push_indptr=push_indptr, push_uids=push_uids,
        init_uids=init_uids)


#: graph -> {(generation, data_home bytes): SimPlan}
_PLAN_CACHE: "WeakKeyDictionary[TaskGraph, dict]" = WeakKeyDictionary()


def get_plan(graph: TaskGraph,
             data_home: Optional[np.ndarray] = None) -> SimPlan:
    """Cached :func:`build_plan`, invalidated when the graph grows."""
    key = (graph._gen,
           None if data_home is None
           else np.asarray(data_home, dtype=np.int64).tobytes())
    slot = _PLAN_CACHE.get(graph)
    if slot is None:
        slot = {}
        _PLAN_CACHE[graph] = slot
    plan = slot.get(key)
    if plan is None:
        plan = build_plan(graph, data_home)
        for stale in [k for k in slot if k[0] != graph._gen]:
            del slot[stale]     # drop plans of outgrown generations
        slot[key] = plan
    return plan
