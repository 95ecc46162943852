"""Frozen multi-sort plan builder and bounds — the plan's reference spec.

Before the graph → plan → bounds set-up was reduced to one grouping per
table, :func:`repro.runtime.simplan.build_plan` grouped the message
reads with ``np.unique`` and then re-sorted them with ``_csr`` for the
waiter table, re-sorted the local reads by producer for the local
dependents, and :func:`repro.cost.schedbounds.schedule_lower_bounds`
peeled the dependency DAG with a sort per round.  This module keeps
those builders verbatim (``build_plan``, ``_csr``, ``bottom_levels``,
the dependency CSR and the bounds body).

Users:

* ``tests/runtime/test_plan_oracle.py`` builds both plans for the same
  graph and asserts every :class:`~repro.runtime.simplan.SimPlan` field
  is equal in value and dtype, and that the bounds agree bit for bit.

This module is test-only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.cost.schedbounds import ScheduleBounds
from repro.runtime.graph import TaskGraph
from repro.runtime.simplan import SimPlan

__all__ = ["build_plan", "schedule_lower_bounds"]


def _csr(values: np.ndarray, groups: np.ndarray, n_groups: int):
    """Group ``values`` by small-int ``groups`` (stable): indptr + flat."""
    order = np.argsort(groups, kind="stable")
    counts = np.bincount(groups, minlength=n_groups) if groups.size else \
        np.zeros(n_groups, dtype=np.int64)
    indptr = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
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

    has_prod = rp >= 0
    pnode = node_a[np.where(has_prod, rp, 0)]
    is_local = has_prod & (pnode == rnode)
    is_remote = has_prod & ~is_local
    if data_home is None:
        is_init = np.zeros(rd.shape, dtype=bool)
        home_a = None
    else:
        home_a = np.asarray(data_home, dtype=np.int64)
        is_init = ~has_prod & (home_a[rd] != rnode)

    pending = np.bincount(rt[is_local | is_remote | is_init],
                          minlength=n_tasks).astype(np.int64, copy=False)

    ld_indptr, ld_tasks = _csr(rt[is_local], rp[is_local], n_tasks)

    keys = ((cols.k << 40) | (cols.kind.astype(np.int64) << 32)
            | np.arange(n_tasks, dtype=np.int64))

    # ------------------------------------------------------------------
    # message plan: one uid per unique (data, version, dst) among the
    # remote and init reads.  A single grouping pass covers both classes
    # (their (data, version) sets are disjoint: a version either has a
    # producer or it does not), and masked selection preserves flat read
    # order, so first-occurrence comparisons within the combined mask
    # equal those within each class alone.
    # ------------------------------------------------------------------
    M = int(rv.max()) + 1 if rv.size else 1
    N = int(node_a.max()) + 1 if node_a.size else 1
    mask = is_remote | is_init
    codes = (rd[mask] * M + rv[mask]) * N + rnode[mask]
    uniq, first, inv = np.unique(codes, return_index=True,
                                 return_inverse=True)
    n_msgs = int(uniq.size)
    msg_dst = uniq % N
    refc = uniq // N
    msg_version = refc % M
    msg_data = refc // M
    msg_producer = rp[mask][first]
    remote = msg_producer >= 0
    if home_a is None:
        msg_src = np.where(remote, node_a[np.where(remote, msg_producer, 0)],
                           -1)
    else:
        msg_src = np.where(remote, node_a[np.where(remote, msg_producer, 0)],
                           home_a[msg_data])

    # waiters per uid, flat-read order within a uid
    w_indptr, w_tasks = _csr(rt[mask], inv, n_msgs)

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


def dependencies_csr(graph: TaskGraph):
    """The graph's task → producers CSR, as ``TaskGraph`` derived it."""
    cols = graph.columns
    rp = graph.read_producer
    has = rp >= 0
    dep_flat = rp[has]
    counts = np.bincount(graph.read_task[has], minlength=len(cols.kind))
    indptr = np.zeros(len(cols.kind) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, dep_flat


def bottom_levels(indptr: np.ndarray, deps: np.ndarray,
                  dur: np.ndarray) -> np.ndarray:
    """Level-synchronous Kahn peel with a sorted frontier per round."""
    dur = np.asarray(dur, dtype=np.float64)
    n = int(dur.shape[0])
    row_len = np.diff(indptr)
    dst, ptr, outdeg = deps, indptr, row_len
    pending = np.bincount(dst, minlength=n)
    best = np.full(n, -np.inf)
    bl = dur.copy()
    frontier = np.flatnonzero(pending == 0)
    reached = frontier.size
    while frontier.size:
        lens = outdeg[frontier]
        ends = np.cumsum(lens)
        e = np.repeat(ptr[frontier] - (ends - lens), lens) \
            + np.arange(ends[-1], dtype=np.int64)
        tgt = dst[e]
        val = np.repeat(bl[frontier], lens)
        np.maximum.at(best, tgt, val)
        np.subtract.at(pending, tgt, 1)
        done = np.sort(tgt[pending[tgt] == 0])
        frontier = done[np.diff(done, prepend=-1) != 0]
        bl[frontier] = dur[frontier] + best[frontier]
        reached += frontier.size
    assert reached == n, "dependency graph has a cycle"
    return bl


def schedule_lower_bounds(graph, cluster, plan: SimPlan, *,
                          network: str = "nic",
                          alive_nodes: Optional[Iterable[int]] = None,
                          bisection_Bps: Optional[float] = None
                          ) -> ScheduleBounds:
    """The bounds body of ``schedule_lower_bounds`` over a given plan."""
    n_tasks = len(graph)
    P = cluster.nnodes
    if n_tasks == 0:
        return ScheduleBounds(0.0, 0.0, 0.0, 0.0)
    alive = list(range(P)) if alive_nodes is None \
        else sorted({int(n) for n in alive_nodes})
    speeds = cluster.node_speeds or None

    speed_of = (lambda n: speeds[n]) if speeds else (lambda n: 1.0)
    cap = sum(cluster.cores_per_node * speed_of(n) * cluster.core_flops
              for n in alive)
    work_time = float(graph.total_flops) / cap if cap > 0 else 0.0

    smax = max(speed_of(n) for n in alive)
    dur = graph.columns.flops / (cluster.core_flops * smax)
    indptr, deps = dependencies_csr(graph)
    critical_time = float(bottom_levels(indptr, deps, dur).max())

    src = plan.msg_src
    ok = src >= 0
    if alive_nodes is not None:
        amask = np.zeros(P, dtype=bool)
        amask[alive] = True
        ok = ok & amask[np.clip(src, 0, P - 1)] & amask[plan.msg_dst]
    comm_time = 0.0
    if cluster.multicast == "p2p" and bool(ok.any()):
        counts = np.bincount(src[ok], minlength=P)
        comm_time = float(counts.max()) * cluster.message_time()

    bisection_time = 0.0
    if network == "contention":
        link_bw = (float(bisection_Bps) if bisection_Bps
                   else cluster.bandwidth_Bps * max(1.0, P / 2.0))
        bisection_time = float(ok.sum()) * cluster.tile_bytes / link_bw

    return ScheduleBounds(
        work_time=work_time,
        critical_time=critical_time,
        comm_time=comm_time,
        bisection_time=bisection_time,
    )
