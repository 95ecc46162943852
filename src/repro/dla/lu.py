"""Tiled right-looking LU factorization (no pivoting).

Mirrors Chameleon's ``dgetrf_nopiv``: at iteration ``k``

* ``GETRF(k,k)`` factorizes the diagonal tile,
* ``TRSM`` solves the column panel ``(i,k) ← (i,k)·U(k,k)⁻¹`` and the
  row panel ``(k,j) ← L(k,k)⁻¹·(k,j)``,
* ``GEMM(i,j) ← (i,j) − (i,k)·(k,j)`` updates the trailing matrix.

Two consumers of the same builder:

* :func:`build_lu_graph` → a :class:`~repro.runtime.graph.TaskGraph`
  for the event-driven simulator;
* :func:`execute_lu` → the actual numeric factorization (optionally
  logging inter-node tile messages when given a distribution), used to
  validate both the algorithm and the communication model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..distribution import TileDistribution
from ..runtime.graph import TaskGraph, TaskKind
from .kernels import (
    flops_gemm,
    flops_getrf,
    flops_trsm,
    gemm_update,
    getrf_nopiv,
    trsm_left_lower_unit,
    trsm_right_upper,
)
from .tiles import TiledMatrix

__all__ = ["build_lu_graph", "execute_lu", "lu_task_count", "MessageLog"]


@dataclass
class MessageLog:
    """Inter-node tile transfers recorded by a distributed execution.

    ``messages`` (kept only on request) lists every transfer as
    ``(src, dst, i, j)`` — the tile-for-tile record the differential
    conformance tests compare against the analytic counts of
    :mod:`repro.cost.exact`.
    """

    n_messages: int
    per_node_sent: np.ndarray
    per_node_recv: Optional[np.ndarray] = None
    messages: Optional[list] = None

    def __repr__(self) -> str:
        return f"MessageLog(n_messages={self.n_messages})"


def lu_task_count(n: int) -> int:
    """Number of tasks of the tiled LU on ``n × n`` tiles (closed form).

    ``n`` GETRF + ``n(n-1)`` TRSM + ``Σ_k (n-1-k)² = n(n-1)(2n-1)/6``
    GEMM.
    """
    return n + n * (n - 1) + n * (n - 1) * (2 * n - 1) // 6


def build_lu_graph(
    dist: TileDistribution, tile_size: int
) -> Tuple[TaskGraph, np.ndarray]:
    """Build the LU task graph for a distribution.

    Returns the graph and ``data_home`` (initial owner of every tile).

    The graph is emitted iteration by iteration as whole-panel /
    whole-trailing-update array batches (two ``append_batch`` calls per
    ``k``, no per-tile ``submit``), producing exactly the task sequence
    of the test-only per-tile reference builder
    (``build_lu_graph_reference`` in ``tests/runtime/object_reference.py``): tile
    ``(i, j)`` is written once per iteration ``k ≤ min(i, j)``, so at
    iteration ``k`` every touched tile moves from version ``k`` to
    ``k + 1``.
    """
    if dist.symmetric:
        raise ValueError("LU requires a non-symmetric distribution")
    n = dist.n_tiles
    own_flat = dist.owners.astype(np.int64).reshape(-1)
    graph = TaskGraph(n_data=n * n, nnodes=dist.nnodes)
    b = tile_size
    f_getrf, f_trsm, f_gemm = flops_getrf(b), flops_trsm(b), flops_gemm(b)

    for k in range(n):
        dk = k * n + k
        t = n - k - 1
        r = np.arange(k + 1, n, dtype=np.int64)
        kf = np.full(t, k, dtype=np.int64)

        # panel batch: GETRF(k,k), column TRSM(i,k), row TRSM(k,j)
        pi = np.concatenate(([k], r, kf))
        pj = np.concatenate(([k], kf, r))
        pdata = pi * n + pj
        pkind = np.concatenate(
            ([TaskKind.GETRF], np.full(2 * t, TaskKind.TRSM, dtype=np.int64)))
        pflops = np.concatenate(([f_getrf], np.full(2 * t, f_trsm)))
        # reads: GETRF reads (dk, k); each TRSM reads its tile at k and
        # the freshly factorized diagonal at k+1
        rdata = np.concatenate(
            ([dk], np.stack([pdata[1:], np.full(2 * t, dk, dtype=np.int64)],
                            axis=1).ravel()))
        rver = np.concatenate(([k], np.tile([k, k + 1], 2 * t)))
        rcounts = np.concatenate(([1], np.full(2 * t, 2, dtype=np.int64)))
        graph.append_batch(
            kind=pkind, i=pi, j=pj, k=k, node=own_flat[pdata], flops=pflops,
            read_data=rdata, read_version=rver, read_counts=rcounts,
            write_data=pdata)

        # trailing-update batch: GEMM(i,j) for i, j > k, i-major like the
        # reference double loop
        if t:
            gi = np.repeat(r, t)
            gj = np.tile(r, t)
            gd = gi * n + gj
            rdata = np.stack([gd, gi * n + k, k * n + gj], axis=1).ravel()
            rver = np.tile([k, k + 1, k + 1], t * t)
            graph.append_batch(
                kind=TaskKind.GEMM, i=gi, j=gj, k=k, node=own_flat[gd],
                flops=f_gemm, read_data=rdata, read_version=rver,
                read_counts=np.full(t * t, 3, dtype=np.int64), write_data=gd)
    data_home = own_flat.copy()
    return graph, data_home


def execute_lu(
    matrix: TiledMatrix, dist: Optional[TileDistribution] = None,
    log_messages: bool = False,
) -> Optional[MessageLog]:
    """Run the tiled LU numerically, in place.

    Without a distribution this is a plain sequential tiled LU.  With
    one, the execution additionally simulates the StarPU data cache:
    each produced tile version is "sent" once to every remote node that
    reads it, and the resulting message counts are returned.  The
    numeric result is identical either way.  ``log_messages=True``
    additionally keeps the full ``(src, dst, i, j)`` transfer list.
    """
    n = matrix.n_tiles
    log = _Logger(dist, keep_messages=log_messages) if dist is not None else None
    for k in range(n):
        diag = matrix.tile(k, k)
        getrf_nopiv(diag)
        if log:
            log.produce(k, k)
        for i in range(k + 1, n):
            if log:
                log.consume(k, k, by=(i, k))
            trsm_right_upper(matrix.tile(i, k), diag)
            if log:
                log.produce(i, k)
        for j in range(k + 1, n):
            if log:
                log.consume(k, k, by=(k, j))
            trsm_left_lower_unit(matrix.tile(k, j), diag)
            if log:
                log.produce(k, j)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                if log:
                    log.consume(i, k, by=(i, j))
                    log.consume(k, j, by=(i, j))
                gemm_update(matrix.tile(i, j), matrix.tile(i, k), matrix.tile(k, j))
                if log:
                    log.produce(i, j)
    return log.result() if log else None


class _Logger:
    """Tracks which nodes hold the current version of each tile."""

    def __init__(self, dist: TileDistribution, keep_messages: bool = False):
        self.dist = dist
        self.n_messages = 0
        self.per_node = np.zeros(dist.nnodes, dtype=np.int64)
        self.per_node_recv = np.zeros(dist.nnodes, dtype=np.int64)
        self.messages: Optional[list] = [] if keep_messages else None
        # holders of the *current* version of each tile; producing a new
        # version invalidates all remote copies (StarPU write-invalidate)
        self.holders: dict[tuple[int, int], set[int]] = {}

    def _owner(self, i: int, j: int) -> int:
        return self.dist.owner(i, j)

    def produce(self, i: int, j: int) -> None:
        self.holders[(i, j)] = {self._owner(i, j)}

    def consume(self, i: int, j: int, by: tuple[int, int]) -> None:
        node = self._owner(*by)
        held = self.holders.setdefault((i, j), {self._owner(i, j)})
        if node not in held:
            src = self._owner(i, j)
            self.n_messages += 1
            self.per_node[src] += 1
            self.per_node_recv[node] += 1
            if self.messages is not None:
                self.messages.append((src, node, i, j))
            held.add(node)

    def result(self) -> MessageLog:
        return MessageLog(n_messages=self.n_messages, per_node_sent=self.per_node,
                          per_node_recv=self.per_node_recv, messages=self.messages)
