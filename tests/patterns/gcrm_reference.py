"""Reference GCR&M construction steps — the oracle for the single path.

:mod:`repro.patterns.gcrm` builds every pattern with the bitmask phase 1
and the direct-CSR matching.  The straightforward versions they replaced
live here, unchanged, so the differential suites can swap them in with
``monkeypatch`` (:func:`reference_construction`) and assert that the
production path returns byte-identical grids, colrows, loads and costs.

This module is test-only: nothing under ``src/`` imports it.
"""

import importlib
from contextlib import contextmanager

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

# by module path: the package re-exports a *function* named ``gcrm``
gcrm_module = importlib.import_module("repro.patterns.gcrm")

__all__ = ["_phase1", "_matching_assign", "reference_construction"]


def _phase1(P: int, r: int, rng: np.random.Generator,
            tie_break: str = "usage_random") -> list[set[int]]:
    """Greedy colrow assignment (lines 1-10 of Algorithm 1)."""
    A = [set() for _ in range(P)]
    # membership[p, i] — colrow i in A[p]
    member = np.zeros((P, r), dtype=bool)
    for i in range(r):
        A[i % P].add(i)
        member[i % P, i] = True
    # uncovered[i, j] for i != j
    uncovered = ~np.eye(r, dtype=bool)
    # covered cells per node: |A[p]| * (|A[p]| - 1) at most, but cells
    # may be covered by several nodes; "load" is the node's own
    # coverage, the natural proxy for the cells it will end up owning.
    sizes = member.sum(axis=1)
    usage = member.sum(axis=0)  # how many A[p] contain each colrow

    guard = 0
    max_iter = 4 * P * r + 16
    while uncovered.any():
        guard += 1
        if guard > max_iter:  # pragma: no cover - safety net
            raise RuntimeError(f"GCR&M phase 1 did not converge (P={P}, r={r})")
        loads = sizes * (sizes - 1)
        least = np.flatnonzero(loads == loads.min())
        p = int(rng.choice(least))
        mine = member[p]
        # newly covered cells when adding colrow b: pairs (b, i)/(i, b)
        # with i in A[p], intersected with the uncovered set.
        gain = (uncovered[:, mine].sum(axis=1) + uncovered[mine, :].sum(axis=0))
        gain[mine] = -1  # already-owned colrows bring nothing
        best_gain = gain.max()
        cand = np.flatnonzero(gain == best_gain)
        if len(cand) > 1 and tie_break == "usage_random":
            u = usage[cand]
            cand = cand[u == u.min()]
        if tie_break == "first":
            b = int(cand[0])
        else:
            b = int(rng.choice(cand))
        A[p].add(b)
        member[p, b] = True
        sizes[p] += 1
        usage[b] += 1
        mine = member[p]
        uncovered[b, mine] = False
        uncovered[mine, b] = False
    return A


def _matching_assign(cells: np.ndarray, cover: np.ndarray, copies: np.ndarray) -> np.ndarray:
    """Match ``cells`` (indices into cover's rows) to node copies.

    ``cover`` is an (ncells, P) boolean coverage matrix; ``copies[p]``
    is the number of copies of node ``p`` on the right side.  Returns an
    array of node ids (or -1) per cell, assigning at most ``copies[p]``
    cells to node ``p`` via Hopcroft–Karp maximum bipartite matching.
    """
    P = cover.shape[1]
    col_node = np.repeat(np.arange(P), copies)
    if len(col_node) == 0 or len(cells) == 0:
        return np.full(len(cells), -1, dtype=np.int64)
    sub = cover[cells]  # (n, P)
    rows, nodecols = np.nonzero(sub)
    # expand node columns into copy columns
    starts = np.concatenate([[0], np.cumsum(copies)])
    r_idx = []
    c_idx = []
    for rr, nn in zip(rows, nodecols):
        for cc in range(starts[nn], starts[nn + 1]):
            r_idx.append(rr)
            c_idx.append(cc)
    if not r_idx:
        return np.full(len(cells), -1, dtype=np.int64)
    graph = csr_matrix(
        (np.ones(len(r_idx), dtype=np.int8), (r_idx, c_idx)),
        shape=(len(cells), len(col_node)),
    )
    match = maximum_bipartite_matching(graph, perm_type="column")
    out = np.full(len(cells), -1, dtype=np.int64)
    for cell_row in range(len(cells)):
        copy_col = match[cell_row]
        if copy_col >= 0:
            out[cell_row] = col_node[copy_col]
    return out


@contextmanager
def reference_construction(monkeypatch):
    """Inside the block, :mod:`repro.patterns.gcrm` builds with the oracle.

    ``gcrm`` looks both steps up as module globals at call time, so every
    in-process caller — ``gcrm``, ``gcrm_hier``, a serial ``gcrm_search``
    and ``best_pattern`` — runs the reference construction.
    """
    with monkeypatch.context() as m:
        m.setattr(gcrm_module, "_phase1", _phase1)
        m.setattr(gcrm_module, "_matching_assign", _matching_assign)
        yield
