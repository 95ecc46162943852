"""Mapping a pattern onto a concrete tiled matrix.

A :class:`TileDistribution` materializes the owner of every tile of an
``n × n`` tile grid by cyclic replication of a pattern (Section III).
For symmetric kernels, patterns may leave diagonal cells undefined;
each *replica* of such a cell on the matrix diagonal is then assigned
to the least loaded node among the nodes of its pattern colrow — the
extended-SBC rule of Section V, which never changes the communication
cost but improves load balance.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

import numpy as np

from .patterns.base import UNDEFINED, Pattern, PatternError

__all__ = ["TileDistribution", "distribution_error"]


def distribution_error(pattern: Pattern, symmetric: bool) -> Optional[str]:
    """Why ``pattern`` cannot back a (non-)symmetric distribution, or
    ``None`` when it can."""
    if symmetric and not pattern.is_square:
        return "symmetric distributions require a square pattern"
    if not symmetric and pattern.has_undefined:
        return "non-symmetric distributions require a fully defined pattern"
    return None


class TileDistribution:
    """Owner map for the tiles of an ``n × n`` tiled matrix.

    Parameters
    ----------
    pattern:
        The distribution pattern.
    n_tiles:
        Number of tile rows/columns of the matrix.
    symmetric:
        When True, only the lower triangle (``i ≥ j``) is meaningful
        (Cholesky); undefined diagonal pattern cells are resolved
        per-replica.  When False (LU), the pattern must be fully
        defined.
    """

    def __init__(self, pattern: Pattern, n_tiles: int, symmetric: bool = False):
        if n_tiles <= 0:
            raise ValueError("n_tiles must be positive")
        reason = distribution_error(pattern, symmetric)
        if reason is not None:
            raise PatternError(reason)
        self.pattern = pattern
        self.n_tiles = int(n_tiles)
        self.symmetric = bool(symmetric)
        self._owners = self._materialize()

    # ------------------------------------------------------------------
    def _materialize(self) -> np.ndarray:
        n = self.n_tiles
        r, c = self.pattern.shape
        rows = np.arange(n) % r
        cols = np.arange(n) % c
        owners = self.pattern.grid[np.ix_(rows, cols)].copy()

        if self.symmetric:
            if (owners == UNDEFINED).any():
                self._assign_undefined(owners)
            # mirror so that both (i, j) and (j, i) report the owner of
            # the stored lower-triangle tile
            low = np.tril(np.ones((n, n), dtype=bool))
            owners = np.where(low, owners, owners.T)
        return owners

    def _assign_undefined(self, owners: np.ndarray) -> None:
        """Extended-SBC diagonal rule (Section V).

        Every replica of an undefined *pattern-diagonal* cell — i.e.
        every lower-triangle tile ``(i, j)`` with ``i ≡ j (mod r)``
        whose pattern cell is undefined, including off-diagonal matrix
        tiles — is assigned to the least loaded node among the nodes of
        its pattern colrow.  Both the tile's row and column map to the
        same pattern colrow, so any of those nodes leaves the
        communication cost unchanged.
        """
        n = self.n_tiles
        r = self.pattern.nrows
        loads = np.zeros(self.pattern.nnodes, dtype=np.int64)
        low_i, low_j = np.tril_indices(n)
        vals = owners[low_i, low_j]
        defined = vals != UNDEFINED
        np.add.at(loads, vals[defined], 1)

        colrow_sets = [
            np.fromiter(self.pattern.colrow_nodes(i), dtype=np.int64)
            for i in range(r)
        ]
        todo = np.nonzero(~defined)[0]
        for idx in todo:
            i, j = int(low_i[idx]), int(low_j[idx])
            cand = colrow_sets[i % r]
            if cand.size == 0:  # pragma: no cover — a defined pattern row always has nodes
                cand = np.arange(self.pattern.nnodes)
            p = int(cand[np.argmin(loads[cand])])
            owners[i, j] = p
            loads[p] += 1

    # ------------------------------------------------------------------
    @property
    def owners(self) -> np.ndarray:
        """``owners[i, j]`` — node owning tile ``(i, j)``.

        For symmetric distributions the upper triangle mirrors the
        lower one (tile ``(i, j)``, ``i < j``, *is* tile ``(j, i)``).
        """
        return self._owners

    def owner(self, i: int, j: int) -> int:
        return int(self._owners[i, j])

    @property
    def nnodes(self) -> int:
        return self.pattern.nnodes

    @cached_property
    def loads(self) -> np.ndarray:
        """Tiles owned per node (lower triangle only when symmetric)."""
        if self.symmetric:
            i, j = np.tril_indices(self.n_tiles)
            vals = self._owners[i, j]
        else:
            vals = self._owners.ravel()
        return np.bincount(vals, minlength=self.nnodes)

    def load_imbalance(self) -> float:
        """``max_load / mean_load`` in owned tiles (1.0 = perfect)."""
        loads = self.loads
        mean = loads.mean()
        return float(loads.max() / mean) if mean else float("inf")

    def tiles_of(self, node: int) -> list[tuple[int, int]]:
        """All tiles owned by ``node`` (lower triangle when symmetric)."""
        if self.symmetric:
            i, j = np.tril_indices(self.n_tiles)
            mask = self._owners[i, j] == node
            return list(zip(i[mask].tolist(), j[mask].tolist()))
        i, j = np.nonzero(self._owners == node)
        return list(zip(i.tolist(), j.tolist()))

    def __repr__(self) -> str:
        mode = "symmetric" if self.symmetric else "full"
        return (
            f"TileDistribution({self.pattern.name!r}, n_tiles={self.n_tiles}, "
            f"{mode}, P={self.nnodes})"
        )
