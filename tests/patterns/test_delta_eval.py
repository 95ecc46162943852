"""Differential equivalence suite for the delta evaluator.

Two layers of protection for GCR&M's incremental construction:

* **Property layer** — :class:`DeltaCostState` apply/revert tracks full
  re-costing *bit for bit* over random swap sequences, for every P the
  shipped database covers (5..44).  The full evaluator
  (``Pattern.cost_cholesky`` / ``colrow_counts``) is the independent
  oracle.
* **Regression layer** — ``gcrm`` / ``gcrm_search`` return
  byte-identical results to the reference construction steps
  (``tests/patterns/gcrm_reference.py``, swapped in with
  ``monkeypatch``) at the paper's P∈{23,31,35} figure cases, their
  costs are bit-equal to a full ``Pattern.cost_cholesky`` re-cost, and
  the RNG-stream equivalence the bitmask phase 1 relies on
  (``Generator.choice(a) ≡ a[Generator.integers(0, len(a))]`` for a
  1-D population) is locked so a numpy internals change fails loudly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.patterns.base import Pattern, PatternError
from repro.patterns.delta import ColrowSwap, DeltaCostState
from repro.patterns.gcrm import feasible_sizes, gcrm, gcrm_search

from tests.patterns.gcrm_reference import _matching_assign as ref_matching_assign
from tests.patterns.gcrm_reference import _phase1 as ref_phase1
from tests.patterns.gcrm_reference import gcrm_module, reference_construction


# ---------------------------------------------------------------------------
# property layer: DeltaCostState vs full re-costing
# ---------------------------------------------------------------------------
class TestDeltaMatchesFullRecosting:
    @settings(max_examples=60, deadline=None)
    @given(
        P=st.integers(min_value=5, max_value=44),
        r=st.integers(min_value=2, max_value=16),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_swaps=st.integers(min_value=0, max_value=40),
    )
    def test_random_swap_sequence_bit_identical(self, P, r, seed, n_swaps):
        rng = np.random.default_rng(seed)
        grid = rng.integers(0, P, size=(r, r)).astype(np.int64)
        state = DeltaCostState.from_grid(grid, P)
        applied = []
        for _ in range(n_swaps):
            i = int(rng.integers(0, r))
            j = int(rng.integers(0, r))
            old = int(grid[i, j])
            new = int(rng.integers(0, P))
            grid[i, j] = new
            applied.append(state.apply(ColrowSwap(i, j, old, new)))
            # the incremental state equals a from-scratch rebuild...
            ref = DeltaCostState.from_grid(grid, P)
            assert np.array_equal(state.counts, ref.counts)
            assert np.array_equal(state.z, ref.z)
            # ...and the cost is bit-for-bit the full evaluator's
            full = Pattern(grid.copy(), nnodes=P)
            assert np.array_equal(state.z_counts, full.colrow_counts)
            assert state.cost == full.cost_cholesky
        # reverting in reverse order restores the initial state exactly
        for swap in reversed(applied):
            grid[swap.i, swap.j] = swap.old
            state.revert(swap)
        ref = DeltaCostState.from_grid(grid, P)
        assert np.array_equal(state.counts, ref.counts)
        assert np.array_equal(state.z, ref.z)

    @settings(max_examples=40, deadline=None)
    @given(
        P=st.integers(min_value=5, max_value=44),
        r=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_cost_delta_does_not_mutate(self, P, r, seed):
        rng = np.random.default_rng(seed)
        grid = rng.integers(0, P, size=(r, r))
        state = DeltaCostState.from_grid(grid, P)
        before_counts = state.counts.copy()
        before_z = state.z.copy()
        i, j = int(rng.integers(0, r)), int(rng.integers(0, r))
        swap = ColrowSwap(i, j, int(grid[i, j]), int(rng.integers(0, P)))
        peek = state.cost_delta(swap)
        assert np.array_equal(state.counts, before_counts)
        assert np.array_equal(state.z, before_z)
        grid2 = np.array(grid)
        grid2[i, j] = swap.new
        assert peek == Pattern(grid2, nnodes=P).cost_cholesky

    def test_partial_grid_and_diagonal(self):
        # undefined (diagonal) cells contribute nothing; defined
        # diagonal cells count once, off-diagonal cells twice
        grid = np.array([[-1, 0, 2], [0, 1, 1], [2, 1, 2]])
        state = DeltaCostState.from_grid(grid, 3)
        pat = Pattern(grid, nnodes=3)
        assert np.array_equal(state.z_counts, pat.colrow_counts)
        assert state.cost == pat.cost_cholesky
        # assigning an undefined cell is the swap None -> p
        swap = state.assign(0, 0, 1)
        grid2 = grid.copy()
        grid2[0, 0] = 1
        assert state.cost == Pattern(grid2, nnodes=3).cost_cholesky
        state.revert(swap)
        assert state.cost == pat.cost_cholesky

    def test_verify_crosscheck(self):
        rng = np.random.default_rng(0)
        grid = rng.integers(0, 7, size=(6, 6))
        state = DeltaCostState.from_grid(grid, 7)
        state.verify(grid)  # consistent
        state.counts[0, 0] += 1
        with pytest.raises(AssertionError):
            state.verify(grid)


class TestDeltaStateGuards:
    def test_degenerate_dimensions_rejected(self):
        with pytest.raises(ValueError, match="pattern size"):
            DeltaCostState(0, 5)
        with pytest.raises(ValueError, match="node count"):
            DeltaCostState(5, 0)

    def test_non_square_grid_rejected(self):
        with pytest.raises(PatternError, match="square"):
            DeltaCostState.from_grid(np.zeros((2, 3), dtype=int), 4)

    def test_out_of_range_node_rejected(self):
        with pytest.raises(PatternError, match="outside"):
            DeltaCostState.from_grid(np.full((2, 2), 7), 4)

    def test_inconsistent_decref_rejected(self):
        state = DeltaCostState(3, 3)
        with pytest.raises(ValueError, match="no cell"):
            state.apply(ColrowSwap(0, 1, 2, 1))  # node 2 owns nothing


# ---------------------------------------------------------------------------
# regression layer: the GCR&M construction against the reference oracle
# ---------------------------------------------------------------------------
class TestGcrmDeltaEquivalence:
    def test_reference_is_swapped_in(self, monkeypatch):
        production = gcrm_module._phase1, gcrm_module._matching_assign
        with reference_construction(monkeypatch):
            assert gcrm_module._phase1 is ref_phase1
            assert gcrm_module._matching_assign is ref_matching_assign
        assert (gcrm_module._phase1, gcrm_module._matching_assign) == production
        assert production[0] is not ref_phase1
        assert production[1] is not ref_matching_assign

    @pytest.mark.parametrize("P,r", [(5, 4), (7, 5), (23, 10), (23, 12),
                                     (31, 16), (35, 15), (44, 12)])
    def test_single_construction_identical(self, monkeypatch, P, r):
        for seed in range(4):
            with reference_construction(monkeypatch):
                a = gcrm(P, r, seed=seed)
            b = gcrm(P, r, seed=seed)
            assert a.cost == b.cost
            assert b.cost == b.pattern.cost_cholesky
            assert a.uses_all_nodes == b.uses_all_nodes
            assert a.colrows == b.colrows
            assert (a.loads == b.loads).all()
            assert a.pattern == b.pattern
            assert (a.pattern.grid == b.pattern.grid).all()

    def test_tie_break_first_identical(self, monkeypatch):
        with reference_construction(monkeypatch):
            a = gcrm(23, 10, seed=3, tie_break="first")
        b = gcrm(23, 10, seed=3, tie_break="first")
        assert a.cost == b.cost and (a.pattern.grid == b.pattern.grid).all()
        assert b.cost == b.pattern.cost_cholesky

    @pytest.mark.parametrize("P", [23, 31, 35])
    def test_search_winner_byte_identical(self, monkeypatch, P):
        kw = dict(seeds=range(5), max_factor=3.0, seed=1234, prune=False)
        with reference_construction(monkeypatch):
            full = gcrm_search(P, **kw)
        fast = gcrm_search(P, **kw)
        assert full.cost == fast.cost
        assert fast.cost == fast.pattern.cost_cholesky
        assert full.seed == fast.seed
        assert full.pattern == fast.pattern
        assert full.pattern.grid.tobytes() == fast.pattern.grid.tobytes()

    def test_search_delta_jobs_independent(self):
        kw = dict(seeds=range(5), max_factor=3.0, seed=7)
        serial = gcrm_search(23, jobs=1, **kw)
        parallel = gcrm_search(23, jobs=2, **kw)
        assert serial.cost == parallel.cost
        assert (serial.pattern.grid == parallel.pattern.grid).all()

    def test_rng_stream_equivalence(self):
        """choice(a) and a[integers(0, len(a))] consume identical draws.

        The bitmask phase 1 substitutes the latter for the former;
        this is what makes its RNG stream byte-identical to the
        reference.  Locked here so a numpy release that reworks
        ``Generator.choice`` internals fails this suite instead of
        silently diverging from the oracle.
        """
        for n in (1, 2, 3, 7, 35, 100):
            pop = list(range(10, 10 + n))
            a = np.random.default_rng(99)
            b = np.random.default_rng(99)
            for _ in range(25):
                x = a.choice(pop)
                y = pop[b.integers(0, len(pop))]
                assert x == y
            assert a.bit_generator.state == b.bit_generator.state


class TestGcrmGuards:
    def test_gcrm_rejects_bad_P(self):
        with pytest.raises(ValueError, match="node count"):
            gcrm(0, 4)
        with pytest.raises(ValueError, match="node count"):
            gcrm(-3, 4, seed=0)

    def test_gcrm_search_rejects_bad_P(self):
        with pytest.raises(ValueError, match="node count"):
            gcrm_search(0, seeds=range(2))

    def test_run_search_rejects_empty_groups(self):
        from repro.patterns.search import run_search

        with pytest.raises(ValueError, match="task group"):
            run_search(7, [])
        with pytest.raises(ValueError, match="empty task groups"):
            run_search(7, [(3, []), (4, [])])

    def test_feasible_sizes_contract_unchanged(self):
        # the documented degenerate behavior: no nodes -> no sizes
        # (the explicit ValueError lives one layer up, in gcrm_search)
        assert feasible_sizes(0, 6.0) == []
        assert feasible_sizes(1, 6.0)  # P=1 itself is fine
