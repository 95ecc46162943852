"""Shipped plan builder and bounds ≡ the frozen multi-sort reference.

:func:`repro.runtime.simplan.build_plan` derives every
:class:`~repro.runtime.simplan.SimPlan` table from one grouping per
table; ``tests/runtime/plan_reference.py`` keeps the builder that
grouped the same reads several times over.  The event schedule of every
backend is a function of the plan alone, so equal plans mean equal
traces.  This suite asserts, over random problems, that every plan
field is equal in value and dtype and that
:meth:`~repro.cost.schedbounds.ScheduleBounds.to_canonical` agrees.

Cases cover LU (G-2DBC, 2DBC) and Cholesky (GCR&M, square G-2DBC,
square 2DBC) from the batch builders, plus the ``submit``-built GEMM
and SYRK graphs, each with no data homes, owner homes and shuffled
homes (the latter turn version-0 reads into init fetches).  GCR&M
leaves pattern diagonals undefined, so only the symmetric kernels
use it.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.schedbounds import schedule_lower_bounds
from repro.distribution import TileDistribution
from repro.dla.cholesky import build_cholesky_graph
from repro.dla.gemm import build_gemm_graph
from repro.dla.lu import build_lu_graph
from repro.dla.syrk import build_syrk_graph
from repro.patterns.bc2d import bc2d
from repro.patterns.g2dbc import g2dbc
from repro.patterns.gcrm import feasible_sizes, gcrm
from repro.runtime.cluster import ClusterSpec
from repro.runtime.simplan import SimPlan, build_plan
from tests.runtime import plan_reference

TILE = 8

CASES = [("lu", "g2dbc"), ("lu", "bc2d"), ("cholesky", "gcrm"),
         ("cholesky", "g2dbc"), ("cholesky", "bc2d"), ("gemm", "g2dbc"),
         ("syrk", "gcrm")]


def _pattern(family, P, symmetric, seed):
    if family == "gcrm":
        return gcrm(P, feasible_sizes(P)[0], seed=seed).pattern
    a = math.isqrt(P)
    if family == "g2dbc":
        return g2dbc(a * a if symmetric else P)
    if symmetric:
        return bc2d(a, a)
    r = max(d for d in range(1, a + 1) if P % d == 0)
    return bc2d(r, P // r)


def _graph(kernel, family, P, m, seed):
    symmetric = kernel in ("cholesky", "syrk")
    pat = _pattern(family, P, symmetric, seed)
    dist = TileDistribution(pat, m, symmetric=symmetric)
    if kernel == "lu":
        graph, home = build_lu_graph(dist, TILE)
    elif kernel == "cholesky":
        graph, home = build_cholesky_graph(dist, TILE)
    elif kernel == "gemm":
        graph, home = build_gemm_graph(dist, TILE, 1 + seed % 3)
    else:
        graph, home, _ = build_syrk_graph(dist, TILE, 1 + seed % 3)
    return graph, home, pat.nnodes


def assert_plans_equal(got: SimPlan, want: SimPlan):
    for f in dataclasses.fields(SimPlan):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, f.name
            assert a.shape == b.shape, f.name
            assert np.array_equal(a, b), f.name
        else:
            assert type(a) is type(b) and a == b, f.name


@given(st.sampled_from(CASES), st.integers(1, 16), st.integers(1, 12),
       st.sampled_from(["none", "owner", "shuffled"]),
       st.integers(0, 2**16), st.sampled_from(["nic", "contention"]),
       st.booleans())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_plan_and_bounds_match_reference(case, P, m, homes, seed, network,
                                         degraded):
    kernel, family = case
    graph, home, nnodes = _graph(kernel, family, P, m, seed)
    if homes == "none":
        home = None
    elif homes == "shuffled":
        home = np.random.default_rng(seed).permutation(home)

    got = build_plan(graph, home)
    want = plan_reference.build_plan(graph, home)
    assert_plans_equal(got, want)

    cluster = ClusterSpec(nnodes=nnodes, cores_per_node=2, core_gflops=1.0)
    alive = range(0, nnodes, 2) if degraded else None
    bounds = schedule_lower_bounds(graph, cluster, plan=got, network=network,
                                   alive_nodes=alive)
    ref = plan_reference.schedule_lower_bounds(
        graph, cluster, want, network=network, alive_nodes=alive)
    assert bounds.to_canonical() == ref.to_canonical()


def test_shuffled_homes_exercise_init_fetches():
    """The shuffled-home cases reach the init-uid path (and owner homes
    of the LU graph do not), so the oracle covers both message kinds."""
    graph, home, _ = _graph("lu", "g2dbc", 6, 8, 0)
    assert build_plan(graph, home).init_uids.size == 0
    shuffled = np.random.default_rng(0).permutation(home)
    plan = build_plan(graph, shuffled)
    assert plan.init_uids.size > 0
    assert_plans_equal(plan, plan_reference.build_plan(graph, shuffled))
