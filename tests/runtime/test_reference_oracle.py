"""Differential oracle: the production event loop ≡ the frozen reference.

:func:`simulate_reference` is the object-walking event loop as it stood
before the columnar refactor: one ``Task`` per kernel call, one
``(data, version)`` tuple per message, no plan, no inlining.  It is the
executable spec of the Section II-C runtime.  The production loop in
:mod:`repro.runtime.simulator` (and the compiled backend it routes to)
must reproduce it byte for byte — same canonical trace, same per-task
and per-message records in the same order — across both kernels, node
counts, the three network models, recording on and off, the cluster
variants that change event arithmetic, and both backend choices.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distribution import TileDistribution
from repro.dla.cholesky import build_cholesky_graph
from repro.dla.lu import build_lu_graph
from repro.patterns.g2dbc import g2dbc
from repro.patterns.gcrm import feasible_sizes, gcrm
from repro.runtime import backends
from repro.runtime.cluster import ClusterSpec
from repro.runtime.simulator import simulate
from repro.runtime.trace import TraceWriter
from tests.runtime.object_reference import simulate_reference

TILE = 8

#: cluster variants that reach different branches of the event arithmetic
VARIANTS = ("base", "cores1", "rx_serialization", "node_speeds", "tree")


def _graph(kernel: str, P: int, m: int):
    if kernel == "lu":
        return build_lu_graph(TileDistribution(g2dbc(P), m, symmetric=False),
                              TILE)
    pat = gcrm(P, feasible_sizes(P)[0], seed=0).pattern
    return build_cholesky_graph(TileDistribution(pat, m, symmetric=True), TILE)


def _cluster(P: int, network: str, variant: str) -> ClusterSpec:
    kw = dict(nnodes=P, cores_per_node=2, core_gflops=1.0,
              bandwidth_Bps=1e9, latency_s=1e-6, tile_size=TILE)
    if network == "hierarchical":
        kw["ranks_per_node"] = 2
    if variant == "cores1":
        kw["cores_per_node"] = 1
    elif variant == "rx_serialization":
        kw["rx_serialization"] = True
    elif variant == "node_speeds":
        kw["node_speeds"] = tuple(1.0 + 0.5 * (n % 3) for n in range(P))
    elif variant == "tree":
        kw["multicast"] = "tree"
    return ClusterSpec(**kw)


def _dump(trace) -> str:
    return json.dumps(trace.to_canonical(), sort_keys=True)


case = st.tuples(
    st.sampled_from(["lu", "cholesky"]),
    st.integers(2, 16),                                   # P
    st.integers(2, 10),                                   # m
    st.sampled_from(["nic", "contention", "hierarchical"]),
    st.booleans(),                                        # record_tasks
    st.sampled_from(VARIANTS),
    st.sampled_from(["python", "auto"]),                  # backend
)


@given(case)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_simulate_matches_reference(params):
    kernel, P, m, network, record, variant, backend = params
    graph, home = _graph(kernel, P, m)
    cluster = _cluster(P, network, variant)
    want = simulate_reference(graph, cluster, data_home=home,
                              record_tasks=record, network=network)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(backends.BACKEND_ENV, backend)
        got = simulate(graph, cluster, data_home=home,
                       record_tasks=record, network=network)
    assert _dump(got) == _dump(want)
    if record:
        assert got.task_records == want.task_records
        assert got.msg_records == want.msg_records
        assert (got.completion_times == want.completion_times).all()


class _Collect(TraceWriter):
    def __init__(self):
        self.tasks, self.msgs = [], []

    def write_task(self, rec):
        self.tasks.append(rec)

    def write_msg(self, rec):
        self.msgs.append(rec)


@pytest.mark.parametrize("kernel,network,variant", [
    ("lu", "nic", "base"),
    ("cholesky", "nic", "tree"),
    ("lu", "contention", "base"),
    ("cholesky", "hierarchical", "base"),
])
def test_streamed_records_match_reference(kernel, network, variant):
    P, m = 7, 8
    graph, home = _graph(kernel, P, m)
    cluster = _cluster(P, network, variant)
    want = simulate_reference(graph, cluster, data_home=home,
                              record_tasks=True, network=network)
    writer = _Collect()
    got = simulate(graph, cluster, data_home=home, network=network,
                   trace_writer=writer)
    assert got.task_records is None and got.msg_records is None
    assert writer.tasks == want.task_records
    assert writer.msgs == want.msg_records
    assert got.makespan == want.makespan
