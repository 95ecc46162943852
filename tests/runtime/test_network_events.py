"""Event economy of the fair-share network models.

Every re-apportioning of the link shares pushes exactly one finish
event — the only one that can fire before the next re-apportioning —
so a message costs at most three internal events: its data stage, and
the finish pushed by the reschedule at its own data stage and at its
own finish.  A pushed count per reschedule and per message pins this.
"""

import json

import pytest

from repro.distribution import TileDistribution
from repro.dla.cholesky import build_cholesky_graph
from repro.dla.lu import build_lu_graph
from repro.patterns.g2dbc import g2dbc
from repro.patterns.library import shipped_pattern
from repro.runtime.cluster import ClusterSpec
from repro.runtime.network import (
    EVENT_NET_INTERNAL,
    ContentionModel,
    HierarchicalModel,
)
from repro.runtime.simulator import simulate

TILE = 8


def _counting(base):
    """``base`` with its internal pushes and busy reschedules counted."""

    class Counting(base):
        def bind(self, cluster, push_event, **kw):
            self.pushes = {"data": 0, "fin": 0}
            self.busy_reschedules = 0

            def push(time, etype, payload):
                if etype == EVENT_NET_INTERNAL:
                    self.pushes[payload[0]] += 1
                push_event(time, etype, payload)

            super().bind(cluster, push, **kw)

        def _reschedule(self, *args):
            if self._active:
                self.busy_reschedules += 1
            super()._reschedule(*args)

    return Counting


def _run(kernel, P, m, network, rpn=1):
    pat = g2dbc(P) if kernel == "lu" else shipped_pattern(P, "cholesky")
    dist = TileDistribution(pat, m, symmetric=kernel == "cholesky")
    build = build_lu_graph if kernel == "lu" else build_cholesky_graph
    graph, home = build(dist, TILE)
    cl = ClusterSpec(nnodes=P, cores_per_node=2, core_gflops=1.0,
                     bandwidth_Bps=1e9, latency_s=1e-6, tile_size=TILE,
                     ranks_per_node=rpn)
    return simulate(graph, cl, data_home=home, network=network,
                    record_tasks=True)


CASES = [
    ("lu", 5, 8, ContentionModel, 1),
    ("lu", 9, 6, ContentionModel, 1),
    ("cholesky", 7, 8, ContentionModel, 1),
    ("lu", 6, 8, HierarchicalModel, 2),
    ("lu", 9, 6, HierarchicalModel, 3),
    ("cholesky", 7, 8, HierarchicalModel, 2),
]


@pytest.mark.parametrize("kernel,P,m,base,rpn", CASES)
def test_one_finish_push_per_reschedule(kernel, P, m, base, rpn):
    model = _counting(base)()
    trace = _run(kernel, P, m, model, rpn)
    n = trace.n_messages
    assert n > 0
    assert model.pushes["data"] == n
    assert model.pushes["fin"] == model.busy_reschedules
    assert sum(model.pushes.values()) <= 3 * n


@pytest.mark.parametrize("kernel,P,m,base,rpn", CASES)
def test_counting_wrapper_leaves_the_run_unchanged(kernel, P, m, base, rpn):
    counted = _run(kernel, P, m, _counting(base)(), rpn)
    plain = _run(kernel, P, m, base.name, rpn)
    assert (json.dumps(counted.to_canonical(), sort_keys=True)
            == json.dumps(plain.to_canonical(), sort_keys=True))
