"""Differential oracle: the streaming Chrome-trace writer ≡ the frozen one.

:mod:`tests.runtime.chrome_reference` keeps the writer that built one
dict and one ``json.dumps`` per event.  Each case records the exact
call stream a simulation hands its writer (task and message records,
fault incidents, resize stats and the explicit flushes), replays it
into both writers and asserts the files are byte-identical and the
progress counters agree.  The cases cover labelled and unlabelled
tasks, several buffer sizes, the three network models, a fault run
with node-scoped and cluster-wide incidents, and resize runs with a
finite and an infinite break-even.
"""

import hashlib
import math

import pytest

from repro.cli import main
from repro.distribution import TileDistribution
from repro.dla.cholesky import build_cholesky_graph
from repro.dla.lu import build_lu_graph
from repro.patterns.g2dbc import g2dbc
from repro.patterns.library import shipped_pattern
from repro.runtime.cluster import ClusterSpec
from repro.runtime.simulator import simulate
from repro.runtime.trace import TraceWriter
from repro.runtime.tracefmt import ChromeTraceWriter
from tests.runtime.chrome_reference import ChromeTraceWriter as ReferenceWriter

TILE = 8


class _Tape(TraceWriter):
    """Records every writer call of one run, in order."""

    def __init__(self):
        self.calls = []

    def write_task(self, rec):
        self.calls.append(("write_task", rec))

    def write_msg(self, rec):
        self.calls.append(("write_msg", rec))

    def write_fault(self, event):
        self.calls.append(("write_fault", event))

    def write_resize(self, stats):
        self.calls.append(("write_resize", stats))

    def flush(self):
        self.calls.append(("flush", None))


def _replay(tape, writer):
    for name, arg in tape.calls:
        if arg is None:
            getattr(writer, name)()
        else:
            getattr(writer, name)(arg)
    writer.close()
    return writer


def _run(kernel="lu", P=5, m=6, network="nic", rpn=1, **sim_kw):
    pat = g2dbc(P) if kernel == "lu" else shipped_pattern(P, "cholesky")
    dist = TileDistribution(pat, m, symmetric=kernel == "cholesky")
    build = build_lu_graph if kernel == "lu" else build_cholesky_graph
    graph, home = build(dist, TILE)
    cl = ClusterSpec(nnodes=P, cores_per_node=2, core_gflops=1.0,
                     bandwidth_Bps=1e9, latency_s=1e-6, tile_size=TILE,
                     ranks_per_node=rpn)
    tape = _Tape()
    trace = simulate(graph, cl, data_home=home, network=network,
                     trace_writer=tape, **sim_kw)
    return graph, tape, trace


def _assert_identical(tmp_path, graph, tape, buffer_events):
    ref = _replay(tape, ReferenceWriter(tmp_path / "ref.json", graph=graph,
                                        buffer_events=buffer_events))
    new = _replay(tape, ChromeTraceWriter(tmp_path / "new.json", graph=graph,
                                          buffer_events=buffer_events))
    assert new.path.read_bytes() == ref.path.read_bytes()
    assert (new.events_written, new.flushes) == (ref.events_written,
                                                 ref.flushes)


RUNS = {
    "nic": dict(),
    "contention": dict(network="contention"),
    "hierarchical": dict(P=6, network="hierarchical", rpn=2),
    "cholesky-hier": dict(kernel="cholesky", P=6, m=5,
                          network="hierarchical", rpn=2),
}


@pytest.mark.parametrize("labelled", [True, False], ids=["graph", "no-graph"])
@pytest.mark.parametrize("buffer_events", [1, 7, 4096])
@pytest.mark.parametrize("run", sorted(RUNS))
def test_recorded_runs_identical(tmp_path, run, buffer_events, labelled):
    graph, tape, trace = _run(**RUNS[run])
    kinds = {name for name, _ in tape.calls}
    assert {"write_task", "write_msg"} <= kinds
    _assert_identical(tmp_path, graph if labelled else None, tape,
                      buffer_events)


@pytest.mark.parametrize("buffer_events", [1, 7, 4096])
def test_fault_run_identical(tmp_path, buffer_events):
    graph, tape, trace = _run(
        P=5, m=8, network="contention", record_tasks=True,
        faults="fail:1@2e-5,degrade:1e-5-4e-5x0.5,loss:0.05,seed:3")
    nodes = {ev.node for name, ev in tape.calls if name == "write_fault"}
    assert any(n >= 0 for n in nodes) and any(n < 0 for n in nodes)
    _assert_identical(tmp_path, graph, tape, buffer_events)


@pytest.mark.parametrize("resize", ["7@3e-5", "3@3e-5"])
@pytest.mark.parametrize("buffer_events", [1, 4096])
def test_resize_run_identical(tmp_path, resize, buffer_events):
    graph, tape, trace = _run(P=5, m=8, resize=resize)
    assert any(name == "write_resize" for name, _ in tape.calls)
    _assert_identical(tmp_path, graph, tape, buffer_events)


def test_resize_shrink_has_infinite_breakeven():
    """The shrink case above exercises the writer's ``"inf"`` branch."""
    _, _, trace = _run(P=5, m=8, resize="3@3e-5")
    assert math.isinf(trace.resize_stats.breakeven)


def test_cli_trace_file_pinned(tmp_path):
    """``repro simulate --topology 2 --trace-out`` output, byte for byte,
    as the per-event ``json.dumps`` writer wrote it."""
    path = tmp_path / "t.json"
    assert main(["simulate", "-P", "6", "--tiles", "10", "--topology", "2",
                 "--trace-out", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == ("07b5ba2fddbb51f0f1d3a1763d4303828431a6ee"
                      "906265a9ff3633488cb43883")
