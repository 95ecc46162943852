"""Tests for the version-based task graph."""

import pytest

from repro.runtime.graph import TaskGraph, TaskKind


def make_graph():
    return TaskGraph(n_data=4, nnodes=2)


class TestVersioning:
    def test_initial_version_zero(self):
        g = make_graph()
        assert g.version(0) == 0
        assert g.current(0) == (0, 0)

    def test_submit_bumps_version(self):
        g = make_graph()
        t = g.submit(TaskKind.GETRF, 0, 0, 0, 0, 10.0, (g.current(0),), 0)
        assert t.write == (0, 1)
        assert g.version(0) == 1
        assert g.producer[(0, 1)] == t.tid

    def test_tids_sequential(self):
        g = make_graph()
        for i in range(3):
            t = g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1.0, (g.current(0),), 0)
            assert t.tid == i
        assert len(g) == 3

    def test_total_flops_accumulates(self):
        g = make_graph()
        g.submit(TaskKind.GEMM, 0, 0, 0, 0, 5.0, (), 0)
        g.submit(TaskKind.GEMM, 0, 1, 0, 0, 7.0, (), 1)
        assert g.total_flops == 12.0


class TestDependencies:
    def test_producer_dependency(self):
        g = make_graph()
        t1 = g.submit(TaskKind.GETRF, 0, 0, 0, 0, 1.0, (g.current(0),), 0)
        t2 = g.submit(TaskKind.TRSM, 1, 0, 0, 1, 1.0, (g.current(1), g.current(0)), 1)
        assert g.dependencies(t2) == [t1.tid]

    def test_version0_reads_have_no_producer(self):
        g = make_graph()
        t = g.submit(TaskKind.GETRF, 0, 0, 0, 0, 1.0, (g.current(0),), 0)
        assert g.dependencies(t) == []

    def test_waw_chain_via_inplace_reads(self):
        g = make_graph()
        t1 = g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1.0, (g.current(0),), 0)
        t2 = g.submit(TaskKind.GEMM, 0, 0, 1, 0, 1.0, (g.current(0),), 0)
        assert g.dependencies(t2) == [t1.tid]


class TestConsumersAndMessages:
    def test_consumers_by_version(self):
        g = make_graph()
        g.submit(TaskKind.GETRF, 0, 0, 0, 0, 1.0, (g.current(0),), 0)
        g.submit(TaskKind.TRSM, 1, 0, 0, 1, 1.0, (g.current(1), g.current(0)), 1)
        g.submit(TaskKind.TRSM, 0, 1, 0, 0, 1.0, (g.current(2), g.current(0)), 2)
        consumers = g.consumers_by_version()
        assert consumers[(0, 1)] == {0, 1}

    def test_message_count_remote_readers_only(self):
        g = make_graph()
        g.submit(TaskKind.GETRF, 0, 0, 0, 0, 1.0, (g.current(0),), 0)
        # two tasks on node 1 read version (0,1): ONE message
        g.submit(TaskKind.TRSM, 1, 0, 0, 1, 1.0, (g.current(1), (0, 1)), 1)
        g.submit(TaskKind.TRSM, 0, 1, 0, 1, 1.0, (g.current(2), (0, 1)), 2)
        assert g.message_count() == 1

    def test_local_reads_are_free(self):
        g = make_graph()
        g.submit(TaskKind.GETRF, 0, 0, 0, 0, 1.0, (g.current(0),), 0)
        g.submit(TaskKind.TRSM, 1, 0, 0, 0, 1.0, (g.current(1), (0, 1)), 1)
        assert g.message_count() == 0


class TestValidate:
    def test_valid_graph_passes(self):
        g = make_graph()
        g.submit(TaskKind.GETRF, 0, 0, 0, 0, 1.0, (g.current(0),), 0)
        g.submit(TaskKind.TRSM, 1, 0, 0, 1, 1.0, (g.current(1), g.current(0)), 1)
        g.validate()

    def test_read_of_future_version_detected(self):
        g = make_graph()
        g.submit(TaskKind.GETRF, 0, 0, 0, 0, 1.0, ((1, 5),), 0)
        with pytest.raises(ValueError, match="before it is produced"):
            g.validate()

    def test_repr_compact(self):
        g = make_graph()
        t = g.submit(TaskKind.GEMM, 2, 3, 1, 0, 1.0, (), 0)
        assert repr(t) == "GEMM(2,3;k=1)@0"


class TestMessageCountSinglePass:
    """Regression: :meth:`TaskGraph.message_count` must resolve version
    homes through the precomputed first-writer index in ONE vectorized
    pass — the pre-refactor implementation rescanned the whole task
    list for every version whose producer it hadn't tracked (quadratic
    on panel-heavy graphs)."""

    def _lu_graph(self):
        from repro.distribution import TileDistribution
        from repro.dla.lu import build_lu_graph
        from repro.patterns.g2dbc import g2dbc

        dist = TileDistribution(g2dbc(5), 10, symmetric=False)
        return build_lu_graph(dist, 8)

    def test_matches_object_level_recount(self):
        graph, _ = self._lu_graph()
        # brute force over materialized tasks: one message per unique
        # (data, version, remote consumer node)
        producer_node = {}
        first_writer_node = {}
        for t in graph.tasks:
            producer_node[t.write] = t.node
            first_writer_node.setdefault(t.write[0], t.node)
        pairs = set()
        for t in graph.tasks:
            for d, v in t.reads:
                home = producer_node.get((d, v), first_writer_node.get(d, -1))
                if home >= 0 and home != t.node:
                    pairs.add((d, v, t.node))
        assert graph.message_count() == len(pairs)

    def test_single_vectorized_pass(self, monkeypatch):
        graph, _ = self._lu_graph()
        graph.columns  # freeze the columns before instrumenting
        calls = {"producer_for": 0}
        orig = TaskGraph.producer_for

        def counting(self, data, version):
            calls["producer_for"] += 1
            return orig(self, data, version)

        def no_tasks(self):
            raise AssertionError(
                "message_count must not materialize Task objects")

        monkeypatch.setattr(TaskGraph, "producer_for", counting)
        monkeypatch.setattr(TaskGraph, "tasks", property(no_tasks))
        monkeypatch.setattr(TaskGraph, "task", no_tasks)
        assert graph.message_count() > 0
        # exactly one batched producer lookup, no per-task fallback scan
        assert calls["producer_for"] == 1


class TestAppendBatchDuplicates:
    """``append_batch`` derives each write version as ``current + 1``,
    so a batch that writes one datum twice is rejected before anything
    is appended."""

    MSG = "append_batch writes a datum twice in one batch"

    @staticmethod
    def _append(g, writes):
        B = len(writes)
        g.append_batch(kind=TaskKind.GEMM, i=0, j=0, k=0, node=0, flops=1.0,
                       read_data=writes, read_version=[g.version(d)
                                                       for d in writes],
                       read_counts=[1] * B, write_data=writes)

    @staticmethod
    def _state(g):
        cols = g.columns
        return (len(g), g._gen, g.total_flops,
                [g.version(d) for d in range(g.n_data)],
                [getattr(cols, f).tolist() for f in
                 ("kind", "write_data", "write_version", "read_indptr",
                  "read_data", "read_version")])

    @pytest.mark.parametrize("writes", [
        [3, 3],                  # batch of size 2
        [5, 1, 2, 5, 7],         # duplicate at the first position
        [1, 4, 0, 4, 6],         # duplicate in the middle
        [0, 2, 6, 1, 1],         # duplicate at the last position
        [2, 2, 2],
    ], ids=["size2", "first", "middle", "last", "triple"])
    def test_duplicate_rejected_graph_unchanged(self, writes):
        g = TaskGraph(n_data=8, nnodes=2)
        self._append(g, [0, 1, 2])
        g.submit(TaskKind.GEMM, 0, 0, 1, 0, 2.0, (g.current(3),), 3)
        before = self._state(g)
        with pytest.raises(ValueError, match=self.MSG):
            self._append(g, writes)
        assert self._state(g) == before

    def test_rewrite_in_later_batch_accepted(self):
        g = TaskGraph(n_data=4, nnodes=2)
        self._append(g, [0, 1, 2])
        self._append(g, [2, 0])
        self._append(g, [0])
        cols = g.columns
        assert cols.write_data.tolist() == [0, 1, 2, 2, 0, 0]
        assert cols.write_version.tolist() == [1, 1, 1, 2, 2, 3]
        g.validate()

    def test_distinct_writes_accepted(self):
        g = TaskGraph(n_data=4, nnodes=2)
        self._append(g, [3, 0, 2, 1])
        assert g.columns.write_version.tolist() == [1, 1, 1, 1]
