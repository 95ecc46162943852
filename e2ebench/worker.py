"""One benchmark pass, run by ``run.py`` in a fresh interpreter.

Usage: ``python3 e2ebench/worker.py JOB_JSON`` with ``src`` on
``PYTHONPATH``.  The worker imports ``repro`` and resolves the
simulator backend (the set-up a CLI user pays), prints ``ready``, runs
the workload once — with the layer spans of :mod:`spans` installed when
the job says ``traced`` — and prints one JSON line with the pass's host
time, peak memory, per-operation results and output-check failures.
``JOB_JSON`` may also be ``setup`` to stop right after ``ready``.
"""

import sys
import time


def _setup() -> str:
    import repro  # noqa: F401  (the import is the measured set-up)
    from repro.runtime.backends import active_backend

    return active_backend()


def _op(label, tasks, msgs, gflops) -> dict:
    return {"label": label, "tasks": int(tasks), "msgs": int(msgs),
            "gflops": float(gflops)}


# ---------------------------------------------------------------------------
# workloads: each returns (operations, check); ``check()`` runs after the
# timed region and maps an operation index to its failed checks
# ---------------------------------------------------------------------------
def simulate_cli(seed, P, m, topology=1, trace_path=None):
    """The ``repro simulate -P P --tiles m --kernel lu`` call chain.

    The seed sets the GCR&M search window, as ``--seeds`` does; LU's
    G-2DBC pattern does not search, so every seed runs the same inputs.
    """
    from repro.experiments.harness import run_factorization
    from repro.patterns.library import best_pattern
    from repro.runtime.stats import comm_breakdown

    pat = best_pattern(P, kernel="lu", family=None,
                       seeds=range(seed, seed + 10))
    writer = None
    if trace_path is not None:
        from repro.runtime.tracefmt import ChromeTraceWriter

        writer = ChromeTraceWriter(trace_path)
    try:
        trace = run_factorization(
            pat, m, "lu", tile_size=500,
            network=None if topology > 1 else "nic", trace_writer=writer,
            scheduler="priority", attach_bounds=True,
            ranks_per_node=topology, resize=None)
    finally:
        if writer is not None:
            writer.close()
    trace.summary()
    comm_breakdown(trace)
    ops = [_op(f"lu P={P} m={m} rpn={topology}", trace.n_tasks,
               trace.n_messages, trace.gflops)]

    def check():
        import json

        from repro.cost.exact import count_lu_messages
        from repro.distribution import TileDistribution

        errors = []
        expected = count_lu_messages(
            TileDistribution(pat, m, symmetric=False)).total
        if trace.n_messages != expected:
            errors.append(f"simulated {trace.n_messages} messages, "
                          f"analytic count {expected}")
        if not trace.makespan >= trace.sched_bounds.best:
            errors.append(f"makespan {trace.makespan} below the schedule "
                          f"lower bound {trace.sched_bounds.best}")
        if writer is not None:
            with open(trace_path) as fh:
                events = json.load(fh)["traceEvents"]
            if len(events) != writer.events_written:
                errors.append(f"trace file holds {len(events)} events, "
                              f"writer reported {writer.events_written}")
        return {0: errors} if errors else {}

    return ops, check


def campaign(seed, P, m, slow, resize):
    """Serial campaign: g2dbc (LU) and gcrm (Cholesky) x networks x
    faults x resize."""
    from repro.dla.cholesky import cholesky_task_count
    from repro.dla.lu import lu_task_count
    from repro.experiments.campaign import plan_campaign, run_campaign

    cells = plan_campaign(
        ["g2dbc", "gcrm"], Ps=[P], ms=[m], networks=["nic", "contention"],
        faults=["", f"{slow},loss:0.01,seed:{seed}"], resizes=["", resize])
    rows = run_campaign(cells, jobs=1)
    count = {"lu": lu_task_count, "cholesky": cholesky_task_count}
    ops = [_op(f"{r.family} {r.network} faults={r.faults!r} "
               f"resize={r.resize!r}", count[r.kernel](r.m),
               r.simulated_messages, r.gflops) for r in rows]

    def check():
        failed = {}
        for i, r in enumerate(rows):
            errors = []
            if not 0 < r.makespan_s < float("inf"):
                errors.append(f"makespan {r.makespan_s}")
            # degraded and resized runs legitimately send extra messages
            # and have no analytic bound; only cross-pass identity holds
            if not r.faults and not r.resize:
                if r.simulated_messages != r.predicted_messages:
                    errors.append(f"simulated {r.simulated_messages} "
                                  f"messages, analytic count "
                                  f"{r.predicted_messages}")
                bound = max(r.schedule_bound_s, r.predicted_makespan_s)
                if not r.makespan_s >= bound:
                    errors.append(f"makespan {r.makespan_s} below the "
                                  f"lower bound {bound}")
            if errors:
                failed[i] = errors
        return failed

    return ops, check


def run_workload(name, seed, size, scratch):
    if name == "simulate-lu-p12-m128":
        return simulate_cli(seed, size["P"], size["m"])
    if name == "campaign-paths":
        return campaign(seed, size["P"], size["m"], size["slow"],
                        size["resize"])
    if name == "trace-hier-p23":
        return simulate_cli(seed, size["P"], size["m"], topology=2,
                            trace_path=f"{scratch}/trace-{seed}.json")
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
def layer_metrics(tracer, run_s: float) -> dict:
    """Per-layer metrics of one traced pass (see ``spec.PER_LAYER``)."""
    import os
    import statistics

    from repro.cost import COST_CACHE
    from spec import LAYER_TIMES

    out = {metric: tracer.self_s.get(layer, 0.0)
           for layer, metric in LAYER_TIMES}
    out["unattributed_s"] = run_s - tracer.top_s
    out["trace.run_s"] = run_s
    gets, builds = tracer.calls["get_plan"], tracer.calls["build_plan"]
    out["simplan.plan_hit_rate"] = 1.0 - builds / gets if gets else 0.0
    out["dla.tasks"] = tracer.built_tasks
    sim_s = out["simulator.python_s"] + out["simulator.compiled_s"]
    out["simulator.tasks_per_s"] = tracer.loop_tasks / sim_s if sim_s else 0.0
    sims = tracer.outer_sims
    out["network.msgs"] = sum(t.n_messages for t in sims)
    busy = [t.net_stats.busy_fractions(t.makespan)["link_busy"]
            for t in sims if t.net_stats is not None]
    out["network.link_busy_frac"] = statistics.fmean(busy) if busy else 0.0
    resizes = tracer.calls["simulate_with_resize"]
    out["resize.sims"] = tracer.resize_nested_sims / resizes if resizes else 0
    out["patterns.calls"] = tracer.outer_calls["patterns"]
    info = COST_CACHE.cache_info()
    lookups = info.hits + info.misses
    out["cost.cache_hit_rate"] = info.hits / lookups if lookups else 0.0
    out["tracefmt.events"] = sum(w.events_written for w in tracer.writers)
    out["tracefmt.mb"] = sum(os.path.getsize(w.path)
                             for w in tracer.writers) / 1e6
    cells = tracer.cell_s
    out["campaign.cells"] = len(cells)
    out["campaign.cell_p50_s"] = statistics.median(cells) if cells else 0.0
    out["campaign.cell_max_s"] = max(cells) if cells else 0.0
    return out


def main(argv) -> int:
    backend = _setup()
    print("ready", flush=True)
    if argv[1] == "setup":
        return 0
    import json
    import resource

    import numpy

    job = json.loads(argv[1])
    tracer = None
    if job["traced"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    ops, check = run_workload(job["workload"], job["seed"], job["size"],
                              job["scratch"])
    run_s = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result = {"backend": backend, "numpy": numpy.__version__,
              "run_s": run_s, "rss_mb": rss_mb, "ops": ops}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer, run_s)
    result["errors"] = check()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
