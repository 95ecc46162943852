"""What the end-to-end benchmark measures: workloads, metrics, bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 e2ebench/run.py --write-spec``) so the file the benchmark is
judged by and the code that produces the numbers cannot drift apart.
"""

from __future__ import annotations

RUN_SECONDS = 40
COMMAND = ["python3", "e2ebench/run.py"]
PATHS = ["e2ebench"]

#: Every workload runs in one process per pass, serially (``jobs=1``).
#: ``full`` sizes are the measured configuration; ``smoke`` sizes are the
#: tiny variant the smoke test runs so it stays cheap.
WORKLOADS = {
    "simulate-lu-p12-m128": {
        "why": "the repro simulate -P 12 --tiles 128 call chain: 707k tasks "
               "on the compiled nic kernel, dominated by the schedule "
               "lower bounds",
        "full": {"P": 12, "m": 128},
        "smoke": {"P": 6, "m": 12},
    },
    "campaign-paths": {
        "why": "a serial campaign over nic/contention x faults x resize: "
               "the Python event loop, network models, faults and resize "
               "carry it",
        "full": {"P": 31, "m": 40, "slow": "slow:3@0.2-0.5x0.25",
                 "resize": "35@0.3"},
        "smoke": {"P": 5, "m": 10, "slow": "slow:1@0.02-0.05x0.25",
                  "resize": "7@0.03"},
    },
    "trace-hier-p23": {
        "why": "repro simulate --topology 2 --trace-out: every task "
               "recorded and streamed as Chrome-trace JSON on the "
               "hierarchical Python path",
        "full": {"P": 23, "m": 64},
        "smoke": {"P": 6, "m": 10},
    },
}

#: (name, unit, better, bound): bound is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
END_TO_END = [
    ("run_s", "s", "lower", 0.25),
    ("tasks_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("sim_gflops", "GFlop/s", "higher", 0.05),
    ("sim_msgs", "count", "lower", 0.05),
]

#: Layer self times (seconds) from the traced pass.  Together with
#: ``unattributed_s`` they sum to the traced pass's ``trace.run_s``.
LAYER_TIMES = [
    ("patterns", "patterns.search_s"),
    ("dla", "dla.build_s"),
    ("graph", "graph.columns_s"),
    ("simplan", "simplan.plan_s"),
    ("simulator.python", "simulator.python_s"),
    ("simulator.compiled", "simulator.compiled_s"),
    ("faults", "faults.run_s"),
    ("resize", "resize.run_s"),
    ("exact", "exact.count_s"),
    ("analysis", "analysis.bounds_s"),
    ("schedbounds", "schedbounds.bounds_s"),
    ("stats", "stats.report_s"),
    ("tracefmt", "tracefmt.write_s"),
    ("campaign", "campaign.self_s"),
]

PER_LAYER = [(metric, "s", "lower") for _, metric in LAYER_TIMES] + [
    ("unattributed_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("simplan.plan_hit_rate", "ratio", "higher"),
    ("dla.tasks", "count", "lower"),
    ("simulator.tasks_per_s", "1/s", "higher"),
    ("network.msgs", "count", "lower"),
    ("network.link_busy_frac", "ratio", "lower"),
    ("resize.sims", "count", "lower"),
    ("patterns.calls", "count", "lower"),
    ("cost.cache_hit_rate", "ratio", "higher"),
    ("tracefmt.events", "count", "lower"),
    ("tracefmt.mb", "MB", "lower"),
    ("campaign.cells", "count", "higher"),
    ("campaign.cell_p50_s", "s", "lower"),
    ("campaign.cell_max_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, _, _ in END_TO_END}
UNITS.update((name, unit) for name, unit, _ in PER_LAYER)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document, in its canonical key order."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w["why"]}
                      for name, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
