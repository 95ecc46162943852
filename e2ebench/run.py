"""End-to-end benchmark of the pattern -> graph -> plan -> kernel -> bounds
pipeline (see ``e2ebench/README.md``).

Run from the repository root::

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --all                # every workload, both modes
    python3 e2ebench/run.py --write-spec         # regenerate BENCHMARK.json

Each pass runs in a fresh interpreter (``worker.py``) so in-process
caches start cold, as for a CLI user; the compiled-kernel cache on disk
stays warm.  ``--trace 0`` passes are untimed by spans and give the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and gives the per-layer metrics of the median traced pass.  The last
line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

#: every run ends well inside the 180 s a run may take
HARD_LIMIT_S = 165.0
#: set-up samples per run (passes contribute theirs, set-up-only
#: interpreters make up the rest)
SETUP_SAMPLES = 5


class BenchError(Exception):
    """The benchmark cannot run here (no program, set-up failed)."""


def bench_env(root: Path, work: Path) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_SIM_BACKEND", None)  # measure the automatic choice
    env.update({
        "PYTHONPATH": str(root / "src"),
        "PYTHONHASHSEED": "0",
        "REPRO_CACHE_DIR": str(work / "fastsim"),
        "TMPDIR": str(work / "tmp"),
        # one BLAS thread: the workloads are serial, the host is shared
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def spawn(root: Path, env: dict, job, timeout: float):
    """Run one worker; return ``(setup_s, result or None)``."""
    arg = job if isinstance(job, str) else json.dumps(job)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), arg],
                            cwd=root, env=env, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:  # interrupted: leave no worker behind
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready != "ready\n":
        return None, None
    if job == "setup":
        return (setup_s, None) if proc.returncode == 0 else (None, None)
    lines = rest.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return setup_s, None
    try:
        return setup_s, json.loads(lines[-1])
    except json.JSONDecodeError:
        return setup_s, None


def run_workload(root: Path, name: str, seed: int, seconds: float,
                 traced: bool, smoke: bool = False) -> dict:
    """Measure one workload; return metrics, check tallies and metadata."""
    t_start = time.perf_counter()
    work = root / ".bench_build" / "e2ebench"
    scratch = work / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    env = bench_env(root, work)
    # build: compiles the simulator kernel into the on-disk cache
    if spawn(root, env, "setup", HARD_LIMIT_S)[0] is None:
        raise BenchError("set-up failed: `import repro` or the backend "
                         "probe did not complete")
    size = spec.WORKLOADS[name]["smoke" if smoke else "full"]
    modes = (False, True) if traced else (False,)
    setups, passes = [], []  # passes: (traced, result or None)
    t_meas = time.perf_counter()
    rounds = 0
    try:
        while True:
            for mode in modes:
                left = t_start + HARD_LIMIT_S - time.perf_counter()
                job = {"workload": name, "seed": seed, "traced": mode,
                       "size": size, "scratch": str(scratch)}
                setup_s, result = spawn(root, env, job, left)
                if setup_s is not None:
                    setups.append(setup_s)
                passes.append((mode, result))
                for leftover in scratch.iterdir():
                    leftover.unlink()
            rounds += 1
            now = time.perf_counter()
            per_round = (now - t_meas) / rounds
            if (now - t_meas + per_round > seconds
                    or now - t_start + per_round > HARD_LIMIT_S):
                break
        while len(setups) < SETUP_SAMPLES:
            left = t_start + HARD_LIMIT_S - time.perf_counter()
            setup_s = spawn(root, env, "setup", left)[0] if left > 5 else None
            if setup_s is None:
                break
            setups.append(setup_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return summarize(name, seed, passes, setups, traced)


def summarize(name, seed, passes, setups, traced) -> dict:
    good = [(mode, r) for mode, r in passes if r is not None]
    if not good or not setups:
        raise BenchError(f"{name}: no pass completed")
    reference = [(o["label"], o["msgs"], o["gflops"]) for o in good[0][1]["ops"]]
    n_ops = len(reference)
    attempted = failed = 0
    problems = []
    for mode, r in passes:
        if r is None:
            attempted += n_ops
            failed += n_ops
            problems.append("a pass did not complete")
            continue
        ops = r["ops"]
        attempted += len(ops)
        bad = {int(i) for i in r["errors"]}
        for i, errs in r["errors"].items():
            problems.extend(f"{ops[int(i)]['label']}: {e}" for e in errs)
        same = len(ops) == n_ops
        for i, o in enumerate(ops):
            if not same or (o["label"], o["msgs"], o["gflops"]) != reference[i]:
                bad.add(i)
                problems.append(f"{o['label']}: differs from the first pass")
        failed += len(bad)

    plain = [r for mode, r in good if not mode]
    first = good[0][1]
    ops = first["ops"]
    if traced:
        runs = sorted((r for mode, r in good if mode),
                      key=lambda r: r["run_s"])
        if not runs or not plain:
            raise BenchError(f"{name}: no traced/untraced pass pair completed")
        metrics = dict(runs[(len(runs) - 1) // 2]["layers"])
        metrics["trace.overhead_s"] = (
            statistics.median(r["run_s"] for r in runs)
            - statistics.median(r["run_s"] for r in plain))
        names = [n for n, _, _ in spec.PER_LAYER]
    else:
        tasks = sum(o["tasks"] for o in ops)
        metrics = {
            "run_s": statistics.median(r["run_s"] for r in plain),
            "tasks_per_s": statistics.median(tasks / r["run_s"] for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
            "sim_gflops": math.exp(statistics.fmean(
                math.log(o["gflops"]) for o in ops)),
            "sim_msgs": sum(o["msgs"] for o in ops),
        }
        names = [n for n, _, _, _ in spec.END_TO_END]
    meta = {
        "workload": name, "seed": seed, "trace": int(traced),
        "backend": first["backend"], "numpy": first["numpy"],
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "cpu": cpu_model(), "git_sha": git_sha(), "src_loc": src_loc(),
        "passes": len(passes), "setup_samples": len(setups),
        "pass_run_s": [r["run_s"] for _, r in good],
        "failed_frac": failed / attempted, "problems": problems[:20],
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": spec.UNITS[n]}
                    for n in names},
        "meta": meta,
    }


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------
def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_loc() -> int:
    """Lines of Python under ``src/repro`` (ROADMAP tracks this size)."""
    total = 0
    for path in Path("src/repro").rglob("*.py"):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


# ---------------------------------------------------------------------------
def run_all(root: Path, seed: int, seconds: float, smoke: bool) -> int:
    """Every workload in both modes: a table of every metric, and a JSON
    record of the results with their run metadata."""
    results = []
    for name in spec.WORKLOADS:
        for traced in (False, True):
            res = run_workload(root, name, seed, seconds, traced, smoke)
            results.append(res)
            meta = res["meta"]
            print(f"== {name} (trace {int(traced)}): correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"failed_frac={meta['failed_frac']:g} "
                  f"backend={meta['backend']}", flush=True)
            for metric, v in res["metrics"].items():
                print(f"   {metric:<26} {v['value']:>16.6g} {v['unit']}")
            for problem in meta["problems"]:
                print(f"   ! {problem}")
    out = root / ".bench_build" / "e2ebench" / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seed": seed, "seconds": seconds,
                               "results": results}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if all(r["correct"] for r in results) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload with and without tracing")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own smoke test")
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json from e2ebench/spec.py")
    args = ap.parse_args(argv)
    root = Path.cwd()
    if args.write_spec:
        (root / "BENCHMARK.json").write_text(
            json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("e2ebench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    try:
        if args.all:
            return run_all(root, args.seed, args.seconds, args.smoke)
        if args.workload is None:
            ap.error("--workload is required (or --all)")
        res = run_workload(root, args.workload, args.seed, args.seconds,
                           bool(args.trace), args.smoke)
    except BenchError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"meta": res.pop("meta")}))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
