"""Smoke test of the end-to-end benchmark at tiny sizes.

Not collected by the tier-1 suite (``testpaths`` is ``tests``); run it
with ``python -m pytest e2ebench`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "e2ebench"))

import spec  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "e2ebench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_every_metric_with_its_unit(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    table = spec.PER_LAYER if trace else spec.END_TO_END
    assert {name: v["unit"] for name, v in res["metrics"].items()} == \
        {row[0]: row[1] for row in table}
    values = {name: v["value"] for name, v in res["metrics"].items()}
    if trace:
        layers = sum(values[metric] for _, metric in spec.LAYER_TIMES)
        assert layers + values["unattributed_s"] == \
            pytest.approx(values["trace.run_s"], abs=1e-9)
    else:
        assert all(v > 0 for v in values.values())


def test_benchmark_json_is_generated_from_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = bench("--workload", "campaign-paths", "--seed", "0",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
