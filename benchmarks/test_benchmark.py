"""Tests of the benchmark itself (not of tgaug).

    PYTHONPATH=src python -m pytest -q benchmarks

The sample-count test runs each workload for its full ``run_seconds`` and
takes about two minutes.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import replay  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_input_files(workload, tmp_path):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        workloads.write_pool(workloads.generate(workload, seed), tmp_path / name)
    same, other = _files(tmp_path / "a"), _files(tmp_path / "c")
    assert same == _files(tmp_path / "b")
    assert same.keys() == other.keys()
    assert same != other


def test_planted_wrong_cost_counts_as_failure(tmp_path):
    pool = tmp_path / "pool"
    common = ["--workload", "narrow-search", "--seed", "3", "--dir", str(pool)]
    worker.main(["setup", *common, "--result", str(tmp_path / "setup.json")])
    worker.main(["reference", *common, "--result", str(tmp_path / "ref.json")])
    ref = json.loads((tmp_path / "ref.json").read_text())
    tasks = json.loads((pool / "tasks.json").read_text())
    planted = next(t["id"] for t in tasks if "cost" in ref["expected"][t["id"]][-1]["solve"])
    ref["expected"][planted][-1]["solve"]["cost"] += 1
    (tmp_path / "ref.json").write_text(json.dumps(ref))

    measure = ["--ref", str(tmp_path / "ref.json"), "--seconds", "2", "--trace", "0"]
    worker.main(["measure", *common, "--result", str(tmp_path / "out.json"), *measure])
    out = json.loads((tmp_path / "out.json").read_text())
    attempts = sum(1 for key, *_ in out["attempts"] if key == planted)
    assert attempts >= 1
    assert len(out["failures"]) == attempts
    assert all(f.startswith(f"{planted}: step 0: cost is") for f in out["failures"])


def test_task_times_are_scaled_by_the_kernel_samples_near_them():
    gauge = speed.Gauge()
    # a fast phase (kernel at the nominal time), then a phase half as fast
    gauge.times = [0.1 * i for i in range(40)]
    gauge.samples = [speed.NOMINAL_MS] * 20 + [2 * speed.NOMINAL_MS] * 20
    assert gauge.factor(0.5, 0.6) == 1.0
    assert gauge.factor(3.2, 3.3) == 0.5
    # past the last sample, the nearest one counts
    assert gauge.factor(10.0, 10.1) == 0.5
    assert speed.factor_of([1.0, 2.0, 8.0], nominal_ms=4.0) == 2.0


def test_metric_names_and_units_match_the_harness():
    for group in ("end_to_end", "per_layer"):
        for metric in SPEC[group]:
            assert NAME.fullmatch(metric["name"]) and len(metric["name"]) <= 64
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    derived = ("augmentation.certificate_share", "cli.self_ms", "cli.trace_overhead")
    layers = replay.TIMINGS + replay.COUNTS + derived
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: run.per_layer_unit(name) for name in layers
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_reaches_its_percentile_sample_count(workload):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "11"]
    cmd += ["--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_P90_SAMPLES
    counts = [int(m) for m in re.findall(r"\(samples (\d+)\)", proc.stdout)]
    assert min(counts) >= 10
