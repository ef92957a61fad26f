"""Seeded benchmark of tgaug: task latency per workload, or a per-layer trace.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run it from anywhere; it works on the source tree it sits in and imports
``tgaug`` from that tree's ``src/``.  Every file it writes goes under
``.bench_work/`` at the root of that tree.  One run:

1. sets up the workload ``SETUP_REPEATS`` times, each in a fresh worker
   process (import of ``tgaug`` plus generating and writing the seeded
   inputs), and reports the median as ``setup_s``;
2. computes the reference outputs in another worker, or reads them from
   ``.bench_work/ref/`` when this seed was run before;
3. runs the measuring worker: a closed loop of tasks for ``--seconds``
   seconds (``--trace 0``), or whole traced passes over the task pool
   (``--trace 1``); every output is checked against the reference.

End-to-end times are scaled to a fixed reference speed by the calibration
kernel of ``speed.py``, which tracks the drift of a shared machine; the
times as measured are printed beside them.

It prints one line per metric and, last, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out`` also
writes that object with the run's environment, for ``compare.py``.
See NOTES.md for the workloads and what each metric should respond to.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

SETUP_REPEATS = 3
# p90 needs ten samples beyond it
MIN_P90_SAMPLES = 100
# the whole run must end within this many seconds
RUN_LIMIT_S = 170.0

END_TO_END = {
    "instances_per_s": "1/s",
    "instance_ms.p50": "ms",
    "instance_ms.p90": "ms",
    "instance_ms.strict.p50": "ms",
    "instance_ms.nonstrict.p50": "ms",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_share", "_overhead")):
        return "ratio"
    return "count"


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class _Runner:
    def __init__(self, args, run_dir: Path):
        self.args = args
        self.run_dir = run_dir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.calls = 0

    def worker(self, mode: str, pool: Path, result: Path | None = None, *extra: str) -> dict:
        self.calls += 1
        result = result or self.run_dir / f"{mode}-{self.calls}.json"
        cmd = [
            sys.executable,
            str(BENCH / "worker.py"),
            mode,
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--dir", str(pool),
            "--result", str(result),
            *extra,
        ]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"out of time before the {mode} phase")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker ran past the {RUN_LIMIT_S:.0f} s run limit") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(result.read_text(encoding="utf-8"))


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _reference(runner: _Runner, pool: Path) -> Path:
    import reference

    cache = WORK / "ref" / f"{runner.args.workload}-{runner.args.seed}.json"
    if reference.load_cached(cache, reference.pool_digest(pool)) is None:
        cache.parent.mkdir(parents=True, exist_ok=True)
        runner.worker("reference", pool, cache)
    return cache


def _percentile_metrics(attempts: list, column: int) -> tuple[dict, dict]:
    """Latency percentiles of the attempts' times in ``column`` (2 scaled, 3 raw)."""
    latencies = [a[column] for a in attempts]
    strict = [a[column] for a in attempts if a[1] == workloads.STRICT]
    nonstrict = [a[column] for a in attempts if a[1] == workloads.NON_STRICT]
    if len(latencies) < 2 or not strict or not nonstrict:
        raise BenchError(f"only {len(latencies)} tasks ran; raise --seconds")
    metrics = {
        "instance_ms.p50": statistics.median(latencies),
        "instance_ms.p90": statistics.quantiles(latencies, n=10)[-1],
        "instance_ms.strict.p50": statistics.median(strict),
        "instance_ms.nonstrict.p50": statistics.median(nonstrict),
    }
    samples = {
        "instance_ms.p50": len(latencies),
        "instance_ms.p90": len(latencies),
        "instance_ms.strict.p50": len(strict),
        "instance_ms.nonstrict.p50": len(nonstrict),
    }
    return metrics, samples


def run(args) -> dict:
    """One benchmark run; returns the result object."""
    needed = (ROOT / "src" / "tgaug" / "cli.py", ROOT / "tests" / "oracles.py")
    if not all(path.is_file() for path in needed):
        raise BenchError(f"{ROOT} has no src/tgaug/cli.py and tests/oracles.py to benchmark")
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        runner = _Runner(args, run_dir)
        pools = [run_dir / f"setup-{k}" for k in range(SETUP_REPEATS)]
        setups = [runner.worker("setup", pool) for pool in pools]
        pool = pools[0]
        problems = []
        if any(_tree_bytes(p) != _tree_bytes(pool) for p in pools[1:]):
            problems.append("set-up wrote different files for the same seed")
        ref = _reference(runner, pool)
        measured = runner.worker(
            "measure", pool, None,
            "--ref", str(ref),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempts = measured["attempts"]
    failed = len(measured["failures"])
    problems.extend(measured["failures"])
    samples: dict[str, int] = {}
    raw: dict[str, float] = {}
    if args.trace:
        metrics = {name: (value, per_layer_unit(name)) for name, value in measured["layers"].items()}
    else:
        values, raw = (
            {
                "instances_per_s": (len(attempts) - failed) * 1e3 / sum(a[column] for a in attempts),
                **_percentile_metrics(attempts, column)[0],
                "setup_s": statistics.median(s[key] for s in setups),
            }
            for column, key in ((2, "setup_s"), (3, "raw_setup_s"))
        )
        samples = _percentile_metrics(attempts, 2)[1]
        values["ok_frac"] = (len(attempts) - failed) / len(attempts)
        values["peak_rss_mb"] = measured["peak_rss_kb"] / 1024
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    return {
        "correct": not problems,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "samples": samples,
        "raw": raw,
        "kernel_ms": measured["kernel_ms"],
        "problems": problems,
        "passes": measured["passes"],
        "tgaug_path": measured["tgaug_path"],
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(tgaug_path: str) -> dict:
    """What ``compare.py`` requires to be equal before comparing two results."""
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "tgaug_path": tgaug_path,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--out", help="also write the result and its environment to this file")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for problem in result["problems"][:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    samples = result["samples"]
    if samples and samples["instance_ms.p90"] < MIN_P90_SAMPLES:
        print(f"warning: p90 rests on {samples['instance_ms.p90']} samples", file=sys.stderr)
    for name, metric in result["metrics"].items():
        note = f"  (samples {samples[name]})" if name in samples else ""
        if name in result["raw"]:
            note = f"  (as measured {result['raw'][name]:.6g}){note}"
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}{note}")
    if result["kernel_ms"]:
        print(f"{args.workload} calibration kernel median = {result['kernel_ms']:.4g} ms")
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": environment(result["tgaug_path"]),
            **{
                key: result[key]
                for key in ("correct", "attempted", "failed", "metrics", "samples", "raw", "kernel_ms")
            },
        }
        text = json.dumps(record, indent=1, sort_keys=True) + "\n"
        Path(args.out).write_text(text, encoding="utf-8")
    summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
