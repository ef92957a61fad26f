"""Worker process of the benchmark; ``run.py`` starts one per phase.

    python3 benchmarks/worker.py setup     --workload W --seed N --dir POOL --result FILE
    python3 benchmarks/worker.py reference --workload W --seed N --dir POOL --result FILE
    python3 benchmarks/worker.py measure   --workload W --seed N --dir POOL --result FILE
                                           --ref FILE --seconds S --trace 0|1

``setup`` times the import of ``tgaug`` plus generating and writing the pool.
``reference`` computes the expected outputs.  ``measure`` runs the closed
loop: one caller, one thread, each task's CLI calls made in-process through
``tgaug.cli.main``, the next task started when the previous one returns.
Between tasks it samples the calibration kernel of ``speed.py``, and each
task's time is scaled to the reference speed by the samples around it.
Outputs are checked against the reference after the timed loop.  With
``--trace 1`` each task is run untraced and then replayed traced, in whole
passes over the pool, and the per-layer totals are reported per pass.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).resolve().parent)]

import speed  # noqa: E402
import workloads  # noqa: E402

# a task slower than this counts as failed
TASK_LIMIT_S = 10.0
# runs of each calibration kernel before and again after a set-up
SETUP_KERNEL_RUNS = 5


def _setup(args) -> dict:
    """Import of tgaug, generating and formatting the pool (scaled by the CPU
    kernel) plus writing its files (scaled by the file kernel)."""
    pool = Path(args.dir)
    scratch = pool.parent / f"{pool.name}.kernel"

    def calibrate():
        cpu.extend(speed.kernel_ms() for _ in range(SETUP_KERNEL_RUNS))
        files.extend(speed.file_kernel_ms(scratch) for _ in range(SETUP_KERNEL_RUNS))

    speed.Gauge()  # warms the kernel up
    cpu, files = [], []
    calibrate()
    start = time.perf_counter()
    import tgaug.cli  # noqa: F401  (import time is part of set-up)

    contents = workloads.pool_files(workloads.generate(args.workload, args.seed))
    made = time.perf_counter()
    workloads.write_files(contents, pool)
    written = time.perf_counter()
    calibrate()
    setup_s = (made - start) * speed.factor_of(cpu) + (written - made) * speed.factor_of(
        files, speed.NOMINAL_FILE_MS
    )
    return {"setup_s": setup_s, "raw_setup_s": written - start}


def _reference(args) -> dict:
    import reference

    pool = Path(args.dir)
    tasks = json.loads((pool / "tasks.json").read_text(encoding="utf-8"))
    return {"digest": reference.pool_digest(pool), "expected": reference.compute(tasks)}


def _run_cli(main, argv: list[str]) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI call; code None on a crash."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed task, not a failed benchmark
            code = None
            traceback.print_exc()
    return code, out.getvalue(), err.getvalue()


def _run_task(main, task: dict, pool: Path) -> tuple[float, float, list[tuple]]:
    """(start, seconds, results) of one task."""
    task_dir = pool / task["id"]
    start = time.perf_counter()
    results = [_run_cli(main, workloads.argv(step, task_dir)) for step in task["steps"]]
    return start, time.perf_counter() - start, results


def _bundle(task: dict, pool: Path) -> dict[str, bytes]:
    """Files a ``reduce`` step wrote, so the replay can be held to the same bytes."""
    bundle = pool / task["id"] / "bundle"
    if not bundle.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(bundle.iterdir())}


class _Outcomes:
    """First output of every task and one record per attempt."""

    def __init__(self):
        self.first: dict[str, list[tuple]] = {}
        # (task id, semantics, start, seconds, problem or None)
        self.attempts: list[tuple[str, str, float, float, str | None]] = []

    def add(self, task: dict, start: float, seconds: float, results: list[tuple], problems=()):
        problems = list(problems)
        key = task["id"]
        if key not in self.first:
            self.first[key] = results
        elif [r[:2] for r in results] != [r[:2] for r in self.first[key]]:
            problems.append("output differs from the task's first run")
        if seconds > TASK_LIMIT_S:
            problems.append(f"took {seconds:.1f} s, over the {TASK_LIMIT_S:.0f} s limit")
        if any(code is None for code, _, _ in results):
            problems.append("crashed: " + " | ".join(err.strip()[-300:] for _, _, err in results))
        problem = "; ".join(problems) or None
        self.attempts.append((key, task["semantics"], start, seconds, problem))


def _closed_loop(main, tasks, pool, seconds: float, outcomes: _Outcomes, gauge) -> None:
    deadline = time.perf_counter() + seconds
    gauge.sample()
    i = 0
    while time.perf_counter() < deadline:
        task = tasks[i % len(tasks)]
        i += 1
        outcomes.add(task, *_run_task(main, task, pool))
        if gauge.due():
            gauge.sample()
    gauge.sample()


def _traced_passes(main, tasks, pool, seconds: float, outcomes: _Outcomes) -> tuple[dict, int]:
    import replay

    tracer = replay.Tracer()
    self_ms = traced_ms = untraced_ms = 0.0
    passes = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for task in tasks:
            started, elapsed, results = _run_task(main, task, pool)
            written = _bundle(task, pool)
            task_dir = pool / task["id"]
            busy_before = tracer.busy_ms()
            replay_start = time.perf_counter()
            try:
                replayed = [replay.replay(workloads.argv(s, task_dir), tracer) for s in task["steps"]]
            except Exception as exc:  # a replay crash is reported as a mismatch
                replayed = repr(exc)
            traced = time.perf_counter() - replay_start
            problems = []
            if replayed != [r[:2] for r in results] or _bundle(task, pool) != written:
                problems.append("traced replay differs from the CLI")
            outcomes.add(task, started, elapsed, results, problems)
            untraced_ms += elapsed * 1e3
            traced_ms += traced * 1e3
            self_ms += elapsed * 1e3 - (tracer.busy_ms() - busy_before)
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    layers = {name: value / passes for name, value in tracer.values.items()}
    search, certificate = layers["augmentation.search_ms"], layers["augmentation.certificate_ms"]
    layers["augmentation.certificate_share"] = (
        certificate / (search + certificate) if search + certificate else 0.0
    )
    layers["cli.self_ms"] = self_ms / passes
    layers["cli.trace_overhead"] = traced_ms / untraced_ms
    return layers, passes


def _measure(args) -> dict:
    import tgaug
    from tgaug.cli import main

    import checks

    pool = Path(args.dir)
    tasks = json.loads((pool / "tasks.json").read_text(encoding="utf-8"))
    expected = json.loads(Path(args.ref).read_text(encoding="utf-8"))["expected"]
    _run_task(main, tasks[0], pool)  # warm-up: lazy imports and first-call caches

    outcomes = _Outcomes()
    gauge = speed.Gauge()
    layers, passes = {}, 0
    if args.trace:
        layers, passes = _traced_passes(main, tasks, pool, args.seconds, outcomes)
    else:
        _closed_loop(main, tasks, pool, args.seconds, outcomes, gauge)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    by_id = {task["id"]: task for task in tasks}
    wrong = {}
    for key, results in outcomes.first.items():
        problems = checks.check_task(by_id[key], expected[key], results)
        if problems:
            wrong[key] = "; ".join(problems)
    failures = [
        f"{key}: {wrong.get(key) or problem}"
        for key, _, _, _, problem in outcomes.attempts
        if key in wrong or problem
    ]
    # [task id, semantics, ms at the reference speed, ms as measured]
    attempts = []
    for key, sem, start, seconds, _ in outcomes.attempts:
        factor = gauge.factor(start, start + seconds) if gauge.samples else 1.0
        attempts.append([key, sem, seconds * 1e3 * factor, seconds * 1e3])
    return {
        "attempts": attempts,
        "failures": failures,
        "kernel_ms": gauge.median_ms() if gauge.samples else None,
        "peak_rss_kb": peak_rss_kb,
        "layers": layers,
        "passes": passes,
        "tgaug_path": str(Path(tgaug.__file__).resolve().parent),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "reference", "measure"])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--ref")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    run = {"setup": _setup, "reference": _reference, "measure": _measure}[args.mode]
    Path(args.result).write_text(json.dumps(run(args)), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
