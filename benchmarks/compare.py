"""Compare result files written by ``run.py --out``.

    python3 benchmarks/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Every file must come from the same workload, run length and trace setting,
and from the same environment: Python version, ``nproc`` and CPU model.
Otherwise the script refuses and exits with code 2.  For each metric it
prints the median and quartiles of each side and the change of the medians
as a share of the base median; where BENCHMARK.json gives a bound, a change
for the worse beyond it is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAME_RUN = ("workload", "seconds", "trace")
SAME_ENVIRONMENT = ("python", "nproc", "cpu_model")


def _load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]


def mismatches(results: list[dict]) -> list[str]:
    """Why these results may not be compared; empty when they may."""
    found = []
    for key in SAME_RUN:
        values = {json.dumps(r[key]) for r in results}
        if len(values) > 1:
            found.append(f"{key} differs: {sorted(values)}")
    for key in SAME_ENVIRONMENT:
        values = {json.dumps(r["environment"][key]) for r in results}
        if len(values) > 1:
            found.append(f"environment {key} differs: {sorted(values)}")
    if not all(r["correct"] for r in results):
        found.append("a result failed its output checks")
    return found


def _bounds() -> dict[str, dict]:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return {}
    return {m["name"]: m for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = _load(args.base), _load(args.new)
    problems = mismatches(base + new)
    if problems:
        for problem in problems:
            print(f"refusing to compare: {problem}", file=sys.stderr)
        return 2
    spec = _bounds()
    print(f"workload {base[0]['workload']}: {len(base)} base runs, {len(new)} new runs")
    for name, metric in base[0]["metrics"].items():
        before = [r["metrics"][name]["value"] for r in base]
        after = [r["metrics"][name]["value"] for r in new]
        b, a = statistics.median(before), statistics.median(after)
        change = (a - b) / b if b else float("nan")
        flag = ""
        if name in spec and "bound" in spec[name]:
            worse = -change if spec[name]["better"] == "higher" else change
            flag = "  WORSE THAN BOUND" if worse > spec[name]["bound"] else ""
        print(
            f"{name:32s} {_spread(before):>28s} -> {_spread(after):>28s} "
            f"{metric['unit']:8s} {change:+.1%}{flag}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
