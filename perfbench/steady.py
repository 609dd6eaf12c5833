"""Steadiness check: run the benchmark over several seeds and report spreads.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workloads churn_trickle gossip_lossy --seeds 1-10
    python3 perfbench/steady.py --seeds 1-10 --record perfbench/baseline.json

Runs ``perfbench/run.py`` once per (workload, seed), one process at a time,
and prints, per end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread -- the inter-quartile
distance as a share of the median -- next to the metric's bound from
``BENCHMARK.json``.  A spread at or above a third of its bound is flagged.
It also prints how long each run took.  A seed listed twice must print
identical ``deterministic:`` lines.  ``--record`` writes the table as JSON;
``--compare`` reads such a file and flags every median that got worse than the
recorded one by more than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.perf_counter()
    completed = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stdout}\n{completed.stderr}"
        )
    result = json.loads(lines[-1])
    result["elapsed"] = time.perf_counter() - started
    result["deterministic"] = next(
        (line.split(":", 1)[1].strip() for line in lines if "deterministic:" in line), None
    )
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    higher = {m["name"] for m in spec["end_to_end"] + spec["per_layer"] if m["better"] == "higher"}
    previous = json.loads(args.compare.read_text())["workloads"] if args.compare else {}
    seeds = parse_seeds(args.seeds)
    table: dict = {}
    unsteady = 0
    for workload in args.workloads:
        values: dict = {}
        seen: dict = {}
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed checks")
                unsteady += 1
            if seed in seen and seen[seed] != result["deterministic"]:
                print(f"{workload} seed {seed}: deterministic outputs differ between runs")
                unsteady += 1
            seen[seed] = result["deterministic"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed} ({result['elapsed']:.1f} s): " + ", ".join(
                f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()
            ), flush=True)
        table[workload] = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread >= bound / 3:
                flag = "  <-- spread >= bound/3"
                unsteady += 1
            before = previous.get(workload, {}).get(name)
            if before is not None and bound is not None:
                change = (median - before["median"]) / before["median"]
                worse = -change if name in higher else change
                flag += f"  vs recorded {change:+.4f}"
                if worse > bound:
                    flag += "  <-- worse than recorded by more than the bound"
                    unsteady += 1
            print(f"  {workload:<20} {name:<28} median {median:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:7.4f}  bound {bound}{flag}")
            table[workload][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "values": series,
            }
    if args.record:
        args.record.write_text(json.dumps({
            "seeds": seeds,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "workloads": table,
        }, indent=1, sort_keys=True) + "\n")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
