"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload churn_trickle --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: the set-up runs
``SETUP_REPEATS`` times (``setup_s`` is their median), then the closed-loop
steps run for ``--seconds`` seconds, then the correctness checks run.  The
times are reported at reference speed (see ``measure``).
``--trace 1`` measures the per-layer metrics: an untraced pass runs the
set-up and ``--seconds / 2`` seconds of steps, then a traced pass repeats
the same set-up and the same steps with every layer entry point wrapped
(see ``tracing.py``); the two passes must produce identical outputs, and the
span table is written to ``perfbench/out/``.

Human-readable lines come first; the last line of standard output is the
JSON result.  The exit code is 0 when every check passed, 1 when one failed,
and 2 when the ``repro`` sources are missing.
"""

from __future__ import annotations

import os

# One process, one thread: pin the numpy/BLAS pools before numpy loads.
for _variable in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCES = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Seconds between two samples of :class:`HostSpeed`.
SAMPLE_PERIOD = 0.2
#: Time of :func:`reference_seconds` on a host running at full speed; the
#: end-to-end times are reported as if the host ran at this speed.
REFERENCE_S = 0.005
#: Largest share of the traced wall the layer spans may leave unaccounted.
TRACE_TOLERANCE = 0.05

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_p90_ms": "ms",
    "msgs_per_peer": "msg/peer",
    "peak_rss_mb": "MB",
}


def peak_rss_mb() -> float:
    """Peak resident-set size of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_unit(name: str) -> str:
    if name.endswith("bytes_sent"):
        return "bytes"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop: how fast the host runs right now.

    The loop fills and drains a heap of tuples, like the simulator's event
    queue; it followed the host's drift on every workload more closely than
    a loop of dict stores and a sort.  The collector is paused, so that no
    collection of the program's heap lands in the loop.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        heap: list = []
        key = 12345
        for i in range(6000):
            key = (key * 1103515245 + 12345) & 0x7FFFFFFF
            heapq.heappush(heap, (key % 100_003, i, None))
        while heap:
            heapq.heappop(heap)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Times :func:`reference_seconds` every ``SAMPLE_PERIOD`` s, from SIGALRM.

    The handler runs in the main thread between two bytecodes of whatever
    runs at the time, so the samples also show how fast the host ran inside
    a long set-up or step, not only at its ends.
    """

    def __init__(self) -> None:
        self.starts: list = []
        self.timings: list = []

    def _sample(self, signum=None, frame=None) -> None:
        self.starts.append(time.perf_counter())
        self.timings.append(reference_seconds())

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def rescale(self, started: float, wall: float) -> float:
        """A timed region at reference speed, less the samples taken inside it.

        The host's speed is the median sample within ``SAMPLE_PERIOD`` of
        the region, so every region has a sample on each side.
        """
        ended = started + wall
        low = bisect.bisect_left(self.starts, started - SAMPLE_PERIOD)
        high = bisect.bisect_right(self.starts, ended + SAMPLE_PERIOD)
        inside = sum(
            timing
            for start, timing in zip(self.starts[low:high], self.timings[low:high])
            if started <= start < ended
        )
        return (wall - inside) * REFERENCE_S / statistics.median(self.timings[low:high])


def run_steps(workload, state, inputs, seconds: float, tracer=None, count=None) -> list:
    """Closed loop: run steps until ``seconds`` elapsed (or exactly ``count`` steps)."""
    steps = []
    deadline = time.perf_counter() + seconds
    limit = workload.max_steps(inputs) if count is None else count
    while len(steps) < limit and (
        count is not None or not steps or time.perf_counter() < deadline
    ):
        if tracer is not None:
            tracer.current_step = len(steps)
        steps.append(workload.step(state, inputs, len(steps)))
    return steps


def timed_setup(workload, inputs):
    """Returns the set-up's state, and the start and length of its timed region."""
    gc.collect()
    started = time.perf_counter()
    state = workload.setup(inputs)
    return state, started, time.perf_counter() - started


def measure(workload, inputs, seconds: float):
    """The untraced run: repeated set-up, timed steps, checks.

    Every time is measured as wall-clock and reported at reference speed
    (:meth:`HostSpeed.rescale`); the raw wall-clock figures are printed
    beside them.

    The ``deterministic:`` line holds outputs that must repeat exactly for a
    seed: the set-up's, and the first step's fingerprint (later steps depend
    on how many the run reached).
    """
    from workloads import digest, percentile

    setups = []
    state = None
    with HostSpeed() as speed:
        for _ in range(SETUP_REPEATS):
            state = None  # release the previous set-up before building the next
            state, started, wall = timed_setup(workload, inputs)
            setups.append((started, wall))
        deterministic = workload.deterministic(state)
        steps = run_steps(workload, state, inputs, seconds)
    deterministic["first_step"] = digest(steps[0].fingerprint)
    rss = peak_rss_mb()  # before the checks, whose oracles are not the program's
    report = workload.check(state, inputs)
    times = [speed.rescale(step.started, step.wall) for step in steps]
    metrics = {
        "setup_s": statistics.median(speed.rescale(*setup) for setup in setups),
        "throughput_per_s": sum(step.units for step in steps) / sum(times),
        "step_p50_ms": 1000.0 * percentile(times, 0.50),
        "step_p90_ms": 1000.0 * percentile(times, 0.90),
        "msgs_per_peer": workload.msgs_per_peer(state),
        "peak_rss_mb": rss,
    }
    lines = [
        f"  set-up wall-clock: {', '.join(f'{wall:.3f}' for _, wall in setups)} s",
        f"  reference loop: median {1000.0 * statistics.median(speed.timings):.3f} ms "
        f"over {len(speed.timings)} samples (reference speed: {1000.0 * REFERENCE_S:g} ms)",
        "  wall-clock:",
    ]
    for name, (value, unit) in workload.named_metrics(state, steps).items():
        lines.append(f"  {name:<26} {value:>14.6g} {unit}")
    lines.append(f"  deterministic: {json.dumps(deterministic, sort_keys=True)}")
    lines.append("  at reference speed:")
    return metrics, steps, report, lines


def measure_traced(workload, inputs, seconds: float, out_path: Path):
    """The traced run: an untraced pass, then the identical traced pass."""
    from tracing import Tracer, layer_metrics

    state, _, untraced_setup = timed_setup(workload, inputs)
    expected_setup = workload.deterministic(state)
    baseline = run_steps(workload, state, inputs, seconds / 2.0)
    expected = [step.fingerprint for step in baseline]
    state = None
    gc.collect()

    tracer = Tracer()
    tracer.install()
    try:
        state, _, traced_setup = timed_setup(workload, inputs)
        setup_outputs = workload.deterministic(state)  # calls no wrapped entry point
        steps = run_steps(workload, state, inputs, 0.0, tracer=tracer, count=len(baseline))
    finally:
        tracer.uninstall()
    report = workload.check(state, inputs)
    report.expect(
        setup_outputs == expected_setup and [step.fingerprint for step in steps] == expected,
        "the traced pass produced different outputs from the untraced pass",
    )
    untraced_wall = untraced_setup + sum(step.wall for step in baseline)
    traced_wall = traced_setup + sum(step.wall for step in steps)
    unaccounted = traced_wall - tracer.top_level_seconds()
    report.expect(
        abs(unaccounted) <= TRACE_TOLERANCE * traced_wall,
        f"layer spans leave {unaccounted:.4f} s of {traced_wall:.4f} s unaccounted "
        f"(tolerance {TRACE_TOLERANCE:.0%})",
    )
    metrics = layer_metrics(tracer, workload.counters(state), workload.dimension)
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    metrics["trace.unaccounted_s"] = unaccounted
    tracer.save(out_path)
    lines = [
        f"  traced {len(steps)} steps: {traced_wall:.3f} s traced vs "
        f"{untraced_wall:.3f} s untraced, {len(tracer.start)} spans -> {out_path}"
    ]
    return metrics, steps, report, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SOURCES}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {workload.describe()}")
    if args.trace:
        out_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        metrics, steps, report, lines = measure_traced(workload, inputs, args.seconds, out_path)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics, steps, report, lines = measure(workload, inputs, args.seconds)
        units = END_TO_END

    failures = [failure for step in steps for failure in step.failures] + report.failures
    attempted = len(steps) + report.attempted
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    print(f"  ops_failed {len(failures)} of {attempted} attempted ({len(steps)} steps)")
    for failure in failures[:20]:
        print(f"  FAILED: {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
