"""exitbandit benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload simulate --seed 0 --seconds 25 --trace 0

Run from the root of a checkout. The package is imported from ``src/`` of
that checkout. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics, scaled to a nominal machine speed measured by
machine.py, with ``--trace 1`` the per-layer metrics of a separate traced
run. See perfbench/README.md for the workloads and metrics.

``--write-digests`` re-records perfbench/digests.json (the outputs of one
operation of every workload at the default seed) and prints nothing else.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the workloads' matrices are too
# small to gain from threads, and on a shared 2-core machine BLAS threads
# made train_reliability's run-to-run spread three times wider.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from layers import UNITS, install, per_layer_metrics  # noqa: E402
from machine import MachineSpeed  # noqa: E402
from tracer import Recorder, SpanTotals  # noqa: E402
from workloads import WORKLOADS, import_package  # noqa: E402

DEFAULT_SEED = 0
HELD_OUT_SEED = 9001   # kept out of tuning; re-check claims on it
SETUP_REPEATS = 7
MIN_OPS = 3
MEMORY_ROUNDS = 1000   # rounds generated under tracemalloc for stream_kib_per_round

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"


class Checker:
    """Counts operations and failed checks; reports failures on stderr."""

    def __init__(self, reference):
        self.reference = reference   # pinned digests, or None: the first operation's
        self.attempted = 0
        self.failed = 0
        self._reported = 0

    def _report(self, problems):
        if self._reported < 5:
            print("perfbench: check failed: " + "; ".join(problems), file=sys.stderr)
        self._reported += 1

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self._report(problems)

    def check(self, digests, problems):
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            differ = sorted(k for k in set(digests) | set(self.reference)
                            if digests.get(k) != self.reference.get(k))
            problems = problems + ["digest differs for " + ", ".join(differ)]
        self.record(problems)

    def fail_all(self, problems):
        """The checked output stands for every operation (all had its digest)."""
        self.failed = self.attempted
        self._report(problems)


def run_op(workload, checker):
    """One checked operation; returns (output, wall_ns) or None if it raised."""
    workload.before_op()
    t0 = time.perf_counter_ns()
    try:
        output = workload.op()
    except Exception:  # a failed operation is counted, never fatal
        checker.record(["operation raised: " + traceback.format_exc(limit=3)])
        return None
    wall = time.perf_counter_ns() - t0
    try:
        digests, problems = workload.digests(output), workload.quick_failures(output)
    except Exception:  # a malformed output is a failed check, never fatal
        checker.record(["checking the output raised: " + traceback.format_exc(limit=3)])
        return None
    checker.check(digests, problems)
    return output, wall


def set_up(workload):
    """Import the package afresh and build the inputs; returns (pkg, seconds)."""
    t0 = time.perf_counter()
    pkg = import_package()
    workload.setup(pkg)
    return pkg, time.perf_counter() - t0


def stream_kib_per_round(workload) -> float:
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        workload.stream_for_memory(MEMORY_ROUNDS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / MEMORY_ROUNDS / 1024.0


def check_invariants(workload, output, checker):
    """Invariants on the run's final output; it stands for every operation."""
    if output is None:
        checker.fail_all(["the final operation failed; invariants not checked"])
        return
    try:
        problems = workload.invariants(output)
    except Exception:  # a malformed output is a failed check, never fatal
        problems = ["checking invariants raised: " + traceback.format_exc(limit=3)]
    if problems:
        checker.fail_all(problems)


class OpStats:
    """Wall time and per-round latency percentiles of untraced operations."""

    def __init__(self, workload):
        self.workload = workload
        self.walls, self.p50s, self.p99s = [], [], []

    def add(self, output, wall):
        self.walls.append(wall)
        steps = self.workload.step_ns(output)
        if steps is not None:
            p50, p99 = np.percentile(np.asarray(steps, dtype=np.float64), [50, 99]) / 1e3
            self.p50s.append(float(p50))
            self.p99s.append(float(p99))

    def rounds_per_s(self):
        return self.workload.rounds * 1e9 / statistics.median(self.walls)

    def step_us(self, q):
        """Median over operations of their q-th percentile round latency; for a
        workload whose rounds are not visible, the q-th percentile over
        operations of wall time / rounds."""
        if self.workload.streams_rounds:
            return statistics.median(self.p50s if q == 50 else self.p99s)
        amortized = np.asarray(self.walls, dtype=np.float64) / self.workload.rounds / 1e3
        return float(np.percentile(amortized, q))


def end_to_end(workload, checker, seconds, setup_s):
    """Timed operations, with the machine reference sampled between them.

    Every timing is scaled to the nominal machine speed of machine.py: a run
    whose reference took 10% longer than nominal divides its times by 1.1.
    The wall-clock values go to stderr.
    """
    stats = OpStats(workload)
    with MachineSpeed() as speed:
        deadline = time.perf_counter() + seconds
        for tries in itertools.count(1):
            last = None   # hold one operation's output at a time
            speed.maybe_sample()
            done = run_op(workload, checker)
            if done is not None:
                last = done[0]
                stats.add(*done)
            if tries >= MIN_OPS and time.perf_counter() >= deadline:
                break
        speed.sample()
    if not stats.walls:
        raise RuntimeError("no operation completed")
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_invariants(workload, last, checker)
    slowdown = speed.slowdown()
    wall_clock = {"rounds_per_s": stats.rounds_per_s(), "step_us_p50": stats.step_us(50),
                  "setup_s": setup_s}
    print(f"perfbench: wall-clock {json.dumps(wall_clock)}; slowdown {slowdown:.4f} "
          f"from {len(speed.times['blas'])} reference samples; part medians (ms) "
          f"{json.dumps(speed.medians_ms())}", file=sys.stderr)
    return {
        "rounds_per_s": {"value": wall_clock["rounds_per_s"] * slowdown, "unit": "1/s"},
        "step_us_p50": {"value": wall_clock["step_us_p50"] / slowdown, "unit": "us"},
        "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        "setup_s": {"value": setup_s / slowdown, "unit": "s"},
    }


def _durations_us(spans, name):
    return [(end - start) / 1e3 for n, start, end, _ in spans if n == name]


def traced(workload, pkg, checker, seconds, spans_path):
    """Alternate untraced and traced operations; per-layer metrics from the latter."""
    setup_totals, op_totals = SpanTotals(), SpanTotals()
    with Recorder() as rec:
        install(rec, pkg)
        workload.setup(pkg)
    setup_totals.add(rec.spans, rec.counts)

    untraced, traced_walls = OpStats(workload), []
    select_p50, observe_p50, bytes_written = [], [], []
    last_spans = []
    deadline = time.perf_counter() + seconds
    for tries in itertools.count(1):
        last = None
        done = run_op(workload, checker)
        if done is not None:
            untraced.add(*done)
        with Recorder() as rec:
            install(rec, pkg)
            done = run_op(workload, checker)
        if done is not None:
            last, wall = done
            traced_walls.append(wall)
            op_totals.add(rec.spans, rec.counts)
            for name, out in (("bandit.select", select_p50), ("bandit.observe", observe_p50)):
                durations = _durations_us(rec.spans, name)
                if durations:
                    out.append(statistics.median(durations))
            bytes_written.append(workload.bytes_written(last))
            last_spans = rec.spans
        if tries >= MIN_OPS and time.perf_counter() >= deadline:
            break
    if not traced_walls or not untraced.walls:
        raise RuntimeError("no operation completed")
    check_invariants(workload, last, checker)

    with spans_path.open("w") as fh:
        for span in last_spans:
            fh.write(json.dumps(span) + "\n")

    metrics = per_layer_metrics(
        setup_totals, op_totals,
        traced_ops=len(traced_walls),
        rounds_per_op=workload.rounds,
        outside_runner_rounds=workload.policy_rounds_outside_runner(),
        select_p50=select_p50, observe_p50=observe_p50, bytes_written=bytes_written,
        stream_kib_per_round=stream_kib_per_round(workload),
    )
    metrics["step_us_p99"] = untraced.step_us(99)
    metrics["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                       / statistics.median(untraced.walls))
    metrics["trace.attributed_ratio"] = op_totals.top_level_ns / sum(traced_walls)
    return {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}


def load_pinned(workload_name):
    try:
        pinned = json.loads(DIGESTS.read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    return pinned.get("workloads", {}).get(workload_name, {})


def run(name, seed, seconds, trace, workdir):
    workload = WORKLOADS[name](seed, workdir)
    checker = Checker(load_pinned(name) if seed == DEFAULT_SEED else None)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        pkg, elapsed = set_up(workload)
        setup_times.append(elapsed)
    src = str(HERE.parent / "src")
    if not Path(pkg.harness.__file__).resolve().is_relative_to(src):
        raise ImportError(f"exitbandit imported from {pkg.harness.__file__}, not {src}")

    run_op(workload, checker)   # warm-up: checked, not timed
    if trace:
        metrics = traced(workload, pkg, checker, seconds,
                         workdir.parent / f"spans-{name}.jsonl")
    else:
        metrics = end_to_end(workload, checker, seconds, statistics.median(setup_times))
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": metrics}


def write_digests(workdir):
    pinned = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED, "workloads": {}}
    for name, cls in WORKLOADS.items():
        workload = cls(DEFAULT_SEED, workdir)
        workload.setup(import_package())
        workload.before_op()
        output = workload.op()
        problems = workload.quick_failures(output) + workload.invariants(output)
        if problems:
            raise RuntimeError(f"{name}: refusing to pin failing outputs: {problems}")
        pinned["workloads"][name] = workload.digests(output)
    DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="simulate")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = HERE.parent / "src"
    if not (src / "exitbandit" / "__init__.py").is_file():
        print(f"perfbench: no exitbandit package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workdir = HERE.parent / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_digests:
            write_digests(workdir)
            return 0
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
