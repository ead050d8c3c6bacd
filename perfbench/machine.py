"""A fixed reference workload that tracks how fast the machine runs right now.

On a shared virtual machine the same code runs up to ~30% faster or slower
for minutes at a time, with the process on the CPU the whole time (its CPU
time tracks its wall time), so the phases come from the host. Longer runs do
not average them out. The benchmark therefore times this reference, whose
code never changes, between the operations it measures, and scales the run's
timings to the speed at which the reference parts take ``NOMINAL_S``.

The reference runs in a child process of its own that does nothing else: in
the benchmark's process, after a workload has built up its heap, the same
small loops ran up to 20% slower or faster from one process to the next, an
offset that would pass straight into the scaled timings. The parts are many
and small, shaped like the package's work (interpreter loops, small numpy
calls, random draws, small matrix-vector products, text formatting, JSON,
sorting, attribute updates, and one full-batch pass over the rows of a
reliability training set), so that no single loop's luck in memory layout
sets the speed index.

    python3 perfbench/machine.py    # child mode: one JSON line of part times per input line
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np



def python_loop():
    table, acc = {}, 0.0
    for i in range(15000):
        k = i & 1023
        table[k] = table.get(k, 0.0) + math.sqrt(i) * 0.5
        acc += table[k] if i % 3 else -1.0
    return acc


def numpy_small():
    acc = 0.0
    for i in range(1000):
        a = np.exp(-_SMALL * (i % 7))
        acc += float(np.cumsum(a)[-1]) + int(np.maximum(a, 0.3).argmax())
    return acc


def blas():
    acc = 0.0
    for _ in range(400):
        z = _MATRIX @ _VECTOR
        acc += float((_MATRIX.T @ z).sum())
    return acc


def numpy_large():
    w, acc = _ROWS[0], 0.0
    for _ in range(8):
        g = 1.0 / (1.0 + np.exp(-(_ROWS @ w)))
        for rows in _GROUPS:
            acc += float(((g[rows] * (1.0 - g[rows])) @ _ROWS[rows]).sum())
    return acc


def text():
    rows = [",".join(format(x, ".9g") for x in _FLOATS[i:i + 8]) for i in range(0, 8000, 8)]
    return sum(len(row.split(",")) for row in rows)


def sort():
    return sorted(_FLOATS[:15000])[7000]


class _Arm:
    __slots__ = ("n", "q")

    def __init__(self):
        self.n, self.q = 0, 0.0

    def update(self, r):
        self.n += 1
        self.q += (r - self.q) / self.n


def objects():
    arms = [_Arm() for _ in range(10)]
    for i, x in enumerate(_FLOATS[:12000]):
        arms[i % 10].update(x)
    return max(a.q for a in arms)


def json_round_trip():
    doc = {f"k{i}": [_FLOATS[i], i, "v"] for i in range(2000)}
    return len(json.loads(json.dumps(doc)))


def random_draws():
    g, acc = np.random.default_rng(7), 0.0
    for _ in range(800):
        acc += float(g.normal(size=12).sum())
    return acc


def math_list():
    return sum([math.exp(-x) * math.log1p(x) for x in _FLOATS[:15000]])


PARTS = {f.__name__: f for f in (python_loop, numpy_small, blas, numpy_large, text, sort,
                                 objects, json_round_trip, random_draws, math_list)}

# Median time of each part, in seconds, over 80 benchmark runs on the machine
# the baseline numbers in perfbench/README.md were recorded on; timings are
# reported at that speed.
NOMINAL_S = {
    "python_loop": 0.0062, "numpy_small": 0.0095, "blas": 0.0073, "numpy_large": 0.0099,
    "text": 0.0067, "sort": 0.0031, "objects": 0.0036, "json_round_trip": 0.0080,
    "random_draws": 0.0038, "math_list": 0.0028,
}


def _make_inputs() -> None:
    """The parts' inputs, built in the child only, so that importing this
    module adds nothing to the benchmark process's memory."""
    global _SMALL, _MATRIX, _VECTOR, _FLOATS, _ROWS, _GROUPS
    rng = np.random.default_rng(12345)
    _SMALL = rng.random(12)
    _MATRIX = rng.random((1600, 16))
    _VECTOR = rng.random(16)
    _FLOATS = rng.random(20000).tolist()
    _ROWS = rng.random((19200, 8))   # 1600 samples x 12 exits, as in reliability training
    _GROUPS = np.array_split(rng.permutation(19200), 12)


def _serve() -> None:
    """Child mode: warm up, then time every part once per line read."""
    _make_inputs()
    for part in PARTS.values():
        part()
    print("ready", flush=True)
    for _ in sys.stdin:
        times = {}
        for name, part in PARTS.items():
            t0 = time.perf_counter()
            part()
            times[name] = time.perf_counter() - t0
        print(json.dumps(times), flush=True)


class MachineSpeed:
    """Samples the reference child at most every ``every_s`` seconds of a run.

    Use as a context manager; leaving it stops the child and waits for it."""

    def __init__(self, every_s: float = 1.0):
        self.every_s = every_s
        self.times = {name: [] for name in PARTS}
        self._last = -math.inf
        self._child = None

    def __enter__(self):
        env = dict(os.environ, PYTHONHASHSEED="0")
        self._child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        if self._child.stdout.readline().strip() != "ready":
            self.__exit__()
            raise RuntimeError("the machine reference did not start")
        return self

    def __exit__(self, *exc):
        child, self._child = self._child, None
        child.stdin.close()
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        child.stdout.close()

    def sample(self) -> None:
        self._child.stdin.write("go\n")
        self._child.stdin.flush()
        for name, seconds in json.loads(self._child.stdout.readline()).items():
            self.times[name].append(seconds)
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= self.every_s:
            self.sample()

    def medians_ms(self) -> dict:
        return {name: statistics.median(t) * 1e3 for name, t in self.times.items()}

    def slowdown(self) -> float:
        """Geometric mean over the parts of median time / nominal time
        (above 1: the machine ran slower than nominal)."""
        logs = [math.log(statistics.median(t) / NOMINAL_S[name]) for name, t in self.times.items()]
        return math.exp(sum(logs) / len(logs))


if __name__ == "__main__":
    _serve()
