"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import layers  # noqa: E402
import machine  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Recorder, SpanTotals, self_times  # noqa: E402


def test_self_time_on_hand_built_tree():
    spans = [
        ("a.root", 0, 100, -1),    # children cover 10..40 and 50..90 -> 70
        ("b.child", 10, 40, 0),    # grandchild covers 20..30 -> 10
        ("c.grand", 20, 30, 1),
        ("b.child", 50, 80, 0),
        ("b.overlap", 70, 90, 0),  # overlaps the previous sibling by 10
        ("a.root", 200, 210, -1),
        ("b.clipped", 205, 230, 5),  # only 205..210 lies inside its parent
    ]
    assert self_times(spans) == [30, 20, 10, 30, 20, 5, 25]

    totals = SpanTotals()
    totals.add(spans, {})
    assert totals.layer_self_ns("a") == 35
    assert totals.layer_self_ns("b") == 20 + 30 + 20 + 25
    assert totals.entry_ns["b"] == 30 + 30 + 20 + 25
    assert totals.top_level_ns == 110


def test_recorder_records_parents_counts_and_restores():
    class Box:
        @staticmethod
        def outer(x):
            return Box.inner(x) + 1

        @staticmethod
        def inner(x):
            return x * 2

    original_outer, original_inner = vars(Box)["outer"], vars(Box)["inner"]
    ticks = iter(range(100))
    with Recorder(clock=lambda: next(ticks)) as rec:
        rec.patch(Box, "outer", "x.outer", count=lambda args, result: {"items": args[0]})
        rec.patch(Box, "inner", "y.inner")
        rec.patch(Box, "absent", "y.absent")
        assert Box.outer(3) == 7
    assert rec.spans == [("x.outer", 0, 3, -1), ("y.inner", 1, 2, 0)]
    assert rec.counts == {"x.outer.items": 3}
    assert rec.missing and rec.missing[0].endswith("absent")
    assert vars(Box)["outer"] is original_outer
    assert vars(Box)["inner"] is original_inner


def bound_objects(pkg) -> dict:
    """Current object of every binding the traced run wraps."""
    out = {}
    for module, attr, _, _ in layers.BINDINGS:
        owner = getattr(pkg, module)
        if isinstance(attr, tuple):
            owner, attr = getattr(owner, attr[0]), attr[1]
        out[(module, owner.__name__, attr)] = vars(owner)[attr]
    return out


class _SmallSimulate(workloads.Simulate):
    num_rounds = 40
    rounds = 80


class _SmallOnline(workloads.OnlineStep):
    rounds = 60


def test_digest_check_flags_one_changed_byte(tmp_path):
    w = _SmallSimulate(3, tmp_path)
    w.setup(workloads.import_package())
    output = w.op()
    assert w.quick_failures(output) == []
    assert w.invariants(output) == []
    checker = run.Checker(w.digests(output))
    checker.check(w.digests(output), [])
    assert (checker.attempted, checker.failed) == (1, 0)

    trace = w.traces[0]
    data = bytearray(trace.read_bytes())
    data[len(data) // 2] ^= 0x01
    trace.write_bytes(bytes(data))
    checker.check(w.digests(output), [])
    assert (checker.attempted, checker.failed) == (2, 1)


class _Raising(workloads.Workload):
    name = "raising"
    rounds = 1

    def op(self):
        raise RuntimeError("boom")


def test_raising_operation_counts_as_failed(tmp_path):
    w = _Raising(0, tmp_path)
    checker = run.Checker(None)
    assert run.run_op(w, checker) is None
    assert (checker.attempted, checker.failed) == (1, 1)
    with pytest.raises(RuntimeError):
        run.end_to_end(w, checker, 0.0, 0.0)
    assert (checker.attempted, checker.failed) == (1 + run.MIN_OPS, 1 + run.MIN_OPS)


def test_regret_identity_detects_a_wrong_total():
    gaps = {0.5: 0.25, 0.6: 0.5, 0.7: 0.0}
    pulls = {0.5: 3, 0.6: 2, 0.7: 5}
    assert workloads.regret_identity_failures(1.75, pulls, gaps) == []
    assert workloads.regret_identity_failures(1.75 + 2**-50, pulls, gaps) != []


def test_traced_run_removes_its_wrappers(tmp_path):
    w = _SmallOnline(2, tmp_path)
    pkg = workloads.import_package()
    w.setup(pkg)
    before = bound_objects(pkg)
    checker = run.Checker(None)
    metrics = run.traced(w, pkg, checker, 0.01, tmp_path / "spans.jsonl")
    assert checker.failed == 0 and checker.attempted >= 2 * run.MIN_OPS
    assert bound_objects(pkg) == before
    assert set(metrics) == set(layers.UNITS)
    assert metrics["exits.decide_calls"]["value"] == w.rounds
    assert metrics["exits.decides_per_policy_round"]["value"] == 1.0
    assert (tmp_path / "spans.jsonl").read_text().count("\n") == 4 * w.rounds


def test_machine_reference_samples_every_part_and_stops_its_child():
    with machine.MachineSpeed(every_s=3600.0) as speed:
        child = speed._child
        speed.maybe_sample()
        speed.maybe_sample()   # within every_s of the first: skipped
        speed.sample()
    assert child.returncode == 0
    assert {name: len(t) for name, t in speed.times.items()} == {name: 2 for name in machine.PARTS}
    assert set(machine.NOMINAL_S) == set(machine.PARTS)
    assert 0.0 < speed.slowdown() < float("inf")


def test_install_wraps_every_binding():
    pkg = workloads.import_package()
    with Recorder() as rec:
        layers.install(rec, pkg)
        assert rec.missing == []
        wrapped = bound_objects(pkg)
        assert all(hasattr(fn, "__wrapped__") for fn in wrapped.values())
    assert not any(hasattr(fn, "__wrapped__") for fn in bound_objects(pkg).values())


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
