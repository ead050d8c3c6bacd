"""Which exitbandit bindings the traced run wraps, and the per-layer metrics.

Each binding is swapped in the namespace of the module that calls it:
``harness`` and ``bandit`` use from-imports (``harness.stream``,
``bandit.decide``, ...), so those names are wrapped where they are looked
up. Span names are ``<layer>.<function>``; the layer is the module whose
code runs inside the span. ``env`` has no span of its own: its
``active_params`` is timed as part of the simulator, and its dataclasses are
built inside ``generate_sample``.
"""

from __future__ import annotations

import statistics

from tracer import Recorder, SpanTotals

LAYERS = ("simulator", "exits", "bandit", "baselines", "metrics",
          "harness", "reliability", "cli")


UNITS = {
    "simulator.gen_us_per_round": "us",
    "simulator.stream_kib_per_round": "KiB",
    "exits.decide_calls": "count",
    "exits.decide_us_per_call": "us",
    "exits.layers_scored_per_call": "count",
    "exits.decides_per_policy_round": "ratio",
    "bandit.select_us_p50": "us",
    "bandit.observe_us_p50": "us",
    "bandit.runner_self_us_per_round": "us",
    "baselines.replay_calls": "count",
    "baselines.oracle_us_per_round": "us",
    "metrics.summary_us_per_round": "us",
    "harness.write_us_per_row": "us",
    "harness.read_us_per_row": "us",
    "harness.bytes_written": "B",
    "harness.parse_config_ms": "ms",
    "reliability.dataset_us_per_round": "us",
    "reliability.grad_calls": "count",
    "reliability.grad_ms_per_call": "ms",
    "cli.self_ms": "ms",
    **{f"{layer}.self_us_per_round": "us" for layer in LAYERS},
    "step_us_p99": "us",
    "trace.overhead_ratio": "ratio",
    "trace.attributed_ratio": "ratio",
}


def _rows_in_arg(args, result):
    return {"rows": len(args[0])}


def _rows_in_result(args, result):
    return {"rows": len(result)}


def _decide_count(args, result):
    return {"layers": result.exit_layer}


def _runner_count(args, result):
    return {"rounds": len(result[0]), "policy_rounds": len(result) * len(result[0])}


# (module, attribute or (class, method), span name, count hook)
BINDINGS = (
    ("harness", "stream", "simulator.stream", None),
    ("simulator", "stream", "simulator.stream", None),
    ("simulator", "generate_sample", "simulator.generate_sample", None),
    ("simulator", "round_rng", "simulator.round_rng", None),
    ("simulator", "active_params", "simulator.active_params", None),
    ("bandit", "decide", "exits.decide", _decide_count),
    ("exits", "decide", "exits.decide", _decide_count),
    ("bandit", "run_many", "bandit.run_many", _runner_count),
    ("harness", "run_policy", "bandit.run_policy", None),
    ("baselines", "run_policy", "bandit.run_policy", None),
    ("bandit", "reward", "bandit.reward", None),
    ("bandit", ("UcbPolicy", "select"), "bandit.select", None),
    ("bandit", ("UcbPolicy", "observe"), "bandit.observe", None),
    ("harness", "oracle_best_arm", "baselines.oracle_best_arm", None),
    ("harness", "replay_arm", "baselines.replay_arm", None),
    ("baselines", "replay_arm", "baselines.replay_arm", None),
    ("harness", "attach_regret", "metrics.attach_regret", None),
    ("harness", "summarize", "metrics.summarize", None),
    ("harness", "empirical_risk", "metrics.empirical_risk", None),
    ("harness", "parse_config", "harness.parse_config", None),
    ("harness", "load_config", "harness.load_config", None),
    ("harness", "run_experiment", "harness.run_experiment", None),
    ("harness", "run_single", "harness.run_single", None),
    ("harness", "write_trace_csv", "harness.write_trace_csv", _rows_in_arg),
    ("harness", "read_trace_csv", "harness.read_trace_csv", _rows_in_result),
    ("harness", "aggregate_summaries", "harness.aggregate_summaries", None),
    ("harness", "analyze", "harness.analyze", None),
    ("harness", "train_reliability", "harness.train_reliability", None),
    ("reliability", "compute_c_from_samples", "reliability.compute_c_from_samples", None),
    ("reliability", "dataset_from_samples", "reliability.dataset_from_samples", _rows_in_arg),
    ("reliability", "train", "reliability.train", None),
    ("reliability", "objective_gradient", "reliability.objective_gradient", None),
    ("cli", "main", "cli.main", None),
)


def install(recorder: Recorder, pkg) -> None:
    """Wrap every binding in BINDINGS; recorder.restore() undoes it."""
    for module, attr, name, count in BINDINGS:
        owner = getattr(pkg, module)
        if isinstance(attr, tuple):
            owner, attr = getattr(owner, attr[0]), attr[1]
        recorder.patch(owner, attr, name, count)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(setup: SpanTotals, ops: SpanTotals, *, traced_ops: int,
                      rounds_per_op: int, outside_runner_rounds: int,
                      select_p50: list, observe_p50: list, bytes_written: list,
                      stream_kib_per_round: float) -> dict:
    """Per-layer numbers from the traced set-up and the traced operations.

    Times are self time unless the name says otherwise; "per round" divides
    by stream rounds of the traced operations, so the numbers of one
    workload are comparable across commits.
    """
    rounds = traced_ops * rounds_per_op
    gen = ops if ops.calls.get("simulator.generate_sample") else setup
    decide_calls = ops.calls.get("exits.decide", 0)
    policy_rounds = ops.counts.get("bandit.run_many.policy_rounds", 0) \
        + traced_ops * outside_runner_rounds
    m = {
        "simulator.gen_us_per_round": _ratio(gen.layer_self_ns("simulator") / 1e3,
                                             gen.calls.get("simulator.generate_sample", 0)),
        "simulator.stream_kib_per_round": stream_kib_per_round,
        "exits.decide_calls": _ratio(decide_calls, traced_ops),
        "exits.decide_us_per_call": _ratio(ops.total_ns.get("exits.decide", 0) / 1e3, decide_calls),
        "exits.layers_scored_per_call": _ratio(ops.counts.get("exits.decide.layers", 0), decide_calls),
        "exits.decides_per_policy_round": _ratio(decide_calls, policy_rounds),
        "bandit.select_us_p50": statistics.median(select_p50) if select_p50 else 0.0,
        "bandit.observe_us_p50": statistics.median(observe_p50) if observe_p50 else 0.0,
        "bandit.runner_self_us_per_round": _ratio(ops.self_ns.get("bandit.run_many", 0) / 1e3,
                                                  ops.counts.get("bandit.run_many.rounds", 0)),
        "baselines.replay_calls": _ratio(ops.calls.get("baselines.replay_arm", 0), traced_ops),
        "baselines.oracle_us_per_round": _ratio(ops.entry_ns.get("baselines", 0) / 1e3, rounds),
        "metrics.summary_us_per_round": _ratio(ops.entry_ns.get("metrics", 0) / 1e3, rounds),
        "harness.write_us_per_row": _ratio(ops.total_ns.get("harness.write_trace_csv", 0) / 1e3,
                                           ops.counts.get("harness.write_trace_csv.rows", 0)),
        "harness.read_us_per_row": _ratio(ops.total_ns.get("harness.read_trace_csv", 0) / 1e3,
                                          ops.counts.get("harness.read_trace_csv.rows", 0)),
        "harness.bytes_written": statistics.median(bytes_written) if bytes_written else 0,
        "harness.parse_config_ms": _ratio(setup.total_ns.get("harness.parse_config", 0) / 1e6,
                                          setup.calls.get("harness.parse_config", 0)),
        "reliability.dataset_us_per_round": _ratio(
            ops.total_ns.get("reliability.dataset_from_samples", 0) / 1e3,
            ops.counts.get("reliability.dataset_from_samples.rows", 0)),
        "reliability.grad_calls": _ratio(ops.calls.get("reliability.objective_gradient", 0), traced_ops),
        "reliability.grad_ms_per_call": _ratio(
            ops.total_ns.get("reliability.objective_gradient", 0) / 1e6,
            ops.calls.get("reliability.objective_gradient", 0)),
        "cli.self_ms": _ratio(ops.self_ns.get("cli.main", 0) / 1e6, ops.calls.get("cli.main", 0)),
    }
    for layer in LAYERS:
        m[f"{layer}.self_us_per_round"] = _ratio(ops.layer_self_ns(layer) / 1e3, rounds)
    return m

