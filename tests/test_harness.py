"""Experiment harness: config schema, persistence, sweeps, analysis."""

import csv
import json
import math
import re
import shutil
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitbandit import (
    Criterion,
    RewardVariant,
    default_grid,
    empirical_risk,
    replay_arm,
    stream,
)
import exitbandit.harness as harness
from exitbandit.harness import (
    FINAL_ARM_TOKEN,
    SWEEP_AXES,
    TRACE_HEADER,
    ConfigError,
    PolicySpec,
    aggregate_summaries,
    analyze,
    benchmark_overhead,
    load_config,
    parse_config,
    read_trace_csv,
    run_experiment,
    run_single,
    sweep,
    train_reliability,
    write_trace_csv,
)
from exitbandit.reliability import ReliabilityModel


def minimal(**overrides):
    payload = {"generator": {}, "num_rounds": 100}
    payload.update(overrides)
    return payload


class TestParseConfigDefaults:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(minimal())
        assert cfg.gamma == pytest.approx(math.sqrt(2.0))
        assert cfg.epsilon == 0.01
        assert cfg.lam_spec == "auto"
        assert cfg.variant is RewardVariant.PRODUCT_PENALIZED
        assert cfg.resolved_criterion is Criterion.PRODUCT
        assert cfg.policy == PolicySpec("ucb")
        assert cfg.seeds == (0,)
        assert cfg.num_rounds == 100
        assert cfg.log_mode == "round"
        assert cfg.calibration_tol == 0.1
        assert cfg.grid.values == default_grid().values
        assert cfg.num_layers == 12

    def test_auto_lambda_resolution(self):
        cfg = parse_config(minimal())
        assert cfg.resolved_lambda == pytest.approx(0.01 / 12)
        params = cfg.reward_params()
        assert params.num_layers == 12
        assert params.variant is RewardVariant.PRODUCT_PENALIZED

    def test_numeric_lambda_passes_through(self):
        cfg = parse_config(minimal(**{"lambda": 0.002}))
        assert cfg.resolved_lambda == 0.002

    def test_config_error_is_a_value_error(self):
        assert issubclass(ConfigError, ValueError)


class TestParseConfigValidation:
    def test_unknown_keys_rejected_everywhere(self):
        bad = [
            minimal(extra=1),
            minimal(generator={"num_layer": 12}),
            minimal(grid={"values": [0.5, 1.0], "size": 3}),
            minimal(reliability={"epoch": 5}),
            minimal(policy={"type": "fixed", "tau": 0.7, "x": 1}),
        ]
        for payload in bad:
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(payload)

    def test_exactly_one_stream_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config({"num_rounds": 10})
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(
                {
                    "generator": {},
                    "schedule": [{"start_round": 1, "generator": {}}],
                    "num_rounds": 10,
                }
            )

    def test_schedule_parsing(self):
        cfg = parse_config(
            {
                "schedule": [
                    {"start_round": 1, "generator": {"confidence_noise": 0.05}},
                    {"start_round": 51, "generator": {"confidence_noise": 0.4}},
                ],
                "num_rounds": 100,
            }
        )
        assert len(cfg.schedule.segments) == 2
        assert cfg.schedule.segments[1][0] == 51

    def test_schedule_segment_needs_both_keys(self):
        with pytest.raises(ConfigError, match="start_round"):
            parse_config({"schedule": [{"generator": {}}], "num_rounds": 10})

    def test_schedule_mixed_depth_rejected(self):
        with pytest.raises(ConfigError, match="num_layers"):
            parse_config(
                {
                    "schedule": [
                        {"start_round": 1, "generator": {"num_layers": 12}},
                        {"start_round": 5, "generator": {"num_layers": 6}},
                    ],
                    "num_rounds": 10,
                }
            )

    def test_grid_by_values(self):
        cfg = parse_config(minimal(grid={"values": [0.4, 0.8, 1.0]}))
        assert cfg.grid.values == (0.4, 0.8, 1.0)

    def test_grid_by_shape(self):
        cfg = parse_config(minimal(grid={"size": 5, "low": 0.6, "high": 0.8}))
        np.testing.assert_allclose(cfg.grid.values, np.linspace(0.6, 0.8, 5))

    def test_grid_validation_wrapped(self):
        with pytest.raises(ConfigError):
            parse_config(minimal(grid={"values": [0.8, 0.5]}))
        with pytest.raises(ConfigError, match="size"):
            parse_config(minimal(grid={"size": 0}))

    @pytest.mark.parametrize("grid, pair", [
        ({"values": [0.5, 0.5000000001, 0.9]}, "0.5 and 0.5000000001"),
        ({"size": 3, "low": 0.5, "high": 0.5000000001}, "0.5 and 0.50000000005"),
    ], ids=["values", "size"])
    def test_grid_arms_must_print_apart(self, grid, pair):
        # two arms that print alike would share one trace and summary key
        with pytest.raises(ConfigError, match=re.escape(f"grid: arms {pair} both print as '0.5'")):
            parse_config(minimal(grid=grid))

    def test_scalar_domains(self):
        for key, bad in [
            ("gamma", 0.5),
            ("epsilon", 0.0),
            ("epsilon", 1.0),
            ("lambda", -0.1),
            ("num_rounds", 0),
            ("calibration_tol", 0.0),
        ]:
            with pytest.raises(ConfigError):
                parse_config(minimal(**{key: bad}))

    def test_num_rounds_required(self):
        with pytest.raises(ConfigError, match="num_rounds"):
            parse_config({"generator": {}})

    def test_every_variant_name_parses(self):
        for variant in RewardVariant:
            cfg = parse_config(minimal(variant=variant.value))
            assert cfg.variant is variant
        with pytest.raises(ConfigError, match="variant"):
            parse_config(minimal(variant="prodct"))

    def test_criterion_override(self):
        cfg = parse_config(minimal(criterion="confidence"))
        assert cfg.resolved_criterion is Criterion.CONFIDENCE
        with pytest.raises(ConfigError, match="criterion"):
            parse_config(minimal(criterion="conf"))

    def test_policy_names(self):
        assert parse_config(minimal(policy="uat")).policy == PolicySpec("ucb")
        assert parse_config(minimal(policy="random")).policy.kind == "random"
        assert parse_config(minimal(policy="final")).policy.kind == "final"
        fixed = parse_config(minimal(policy={"type": "fixed", "tau": 0.7})).policy
        assert fixed == PolicySpec("fixed", 0.7)
        assert fixed.label == "fixed0.7"
        with pytest.raises(ConfigError):
            parse_config(minimal(policy="greedy"))
        with pytest.raises(ConfigError, match="tau"):
            parse_config(minimal(policy={"type": "fixed"}))
        with pytest.raises(ConfigError, match="type"):
            parse_config(minimal(policy={"type": "random"}))

    def test_fixed_tau_must_sit_inside_grid_range(self):
        with pytest.raises(ConfigError, match="outside grid range"):
            parse_config(minimal(policy={"type": "fixed", "tau": 0.3}))
        cfg = parse_config(minimal(policy={"type": "fixed", "tau": 0.5}))
        assert cfg.policy.tau == 0.5

    def test_seeds_validation(self):
        assert parse_config(minimal(seeds=[3, 1, 2])).seeds == (3, 1, 2)
        for bad in ([], [0, 0], [-1], "seeds"):
            with pytest.raises(ConfigError, match="seeds"):
                parse_config(minimal(seeds=bad))

    def test_log_mode_validation(self):
        assert parse_config(minimal(log_mode="horizon")).log_mode == "horizon"
        with pytest.raises(ConfigError, match="log_mode"):
            parse_config(minimal(log_mode="fixed"))

    def test_reliability_section(self):
        cfg = parse_config(minimal(reliability={"epochs": 10, "holdout_fraction": 0.5}))
        assert cfg.training.epochs == 10
        assert cfg.holdout_fraction == 0.5
        with pytest.raises(ConfigError, match="epochs"):
            parse_config(minimal(reliability={"epochs": 0}))

    def test_out_dir_validation(self):
        with pytest.raises(ConfigError, match="out_dir"):
            parse_config(minimal(out_dir=""))


def _two_segments(start_round):
    return {"num_rounds": 100, "schedule": [
        {"start_round": 1, "generator": {}},
        {"start_round": start_round, "generator": {"confidence_noise": 0.3}},
    ]}


# each of these used to be coerced silently (int() truncation, bool -> 1,
# NaN slipping past ordered comparisons) and now raises
SILENTLY_COERCED = {
    "gamma_nan": (minimal(gamma=float("nan")), "gamma"),
    "gamma_inf": (minimal(gamma=float("inf")), "gamma"),
    "lambda_nan": (minimal(**{"lambda": float("nan")}), "lambda"),
    "lambda_inf": (minimal(**{"lambda": float("inf")}), "lambda"),
    "seed_fraction": (minimal(seeds=[1.9]), "seeds"),
    "seed_bool": (minimal(seeds=[True]), "seeds"),
    "num_rounds_fraction": (minimal(num_rounds=2.5), "num_rounds"),
    "start_round_fraction": (_two_segments(1.5), "start_round"),
    "depth_gain_nan": (minimal(generator={"depth_gain": float("nan")}), "depth_gain"),
}


@pytest.mark.parametrize("case", sorted(SILENTLY_COERCED))
def test_config_that_was_silently_coerced_is_rejected(case):
    payload, match = SILENTLY_COERCED[case]
    with pytest.raises(ConfigError, match=match):
        parse_config(payload)


def test_non_finite_literals_in_a_config_file_are_rejected(tmp_path):
    # Python's json module reads NaN and Infinity literals
    path = tmp_path / "config.json"
    path.write_text('{"generator": {}, "num_rounds": 10, "gamma": Infinity}')
    with pytest.raises(ConfigError, match="gamma must be finite"):
        load_config(path)


def _floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi)


# generated around every domain edge, so both sides of each check occur
CONFIG_DOCS = st.fixed_dictionaries(
    {
        "generator": st.fixed_dictionaries({}, optional={
            "num_layers": st.integers(1, 6),
            "difficulty_spread": _floats(-0.5, 4.0),
            "depth_gain": _floats(-20.0, 20.0),
            "confidence_noise": _floats(-0.1, 1.0),
            "reliability_signal": _floats(-0.2, 1.2),
            "overconfidence_rate": _floats(-0.2, 1.2),
            "noise_accuracy_drag": _floats(-0.5, 3.0),
            "seed": st.integers(-1, 5),
        }),
        "num_rounds": st.integers(-1, 12),
    },
    optional={
        "gamma": _floats(0.5, 4.0),
        "lambda": st.one_of(st.just("auto"), _floats(-0.1, 0.5)),
        "epsilon": _floats(-0.1, 1.1),
        "variant": st.sampled_from([v.value for v in RewardVariant]),
        "criterion": st.sampled_from([c.value for c in Criterion]),
        "policy": st.one_of(
            st.sampled_from(["ucb", "random", "final"]),
            st.builds(lambda tau: {"type": "fixed", "tau": tau}, _floats(0.3, 1.1)),
        ),
        "seeds": st.lists(st.integers(-1, 50), min_size=1, max_size=2),
        "log_mode": st.sampled_from(["round", "horizon"]),
        "grid": st.builds(lambda n, lo, hi: {"size": n, "low": lo, "high": hi},
                          st.integers(0, 4), _floats(-0.1, 1.0), _floats(0.0, 1.2)),
    },
)


@given(payload=CONFIG_DOCS)
@settings(max_examples=60, deadline=None)
def test_every_accepted_config_runs_to_completion(payload):
    try:
        config = parse_config(payload)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as out:
        written = run_experiment(config, out)
    assert len(written["traces"]) == len(config.seeds)


def test_integral_and_finite_values_still_parse():
    cfg = parse_config(_two_segments(6) | {"seeds": [0, 7], "gamma": 2, "lambda": 0})
    assert cfg.seeds == (0, 7)
    assert cfg.gamma == 2.0 and cfg.lam_spec == 0.0
    assert [start for start, _ in cfg.schedule.segments] == [1, 6]


# both used to get past parse_config: the grid as numpy's MemoryError from
# np.linspace, the depth as a config that fails at its first allocation
@pytest.mark.parametrize("payload, where, cap", [
    (minimal(grid={"size": 10**12}), "grid.size", "MAX_GRID_SIZE"),
    (minimal(generator={"num_layers": 10**9}), "generator.num_layers", "MAX_NUM_LAYERS"),
])
def test_sizes_no_machine_can_hold_are_config_errors(payload, where, cap):
    with pytest.raises(ConfigError, match=re.escape(f"{where} must be <= {getattr(harness, cap)}")):
        parse_config(payload)


# a JSON integer too large for a float used to escape as OverflowError
@pytest.mark.parametrize("payload", [
    minimal(gamma=10**400),
    minimal(generator={"depth_gain": 10**400}),
    minimal(reliability={"learning_rate": -10**400}),
], ids=["gamma", "generator", "reliability"])
def test_integer_past_float_range_is_a_config_error(payload):
    with pytest.raises(ConfigError, match="integer too large for a float"):
        parse_config(payload)


def test_size_caps_are_inclusive():
    assert max(harness.MAX_GRID_SIZE, harness.MAX_NUM_LAYERS) < 10**6  # see JSON_SCALARS
    # a depth allocates nothing at parse time, so the cap itself is cheap to parse
    deep = parse_config(minimal(generator={"num_layers": harness.MAX_NUM_LAYERS}))
    assert deep.num_layers == harness.MAX_NUM_LAYERS
    segments = [{"start_round": 1, "generator": {}},
                {"start_round": 5, "generator": {"num_layers": harness.MAX_NUM_LAYERS + 1}}]
    with pytest.raises(ConfigError, match=r"schedule\[1\].generator.num_layers"):
        parse_config({"num_rounds": 100, "schedule": segments})


# any JSON value: small integers, or integers past every size cap (up to past
# float range), so that no example allocates more than a small grid
JSON_SCALARS = (
    st.none() | st.booleans()
    | st.integers(-2, 40) | st.integers(min_value=10**6, max_value=10**400)
    | st.floats()
    | st.sampled_from(["auto", "ucb", "uat", "fixed", "round", "horizon", "results"]
                      + [v.value for v in RewardVariant] + [c.value for c in Criterion])
    | st.text(max_size=3)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)


# the keys each object of a config document knows
OBJECT_KEYS = {
    "config": harness._TOP_KEYS,
    "generator": harness._GENERATOR_KEYS,
    "grid": ("values", "size", "low", "high"),
    "policy": ("type", "tau"),
    "reliability": ("epochs", "learning_rate", "sharpness", "holdout_fraction"),
}


@st.composite
def parser_docs(draw):
    """A config document near the schema: a CONFIG_DOCS draw, maybe turned into
    a two-segment schedule and given reliability settings, then up to three of
    its real keys, top-level or nested, set to any JSON value."""
    doc = draw(CONFIG_DOCS)
    if draw(st.booleans()):
        doc["schedule"] = [{"start_round": 1, "generator": doc.pop("generator")},
                           {"start_round": draw(st.integers(-1, 12)), "generator": {}}]
    if draw(st.booleans()):
        doc["reliability"] = draw(st.fixed_dictionaries({}, optional={
            "epochs": st.integers(-1, 3), "learning_rate": _floats(-0.1, 1.0),
            "sharpness": _floats(-1.0, 60.0), "holdout_fraction": _floats(-0.1, 1.1)}))
    owners = {"config": doc, **{k: v for k, v in doc.items() if isinstance(v, dict)}}
    if "schedule" in doc:
        owners["generator"] = doc["schedule"][0]["generator"]
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(sorted(owners)))
        owners[name][draw(st.sampled_from(OBJECT_KEYS[name]))] = draw(JSON_VALUES)
    return doc


@given(payload=parser_docs())
@settings(max_examples=400, deadline=None)
def test_parse_config_returns_or_raises_config_error(payload):
    try:
        config = parse_config(payload)
    except ConfigError:
        return
    assert harness.derive(config, {}) == config


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal(gamma=2.0)))
        assert load_config(path).gamma == 2.0

    def test_bad_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)


class TestRunSingle:
    def test_adaptive_run_produces_consistent_result(self):
        cfg = parse_config(minimal(num_rounds=300))
        result = run_single(cfg, seed=5)
        assert len(result.trace) == 300
        assert result.trace.policy == "ucb"
        assert result.best_arm in cfg.grid.values
        assert set(result.per_arm_means) == set(cfg.grid.values)
        assert result.trace.cum_regret is not None
        assert np.all(np.diff(result.trace.cum_regret) >= -1e-12)
        # epsilon* must equal the oracle arm's own expected-risk replay
        samples = stream(cfg.schedule, 300, 5)
        best_trace = replay_arm(
            result.best_arm, samples, cfg.reward_params(), grid=cfg.grid
        )
        assert result.summary.epsilon_star == empirical_risk(best_trace)[0]
        assert result.summary.epsilon_d == pytest.approx(
            cfg.epsilon + result.summary.epsilon_star
        )

    def test_final_policy_is_a_virtual_arm(self):
        cfg = parse_config(minimal(num_rounds=200, policy="final"))
        result = run_single(cfg, seed=1)
        assert all(a is None for a in result.trace.arms)
        assert result.summary.speedup == 1.0
        assert math.isfinite(result.summary.cumulative_regret)
        assert result.summary.per_arm_pulls == {FINAL_ARM_TOKEN: 200}

    def test_off_grid_fixed_tau_is_a_virtual_arm(self):
        cfg = parse_config(
            minimal(
                num_rounds=200,
                grid={"values": [0.5, 0.7, 1.0]},
                policy={"type": "fixed", "tau": 0.6},
            )
        )
        result = run_single(cfg, seed=2)
        assert set(result.trace.arms) == {0.6}
        assert result.best_arm in (0.5, 0.7, 1.0)
        assert math.isfinite(result.summary.cumulative_regret)


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        cfg = parse_config(minimal(num_rounds=120, policy="final"))
        trace = run_single(cfg, seed=3).trace
        path = tmp_path / "trace_final_3.csv"
        write_trace_csv(trace, path)
        table = read_trace_csv(path)
        assert len(table) == 120
        np.testing.assert_array_equal(table.rounds, np.arange(1, 121))
        assert table.arms == list(trace.arms)
        np.testing.assert_array_equal(table.exit_layers, trace.exit_layers)
        np.testing.assert_allclose(table.rewards, trace.rewards, rtol=1e-8)
        np.testing.assert_allclose(table.cum_regret, trace.cum_regret, rtol=1e-8, atol=1e-12)
        np.testing.assert_array_equal(table.correct, trace.realized)

    def test_mixed_arm_tokens(self, tmp_path):
        cfg = parse_config(minimal(num_rounds=60))
        trace = run_single(cfg, seed=3).trace
        path = tmp_path / "trace_ucb_3.csv"
        write_trace_csv(trace, path)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == TRACE_HEADER
        assert all(row[1] != FINAL_ARM_TOKEN for row in rows[1:])
        # arms persist at .9g precision, so compare up to that rounding
        np.testing.assert_allclose(
            sorted(read_trace_csv(path).arm_set), sorted(set(trace.arms)), rtol=1e-8
        )

    def test_requires_attached_regret(self, tmp_path):
        from conftest import make_trace

        trace = make_trace(arms=[0.5], exit_layers=[1])
        with pytest.raises(ValueError, match="regret"):
            write_trace_csv(trace, tmp_path / "trace_x_0.csv")

    def test_read_rejects_alien_header(self, tmp_path):
        path = tmp_path / "trace_ucb_0.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_trace_csv(path)

    @pytest.mark.parametrize("previous", [None, "kept\n"],
                             ids=["absent", "present"])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, previous):
        # a regret curve cut at round 1000 of 2000 makes the write fail half way
        cfg = parse_config(minimal(num_rounds=2000, policy="final"))
        trace = run_single(cfg, seed=3).trace
        trace.cum_regret = trace.cum_regret[:1000]
        path = tmp_path / "trace_final_3.csv"
        if previous is not None:
            path.write_text(previous)
        with pytest.raises(IndexError):
            write_trace_csv(trace, path)
        if previous is None:
            assert not path.exists()
        else:
            assert path.read_text() == previous
        # and no temp file is left beside it
        assert sorted(tmp_path.iterdir()) == ([] if previous is None else [path])

    def test_read_rejects_rounds_out_of_order(self, tmp_path):
        path = tmp_path / "trace_ucb_0.csv"
        row = "0.5,3,0.8,0.79,0.9,1,0"
        path.write_text(f"{','.join(TRACE_HEADER)}\n2,{row}\n2,{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: round 2 out of order")):
            read_trace_csv(path)

    @pytest.mark.parametrize("rows, message", [
        (["1,7.5,3,0.8,0.79,0.9,1,0"], "line 2: arm must be in (0, 1], got '7.5'"),
        (["1,0,3,0.8,0.79,0.9,1,0"], "line 2: arm must be in (0, 1], got '0'"),
        (["1,nan,3,0.8,0.79,0.9,1,0"], "line 2: arm must be in (0, 1], got 'nan'"),
        (["1,0.5,3,0.8,0.79,0.9,1,0", "2,final,-3,0.8,0.79,0.9,1,0"],
         "line 3: exit_layer must be >= 1, got -3"),
        (["1,final,0,0.8,0.79,0.9,1,0"], "line 2: exit_layer must be >= 1, got 0"),
    ], ids=["arm-above-1", "arm-0", "arm-nan", "layer-negative", "layer-0"])
    def test_read_rejects_arm_or_layer_out_of_range(self, tmp_path, rows, message):
        path = tmp_path / "trace_ucb_0.csv"
        path.write_text("\n".join([",".join(TRACE_HEADER), *rows]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_trace_csv(path)

    def test_read_rejects_empty_trace(self, tmp_path):
        path = tmp_path / "trace_ucb_0.csv"
        path.write_text(",".join(TRACE_HEADER) + "\n")
        with pytest.raises(ValueError, match="no rounds"):
            read_trace_csv(path)


@given(x=st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 0.1234567895, 1234567895.0,
                     0.5000000005, 1.0000000005e-300]),
))
@settings(max_examples=500, deadline=None)
def test_row_templates_print_floats_as_format_9g(x):
    # the CSV row templates rest on this: %.9g is format(x, ".9g"), ties included
    assert "%.9g" % x == format(x, ".9g")


def test_row_templates_print_bools_as_digits():
    assert ("%d" % True, "%d" % False) == ("1", "0")


@pytest.mark.parametrize("overrides", [
    {"grid": {"values": [0.1 + 0.2, 1 / 3, 0.9]}},
    {"policy": "final"},
], ids=["unround-grid", "final"])
def test_summary_pull_keys_are_the_trace_arm_texts(tmp_path, overrides):
    cfg = parse_config(minimal(num_rounds=300, **overrides))
    written = run_experiment(cfg, tmp_path)
    with written["traces"][0].open(newline="") as fh:
        arm_texts = Counter(row["arm"] for row in csv.DictReader(fh))
    summary = json.loads(written["summaries"][0].read_text())
    assert summary["per_arm_pulls"] == dict(arm_texts)
    assert len(arm_texts) == (3 if "grid" in overrides else 1)


class TestAggregateSummaries:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate_summaries([])

    def test_mean_and_std(self):
        cfg = parse_config(minimal(num_rounds=150, seeds=[0, 1]))
        summaries = [run_single(cfg, s).summary for s in (0, 1)]
        agg = aggregate_summaries(summaries)
        assert agg["num_seeds"] == 2
        assert agg["seeds"] == [0, 1]
        values = [s.cumulative_regret for s in summaries]
        assert agg["mean"]["cumulative_regret"] == pytest.approx(np.mean(values))
        assert agg["std"]["cumulative_regret"] == pytest.approx(np.std(values))
        assert agg["risk_bound_holds_fraction"] in (0.0, 0.5, 1.0)


class TestRunExperiment:
    def test_writes_all_files_deterministically(self, tmp_path):
        cfg = parse_config(minimal(num_rounds=250, seeds=[0, 1, 2]))
        out = run_experiment(cfg, tmp_path / "run")
        assert [p.name for p in out["traces"]] == [
            "trace_ucb_0.csv", "trace_ucb_1.csv", "trace_ucb_2.csv",
        ]
        assert [p.name for p in out["summaries"]] == [
            "summary_ucb_0.json", "summary_ucb_1.json", "summary_ucb_2.json",
        ]
        assert out["aggregate"].name == "aggregate_ucb.json"
        first = {p.name: p.read_bytes() for paths in
                 (out["traces"], out["summaries"], [out["aggregate"]])
                 for p in paths}
        shutil.rmtree(tmp_path / "run")
        again = run_experiment(cfg, tmp_path / "run")
        for paths in (again["traces"], again["summaries"], [again["aggregate"]]):
            for p in paths:
                assert p.read_bytes() == first[p.name]

    def test_final_policy_aggregate_speedup_is_one(self, tmp_path):
        cfg = parse_config(minimal(num_rounds=200, seeds=[0, 1], policy="final"))
        out = run_experiment(cfg, tmp_path)
        agg = json.loads(out["aggregate"].read_text())
        assert agg["policy"] == "final"
        assert agg["mean"]["speedup"] == 1.0
        assert agg["std"]["speedup"] == 0.0


class TestSweep:
    def test_axis_validation(self, tmp_path):
        cfg = parse_config(minimal())
        with pytest.raises(ConfigError, match="axis"):
            sweep(cfg, "temperature", [1.0], tmp_path / "s.csv")
        with pytest.raises(ConfigError, match="at least one"):
            sweep(cfg, "lambda", [], tmp_path / "s.csv")

    def test_tau_axis_needs_fixed_policy(self, tmp_path):
        cfg = parse_config(minimal())
        with pytest.raises(ConfigError, match="fixed"):
            sweep(cfg, "tau", [0.6], tmp_path / "s.csv")

    def test_epsilon_axis_needs_auto_lambda(self, tmp_path):
        cfg = parse_config(minimal(**{"lambda": 0.001}))
        with pytest.raises(ConfigError, match="auto"):
            sweep(cfg, "epsilon", [0.01, 0.1], tmp_path / "s.csv")

    def test_variant_axis_rejects_unknown_names(self, tmp_path):
        cfg = parse_config(minimal())
        with pytest.raises(ConfigError, match="variant"):
            sweep(cfg, "variant", ["product", "bogus"], tmp_path / "s.csv")

    @pytest.mark.parametrize("axis, good, bad, match", [
        ("lambda", 0.001, -1.0, "lambda"),
        ("lambda", 0.001, math.nan, "lambda"),
        ("epsilon", 0.05, 1.5, "epsilon"),
        ("tau", 0.8, 1.5, "grid range"),
        ("variant", "product", "bogus", "variant"),
    ], ids=["negative-lambda", "nan-lambda", "epsilon-above-1", "tau-off-grid",
            "unknown-variant"])
    def test_bad_value_rejected_before_any_run(self, tmp_path, monkeypatch,
                                               axis, good, bad, match):
        runs = []
        real_run_single = harness.run_single

        def counting_run_single(*args, **kwargs):
            runs.append(args)
            return real_run_single(*args, **kwargs)

        monkeypatch.setattr(harness, "run_single", counting_run_single)
        policy = {"type": "fixed", "tau": 0.6} if axis == "tau" else "ucb"
        cfg = parse_config(minimal(policy=policy))
        with pytest.raises(ConfigError, match=match):
            sweep(cfg, axis, [good, bad], tmp_path / "s.csv")
        assert runs == []
        assert not (tmp_path / "s.csv").exists()

    def test_variant_sweep_rows(self, tmp_path):
        cfg = parse_config(minimal(num_rounds=200))
        path = sweep(
            cfg, "variant", ["product", "product_penalized"], tmp_path / "s.csv"
        )
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["value"] for r in rows] == ["product", "product_penalized"]
        assert all(r["axis"] == "variant" for r in rows)
        assert all(float(r["speedup"]) >= 1.0 for r in rows)

    def test_tau_sweep_risk_falls_with_threshold(self, tmp_path):
        cfg = parse_config(
            minimal(
                num_rounds=2000,
                seeds=[0, 1, 2],
                policy={"type": "fixed", "tau": 0.6},
            )
        )
        path = sweep(cfg, "tau", [0.6, 0.8, 1.0], tmp_path / "s.csv")
        with path.open() as fh:
            risks = [float(r["empirical_risk"]) for r in csv.DictReader(fh)]
        assert risks[0] > risks[1] > risks[2]

    def test_lambda_sweep_speeds_up_with_penalty(self, tmp_path):
        # heavier depth penalty pushes the learned threshold down, so the
        # swept mean speedup is non-decreasing in lambda
        cfg = parse_config(minimal(num_rounds=5000, seeds=list(range(10))))
        lam = 0.01 / 12
        path = sweep(cfg, "lambda", [0.0, lam, 10 * lam], tmp_path / "s.csv")
        with path.open() as fh:
            speeds = [float(r["speedup"]) for r in csv.DictReader(fh)]
        assert speeds[0] <= speeds[1] <= speeds[2]
        assert speeds == pytest.approx([1.9781196, 1.99090163, 2.10095276], abs=1e-3)

    def test_epsilon_sweep_risk_tracks_budget(self, tmp_path):
        # with lambda='auto' the penalty follows epsilon, so a looser risk
        # budget buys earlier exits and a higher measured risk
        cfg = parse_config(minimal(num_rounds=5000, seeds=list(range(10))))
        path = sweep(cfg, "epsilon", [0.01, 0.05, 0.1], tmp_path / "s.csv")
        with path.open() as fh:
            risks = [float(r["empirical_risk"]) for r in csv.DictReader(fh)]
        assert risks[0] <= risks[1] <= risks[2]
        assert risks == pytest.approx(
            [0.0321600372, 0.0338356082, 0.0354854953], abs=1e-3
        )


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("traces")
    for policy in ("ucb", "random"):
        cfg = parse_config(
            minimal(num_rounds=2000, seeds=list(range(5)), policy=policy)
        )
        run_experiment(cfg, out)
    return out


class TestAnalyze:
    def test_mean_regret_curves_per_policy(self, trace_dir, tmp_path):
        written = analyze(sorted(trace_dir.glob("trace_*.csv")), tmp_path)
        assert [p.name for p in written] == ["regret_random.csv", "regret_ucb.csv"]
        finals = {}
        for p in written:
            with p.open() as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 2000
            assert rows[0]["round"] == "1"
            finals[p.name] = float(rows[-1]["cum_regret"])
        assert finals["regret_ucb.csv"] < finals["regret_random.csv"]

    def test_round_count_mismatch_rejected(self, tmp_path):
        long_cfg = parse_config(minimal(num_rounds=100, seeds=[0]))
        short_cfg = parse_config(minimal(num_rounds=50, seeds=[1]))
        run_experiment(long_cfg, tmp_path)
        run_experiment(short_cfg, tmp_path)
        with pytest.raises(ValueError, match="round count"):
            analyze(sorted(tmp_path.glob("trace_*.csv")), tmp_path / "out")

    def test_arm_set_mismatch_rejected(self, tmp_path):
        narrow = parse_config(
            minimal(num_rounds=80, seeds=[0], grid={"values": [0.5, 1.0]})
        )
        wide = parse_config(minimal(num_rounds=80, seeds=[1]))
        run_experiment(narrow, tmp_path)
        run_experiment(wide, tmp_path)
        with pytest.raises(ValueError, match="arm sets"):
            analyze(sorted(tmp_path.glob("trace_*.csv")), tmp_path / "out")

    def test_empty_input_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            analyze([], tmp_path)

    def test_trace_given_twice_rejected(self, trace_dir, tmp_path):
        trace = sorted(trace_dir.glob("trace_ucb_*.csv"))[0]
        # the same file under a second spelling of its path
        again = trace.parent / ".." / trace.parent.name / trace.name
        for paths in ([trace, trace], [trace, again]):
            with pytest.raises(ValueError, match=f"{again.name}: trace file given twice"):
                analyze(paths, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_alien_filename_rejected(self, tmp_path, trace_dir):
        src = sorted(trace_dir.glob("trace_ucb_*.csv"))[0]
        rogue = tmp_path / "mytrace.csv"
        rogue.write_bytes(src.read_bytes())
        with pytest.raises(ValueError, match="trace_<policy>_<seed>"):
            analyze([rogue], tmp_path / "out")


class TestTrainReliability:
    def test_writes_model_and_metrics(self, tmp_path):
        cfg = parse_config(
            minimal(num_rounds=400, reliability={"epochs": 60})
        )
        out = train_reliability(cfg, seed=0, out_dir=tmp_path)
        model = ReliabilityModel.from_json(out["model"].read_text())
        assert model.num_layers == 12
        metrics = json.loads(out["metrics_file"].read_text())
        assert metrics["train_samples"] == 320
        assert metrics["holdout_samples"] == 80
        assert 0.0 <= metrics["coverage"] <= 1.0
        assert metrics["holdout_auc"] > 0.5
        assert len(metrics["per_exit_coverage"]) == 12
        assert out["metrics"]["holdout_auc"] == metrics["holdout_auc"]

    def test_rejects_degenerate_split(self, tmp_path):
        cfg = parse_config(minimal(num_rounds=2))
        with pytest.raises(ConfigError, match="holdout"):
            train_reliability(cfg, seed=0, out_dir=tmp_path)


class TestBenchmarkOverhead:
    def test_reports_sane_timings(self):
        report = benchmark_overhead(rounds=2000, warmup=200)
        assert report["rounds"] == 2000
        assert 0.0 < report["median_us"] <= report["p90_us"]
        assert report["median_us"] < 1000.0

    @pytest.mark.parametrize("kwargs, match", [
        ({"num_arms": 0}, "num_arms must be >= 1"), ({"rounds": 0}, "rounds must be >= 1"),
        ({"warmup": -1}, "warmup must be >= 0"), ({"rounds": 2.5}, "rounds must be an integer"),
        ({"gamma": True}, "gamma must be a finite number"),
    ])
    def test_rejects_unusable_counts(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            benchmark_overhead(**kwargs)

    def test_sweep_axes_frozen(self):
        assert SWEEP_AXES == ("lambda", "epsilon", "tau", "variant")
