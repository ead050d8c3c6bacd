"""Acceptance gate: ten numbered end-to-end criteria.

Each test prints one live PASS/FAIL line (bypassing capture) before its
assertions, so a verbose run reads as a checklist. The suite favors frozen
reward-landscape constants over in-test replays to keep the full run inside
a few minutes; the calibration behind those constants is 100k rounds by
4 seeds on the frozen generator defaults.
"""

import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_sample
from exitbandit import (
    BanditState,
    Criterion,
    FinalLayerPolicy,
    FixedPolicy,
    GeneratorParams,
    RandomPolicy,
    RewardParams,
    RewardVariant,
    ShiftSchedule,
    ThresholdGrid,
    UcbPolicy,
    compute_c_from_samples,
    cumulative_regret,
    dataset_from_samples,
    decide,
    default_grid,
    empirical_risk,
    iter_samples,
    reward,
    run,
    run_many,
    stream,
    train,
)
from exitbandit.exits import layer_score
from exitbandit.harness import benchmark_overhead
from exitbandit.metrics import arm_gaps, beta_bound, per_arm_pulls, positive_gaps
from exitbandit.reliability import (
    auc_score,
    batch_scores,
    coverage,
    finite_difference_gradient,
    loss_interference_experiment,
    objective_gradient,
)
from exitbandit.simulator import sample_block

G = default_grid()
RP = RewardParams(lam=0.01 / 12, num_layers=12, variant=RewardVariant.PRODUCT_PENALIZED)
DEFAULTS = GeneratorParams()

# frozen per-arm mean rewards on the default generator (100k rounds x 4 seeds);
# None is the always-final virtual arm
MEANS = dict(
    zip(
        G.values,
        (0.69539, 0.72968, 0.76624, 0.80371, 0.84178,
         0.87929, 0.91413, 0.94091, 0.94477, 0.89330),
    )
)
MEANS[None] = 0.82030
BEST_ARM = G.values[8]


def report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"\nCRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_exact_controller_trace(capsys):
    # 3 arms, gamma 1, constant 2-layer sample scoring (0.5, 0.75), depth
    # penalty 1/64 per layer: every quantity is a dyadic rational, so the
    # 12-round trajectory is checked bit for bit against a hand derivation
    grid = ThresholdGrid((0.25, 0.5, 0.75))
    params = RewardParams(lam=1 / 64, num_layers=2,
                          variant=RewardVariant.PRODUCT_PENALIZED)
    sample = make_sample([0.5, 0.75])
    q_lo = 31 / 64   # exit at layer 1: 0.5 - 1/64
    q_hi = 46 / 64   # forced final:    0.75 - 2/64
    expected = (
        (0, q_lo, (q_lo, 0.0, 0.0), (1, 1, 1)),
        (1, q_lo, (q_lo, q_lo, 0.0), (1, 1, 1)),
        (2, q_hi, (q_lo, q_lo, q_hi), (1, 1, 1)),
        (2, q_hi, (q_lo, q_lo, q_hi), (1, 1, 2)),
        (0, q_lo, (q_lo, q_lo, q_hi), (2, 1, 2)),
        (1, q_lo, (q_lo, q_lo, q_hi), (2, 2, 2)),
        (2, q_hi, (q_lo, q_lo, q_hi), (2, 2, 3)),
        (2, q_hi, (q_lo, q_lo, q_hi), (2, 2, 4)),
        (0, q_lo, (q_lo, q_lo, q_hi), (3, 2, 4)),
        (1, q_lo, (q_lo, q_lo, q_hi), (3, 3, 4)),
        (2, q_hi, (q_lo, q_lo, q_hi), (3, 3, 5)),
        (2, q_hi, (q_lo, q_lo, q_hi), (3, 3, 6)),
    )

    state = BanditState(grid=grid, gamma=1.0)
    ok = True
    for t, (want_arm, want_r, want_q, want_n) in enumerate(expected, start=1):
        i = state.select_index()
        d = decide(sample, grid.values[i])
        r = reward(d, params)
        state.update_index(i, r)
        ok = ok and (
            i == want_arm
            and r == want_r
            and tuple(state.q_values) == want_q
            and tuple(state.pull_counts) == want_n
            and state.t == t
        )
        assert (i, r) == (want_arm, want_r), f"round {t}"
        assert tuple(state.q_values) == want_q, f"round {t}"
        assert tuple(state.pull_counts) == want_n, f"round {t}"

    trace = run(grid, [sample] * 12, params, gamma=1.0)
    arms = tuple(grid.index_of(a) for a in trace.arms)
    ok = ok and arms == tuple(e[0] for e in expected)
    report(capsys, 1, ok,
           "12-round trajectory (arms, rewards, means, pulls) matches the "
           "hand-derived table bit for bit")
    assert arms == tuple(e[0] for e in expected)


def test_criterion_02_suboptimal_pull_bound(capsys):
    # two Bernoulli arms with a 0.2 mean gap; the classical pull-count
    # ceiling ceil(8 ln T / gap^2) + 1 must hold in at least 95 of 100 seeds
    horizon = 10_000
    bound = math.ceil(8.0 * math.log(horizon) / 0.2**2) + 1
    assert bound == 1844
    arm_means = (0.6, 0.4)
    good = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        draws = rng.random((2, horizon))
        state = BanditState(grid=ThresholdGrid((0.5, 1.0)), gamma=math.sqrt(2.0))
        for t in range(horizon):
            i = state.select_index()
            state.update_index(i, 1.0 if draws[i][t] < arm_means[i] else 0.0)
        if state.observations[1] <= bound:
            good += 1
    ok = good >= 95
    report(capsys, 2, ok,
           f"suboptimal-arm pulls <= {bound} in {good}/100 seeds (need >= 95)")
    assert ok


@pytest.fixture(scope="module")
def landscape_runs():
    """20 seeded 50k-round adaptive runs scored against the frozen landscape."""
    sch = ShiftSchedule.constant(DEFAULTS)
    arm_means = {a: m for a, m in MEANS.items() if a is not None}
    beta50 = beta_bound(positive_gaps(arm_gaps(arm_means)), 50_000)
    per_seed = []
    for s in range(20):
        seed = 200 + s
        # the adaptive run and the best fixed arm share one stream, and the
        # 5k run plays its prefix
        block = sample_block(sch, 50_000, seed)
        tr50, best = run_many([UcbPolicy(G), FixedPolicy(BEST_ARM)],
                              block, RP, grid=G, num_rounds=50_000, seed=seed)
        tr5 = run(G, block.head(5_000), RP, num_rounds=5_000, seed=seed)
        per_seed.append({
            "r50": cumulative_regret(tr50, MEANS),
            "r5": cumulative_regret(tr5, MEANS),
            "risk": empirical_risk(tr50)[0],
            "eps_star": empirical_risk(best)[0],
        })
    return {"beta50": beta50, "per_seed": per_seed}


def test_criterion_03_logarithmic_regret(capsys, landscape_runs):
    beta50 = landscape_runs["beta50"]
    rows = landscape_runs["per_seed"]
    held = sum(row["r50"] <= beta50 for row in rows)
    rate50 = np.mean([row["r50"] for row in rows]) / 50_000
    rate5 = np.mean([row["r5"] for row in rows]) / 5_000
    sublinear = rate50 < 0.5 * rate5
    ok = held >= 19 and sublinear
    report(capsys, 3, ok,
           f"regret <= budget {beta50:.0f} in {held}/20 seeds (need >= 19); "
           f"per-round regret fell {rate5 / rate50:.2f}x over a 10x horizon "
           "(need > 2x)")
    assert held >= 19
    assert sublinear


def test_criterion_04_risk_bound(capsys, landscape_runs):
    beta50 = landscape_runs["beta50"]
    rows = landscape_runs["per_seed"]
    slack = beta50 / 50_000 + RP.lam * 12
    held = sum(row["risk"] <= row["eps_star"] + slack for row in rows)
    ok = held >= 19
    mean_risk = np.mean([row["risk"] for row in rows])
    mean_star = np.mean([row["eps_star"] for row in rows])
    report(capsys, 4, ok,
           f"risk {mean_risk:.4f} <= eps* {mean_star:.4f} + {slack:.4f} "
           f"in {held}/20 seeds (need >= 19)")
    assert ok


def test_criterion_05_policy_ordering(capsys):
    # adaptive < best-fixed-ish arm < uniform-random < always-final, as mean
    # cumulative regret against the frozen landscape over 200k rounds
    sch = ShiftSchedule.constant(DEFAULTS)
    horizon = 200_000
    sums = np.zeros(4)
    for s in range(5):
        policies = [
            UcbPolicy(G, gamma=math.sqrt(2.0)),
            FixedPolicy(G.values[6]),
            RandomPolicy(G, seed=7000 + s),
            FinalLayerPolicy(),
        ]
        traces = run_many(policies, sample_block(sch, horizon, seed=100 + s),
                          RP, grid=G, num_rounds=horizon, seed=100 + s)
        sums += [cumulative_regret(tr, MEANS) for tr in traces]
    avg = sums / 5
    ok = avg[0] < avg[1] < avg[2] < avg[3]
    report(capsys, 5, ok,
           "mean cumulative regret "
           f"ucb {avg[0]:.0f} < fixed(0.83) {avg[1]:.0f} < "
           f"random {avg[2]:.0f} < final {avg[3]:.0f}")
    assert ok


def test_criterion_06_shift_adaptation(capsys):
    # confidence noise jumps 0.05 -> 0.4 mid-stream; in the post-shift
    # window the adaptive run must Pareto-dominate every fixed arm that is
    # at least as fast on average
    horizon, cut = 60_000, 30_000
    shifted = replace(DEFAULTS, confidence_noise=0.4)
    risks = np.zeros(11)
    exits = np.zeros(11)
    for s in range(10):
        sch = ShiftSchedule(((1, DEFAULTS), (cut + 1, shifted)))
        policies = [UcbPolicy(G)] + [FixedPolicy(v) for v in G.values]
        traces = run_many(policies, sample_block(sch, horizon, seed=300 + s),
                          RP, grid=G, num_rounds=horizon, seed=300 + s)
        for i, tr in enumerate(traces):
            risks[i] += 1.0 - tr.correct_probs[cut:].mean()
            exits[i] += tr.exit_layers[cut:].mean()
    risks /= 10
    speedups = 12.0 / (exits / 10)
    comparators = [i for i in range(1, 11) if speedups[i] >= speedups[0]]
    ok = bool(comparators) and all(risks[0] <= risks[i] for i in comparators)
    closest = min(risks[i] for i in comparators) if comparators else float("nan")
    report(capsys, 6, ok,
           f"post-shift adaptive risk {risks[0]:.4f} at speedup "
           f"{speedups[0]:.3f} vs {closest:.4f} for the best of "
           f"{len(comparators)} not-slower fixed arms")
    assert ok


def test_criterion_07_joint_score_pareto(capsys):
    # penalized vs plain product reward, same exit criterion, same paired
    # streams, so the two runs differ only in the arms the controller pulls.
    # The joint score must be Pareto-no-worse than the plain product: risk
    # within the depth-penalty slack lam * L of metrics.risk_bound_check
    # (0.01 here), and strictly faster. At this lam both rewards share the
    # oracle-best arm (tau = 0.9444): between the top two arms the penalty
    # difference lam * 1.58 layers ~ 0.0013 is a third of their 0.0040 score
    # gap, so the penalty cannot move the best arm and only steers
    # exploration toward shallower exits. The speedup is therefore small but
    # strict: an inert penalty replays the plain run exactly (ratio 1.0 on
    # common random numbers) and a sign-flipped one runs deeper (< 1.0)
    # Each seed's stream is drawn once, as a block both variants play; each
    # variant's sums still run over the seeds in order.
    sch = ShiftSchedule.constant(DEFAULTS)
    variants = (RewardVariant.PRODUCT_PENALIZED, RewardVariant.PRODUCT)
    params = {v: RewardParams(lam=RP.lam, num_layers=12, variant=v) for v in variants}
    risk_sum = dict.fromkeys(variants, 0.0)
    exit_sum = dict.fromkeys(variants, 0.0)
    pulls = {v: Counter() for v in variants}
    for s in range(10):
        block = sample_block(sch, 50_000, seed=400 + s)
        for variant in variants:
            tr = run(G, block, params[variant], num_rounds=50_000, seed=400 + s)
            risk_sum[variant] += 1.0 - tr.correct_probs.mean()
            exit_sum[variant] += tr.exit_layers.mean()
            pulls[variant].update(per_arm_pulls(tr))
    results = {v: (risk_sum[v] / 10, 12.0 / (exit_sum[v] / 10), pulls[v].most_common(1)[0][0])
               for v in variants}
    full_risk, full_speed, full_top = results[RewardVariant.PRODUCT_PENALIZED]
    prod_risk, prod_speed, prod_top = results[RewardVariant.PRODUCT]
    slack = RP.lam * 12
    risk_ok = full_risk <= prod_risk + slack
    speed_ok = full_speed > prod_speed
    report(capsys, 7, risk_ok and speed_ok,
           f"speedup ratio {full_speed / prod_speed:.4f} (need > 1); risk "
           f"{full_risk:.4f} vs {prod_risk:.4f}, margin "
           f"{prod_risk + slack - full_risk:.4f} against lam*L {slack:.4f}; "
           f"most-pulled arm {full_top:.4f} vs {prod_top:.4f}, both rewards "
           f"share the oracle-best arm {BEST_ARM:.4f} at this lam")
    assert risk_ok
    assert speed_ok


def test_criterion_08_reliability_trainer(capsys):
    sch = ShiftSchedule.constant(DEFAULTS)

    # analytic gradient vs central differences at 100 random weight points
    grad_samples = stream(sch, 150, seed=83)
    grad_ds = dataset_from_samples(grad_samples)
    grad_targets = compute_c_from_samples(grad_samples)
    rng = np.random.default_rng(84)
    worst = 0.0
    for _ in range(100):
        w = rng.normal(scale=0.5, size=grad_ds.feature_dim + 2)
        _, analytic = objective_gradient(w, grad_ds, grad_targets)
        numeric = finite_difference_gradient(w, grad_ds, grad_targets)
        rel = np.linalg.norm(analytic - numeric) / (1.0 + np.linalg.norm(analytic))
        worst = max(worst, rel)
    grad_ok = worst <= 1e-5

    # trained scorer keeps coverage above the validation floors
    cov_samples = stream(sch, 1200, seed=80)
    cov_ds = dataset_from_samples(cov_samples)
    cov_targets = compute_c_from_samples(cov_samples)
    model = train(cov_ds, cov_targets)
    cov = coverage(model, cov_ds)
    floor = min(cov_targets.c_per_exit) - 0.05
    cov_ok = cov >= floor

    # held-out ranking quality on a cleaner reliability signal
    sch9 = ShiftSchedule.constant(GeneratorParams(reliability_signal=0.9))
    auc_train = stream(sch9, 1500, seed=81)
    auc_test = dataset_from_samples(stream(sch9, 1500, seed=82))
    auc_model = train(dataset_from_samples(auc_train),
                      compute_c_from_samples(auc_train))
    auc = auc_score(batch_scores(auc_model, auc_test), auc_test.correct)
    auc_ok = auc >= 0.8

    # joint objective must not disturb the classifier it is trained beside
    interference = loss_interference_experiment()
    gap_ok = interference["gap"] <= 0.005

    ok = grad_ok and cov_ok and auc_ok and gap_ok
    report(capsys, 8, ok,
           f"gradient rel err {worst:.1e} (<= 1e-5); coverage {cov:.3f} >= "
           f"{floor:.3f}; holdout AUC {auc:.3f} (>= 0.8); interference gap "
           f"{interference['gap']:.4f} (<= 0.005)")
    assert grad_ok
    assert cov_ok
    assert auc_ok
    assert gap_ok


def test_criterion_09_numeric_exactness(capsys):
    # joint-score fusion, through the exit rule's own product scorer, is the
    # exact product of confidence and correctness (1 - reliability risk)
    def fused(conf, corr):
        return layer_score(conf, 1.0 - corr, Criterion.PRODUCT)

    cs = np.linspace(0.0, 1.0, 21)
    lemma_ok = float(np.max(np.abs(fused(cs[:, None], cs) - np.outer(cs, cs)))) <= 1e-12
    rng = np.random.default_rng(4)
    conf, corr = rng.random(16), rng.random(16)
    base = np.argmax(fused(conf, corr))
    scale_ok = all(np.argmax(fused(s * conf, corr)) == base for s in (0.25, 0.5, 0.99))

    # per-round regret summation equals the exact rational multiset total
    sch = ShiftSchedule.constant(DEFAULTS)
    tr = run(G, iter_samples(sch, 10_000, seed=42), RP,
             num_rounds=10_000, seed=42)
    best_mean = MEANS[BEST_ARM]
    gaps = {a: best_mean - MEANS[a] for a in G.values}
    exact = sum(
        Fraction(gaps[arm]) * n for arm, n in per_arm_pulls(tr).items()
    )
    regret_ok = float(exact) == cumulative_regret(tr, MEANS)

    # a million incremental mean updates stay glued to the batch mean
    rewards = np.random.default_rng(42).random(1_000_000)
    state = BanditState(grid=ThresholdGrid((1.0,)), gamma=1.0)
    for r in rewards:
        state.update_index(0, float(r))
    mean_ok = abs(state.q_values[0] - math.fsum(rewards) / 1_000_000) <= 1e-10

    # exit search agrees with a vectorized scan on real and crafted samples
    samples = list(stream(sch, 500, seed=901))
    samples += [
        make_sample([0.3, 0.75, 0.9]),
        make_sample([1.0, 0.5]),
        make_sample([0.1, 0.2, 0.3]),
    ]
    exit_ok = True
    for s in samples:
        scores = np.array(s.confidence) * (1.0 - np.array(s.reliability_risk))
        L = s.num_layers
        for tau in G.values:
            hits = np.flatnonzero(scores[:-1] >= tau)
            want_layer = int(hits[0]) + 1 if hits.size else L
            d = decide(s, tau)
            exit_ok = exit_ok and (
                d.exit_layer == want_layer
                and d.score_at_exit == scores[want_layer - 1]
            )

    ok = lemma_ok and scale_ok and regret_ok and mean_ok and exit_ok
    report(capsys, 9, ok,
           "score fusion, threshold ranking, regret bookkeeping, running "
           "means, and exit search are exact "
           f"(fusion {lemma_ok}, ranking {scale_ok}, regret {regret_ok}, "
           f"means {mean_ok}, exits {exit_ok})")
    assert ok


def test_criterion_10_controller_overhead(capsys):
    result = benchmark_overhead()
    ok = result["median_us"] < 5.0
    report(capsys, 10, ok,
           f"median select+update cost {result['median_us']:.2f} us/round "
           f"(p90 {result['p90_us']:.2f}, budget 5.0)")
    assert ok
