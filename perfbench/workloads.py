"""The four benchmark workloads: generated inputs, one timed operation each,
and the checks on its outputs.

Every workload is a closed loop with one caller: an operation starts only
after the previous one returned. ``setup`` builds the inputs from the seed
(config document, and for online_step the pre-generated stream); ``op`` is
the timed part and returns its outputs; ``digests`` hashes the outputs that
must be byte-identical for a given seed; ``invariants`` checks properties
that hold on any seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

PACKAGE_MODULES = ("env", "simulator", "exits", "bandit", "baselines",
                   "metrics", "reliability", "harness", "cli")


def import_package() -> SimpleNamespace:
    """Import exitbandit afresh (dropping any loaded copy) and return its modules."""
    for name in [m for m in sys.modules if m == "exitbandit" or m.startswith("exitbandit.")]:
        del sys.modules[name]
    importlib.import_module("exitbandit")
    return SimpleNamespace(**{
        m: importlib.import_module(f"exitbandit.{m}") for m in PACKAGE_MODULES
    })


def config_doc(num_rounds: int, seeds, schedule=None) -> dict:
    """Default generator (12 layers) or the given schedule, default 10-arm
    grid, UCB, auto lambda."""
    return {
        **({"generator": {}} if schedule is None else {"schedule": schedule}),
        "grid": {"size": 10, "low": 0.5, "high": 1.0},
        "policy": "ucb",
        "variant": "product_penalized",
        "lambda": "auto",
        "num_rounds": num_rounds,
        "seeds": list(seeds),
    }


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


def regret_identity_failures(cum_regret: float, pulls: dict, gaps: dict) -> list[str]:
    """Cumulative regret must equal the fsum of every pull's gap."""
    expected = math.fsum(itertools.chain.from_iterable(
        itertools.repeat(gaps[arm], n) for arm, n in pulls.items()
    ))
    if cum_regret != expected:
        return [f"cumulative regret {cum_regret!r} != fsum(pulls x gaps) {expected!r}"]
    return []


class Workload:
    name = ""
    rounds = 0               # stream rounds one operation processes
    streams_rounds = False   # op reports a latency per round (else amortized)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)

    def setup(self, pkg) -> None:
        self.pkg = pkg
        self.config = pkg.harness.parse_config(self.doc())

    def doc(self) -> dict:
        raise NotImplementedError

    def before_op(self) -> None:
        """Untimed preparation of one operation (e.g. removing old outputs)."""

    def op(self):
        raise NotImplementedError

    def step_ns(self, output):
        """Per-round latencies of the operation, or None if not observable."""
        return None

    def digests(self, output) -> dict:
        raise NotImplementedError

    def quick_failures(self, output) -> list[str]:
        """Cheap per-operation checks beyond the digest comparison."""
        return []

    def invariants(self, output) -> list[str]:
        raise NotImplementedError

    def bytes_written(self, output) -> int:
        return 0

    def policy_rounds_outside_runner(self) -> int:
        """Controller rounds an operation plays without bandit.run_many."""
        return 0

    def stream_for_memory(self, rounds: int) -> None:
        """Generate the workload's stream the way the workload holds it."""
        self.pkg.simulator.stream(self.config.schedule, rounds, self.seed)


class Simulate(Workload):
    """cli simulate + cli analyze in-process, two stream seeds."""

    name = "simulate"
    num_rounds = 2000
    rounds = 2 * num_rounds

    def doc(self):
        return config_doc(self.num_rounds, (self.seed, self.seed + 1))

    def setup(self, pkg):
        super().setup(pkg)
        self.out = self.workdir / "simulate"
        self.out.mkdir(parents=True, exist_ok=True)
        self.config_path = self.workdir / "simulate.json"
        self.config_path.write_text(json.dumps(self.doc()))
        seeds = self.config.seeds
        self.traces = [self.out / f"trace_ucb_{s}.csv" for s in seeds]
        self.summaries = [self.out / f"summary_ucb_{s}.json" for s in seeds]
        self.aggregate = self.out / "aggregate_ucb.json"
        self.regret = self.out / "regret_ucb.csv"
        self.files = [*self.traces, *self.summaries, self.aggregate, self.regret]

    def before_op(self):
        for path in self.files:
            path.unlink(missing_ok=True)

    def op(self):
        main = self.pkg.cli.main
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc_sim = main(["simulate", "--config", str(self.config_path), "--out", str(self.out)])
            rc_ana = main(["analyze", *map(str, self.traces), "--out", str(self.out)])
        return SimpleNamespace(rc=(rc_sim, rc_ana), stdout=buf.getvalue())

    def digests(self, output):
        return {p.name: sha256_file(p) for p in self.files if p.exists()}

    def quick_failures(self, output):
        problems = []
        if output.rc != (0, 0):
            problems.append(f"exit codes {output.rc}")
        if output.stdout.splitlines() != [str(p) for p in self.files]:
            problems.append("printed paths differ from the expected output files")
        return problems

    def bytes_written(self, output):
        return sum(p.stat().st_size for p in self.files if p.exists())

    def invariants(self, output):
        problems = []
        n = self.num_rounds
        grid_keys = {format(v, ".9g"): v for v in self.config.grid.values}
        cum_regrets = []
        for seed, trace_path, summary_path in zip(self.config.seeds, self.traces, self.summaries):
            rows = trace_path.read_text().splitlines()[1:]
            if len(rows) != n:
                problems.append(f"{trace_path.name}: {len(rows)} rows, expected {n}")
            summary = json.loads(summary_path.read_text())
            pulls = {grid_keys.get(k, k): v for k, v in summary["per_arm_pulls"].items()}
            if sum(pulls.values()) != n or summary["num_rounds"] != n:
                problems.append(f"{summary_path.name}: pulls sum to {sum(pulls.values())}, expected {n}")
            # the per-arm means come from an in-process replay of the same seed
            means = self.pkg.harness.run_single(self.config, seed).per_arm_means
            best = max(means.values())
            gaps = {arm: best - m for arm, m in means.items()}
            problems += [f"{summary_path.name}: {p}" for p in
                         regret_identity_failures(summary["cumulative_regret"], pulls, gaps)]
            last = rows[-1].split(",")[-1] if rows else ""
            if last != format(summary["cumulative_regret"], ".9g"):
                problems.append(f"{trace_path.name}: final cum_regret {last} disagrees with summary")
            cum_regrets.append(summary["cumulative_regret"])
        aggregate = json.loads(self.aggregate.read_text())
        if aggregate["seeds"] != list(self.config.seeds) or aggregate["num_rounds"] != n:
            problems.append("aggregate seeds/num_rounds wrong")
        if aggregate["mean"]["cumulative_regret"] != float(np.mean(cum_regrets)):
            problems.append("aggregate mean cumulative_regret wrong")
        regret_rows = self.regret.read_text().splitlines()[1:]
        if [int(r.split(",")[0]) for r in regret_rows] != list(range(1, n + 1)):
            problems.append(f"{self.regret.name}: rounds are not 1..{n}")
        return problems


def _timed_rounds(samples, stamps: list):
    """Pass samples through, stamping the moment each one is requested."""
    clock = time.perf_counter_ns
    for sample in samples:
        stamps.append(clock())
        yield sample


class LockstepShift(Workload):
    """bandit.run_many: UCB + the 10 fixed arms over a streamed, shifting stream."""

    name = "lockstep_shift"
    rounds = 5000
    streams_rounds = True

    def doc(self):
        cut = self.rounds // 2 + 1
        schedule = [
            {"start_round": 1, "generator": {"confidence_noise": 0.05}},
            {"start_round": cut, "generator": {"confidence_noise": 0.4}},
        ]
        return config_doc(self.rounds, (self.seed,), schedule=schedule)

    def op(self):
        pkg, config = self.pkg, self.config
        grid = config.grid
        policies = [pkg.bandit.UcbPolicy(grid, gamma=config.gamma)]
        policies += [pkg.baselines.FixedPolicy(v) for v in grid.values]
        stamps = []
        samples = _timed_rounds(
            pkg.simulator.iter_samples(config.schedule, self.rounds, self.seed), stamps)
        traces = pkg.bandit.run_many(
            policies, samples, config.reward_params(), config.resolved_criterion,
            grid=grid, num_rounds=self.rounds, seed=self.seed,
        )
        stamps.append(time.perf_counter_ns())
        return SimpleNamespace(traces=traces, ucb=policies[0], stamps=stamps)

    def step_ns(self, output):
        return np.diff(np.asarray(output.stamps, dtype=np.int64))

    def digests(self, output):
        return {
            f"{j}:{t.policy}": sha256_arrays(
                np.asarray(t.arms, dtype=np.float64), t.exit_layers, t.scores,
                t.rewards, t.correct_probs, t.realized, t.reliabilities)
            for j, t in enumerate(output.traces)
        }

    def invariants(self, output):
        problems = []
        n = self.rounds
        ucb, fixed = output.traces[0], output.traces[1:]
        for t in output.traces:
            if len(t) != n or len(t.rewards) != n:
                problems.append(f"{t.policy}: {len(t)} rows, expected {n}")
        pulls = Counter(ucb.arms)
        if sum(pulls.values()) != n or sum(output.ucb.state.pull_counts) != n:
            problems.append("ucb pulls do not sum to the round count")
        # the fixed-arm traces replay every arm on the same stream: they are the oracle
        means = {tr.arms[0]: math.fsum(tr.rewards) / n for tr in fixed}
        best = max(means.values())
        gaps = {arm: best - m for arm, m in means.items()}
        problems += regret_identity_failures(
            self.pkg.metrics.cumulative_regret(ucb, means, best), pulls, gaps)
        # common random numbers: UCB's reward equals the played arm's fixed reward
        column = {tr.arms[0]: tr.rewards for tr in fixed}
        played = np.array([column[a][i] for i, a in enumerate(ucb.arms)])
        if not np.array_equal(played, ucb.rewards):
            problems.append("ucb rewards differ from the fixed-arm replay of the same round")
        return problems

    def stream_for_memory(self, rounds):
        for _ in self.pkg.simulator.iter_samples(self.config.schedule, rounds, self.seed):
            pass


class OnlineStep(Workload):
    """select -> decide -> reward -> observe per round over a pre-generated stream."""

    name = "online_step"
    rounds = 5000
    streams_rounds = True

    def doc(self):
        return config_doc(self.rounds, (self.seed,))

    def setup(self, pkg):
        self.samples = None
        super().setup(pkg)
        self.samples = pkg.simulator.stream(self.config.schedule, self.rounds, self.seed)

    def op(self):
        pkg, config = self.pkg, self.config
        policy = pkg.bandit.UcbPolicy(config.grid, gamma=config.gamma)
        decide, reward = pkg.exits.decide, pkg.bandit.reward
        params, criterion = config.reward_params(), config.resolved_criterion
        clock = time.perf_counter_ns
        latencies, arms, rewards = [], [], []
        for t, sample in enumerate(self.samples, start=1):
            t0 = clock()
            arm = policy.select(t)
            r = reward(decide(sample, arm, criterion), params)
            policy.observe(arm, r)
            latencies.append(clock() - t0)
            arms.append(arm)
            rewards.append(r)
        return SimpleNamespace(policy=policy, latencies=latencies, arms=arms, rewards=rewards)

    def step_ns(self, output):
        return output.latencies

    def digests(self, output):
        state = output.policy.state
        return {
            "arms": sha256_arrays(np.asarray(output.arms, dtype=np.float64)),
            "final_q": sha256_arrays(np.asarray(state.q_values, dtype=np.float64),
                                     np.asarray(state.pull_counts, dtype=np.int64)),
        }

    def invariants(self, output):
        problems = []
        n = self.rounds
        state = output.policy.state
        if len(output.arms) != n or sum(state.pull_counts) != n or state.t != n:
            problems.append("arm sequence / pull counts do not match the round count")
        pulls = Counter(output.arms)
        for i, arm in enumerate(self.config.grid.values):
            if pulls[arm] != state.pull_counts[i]:
                problems.append(f"arm {arm}: played {pulls[arm]}, pull count {state.pull_counts[i]}")
            mine = [r for a, r in zip(output.arms, output.rewards) if a == arm]
            mean = math.fsum(mine) / len(mine) if mine else 0.0
            if abs(state.q_values[i] - mean) > 1e-12:
                problems.append(f"arm {arm}: q {state.q_values[i]!r} != mean reward {mean!r}")
        return problems

    def policy_rounds_outside_runner(self):
        return self.rounds


class TrainReliability(Workload):
    """harness.train_reliability on the default generator: stream -> dataset -> 500 epochs -> JSON."""

    name = "train_reliability"
    rounds = 2000

    def doc(self):
        return config_doc(self.rounds, (self.seed,))

    def setup(self, pkg):
        super().setup(pkg)
        self.out = self.workdir / "train"
        self.out.mkdir(parents=True, exist_ok=True)
        self.files = [self.out / f"reliability_{self.seed}.json",
                      self.out / f"reliability_metrics_{self.seed}.json"]

    def before_op(self):
        for path in self.files:
            path.unlink(missing_ok=True)

    def op(self):
        return self.pkg.harness.train_reliability(self.config, self.seed, self.out)

    def digests(self, output):
        return {p.name: sha256_file(p) for p in self.files if p.exists()}

    def quick_failures(self, output):
        if [output["model"], output["metrics_file"]] != self.files:
            return ["returned paths differ from the expected output files"]
        return []

    def bytes_written(self, output):
        return sum(p.stat().st_size for p in self.files if p.exists())

    def invariants(self, output):
        problems = []
        metrics = json.loads(self.files[1].read_text())
        model = json.loads(self.files[0].read_text())
        if metrics != json.loads(json.dumps(output["metrics"])):
            problems.append("metrics file differs from the returned metrics")
        if metrics["train_samples"] + metrics["holdout_samples"] != self.rounds:
            problems.append("train + holdout samples != rounds")
        if len(metrics["per_exit_coverage"]) != self.config.num_layers:
            problems.append("per-exit coverage has the wrong length")
        if not (0.0 <= metrics["coverage"] <= 1.0 and 0.0 <= metrics["holdout_auc"] <= 1.0):
            problems.append("coverage or AUC outside [0, 1]")
        weights = model.get("weights", [])
        if not weights or not all(math.isfinite(w) for w in weights):
            problems.append("model weights missing or not finite")
        return problems


WORKLOADS = {w.name: w for w in (Simulate, LockstepShift, OnlineStep, TrainReliability)}
