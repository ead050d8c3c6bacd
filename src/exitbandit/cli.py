"""Command-line surface: simulate, train-reliability, sweep, analyze, bench.

Every command takes a JSON config file (see harness.parse_config for the
schema). Failures print one machine-readable JSON error line to stderr and
exit with status 1; success exits 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import harness


def _add_config_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, metavar="PATH",
                   help="JSON experiment config")


def _add_seed_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--seed", type=int, metavar="N",
                   help="run a single seed, overriding the config's list")
    g.add_argument("--seeds", metavar="N,N,...",
                   help="comma-separated seed list, overriding the config")


def _add_out_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="DIR",
                   help="output directory (default: config out_dir)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exitbandit",
        description="Online exit-threshold adaptation over a synthetic "
                    "multi-exit inference stream.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "simulate",
        help="run the configured policy over every seed; write traces, "
             "per-seed summaries, and an aggregate summary",
    )
    _add_config_arg(p)
    _add_seed_args(p)
    _add_out_arg(p)

    p = sub.add_parser(
        "train-reliability",
        aliases=["train-g"],
        help="train the reliability scorer on a fresh stream and save the "
             "model plus its evaluation metrics",
    )
    _add_config_arg(p)
    _add_seed_args(p)
    _add_out_arg(p)

    p = sub.add_parser(
        "sweep",
        help="rerun the experiment along one axis and emit a CSV of "
             "aggregate risk / speedup / regret per value",
    )
    _add_config_arg(p)
    _add_seed_args(p)
    _add_out_arg(p)
    p.add_argument("--axis", required=True, choices=harness.SWEEP_AXES)
    p.add_argument("--values", required=True, metavar="V,V,...",
                   help="comma-separated axis values (variant names for "
                        "the variant axis, numbers otherwise)")

    p = sub.add_parser(
        "analyze",
        help="average cumulative-regret curves across seeds, one CSV per "
             "policy, from previously written trace files",
    )
    p.add_argument("traces", nargs="+", metavar="TRACE.csv",
                   help="trace files named trace_<policy>_<seed>.csv")
    p.add_argument("--out", required=True, metavar="DIR")

    p = sub.add_parser(
        "bench",
        help="micro-benchmark the per-round controller overhead "
             "(select + update only)",
    )
    p.add_argument("--arms", type=int, default=10)
    p.add_argument("--rounds", type=int, default=20000)

    return parser


def _load_config(args) -> harness.ExperimentConfig:
    """The --config file with --seed/--seeds/--out applied, by the config's rules."""
    changes: dict = {}
    if args.seed is not None:
        changes["seeds"] = [args.seed]
    elif args.seeds is not None:
        changes["seeds"] = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    if args.out is not None:
        changes["out_dir"] = args.out
    return harness.derive(harness.load_config(args.config), changes)


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    written = harness.run_experiment(config)
    for path in written["traces"] + written["summaries"]:
        print(path)
    print(written["aggregate"])
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args)
    for seed in config.seeds:
        result = harness.train_reliability(config, seed)
        print(result["model"])
        print(result["metrics_file"])
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    raw = [v for v in args.values.split(",") if v.strip() != ""]
    if args.axis == "variant":
        values: list = [v.strip() for v in raw]
    else:
        values = [float(v) for v in raw]
    path = harness.sweep(config, args.axis, values)
    print(path)
    return 0


def _cmd_analyze(args) -> int:
    for path in harness.analyze(args.traces, args.out):
        print(path)
    return 0


def _cmd_bench(args) -> int:
    result = harness.benchmark_overhead(num_arms=args.arms, rounds=args.rounds)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "train-reliability": _cmd_train,
    "train-g": _cmd_train,
    "sweep": _cmd_sweep,
    "analyze": _cmd_analyze,
    "bench": _cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (harness.ConfigError, ValueError, OSError, MemoryError) as e:
        # a bare MemoryError has no message
        print(json.dumps({"error": str(e) or type(e).__name__}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
