"""The package's top-level names are exactly the documented entry points.

Everything else is imported from its module (``exitbandit.metrics``,
``exitbandit.reliability``, ...). Adding a top-level name means adding it
here and to README.md's "Library entry points".
"""

import re
import types
from pathlib import Path

import exitbandit

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = {
    "env": ["GeneratorParams", "SampleOutcomes", "ShiftSchedule", "ThresholdGrid",
            "default_grid"],
    "simulator": ["iter_samples", "round_rng", "stream"],
    "exits": ["Criterion", "ExitDecision", "decide", "exit_distribution"],
    "bandit": ["BanditState", "RewardParams", "RewardVariant", "RunTrace", "UcbPolicy",
               "reward", "run", "run_many", "run_policy"],
    "baselines": ["FinalLayerPolicy", "FixedPolicy", "RandomPolicy", "oracle_best_arm",
                  "replay_arm"],
    "metrics": ["RunSummary", "cumulative_regret", "empirical_risk", "speedup",
                "summarize"],
    "harness": ["ConfigError", "ExperimentConfig", "analyze", "load_config",
                "parse_config", "run_experiment", "sweep", "train_reliability"],
    "reliability": ["ReliabilityModel", "compute_c_from_samples", "dataset_from_samples",
                    "train"],
}
NAMES = {name for names in PUBLIC.values() for name in names}


def test_public_set_size():
    assert len(NAMES) == sum(len(names) for names in PUBLIC.values()) == 43


def test_all_is_the_public_set():
    assert sorted(exitbandit.__all__) == sorted(NAMES)


def test_namespace_holds_only_the_public_set():
    # submodules become package attributes on import; they are not exports
    exported = {name for name, value in vars(exitbandit).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == NAMES


def test_each_name_comes_from_its_module():
    for module, names in PUBLIC.items():
        owner = getattr(exitbandit, module)
        for name in names:
            assert getattr(exitbandit, name) is getattr(owner, name), f"{module}.{name}"


def test_each_name_is_documented_in_readme():
    text = README.read_text()
    blocks = re.findall(r"^```.*?^```", text, re.S | re.M)
    prose = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    code = " ".join(blocks + re.findall(r"`([^`\n]+)`", prose))
    missing = [name for name in sorted(NAMES) if not re.search(rf"\b{name}\b", code)]
    assert missing == []
