"""Golden SHA-256 digests of the sample stream and of every file a small
reference experiment writes.

The stream digests cover every field of every layer, so a change to the
generator shows even where no exit decision reads it. Each config runs end to end (run_experiment, then analyze on its traces),
and the trace, summary, aggregate and regret files must hash to the pinned
values; the reliability trainer's model and metrics JSON are pinned the same
way, and so are two sweep CSVs. The digests were recorded before the exit
table and the column-wise oracle replaced per-arm replays, and before the
reliability rows were grouped by layer, so any change in the emitted bytes
shows.

Re-pin (only when outputs change on purpose) by printing the current values:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import struct
import sys
from pathlib import Path

import pytest

from exitbandit import GeneratorParams, ShiftSchedule, stream
from exitbandit.harness import (
    analyze,
    parse_config,
    run_experiment,
    sweep,
    train_reliability,
)

_GRID = {"size": 10, "low": 0.5, "high": 1.0}

CONFIGS = {
    "ucb": {"generator": {}, "grid": _GRID, "num_rounds": 400, "seeds": [0, 1]},
    "shift": {
        "schedule": [
            {"start_round": 1, "generator": {"confidence_noise": 0.05}},
            {"start_round": 201, "generator": {"confidence_noise": 0.4,
                                                "overconfidence_rate": 0.3}},
        ],
        "grid": _GRID, "num_rounds": 400, "seeds": [3, 4],
    },
    "fixed": {"generator": {}, "grid": _GRID, "policy": {"type": "fixed", "tau": 0.8},
              "num_rounds": 400, "seeds": [5]},
    "random": {"generator": {}, "grid": _GRID, "policy": "random",
               "num_rounds": 400, "seeds": [6]},
    "final": {"generator": {}, "grid": _GRID, "policy": "final",
              "num_rounds": 400, "seeds": [7]},
    "unpenalized_confidence": {
        "generator": {"num_layers": 6}, "grid": _GRID, "variant": "product",
        "criterion": "confidence", "num_rounds": 400, "seeds": [8, 9],
    },
}

RELIABILITY_CONFIG = {"generator": {}, "num_rounds": 300, "seeds": [11],
                      "reliability": {"epochs": 20}}

# the default 500 epochs on a depth other than 12, so every epoch of a full
# training run and a second row layout are pinned
RELIABILITY_5_LAYER_CONFIG = {"generator": {"num_layers": 5}, "num_rounds": 300,
                              "seeds": [12]}

# one sweep CSV per axis, two values each, over the "ucb" reference config
SWEEPS = {"lambda": [0.0, 0.05], "variant": ["product", "product_penalized"]}

GOLDEN_STREAMS = {
    "default": "f6388bb56d4d1e31ab05f45cdd99061f27b7372d142bc37f52072e586414b46d",
    "shift": "6dd807e4fc2d421817f46583905a870e2bae4d80508566281b45b2c2c80998d5",
}

# edge streams of 1100+ rounds, so each spans more than two blocks of
# rounds: (segments as (start_round, generator overrides), num_rounds, seed)
EDGE_STREAMS = {
    # sigma = 0 multiplies negative normals into -0.0 noise
    "zero_noise": (((1, {"confidence_noise": 0.0}),), 1100, 0),
    # |difficulty| past ~745 underflows correct_prob to 0.0, so a wrong layer
    # stores -0.0 * 1 + (-0.0 noise) = -0.0 confidence
    "zero_noise_extreme_difficulty": (
        ((1, {"confidence_noise": 0.0, "difficulty_spread": 1000.0}),), 1100, 7),
    "exact_reliability": (((1, {"reliability_signal": 1.0}),), 1100, 1),
    "always_corrupt_3_layers": (
        ((1, {"num_layers": 3, "overconfidence_rate": 1.0}),), 1100, 2),
    # two layers have no corruptible layer, even at rate 1.0
    "two_layers": (((1, {"num_layers": 2, "overconfidence_rate": 1.0}),), 1100, 3),
    "flat_difficulty": (((1, {"difficulty_spread": 0.0}),), 1100, 4),
    "params_seed": (((1, {"seed": 2**32 + 7}),), 1100, 5),
    # shifts inside the first block (300) and on the second segment's block
    # edge (300 + 512)
    "shift_in_and_on_block": (
        ((1, {}),
         (300, {"confidence_noise": 0.4, "overconfidence_rate": 0.3}),
         (812, {"depth_gain": 4.0, "reliability_signal": 0.5, "seed": 9})),
        1300, 6),
}

GOLDEN_EDGE_STREAMS = {
    "always_corrupt_3_layers":
        "b6ae27ba1ef6c5232c53d9666fc25e2fecf7100bd39b7c22634ddb684f84960f",
    "exact_reliability":
        "9ebaa48e92768d27dbb8aa239fe9714d43522e4c63f7b26069e47310a1e17c3c",
    "flat_difficulty":
        "7b7aa15f51c01573c642923db6b69440b0473d4a14cf5a0f38f7706ce18d7ed5",
    "params_seed":
        "40dfda52e6dbe6e78c0610a52858410a259a2afabdabcb3a3f2dd0041f1905d2",
    "shift_in_and_on_block":
        "e702b09de2eb5c0fd7992c5a573e1b897d17eaa9b7c3e8432f72e59b91bcc38f",
    "two_layers":
        "48f0ff3fdccb9154d9b251a7a81f97d9a38f11fe9f539a143284bd6d89a5aa5b",
    "zero_noise":
        "2f4fa2f68a7392f867d4a1eab7aa654708366ef7b05bf23ecd8f80db4c52ceee",
    "zero_noise_extreme_difficulty":
        "7c1adc3695c99d0b60ecbabcae3174677b9ceacbf1fc8c89d3217ada0ea94e18",
}

GOLDEN_SWEEPS = {
    "lambda": "cde438da445c89973174a641bad046e34cce83022b2c026f783f33b628a1636e",
    "variant": "d1ca87175c14b082076cfca3f3bd404ec22c891fbbf04d1c0eb772b1a97089d9",
}

GOLDEN = {
    "final": {
        "aggregate_final.json":
            "aa484fc9b6674a924fce1a9daba4b11162b2aa47c80ad03a0d91227ba6e38205",
        "regret_final.csv":
            "809e3c75721bea24c169fafbde0dbf356c10b202d7450ff58183ca6267d3983d",
        "summary_final_7.json":
            "cf72efb0528f272462fec982914b157551cdcbc58d20f1318a3a2271f91edcf4",
        "trace_final_7.csv":
            "a8561ce787ab94b639e1fd22b8b0f862ff0e81758b5b63dc463401df147192a4",
    },
    "fixed": {
        "aggregate_fixed0.8.json":
            "8643c304b52e296a83101590696c2ab48a0b4004f1ccf1723956b97157f9ceeb",
        "regret_fixed0.8.csv":
            "2043cea37c837df8c20433d27cd021e6d295bf4233ebf6b2cf8af3ac69470553",
        "summary_fixed0.8_5.json":
            "c672723e1858e0290519ee7b64634f26bf83ee979f19b0ecf31cf535f51d13f8",
        "trace_fixed0.8_5.csv":
            "b34188a8f3d7a718f1920c16843583f723ef1c127f0411448353f2b15762d173",
    },
    "random": {
        "aggregate_random.json":
            "e958c8e64fa987af4dc992fbe0127dfdea4c0f2d64f75617e94fea269dd4f48a",
        "regret_random.csv":
            "c6afc736abc4473fb0a8b442a53b5f45bbba3d93f75b7988b5caecd0c0c1ce71",
        "summary_random_6.json":
            "2403f1c3e49d3bb34a6e82ebaca15dc34e68e6571744df97c12600b3af7105a9",
        "trace_random_6.csv":
            "f34e36aa7e67f5e0e1f25fed5a1c0213b9dfc18f6f585d730edeb5488b43b8d9",
    },
    "reliability": {
        "reliability_11.json":
            "5f90807b1cfccdb6d3fabd257f4fb96f6eddfd2d73ceeb8481d1731dd520615b",
        "reliability_metrics_11.json":
            "5a1a12791a7e727e0dae1061c6eea666db406329f3e98462cdc031d12072ea9c",
    },
    "reliability_5_layers": {
        "reliability_12.json":
            "5c42f82df8e24486e86925f29e45c8bee08872db8f2fe3f1f8c656c4444fb390",
        "reliability_metrics_12.json":
            "ecf99d4dba0660e35cb70f89efe1e58d9c91b3da7637f02a5c7750261a75d7fa",
    },
    "shift": {
        "aggregate_ucb.json":
            "fc69ec3e0f7b324f645eb8a48d84393e2edb68b8cc3ca79b7bb41e45a27bc2ce",
        "regret_ucb.csv":
            "fbfe52315d1a8bd1a3d74e2922dc1c01440e29fc61c61e1ce63b30de0863ca0d",
        "summary_ucb_3.json":
            "d1e0870530936c05a67fa737824156526894353007562ecc03ce2866c51f8dbc",
        "summary_ucb_4.json":
            "339a6e140db705d5ed407560ea675610e1d010c5a2e790ce421d6be4ce079aa4",
        "trace_ucb_3.csv":
            "072df0bcf2a3c92264a03733d983e4cdd55ac98fa604a228b08f99a86e4dd876",
        "trace_ucb_4.csv":
            "c35c318cae3219a82fcf2aefb9b8c5eb27b88e099e1faa5e9e8965e69889d8d1",
    },
    "ucb": {
        "aggregate_ucb.json":
            "a97ba5f2e1405d144d22d535db963a907d0e1dd189a44c124d5b7bdeb320fdc3",
        "regret_ucb.csv":
            "c9aee6296de2944c6b53d00ce057be715b577e2fbe8838fa0fc17609cc7e10ca",
        "summary_ucb_0.json":
            "8a51f8187c4a5309e2cff0864e1101e75c6e35daf22d7d8a16e7ee252406770e",
        "summary_ucb_1.json":
            "80e3628cf4feabc623f19e7db6f2d89c717684a969b293a2b5de676ae8493d15",
        "trace_ucb_0.csv":
            "a0cbc41c13c046549b6077c5eeeb8bfa1bd02c22e2fa0ee41cc020129d834df6",
        "trace_ucb_1.csv":
            "a3cf12425be06144ad40817beb1843ec552256bddb37a8d0f2a12592e98b2805",
    },
    "unpenalized_confidence": {
        "aggregate_ucb.json":
            "23eac90f1986931c177b654d3ca7018e2ee73faebf78502970b6e1d09b6b0411",
        "regret_ucb.csv":
            "b96137711c0cbd7280cb92dd399bc1a6c3340b4c4fc6c328dc3f139faad0b26a",
        "summary_ucb_8.json":
            "325c11f63020a725758319eb6d0414e80d5feeccc6ddc8d0c798d358b507d301",
        "summary_ucb_9.json":
            "6cc8ec5a2adcd4c7ed21cf49015b4d1b64ae3f3a4a380476d3058550caaf2125",
        "trace_ucb_8.csv":
            "1648c59f03b1c2e2c49190d21dc1c3563dc8bbb00130fbe6959c6a3bc8ae1d06",
        "trace_ucb_9.csv":
            "5798abfffadf9949f20cdcd8a507d8b16d198dd6b317cf6a2be4e90dc00247b9",
    },
}


def stream_samples(name: str) -> list:
    """400 rounds of the default generator (seed 0) or of the shift schedule (seed 3)."""
    if name == "default":
        return stream(ShiftSchedule.constant(GeneratorParams()), 400, seed=0)
    return stream(parse_config(CONFIGS["shift"]).schedule, 400, seed=3)


def edge_stream_samples(name: str) -> list:
    segments, num_rounds, seed = EDGE_STREAMS[name]
    schedule = ShiftSchedule(tuple((start, GeneratorParams(**overrides))
                                   for start, overrides in segments))
    return stream(schedule, num_rounds, seed=seed)


def _layers(sample):
    """(confidence, risk, correct_prob, realized, features) per layer, in order;
    the features are the scorer's (confidence, layer/L, feat)."""
    L = sample.num_layers
    features = ((c, i / L, f) for i, (c, f) in
                enumerate(zip(sample.confidence, sample.feat), start=1))
    return zip(sample.confidence, sample.reliability_risk, sample.correct_prob,
               sample.realized_correct, features)


def stream_digest(samples) -> str:
    """SHA-256 over every field of every layer, sample by sample, layer by layer."""
    h = hashlib.sha256()
    for sample in samples:
        for conf, risk, cp, realized, features in _layers(sample):
            h.update(struct.pack("<3d?", conf, risk, cp, realized))
            h.update(struct.pack(f"<{len(features)}d", *features))
    return h.hexdigest()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def experiment_digests(name: str, out: Path) -> dict:
    """Run one reference config into out and hash every file it leaves."""
    written = run_experiment(parse_config(CONFIGS[name]), out)
    analyze(written["traces"], out)
    return {p.name: _sha256(p) for p in sorted(out.iterdir())}


def reliability_digests(out: Path, document: dict = RELIABILITY_CONFIG) -> dict:
    config = parse_config(document)
    result = train_reliability(config, config.seeds[0], out)
    return {p.name: _sha256(p) for p in (result["model"], result["metrics_file"])}


def sweep_digest(axis: str, out: Path) -> str:
    return _sha256(sweep(parse_config(CONFIGS["ucb"]), axis, SWEEPS[axis],
                         out / f"sweep_{axis}.csv"))


@pytest.mark.parametrize("name", sorted(GOLDEN_STREAMS))
def test_stream_fields_match_golden_digests(name):
    assert stream_digest(stream_samples(name)) == GOLDEN_STREAMS[name]


@pytest.mark.parametrize("name", sorted(EDGE_STREAMS))
def test_edge_stream_fields_match_golden_digests(name):
    assert stream_digest(edge_stream_samples(name)) == GOLDEN_EDGE_STREAMS[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_experiment_outputs_match_golden_digests(name, tmp_path):
    assert experiment_digests(name, tmp_path) == GOLDEN[name]


def test_reliability_outputs_match_golden_digests(tmp_path):
    assert reliability_digests(tmp_path) == GOLDEN["reliability"]


def test_reliability_500_epochs_on_5_layers_match_golden_digests(tmp_path):
    assert (reliability_digests(tmp_path, RELIABILITY_5_LAYER_CONFIG)
            == GOLDEN["reliability_5_layers"])


@pytest.mark.parametrize("axis", sorted(SWEEPS))
def test_sweep_csv_matches_golden_digest(axis, tmp_path):
    assert sweep_digest(axis, tmp_path) == GOLDEN_SWEEPS[axis]


if __name__ == "__main__":
    import pprint
    import tempfile

    current = {"streams": {n: stream_digest(stream_samples(n)) for n in sorted(GOLDEN_STREAMS)},
               "edge_streams": {n: stream_digest(edge_stream_samples(n))
                                for n in sorted(EDGE_STREAMS)}}
    for name in sorted(CONFIGS):
        with tempfile.TemporaryDirectory() as tmp:
            current[name] = experiment_digests(name, Path(tmp))
    with tempfile.TemporaryDirectory() as tmp:
        current["reliability"] = reliability_digests(Path(tmp))
    with tempfile.TemporaryDirectory() as tmp:
        current["reliability_5_layers"] = reliability_digests(
            Path(tmp), RELIABILITY_5_LAYER_CONFIG)
    with tempfile.TemporaryDirectory() as tmp:
        current["sweeps"] = {axis: sweep_digest(axis, Path(tmp)) for axis in sorted(SWEEPS)}
    pprint.pprint(current, stream=sys.stdout, width=100)
