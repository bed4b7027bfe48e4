"""Golden values: the report numbers of test_10's small CLI workflow.

The constants were recorded from the workflow's reports and are compared
exactly, at the reports' six decimals. A change that moves any of them (a
new optimizer, a new simulator kernel, different RNG use) fails here, so the
new numbers must be written down in this file and in CHANGES.md.
"""

import json

import pytest

from rsvptyping.cli import main

GOLDEN = {
    "logreg": {
        "splits": [
            {"split": 0, "balanced_accuracy": 0.644444, "typing_accuracy": 0.2,
             "itr_bits_per_symbol": 0.281517,
             "outcomes": {"correct": 8, "wrong": 29, "timeout": 3},
             "rounds_to_decision": [6, 6, 2, 7, 6, 6, 1, 1, 2, 0]},
            {"split": 1, "balanced_accuracy": 0.622222, "typing_accuracy": 0.325,
             "itr_bits_per_symbol": 0.68807,
             "outcomes": {"correct": 13, "wrong": 26, "timeout": 1},
             "rounds_to_decision": [11, 6, 4, 10, 4, 2, 1, 0, 1, 0]},
        ],
        "aggregate": {
            "balanced_accuracy": {"mean": 0.633333, "std": 0.011111},
            "itr_bits_per_symbol": {"mean": 0.484793, "std": 0.203276},
        },
    },
    "gen-lda": {
        "splits": [
            {"split": 0, "balanced_accuracy": 0.544444, "typing_accuracy": 0.025,
             "itr_bits_per_symbol": 0.002679,
             "outcomes": {"correct": 1, "wrong": 1, "timeout": 38},
             "rounds_to_decision": [0, 0, 0, 0, 0, 0, 0, 1, 0, 1]},
            {"split": 1, "balanced_accuracy": 0.588889, "typing_accuracy": 0.225,
             "itr_bits_per_symbol": 0.353124,
             "outcomes": {"correct": 9, "wrong": 12, "timeout": 19},
             "rounds_to_decision": [0, 1, 3, 1, 2, 4, 4, 4, 2, 0]},
        ],
        "aggregate": {
            "balanced_accuracy": {"mean": 0.566667, "std": 0.022222},
            "itr_bits_per_symbol": {"mean": 0.177901, "std": 0.175223},
        },
    },
}


@pytest.mark.filterwarnings("ignore::rsvptyping.sim.SubChanceAccuracyWarning")
@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_workflow_report_matches_golden_values(tmp_path, kind):
    synth_cfg = tmp_path / "synth.cfg"
    synth_cfg.write_text("n_epochs = 300\nchannels = 3\ntarget_fraction = 0.25\nseed = 6\n")
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text("l2 = 0.01\n")
    sim_cfg = tmp_path / "sim.cfg"
    sim_cfg.write_text("attempts = 40\nsplits = 2\nseed = 1\n")
    data, model, report = tmp_path / "data.bin", tmp_path / "model.bin", tmp_path / "report.json"

    assert main(["synth", "--config", str(synth_cfg), "--out", str(data)]) == 0
    assert main(["train", str(data), "--kind", kind, "--config", str(train_cfg),
                 "--out", str(model)]) == 0
    assert main(["simulate", str(model), str(data), "--config", str(sim_cfg),
                 "--out", str(report)]) == 0

    written = json.loads(report.read_text())
    assert written["splits"] == GOLDEN[kind]["splits"]
    assert written["aggregate"] == GOLDEN[kind]["aggregate"]
