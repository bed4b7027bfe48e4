"""Acceptance suite.

One test per shipped guarantee, each printing a single pass/fail line with
the measured numbers (run with -s to watch them stream). These are the
package's headline behaviors; run this file alone for a quick audit:

    python3 -m pytest tests/test_acceptance.py -s
"""

import math
import time
import warnings

import numpy as np
import pytest

from rsvptyping.cli import main as cli_main
from rsvptyping.core import (
    LabelPrior,
    LikelihoodMode,
    apply_round,
    probabilities,
    update_factors,
)
from rsvptyping.dsp import design_bandpass, design_notch, filter_forward
from rsvptyping.models import (
    ConstantEvidenceModel,
    KdeDensity,
    build_generative,
    kde_log_eval_many,
    logistic_loss_and_gradient,
    train_logistic,
    train_logistic_evidence,
)
from rsvptyping.sim import (
    SubChanceAccuracyWarning,
    TypingConfig,
    evaluate_splits,
    itr,
)
from rsvptyping.synth import SynthConfig, generate

from oracles import (
    analytic_butterworth_bandpass_db,
    central_difference_gradient,
    enumerated_posterior,
    measured_gain_db,
)


def check(ok: bool, line: str) -> None:
    print(("[PASS] " if ok else "[FAIL] ") + line)
    assert ok, line


@pytest.fixture(scope="module")
def calibrated_dataset():
    return generate(SynthConfig())


def random_events(rng, a, n_events, mode):
    """Single-mode enumeration-oracle rows (queried index, mode, pos, neg).
    A query's events all come from one evidence model, so modes never mix."""
    rows = []
    for _ in range(n_events):
        q = int(rng.integers(a))
        if mode == "disc":
            pos = float(rng.uniform(0.02, 0.98))
            rows.append((q, "disc", pos, 1.0 - pos))
        else:
            d_pos = float(rng.uniform(0.05, 4.0))
            d_neg = float(rng.uniform(0.05, 4.0))
            rows.append((q, "gen", d_pos, d_neg))
    return rows


def filter_round(a, rows, prior):
    """Probabilities after folding ``rows`` into a uniform posterior over
    ``a`` symbols as one round of the batched filter."""
    queries, modes, pos, neg = zip(*rows)
    mode = LikelihoodMode.DISCRIMINATIVE if modes[0] == "disc" else LikelihoodMode.GENERATIVE
    log_pos, log_neg = update_factors(mode, np.log([pos]), np.log([neg]), prior)
    start = np.full((1, a), -math.log(a))
    return probabilities(apply_round(start, np.array([queries]), log_pos, log_neg))[0]


def test_01_recursive_posterior_matches_enumeration():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        a = int(rng.integers(2, 7))
        p_pos = float(rng.uniform(0.05, 0.6))
        mode = "disc" if rng.random() < 0.5 else "gen"
        rows = random_events(rng, a, int(rng.integers(1, 7)), mode)
        prior = LabelPrior(p_pos) if mode == "disc" else None
        probs = filter_round(a, rows, prior)
        expected = enumerated_posterior(a, rows, p_pos=p_pos)
        worst = max(worst, float(np.max(np.abs(probs - expected))))
    elapsed = time.perf_counter() - start
    check(
        worst <= 1e-9 and elapsed < 5.0,
        f"1. recursive posterior vs brute-force enumeration, 200 instances: "
        f"max abs err {worst:.2e} <= 1e-9, {elapsed:.2f}s < 5s",
    )


def test_02_generative_discriminative_bridge():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(200):
        a = int(rng.integers(2, 9))
        p_pos = float(rng.uniform(0.05, 0.7))
        prior = LabelPrior(p_pos)
        q = int(rng.integers(a))
        d_pos = float(rng.uniform(0.01, 5.0))
        d_neg = float(rng.uniform(0.01, 5.0))
        via_gen = filter_round(a, [(q, "gen", d_pos, d_neg)], None)
        pos = d_pos * p_pos / (d_pos * p_pos + d_neg * (1.0 - p_pos))
        via_disc = filter_round(a, [(q, "disc", pos, 1.0 - pos)], prior)
        worst = max(worst, float(np.max(np.abs(via_gen - via_disc))))
    check(
        worst <= 1e-9,
        f"2. generative update equals converted discriminative update, "
        f"200 random pairs: max abs err {worst:.2e} <= 1e-9",
    )


def test_03_normalization_and_order_invariance():
    rng = np.random.default_rng(4242)
    worst_norm = 0.0
    worst_order = 0.0
    for _ in range(1000):
        a = int(rng.integers(2, 9))
        p_pos = float(rng.uniform(0.05, 0.6))
        mode = "disc" if rng.random() < 0.5 else "gen"
        rows = random_events(rng, a, int(rng.integers(1, 8)), mode)
        prior = LabelPrior(p_pos) if mode == "disc" else None
        fwd = filter_round(a, rows, prior)
        perm = [rows[i] for i in rng.permutation(len(rows))]
        shuf = filter_round(a, perm, prior)
        worst_norm = max(worst_norm, abs(float(fwd.sum()) - 1.0))
        worst_order = max(worst_order, float(np.max(np.abs(fwd - shuf))))
    check(
        worst_norm <= 1e-12 and worst_order <= 1e-12,
        f"3. normalization and order invariance, 1000 sequences: "
        f"norm err {worst_norm:.2e}, order err {worst_order:.2e}, both <= 1e-12",
    )


def test_04_itr_spot_checks():
    perfect = itr(28, 1.0)
    chance_errs = [abs(itr(a, 1.0 / a)) for a in (2, 10, 28, 100)]
    monotone = True
    for a in (2, 28):
        grid = np.linspace(1.0 / a, 1.0, 400)
        values = [itr(a, p) for p in grid]
        monotone = monotone and bool(np.all(np.diff(values) > 0.0))
    check(
        abs(perfect - 4.807355) <= 1e-6 and max(chance_errs) <= 1e-9 and monotone,
        f"4. itr(28,1)={perfect:.6f} (err {abs(perfect - 4.807355):.1e} <= 1e-6); "
        f"itr(A,1/A) max |err| {max(chance_errs):.1e} <= 1e-9; "
        f"strictly increasing on [1/A, 1]",
    )


def test_05_dsp_filter_responses():
    rate = 250.0
    n_fft = 16000  # 1/64 Hz bins, so 1 Hz and 20 Hz land exactly on bins
    notch = design_notch(rate, 50.0, 30.0)
    at_50 = measured_gain_db(lambda x: filter_forward(notch, x), rate, 50.0, n=n_fft)
    at_5 = measured_gain_db(lambda x: filter_forward(notch, x), rate, 5.0, n=n_fft)
    band = design_bandpass(rate, 1.0, 20.0, order=2)
    edge_errs = []
    for edge in (1.0, 20.0):
        measured = measured_gain_db(lambda x: filter_forward(band, x), rate, edge, n=n_fft)
        analytic = analytic_butterworth_bandpass_db(rate, 1.0, 20.0, 2, edge)
        edge_errs.append(abs(measured - analytic))
    check(
        at_50 <= -20.0 and at_5 >= -1.0 and max(edge_errs) <= 0.5,
        f"5. notch at 50 Hz {at_50:.1f} dB <= -20 dB, at 5 Hz {at_5:.2f} dB >= -1 dB; "
        f"bandpass edge error vs analytic {max(edge_errs):.3f} dB <= 0.5 dB",
    )


def test_06_kde_analytic_values():
    peak = math.exp(kde_log_eval_many(KdeDensity(scores=np.array([0.0]), bandwidth=1.0),
                                      np.array([0.0]))[0])
    midpoint = math.exp(kde_log_eval_many(KdeDensity(scores=np.array([0.0, 2.0]), bandwidth=1.0),
                                          np.array([1.0]))[0])
    check(
        abs(peak - 0.398942) <= 1e-6 and abs(midpoint - 0.241971) <= 1e-6,
        f"6. kde peak {peak:.6f} (target 0.398942 +- 1e-6), "
        f"two-score midpoint {midpoint:.6f} (target 0.241971 +- 1e-6)",
    )


def test_07_classifier_gradient_and_separable_accuracy():
    rng = np.random.default_rng(5)
    features = rng.standard_normal((40, 7))
    labels = (rng.random(40) < 0.3).astype(int)
    weights = rng.standard_normal(7) * 0.5
    bias = 0.3
    packed = np.concatenate([weights, [bias]])
    # the plain loss and the ridge-penalized loss the fit minimizes
    rels = []
    for l2 in (0.0, 0.3):
        _, grad_w, grad_b = logistic_loss_and_gradient(
            weights, bias, features, labels, l2=l2
        )

        def loss_of(params, l2=l2):
            value, _, _ = logistic_loss_and_gradient(
                params[:-1], params[-1], features, labels, l2=l2
            )
            return value

        numeric = central_difference_gradient(loss_of, packed)
        analytic = np.concatenate([grad_w, [grad_b]])
        rels.append(
            float(np.max(np.abs(analytic - numeric)) / max(np.max(np.abs(numeric)), 1e-12))
        )
    rel = max(rels)

    x = np.concatenate([rng.normal(-3.0, 0.3, size=(30, 2)), rng.normal(3.0, 0.3, size=(30, 2))])
    y = np.concatenate([np.zeros(30, dtype=int), np.ones(30, dtype=int)])
    model = train_logistic(x, y)
    scores = x @ model.weights + model.bias
    predictions = (scores >= 0.0).astype(int)
    balanced = 0.5 * (
        predictions[y == 1].mean() + (1.0 - predictions[y == 0]).mean()
    )
    check(
        rel <= 1e-5 and balanced == 1.0,
        f"7. gradient vs central differences rel err {rels[0]:.2e} (l2 = 0), "
        f"{rels[1]:.2e} (l2 = 0.3) <= 1e-5; "
        f"separable balanced accuracy {balanced:.3f} == 1.0",
    )


def test_08_end_to_end_ordering(calibrated_dataset):
    config = TypingConfig(
        attempts=1000, max_rounds=10, symbols_per_query=10,
        alphabet_size=28, threshold=0.9, seed=0,
    )
    start = time.perf_counter()
    disc = evaluate_splits(lambda tr: train_logistic_evidence(tr), calibrated_dataset, config)
    gen = evaluate_splits(lambda tr: build_generative(tr), calibrated_dataset, config)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SubChanceAccuracyWarning)
        control = evaluate_splits(
            lambda tr: ConstantEvidenceModel(1.0 / 28.0, kind="uninformative"),
            calibrated_dataset,
            config,
        )
    elapsed = time.perf_counter() - start
    ba_ok = 0.72 <= disc.mean_balanced_accuracy <= 0.80
    order_ok = (
        disc.mean_itr > gen.mean_itr
        and gen.mean_itr > control.mean_itr
        and disc.mean_itr > 0.0
        and gen.mean_itr > 0.0
    )
    check(
        ba_ok and order_ok and elapsed < 300.0,
        f"8. end-to-end: disc BA {disc.mean_balanced_accuracy:.3f} in [0.72, 0.80]; "
        f"ITR ordering disc {disc.mean_itr:.3f} > gen {gen.mean_itr:.3f} > "
        f"control {control.mean_itr:.3f}; {elapsed:.0f}s < 300s",
    )


def test_09_fixed_class_controls(calibrated_dataset):
    # a confident constant predictor types a posterior-sampled symbol, so its
    # accuracy sits at chance and the reported metrics round to 0.500 +- 0.000
    # balanced accuracy and 0.000 +- 0.000 bits at three-decimal precision
    config = TypingConfig(
        attempts=20000, max_rounds=10, symbols_per_query=10,
        alphabet_size=28, threshold=0.9, seed=0,
    )
    lines = []
    ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SubChanceAccuracyWarning)
        for name, pos in (("always-pos", 0.9), ("always-neg", 0.1)):
            s = evaluate_splits(
                lambda tr, p=pos, n=name: ConstantEvidenceModel(p, kind=n),
                calibrated_dataset,
                config,
            )
            ok = ok and (
                s.mean_balanced_accuracy == 0.5
                and s.std_balanced_accuracy == 0.0
                and s.mean_itr < 0.0005
                and s.std_itr < 0.0005
            )
            lines.append(
                f"{name} BA {s.mean_balanced_accuracy:.3f}+-{s.std_balanced_accuracy:.3f} "
                f"ITR {s.mean_itr:.6f}+-{s.std_itr:.6f}"
            )
    check(ok, "9. fixed-class controls at chance: " + "; ".join(lines))


def test_10_cli_byte_identical_reruns(tmp_path):
    synth_cfg = tmp_path / "synth.cfg"
    synth_cfg.write_text("n_epochs = 300\nchannels = 3\ntarget_fraction = 0.25\nseed = 6\n")
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text("l2 = 0.01\n")
    sim_cfg = tmp_path / "sim.cfg"
    sim_cfg.write_text("attempts = 40\nsplits = 2\nseed = 1\n")

    data = tmp_path / "data.bin"
    model = tmp_path / "model.bin"
    report = tmp_path / "report.json"
    merged = tmp_path / "merged.csv"

    def run_workflow():
        # identical arguments every time; the rerun overwrites in place
        assert cli_main(["synth", "--config", str(synth_cfg), "--out", str(data)]) == 0
        assert cli_main(
            ["train", str(data), "--config", str(train_cfg), "--out", str(model)]
        ) == 0
        assert cli_main(
            ["simulate", str(model), str(data), "--config", str(sim_cfg), "--out", str(report)]
        ) == 0
        assert cli_main(["report", str(report), "--out", str(merged)]) == 0
        paths = [data, model, report, report.with_suffix(".csv"), merged]
        return [p.read_bytes() for p in paths]

    first = run_workflow()
    second = run_workflow()
    identical = all(x == y for x, y in zip(first, second))
    check(
        identical,
        "10. rerunning synth/train/simulate/report with identical configs and "
        "seeds reproduces all five artifacts byte for byte",
    )
