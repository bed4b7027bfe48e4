import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsvptyping.core import (
    DegenerateEvidenceError,
    LabelPrior,
    LikelihoodMode,
    apply_round,
    probabilities,
    update_factors,
)
from rsvptyping import cli, models
from rsvptyping.dsp import ZScoreStats, zscore_array
from rsvptyping.models import (
    ConstantEvidenceModel,
    GenerativeEvidenceModel,
    KdeDensity,
    LogisticEvidenceModel,
    LogisticModel,
    OracleEvidenceModel,
    build_generative,
    fit_kde,
    fit_pca,
    kde_log_eval_many,
    logistic_loss_and_gradient,
    logistic_scores,
    train_lda,
    train_logistic,
    train_logistic_evidence,
)
from rsvptyping.sim import TypingConfig, classify_epochs, evaluate_splits, log_factors
from rsvptyping.synth import LabeledDataset, SynthConfig, generate

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from oracles import (
    reference_train_logistic,
    central_difference_gradient,
    grid_search_boundary_1d,
    reference_weighted_ce,
    svd_pca,
)


SRC = str(Path(__file__).resolve().parent.parent / "src")


def make_dataset(data, labels):
    return LabeledDataset(data=np.asarray(data, dtype=np.float64), labels=labels)


def proba(model: LogisticModel, features) -> tuple[np.ndarray, np.ndarray]:
    """(pos, neg) of a bare logistic model: p(+|e) and p(-|e) from the
    evidence of a one-channel, unscaled epoch per feature row, a log ratio
    against the calibration prior 1/2."""
    x = np.asarray(features, dtype=np.float64)
    identity = ZScoreStats(mean=np.zeros(1), std=np.ones(1))
    evidence = LogisticEvidenceModel(identity, model)
    llr = evidence.predict_batch(make_dataset(x[:, None, :], np.zeros(len(x), dtype=int)))
    return np.exp(-np.logaddexp(0.0, -llr)), np.exp(-np.logaddexp(0.0, llr))


def kde_eval(density: KdeDensity, x: float) -> float:
    return float(np.exp(kde_log_eval_many(density, np.array([x]))[0]))


def one_query(a, mode, q, pos, neg, label_prior=None):
    """A uniform posterior over ``a`` symbols after one presentation of
    symbol ``q`` with evidence (pos, neg) in the linear domain."""
    with np.errstate(divide="ignore"):
        log_pos, log_neg = update_factors(mode, np.log([[pos]]), np.log([[neg]]), label_prior)
    start = np.full((1, a), -math.log(a))
    return probabilities(apply_round(start, np.array([[q]]), log_pos, log_neg))[0]


def classify_one(llr: float) -> int:
    """The label classify_epochs gives one epoch of log-likelihood ratio
    ``llr``."""
    return int(classify_epochs(np.array([llr]))[0])


class TestLogistic:
    def test_separable_reaches_perfect_training_accuracy(self):
        x = np.array([[-1.0]] * 20 + [[1.0]] * 20)
        y = np.array([0] * 20 + [1] * 20)
        model = train_logistic(x, y)
        preds = (proba(model, x)[0] >= 0.5).tolist()
        assert preds == [False] * 20 + [True] * 20

    def test_label_independent_data_predicts_base_rate(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((400, 3))
        y = np.array([0, 1] * 200)
        model = train_logistic(x, y)
        pos = np.mean(proba(model, x)[0])
        assert abs(pos - 0.5) <= 0.05

    def test_weighted_boundary_matches_grid_oracle(self):
        rng = np.random.default_rng(11)
        neg = rng.normal(-1.0, 0.5, 900)
        pos = rng.normal(1.0, 0.5, 100)
        xs = np.concatenate([neg, pos])
        ys = np.array([0] * 900 + [1] * 100)
        n = len(ys)
        cw = (n / 900, n / 100)
        model = train_logistic(xs[:, None], ys)
        boundary = -model.bias / model.weights[0]
        oracle = grid_search_boundary_1d(
            xs, ys, cw, np.linspace(0.5, 8.0, 76), np.linspace(-2.0, 2.0, 81)
        )
        assert abs(boundary - oracle) <= 0.1
        assert abs(boundary - 0.0) <= 0.1  # midpoint of the two Gaussians

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train_logistic(np.zeros((5, 2)), np.ones(5, dtype=int))

    def test_loss_matches_reference(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((30, 4))
        y = rng.integers(0, 2, 30)
        y[0], y[1] = 0, 1
        w = rng.standard_normal(4)
        b = 0.3
        cw = (1.7, 0.4)
        loss, _, _ = logistic_loss_and_gradient(w, b, x, y, cw)
        assert loss == pytest.approx(reference_weighted_ce(w, b, x, y, cw), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((40, 5))
        y = rng.integers(0, 2, 40)
        y[:2] = [0, 1]
        cw = (1.0, 4.0)
        for l2 in (0.0, 0.0, 0.5, 0.5, 2.0):
            theta = rng.standard_normal(6) * 0.8

            def loss_at(t, l2=l2):
                return logistic_loss_and_gradient(t[:5], t[5], x, y, cw, l2)[0]

            _, gw, gb = logistic_loss_and_gradient(theta[:5], theta[5], x, y, cw, l2)
            analytic = np.concatenate([gw, [gb]])
            numeric = central_difference_gradient(loss_at, theta)
            rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
            assert rel <= 1e-5

    def test_loss_trace_decreases(self):
        x = np.array([[-1.5], [-0.5], [0.5], [1.5]])
        y = np.array([0, 0, 1, 1])
        fit = train_logistic(x, y).fit
        losses = fit.losses
        assert len(losses) >= 2
        assert all(after < before for before, after in zip(losses, losses[1:]))
        assert fit.converged and fit.steps == len(losses) - 1

    def test_penalty_adds_half_l2_squared_norm(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((30, 4))
        y = np.array([0, 1] * 15)
        w = rng.standard_normal(4)
        plain, plain_gw, plain_gb = logistic_loss_and_gradient(w, 0.2, x, y)
        loss, gw, gb = logistic_loss_and_gradient(w, 0.2, x, y, l2=0.3)
        assert loss == pytest.approx(plain + 0.15 * float(w @ w), rel=1e-12)
        np.testing.assert_allclose(gw, plain_gw + 0.3 * w, rtol=1e-12)
        assert gb == plain_gb  # the bias is not penalized

    def test_newton_matches_long_gradient_descent(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((200, 3))
        y = (x @ np.array([1.0, -0.5, 0.25]) + 0.3 * rng.standard_normal(200) > 0).astype(int)
        l2, tolerance = 0.1, 1e-8
        model = train_logistic(x, y, l2=l2, tolerance=tolerance)
        _, gw, gb = logistic_loss_and_gradient(model.weights, model.bias, x, y, l2=l2)
        assert math.hypot(np.linalg.norm(gw), gb) <= tolerance
        assert model.fit.converged and model.fit.steps <= 10
        # plain gradient descent from zero, at a step under 1 / curvature
        w, b = np.zeros(3), 0.0
        for _ in range(20000):
            _, gw, gb = logistic_loss_and_gradient(w, b, x, y, l2=l2)
            w, b = w - 0.5 * gw, b - 0.5 * gb
        np.testing.assert_allclose(model.weights, w, atol=1e-6)
        assert model.bias == pytest.approx(b, abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(8, 80),
        d=st.integers(1, 6),
        l2=st.floats(1e-3, 1.0),
        weighted=st.booleans(),
    )
    def test_fit_is_stationary(self, seed, n, d, l2, weighted):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d)) * rng.uniform(0.1, 3.0, size=d)
        y = rng.integers(0, 2, n)
        y[:2] = [0, 1]
        cw = (1.0, 1.0) if weighted else None
        model = train_logistic(x, y, cw, l2=l2)
        _, gw, gb = logistic_loss_and_gradient(model.weights, model.bias, x, y, cw, l2)
        assert model.fit.converged
        assert math.hypot(np.linalg.norm(gw), gb) == model.fit.gradient_norm <= 1e-6

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 24),
        extra_rows=st.integers(0, 160),
        l2=st.floats(1e-2, 1.0),
        weighted=st.booleans(),
    )
    def test_float32_hessian_matches_float64_fit(self, seed, d, extra_rows, l2, weighted):
        # z-scored columns, ten or more rows per column and labels that are
        # not separable, as the evidence models fit them at the default l2
        rng = np.random.default_rng(seed)
        n = max(40, 10 * d) + extra_rows
        x = rng.standard_normal((n, d)) * rng.uniform(0.1, 3.0, size=d)
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        direction = rng.standard_normal(d)
        score = x @ direction / np.linalg.norm(direction)
        y = (score + rng.standard_normal(n) > 0.5).astype(int)
        y[:2] = [0, 1]
        cw = (1.0, 1.0) if weighted else None
        reference: list = []
        model = train_logistic(x, y, cw, l2=l2)
        expected = reference_train_logistic(x, y, cw, l2=l2, fits=reference)
        assert model.fit.steps == reference[0].steps
        assert model.fit.float64_steps == 0
        scale = math.hypot(np.linalg.norm(expected.weights), expected.bias)
        assert np.linalg.norm(model.weights - expected.weights) <= 1e-9 * scale
        assert abs(model.bias - expected.bias) <= 1e-9 * scale

    def test_badly_scaled_collinear_design_forms_float64_hessians(self):
        # 50 columns within 1e-3 of the first, scaled from 1e-3 to 1e3: the
        # float32 Hessian's rounding swamps its small eigenvalues, and the
        # fit without the residual check takes 13 steps where float64 takes 5
        rng = np.random.default_rng(0)
        base = rng.standard_normal(2000)
        x = (base[:, None] + 1e-3 * rng.standard_normal((2000, 50))) * np.logspace(-3, 3, 50)
        y = (base + rng.standard_normal(2000) > 0).astype(int)
        reference: list = []
        fit = train_logistic(x, y, l2=1e-6).fit
        reference_train_logistic(x, y, l2=1e-6, fits=reference)
        assert reference[0].converged
        assert fit.converged and fit.steps == reference[0].steps
        assert fit.float64_steps >= 1

    def test_features_beyond_float32_range_form_float64_hessians(self):
        # 1e40 overflows float32 to inf; every direction comes from float64
        # rows, as in the reference fit, and no overflow warning escapes
        rng = np.random.default_rng(3)
        x = rng.standard_normal((200, 3))
        y = (x[:, 0] + rng.standard_normal(200) > 0).astype(int)
        x[:, 1] *= 1e40
        reference: list = []
        model = train_logistic(x, y)
        expected = reference_train_logistic(x, y, fits=reference)
        assert model.fit.steps == reference[0].steps >= 1
        assert model.fit.float64_steps == model.fit.steps
        np.testing.assert_array_equal(model.weights, expected.weights)
        assert model.bias == expected.bias

    def test_fit_memory_is_one_float32_copy_and_buffer(self):
        # the README holdout's shape; a float64 Hessian per step made an
        # (n, d) float64 temporary as large as the input
        rng = np.random.default_rng(12)
        x = rng.standard_normal((5400, 372))
        y = (x[:, :8].sum(axis=1) + 2.0 * rng.standard_normal(5400) > 4.0).astype(int)
        tracemalloc.start()
        try:
            fit = train_logistic(x, y).fit
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fit.converged and fit.float64_steps == 0
        assert peak <= 1.15 * x.nbytes

    @pytest.mark.parametrize("setting", [
        {"l2": -0.1}, {"l2": math.nan}, {"tolerance": 0.0}, {"tolerance": math.inf},
    ])
    def test_bad_fit_settings_rejected(self, setting):
        x = np.array([[-1.0], [1.0]])
        with pytest.raises(ValueError, match=next(iter(setting))):
            train_logistic(x, np.array([0, 1]), **setting)


def linear_parameters(model: LogisticModel) -> tuple:
    return model.weights, model.bias


# Each case maps (features, labels, weights) to the arrays it computes.
LAYOUT_CASES = {
    "train_logistic": lambda x, y, w: linear_parameters(train_logistic(x, y)),
    "train_logistic_equal_weights": lambda x, y, w: linear_parameters(
        train_logistic(x, y, (1.0, 1.0))),
    "logistic_loss_and_gradient": lambda x, y, w: logistic_loss_and_gradient(
        w, 0.1, x, y, l2=0.01),
    "logistic_scores": lambda x, y, w: (logistic_scores(LogisticModel(w, 0.1), x),),
    "train_lda": lambda x, y, w: linear_parameters(train_lda(x, y)),
}


@pytest.mark.parametrize("case", list(LAYOUT_CASES))
def test_results_do_not_depend_on_memory_layout(case):
    # BLAS sums a product of F-ordered rows in another order; the fits take
    # C-ordered rows, so their bits depend only on the values
    rng = np.random.default_rng(5)
    x = rng.standard_normal((300, 40))
    y = (x[:, 0] + rng.standard_normal(300) > 0.8).astype(int)
    w = rng.standard_normal(40)
    fortran = np.asfortranarray(x)
    assert not fortran.flags.c_contiguous

    def bits(features):
        parts = LAYOUT_CASES[case](features, y, w)
        return np.concatenate([np.ravel(np.asarray(part, dtype=np.float64)) for part in parts])

    assert bits(fortran).tobytes() == bits(x).tobytes()


class TestPredictProba:
    def test_zero_model_is_even_odds(self):
        model = LogisticModel(weights=np.zeros(3), bias=0.0)
        pos, neg = proba(model, [[1.0, 2.0, 3.0]])
        assert pos[0] == 0.5 and neg[0] == 0.5
        identity = ZScoreStats(mean=np.zeros(1), std=np.ones(1))
        epoch = make_dataset(np.ones((1, 1, 3)), [0])
        assert LogisticEvidenceModel(identity, model).predict_batch(epoch).tolist() == [0.0]

    def test_large_bias_saturates(self):
        model = LogisticModel(weights=np.zeros(1), bias=50.0)
        assert proba(model, [[0.0]])[0][0] > 0.999999

    def test_log_three_gives_three_quarters(self):
        model = LogisticModel(weights=np.array([1.0]), bias=0.0)
        pos, _ = proba(model, [[math.log(3.0)]])
        assert pos[0] == pytest.approx(0.75, abs=1e-12)

    def test_dimension_mismatch(self):
        model = LogisticModel(weights=np.zeros(3), bias=0.0)
        with pytest.raises(ValueError):
            proba(model, np.zeros((1, 4)))


class TestLda:
    def test_zero_score_at_midpoint_of_symmetric_classes(self):
        x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        model = train_lda(x, y)
        assert abs(logistic_scores(model, np.array([[0.0]]))[0]) < 1e-10

    def test_identical_means_give_constant_score(self):
        x = np.array([[-1.0], [1.0], [-1.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        model = train_lda(x, y)
        scores = logistic_scores(model, np.linspace(-3, 3, 7)[:, None])
        np.testing.assert_allclose(scores, scores[0], atol=1e-12)

    def test_matches_closed_form_gaussian_log_ratio(self):
        # points placed so the sample means and pooled scatter are exact
        mu_pos = np.array([1.0, 0.5])
        mu_neg = np.array([-1.0, -0.5])
        a = np.array([0.9, 0.0])
        b = np.array([0.0, 0.6])
        cls_pts = lambda mu: [mu + a, mu - a, mu + b, mu - b]
        x = np.array(cls_pts(mu_neg) + cls_pts(mu_pos))
        y = np.array([0] * 4 + [1] * 4)
        model = train_lda(x, y)

        scatter = 2.0 * (2 * np.outer(a, a) + 2 * np.outer(b, b))
        pooled = scatter / (8 - 2)
        ridge = 1e-3 * np.mean(np.diag(pooled))
        precision = np.linalg.inv(pooled + ridge * np.eye(2))
        rng = np.random.default_rng(5)
        for _ in range(10):
            pt = rng.standard_normal(2) * 2
            dp, dn = pt - mu_pos, pt - mu_neg
            expected = 0.5 * (dn @ precision @ dn - dp @ precision @ dp)
            assert logistic_scores(model, pt[None, :])[0] == pytest.approx(expected, abs=1e-6)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train_lda(np.zeros((4, 2)), np.zeros(4, dtype=int))

    def test_bias_carries_the_log_prior_ratio(self):
        # one positive to three negatives, with the class means at 1 and 3:
        # the score at the midpoint 2 is the log prior ratio alone
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 0, 1])
        model = train_lda(x, y)
        assert isinstance(model, LogisticModel)
        assert logistic_scores(model, np.array([[2.0]]))[0] == pytest.approx(
            math.log(1 / 3), abs=1e-12
        )
        with pytest.raises(ValueError):
            dataclasses.replace(model, bias=math.nan)


class TestPca:
    def test_single_axis_data_keeps_one_component(self):
        t = np.linspace(-1, 1, 30)
        x = np.outer(t, np.array([1.0, 2.0, -1.0]))
        proj, _ = fit_pca(x, 0.8)
        assert proj.components.shape[1] == 1
        assert proj.variance_fraction >= 0.999999

    def test_isotropic_gaussian_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((500, 10))
        proj, _ = fit_pca(x.copy(), 0.8)
        # oracle: eigenvalues of the sample covariance
        cov = np.cov(x, rowvar=False)
        eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
        cum = np.cumsum(eigvals) / eigvals.sum()
        r_oracle = int(np.searchsorted(cum, 0.8 - 1e-12) + 1)
        assert proj.components.shape[1] == r_oracle
        assert abs(proj.components.shape[1] - 8) <= 1

    def test_reconstruction_keeps_most_variance(self):
        rng = np.random.default_rng(29)
        x = rng.standard_normal((200, 6)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.3, 0.1])
        proj, reduced = fit_pca(x.copy(), 0.8)
        recon = reduced @ proj.components.T + proj.mean
        lost = np.var(x - recon, axis=0).sum() / np.var(x - x.mean(axis=0), axis=0).sum()
        assert lost <= 0.2

    def test_zero_variance_keeps_one_component(self):
        proj, _ = fit_pca(np.ones((5, 4)), 0.8)
        assert proj.components.shape[1] == 1

    def test_projection_is_contraction(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((100, 8))
        proj, _ = fit_pca(x, 0.8)

        def project(w):
            return (w - proj.mean) @ proj.components

        for _ in range(20):
            u, v = rng.standard_normal((2, 8))
            dist_in = np.linalg.norm(u - v)
            dist_out = np.linalg.norm(project(u) - project(v))
            assert dist_out <= dist_in + 1e-12

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(41)
        scales = np.linspace(3.0, 0.2, 24)
        x = rng.standard_normal((400, 24)) * scales + rng.standard_normal(24)
        proj, reduced = fit_pca(x.copy(), 0.8)
        explained, axes = svd_pca(x)
        r = proj.components.shape[1]
        assert r == int(np.searchsorted(np.cumsum(explained) / explained.sum(), 0.8) + 1)
        kept = np.var(reduced, axis=0, ddof=1)
        np.testing.assert_allclose(kept, explained[:r], rtol=1e-12, atol=0)
        assert proj.variance_fraction == pytest.approx(explained[:r].sum() / explained.sum(),
                                                       rel=1e-12)
        np.testing.assert_allclose(proj.components, axes[:, :r], rtol=0, atol=1e-10)

    def test_determinism(self):
        rng = np.random.default_rng(40)
        x = rng.standard_normal((60, 5))
        (p1, _), (p2, _) = fit_pca(x.copy()), fit_pca(x.copy())
        np.testing.assert_array_equal(p1.components, p2.components)

    def test_components_are_orthonormal(self):
        # the inputs of the tests above
        t = np.linspace(-1, 1, 30)
        inputs = [
            np.outer(t, np.array([1.0, 2.0, -1.0])),
            np.random.default_rng(13).standard_normal((500, 10)),
            np.random.default_rng(29).standard_normal((200, 6))
            @ np.diag([3.0, 2.0, 1.0, 0.5, 0.3, 0.1]),
            np.ones((5, 4)),
            np.random.default_rng(31).standard_normal((100, 8)),
            np.random.default_rng(41).standard_normal((400, 24)) * np.linspace(3.0, 0.2, 24),
            np.random.default_rng(40).standard_normal((60, 5)),
            np.random.default_rng(43).standard_normal((80, 7)) + 3.0,
        ]
        for x in inputs:
            for fraction in (0.8, 1.0):
                components = fit_pca(x.copy(), fraction)[0].components
                gram = components.T @ components
                np.testing.assert_allclose(gram, np.eye(gram.shape[0]), rtol=0, atol=1e-8)

    def test_full_variance_fraction_is_at_most_one(self):
        # the running sum of explained variance can round past the total
        for seed in range(20):
            x = np.random.default_rng(seed).standard_normal((50, 12))
            assert fit_pca(x, 1.0)[0].variance_fraction <= 1.0

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_pca(np.zeros((1, 3)))

    def test_training_projection_matches_a_projection_of_the_input(self):
        rng = np.random.default_rng(43)
        x = rng.standard_normal((80, 7)) + 3.0
        features = x.copy()
        proj, reduced = fit_pca(features, 0.9)
        # a float64 input is centered in place
        assert np.array_equal(features, x - proj.mean)
        assert reduced.flags.c_contiguous
        assert np.array_equal(reduced, (x - proj.mean) @ proj.components)
        # any other dtype is centered in a copy
        single = x.astype(np.float32)
        fit_pca(single, 0.9)
        assert np.array_equal(single, x.astype(np.float32))

    def test_non_orthonormal_axes_raise_linalg_error(self, monkeypatch):
        eigh = np.linalg.eigh

        def skewed(matrix):
            values, vectors = eigh(matrix)
            return values, 2.0 * vectors

        monkeypatch.setattr(models.np.linalg, "eigh", skewed)
        x = np.random.default_rng(44).standard_normal((40, 5))
        with pytest.raises(np.linalg.LinAlgError, match="eigh returned non-orthonormal axes"):
            fit_pca(x, 0.9)

    @pytest.mark.skipif(resource is None, reason="needs the resource module")
    def test_training_projection_makes_no_blas_copy_of_the_rows(self):
        # A threaded gemm that packs the tall operand holds a copy of all
        # n x d rows. The high-water mark before the call already covers the
        # rows and one more matrix; the fit may add only its small results.
        # Low-rank data keeps ~20 components, so the results stay small.
        script = """
import resource
import numpy as np
from rsvptyping.models import fit_pca

rng = np.random.default_rng(0)
basis = rng.standard_normal((20, 372))
x = np.empty((10000, 372))
for start in range(0, 10000, 500):
    x[start:start + 500] = rng.standard_normal((500, 20)) @ basis
    x[start:start + 500] += 0.05 * rng.standard_normal((500, 372))
fit_pca(x[:500].copy())  # BLAS and LAPACK set up their buffers
spare = np.ones_like(x)
del spare
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
proj, reduced = fit_pca(x)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(proj.components.shape[1], (after - before) * 1024 / x.nbytes)
"""
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
               "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        components, growth = int(out[0]), float(out[1])
        assert components <= 25
        assert growth < 0.5


class TestKde:
    def test_kernel_peak_value(self):
        density = KdeDensity(np.array([2.5]), 1.0)
        assert kde_eval(density, 2.5) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-9)
        assert kde_eval(density, 2.5) == pytest.approx(0.398942, abs=1e-6)

    def test_two_score_midpoint(self):
        density = KdeDensity(np.array([-1.0, 1.0]), 1.0)
        expected = math.exp(-0.5) / math.sqrt(2 * math.pi)
        assert kde_eval(density, 0.0) == pytest.approx(expected, abs=1e-12)
        assert kde_eval(density, 0.0) == pytest.approx(0.241971, abs=1e-6)

    def test_far_tail_is_floored_but_usable(self):
        density = KdeDensity(np.array([0.0]), 1.0)
        value = kde_eval(density, 60.0)
        assert value >= 0.0
        assert kde_log_eval_many(density, np.array([60.0]))[0] >= -745.0
        # the floored density still forms a valid generative pair
        after = one_query(4, LikelihoodMode.GENERATIVE, 0, value, value)
        np.testing.assert_allclose(after, np.full(4, 0.25), rtol=0, atol=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_underflowing_kernels_score_the_floor(self):
        # at this bandwidth every kernel underflows except at an exact match
        density = KdeDensity(np.array([0.0, 1.0]), 1e-300)
        logs = kde_log_eval_many(density, np.array([0.5, 3.0, -2.0, 1.0]))
        assert not np.isnan(logs).any()
        np.testing.assert_array_equal(logs[:3], np.full(3, models.LOG_DENSITY_FLOOR))
        assert logs[3] == pytest.approx(math.log(0.5) - math.log(1e-300) - 0.5 * math.log(2 * math.pi))

    def test_translation_symmetry(self):
        rng = np.random.default_rng(8)
        scores = rng.standard_normal(20)
        shifted = fit_kde(scores + 13.25)
        base = fit_kde(scores)
        for x in (-1.0, 0.3, 2.2):
            assert kde_eval(shifted, x + 13.25) == pytest.approx(
                kde_eval(base, x), rel=1e-12
            )

    def test_integrates_to_one(self):
        density = KdeDensity(np.array([-2.0, 0.5, 3.0]), 1.5)
        grid = np.linspace(-20, 20, 20001)
        vals = np.exp(kde_log_eval_many(density, grid))
        assert np.trapezoid(vals, grid) == pytest.approx(1.0, abs=1e-6)

    def test_no_queries_give_an_empty_float64_array(self):
        out = kde_log_eval_many(fit_kde(np.array([0.0, 1.0])), np.array([]))
        assert out.shape == (0,) and out.dtype == np.float64

    def test_peak_memory_is_one_block(self):
        # a test set's scores against a training set's: the whole
        # (queries, scores) matrix would be 44 MB
        rng = np.random.default_rng(10)
        density = KdeDensity(rng.standard_normal(4629), 0.5)
        queries = rng.standard_normal(1200)
        tracemalloc.start()
        try:
            kde_log_eval_many(density, queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_empty_scores_rejected(self):
        # before the bandwidth rule runs: the percentiles of no scores raise
        # IndexError, and the spread of a non-finite one warns
        for scores in ([], [1.0, math.inf], [math.nan], [[1.0, 2.0]]):
            with pytest.raises(ValueError, match="nonempty finite vector"):
                fit_kde(np.array(scores))
        with pytest.raises(ValueError):
            KdeDensity(scores=np.array([1.0]), bandwidth=0.0)

    # values of R's bw.nrd0, Silverman's rule of thumb, for each of its branches
    @pytest.mark.parametrize("scores, expected", [
        ([1.0, 2.0, 3.0, 4.0, 5.0], 0.9735846228506357),  # the sd
        ([0.0, 0.0, 0.0, 1.0], 0.12725232368091027),  # the IQR / 1.34
        ([3.0, 3.0, 3.0], 2.167402216752623),  # no spread: the first score's size
        ([0.1, 0.1, 0.1], 0.07224674055842077),  # the same, though their mean rounds
        ([0.0, 0.0], 0.7834955069665117),  # nor a nonzero score: 1
        ([2.5], 2.25),  # one score: sd 0
    ])
    def test_bandwidth_is_silvermans_rule(self, scores, expected):
        # RuntimeWarnings are errors here: a single score's sd warns in numpy
        density = fit_kde(np.array(scores))
        assert density.bandwidth == pytest.approx(expected, rel=1e-12, abs=0)
        assert np.array_equal(density.scores, scores)

    def test_bandwidth_scales_with_the_scores(self):
        scores = np.random.default_rng(9).standard_normal(500)
        assert fit_kde(scores * 1e3).bandwidth == pytest.approx(
            1e3 * fit_kde(scores).bandwidth, rel=1e-12
        )


def separable_epochs(rng, n=40, channels=2, samples=8, offset=4.0):
    labels = np.arange(n) % 2
    data = np.empty((n, channels, samples))
    for i in range(n):
        data[i] = rng.standard_normal((channels, samples)) * 0.2 + offset * labels[i]
    return make_dataset(data, labels)


class TestGenerativePipeline:
    def test_separated_classes_yield_higher_positive_density(self):
        rng = np.random.default_rng(23)
        epochs = separable_epochs(rng)
        model = build_generative(epochs)
        pos_epoch = epochs.subset(np.flatnonzero(epochs.labels == 1)[:1])
        llr = model.predict_batch(pos_epoch)
        assert llr.shape == (1,) and llr.dtype == np.float64
        assert llr[0] > 0.0

    def test_identical_kdes_give_equal_densities(self):
        rng = np.random.default_rng(27)
        epochs = separable_epochs(rng)
        built = build_generative(epochs)
        model = dataclasses.replace(built, kde_neg=built.kde_pos)
        np.testing.assert_array_equal(model.predict_batch(epochs.subset(range(5))), np.zeros(5))

    def test_ratio_is_the_difference_of_the_kde_log_densities(self):
        rng = np.random.default_rng(28)
        epochs = separable_epochs(rng)
        model = build_generative(epochs)
        flat = zscore_array(model.zscore, epochs.data).reshape(len(epochs), -1)
        scores = logistic_scores(model.scorer, flat)
        expected = (kde_log_eval_many(model.kde_pos, scores)
                    - kde_log_eval_many(model.kde_neg, scores))
        np.testing.assert_allclose(model.predict_batch(epochs), expected, rtol=0, atol=1e-9)

    def test_determinism(self):
        rng = np.random.default_rng(33)
        epochs = separable_epochs(rng)
        model = build_generative(epochs)
        first = model.predict_batch(epochs.subset([3]))
        second = model.predict_batch(epochs.subset([3]))
        assert first[0] == second[0]

    def test_lda_scorer_variant(self):
        rng = np.random.default_rng(35)
        epochs = separable_epochs(rng)
        model = build_generative(epochs, kind="gen-lda")
        # the PCA projection is folded in: the scorer takes the flat epoch
        assert model.scorer.dimension == 2 * 8
        assert model.kind == "gen-lda"
        assert model.predict_batch(epochs.subset([1]))[0] > 0.0

    def test_wrong_epoch_shape_rejected(self):
        rng = np.random.default_rng(37)
        model = build_generative(separable_epochs(rng))
        with pytest.raises(ValueError):
            model.predict_batch(make_dataset(np.zeros((1, 2, 9)), [0]))

    @pytest.mark.parametrize("kind", ["gen-logr", "gen-lda"])
    def test_fit_and_scoring_leave_the_epochs_unmodified(self, kind):
        rng = np.random.default_rng(41)
        epochs = separable_epochs(rng)
        before = epochs.data.copy()
        model = build_generative(epochs, kind=kind)
        assert np.array_equal(epochs.data, before)
        model.predict_batch(epochs)
        assert np.array_equal(epochs.data, before)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.filterwarnings("ignore::rsvptyping.sim.SubChanceAccuracyWarning")
    def test_underflowing_bandwidth_trains_and_simulates_without_warnings(self):
        # every held-out kernel underflows: each epoch scores the KDE floor
        # under both classes, a tie, instead of NaN evidence
        def underflowing(train):
            model = build_generative(train, kind="gen-lda")
            return dataclasses.replace(
                model, kde_pos=KdeDensity(model.kde_pos.scores, 1e-300),
                kde_neg=KdeDensity(model.kde_neg.scores, 1e-300),
            )

        epochs = separable_epochs(np.random.default_rng(40), n=60)
        model = underflowing(epochs.subset(range(40)))
        held_out = epochs.subset(range(40, 60))
        np.testing.assert_array_equal(model.predict_batch(held_out), np.zeros(20))
        summary = evaluate_splits(underflowing, epochs, TypingConfig(attempts=20), n_splits=2)
        for row in summary.per_split:
            assert row.balanced_accuracy == 0.5
            assert row.typing.timeout == 20

    def test_fit_memory_is_under_two_zscored_matrices(self):
        # the z-scored rows are centered in place and not kept through the
        # scorer fit; a centered copy and the kept rows made 2.5 matrices
        epochs = generate(SynthConfig(n_epochs=2000))
        matrix_bytes = 8 * epochs.data.size
        tracemalloc.start()
        try:
            build_generative(epochs, kind="gen-lda")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * matrix_bytes

    def test_single_class_rejected(self):
        rng = np.random.default_rng(39)
        epochs = make_dataset(rng.standard_normal((10, 2, 8)), np.ones(10, dtype=int))
        with pytest.raises(ValueError):
            build_generative(epochs)

    def test_unknown_kind_rejected(self):
        epochs = separable_epochs(np.random.default_rng(40))
        with pytest.raises(ValueError, match="unknown generative model kind 'lda'"):
            build_generative(epochs, kind="lda")
        model = build_generative(epochs)
        with pytest.raises(ValueError, match="unknown generative model kind 'logreg'"):
            dataclasses.replace(model, kind="logreg")


class TestBayesConversion:
    def test_equal_densities_uniform_prior(self):
        # a tie goes to the positive class
        assert classify_one(0.0) == 1
        assert classify_one(-1e-12) == 0

    def test_four_to_one_ratio(self):
        assert classify_one(math.log(4.0)) == 1

    def test_certain_evidence_ignores_the_prior(self):
        assert classify_one(math.inf) == 1
        assert classify_one(-math.inf) == 0

    def test_both_zero_densities_unrepresentable(self):
        with pytest.raises(DegenerateEvidenceError):
            one_query(4, LikelihoodMode.GENERATIVE, 0, 0.0, 0.0)

    def test_each_kind_is_labelled_against_its_own_prior(self):
        # each model's ratio is against its own calibration prior, so one
        # rule, llr >= 0, labels a discriminative control as it does a density
        epochs = make_dataset(np.zeros((4, 1, 3)), [0, 1, 0, 1])
        llr = ConstantEvidenceModel(0.6, prior=0.5).predict_batch(epochs)
        assert list(classify_epochs(llr)) == [1] * 4
        llr = ConstantEvidenceModel(0.6, prior=0.9).predict_batch(epochs)
        assert list(classify_epochs(llr)) == [0] * 4

    def test_bridge_with_core_updates(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            prior = LabelPrior(float(rng.uniform(0.05, 0.95)))
            d_pos, d_neg = float(rng.uniform(1e-6, 2.0)), float(rng.uniform(1e-6, 2.0))
            q = int(rng.integers(6))
            via_gen = one_query(6, LikelihoodMode.GENERATIVE, q, d_pos, d_neg)
            log_odds = math.log(d_pos / d_neg) + math.log(prior.p_pos / prior.p_neg)
            pos = 1.0 / (1.0 + math.exp(-log_odds))
            via_disc = one_query(6, LikelihoodMode.DISCRIMINATIVE, q, pos, 1.0 - pos, prior)
            np.testing.assert_allclose(via_gen, via_disc, atol=1e-9)
            # the log ratio alone, folded as run_typing folds it
            factors = log_factors(np.array([[math.log(d_pos / d_neg)]]))
            start = np.full((1, 6), -math.log(6))
            via_llr = probabilities(apply_round(start, np.array([[q]]), *factors))[0]
            np.testing.assert_allclose(via_gen, via_llr, atol=1e-12)


class TestEvidenceModels:
    def test_logistic_evidence_batch_matches_single(self):
        rng = np.random.default_rng(43)
        epochs = separable_epochs(rng)
        model = train_logistic_evidence(epochs)
        batch = model.predict_batch(epochs.subset(range(6)))
        for i in range(6):
            single = model.predict_batch(epochs.subset([i]))
            assert single[0] == pytest.approx(batch[i], rel=1e-12)

    def test_logistic_evidence_leaves_the_epochs_unmodified(self):
        rng = np.random.default_rng(44)
        epochs = separable_epochs(rng)
        before = epochs.data.copy()
        model = train_logistic_evidence(epochs)
        model.predict_batch(epochs)
        assert np.array_equal(epochs.data, before)

    def test_logistic_evidence_separable_is_confident(self):
        rng = np.random.default_rng(45)
        epochs = separable_epochs(rng)
        model = train_logistic_evidence(epochs)
        assert np.array_equal(model.predict_batch(epochs) >= 0.0, epochs.labels == 1)

    def test_generative_evidence_batch_matches_single(self):
        rng = np.random.default_rng(47)
        epochs = separable_epochs(rng)
        model = build_generative(epochs)
        batch = model.predict_batch(epochs.subset(range(6)))
        for i in range(6):
            single = model.predict_batch(epochs.subset([i]))
            assert single[0] == pytest.approx(batch[i], rel=1e-12, abs=1e-12)

    def test_oracle_model_reports_labels_with_certainty(self):
        model = OracleEvidenceModel()
        llr = model.predict_batch(make_dataset(np.zeros((2, 1, 4)), [1, 0]))
        assert llr.tolist() == [math.inf, -math.inf]
        assert model.parameter_count == 0

    def test_constant_model_ignores_input(self):
        model = ConstantEvidenceModel(0.9, kind="always-pos")
        rng = np.random.default_rng(49)
        llr = model.predict_batch(make_dataset(rng.standard_normal((5, 2, 5)), [0] * 5))
        assert llr.shape == (5,) and len(set(llr.tolist())) == 1
        # logit(0.9) - logit(1/28), against the default alphabet's prior
        assert llr[0] == pytest.approx(math.log(9.0) + math.log(27.0), rel=1e-15)

    def test_constant_model_divides_by_its_prior(self):
        data = make_dataset(np.zeros((2, 1, 2)), [0, 1])
        assert ConstantEvidenceModel(0.1, prior=0.1).predict_batch(data).tolist() == [0.0, 0.0]
        llr = ConstantEvidenceModel(0.75, prior=0.5).predict_batch(data)
        assert llr[0] == pytest.approx(math.log(3.0), rel=1e-15)
        for prior in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError, match="p_pos"):
                ConstantEvidenceModel(0.5, prior=prior)

    def test_constant_model_takes_a_probability(self):
        for pos in (-0.1, 1.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="probability"):
                ConstantEvidenceModel(pos)
        data = make_dataset(np.zeros((1, 1, 2)), [0])
        for pos, expected in ((1.0, math.inf), (0.0, -math.inf)):
            assert ConstantEvidenceModel(pos).predict_batch(data).tolist() == [expected]

    def test_parameter_counts(self):
        rng = np.random.default_rng(51)
        epochs = separable_epochs(rng, channels=2, samples=8)
        disc = train_logistic_evidence(epochs)
        assert disc.parameter_count == 2 * 2 + 2 * 8 + 1
        # z-score pairs, the folded scorer's weights and bias, and the two
        # KDEs' training scores and bandwidths
        for kind in ("gen-logr", "gen-lda"):
            gen = build_generative(epochs, kind=kind)
            assert gen.parameter_count == 2 * 2 + 2 * 8 + 1 + len(epochs) + 2


class TestTracedCallSites:
    """The benchmark's tracer times the fit and scoring stages by replacing
    these names on the models module, the two fits on the cli module and
    ``predict_batch`` on both trained evidence classes, so callers must look
    them up there at call time."""

    NAMES = ("fit_zscore", "zscore_array", "fit_pca", "train_lda", "train_logistic", "fit_kde",
             "kde_log_eval_many", "logistic_loss_and_gradient")

    def count_calls(self, monkeypatch):
        calls = dict.fromkeys(self.NAMES, 0)
        for name in self.NAMES:
            original = getattr(models, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(models, name, counted)
        return calls

    def test_generative_fit_and_scoring_reach_the_module_names(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        epochs = separable_epochs(np.random.default_rng(53))
        model = build_generative(epochs, kind="gen-lda")
        # one z-scoring for the PCA, one for the KDEs' training scores
        fit = {"fit_zscore": 1, "zscore_array": 2, "fit_pca": 1, "train_lda": 1,
               "train_logistic": 0, "fit_kde": 2, "kde_log_eval_many": 0,
               "logistic_loss_and_gradient": 0}
        assert calls == fit
        model.predict_batch(epochs)
        assert calls == {**fit, "zscore_array": 3, "kde_log_eval_many": 2}
        fit = build_generative(epochs, kind="gen-logr").fit
        assert (calls["train_lda"], calls["train_logistic"]) == (1, 1)
        # the benchmark counts a fit's iterations from these calls
        assert fit.steps >= 1
        assert calls["logistic_loss_and_gradient"] == fit.steps + 1

    def test_logistic_fit_and_scoring_reach_the_module_names(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        epochs = separable_epochs(np.random.default_rng(55))
        model = train_logistic_evidence(epochs)
        model.predict_batch(epochs)
        assert (calls["fit_zscore"], calls["zscore_array"], calls["train_logistic"]) == (1, 2, 1)
        assert model.fit.steps >= 1
        assert calls["logistic_loss_and_gradient"] == model.fit.steps + 1

    @pytest.mark.parametrize("kind", list(models.MODEL_KINDS))
    def test_cli_fits_and_scores_through_the_traced_names(self, tmp_path, monkeypatch, kind):
        calls = {"fit": 0, "predict_batch": 0}
        fit = models.MODEL_KINDS[kind].fit
        original_fit = getattr(cli, fit)

        def counted_fit(*args, **kwargs):
            calls["fit"] += 1
            return original_fit(*args, **kwargs)

        monkeypatch.setattr(cli, fit, counted_fit)
        for evidence_class in (LogisticEvidenceModel, GenerativeEvidenceModel):
            def counted_predict(self, dataset, _original=evidence_class.predict_batch):
                calls["predict_batch"] += 1
                return _original(self, dataset)

            monkeypatch.setattr(evidence_class, "predict_batch", counted_predict)
        synth_cfg, sim_cfg = tmp_path / "synth.cfg", tmp_path / "sim.cfg"
        synth_cfg.write_text("n_epochs = 200\nchannels = 2\ntarget_fraction = 0.25\n")
        sim_cfg.write_text("attempts = 5\nsplits = 2\n")
        data, model = tmp_path / "data.bin", tmp_path / "model.bin"
        assert cli.main(["synth", "--config", str(synth_cfg), "--out", str(data)]) == 0
        assert cli.main(["train", str(data), "--kind", kind, "--out", str(model)]) == 0
        assert calls == {"fit": 1, "predict_batch": 1}
        assert cli.main(["simulate", str(model), str(data), "--config", str(sim_cfg),
                         "--out", str(tmp_path / "report.json")]) == 0
        # one refit and one scoring of the held-out epochs per split
        assert calls == {"fit": 3, "predict_batch": 3}


@pytest.mark.parametrize("kind", list(models.MODEL_KINDS))
def test_each_split_keeps_its_fit(monkeypatch, kind):
    # one loss evaluation per iterate: the benchmark counts iterations so
    calls = []
    original = models.logistic_loss_and_gradient

    def counted(*args, **kwargs):
        calls[-1] += 1
        return original(*args, **kwargs)

    def factory(train):
        calls.append(0)
        return getattr(models, models.MODEL_KINDS[kind].fit)(train, kind=kind)

    monkeypatch.setattr(models, "logistic_loss_and_gradient", counted)
    epochs = separable_epochs(np.random.default_rng(57), n=60, offset=1.0)
    summary = evaluate_splits(factory, epochs, TypingConfig(attempts=5), n_splits=3)
    fits = [row.fit for row in summary.per_split]
    if kind == "gen-lda":
        assert fits == [None] * 3 and calls == [0] * 3
    else:
        assert [fit.steps + 1 for fit in fits] == calls
        assert min(calls) >= 2
