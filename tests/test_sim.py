import math

import numpy as np
import pytest

from rsvptyping.core import DegenerateEvidenceError, LabelPrior
from rsvptyping.models import (
    ConstantEvidenceModel,
    OracleEvidenceModel,
    build_generative,
    train_logistic_evidence,
)
from rsvptyping.sim import (
    QueryStrategy,
    SubChanceAccuracyWarning,
    TIMEOUT,
    WRONG,
    TypingConfig,
    balanced_accuracy,
    classify_epochs,
    evaluate_splits,
    itr,
    run_typing,
    select_queries,
)
from rsvptyping.synth import LabeledDataset, SynthConfig, generate, split


class TestTypingConfig:
    def test_alphabet_needs_two_symbols(self):
        for size in (1, 0, -3):
            with pytest.raises(ValueError, match="alphabet needs at least 2 symbols"):
                TypingConfig(alphabet_size=size)
        assert TypingConfig().alphabet_size == 28


class TestItr:
    def test_perfect_channel(self):
        assert itr(28, 1.0) == pytest.approx(4.807355, abs=1e-6)
        assert itr(28, 1.0) == math.log2(28)

    def test_chance_level_is_zero(self):
        for a in (2, 10, 28, 100):
            assert itr(a, 1.0 / a) == pytest.approx(0.0, abs=1e-9)

    def test_monotone_above_chance(self):
        for a in (2, 28):
            grid = np.linspace(1.0 / a, 1.0, 200)
            values = [itr(a, p) for p in grid]
            assert all(b > x for x, b in zip(values, values[1:]))

    def test_zero_accuracy_handled_by_convention(self):
        assert itr(28, 0.0) == pytest.approx(math.log2(28.0 / 27.0), abs=1e-12)
        assert itr(28, 0.0) > 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            itr(1, 0.5)
        with pytest.raises(ValueError):
            itr(28, 1.5)


def select_query(probabilities, k, strategy, rng):
    """The batched selection fed one row: a probability vector's picks."""
    with np.errstate(divide="ignore"):
        log_p = np.log(np.asarray(probabilities, dtype=np.float64))
    return select_queries(log_p[None, :], k, strategy, rng)[0]


class TestSelectQuery:
    def test_point_mass_with_replacement(self):
        p = np.zeros(28)
        p[7] = 1.0
        rng = np.random.default_rng(0)
        picks = select_query(p, 10, QueryStrategy.WITH_REPLACEMENT, rng)
        assert list(picks) == [7] * 10

    def test_uniform_without_replacement_full_alphabet(self):
        p = np.full(12, 1.0 / 12)
        rng = np.random.default_rng(1)
        picks = select_query(p, 12, QueryStrategy.WITHOUT_REPLACEMENT, rng)
        assert sorted(picks) == list(range(12))

    def test_without_replacement_distinct(self):
        p = np.full(28, 1.0 / 28)
        rng = np.random.default_rng(2)
        picks = select_query(p, 10, QueryStrategy.WITHOUT_REPLACEMENT, rng)
        assert len(set(picks.tolist())) == 10

    def test_top_k_with_index_ties(self):
        p = np.array([0.3, 0.3, 0.2, 0.2])
        rng = np.random.default_rng(3)
        assert list(select_query(p, 2, QueryStrategy.TOP_K, rng)) == [0, 1]
        assert list(select_query(p, 3, QueryStrategy.TOP_K, rng)) == [0, 1, 2]

    def test_sampling_frequencies_match_distribution(self):
        rng = np.random.default_rng(4)
        p = np.array([0.5, 0.25, 0.15, 0.1])
        n = 100_000
        draws = select_queries(np.tile(np.log(p), (n, 1)), 1,
                               QueryStrategy.WITH_REPLACEMENT, rng)[:, 0]
        counts = np.bincount(draws, minlength=4) / n
        sigma = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(counts - p) <= 3 * sigma)

    def test_without_replacement_first_pick_frequencies(self):
        # Gumbel-top-k: the first pick of each row is a draw from p
        rng = np.random.default_rng(6)
        p = np.array([0.5, 0.25, 0.15, 0.1])
        n = 100_000
        picks = select_queries(np.tile(np.log(p), (n, 1)), 2,
                               QueryStrategy.WITHOUT_REPLACEMENT, rng)
        counts = np.bincount(picks[:, 0], minlength=4) / n
        sigma = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(counts - p) <= 3 * sigma)
        assert np.all(picks[:, 0] != picks[:, 1])

    def test_zero_mass_symbols_drawn_last_and_uniformly(self):
        rng = np.random.default_rng(7)
        p = np.array([0.0, 0.7, 0.0, 0.3, 0.0])
        picks = np.array([select_query(p, 4, QueryStrategy.WITHOUT_REPLACEMENT, rng)
                          for _ in range(3000)])
        assert np.all(np.sort(picks[:, :2], axis=1) == [1, 3])
        fill = np.bincount(picks[:, 2:].ravel(), minlength=5)[[0, 2, 4]] / 6000
        assert np.all(np.abs(fill - 1 / 3) < 0.03)
        # with replacement, zero-mass symbols are never drawn
        drawn = select_query(p, 1000, QueryStrategy.WITH_REPLACEMENT, rng)
        assert set(drawn.tolist()) == {1, 3}

    def test_k_exceeding_alphabet_rejected(self):
        p = np.full(5, 0.2)
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            select_query(p, 6, QueryStrategy.WITHOUT_REPLACEMENT, rng)
        with pytest.raises(ValueError):
            select_query(p, 6, QueryStrategy.TOP_K, rng)


def dummy_dataset(rng, n_pos=15, n_neg=40, channels=2):
    return generate(
        SynthConfig(
            n_epochs=n_pos + n_neg,
            channels=channels,
            rate=125.0,
            target_fraction=n_pos / (n_pos + n_neg),
            erp_amplitude=2.0,
            seed=int(rng.integers(1 << 31)),
        )
    )


def typing_run(model, data: LabeledDataset, config: TypingConfig):
    """A typing run on the evidence the model scores for ``data``."""
    return run_typing(model.predict_batch(data), data.labels, config)


def first_of_each_class(data: LabeledDataset, k: int) -> LabeledDataset:
    """The first k positive epochs, then the first k negative ones."""
    labels = data.labels
    return data.subset(
        np.concatenate([np.flatnonzero(labels == 1)[:k], np.flatnonzero(labels == 0)[:k]])
    )


class TestRunTyping:
    def oracle_config(self, **overrides):
        base = dict(
            attempts=200,
            max_rounds=10,
            symbols_per_query=10,
            alphabet_size=28,
            threshold=0.99,
            seed=11,
        )
        base.update(overrides)
        return TypingConfig(**base)

    def test_oracle_model_types_perfectly(self):
        rng = np.random.default_rng(6)
        data = dummy_dataset(rng)
        result = typing_run(OracleEvidenceModel(), data, self.oracle_config())
        assert result.correct == result.attempts
        assert result.itr_bits_per_symbol == pytest.approx(math.log2(28), abs=1e-9)
        # certain evidence collapses the posterior the moment the target is queried
        final = result.log_posterior[np.arange(result.attempts), result.target]
        np.testing.assert_allclose(final, 0.0, atol=1e-12)
        assert np.all((result.rounds >= 1) & (result.rounds <= 10))

    @pytest.mark.parametrize("strategy", list(QueryStrategy))
    def test_oracle_types_perfectly_under_every_strategy(self, strategy):
        # +-inf ratios fold into factors that are never +inf, so no NaN
        data = dummy_dataset(np.random.default_rng(20))
        config = self.oracle_config(attempts=100, query_strategy=strategy)
        result = typing_run(OracleEvidenceModel(), data, config)
        assert result.accuracy == 1.0
        assert not np.isnan(result.log_posterior).any()
        final = result.log_posterior[np.arange(result.attempts), result.target]
        np.testing.assert_array_equal(final, 0.0)

    def test_uninformative_model_times_out_everywhere(self):
        rng = np.random.default_rng(7)
        data = dummy_dataset(rng)
        prior = LabelPrior.uniform_over(28)
        model = ConstantEvidenceModel(prior.p_pos, kind="uninformative")
        config = self.oracle_config(attempts=50, threshold=0.9)
        with pytest.warns(SubChanceAccuracyWarning):
            result = typing_run(model, data, config)
        assert result.timeout == 50 and result.correct == 0
        assert result.accuracy == 0.0
        assert result.itr_bits_per_symbol == pytest.approx(math.log2(28 / 27), abs=1e-9)

    @pytest.mark.filterwarnings("ignore::rsvptyping.sim.SubChanceAccuracyWarning")
    def test_constant_confident_model_types_at_chance(self):
        rng = np.random.default_rng(8)
        data = dummy_dataset(rng)
        model = ConstantEvidenceModel(0.9, kind="always-pos")
        config = self.oracle_config(attempts=300, threshold=0.9, max_rounds=30)
        result = typing_run(model, data, config)
        # a blindly confident model types a symbol, but a random one
        assert result.correct + result.wrong > 250
        assert abs(result.accuracy - 1 / 28) < 0.05

    @pytest.mark.filterwarnings("ignore::rsvptyping.sim.SubChanceAccuracyWarning")
    def test_stop_on_wrong_flag(self):
        rng = np.random.default_rng(9)
        data = dummy_dataset(rng)
        model = ConstantEvidenceModel(0.9)
        stop = typing_run(model, data, self.oracle_config(attempts=60, threshold=0.9))
        literal = typing_run(
            model, data,
            self.oracle_config(attempts=60, threshold=0.9, stop_on_wrong=False),
        )
        assert stop.wrong > 0
        assert literal.wrong == 0
        assert literal.correct + literal.timeout == 60

    def test_seed_determinism(self):
        rng = np.random.default_rng(10)
        data = dummy_dataset(rng)
        model = OracleEvidenceModel()
        config = self.oracle_config(attempts=40)
        a = typing_run(model, data, config)
        b = typing_run(model, data, config)
        for field in ("target", "outcome", "rounds", "log_posterior"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        different = typing_run(model, data, self.oracle_config(attempts=40, seed=99))
        assert np.any(a.target != different.target)

    @pytest.mark.filterwarnings("ignore::rsvptyping.sim.SubChanceAccuracyWarning")
    def test_oracle_dominates_other_models(self):
        rng = np.random.default_rng(12)
        data = dummy_dataset(rng)
        config = self.oracle_config(attempts=80, threshold=0.9)
        oracle = typing_run(OracleEvidenceModel(), data, config)
        blind = typing_run(ConstantEvidenceModel(0.9), data, config)
        assert oracle.accuracy >= blind.accuracy

    @pytest.mark.filterwarnings("ignore::rsvptyping.sim.SubChanceAccuracyWarning")
    def test_attempt_paths_do_not_depend_on_other_attempts(self):
        # stopping on a wrong decision ends some attempts early; every
        # attempt that never decided wrongly must follow the same path
        rng = np.random.default_rng(13)
        data = dummy_dataset(rng)
        model = ConstantEvidenceModel(0.9)
        stop = typing_run(model, data, self.oracle_config(attempts=300, threshold=0.9))
        literal = typing_run(
            model, data,
            self.oracle_config(attempts=300, threshold=0.9, stop_on_wrong=False),
        )
        same = stop.outcome != WRONG
        assert 0 < same.sum() < 300
        for field in ("target", "outcome", "rounds", "log_posterior"):
            a, b = getattr(stop, field), getattr(literal, field)
            np.testing.assert_array_equal(a[same], b[same])

    @pytest.mark.filterwarnings("ignore::rsvptyping.sim.SubChanceAccuracyWarning")
    def test_rounds_to_decision_counts_decided_rounds(self):
        rng = np.random.default_rng(18)
        data = dummy_dataset(rng)
        config = self.oracle_config(attempts=80, threshold=0.9)
        result = typing_run(ConstantEvidenceModel(0.9), data, config)
        decided = result.rounds[result.outcome != TIMEOUT]
        assert len(result.rounds_to_decision) == config.max_rounds
        assert list(result.rounds_to_decision) == np.bincount(
            decided - 1, minlength=config.max_rounds
        ).tolist()
        assert sum(result.rounds_to_decision) == result.correct + result.wrong

    def test_vanishing_mass_raises(self):
        # certain evidence that two distinct queried symbols are both the
        # target leaves no symbol possible
        rng = np.random.default_rng(19)
        data = dummy_dataset(rng)
        config = self.oracle_config(
            attempts=5, query_strategy=QueryStrategy.TOP_K, symbols_per_query=2
        )
        with pytest.raises(DegenerateEvidenceError):
            typing_run(ConstantEvidenceModel(1.0), data, config)

    def test_empty_pool_rejected(self):
        # a single-class label vector leaves one pool without epochs
        llr = np.full(4, math.log(9.0))
        config = self.oracle_config(attempts=5)
        for labels in (np.ones(4, dtype=int), np.zeros(4, dtype=int)):
            with pytest.raises(ValueError):
                run_typing(llr, labels, config)


class TestBalancedAccuracy:
    def test_all_correct(self):
        assert balanced_accuracy([0, 1, 0, 1], [0, 1, 0, 1]) == 1.0

    def test_constant_prediction(self):
        assert balanced_accuracy([1] * 10, [0] * 5 + [1] * 5) == 0.5

    def test_mixed_recalls(self):
        truth = [1] * 10 + [0] * 10
        pred = [1] * 9 + [0] + [0] * 7 + [1] * 3  # 90% pos recall, 70% neg recall
        assert balanced_accuracy(pred, truth) == pytest.approx(0.8)

    def test_single_class_truth_rejected(self):
        with pytest.raises(ValueError):
            balanced_accuracy([0, 1], [1, 1])


class TestClassifyEpochs:
    def test_generative_prior_changes_predictions(self):
        # constant class-conditional densities p(e|+) = 0.4, p(e|-) = 0.1
        llr = np.full(6, math.log(0.4 / 0.1))
        unif = classify_epochs(llr)
        assert list(unif) == [1] * 6  # 0.4 / 0.5 odds -> pos = 0.8
        emp = classify_epochs(llr, conversion_prior=LabelPrior(0.1))
        assert list(emp) == [0] * 6  # prior drags pos to ~0.31

    def test_discriminative_argmax(self):
        rng = np.random.default_rng(16)
        epochs = first_of_each_class(dummy_dataset(rng), 2)
        for p, label in ((0.7, 1), (0.2, 0)):
            model = ConstantEvidenceModel(p, prior=0.5)
            assert list(classify_epochs(model.predict_batch(epochs))) == [label] * 4
        # against the prior 1/28, p(+|e) = 0.2 is evidence for the target
        assert list(classify_epochs(ConstantEvidenceModel(0.2).predict_batch(epochs))) == [1] * 4

    def test_epoch_far_from_both_kdes_is_a_tie(self):
        # an epoch far outside both classes: each KDE log-density sits at
        # its -745 floor, so their log ratio is 0
        rng = np.random.default_rng(17)
        data = dummy_dataset(rng)
        model = build_generative(data, kind="gen-lda")
        far = LabeledDataset(data.data[:2] * 1e4, data.labels[:2])
        llr = model.predict_batch(far)
        assert llr.tolist() == [0.0] * 2
        assert list(classify_epochs(llr)) == [1, 1]


class TestEvaluateSplits:
    def small_dataset(self):
        return generate(
            SynthConfig(
                n_epochs=400, channels=2, rate=125.0, trial_ms=200.0,
                erp_latency_ms=100.0, erp_width_ms=30.0,
                erp_amplitude=2.0, target_fraction=0.25, seed=3,
            )
        )

    def typing_config(self):
        return TypingConfig(
            attempts=40, max_rounds=8, symbols_per_query=5,
            alphabet_size=10, threshold=0.9, seed=0,
        )

    def test_five_rows_and_determinism(self):
        data = self.small_dataset()
        factory = lambda train: train_logistic_evidence(train)
        a = evaluate_splits(factory, data, self.typing_config())
        b = evaluate_splits(factory, data, self.typing_config())
        assert len(a.per_split) == 5
        for ra, rb in zip(a.per_split, b.per_split):
            assert ra.balanced_accuracy == rb.balanced_accuracy
            for field in ("target", "outcome", "rounds", "log_posterior"):
                np.testing.assert_array_equal(getattr(ra.typing, field), getattr(rb.typing, field))
        assert (a.mean_itr, a.std_itr) == (b.mean_itr, b.std_itr)

    @pytest.mark.filterwarnings("ignore::rsvptyping.sim.SubChanceAccuracyWarning")
    def test_control_model_metrics(self):
        data = self.small_dataset()
        factory = lambda train: ConstantEvidenceModel(0.9, kind="always-pos")
        summary = evaluate_splits(factory, data, self.typing_config())
        for row in summary.per_split:
            assert row.balanced_accuracy == 0.5
        assert summary.mean_balanced_accuracy == 0.5
        assert summary.std_balanced_accuracy == 0.0

    def test_scores_each_test_set_once(self):
        # classification and typing share one evidence array per split
        data = self.small_dataset()
        scored = []

        class CountingOracle(OracleEvidenceModel):
            def predict_batch(self, dataset):
                scored.append(len(dataset))
                return super().predict_batch(dataset)

        summary = evaluate_splits(
            lambda train: CountingOracle(), data, self.typing_config(), n_splits=3
        )
        assert len(summary.per_split) == 3
        assert scored == [len(s.test) for s in split(data, n_splits=3)]

    def test_oracle_summary_is_perfect(self):
        data = self.small_dataset()
        factory = lambda train: OracleEvidenceModel()
        summary = evaluate_splits(factory, data, self.typing_config())
        assert summary.mean_balanced_accuracy == 1.0
        assert summary.mean_itr == pytest.approx(math.log2(10), abs=1e-9)
        assert summary.std_itr == pytest.approx(0.0, abs=1e-12)
