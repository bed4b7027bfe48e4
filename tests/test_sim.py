import math

import numpy as np
import pytest

from rsvptyping.core import Alphabet, DegenerateEvidenceError, LabelPrior, LikelihoodMode
from rsvptyping.models import (
    ConstantEvidenceModel,
    GenerativeEvidenceModel,
    OracleEvidenceModel,
    build_generative,
    train_logistic_evidence,
)
from rsvptyping.sim import (
    EvidencePools,
    QueryStrategy,
    SubChanceAccuracyWarning,
    TypingConfig,
    TypingResult,
    balanced_accuracy,
    classify_epochs,
    evaluate_splits,
    itr,
    run_typing,
    select_queries,
)
from rsvptyping.synth import LabeledDataset, SynthConfig, generate, split


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
        draws = select_query(p, 1, QueryStrategy.WITH_REPLACEMENT, rng)
        draws = rng.choice(4, size=n, p=p)
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


def dummy_pools(rng):
    return EvidencePools.from_dataset(dummy_dataset(rng))


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
            alphabet=Alphabet.default(28),
            threshold=0.99,
            seed=11,
        )
        base.update(overrides)
        return TypingConfig(**base)

    def test_oracle_model_types_perfectly(self):
        rng = np.random.default_rng(6)
        pools = dummy_pools(rng)
        result = run_typing(OracleEvidenceModel(), pools, self.oracle_config())
        assert result.correct == result.attempts
        assert result.itr_bits_per_symbol == pytest.approx(math.log2(28), abs=1e-9)
        # certain evidence collapses the posterior the moment the target is queried
        for trace in result.traces:
            final = trace.posteriors[-1]
            assert final[trace.target] == pytest.approx(1.0, abs=1e-12)
            assert len(trace.queries) <= 10

    def test_uninformative_model_times_out_everywhere(self):
        rng = np.random.default_rng(7)
        pools = dummy_pools(rng)
        prior = LabelPrior.uniform_over(28)
        model = ConstantEvidenceModel(prior.p_pos, kind="uninformative")
        config = self.oracle_config(attempts=50, threshold=0.9)
        with pytest.warns(SubChanceAccuracyWarning):
            result = run_typing(model, pools, config)
        assert result.timeout == 50 and result.correct == 0
        assert result.accuracy == 0.0
        assert result.itr_bits_per_symbol == pytest.approx(math.log2(28 / 27), abs=1e-9)

    @pytest.mark.filterwarnings("ignore::rsvptyping.sim.SubChanceAccuracyWarning")
    def test_constant_confident_model_types_at_chance(self):
        rng = np.random.default_rng(8)
        pools = dummy_pools(rng)
        model = ConstantEvidenceModel(0.9, kind="always-pos")
        config = self.oracle_config(attempts=300, threshold=0.9, max_rounds=30)
        result = run_typing(model, pools, config)
        # a blindly confident model types a symbol, but a random one
        assert result.correct + result.wrong > 250
        assert abs(result.accuracy - 1 / 28) < 0.05

    @pytest.mark.filterwarnings("ignore::rsvptyping.sim.SubChanceAccuracyWarning")
    def test_stop_on_wrong_flag(self):
        rng = np.random.default_rng(9)
        pools = dummy_pools(rng)
        model = ConstantEvidenceModel(0.9)
        stop = run_typing(model, pools, self.oracle_config(attempts=60, threshold=0.9))
        literal = run_typing(
            model, pools,
            self.oracle_config(attempts=60, threshold=0.9, stop_on_wrong=False),
        )
        assert stop.wrong > 0
        assert literal.wrong == 0
        assert literal.correct + literal.timeout == 60

    def test_seed_determinism(self):
        rng = np.random.default_rng(10)
        pools = dummy_pools(rng)
        model = OracleEvidenceModel()
        config = self.oracle_config(attempts=40)
        a = run_typing(model, pools, config)
        b = run_typing(model, pools, config)
        assert (a.correct, a.wrong, a.timeout) == (b.correct, b.wrong, b.timeout)
        for ta, tb in zip(a.traces, b.traces):
            assert ta.target == tb.target and ta.queries == tb.queries
            for pa, pb in zip(ta.posteriors, tb.posteriors):
                np.testing.assert_array_equal(pa, pb)
        different = run_typing(model, pools, self.oracle_config(attempts=40, seed=99))
        assert any(
            ta.target != tb.target for ta, tb in zip(a.traces, different.traces)
        )

    @pytest.mark.filterwarnings("ignore::rsvptyping.sim.SubChanceAccuracyWarning")
    def test_oracle_dominates_other_models(self):
        rng = np.random.default_rng(12)
        pools = dummy_pools(rng)
        config = self.oracle_config(attempts=80, threshold=0.9)
        oracle = run_typing(OracleEvidenceModel(), pools, config)
        blind = run_typing(ConstantEvidenceModel(0.9), pools, config)
        assert oracle.accuracy >= blind.accuracy

    @pytest.mark.filterwarnings("ignore::rsvptyping.sim.SubChanceAccuracyWarning")
    def test_attempt_paths_do_not_depend_on_other_attempts(self):
        # stopping on a wrong decision ends some attempts early; every
        # attempt that never decided wrongly must follow the same path
        rng = np.random.default_rng(13)
        pools = dummy_pools(rng)
        model = ConstantEvidenceModel(0.9)
        stop = run_typing(model, pools, self.oracle_config(attempts=300, threshold=0.9))
        literal = run_typing(
            model, pools,
            self.oracle_config(attempts=300, threshold=0.9, stop_on_wrong=False),
        )
        same = [i for i, t in enumerate(stop.traces) if t.outcome != "wrong"]
        assert 0 < len(same) < 300
        for i in same:
            a, b = stop.traces[i], literal.traces[i]
            assert (a.target, a.queries, a.outcome) == (b.target, b.queries, b.outcome)
            for pa, pb in zip(a.posteriors, b.posteriors):
                np.testing.assert_array_equal(pa, pb)

    @pytest.mark.filterwarnings("ignore::rsvptyping.sim.SubChanceAccuracyWarning")
    def test_rounds_to_decision_counts_trace_lengths(self):
        rng = np.random.default_rng(18)
        pools = dummy_pools(rng)
        config = self.oracle_config(attempts=80, threshold=0.9)
        result = run_typing(ConstantEvidenceModel(0.9), pools, config)
        lengths = [len(t.queries) for t in result.traces if t.outcome != "timeout"]
        assert len(result.rounds_to_decision) == config.max_rounds
        assert list(result.rounds_to_decision) == np.bincount(
            np.array(lengths) - 1, minlength=config.max_rounds
        ).tolist()
        assert sum(result.rounds_to_decision) == result.correct + result.wrong

    def test_vanishing_mass_raises(self):
        # certain evidence that two distinct queried symbols are both the
        # target leaves no symbol possible
        rng = np.random.default_rng(19)
        pools = dummy_pools(rng)
        config = self.oracle_config(
            attempts=5, query_strategy=QueryStrategy.TOP_K, symbols_per_query=2
        )
        with pytest.raises(DegenerateEvidenceError):
            run_typing(ConstantEvidenceModel(1.0), pools, config)

    def test_traces_can_be_disabled(self):
        rng = np.random.default_rng(14)
        pools = dummy_pools(rng)
        config = self.oracle_config(attempts=10, record_traces=False)
        result = run_typing(OracleEvidenceModel(), pools, config)
        assert result.traces == ()
        assert result.attempts == 10

    def test_result_count_validation(self):
        with pytest.raises(ValueError):
            TypingResult(
                attempts=5, correct=2, wrong=2, timeout=2,
                accuracy=0.4, itr_bits_per_symbol=0.0, traces=(),
            )

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            EvidencePools(positive=(), negative=())


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
        rng = np.random.default_rng(15)
        epochs = first_of_each_class(dummy_dataset(rng), 3)
        model = ConstantEvidenceModel(
            0.4, 0.1, mode=LikelihoodMode.GENERATIVE, kind="constant-gen"
        )
        unif = classify_epochs(model, epochs)
        assert list(unif) == [1] * 6  # 0.4 / 0.5 odds -> pos = 0.8
        emp = classify_epochs(model, epochs, conversion_prior=LabelPrior(0.1))
        assert list(emp) == [0] * 6  # prior drags pos to ~0.31

    def test_discriminative_argmax(self):
        rng = np.random.default_rng(16)
        epochs = first_of_each_class(dummy_dataset(rng), 2)
        assert list(classify_epochs(ConstantEvidenceModel(0.7), epochs)) == [1] * 4
        assert list(classify_epochs(ConstantEvidenceModel(0.2), epochs)) == [0] * 4

    def test_epoch_far_from_both_kdes_is_a_tie(self):
        # an epoch far outside both classes: each KDE log-density sits at
        # its -745 floor, so the prior-weighted densities are equal
        rng = np.random.default_rng(17)
        data = dummy_dataset(rng)
        model = GenerativeEvidenceModel(build_generative(data, scorer_kind="lda"), kind="gen-lda")
        far = LabeledDataset(data.data[:2] * 1e4, data.labels[:2])
        log_pos, log_neg = model.predict_batch(far)
        assert log_pos.tolist() == log_neg.tolist() == [-745.0] * 2
        assert list(classify_epochs(model, far)) == [1, 1]


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
            alphabet=Alphabet.default(10), threshold=0.9, seed=0,
        )

    def test_five_rows_and_determinism(self):
        data = self.small_dataset()
        factory = lambda train: train_logistic_evidence(train)
        a = evaluate_splits(factory, data, self.typing_config())
        b = evaluate_splits(factory, data, self.typing_config())
        assert len(a.per_split) == 5
        assert a == b

    @pytest.mark.filterwarnings("ignore::rsvptyping.sim.SubChanceAccuracyWarning")
    def test_control_model_metrics(self):
        data = self.small_dataset()
        factory = lambda train: ConstantEvidenceModel(0.9, kind="always-pos")
        summary = evaluate_splits(factory, data, self.typing_config())
        for row in summary.per_split:
            assert row.balanced_accuracy == 0.5
        assert summary.mean_balanced_accuracy == 0.5
        assert summary.std_balanced_accuracy == 0.0

    def test_uses_attached_splits(self):
        data = self.small_dataset()
        attached = data.with_splits(split(data, n_splits=2, seed=9))
        factory = lambda train: ConstantEvidenceModel(0.9)
        summary = evaluate_splits(
            factory, attached, self.typing_config(), n_splits=2
        )
        assert len(summary.per_split) == 2
        with pytest.raises(ValueError):
            evaluate_splits(factory, attached, self.typing_config(), n_splits=3)

    def test_oracle_summary_is_perfect(self):
        data = self.small_dataset()
        factory = lambda train: OracleEvidenceModel()
        summary = evaluate_splits(factory, data, self.typing_config())
        assert summary.mean_balanced_accuracy == 1.0
        assert summary.mean_itr == pytest.approx(math.log2(10), abs=1e-9)
        assert summary.std_itr == pytest.approx(0.0, abs=1e-12)
