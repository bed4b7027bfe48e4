import math

import numpy as np
import pytest

from rsvptyping.core import (
    Alphabet,
    DegenerateEvidenceError,
    LabelPrior,
    LikelihoodMode,
    LikelihoodPair,
    PosteriorState,
    QueryEvent,
    apply_query,
    decide,
    init_posterior,
    update_discriminative,
    update_generative,
)

from oracles import enumerated_posterior


def disc_event(index, pos):
    return QueryEvent(index, LikelihoodPair.discriminative(pos))

def gen_event(index, pos, neg):
    return QueryEvent(index, LikelihoodPair.generative(pos, neg))


class TestTypes:
    def test_alphabet_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "a", "b"))

    def test_alphabet_rejects_singleton(self):
        with pytest.raises(ValueError):
            Alphabet(("a",))

    def test_default_alphabet_28(self):
        a = Alphabet.default(28)
        assert a.size == 28
        assert a.symbols[0] == "a" and a.symbols[26] == "_" and a.symbols[27] == "<"
        assert a.index_of("z") == 25

    def test_label_prior_bounds(self):
        with pytest.raises(ValueError):
            LabelPrior(0.0)
        with pytest.raises(ValueError):
            LabelPrior(1.0)
        assert LabelPrior.uniform_over(28).p_pos == pytest.approx(1 / 28)
        assert LabelPrior(0.25).p_neg == 0.75

    def test_discriminative_pair_must_sum_to_one(self):
        with pytest.raises(ValueError):
            LikelihoodPair(LikelihoodMode.DISCRIMINATIVE, 0.7, 0.7)
        pair = LikelihoodPair.discriminative(0.7)
        assert pair.neg == pytest.approx(0.3)

    def test_pair_rejects_both_zero_and_negative(self):
        with pytest.raises(ValueError):
            LikelihoodPair.generative(0.0, 0.0)
        with pytest.raises(ValueError):
            LikelihoodPair.generative(-0.1, 1.0)


class TestInitPosterior:
    def test_uniform_default(self):
        state = init_posterior(Alphabet.default(28))
        np.testing.assert_allclose(state.probabilities(), np.full(28, 1 / 28), atol=1e-15)
        assert state.step == 0

    def test_custom_prior_normalized(self):
        state = init_posterior(Alphabet.default(3), prior=(2, 1, 1))
        np.testing.assert_allclose(state.probabilities(), [0.5, 0.25, 0.25], atol=1e-15)

    def test_prior_length_mismatch(self):
        with pytest.raises(ValueError):
            init_posterior(Alphabet.default(3), prior=(1, 1))

    def test_all_zero_prior(self):
        with pytest.raises(ValueError):
            init_posterior(Alphabet.default(3), prior=(0, 0, 0))

    def test_huge_prior_entries_normalize(self):
        # their sum overflows float64; the log domain does not
        state = init_posterior(Alphabet.default(3), prior=(1e308, 1e308, 0))
        np.testing.assert_allclose(state.probabilities(), [0.5, 0.5, 0.0], atol=1e-15)

    def test_zero_entries_stay_impossible(self):
        state = init_posterior(Alphabet.default(3), prior=(1, 0, 1))
        probs = state.probabilities()
        assert probs[1] == 0.0
        np.testing.assert_allclose(probs, [0.5, 0.0, 0.5], atol=1e-15)


class TestDiscriminativeUpdate:
    def test_uninformative_evidence_is_identity(self):
        # pos equal to the label prior carries no information
        state = init_posterior(Alphabet.default(3))
        out = update_discriminative(state, disc_event(1, 1 / 3), LabelPrior(1 / 3))
        np.testing.assert_allclose(out.probabilities(), np.full(3, 1 / 3), atol=1e-12)
        assert out.step == 1

    def test_certain_positive_evidence(self):
        state = init_posterior(Alphabet.default(3))
        out = update_discriminative(state, disc_event(0, 1.0), LabelPrior(1 / 3))
        np.testing.assert_allclose(out.probabilities(), [1.0, 0.0, 0.0], atol=1e-15)

    def test_matches_enumeration_oracle(self):
        # A=4 uniform, query index 2, evidence (0.9, 0.1), p_pos=1/4
        state = init_posterior(Alphabet.default(4))
        out = update_discriminative(state, disc_event(2, 0.9), LabelPrior(0.25))
        expected = enumerated_posterior(4, [(2, "disc", 0.9, 0.1)], p_pos=0.25)
        np.testing.assert_allclose(out.probabilities(), expected, atol=1e-12)
        # oracle value frozen: (1/30, 1/30, 9/10, 1/30)
        np.testing.assert_allclose(expected, [1 / 30, 1 / 30, 0.9, 1 / 30], atol=1e-12)

    def test_mode_mismatch_rejected(self):
        state = init_posterior(Alphabet.default(3))
        with pytest.raises(ValueError):
            update_discriminative(state, gen_event(0, 0.5, 0.5), LabelPrior(1 / 3))

    def test_degenerate_evidence_raises(self):
        # all prior mass on the queried symbol, evidence says "not it"
        state = init_posterior(Alphabet.default(3), prior=(1, 0, 0))
        with pytest.raises(DegenerateEvidenceError):
            update_discriminative(state, disc_event(0, 0.0), LabelPrior(1 / 3))

    def test_certain_evidence_on_zero_mass_symbol_raises(self):
        state = init_posterior(Alphabet.default(3), prior=(0, 1, 1))
        with pytest.raises(DegenerateEvidenceError):
            update_discriminative(state, disc_event(0, 1.0), LabelPrior(1 / 3))


class TestGenerativeUpdate:
    def test_equal_densities_cancel(self):
        state = init_posterior(Alphabet.default(3))
        out = update_generative(state, gen_event(0, 0.37, 0.37))
        np.testing.assert_allclose(out.probabilities(), np.full(3, 1 / 3), atol=1e-12)

    def test_direct_normalization(self):
        state = init_posterior(Alphabet.default(3))
        out = update_generative(state, gen_event(0, 0.4, 0.1))
        np.testing.assert_allclose(out.probabilities(), [2 / 3, 1 / 6, 1 / 6], atol=1e-12)

    def test_scale_invariance(self):
        state = init_posterior(Alphabet.default(3))
        a = update_generative(state, gen_event(0, 0.4, 0.1))
        b = update_generative(state, gen_event(0, 4.0, 1.0))
        np.testing.assert_allclose(a.probabilities(), b.probabilities(), atol=1e-12)

    def test_mode_mismatch_rejected(self):
        state = init_posterior(Alphabet.default(3))
        with pytest.raises(ValueError):
            update_generative(state, disc_event(0, 0.5))


class TestApplyQuery:
    def test_empty_batch_is_identity(self):
        state = init_posterior(Alphabet.default(5))
        assert apply_query(state, [], LabelPrior(0.2)) is state

    def test_order_invariance(self):
        state = init_posterior(Alphabet.default(4))
        prior = LabelPrior(0.25)
        events = [disc_event(0, 0.8), disc_event(2, 0.3)]
        fwd = apply_query(state, events, prior)
        rev = apply_query(state, events[::-1], prior)
        np.testing.assert_allclose(fwd.probabilities(), rev.probabilities(), atol=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        state = init_posterior(Alphabet.default(5))
        rows = [(int(rng.integers(5)), "disc", float(rng.uniform(0.05, 0.95)), 0.0) for _ in range(3)]
        rows = [(q, m, p, 1.0 - p) for q, m, p, _ in rows]
        events = [disc_event(q, p) for q, _, p, _ in rows]
        out = apply_query(state, events, LabelPrior(0.2))
        expected = enumerated_posterior(5, rows, p_pos=0.2)
        np.testing.assert_allclose(out.probabilities(), expected, atol=1e-9)
        assert out.step == 3

    def test_mixed_modes_rejected(self):
        state = init_posterior(Alphabet.default(3))
        with pytest.raises(ValueError):
            apply_query(state, [disc_event(0, 0.5), gen_event(1, 1, 1)], LabelPrior(0.5))

    def test_discriminative_batch_needs_prior(self):
        state = init_posterior(Alphabet.default(3))
        with pytest.raises(ValueError):
            apply_query(state, [disc_event(0, 0.5)])


class TestDecide:
    def test_uniform_below_threshold(self):
        state = init_posterior(Alphabet.default(28))
        assert decide(state, 0.9) is None

    def test_confident_max(self):
        state = init_posterior(Alphabet.default(3), prior=(0.95, 0.03, 0.02))
        assert decide(state, 0.9) == 0

    def test_tie_breaks_to_lowest_index(self):
        state = init_posterior(Alphabet.default(2))
        assert decide(state, 0.5) == 0

    def test_threshold_validation(self):
        state = init_posterior(Alphabet.default(2))
        with pytest.raises(ValueError):
            decide(state, 0.0)
        with pytest.raises(ValueError):
            decide(state, 1.5)


class TestInvariants:
    def test_normalization_after_random_updates(self):
        rng = np.random.default_rng(42)
        prior = LabelPrior(0.2)
        for _ in range(200):
            a = int(rng.integers(2, 8))
            state = init_posterior(Alphabet.default(a))
            for _ in range(int(rng.integers(1, 12))):
                if rng.random() < 0.5:
                    ev = disc_event(int(rng.integers(a)), float(rng.uniform(0.01, 0.99)))
                    state = update_discriminative(state, ev, prior)
                else:
                    ev = gen_event(int(rng.integers(a)), float(rng.uniform(0.01, 3)), float(rng.uniform(0.01, 3)))
                    state = update_generative(state, ev)
                total = float(np.sum(np.exp(state.log_probs)))
                assert abs(total - 1.0) <= 1e-12
                assert np.all(state.probabilities() >= 0.0)

    def test_order_invariance_random_multisets(self):
        rng = np.random.default_rng(3)
        prior = LabelPrior(1 / 6)
        for _ in range(200):
            a = int(rng.integers(2, 7))
            state = init_posterior(Alphabet.default(a))
            events = [
                disc_event(int(rng.integers(a)), float(rng.uniform(0.02, 0.98)))
                for _ in range(int(rng.integers(1, 7)))
            ]
            perm = rng.permutation(len(events))
            fwd = apply_query(state, events, prior)
            shuf = apply_query(state, [events[i] for i in perm], prior)
            np.testing.assert_allclose(fwd.probabilities(), shuf.probabilities(), atol=1e-12)

    def test_oracle_equivalence_small_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = int(rng.integers(2, 7))
            n_events = int(rng.integers(1, 7))
            p_pos = float(rng.uniform(0.05, 0.6))
            rows = []
            for _ in range(n_events):
                q = int(rng.integers(a))
                pos = float(rng.uniform(0.02, 0.98))
                rows.append((q, "disc", pos, 1.0 - pos))
            state = init_posterior(Alphabet.default(a))
            out = apply_query(state, [disc_event(q, p) for q, _, p, _ in rows], LabelPrior(p_pos))
            expected = enumerated_posterior(a, rows, p_pos=p_pos)
            np.testing.assert_allclose(out.probabilities(), expected, atol=1e-9)

    def test_generative_matches_enumeration(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            a = int(rng.integers(2, 7))
            rows = [
                (int(rng.integers(a)), "gen", float(rng.uniform(0.05, 4)), float(rng.uniform(0.05, 4)))
                for _ in range(int(rng.integers(1, 7)))
            ]
            state = init_posterior(Alphabet.default(a))
            out = apply_query(state, [gen_event(q, p, n) for q, _, p, n in rows])
            expected = enumerated_posterior(a, rows)
            np.testing.assert_allclose(out.probabilities(), expected, atol=1e-9)

    def test_generative_discriminative_bridge(self):
        # converting densities to label posteriors with the same prior must
        # reproduce the generative update exactly
        rng = np.random.default_rng(23)
        for _ in range(200):
            a = int(rng.integers(2, 9))
            p_pos = float(rng.uniform(0.05, 0.7))
            prior = LabelPrior(p_pos)
            state = init_posterior(Alphabet.default(a))
            for _ in range(3):
                q = int(rng.integers(a))
                d_pos = float(rng.uniform(0.01, 5))
                d_neg = float(rng.uniform(0.01, 5))
                via_gen = update_generative(state, gen_event(q, d_pos, d_neg))
                pos = d_pos * p_pos / (d_pos * p_pos + d_neg * (1 - p_pos))
                via_disc = update_discriminative(state, disc_event(q, pos), prior)
                np.testing.assert_allclose(
                    via_gen.probabilities(), via_disc.probabilities(), atol=1e-9
                )
                state = via_gen

    def test_argmax_stability(self):
        # favorable evidence strictly raises the queried symbol relative to others
        rng = np.random.default_rng(31)
        prior = LabelPrior(0.25)
        for _ in range(100):
            a = 4
            weights = rng.uniform(0.1, 1.0, size=a)
            state = init_posterior(Alphabet.default(a), prior=weights)
            q = int(rng.integers(a))
            pos = float(rng.uniform(0.3, 0.95))  # pos/0.25 > neg/0.75 for pos > 0.25
            before = state.probabilities()
            after = update_discriminative(state, disc_event(q, pos), prior).probabilities()
            for other in range(a):
                if other == q:
                    continue
                assert after[q] / after[other] > before[q] / before[other]

    def test_states_are_immutable_values(self):
        state = init_posterior(Alphabet.default(3))
        with pytest.raises(ValueError):
            state.log_probs[0] = 0.0
        out = update_generative(state, gen_event(0, 2.0, 1.0))
        assert out is not state
        np.testing.assert_allclose(state.probabilities(), np.full(3, 1 / 3), atol=1e-15)
