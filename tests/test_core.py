import math

import numpy as np
import pytest

from rsvptyping.core import (
    DegenerateEvidenceError,
    LabelPrior,
    LikelihoodMode,
    apply_round,
    decide_rows,
    probabilities,
    update_factors,
)

from oracles import enumerated_posterior

DISC = LikelihoodMode.DISCRIMINATIVE
GEN = LikelihoodMode.GENERATIVE


def uniform(a):
    """The one-row uniform log posterior over ``a`` symbols."""
    return np.full((1, a), -math.log(a))


def normalized(weights):
    """The one-row log posterior of unnormalized ``weights``: a round with
    no slots only normalizes."""
    with np.errstate(divide="ignore"):
        log_w = np.log(np.asarray(weights, dtype=np.float64))[None]
    no_slots = np.empty((1, 0))
    return apply_round(log_w, no_slots, no_slots, no_slots)


def disc(index, pos):
    return (index, pos, 1.0 - pos)


def one_round(log_posterior, mode, events, label_prior=None):
    """Fold ``events``, (queried index, pos, neg) in the linear domain, into
    a one-row log posterior as one round of the filter."""
    queries, pos, neg = (np.array(v) for v in zip(*events))
    with np.errstate(divide="ignore"):
        log_pos, log_neg = update_factors(mode, np.log(pos), np.log(neg), label_prior)
    return apply_round(log_posterior, queries[None], log_pos[None], log_neg[None])


def probs(log_posterior):
    return probabilities(log_posterior)[0]


class TestTypes:
    def test_label_prior_bounds(self):
        with pytest.raises(ValueError):
            LabelPrior(0.0)
        with pytest.raises(ValueError):
            LabelPrior(1.0)
        assert LabelPrior(0.25).p_neg == 0.75


class TestInitPosterior:
    """Start posteriors: uniform, or any prior normalized by a round with
    no slots."""

    def test_uniform_default(self):
        np.testing.assert_allclose(probs(uniform(28)), np.full(28, 1 / 28), atol=1e-15)

    def test_custom_prior_normalized(self):
        np.testing.assert_allclose(np.exp(normalized((2, 1, 1))[0]), [0.5, 0.25, 0.25], atol=1e-15)

    def test_all_zero_prior(self):
        with pytest.raises(DegenerateEvidenceError):
            normalized((0, 0, 0))

    def test_huge_prior_entries_normalize(self):
        # their sum overflows float64; the log domain does not
        np.testing.assert_allclose(probs(normalized((1e308, 1e308, 0))), [0.5, 0.5, 0.0], atol=1e-15)

    def test_zero_entries_stay_impossible(self):
        out = probs(normalized((1, 0, 1)))
        assert out[1] == 0.0
        np.testing.assert_allclose(out, [0.5, 0.0, 0.5], atol=1e-15)


class TestDiscriminativeUpdate:
    def test_uninformative_evidence_is_identity(self):
        # pos equal to the label prior carries no information
        out = one_round(uniform(3), DISC, [disc(1, 1 / 3)], LabelPrior(1 / 3))
        np.testing.assert_allclose(probs(out), np.full(3, 1 / 3), atol=1e-12)

    def test_certain_positive_evidence(self):
        out = one_round(uniform(3), DISC, [disc(0, 1.0)], LabelPrior(1 / 3))
        np.testing.assert_allclose(probs(out), [1.0, 0.0, 0.0], atol=1e-15)

    def test_matches_enumeration_oracle(self):
        # A=4 uniform, query index 2, evidence (0.9, 0.1), p_pos=1/4
        out = one_round(uniform(4), DISC, [disc(2, 0.9)], LabelPrior(0.25))
        expected = enumerated_posterior(4, [(2, "disc", 0.9, 0.1)], p_pos=0.25)
        np.testing.assert_allclose(probs(out), expected, atol=1e-12)
        # oracle value frozen: (1/30, 1/30, 9/10, 1/30)
        np.testing.assert_allclose(expected, [1 / 30, 1 / 30, 0.9, 1 / 30], atol=1e-12)

    def test_degenerate_evidence_raises(self):
        # all prior mass on the queried symbol, evidence says "not it"
        with pytest.raises(DegenerateEvidenceError):
            one_round(normalized((1, 0, 0)), DISC, [disc(0, 0.0)], LabelPrior(1 / 3))

    def test_certain_evidence_on_zero_mass_symbol_raises(self):
        with pytest.raises(DegenerateEvidenceError):
            one_round(normalized((0, 1, 1)), DISC, [disc(0, 1.0)], LabelPrior(1 / 3))


class TestGenerativeUpdate:
    def test_equal_densities_cancel(self):
        out = one_round(uniform(3), GEN, [(0, 0.37, 0.37)])
        np.testing.assert_allclose(probs(out), np.full(3, 1 / 3), atol=1e-12)

    def test_direct_normalization(self):
        out = one_round(uniform(3), GEN, [(0, 0.4, 0.1)])
        np.testing.assert_allclose(probs(out), [2 / 3, 1 / 6, 1 / 6], atol=1e-12)

    def test_scale_invariance(self):
        a = one_round(uniform(3), GEN, [(0, 0.4, 0.1)])
        b = one_round(uniform(3), GEN, [(0, 4.0, 1.0)])
        np.testing.assert_allclose(probs(a), probs(b), atol=1e-12)


class TestApplyQuery:
    def test_empty_batch_is_identity(self):
        # a round with no slots only normalizes, and a uniform row already is
        no_slots = np.empty((1, 0))
        out = apply_round(uniform(5), no_slots, no_slots, no_slots)
        np.testing.assert_allclose(out, uniform(5), rtol=0, atol=1e-15)

    def test_order_invariance(self):
        prior = LabelPrior(0.25)
        events = [disc(0, 0.8), disc(2, 0.3)]
        fwd = one_round(uniform(4), DISC, events, prior)
        rev = one_round(uniform(4), DISC, events[::-1], prior)
        np.testing.assert_allclose(probs(fwd), probs(rev), atol=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        rows = [(int(rng.integers(5)), "disc", float(rng.uniform(0.05, 0.95)), 0.0) for _ in range(3)]
        rows = [(q, m, p, 1.0 - p) for q, m, p, _ in rows]
        out = one_round(uniform(5), DISC, [disc(q, p) for q, _, p, _ in rows], LabelPrior(0.2))
        expected = enumerated_posterior(5, rows, p_pos=0.2)
        np.testing.assert_allclose(probs(out), expected, atol=1e-9)

    def test_discriminative_batch_needs_prior(self):
        with pytest.raises(ValueError, match="label prior"):
            update_factors(DISC, np.log([0.5]), np.log([0.5]))


class TestDecide:
    def test_uniform_below_threshold(self):
        best, confident = decide_rows(uniform(28), 0.9)
        assert not confident[0]

    def test_confident_max(self):
        best, confident = decide_rows(normalized((0.95, 0.03, 0.02)), 0.9)
        assert confident[0] and best[0] == 0

    def test_tie_breaks_to_lowest_index(self):
        best, confident = decide_rows(uniform(2), 0.5)
        assert confident[0] and best[0] == 0
        best, _ = decide_rows(normalized((1, 3, 3, 1)), 0.9)
        assert best[0] == 1


class TestInvariants:
    def test_normalization_after_random_updates(self):
        rng = np.random.default_rng(42)
        prior = LabelPrior(0.2)
        for _ in range(200):
            a = int(rng.integers(2, 8))
            state = uniform(a)
            for _ in range(int(rng.integers(1, 12))):
                if rng.random() < 0.5:
                    ev = disc(int(rng.integers(a)), float(rng.uniform(0.01, 0.99)))
                    state = one_round(state, DISC, [ev], prior)
                else:
                    ev = (int(rng.integers(a)), float(rng.uniform(0.01, 3)), float(rng.uniform(0.01, 3)))
                    state = one_round(state, GEN, [ev])
                total = float(np.sum(np.exp(state)))
                assert abs(total - 1.0) <= 1e-12
                assert np.all(probs(state) >= 0.0)

    def test_order_invariance_random_multisets(self):
        rng = np.random.default_rng(3)
        prior = LabelPrior(1 / 6)
        for _ in range(200):
            a = int(rng.integers(2, 7))
            events = [
                disc(int(rng.integers(a)), float(rng.uniform(0.02, 0.98)))
                for _ in range(int(rng.integers(1, 7)))
            ]
            perm = rng.permutation(len(events))
            fwd = one_round(uniform(a), DISC, events, prior)
            shuf = one_round(uniform(a), DISC, [events[i] for i in perm], prior)
            np.testing.assert_allclose(probs(fwd), probs(shuf), atol=1e-12)

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
            out = one_round(uniform(a), DISC, [disc(q, p) for q, _, p, _ in rows], LabelPrior(p_pos))
            expected = enumerated_posterior(a, rows, p_pos=p_pos)
            np.testing.assert_allclose(probs(out), expected, atol=1e-9)

    def test_generative_matches_enumeration(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            a = int(rng.integers(2, 7))
            rows = [
                (int(rng.integers(a)), "gen", float(rng.uniform(0.05, 4)), float(rng.uniform(0.05, 4)))
                for _ in range(int(rng.integers(1, 7)))
            ]
            out = one_round(uniform(a), GEN, [(q, p, n) for q, _, p, n in rows])
            expected = enumerated_posterior(a, rows)
            np.testing.assert_allclose(probs(out), expected, atol=1e-9)

    def test_generative_discriminative_bridge(self):
        # converting densities to label posteriors with the same prior must
        # reproduce the generative update exactly
        rng = np.random.default_rng(23)
        for _ in range(200):
            a = int(rng.integers(2, 9))
            p_pos = float(rng.uniform(0.05, 0.7))
            prior = LabelPrior(p_pos)
            state = uniform(a)
            for _ in range(3):
                q = int(rng.integers(a))
                d_pos = float(rng.uniform(0.01, 5))
                d_neg = float(rng.uniform(0.01, 5))
                via_gen = one_round(state, GEN, [(q, d_pos, d_neg)])
                pos = d_pos * p_pos / (d_pos * p_pos + d_neg * (1 - p_pos))
                via_disc = one_round(state, DISC, [disc(q, pos)], prior)
                np.testing.assert_allclose(probs(via_gen), probs(via_disc), atol=1e-9)
                state = via_gen

    def test_argmax_stability(self):
        # favorable evidence strictly raises the queried symbol relative to others
        rng = np.random.default_rng(31)
        prior = LabelPrior(0.25)
        for _ in range(100):
            a = 4
            state = normalized(rng.uniform(0.1, 1.0, size=a))
            q = int(rng.integers(a))
            pos = float(rng.uniform(0.3, 0.95))  # pos/0.25 > neg/0.75 for pos > 0.25
            before = probs(state)
            after = probs(one_round(state, DISC, [disc(q, pos)], prior))
            for other in range(a):
                if other == q:
                    continue
                assert after[q] / after[other] > before[q] / before[other]

    def test_states_are_immutable_values(self):
        # a round returns a new matrix and leaves the one it was given alone
        state = uniform(3)
        before = state.copy()
        out = one_round(state, GEN, [(0, 2.0, 1.0)])
        assert out is not state
        np.testing.assert_array_equal(state, before)
