"""Simulated typing harness and evaluation metrics.

An attempt tries to type one target symbol: the posterior starts uniform,
queries present batches of symbols, each presentation draws the evidence of
a matching test epoch (positive pool when the queried symbol is the target,
negative pool otherwise), and the core update folds it into the posterior.
The model scores every pool epoch once, as arrays, before the first
attempt. The attempt ends when a symbol crosses the decision threshold, or
after a fixed number of rounds.

Attempts use independently derived RNG streams, so results do not depend on
execution order and a run is exactly reproducible from its seed.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    Alphabet,
    LabelPrior,
    LikelihoodMode,
    LikelihoodPair,
    QueryEvent,
    apply_query,
    decide,
    init_posterior,
)
from .models import EvidenceModel, bayes_positive, empirical_prior, uniform_prior
from .synth import LabeledDataset, SplitIndices
from . import synth


class SubChanceAccuracyWarning(UserWarning):
    """Typing accuracy fell below 1/A; the ITR formula is still positive
    there, so the value needs this flag to be read correctly."""


class QueryStrategy(Enum):
    WITH_REPLACEMENT = "sample-with-replacement"
    WITHOUT_REPLACEMENT = "sample-without-replacement"
    TOP_K = "top-k"


@dataclass(frozen=True)
class TypingConfig:
    """Protocol constants for a typing run.

    ``stop_on_wrong`` ends an attempt when any symbol crosses the threshold,
    matching a real system that types whatever crossed. Setting it False
    restores the literal loop of the simulation algorithm, which only stops
    early on the correct symbol. ``record_traces`` can be disabled for large
    runs to avoid storing per-round posteriors.
    """

    attempts: int = 1000
    max_rounds: int = 10
    symbols_per_query: int = 10
    alphabet: Alphabet = dataclasses.field(default_factory=Alphabet.default)
    threshold: float = 0.9
    label_prior: Optional[LabelPrior] = None
    query_strategy: QueryStrategy = QueryStrategy.WITH_REPLACEMENT
    seed: int = 0
    stop_on_wrong: bool = True
    record_traces: bool = True

    def __post_init__(self) -> None:
        if self.attempts < 1 or self.max_rounds < 1 or self.symbols_per_query < 1:
            raise ValueError("attempts, max_rounds and symbols_per_query must be >= 1")
        if not (0.0 < self.threshold <= 1.0):
            raise ValueError("threshold must lie in (0, 1]")
        # repeats within a query are only possible when sampling with replacement
        if self.query_strategy is not QueryStrategy.WITH_REPLACEMENT:
            if self.symbols_per_query > self.alphabet.size:
                raise ValueError(
                    f"symbols_per_query {self.symbols_per_query} exceeds alphabet "
                    f"size {self.alphabet.size} for strategy "
                    f"{self.query_strategy.value!r}"
                )

    def resolved_prior(self) -> LabelPrior:
        if self.label_prior is not None:
            return self.label_prior
        return LabelPrior.uniform_over(self.alphabet.size)


@dataclass(frozen=True)
class EvidencePools:
    """Held-out epochs the simulator draws responses from, split by label."""

    positive: LabeledDataset
    negative: LabeledDataset

    def __post_init__(self) -> None:
        if len(self.positive) == 0 or len(self.negative) == 0:
            raise ValueError("both pools must be nonempty")

    @classmethod
    def from_dataset(cls, dataset: LabeledDataset) -> "EvidencePools":
        labels = dataset.labels
        return cls(
            positive=dataset.subset(np.flatnonzero(labels == 1)),
            negative=dataset.subset(np.flatnonzero(labels == 0)),
        )


@dataclass(frozen=True)
class AttemptTrace:
    target: int
    queries: tuple[tuple[int, ...], ...]
    posteriors: tuple[np.ndarray, ...]
    outcome: str


@dataclass(frozen=True)
class TypingResult:
    attempts: int
    correct: int
    wrong: int
    timeout: int
    accuracy: float
    itr_bits_per_symbol: float
    traces: tuple[AttemptTrace, ...]

    def __post_init__(self) -> None:
        counts = (self.correct, self.wrong, self.timeout)
        if min(counts) < 0 or sum(counts) != self.attempts:
            raise ValueError("outcome counts must partition the attempts")
        if self.accuracy != self.correct / self.attempts:
            raise ValueError("accuracy must equal correct / attempts")


def itr(alphabet_size: int, accuracy: float) -> float:
    """Bits per attempted symbol of an A-ary channel at accuracy P.

    Uses the 0 * log 0 = 0 convention at both endpoints. The value is zero
    exactly at chance (P = 1/A) and positive elsewhere, including below
    chance.
    """
    if alphabet_size < 2:
        raise ValueError("alphabet size must be at least 2")
    if not (0.0 <= accuracy <= 1.0):
        raise ValueError("accuracy must lie in [0, 1]")
    bits = math.log2(alphabet_size)
    if accuracy > 0.0:
        bits += accuracy * math.log2(accuracy)
    if accuracy < 1.0:
        bits += (1.0 - accuracy) * math.log2((1.0 - accuracy) / (alphabet_size - 1))
    return bits


def select_query(
    probabilities: np.ndarray,
    k: int,
    strategy: QueryStrategy,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pick the next k symbols to present."""
    p = np.asarray(probabilities, dtype=np.float64)
    size = p.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if strategy is QueryStrategy.WITH_REPLACEMENT:
        return rng.choice(size, size=k, replace=True, p=p)
    if strategy is QueryStrategy.TOP_K:
        if k > size:
            raise ValueError("k exceeds the alphabet")
        order = np.argsort(-p, kind="stable")  # ties broken by lower index
        return order[:k]
    if k > size:
        raise ValueError("k exceeds the alphabet")
    remaining = list(range(size))
    weights = p.copy()
    picks = []
    for _ in range(k):
        total = weights[remaining].sum()
        if total > 0.0:
            probs = weights[remaining] / total
        else:
            # all remaining mass is zero: fall back to uniform
            probs = np.full(len(remaining), 1.0 / len(remaining))
        chosen = remaining[int(rng.choice(len(remaining), p=probs))]
        picks.append(chosen)
        remaining.remove(chosen)
    return np.asarray(picks, dtype=np.int64)


def _pool_pairs(model: EvidenceModel, pool: LabeledDataset) -> list[LikelihoodPair]:
    pos, neg = model.predict_batch(pool)
    return [LikelihoodPair(model.mode, p, n) for p, n in zip(pos.tolist(), neg.tolist())]


def run_typing(
    model: EvidenceModel, pools: EvidencePools, config: TypingConfig
) -> TypingResult:
    """Simulate ``config.attempts`` independent attempts to type a symbol.

    Model outputs for every pool epoch are precomputed once, since the model
    is deterministic. Each attempt gets its own RNG stream spawned from the
    run seed, so the result is independent of attempt execution order. An
    update that wipes out all posterior mass (possible only with hard 0/1
    evidence) propagates as DegenerateEvidenceError.
    """
    alphabet = config.alphabet
    prior = config.resolved_prior()
    pos_pairs = _pool_pairs(model, pools.positive)
    neg_pairs = _pool_pairs(model, pools.negative)
    needs_prior = model.mode is LikelihoodMode.DISCRIMINATIVE
    seeds = np.random.SeedSequence(config.seed).spawn(config.attempts)

    correct = wrong = timeout = 0
    traces: list[AttemptTrace] = []
    for seq in seeds:
        rng = np.random.default_rng(seq)
        target = int(rng.integers(alphabet.size))
        state = init_posterior(alphabet)
        outcome = "timeout"
        queries: list[tuple[int, ...]] = []
        posteriors: list[np.ndarray] = []
        for _ in range(config.max_rounds):
            query = select_query(
                state.probabilities(), config.symbols_per_query,
                config.query_strategy, rng,
            )
            events = []
            for q in query:
                q = int(q)
                if q == target:
                    pair = pos_pairs[int(rng.integers(len(pos_pairs)))]
                else:
                    pair = neg_pairs[int(rng.integers(len(neg_pairs)))]
                events.append(QueryEvent(queried_index=q, likelihood=pair))
            state = apply_query(state, events, prior if needs_prior else None)
            if config.record_traces:
                queries.append(tuple(int(q) for q in query))
                posteriors.append(state.probabilities())
            decision = decide(state, config.threshold)
            if decision is not None:
                if decision == target:
                    outcome = "correct"
                    break
                if config.stop_on_wrong:
                    outcome = "wrong"
                    break
        if outcome == "correct":
            correct += 1
        elif outcome == "wrong":
            wrong += 1
        else:
            timeout += 1
        if config.record_traces:
            traces.append(
                AttemptTrace(
                    target=target,
                    queries=tuple(queries),
                    posteriors=tuple(posteriors),
                    outcome=outcome,
                )
            )

    accuracy = correct / config.attempts
    if accuracy < 1.0 / alphabet.size:
        warnings.warn(
            f"typing accuracy {accuracy:.4f} is below chance 1/{alphabet.size}",
            SubChanceAccuracyWarning,
            stacklevel=2,
        )
    return TypingResult(
        attempts=config.attempts,
        correct=correct,
        wrong=wrong,
        timeout=timeout,
        accuracy=accuracy,
        itr_bits_per_symbol=itr(alphabet.size, accuracy),
        traces=tuple(traces),
    )


def balanced_accuracy(predicted: Sequence[int], truth: Sequence[int]) -> float:
    """Mean of the two per-class recalls."""
    pred = np.asarray(predicted)
    true = np.asarray(truth)
    if pred.shape != true.shape or pred.ndim != 1:
        raise ValueError("predicted and true labels must be equal-length vectors")
    if not (np.all(np.isin(pred, (0, 1))) and np.all(np.isin(true, (0, 1)))):
        raise ValueError("labels must be 0 or 1")
    recalls = []
    for cls in (0, 1):
        mask = true == cls
        if not mask.any():
            raise ValueError("both classes must be present in the truth")
        recalls.append(float(np.mean(pred[mask] == cls)))
    return (recalls[0] + recalls[1]) / 2.0


def classify_epochs(
    model: EvidenceModel,
    dataset: LabeledDataset,
    conversion_prior: Optional[LabelPrior] = None,
) -> np.ndarray:
    """Hard label predictions: argmax of the discriminative pair, ties to the
    positive class. Generative outputs are first converted with Bayes' rule
    under ``conversion_prior`` (uniform 50/50 when not given)."""
    pos, neg = model.predict_batch(dataset)
    if model.mode is LikelihoodMode.GENERATIVE:
        prior = conversion_prior if conversion_prior is not None else uniform_prior()
        pos = bayes_positive(pos, neg, prior)
        neg = 1.0 - pos
    return (pos >= neg).astype(np.int64)


@dataclass(frozen=True)
class SplitMetrics:
    split_index: int
    balanced_accuracy: float
    typing_accuracy: float
    itr_bits_per_symbol: float


@dataclass(frozen=True)
class SplitSummary:
    per_split: tuple[SplitMetrics, ...]
    mean_balanced_accuracy: float
    std_balanced_accuracy: float
    mean_itr: float
    std_itr: float

    @classmethod
    def from_metrics(cls, rows: Sequence[SplitMetrics]) -> "SplitSummary":
        bas = np.asarray([r.balanced_accuracy for r in rows])
        itrs = np.asarray([r.itr_bits_per_symbol for r in rows])
        # population std, matching a "mean +/- std over the splits" report
        return cls(
            per_split=tuple(rows),
            mean_balanced_accuracy=float(bas.mean()),
            std_balanced_accuracy=float(bas.std()),
            mean_itr=float(itrs.mean()),
            std_itr=float(itrs.std()),
        )


def evaluate_splits(
    model_factory: Callable[[LabeledDataset], EvidenceModel],
    dataset: LabeledDataset,
    typing_config: TypingConfig,
    *,
    n_splits: int = 5,
    split_seed: int = 0,
    conversion_prior: Optional[LabelPrior] = None,
    empirical_conversion: bool = False,
) -> SplitSummary:
    """Retrain and evaluate a model on each train/test split.

    Balanced accuracy is measured on the held-out epochs; typing runs draw
    from pools built from the same held-out epochs. Split k's typing run uses
    seed ``typing_config.seed + k`` so splits are independent but the whole
    evaluation stays a pure function of its arguments.

    With ``empirical_conversion`` the label prior used to turn generative
    densities into label predictions is refit from each split's training
    labels, overriding ``conversion_prior``. The typing runs are unaffected:
    only the balanced-accuracy column responds to the conversion prior.
    """
    splits: Sequence[SplitIndices] = dataset.splits or synth.split(
        dataset, n_splits=n_splits, seed=split_seed
    )
    if len(splits) != n_splits:
        raise ValueError(f"expected {n_splits} splits, dataset carries {len(splits)}")
    rows = []
    for k, s in enumerate(splits):
        # the training copy is not kept: scoring the test epochs is this
        # loop's memory peak
        model = model_factory(dataset.subset(s.train))
        prior = conversion_prior
        if empirical_conversion:
            prior = empirical_prior(dataset.labels[list(s.train)])
        test = dataset.subset(s.test)
        predictions = classify_epochs(model, test, prior)
        ba = balanced_accuracy(predictions, test.labels)
        pools = EvidencePools.from_dataset(test)
        run_config = dataclasses.replace(
            typing_config, seed=typing_config.seed + k, record_traces=False
        )
        result = run_typing(model, pools, run_config)
        rows.append(
            SplitMetrics(
                split_index=k,
                balanced_accuracy=ba,
                typing_accuracy=result.accuracy,
                itr_bits_per_symbol=result.itr_bits_per_symbol,
            )
        )
    return SplitSummary.from_metrics(rows)
