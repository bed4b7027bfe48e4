"""Simulated typing harness and evaluation metrics.

An attempt tries to type one target symbol: the posterior starts uniform,
queries present batches of symbols, each presentation draws the evidence of
a matching test epoch (positive pool when the queried symbol is the target,
negative pool otherwise), and the recursive Bayesian update folds it into
the posterior. The attempt ends when a symbol crosses the decision
threshold, or after a fixed number of rounds.

Typing never calls a model: it takes the held-out epochs' evidence, the
(log_pos, log_neg) arrays a model scored once per split, and their labels,
which split the factors into the two pools. All attempts of a run step
together as one (attempts, A) log-posterior matrix: one query selection,
one evidence draw and one normalization per round for every row still
typing. The scalar updates in ``core`` are the reference this kernel is
tested against.

A run draws from one generator seeded with its ``seed``; every round draws
for every attempt, finished or not, so an attempt's path never depends on
another attempt's outcome and a run is exactly reproducible from its
config.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .core import Alphabet, DegenerateEvidenceError, LabelPrior, LikelihoodMode
from .models import EvidenceModel, empirical_prior, prior_weighted, uniform_prior
from .synth import LabeledDataset
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

@dataclass(frozen=True)
class AttemptTrace:
    target: int
    queries: tuple[tuple[int, ...], ...]
    posteriors: tuple[np.ndarray, ...]
    outcome: str


@dataclass(frozen=True)
class TypingResult:
    """Outcome counts of a run. ``rounds_to_decision[r - 1]`` counts the
    attempts that stopped on a decision (correct or wrong) in round r."""

    attempts: int
    correct: int
    wrong: int
    timeout: int
    accuracy: float
    itr_bits_per_symbol: float
    traces: tuple[AttemptTrace, ...]
    rounds_to_decision: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        counts = (self.correct, self.wrong, self.timeout)
        if min(counts) < 0 or sum(counts) != self.attempts:
            raise ValueError("outcome counts must partition the attempts")
        if self.accuracy != self.correct / self.attempts:
            raise ValueError("accuracy must equal correct / attempts")
        if self.rounds_to_decision and sum(self.rounds_to_decision) != self.correct + self.wrong:
            raise ValueError("rounds to decision must count the decided attempts")


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


def _probabilities(log_posterior: np.ndarray) -> np.ndarray:
    """Each row in the linear domain, renormalized against drift, as
    PosteriorState.probabilities does for one state."""
    weights = np.exp(log_posterior - log_posterior.max(axis=1, keepdims=True))
    return weights / weights.sum(axis=1, keepdims=True)


def select_queries(
    log_posterior: np.ndarray,
    k: int,
    strategy: QueryStrategy,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pick the next k symbols for every row of a (rows, A) log-posterior
    matrix; returns (rows, k) symbol indices.

    With replacement: inverse CDF, one uniform per slot. Without
    replacement: Gumbel-top-k on the log-posterior (Kool et al., ICML 2019),
    distributed as drawing one symbol at a time in proportion to the mass
    not yet drawn; zero-mass symbols come after every positive-mass one, in
    uniform random order. Top-k: the k most probable, ties to the lower
    index.
    """
    log_p = np.asarray(log_posterior, dtype=np.float64)
    rows, size = log_p.shape
    if k < 1:
        raise ValueError("k must be >= 1")
    if strategy is QueryStrategy.WITH_REPLACEMENT:
        weights = _probabilities(log_p)
        cdf = np.cumsum(weights, axis=1)
        points = rng.random((rows, k)) * cdf[:, -1:]
        picks = np.sum(cdf[:, None, :] <= points[:, :, None], axis=2)
        # a point that rounds up to the total stays on the last symbol with mass
        last = size - 1 - np.argmax(weights[:, ::-1] > 0.0, axis=1)
        return np.minimum(picks, last[:, None])
    if k > size:
        raise ValueError("k exceeds the alphabet")
    if strategy is QueryStrategy.TOP_K:
        return np.argsort(-log_p, axis=1, kind="stable")[:, :k]
    gumbel = rng.gumbel(size=(rows, size))
    possible = log_p > -np.inf
    keys = np.where(possible, log_p + gumbel, gumbel)
    # positive mass first, then by descending perturbed log-probability
    return np.lexsort((-keys, ~possible), axis=1)[:, :k]


def apply_round(
    log_posterior: np.ndarray,
    queries: np.ndarray,
    log_pos: np.ndarray,
    log_neg: np.ndarray,
) -> np.ndarray:
    """Fold one round of presentations into each row, then renormalize once.

    ``queries``, ``log_pos`` and ``log_neg`` are (rows, slots): slot j of a
    row scales the queried symbol's mass by exp(log_pos) and every other
    symbol's by exp(log_neg). Every slot applies, repeats included, so this
    equals core.apply_query over the row's events in any order. Factors are
    added, never subtracted, so -inf evidence cannot produce NaN. A row left
    without mass raises DegenerateEvidenceError.
    """
    mass = np.array(log_posterior, dtype=np.float64)
    symbols = np.arange(mass.shape[1])
    for j in range(queries.shape[1]):
        queried = queries[:, j, None] == symbols
        mass += np.where(queried, log_pos[:, j, None], log_neg[:, j, None])
    peak = mass.max(axis=1, keepdims=True)
    if not np.all(peak > -np.inf):
        raise DegenerateEvidenceError(
            "evidence assigns zero mass to every symbol with remaining prior mass"
        )
    return mass - (peak + np.log(np.sum(np.exp(mass - peak), axis=1, keepdims=True)))


def decide_rows(log_posterior: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """For each row, the most probable symbol (ties to the lowest index) and
    whether its probability reaches ``threshold``, as core.decide."""
    probs = _probabilities(log_posterior)
    best = np.argmax(probs, axis=1)
    return best, probs[np.arange(best.shape[0]), best] >= threshold


OUTCOMES = ("timeout", "correct", "wrong")
TIMEOUT, CORRECT, WRONG = range(3)


def run_typing(
    mode: LikelihoodMode,
    log_pos: np.ndarray,
    log_neg: np.ndarray,
    labels: np.ndarray,
    config: TypingConfig,
) -> TypingResult:
    """Simulate ``config.attempts`` independent attempts to type a symbol.

    ``log_pos`` and ``log_neg`` are the evidence of the held-out epochs, one
    entry per epoch, as a model of likelihood ``mode`` scored it; no model
    is called here. ``labels`` splits the epochs into the positive pool,
    drawn when the queried symbol is the target, and the negative pool;
    both must be nonempty. Discriminative factors are divided by the label
    prior 1/A here. The attempts then step together through an (attempts,
    A) log-posterior matrix: each round selects queries for every row, draws
    a pool epoch for every (attempt, slot), folds the evidence into the rows
    still typing and decides them.

    RNG contract: one generator seeded with ``config.seed`` draws the
    targets, then in each round the query randomness and both pools'
    indices for every attempt, finished or not, so an attempt's path never
    depends on another attempt's outcome. An update that wipes out all
    posterior mass (possible only with hard 0/1 evidence) propagates as
    DegenerateEvidenceError.
    """
    size = config.alphabet.size
    n, k = config.attempts, config.symbols_per_query
    # (2, epochs): the factor of the queried symbol, then of every other one
    evidence = np.array([log_pos, log_neg], dtype=np.float64)
    if mode is LikelihoodMode.DISCRIMINATIVE:
        prior = LabelPrior.uniform_over(size)
        evidence -= np.array([[math.log(prior.p_pos)], [math.log(prior.p_neg)]])
    positive = np.asarray(labels) == 1
    if positive.all() or not positive.any():
        raise ValueError("both pools must be nonempty")
    target_evidence, other_evidence = evidence[:, positive], evidence[:, ~positive]

    rng = np.random.default_rng(config.seed)
    targets = rng.integers(size, size=n)
    log_posterior = np.full((n, size), -math.log(size))
    active = np.ones(n, dtype=bool)
    outcome = np.full(n, TIMEOUT)
    rounds = np.full(n, config.max_rounds)
    history: list[tuple[np.ndarray, np.ndarray]] = []
    for r in range(1, config.max_rounds + 1):
        queries = select_queries(log_posterior, k, config.query_strategy, rng)
        target_draw = rng.integers(target_evidence.shape[1], size=(n, k))
        other_draw = rng.integers(other_evidence.shape[1], size=(n, k))
        live = np.flatnonzero(active)
        query = queries[live]
        evidence = np.where(
            query == targets[live, None],
            target_evidence[:, target_draw[live]],
            other_evidence[:, other_draw[live]],
        )
        log_posterior[live] = apply_round(log_posterior[live], query, evidence[0], evidence[1])
        if config.record_traces:
            history.append((queries, _probabilities(log_posterior)))
        best, confident = decide_rows(log_posterior[live], config.threshold)
        right = confident & (best == targets[live])
        stop = right | (confident & config.stop_on_wrong)
        outcome[live[stop]] = np.where(right[stop], CORRECT, WRONG)
        rounds[live[stop]] = r
        active[live[stop]] = False
        if not active.any():
            break

    traces: tuple[AttemptTrace, ...] = ()
    if config.record_traces:
        traces = tuple(
            AttemptTrace(
                target=int(targets[i]),
                queries=tuple(tuple(q[i].tolist()) for q, _ in history[: rounds[i]]),
                posteriors=tuple(p[i] for _, p in history[: rounds[i]]),
                outcome=OUTCOMES[outcome[i]],
            )
            for i in range(n)
        )
    counts = np.bincount(outcome, minlength=len(OUTCOMES))
    correct = int(counts[CORRECT])
    accuracy = correct / n
    if accuracy < 1.0 / size:
        warnings.warn(
            f"typing accuracy {accuracy:.4f} is below chance 1/{size}",
            SubChanceAccuracyWarning,
            stacklevel=2,
        )
    decided = rounds[outcome != TIMEOUT]
    return TypingResult(
        attempts=n,
        correct=correct,
        wrong=int(counts[WRONG]),
        timeout=int(counts[TIMEOUT]),
        accuracy=accuracy,
        itr_bits_per_symbol=itr(size, accuracy),
        traces=traces,
        rounds_to_decision=tuple(
            np.bincount(decided - 1, minlength=config.max_rounds).tolist()
        ),
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
    mode: LikelihoodMode,
    log_pos: np.ndarray,
    log_neg: np.ndarray,
    conversion_prior: Optional[LabelPrior] = None,
) -> np.ndarray:
    """Hard label predictions from a model's evidence: argmax of the
    discriminative pair, ties to the positive class, compared in the log
    domain. Generative densities are first weighted by ``conversion_prior``
    (uniform 50/50 when not given), which is Bayes' rule up to the shared
    normalizer."""
    if mode is LikelihoodMode.GENERATIVE:
        prior = conversion_prior if conversion_prior is not None else uniform_prior()
        log_pos, log_neg = prior_weighted(log_pos, log_neg, prior)
    return (log_pos >= log_neg).astype(np.int64)


@dataclass(frozen=True)
class SplitMetrics:
    split_index: int
    balanced_accuracy: float
    typing: TypingResult


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
        itrs = np.asarray([r.typing.itr_bits_per_symbol for r in rows])
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
    empirical_conversion: bool = False,
) -> SplitSummary:
    """Retrain and evaluate a model on each train/test split.

    The model scores each split's held-out epochs once. Balanced accuracy
    is measured on that evidence, and the typing run draws from the same
    evidence, split by label. Split k's typing run uses seed
    ``typing_config.seed + k`` so splits are independent but the whole
    evaluation stays a pure function of its arguments.

    With ``empirical_conversion`` the label prior used to turn generative
    densities into label predictions is refit from each split's training
    labels instead of the uniform 50/50. The typing runs are unaffected:
    only the balanced-accuracy column responds to the conversion prior.
    """
    rows = []
    for k, s in enumerate(synth.split(dataset, n_splits=n_splits, seed=split_seed)):
        # the training copy is not kept: scoring the test epochs is this
        # loop's memory peak
        model = model_factory(dataset.subset(s.train))
        prior = empirical_prior(dataset.labels[list(s.train)]) if empirical_conversion else None
        test = dataset.subset(s.test)
        log_pos, log_neg = model.predict_batch(test)
        predictions = classify_epochs(model.mode, log_pos, log_neg, prior)
        run_config = dataclasses.replace(
            typing_config, seed=typing_config.seed + k, record_traces=False
        )
        rows.append(
            SplitMetrics(
                split_index=k,
                balanced_accuracy=balanced_accuracy(predictions, test.labels),
                typing=run_typing(model.mode, log_pos, log_neg, test.labels, run_config),
            )
        )
    return SplitSummary.from_metrics(rows)
