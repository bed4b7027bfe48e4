"""Simulated typing harness and evaluation metrics.

An attempt tries to type one target symbol: the posterior starts uniform,
queries present batches of symbols, each presentation draws the evidence of
a matching test epoch (positive pool when the queried symbol is the target,
negative pool otherwise), and the recursive Bayesian update folds it into
the posterior. The attempt ends when a symbol crosses the decision
threshold, or after a fixed number of rounds.

Typing never calls a model: it takes the held-out epochs' evidence, the
log-likelihood ratio array a model scored once per split, and their labels,
which split it into the two pools. A presentation acts on the posterior
only through its ratio: the queried symbol gains it over every other
symbol, and the renormalization removes anything the symbols share. All
attempts of a run step together as one (attempts, A) log-posterior matrix:
one query selection, one evidence draw and one normalization per round for
every row still typing, through the posterior filter in ``core``.

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

from .core import apply_round, decide_rows, probabilities
from .models import DEFAULT_ALPHABET_SIZE, EvidenceModel, LogisticFit
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
    early on the correct symbol.
    """

    attempts: int = 1000
    max_rounds: int = 10
    symbols_per_query: int = 10
    alphabet_size: int = DEFAULT_ALPHABET_SIZE
    threshold: float = 0.9
    query_strategy: QueryStrategy = QueryStrategy.WITH_REPLACEMENT
    seed: int = 0
    stop_on_wrong: bool = True

    def __post_init__(self) -> None:
        if self.alphabet_size < 2:
            raise ValueError("alphabet needs at least 2 symbols")
        if self.attempts < 1 or self.max_rounds < 1 or self.symbols_per_query < 1:
            raise ValueError("attempts, max_rounds and symbols_per_query must be >= 1")
        if not (0.0 < self.threshold <= 1.0):
            raise ValueError("threshold must lie in (0, 1]")
        # repeats within a query are only possible when sampling with replacement
        if self.query_strategy is not QueryStrategy.WITH_REPLACEMENT:
            if self.symbols_per_query > self.alphabet_size:
                raise ValueError(
                    f"symbols_per_query {self.symbols_per_query} exceeds alphabet "
                    f"size {self.alphabet_size} for strategy "
                    f"{self.query_strategy.value!r}"
                )


OUTCOMES = ("timeout", "correct", "wrong")
TIMEOUT, CORRECT, WRONG = range(3)


@dataclass(frozen=True, eq=False)
class TypingResult:
    """A run's per-attempt arrays: the ``target`` symbol, the ``outcome``
    (an index into ``OUTCOMES``), the ``rounds`` presented (``max_rounds``
    for a timeout) and the final ``(attempts, A)`` ``log_posterior``. The
    counts and rates are read off them; ``rounds_to_decision[r - 1]``
    counts the attempts that stopped on a decision (correct or wrong) in
    round r."""

    target: np.ndarray
    outcome: np.ndarray
    rounds: np.ndarray
    log_posterior: np.ndarray
    max_rounds: int

    @property
    def attempts(self) -> int:
        return self.outcome.size

    @property
    def correct(self) -> int:
        return int(np.count_nonzero(self.outcome == CORRECT))

    @property
    def wrong(self) -> int:
        return int(np.count_nonzero(self.outcome == WRONG))

    @property
    def timeout(self) -> int:
        return int(np.count_nonzero(self.outcome == TIMEOUT))

    @property
    def accuracy(self) -> float:
        return self.correct / self.attempts

    @property
    def below_chance(self) -> bool:
        return self.accuracy < 1.0 / self.log_posterior.shape[1]

    @property
    def itr_bits_per_symbol(self) -> float:
        return itr(self.log_posterior.shape[1], self.accuracy)

    @property
    def rounds_to_decision(self) -> tuple[int, ...]:
        decided = self.rounds[self.outcome != TIMEOUT]
        return tuple(np.bincount(decided - 1, minlength=self.max_rounds).tolist())


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
        weights = probabilities(log_p)
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


def log_factors(llr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``core.apply_round``'s log factors for the queried symbol and for
    every other symbol from log-likelihood ratios: (min(llr, 0),
    min(-llr, 0)). They differ from (llr, 0) by one shift per slot, which
    the renormalization removes, and are never +inf, so certain evidence
    (+-inf) cannot raise a posterior entry to +inf."""
    llr = np.asarray(llr, dtype=np.float64)
    return np.minimum(llr, 0.0), np.minimum(-llr, 0.0)


def run_typing(llr: np.ndarray, labels: np.ndarray, config: TypingConfig) -> TypingResult:
    """Simulate ``config.attempts`` independent attempts to type a symbol.

    ``llr`` is the evidence of the held-out epochs, one log-likelihood ratio
    per epoch, as a model scored it; no model is called here. ``labels``
    splits the epochs into the positive pool, drawn when the queried symbol
    is the target, and the negative pool; both must be nonempty. The
    attempts step together through an (attempts, A) log-posterior matrix:
    each round selects queries for every row, draws a pool epoch for every
    (attempt, slot), folds its ``log_factors`` into the rows still typing
    with ``core.apply_round`` and decides them with ``core.decide_rows``.

    RNG contract: one generator seeded with ``config.seed`` draws the
    targets, then in each round the query randomness and both pools'
    indices for every attempt, finished or not, so an attempt's path never
    depends on another attempt's outcome. An update that wipes out all
    posterior mass (possible only with hard 0/1 evidence) propagates as
    DegenerateEvidenceError.
    """
    size = config.alphabet_size
    n, k = config.attempts, config.symbols_per_query
    llr = np.asarray(llr, dtype=np.float64)
    positive = np.asarray(labels) == 1
    if positive.all() or not positive.any():
        raise ValueError("both pools must be nonempty")
    target_llr, other_llr = llr[positive], llr[~positive]

    rng = np.random.default_rng(config.seed)
    targets = rng.integers(size, size=n)
    log_posterior = np.full((n, size), -math.log(size))
    active = np.ones(n, dtype=bool)
    outcome = np.full(n, TIMEOUT)
    rounds = np.full(n, config.max_rounds)
    for r in range(1, config.max_rounds + 1):
        queries = select_queries(log_posterior, k, config.query_strategy, rng)
        target_draw = rng.integers(target_llr.shape[0], size=(n, k))
        other_draw = rng.integers(other_llr.shape[0], size=(n, k))
        live = np.flatnonzero(active)
        query = queries[live]
        drawn = np.where(
            query == targets[live, None], target_llr[target_draw[live]], other_llr[other_draw[live]]
        )
        log_posterior[live] = apply_round(log_posterior[live], query, *log_factors(drawn))
        best, confident = decide_rows(log_posterior[live], config.threshold)
        right = confident & (best == targets[live])
        stop = right | (confident & config.stop_on_wrong)
        outcome[live[stop]] = np.where(right[stop], CORRECT, WRONG)
        rounds[live[stop]] = r
        active[live[stop]] = False
        if not active.any():
            break

    result = TypingResult(targets, outcome, rounds, log_posterior, config.max_rounds)
    if result.below_chance:
        warnings.warn(
            f"typing accuracy {result.accuracy:.4f} is below chance 1/{size}",
            SubChanceAccuracyWarning,
            stacklevel=2,
        )
    return result


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


def classify_epochs(llr: np.ndarray) -> np.ndarray:
    """Hard label predictions from a model's log-likelihood ratios: label 1
    where the ratio is at least 0, the posterior log odds under the label
    prior 1/2, so ties go to the positive class."""
    return (np.asarray(llr) >= 0.0).astype(np.int64)


@dataclass(frozen=True)
class SplitMetrics:
    """One split's scores, the number of floats its model holds, and how
    its model's logistic fit ended (None when its model had none)."""

    split_index: int
    balanced_accuracy: float
    typing: TypingResult
    parameter_count: int
    fit: Optional[LogisticFit] = None


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
) -> SplitSummary:
    """Retrain and evaluate a model on each train/test split.

    The model scores each split's held-out epochs once. Balanced accuracy
    is measured on that evidence, and the typing run draws from the same
    evidence, split by label. Split k's typing run uses seed
    ``typing_config.seed + k`` so splits are independent but the whole
    evaluation stays a pure function of its arguments.
    """
    rows = []
    for k, s in enumerate(synth.split(dataset, n_splits=n_splits, seed=split_seed)):
        # subsets are row views: the fits read their rows of the dataset
        model = model_factory(dataset.subset(s.train))
        test = dataset.subset(s.test)
        llr = model.predict_batch(test)
        predictions = classify_epochs(llr)
        run_config = dataclasses.replace(typing_config, seed=typing_config.seed + k)
        rows.append(
            SplitMetrics(
                split_index=k,
                balanced_accuracy=balanced_accuracy(predictions, test.labels),
                typing=run_typing(llr, test.labels, run_config),
                parameter_count=model.parameter_count,
                fit=model.fit,
            )
        )
    return SplitSummary.from_metrics(rows)
