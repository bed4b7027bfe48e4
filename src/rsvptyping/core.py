"""Recursive Bayesian posterior updates over a typing alphabet.

A typing session maintains a probability distribution over the symbols of a
fixed alphabet. Each query presents one symbol and yields one piece of binary
evidence (target / non-target). Two update rules are supported:

* discriminative: evidence arrives as label probabilities p(label | response),
  and the queried symbol's mass is scaled by ``pos / p_pos`` while every other
  symbol is scaled by ``neg / p_neg``;
* generative: evidence arrives as class-conditional densities
  p(response | label), and the queried symbol is scaled by the positive
  density, all others by the negative density.

One batched filter applies those factors (``update_factors``) to every row
of an (rows, A) log-posterior matrix (``apply_round``, ``decide_rows``);
the scalar API checks its arguments and makes one one-row call of it. All
accumulation happens in the log domain so that long query sequences do not
underflow, and every public operation returns a freshly normalized state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

# Discriminative pairs must be a proper two-class distribution this tightly.
DISC_SUM_ATOL = 1e-9


class DegenerateEvidenceError(ArithmeticError):
    """An update wiped out every symbol's probability mass."""


class LikelihoodMode(Enum):
    DISCRIMINATIVE = "discriminative"
    GENERATIVE = "generative"


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct display symbols."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.symbols) < 2:
            raise ValueError("alphabet needs at least 2 symbols")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index_of(self, symbol: str) -> int:
        return self.symbols.index(symbol)

    @classmethod
    def default(cls, size: int = 28) -> "Alphabet":
        """Lowercase letters, then '_' (space) and '<' (backspace), truncated
        or extended with numbered placeholders to reach ``size``."""
        base = [chr(c) for c in range(ord("a"), ord("z") + 1)] + ["_", "<"]
        if size <= len(base):
            return cls(tuple(base[:size]))
        extra = [f"#{i}" for i in range(size - len(base))]
        return cls(tuple(base + extra))


@dataclass(frozen=True)
class LabelPrior:
    """Prior probability that a queried symbol is the target."""

    p_pos: float

    def __post_init__(self) -> None:
        if not (0.0 < self.p_pos < 1.0):
            raise ValueError(f"p_pos must lie in (0, 1), got {self.p_pos}")

    @property
    def p_neg(self) -> float:
        return 1.0 - self.p_pos

    @classmethod
    def uniform_over(cls, alphabet_size: int) -> "LabelPrior":
        """p_pos = 1/A: under a uniform symbol prior, one queried symbol is
        the target with probability 1/A. The reading of "uniform" is
        ambiguous, so this is a default, not a hard rule."""
        return cls(1.0 / alphabet_size)


@dataclass(frozen=True)
class LikelihoodPair:
    """Per-trial evidence in either representation.

    Discriminative mode: ``pos``/``neg`` are p(label=+|e) and p(label=-|e)
    and must sum to one. Generative mode: they are the class-conditional
    densities p(e|label=+) and p(e|label=-), nonnegative and not both zero.
    """

    mode: LikelihoodMode
    pos: float
    neg: float

    def __post_init__(self) -> None:
        if self.pos < 0.0 or self.neg < 0.0:
            raise ValueError("likelihood values must be nonnegative")
        if not (math.isfinite(self.pos) and math.isfinite(self.neg)):
            raise ValueError("likelihood values must be finite")
        if self.pos + self.neg <= 0.0:
            raise ValueError("pos and neg cannot both be zero")
        if self.mode is LikelihoodMode.DISCRIMINATIVE:
            if abs(self.pos + self.neg - 1.0) > DISC_SUM_ATOL:
                raise ValueError(
                    f"discriminative pair must sum to 1, got {self.pos + self.neg}"
                )

    @classmethod
    def discriminative(cls, pos: float) -> "LikelihoodPair":
        return cls(LikelihoodMode.DISCRIMINATIVE, pos, 1.0 - pos)

    @classmethod
    def generative(cls, pos: float, neg: float) -> "LikelihoodPair":
        return cls(LikelihoodMode.GENERATIVE, pos, neg)


@dataclass(frozen=True)
class QueryEvent:
    """One presented symbol together with the evidence it produced."""

    queried_index: int
    likelihood: LikelihoodPair


@dataclass(frozen=True)
class PosteriorState:
    """Normalized log-probability vector over the alphabet.

    States are values: update operations return new instances and never
    mutate, so states can be shared freely across threads or sessions.
    ``step`` counts how many evidence events have been applied.
    """

    log_probs: np.ndarray
    step: int = 0

    def __post_init__(self) -> None:
        lp = np.asarray(self.log_probs, dtype=np.float64)
        lp.flags.writeable = False
        object.__setattr__(self, "log_probs", lp)

    @property
    def size(self) -> int:
        return self.log_probs.shape[0]

    def probabilities(self) -> np.ndarray:
        """Linear-domain probabilities, renormalized against drift."""
        return probabilities(self.log_probs[None])[0]


def probabilities(log_posterior: np.ndarray) -> np.ndarray:
    """Each row of a (rows, A) log-posterior matrix in the linear domain,
    renormalized against drift."""
    weights = np.exp(log_posterior - log_posterior.max(axis=1, keepdims=True))
    return weights / weights.sum(axis=1, keepdims=True)


def update_factors(
    mode: LikelihoodMode,
    log_pos: np.ndarray,
    log_neg: np.ndarray,
    label_prior: Optional[LabelPrior] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Log factors for the queried symbol and for every other symbol:
    discriminative evidence divided by ``label_prior``, which it then needs,
    or generative log densities unchanged."""
    log_pos = np.asarray(log_pos, dtype=np.float64)
    log_neg = np.asarray(log_neg, dtype=np.float64)
    if mode is LikelihoodMode.GENERATIVE:
        return log_pos, log_neg
    if label_prior is None:
        raise ValueError("discriminative updates need a label prior")
    return log_pos - math.log(label_prior.p_pos), log_neg - math.log(label_prior.p_neg)


def apply_round(
    log_posterior: np.ndarray,
    queries: np.ndarray,
    log_pos: np.ndarray,
    log_neg: np.ndarray,
) -> np.ndarray:
    """Fold one round of presentations into each row, then renormalize once.

    ``queries``, ``log_pos`` and ``log_neg`` are (rows, slots): slot j of a
    row scales the queried symbol's mass by exp(log_pos) and every other
    symbol's by exp(log_neg), factors as ``update_factors`` returns them.
    Every slot applies, repeats included, and the result does not depend on
    the order of a row's slots. Factors are added, never subtracted, so -inf
    evidence cannot produce NaN. A row left without mass raises
    DegenerateEvidenceError.
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
    whether its probability reaches ``threshold``."""
    probs = probabilities(log_posterior)
    best = np.argmax(probs, axis=1)
    return best, probs[np.arange(best.shape[0]), best] >= threshold


def init_posterior(
    alphabet: Alphabet, prior: Optional[Sequence[float]] = None
) -> PosteriorState:
    """Starting distribution: uniform by default, else the normalized prior.

    Zero entries are allowed in a custom prior (they stay impossible), but
    the prior must have positive total mass and one entry per symbol.
    """
    a = alphabet.size
    if prior is None:
        return PosteriorState(np.full(a, -math.log(a)), step=0)
    p = np.asarray(prior, dtype=np.float64)
    if p.shape != (a,):
        raise ValueError(f"prior length {p.shape} does not match alphabet size {a}")
    if np.any(p < 0.0) or not np.all(np.isfinite(p)):
        raise ValueError("prior entries must be finite and nonnegative")
    if not np.any(p > 0.0):
        raise ValueError("prior must have positive total mass")
    with np.errstate(divide="ignore"):
        log_p = np.log(p)[None]
    # a round without presentations only normalizes, in the log domain
    no_events = np.empty((1, 0))
    return PosteriorState(apply_round(log_p, no_events, no_events, no_events)[0], step=0)


def update_discriminative(
    state: PosteriorState, event: QueryEvent, label_prior: LabelPrior
) -> PosteriorState:
    """One evidence step using label probabilities.

    The queried symbol's unnormalized mass is multiplied by ``pos / p_pos``,
    every other symbol's by ``neg / p_neg``, and the result is renormalized.
    """
    if event.likelihood.mode is not LikelihoodMode.DISCRIMINATIVE:
        raise ValueError("update_discriminative requires discriminative evidence")
    return apply_query(state, [event], label_prior)


def update_generative(state: PosteriorState, event: QueryEvent) -> PosteriorState:
    """One evidence step using class-conditional densities.

    The queried symbol's mass is multiplied by p(e|+), all others by p(e|-);
    any common scale factor cancels in the normalization.
    """
    if event.likelihood.mode is not LikelihoodMode.GENERATIVE:
        raise ValueError("update_generative requires generative evidence")
    return apply_query(state, [event])


def apply_query(
    state: PosteriorState,
    events: Sequence[QueryEvent],
    label_prior: Optional[LabelPrior] = None,
) -> PosteriorState:
    """Apply a batch of same-mode events as one round of the filter.

    Responses within a query are treated as independent, so the result does
    not depend on event order. An empty batch returns the state unchanged.
    """
    if not events:
        return state
    modes = {e.likelihood.mode for e in events}
    if len(modes) > 1:
        raise ValueError("apply_query requires all events to share one mode")
    with np.errstate(divide="ignore"):
        evidence = np.log([(e.likelihood.pos, e.likelihood.neg) for e in events]).T
    log_pos, log_neg = update_factors(modes.pop(), *evidence, label_prior)
    queries = np.array([e.queried_index for e in events])
    for q in queries:
        if not 0 <= q < state.size:
            raise ValueError(f"queried index {q} outside alphabet")
    log_probs = apply_round(state.log_probs[None], queries[None], log_pos[None], log_neg[None])
    return PosteriorState(log_probs[0], state.step + len(events))


def decide(state: PosteriorState, threshold: float) -> Optional[int]:
    """Index of the most probable symbol if it reaches ``threshold``.

    Ties go to the lowest index. Returns None while no symbol is confident
    enough to type.
    """
    if not (0.0 < threshold <= 1.0):
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    best, confident = decide_rows(state.log_probs[None], threshold)
    return int(best[0]) if confident[0] else None
