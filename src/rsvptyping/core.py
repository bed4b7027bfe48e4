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

``update_factors`` states the two rules: it turns either rule's evidence into
a pair of log factors. One batched filter applies a pair per presentation to
every row of an (rows, A) log-posterior matrix (``apply_round``,
``decide_rows``); a single session is a one-row matrix. The typing simulator
makes its pairs from one log-likelihood ratio per presentation
(``sim.log_factors``), the same update up to one shift per presentation. All
accumulation happens in the log domain so that long query sequences do not
underflow, and every round returns a freshly normalized matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np


class DegenerateEvidenceError(ArithmeticError):
    """An update wiped out every symbol's probability mass."""


class LikelihoodMode(Enum):
    DISCRIMINATIVE = "discriminative"
    GENERATIVE = "generative"


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
    symbol's by exp(log_neg), factors as ``sim.log_factors`` makes them from
    a log-likelihood ratio (or ``update_factors`` from either rule's pair).
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
