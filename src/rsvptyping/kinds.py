"""The trainable model kinds and their training settings.

``MODEL_KINDS`` is the one place a trainable kind is declared: the name of
its fit in ``models`` and the settings that fit takes and its model file
stores. This module is plain Python, so the CLI's parser and the container's
model files use it without loading numpy or the fits; ``models`` re-exports
every name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

# Ridge penalty (l2 / 2) * |weights|^2 of logistic fits. 1e-2 is the best
# of {1e-4, 1e-3, 1e-2, 1e-1} on the train command's 10% holdout of the
# README dataset; the data are close to separable, so an unpenalized fit
# drives the training loss to 0 and overfits.
L2_PENALTY = 1e-2
GRADIENT_TOLERANCE = 1e-6
# Explained variance a generative fit's PCA keeps.
VARIANCE_FRACTION = 0.8

# Settings of the fits and their defaults; each key's type is its default's
# type. A model file stores the settings its fit used, so they are checked
# when it is read.
TRAIN_DEFAULTS = {
    "l2": L2_PENALTY,
    "tolerance": GRADIENT_TOLERANCE,
    "variance_fraction": VARIANCE_FRACTION,
}


@dataclass(frozen=True)
class ModelKind:
    """A trainable model kind: the name of its fit, called as ``fit(train,
    kind=kind, **settings)``, and the training settings that fit takes and
    its model file stores, the recipe ``simulate`` refits each split from."""

    fit: str
    settings: tuple[str, ...]


# Fits are named, not held, and looked up at call time, so a wrapper put in
# place of one is used.
MODEL_KINDS = {
    "logreg": ModelKind("train_logistic_evidence", ("l2", "tolerance")),
    "gen-logr": ModelKind("build_generative", ("variance_fraction", "l2", "tolerance")),
    "gen-lda": ModelKind("build_generative", ("variance_fraction",)),
}


def check_train_settings(settings: dict, kind: Optional[str] = None) -> None:
    """Raise ValueError naming the first setting a fit cannot use: an
    unknown key, a value not of its default's type, a non-positive or
    non-finite ``l2`` or ``tolerance``, or a ``variance_fraction`` outside
    (0, 1]. Given a ``kind``, also any setting that kind's fit does not
    take: ``settings`` must be those a model file of that kind may store."""
    for key, value in settings.items():
        if key not in TRAIN_DEFAULTS:
            raise ValueError(f"unknown training setting {key!r}")
        expected = type(TRAIN_DEFAULTS[key])
        if type(value) is not expected:
            raise ValueError(
                f"training setting {key!r} must be {expected.__name__}, got {value!r}"
            )
        if key in ("l2", "tolerance") and not (math.isfinite(value) and value > 0):
            raise ValueError(f"{key} must be positive and finite, got {value!r}")
        if key == "variance_fraction" and not 0.0 < value <= 1.0:
            raise ValueError(f"variance_fraction must lie in (0, 1], got {value!r}")
    unused = [key for key in settings if kind and key not in MODEL_KINDS[kind].settings]
    if unused:
        raise ValueError(f"{kind} fits take no setting {', '.join(unused)}")
