"""Trainable evidence models.

Two families are provided, and both score an epoch the same way: per-channel
z-scoring, flattening, and one linear score weights . x + bias. The
discriminative family maps that score straight to label probabilities: the
scorer is logistic regression trained on ridge-penalized weighted
cross-entropy by Newton's method. The generative family instead models
class-conditional densities with a Gaussian KDE per class over the score.
Its scorer is logistic regression or LDA fit on a PCA projection of the
epochs; LDA with one shared covariance is itself a linear log-odds model,
and the projection is folded into the scorer's weights after the fit, so
PCA is a training step only.

Both families are wrapped behind the EvidenceModel interface, which maps a
LabeledDataset's epoch stack to two float64 arrays (log_pos, log_neg), one
entry per epoch: log label probabilities for discriminative models, log
class-conditional densities for generative ones; certain evidence gives
-inf. ``core.update_factors`` turns them into the posterior filter's log
factors.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import LabelPrior, LikelihoodMode
from .dsp import ZScoreStats, fit_zscore, zscore_array
from .synth import LabeledDataset

# Keys of the training config and their value kinds. A model file stores
# the ones its fit used, so they are checked when it is read.
TRAIN_SCHEMA = {
    "l2": "float",
    "tolerance": "float",
    "variance_fraction": "float",
    "bandwidth": "float",
    "holdout_fraction": "float",
    "seed": "int",
}
# Settings of the gradient-descent fit the Newton fit replaced; model files
# written before it may still name them.
REMOVED_TRAIN_KEYS = ("learning_rate", "max_iterations")
_SETTING_TYPES = {"int": int, "float": float}

# Ridge penalty (l2 / 2) * |weights|^2 of logistic fits. 1e-2 is the best
# of {1e-4, 1e-3, 1e-2, 1e-1} on the train command's 10% holdout of the
# README dataset; the data are close to separable, so an unpenalized fit
# drives the training loss to 0 and overfits.
L2_PENALTY = 1e-2
GRADIENT_TOLERANCE = 1e-6
# Newton steps before a fit stops short of its tolerance; a penalized fit of
# the README dataset takes 7.
NEWTON_MAX_STEPS = 50
# Step halvings before a Newton direction counts as giving no decrease.
MAX_STEP_HALVINGS = 40


def check_train_settings(settings: dict) -> None:
    """Raise ValueError naming the first setting a fit cannot use: a removed
    or unknown key, a value not of its schema type, a non-positive or
    non-finite ``l2``, ``tolerance`` or ``bandwidth``, or a
    ``variance_fraction`` outside (0, 1]."""
    for key, value in settings.items():
        if key in REMOVED_TRAIN_KEYS:
            raise ValueError(
                f"training setting {key!r} was removed: logistic fits take "
                f"Newton steps on an l2-penalized loss"
            )
        if key not in TRAIN_SCHEMA:
            raise ValueError(f"unknown training setting {key!r}")
        if type(value) is not _SETTING_TYPES[TRAIN_SCHEMA[key]]:
            raise ValueError(
                f"training setting {key!r} must be {TRAIN_SCHEMA[key]}, got {value!r}"
            )
        if key in ("l2", "tolerance", "bandwidth") and not (
            math.isfinite(value) and value > 0
        ):
            raise ValueError(f"{key} must be positive and finite, got {value!r}")
        if key == "variance_fraction" and not 0.0 < value <= 1.0:
            raise ValueError(f"variance_fraction must lie in (0, 1], got {value!r}")


# KDE log-densities are floored here: an epoch far outside both classes
# scores the floor under both densities, a tie, instead of being decided by
# the far tails of the two kernel sums.
LOG_DENSITY_FLOOR = -745.0

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Bytes of float64 kernel exponents kde_log_eval_many holds at once.
KDE_BLOCK_BYTES = 1 << 20


def _as_float_matrix(features: np.ndarray) -> np.ndarray:
    out = np.asarray(features, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError("features must be finite")
    return out


def _as_labels(labels: np.ndarray, n: int, require_both: bool = True) -> np.ndarray:
    out = np.asarray(labels)
    if out.shape != (n,):
        raise ValueError(f"expected {n} labels, got shape {out.shape}")
    if not np.all(np.isin(out, (0, 1))):
        raise ValueError("labels must be 0 or 1")
    out = out.astype(np.int64)
    if require_both and out.min() == out.max():
        raise ValueError("both classes must be present")
    return out


def _log_sigmoid(z: np.ndarray) -> np.ndarray:
    """log(1 / (1 + e^-z)) = -softplus(-z), without overflow."""
    return -np.logaddexp(0.0, -z)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------------------------
# Logistic regression


@dataclass(frozen=True)
class LogisticModel:
    """Linear log-odds model: score(x) = weights . x + bias."""

    weights: np.ndarray
    bias: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1:
            raise ValueError("weights must be a vector")
        if not (np.all(np.isfinite(w)) and math.isfinite(self.bias)):
            raise ValueError("logistic parameters must be finite")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def dimension(self) -> int:
        return self.weights.shape[0]


def _sample_weights(
    labels: np.ndarray, class_weights: Optional[tuple[float, float]]
) -> np.ndarray:
    if class_weights is None:
        n = labels.shape[0]
        counts = np.bincount(labels, minlength=2)
        # inverse label fractions: weight_c = n / n_c
        class_weights = (n / counts[0], n / counts[1])
    w_neg, w_pos = class_weights
    if w_neg <= 0 or w_pos <= 0:
        raise ValueError("class weights must be positive")
    return np.where(labels == 1, w_pos, w_neg).astype(np.float64)


def _penalized_loss(
    weights: np.ndarray, z: np.ndarray, labels: np.ndarray, sample_w: np.ndarray, l2: float
) -> float:
    # softplus(z) = log(1 + e^z), computed without overflow
    data_term = float(np.sum(sample_w * (np.logaddexp(0.0, z) - labels * z)))
    return data_term + 0.5 * l2 * float(weights @ weights)


def logistic_loss_and_gradient(
    weights: np.ndarray,
    bias: float,
    features: np.ndarray,
    labels: np.ndarray,
    class_weights: Optional[tuple[float, float]] = None,
    l2: float = 0.0,
) -> tuple[float, np.ndarray, float]:
    """Mean weighted cross-entropy plus (l2 / 2) * |weights|^2, and its
    gradient in (weights, bias). The bias is not penalized.

    Per sample: w_i * (softplus(z_i) - y_i * z_i) with z = X.weights + bias,
    which is the numerically stable form of -w_i * log p(y_i | x_i).
    """
    x = _as_float_matrix(features)
    y = _as_labels(labels, x.shape[0], require_both=class_weights is None)
    sample_w = _sample_weights(y, class_weights) / x.shape[0]
    w = np.asarray(weights, dtype=np.float64)
    z = x @ w + bias
    loss = _penalized_loss(w, z, y, sample_w, l2)
    residual = sample_w * (_sigmoid(z) - y)
    grad_w = x.T @ residual + l2 * w
    grad_b = float(np.sum(residual))
    return loss, grad_w, grad_b


@dataclass(frozen=True)
class LogisticFit:
    """How a Newton fit ended: the loss at each iterate, and the penalized
    gradient norm at the last one with the tolerance it was held to."""

    losses: tuple[float, ...]
    gradient_norm: float
    tolerance: float

    @property
    def steps(self) -> int:
        return len(self.losses) - 1

    @property
    def converged(self) -> bool:
        return self.gradient_norm <= self.tolerance


def _newton_direction(
    z: np.ndarray,
    x: np.ndarray,
    sample_w: np.ndarray,
    l2: float,
    grad_w: np.ndarray,
    grad_b: float,
) -> tuple[np.ndarray, float]:
    """Solve H d = -g for the penalized loss's Hessian H in (weights, bias)."""
    p = _sigmoid(z)
    curvature = sample_w * p * (1.0 - p)
    d = x.shape[1]
    hessian = np.empty((d + 1, d + 1))
    # one (n, d) temporary; X^T X of a single buffer is a symmetric product
    scaled = x * np.sqrt(curvature)[:, None]
    hessian[:d, :d] = scaled.T @ scaled
    del scaled
    hessian[np.arange(d), np.arange(d)] += l2
    hessian[:d, d] = hessian[d, :d] = x.T @ curvature
    hessian[d, d] = float(np.sum(curvature))
    step = np.linalg.solve(hessian, -np.append(grad_w, grad_b))
    return step[:d], float(step[d])


def train_logistic(
    features: np.ndarray,
    labels: np.ndarray,
    class_weights: Optional[tuple[float, float]] = None,
    *,
    l2: float = L2_PENALTY,
    tolerance: float = GRADIENT_TOLERANCE,
    fits: Optional[list] = None,
) -> LogisticModel:
    """Fit ridge-penalized logistic regression by Newton's method (IRLS).

    Minimizes the mean weighted cross-entropy plus (l2 / 2) * |weights|^2,
    the bias unpenalized, from zero parameters. Each step is a full Newton
    step, halved until the loss decreases. The fit stops when the penalized
    gradient norm drops to ``tolerance``; it stops short of it after
    NEWTON_MAX_STEPS steps, or when halving finds no decrease. Class weights
    default to inverse label fractions. Deterministic: no randomness is
    involved. If ``fits`` is a list, a LogisticFit is appended to it.
    """
    if not (math.isfinite(l2) and l2 >= 0.0):
        raise ValueError(f"l2 must be non-negative and finite, got {l2!r}")
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance!r}")
    x = _as_float_matrix(features)
    y = _as_labels(labels, x.shape[0])
    sample_w = _sample_weights(y, class_weights) / x.shape[0]
    w = np.zeros(x.shape[1])
    b = 0.0
    losses = []
    for step in range(NEWTON_MAX_STEPS + 1):
        loss, grad_w, grad_b = logistic_loss_and_gradient(w, b, x, y, class_weights, l2)
        losses.append(loss)
        norm = math.hypot(float(np.linalg.norm(grad_w)), grad_b)
        if norm <= tolerance or step == NEWTON_MAX_STEPS:
            break
        dw, db = _newton_direction(x @ w + b, x, sample_w, l2, grad_w, grad_b)
        for halving in range(MAX_STEP_HALVINGS):
            t = 0.5**halving
            trial_w, trial_b = w + t * dw, b + t * db
            if _penalized_loss(trial_w, x @ trial_w + trial_b, y, sample_w, l2) < loss:
                break
        else:
            break
        w, b = trial_w, trial_b
    if fits is not None:
        fits.append(LogisticFit(tuple(losses), norm, tolerance))
    return LogisticModel(weights=w, bias=b)


def logistic_scores(model: LogisticModel, features: np.ndarray) -> np.ndarray:
    x = _as_float_matrix(features)
    if x.shape[1] != model.dimension:
        raise ValueError(
            f"feature dimension {x.shape[1]} does not match model {model.dimension}"
        )
    return x @ model.weights + model.bias


# ---------------------------------------------------------------------------
# Linear discriminant analysis

# Ridge added to LDA's pooled covariance, as a fraction of its mean diagonal:
# enough to keep the matrix positive definite on degenerate data.
LDA_RIDGE = 1e-3


def train_lda(features: np.ndarray, labels: np.ndarray) -> LogisticModel:
    """Fit LDA with pooled covariance plus a ridge term, returned as the
    linear log-odds model it is.

    With one shared covariance S, log p(+|x) - log p(-|x) is linear in x:
    weights = S^-1 (mean_pos - mean_neg) and
    bias = log(n_pos / n_neg) - weights . (mean_pos + mean_neg) / 2.
    The ridge is LDA_RIDGE times the mean diagonal of the pooled covariance;
    a covariance that is still not positive definite raises LinAlgError.
    """
    x = _as_float_matrix(features)
    y = _as_labels(labels, x.shape[0])
    n, d = x.shape
    means = {}
    scatter = np.zeros((d, d))
    for cls in (0, 1):
        rows = x[y == cls]
        means[cls] = rows.mean(axis=0)
        centered = rows - means[cls]
        scatter += centered.T @ centered
    pooled = scatter / max(n - 2, 1)
    if not np.all(np.isfinite(pooled)):
        raise ValueError("pooled covariance is not finite")
    mean_diag = float(np.mean(np.diag(pooled)))
    ridge = LDA_RIDGE * mean_diag if mean_diag > 0 else LDA_RIDGE
    regularized = pooled + ridge * np.eye(d)
    try:
        np.linalg.cholesky(regularized)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "regularized covariance is not positive definite"
        ) from exc
    weights = np.linalg.solve(regularized, means[1] - means[0])
    counts = np.bincount(y, minlength=2)
    bias = math.log(counts[1] / counts[0]) - 0.5 * float(weights @ (means[1] + means[0]))
    return LogisticModel(weights=weights, bias=bias)


# ---------------------------------------------------------------------------
# PCA


@dataclass(frozen=True)
class PcaProjection:
    """Affine projection onto the top principal components, as ``fit_pca``
    found it. ``variance_fraction`` records the cumulative explained
    variance actually retained by the kept components.
    """

    mean: np.ndarray
    components: np.ndarray  # (d, r), orthonormal columns
    variance_fraction: float

    @property
    def n_components(self) -> int:
        return self.components.shape[1]


def fit_pca(
    features: np.ndarray, variance_fraction: float = 0.8
) -> tuple[PcaProjection, np.ndarray]:
    """Keep the smallest number of components whose cumulative explained
    variance reaches ``variance_fraction``. Zero-variance input keeps one
    component by convention. Component signs are fixed so the entry of
    largest magnitude is positive, making the fit deterministic.

    Returns the projection and the training rows projected by it, both from
    one centered copy of ``features``."""
    x = _as_float_matrix(features)
    n = x.shape[0]
    if n < 2:
        raise ValueError("PCA needs at least 2 samples")
    if not (0.0 < variance_fraction <= 1.0):
        raise ValueError("variance_fraction must lie in (0, 1]")
    mean = x.mean(axis=0)
    centered = x - mean
    # the Gram matrix's eigenpairs are the squared singular values and right
    # singular vectors of the centered data; eigh returns them ascending
    eigvals, eigvecs = np.linalg.eigh(centered.T @ centered)
    explained = np.clip(eigvals[::-1], 0.0, None) / (n - 1)
    total = float(explained.sum())
    if total <= 0.0:
        r = 1
        achieved = 1.0
    else:
        cumulative = np.cumsum(explained) / total
        r = int(np.searchsorted(cumulative, variance_fraction - 1e-12) + 1)
        r = min(r, len(cumulative))
        # the running sum can round past the total
        achieved = min(float(cumulative[r - 1]), 1.0)
    components = eigvecs[:, ::-1][:, :r].copy()
    for j in range(components.shape[1]):
        col = components[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            components[:, j] = -col
    gram = components.T @ components
    assert np.max(np.abs(gram - np.eye(r))) <= 1e-8, "eigh returned non-orthonormal axes"
    projection = PcaProjection(mean=mean, components=components, variance_fraction=achieved)
    return projection, centered @ projection.components


# ---------------------------------------------------------------------------
# Kernel density estimation


@dataclass(frozen=True)
class KdeDensity:
    """Mean of Gaussian kernels centered on the training scores."""

    scores: np.ndarray
    bandwidth: float = 1.0

    def __post_init__(self) -> None:
        s = np.asarray(self.scores, dtype=np.float64)
        if s.ndim != 1 or s.shape[0] == 0:
            raise ValueError("scores must be a nonempty vector")
        if not np.all(np.isfinite(s)):
            raise ValueError("scores must be finite")
        if not (self.bandwidth > 0 and math.isfinite(self.bandwidth)):
            raise ValueError("bandwidth must be positive and finite")
        s = s.copy()
        s.flags.writeable = False
        object.__setattr__(self, "scores", s)


def fit_kde(scores: np.ndarray, bandwidth: float = 1.0) -> KdeDensity:
    return KdeDensity(scores=np.asarray(scores, dtype=np.float64), bandwidth=bandwidth)


def kde_log_eval_many(density: KdeDensity, xs: np.ndarray) -> np.ndarray:
    """Log-density at each query point, floored at LOG_DENSITY_FLOOR."""
    pts = np.asarray(xs, dtype=np.float64)
    if pts.ndim != 1:
        raise ValueError("query points must be a vector")
    scores = density.scores
    logs = np.empty(pts.shape[0])
    # the queries go through one (rows, scores) buffer a block of rows at a
    # time; each row's sum runs as it would in a whole-matrix buffer
    rows = max(1, KDE_BLOCK_BYTES // (8 * scores.shape[0]))
    buffer = np.empty((min(rows, pts.shape[0]), scores.shape[0]))
    # an exponent too large to square becomes -inf, a kernel that underflows
    # to 0; a row whose kernels all underflow takes peak 0 in place of -inf,
    # so it sums to 0 and logs to -inf: the floor, as for a far-outside point
    with np.errstate(over="ignore", divide="ignore"):
        for start in range(0, pts.shape[0], rows):
            block = pts[start:start + rows]
            exponents = buffer[: block.shape[0]]
            np.subtract(block[:, None], scores[None, :], out=exponents)
            exponents /= density.bandwidth
            np.square(exponents, out=exponents)
            exponents *= -0.5
            peak = exponents.max(axis=1)
            peak[peak == -np.inf] = 0.0
            exponents -= peak[:, None]
            logs[start:start + rows] = peak + np.log(np.exp(exponents, out=exponents).mean(axis=1))
    logs -= math.log(density.bandwidth) + LOG_SQRT_2PI
    return np.maximum(logs, LOG_DENSITY_FLOOR)


# ---------------------------------------------------------------------------
# Generative pipeline

# The scorer a generative pipeline's fit uses, and the model kind it makes.
GENERATIVE_KINDS = {"logistic": "gen-logr", "lda": "gen-lda"}


@dataclass(frozen=True)
class GenerativePipeline:
    """z-score -> flatten -> linear scorer -> per-class KDE.

    The scorer takes the flattened z-scored epoch; the PCA projection it was
    fit on is folded into its weights. ``scorer_kind`` names the fit that
    made it: ``logistic`` or ``lda``.
    """

    zscore: ZScoreStats
    scorer: LogisticModel
    scorer_kind: str
    kde_pos: KdeDensity
    kde_neg: KdeDensity

    def __post_init__(self) -> None:
        if self.scorer_kind not in GENERATIVE_KINDS:
            raise ValueError(f"unknown scorer kind {self.scorer_kind!r}")
        if self.scorer.dimension % self.zscore.mean.shape[0] != 0:
            raise ValueError("scorer input dimension must be channels * samples")


def _epoch_scores(stats: ZScoreStats, scorer: LogisticModel, stacked: np.ndarray) -> np.ndarray:
    """One linear score per epoch of a stack (n, channels, samples): z-score,
    flatten, weights . x + bias."""
    flat = zscore_array(stats, stacked).reshape(stacked.shape[0], -1)
    return logistic_scores(scorer, flat)


def _fold_projection(scorer: LogisticModel, pca: PcaProjection) -> LogisticModel:
    """The scorer of PCA-projected rows as one linear map of the unprojected
    rows: w . ((x - mean) @ components) + b = (components @ w) . x + bias."""
    weights = pca.components @ scorer.weights
    return LogisticModel(weights=weights, bias=scorer.bias - float(weights @ pca.mean))


def build_generative(
    train: LabeledDataset,
    *,
    variance_fraction: float = 0.8,
    bandwidth: float = 1.0,
    scorer_kind: str = "logistic",
    l2: float = L2_PENALTY,
    tolerance: float = GRADIENT_TOLERANCE,
    fits: Optional[list] = None,
) -> GenerativePipeline:
    """Train every stage of the generative pipeline on labeled epochs.

    The scorer is fit on the PCA projection of the z-scored epochs, then
    the projection is folded into it. It is fit without class weighting;
    the class imbalance is instead handled downstream by the label prior
    during Bayes conversion. ``l2``, ``tolerance`` and ``fits`` go to the
    logistic scorer's fit.
    """
    if scorer_kind not in GENERATIVE_KINDS:
        raise ValueError(f"unknown scorer kind {scorer_kind!r}")
    labels = train.labels
    if labels.min() == labels.max():
        raise ValueError("both classes must be present")
    stats = fit_zscore(train.data)
    flat = zscore_array(stats, train.data).reshape(len(train), -1)
    pca, reduced = fit_pca(flat, variance_fraction)
    if scorer_kind == "logistic":
        scorer = train_logistic(
            reduced, labels, class_weights=(1.0, 1.0), l2=l2, tolerance=tolerance, fits=fits
        )
    else:
        scorer = train_lda(reduced, labels)
    folded = _fold_projection(scorer, pca)
    scores = logistic_scores(folded, flat)
    return GenerativePipeline(
        zscore=stats,
        scorer=folded,
        scorer_kind=scorer_kind,
        kde_pos=fit_kde(scores[labels == 1], bandwidth),
        kde_neg=fit_kde(scores[labels == 0], bandwidth),
    )


def uniform_prior() -> LabelPrior:
    """50/50 prior for Bayes conversion of generative outputs."""
    return LabelPrior(0.5)


def empirical_prior(labels: Sequence[int]) -> LabelPrior:
    """Prior from training label fractions."""
    arr = np.asarray(labels)
    if arr.size == 0:
        raise ValueError("no labels")
    return LabelPrior(float(arr.mean()))


def prior_weighted(
    log_pos: np.ndarray, log_neg: np.ndarray, prior: LabelPrior
) -> tuple[np.ndarray, np.ndarray]:
    """Log class densities plus the log label prior: log d+ p(+), log d- p(-)."""
    return log_pos + math.log(prior.p_pos), log_neg + math.log(prior.p_neg)


# ---------------------------------------------------------------------------
# Evidence model interface


class EvidenceModel(abc.ABC):
    """Anything that turns epochs into per-trial evidence.

    ``predict_batch`` returns two float64 arrays (log_pos, log_neg) with
    one entry per epoch of the dataset: the logs of the ``mode``'s pair,
    -inf for a zero. Implementations must be deterministic: the same epoch
    always yields the same values.
    ``parameter_count`` is the number of stored floats, used by reports to
    relate performance to model size.
    """

    kind: str = "abstract"

    @property
    @abc.abstractmethod
    def mode(self) -> LikelihoodMode: ...

    @abc.abstractmethod
    def predict_batch(self, dataset: LabeledDataset) -> tuple[np.ndarray, np.ndarray]: ...

    @property
    @abc.abstractmethod
    def parameter_count(self) -> int: ...


class LogisticEvidenceModel(EvidenceModel):
    """z-score + logistic regression, the discriminative baseline."""

    kind = "logreg"

    def __init__(self, stats: ZScoreStats, model: LogisticModel):
        self.stats = stats
        self.model = model

    @property
    def mode(self) -> LikelihoodMode:
        return LikelihoodMode.DISCRIMINATIVE

    def predict_batch(self, dataset: LabeledDataset) -> tuple[np.ndarray, np.ndarray]:
        scores = _epoch_scores(self.stats, self.model, dataset.data)
        return _log_sigmoid(scores), _log_sigmoid(-scores)

    @property
    def parameter_count(self) -> int:
        return 2 * self.stats.mean.shape[0] + self.model.dimension + 1


def train_logistic_evidence(
    train: LabeledDataset,
    *,
    l2: float = L2_PENALTY,
    tolerance: float = GRADIENT_TOLERANCE,
    fits: Optional[list] = None,
) -> LogisticEvidenceModel:
    """Fit the discriminative baseline on labeled epochs."""
    stats = fit_zscore(train.data)
    flat = zscore_array(stats, train.data).reshape(len(train), -1)
    model = train_logistic(flat, train.labels, l2=l2, tolerance=tolerance, fits=fits)
    return LogisticEvidenceModel(stats, model)


class GenerativeEvidenceModel(EvidenceModel):
    """Wraps a GenerativePipeline; emits log class-conditional densities.
    Its kind names the scorer: ``gen-logr`` or ``gen-lda``."""

    def __init__(self, pipeline: GenerativePipeline):
        self.pipeline = pipeline

    @property
    def kind(self) -> str:
        return GENERATIVE_KINDS[self.pipeline.scorer_kind]

    @property
    def mode(self) -> LikelihoodMode:
        return LikelihoodMode.GENERATIVE

    def predict_batch(self, dataset: LabeledDataset) -> tuple[np.ndarray, np.ndarray]:
        p = self.pipeline
        scores = _epoch_scores(p.zscore, p.scorer, dataset.data)
        return (
            kde_log_eval_many(p.kde_pos, scores),
            kde_log_eval_many(p.kde_neg, scores),
        )

    @property
    def parameter_count(self) -> int:
        p = self.pipeline
        kde = p.kde_pos.scores.shape[0] + p.kde_neg.scores.shape[0] + 2
        return 2 * p.zscore.mean.shape[0] + p.scorer.dimension + 1 + kde


class ConstantEvidenceModel(EvidenceModel):
    """Ignores the epoch and always returns the same pair. Used for the
    control rows: a model that blindly backs one class no matter what."""

    def __init__(self, pos: float, kind: str = "constant"):
        if not (math.isfinite(pos) and 0.0 <= pos <= 1.0):
            raise ValueError(f"pos must be a probability in [0, 1], got {pos!r}")
        self._pos = pos
        self.kind = kind

    @property
    def mode(self) -> LikelihoodMode:
        return LikelihoodMode.DISCRIMINATIVE

    def predict_batch(self, dataset: LabeledDataset) -> tuple[np.ndarray, np.ndarray]:
        n = len(dataset)
        with np.errstate(divide="ignore"):
            return np.full(n, np.log(self._pos)), np.full(n, np.log(1.0 - self._pos))

    @property
    def parameter_count(self) -> int:
        return 0


class OracleEvidenceModel(EvidenceModel):
    """Reads the true epoch label and reports it with certainty."""

    kind = "oracle"

    @property
    def mode(self) -> LikelihoodMode:
        return LikelihoodMode.DISCRIMINATIVE

    def predict_batch(self, dataset: LabeledDataset) -> tuple[np.ndarray, np.ndarray]:
        positive = dataset.labels == 1
        return np.where(positive, 0.0, -np.inf), np.where(positive, -np.inf, 0.0)

    @property
    def parameter_count(self) -> int:
        return 0
