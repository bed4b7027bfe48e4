"""Trainable evidence models.

Two families are provided, and both score an epoch the same way: per-channel
z-scoring, flattening, and one linear score weights . x + bias. The
discriminative family maps that score straight to label probabilities: the
scorer is logistic regression trained on ridge-penalized weighted
cross-entropy by Newton's method. Each Newton step forms the (d, d) block of
its Hessian from a float32 copy of the features and checks the direction
with one float64 Hessian-vector product; a relative residual above
HESSIAN_RESIDUAL_LIMIT (1e-5) forms that step's block again in float64.
The generative family instead models class-conditional densities with a
Gaussian KDE per class over the score, each with the bandwidth that
Silverman's rule of thumb gives for its class's training scores. Its scorer
is logistic regression or LDA fit on a PCA projection of the epochs; LDA
with one shared covariance is itself a linear log-odds model, and the
projection is folded into the scorer's weights after the fit, so PCA is a
training step only.

Each trained model is one flat record of its parts, named by its kind:
LogisticEvidenceModel (``logreg``) holds ``zscore`` and ``scorer``, and
GenerativeEvidenceModel (``gen-logr`` or ``gen-lda``) adds ``kde_pos`` and
``kde_neg``. Every EvidenceModel maps a LabeledDataset's epoch stack to one
float64 log-likelihood ratio log p(e|+) - log p(e|-) per epoch, each model
dividing by the label prior it is calibrated to: the logistic score for
``logreg``, whose class weighting calibrates p(+|e) to 1/2; the difference
of the two floored KDE log-densities for generative kinds; +-inf for
certain evidence.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import LabelPrior
from .dsp import ZScoreStats, fit_zscore, zscore_array
from .synth import DEFAULT_ALPHABET_SIZE, LabeledDataset

# Ridge penalty (l2 / 2) * |weights|^2 of logistic fits. 1e-2 is the best
# of {1e-4, 1e-3, 1e-2, 1e-1} on the train command's 10% holdout of the
# README dataset; the data are close to separable, so an unpenalized fit
# drives the training loss to 0 and overfits.
L2_PENALTY = 1e-2
GRADIENT_TOLERANCE = 1e-6
# Explained variance a generative fit's PCA keeps.
VARIANCE_FRACTION = 0.8
# Newton steps before a fit stops short of its tolerance; a penalized fit of
# the README dataset takes 7.
NEWTON_MAX_STEPS = 50
# Step halvings before a Newton direction counts as giving no decrease.
MAX_STEP_HALVINGS = 40
# Largest relative residual |H d + g| / |g| that a Newton direction solved
# against the float32-formed Hessian may leave in the float64 Hessian H. The
# residual is about the gradient the step leaves behind, and near the
# tolerance the loss often cannot resolve another step's decrease, so the
# limit is tight: at 1e-3, fits of nearly collinear, badly scaled designs
# took more steps than float64 Hessians need or stopped short of the
# tolerance. Fits of the README dataset leave residuals under 2e-6, so it
# never fires there.
HESSIAN_RESIDUAL_LIMIT = 1e-5

# Settings of the fits and their defaults; each key's type is its default's
# type. A model file stores the settings its fit used, so they are checked
# when it is read.
TRAIN_DEFAULTS = {
    "l2": L2_PENALTY,
    "tolerance": GRADIENT_TOLERANCE,
    "variance_fraction": VARIANCE_FRACTION,
}
# Settings that fits no longer take, each with the reason; model files
# written before their removal may still name them.
_NEWTON = "logistic fits take Newton steps on an l2-penalized loss"
REMOVED_TRAIN_KEYS = {
    "learning_rate": _NEWTON,
    "max_iterations": _NEWTON,
    "bandwidth": "the KDE bandwidths follow Silverman's rule from each class's training scores",
}


@dataclass(frozen=True)
class ModelKind:
    """A trainable model kind: the name of its fit, called as ``fit(train,
    kind=kind, **settings)``, and the training settings that fit takes and
    its model file stores, the recipe ``simulate`` refits each split from."""

    fit: str
    settings: tuple[str, ...]


def _check_kind(kind: str, fit: str, family: str) -> None:
    """Raise ValueError unless MODEL_KINDS fits ``kind`` with ``fit``."""
    if kind not in MODEL_KINDS or MODEL_KINDS[kind].fit != fit:
        raise ValueError(f"unknown {family} model kind {kind!r}")


def check_train_settings(settings: dict) -> None:
    """Raise ValueError naming the first setting a fit cannot use: a removed
    key, with the reason it was removed, an unknown key, a value not of its
    default's type, a non-positive or non-finite ``l2`` or ``tolerance``, or
    a ``variance_fraction`` outside (0, 1]."""
    for key, value in settings.items():
        if key in REMOVED_TRAIN_KEYS:
            raise ValueError(f"training setting {key!r} was removed: {REMOVED_TRAIN_KEYS[key]}")
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


def check_kind_settings(kind: str, settings: dict) -> None:
    """Raise ValueError unless ``settings`` pass check_train_settings and
    are all settings that the fit of ``kind`` takes: those a model file of
    that kind may store."""
    check_train_settings(settings)
    unused = [key for key in settings if key not in MODEL_KINDS[kind].settings]
    if unused:
        raise ValueError(f"{kind} fits take no setting {', '.join(unused)}")


# KDE log-densities are floored here: an epoch far outside both classes
# scores the floor under both densities, a tie, instead of being decided by
# the far tails of the two kernel sums.
LOG_DENSITY_FLOOR = -745.0

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Bytes of float64 kernel exponents kde_log_eval_many holds at once.
KDE_BLOCK_BYTES = 1 << 20


def _as_float_matrix(features: np.ndarray) -> np.ndarray:
    # C order: BLAS rounds the products of a fit differently on F-ordered rows
    out = np.asarray(features, dtype=np.float64, order="C")
    if out.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got shape {out.shape}")
    # min and max propagate NaN and find infinities without a matrix-sized mask
    if out.size and not (np.isfinite(out.min()) and np.isfinite(out.max())):
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
class LogisticFit:
    """How a Newton fit ended: the loss at each iterate, and the penalized
    gradient norm at the last one with the tolerance it was held to.
    ``float64_steps`` counts the steps whose float32-formed Hessian failed
    the residual check and was formed again from the float64 rows."""

    losses: tuple[float, ...]
    gradient_norm: float
    tolerance: float
    float64_steps: int

    @property
    def steps(self) -> int:
        return len(self.losses) - 1

    @property
    def converged(self) -> bool:
        return self.gradient_norm <= self.tolerance


@dataclass(frozen=True)
class LogisticModel:
    """Linear log-odds model: score(x) = weights . x + bias. ``fit`` says how
    the Newton fit that made it ended, None for LDA; equality ignores it."""

    weights: np.ndarray
    bias: float
    fit: Optional[LogisticFit] = field(default=None, compare=False)

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


def _newton_direction(
    z: np.ndarray,
    x: np.ndarray,
    x32: np.ndarray,
    scaled32: np.ndarray,
    sample_w: np.ndarray,
    l2: float,
    grad_w: np.ndarray,
    grad_b: float,
) -> tuple[np.ndarray, float, bool]:
    """Solve H d = -g for the penalized loss's Hessian H in (weights, bias).

    The (d, d) block X^T C X of H is formed from ``x32``, the float32 copy
    of the rows ``x``, scaled by sqrt(C) into the reused buffer
    ``scaled32``. The bias row and column, the penalty and the solve are
    float64. One float64 Hessian-vector product then checks the direction:
    if |H d + g| > HESSIAN_RESIDUAL_LIMIT * |g|, the block is formed again
    from ``x`` and solved once more. Returns the direction and whether it
    came from the float64 rows.
    """
    p = _sigmoid(z)
    curvature = sample_w * p * (1.0 - p)
    root = np.sqrt(curvature)
    d = x.shape[1]
    gradient = np.append(grad_w, grad_b)
    hessian = np.empty((d + 1, d + 1))
    hessian[:d, d] = hessian[d, :d] = x.T @ curvature
    hessian[d, d] = float(np.sum(curvature))
    for exact in (False, True):
        # X^T X of a single buffer is a symmetric product
        if exact:
            scaled = x * root[:, None]
            hessian[:d, :d] = scaled.T @ scaled
            del scaled
        else:
            # large rows can overflow float32 to inf; the check rejects the result
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(x32, root.astype(np.float32)[:, None], out=scaled32)
                hessian[:d, :d] = scaled32.T @ scaled32
        hessian[np.arange(d), np.arange(d)] += l2
        step = np.linalg.solve(hessian, -gradient)
        dw, db = step[:d], float(step[d])
        weighted = curvature * (x @ dw + db)
        product = np.append(x.T @ weighted + l2 * dw, np.sum(weighted))
        # written so that a NaN or inf residual fails it too
        if np.linalg.norm(product + gradient) <= HESSIAN_RESIDUAL_LIMIT * np.linalg.norm(gradient):
            break
    return dw, db, exact


def train_logistic(
    features: np.ndarray,
    labels: np.ndarray,
    class_weights: Optional[tuple[float, float]] = None,
    *,
    l2: float = L2_PENALTY,
    tolerance: float = GRADIENT_TOLERANCE,
) -> LogisticModel:
    """Fit ridge-penalized logistic regression by Newton's method (IRLS).

    Minimizes the mean weighted cross-entropy plus (l2 / 2) * |weights|^2,
    the bias unpenalized, from zero parameters. Each step is a full Newton
    step, halved until the loss decreases. The fit stops when the penalized
    gradient norm drops to ``tolerance``; it stops short of it after
    NEWTON_MAX_STEPS steps, or when halving finds no decrease. Class weights
    default to inverse label fractions. Deterministic: no randomness is
    involved. The model's ``fit`` is the LogisticFit of how the fit ended.

    Each step's (d, d) Hessian block is formed from one float32 copy of the
    features, made once per fit, through one reused float32 (n, d) buffer.
    The direction is kept when one float64 Hessian-vector product shows a
    relative residual |H d + g| / |g| of at most HESSIAN_RESIDUAL_LIMIT
    (1e-5); otherwise that step's block is formed from the float64 features,
    and the LogisticFit counts the step in ``float64_steps``. The loss, the
    gradient, the bias row and column, the line search and the stopping
    rule are float64.
    """
    if not (math.isfinite(l2) and l2 >= 0.0):
        raise ValueError(f"l2 must be non-negative and finite, got {l2!r}")
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance!r}")
    x = _as_float_matrix(features)
    y = _as_labels(labels, x.shape[0])
    sample_w = _sample_weights(y, class_weights) / x.shape[0]
    with np.errstate(over="ignore"):
        x32 = x.astype(np.float32)
    scaled32 = np.empty_like(x32)
    w = np.zeros(x.shape[1])
    b = 0.0
    losses = []
    float64_steps = 0
    for step in range(NEWTON_MAX_STEPS + 1):
        loss, grad_w, grad_b = logistic_loss_and_gradient(w, b, x, y, class_weights, l2)
        losses.append(loss)
        norm = math.hypot(float(np.linalg.norm(grad_w)), grad_b)
        if norm <= tolerance or step == NEWTON_MAX_STEPS:
            break
        dw, db, exact = _newton_direction(
            x @ w + b, x, x32, scaled32, sample_w, l2, grad_w, grad_b
        )
        for halving in range(MAX_STEP_HALVINGS):
            t = 0.5**halving
            trial_w, trial_b = w + t * dw, b + t * db
            if _penalized_loss(trial_w, x @ trial_w + trial_b, y, sample_w, l2) < loss:
                break
        else:
            break
        w, b = trial_w, trial_b
        float64_steps += exact
    return LogisticModel(w, b, LogisticFit(tuple(losses), norm, tolerance, float64_steps))


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


def fit_pca(
    features: np.ndarray, variance_fraction: float = VARIANCE_FRACTION
) -> tuple[PcaProjection, np.ndarray]:
    """Keep the smallest number of components whose cumulative explained
    variance reaches ``variance_fraction``. Zero-variance input keeps one
    component by convention. Component signs are fixed so the entry of
    largest magnitude is positive, making the fit deterministic. Axes that
    eigh returns non-orthonormal raise LinAlgError.

    Consumes its input: a C-ordered float64 ``features`` is centered in
    place (any other is centered in a C-ordered float64 copy). Returns the
    projection and the C-ordered training rows projected by it."""
    x = _as_float_matrix(features)
    n = x.shape[0]
    if n < 2:
        raise ValueError("PCA needs at least 2 samples")
    if not (0.0 < variance_fraction <= 1.0):
        raise ValueError("variance_fraction must lie in (0, 1]")
    mean = x.mean(axis=0)
    x -= mean
    # the Gram matrix's eigenpairs are the squared singular values and right
    # singular vectors of the centered data; eigh returns them ascending
    eigvals, eigvecs = np.linalg.eigh(x.T @ x)
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
    largest = components[np.argmax(np.abs(components), axis=0), np.arange(r)]
    components *= np.where(largest < 0, -1.0, 1.0)
    gram = components.T @ components
    if not np.max(np.abs(gram - np.eye(r))) <= 1e-8:
        raise np.linalg.LinAlgError("eigh returned non-orthonormal axes")
    projection = PcaProjection(mean=mean, components=components, variance_fraction=achieved)
    # numpy hands a row-major product to BLAS as its column-major transpose,
    # so on 2+ threads OpenBLAS would pack a copy of all n x d centered rows
    # for x @ components; written the other way round, the product packs
    # only the small components. The result is copied C-ordered, the order
    # the scorer fits take, so they need no copy of their own.
    return projection, np.ascontiguousarray((components.T @ x.T).T)


# ---------------------------------------------------------------------------
# Kernel density estimation


def _as_scores(scores: np.ndarray) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.shape[0] == 0 or not np.all(np.isfinite(s)):
        raise ValueError("scores must be a nonempty finite vector")
    return s


@dataclass(frozen=True)
class KdeDensity:
    """Mean of Gaussian kernels centered on the training scores."""

    scores: np.ndarray
    bandwidth: float

    def __post_init__(self) -> None:
        s = _as_scores(self.scores).copy()
        if not (self.bandwidth > 0 and math.isfinite(self.bandwidth)):
            raise ValueError("bandwidth must be positive and finite")
        s.flags.writeable = False
        object.__setattr__(self, "scores", s)


def fit_kde(scores: np.ndarray) -> KdeDensity:
    """A KDE of ``scores`` whose bandwidth is Silverman's rule of thumb
    (Silverman 1986, eq. 3.31), as R's ``bw.nrd0`` computes it:
    0.9 * min(sd, IQR / 1.34) * n^(-1/5), with sd the sample standard
    deviation (0 for one score) and IQR numpy's linear 75th minus 25th
    percentile. A zero minimum falls back to sd, then to the first score's
    magnitude, then to 1."""
    s = _as_scores(scores)
    n = s.shape[0]
    # less the first score, the sd of equal scores is exactly 0, not rounding
    sd = float(np.std(s - s[0], ddof=1)) if n > 1 else 0.0
    q25, q75 = np.percentile(s, (25.0, 75.0))
    spread = min(sd, float(q75 - q25) / 1.34) or sd or abs(float(s[0])) or 1.0
    return KdeDensity(scores=s, bandwidth=0.9 * spread * n**-0.2)


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


def _epoch_scores(stats: ZScoreStats, scorer: LogisticModel, stacked: np.ndarray) -> np.ndarray:
    """One linear score per epoch of a stack (n, channels, samples): z-score,
    flatten, weights . x + bias."""
    flat = zscore_array(stats, stacked).reshape(stacked.shape[0], -1)
    return logistic_scores(scorer, flat)


def _fold_projection(scorer: LogisticModel, pca: PcaProjection) -> LogisticModel:
    """The scorer of PCA-projected rows as one linear map of the unprojected
    rows: w . ((x - mean) @ components) + b = (components @ w) . x + bias.
    It keeps the scorer's ``fit``."""
    weights = pca.components @ scorer.weights
    return LogisticModel(weights, scorer.bias - float(weights @ pca.mean), scorer.fit)


def build_generative(
    train: LabeledDataset,
    *,
    kind: str = "gen-logr",
    variance_fraction: float = VARIANCE_FRACTION,
    l2: float = L2_PENALTY,
    tolerance: float = GRADIENT_TOLERANCE,
) -> GenerativeEvidenceModel:
    """Fit a generative evidence model of ``kind`` on labeled epochs: its
    scorer is logistic regression for ``gen-logr`` and LDA for ``gen-lda``.

    The scorer is fit on the PCA projection of the z-scored epochs, then
    the projection is folded into it. It is fit without class weighting:
    the two KDEs fit on its scores are class-conditional densities, so
    their ratio carries no label prior. Each KDE takes its bandwidth from
    its class's scores by fit_kde's rule. ``l2`` and ``tolerance`` go to the
    logistic scorer's fit.
    """
    _check_kind(kind, "build_generative", "generative")
    labels = train.labels
    if labels.min() == labels.max():
        raise ValueError("both classes must be present")
    stats = fit_zscore(train.data)
    # the z-scored rows are centered in place and freed once projected; the
    # KDEs' training scores are formed from the epochs again, as predict_batch does
    pca, reduced = fit_pca(zscore_array(stats, train.data).reshape(len(train), -1),
                           variance_fraction)
    if kind == "gen-logr":
        scorer = train_logistic(reduced, labels, (1.0, 1.0), l2=l2, tolerance=tolerance)
    else:
        scorer = train_lda(reduced, labels)
    del reduced
    folded = _fold_projection(scorer, pca)
    scores = _epoch_scores(stats, folded, train.data)
    return GenerativeEvidenceModel(
        kind=kind,
        zscore=stats,
        scorer=folded,
        kde_pos=fit_kde(scores[labels == 1]),
        kde_neg=fit_kde(scores[labels == 0]),
    )


# ---------------------------------------------------------------------------
# Evidence model interface


class EvidenceModel(abc.ABC):
    """Anything that turns epochs into per-trial evidence.

    ``kind`` is the model's name in reports and model files.
    ``predict_batch`` returns one float64 array with one entry per epoch of
    the dataset: the log-likelihood ratio log p(e|+) - log p(e|-), +-inf
    for certain evidence. Implementations must be deterministic: the same
    epoch always yields the same value. ``parameter_count``, used by reports
    to relate performance to model size, is the number of floats the model
    holds: 0 for the controls.
    """

    kind: str

    @abc.abstractmethod
    def predict_batch(self, dataset: LabeledDataset) -> np.ndarray: ...

    @property
    def parameter_count(self) -> int:
        return 0

    @property
    def fit(self) -> Optional[LogisticFit]:
        """How the logistic fit of the model's scorer ended; None for LDA
        scorers and controls."""
        return getattr(getattr(self, "scorer", None), "fit", None)


@dataclass(frozen=True)
class LogisticEvidenceModel(EvidenceModel):
    """z-score + logistic regression, the discriminative baseline. Its
    class weighting calibrates p(+|e) to the prior 1/2, so the score, the
    log odds of p(+|e), is the log-likelihood ratio."""

    zscore: ZScoreStats
    scorer: LogisticModel
    kind = "logreg"

    def predict_batch(self, dataset: LabeledDataset) -> np.ndarray:
        return _epoch_scores(self.zscore, self.scorer, dataset.data)

    @property
    def parameter_count(self) -> int:
        # per-channel z-score means and sds, the weights and the bias
        return 2 * self.zscore.mean.size + self.scorer.dimension + 1


def train_logistic_evidence(
    train: LabeledDataset,
    *,
    kind: str = "logreg",
    l2: float = L2_PENALTY,
    tolerance: float = GRADIENT_TOLERANCE,
) -> LogisticEvidenceModel:
    """Fit the discriminative baseline, model kind ``logreg``, on labeled
    epochs."""
    _check_kind(kind, "train_logistic_evidence", "logistic")
    stats = fit_zscore(train.data)
    flat = zscore_array(stats, train.data).reshape(len(train), -1)
    scorer = train_logistic(flat, train.labels, l2=l2, tolerance=tolerance)
    return LogisticEvidenceModel(stats, scorer)


@dataclass(frozen=True)
class GenerativeEvidenceModel(EvidenceModel):
    """z-score -> flatten -> linear scorer -> per-class KDE; emits the
    difference of the two log class-conditional densities, finite because
    both are floored.

    The scorer takes the flattened z-scored epoch; the PCA projection it was
    fit on is folded into its weights. ``kind`` names the fit that made it:
    ``gen-logr`` (logistic regression) or ``gen-lda``.
    """

    kind: str
    zscore: ZScoreStats
    scorer: LogisticModel
    kde_pos: KdeDensity
    kde_neg: KdeDensity

    def __post_init__(self) -> None:
        _check_kind(self.kind, "build_generative", "generative")

    def predict_batch(self, dataset: LabeledDataset) -> np.ndarray:
        scores = _epoch_scores(self.zscore, self.scorer, dataset.data)
        return kde_log_eval_many(self.kde_pos, scores) - kde_log_eval_many(self.kde_neg, scores)

    @property
    def parameter_count(self) -> int:
        # logreg's count, plus the two KDEs' training scores and bandwidths
        return (2 * self.zscore.mean.size + self.scorer.dimension + 1
                + self.kde_pos.scores.size + self.kde_neg.scores.size + 2)


class ConstantEvidenceModel(EvidenceModel):
    """Ignores the epoch and always reports p(+|e) = ``pos``, calibrated to
    the label ``prior``: the log-likelihood ratio logit(pos) - logit(prior)
    for every epoch. Used for the control rows: a model that blindly backs
    one class no matter what. The default prior is that of one queried
    symbol of the default alphabet."""

    def __init__(self, pos: float, kind: str = "constant",
                 prior: float = 1.0 / DEFAULT_ALPHABET_SIZE):
        if not (math.isfinite(pos) and 0.0 <= pos <= 1.0):
            raise ValueError(f"pos must be a probability in [0, 1], got {pos!r}")
        label_prior = LabelPrior(prior)
        with np.errstate(divide="ignore"):
            self._llr = float((np.log(pos) - math.log(label_prior.p_pos))
                              - (np.log(1.0 - pos) - math.log(label_prior.p_neg)))
        self.kind = kind

    def predict_batch(self, dataset: LabeledDataset) -> np.ndarray:
        return np.full(len(dataset), self._llr)


class OracleEvidenceModel(EvidenceModel):
    """Reads the true epoch label and reports it with certainty."""

    kind = "oracle"

    def predict_batch(self, dataset: LabeledDataset) -> np.ndarray:
        return np.where(dataset.labels == 1, np.inf, -np.inf)


# The one place a trainable model kind is declared. Fits are named, not
# held, and looked up at call time, so a wrapper put in place of one is used.
MODEL_KINDS = {
    "logreg": ModelKind("train_logistic_evidence", ("l2", "tolerance")),
    "gen-logr": ModelKind("build_generative", ("variance_fraction", "l2", "tolerance")),
    "gen-lda": ModelKind("build_generative", ("variance_fraction",)),
}
