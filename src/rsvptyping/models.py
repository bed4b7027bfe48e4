"""Trainable evidence models.

Two families are provided, and both score an epoch the same way: per-channel
z-scoring, flattening, and one linear score weights . x + bias. The
discriminative family maps that score straight to label probabilities: the
scorer is logistic regression trained on ridge-penalized weighted
cross-entropy by Newton's method, which reads its rows once per step: at a
trial point, one read forms the loss, the gradient and the Hessian, whose
(d, d) block comes from the rows cast to float32, and checks the direction
it tries with one float64 Hessian-vector product; a relative residual above
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
GenerativeEvidenceModel (``gen-logr`` or ``gen-lda``) adds ``kde_pos``,
``kde_neg`` and the size of its PCA. Every EvidenceModel maps each epoch of
a LabeledDataset to one float64 log-likelihood ratio log p(e|+) - log p(e|-)
per epoch, each model dividing by the label prior it is calibrated to: the
logistic score for ``logreg``, whose class weighting calibrates p(+|e) to
1/2; the difference of the two floored KDE log-densities for generative
kinds; +-inf for certain evidence. ``read_rows``, the one reader of epoch
rows, widens a block of them at a time to float64 in one reused buffer, so
no (n, d) design is ever built. Every fit derives the z-score from the class
moments of two raw reads. The generative fits scale their moments by it,
hold one (d, d) scatter through their PCA, and fold it into the components
of one projection read; ``logreg``'s Newton reads z-score each block in
place; and scoring folds it into the scorer: one matrix-vector product per
block of raw rows.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from .core import LabelPrior
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
# Rows every read of epoch rows takes at a time. On the README holdout split
# (5,400 x 372) at 2 OpenBLAS threads (best of 7), the logreg fit took 276,
# 220 and 217 ms in blocks of 256, 512 and 1,024 rows, the gen-lda fit 55,
# 52 and 54 ms, and its two moment reads 29, 25 and 27 ms. 512 rows halve
# the float64 read buffer (1.5 MB) and the float32 Newton buffer of 1,024.
LOGISTIC_BLOCK_ROWS = 512

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


def _check_kind(kind: str, fit: str, family: str) -> None:
    """Raise ValueError unless MODEL_KINDS fits ``kind`` with ``fit``."""
    if kind not in MODEL_KINDS or MODEL_KINDS[kind].fit != fit:
        raise ValueError(f"unknown {family} model kind {kind!r}")


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


# KDE log-densities are floored here: an epoch far outside both classes
# scores the floor under both densities, a tie, instead of being decided by
# the far tails of the two kernel sums.
LOG_DENSITY_FLOOR = -745.0

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Bytes of float64 kernel exponents kde_log_eval_many holds at once.
KDE_BLOCK_BYTES = 1 << 20


def _c_order_matrix(features: np.ndarray) -> np.ndarray:
    # C order: BLAS rounds the products of a fit differently on F-ordered rows
    out = np.asarray(features, dtype=np.float64, order="C")
    if out.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got shape {out.shape}")
    return out


def _check_finite(rows: np.ndarray) -> np.ndarray:
    # min and max propagate NaN and find infinities without a matrix-sized mask
    if rows.size and not (np.isfinite(rows.min()) and np.isfinite(rows.max())):
        raise ValueError("features must be finite")
    return rows


def _as_float_matrix(features: np.ndarray) -> np.ndarray:
    return _check_finite(_c_order_matrix(features))


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


@dataclass(frozen=True)
class RowBlocks:
    """The rows of an (n, d) float64 design, read a block at a time: each
    call of ``read()`` yields each block's first row and the block, at most
    LOGISTIC_BLOCK_ROWS C-ordered float64 rows that the next block may
    overwrite, and that its maker has checked finite. train_logistic reads
    its rows through one, so a design formed from other data, as ``logreg``'s
    z-scored rows are, is never held whole."""

    shape: tuple[int, int]
    read: Callable[[], Iterator[tuple[int, np.ndarray]]]


def _row_blocks(features) -> RowBlocks:
    """``features`` if it is RowBlocks, else the RowBlocks of views of the
    (n, d) matrix ``features``, checked finite here."""
    if isinstance(features, RowBlocks):
        return features
    x = _as_float_matrix(features)
    return RowBlocks(x.shape, lambda: (
        (lo, x[lo:lo + LOGISTIC_BLOCK_ROWS]) for lo in range(0, x.shape[0], LOGISTIC_BLOCK_ROWS)
    ))


class NewtonRead:
    """The Newton terms that one read of a logistic fit's rows forms beside
    the loss and gradient, at the same point; train_logistic passes one to
    each of its calls of logistic_loss_and_gradient. After the read:

    - ``curvature`` is the n-vector sample_w * p * (1 - p);
    - ``hessian`` is the penalized (d + 1, d + 1) Hessian in (weights,
      bias). Its (d, d) block X^T C X is summed in float64 over the blocks
      of rows, each cast to float32 and scaled by sqrt(curvature), its
      product formed in float32; ``buffers`` are the reused float32 (block
      rows, d) and (d, d) arrays these go through. The bias row and column
      are float64;
    - given ``check``, a direction (dw, db) and the curvature of the iterate
      it was solved at, ``product`` is the float64 Hessian of that iterate
      times the direction, formed from X dw + db.
    """

    def __init__(self, n: int, buffers: tuple[np.ndarray, np.ndarray],
                 check: Optional[tuple[np.ndarray, float, np.ndarray]] = None):
        d = buffers[1].shape[0]
        self.scaled32, self.gram32 = buffers
        self.check = check
        self.curvature = np.empty(n)
        self.hessian = np.zeros((d + 1, d + 1))
        if check is not None:
            self.weighted = np.empty(n)
            self.product = np.zeros(d + 1)

    def add(self, block: np.ndarray, part: slice, curvature: np.ndarray) -> None:
        """Add the terms of the rows ``block``, at positions ``part``, whose
        curvature is ``curvature``."""
        d = block.shape[1]
        self.curvature[part] = curvature
        self.hessian[:d, d] += block.T @ curvature
        scaled = self.scaled32[: block.shape[0]]
        # dtype=float32 casts each float64 entry before it multiplies, so the
        # products are those of the rows cast to float32 times the float32
        # sqrt(curvature); rows beyond float32 range make inf or NaN, and the
        # residual check rejects the direction solved from them
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(block, np.sqrt(curvature).astype(np.float32)[:, None], out=scaled,
                        dtype=np.float32)
            # X^T X of a single buffer is a symmetric product
            self.hessian[:d, :d] += np.matmul(scaled.T, scaled, out=self.gram32)
        if self.check is not None:
            dw, db, previous = self.check
            weighted = self.weighted[part] = previous[part] * (block @ dw + db)
            self.product[:d] += block.T @ weighted

    def finish(self, l2: float) -> None:
        """Complete the terms once every block is added."""
        d = self.hessian.shape[0] - 1
        self.hessian[d, :d] = self.hessian[:d, d]
        self.hessian[d, d] = float(np.sum(self.curvature))
        self.hessian[np.arange(d), np.arange(d)] += l2
        if self.check is not None:
            self.product[:d] += l2 * self.check[0]
            self.product[d] = np.sum(self.weighted)


def logistic_loss_and_gradient(
    weights: np.ndarray,
    bias: float,
    features,
    labels: np.ndarray,
    class_weights: Optional[tuple[float, float]] = None,
    l2: float = 0.0,
    *,
    newton: Optional[NewtonRead] = None,
) -> tuple[float, np.ndarray, float]:
    """Mean weighted cross-entropy plus (l2 / 2) * |weights|^2, and its
    gradient in (weights, bias). The bias is not penalized.

    Per sample: w_i * (softplus(z_i) - y_i * z_i) with z = X.weights + bias,
    which is the numerically stable form of -w_i * log p(y_i | x_i).
    ``features`` is an (n, d) matrix, checked finite, or RowBlocks; either
    is read once, a block of rows at a time. Given ``newton``, the read is
    one of train_logistic's, which checked the labels, and also forms its
    Newton terms."""
    rows = _row_blocks(features)
    n, d = rows.shape
    y = _as_labels(labels, n, require_both=class_weights is None) if newton is None else labels
    sample_w = _sample_weights(y, class_weights) / n
    w = np.asarray(weights, dtype=np.float64)
    z = np.empty(n)
    residual = np.empty(n)
    grad_w = np.zeros(d)
    for lo, block in rows.read():
        part = slice(lo, lo + block.shape[0])
        z[part] = block @ w + bias
        p = _sigmoid(z[part])
        residual[part] = sample_w[part] * (p - y[part])
        grad_w += block.T @ residual[part]
        if newton is not None:
            newton.add(block, part, sample_w[part] * p * (1.0 - p))
    if newton is not None:
        newton.finish(l2)
    grad_w += l2 * w
    return _penalized_loss(w, z, y, sample_w, l2), grad_w, float(np.sum(residual))


def _float64_hessian(rows: RowBlocks, curvature: np.ndarray, bias: np.ndarray,
                     l2: float) -> np.ndarray:
    """The penalized (d + 1, d + 1) Hessian with its (d, d) block X^T C X
    summed in float64, in one read with a block-sized float64 temporary, and
    ``bias`` as its bias row and column."""
    d = rows.shape[1]
    hessian = np.zeros((d + 1, d + 1))
    root = np.sqrt(curvature)
    for lo, block in rows.read():
        scaled = block * root[lo:lo + block.shape[0], None]
        hessian[:d, :d] += scaled.T @ scaled
    hessian[np.arange(d), np.arange(d)] += l2
    hessian[d] = hessian[:, d] = bias
    return hessian


def _solve(hessian: np.ndarray, gradient: np.ndarray) -> tuple[np.ndarray, float]:
    step = np.linalg.solve(hessian, -gradient)
    return step[:-1], float(step[-1])


def train_logistic(
    features,
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

    ``features`` is an (n, d) matrix or the RowBlocks of one, and the fit
    reads it a block of LOGISTIC_BLOCK_ROWS rows at a time: no (n, d) copy
    is made. Each read is one call of logistic_loss_and_gradient at a trial
    point, which also forms that point's Hessian, its (d, d) block from the
    rows cast to float32 (see NewtonRead), and checks the direction it tries
    with one float64 Hessian-vector product at the iterate it was solved
    at. The iterate's Hessian is dropped once its direction is solved, so
    one (d + 1, d + 1) Hessian lives at a time. The direction is kept when
    the relative residual |H d + g| / |g| is at most HESSIAN_RESIDUAL_LIMIT
    (1e-5); otherwise the trial is discarded, that step's block is formed
    from the float64 rows in one more read beside the kept bias row, and
    the LogisticFit counts the step in ``float64_steps``. Each halving is
    one more read, so a fit with no halving and no float64 step reads its
    rows ``steps + 1`` times. The loss, the gradient, the bias row and
    column, the line search and the stopping rule are float64.
    """
    if not (math.isfinite(l2) and l2 >= 0.0):
        raise ValueError(f"l2 must be non-negative and finite, got {l2!r}")
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance!r}")
    rows = _row_blocks(features)
    n, d = rows.shape
    y = _as_labels(labels, n)
    buffers = (np.empty((min(LOGISTIC_BLOCK_ROWS, n), d), dtype=np.float32),
               np.empty((d, d), dtype=np.float32))

    def read(w, b, check=None):
        newton = NewtonRead(n, buffers, check)
        return (*logistic_loss_and_gradient(w, b, rows, y, class_weights, l2, newton=newton),
                newton)

    w, b = np.zeros(d), 0.0
    loss, grad_w, grad_b, newton = read(w, b)
    losses = [loss]
    float64_steps = 0
    for _ in range(NEWTON_MAX_STEPS):
        if math.hypot(float(np.linalg.norm(grad_w)), grad_b) <= tolerance:
            break
        gradient = np.append(grad_w, grad_b)
        dw, db = _solve(newton.hessian, gradient)
        # one Hessian lives at a time: the iterate's goes before the trial
        # read forms its own, keeping the bias row a float64 step needs
        bias = newton.hessian[d].copy()
        newton.hessian = None
        # the check has not yet passed the direction, which may point anywhere,
        # so the trial's loss may overflow or be NaN
        with np.errstate(over="ignore", invalid="ignore"):
            trial = read(w + dw, b + db, check=(dw, db, newton.curvature))
        # written so that a NaN or inf residual fails it too
        residual = np.linalg.norm(trial[3].product + gradient)
        exact = not residual <= HESSIAN_RESIDUAL_LIMIT * np.linalg.norm(gradient)
        if exact:
            del trial
            dw, db = _solve(_float64_hessian(rows, newton.curvature, bias, l2), gradient)
            trial = read(w + dw, b + db)
        t = 1.0
        for _ in range(MAX_STEP_HALVINGS - 1):
            if trial[0] < loss:
                break
            t *= 0.5
            del trial
            trial = read(w + t * dw, b + t * db)
        if not trial[0] < loss:
            break
        w, b = w + t * dw, b + t * db
        loss, grad_w, grad_b, newton = trial
        losses.append(loss)
        float64_steps += exact
    norm = math.hypot(float(np.linalg.norm(grad_w)), grad_b)
    return LogisticModel(w, b, LogisticFit(tuple(losses), norm, tolerance, float64_steps))


# ---------------------------------------------------------------------------
# Linear discriminant analysis

# Ridge added to LDA's pooled covariance, as a fraction of its mean diagonal:
# enough to keep the matrix positive definite on degenerate data.
LDA_RIDGE = 1e-3


def train_lda(pooled: np.ndarray, means: np.ndarray, counts: np.ndarray) -> LogisticModel:
    """Fit LDA from class moments, returned as the linear log-odds model it
    is: ``pooled`` is the (d, d) pooled within-class covariance, ``means``
    the (2, d) class means, negative class first, and ``counts`` the two
    class sizes.

    With one shared covariance S, log p(+|x) - log p(-|x) is linear in x:
    weights = S^-1 (mean_pos - mean_neg) and
    bias = log(n_pos / n_neg) - weights . (mean_pos + mean_neg) / 2.
    The ridge is LDA_RIDGE times the mean diagonal of the pooled covariance;
    a covariance that is still not positive definite raises LinAlgError.
    """
    pooled = np.asarray(pooled, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    d = means.shape[-1]
    if means.shape != (2, d) or pooled.shape != (d, d) or np.shape(counts) != (2,):
        raise ValueError("LDA takes a (d, d) covariance, (2, d) class means and 2 counts")
    if min(counts) < 1:
        raise ValueError("both classes must be present")
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
    mean: np.ndarray, scatter: np.ndarray, n: int,
    variance_fraction: float = VARIANCE_FRACTION,
) -> PcaProjection:
    """PCA of ``n`` rows from their mean and their (d, d) scatter matrix
    about it, the sum of (x - mean)(x - mean)^T over the rows.

    Keep the smallest number of components whose cumulative explained
    variance reaches ``variance_fraction``. Zero-variance input keeps one
    component by convention. Component signs are fixed so the entry of
    largest magnitude is positive, making the fit deterministic. Axes that
    eigh returns non-orthonormal raise LinAlgError."""
    if n < 2:
        raise ValueError("PCA needs at least 2 samples")
    if not (0.0 < variance_fraction <= 1.0):
        raise ValueError("variance_fraction must lie in (0, 1]")
    mean = np.asarray(mean, dtype=np.float64)
    if mean.ndim != 1 or np.shape(scatter) != (mean.shape[0],) * 2:
        raise ValueError("PCA takes a (d,) mean and a (d, d) scatter matrix")
    # the scatter matrix's eigenpairs are the squared singular values and
    # right singular vectors of the centered rows; eigh returns them ascending
    eigvals, eigvecs = np.linalg.eigh(scatter)
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
    return PcaProjection(mean=mean, components=components, variance_fraction=achieved)


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


def _quartiles(s: np.ndarray) -> tuple[float, float]:
    """The 25th and 75th percentiles of ``s`` by numpy's linear rule, from
    one sort: the virtual index n*q + (1 - q) - 1 between sorted entries a
    and b at fraction g gives a + (b - a)*g below g = 0.5, else
    b - (b - a)*(1 - g), as np.percentile rounds it. np.percentile itself
    imports numpy.ma, which costs every fit's process 9-15 ms."""
    ordered = np.sort(s)
    n = ordered.shape[0]
    quartiles = []
    for q in (0.25, 0.75):
        virtual = n * q + (1.0 - q) - 1.0
        below = math.floor(virtual)
        a, b = ordered[min(below, n - 1)], ordered[min(below + 1, n - 1)]
        g = virtual - below
        quartiles.append(float(a + (b - a) * g if g < 0.5 else b - (b - a) * (1.0 - g)))
    return quartiles[0], quartiles[1]


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
    q25, q75 = _quartiles(s)
    spread = min(sd, (q75 - q25) / 1.34) or sd or abs(float(s[0])) or 1.0
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
# Epoch rows, their z-score and the generative pipeline


def read_rows(dataset: LabeledDataset) -> Iterator[tuple[int, np.ndarray]]:
    """The dataset's rows of its epoch stack, LOGISTIC_BLOCK_ROWS at a time:
    yields each block's first position and the block, flattened and
    widened to float64, a C-ordered (rows, channels * samples) view of one
    buffer that the next block overwrites. The dataset's reader fills each
    block from spans of at most SPAN_EPOCHS epochs of its stack, read from
    the file when the stack is an EpochFile, so no more of the stack than
    one span is ever held in its own dtype."""
    n, width = len(dataset), math.prod(dataset.epochs.shape[1:])
    buffer = np.empty((min(LOGISTIC_BLOCK_ROWS, n), width))
    with dataset.reader() as fill:
        for lo in range(0, n, LOGISTIC_BLOCK_ROWS):
            block = buffer[: min(LOGISTIC_BLOCK_ROWS, n - lo)]
            fill(lo, lo + len(block), block)
            yield lo, block


@dataclass(frozen=True)
class ZScoreStats:
    """Per-channel mean and standard deviation from a training set: finite
    vectors of one length, every std positive."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        if np.ndim(self.mean) != 1 or np.shape(self.std) != np.shape(self.mean):
            raise ValueError("z-score mean and std must be vectors of one length")
        finite = np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.std))
        if not (finite and np.all(np.asarray(self.std) > 0)):
            raise ValueError("z-score mean and std must be finite, std positive")

    def per_feature(self, samples: int) -> tuple[np.ndarray, np.ndarray]:
        """The mean and std repeated per sample: one each per feature."""
        return np.repeat(self.mean, samples), np.repeat(self.std, samples)


def _less_class_means(block: np.ndarray, labels: np.ndarray, means: np.ndarray) -> None:
    """Subtract from each row of ``block`` in place its class's row of the
    (2, d) ``means``, copying the positive rows, not the block."""
    pos = np.flatnonzero(labels)
    positive = block[pos]
    positive -= means[1]
    block -= means[0]
    block[pos] = positive


def _class_moments(train: LabeledDataset, scatter: bool = True) -> tuple:
    """Class sizes, (2, d) class means, d feature means and within-class
    scatter (the (d, d) sum of (x - m_c)(x - m_c)^T, or its diagonal unless
    ``scatter``) of the flattened raw rows, from two reads: the class sums,
    which rejects non-finite rows, and the rows less their class mean. Last,
    the per-channel z-score: a channel's mean is that of its feature means
    m_j; its variance is the sum over its features of the total scatter
    diagonal (within-class plus sum_c n_c (m_cj - m_j)^2) and n (m_j -
    mean)^2, over n * samples. A std under 1e-12 becomes 1 (centered only)."""
    labels = train.labels
    counts = np.bincount(labels, minlength=2)
    if counts.min() == 0:
        raise ValueError("both classes must be present")
    n, (channels, samples) = len(train), train.epochs.shape[1:]
    sums = np.zeros((2, channels * samples))
    for lo, block in read_rows(train):
        # one row of indicators per class: the product sums each class's rows
        classes = np.equal.outer((0, 1), labels[lo:lo + len(block)])
        sums += classes.astype(np.float64) @ _check_finite(block)
    del block  # the buffer goes before the next read makes its own
    means = sums / counts[:, None]
    within = np.zeros((sums.shape[1],) * (2 if scatter else 1))
    for lo, block in read_rows(train):
        _less_class_means(block, labels[lo:lo + len(block)], means)
        if scatter:
            within += block.T @ block
        else:
            within += np.einsum("ij,ij->j", block, block)
    mean = sums.sum(axis=0) / n
    diagonal = (within.diagonal() if scatter else within) + counts @ (means - mean) ** 2
    features = mean.reshape(channels, samples)
    channel_mean = features.mean(axis=1)
    spread = diagonal.reshape(channels, samples) + n * (features - channel_mean[:, None]) ** 2
    std = np.sqrt(spread.sum(axis=1) / (n * samples))
    stats = ZScoreStats(mean=channel_mean, std=np.where(std < 1e-12, 1.0, std))
    return counts, means, mean, within, stats


def _epoch_scores(stats: ZScoreStats, scorer: LogisticModel, dataset: LabeledDataset) -> np.ndarray:
    """One score per epoch: the scorer of z-scored epochs, weights . z + bias,
    folded into (weights / std) . x + bias - mean . (weights / std) of the
    raw rows and applied a block at a time. Each row is checked finite."""
    channels, samples = dataset.epochs.shape[1:]
    if channels != stats.mean.size or channels * samples != scorer.dimension:
        raise ValueError(f"epochs of shape {dataset.epochs.shape[1:]} do not fit the model")
    mean, std = stats.per_feature(samples)
    weights = scorer.weights / std
    bias = scorer.bias - float(mean @ weights)
    scores = np.empty(len(dataset))
    for lo, block in read_rows(dataset):
        scores[lo:lo + len(block)] = _check_finite(block) @ weights + bias
    return scores


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

    No row is z-scored: _class_moments' raw class means and scatter S_w,
    scaled by the z-score's std, are the z-scored rows' moments, and the PCA
    is that of their total scatter S_w + sum_c n_c (m_c - m)(m_c - m)^T,
    formed in S_w's own buffer and dropped after the PCA, so one (d, d)
    matrix is held there. A third read then projects the rows with the
    z-score folded into the components, (x - c) @ (components / std):
    logistic regression takes the (n, r) projected rows, c the mean m, and
    LDA the (r, r) scatter of the projected rows less their class mean,
    c = m_c, as its pooled covariance.
    """
    _check_kind(kind, "build_generative", "generative")
    labels, n = train.labels, len(train)
    counts, means, mean, within, stats = _class_moments(train)
    center, scale = stats.per_feature(train.epochs.shape[2])
    # the z-scored rows' moments: z = (x - center) / scale feature by feature.
    # The scatter is scaled 64 rows at a time, making no (d, d) temporary,
    # and their total scatter takes its buffer
    for lo in range(0, len(scale), 64):
        within[lo:lo + 64] /= np.outer(scale[lo:lo + 64], scale)
    offsets = (means - mean) / scale
    within += (offsets.T * counts) @ offsets
    pca = fit_pca((mean - center) / scale, within, n, variance_fraction)
    del within
    components = pca.components
    r = components.shape[1]
    # one projection read: gen-logr keeps the rows, gen-lda sums their scatter
    raw_components = components / scale[:, None]
    logistic = kind == "gen-logr"
    projected = np.empty((n, r)) if logistic else np.zeros((r, r))
    for lo, block in read_rows(train):
        if logistic:
            block -= mean
            projected[lo:lo + len(block)] = block @ raw_components
        else:
            _less_class_means(block, labels[lo:lo + len(block)], means)
            rows = block @ raw_components
            projected += rows.T @ rows
    del block
    if logistic:
        scorer = train_logistic(projected, labels, (1.0, 1.0), l2=l2, tolerance=tolerance)
    else:
        scorer = train_lda(projected / max(n - 2, 1), offsets @ components, counts)
    folded = _fold_projection(scorer, pca)
    scores = _epoch_scores(stats, folded, train)
    return GenerativeEvidenceModel(
        kind=kind,
        zscore=stats,
        scorer=folded,
        kde_pos=fit_kde(scores[labels == 1]),
        kde_neg=fit_kde(scores[labels == 0]),
        pca_rank=r,
        pca_variance_fraction=pca.variance_fraction,
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
        return _epoch_scores(self.zscore, self.scorer, dataset)

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
    epochs. Its z-score comes from _class_moments, which forms only the
    scatter's diagonal; each Newton read z-scores each block in place."""
    _check_kind(kind, "train_logistic_evidence", "logistic")
    *_, stats = _class_moments(train, scatter=False)
    center, scale = stats.per_feature(train.epochs.shape[2])

    def standardized():
        for lo, block in read_rows(train):
            block -= center
            block /= scale
            yield lo, block

    rows = RowBlocks((len(train), math.prod(train.epochs.shape[1:])), standardized)
    scorer = train_logistic(rows, train.labels, l2=l2, tolerance=tolerance)
    return LogisticEvidenceModel(stats, scorer)


@dataclass(frozen=True)
class GenerativeEvidenceModel(EvidenceModel):
    """z-score -> flatten -> linear scorer -> per-class KDE; emits the
    difference of the two log class-conditional densities, finite because
    both are floored.

    The scorer takes the flattened z-scored epoch; the PCA projection it was
    fit on is folded into its weights, and ``pca_rank`` and
    ``pca_variance_fraction`` say how many components it kept and the
    fraction of variance they explain. ``kind`` names the fit that made it:
    ``gen-logr`` (logistic regression) or ``gen-lda``.
    """

    kind: str
    zscore: ZScoreStats
    scorer: LogisticModel
    kde_pos: KdeDensity
    kde_neg: KdeDensity
    pca_rank: int
    pca_variance_fraction: float

    def __post_init__(self) -> None:
        _check_kind(self.kind, "build_generative", "generative")

    def predict_batch(self, dataset: LabeledDataset) -> np.ndarray:
        scores = _epoch_scores(self.zscore, self.scorer, dataset)
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
