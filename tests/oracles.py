"""Independent reference computations the test suite checks against.

These deliberately avoid the package's code paths: posteriors are found by
enumerating the full joint distribution in linear space, or by folding
evidence in one event at a time where the package folds a whole round at
once; filters run their recursion one time step at a time where the package
filters whole blocks, and filter responses are measured from impulse
responses via FFT; PCA comes from the SVD where the package decomposes the
Gram matrix; the synthetic dataset is drawn and filtered as one whole array
where the package fills it a chunk of epochs at a time; KDE log-densities and
z-score statistics come from whole-matrix temporaries where the package works
a block of rows or one channel at a time; z-scored epochs come from a
broadcast over the samples axis where the package works on flat rows;
stimulus onsets are checked and remapped one Python pair at a time where the
package works on one array. The reference logistic fit forms every Newton
Hessian from the whole float64 design, where the package reads its rows a
block at a time, forms each Hessian from float32 blocks and checks each
direction; it shares the package's loss, gradient and input checks. The
reference generative scorer fits PCA and LDA on the rows themselves, where
the package fits them from class moments streamed a block of rows at a time.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from rsvptyping import models
from rsvptyping.models import LogisticFit, LogisticModel


def enumerated_posterior(size, events, p_pos=None, prior=None):
    """Posterior over the target symbol by brute-force joint enumeration.

    Enumerates every assignment of (target, label_1, ..., label_M) for the
    graphical structure: each event's binary label is + exactly when the
    queried symbol equals the target, and the evidence factor attached to a
    label is pos/p_pos (discriminative, evidence given as label posteriors)
    or the raw density (generative). Marginalizes labels, normalizes over
    targets.

    ``events`` is a list of (queried_index, mode, pos, neg) tuples with mode
    in {"disc", "gen"}.
    """
    if prior is None:
        prior = np.full(size, 1.0 / size)
    prior = np.asarray(prior, dtype=float)
    mass = np.zeros(size)
    m = len(events)
    for d in range(size):
        total = 0.0
        for labels in itertools.product("+-", repeat=m):
            weight = prior[d]
            for (q, mode, pos, neg), lab in zip(events, labels):
                expected = "+" if q == d else "-"
                if lab != expected:
                    weight = 0.0
                    break
                if mode == "disc":
                    factor = pos / p_pos if lab == "+" else neg / (1.0 - p_pos)
                else:
                    factor = pos if lab == "+" else neg
                weight *= factor
            total += weight
        mass[d] = total
    return mass / mass.sum()


def sequential_posterior(log_start, queries, log_pos, log_neg):
    """Log posterior of one row after its events, folded in one at a time.

    Event j adds ``log_pos[j]`` to the log mass of symbol ``queries[j]`` and
    ``log_neg[j]`` to every other symbol's, and the row is renormalized
    after every event, in plain Python floats with the C library's exp and
    log. Costs O(events * A), unlike the 2^m enumeration, and stays finite
    where linear-space products underflow. Returns None when an event
    leaves no symbol with mass.
    """
    log_probs = np.asarray(log_start, dtype=np.float64).tolist()
    for q, lp, ln in zip(*(np.asarray(v).tolist() for v in (queries, log_pos, log_neg))):
        # -inf plus a finite factor stays -inf: a symbol without mass keeps none
        log_mass = [x + (lp if i == q else ln) for i, x in enumerate(log_probs)]
        peak = max(log_mass)
        if peak == -math.inf:
            return None
        log_z = peak + math.log(math.fsum(math.exp(x - peak) for x in log_mass))
        log_probs = [x - log_z for x in log_mass]
    return np.array(log_probs)


def threshold_decision(log_probs, threshold):
    """Most probable symbol of one normalized log posterior, ties to the
    lowest index, if its probability reaches ``threshold``; else None."""
    w = np.exp(log_probs - np.max(log_probs))
    probs = w / np.sum(w)
    best = int(np.argmax(probs))
    return best if probs[best] >= threshold else None


def reference_filter(coeffs, signal):
    """Causal single-pass filtering along the last axis from zero state, one
    time step at a time: each biquad section (attributes b0, b1, b2, a1, a2)
    runs the direct-form transposed II recursion, and a cascade applies its
    sections in sequence."""
    cascade = [coeffs] if hasattr(coeffs, "b0") else list(coeffs)
    x = np.asarray(signal, dtype=np.float64)
    for c in cascade:
        y = np.empty_like(x)
        z1 = np.zeros(x.shape[:-1])
        z2 = np.zeros(x.shape[:-1])
        for n in range(x.shape[-1]):
            xn = x[..., n]
            yn = c.b0 * xn + z1
            z1 = c.b1 * xn - c.a1 * yn + z2
            z2 = c.b2 * xn - c.a2 * yn
            y[..., n] = yn
        x = y
    return x


def reference_generate(config):
    """The synthetic ERP dataset of ``config`` made in one piece: all the
    white noise drawn at once, filtered from sample 0 with the warmup kept
    and then cut off, scaled, given the template and rounded through
    float32."""
    from rsvptyping.dsp import design_bandpass, filter_forward
    from rsvptyping.synth import LabeledDataset

    n = config.n_epochs
    n_pos = int(round(config.target_fraction * n))
    if n_pos < 1 or n_pos > n - 1:
        raise ValueError(
            f"target_fraction {config.target_fraction} leaves {n_pos} positives "
            f"out of {n}; both classes must be nonempty"
        )
    samples = config.samples_per_epoch
    if samples < 2:
        raise ValueError("trial window is too short for the sample rate")

    rng = np.random.default_rng(config.seed)
    labels = np.zeros(n, dtype=np.int64)
    labels[rng.permutation(n)[:n_pos]] = 1

    warmup = samples
    white = rng.standard_normal((n, config.channels, warmup + samples))
    high = min(20.0, 0.45 * config.rate)  # keep the band valid at low rates
    cascade = design_bandpass(config.rate, 1.0, high, 2)
    noise = filter_forward(cascade, white)[:, :, warmup:] * config.noise_std

    data = noise
    template = config.template()
    channel_mask = (
        np.arange(config.channels)
        if config.erp_channels is None
        else np.asarray(config.erp_channels, dtype=np.int64)
    )
    pos_rows = np.flatnonzero(labels == 1)
    data[np.ix_(pos_rows, channel_mask)] += template

    # quantize like the on-disk format so file round-trips are exact
    data = data.astype(np.float32).astype(np.float64)
    return LabeledDataset(data=data, labels=labels)


def measured_gain_db(apply_filter, rate, freq_hz, n=16384):
    """Filter magnitude response at ``freq_hz`` measured from the impulse
    response via FFT. ``n`` is chosen by callers so the frequency lands on an
    exact bin. ``apply_filter`` maps a 1-D signal to a 1-D signal."""
    impulse = np.zeros(n)
    impulse[0] = 1.0
    response = apply_filter(impulse)
    spectrum = np.fft.rfft(response)
    bin_width = rate / n
    k = freq_hz / bin_width
    assert abs(k - round(k)) < 1e-9, "frequency must fall on an FFT bin"
    mag = abs(spectrum[int(round(k))])
    return 20.0 * math.log10(mag) if mag > 0 else -math.inf


def analytic_butterworth_bandpass_db(rate, low, high, order, freq_hz):
    """Magnitude (dB) of the bilinear-transform Butterworth bandpass design.

    The digital response at f equals the analog prototype response at the
    pre-warped frequency, so this closed form is exact for any correctly
    designed filter of the same order and edges.
    """
    warped = lambda f: 2.0 * rate * math.tan(math.pi * f / rate)
    w1, w2 = warped(low), warped(high)
    w0_sq = w1 * w2
    bw = w2 - w1
    w = warped(freq_hz)
    x = (w * w - w0_sq) / (bw * w)
    return -10.0 * math.log10(1.0 + x ** (2 * order))


def svd_pca(features):
    """Explained variances, descending, and the matching principal axes as
    columns, from the thin SVD of the centered data; each axis is signed so
    that its entry of largest magnitude is positive."""
    x = np.asarray(features, dtype=np.float64)
    centered = x - x.mean(axis=0)
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    axes = vt.T * np.sign(vt[np.arange(len(vt)), np.argmax(np.abs(vt), axis=1)])
    return singular**2 / (len(x) - 1), axes


def central_difference_gradient(f, params, eps=1e-6):
    """Numerical gradient of scalar f at a flat parameter vector."""
    params = np.asarray(params, dtype=np.float64)
    grad = np.zeros_like(params)
    for i in range(params.size):
        hi = params.copy()
        lo = params.copy()
        hi[i] += eps
        lo[i] -= eps
        grad[i] = (f(hi) - f(lo)) / (2.0 * eps)
    return grad


def reference_weighted_ce(weights, bias, features, labels, class_weights):
    """Direct transcription of mean weighted cross-entropy, kept independent
    of the implementation under test (no shared helpers)."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    p = 1.0 / (1.0 + np.exp(-(x @ np.asarray(weights) + bias)))
    p = np.clip(p, 1e-300, 1.0 - 1e-16)
    w = np.where(y == 1, class_weights[1], class_weights[0])
    ce = -(y * np.log(p) + (1 - y) * np.log(1.0 - p))
    return float(np.mean(w * ce))


def grid_search_boundary_1d(xs, ys, class_weights, slopes, intercepts):
    """Brute-force the weighted CE over a (slope, intercept) grid and return
    the decision boundary -b/w of the best cell."""
    best = (math.inf, None)
    for w in slopes:
        for b in intercepts:
            loss = reference_weighted_ce([w], b, xs[:, None], ys, class_weights)
            if loss < best[0]:
                best = (loss, -b / w)
    return best[1]


def reference_kde_log_eval(scores, bandwidth, xs, floor=-745.0):
    """Gaussian KDE log-density at each query from one whole
    (queries, scores) matrix, peak-shifted before the exponential and
    floored at ``floor``."""
    scores = np.asarray(scores, dtype=np.float64)
    pts = np.asarray(xs, dtype=np.float64)
    exponents = pts[:, None] - scores[None, :]
    exponents /= bandwidth
    np.square(exponents, out=exponents)
    exponents *= -0.5
    peak = exponents.max(axis=1)
    exponents -= peak[:, None]
    logs = peak + np.log(np.exp(exponents, out=exponents).mean(axis=1))
    logs -= math.log(bandwidth) + 0.5 * math.log(2.0 * math.pi)
    return np.maximum(logs, floor)


def reference_zscore_stats(data):
    """Per-channel mean and std of a stack (n, channels, samples) from one
    transposed copy with each channel's epochs laid end to end; a std under
    1e-12 becomes 1."""
    data = np.asarray(data, dtype=np.float64)
    per_channel = np.ascontiguousarray(data.transpose(1, 0, 2)).reshape(data.shape[1], -1)
    std = per_channel.std(axis=1)
    return per_channel.mean(axis=1), np.where(std < 1e-12, 1.0, std)


def reference_zscore_array(stats, data, rows=None):
    """The epochs ``rows`` of a stack (n, channels, samples), every epoch
    when None, standardized as a float64 copy broadcast against the
    per-channel statistics over the samples axis."""
    data = np.asarray(data)
    picked = data if rows is None else data[np.asarray(rows, dtype=np.int64)]
    out = picked.astype(np.float64)
    out -= stats.mean[None, :, None]
    out /= stats.std[None, :, None]
    return out


def reference_onsets_valid(onsets, n_samples):
    """Whether (sample, label) pairs are strictly increasing, inside
    [0, n_samples) and labelled 0 or 1, checked one pair at a time."""
    last = -1
    for sample, label in onsets:
        if sample <= last or not 0 <= sample < n_samples or label not in (0, 1):
            return False
        last = sample
    return True


def reference_downsample_onsets(onsets, factor):
    """Onsets remapped by floor division, or the first two original samples
    that land on one sample."""
    for (before, _), (after, _) in zip(onsets, onsets[1:]):
        if before // factor == after // factor:
            return (before, after)
    return [[sample // factor, label] for sample, label in onsets]


def reference_projected_scores(mean, components, weights, bias, rows):
    """Scores of a linear scorer fit in PCA space, without folding: each row
    centered, projected onto the components, then weights . z + bias."""
    rows = np.asarray(rows, dtype=np.float64)
    projected = (rows - np.asarray(mean)) @ np.asarray(components)
    return projected @ np.asarray(weights) + bias


def reference_pca(features, variance_fraction):
    """PCA of the rows themselves, by fit_pca's rank and sign rules: the
    mean, the (d, r) components and the centered rows projected onto them."""
    x = np.asarray(features, dtype=np.float64)
    mean = x.mean(axis=0)
    centered = x - mean
    eigvals, eigvecs = np.linalg.eigh(centered.T @ centered)
    explained = np.clip(eigvals[::-1], 0.0, None)
    if explained.sum() <= 0.0:
        r = 1
    else:
        cumulative = np.cumsum(explained) / explained.sum()
        r = min(int(np.searchsorted(cumulative, variance_fraction - 1e-12) + 1), len(explained))
    components = eigvecs[:, ::-1][:, :r].copy()
    largest = components[np.argmax(np.abs(components), axis=0), np.arange(r)]
    components *= np.where(largest < 0, -1.0, 1.0)
    return mean, components, centered @ components


def reference_lda(features, labels):
    """LDA fit on the rows themselves: the class means and the pooled
    within-class scatter of the rows, the ridge as in train_lda. Returns
    (weights, bias)."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    n, d = x.shape
    means = [x[y == cls].mean(axis=0) for cls in (0, 1)]
    scatter = sum((x[y == cls] - means[cls]).T @ (x[y == cls] - means[cls]) for cls in (0, 1))
    pooled = scatter / max(n - 2, 1)
    mean_diag = float(np.mean(np.diag(pooled)))
    ridge = models.LDA_RIDGE * mean_diag if mean_diag > 0 else models.LDA_RIDGE
    weights = np.linalg.solve(pooled + ridge * np.eye(d), means[1] - means[0])
    counts = np.bincount(y, minlength=2)
    return weights, math.log(counts[1] / counts[0]) - 0.5 * float(weights @ (means[1] + means[0]))


def reference_generative_scorer(features, labels, kind, variance_fraction):
    """The generative fits' scorer as the unfolded composition of row fits:
    PCA of the z-scored training rows, then LDA (``gen-lda``) or the
    unweighted logistic fit (``gen-logr``) on the projected rows. Returns
    (mean, components, weights, bias), for reference_projected_scores."""
    mean, components, reduced = reference_pca(features, variance_fraction)
    if kind == "gen-logr":
        scorer = models.train_logistic(reduced, labels, class_weights=(1.0, 1.0))
        weights, bias = scorer.weights, scorer.bias
    else:
        weights, bias = reference_lda(reduced, labels)
    return mean, components, weights, bias


def _reference_newton_direction(z, x, sample_w, l2, grad_w, grad_b):
    """Solve H d = -g for the penalized loss's Hessian H in (weights, bias)."""
    p = models._sigmoid(z)
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


def reference_train_logistic(features, labels, class_weights=None, *,
                             l2=models.L2_PENALTY, tolerance=models.GRADIENT_TOLERANCE,
                             fits=None):
    """The Newton fit of ``models.train_logistic`` with every Hessian formed
    from the float64 rows and no residual check: full steps halved until
    the loss decreases, from zero parameters. Its LogisticFit counts every
    step as a float64 step."""
    x = models._as_float_matrix(features)
    y = models._as_labels(labels, x.shape[0])
    sample_w = models._sample_weights(y, class_weights) / x.shape[0]
    w = np.zeros(x.shape[1])
    b = 0.0
    losses = []
    for step in range(models.NEWTON_MAX_STEPS + 1):
        loss, grad_w, grad_b = models.logistic_loss_and_gradient(w, b, x, y, class_weights, l2)
        losses.append(loss)
        norm = math.hypot(float(np.linalg.norm(grad_w)), grad_b)
        if norm <= tolerance or step == models.NEWTON_MAX_STEPS:
            break
        dw, db = _reference_newton_direction(x @ w + b, x, sample_w, l2, grad_w, grad_b)
        for halving in range(models.MAX_STEP_HALVINGS):
            t = 0.5**halving
            trial_w, trial_b = w + t * dw, b + t * db
            if models._penalized_loss(trial_w, x @ trial_w + trial_b, y, sample_w, l2) < loss:
                break
        else:
            break
        w, b = trial_w, trial_b
    if fits is not None:
        fits.append(LogisticFit(tuple(losses), norm, tolerance, len(losses) - 1))
    return LogisticModel(weights=w, bias=b)
