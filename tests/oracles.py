"""Independent reference computations the test suite checks against.

These deliberately avoid the package's code paths: posteriors are found by
enumerating the full joint distribution in linear space, or by folding
evidence in one event at a time where the package folds a whole round at
once, and filter responses are measured from impulse responses via FFT.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


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
