"""Property tests: the batched posterior filter against a per-event
reference, typing's log-likelihood-ratio factors against the factor pair
they replace, the block filter against the per-sample recursion, block KDE and
per-channel z-scoring against their whole-matrix forms, the folded
generative scorer against PCA then the scorer, onset checks and downsampling
against per-pair loops, the CLI's exit codes on damaged container files, and
config files read back as written."""

import math
import struct
from enum import Enum
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rsvptyping.cli import (
    PREPROCESS_DEFAULTS,
    SEED_KEYS,
    SIMULATE_DEFAULTS,
    SYNTH_DEFAULTS,
    TRAIN_DEFAULTS,
    ConfigError,
    main,
    resolve_config,
)
from rsvptyping.core import (
    DegenerateEvidenceError,
    LabelPrior,
    LikelihoodMode,
    apply_round,
    decide_rows,
    update_factors,
)
from rsvptyping.dsp import (
    BLOCK_SAMPLES,
    BiquadCoefficients,
    design_bandpass,
    RawRecording,
    design_notch,
    downsample,
    filter_forward,
)
from rsvptyping import models
from rsvptyping.dsp import fit_zscore, zscore_array
from rsvptyping.models import KdeDensity, kde_log_eval_many
from rsvptyping.sim import log_factors
from rsvptyping.synth import LabeledDataset

from oracles import (
    reference_downsample_onsets,
    reference_filter,
    reference_kde_log_eval,
    reference_onsets_valid,
    reference_projected_scores,
    reference_zscore_stats,
    sequential_posterior,
    threshold_decision,
)


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


# evidence with exact zeros, so that some factors are -inf
probabilities = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
densities = st.one_of(st.just(0.0), st.floats(1e-300, 5.0))
modes = st.sampled_from(["discriminative", "generative"])


def start_weights(size):
    """Unnormalized start posteriors, zero entries included."""
    return st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size).filter(
        lambda w: sum(w) > 0.0
    )


def evidence(draw, mode, slots):
    """``slots`` (pos, neg) evidence pairs of one mode."""
    if mode == "discriminative":
        return [(p, 1.0 - p) for p in (draw(probabilities) for _ in range(slots))]
    return [draw(st.tuples(densities, densities).filter(lambda d: d[0] + d[1] > 0.0))
            for _ in range(slots)]


def label_prior(draw, mode):
    return LabelPrior(draw(st.floats(0.05, 0.95))) if mode == "discriminative" else None


@st.composite
def rounds(draw):
    """Start posteriors, one round of queries, the evidence each drew and a
    reordering of the round's slots."""
    size = draw(st.integers(2, 8))
    rows = draw(st.integers(1, 4))
    slots = draw(st.integers(1, 2 * size))
    mode = draw(modes)
    starts = [draw(start_weights(size)) for _ in range(rows)]
    # drawn with repeats, as sampling with replacement does
    queries = [draw(st.lists(st.integers(0, size - 1), min_size=slots, max_size=slots))
               for _ in range(rows)]
    pairs = [evidence(draw, mode, slots) for _ in range(rows)]
    order = draw(st.permutations(range(slots)))
    return starts, queries, pairs, label_prior(draw, mode), order


@settings(max_examples=300, deadline=None)
@given(rounds(), st.floats(0.05, 1.0))
def test_kernel_round_matches_sequential_reference(case, threshold):
    starts, queries, pairs, prior, order = case
    # a round without slots only normalizes each start
    no_slots = np.empty((len(starts), 0))
    with np.errstate(divide="ignore"):
        start = apply_round(np.log(starts), no_slots, no_slots, no_slots)
    log_prior = (0.0, 0.0) if prior is None else (_log(prior.p_pos), _log(prior.p_neg))
    log_pos = np.array([[_log(pos) - log_prior[0] for pos, _ in row] for row in pairs])
    log_neg = np.array([[_log(neg) - log_prior[1] for _, neg in row] for row in pairs])
    queries = np.array(queries)

    expected = [sequential_posterior(*row) for row in zip(start, queries, log_pos, log_neg)]
    if any(row is None for row in expected):
        for perm in (slice(None), order):
            with pytest.raises(DegenerateEvidenceError):
                apply_round(start, queries[:, perm], log_pos[:, perm], log_neg[:, perm])
        return
    updated = apply_round(start, queries, log_pos, log_neg)
    assert not np.isnan(updated).any()
    for row, reference in zip(updated, expected):
        np.testing.assert_allclose(np.exp(row), np.exp(reference), rtol=0, atol=1e-12)
        assert abs(math.fsum(np.exp(row)) - 1.0) <= 1e-12
    # the slots of a round commute
    reordered = apply_round(start, queries[:, order], log_pos[:, order], log_neg[:, order])
    np.testing.assert_allclose(np.exp(reordered), np.exp(updated), rtol=0, atol=1e-12)

    best, confident = decide_rows(np.stack(expected), threshold)
    for b, c, reference in zip(best, confident, expected):
        assert (int(b) if c else None) == threshold_decision(reference, threshold)


@st.composite
def queries(draw):
    """One session's start posterior, one query's slots with repeated symbols
    and exact 0/1 evidence turned into factors by ``update_factors``, and a
    reordering of the slots."""
    size = draw(st.integers(2, 8))
    mode = draw(modes)
    slots = draw(st.integers(1, 2 * size))
    no_slots = np.empty((1, 0))
    pairs = np.array(evidence(draw, mode, slots))
    with np.errstate(divide="ignore"):
        start = apply_round(np.log([draw(start_weights(size))]), no_slots, no_slots, no_slots)
        pos, neg = np.log(pairs[None, :, 0]), np.log(pairs[None, :, 1])
    log_pos, log_neg = update_factors(LikelihoodMode(mode), pos, neg, label_prior(draw, mode))
    indices = np.array([draw(st.lists(st.integers(0, size - 1), min_size=slots, max_size=slots))])
    return start, indices, log_pos, log_neg, draw(st.permutations(range(slots)))


def _round_or_none(start, indices, log_pos, log_neg):
    try:
        return apply_round(start, indices, log_pos, log_neg)
    except DegenerateEvidenceError:
        return None


@settings(max_examples=200, deadline=None)
@given(queries())
def test_apply_query_stays_normalized(case):
    out = _round_or_none(*case[:4])
    if out is not None:
        assert abs(math.fsum(np.exp(out[0])) - 1.0) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(queries())
def test_apply_query_ignores_event_order(case):
    start, indices, log_pos, log_neg, order = case
    out = _round_or_none(start, indices, log_pos, log_neg)
    out_shuffled = _round_or_none(start, indices[:, order], log_pos[:, order], log_neg[:, order])
    assert (out is None) == (out_shuffled is None)
    if out is not None:
        np.testing.assert_allclose(np.exp(out_shuffled), np.exp(out), rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(queries())
def test_apply_query_one_event_at_a_time_agrees(case):
    start, indices, log_pos, log_neg, _ = case
    out = _round_or_none(start, indices, log_pos, log_neg)
    stepped = start
    for j in range(indices.shape[1]):
        stepped = _round_or_none(stepped, indices[:, j:j + 1], log_pos[:, j:j + 1],
                                 log_neg[:, j:j + 1])
        if stepped is None:
            break
    assert (out is None) == (stepped is None)
    if out is not None:
        np.testing.assert_allclose(np.exp(stepped), np.exp(out), rtol=0, atol=1e-12)


@settings(max_examples=300, deadline=None)
@given(queries())
def test_log_ratio_folds_as_the_factor_pair(case):
    # log_factors of log_pos - log_neg, +-inf where a factor is -inf, moves
    # each row as the pair does: the two differ by one shift per slot
    start, indices, log_pos, log_neg, _ = case
    out = _round_or_none(start, indices, log_pos, log_neg)
    folded = _round_or_none(start, indices, *log_factors(log_pos - log_neg))
    assert (out is None) == (folded is None)
    if out is not None:
        assert not np.isnan(folded).any()
        np.testing.assert_allclose(np.exp(folded), np.exp(out), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Filter cascades


# zero or of order one: tiny coefficients would push the outputs of a cascade
# into subnormal numbers, where no relative tolerance holds
numerator_coefficients = st.one_of(
    st.just(0.0), st.floats(0.01, 2.0), st.floats(-2.0, -0.01)
)


@st.composite
def stable_sections(draw):
    """A biquad with poles at |z| <= 0.99: a conjugate pair or two reals."""
    if draw(st.booleans()):
        radius = draw(st.floats(0.0, 0.99))
        angle = draw(st.floats(0.0, math.pi))
        a1, a2 = -2.0 * radius * math.cos(angle), radius * radius
    else:
        p, q = draw(st.floats(-0.99, 0.99)), draw(st.floats(-0.99, 0.99))
        a1, a2 = -(p + q), p * q
    b0, b1, b2 = (draw(numerator_coefficients) for _ in range(3))
    return BiquadCoefficients(b0=b0, b1=b1, b2=b2, a1=a1, a2=a2)


# lengths about one block long, and several blocks with a remainder
lengths = st.one_of(
    st.sampled_from([1, BLOCK_SAMPLES - 1, BLOCK_SAMPLES, BLOCK_SAMPLES + 1]),
    st.builds(lambda k, r: k * BLOCK_SAMPLES + r,
              st.integers(2, 5), st.integers(0, BLOCK_SAMPLES - 1)),
)


# the notch and 4th-order bandpass that `preprocess` builds at 256 Hz
CLI_CASCADE = [design_notch(256.0), *design_bandpass(256.0)]


# the cascade and shape `synth` filters: 62 warmup samples and 62 kept
SYNTH_CASCADE = design_bandpass(125.0)


@settings(max_examples=200, deadline=None)
@example(cascade=CLI_CASCADE, lead=[], length=1, transposed=False, seed=0, start_at=0.0)
@example(cascade=CLI_CASCADE, lead=[], length=BLOCK_SAMPLES - 1, transposed=False, seed=0,
         start_at=0.0)
@example(cascade=CLI_CASCADE, lead=[2], length=BLOCK_SAMPLES, transposed=False, seed=0,
         start_at=0.0)
@example(cascade=CLI_CASCADE, lead=[2], length=BLOCK_SAMPLES, transposed=False, seed=0,
         start_at=1.0)
@example(cascade=CLI_CASCADE, lead=[2, 3], length=BLOCK_SAMPLES + 1, transposed=True, seed=0,
         start_at=0.0)
@example(cascade=CLI_CASCADE, lead=[3], length=3 * BLOCK_SAMPLES + 17, transposed=True, seed=0,
         start_at=0.3)
@example(cascade=CLI_CASCADE, lead=[0], length=2 * BLOCK_SAMPLES + 5, transposed=False, seed=0,
         start_at=0.0)
@example(cascade=SYNTH_CASCADE, lead=[4, 6], length=124, transposed=False, seed=0, start_at=0.5)
@given(
    cascade=st.lists(stable_sections(), min_size=1, max_size=4),
    lead=st.lists(st.integers(0, 3), max_size=2),
    length=lengths,
    transposed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    start_at=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
)
def test_block_filter_matches_per_sample_recursion(
    cascade, lead, length, transposed, seed, start_at
):
    shape = (*lead, length)
    start = round(start_at * length)
    rng = np.random.default_rng(seed)
    # a transposed view filters along a strided axis
    signal = rng.standard_normal(shape[::-1]).T if transposed else rng.standard_normal(shape)
    out = filter_forward(cascade, signal, start=start)
    expected = reference_filter(cascade, signal)
    assert out.shape == (*lead, length - start) and out.dtype == np.float64
    # the scale of the whole recursion, warmup included, which the kept
    # outputs' rounding comes from
    scale = np.max(np.abs(expected), initial=0.0)
    assert np.max(np.abs(out - expected[..., start:]), initial=0.0) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# Damaged containers


@st.composite
def kde_cases(draw):
    """A small block budget, then score and query counts around its block
    size: 0, 1, rows - 1, rows, rows + 1 and k * rows + r queries, and from
    one score to more than the budget holds."""
    budget = draw(st.integers(1, 64))
    n_scores = draw(st.integers(1, budget + 8))
    rows = max(1, budget // n_scores)
    n_queries = draw(st.sampled_from([0, 1, rows - 1, rows, rows + 1])
                     | st.builds(lambda k, r: k * rows + r,
                                 st.integers(2, 5), st.integers(0, rows - 1)))
    return (budget, n_scores, max(n_queries, 0), draw(st.sampled_from([0.05, 0.5, 1.0, 3.7])),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=200, deadline=None)
@given(kde_cases())
def test_block_kde_matches_whole_matrix(case):
    budget, n_scores, n_queries, bandwidth, seed = case
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal(n_scores) * 3.0
    # a wide spread puts some queries on the density floor
    queries = rng.standard_normal(n_queries) * rng.choice([1.0, 30.0])
    with mock.patch.object(models, "KDE_BLOCK_BYTES", 8 * budget):
        got = kde_log_eval_many(KdeDensity(scores, bandwidth), queries)
    assert got.dtype == np.float64
    assert np.array_equal(got, reference_kde_log_eval(scores, bandwidth, queries))


# the negative class of a README-dataset split scores 4,629
# training epochs; its block at the module budget holds this many queries
README_ROWS = max(1, models.KDE_BLOCK_BYTES // (8 * 4629))


@pytest.mark.parametrize("n_scores, n_queries", [
    (4629, 0), (4629, 1), (4629, README_ROWS - 1), (4629, README_ROWS),
    (4629, README_ROWS + 1), (4629, 1200), (models.KDE_BLOCK_BYTES // 8 + 1, 3),
])
def test_block_kde_at_the_module_budget(n_scores, n_queries):
    rng = np.random.default_rng(n_scores + n_queries)
    scores = rng.standard_normal(n_scores)
    queries = rng.standard_normal(n_queries) * 2.0
    got = kde_log_eval_many(KdeDensity(scores, 0.3), queries)
    assert np.array_equal(got, reference_kde_log_eval(scores, 0.3, queries))


@st.composite
def epoch_stacks(draw):
    """Epoch stacks (n, channels, samples) in C order or as a transposed
    view, some with a constant channel, in float64 or float32."""
    n, channels, samples = (draw(st.integers(1, 40)), draw(st.integers(1, 6)),
                            draw(st.integers(1, 30)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = (rng.standard_normal((n, channels, samples)) * draw(st.sampled_from([1e-3, 1.0, 50.0]))
            + draw(st.floats(-100.0, 100.0)))
    if draw(st.booleans()):
        data[:, draw(st.integers(0, channels - 1)), :] = 4.2
    if draw(st.booleans()):
        data = np.ascontiguousarray(data.transpose(2, 1, 0)).transpose(2, 1, 0)
    return data.astype(draw(st.sampled_from([np.float64, np.float32])))


@settings(max_examples=200, deadline=None)
@given(epoch_stacks())
def test_per_channel_zscore_matches_transposed_copy(data):
    stats = fit_zscore(data)
    mean, std = reference_zscore_stats(data)
    assert np.array_equal(stats.mean, mean) and np.array_equal(stats.std, std)
    expected = (data - mean[None, :, None]) / std[None, :, None]
    assert np.array_equal(zscore_array(stats, data), expected)


@st.composite
def generative_fits(draw):
    """A training set with both classes, held-out epochs, a generative model
    kind and a PCA variance fraction; the positive class carries a drawn offset."""
    n, held, channels, samples = (draw(st.integers(6, 40)), draw(st.integers(1, 10)),
                                  draw(st.integers(1, 4)), draw(st.integers(1, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.permutation(np.arange(n) % 2)
    data = rng.standard_normal((n + held, channels, samples)) * draw(
        st.sampled_from([1e-2, 1.0, 30.0])
    )
    data[:n] += draw(st.floats(0.0, 3.0)) * labels[:, None, None]
    train = LabeledDataset(data=data[:n], labels=labels)
    return (train, data[n:], draw(st.sampled_from(["gen-logr", "gen-lda"])),
            draw(st.floats(0.1, 1.0)))


@settings(max_examples=150, deadline=None)
@given(generative_fits())
def test_folded_scorer_matches_projection_then_scorer(case):
    train, held, kind, variance_fraction = case
    model = models.build_generative(train, kind=kind, variance_fraction=variance_fraction)
    # the unfolded composition: the same PCA fit, then the scorer fit on
    # the projected training rows, applied in PCA space
    flat = zscore_array(model.zscore, train.data).reshape(len(train), -1)
    pca, reduced = models.fit_pca(flat, variance_fraction)
    if kind == "gen-logr":
        scorer = models.train_logistic(reduced, train.labels, class_weights=(1.0, 1.0))
    else:
        scorer = models.train_lda(reduced, train.labels)
    rows = zscore_array(model.zscore, held).reshape(len(held), -1)
    expected = reference_projected_scores(pca.mean, pca.components, scorer.weights,
                                          scorer.bias, rows)
    got = models.logistic_scores(model.scorer, rows)
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9)


@st.composite
def onset_lists(draw):
    """Sorted distinct onsets inside 38 samples with 0/1 labels, half of them
    with one entry spoiled: out of range, mislabelled, repeated or out of
    order."""
    samples = sorted(draw(st.lists(st.integers(0, 37), unique=True, max_size=8)))
    onsets = [[sample, draw(st.integers(0, 1))] for sample in samples]
    if onsets and draw(st.booleans()):
        row = draw(st.sampled_from(onsets))
        row[draw(st.integers(0, 1))] = draw(st.sampled_from([-1, 2, 38, onsets[0][0]]))
    return onsets


@settings(max_examples=300, deadline=None)
@example(onsets=[[3, 1], [10, 0], [11, 1]], factor=2)
@given(onsets=onset_lists(), factor=st.integers(1, 4))
def test_onset_arrays_match_per_pair_loops(onsets, factor):
    data = np.zeros((1, 38))
    if not reference_onsets_valid(onsets, 38):
        with pytest.raises(ValueError):
            RawRecording(data=data, rate=10.0, stim_onsets=onsets)
        return
    recording = RawRecording(data=data, rate=10.0, stim_onsets=onsets)
    want = reference_downsample_onsets(onsets, factor)
    if isinstance(want, tuple):
        with pytest.raises(ValueError, match=f"onsets {want[0]} and {want[1]} fall on one"):
            downsample(recording, factor)
    else:
        assert downsample(recording, factor).stim_onsets.tolist() == want


@pytest.fixture(scope="module")
def containers(tmp_path_factory):
    root = tmp_path_factory.mktemp("containers")
    synth_cfg = root / "synth.cfg"
    synth_cfg.write_text("n_epochs = 120\nchannels = 2\ntarget_fraction = 0.25\nseed = 3\n")
    sim_cfg = root / "sim.cfg"
    sim_cfg.write_text("attempts = 5\nsplits = 2\n")
    files = {"data": root / "data.bin"}
    assert main(["synth", "--config", str(synth_cfg), "--out", str(files["data"])]) == 0
    for kind in ("logreg", "gen-lda"):
        files[kind] = root / f"{kind}.bin"
        assert main(["train", str(files["data"]), "--kind", kind,
                     "--out", str(files[kind])]) == 0
    return root, files, sim_cfg


def run_on(containers, name: str, blob: bytes) -> int:
    """Exit code of the command that reads a damaged copy of file ``name``."""
    root, files, sim_cfg = containers
    damaged = root / "damaged.bin"
    damaged.write_bytes(blob)
    if name == "data":
        return main(["train", str(damaged), "--out", str(root / "out.bin")])
    return main(["simulate", str(damaged), str(files["data"]), "--config", str(sim_cfg),
                 "--out", str(root / "report.json")])


@pytest.mark.parametrize("name", ["data", "logreg", "gen-lda"])
@settings(max_examples=20, deadline=None)
@given(cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_container_exits_2(containers, name, cut):
    blob = containers[1][name].read_bytes()
    assert run_on(containers, name, blob[: int(cut * len(blob))]) == 2


@pytest.mark.parametrize("name", ["data", "logreg", "gen-lda"])
@settings(max_examples=40, deadline=None)
@given(where=st.floats(0.0, 1.0, exclude_max=True), mask=st.integers(1, 255))
def test_header_byte_flip_exits_0_or_2(containers, name, where, mask):
    blob = bytearray(containers[1][name].read_bytes())
    (header_len,) = struct.unpack("<I", blob[:4])
    position = int(where * (4 + header_len))
    blob[position] ^= mask
    assert run_on(containers, name, bytes(blob)) in (0, 2)


# model files have no payload: see the appended-bytes property
@pytest.mark.parametrize("name", ["data"])
@settings(max_examples=40, deadline=None)
@given(where=st.floats(0.0, 1.0, exclude_max=True), mask=st.integers(1, 255))
def test_payload_byte_flip_exits_0_or_2(containers, name, where, mask):
    blob = bytearray(containers[1][name].read_bytes())
    (header_len,) = struct.unpack("<I", blob[:4])
    start = 4 + header_len
    blob[start + int(where * (len(blob) - start))] ^= mask
    assert run_on(containers, name, bytes(blob)) in (0, 2)


@pytest.mark.parametrize("name", ["logreg", "gen-lda"])
@settings(max_examples=20, deadline=None)
@given(tail=st.binary(min_size=1, max_size=64))
def test_bytes_after_a_model_header_exit_2(containers, name, tail):
    assert run_on(containers, name, containers[1][name].read_bytes() + tail) == 2


# ---------------------------------------------------------------------------
# Config files

def values_like(default):
    """Values of the default's type, as a config line can hold them."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, Enum):
        return st.sampled_from(type(default))
    if isinstance(default, tuple):
        return st.lists(st.integers(-(10**6), 10**6), max_size=4).map(tuple)
    if isinstance(default, int):
        return st.integers(-(10**12), 10**12)
    return st.floats(allow_nan=False)


def config_text(value) -> str:
    """``value`` as a config line writes it."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return ", ".join(map(str, value))
    return str(value)


@st.composite
def config_files(draw):
    """A command's defaults and values for some of its keys."""
    defaults = draw(st.sampled_from(
        [SYNTH_DEFAULTS, TRAIN_DEFAULTS, SIMULATE_DEFAULTS, PREPROCESS_DEFAULTS]
    ))
    keys = draw(st.lists(st.sampled_from(sorted(defaults)), unique=True))
    return defaults, {key: draw(values_like(defaults[key])) for key in keys}


@settings(max_examples=200, deadline=None)
@given(config_files())
def test_config_file_round_trip(tmp_path_factory, case):
    defaults, values = case
    path = tmp_path_factory.mktemp("config") / "run.cfg"
    path.write_text(
        "# written by the round-trip property\n"
        + "".join(f"{key} = {config_text(value)}\n" for key, value in values.items()),
        encoding="utf-8",
    )
    # every value reads back as written, except a negative seed, which the
    # config rejects by name
    negative = [key for key in SEED_KEYS if values.get(key, 0) < 0]
    if negative:
        with pytest.raises(ConfigError, match=f"^{negative[0]} must be a non-negative integer"):
            resolve_config(str(path), defaults)
    else:
        assert resolve_config(str(path), defaults) == defaults | values
