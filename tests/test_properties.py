"""Property tests: the batched posterior filter against a per-event
reference, the scalar query API, the block filter against the per-sample
recursion, the CLI's exit codes on damaged container files, and config files
read back as written."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rsvptyping.cli import SEED_KEYS, SIMULATE_SCHEMA, ConfigError, main, resolve_config
from rsvptyping.core import (
    Alphabet,
    DegenerateEvidenceError,
    LabelPrior,
    LikelihoodPair,
    QueryEvent,
    apply_query,
    apply_round,
    decide_rows,
    init_posterior,
)
from rsvptyping.dsp import (
    BLOCK_SAMPLES,
    BiquadCoefficients,
    design_bandpass,
    design_notch,
    filter_forward,
)
from rsvptyping.models import TRAIN_SCHEMA

from oracles import reference_filter, sequential_posterior, threshold_decision


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
    """``slots`` evidence pairs of one mode."""
    if mode == "discriminative":
        return [LikelihoodPair.discriminative(draw(probabilities)) for _ in range(slots)]
    return [LikelihoodPair.generative(*draw(
                st.tuples(densities, densities).filter(lambda d: d[0] + d[1] > 0.0)))
            for _ in range(slots)]


def label_prior(draw, mode):
    return LabelPrior(draw(st.floats(0.05, 0.95))) if mode == "discriminative" else None


@st.composite
def rounds(draw):
    """Start posteriors, one round of queries and the evidence each drew."""
    size = draw(st.integers(2, 8))
    rows = draw(st.integers(1, 4))
    slots = draw(st.integers(1, 2 * size))
    mode = draw(modes)
    starts = [draw(start_weights(size)) for _ in range(rows)]
    # drawn with repeats, as sampling with replacement does
    queries = [draw(st.lists(st.integers(0, size - 1), min_size=slots, max_size=slots))
               for _ in range(rows)]
    pairs = [evidence(draw, mode, slots) for _ in range(rows)]
    return size, starts, queries, pairs, label_prior(draw, mode)


@settings(max_examples=300, deadline=None)
@given(rounds(), st.floats(0.05, 1.0))
def test_kernel_round_matches_sequential_reference(case, threshold):
    size, starts, queries, pairs, prior = case
    alphabet = Alphabet.default(size)
    start = np.stack([init_posterior(alphabet, weights).log_probs for weights in starts])
    log_prior = (0.0, 0.0) if prior is None else (_log(prior.p_pos), _log(prior.p_neg))
    log_pos = np.array([[_log(p.pos) - log_prior[0] for p in row] for row in pairs])
    log_neg = np.array([[_log(p.neg) - log_prior[1] for p in row] for row in pairs])

    expected = [sequential_posterior(*row) for row in zip(start, queries, log_pos, log_neg)]
    if any(row is None for row in expected):
        with pytest.raises(DegenerateEvidenceError):
            apply_round(start, np.array(queries), log_pos, log_neg)
        return
    updated = apply_round(start, np.array(queries), log_pos, log_neg)
    assert not np.isnan(updated).any()
    for row, reference in zip(updated, expected):
        np.testing.assert_allclose(np.exp(row), np.exp(reference), rtol=0, atol=1e-12)

    best, confident = decide_rows(np.stack(expected), threshold)
    for b, c, reference in zip(best, confident, expected):
        assert (int(b) if c else None) == threshold_decision(reference, threshold)


@st.composite
def queries(draw):
    """A start state, one query's events with repeated symbols and exact 0/1
    evidence, the label prior they need, and a reordering of the events."""
    size = draw(st.integers(2, 8))
    mode = draw(modes)
    slots = draw(st.integers(1, 2 * size))
    state = init_posterior(Alphabet.default(size), draw(start_weights(size)))
    indices = draw(st.lists(st.integers(0, size - 1), min_size=slots, max_size=slots))
    events = [QueryEvent(q, pair) for q, pair in zip(indices, evidence(draw, mode, slots))]
    return state, events, label_prior(draw, mode), draw(st.permutations(events))


def _posterior_or_none(state, events, prior):
    try:
        return apply_query(state, events, prior)
    except DegenerateEvidenceError:
        return None


@settings(max_examples=200, deadline=None)
@given(queries())
def test_apply_query_stays_normalized(case):
    state, events, prior, _ = case
    out = _posterior_or_none(state, events, prior)
    if out is not None:
        assert abs(float(np.sum(np.exp(out.log_probs))) - 1.0) <= 1e-12
        assert out.step == state.step + len(events)


@settings(max_examples=200, deadline=None)
@given(queries())
def test_apply_query_ignores_event_order(case):
    state, events, prior, shuffled = case
    out = _posterior_or_none(state, events, prior)
    out_shuffled = _posterior_or_none(state, shuffled, prior)
    assert (out is None) == (out_shuffled is None)
    if out is not None:
        np.testing.assert_allclose(
            out_shuffled.probabilities(), out.probabilities(), rtol=0, atol=1e-12
        )


@settings(max_examples=200, deadline=None)
@given(queries())
def test_apply_query_one_event_at_a_time_agrees(case):
    state, events, prior, _ = case
    out = _posterior_or_none(state, events, prior)
    stepped = state
    for event in events:
        stepped = _posterior_or_none(stepped, [event], prior)
        if stepped is None:
            break
    assert (out is None) == (stepped is None)
    if out is not None:
        np.testing.assert_allclose(stepped.probabilities(), out.probabilities(), rtol=0, atol=1e-12)
        assert stepped.step == out.step


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


@pytest.mark.parametrize("name", ["data", "logreg", "gen-lda"])
@settings(max_examples=40, deadline=None)
@given(where=st.floats(0.0, 1.0, exclude_max=True), mask=st.integers(1, 255))
def test_payload_byte_flip_exits_0_or_2(containers, name, where, mask):
    blob = bytearray(containers[1][name].read_bytes())
    (header_len,) = struct.unpack("<I", blob[:4])
    start = 4 + header_len
    blob[start + int(where * (len(blob) - start))] ^= mask
    assert run_on(containers, name, bytes(blob)) in (0, 2)


# ---------------------------------------------------------------------------
# Config files

# values of each schema type, as a config line can hold them: text has no
# comment mark or line break, and no whitespace at either end
SCHEMA_VALUES = {
    "int": st.integers(-(10**12), 10**12),
    "float": st.floats(allow_nan=False),
    "bool": st.booleans(),
    "str": st.text(
        st.characters(blacklist_characters="#\r\n", blacklist_categories=("Cs",))
    ).map(str.strip),
}


@st.composite
def config_files(draw):
    """A schema and values for some of its keys."""
    schema = draw(st.sampled_from([TRAIN_SCHEMA, SIMULATE_SCHEMA]))
    keys = draw(st.lists(st.sampled_from(sorted(schema)), unique=True))
    return schema, {key: draw(SCHEMA_VALUES[schema[key]]) for key in keys}


@settings(max_examples=200, deadline=None)
@given(config_files())
def test_config_file_round_trip(tmp_path_factory, case):
    schema, values = case
    path = tmp_path_factory.mktemp("config") / "run.cfg"
    path.write_text(
        "# written by the round-trip property\n"
        + "".join(f"{key} = {value!r}\n" if schema[key] == "float" else f"{key} = {value}\n"
                  for key, value in values.items()),
        encoding="utf-8",
    )
    # every value reads back as written, except a negative seed, which the
    # config rejects by name
    negative = [key for key in SEED_KEYS if values.get(key, 0) < 0]
    if negative:
        with pytest.raises(ConfigError, match=f"^{negative[0]} must be a non-negative integer"):
            resolve_config(str(path), schema, {})
    else:
        assert resolve_config(str(path), schema, {}) == values
