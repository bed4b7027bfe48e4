"""Property tests: the batched typing kernel against the scalar core
updates, and the CLI's exit codes on damaged container files."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsvptyping.cli import main
from rsvptyping.core import (
    Alphabet,
    DegenerateEvidenceError,
    LabelPrior,
    LikelihoodPair,
    QueryEvent,
    apply_query,
    decide,
    init_posterior,
)
from rsvptyping.sim import apply_round, decide_rows


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


# evidence with exact zeros, so that some factors are -inf
probabilities = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
densities = st.one_of(st.just(0.0), st.floats(1e-300, 5.0))


@st.composite
def rounds(draw):
    """Start posteriors, one round of queries and the evidence each drew."""
    size = draw(st.integers(2, 8))
    rows = draw(st.integers(1, 4))
    slots = draw(st.integers(1, 2 * size))
    mode = draw(st.sampled_from(["discriminative", "generative"]))
    starts = [
        draw(
            st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size).filter(
                lambda w: sum(w) > 0.0
            )
        )
        for _ in range(rows)
    ]
    # drawn with repeats, as sampling with replacement does
    queries = [draw(st.lists(st.integers(0, size - 1), min_size=slots, max_size=slots))
               for _ in range(rows)]
    if mode == "discriminative":
        pairs = [[LikelihoodPair.discriminative(draw(probabilities)) for _ in range(slots)]
                 for _ in range(rows)]
        prior = LabelPrior(draw(st.floats(0.05, 0.95)))
    else:
        pairs = [[LikelihoodPair.generative(*draw(
                    st.tuples(densities, densities).filter(lambda d: d[0] + d[1] > 0.0)))
                  for _ in range(slots)]
                 for _ in range(rows)]
        prior = None
    return size, starts, queries, pairs, prior


@settings(max_examples=300, deadline=None)
@given(rounds(), st.floats(0.05, 1.0))
def test_kernel_round_matches_sequential_core_updates(case, threshold):
    size, starts, queries, pairs, prior = case
    alphabet = Alphabet.default(size)
    states = [init_posterior(alphabet, start) for start in starts]
    log_prior = (0.0, 0.0) if prior is None else (_log(prior.p_pos), _log(prior.p_neg))
    log_pos = np.array([[_log(p.pos) - log_prior[0] for p in row] for row in pairs])
    log_neg = np.array([[_log(p.neg) - log_prior[1] for p in row] for row in pairs])

    expected = []
    for state, row_queries, row_pairs in zip(states, queries, pairs):
        events = [QueryEvent(q, pair) for q, pair in zip(row_queries, row_pairs)]
        try:
            expected.append(apply_query(state, events, prior))
        except DegenerateEvidenceError:
            expected.append(None)
    start = np.stack([state.log_probs for state in states])
    if any(state is None for state in expected):
        with pytest.raises(DegenerateEvidenceError):
            apply_round(start, np.array(queries), log_pos, log_neg)
        return
    updated = apply_round(start, np.array(queries), log_pos, log_neg)
    assert not np.isnan(updated).any()
    for row, state in zip(updated, expected):
        probs = np.exp(row - row.max())
        np.testing.assert_allclose(probs / probs.sum(), state.probabilities(), rtol=0, atol=1e-12)

    reference = np.stack([state.log_probs for state in expected])
    best, confident = decide_rows(reference, threshold)
    for b, c, state in zip(best, confident, expected):
        assert (int(b) if c else None) == decide(state, threshold)


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
