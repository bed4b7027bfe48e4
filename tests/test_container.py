"""Container I/O tests: bit-exact round trips and malformed-file rejection."""

import json
import math
import struct

import numpy as np
import pytest

from rsvptyping.container import (
    FORMAT_NAME,
    FORMAT_VERSION,
    ContainerFormatError,
    read_container,
    read_dataset,
    read_model,
    read_raw,
    write_container,
    write_dataset,
    write_model,
    write_raw,
)
from rsvptyping.dsp import RawRecording
from rsvptyping.models import (
    ConstantEvidenceModel,
    GenerativeEvidenceModel,
    build_generative,
    train_logistic_evidence,
)
from rsvptyping.synth import LabeledDataset, SynthConfig, generate


@pytest.fixture(scope="module")
def dataset():
    return generate(SynthConfig(n_epochs=80, channels=3, target_fraction=0.25, seed=3))


@pytest.fixture(scope="module")
def probes():
    return generate(SynthConfig(n_epochs=100, channels=3, target_fraction=0.25, seed=9))


@pytest.fixture(scope="module")
def logreg(dataset):
    return train_logistic_evidence(dataset)


@pytest.fixture(scope="module")
def gen_logr(dataset):
    return GenerativeEvidenceModel(build_generative(dataset))


@pytest.fixture(scope="module")
def gen_lda(dataset):
    return GenerativeEvidenceModel(build_generative(dataset, scorer_kind="lda"))


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestContainerCore:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.bin"
        header = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "kind": "raw", "z": 1}
        write_container(path, header, b"\x00\x01\x02")
        got_header, payload = read_container(path, "raw")
        assert got_header == header
        assert payload == b"\x00\x01\x02"

    def test_write_deterministic(self, tmp_path):
        header = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "kind": "raw"}
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        write_container(a, header, b"xyz")
        write_container(b, dict(reversed(list(header.items()))), b"xyz")
        assert read_bytes(a) == read_bytes(b)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ContainerFormatError, match="cannot read"):
            read_container(tmp_path / "absent.bin", "raw")

    def test_too_short(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"\x01")
        with pytest.raises(ContainerFormatError, match="too short"):
            read_container(path, "raw")

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(struct.pack("<I", 100) + b"{}")
        with pytest.raises(ContainerFormatError, match="truncated header"):
            read_container(path, "raw")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "x.bin"
        body = b"not json at all"
        path.write_bytes(struct.pack("<I", len(body)) + body)
        with pytest.raises(ContainerFormatError, match="malformed header"):
            read_container(path, "raw")

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "x.bin"
        body = json.dumps({"format": "something-else", "version": 1}).encode()
        path.write_bytes(struct.pack("<I", len(body)) + body)
        with pytest.raises(ContainerFormatError, match="not a"):
            read_container(path, "raw")

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "x.bin"
        body = json.dumps(
            {"format": FORMAT_NAME, "version": FORMAT_VERSION + 1, "kind": "raw"}
        ).encode()
        path.write_bytes(struct.pack("<I", len(body)) + body)
        with pytest.raises(ContainerFormatError, match="unsupported version"):
            read_container(path, "raw")

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "x.bin"
        write_container(
            path,
            {"format": FORMAT_NAME, "version": FORMAT_VERSION, "kind": "epochs"},
            b"",
        )
        with pytest.raises(ContainerFormatError, match="expected kind 'model'"):
            read_container(path, "model")


class TestDatasetIO:
    def test_round_trip_bit_exact(self, tmp_path, dataset):
        path = tmp_path / "d.bin"
        write_dataset(path, dataset, rate=125.0)
        loaded = read_dataset(path)
        assert len(loaded) == len(dataset)
        # synth data is float32-quantized already, so equality is exact
        assert np.array_equal(loaded.data, dataset.data)
        assert np.array_equal(loaded.labels, dataset.labels)

    def test_rate_in_header(self, tmp_path, dataset):
        path = tmp_path / "d.bin"
        write_dataset(path, dataset, rate=125.0)
        header, _ = read_container(path, "epochs")
        assert header["rate"] == 125.0
        assert header["n_epochs"] == len(dataset)

    def test_rewrite_byte_identical(self, tmp_path, dataset):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        write_dataset(a, dataset, rate=125.0)
        write_dataset(b, dataset, rate=125.0)
        assert read_bytes(a) == read_bytes(b)

    def test_payload_size_mismatch(self, tmp_path, dataset):
        path = tmp_path / "d.bin"
        write_dataset(path, dataset)
        path.write_bytes(read_bytes(path) + b"\x00")
        with pytest.raises(ContainerFormatError, match="payload size"):
            read_dataset(path)

    def test_bad_label_value(self, tmp_path, dataset):
        path = tmp_path / "d.bin"
        write_dataset(path, dataset)
        blob = bytearray(read_bytes(path))
        blob[-1] = 7
        path.write_bytes(bytes(blob))
        with pytest.raises(ContainerFormatError, match="labels"):
            read_dataset(path)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            write_dataset(tmp_path / "d.bin", LabeledDataset(np.zeros((0, 3, 62)), np.zeros(0)))


class TestRawIO:
    def make_recording(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((4, 600)).astype(np.float32).astype(np.float64)
        return RawRecording(data=data, rate=250.0, stim_onsets=((10, 1), (200, 0)))

    def test_round_trip(self, tmp_path):
        rec = self.make_recording()
        path = tmp_path / "r.bin"
        write_raw(path, rec)
        back = read_raw(path)
        assert np.array_equal(back.data, rec.data)
        assert back.rate == rec.rate
        assert back.stim_onsets == rec.stim_onsets

    def test_quantizes_to_float32(self, tmp_path):
        data = np.full((1, 8), 0.1, dtype=np.float64)
        rec = RawRecording(data=data, rate=100.0, stim_onsets=((0, 1),))
        path = tmp_path / "r.bin"
        write_raw(path, rec)
        back = read_raw(path)
        assert np.array_equal(back.data, data.astype(np.float32).astype(np.float64))

    def test_payload_size_mismatch(self, tmp_path):
        path = tmp_path / "r.bin"
        write_raw(path, self.make_recording())
        path.write_bytes(read_bytes(path)[:-4])
        with pytest.raises(ContainerFormatError, match="payload size"):
            read_raw(path)

    def test_onset_out_of_range(self, tmp_path):
        path = tmp_path / "r.bin"
        write_raw(path, self.make_recording())
        header, payload = read_container(path, "raw")
        header["onsets"] = [[10_000, 1]]
        write_container(path, header, payload)
        with pytest.raises(ContainerFormatError):
            read_raw(path)


class TestModelIO:
    def test_logreg_bit_exact(self, tmp_path, logreg):
        path = tmp_path / "m.bin"
        write_model(path, logreg, hyper={"l2": 0.05, "tolerance": 1e-6})
        loaded, hyper = read_model(path)
        assert loaded.kind == "logreg"
        assert hyper == {"l2": 0.05, "tolerance": 1e-6}
        assert np.array_equal(loaded.model.weights, logreg.model.weights)
        assert loaded.model.bias == logreg.model.bias
        assert np.array_equal(loaded.stats.mean, logreg.stats.mean)
        assert np.array_equal(loaded.stats.std, logreg.stats.std)

    def test_generative_kind_names_the_scorer(self, gen_logr, gen_lda):
        assert (gen_logr.kind, gen_lda.kind) == ("gen-logr", "gen-lda")

    @pytest.mark.parametrize("name", ["logreg", "gen_logr", "gen_lda"])
    def test_identical_predictions_after_reload(
        self, tmp_path, probes, name, request
    ):
        model = request.getfixturevalue(name)
        path = tmp_path / "m.bin"
        write_model(path, model)
        loaded, _ = read_model(path)
        assert loaded.kind == model.kind
        assert loaded.parameter_count == model.parameter_count
        before = model.predict_batch(probes)
        after = loaded.predict_batch(probes)
        assert np.array_equal(before[0], after[0]) and np.array_equal(before[1], after[1])

    @pytest.mark.parametrize("name", ["logreg", "gen_logr", "gen_lda"])
    def test_rewrite_byte_identical(self, tmp_path, name, request):
        model = request.getfixturevalue(name)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        write_model(a, model, hyper={"bandwidth": 1.0})
        write_model(b, model, hyper={"bandwidth": 1.0})
        assert read_bytes(a) == read_bytes(b)

    def test_gen_lda_arrays_survive(self, tmp_path, gen_lda):
        path = tmp_path / "m.bin"
        write_model(path, gen_lda)
        loaded, _ = read_model(path)
        orig, back = gen_lda.pipeline, loaded.pipeline
        assert np.array_equal(back.pca.components, orig.pca.components)
        assert np.array_equal(back.scorer.precision, orig.scorer.precision)
        assert back.scorer.log_prior_pos == orig.scorer.log_prior_pos
        assert np.array_equal(back.kde_pos.scores, orig.kde_pos.scores)
        assert back.kde_neg.bandwidth == orig.kde_neg.bandwidth

    def test_truncated_payload(self, tmp_path, logreg):
        path = tmp_path / "m.bin"
        write_model(path, logreg)
        path.write_bytes(read_bytes(path)[:-8])
        with pytest.raises(ContainerFormatError, match="truncated"):
            read_model(path)

    def test_trailing_bytes(self, tmp_path, logreg):
        path = tmp_path / "m.bin"
        write_model(path, logreg)
        path.write_bytes(read_bytes(path) + b"\x00" * 8)
        with pytest.raises(ContainerFormatError, match="trailing"):
            read_model(path)

    def test_unknown_model_kind(self, tmp_path, logreg):
        path = tmp_path / "m.bin"
        write_model(path, logreg)
        header, payload = read_container(path, "model")
        header["model"] = "bogus"
        write_container(path, header, payload)
        with pytest.raises(ContainerFormatError, match="unknown model kind"):
            read_model(path)

    def test_missing_array(self, tmp_path, logreg):
        path = tmp_path / "m.bin"
        write_model(path, logreg)
        header, payload = read_container(path, "model")
        kept = [e for e in header["arrays"] if e["name"] != "weights"]
        dropped = next(e for e in header["arrays"] if e["name"] == "weights")
        n = 1
        for s in dropped["shape"]:
            n *= s
        header["arrays"] = kept
        write_container(path, header, payload[: len(payload) - 8 * n])
        with pytest.raises(ContainerFormatError, match="missing model array"):
            read_model(path)

    @pytest.mark.parametrize("kind", ["bogus", ["logreg"], None])
    def test_unknown_kind_reported_before_arrays(self, tmp_path, logreg, kind):
        path = tmp_path / "m.bin"
        write_model(path, logreg)
        header, _ = read_container(path, "model")
        header["model"] = kind
        header["arrays"] = []
        write_container(path, header, b"")
        with pytest.raises(ContainerFormatError, match="unknown model kind"):
            read_model(path)

    def test_every_missing_array_listed(self, tmp_path, logreg):
        path = tmp_path / "m.bin"
        write_model(path, logreg)
        header, payload = read_container(path, "model")
        header["arrays"] = header["arrays"][:2]
        n = sum(math.prod(e["shape"]) for e in header["arrays"])
        write_container(path, header, payload[: 8 * n])
        with pytest.raises(ContainerFormatError, match="missing model arrays weights, bias$"):
            read_model(path)

    def test_constant_model_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cannot be serialized"):
            write_model(tmp_path / "m.bin", ConstantEvidenceModel(0.9))
