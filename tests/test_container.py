"""Container I/O tests: bit-exact round trips and malformed-file rejection."""

import json
import struct
import tracemalloc

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
    MODEL_KINDS,
    TRAIN_DEFAULTS,
    ConstantEvidenceModel,
    build_generative,
    train_logistic_evidence,
)
from rsvptyping.synth import LabeledDataset, SynthConfig, generate


@pytest.fixture(scope="module")
def dataset():
    return generate(SynthConfig(n_epochs=80, channels=3, target_fraction=0.25, seed=3))


@pytest.fixture(scope="module")
def logreg(dataset):
    return train_logistic_evidence(dataset)


@pytest.fixture(scope="module")
def gen_logr(dataset):
    return build_generative(dataset)


@pytest.fixture(scope="module")
def gen_lda(dataset):
    return build_generative(dataset, kind="gen-lda")


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

    @pytest.mark.parametrize("body", [
        b'{"n":' + b"9" * 5000 + b"}",  # past Python's 4,300-digit limit
        b"[" * 100_000 + b"]" * 100_000,  # past the decoder's recursion limit
    ])
    def test_header_json_cannot_decode(self, tmp_path, body):
        path = tmp_path / "x.bin"
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

    def test_reads_a_float32_view_of_the_file(self, tmp_path, dataset):
        path = tmp_path / "d.bin"
        write_dataset(path, dataset)
        loaded = read_dataset(path)
        assert loaded.data.dtype == np.float32 and not loaded.data.flags.owndata

    def test_read_peak_memory_stays_near_the_file_size(self, tmp_path):
        path = tmp_path / "d.bin"
        write_dataset(path, generate(SynthConfig(n_epochs=3000, seed=2)))
        tracemalloc.start()
        try:
            read_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * path.stat().st_size

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", [0, -1])
    def test_non_finite_sample(self, tmp_path, dataset, value, position):
        path = tmp_path / "d.bin"
        data = dataset.data.copy()
        data.reshape(-1)[position] = value
        write_dataset(path, LabeledDataset(data, dataset.labels))
        with pytest.raises(ContainerFormatError, match="non-finite"):
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
        np.testing.assert_array_equal(back.stim_onsets, rec.stim_onsets)

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

    def test_onsets_are_one_int64_array(self, tmp_path):
        path = tmp_path / "r.bin"
        write_raw(path, self.make_recording())
        back = read_raw(path)
        assert back.stim_onsets.dtype == np.int64 and back.stim_onsets.shape == (2, 2)
        header, _ = read_container(path, "raw")
        assert header["onsets"] == [[10, 1], [200, 0]]

    def test_onset_out_of_range(self, tmp_path):
        path = tmp_path / "r.bin"
        write_raw(path, self.make_recording())
        header, payload = read_container(path, "raw")
        header["onsets"] = [[10_000, 1]]
        write_container(path, header, payload)
        with pytest.raises(ContainerFormatError):
            read_raw(path)


class TestModelIO:
    def test_generative_kind_names_the_scorer(self, gen_logr, gen_lda):
        assert (gen_logr.kind, gen_lda.kind) == ("gen-logr", "gen-lda")

    @pytest.mark.parametrize("name", ["logreg", "gen_logr", "gen_lda"])
    def test_file_is_the_recipe_and_parameter_count(self, tmp_path, name, request):
        model = request.getfixturevalue(name)
        hyper = {key: TRAIN_DEFAULTS[key] for key in MODEL_KINDS[model.kind].settings}
        path = tmp_path / "m.bin"
        write_model(path, model, hyper=hyper)
        assert read_model(path) == (model.kind, hyper, model.parameter_count)
        header, payload = read_container(path, "model")
        assert sorted(header) == ["format", "hyper", "kind", "model", "parameters", "version"]
        assert len(payload) == 0

    @pytest.mark.parametrize("name", ["logreg", "gen_logr", "gen_lda"])
    def test_rewrite_byte_identical(self, tmp_path, name, request):
        model = request.getfixturevalue(name)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        hyper = {key: TRAIN_DEFAULTS[key] for key in MODEL_KINDS[model.kind].settings}
        write_model(a, model, hyper=hyper)
        write_model(b, model, hyper=hyper)
        assert read_bytes(a) == read_bytes(b)

    @pytest.mark.parametrize("name, hyper, message", [
        ("logreg", {"variance_fraction": 0.8}, "logreg fits take no setting variance_fraction"),
        ("gen_lda", {"l2": 0.01}, "gen-lda fits take no setting l2"),
        ("logreg", {"l2": -0.5}, "l2 must be positive"),
        ("gen_logr", {"variance_fraction": 1}, "must be float"),
        ("logreg", {"momentum": 0.9}, "unknown training setting"),
        ("logreg", {"learning_rate": 0.1}, "was removed"),
        ("gen_lda", {"bandwidth": 1.0}, "'bandwidth' was removed: the KDE bandwidths follow"),
    ])
    def test_unreadable_settings_are_not_written(self, tmp_path, name, hyper, message, request):
        # read_model would reject the file, so write_model raises first
        path = tmp_path / "m.bin"
        with pytest.raises(ValueError, match=message):
            write_model(path, request.getfixturevalue(name), hyper=hyper)
        assert not path.exists()

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

    def test_constant_model_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cannot be serialized"):
            write_model(tmp_path / "m.bin", ConstantEvidenceModel(0.9))
