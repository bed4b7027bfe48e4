"""Container I/O tests: bit-exact round trips and malformed-file rejection."""

import json
import os
import stat
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from rsvptyping.container import (
    FORMAT_NAME,
    FORMAT_VERSION,
    ContainerFormatError,
    EpochFile,
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
    LOGISTIC_BLOCK_ROWS,
    MODEL_KINDS,
    TRAIN_DEFAULTS,
    ConstantEvidenceModel,
    build_generative,
    train_logistic_evidence,
)
from rsvptyping.synth import SPAN_EPOCHS, LabeledDataset, SynthConfig, generate


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

    def test_interrupted_write_keeps_the_older_file(self, tmp_path):
        # a part that is not bytes-like raises at its write, after the header
        path = tmp_path / "x.bin"
        path.write_bytes(b"older")
        header = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "kind": "raw"}
        with pytest.raises(TypeError):
            write_container(path, header, b"\x00", object())
        assert read_bytes(path) == b"older"
        assert [entry.name for entry in tmp_path.iterdir()] == ["x.bin"]

    def test_write_through_a_link_replaces_its_target(self, tmp_path):
        target, link = tmp_path / "target.bin", tmp_path / "link.bin"
        plain = tmp_path / "plain.bin"
        target.write_bytes(b"older")
        link.symlink_to(target)
        header = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "kind": "raw"}
        write_container(link, header, b"xyz")
        write_container(plain, header, b"xyz")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert read_bytes(target) == read_bytes(plain)
        assert sorted(entry.name for entry in tmp_path.iterdir()) == [
            "link.bin", "plain.bin", "target.bin"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_write_to_a_fifo_goes_in_place(self, tmp_path):
        # a temporary file moved over the FIFO would leave the reader
        # blocked on the old one, so it is a daemon and its join times out
        fifo, plain = tmp_path / "pipe", tmp_path / "plain.bin"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(read_bytes(fifo)), daemon=True)
        reader.start()
        header = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "kind": "raw"}
        write_container(fifo, header, b"xyz")
        reader.join(timeout=10)
        write_container(plain, header, b"xyz")
        assert got == [read_bytes(plain)]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["pipe", "plain.bin"]


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

    def test_leaves_the_samples_in_the_file(self, tmp_path, dataset):
        path = tmp_path / "d.bin"
        write_dataset(path, dataset)
        loaded = read_dataset(path)
        assert isinstance(loaded.epochs, EpochFile) and loaded.epochs.shape == (80, 3, 62)
        # the held rows come back as a float32 copy read from the file, a
        # new one at each call
        data = loaded.data
        assert data.dtype == np.float32 and data.flags.writeable
        assert not np.shares_memory(data, loaded.data)

    def test_read_holds_its_labels_and_not_its_samples(self, tmp_path):
        # the README shape: 6,000 epochs of 6 x 62 float32 samples, 8.9 MB
        path = tmp_path / "d.bin"
        write_dataset(path, generate(SynthConfig(seed=2)))
        tracemalloc.start()
        try:
            loaded = read_dataset(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 8_900_000
        assert held - loaded.labels.nbytes < 2**20
        assert peak - loaded.labels.nbytes < 2**20

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [1, SPAN_EPOCHS - 1, SPAN_EPOCHS, SPAN_EPOCHS + 1,
                                      LOGISTIC_BLOCK_ROWS])
    def test_rows_read_from_the_file_are_the_held_rows(self, tmp_path, size, dtype):
        # whole, sparse, far apart, shuffled and repeated rows, read a span
        # of at most SPAN_EPOCHS epochs at a time from the file
        dataset = generate(SynthConfig(n_epochs=700, channels=2, target_fraction=0.25, seed=4))
        path = tmp_path / "d.bin"
        write_dataset(path, dataset)
        loaded = read_dataset(path)
        rng = np.random.default_rng(0)
        for picked in (np.arange(700), np.sort(rng.choice(700, 70, replace=False)),
                       np.array([0, 5, 300, 301, 699]), rng.permutation(700)[:600],
                       rng.integers(0, 700, 900), np.array([699, 0, 699])):
            on_file, held = loaded.subset(picked), dataset.subset(picked)
            want = held.data.reshape(len(held), -1).astype(dtype)
            for view in (on_file, held):
                blocks = [(lo, block.copy()) for lo, block in view.blocks(size, dtype)]
                assert [lo for lo, _ in blocks] == list(range(0, len(view), size))
                assert all(block.dtype == dtype and block.flags.c_contiguous
                           for _, block in blocks)
                assert np.concatenate([block for _, block in blocks]).tobytes() == want.tobytes()
            assert on_file.data.tobytes() == held.data.tobytes()

    def test_dropped_blocks_close_the_file(self, tmp_path, dataset, monkeypatch):
        path = tmp_path / "d.bin"
        write_dataset(path, dataset)
        loaded = read_dataset(path)
        opened, os_open = [], os.open

        def recorded(*args, **kwargs):
            opened.append(os_open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(os, "open", recorded)
        blocks = loaded.blocks(8)
        next(blocks)
        os.fstat(opened[0])  # open while the generator is suspended
        del blocks
        with pytest.raises(OSError):
            os.fstat(opened[0])

    @pytest.mark.parametrize("change", ["truncate", "append"])
    def test_read_of_a_file_changed_since_it_was_read_raises(self, tmp_path, dataset, change):
        path = tmp_path / "d.bin"
        write_dataset(path, dataset)
        loaded = read_dataset(path)
        if change == "truncate":
            os.truncate(path, path.stat().st_size - 1)
        else:
            with open(path, "ab") as fh:
                fh.write(b"\0")
        with pytest.raises(ContainerFormatError, match="changed since it was read"):
            next(loaded.blocks(LOGISTIC_BLOCK_ROWS))

    def test_read_of_a_file_cut_short_under_the_reader_raises(self, tmp_path, dataset):
        path = tmp_path / "d.bin"
        write_dataset(path, dataset)
        loaded = read_dataset(path)
        blocks = loaded.blocks(len(loaded) // 2)
        next(blocks)
        os.truncate(path, 64)
        with pytest.raises(ContainerFormatError, match="cut short since it was read"):
            next(blocks)

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
        # write_dataset refuses such epochs, so the file is spliced by hand
        path = tmp_path / "d.bin"
        write_dataset(path, dataset)
        header, payload = read_container(path, "epochs")
        samples = np.frombuffer(payload[: header["label_offset"]], dtype="<f4").copy()
        samples[position] = value
        write_container(path, header, samples, payload[header["label_offset"] :])
        with pytest.raises(ContainerFormatError, match="non-finite"):
            read_dataset(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e39])
    def test_non_finite_sample_is_not_written(self, tmp_path, dataset, value):
        # 1e39 is finite in float64 and overflows float32
        path = tmp_path / "d.bin"
        data = dataset.data.astype(np.float64)
        data[-1, -1, -1] = value
        with pytest.raises(ValueError, match="non-finite samples or samples that overflow"):
            write_dataset(path, LabeledDataset(data, dataset.labels))
        assert not path.exists()

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", [0, -1])
    def test_non_finite_sample(self, tmp_path, value, position):
        path = tmp_path / "r.bin"
        write_raw(path, self.make_recording())
        header, payload = read_container(path, "raw")
        samples = np.frombuffer(payload, dtype="<f4").copy()
        samples[position] = value
        write_container(path, header, samples)
        with pytest.raises(ContainerFormatError, match="recording contains non-finite samples"):
            read_raw(path)

    def test_read_peak_memory_is_the_file_and_its_float64_copy(self, tmp_path):
        # the payload bytes plus the recording widened to float64; a bool
        # finiteness mask over the widened recording would add a quarter
        data = np.random.default_rng(6).standard_normal((8, 60_000))
        path = tmp_path / "r.bin"
        write_raw(path, RawRecording(data=data, rate=256.0, stim_onsets=((10, 1),)))
        tracemalloc.start()
        try:
            read_raw(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.1 * path.stat().st_size


class TestModelIO:
    def test_generative_kind_names_the_scorer(self, gen_logr, gen_lda):
        assert (gen_logr.kind, gen_lda.kind) == ("gen-logr", "gen-lda")

    @pytest.mark.parametrize("name", ["logreg", "gen_logr", "gen_lda"])
    def test_file_is_the_recipe_and_parameter_count(self, tmp_path, name, request):
        model = request.getfixturevalue(name)
        hyper = {key: TRAIN_DEFAULTS[key] for key in MODEL_KINDS[model.kind].settings}
        path = tmp_path / "m.bin"
        write_model(path, model, hyper=hyper)
        assert read_model(path) == (model.kind, hyper)
        header, payload = read_container(path, "model")
        assert sorted(header) == ["format", "hyper", "kind", "model", "version"]
        assert len(payload) == 0
        # the parameter count that older files store is ignored, whatever it holds
        for stored in (model.parameter_count, -1, "385", None):
            write_container(path, header | {"parameters": stored})
            assert read_model(path) == (model.kind, hyper)

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
        ("logreg", {"learning_rate": 0.1}, "unknown training setting 'learning_rate'"),
        ("gen_lda", {"bandwidth": 1.0}, "unknown training setting 'bandwidth'"),
    ])
    def test_unreadable_settings_are_not_written(self, tmp_path, name, hyper, message, request):
        # read_model would reject the file, so write_model raises first
        path = tmp_path / "m.bin"
        with pytest.raises(ValueError, match=message):
            write_model(path, request.getfixturevalue(name), hyper=hyper)
        assert not path.exists()

    def test_truncated_header(self, tmp_path, logreg):
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
