"""CLI tests: config parsing, each subcommand, exit codes, determinism."""

import argparse
import hashlib
import importlib
import inspect
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import rsvptyping.cli as cli
import rsvptyping.models as models
from rsvptyping.cli import main, parse_config_file, resolve_config
from rsvptyping.container import (
    read_container,
    read_dataset,
    read_model,
    write_container,
    write_dataset,
    write_raw,
)
from rsvptyping.core import DegenerateEvidenceError
from rsvptyping.dsp import RawRecording
from rsvptyping.sim import SubChanceAccuracyWarning, TypingConfig
from rsvptyping.synth import LabeledDataset, SynthConfig, generate, split

from test_synth import README_SYNTH

SRC = str(Path(__file__).resolve().parent.parent / "src")


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def splice_header(path, kind, field, text):
    """Rewrite one header field of a container as raw JSON ``text``, which
    may hold a number that json.dumps would refuse to write."""
    header, payload = read_container(path, kind)
    header[field] = "@"
    body = json.dumps(header).replace('"@"', text).encode()
    path.write_bytes(struct.pack("<I", len(body)) + body + bytes(payload))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small dataset plus a trained logreg model, built through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    synth_cfg = root / "synth.cfg"
    synth_cfg.write_text(
        "# smoke dataset\n"
        "n_epochs = 400\n"
        "channels = 3\n"
        "target_fraction = 0.25\n"
        "seed = 11\n"
    )
    data = root / "data.bin"
    assert main(["synth", "--config", str(synth_cfg), "--out", str(data)]) == 0
    train_cfg = root / "train.cfg"
    train_cfg.write_text("l2 = 0.05\n")
    model = root / "logreg.bin"
    rc = main(
        ["train", str(data), "--kind", "logreg", "--config", str(train_cfg), "--out", str(model)]
    )
    assert rc == 0
    return {"root": root, "synth_cfg": synth_cfg, "data": data, "model": model,
            "train_cfg": train_cfg}


class TestConfigParsing:
    def test_comments_and_spacing(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# header\n\n  a = 1  # trailing\nb=two words\n")
        entries = parse_config_file(cfg)
        assert entries == {"a": ("1", 3), "b": ("two words", 4)}

    def test_duplicate_key(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("a = 1\na = 2\n")
        with pytest.raises(cli.ConfigError, match=r"c.cfg:2: duplicate key 'a'"):
            parse_config_file(cfg)

    def test_missing_equals(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("just a line\n")
        with pytest.raises(cli.ConfigError, match=r"c.cfg:1: expected key=value"):
            parse_config_file(cfg)

    def test_unknown_key_points_at_line(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\nmystery = 3\n")
        with pytest.raises(cli.ConfigError, match=r"c.cfg:2: unknown key 'mystery'"):
            resolve_config(cfg, {"known": 0})

    def test_bad_value_points_at_line(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("known = banana\n")
        with pytest.raises(cli.ConfigError, match=r"c.cfg:1: bad value for 'known'"):
            resolve_config(cfg, {"known": 0.0})

    def test_overrides_win(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 5\n")
        out = resolve_config(cfg, {"seed": 0}, {"seed": 9})
        assert out["seed"] == 9

    def test_int_list_and_bool(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("mask = 1, 3, 5\nflag = false\n")
        out = resolve_config(cfg, {"mask": (), "flag": True})
        assert out == {"mask": (1, 3, 5), "flag": False}

    def test_non_utf8_file_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"attempts = 5\n\xff\n")
        with pytest.raises(cli.ConfigError, match=r"^cannot read config .*c\.cfg: "):
            parse_config_file(cfg)
        rc = main(["simulate", "oracle", str(tmp_path / "d.bin"), "--config", str(cfg),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read config {cfg}: ")


class TestSynth:
    def test_header_matches_config(self, workspace):
        header, _ = read_container(workspace["data"], "epochs")
        assert header["n_epochs"] == 400
        assert header["channels"] == 3
        assert header["rate"] == 125.0

    def test_exact_positive_count(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("n_epochs = 1000\nchannels = 2\ntarget_fraction = 0.1\n")
        out = tmp_path / "d.bin"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        dataset = read_dataset(out)
        assert int(dataset.labels.sum()) == 100
        assert "label fraction: 0.100000" in capsys.readouterr().out

    def test_same_seed_byte_identical(self, tmp_path, workspace):
        out = tmp_path / "again.bin"
        assert main(["synth", "--config", str(workspace["synth_cfg"]), "--out", str(out)]) == 0
        assert read_bytes(out) == read_bytes(workspace["data"])

    def test_seed_override_changes_bytes(self, tmp_path, workspace):
        out = tmp_path / "other.bin"
        rc = main(
            ["synth", "--config", str(workspace["synth_cfg"]), "--seed", "99", "--out", str(out)]
        )
        assert rc == 0
        assert read_bytes(out) != read_bytes(workspace["data"])

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("target_fraction = 1.5\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d.bin")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unwritable_path_exits_2(self, workspace, tmp_path):
        out = tmp_path / "nosuchdir" / "d.bin"
        rc = main(["synth", "--config", str(workspace["synth_cfg"]), "--out", str(out)])
        assert rc == 2

    @pytest.mark.parametrize("line", [
        "rate = inf", "trial_ms = inf", "erp_latency_ms = nan", "erp_width_ms = nan",
        "erp_amplitude = inf", "noise_std = nan", "noise_std = -inf",
        "rate = 1e200\ntrial_ms = 1e200",
    ])
    def test_non_finite_setting_exits_1(self, tmp_path, capsys, line):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"n_epochs = 100\n{line}\n")
        out = tmp_path / "d.bin"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and line.split()[0] in err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["erp_amplitude = 1e39", "noise_std = 1e308"])
    def test_overflowing_samples_exit_1(self, tmp_path, capsys, line):
        # finite settings whose samples overflow float32, or float64 first
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"n_epochs = 100\n{line}\n")
        out = tmp_path / "d.bin"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: samples overflow float32: lower noise_std or erp_amplitude\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("n_epochs", [2, 127, 128, 129, 300])
    def test_streamed_file_is_the_held_dataset_written(self, tmp_path, n_epochs):
        # synth writes each chunk as it is drawn, in chunks of 128 epochs
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"n_epochs = {n_epochs}\nchannels = 3\ntarget_fraction = 0.5\n")
        out, held = tmp_path / "d.bin", tmp_path / "held.bin"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        config = SynthConfig(n_epochs=n_epochs, channels=3, target_fraction=0.5)
        write_dataset(held, generate(config), rate=config.rate)
        assert read_bytes(out) == read_bytes(held)

    def test_refused_synth_leaves_no_temporary_file(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("n_epochs = 300\nerp_amplitude = 1e39\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d.bin")]) == 1
        assert "overflow" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["s.cfg"]

    def test_interrupted_synth_keeps_the_older_file(self, tmp_path, monkeypatch, workspace):
        out = tmp_path / "d.bin"
        out.write_bytes(b"older")
        drawn = cli.draw

        def interrupted(config):
            labels, chunks = drawn(config)

            def some():
                yield next(chunks)
                raise KeyboardInterrupt

            return labels, some()

        monkeypatch.setattr(cli, "draw", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["synth", "--config", str(workspace["synth_cfg"]), "--out", str(out)])
        assert read_bytes(out) == b"older"
        assert [path.name for path in tmp_path.iterdir()] == ["d.bin"]

    def test_synth_holds_a_few_chunks_not_the_dataset(self, tmp_path):
        # the README dataset is 8.9 MB of float32 samples; synth holds the
        # float64 white noise of one chunk, the filter's working arrays and
        # one float32 chunk
        (tmp_path / "synth.cfg").write_text(README_SYNTH)
        argv = ["synth", "--config", str(tmp_path / "synth.cfg"), "--out", str(tmp_path / "d.bin")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = (tmp_path / "d.bin").stat().st_size
        assert size > 8_900_000
        assert peak <= 0.4 * size


@pytest.fixture(scope="module")
def readme_data(tmp_path_factory):
    """The README dataset, written by the synth command."""
    root = tmp_path_factory.mktemp("readme")
    (root / "synth.cfg").write_text(README_SYNTH)
    data = root / "data.bin"
    assert main(["synth", "--config", str(root / "synth.cfg"), "--out", str(data)]) == 0
    return data


class TestTrain:
    def test_separable_reaches_perfect_validation(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "n_epochs = 200\nchannels = 2\ntarget_fraction = 0.25\n"
            "noise_std = 0.05\nerp_amplitude = 1.0\nseed = 4\n"
        )
        data = tmp_path / "d.bin"
        assert main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
        model = tmp_path / "m.bin"
        rc = main(["train", str(data), "--out", str(model)])
        assert rc == 0
        assert "validation balanced accuracy: 1.000000" in capsys.readouterr().out

    def test_gen_lda_scorer_takes_the_flattened_epoch(self, tmp_path, workspace):
        model = tmp_path / "m.bin"
        rc = main(["train", str(workspace["data"]), "--kind", "gen-lda", "--out", str(model)])
        assert rc == 0
        kind, hyper = read_model(model)
        dataset = read_dataset(workspace["data"])
        _, channels, samples = dataset.data.shape
        assert kind == "gen-lda"
        assert models.build_generative(dataset, kind=kind).scorer.dimension == channels * samples
        assert hyper == {"variance_fraction": 0.8}

    def test_flat_epochs_train_and_simulate_without_warnings(self, tmp_path, capsys):
        # every epoch is zero, so every score is the scorer's bias: each
        # KDE's bandwidth falls back to that score's size instead of 0
        synth_cfg = tmp_path / "synth.cfg"
        synth_cfg.write_text("n_epochs = 200\nchannels = 2\nnoise_std = 0\n"
                             "erp_amplitude = 0\nseed = 5\n")
        sim_cfg = tmp_path / "s.cfg"
        sim_cfg.write_text("attempts = 20\nsplits = 2\n")
        data, model = tmp_path / "d.bin", tmp_path / "m.bin"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["synth", "--config", str(synth_cfg), "--out", str(data)]) == 0
            assert main(["train", str(data), "--kind", "gen-lda", "--out", str(model)]) == 0
            assert main(["simulate", str(model), str(data), "--config", str(sim_cfg),
                         "--out", str(tmp_path / "r.json")]) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        captured = capsys.readouterr()
        assert "validation balanced accuracy: 0.500000" in captured.out
        assert "RuntimeWarning" not in captured.err
        assert "error" not in captured.err

    def test_hyper_echoed_for_logreg(self, workspace):
        _, hyper = read_model(workspace["model"])
        assert hyper == {"l2": 0.05, "tolerance": 1e-6}

    def test_fit_summary_printed(self, tmp_path, workspace, capsys):
        model = tmp_path / "m.bin"
        rc = main(
            ["train", str(workspace["data"]), "--config", str(workspace["train_cfg"]),
             "--out", str(model)]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert re.search(r"^fit: \d+ Newton steps, gradient norm \S+$", captured.out, re.M)
        assert "validation balanced accuracy:" in captured.out
        assert "warning:" not in captured.err

    def test_gen_logr_honours_fit_settings(self, tmp_path, workspace):
        paths = []
        for l2 in ("0.01", "0.1"):
            cfg = tmp_path / f"t{l2}.cfg"
            cfg.write_text(f"l2 = {l2}\n")
            paths.append(tmp_path / f"m{l2}.bin")
            rc = main(["train", str(workspace["data"]), "--kind", "gen-logr",
                       "--config", str(cfg), "--out", str(paths[-1])])
            assert rc == 0
        assert read_bytes(paths[0]) != read_bytes(paths[1])
        _, hyper = read_model(paths[1])
        assert hyper == {"variance_fraction": 0.8, "l2": 0.1, "tolerance": 1e-6}

    @pytest.mark.parametrize("line", [
        "l2 = 0", "l2 = -0.5", "l2 = nan", "tolerance = 0", "tolerance = inf",
        "variance_fraction = 1.5", "variance_fraction = 0", "bandwidth = -1",
        "bandwidth = inf",
    ])
    def test_bad_fit_setting_exits_1(self, tmp_path, workspace, line, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(line + "\n")
        rc = main(["train", str(workspace["data"]), "--config", str(cfg),
                   "--out", str(tmp_path / "m.bin")])
        assert rc == 1
        # the KDE bandwidths follow from the scores: no config sets them
        expected = (
            "must lie in (0, 1]" if line.startswith("variance_fraction")
            else "unknown key 'bandwidth'" if line.startswith("bandwidth")
            else "must be positive and finite"
        )
        assert expected in capsys.readouterr().err

    def test_unconverged_fit_warns(self, tmp_path, workspace, monkeypatch, capsys):
        monkeypatch.setattr(models, "NEWTON_MAX_STEPS", 1)
        model = tmp_path / "m.bin"
        assert main(["train", str(workspace["data"]), "--out", str(model)]) == 0
        captured = capsys.readouterr()
        assert "fit: 1 Newton steps" in captured.out
        assert re.fullmatch(
            r"warning: 1 of 1 logistic fits stopped short of tolerance 1e-06: "
            r"gradient norm up to \S+ after 1 Newton steps\n",
            captured.err,
        )
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("attempts = 10\nsplits = 2\nseed = 1\n")
        assert main(["simulate", str(model), str(workspace["data"]), "--config", str(cfg),
                     "--out", str(tmp_path / "rep.json")]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("warning: 2 of 2 logistic fits stopped short")
        # the one-step fits also type below chance on split 1's 10 attempts at
        # this seed
        assert lines[1:] == [
            "warning: typing accuracy below chance 1/28 in 1 of 2 splits: split 1 (0.0000)"
        ]

    @pytest.mark.parametrize("kind", ["gen-logr", "gen-lda"])
    def test_generative_fit_diagnostics_reach_the_cli(self, tmp_path, workspace, monkeypatch,
                                                      capsys, kind):
        logistic = kind == "gen-logr"
        model = tmp_path / "m.bin"
        assert main(["train", str(workspace["data"]), "--kind", kind, "--out", str(model)]) == 0
        assert len(re.findall(r"^fit: ", capsys.readouterr().out, re.M)) == logistic
        monkeypatch.setattr(models, "NEWTON_MAX_STEPS", 1)
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("attempts = 10\nsplits = 2\nseed = 1\n")
        assert main(["simulate", str(model), str(workspace["data"]), "--config", str(cfg),
                     "--out", str(tmp_path / "rep.json")]) == 0
        warned = [line for line in capsys.readouterr().err.splitlines() if "fits" in line]
        assert len(warned) == logistic
        assert all(line.startswith("warning: 2 of 2 logistic fits stopped short")
                   for line in warned)

    @pytest.mark.parametrize("kind", list(models.MODEL_KINDS))
    def test_pca_size_printed_for_generative_kinds(self, tmp_path, workspace, capsys, kind):
        assert main(["train", str(workspace["data"]), "--kind", kind,
                     "--out", str(tmp_path / "m.bin")]) == 0
        lines = re.findall(r"^pca: (\d+) components, retained variance fraction (\S+)$",
                           capsys.readouterr().out, re.M)
        if kind == "logreg":
            assert lines == []
            return
        [(rank, fraction)] = lines
        assert 1 < int(rank) < math.prod(read_dataset(workspace["data"]).epochs.shape[1:])
        assert 0.8 <= float(fraction) < 0.81

    @pytest.mark.parametrize("kind", ["logreg", "gen-lda"])
    def test_traced_peak_is_under_four_and_a_half_datasets(self, tmp_path, readme_data, kind):
        # the dataset, of which both subsets are row views, and blocks of
        # the fit's rows: 2.05 files' worth for logreg and 1.6 for gen-lda.
        # logreg's float64 design and float32 buffer of its rows took it to
        # 4.05; copies of the subsets kept beside the dataset through the
        # fit, and logreg's float32 copy of its rows, took logreg to 5.8 and
        # gen-lda to 4.9
        tracemalloc.start()
        try:
            rc = main(["train", str(readme_data), "--kind", kind,
                       "--out", str(tmp_path / "m.bin")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak <= 4.5 * readme_data.stat().st_size

    def test_generative_train_does_not_import_numpy_ma(self, tmp_path, workspace):
        # np.percentile imports numpy.ma, 9-15 ms of a fit's process
        script = (
            "import sys\n"
            "from rsvptyping.cli import main\n"
            f"rc = main(['train', {str(workspace['data'])!r}, '--kind', 'gen-lda',"
            f" '--out', {str(tmp_path / 'm.bin')!r}])\n"
            "print(rc, 'numpy.ma' in sys.modules)\n"
        )
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        assert out[-2:] == ["0", "False"]

    def test_single_class_data_exits_2(self, tmp_path, capsys):
        base = generate(SynthConfig(n_epochs=40, channels=2, target_fraction=0.5, seed=1))
        negatives = LabeledDataset(base.data, np.zeros(len(base), dtype=np.int64))
        data = tmp_path / "neg.bin"
        write_dataset(data, negatives)
        rc = main(["train", str(data), "--out", str(tmp_path / "m.bin")])
        assert rc == 2
        assert "data error:" in capsys.readouterr().err

    def test_unknown_kind_exits_1(self, workspace, tmp_path, capsys):
        rc = main(
            ["train", str(workspace["data"]), "--kind", "mlp", "--out", str(tmp_path / "m.bin")]
        )
        assert rc == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_non_finite_sample_exits_2(self, tmp_path, workspace, capsys):
        data = tmp_path / "nan.bin"
        header, payload = read_container(workspace["data"], "epochs")
        blob = bytearray(payload)
        blob[:4] = np.array([np.nan], dtype="<f4").tobytes()
        write_container(data, header, bytes(blob))
        rc = main(["train", str(data), "--out", str(tmp_path / "m.bin")])
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err

    def test_non_finite_validation_sample_exits_2(self, tmp_path, workspace, capsys):
        # the NaN lies in an epoch of the holdout, none of the fit's rows
        holdout = split(read_dataset(workspace["data"]), n_splits=1, test_fraction=0.1)[0]
        header, payload = read_container(workspace["data"], "epochs")
        at = int(holdout.test[0]) * header["channels"] * header["samples_per_epoch"] * 4
        blob = bytearray(payload)
        blob[at:at + 4] = np.array([np.nan], dtype="<f4").tobytes()
        data = tmp_path / "nan.bin"
        write_container(data, header, bytes(blob))
        assert main(["train", str(data), "--out", str(tmp_path / "m.bin")]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_validation_scoring_maps_a_value_error_to_exit_2(self, tmp_path, workspace,
                                                             monkeypatch, capsys):
        # a held dataset, whose samples nothing checked before the fit: the
        # scoring of the one NaN validation epoch is a data error too
        dataset = read_dataset(workspace["data"])
        holdout = split(dataset, n_splits=1, test_fraction=0.1)[0]
        data = dataset.data
        data[holdout.test[0], 0, 0] = np.nan
        monkeypatch.setattr(cli, "read_dataset", lambda path: LabeledDataset(data, dataset.labels))
        assert main(["train", "held", "--out", str(tmp_path / "m.bin")]) == 2
        assert capsys.readouterr().err == "data error: features must be finite\n"
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("change", ["truncate", "append"])
    def test_file_changed_after_it_was_read_exits_2(self, tmp_path, workspace, monkeypatch,
                                                   capsys, change):
        data = tmp_path / "d.bin"
        data.write_bytes(read_bytes(workspace["data"]))
        size, read = data.stat().st_size, cli.read_dataset

        def read_then_change(path):
            dataset = read(path)
            if change == "truncate":
                os.truncate(path, size // 2)
            else:
                with open(path, "ab") as fh:
                    fh.write(b"\0")
            return dataset

        monkeypatch.setattr(cli, "read_dataset", read_then_change)
        assert main(["train", str(data), "--out", str(tmp_path / "m.bin")]) == 2
        assert capsys.readouterr().err == f"data error: {data}: changed since it was read\n"

    def test_integer_past_the_digit_limit_exits_2(self, tmp_path, workspace, capsys):
        data = tmp_path / "d.bin"
        data.write_bytes(read_bytes(workspace["data"]))
        splice_header(data, "epochs", "n_epochs", "9" * 5000)
        assert main(["train", str(data), "--out", str(tmp_path / "m.bin")]) == 2
        assert "data error:" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["channels", "samples_per_epoch"])
    def test_no_channels_or_samples_exits_2(self, tmp_path, workspace, capsys, field):
        data = tmp_path / "d.bin"
        header, payload = read_container(workspace["data"], "epochs")
        labels = bytes(payload[header["label_offset"] :])
        header.update({field: 0, "label_offset": 0})
        write_container(data, header, labels)
        out = tmp_path / "m.bin"
        assert main(["train", str(data), "--out", str(out)]) == 2
        assert "data error:" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_dataset_exits_2(self, tmp_path):
        rc = main(["train", str(tmp_path / "absent.bin"), "--out", str(tmp_path / "m.bin")])
        assert rc == 2

    def test_bad_holdout_fraction_exits_1(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("holdout_fraction = 1.5\n")
        rc = main(
            ["train", str(workspace["data"]), "--config", str(cfg),
             "--out", str(tmp_path / "m.bin")]
        )
        assert rc == 1
        assert capsys.readouterr().err == "error: holdout_fraction must lie in (0, 1), got 1.5\n"


class TestModelKinds:
    """Each kind declared in models.MODEL_KINDS trains through the CLI, and
    its model file holds what the table says."""

    def test_kind_choices_are_the_table_keys(self):
        subcommands = next(action for action in cli.build_parser()._actions
                           if isinstance(action, argparse._SubParsersAction))
        kind = next(action for action in subcommands.choices["train"]._actions
                    if action.dest == "kind")
        assert kind.choices == tuple(models.MODEL_KINDS)

    @pytest.mark.parametrize("kind", list(models.MODEL_KINDS))
    def test_model_file_holds_the_kinds_settings_and_parameters(self, tmp_path, workspace,
                                                                 kind, capsys):
        path = tmp_path / "model.bin"
        assert main(["train", str(workspace["data"]), "--kind", kind, "--out", str(path)]) == 0
        printed = int(re.search(r"^model: \S+  parameters: (\d+)$", capsys.readouterr().out,
                                re.M).group(1))
        assert printed > 0
        stored_kind, hyper = read_model(path)
        assert stored_kind == kind
        assert sorted(hyper) == sorted(models.MODEL_KINDS[kind].settings)
        # the file is the recipe only: train prints its count, the file stores none
        header, _ = read_container(path, "model")
        assert sorted(header) == ["format", "hyper", "kind", "model", "version"]

    @pytest.mark.parametrize("kind", list(models.MODEL_KINDS))
    def test_report_counts_the_floats_of_the_models_it_scored(self, tmp_path, workspace,
                                                              kind):
        path, report = tmp_path / "model.bin", tmp_path / "rep.json"
        assert main(["train", str(workspace["data"]), "--kind", kind, "--out", str(path)]) == 0
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("attempts = 10\nsplits = 3\n")
        assert main(["simulate", str(path), str(workspace["data"]), "--config", str(cfg),
                     "--out", str(report)]) == 0
        # simulate refits each split; stratified splits give them one training
        # size, so one count, which is not the count of train's larger fit
        # for the generative kinds, whose KDEs hold every training score
        _, hyper = read_model(path)
        dataset = read_dataset(workspace["data"])
        counts = {cli._fit_model(kind, dataset.subset(s.train), hyper).parameter_count
                  for s in split(dataset, n_splits=3, seed=0)}
        assert counts == {json.loads(report.read_text())["model"]["parameters"]}

    @pytest.mark.parametrize("kind", list(models.MODEL_KINDS))
    def test_fit_defaults_are_the_train_defaults(self, kind):
        # simulate refits with the file's settings; one it omits takes the
        # fit's default, which must be the train command's default
        entry = models.MODEL_KINDS[kind]
        parameters = inspect.signature(getattr(cli, entry.fit)).parameters
        assert "kind" in parameters
        for key in entry.settings:
            assert parameters[key].default == models.TRAIN_DEFAULTS[key]


# sha256 over the report.json and report.csv bytes of each builtin control,
# under the three query strategies in turn, for test_10's small dataset and
# `attempts = 40`, `splits = 2`, `seed = 1`. They were recorded when each
# model's evidence was still a pair of log factors that typing divided by
# the prior 1/A; the one log-likelihood ratio per epoch left them unchanged.
# They moved once since, when the config echo lost its `conversion_prior`
# line; every other byte is as recorded.
CONTROL_REPORTS_SHA256 = {
    "oracle": "11cc0a5194a8ee856801e40cd22b839d2b324ddeae0c7c999bc9d2ce307c69a8",
    "uninformative": "da57797b155124bc8317bc824118378e1f203369c8159380e79761eb3a04c5ac",
    "always-pos": "c73cbf7727e76faf30b56870a6d2626d00e3a4a5448c9cc7f3924e8a06e70857",
    "always-neg": "a5a0cd171907d6d8eeb8541c96cafb7917a77de84270fc53f31fa39b790533c8",
}


@pytest.mark.parametrize("model", cli.BUILTIN_MODELS)
def test_builtin_control_reports_are_pinned(tmp_path, monkeypatch, model):
    # relative paths, since a report echoes its model and data arguments
    monkeypatch.chdir(tmp_path)
    (tmp_path / "synth.cfg").write_text(
        "n_epochs = 300\nchannels = 3\ntarget_fraction = 0.25\nseed = 6\n"
    )
    assert main(["synth", "--config", "synth.cfg", "--out", "data.bin"]) == 0
    digest = hashlib.sha256()
    for strategy in ("sample-with-replacement", "sample-without-replacement", "top-k"):
        (tmp_path / "sim.cfg").write_text(
            f"attempts = 40\nsplits = 2\nseed = 1\nquery_strategy = {strategy}\n"
        )
        assert main(["simulate", model, "data.bin", "--config", "sim.cfg",
                     "--out", "r.json"]) == 0
        digest.update(read_bytes(tmp_path / "r.json"))
        digest.update(read_bytes(tmp_path / "r.csv"))
    assert digest.hexdigest() == CONTROL_REPORTS_SHA256[model]


class TestSimulate:
    def sim_cfg(self, tmp_path, **extra):
        lines = {"attempts": 60, "splits": 2, "seed": 3}
        lines.update(extra)
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        return cfg

    def test_oracle_hits_channel_capacity(self, tmp_path, workspace):
        cfg = self.sim_cfg(tmp_path)
        out = tmp_path / "rep.json"
        rc = main(["simulate", "oracle", str(workspace["data"]), "--config", str(cfg),
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert abs(report["aggregate"]["itr_bits_per_symbol"]["mean"] - math.log2(28)) < 1e-6
        assert report["aggregate"]["balanced_accuracy"]["mean"] == 1.0

    def test_uninformative_times_out_every_attempt(self, tmp_path, workspace, capsys):
        cfg = self.sim_cfg(tmp_path, attempts=40)
        out = tmp_path / "rep.json"
        with warnings.catch_warnings():
            # the run reports sub-chance typing on stderr, not as a warning
            warnings.simplefilter("error", SubChanceAccuracyWarning)
            rc = main(["simulate", "uninformative", str(workspace["data"]),
                       "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == (
            "warning: typing accuracy below chance 1/28 in 2 of 2 splits: "
            "split 0 (0.0000), split 1 (0.0000)\n"
        )
        report = json.loads(out.read_text())
        for row in report["splits"]:
            assert row["typing_accuracy"] == 0.0
        # an A-ary channel that never types correctly still has capacity
        # log2(A/(A-1)) > 0 under the standard ITR formula
        expected = math.log2(28.0 / 27.0)
        assert abs(report["aggregate"]["itr_bits_per_symbol"]["mean"] - expected) < 1e-6

    def test_overconfident_evidence_warns(self, tmp_path, workspace, capsys):
        # at the default l2, the smoke dataset's logreg decides 47 of 104
        # attempts right at threshold 0.9, short by far more than three
        # binomial standard errors; the oracle decides every attempt right
        # and prints nothing
        model, out = tmp_path / "m.bin", tmp_path / "rep.json"
        assert main(["train", str(workspace["data"]), "--out", str(model)]) == 0
        assert main(["simulate", str(model), str(workspace["data"]),
                     "--config", str(self.sim_cfg(tmp_path)), "--out", str(out)]) == 0
        outcomes = [row["outcomes"] for row in json.loads(out.read_text())["splits"]]
        correct = sum(row["correct"] for row in outcomes)
        decided = correct + sum(row["wrong"] for row in outcomes)
        allowance = 3.0 * math.sqrt(0.9 * 0.1 / decided)
        assert correct / decided < 0.9 - allowance
        assert capsys.readouterr().err == (
            f"warning: decided typing accuracy below threshold 0.9 over 2 splits: "
            f"{correct / decided:.4f} ({correct} correct of {decided} decided), "
            f"beyond 3 standard errors ({allowance:.4f})\n"
        )
        assert main(["simulate", "oracle", str(workspace["data"]),
                     "--config", str(self.sim_cfg(tmp_path)), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""

    def test_model_file_runs_and_reports(self, tmp_path, workspace, capsys):
        cfg = self.sim_cfg(tmp_path)
        out = tmp_path / "rep.json"
        rc = main(["simulate", str(workspace["model"]), str(workspace["data"]),
                   "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "balanced accuracy:" in stdout and "itr bits/symbol:" in stdout
        report = json.loads(out.read_text())
        assert report["model"]["kind"] == "logreg"
        assert report["model"]["parameters"] == 193
        assert len(report["splits"]) == 2
        assert report["config"]["query_strategy"] == "sample-with-replacement"
        csv_text = (tmp_path / "rep.csv").read_text().splitlines()
        assert csv_text[0] == "model,parameters,balanced_accuracy,itr"
        assert csv_text[1].startswith("logreg,193,")

    def test_byte_identical_rerun(self, tmp_path, workspace):
        cfg = self.sim_cfg(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            rc = main(["simulate", str(workspace["model"]), str(workspace["data"]),
                       "--config", str(cfg), "--out", str(out)])
            assert rc == 0
        assert read_bytes(a) == read_bytes(b)
        assert read_bytes(tmp_path / "a.csv") == read_bytes(tmp_path / "b.csv")

    def test_splits_flag_overrides_config(self, tmp_path, workspace):
        cfg = self.sim_cfg(tmp_path, attempts=30)
        out = tmp_path / "rep.json"
        rc = main(["simulate", "oracle", str(workspace["data"]), "--config", str(cfg),
                   "--splits", "3", "--out", str(out)])
        assert rc == 0
        assert len(json.loads(out.read_text())["splits"]) == 3

    def test_k_larger_than_alphabet_exits_1(self, tmp_path, workspace, capsys):
        cfg = self.sim_cfg(tmp_path, symbols_per_query=40, query_strategy="top-k")
        rc = main(["simulate", "oracle", str(workspace["data"]), "--config", str(cfg),
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 1
        assert "symbols_per_query" in capsys.readouterr().err

    def test_single_symbol_alphabet_exits_1(self, tmp_path, workspace, capsys):
        cfg = self.sim_cfg(tmp_path, alphabet_size=1)
        rc = main(["simulate", "oracle", str(workspace["data"]), "--config", str(cfg),
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 1
        assert capsys.readouterr().err == "error: alphabet needs at least 2 symbols\n"

    def test_k_larger_than_alphabet_ok_with_replacement(self, tmp_path, workspace):
        # with replacement a query may repeat symbols, so K > A is legal
        cfg = self.sim_cfg(tmp_path, attempts=20, symbols_per_query=40)
        rc = main(["simulate", "oracle", str(workspace["data"]), "--config", str(cfg),
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 0

    def test_bad_strategy_exits_1(self, tmp_path, workspace, capsys):
        cfg = self.sim_cfg(tmp_path, query_strategy="roulette")
        rc = main(["simulate", "oracle", str(workspace["data"]), "--config", str(cfg),
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:4: bad value for 'query_strategy': expected one of "
            "sample-with-replacement, sample-without-replacement, top-k; got 'roulette'\n"
        )

    # each array the config asks for is larger than a 2^47-byte address
    # space, so the allocation fails without touching memory
    @pytest.mark.parametrize("key, value", [("alphabet_size", 10**12), ("attempts", 10**15)])
    def test_config_too_large_for_memory_exits_1(self, tmp_path, workspace, capsys, key, value):
        cfg = self.sim_cfg(tmp_path, **{"attempts": 1000, key: value})
        rc = main(["simulate", "oracle", str(workspace["data"]), "--config", str(cfg),
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert not (tmp_path / "rep.json").exists()

    def test_conversion_prior_is_an_unknown_key(self, tmp_path, workspace, capsys):
        cfg = self.sim_cfg(tmp_path, conversion_prior="uniform")
        rc = main(["simulate", "oracle", str(workspace["data"]), "--config", str(cfg),
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}:4: unknown key 'conversion_prior' (known keys: "
        )

    def test_missing_model_file_exits_2(self, tmp_path, workspace):
        rc = main(["simulate", str(tmp_path / "ghost.bin"), str(workspace["data"]),
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 2

    @pytest.mark.parametrize("kind, case", [
        ("logreg", "hyper-not-a-dict"),
        ("logreg", "unknown-hyper-key"),
        ("logreg", "string-l2"),
        ("logreg", "negative-l2"),
        ("logreg", "nan-tolerance"),
        ("gen-lda", "string-bandwidth"),
        ("gen-lda", "negative-bandwidth"),
        ("gen-lda", "variance-fraction-above-1"),
        ("logreg", "setting-of-another-kind"),
    ])
    def test_malformed_model_file_exits_2(self, tmp_path, workspace, kind, case, capsys):
        model = workspace["model"]
        if kind == "gen-lda":
            model = tmp_path / "gen.bin"
            assert main(["train", str(workspace["data"]), "--kind", kind,
                         "--out", str(model)]) == 0
        header, _ = read_container(model, "model")
        hyper = header["hyper"]
        if case == "hyper-not-a-dict":
            header["hyper"] = [["l2", 0.05]]
        elif case == "unknown-hyper-key":
            hyper["momentum"] = 0.9
        elif case == "string-l2":
            hyper["l2"] = "0.05"
        elif case == "negative-l2":
            hyper["l2"] = -0.05
        elif case == "nan-tolerance":
            hyper["tolerance"] = math.nan
        elif case == "string-bandwidth":
            hyper["bandwidth"] = "wide"
        elif case == "negative-bandwidth":
            hyper["bandwidth"] = -1.0
        elif case == "variance-fraction-above-1":
            hyper["variance_fraction"] = 1.5
        elif case == "setting-of-another-kind":
            # a valid setting that only the generative fits take
            hyper["variance_fraction"] = 0.8
        bad = tmp_path / "bad.bin"
        write_container(bad, header)
        cfg = self.sim_cfg(tmp_path, attempts=10)
        rc = main(["simulate", str(bad), str(workspace["data"]), "--config", str(cfg),
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 2
        assert "data error:" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["trailing-byte"])
    def test_bad_parameter_count_exits_2(self, tmp_path, workspace, case, capsys):
        # the header is the whole file, so a byte after it exits 2
        bad = tmp_path / "bad.bin"
        bad.write_bytes(read_bytes(workspace["model"]) + b"\x00")
        cfg = self.sim_cfg(tmp_path, attempts=10)
        rc = main(["simulate", str(bad), str(workspace["data"]), "--config", str(cfg),
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert not (tmp_path / "rep.json").exists()

    @pytest.mark.parametrize("key, value", [("holdout_fraction", 0.1), ("seed", 0)])
    def test_model_file_with_a_train_command_setting_exits_2(self, tmp_path, workspace, key,
                                                             value, capsys):
        # the holdout is the train command's, not a setting of the fit
        header, _ = read_container(workspace["model"], "model")
        header["hyper"][key] = value
        bad = tmp_path / "bad.bin"
        write_container(bad, header)
        rc = main(["simulate", str(bad), str(workspace["data"]),
                   "--config", str(self.sim_cfg(tmp_path, attempts=10)),
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 2
        assert f"unknown training setting '{key}'" in capsys.readouterr().err

    def test_generative_file_with_a_bandwidth_setting_exits_2(self, tmp_path, workspace,
                                                               capsys):
        # a header-only file made by hand, naming the setting that the KDE
        # bandwidths took before they followed Silverman's rule
        model = tmp_path / "gen.bin"
        assert main(["train", str(workspace["data"]), "--kind", "gen-lda",
                     "--out", str(model)]) == 0
        header, payload = read_container(model, "model")
        header["hyper"]["bandwidth"] = 1.0
        old = tmp_path / "old.bin"
        write_container(old, header, payload)
        rc = main(["simulate", str(old), str(workspace["data"]),
                   "--config", str(self.sim_cfg(tmp_path, attempts=10)),
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 2
        assert "unknown training setting 'bandwidth'" in capsys.readouterr().err

    def test_generative_file_of_the_pca_layout_exits_2(self, tmp_path, workspace, capsys):
        # a gen-logr file as written before the PCA projection was folded
        # into the scorer: here an identity projection, so the stored scorer
        # is the same linear map as today's
        model = tmp_path / "gen.bin"
        assert main(["train", str(workspace["data"]), "--kind", "gen-logr",
                     "--out", str(model)]) == 0
        header, _ = read_container(model, "model")
        p = models.build_generative(read_dataset(workspace["data"]), kind="gen-logr")
        d = p.scorer.dimension
        arrays = [
            ("zscore_mean", p.zscore.mean), ("zscore_std", p.zscore.std),
            ("pca_mean", np.zeros(d)), ("pca_components", np.eye(d)),
            ("pca_variance_fraction", np.array(1.0)),
            ("scorer_weights", p.scorer.weights), ("scorer_bias", np.array(p.scorer.bias)),
            ("kde_pos_scores", p.kde_pos.scores), ("kde_neg_scores", p.kde_neg.scores),
            ("kde_bandwidths", np.array([p.kde_pos.bandwidth, p.kde_neg.bandwidth])),
        ]
        header["arrays"] = [{"name": n, "shape": list(a.shape)} for n, a in arrays]
        old = tmp_path / "old.bin"
        write_container(old, header, *(np.asarray(a, dtype="<f8") for _, a in arrays))
        cfg = self.sim_cfg(tmp_path, attempts=10)
        rc = main(["simulate", str(old), str(workspace["data"]), "--config", str(cfg),
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 2
        assert capsys.readouterr().err.endswith("; retrain it\n")

    @pytest.mark.parametrize("key, value", [("learning_rate", 0.1), ("max_iterations", 300)])
    def test_model_file_with_removed_setting_exits_2(
        self, tmp_path, workspace, key, value, capsys
    ):
        header, payload = read_container(workspace["model"], "model")
        header["hyper"][key] = value
        old = tmp_path / "old.bin"
        write_container(old, header, payload)
        cfg = self.sim_cfg(tmp_path, attempts=10)
        rc = main(["simulate", str(old), str(workspace["data"]), "--config", str(cfg),
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 2
        assert f"unknown training setting '{key}'" in capsys.readouterr().err

    def test_numerical_failure_exits_3(self, tmp_path, workspace, monkeypatch):
        def explode(*args, **kwargs):
            raise DegenerateEvidenceError("posterior mass vanished")

        monkeypatch.setattr(cli, "evaluate_splits", explode)
        cfg = self.sim_cfg(tmp_path)
        rc = main(["simulate", "oracle", str(workspace["data"]), "--config", str(cfg),
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 3

    def test_linalg_failure_exits_3(self, tmp_path, workspace, monkeypatch):
        def explode(*args, **kwargs):
            raise np.linalg.LinAlgError("cholesky failed")

        monkeypatch.setattr(cli, "evaluate_splits", explode)
        cfg = self.sim_cfg(tmp_path)
        rc = main(["simulate", "oracle", str(workspace["data"]), "--config", str(cfg),
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 3

    @pytest.mark.parametrize("error, code, message", [
        (ValueError("no usable scorer"), 2, "data error: no usable scorer"),
        (np.linalg.LinAlgError("cholesky failed"), 3, "numerical failure: cholesky failed"),
    ], ids=["value-error", "linalg-error"])
    def test_refit_failure_exit_code(
        self, tmp_path, workspace, monkeypatch, capsys, error, code, message
    ):
        model = tmp_path / "gen.bin"
        assert main(["train", str(workspace["data"]), "--kind", "gen-lda",
                     "--out", str(model)]) == 0

        def explode(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "build_generative", explode)
        capsys.readouterr()
        cfg = self.sim_cfg(tmp_path, attempts=10)
        rc = main(["simulate", str(model), str(workspace["data"]), "--config", str(cfg),
                   "--out", str(tmp_path / "rep.json")])
        assert rc == code
        assert message in capsys.readouterr().err

    def test_non_orthonormal_pca_axes_exit_3(self, tmp_path, workspace, monkeypatch, capsys):
        # the check holds under python -O too, and ends in an exit code
        model = tmp_path / "gen.bin"
        assert main(["train", str(workspace["data"]), "--kind", "gen-lda",
                     "--out", str(model)]) == 0
        eigh = np.linalg.eigh

        def skewed(matrix):
            values, vectors = eigh(matrix)
            return values, 2.0 * vectors

        monkeypatch.setattr(models.np.linalg, "eigh", skewed)
        capsys.readouterr()
        message = "numerical failure: eigh returned non-orthonormal axes"
        assert main(["train", str(workspace["data"]), "--kind", "gen-lda",
                     "--out", str(tmp_path / "again.bin")]) == 3
        assert message in capsys.readouterr().err
        cfg = self.sim_cfg(tmp_path, attempts=10)
        rc = main(["simulate", str(model), str(workspace["data"]), "--config", str(cfg),
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 3
        assert message in capsys.readouterr().err


def make_raw(path, n_channels=8, n_samples=40_000, rate=250.0, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n_channels, n_samples))
    onsets = tuple(
        (int(s), int(rng.integers(0, 2))) for s in range(100, n_samples - 50, 260)
    )
    write_raw(path, RawRecording(data=data, rate=rate, stim_onsets=onsets))
    return onsets


class TestPreprocess:
    def test_full_chain(self, tmp_path, capsys):
        raw = tmp_path / "raw.bin"
        onsets = make_raw(raw)
        cfg = tmp_path / "p.cfg"
        cfg.write_text("exclude_channels = 2, 5\ndownsample_factor = 2\nwindow_ms = 500\n")
        out = tmp_path / "d.bin"
        rc = main(["preprocess", str(raw), "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "rate: 125.0 Hz" in stdout
        dataset = read_dataset(out)
        # 250 Hz halved -> 62-sample epochs; onsets near the end get dropped
        assert dataset.data.shape[1:] == (6, 62)
        assert len(dataset) in (len(onsets), len(onsets) - 1)
        assert "dropped at boundary:" in stdout
        header, _ = read_container(out, "epochs")
        assert header["rate"] == 125.0

    def test_labels_preserved(self, tmp_path):
        raw = tmp_path / "raw.bin"
        onsets = make_raw(raw, n_samples=20_000, seed=3)
        out = tmp_path / "d.bin"
        assert main(["preprocess", str(raw), "--out", str(out)]) == 0
        dataset = read_dataset(out)
        kept = [label for _, label in onsets][: len(dataset)]
        assert dataset.labels.tolist() == kept

    def test_byte_identical_rerun(self, tmp_path):
        raw = tmp_path / "raw.bin"
        make_raw(raw, n_samples=12_000)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        for out in (a, b):
            assert main(["preprocess", str(raw), "--out", str(out)]) == 0
        assert read_bytes(a) == read_bytes(b)

    def test_band_above_nyquist_exits_1(self, tmp_path):
        raw = tmp_path / "raw.bin"
        make_raw(raw, n_samples=12_000)
        cfg = tmp_path / "p.cfg"
        cfg.write_text("band_high = 130\n")
        rc = main(["preprocess", str(raw), "--config", str(cfg), "--out", str(tmp_path / "d.bin")])
        assert rc == 1

    @pytest.mark.parametrize("line, message", [
        ("band_low = 1e-50", "unstable biquad"),
        ("notch_q = nan", "quality factor must be positive and finite"),
        ("notch_q = inf", "quality factor must be positive and finite"),
    ])
    def test_degenerate_filter_design_exits_1(self, tmp_path, capsys, line, message):
        raw = tmp_path / "raw.bin"
        make_raw(raw, n_samples=12_000)
        cfg = tmp_path / "p.cfg"
        cfg.write_text(line + "\n")
        rc = main(["preprocess", str(raw), "--config", str(cfg), "--out", str(tmp_path / "d.bin")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "d.bin").exists()

    def test_malformed_container_exits_2(self, tmp_path):
        raw = tmp_path / "raw.bin"
        raw.write_bytes(b"\x99\x99")
        rc = main(["preprocess", str(raw), "--out", str(tmp_path / "d.bin")])
        assert rc == 2

    def test_onset_out_of_range_exits_2(self, tmp_path):
        raw = tmp_path / "raw.bin"
        make_raw(raw, n_samples=12_000)
        header, payload = read_container(raw, "raw")
        header["onsets"] = [[50_000, 1]]
        write_container(raw, header, payload)
        rc = main(["preprocess", str(raw), "--out", str(tmp_path / "d.bin")])
        assert rc == 2

    @pytest.mark.parametrize("field", ["sample", "rate"])
    def test_non_finite_recording_exits_2(self, tmp_path, capsys, field):
        raw = tmp_path / "raw.bin"
        make_raw(raw, n_samples=12_000)
        header, payload = read_container(raw, "raw")
        blob = bytearray(payload)
        if field == "sample":
            blob[400:404] = np.array([np.nan], dtype="<f4").tobytes()
        else:
            header["rate"] = math.nan
        write_container(raw, header, bytes(blob))
        rc = main(["preprocess", str(raw), "--out", str(tmp_path / "d.bin")])
        assert rc == 2
        assert "data error:" in capsys.readouterr().err

    def test_rate_past_the_float_range_exits_2(self, tmp_path, capsys):
        raw = tmp_path / "raw.bin"
        make_raw(raw, n_samples=12_000)
        splice_header(raw, "raw", "rate", "9" * 400)
        assert main(["preprocess", str(raw), "--out", str(tmp_path / "d.bin")]) == 2
        assert "data error:" in capsys.readouterr().err

    @pytest.mark.parametrize("onsets", [
        [[100, 1, 0], [400, 0, 0]],  # a 3-wide row, not a pair
        [[100, 1], [400]],  # a ragged row
        [[100, 1], [2**63, 0]],  # too large for int64
        None,
    ])
    def test_malformed_onsets_exit_2(self, tmp_path, capsys, onsets):
        raw = tmp_path / "raw.bin"
        make_raw(raw, n_samples=12_000)
        header, payload = read_container(raw, "raw")
        header["onsets"] = onsets
        write_container(raw, header, payload)
        assert main(["preprocess", str(raw), "--out", str(tmp_path / "d.bin")]) == 2
        assert "data error:" in capsys.readouterr().err

    def test_zero_channel_recording_exits_2(self, tmp_path, capsys):
        raw = tmp_path / "raw.bin"
        make_raw(raw, n_samples=12_000)
        header, _ = read_container(raw, "raw")
        header["channels"] = 0
        write_container(raw, header, b"")
        out = tmp_path / "d.bin"
        assert main(["preprocess", str(raw), "--out", str(out)]) == 2
        assert "data error:" in capsys.readouterr().err
        assert not out.exists()

    def test_onsets_colliding_after_downsampling_exit_1(self, tmp_path, capsys):
        raw = tmp_path / "raw.bin"
        data = np.random.default_rng(0).standard_normal((2, 2_000))
        write_raw(raw, RawRecording(data=data, rate=250.0,
                                    stim_onsets=((100, 1), (101, 0), (400, 0))))
        rc = main(["preprocess", str(raw), "--out", str(tmp_path / "d.bin")])
        assert rc == 1
        assert ("onsets 100 and 101 fall on one sample after downsampling by 2"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("value, message", [
        ("inf", "must be finite"), ("nan", "must be finite"), ("1e308", "must be finite"),
        ("1e300", "longer than the recording"), ("100000", "longer than the recording"),
    ])
    def test_unusable_window_exits_1(self, tmp_path, capsys, value, message):
        raw = tmp_path / "raw.bin"
        make_raw(raw, n_samples=12_000)
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"window_ms = {value}\n")
        out = tmp_path / "d.bin"
        assert main(["preprocess", str(raw), "--config", str(cfg), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_band_filter_exits_1(self, tmp_path, capsys):
        # a 10.4 Hz square wave of amplitude 3e38, near the float32 limit of
        # 3.4e38: the band passes its fundamental, 4/pi times the amplitude,
        # so the default filter's output leaves float32 range
        raw = tmp_path / "raw.bin"
        square = np.where(np.arange(12_000) % 24 < 12, 3e38, -3e38)
        onsets = [(s, s // 260 % 2) for s in range(100, 11_900, 260)]
        write_raw(raw, RawRecording(data=np.tile(square, (3, 1)), rate=250.0, stim_onsets=onsets))
        out = tmp_path / "d.bin"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["preprocess", str(raw), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: epochs contain non-finite samples or samples that overflow float32\n"
        )
        assert not out.exists()

    def test_excluding_every_channel_exits_2(self, tmp_path):
        raw = tmp_path / "raw.bin"
        make_raw(raw, n_channels=2, n_samples=12_000)
        cfg = tmp_path / "p.cfg"
        cfg.write_text("exclude_channels = 0, 1\n")
        rc = main(["preprocess", str(raw), "--config", str(cfg), "--out", str(tmp_path / "d.bin")])
        assert rc == 2


# Each stage that maps a ValueError to an exit code: the command, the
# object and name of a callee that runs inside the stage, and the code.
STAGES = [
    ("synth", cli, "draw", 1),
    ("synth", cli, "write_epochs", 1),
    ("train", cli, "check_train_settings", 1),
    ("train", cli, "split", 2),
    ("train", cli, "train_logistic_evidence", 2),
    ("simulate", TypingConfig, "__post_init__", 1),
    ("simulate", cli, "evaluate_splits", 2),
    ("preprocess", cli, "exclude_channels", 2),
    ("preprocess", cli, "design_bandpass", 1),
    ("preprocess", cli, "epoch", 1),
    ("preprocess", cli, "write_dataset", 1),
]


@pytest.mark.parametrize("error", ["value", "linalg"])
@pytest.mark.parametrize("command, owner, name, code", STAGES,
                         ids=[f"{command}-{name}" for command, _, name, _ in STAGES])
def test_stage_failure_exit_code(tmp_path, workspace, monkeypatch, capsys, command, owner, name,
                                 code, error):
    # a ValueError exits with the stage's code; a LinAlgError, which is also
    # a ValueError, exits 3 from every stage
    out = tmp_path / "out.bin"
    argv = {
        "synth": ["synth", "--config", str(workspace["synth_cfg"])],
        "train": ["train", str(workspace["data"])],
        "simulate": ["simulate", "oracle", str(workspace["data"]), "--splits", "1"],
        "preprocess": ["preprocess", str(tmp_path / "raw.bin"), "--config",
                       str(tmp_path / "p.cfg")],
    }[command] + ["--out", str(out)]
    make_raw(tmp_path / "raw.bin", n_samples=12_000)
    (tmp_path / "p.cfg").write_text("exclude_channels = 0\n")

    def explode(*args, **kwargs):
        raise ValueError("boom") if error == "value" else np.linalg.LinAlgError("boom")

    monkeypatch.setattr(owner, name, explode)
    rc = main(argv)
    if error == "linalg":
        code, prefix = 3, "numerical failure"
    else:
        prefix = "error" if code == 1 else "data error"
    assert (rc, capsys.readouterr().err) == (code, f"{prefix}: boom\n")
    assert not out.exists()


class TestReport:
    def test_merge_and_sort(self, tmp_path, workspace):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("attempts = 30\nsplits = 2\n")
        paths = []
        for name in ("oracle", "always-pos"):
            out = tmp_path / f"{name}.json"
            rc = main(["simulate", name, str(workspace["data"]), "--config", str(cfg),
                       "--out", str(out)])
            assert rc == 0
            paths.append(out)
        merged = tmp_path / "merged.csv"
        rc = main(["report", *map(str, paths), "--out", str(merged)])
        assert rc == 0
        lines = merged.read_text().splitlines()
        assert lines[0] == "model,parameters,balanced_accuracy,itr"
        assert len(lines) == 3
        models = [line.split(",")[0] for line in lines[1:]]
        assert models == sorted(models)

    def test_bad_report_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["report", str(bad), "--out", str(tmp_path / "m.csv")])
        assert rc == 2

    def test_deeply_nested_report_exits_2(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        assert main(["report", str(deep), "--out", str(tmp_path / "m.csv")]) == 2
        assert capsys.readouterr().err == f"data error: {deep}: not a valid report file\n"

    def test_missing_report_exits_2(self, tmp_path):
        rc = main(["report", str(tmp_path / "ghost.json"), "--out", str(tmp_path / "m.csv")])
        assert rc == 2

    @staticmethod
    def report(kind="logreg", parameters=12, ba=0.75, itr=1.5):
        return {
            "model": {"kind": kind, "parameters": parameters},
            "aggregate": {
                "balanced_accuracy": {"mean": ba, "std": 0.0},
                "itr_bits_per_symbol": {"mean": itr, "std": 0.0},
            },
        }

    def test_hand_written_report_merges(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(self.report()))
        merged = tmp_path / "m.csv"
        assert main(["report", str(path), "--out", str(merged)]) == 0
        assert merged.read_text().splitlines()[1] == "logreg,12,0.750000,1.500000"

    @pytest.mark.parametrize("fields", [
        {"parameters": "12"},
        {"parameters": None},
        {"parameters": [12]},
        {"parameters": True},
        {"parameters": 12.0},
        {"kind": 7},
        {"kind": None},
        {"ba": math.nan},
        {"itr": math.inf},
        {"ba": "0.75"},
        {"ba": True, "itr": False},
        {"itr": True},
        {"ba": 10**400},
    ])
    def test_malformed_row_field_exits_2(self, tmp_path, capsys, fields):
        # next to a valid report, so the rows would have to be sorted
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(self.report()))
        bad.write_text(json.dumps(self.report(**fields)))
        merged = tmp_path / "m.csv"
        assert main(["report", str(good), str(bad), "--out", str(merged)]) == 2
        assert capsys.readouterr().err == f"data error: {bad}: not a valid report file\n"
        assert not merged.exists()


class TestNegativeSeeds:
    @pytest.mark.parametrize("command, config, flags, key", [
        ("train", "", ["--seed", "-1"], "seed"),
        ("simulate", "seed = -3\n", [], "seed"),
        ("simulate", "split_seed = -1\n", [], "split_seed"),
        ("simulate", "", ["--seed", "-4"], "seed"),
        ("synth", "seed = -2\n", [], "seed"),
        ("synth", "", ["--seed", "-5"], "seed"),
    ])
    def test_negative_seed_exits_1(
        self, tmp_path, workspace, capsys, command, config, flags, key
    ):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config)
        inputs = {
            "train": [str(workspace["data"])],
            "simulate": ["oracle", str(workspace["data"])],
            "synth": [],
        }[command]
        out = tmp_path / "out.bin"
        rc = main([command, *inputs, "--config", str(cfg), *flags, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be a non-negative integer, got -")
        assert not out.exists()


class TestUsage:
    def test_no_command_exits_1(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "rsvptyping" in capsys.readouterr().out

    def test_missing_out_flag_exits_1(self, workspace, capsys):
        assert main(["synth"]) == 1
        assert "--out" in capsys.readouterr().err


# Runs ``python -m rsvptyping.cli ARGV`` in a new interpreter, then prints
# the numpy and package modules it loaded, and OpenSSL's _hashlib when it
# was loaded rather than marked absent, as its last line of stdout.
FRESH_CLI = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print(*sorted(m for m in sys.modules\n"
    "    if m == 'numpy' or m.startswith('rsvptyping.')\n"
    "    or m == '_hashlib' and sys.modules[m] is not None)))\n"
    "sys.argv = ['rsvptyping', *sys.argv[1:]]\n"
    "runpy.run_module('rsvptyping.cli', run_name='__main__')\n"
)


def run_fresh(argv, cwd):
    """Exit code, stderr and loaded modules of one CLI command in a new process."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", FRESH_CLI, *map(str, argv)], cwd=cwd, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stderr, set(proc.stdout.splitlines()[-1].split())


RUNNERS = {"rsvptyping.models", "rsvptyping.core", "rsvptyping.sim", "rsvptyping.reports"}


class TestFreshProcess:
    """Each command loads only the modules it runs, and no OpenSSL; main's
    exception handlers name no class of a module the command did not load."""

    @pytest.mark.parametrize("argv, code, stderr, absent", [
        (["--version"], 0, "", {"numpy"}),
        (["--help"], 0, "", {"numpy"}),
        (["train", "--help"], 0, "", {"numpy"}),
        (["mlp"], 1, "error: argument command: invalid choice", {"numpy"}),
        (["report", "r.json", "--out", "m.csv"], 0, "", {"numpy"}),
        (["report", "bad.json", "--out", "m.csv"], 2, "data error: bad.json: not a valid",
         {"numpy"}),
        (["synth", "--config", "s.cfg", "--out", "d.bin"], 0, "", RUNNERS),
        (["preprocess", "raw.bin", "--out", "e.bin"], 0, "", RUNNERS),
    ], ids=["version", "help", "train-help", "unknown-command", "report", "report-not-json",
            "synth", "preprocess"])
    def test_exit_code_and_loaded_modules(self, tmp_path, argv, code, stderr, absent):
        # the SystemExit of --version and --help passes main's except
        # clauses, which must name no class of a module that is not loaded
        (tmp_path / "s.cfg").write_text("n_epochs = 60\nchannels = 2\ntarget_fraction = 0.25\n")
        (tmp_path / "r.json").write_text(json.dumps(TestReport.report()))
        (tmp_path / "bad.json").write_text("{not json")
        make_raw(tmp_path / "raw.bin", n_channels=2, n_samples=12_000)
        rc, err, loaded = run_fresh(argv, tmp_path)
        assert (rc, err[:len(stderr)]) == (code, stderr), err
        assert not loaded & absent
        # the probe sees what a command does load
        assert ("rsvptyping.reports" in loaded) == (argv[0] == "report")
        assert ("numpy" in loaded) == (absent == RUNNERS)

    def test_truncated_model_file_exits_2(self, tmp_path, workspace):
        model = tmp_path / "cut.bin"
        model.write_bytes(workspace["model"].read_bytes()[:-5])
        rc, err, loaded = run_fresh(["simulate", model, workspace["data"], "--splits", "1",
                                     "--out", "r.json"], tmp_path)
        assert (rc, err.startswith("data error: ")) == (2, True), err
        assert "rsvptyping.container" in loaded

    @pytest.mark.parametrize("step", range(3), ids=["synth", "train-gen-lda", "simulate"])
    def test_numpy_commands_run_without_openssl(self, tmp_path, monkeypatch, step):
        # numpy.random imports secrets, hmac and hashlib; the script marks
        # _hashlib absent, so they take the built-in hashes, not OpenSSL's
        commands = [["synth", "--config", "s.cfg", "--out", "d.bin"],
                    ["train", "d.bin", "--kind", "gen-lda", "--out", "m.bin"],
                    ["simulate", "m.bin", "d.bin", "--splits", "1", "--out", "r.json"]]
        (tmp_path / "s.cfg").write_text("n_epochs = 120\nchannels = 2\ntarget_fraction = 0.25\n")
        monkeypatch.chdir(tmp_path)
        for argv in commands[:step]:
            assert main(argv) == 0
        rc, err, loaded = run_fresh(commands[step], tmp_path)
        assert rc == 0, err
        assert "numpy" in loaded and "_hashlib" not in loaded


@pytest.mark.parametrize("entry", ["loaded", "absent"])
def test_main_leaves_the_openssl_entry_as_it_found_it(tmp_path, monkeypatch, entry):
    # only the script marks _hashlib absent; main, run by a freshly imported
    # cli module, leaves a caller's entry alone
    if entry == "loaded":
        pytest.importorskip("_hashlib")
    else:
        monkeypatch.delitem(sys.modules, "_hashlib", raising=False)
    found = ("_hashlib" in sys.modules, sys.modules.get("_hashlib"))
    monkeypatch.delitem(sys.modules, "rsvptyping.cli")
    monkeypatch.setattr(sys.modules["rsvptyping"], "cli", cli)
    fresh = importlib.import_module("rsvptyping.cli")
    (tmp_path / "s.cfg").write_text("n_epochs = 60\nchannels = 2\ntarget_fraction = 0.25\n")
    assert fresh.main(["synth", "--config", str(tmp_path / "s.cfg"),
                       "--out", str(tmp_path / "d.bin")]) == 0
    assert ("_hashlib" in sys.modules, sys.modules.get("_hashlib")) == found
