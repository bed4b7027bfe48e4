"""Command-line interface.

Five subcommands cover the full workflow: ``synth`` writes a synthetic
dataset, ``preprocess`` turns a raw recording into epochs, ``train`` fits an
evidence model, ``simulate`` runs the typing benchmark across splits and
writes a report, and ``report`` merges report files into one CSV table.

Every command is a pure function of its input files, config, and seed:
rerunning with identical inputs produces byte-identical outputs at one BLAS
thread count. Exit codes: 0 success, 1 usage, config or out-of-memory
error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings
from enum import Enum
from typing import Optional

import numpy as np

from . import __version__
from .core import DegenerateEvidenceError
from .container import (
    ContainerFormatError,
    read_dataset,
    read_model,
    read_raw,
    write_dataset,
    write_model,
)
from .dsp import (
    design_bandpass,
    design_notch,
    downsample,
    epoch,
    exclude_channels,
    filter_forward,
)
from .models import (  # the fits are called by name, in _fit_model
    MODEL_KINDS,
    TRAIN_DEFAULTS as FIT_DEFAULTS,
    ConstantEvidenceModel,
    EvidenceModel,
    OracleEvidenceModel,
    build_generative,
    check_train_settings,
    train_logistic_evidence,
)
from .reports import (
    build_report,
    csv_path_for,
    read_report_json,
    report_csv_row,
    write_csv,
    write_report_json,
)
from .sim import (
    SplitSummary,
    SubChanceAccuracyWarning,
    TypingConfig,
    balanced_accuracy,
    classify_epochs,
    evaluate_splits,
)
from .synth import LabeledDataset, SynthConfig, generate, split

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

BUILTIN_MODELS = ("oracle", "uninformative", "always-pos", "always-neg")


class ConfigError(Exception):
    """Bad usage or configuration; reported before any computation."""


class DataError(Exception):
    """Input files exist but their contents cannot be used."""


# ---------------------------------------------------------------------------
# Config files: flat key=value lines, # comments, no sections.


def parse_config_file(path) -> dict[str, tuple[str, int]]:
    """Read key=value lines into {key: (raw value, line number)}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in entries:
            raise ConfigError(
                f"{path}:{lineno}: duplicate key {key!r} (first on line {entries[key][1]})"
            )
        entries[key] = (value, lineno)
    return entries


def _convert(default, raw: str):
    """``raw`` read as a value of the default's type."""
    if isinstance(default, bool):
        lowered = raw.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ValueError(f"expected true/false, got {raw!r}")
    if isinstance(default, Enum):
        try:
            return type(default)(raw)
        except ValueError:
            choices = ", ".join(member.value for member in type(default))
            raise ValueError(f"expected one of {choices}; got {raw!r}") from None
    if isinstance(default, tuple):
        return tuple(int(part.strip()) for part in raw.split(",")) if raw else ()
    return type(default)(raw)  # int or float


# random generator seeds; numpy accepts only non-negative ones
SEED_KEYS = ("seed", "split_seed")


def resolve_config(path: Optional[str], defaults: dict, overrides: Optional[dict] = None) -> dict:
    """Merge defaults, config file, and CLI overrides; reject unknown keys
    and negative seeds. A key's type is its default's type."""
    resolved = dict(defaults)
    if path is not None:
        for key, (raw, lineno) in parse_config_file(path).items():
            if key not in defaults:
                known = ", ".join(sorted(defaults))
                raise ConfigError(
                    f"{path}:{lineno}: unknown key {key!r} (known keys: {known})"
                )
            try:
                resolved[key] = _convert(defaults[key], raw)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    for key, value in (overrides or {}).items():
        if value is not None:
            resolved[key] = value
    for key in SEED_KEYS:
        if resolved.get(key, 0) < 0:
            raise ConfigError(f"{key} must be a non-negative integer, got {resolved[key]}")
    return resolved


# ---------------------------------------------------------------------------
# Subcommands


# SynthConfig's fields and defaults; an empty ``erp_channels`` list stands
# for None, every channel.
SYNTH_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SynthConfig)} | {
    "erp_channels": ()
}


def cmd_synth(args) -> int:
    resolved = resolve_config(args.config, SYNTH_DEFAULTS, {"seed": args.seed})
    if resolved["erp_channels"] == ():
        resolved["erp_channels"] = None
    try:
        config = SynthConfig(**resolved)
        dataset = generate(config)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    write_dataset(args.out, dataset, rate=config.rate)
    labels = dataset.labels
    n_pos = int(labels.sum())
    print(f"wrote {args.out}")
    print(
        f"epochs: {config.n_epochs}  channels: {config.channels}  "
        f"samples per epoch: {config.samples_per_epoch}  rate: {config.rate:.1f} Hz"
    )
    print(
        f"positive labels: {n_pos}  negative labels: {config.n_epochs - n_pos}  "
        f"label fraction: {n_pos / config.n_epochs:.6f}"
    )
    return EXIT_OK


def _fit_model(kind: str, train: LabeledDataset, settings: dict) -> EvidenceModel:
    # looked up by name at each call, so a wrapper put on this module is used
    return globals()[MODEL_KINDS[kind].fit](train, kind=kind, **settings)


def _warn_unconverged(fits) -> None:
    """One stderr line when any logistic fit of ``fits``, a LogisticFit or
    None per fit, stopped short of its tolerance."""
    fits = [fit for fit in fits if fit is not None]
    stopped = [fit for fit in fits if not fit.converged]
    if stopped:
        worst = max(stopped, key=lambda fit: fit.gradient_norm)
        print(
            f"warning: {len(stopped)} of {len(fits)} logistic fits stopped short of "
            f"tolerance {worst.tolerance:g}: gradient norm up to "
            f"{worst.gradient_norm:.3e} after {worst.steps} Newton steps",
            file=sys.stderr,
        )


def _warn_sub_chance(summary: SplitSummary, alphabet_size: int) -> None:
    """One stderr line when any split typed below chance 1/A."""
    low = [row for row in summary.per_split if row.typing.below_chance]
    if low:
        named = ", ".join(f"split {row.split_index} ({row.typing.accuracy:.4f})" for row in low)
        print(f"warning: typing accuracy below chance 1/{alphabet_size} in {len(low)} of "
              f"{len(summary.per_split)} splits: {named}", file=sys.stderr)


# The fits' settings, plus the holdout that validation balanced accuracy is
# measured on.
TRAIN_DEFAULTS = FIT_DEFAULTS | {"holdout_fraction": 0.1, "seed": 0}


def cmd_train(args) -> int:
    resolved = resolve_config(args.config, TRAIN_DEFAULTS, {"seed": args.seed})
    try:
        check_train_settings({key: resolved[key] for key in FIT_DEFAULTS})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    fraction = resolved["holdout_fraction"]
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"holdout_fraction must lie in (0, 1), got {fraction!r}")
    settings = {key: resolved[key] for key in MODEL_KINDS[args.kind].settings}
    dataset = read_dataset(args.data)
    try:
        holdout = split(dataset, n_splits=1, test_fraction=fraction, seed=resolved["seed"])[0]
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    try:
        # the training copy is made inline so that it does not outlive the fit
        model = _fit_model(args.kind, dataset.subset(holdout.train), settings)
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    valid = dataset.subset(holdout.test)
    predictions = classify_epochs(model.predict_batch(valid))
    ba = balanced_accuracy(predictions, valid.labels)
    write_model(args.out, model, hyper=settings)
    print(f"wrote {args.out}")
    print(f"model: {args.kind}  parameters: {model.parameter_count}")
    print(f"train epochs: {len(holdout.train)}  validation epochs: {len(valid)}")
    if model.fit is not None:
        print(f"fit: {model.fit.steps} Newton steps, gradient norm {model.fit.gradient_norm:.3e}")
    print(f"validation balanced accuracy: {ba:.6f}")
    _warn_unconverged([model.fit])
    return EXIT_OK


# TypingConfig's fields and defaults, plus the splits to evaluate over.
SIMULATE_DEFAULTS = {f.name: f.default for f in dataclasses.fields(TypingConfig)} | {
    "splits": 5,
    "split_seed": 0,
}


def _builtin_model(name: str, alphabet_size: int) -> EvidenceModel:
    if name == "oracle":
        return OracleEvidenceModel()
    pos = {"uninformative": 1.0 / alphabet_size, "always-pos": 0.9, "always-neg": 0.1}[name]
    return ConstantEvidenceModel(pos, kind=name, prior=1.0 / alphabet_size)


def cmd_simulate(args) -> int:
    resolved = resolve_config(
        args.config, SIMULATE_DEFAULTS, {"seed": args.seed, "splits": args.splits}
    )
    if resolved["splits"] < 1:
        raise ConfigError("splits must be at least 1")
    try:
        typing_config = TypingConfig(
            **{f.name: resolved[f.name] for f in dataclasses.fields(TypingConfig)}
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    dataset = read_dataset(args.data)
    if args.model in BUILTIN_MODELS:
        model = _builtin_model(args.model, resolved["alphabet_size"])
        kind, parameters = model.kind, model.parameter_count

        def factory(train):
            return model
    else:
        kind, hyper, parameters = read_model(args.model)

        def factory(train):
            # a setting the file omits takes the fit's default, its TRAIN_DEFAULTS value
            return _fit_model(kind, train, hyper)

    try:
        with warnings.catch_warnings():
            # reported once for the whole run by _warn_sub_chance
            warnings.simplefilter("ignore", SubChanceAccuracyWarning)
            summary = evaluate_splits(
                factory,
                dataset,
                typing_config,
                n_splits=resolved["splits"],
                split_seed=resolved["split_seed"],
            )
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:
        raise DataError(str(exc)) from exc

    config_echo = dict(resolved)
    config_echo["query_strategy"] = typing_config.query_strategy.value
    config_echo["model"] = str(args.model)
    config_echo["data"] = str(args.data)
    report = build_report(
        command="simulate",
        seed=resolved["seed"],
        config_echo=config_echo,
        model_kind=kind,
        parameter_count=parameters,
        summary=summary,
    )
    write_report_json(args.out, report)
    write_csv(csv_path_for(args.out), [report_csv_row(report)])
    print(f"wrote {args.out}")
    print(f"model: {kind}  splits: {resolved['splits']}  attempts: {resolved['attempts']}")
    print(
        f"balanced accuracy: {summary.mean_balanced_accuracy:.6f} "
        f"± {summary.std_balanced_accuracy:.6f}"
    )
    print(f"itr bits/symbol: {summary.mean_itr:.6f} ± {summary.std_itr:.6f}")
    _warn_unconverged(row.fit for row in summary.per_split)
    _warn_sub_chance(summary, resolved["alphabet_size"])
    return EXIT_OK


PREPROCESS_DEFAULTS = {
    "notch_hz": 50.0,
    "notch_q": 30.0,
    "band_low": 1.0,
    "band_high": 20.0,
    "band_order": 2,
    "downsample_factor": 2,
    "window_ms": 500.0,
    "exclude_channels": (),
}


def cmd_preprocess(args) -> int:
    resolved = resolve_config(args.config, PREPROCESS_DEFAULTS)
    recording = read_raw(args.raw)
    try:
        if resolved["exclude_channels"]:
            recording = exclude_channels(recording, resolved["exclude_channels"])
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    try:
        notch = design_notch(recording.rate, resolved["notch_hz"], resolved["notch_q"])
        band = design_bandpass(
            recording.rate,
            resolved["band_low"],
            resolved["band_high"],
            order=resolved["band_order"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    filtered = filter_forward([notch, *band], recording.data)
    recording = dataclasses.replace(recording, data=filtered)
    try:
        recording = downsample(recording, resolved["downsample_factor"])
        data, labels, dropped = epoch(recording, resolved["window_ms"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if labels.size == 0:
        raise DataError("no epochs survive preprocessing")
    write_dataset(args.out, LabeledDataset(data=data, labels=labels), rate=recording.rate)
    print(f"wrote {args.out}")
    print(
        f"channels: {recording.n_channels}  rate: {recording.rate:.1f} Hz  "
        f"samples per epoch: {data.shape[2]}"
    )
    print(f"epochs: {labels.size}  dropped at boundary: {dropped}")
    return EXIT_OK


def cmd_report(args) -> int:
    rows = []
    for path in args.reports:
        try:
            report = read_report_json(path)
            rows.append(report_csv_row(report))
        except OSError as exc:
            raise DataError(f"cannot read report {path}: {exc}") from exc
        # RecursionError: nested too deep; OverflowError: an integer mean past float range
        except (ValueError, KeyError, TypeError, RecursionError, OverflowError) as exc:
            raise DataError(f"{path}: not a valid report file") from exc
    rows.sort(key=lambda r: (r["parameters"], r["model"]))
    write_csv(args.out, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and dispatch


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for data
    errors, so route usage problems through ConfigError instead."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rsvptyping",
        description="Bayesian RSVP typing: synthesis, training, simulation.",
    )
    parser.add_argument("--version", action="version", version=f"rsvptyping {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic ERP dataset")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", required=True, help="output dataset path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit an evidence model on a dataset")
    p.add_argument("data", help="input dataset file")
    p.add_argument("--kind", choices=tuple(MODEL_KINDS), default="logreg")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", required=True, help="output model path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("simulate", help="run the typing benchmark across splits")
    p.add_argument(
        "model",
        help=f"model file, or one of: {', '.join(BUILTIN_MODELS)}",
    )
    p.add_argument("data", help="input dataset file")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--splits", type=int, help="override the split count")
    p.add_argument("--out", required=True, help="output report path (.json)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("preprocess", help="raw recording -> epoch dataset")
    p.add_argument("raw", help="input raw recording file")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", required=True, help="output dataset path")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("report", help="merge simulation reports into one CSV")
    p.add_argument("reports", nargs="+", help="report JSON files")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a config asking for more memory than there is
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ContainerFormatError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DegenerateEvidenceError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
