"""Command-line interface.

Five subcommands cover the full workflow: ``synth`` writes a synthetic
dataset, ``preprocess`` turns a raw recording into epochs, ``train`` fits an
evidence model, ``simulate`` runs the typing benchmark across splits and
writes a report, and ``report`` merges report files into one CSV table.

Every command is a pure function of its input files, config, and seed:
rerunning with identical inputs produces byte-identical outputs at one BLAS
thread count. Exit codes: 0 success, 1 usage, config or out-of-memory
error, 2 data error, 3 numerical failure in any stage. No command writes an
epochs file with non-finite samples: one past float32 range exits 1.

Each command loads only the modules it runs: this module imports the
standard library and the numpy-free model-kind registry, so ``--version``,
usage errors and ``report`` start without numpy, and ``synth`` and
``preprocess`` without the models, the simulator and the reports.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import importlib
import math
import sys
import warnings
from enum import Enum
from typing import TYPE_CHECKING, Optional

from . import __version__
from .kinds import MODEL_KINDS, TRAIN_DEFAULTS as FIT_DEFAULTS, check_train_settings

if TYPE_CHECKING:
    from .models import EvidenceModel
    from .sim import SplitSummary
    from .synth import LabeledDataset

# The names the commands call, by module. None is imported with this module:
# __getattr__ binds a name here on first use (PEP 562), and main binds the
# names of a command's modules before it runs the command. A name already
# bound, such as a wrapper or a patch, is kept; the fits in MODEL_KINDS are
# called by name, in _fit_model.
_SOURCES = {name: module for module, names in {
    "container": "read_dataset read_model read_raw write_dataset write_epochs write_model",
    "dsp": "design_bandpass design_notch downsample epoch exclude_channels filter_forward",
    "models": "ConstantEvidenceModel GenerativeEvidenceModel OracleEvidenceModel "
              "build_generative train_logistic_evidence",
    "reports": "build_report csv_path_for read_report_json report_csv_row write_csv "
               "write_report_json",
    "sim": "SIMULATE_DEFAULTS SubChanceAccuracyWarning TypingConfig balanced_accuracy "
           "classify_epochs evaluate_splits",
    "synth": "SYNTH_DEFAULTS LabeledDataset SynthConfig draw split",
}.items() for name in names.split()}

def __getattr__(name: str):
    """Bind ``name`` here from its module in _SOURCES and return what is
    bound, keeping a name bound already."""
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __package__), name)
    return globals().setdefault(name, value)


def _loaded(*names: str) -> tuple[type, ...]:
    """The classes of ``names``, each "module.Class", whose modules are
    loaded: a class of a module the command never loaded was not raised."""
    return tuple(getattr(sys.modules[module], cls) for module, _, cls in
                 (name.rpartition(".") for name in names) if module in sys.modules)


EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

BUILTIN_MODELS = ("oracle", "uninformative", "always-pos", "always-neg")


class ConfigError(Exception):
    """Bad usage or configuration; reported before any computation."""


class DataError(Exception):
    """Input files exist but their contents cannot be used."""


@contextlib.contextmanager
def _fail_as(error: type[Exception]):
    """Re-raise a ValueError of the block as ``error``, with its message. A
    LinAlgError, itself a ValueError, passes through to exit 3."""
    try:
        yield
    except _loaded("numpy.linalg.LinAlgError"):
        raise
    except ValueError as exc:
        raise error(str(exc)) from exc


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


def cmd_synth(args) -> int:
    resolved = resolve_config(args.config, SYNTH_DEFAULTS, {"seed": args.seed})
    if resolved["erp_channels"] == ():
        resolved["erp_channels"] = None
    with _fail_as(ConfigError):
        config = SynthConfig(**resolved)
        labels, chunks = draw(config)
        # each chunk goes to the file as it is drawn; one that overflows
        # float32 leaves no file
        write_epochs(args.out, labels, chunks, (config.channels, config.samples_per_epoch),
                     rate=config.rate)
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


def _warn_overconfident(summary: SplitSummary, threshold: float) -> None:
    """One stderr line when the decided accuracy pooled over the splits,
    correct / (correct + wrong), is below the decision threshold by more
    than three binomial standard errors. Exact posteriors decide right with
    probability at least the threshold, so the evidence is overconfident.
    Nothing when no attempt decided."""
    correct = sum(row.typing.correct for row in summary.per_split)
    decided = correct + sum(row.typing.wrong for row in summary.per_split)
    if decided == 0:
        return
    accuracy = correct / decided
    allowance = 3.0 * math.sqrt(threshold * (1.0 - threshold) / decided)
    if accuracy < threshold - allowance:
        splits = len(summary.per_split)
        print(f"warning: decided typing accuracy below threshold {threshold:g} over "
              f"{splits} split{'s' * (splits != 1)}: {accuracy:.4f} ({correct} correct of "
              f"{decided} decided), beyond 3 standard errors ({allowance:.4f})", file=sys.stderr)


# The fits' settings, plus the holdout that validation balanced accuracy is
# measured on.
TRAIN_DEFAULTS = FIT_DEFAULTS | {"holdout_fraction": 0.1, "seed": 0}


def cmd_train(args) -> int:
    resolved = resolve_config(args.config, TRAIN_DEFAULTS, {"seed": args.seed})
    with _fail_as(ConfigError):
        check_train_settings({key: resolved[key] for key in FIT_DEFAULTS})
    fraction = resolved["holdout_fraction"]
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"holdout_fraction must lie in (0, 1), got {fraction!r}")
    settings = {key: resolved[key] for key in MODEL_KINDS[args.kind].settings}
    dataset = read_dataset(args.data)
    with _fail_as(DataError):
        holdout = split(dataset, n_splits=1, test_fraction=fraction, seed=resolved["seed"])[0]
        # row views of the dataset: the fit reads its rows, copying no epoch
        valid = dataset.subset(holdout.test)
        model = _fit_model(args.kind, dataset.subset(holdout.train), settings)
        # scoring checks the validation rows finite as it reads them
        predictions = classify_epochs(model.predict_batch(valid))
    ba = balanced_accuracy(predictions, valid.labels)
    write_model(args.out, model, hyper=settings)
    print(f"wrote {args.out}")
    print(f"model: {args.kind}  parameters: {model.parameter_count}")
    print(f"train epochs: {len(holdout.train)}  validation epochs: {len(valid)}")
    if isinstance(model, GenerativeEvidenceModel):
        print(f"pca: {model.pca_rank} components, "
              f"retained variance fraction {model.pca_variance_fraction:.6f}")
    if model.fit is not None:
        print(f"fit: {model.fit.steps} Newton steps, gradient norm {model.fit.gradient_norm:.3e}")
    print(f"validation balanced accuracy: {ba:.6f}")
    _warn_unconverged([model.fit])
    return EXIT_OK


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
    with _fail_as(ConfigError):
        typing_config = TypingConfig(
            **{f.name: resolved[f.name] for f in dataclasses.fields(TypingConfig)}
        )

    dataset = read_dataset(args.data)
    if args.model in BUILTIN_MODELS:
        model = _builtin_model(args.model, resolved["alphabet_size"])
        kind = model.kind

        def factory(train):
            return model
    else:
        kind, hyper = read_model(args.model)

        def factory(train):
            # a setting the file omits takes the fit's default, its TRAIN_DEFAULTS value
            return _fit_model(kind, train, hyper)

    with _fail_as(DataError), warnings.catch_warnings():
        # reported once for the whole run by _warn_sub_chance
        warnings.simplefilter("ignore", SubChanceAccuracyWarning)
        summary = evaluate_splits(
            factory,
            dataset,
            typing_config,
            n_splits=resolved["splits"],
            split_seed=resolved["split_seed"],
        )

    config_echo = dict(resolved)
    config_echo["query_strategy"] = typing_config.query_strategy.value
    config_echo["model"] = str(args.model)
    config_echo["data"] = str(args.data)
    report = build_report(
        command="simulate",
        seed=resolved["seed"],
        config_echo=config_echo,
        model_kind=kind,
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
    _warn_overconfident(summary, typing_config.threshold)
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
    if resolved["exclude_channels"]:
        with _fail_as(DataError):
            recording = exclude_channels(recording, resolved["exclude_channels"])
    with _fail_as(ConfigError):
        notch = design_notch(recording.rate, resolved["notch_hz"], resolved["notch_q"])
        band = design_bandpass(
            recording.rate,
            resolved["band_low"],
            resolved["band_high"],
            order=resolved["band_order"],
        )
        filtered = filter_forward([notch, *band], recording.data)
        recording = dataclasses.replace(recording, data=filtered)
        recording = downsample(recording, resolved["downsample_factor"])
        data, labels, dropped = epoch(recording, resolved["window_ms"])
        if labels.size == 0:
            raise DataError("no epochs survive preprocessing")
        # refused when a band filter's output overflows float32
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
    p.set_defaults(func=cmd_synth, modules=("synth", "container"))

    p = sub.add_parser("train", help="fit an evidence model on a dataset")
    p.add_argument("data", help="input dataset file")
    p.add_argument("--kind", choices=tuple(MODEL_KINDS), default="logreg")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", required=True, help="output model path")
    p.set_defaults(func=cmd_train, modules=("synth", "container", "models", "sim"))

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
    p.set_defaults(func=cmd_simulate, modules=("synth", "container", "models", "sim", "reports"))

    p = sub.add_parser("preprocess", help="raw recording -> epoch dataset")
    p.add_argument("raw", help="input raw recording file")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", required=True, help="output dataset path")
    p.set_defaults(func=cmd_preprocess, modules=("dsp", "synth", "container"))

    p = sub.add_parser("report", help="merge simulation reports into one CSV")
    p.add_argument("reports", nargs="+", help="report JSON files")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_report, modules=("reports",))

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name, module in _SOURCES.items():
            if module in args.modules:  # the modules whose names the command calls
                __getattr__(name)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a config asking for more memory than there is
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # a class named here is looked up only when an exception reaches it
    except (DataError, *_loaded("rsvptyping.container.ContainerFormatError")) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (FloatingPointError, *_loaded("rsvptyping.core.DegenerateEvidenceError",
                                         "numpy.linalg.LinAlgError")) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    """The ``rsvptyping`` script: main, then exit without the interpreter's
    last full garbage collection, which would only free what exit frees.

    The process runs without OpenSSL: ``numpy.random`` imports ``secrets``
    for seed entropy that no command draws, and with ``_hashlib`` marked
    absent ``hashlib`` and ``hmac`` use the interpreter's built-in hashes
    and ``libcrypto`` is never loaded. Callers of ``main`` keep theirs."""
    sys.modules.setdefault("_hashlib", None)
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
