"""Command-line interface.

Subcommands: synth, train, eval, score, baseline, gradcheck. Exit codes:
0 success, 1 usage, 2 data validation, 3 numeric failure. Every run writes
its resolved configuration to <out>/run_config.json; outputs only ever land
under --out. The options of synth and train are the fields of SynthConfig,
TrainConfig and OneClassSoftmaxConfig, which alone set their defaults and
ranges; a value a config refuses is a usage error. The SASV_LOG env var
(error|warn|info|debug) sets verbosity.
eval, score and baseline --cm-model load the embeddings as their checkpoint
was trained (train --normalize-embeddings); baseline --cm-scores never normalizes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import re
import sys
import typing

import numpy as np

from . import baselines, gradcheck, metrics, synthgen, training
from .checkpoint import load_checkpoint, save_checkpoint
from .core import DataError, NumericError, TrialLabel, load_embeddings, load_protocol
from .loss import OneClassSoftmaxConfig
from .model import InputMode, IntegrationModel, score_protocol
from .synthgen import SynthConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # values, not options: argparse's own pattern takes -1e3, -inf and -nan for options
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf$|nan$)")

    # argparse defaults to exit code 2 on bad usage; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _int_from(least: int):
    """An argparse type: an integer of at least `least`, else a usage error
    (argparse names a value `int` refuses an "invalid integer value")."""
    def integer(text: str) -> int:
        if (value := int(text)) < least:
            raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {value}")
        return value
    return integer


def _write_sidecar(out_dir: str, command: str, args: argparse.Namespace) -> None:
    os.makedirs(out_dir, exist_ok=True)
    config = {k: v for k, v in vars(args).items() if k != "func"}
    payload = {"command": command, "config": config}
    with open(os.path.join(out_dir, "run_config.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


# the options not named after their config field
_FLAGS = {"n_speakers": "--speakers", "utts_per_speaker": "--utts",
          "spoofs_per_speaker": "--spoofs", "learning_rate": "--lr",
          "batch_size": "--batch", "scale": "--loss-scale"}


def _flag(field: dataclasses.Field) -> str:
    return _FLAGS.get(field.name, "--" + field.name.replace("_", "-"))


def _add_config_flags(sub, config_cls) -> None:
    """One option per field of `config_cls`, of the field's type and default."""
    types = typing.get_type_hints(config_cls)
    for field in dataclasses.fields(config_cls):
        sub.add_argument(_flag(field), type=types[field.name], default=field.default,
                         help=f"{config_cls.__name__}.{field.name} (default %(default)s)")


def _config_from(config_cls, args):
    """The config of the options `_add_config_flags` added; a value the
    config refuses is a usage error."""
    try:
        return config_cls(**{
            field.name: getattr(args, _flag(field)[2:].replace("-", "_"))
            for field in dataclasses.fields(config_cls)})
    except DataError as exc:
        raise UsageError(str(exc)) from None


def cmd_synth(args) -> int:
    ds = synthgen.generate(_config_from(SynthConfig, args))
    paths = synthgen.write_dataset(ds, args.out)
    _write_sidecar(args.out, "synth", args)
    for split in synthgen.SPLIT_NAMES:
        counts = ds.protocols[split].counts()
        print(f"{split}: {len(ds.split_speakers[split])} speakers, "
              f"{counts[TrialLabel.TARGET]} target / {counts[TrialLabel.NONTARGET]} "
              f"nontarget / {counts[TrialLabel.SPOOF]} spoof trials")
    print(f"wrote {', '.join(sorted(paths.values()))}")
    return EXIT_OK


def _load_stores(sv_path: str, cm_path: str, normalize: bool):
    sv = load_embeddings(sv_path, "sv", normalize=normalize)
    cm = load_embeddings(cm_path, "cm", normalize=normalize)
    return sv, cm


def cmd_train(args) -> int:
    cfg = _config_from(training.TrainConfig, args)
    loss_cfg = _config_from(OneClassSoftmaxConfig, args)
    normalize = args.normalize_embeddings == "on"
    sv_store, cm_store = _load_stores(args.sv_emb, args.cm_emb, normalize)
    train_protocol = load_protocol(args.train_protocol, "train")
    dev_protocol = load_protocol(args.dev_protocol, "dev")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    model = IntegrationModel(
        InputMode(args.mode), sv_store.dimension, cm_store.dimension,
        rng, normalize_embeddings=normalize,
    )
    result = training.train(model, sv_store, cm_store, train_protocol,
                            dev_protocol, cfg, loss_cfg)
    os.makedirs(args.out, exist_ok=True)
    ckpt = training.model_to_checkpoint(result.model, cfg, loss_cfg,
                                        result.best_epoch, result.best_dev_sasv_eer)
    save_checkpoint(ckpt, os.path.join(args.out, "model.ckpt"))
    training.write_history(result.history, os.path.join(args.out, "history.csv"))
    _write_sidecar(args.out, "train", args)
    print(f"best epoch {result.best_epoch}, "
          f"dev SASV-EER {100.0 * result.best_dev_sasv_eer:.2f}%")
    return EXIT_OK


def _load_model_and_stores(model_path: str, args):
    """The checkpoint's model and the stores it scores, loaded as it was trained."""
    model = training.model_from_checkpoint(load_checkpoint(model_path))
    return model, *_load_stores(args.sv_emb, args.cm_emb, model.normalize_embeddings)


def _score_eval_protocol(args):
    model, sv_store, cm_store = _load_model_and_stores(args.model, args)
    protocol = load_protocol(args.eval_protocol, "eval")
    return score_protocol(model, protocol, sv_store, cm_store)


def cmd_eval(args) -> int:
    if args.scores:
        ignored = [name for name in ("model", "sv_emb", "cm_emb", "eval_protocol")
                   if getattr(args, name) is not None]
        _require(not ignored, "eval --scores re-reports the score file alone, it takes no "
                 + ", ".join("--" + name.replace("_", "-") for name in ignored))
        table = metrics.load_scores(args.scores)
    else:
        _require(args.model and args.sv_emb and args.cm_emb and args.eval_protocol,
                 "eval needs either --scores or all of --model, --sv-emb, "
                 "--cm-emb and --eval-protocol")
        table = _score_eval_protocol(args)
    # reported before the first write, so that a run which fails leaves no --out
    report = metrics.sasv_report(table, args.score_field)
    os.makedirs(args.out, exist_ok=True)
    if not args.scores:
        metrics.export_scores(table, os.path.join(args.out, "scores.csv"))
    metrics.write_eer_report(report, os.path.join(args.out, "eer_report.csv"))
    _write_sidecar(args.out, "eval", args)
    print(metrics.format_eer_report(report))
    return EXIT_OK


def cmd_score(args) -> int:
    table = _score_eval_protocol(args)
    os.makedirs(args.out, exist_ok=True)
    metrics.export_scores(table, os.path.join(args.out, "scores.csv"))
    _write_sidecar(args.out, "score", args)
    print(f"scored {len(table)} trials")
    return EXIT_OK


def cmd_baseline(args) -> int:
    fit = baselines.FITS.get(args.kind)
    _require(fit is None or args.dev_protocol,
             f"baseline --kind {args.kind} needs --dev-protocol for fitting")
    if args.cm_model:
        _require(args.cm_emb, "baseline --cm-model needs --cm-emb")
        cm_model, sv_store, cm_store = _load_model_and_stores(args.cm_model, args)
        source = baselines.CmScoreSource.from_model(cm_model, sv_store, cm_store)
    else:
        sv_store = load_embeddings(args.sv_emb, "sv")
        source = baselines.CmScoreSource(sv_store, baselines.load_cm_scores(args.cm_scores))
    eval_protocol = load_protocol(args.eval_protocol, "eval")
    eval_sv = baselines.sv_scores_for(eval_protocol, sv_store)
    eval_cm = source.scores_for(eval_protocol)

    # read, score, fit and report all before the first write, so that a run
    # which fails leaves no --out behind
    fitted, ckpt, lines = None, None, []
    if args.dev_protocol:
        dev_protocol = load_protocol(args.dev_protocol, "dev")
        dev_sv = baselines.sv_scores_for(dev_protocol, sv_store)
        dev_cm = source.scores_for(dev_protocol)
        if fit is not None:
            fitted = fit(dev_sv, dev_cm, [t.label for t in dev_protocol.trials])
            ckpt, line = baselines.fit_outputs(args.kind, fitted)
            lines.append(line)
        dev_table = baselines.baseline_records(args.kind, dev_protocol,
                                               dev_sv, dev_cm, fitted)
        lines += ["dev:", metrics.format_eer_report(metrics.sasv_report(dev_table))]
    table = baselines.baseline_records(args.kind, eval_protocol, eval_sv, eval_cm, fitted)
    report = metrics.sasv_report(table)

    os.makedirs(args.out, exist_ok=True)
    if ckpt is not None:
        save_checkpoint(ckpt, os.path.join(args.out, "baseline.ckpt"))
    metrics.export_scores(table, os.path.join(args.out, "scores.csv"))
    metrics.write_eer_report(report, os.path.join(args.out, "eer_report.csv"))
    _write_sidecar(args.out, "baseline", args)
    print("\n".join(lines + ["eval:", metrics.format_eer_report(report)]))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    seeds = range(args.seed, args.seed + args.seeds)
    coords = None if args.exhaustive else args.coords
    results = gradcheck.run_gradient_checks(seeds=seeds, coords_per_param=coords)
    os.makedirs(args.out, exist_ok=True)
    metrics.write_csv(os.path.join(args.out, "gradcheck_report.csv"),
                      ["component", "max_rel_err"],
                      ([name, results[name]] for name in gradcheck.COMPONENTS))
    _write_sidecar(args.out, "gradcheck", args)
    for name in gradcheck.COMPONENTS:
        print(f"{name:<12} max rel err {results[name]:.3e}")
    worst = max(results.values())
    if not worst < gradcheck.REL_TOL:
        raise NumericError(
            f"gradient check failed: max relative error {worst:.3e} "
            f">= {gradcheck.REL_TOL:.0e}"
        )
    return EXIT_OK


def _add_store_flags(sub, required: bool = True) -> None:
    sub.add_argument("--sv-emb", required=required, help="SV embedding file")
    sub.add_argument("--cm-emb", required=required, help="CM embedding file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sasv",
                     description="spoofing-aware speaker verification toolkit")
    commands = parser.add_subparsers(dest="command", required=True,
                                     parser_class=_Parser)

    synth = commands.add_parser("synth", help="generate a synthetic benchmark")
    synth.add_argument("--out", required=True)
    _add_config_flags(synth, SynthConfig)
    synth.set_defaults(func=cmd_synth)

    tr = commands.add_parser("train", help="train the score-integration model")
    _add_store_flags(tr)
    tr.add_argument("--train-protocol", required=True)
    tr.add_argument("--dev-protocol", required=True)
    tr.add_argument("--mode", default="concat",
                    choices=[m.value for m in InputMode])
    tr.add_argument("--normalize-embeddings", choices=["on", "off"], default="off")
    _add_config_flags(tr, training.TrainConfig)
    _add_config_flags(tr, OneClassSoftmaxConfig)
    tr.add_argument("--out", required=True)
    tr.set_defaults(func=cmd_train)

    ev = commands.add_parser("eval", help="score a protocol and report EERs")
    ev.add_argument("--model")
    _add_store_flags(ev, required=False)
    ev.add_argument("--eval-protocol", "--protocol", dest="eval_protocol")
    ev.add_argument("--scores", help="re-report from a previously exported score CSV")
    ev.add_argument("--score-field", default="s_sasv",
                    choices=list(metrics.SCORE_FIELDS))
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_eval)

    sc = commands.add_parser("score", help="score a protocol to CSV")
    sc.add_argument("--model", required=True)
    _add_store_flags(sc)
    sc.add_argument("--eval-protocol", "--protocol", dest="eval_protocol",
                    required=True)
    sc.add_argument("--out", required=True)
    sc.set_defaults(func=cmd_score)

    bl = commands.add_parser("baseline", help="run a score-fusion baseline")
    bl.add_argument("--kind", required=True, choices=list(baselines.BASELINE_KINDS))
    bl.add_argument("--sv-emb", required=True, help="SV embedding file")
    bl.add_argument("--cm-emb", help="CM embedding file, read with --cm-model")
    cm_src = bl.add_mutually_exclusive_group(required=True)
    cm_src.add_argument("--cm-scores", help="per-utterance ID<TAB>score file")
    cm_src.add_argument("--cm-model",
                        help="trained checkpoint used as the CM scorer")
    bl.add_argument("--dev-protocol")
    bl.add_argument("--eval-protocol", "--protocol", dest="eval_protocol",
                    required=True)
    bl.add_argument("--out", required=True)
    bl.set_defaults(func=cmd_baseline)

    gc = commands.add_parser("gradcheck", help="finite-difference gradient audit")
    gc.add_argument("--seed", type=_int_from(0), default=0)
    gc.add_argument("--seeds", type=_int_from(1), default=10,
                    help="number of consecutive seeds to sweep")
    coverage = gc.add_mutually_exclusive_group()
    coverage.add_argument("--coords", type=_int_from(1), default=gradcheck.COMPOSITE_COORDS,
                          help="sampled coordinates per parameter in the composite check")
    coverage.add_argument("--exhaustive", action="store_true",
                          help="check every coordinate of the composite (slow)")
    gc.add_argument("--out", required=True)
    gc.set_defaults(func=cmd_gradcheck)

    return parser


def _setup_logging() -> None:
    name = os.environ.get("SASV_LOG", "info").lower()
    if name not in _LOG_LEVELS:
        raise UsageError(
            f"SASV_LOG must be one of {sorted(_LOG_LEVELS)}, got {name!r}")
    logging.basicConfig(level=_LOG_LEVELS[name], format="%(message)s")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _setup_logging()
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"sasv: error: {exc}\n")
        return EXIT_USAGE
    except DataError as exc:
        sys.stderr.write(f"sasv: data error: {exc}\n")
        return EXIT_DATA
    except NumericError as exc:
        sys.stderr.write(f"sasv: numeric error: {exc}\n")
        return EXIT_NUMERIC
    except (OSError, MemoryError) as exc:  # an input too large for memory is bad data
        sys.stderr.write(f"sasv: data error: {str(exc) or 'out of memory'}\n")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
