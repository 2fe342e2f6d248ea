"""End-to-end CLI runs, in process via cli.main(argv).

Everything here goes through the real argument parser and exercises the
documented exit codes: 0 ok, 1 usage, 2 data, 3 numeric.
"""

from __future__ import annotations

import filecmp
import json
import struct
import warnings
import zlib

import numpy as np
import pytest

from sasv import baselines, cli
from sasv.checkpoint import Checkpoint, checkpoint_to_bytes, load_checkpoint
from sasv.core import SCORE_FIELDS, load_embeddings, load_protocol
from sasv.metrics import load_scores
from sasv.model import score_protocol
from sasv.training import model_from_checkpoint


def _run(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects usage with its own exit
        return int(exc.code)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth run plus one short training run, shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    args = ["synth", "--out", str(data), "--seed", "7", "--speakers", "8",
            "--utts", "3", "--spoofs", "3", "--sv-dim", "6", "--cm-dim", "5"]
    assert _run(args) == 0
    train_args = [
        "train",
        "--sv-emb", str(data / "sv_embeddings.tsv"),
        "--cm-emb", str(data / "cm_embeddings.tsv"),
        "--train-protocol", str(data / "train_protocol.tsv"),
        "--dev-protocol", str(data / "dev_protocol.tsv"),
        "--epochs", "2", "--out", str(run),
    ]
    assert _run(train_args) == 0
    return {"root": root, "data": data, "run": run,
            "model": run / "model.ckpt"}


def test_synth_outputs_and_sidecar(workspace):
    data = workspace["data"]
    for name in ("sv_embeddings.tsv", "cm_embeddings.tsv", "train_protocol.tsv",
                 "dev_protocol.tsv", "eval_protocol.tsv", "run_config.json"):
        assert (data / name).exists(), name
    sidecar = json.loads((data / "run_config.json").read_text())
    assert sidecar["command"] == "synth"
    assert sidecar["config"]["seed"] == 7
    assert sidecar["config"]["speakers"] == 8


def test_synth_is_deterministic(workspace, tmp_path):
    args = ["synth", "--out", str(tmp_path / "again"), "--seed", "7",
            "--speakers", "8", "--utts", "3", "--spoofs", "3",
            "--sv-dim", "6", "--cm-dim", "5"]
    assert _run(args) == 0
    for name in ("sv_embeddings.tsv", "cm_embeddings.tsv", "eval_protocol.tsv"):
        assert filecmp.cmp(workspace["data"] / name, tmp_path / "again" / name,
                           shallow=False), name


def test_train_artifacts(workspace):
    run = workspace["run"]
    assert (run / "model.ckpt").exists()
    assert (run / "history.csv").exists()
    ckpt = load_checkpoint(str(run / "model.ckpt"))
    assert ckpt.kind == "integration"
    assert ckpt.meta["mode"] == "concat"
    assert ckpt.meta["train"]["epochs"] == 2
    history = (run / "history.csv").read_text().splitlines()
    assert len(history) == 3  # header + one row per epoch run


def test_eval_writes_scores_and_report(workspace, tmp_path, capsys):
    data, model = workspace["data"], workspace["model"]
    out = tmp_path / "eval"
    args = ["eval", "--model", str(model),
            "--sv-emb", str(data / "sv_embeddings.tsv"),
            "--cm-emb", str(data / "cm_embeddings.tsv"),
            "--eval-protocol", str(data / "eval_protocol.tsv"),
            "--out", str(out)]
    assert _run(args) == 0
    assert (out / "scores.csv").exists()
    assert (out / "eer_report.csv").exists()
    printed = capsys.readouterr().out
    assert "SASV-EER" in printed and "SV-EER" in printed
    table = load_scores(str(out / "scores.csv"))
    eval_lines = [ln for ln in (data / "eval_protocol.tsv").read_text().splitlines()
                  if ln.strip()]
    assert len(table) == len(eval_lines)


def test_eval_protocol_alias(workspace, tmp_path):
    data, model = workspace["data"], workspace["model"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    base = ["eval", "--model", str(model),
            "--sv-emb", str(data / "sv_embeddings.tsv"),
            "--cm-emb", str(data / "cm_embeddings.tsv")]
    assert _run(base + ["--eval-protocol", str(data / "eval_protocol.tsv"),
                        "--out", str(out_a)]) == 0
    assert _run(base + ["--protocol", str(data / "eval_protocol.tsv"),
                        "--out", str(out_b)]) == 0
    assert filecmp.cmp(out_a / "scores.csv", out_b / "scores.csv", shallow=False)


def test_eval_rereport_from_scores_matches(workspace, tmp_path):
    data, model = workspace["data"], workspace["model"]
    first = tmp_path / "first"
    again = tmp_path / "again"
    assert _run(["eval", "--model", str(model),
                 "--sv-emb", str(data / "sv_embeddings.tsv"),
                 "--cm-emb", str(data / "cm_embeddings.tsv"),
                 "--eval-protocol", str(data / "eval_protocol.tsv"),
                 "--out", str(first)]) == 0
    assert _run(["eval", "--scores", str(first / "scores.csv"),
                 "--out", str(again)]) == 0
    # the exported CSV carries full precision, so the report reproduces exactly
    assert filecmp.cmp(first / "eer_report.csv", again / "eer_report.csv",
                       shallow=False)


def test_eval_rereport_refuses_the_inputs_it_would_ignore(workspace, tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    assert _run(["eval", "--model", str(workspace["model"]),
                 "--sv-emb", str(workspace["data"] / "sv_embeddings.tsv"),
                 "--cm-emb", str(workspace["data"] / "cm_embeddings.tsv"),
                 "--eval-protocol", str(workspace["data"] / "eval_protocol.tsv"),
                 "--out", str(tmp_path)]) == 0
    nowhere = str(tmp_path / "nonexistent")
    for extra, named in ((["--model", nowhere], "--model"),
                         (["--sv-emb", nowhere, "--eval-protocol", nowhere],
                          "--sv-emb, --eval-protocol"),
                         (["--cm-emb", nowhere], "--cm-emb")):
        capsys.readouterr()
        assert _run(["eval", "--scores", str(scores), *extra,
                     "--out", str(tmp_path / "e")]) == 1, extra
        assert capsys.readouterr().err.endswith(f"it takes no {named}\n")
    assert not (tmp_path / "e").exists()


def test_score_matches_eval_scores(workspace, tmp_path):
    data, model = workspace["data"], workspace["model"]
    out_eval = tmp_path / "ev"
    out_score = tmp_path / "sc"
    common = ["--model", str(model),
              "--sv-emb", str(data / "sv_embeddings.tsv"),
              "--cm-emb", str(data / "cm_embeddings.tsv"),
              "--eval-protocol", str(data / "eval_protocol.tsv")]
    assert _run(["eval"] + common + ["--out", str(out_eval)]) == 0
    assert _run(["score"] + common + ["--out", str(out_score)]) == 0
    assert filecmp.cmp(out_eval / "scores.csv", out_score / "scores.csv",
                       shallow=False)


def test_an_eval_that_cannot_report_exits_2_and_leaves_no_out(workspace, tmp_path, capsys):
    """eval reports before it writes: a protocol or score file without
    targets has no EER, and the run leaves no --out behind."""
    data = workspace["data"]
    no_targets = tmp_path / "no_targets.tsv"
    no_targets.write_text("".join(
        line + "\n" for line in (data / "eval_protocol.tsv").read_text().splitlines()
        if line.strip() and not line.endswith("\ttarget")))
    common = ["--model", str(workspace["model"]),
              "--sv-emb", str(data / "sv_embeddings.tsv"),
              "--cm-emb", str(data / "cm_embeddings.tsv"),
              "--eval-protocol", str(no_targets)]
    # score writes what it scores, targets or none
    assert _run(["score"] + common + ["--out", str(tmp_path / "scored")]) == 0
    scores = tmp_path / "scored" / "scores.csv"
    assert ",target," not in scores.read_text()
    for argv in (["eval"] + common, ["eval", "--scores", str(scores)]):
        capsys.readouterr()
        assert _run(argv + ["--out", str(tmp_path / "e")]) == 2, argv
        assert "no target" in capsys.readouterr().err
        assert not (tmp_path / "e").exists(), argv


def test_baseline_with_cm_model(workspace, tmp_path):
    data, model = workspace["data"], workspace["model"]
    out = tmp_path / "bl"
    args = ["baseline", "--kind", "sum",
            "--sv-emb", str(data / "sv_embeddings.tsv"),
            "--cm-emb", str(data / "cm_embeddings.tsv"),
            "--cm-model", str(model),
            "--eval-protocol", str(data / "eval_protocol.tsv"),
            "--out", str(out)]
    assert _run(args) == 0
    assert (out / "scores.csv").exists()
    assert (out / "eer_report.csv").exists()


def _cm_table(data, path):
    """A constant CM score table covering every dev and eval test utterance."""
    utts = set()
    for proto in ("dev_protocol.tsv", "eval_protocol.tsv"):
        for line in (data / proto).read_text().splitlines():
            if line.strip():
                utts.add(line.split("\t")[1])
    path.write_text("".join(f"{u}\t{0.5 if '_U' in u else -0.5}\n"
                            for u in sorted(utts)))
    return path


def test_baseline_with_score_table_and_fitting(workspace, tmp_path):
    data = workspace["data"]
    table = _cm_table(data, tmp_path / "cm_scores.tsv")
    out = tmp_path / "casc"
    args = ["baseline", "--kind", "cascade",
            "--sv-emb", str(data / "sv_embeddings.tsv"),
            "--cm-emb", str(data / "cm_embeddings.tsv"),
            "--cm-scores", str(table),
            "--dev-protocol", str(data / "dev_protocol.tsv"),
            "--eval-protocol", str(data / "eval_protocol.tsv"),
            "--out", str(out)]
    assert _run(args) == 0
    ckpt = load_checkpoint(str(out / "baseline.ckpt"))
    assert ckpt.kind == "cascade"

    missing_dev = ["baseline", "--kind", "logreg",
                   "--sv-emb", str(data / "sv_embeddings.tsv"),
                   "--cm-emb", str(data / "cm_embeddings.tsv"),
                   "--cm-scores", str(table),
                   "--eval-protocol", str(data / "eval_protocol.tsv"),
                   "--out", str(tmp_path / "nope")]
    assert _run(missing_dev) == 1  # fitting without --dev-protocol is usage


def test_sum_reports_a_given_dev_protocol(workspace, tmp_path, capsys):
    data, model = workspace["data"], workspace["model"]
    common = ["baseline", "--kind", "sum",
              "--sv-emb", str(data / "sv_embeddings.tsv"),
              "--cm-emb", str(data / "cm_embeddings.tsv"), "--cm-model", str(model),
              "--eval-protocol", str(data / "eval_protocol.tsv")]
    with_dev, without = tmp_path / "with", tmp_path / "without"
    assert _run(common + ["--out", str(without)]) == 0
    capsys.readouterr()
    assert _run(common + ["--dev-protocol", str(data / "dev_protocol.tsv"),
                          "--out", str(with_dev)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("dev:\nmetric") and "\neval:\nmetric" in printed
    # a sum fits nothing: no baseline.ckpt, and the eval outputs do not change
    assert not (with_dev / "baseline.ckpt").exists()
    for name in ("scores.csv", "eer_report.csv"):
        assert filecmp.cmp(with_dev / name, without / name, shallow=False), name


def test_sum_with_a_missing_dev_protocol_exits_2(workspace, tmp_path, capsys):
    data = workspace["data"]
    table = _cm_table(data, tmp_path / "cm_scores.tsv")
    missing = tmp_path / "nonexistent.tsv"
    capsys.readouterr()
    assert _run(["baseline", "--kind", "sum", "--sv-emb", str(data / "sv_embeddings.tsv"),
                 "--cm-scores", str(table), "--dev-protocol", str(missing),
                 "--eval-protocol", str(data / "eval_protocol.tsv"),
                 "--out", str(tmp_path / "b")]) == 2
    assert capsys.readouterr().err == (
        f"sasv: data error: [Errno 2] No such file or directory: '{missing}'\n")
    assert not (tmp_path / "b").exists()  # a failed run writes nothing


def _logreg_args(data, table, out):
    return ["baseline", "--kind", "logreg", "--sv-emb", str(data / "sv_embeddings.tsv"),
            "--cm-scores", str(table), "--dev-protocol", str(data / "dev_protocol.tsv"),
            "--eval-protocol", str(data / "eval_protocol.tsv"), "--out", str(out)]


def test_a_logreg_fit_on_cm_scores_near_the_float_limit_fuses_the_same(workspace, tmp_path):
    # the fit scales each score column by a power of two first, so CM scores
    # times 2**996 (about 3e299) fit to a CM weight 2**-996 times smaller and
    # the same fused scores, bit for bit
    data = workspace["data"]
    table = _cm_table(data, tmp_path / "cm_scores.tsv")
    huge = tmp_path / "cm_huge.tsv"
    huge.write_text("".join(f"{utt}\t{float(value) * 2.0**996!r}\n" for utt, value in
                            (line.split("\t") for line in table.read_text().splitlines())))
    assert _run(_logreg_args(data, table, tmp_path / "plain")) == 0
    assert _run(_logreg_args(data, huge, tmp_path / "huge")) == 0
    plain, scaled = (load_scores(str(tmp_path / run / "scores.csv")) for run in ("plain", "huge"))
    assert scaled.s_sasv.tobytes() == plain.s_sasv.tobytes()
    weights = [load_checkpoint(str(tmp_path / run / "baseline.ckpt")).arrays["weight"]
               for run in ("plain", "huge")]
    assert weights[1].tolist() == [weights[0][0], weights[0][1] * 2.0**-996]


def test_a_logreg_fit_that_does_not_converge_exits_3(workspace, tmp_path, capsys,
                                                     monkeypatch):
    data = workspace["data"]
    table = _cm_table(data, tmp_path / "cm_scores.tsv")
    monkeypatch.setattr(baselines, "LOGREG_MAX_STEPS", 1)
    capsys.readouterr()
    assert _run(_logreg_args(data, table, tmp_path / "b")) == 3
    assert capsys.readouterr().err.startswith(
        "sasv: numeric error: logreg fit did not converge in 1 Newton steps")
    assert not (tmp_path / "b").exists()


def test_baseline_with_score_table_reads_no_cm_embeddings(workspace, tmp_path):
    data, model = workspace["data"], workspace["model"]
    table = _cm_table(data, tmp_path / "cm_scores.tsv")
    common = ["baseline", "--kind", "logreg",
              "--sv-emb", str(data / "sv_embeddings.tsv"),
              "--dev-protocol", str(data / "dev_protocol.tsv"),
              "--eval-protocol", str(data / "eval_protocol.tsv")]
    with_flag, without = tmp_path / "with", tmp_path / "without"
    assert _run(common + ["--cm-emb", str(data / "cm_embeddings.tsv"),
                          "--cm-scores", str(table), "--out", str(with_flag)]) == 0
    assert _run(common + ["--cm-scores", str(table), "--out", str(without)]) == 0
    for name in ("scores.csv", "eer_report.csv"):
        assert filecmp.cmp(with_flag / name, without / name, shallow=False), name
    # the model scores CM embeddings, so --cm-model still needs them
    assert _run(common + ["--cm-model", str(model), "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("line", ["\t0.5", "u1\t0.5 0.7"], ids=["empty-id", "two-values"])
def test_baseline_with_a_faulty_score_table_exits_2(workspace, tmp_path, capsys, line):
    data = workspace["data"]
    table = _cm_table(data, tmp_path / "cm_scores.tsv")
    lines = table.read_text().splitlines() + [line]
    table.write_text("\n".join(lines) + "\n")
    args = ["baseline", "--kind", "sum",
            "--sv-emb", str(data / "sv_embeddings.tsv"),
            "--cm-scores", str(table),
            "--eval-protocol", str(data / "eval_protocol.tsv"),
            "--out", str(tmp_path / "b")]
    assert _run(args) == 2
    assert f"{table}:{len(lines)}:" in capsys.readouterr().err


def test_baseline_with_a_stray_value_on_line_1_exits_2(workspace, tmp_path, capsys):
    data = workspace["data"]
    table = _cm_table(data, tmp_path / "cm_scores.tsv")
    lines = table.read_text().splitlines()
    lines[0] += " 0.7"
    table.write_text("\n".join(lines) + "\n")
    args = ["baseline", "--kind", "sum",
            "--sv-emb", str(data / "sv_embeddings.tsv"),
            "--cm-scores", str(table),
            "--eval-protocol", str(data / "eval_protocol.tsv"),
            "--out", str(tmp_path / "b")]
    assert _run(args) == 2
    assert f"{table}:2: " in (err := capsys.readouterr().err)
    assert "store expects 2 (the width of line 1)" in err


def test_gradcheck_runs_and_reports(tmp_path, capsys):
    out = tmp_path / "gc"
    assert _run(["gradcheck", "--seeds", "1", "--coords", "4",
                 "--out", str(out)]) == 0
    report = (out / "gradcheck_report.csv").read_text().splitlines()
    assert report[0] == "component,max_rel_err"
    assert len(report) == 6  # five audited components
    assert "composite" in capsys.readouterr().out


@pytest.mark.parametrize("command,flags,refused", [
    ("gradcheck", ["--seed", "-99999999999999999999"],
     "--seed: expected an integer >= 0, got -99999999999999999999"),
    ("gradcheck", ["--seeds", "2.5"], "--seeds: invalid integer value: '2.5'"),
    ("gradcheck", ["--seed", "-1"], "--seed: expected an integer >= 0, got -1"),
    ("gradcheck", ["--seeds", "0"], "--seeds: expected an integer >= 1, got 0"),
    ("gradcheck", ["--seeds", "-2"], "--seeds: expected an integer >= 1, got -2"),
    ("gradcheck", ["--seeds", "1", "--coords", "0"],
     "--coords: expected an integer >= 1, got 0"),
    ("gradcheck", ["--seeds", "1", "--coords", "-1"],
     "--coords: expected an integer >= 1, got -1"),
    ("gradcheck", ["--seeds", "1", "--coords", "4", "--exhaustive"],
     "--exhaustive: not allowed with argument --coords"),
])
def test_a_negative_seed_or_an_empty_gradient_audit_exits_1(tmp_path, capsys,
                                                            command, flags, refused):
    out = tmp_path / "out"
    capsys.readouterr()
    assert _run([command, *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.endswith(f"sasv {command}: error: argument {refused}\n")
    assert "Traceback" not in err and not out.exists()


NOISE_REFUSED = "noise and separation parameters must be finite and non-negative"
LR_REFUSED = "learning rate must be finite and non-negative"
# (command and flags, the refusal of the config that holds the setting)
CONFIG_REFUSALS = [
    ("synth --speakers 2", "need at least 6 speakers for three disjoint splits of >= 2"),
    ("synth --sv-dim 1", "sv_dim must be >= 2 and cm_dim >= 1"),
    ("synth --sv-noise nan", NOISE_REFUSED),
    ("synth --cm-separation inf", NOISE_REFUSED),
    ("synth --seed -1", "seed must be >= 0, got -1"),
    ("train --epochs 0", "epochs must be >= 1"),
    ("train --batch 1", "batch size must be >= 2 (batch norm needs batch statistics)"),
    ("train --lr -1", LR_REFUSED),
    ("train --lr inf", LR_REFUSED),
    ("train --loss-scale 0", "loss scale must be positive and finite, got 0.0"),
    ("train --margin-fake inf",
     "loss margins must be finite, got margin_real 0.9 and margin_fake inf"),
    # negative values that argparse's own pattern would take for options
    ("train --lr -1e-3", LR_REFUSED),
    ("train --margin-real -inf",
     "loss margins must be finite, got margin_real -inf and margin_fake 0.2"),
    ("train --margin-real -nan",
     "loss margins must be finite, got margin_real nan and margin_fake 0.2"),
    ("train --seed -1", "seed must be >= 0, got -1"),
]


@pytest.mark.parametrize("argv,message", CONFIG_REFUSALS,
                         ids=[argv for argv, _ in CONFIG_REFUSALS])
def test_a_setting_its_config_refuses_exits_1(tmp_path, capsys, argv, message):
    command, *flags = argv.split()
    # input files that do not exist: reading any of them would exit 2
    inputs = [arg for flag in ("--sv-emb", "--cm-emb", "--train-protocol", "--dev-protocol")
              for arg in (flag, str(tmp_path / "missing.tsv"))] if command == "train" else []
    out = tmp_path / "out"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run([command, *inputs, *flags, "--out", str(out)]) == 1
    # refused before any file is read: one line, no traceback, no warning
    assert capsys.readouterr().err == f"sasv: error: {message}\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def test_a_negative_value_in_exponent_form_is_a_value(workspace, tmp_path):
    data, out = workspace["data"], tmp_path / "run"
    assert _run(["train", "--sv-emb", str(data / "sv_embeddings.tsv"),
                 "--cm-emb", str(data / "cm_embeddings.tsv"),
                 "--train-protocol", str(data / "train_protocol.tsv"),
                 "--dev-protocol", str(data / "dev_protocol.tsv"),
                 "--epochs", "1", "--margin-fake", "-1e3", "--out", str(out)]) == 0
    assert load_checkpoint(str(out / "model.ckpt")).meta["loss"]["margin_fake"] == -1000.0


def test_usage_errors_exit_1(workspace, tmp_path):
    assert _run(["not-a-command"]) == 1
    assert _run([]) == 1
    assert _run(["synth"]) == 1  # --out is required
    data, model = workspace["data"], workspace["model"]
    args = ["score", "--model", str(model),
            "--sv-emb", str(data / "sv_embeddings.tsv"),
            "--cm-emb", str(data / "cm_embeddings.tsv"),
            "--eval-protocol", str(data / "eval_protocol.tsv"),
            "--threads", "2", "--out", str(tmp_path / "x")]
    assert _run(args) == 1  # --threads is not an option


def test_data_errors_exit_2(workspace, tmp_path):
    data, model = workspace["data"], workspace["model"]
    # missing embedding file is a data problem, not a crash
    args = ["eval", "--model", str(model),
            "--sv-emb", str(tmp_path / "nonexistent.tsv"),
            "--cm-emb", str(data / "cm_embeddings.tsv"),
            "--eval-protocol", str(data / "eval_protocol.tsv"),
            "--out", str(tmp_path / "x")]
    assert _run(args) == 2
    # malformed protocol line
    bad = tmp_path / "bad_protocol.tsv"
    bad.write_text("e1\tt1\tgenuine\n")
    args = ["eval", "--model", str(model),
            "--sv-emb", str(data / "sv_embeddings.tsv"),
            "--cm-emb", str(data / "cm_embeddings.tsv"),
            "--eval-protocol", str(bad), "--out", str(tmp_path / "y")]
    assert _run(args) == 2


def test_non_utf8_text_files_exit_2(workspace, tmp_path):
    data = workspace["data"]
    bad = tmp_path / "latin1.tsv"
    bad.write_bytes(b"u\xff\t0.5\n")
    train = ["train", "--sv-emb", str(bad),
             "--cm-emb", str(data / "cm_embeddings.tsv"),
             "--train-protocol", str(data / "train_protocol.tsv"),
             "--dev-protocol", str(data / "dev_protocol.tsv"),
             "--epochs", "1", "--out", str(tmp_path / "t")]
    assert _run(train) == 2
    assert _run(["eval", "--scores", str(bad), "--out", str(tmp_path / "e")]) == 2
    baseline = ["baseline", "--kind", "sum",
                "--sv-emb", str(data / "sv_embeddings.tsv"),
                "--cm-emb", str(data / "cm_embeddings.tsv"),
                "--cm-scores", str(bad),
                "--eval-protocol", str(data / "eval_protocol.tsv"),
                "--out", str(tmp_path / "b")]
    assert _run(baseline) == 2


def test_malformed_checkpoints_exit_2(workspace, tmp_path):
    data = workspace["data"]
    list_meta = checkpoint_to_bytes(Checkpoint(kind="integration", meta=[1, 2]))
    # a one-array checkpoint whose array name is the byte 0xff, CRC re-sealed
    body = checkpoint_to_bytes(Checkpoint(kind="integration", meta={},
                                          arrays={"a": np.zeros(1)}))[:-4]
    name_at = body.index(b"\x01\x00a") + 2
    body = body[:name_at] + b"\xff" + body[name_at + 1:]
    bad_name = body + struct.pack("<I", zlib.crc32(body))
    # metadata of the wrong type, each value one that int() or bool() would take
    ckpt = load_checkpoint(str(workspace["model"]))
    mistyped = [checkpoint_to_bytes(Checkpoint("integration", dict(ckpt.meta, **{key: value}),
                                               ckpt.arrays))
                for key, value in (("normalize_embeddings", "false"),
                                   ("normalize_embeddings", 0.5),
                                   ("normalize_embeddings", [0]),
                                   ("sv_dim", 6.9), ("sv_dim", "6"))]
    for i, blob in enumerate((list_meta, bad_name, *mistyped)):
        path = tmp_path / f"bad{i}.ckpt"
        path.write_bytes(blob)
        args = ["score", "--model", str(path),
                "--sv-emb", str(data / "sv_embeddings.tsv"),
                "--cm-emb", str(data / "cm_embeddings.tsv"),
                "--eval-protocol", str(data / "eval_protocol.tsv"),
                "--out", str(tmp_path / f"x{i}")]
        assert _run(args) == 2


def test_checkpoint_dims_that_disagree_with_its_arrays_exit_2(workspace, tmp_path,
                                                              capsys):
    # CRC-valid, but the meta claims dims no array holds: rejected before the
    # model would allocate 2**48-wide arrays
    data = workspace["data"]
    ckpt = load_checkpoint(str(workspace["model"]))
    for i, (key, value) in enumerate((("sv_dim", 2**48), ("cm_dim", 2**60),
                                      ("sv_dim", 7))):
        meta = dict(ckpt.meta, **{key: value})
        path = tmp_path / f"dims{i}.ckpt"
        path.write_bytes(checkpoint_to_bytes(Checkpoint("integration", meta, ckpt.arrays)))
        args = ["score", "--model", str(path),
                "--sv-emb", str(data / "sv_embeddings.tsv"),
                "--cm-emb", str(data / "cm_embeddings.tsv"),
                "--eval-protocol", str(data / "eval_protocol.tsv"),
                "--out", str(tmp_path / f"x{i}")]
        assert _run(args) == 2
        assert "does not match its array 'bn.gamma'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["on", "off"])
def test_normalize_flag_outside_train_exits_1(workspace, tmp_path, value):
    # the checkpoint records normalization, so only train takes the flag
    data, model = workspace["data"], workspace["model"]
    stores = ["--sv-emb", str(data / "sv_embeddings.tsv"),
              "--cm-emb", str(data / "cm_embeddings.tsv"),
              "--eval-protocol", str(data / "eval_protocol.tsv"),
              "--normalize-embeddings", value]
    for i, command in enumerate((["eval", "--model", str(model)],
                                 ["score", "--model", str(model)],
                                 ["baseline", "--kind", "sum", "--cm-model", str(model)])):
        assert _run(command + stores + ["--out", str(tmp_path / f"x{i}")]) == 1, command[0]


def _columns(table):
    return [getattr(table, name).tobytes() for name in SCORE_FIELDS]


def test_normalized_checkpoint_scores_normalized_embeddings(workspace, tmp_path):
    data = workspace["data"]
    sv_path, cm_path = str(data / "sv_embeddings.tsv"), str(data / "cm_embeddings.tsv")
    eval_path = str(data / "eval_protocol.tsv")
    model_path = tmp_path / "run" / "model.ckpt"
    assert _run(["train", "--sv-emb", sv_path, "--cm-emb", cm_path,
                 "--train-protocol", str(data / "train_protocol.tsv"),
                 "--dev-protocol", str(data / "dev_protocol.tsv"),
                 "--normalize-embeddings", "on", "--epochs", "2",
                 "--out", str(tmp_path / "run")]) == 0
    stores = ["--sv-emb", sv_path, "--cm-emb", cm_path, "--eval-protocol", eval_path]
    assert _run(["score", "--model", str(model_path), *stores,
                 "--out", str(tmp_path / "sc")]) == 0
    assert _run(["baseline", "--kind", "sum", "--cm-model", str(model_path), *stores,
                 "--out", str(tmp_path / "bl")]) == 0

    model = model_from_checkpoint(load_checkpoint(str(model_path)))
    assert model.normalize_embeddings
    protocol = load_protocol(eval_path, "eval")
    sv = load_embeddings(sv_path, "sv", normalize=True)
    cm = load_embeddings(cm_path, "cm", normalize=True)
    want = score_protocol(model, protocol, sv, cm)
    assert _columns(load_scores(str(tmp_path / "sc" / "scores.csv"))) == _columns(want)
    baseline = _columns(load_scores(str(tmp_path / "bl" / "scores.csv")))
    s_sv = baselines.sv_scores_for(protocol, sv)
    s_cm = baselines.CmScoreSource.from_model(model, sv, cm).scores_for(protocol)
    assert baseline == [s_sv.tobytes(), s_cm.tobytes(),
                        baselines.sum_fusion(s_sv, s_cm).tobytes()]
    # the stores as loaded without normalization would score otherwise
    raw = score_protocol(model, protocol, load_embeddings(sv_path, "sv"),
                         load_embeddings(cm_path, "cm"))
    assert _columns(raw)[1] != _columns(want)[1]


def test_store_dims_that_disagree_with_the_checkpoint_exit_2(workspace, tmp_path,
                                                             capsys):
    # the checkpoint was trained on sv_dim 6 and cm_dim 5; these stores are 5
    # and 6, the same concat width, so only a dims check can tell
    data, model = tmp_path / "data", str(workspace["model"])
    assert _run(["synth", "--out", str(data), "--seed", "7", "--speakers", "8",
                 "--utts", "3", "--spoofs", "3", "--sv-dim", "5", "--cm-dim", "6"]) == 0
    stores = ["--sv-emb", str(data / "sv_embeddings.tsv"),
              "--cm-emb", str(data / "cm_embeddings.tsv"),
              "--eval-protocol", str(data / "eval_protocol.tsv")]
    for i, command in enumerate((["eval", "--model", model],
                                 ["score", "--model", model],
                                 ["baseline", "--kind", "sum", "--cm-model", model])):
        assert _run(command + stores + ["--out", str(tmp_path / f"x{i}")]) == 2, command[0]
        assert capsys.readouterr().err == ("sasv: data error: the embeddings have sv_dim 5 and "
                                           "cm_dim 6, the model takes sv_dim 6 and cm_dim 5\n")


def test_numeric_errors_exit_3(workspace, tmp_path, capsys):
    data, model = workspace["data"], workspace["model"]
    # a zero-norm enrollment embedding defeats the cosine
    first_eval = (data / "eval_protocol.tsv").read_text().splitlines()[0]
    victim = first_eval.split("\t")[0]
    rewritten = []
    for line in (data / "sv_embeddings.tsv").read_text().splitlines():
        utt_id, payload = line.split("\t")
        if utt_id == victim:
            payload = " ".join("0.0" for _ in payload.split())
        rewritten.append(f"{utt_id}\t{payload}")
    broken = tmp_path / "broken_sv.tsv"
    broken.write_text("\n".join(rewritten) + "\n")
    args = ["eval", "--model", str(model),
            "--sv-emb", str(broken),
            "--cm-emb", str(data / "cm_embeddings.tsv"),
            "--eval-protocol", str(data / "eval_protocol.tsv"),
            "--out", str(tmp_path / "x")]
    assert _run(args) == 3
    # under normalization the zero-norm row is refused at load, at its line
    victim_line = 1 + [line.split("\t")[0] for line in rewritten].index(victim)
    capsys.readouterr()
    assert _run(["train", "--sv-emb", str(broken), "--cm-emb", str(data / "cm_embeddings.tsv"),
                 "--train-protocol", str(data / "train_protocol.tsv"),
                 "--dev-protocol", str(data / "dev_protocol.tsv"), "--epochs", "1",
                 "--normalize-embeddings", "on", "--out", str(tmp_path / "y")]) == 3
    assert (f"sasv: numeric error: {broken}:{victim_line}: cannot length-normalize"
            in capsys.readouterr().err)


def test_train_on_overflowing_cm_embeddings_exits_3(workspace, tmp_path, capsys):
    data = workspace["data"]
    # finite CM embeddings whose batch variance overflows when squared
    lines = []
    for line in (data / "cm_embeddings.tsv").read_text().splitlines():
        utt_id, payload = line.split("\t")
        lines.append(f"{utt_id}\t{' '.join(repr(float(v) * 1e160) for v in payload.split())}")
    huge = tmp_path / "huge_cm.tsv"
    huge.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    args = ["train", "--sv-emb", str(data / "sv_embeddings.tsv"), "--cm-emb", str(huge),
            "--train-protocol", str(data / "train_protocol.tsv"),
            "--dev-protocol", str(data / "dev_protocol.tsv"),
            "--epochs", "2", "--out", str(tmp_path / "run")]
    assert _run(args) == 3
    assert "numeric error: batch norm variance overflowed" in capsys.readouterr().err


def _scaled(arrays, names, factor):
    return {name: arrays[name] * factor for name in names}


def _with_one(arrays, name, value):
    array = arrays[name].copy()
    array.reshape(-1)[0] = value
    return {name: array}


@pytest.mark.parametrize("edit,code,message", [
    (lambda a: _scaled(a, ["h1.weight"], 1e300), 3,
     "numeric error: cosine head hit a zero-norm or overflowing vector"),
    (lambda a: _scaled(a, ["bn.gamma", "h1.weight"], 1e308), 3,
     "numeric error: cosine head hit a zero-norm or overflowing vector"),
    (lambda a: _with_one(a, "sv_weight", np.inf), 2,
     "data error: checkpoint array 'sv_weight' holds a non-finite value"),
    (lambda a: _with_one(a, "head.direction", np.nan), 2,
     "data error: checkpoint array 'head.direction' holds a non-finite value"),
    (lambda a: _with_one(a, "bn.running_mean", -np.inf), 2,
     "data error: checkpoint array 'bn.running_mean' holds a non-finite value"),
    (lambda a: _with_one(a, "bn.running_var", -1e-5), 2,
     "data error: checkpoint array 'bn.running_var' holds a negative variance"),
], ids=["h1-overflow", "bn-h1-overflow", "inf-sv-weight", "nan-direction",
        "inf-running-mean", "negative-var"])
def test_a_checkpoint_of_extreme_values_exits_with_one_line(workspace, tmp_path, capsys,
                                                            edit, code, message):
    # each is CRC-valid, and each would otherwise score to 0.0, inf or nan
    data = workspace["data"]
    ckpt = load_checkpoint(str(workspace["model"]))
    ckpt.arrays.update(edit(ckpt.arrays))
    model = tmp_path / "model.ckpt"
    model.write_bytes(checkpoint_to_bytes(ckpt))
    capsys.readouterr()
    assert _run(["score", "--model", str(model),
                 "--sv-emb", str(data / "sv_embeddings.tsv"),
                 "--cm-emb", str(data / "cm_embeddings.tsv"),
                 "--eval-protocol", str(data / "eval_protocol.tsv"),
                 "--out", str(tmp_path / "s")]) == code
    assert capsys.readouterr().err == f"sasv: {message}\n"


@pytest.mark.parametrize("error,line", [
    (MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)"),
     "Unable to allocate 745. GiB for an array with shape (100000000000,)"),
    (MemoryError(), "out of memory"),
], ids=["numpy-message", "bare"])
def test_running_out_of_memory_exits_2(tmp_path, capsys, monkeypatch, error, line):
    # raised, never allocated: an overcommitting kernel might grant the memory
    def generate(cfg):
        raise error
    monkeypatch.setattr(cli.synthgen, "generate", generate)
    capsys.readouterr()
    assert _run(["synth", "--sv-dim", "100000000000", "--out", str(tmp_path / "d")]) == 2
    assert capsys.readouterr().err == f"sasv: data error: {line}\n"


@pytest.mark.parametrize("setting", [["--loss-scale", "1e308"], ["--lr", "1e300"]])
def test_a_training_that_blows_up_exits_3_with_one_line(workspace, tmp_path, capsys,
                                                         setting):
    # a finite but huge setting overflows in the loss or the forward; the
    # non-finite checks report it, and no numpy warning reaches stderr
    data = workspace["data"]
    capsys.readouterr()
    args = ["train", "--sv-emb", str(data / "sv_embeddings.tsv"),
            "--cm-emb", str(data / "cm_embeddings.tsv"),
            "--train-protocol", str(data / "train_protocol.tsv"),
            "--dev-protocol", str(data / "dev_protocol.tsv"),
            "--epochs", "3", *setting, "--out", str(tmp_path / "run")]
    assert _run(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("sasv: numeric error: ") and err.count("\n") == 1, err


def test_bad_log_level_exits_1(workspace, monkeypatch, tmp_path):
    monkeypatch.setenv("SASV_LOG", "chatty")
    assert _run(["synth", "--out", str(tmp_path / "x")]) == 1
    monkeypatch.delenv("SASV_LOG")


def test_run_config_records_every_synth_and_train_setting(workspace):
    configs = {key: json.loads((workspace[key] / "run_config.json").read_text())["config"]
               for key in ("data", "run")}
    assert set(configs["data"]) == {
        "command", "out", "speakers", "utts", "spoofs", "sv_dim", "cm_dim", "sv_noise",
        "spoof_sv_offset", "cm_separation", "cm_noise", "seed"}
    assert set(configs["run"]) == {
        "command", "out", "sv_emb", "cm_emb", "train_protocol", "dev_protocol", "mode",
        "normalize_embeddings", "lr", "batch", "epochs", "seed", "loss_scale",
        "margin_real", "margin_fake"}


def test_run_config_written_for_every_command(workspace):
    for key in ("data", "run"):
        sidecar = workspace[key] / "run_config.json"
        payload = json.loads(sidecar.read_text())
        assert {"command", "config"} <= set(payload)
        assert payload["config"]["out"] == str(workspace[key])
