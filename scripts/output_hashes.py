"""Print the sha256 of every output of a fixed `sasv` pipeline.

    python3 scripts/output_hashes.py --src path/to/src

runs, in a temporary directory and against the `sasv` package under --src
(this checkout's `src/` by default):

- `synth` at 30 speakers, 20+20 utts, seed 1;
- a second `synth` at odd dims (7/5) with a spoof SV offset, so the hashes
  also cover the odd-length Box-Muller trim and the offset path;
- `train` in `concat`, `cm_only` and `concat_plus_enroll` mode at 40 epochs,
  and `eval` of each model;
- `train` in `concat` mode with `--normalize-embeddings on` (5 epochs at
  learning rate 1e-3) and its `eval`, so the hashes also cover the
  normalizing embedding load;
- `baseline` `sum`, `cascade` and `logreg` with the `cm_only` model as the
  CM scorer, and again with the normalizing `concat` model, so the hashes
  also cover a baseline that loads its embeddings normalized;
- `baseline` `sum`, `cascade` and `logreg` with a CM score table (`--cm-scores`)
  made of the first value of each row of the CM embedding file, and `sum` again
  without `--dev-protocol`, so the hashes cover both of its paths;
- a third `synth` at 200 speakers, 20+20 utts, seed 5, and `baseline` `cascade`
  on it with the `cm_only` model and with a CM score table made as above: its
  2,400 dev trials take every level of the cascade sweep up to 12;
- `gradcheck --seeds 3`;

so the hashes cover every CSV writer: `scores.csv`, `eer_report.csv`,
`history.csv` and `gradcheck_report.csv`. It then prints `sha256  path` for
each file written, by relative path, except `run_config.json` (it records the
temporary paths). Two source trees that print the same lines produce the same
outputs byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

MODES = ("concat", "cm_only", "concat_plus_enroll")
BASELINES = ("sum", "cascade", "logreg")


def _sasv(src: str, *args: str) -> None:
    env = dict(os.environ, PYTHONPATH=src, SASV_LOG="error")
    subprocess.run([sys.executable, "-m", "sasv.cli", *args], env=env, check=True,
                   stdout=subprocess.DEVNULL)


def _first_values(embeddings: str, table: str) -> None:
    """Write an ID<TAB>score table of the first value of each embedding line."""
    with open(embeddings, encoding="utf-8") as lines, \
            open(table, "w", encoding="utf-8", newline="\n") as out:
        for line in lines:
            utt_id, values = line.rstrip("\n").split("\t")
            out.write(f"{utt_id}\t{values.split()[0]}\n")


def run_pipeline(src: str, work: str) -> None:
    data = os.path.join(work, "data")
    _sasv(src, "synth", "--speakers", "30", "--utts", "20", "--spoofs", "20",
          "--seed", "1", "--out", data)
    _sasv(src, "synth", "--speakers", "12", "--utts", "5", "--spoofs", "3", "--sv-dim", "7",
          "--cm-dim", "5", "--spoof-sv-offset", "0.3", "--seed", "4",
          "--out", os.path.join(work, "data_odd"))
    stores = ["--sv-emb", os.path.join(data, "sv_embeddings.tsv"),
              "--cm-emb", os.path.join(data, "cm_embeddings.tsv")]
    dev = os.path.join(data, "dev_protocol.tsv")
    eval_protocol = os.path.join(data, "eval_protocol.tsv")
    for mode in MODES:
        run = os.path.join(work, f"train_{mode}")
        _sasv(src, "train", *stores, "--mode", mode, "--epochs", "40",
              "--train-protocol", os.path.join(data, "train_protocol.tsv"),
              "--dev-protocol", dev, "--out", run)
        _sasv(src, "eval", "--model", os.path.join(run, "model.ckpt"), *stores,
              "--eval-protocol", eval_protocol, "--out", os.path.join(work, f"eval_{mode}"))
    run = os.path.join(work, "train_normalized")
    _sasv(src, "train", *stores, "--mode", "concat", "--normalize-embeddings", "on",
          "--lr", "1e-3", "--epochs", "5",
          "--train-protocol", os.path.join(data, "train_protocol.tsv"),
          "--dev-protocol", dev, "--out", run)
    _sasv(src, "eval", "--model", os.path.join(run, "model.ckpt"), *stores,
          "--eval-protocol", eval_protocol, "--out", os.path.join(work, "eval_normalized"))
    for kind in BASELINES:
        for cm_model, out in (("train_cm_only", f"baseline_{kind}"),
                              ("train_normalized", f"baseline_normalized_{kind}")):
            _sasv(src, "baseline", "--kind", kind, *stores,
                  "--cm-model", os.path.join(work, cm_model, "model.ckpt"),
                  "--dev-protocol", dev, "--eval-protocol", eval_protocol,
                  "--out", os.path.join(work, out))
    table = os.path.join(work, "cm_scores.tsv")
    _first_values(os.path.join(data, "cm_embeddings.tsv"), table)
    for kind in BASELINES:
        _sasv(src, "baseline", "--kind", kind, "--sv-emb", stores[1], "--cm-scores", table,
              "--dev-protocol", dev, "--eval-protocol", eval_protocol,
              "--out", os.path.join(work, f"baseline_table_{kind}"))
    _sasv(src, "baseline", "--kind", "sum", "--sv-emb", stores[1], "--cm-scores", table,
          "--eval-protocol", eval_protocol, "--out", os.path.join(work, "baseline_table_sum_eval"))
    wide = os.path.join(work, "data_wide")
    _sasv(src, "synth", "--speakers", "200", "--utts", "20", "--spoofs", "20",
          "--seed", "5", "--out", wide)
    wide_table = os.path.join(work, "cm_scores_wide.tsv")
    _first_values(os.path.join(wide, "cm_embeddings.tsv"), wide_table)
    wide_sv = os.path.join(wide, "sv_embeddings.tsv")
    wide_protocols = ["--dev-protocol", os.path.join(wide, "dev_protocol.tsv"),
                      "--eval-protocol", os.path.join(wide, "eval_protocol.tsv")]
    _sasv(src, "baseline", "--kind", "cascade", "--sv-emb", wide_sv,
          "--cm-emb", os.path.join(wide, "cm_embeddings.tsv"),
          "--cm-model", os.path.join(work, "train_cm_only", "model.ckpt"),
          *wide_protocols, "--out", os.path.join(work, "baseline_wide_cascade"))
    _sasv(src, "baseline", "--kind", "cascade", "--sv-emb", wide_sv,
          "--cm-scores", wide_table, *wide_protocols,
          "--out", os.path.join(work, "baseline_wide_table_cascade"))
    _sasv(src, "gradcheck", "--seeds", "3", "--out", os.path.join(work, "gradcheck"))


def output_hashes(work: str) -> list[tuple[str, str]]:
    out = []
    for root, _, files in os.walk(work):
        for name in files:
            if name == "run_config.json":
                continue
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            out.append((os.path.relpath(path, work), digest))
    return sorted(out)


def main() -> int:
    default_src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=os.path.normpath(default_src),
                        help="directory holding the sasv package (default: ./src)")
    args = parser.parse_args()
    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "sasv", "__init__.py")):
        parser.error(f"no sasv package under {src}")
    with tempfile.TemporaryDirectory(prefix="sasv_hashes_") as work:
        run_pipeline(src, work)
        hashes = output_hashes(work)
    for path, digest in hashes:
        print(f"{digest}  {path}")
    print(f"{len(hashes)} outputs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
