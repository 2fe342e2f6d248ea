#!/usr/bin/env python3
"""Benchmark of the sasv pipeline: two workloads, end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 50 --trace 0

Each run repeats whole timed rounds until --seconds of them have run, sets
its workload up afresh between rounds, checks the outputs of every round, and
prints one JSON object as its last line of standard output. With --trace 0
it reports the end-to-end metrics; with --trace 1 the per-module metrics of
`tracing.py` instead. Inputs are made from --seed; scratch files go under
`.perfbench_out/` and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

# One BLAS thread: no slower on these shapes, and a second spinning thread
# makes every timing hostage to whatever else runs on the machine (README.md).
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

sasv = None  # bound by import_program()


def import_program():
    """Import `sasv` from the source tree beside the benchmark, nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sasv", "__init__.py")):
        sys.exit(f"perfbench: no program source at {src}/sasv")
    sys.path.insert(0, src)
    import sasv.baselines  # noqa: F401
    import sasv.checkpoint  # noqa: F401
    import sasv.core  # noqa: F401
    import sasv.metrics  # noqa: F401
    import sasv.model  # noqa: F401
    import sasv.synthgen  # noqa: F401
    import sasv.training  # noqa: F401
    if not os.path.abspath(sasv.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported sasv from {sasv.__file__}, not {src}")
    globals()["sasv"] = sasv


class Tally:
    """Operations attempted, checks failed and their messages, of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, fn, *args, **kwargs):
        self.attempted += 1
        return fn(*args, **kwargs)

    def check(self, failures: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(failures)
        self.failures.extend(failures)


def _rng(seed: int):
    return np.random.Generator(np.random.PCG64(seed))


def _labels(protocol) -> list[str]:
    return [str(t.label) for t in protocol.trials]


def _columns(records):
    return (np.array([r.s_sv for r in records]), np.array([r.s_spf for r in records]),
            np.array([r.s_sasv for r in records]))


def _rows(records):
    return [(r.trial.enroll_id, r.trial.test_id, str(r.trial.label),
             r.s_sv, r.s_spf, r.s_sasv) for r in records]


def _digest(*parts) -> bytes:
    """Fingerprint of a round's outputs, to check later rounds repeat it."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes)
                 else np.asarray(part, dtype="<f8").tobytes())
    return h.digest()


# ---- workloads ------------------------------------------------------------
#
# Each workload has: config(seed) -> cfg, setup(cfg, workdir) -> state,
# run_round(state, tally) -> (outputs, {"wall_s", "trials", "busy_s", ...}),
# where trials went through the workload's main stage in busy_s seconds,
# check(state, outputs, tally), digest(outputs), the set-ups made before a
# round and the most made in a run, and the pinned shapes of its layer
# microbenchmark.


class Train:
    """The acceptance config, trained end to end (see README.md)."""

    name = "train"
    setups_per_round, max_setups = 4, None
    micro = {"mode": "concat", "forward_rows": 24, "forward_training": True,
             "backward_rows": 24}

    @staticmethod
    def config(seed: int, mini: bool = False) -> dict:
        synth = sasv.synthgen.SynthConfig(n_speakers=30, utts_per_speaker=20,
                                          spoofs_per_speaker=20, sv_dim=16,
                                          cm_dim=16, seed=1)
        # pinned like the acceptance test: its quality checks hold for this
        # config, not for every seed (README.md, "Seeds")
        return {"synth": synth, "epochs": 12 if mini else 40, "seed": 0}

    @staticmethod
    def setup(cfg, workdir):
        ds = sasv.synthgen.generate(cfg["synth"])
        paths = sasv.synthgen.write_dataset(ds, workdir)
        state = dict(cfg, workdir=workdir, paths=paths,
                     sv=sasv.core.load_embeddings(paths["sv_emb"], "sv"),
                     cm=sasv.core.load_embeddings(paths["cm_emb"], "cm"))
        for split in sasv.synthgen.SPLIT_NAMES:
            state[split] = sasv.core.load_protocol(paths[split], split)
        return state

    @staticmethod
    def run_round(st, tally):
        m, tr, bl, met = sasv.model, sasv.training, sasv.baselines, sasv.metrics
        sv, cm, dev, ev = st["sv"], st["cm"], st["dev"], st["eval"]
        tcfg = tr.TrainConfig(epochs=st["epochs"], seed=st["seed"])
        lcfg = sasv.loss.OneClassSoftmaxConfig()
        out, train_s = {}, 0.0
        start = time.perf_counter()
        for mode in (m.InputMode.CONCAT, m.InputMode.CM_ONLY):
            net = m.IntegrationModel(mode, sv.dimension, cm.dimension, _rng(st["seed"]))
            t0 = time.perf_counter()
            result = tally.op(tr.train, net, sv, cm, st["train"], dev, tcfg, lcfg)
            train_s += time.perf_counter() - t0
            path = os.path.join(st["workdir"], f"{mode.value}.ckpt")
            sasv.checkpoint.save_checkpoint(tr.model_to_checkpoint(
                result.model, tcfg, lcfg, result.best_epoch, result.best_dev_sasv_eer), path)
            ckpt = sasv.checkpoint.load_checkpoint(path)
            out[mode.value] = (result, ckpt, path, tr.model_from_checkpoint(ckpt))
        records = tally.op(m.score_protocol, out["concat"][3], ev, sv, cm)
        csv_path = os.path.join(st["workdir"], "scores.csv")
        met.export_scores(records, csv_path)
        out["records"], out["reloaded"] = records, met.load_scores(csv_path)
        out["fused"] = met.sasv_report(out["reloaded"])
        out["sv_only"] = met.sasv_report(out["reloaded"], "s_sv")
        source = bl.CmScoreSource.from_model(out["cm_only"][3], sv, cm)
        dev_cm, ev_cm = tally.op(source.scores_for, dev), tally.op(source.scores_for, ev)
        dev_sv = tally.op(bl.sv_scores_for, dev, sv)
        ev_sv = tally.op(bl.sv_scores_for, ev, sv)
        labels = [t.label for t in dev.trials]
        fitted = {"sum": None,
                  "logreg": tally.op(bl.fit_logreg, dev_sv, dev_cm, labels),
                  "cascade": tally.op(bl.fit_cascade, dev_sv, dev_cm, labels)}
        out["baselines"] = {}
        for kind, fit in fitted.items():
            recs = tally.op(bl.baseline_records, kind, ev, ev_sv, ev_cm, fit)
            out["baselines"][kind] = (recs, met.sasv_report(recs))
        wall = time.perf_counter() - start
        trials = len(st["train"]) * 2 * st["epochs"]
        return out, {"wall_s": wall, "trials": trials, "busy_s": train_s}

    @staticmethod
    def check(st, out, tally):
        c = checks
        ev, dev = st["eval"], st["dev"]
        labels = _labels(ev)
        s_sv, s_spf, s_sasv = _columns(out["records"])
        tally.check(c.check_same_rows(_rows(out["records"]), _rows(out["reloaded"]),
                                      "scores.csv read-back"))
        ids, matrix = c.parse_embedding_text(st["paths"]["sv_emb"])
        tally.check(c.check_cosines(s_sv, [t.enroll_id for t in ev.trials],
                                    [t.test_id for t in ev.trials], ids, matrix, "eval"))
        tally.check(c.check_fusion_identity(
            s_sasv, s_sv, s_spf, float(out["concat"][3].sv_weight), "eval"))
        tally.check(c.check_shared_test_scores([t.test_id for t in ev.trials], s_spf, "eval"))
        tally.check(c.check_report(out["fused"], labels, s_sasv, "eval fused"))
        tally.check(c.check_report(out["sv_only"], labels, s_sv, "eval SV only"))
        for kind, (recs, report) in out["baselines"].items():
            tally.check(c.check_report(report, labels, _columns(recs)[2], f"eval {kind}"))
        fused = out["fused"].sasv.eer
        quality = []
        if not fused <= 0.02:
            quality.append(f"fused SASV-EER {fused} is above 0.02")
        if not 0.40 <= out["sv_only"].spf.eer <= 0.60:
            quality.append(f"SV-only SPF-EER {out['sv_only'].spf.eer} is outside 0.40-0.60")
        for kind in ("sum", "logreg"):
            if not fused < out["baselines"][kind][1].sasv.eer:
                quality.append(f"fused SASV-EER {fused} does not beat {kind}")
        tally.check(quality)
        # s_spf of a concat model must not see the enrollment: rotate them
        enrolls = sorted({t.enroll_id for t in ev.trials})
        other = dict(zip(enrolls, enrolls[1:] + enrolls[:1]))
        swapped = sasv.core.Protocol([sasv.core.Trial(other[t.enroll_id], t.test_id, t.label)
                                      for t in ev.trials], "swapped")
        again = sasv.model.score_protocol(out["concat"][3], swapped, st["sv"], st["cm"])
        tally.check(c.check_enrollment_swap(s_spf, _columns(again)[1], "enrollment swap"))
        dev_labels = _labels(dev)
        for mode in ("concat", "cm_only"):
            result, ckpt, path, net = out[mode]
            eers = [h.dev_sasv_eer for h in result.history]
            tally.check(c.check_best_epoch(result.best_epoch, eers, f"{mode} best epoch"))
            # the reloaded model reproduces the dev EER of its restored epoch
            dev_sasv = _columns(sasv.model.score_protocol(net, dev, st["sv"], st["cm"]))[2]
            tar = dev_sasv[[lab == "target" for lab in dev_labels]]
            rest = dev_sasv[[lab != "target" for lab in dev_labels]]
            restored = c.counted_eer(tar, rest)
            tally.check([] if restored == eers[result.best_epoch - 1] else
                        [f"{mode}: reloaded dev SASV-EER {restored} != history "
                         f"{eers[result.best_epoch - 1]}"])
            resaved = path + ".again"
            sasv.checkpoint.save_checkpoint(ckpt, resaved)
            with open(path, "rb") as a, open(resaved, "rb") as b:
                tally.check(c.check_equal_bytes(a.read(), b.read(),
                                                f"{mode} save-load-save"))

    @staticmethod
    def digest(out):
        parts = [open(out[mode][2], "rb").read() for mode in ("concat", "cm_only")]
        parts += list(_columns(out["records"]))
        parts += [_columns(recs)[2] for recs, _ in out["baselines"].values()]
        return _digest(*parts)


class Fusion:
    """Many trials at small dims: the CM scores and the baseline fits."""

    name = "fusion"
    setups_per_round, max_setups = 1, 3
    micro = {"mode": "cm_only", "forward_rows": 1, "forward_training": False,
             "backward_rows": 24}

    @staticmethod
    def config(seed: int) -> dict:
        synth = sasv.synthgen.SynthConfig(n_speakers=400, utts_per_speaker=40,
                                          spoofs_per_speaker=40, sv_dim=16, cm_dim=16,
                                          seed=seed)
        return {"synth": synth, "seed": seed}

    @staticmethod
    def setup(cfg, workdir):
        ds = sasv.synthgen.generate(cfg["synth"])
        net = sasv.model.IntegrationModel(sasv.model.InputMode.CM_ONLY, ds.config.sv_dim,
                                          ds.config.cm_dim, _rng(cfg["seed"]))
        result = sasv.training.train(
            net, ds.sv_store, ds.cm_store, ds.protocols["train"], ds.protocols["dev"],
            sasv.training.TrainConfig(epochs=1, seed=cfg["seed"]),
            sasv.loss.OneClassSoftmaxConfig())
        return dict(cfg, sv=ds.sv_store, cm=ds.cm_store, dev=ds.protocols["dev"],
                    eval=ds.protocols["eval"], net=result.model)

    @staticmethod
    def run_round(st, tally):
        bl, met = sasv.baselines, sasv.metrics
        sv, cm, dev, ev = st["sv"], st["cm"], st["dev"], st["eval"]
        start = time.perf_counter()
        source = bl.CmScoreSource.from_model(st["net"], sv, cm)
        out = {"dev_cm": tally.op(source.scores_for, dev),
               "ev_cm": tally.op(source.scores_for, ev)}
        cm_s = time.perf_counter() - start
        out.update(dev_sv=tally.op(bl.sv_scores_for, dev, sv),
                   ev_sv=tally.op(bl.sv_scores_for, ev, sv))
        labels = [t.label for t in dev.trials]
        out["tau"] = tally.op(bl.fit_cascade, out["dev_sv"], out["dev_cm"], labels)
        out["fit"] = tally.op(bl.fit_logreg, out["dev_sv"], out["dev_cm"], labels)
        fitted = {"sum": None, "cascade": out["tau"], "logreg": out["fit"]}
        for kind, fit in fitted.items():
            recs = tally.op(bl.baseline_records, kind, ev, out["ev_sv"], out["ev_cm"], fit)
            out[kind] = (recs, met.sasv_report(recs))
        wall = time.perf_counter() - start
        return out, {"wall_s": wall, "trials": len(dev) + len(ev), "busy_s": cm_s}

    @staticmethod
    def check(st, out, tally):
        c = checks
        ev = st["eval"]
        labels = _labels(ev)
        ids = {utt: row for row, (utt, _) in enumerate(st["sv"].items())}
        matrix = np.array([vec for _, vec in st["sv"].items()])
        for split, key in (("dev", "dev_sv"), ("eval", "ev_sv")):
            trials = st[split].trials
            tally.check(c.check_cosines(out[key], [t.enroll_id for t in trials],
                                        [t.test_id for t in trials], ids, matrix,
                                        f"{split} SV scores"))
        tally.check(c.check_sum(_columns(out["sum"][0])[2], out["ev_sv"], out["ev_cm"],
                                "sum fusion"))
        tally.check(c.check_cascade_tau(out["tau"], out["dev_sv"], out["dev_cm"],
                                        _labels(st["dev"]), st["seed"]))
        tally.check(c.check_logreg(_columns(out["logreg"][0])[2], out["fit"].weight,
                                   out["fit"].bias, out["ev_sv"], out["ev_cm"]))
        for kind in ("sum", "cascade", "logreg"):
            recs, report = out[kind]
            tally.check(c.check_report(report, labels, _columns(recs)[2], f"eval {kind}"))

    @staticmethod
    def digest(out):
        return _digest(out["dev_cm"], out["ev_cm"], out["dev_sv"], out["ev_sv"],
                       [out["tau"]], *[_columns(out[k][0])[2]
                                       for k in ("sum", "cascade", "logreg")])


WORKLOADS = {w.name: w for w in (Train, Fusion)}


def probe(seed: int, workdir: str) -> None:
    """A small `train` set-up and round, which call every module, plus scoring
    with the one input mode no workload scores, so that a traced run measures
    every per-module metric on every workload (README.md, "Per-module
    metrics")."""
    state = Train.setup(Train.config(seed, mini=True), workdir)
    Train.run_round(state, Tally())
    net = sasv.model.IntegrationModel(sasv.model.InputMode.CONCAT_PLUS_ENROLL,
                                      state["sv"].dimension, state["cm"].dimension,
                                      _rng(seed))
    sasv.model.score_protocol(net, state["eval"], state["sv"], state["cm"])


def blas_threads():
    """Thread count of the OpenBLAS that NumPy loaded, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "loadavg": os.getloadavg(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def declared_units(traced: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run(wl, seed: int, seconds: float, tracer, workdir: str) -> dict:
    tally = Tally()
    cfg = wl.config(seed)
    phase = (lambda p: setattr(tracer, "phase", p)) if tracer else (lambda p: None)
    setup_s, rounds, first = [], [], None
    # set-ups are made between rounds, so that their median samples the
    # machine across the run rather than in its first seconds
    while not rounds or sum(r["wall_s"] for r in rounds) < seconds:
        for _ in range(wl.setups_per_round):
            if wl.max_setups is not None and len(setup_s) >= wl.max_setups:
                break
            gc.collect()  # every set-up and round starts from a collected heap
            phase(("setup", len(setup_s)))
            start = time.perf_counter()
            state = wl.setup(cfg, workdir)
            setup_s.append(time.perf_counter() - start)
            phase(None)
        gc.collect()
        phase(("round", len(rounds)))
        cpu = time.process_time()
        out, stages = wl.run_round(state, tally)
        stages["cpu_s"] = time.process_time() - cpu
        phase(None)
        rounds.append(stages)
        if first is None:
            wl.check(state, out, tally)
            first = wl.digest(out)
        else:
            tally.check([] if wl.digest(out) == first else
                        [f"round {len(rounds)} differs from round 1"])
        del out
    result = {"setup_s": setup_s, "rounds": rounds, "tally": tally}
    if tracer:
        # a small train set-up and round, for layers this workload skips
        phase(("probe", 0))
        probe(seed, os.path.join(workdir, "probe"))
        phase(None)
        net = sasv.model.IntegrationModel(
            sasv.model.InputMode(wl.micro["mode"]), cfg["synth"].sv_dim,
            cfg["synth"].cm_dim, _rng(seed))
        result["micro"] = tracing.microbench(
            net, wl.micro["forward_rows"], wl.micro["forward_training"],
            wl.micro["backward_rows"], seed)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    began = time.perf_counter()
    import_program()
    facts = machine_facts()
    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT_ROOT, f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    tracer = tracing.Tracer() if args.trace else None
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            res = run(wl, args.seed, args.seconds, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rounds, tally = res["rounds"], res["tally"]
    median = {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
    if tracer:
        values = {**tracing.layer_metrics(tracer), **res["micro"]}
    else:
        values = {"setup_s": statistics.median(res["setup_s"]), "wall_s": median["wall_s"],
                  "peak_rss_mb": peak_rss_mb(),
                  "trials_per_s": (sum(r["trials"] for r in rounds)
                                   / sum(r["busy_s"] for r in rounds))}
    units = declared_units(args.trace)
    if set(values) != set(units):
        sys.exit(f"perfbench: metrics {sorted(set(values) ^ set(units))} "
                 "do not match BENCHMARK.json")
    for failure in tally.failures:
        print(f"perfbench: CHECK FAILED: {failure}", file=sys.stderr)
    detail = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "machine": facts, "setup_s": res["setup_s"], "rounds": rounds,
              "round_medians": median, "peak_rss_mb": peak_rss_mb(),
              "run_s": time.perf_counter() - began}
    with open(os.path.join(OUT_ROOT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({**detail, "metrics": values}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not tally.failures, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 1 if tally.failures else 0


if __name__ == "__main__":
    sys.exit(main())
