"""glyphtext benchmark: one seeded workload per run, one BLAS thread.

    python3 perfbench/run.py --workload titles-bigru --seed 1 --seconds 2 --trace 0

Run from the root of a source tree; the program is imported from its
`src/`. Each run generates its inputs from the seed, then measures two
phases of the same model. Training: `train.run_train` (forward, backward
and Adam). Inference: `train.run_eval`, in-process `train.predict_text`
and the `glyphtext predict` command. It checks the outputs and prints one
JSON line last: end-to-end metrics with `--trace 0`, per-layer metrics
with `--trace 1`. A failed check prints `"correct": false` and exits 1.

`--seconds` is the length of the evaluation loop: whole `run_eval` calls
are repeated until it has passed (at least three). Every other phase is a
fixed amount of work, so a run takes longer than `--seconds`.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, pinned before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 4  # set-up samples per run, besides the full training run
MIN_EVAL_CALLS = 3
CHECK_BATCH = 32


def import_program():
    """Import `glyphtext` from this tree's `src/`, and nothing else."""
    if not (SRC / "glyphtext" / "__init__.py").is_file():
        sys.exit(f"perfbench: no glyphtext package under {SRC}; run from a source tree")
    sys.path.insert(0, str(SRC))
    import glyphtext
    import glyphtext.atlas
    import glyphtext.checkpoint
    import glyphtext.models
    import glyphtext.nn.ops
    import glyphtext.nn.optim
    import glyphtext.nn.tensor
    import glyphtext.pipeline
    import glyphtext.shaping
    import glyphtext.train

    if SRC not in Path(glyphtext.__file__).resolve().parents:
        sys.exit(f"perfbench: imported glyphtext from {glyphtext.__file__}, not {SRC}")
    return glyphtext


class Run:
    """One workload run: its inputs, work directory and operation counts."""

    def __init__(self, gt, inputs, seed: int, seconds: float, work: Path, tracer=None):
        self.gt, self.inp, self.seed, self.seconds, self.work = gt, inputs, seed, seconds, work
        self.spec = inputs.spec
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def phase(self, name):
        return self.tracer.in_phase(name) if self.tracer else contextlib.nullcontext()

    def config(self, ckpt_dir: Path):
        s = self.spec
        return self.gt.train.TrainConfig(
            dataset=str(self.inp.dataset), atlas=str(self.inp.atlas), classifier=s.classifier,
            checkpoint_dir=str(ckpt_dir), max_len=s.max_len, batch_size=s.batch_size, lr=s.lr,
            beta=s.beta, epochs=s.epochs, seed=self.seed, eval_every=s.epochs)

    def train(self, hooks, ckpt_dir: Path, probe: bool = False):
        """One `run_train` call; returns (set-up s, loop s, checkpoint, records)."""
        from tracing import SetupDone

        hooks.reset()
        hooks.probe = probe
        self.attempted += 1
        t0 = perf_counter()
        try:
            with self.phase("train"), contextlib.redirect_stdout(io.StringIO()):
                ckpt, records = self.gt.train.run_train(self.config(ckpt_dir))
        except SetupDone:
            shutil.rmtree(ckpt_dir)
            return hooks.first_step - t0, None, None, None
        loop_s = perf_counter() - hooks.first_step - hooks.evaluate_s - hooks.save_s
        return hooks.first_step - t0, loop_s, Path(ckpt), records

    def measure(self) -> dict:
        """Every end-to-end metric, plus what the output checks need."""
        from tracing import Hooks

        gt, spec = self.gt, self.spec
        hooks = Hooks(gt)
        with hooks.installed():
            setup = [self.train(hooks, self.work / f"probe{i}", probe=True)[0]
                     for i in range(SETUP_PROBES)]
            setup_s, loop_s, ckpt, records = self.train(hooks, self.work / "train")
            setup.append(setup_s)
            train_docs = hooks.train_docs

        eval_times, start = [], perf_counter()
        while len(eval_times) < MIN_EVAL_CALLS or perf_counter() - start < self.seconds:
            self.attempted += 1
            t0 = perf_counter()
            with self.phase("eval"):
                m = gt.train.run_eval(ckpt)
            eval_times.append(perf_counter() - t0)

        predict_times, predictions = [], []
        for text in self.inp.predict_texts:
            self.attempted += 1
            t0 = perf_counter()
            with self.phase("predict"):
                label, probs = gt.train.predict_text(ckpt, text)
            predict_times.append(perf_counter() - t0)
            predictions.append((label, probs))

        cli_times, cli_outputs = [], []
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for text in self.inp.predict_texts[: spec.n_cli]:
            self.attempted += 1
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "glyphtext", "predict", "--threads", "1",
                 "--checkpoint", str(ckpt), text],
                capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
            cli_times.append(perf_counter() - t0)
            if proc.returncode != 0:
                self.failed += 1
                print(proc.stderr, file=sys.stderr)
                continue
            cli_outputs.append(json.loads(proc.stdout.strip().splitlines()[-1]))

        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        return {
            "metrics": {
                "setup_s": (statistics.median(setup), "s"),
                "train_docs_per_s": (train_docs / loop_s, "docs/s"),
                "eval_docs_per_s": (int(m.support.sum()) / statistics.median(eval_times),
                                    "docs/s"),
                "predict_ms": (1e3 * statistics.median(predict_times), "ms"),
                "predict_p90_ms": (1e3 * statistics.quantiles(predict_times, n=10)[-1], "ms"),
                "cli_predict_ms": (1e3 * statistics.median(cli_times), "ms"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            },
            "ckpt": ckpt,
            "records": records,
            "eval_f": (m.micro_f, m.macro_f),
            "predictions": predictions,
            "cli_outputs": cli_outputs,
            "predict_s": sum(predict_times),
        }

    def batched_probs(self, docs, bank, params, mcfg):
        """Eval-mode softmax per document, batched so that each batch mixes
        the shortest and the longest documents; returned in input order."""
        import numpy as np

        by_len = sorted(range(len(docs)), key=lambda i: docs[i].true_len)
        order = [by_len[j // 2] if j % 2 == 0 else by_len[-1 - j // 2]
                 for j in range(len(docs))]
        probs = [None] * len(docs)
        for lo in range(0, len(order), CHECK_BATCH):
            batch = order[lo: lo + CHECK_BATCH]
            lens = np.array([docs[i].true_len for i in batch])
            width = mcfg.max_len or int(lens.max())
            ids = np.zeros((len(batch), width), dtype=np.int64)
            for row, i in enumerate(batch):
                ids[row, : lens[row]] = docs[i].glyph_ids[: lens[row]]
            z = self.gt.models.forward_documents(ids, lens, bank, params, mcfg, "eval").data
            z = z.astype(np.float64) - z.max(axis=1, keepdims=True)
            p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
            for row, i in enumerate(batch):
                probs[i] = p[row]
        return np.array(probs)

    def verify(self, out: dict) -> tuple[list[str], Counter]:
        """Every output check; returns failures and the resolution counts."""
        import checks
        from tracing import count_resolutions

        gt, spec, inp = self.gt, self.spec, self.inp
        pipeline = gt.pipeline
        failures: list[str] = []
        ds = pipeline.load_dataset(inp.dataset)
        shaper = gt.shaping.ArabicShaper()
        index = pipeline.GlyphIndex(gt.atlas.load_atlas(inp.atlas))
        resolution: Counter = Counter()
        with count_resolutions(gt, resolution):
            docs = pipeline.encode_corpus(ds, index, shaper, spec.max_len)
        failures += checks.check_resolution(resolution, inp.expected_resolution())
        predict_docs = [pipeline.encode_document(t, index, shaper, spec.max_len)
                        for t in inp.predict_texts]
        texts = [t for _, t in ds.records] + inp.predict_texts
        failures += checks.check_cluster_counts(
            texts, [len(shaper.shape_text(t)) for t in texts],
            [d.true_len for d in docs + predict_docs], spec.max_len or pipeline.LENGTH_CAP)

        records = out["records"]
        failures += checks.check_losses([r["loss"] for r in records])
        final = json.loads((out["ckpt"].parent / "train.log").read_text().splitlines()[-1])
        mcfg, label_map, params = gt.train._restore_model(
            gt.checkpoint.load_checkpoint(out["ckpt"]))
        names = [name for name, _ in sorted(label_map.items(), key=lambda kv: kv[1])]
        bank = index.bank()
        _, test_ds = pipeline.split_stratified(ds, 0.2, self.seed)
        test_docs = pipeline.encode_corpus(test_ds, index, shaper, spec.max_len)
        failures += checks.check_f_scores(
            out["eval_f"], (final["test_micro"], final["test_macro"]),
            self.batched_probs(test_docs, bank, params, mcfg), test_ds.labels, len(names))

        labels = [label for label, _ in out["predictions"]]
        probs = [p for _, p in out["predictions"]]
        failures += checks.check_predictions(
            labels, probs, names, self.batched_probs(predict_docs, bank, params, mcfg))
        failures += checks.check_cli(out["cli_outputs"], labels[: spec.n_cli],
                                     probs[: spec.n_cli], names)
        return failures, resolution


def run(args) -> tuple[dict, list[str]]:
    gt = import_program()
    from workloads import SPECS, generate

    spec = SPECS[args.workload]
    work = HERE / "work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = generate(spec, args.seed, work / "inputs")
        if not args.trace:
            r = Run(gt, inputs, args.seed, args.seconds, work)
            out = r.measure()
            failures, _ = r.verify(out)
            metrics = out["metrics"]
        else:
            metrics, failures, r = traced(gt, inputs, args, work)
        result = {
            "correct": not failures,
            "attempted": r.attempted,
            "failed": r.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return result, failures
    finally:
        shutil.rmtree(work, ignore_errors=True)


def traced(gt, inputs, args, work):
    """Traced run: one untraced training for the log comparison, then every
    phase again with the per-layer wrappers installed."""
    import checks
    from tracing import Hooks, Tracer

    plain = Run(gt, inputs, args.seed, args.seconds, work / "plain")
    hooks = Hooks(gt)
    with hooks.installed():
        plain.train(hooks, plain.work / "train")
    tracer = Tracer(gt)
    r = Run(gt, inputs, args.seed, args.seconds, work / "traced", tracer)
    with tracer.installed():
        out = r.measure()
    failures, resolution = r.verify(out)
    failures += checks.check_same_log((plain.work / "train" / "train.log").read_bytes(),
                                      (out["ckpt"].parent / "train.log").read_bytes())
    r.attempted += plain.attempted
    reload_s = tracer.predict_reload_s()
    print(json.dumps({
        "traced_end_to_end": {k: v for k, (v, _) in out["metrics"].items()},
        "predict_reload_s": reload_s,
        "predict_reload_share": reload_s / out["predict_s"],
    }))
    return tracer.metrics(resolution), failures, r


def main(argv=None) -> int:
    from workloads import SPECS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the run_eval loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A terminated run still stops its `glyphtext predict` child and removes
    # its work directory: SystemExit unwinds through both.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result, failures = run(args)
    for f in failures:
        print(f"perfbench: check failed: {f}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
