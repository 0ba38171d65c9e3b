"""Instrumentation installed from outside the package.

Everything here patches module attributes of an imported `glyphtext` and
restores them on exit; the package source is never edited. `Hooks` is
the minimal set an untraced run needs to cut `run_train` into set-up,
training loop, held-out evaluation and checkpoint writes. `Tracer` adds
the per-layer timers and counters of a traced run.

Where the package imports a function by name (`train.py` does `from
.pipeline import load_dataset`), the name is patched in the importing
module too, because that is the binding the caller looks up.
"""

from __future__ import annotations

import contextlib
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter

from workloads import RESOLVE_LEVELS, key_chain, resolve_level

NN_OPS = ("conv2d", "maxpool2d", "conv1d", "maxpool1d", "relu", "linear", "sigmoid",
          "tanh", "mul", "add", "affine", "narrow", "select_time", "stack_time",
          "concat_last", "gather_rows", "masked_mean_time", "batch_norm", "dropout",
          "softmax_cross_entropy")


class SetupDone(Exception):
    """Raised at the first training step of a set-up probe."""


class _Patches:
    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self):
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()


class Hooks:
    """Split one `run_train` call into set-up, loop, evaluation and saves.

    `probe=True` stops the call at its first training step by raising
    `SetupDone`, so a set-up sample costs no training.
    """

    def __init__(self, gt):
        self.gt = gt
        self.probe = False
        self.reset()

    def reset(self):
        self.first_step = None
        self.train_docs = 0
        self.evaluate_s = 0.0
        self.save_s = 0.0

    @contextlib.contextmanager
    def installed(self):
        train = self.gt.train
        forward, evaluate, save = (train.forward_documents, train._evaluate,
                                   train.save_checkpoint)

        def forward_documents(glyph_ids, lengths, bank, params, config, mode, rng=None):
            if mode == "train":
                if self.first_step is None:
                    self.first_step = perf_counter()
                    if self.probe:
                        raise SetupDone
                self.train_docs += len(glyph_ids)
            return forward(glyph_ids, lengths, bank, params, config, mode, rng)

        def _evaluate(*args, **kwargs):
            t0 = perf_counter()
            try:
                return evaluate(*args, **kwargs)
            finally:
                self.evaluate_s += perf_counter() - t0

        def save_checkpoint(*args, **kwargs):
            t0 = perf_counter()
            try:
                return save(*args, **kwargs)
            finally:
                self.save_s += perf_counter() - t0

        patches = _Patches()
        patches.set(train, "forward_documents", forward_documents)
        patches.set(train, "_evaluate", _evaluate)
        patches.set(train, "save_checkpoint", save_checkpoint)
        try:
            yield self
        finally:
            patches.restore()


@contextlib.contextmanager
def count_resolutions(gt, counts: Counter):
    """Count `GlyphAtlas.resolve` results by lookup-chain level."""
    cls = gt.atlas.GlyphAtlas
    resolve = cls.resolve

    def counting(self, sc):
        key = resolve(self, sc)
        chain = key_chain(sc.base, sc.form.name.lower(), tuple(sc.marks))
        counts[resolve_level(chain, key)] += 1
        return key

    patches = _Patches()
    patches.set(cls, "resolve", counting)
    try:
        yield counts
    finally:
        patches.restore()


class _Op:
    __slots__ = ("calls", "fwd", "bwd")

    def __init__(self):
        self.calls, self.fwd, self.bwd = 0, 0.0, 0.0


class Tracer:
    """Per-layer timers and counters for a traced run.

    `phase` is set by the benchmark around each public entry point
    ("train" for `run_train`, "eval" for `run_eval`, "predict" for
    `predict_text`); inside `run_train` the held-out evaluation counts as
    "eval". Times are totals over the traced run unless a name says
    otherwise; `nn.*` covers training steps only.
    """

    def __init__(self, gt):
        self.gt = gt
        self.phase = "other"
        self.mode = None  # mode of the forward pass in progress
        self.stepping = False  # from a training forward to its Adam update
        self.in_evaluate = False
        self.totals: Counter = Counter()
        self.by_phase: defaultdict = defaultdict(Counter)
        self.ops = {name: _Op() for name in gt.nn.ops.__all__}
        self._stack: list[float] = []
        self.step_times: list[float] = []
        self._step_start = 0.0
        self.tape_nodes = 0
        self.closure_s = 0.0

    # -- helpers ----------------------------------------------------------

    def add(self, name, value):
        self.totals[name] += value
        self.by_phase[self.phase][name] += value

    @contextlib.contextmanager
    def in_phase(self, phase):
        prev, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = prev

    @property
    def model_phase(self):
        if self.phase == "predict":
            return "predict"
        return "train" if self.mode == "train" else "eval"

    def _timed(self, fn, name, count=None):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            self.add(name + "_s", perf_counter() - t0)
            if count:
                self.add(count, 1)
            return out
        return wrapper

    # -- installation -----------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        gt = self.gt
        train, pipeline, models, atlas, shaping = (gt.train, gt.pipeline, gt.models,
                                                   gt.atlas, gt.shaping)
        p = _Patches()

        # shaping
        shape_text, shaper_init = shaping.ArabicShaper.shape_text, shaping.ArabicShaper.__init__

        def traced_shape_text(shaper, text):
            t0 = perf_counter()
            out = shape_text(shaper, text)
            self.add("shaping.s", perf_counter() - t0)
            self.add("shaping.docs", 1)
            self.add("shaping.clusters", len(out))
            return out

        def traced_init(shaper, *args, **kwargs):
            t0 = perf_counter()
            shaper_init(shaper, *args, **kwargs)
            self.add("shaping.shaper_build_s", perf_counter() - t0)
            self.add("shaping.shaper_builds", 1)

        p.set(shaping.ArabicShaper, "shape_text", traced_shape_text)
        p.set(shaping.ArabicShaper, "__init__", traced_init)

        # atlas
        traced_load_atlas = self._timed(atlas.load_atlas, "atlas.load", "atlas.loads")
        p.set(atlas, "load_atlas", traced_load_atlas)
        p.set(train, "load_atlas", traced_load_atlas)

        # pipeline
        for name, metric in (("load_dataset", "pipeline.load_dataset"),
                             ("split_stratified", "pipeline.split"),
                             ("encode_corpus", "pipeline.encode_corpus")):
            wrapped = self._timed(getattr(pipeline, name), metric)
            p.set(pipeline, name, wrapped)
            p.set(train, name, wrapped)
        p.set(pipeline.GlyphIndex, "bank",
              self._timed(pipeline.GlyphIndex.bank, "pipeline.bank", "pipeline.bank_builds"))
        iter_batches = pipeline.iter_id_batches

        def traced_batches(*args, **kwargs):
            it = iter_batches(*args, **kwargs)
            training = self.phase == "train" and not self.in_evaluate
            while True:
                t0 = perf_counter()
                try:
                    ids, lens, labs = next(it)
                except StopIteration:
                    return
                if training:
                    self.add("pipeline.batch_s", perf_counter() - t0)
                    self.add("pipeline.positions", ids.size)
                    self.add("pipeline.padded", ids.size - int(lens.sum()))
                yield ids, lens, labs

        p.set(pipeline, "iter_id_batches", traced_batches)
        p.set(train, "iter_id_batches", traced_batches)

        # models: the forward pass and its two halves
        forward = train.forward_documents

        def traced_forward(glyph_ids, lengths, bank, params, config, mode, rng=None):
            self.mode = mode
            if mode == "train":
                self.stepping = True
                self._step_start = perf_counter()
            try:
                return forward(glyph_ids, lengths, bank, params, config, mode, rng)
            except BaseException:
                self.stepping = False
                raise
            finally:
                self.mode = None

        p.set(train, "forward_documents", traced_forward)
        encode_unique = models.encode_unique

        def traced_encode(glyph_ids, bank, params):
            t0 = perf_counter()
            out = encode_unique(glyph_ids, bank, params)
            ph = self.model_phase
            self.add(f"models.{ph}.encoder_s", perf_counter() - t0)
            self.add(f"models.{ph}.docs", glyph_ids.shape[0])
            self.add(f"models.{ph}.positions", glyph_ids.size)
            self.add(f"models.{ph}.glyphs", len(set(glyph_ids.ravel().tolist())))
            return out

        p.set(models, "encode_unique", traced_encode)
        for name in ("clcnn_forward", "bigru_forward"):
            fn = getattr(models, name)

            def traced_classifier(*args, _fn=fn, **kwargs):
                t0 = perf_counter()
                out = _fn(*args, **kwargs)
                self.add(f"models.{self.model_phase}.classifier_s", perf_counter() - t0)
                return out

            p.set(models, name, traced_classifier)

        # nn: every tape operator, the backward walk and Adam
        for name in self.ops:
            fn = getattr(gt.nn.ops, name)
            wrapped = self._traced_op(name, fn)
            p.set(gt.nn.ops, name, wrapped)
            if name in train.__dict__:
                p.set(train, name, wrapped)
        tensor_cls = gt.nn.tensor.Tensor
        backward = tensor_cls.backward

        def traced_backward(t):
            c0, t0 = self.closure_s, perf_counter()
            backward(t)
            dt = perf_counter() - t0
            self.add("nn.backward_s", dt)
            self.add("nn.backward_overhead_s", dt - (self.closure_s - c0))

        p.set(tensor_cls, "backward", traced_backward)
        adam_step = gt.nn.optim.Adam.step

        def traced_adam(opt):
            t0 = perf_counter()
            adam_step(opt)
            end = perf_counter()
            self.add("nn.adam_s", end - t0)
            self.add("nn.steps", 1)
            self.step_times.append(end - self._step_start)
            self.stepping = False

        p.set(gt.nn.optim.Adam, "step", traced_adam)

        # checkpoint
        save, load = train.save_checkpoint, train.load_checkpoint

        def traced_save(path, ckpt):
            t0 = perf_counter()
            save(path, ckpt)
            self.add("checkpoint.save_s", perf_counter() - t0)
            self.add("checkpoint.saves", 1)
            self.add("checkpoint.bytes", os.path.getsize(path))

        p.set(train, "save_checkpoint", traced_save)
        p.set(train, "load_checkpoint",
              self._timed(load, "checkpoint.load", "checkpoint.loads"))

        # train: held-out evaluation inside run_train (run_eval calls the
        # same function; its time is not counted here)
        evaluate = train._evaluate

        def traced_evaluate(*args, **kwargs):
            self.in_evaluate = True
            t0 = perf_counter()
            try:
                return evaluate(*args, **kwargs)
            finally:
                self.in_evaluate = False
                if self.phase == "train":
                    self.add("train.eval_s", perf_counter() - t0)

        p.set(train, "_evaluate", traced_evaluate)
        try:
            yield self
        finally:
            p.restore()

    def _traced_op(self, name, fn):
        st = self.ops[name]
        stack = self._stack

        def op(*args, **kwargs):
            if not self.stepping:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            dt = perf_counter() - t0
            inner = stack.pop()
            if stack:
                stack[-1] += dt
            st.calls += 1
            st.fwd += dt - inner
            back = getattr(out, "_backward", None)
            if back is not None and not any(out is a for a in args):
                self.tape_nodes += 1

                def timed_backward(g):
                    t = perf_counter()
                    back(g)
                    d = perf_counter() - t
                    st.bwd += d
                    self.closure_s += d

                out._backward = timed_backward
            return out

        return op

    # -- report -----------------------------------------------------------

    def metrics(self, resolution: Counter) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        t = self.totals
        m: dict[str, tuple[float, str]] = {}
        for name in ("docs", "clusters", "shaper_builds"):
            m[f"shaping.{name}"] = (t[f"shaping.{name}"], "count")
        m["shaping.s"] = (t["shaping.s"], "s")
        m["shaping.shaper_build_s"] = (t["shaping.shaper_build_s"], "s")
        m["atlas.loads"] = (t["atlas.loads"], "count")
        m["atlas.load_s"] = (t["atlas.load_s"], "s")
        for level in RESOLVE_LEVELS:
            m[f"atlas.resolve_{level}"] = (resolution[level], "count")
        for name in ("load_dataset_s", "split_s", "encode_corpus_s", "bank_s", "batch_s"):
            m[f"pipeline.{name}"] = (t[f"pipeline.{name}"], "s")
        m["pipeline.bank_builds"] = (t["pipeline.bank_builds"], "count")
        m["pipeline.pad_fraction"] = (_ratio(t["pipeline.padded"], t["pipeline.positions"]),
                                      "ratio")
        for ph in ("train", "eval", "predict"):
            m[f"models.{ph}.encoder_s"] = (t[f"models.{ph}.encoder_s"], "s")
            m[f"models.{ph}.classifier_s"] = (t[f"models.{ph}.classifier_s"], "s")
        for ph in ("train", "eval"):
            m[f"models.{ph}.glyphs_encoded_per_doc"] = (
                _ratio(t[f"models.{ph}.glyphs"], t[f"models.{ph}.docs"]), "glyphs/doc")
        m["models.glyph_reuse"] = (
            _ratio(t["models.train.positions"] + t["models.eval.positions"],
                   t["models.train.glyphs"] + t["models.eval.glyphs"]), "positions/glyph")
        for name in NN_OPS:
            st = self.ops[name]
            m[f"nn.{name}.fwd_s"] = (st.fwd, "s")
            m[f"nn.{name}.bwd_s"] = (st.bwd, "s")
            m[f"nn.{name}.calls"] = (st.calls, "count")
        m["nn.tape_nodes_per_step"] = (_ratio(self.tape_nodes, t["nn.steps"]), "nodes/step")
        for name in ("backward_s", "backward_overhead_s", "adam_s"):
            m[f"nn.{name}"] = (t[f"nn.{name}"], "s")
        for name in ("saves", "bytes", "loads"):
            m[f"checkpoint.{name}"] = (t[f"checkpoint.{name}"], "count")
        m["checkpoint.save_s"] = (t["checkpoint.save_s"], "s")
        m["checkpoint.load_s"] = (t["checkpoint.load_s"], "s")
        m["train.step_s"] = (statistics.median(self.step_times) if self.step_times else 0.0,
                             "s")
        m["train.eval_s"] = (t["train.eval_s"], "s")
        return m

    def predict_reload_s(self) -> float:
        """Predict-phase time spent re-reading and rebuilding per call."""
        ph = self.by_phase["predict"]
        return (ph["checkpoint.load_s"] + ph["atlas.load_s"] + ph["pipeline.bank_s"]
                + ph["shaping.shaper_build_s"])


def _ratio(num, den) -> float:
    return num / den if den else 0.0
