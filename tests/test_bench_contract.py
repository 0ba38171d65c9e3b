"""The names that the benchmark in `perfbench/` calls or patches still exist.

perfbench wraps package functions from outside the package, so a deleted or
renamed name would only show when a benchmark run crashes. Installing and
removing its wrappers and building a traced report look up every such name,
without a training run.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import glyphtext

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

# Names that perfbench/run.py and perfbench/workloads.py call directly.
CALLED = {
    "train": ("TrainConfig", "run_train", "run_eval", "predict_text", "_restore_model"),
    "checkpoint": ("load_checkpoint",),
    "pipeline": ("LENGTH_CAP", "GlyphIndex", "load_dataset", "split_stratified",
                 "encode_corpus", "encode_document"),
    "atlas": ("GlyphAtlas", "load_atlas", "save_atlas"),
    "shaping": ("ArabicShaper",),
    "models": ("forward_documents",),
}


def test_benchmark_wrappers_install_and_report():
    with tracing.Hooks(glyphtext).installed():
        pass
    with tracing.count_resolutions(glyphtext, Counter()):
        pass
    tracer = tracing.Tracer(glyphtext)
    with tracer.installed():
        pass
    metrics = tracer.metrics(Counter())
    assert all(f"nn.{name}.calls" in metrics for name in tracing.NN_OPS)


def test_benchmark_called_names_exist():
    for module, names in CALLED.items():
        mod = getattr(glyphtext, module)
        missing = [name for name in names if not hasattr(mod, name)]
        assert not missing, f"glyphtext.{module} lacks {missing}"
