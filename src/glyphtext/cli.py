"""Command-line harness.

Subcommands: build-atlas, synth-atlas, train, eval, predict,
export-embeddings. Every flag can also be supplied through `--config
FILE`, a flat `key = value` text file whose keys match the flag names;
explicit command-line flags override file values. Errors print a single
JSON line to stderr and exit 1; usage errors exit 2.

Heavy imports are deferred until after argument handling so that
`--threads N` can pin the BLAS thread pools via environment variables
before numpy is loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable

__all__ = ["main"]

_SUPPRESS = argparse.SUPPRESS


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_beta(s: str):
    if s.strip().lower() == "off":
        return None
    return float(s)


def _parse_max_len(s: str):
    if s.strip().lower() in ("none", "unbounded"):
        return None
    return int(s)


class _CommandSpec:
    """One subcommand: argparse wiring plus the file-config type table."""

    def __init__(self, sub, name: str, help: str):
        self.parser = sub.add_parser(name, help=help)
        self.parser.set_defaults(cmd=name)
        self.types: dict[str, Callable[[str], Any]] = {}
        self.defaults: dict[str, Any] = {}
        self.required: set[str] = set()
        self.parser.add_argument(
            "--config", default=_SUPPRESS, metavar="FILE",
            help="flat key=value file; flags override its values",
        )

    def opt(self, flag: str, *, type: Callable[[str], Any] = str, default: Any = None,
            required: bool = False, help: str = "", choices=None, metavar=None):
        dest = flag.lstrip("-").replace("-", "_")
        self.types[dest] = type
        if required:
            self.required.add(dest)
        else:
            self.defaults[dest] = default
        if type is _parse_bool:
            self.parser.add_argument(
                flag, dest=dest, default=_SUPPRESS, help=help,
                action=argparse.BooleanOptionalAction,
            )
        else:
            self.parser.add_argument(
                flag, dest=dest, type=type, default=_SUPPRESS, help=help,
                choices=choices, metavar=metavar,
            )

    def pos(self, name: str, *, help: str = ""):
        self.types[name] = str
        self.required.add(name)
        self.parser.add_argument(name, help=help)


def _train_flags(c: _CommandSpec) -> None:
    c.opt("--dataset", required=True, help="label<TAB>text dataset file")
    c.opt("--atlas", required=True, help="glyph atlas file")
    c.opt("--classifier", required=True, choices=["clcnn", "bigru"])
    c.opt("--checkpoint-dir", required=True, help="directory owned by this run")
    c.opt("--max-len", type=_parse_max_len, default=None,
          help="document length in shaped clusters; 'none' = unbounded")
    c.opt("--batch-size", type=int, default=64)
    c.opt("--lr", type=float, default=1e-3)
    c.opt("--beta", type=_parse_beta, default=0.99,
          help="class-balance beta in [0,1), or 'off'")
    c.opt("--wildcard-ratio", type=float, default=0.1)
    c.opt("--epochs", type=int, default=150)
    c.opt("--seed", type=int, default=0)
    c.opt("--eval-every", type=int, default=10)
    c.opt("--val-fraction", type=float, default=0.0,
          help="carve a validation set out of the training split")
    c.opt("--stratified", type=_parse_bool, default=True)
    c.opt("--resume", type=_parse_bool, default=False)
    c.opt("--threads", type=int, default=None, help="pin BLAS thread count (>= 1)")


def _build_cli() -> tuple[argparse.ArgumentParser, dict[str, _CommandSpec]]:
    parser = argparse.ArgumentParser(
        prog="glyphtext",
        description="Train and run glyph-image Arabic text classifiers.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True, metavar="COMMAND")
    specs: dict[str, _CommandSpec] = {}

    c = specs["build-atlas"] = _CommandSpec(sub, "build-atlas",
                                            "pack rendered glyph bitmaps into an atlas")
    c.opt("--glyph-dir", required=True, help="directory of raw 36x36 bitmap files")
    c.opt("--manifest", default=None, help="manifest path (default: GLYPH_DIR/manifest.txt)")
    c.opt("--out", required=True, help="atlas output path")

    c = specs["synth-atlas"] = _CommandSpec(sub, "synth-atlas",
                                            "generate a synthetic atlas covering a dataset")
    c.opt("--dataset", required=True)
    c.opt("--out", required=True)
    c.opt("--seed", type=int, default=0)

    c = specs["train"] = _CommandSpec(sub, "train", "train a classifier")
    _train_flags(c)

    c = specs["eval"] = _CommandSpec(sub, "eval", "score a checkpoint on the held-out split")
    c.opt("--checkpoint", required=True, help="checkpoint file")
    c.opt("--dataset", default=None, help="override the stored dataset path")
    c.opt("--seed", type=int, default=None, help="override the stored split seed")
    c.opt("--out", default=None, help="also write the metrics JSON here")
    c.opt("--threads", type=int, default=None)

    c = specs["predict"] = _CommandSpec(sub, "predict", "classify one document")
    c.opt("--checkpoint", required=True)
    c.pos("text", help="document text")
    c.opt("--threads", type=int, default=None)

    c = specs["export-embeddings"] = _CommandSpec(sub, "export-embeddings",
                                                  "dump per-glyph encoder vectors as TSV")
    c.opt("--checkpoint", required=True)
    c.opt("--out", required=True)
    c.opt("--atlas", default=None, help="override the stored atlas path")
    c.opt("--threads", type=int, default=None)

    return parser, specs


def _read_config_file(path: str, spec: _CommandSpec) -> dict[str, Any]:
    from .errors import ParameterError

    values: dict[str, Any] = {}
    try:
        lines = open(path, "r", encoding="utf-8").read().splitlines()
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"{path}: line {lineno} is not key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        dest = key.replace("-", "_")
        if dest not in spec.types:
            raise ParameterError(f"{path}: unknown key {key!r} on line {lineno}")
        try:
            values[dest] = spec.types[dest](value)
        except ValueError as exc:
            raise ParameterError(f"{path}: bad value for {key!r} on line {lineno}: {exc}") from exc
    return values


def _set_threads(n) -> None:
    if n is None:
        return
    if n < 1:
        from .errors import ParameterError

        raise ParameterError(f"threads must be >= 1, got {n}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(int(n))


def _dispatch(cmd: str, a: dict[str, Any]) -> None:
    if cmd == "build-atlas":
        from .atlas import build_atlas, save_atlas

        manifest = a["manifest"] or os.path.join(a["glyph_dir"], "manifest.txt")
        atlas = build_atlas(a["glyph_dir"], manifest)
        save_atlas(atlas, a["out"])
        print(json.dumps({"entries": len(atlas), "out": a["out"]}))
    elif cmd == "synth-atlas":
        from .atlas import GlyphAtlas, build_synthetic_atlas, save_atlas
        from .pipeline import load_dataset
        from .shaping import ArabicShaper

        ds = load_dataset(a["dataset"])
        shaper = ArabicShaper()
        probe = GlyphAtlas()
        keys: dict[tuple, None] = {}
        for _, text in ds.records:
            for sc in shaper.shape_text(text):
                keys.setdefault(probe.candidate_keys(sc)[0], None)
        atlas = build_synthetic_atlas(keys, seed=a["seed"])
        save_atlas(atlas, a["out"])
        print(json.dumps({"entries": len(atlas), "out": a["out"]}))
    elif cmd == "train":
        from .train import TrainConfig, run_train

        kwargs = {k: v for k, v in a.items() if k != "threads"}
        path, _ = run_train(TrainConfig(**kwargs))
        print(json.dumps({"checkpoint": str(path)}))
    elif cmd == "eval":
        from .metrics import metrics_json
        from .train import _eval_trained, _load_trained

        model = _load_trained(a["checkpoint"])
        m = _eval_trained(model, a["dataset"], a["seed"], a["out"])
        print(metrics_json(m, model.label_map))
    elif cmd == "predict":
        from .train import _load_trained, _predict_trained

        model = _load_trained(a["checkpoint"])
        label, probs = _predict_trained(model, a["text"])
        print(json.dumps(
            {"label": label,
             "probabilities": {name: float(probs[i]) for name, i in model.label_map.items()}},
            ensure_ascii=False,
        ))
    else:  # export-embeddings
        from .atlas import load_atlas
        from .checkpoint import load_checkpoint
        from .train import _restore_model, export_embeddings

        ckpt = load_checkpoint(a["checkpoint"])
        _, _, params = _restore_model(ckpt)
        atlas = load_atlas(a["atlas"] or ckpt.config["atlas"])
        written = export_embeddings(params, atlas, a["out"])
        print(json.dumps({"written": written, "out": a["out"]}))


def main(argv=None) -> int:
    parser, specs = _build_cli()
    ns = vars(parser.parse_args(argv))
    cmd = ns.pop("cmd")
    spec = specs[cmd]
    config_path = ns.pop("config", None)

    try:
        merged = dict(spec.defaults)
        if config_path is not None:
            merged.update(_read_config_file(config_path, spec))
        merged.update(ns)
        missing = sorted(spec.required - merged.keys())
        if missing:
            from .errors import ParameterError

            flags = ", ".join("--" + m.replace("_", "-") for m in missing)
            raise ParameterError(f"missing required argument(s): {flags}")
        _set_threads(merged.pop("threads", None))
        _dispatch(cmd, merged)
        return 0
    except Exception as exc:  # noqa: BLE001 - boundary: report and exit nonzero
        from .errors import GlyphTextError

        if isinstance(exc, (GlyphTextError, OSError, ValueError)):
            print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
                  file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
