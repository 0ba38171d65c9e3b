"""Dataset loading, splitting, document encoding, and batching.

Datasets are UTF-8 text files, one `label<TAB>text` record per line.
Documents are normalized, clustered, and contextually shaped, then each
shaped cluster becomes one glyph index: 0 is reserved for padding, atlas
entries take 1..N in atlas order, and N+1 is the fallback glyph for
clusters the atlas cannot resolve.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .atlas import GLYPH_SIZE, GlyphAtlas, to_feature
from .errors import (
    DatasetError,
    EmptyDocumentError,
    LabelError,
    ParameterError,
    StratificationError,
)
from .shaping import ArabicShaper, _is_removed

__all__ = [
    "PAD_ID",
    "LENGTH_CAP",
    "Dataset",
    "EncodedDoc",
    "GlyphIndex",
    "load_dataset",
    "split_stratified",
    "class_counts",
    "encode_document",
    "encode_corpus",
    "iter_id_batches",
    "synth_longtail",
]

log = logging.getLogger(__name__)

PAD_ID = 0
# Safety cap on unbounded (variable-length) documents.
LENGTH_CAP = 4096

# Arabic letters used by the synthetic generator (hamza through yeh).
_SYNTH_POOL = [chr(c) for c in range(0x0621, 0x064B)]


@dataclass
class Dataset:
    records: list[tuple[int, str]]
    label_map: dict[str, int]
    dropped_empty: int = 0

    @property
    def num_classes(self) -> int:
        return len(self.label_map)

    @property
    def labels(self) -> np.ndarray:
        return np.array([lab for lab, _ in self.records], dtype=np.int64)

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class EncodedDoc:
    glyph_ids: np.ndarray  # int64, padded to max_len when finite
    true_len: int


class GlyphIndex:
    """Maps shaped clusters to dense glyph ids and holds the bitmap bank."""

    def __init__(self, atlas: GlyphAtlas):
        self.atlas = atlas
        self._ids = {key: i + 1 for i, key in enumerate(atlas.entries)}
        self.fallback_id = len(atlas.entries) + 1
        self.num_glyphs = len(atlas.entries) + 2

    def id_for(self, shaped) -> int:
        key = self.atlas.resolve(shaped)
        return self._ids[key] if key is not None else self.fallback_id

    def bank(self) -> np.ndarray:
        """(num_glyphs, 1, 36, 36) float32 features; row 0 is the blank pad."""
        bank = np.zeros((self.num_glyphs, 1, GLYPH_SIZE, GLYPH_SIZE), dtype=np.float32)
        for key, bitmap in self.atlas.entries.items():
            bank[self._ids[key]] = to_feature(bitmap)
        bank[self.fallback_id] = to_feature(self.atlas.fallback)
        return bank


def load_dataset(path) -> Dataset:
    """Read `label<TAB>text` lines, interning labels in first-appearance order.

    Records whose text normalizes to nothing (empty, or only zero-width and
    control characters) are dropped and counted in `dropped_empty`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    label_map: dict[str, int] = {}
    records: list[tuple[int, str]] = []
    dropped = 0
    for lineno, line in enumerate(lines, start=1):
        if "\t" not in line:
            raise DatasetError(f"{path}: line {lineno} has no tab separator")
        label, text = line.split("\t", 1)
        if all(_is_removed(ch) for ch in text):
            dropped += 1
            continue
        if label not in label_map:
            label_map[label] = len(label_map)
        records.append((label_map[label], text))
    if not records:
        raise DatasetError(f"{path}: no usable records")
    if dropped:
        log.warning("%s: dropped %d record(s) whose text normalizes to nothing", path, dropped)
    return Dataset(records, label_map, dropped_empty=dropped)


def split_stratified(
    ds: Dataset, test_fraction: float = 0.2, seed: int = 0, stratified: bool = True
) -> tuple[Dataset, Dataset]:
    """Deterministic per-class 80/20-style split.

    Each class is shuffled with a seed derived from (seed, class id) and
    split so its test share is round(n * test_fraction), clamped to leave
    at least one record on each side. `stratified=False` shuffles and
    splits the whole dataset instead (same clamping, applied globally).
    """
    if not 0.0 < test_fraction < 1.0:
        raise ParameterError(f"test_fraction must lie in (0, 1), got {test_fraction}")

    def cut(n: int) -> int:
        return min(max(round(n * test_fraction), 1), n - 1)

    if not stratified:
        if len(ds) < 2:
            raise StratificationError("need at least 2 records to split")
        order = np.random.default_rng(np.random.SeedSequence([seed, 3])).permutation(len(ds))
        n_test = cut(len(ds))
        test_idx = set(order[:n_test].tolist())
        train = [r for i, r in enumerate(ds.records) if i not in test_idx]
        test = [r for i, r in enumerate(ds.records) if i in test_idx]
        return (
            Dataset(train, dict(ds.label_map)),
            Dataset(test, dict(ds.label_map)),
        )

    by_class: dict[int, list[int]] = {}
    for i, (lab, _) in enumerate(ds.records):
        by_class.setdefault(lab, []).append(i)
    for lab in range(ds.num_classes):
        if len(by_class.get(lab, [])) < 2:
            name = next(s for s, l in ds.label_map.items() if l == lab)
            raise StratificationError(
                f"class {name!r} has {len(by_class.get(lab, []))} record(s); need >= 2 to split"
            )
    train_idx: list[int] = []
    test_idx: list[int] = []
    for lab in sorted(by_class):
        idx = np.array(by_class[lab])
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3, lab]))
        rng.shuffle(idx)
        n_test = cut(len(idx))
        test_idx.extend(idx[:n_test].tolist())
        train_idx.extend(idx[n_test:].tolist())
    train = Dataset([ds.records[i] for i in train_idx], dict(ds.label_map))
    test = Dataset([ds.records[i] for i in test_idx], dict(ds.label_map))
    return train, test


def class_counts(train: Dataset) -> np.ndarray:
    """Histogram of training labels over all classes in the label map."""
    if not train.records:
        raise DatasetError("cannot count classes of an empty dataset")
    counts = np.bincount(train.labels, minlength=train.num_classes)
    missing = np.nonzero(counts == 0)[0]
    if missing.size:
        name = next(s for s, l in train.label_map.items() if l == missing[0])
        raise LabelError(f"class {name!r} has no training records")
    return counts.astype(np.int64)


def encode_document(
    text: str,
    index: GlyphIndex,
    shaper: ArabicShaper,
    max_len: Optional[int] = None,
) -> EncodedDoc:
    """Shape `text` and map each cluster to a glyph id.

    Finite `max_len` truncates and right-pads with PAD; unbounded documents
    are capped at LENGTH_CAP and left unpadded.
    """
    shaped = shaper.shape_text(text)
    if not shaped:
        raise EmptyDocumentError(f"text normalizes to nothing: {text!r}")
    limit = max_len if max_len is not None else LENGTH_CAP
    shaped = shaped[:limit]
    ids = np.full(max_len if max_len is not None else len(shaped), PAD_ID, dtype=np.int64)
    for i, sc in enumerate(shaped):
        ids[i] = index.id_for(sc)
    return EncodedDoc(ids, len(shaped))


def encode_corpus(
    ds: Dataset,
    index: GlyphIndex,
    shaper: ArabicShaper,
    max_len: Optional[int],
) -> list[EncodedDoc]:
    return [encode_document(text, index, shaper, max_len) for _, text in ds.records]


def _batch_order(
    docs: Sequence[EncodedDoc], batch_size: int, bucket: bool, seed: int, epoch: int
) -> list[list[int]]:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2, epoch]))
    order = rng.permutation(len(docs))
    if bucket:
        # Group similar lengths; stable sort keeps the shuffled order within
        # equal lengths, and batch order is then shuffled again.
        lengths = np.array([docs[i].true_len for i in order])
        order = order[np.argsort(lengths, kind="stable")]
    batches = [order[i : i + batch_size].tolist() for i in range(0, len(order), batch_size)]
    if bucket and len(batches) > 1:
        rng.shuffle(batches)
    return batches


def iter_id_batches(
    docs: Sequence[EncodedDoc],
    labels: np.ndarray,
    batch_size: int,
    max_len: Optional[int],
    seed: int,
    epoch: int,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (glyph_ids (B,L), lengths (B,), labels (B,)) batches.

    Finite max_len: every batch is padded to exactly max_len. Unbounded:
    documents are bucketed by length and padded to the batch maximum.
    """
    if not docs:
        raise DatasetError("cannot batch an empty dataset")
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    bucket = max_len is None
    for batch in _batch_order(docs, batch_size, bucket, seed, epoch):
        lens = np.array([docs[i].true_len for i in batch], dtype=np.int64)
        width = int(max_len) if max_len is not None else int(lens.max())
        ids = np.full((len(batch), width), PAD_ID, dtype=np.int64)
        for row, i in enumerate(batch):
            n = min(docs[i].true_len, width)
            ids[row, :n] = docs[i].glyph_ids[:n]
        yield ids, np.minimum(lens, width), labels[batch]


def synth_longtail(
    C: int,
    head_count: int,
    tail_count: int,
    vocab_per_class: int = 10,
    seed: int = 0,
) -> Dataset:
    """Long-tailed synthetic dataset: geometric class sizes, separable texts.

    Class i gets round(head * (tail/head)^(i/(C-1))) records of random
    strings over a class-specific letter multiset drawn from the Arabic
    block, so classes are distinguishable by character distribution alone.
    """
    if C < 1:
        raise ParameterError(f"need C >= 1 classes, got {C}")
    if not head_count >= tail_count >= 2:
        raise ParameterError(
            f"need head_count >= tail_count >= 2, got {head_count}, {tail_count}"
        )
    if not 1 <= vocab_per_class <= len(_SYNTH_POOL):
        raise ParameterError(f"vocab_per_class must lie in [1, {len(_SYNTH_POOL)}]")

    if C == 1:
        counts = [head_count]
    else:
        ratio = tail_count / head_count
        counts = [round(head_count * ratio ** (i / (C - 1))) for i in range(C)]

    records: list[tuple[int, str]] = []
    label_map = {f"class{i}": i for i in range(C)}
    for c, n in enumerate(counts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 4, c]))
        letters = rng.choice(len(_SYNTH_POOL), size=vocab_per_class, replace=False)
        alphabet = [_SYNTH_POOL[j] for j in letters]
        for _ in range(n):
            doc_len = int(rng.integers(8, 17))
            text = "".join(alphabet[j] for j in rng.integers(0, vocab_per_class, size=doc_len))
            records.append((c, text))
    return Dataset(records, label_map)
